"""Property tests: the sort- and mask-based set operations of the load, split
and graph paths equal the ``np.unique`` and ``np.setdiff1d`` definitions in
``reference``, and a table parsed from the whole file equals the line-list
parse it replaced, value for value and fault for fault.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from scipy import sparse  # noqa: E402

from agst import (  # noqa: E402
    DatasetBundle,
    DatasetFormatError,
    SoftLabels,
    SparseGraph,
    SplitSpec,
    TrainConfig,
    make_split,
)
from agst.data import UNLABELED, _Table  # noqa: E402
from agst.mlp import round_inputs  # noqa: E402
from agst.propagation import initial_label_matrix  # noqa: E402
import reference  # noqa: E402


@st.composite
def pair_lists(draw):
    """(n, pairs): up to 60 endpoint pairs on n nodes, duplicates in either
    order and self-loops included; possibly none."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    return n, pairs + [(j, i) for i, j in repeats]


class TestGraphKeys:
    @settings(max_examples=300, deadline=None)
    @given(pair_lists())
    @example((1, []))
    @example((3, [(0, 0), (2, 2)]))
    @example((4, [(0, 3), (3, 0), (0, 3), (1, 1)]))
    def test_keys_are_the_unique_canonical_pairs(self, drawn):
        n, pairs = drawn
        graph = SparseGraph(n, pairs)
        expected = reference.graph_keys(n, pairs)
        assert graph.keys.dtype == np.int64
        assert np.array_equal(graph.keys, expected)
        assert np.array_equal(graph.edges, np.column_stack([expected // n, expected % n]))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 5000), k=st.integers(0, 20_000), seed=st.integers(0, 2**32 - 1))
    def test_keys_at_benchmark_sizes(self, n, k, seed):
        pairs = np.random.default_rng(seed).integers(0, n, size=(k, 2))
        assert np.array_equal(SparseGraph(n, pairs).keys, reference.graph_keys(n, pairs))


@st.composite
def labeled_bundles(draw):
    """A bundle of n nodes over c classes, some nodes without gold."""
    n, c = draw(st.integers(4, 300)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gold = rng.integers(0, c, size=n)
    gold[rng.random(n) < draw(st.floats(0.0, 0.5))] = UNLABELED
    return DatasetBundle(SparseGraph(n, []), np.zeros((n, 1)), gold, c)


def split_or_error(draw_split):
    try:
        return draw_split()
    except ValueError:
        return ValueError


def same_split(ours, theirs) -> bool:
    if ours is ValueError or theirs is ValueError:
        return ours is theirs
    return all(np.array_equal(getattr(ours, name), getattr(theirs, name))
               and getattr(ours, name).dtype == getattr(theirs, name).dtype
               for name in ("labeled", "validation", "test"))


class TestSplits:
    @settings(max_examples=150, deadline=None)
    @given(labeled_bundles(), st.integers(0, 2**31), st.integers(1, 6), st.integers(0, 6))
    def test_balanced_equals_the_setdiff_version(self, bundle, seed, k, val_per_class):
        ours = split_or_error(lambda: make_split(bundle, "balanced", seed, k=k,
                                                 val_per_class=val_per_class))
        theirs = split_or_error(lambda: reference.make_split(bundle, "balanced", seed, k=k,
                                                             val_per_class=val_per_class))
        assert same_split(ours, theirs)

    @settings(max_examples=150, deadline=None)
    @given(labeled_bundles(), st.integers(0, 2**31), st.floats(0.01, 0.9))
    def test_imbalanced_equals_the_setdiff_version(self, bundle, seed, rate):
        ours = split_or_error(lambda: make_split(bundle, "imbalanced", seed, rate=rate))
        theirs = split_or_error(lambda: reference.make_split(bundle, "imbalanced", seed,
                                                             rate=rate))
        assert same_split(ours, theirs)

    @settings(max_examples=300, deadline=None)
    @given(*[st.lists(st.integers(0, 30), max_size=12)] * 3)
    def test_split_sets_are_refused_exactly_when_they_overlap(self, labeled, validation, test):
        joined = np.array(labeled + validation + test, dtype=np.int64)
        if np.unique(joined).size == joined.size:
            SplitSpec(labeled, validation, test)
        else:
            with pytest.raises(ValueError, match="pairwise disjoint"):
                SplitSpec(labeled, validation, test)

    @settings(max_examples=150, deadline=None)
    @given(labeled_bundles(), st.data())
    def test_unlabeled_nodes_and_missing_classes_equal_setdiff(self, bundle, data):
        eligible = bundle.labeled_nodes()
        labeled = data.draw(st.lists(st.sampled_from(eligible.tolist()), min_size=1,
                                     unique=True) if eligible.size else st.nothing())
        split = SplitSpec(labeled, [], [])
        c = bundle.num_classes
        soft = SoftLabels(np.full((bundle.n, c), 1.0 / c), normalized=True)
        unlabeled = round_inputs(bundle, split, soft, TrainConfig(lambda2=0.0), np.float64)[0]
        assert np.array_equal(unlabeled, reference.unlabeled_nodes(bundle.n, split.labeled))
        missing = reference.missing_classes(c, bundle.gold[split.labeled])
        if missing.size:
            with pytest.raises(ValueError) as err:
                initial_label_matrix(bundle, split)
            assert str(err.value) == f"classes {missing.tolist()} absent from the labeled set"
        else:
            assert initial_label_matrix(bundle, split).sum() == len(labeled)


# tokens numpy's parse and the line parse read alike, ones only the line
# parse reads, and ones neither reads
TABLE_TOKENS = st.sampled_from([
    "0", "1", "7", "12", "+1", "-3", "-0", " 4", "5 ", "\xa06", "2.5", "1e3", "1_000", "x", "",
    "99999999999999999999", "nan"])
BLANK_LINES = st.sampled_from(["", " ", "\t", "  \t ", "\x0c"])


@st.composite
def text_tables(draw):
    """(integer, width, text): a table of integers split by tabs or of floats
    split by commas, each line ``width`` tokens (or, now and then, one more
    or one less), with blank lines, padding, either line end, and with or
    without a last newline."""
    integer, width = draw(st.booleans()), draw(st.integers(1, 3))
    delimiter = "\t" if integer else ","
    line = st.lists(TABLE_TOKENS, min_size=width, max_size=width)
    if draw(st.integers(0, 4)) == 0:
        line = st.one_of(line, st.lists(TABLE_TOKENS, min_size=max(1, width - 1),
                                        max_size=width + 1))
    lines = draw(st.lists(st.one_of(line.map(delimiter.join), BLANK_LINES), max_size=6))
    pad = draw(st.sampled_from(["", " ", "  "]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(pad + line + pad + end for line in lines)
    return integer, width, text[:-len(end)] if text and draw(st.booleans()) else text


def values_of(rows):
    """dtype, shape and the repr of each value, so -0.0 and 0.0 differ."""
    rows = rows.toarray() if sparse.issparse(rows) else rows
    return rows.dtype, rows.shape, [repr(v) for v in rows.ravel().tolist()]


def fault_message(table):
    try:
        table.check()
    except DatasetFormatError as err:
        return str(err)
    return None


class TestTableRead:
    @settings(max_examples=500, deadline=None)
    @given(text_tables())
    @example((True, 2, "0\t1\n\n2\t3\n\n"))                  # blank lines, a trailing one
    @example((False, 2, " 1.5 , 2 \n\t\n3,4\n"))              # padded fields, a blank line
    @example((True, 2, "0\t1\r\n2\t3\r\n"))                   # CRLF
    @example((True, 2, "+1\t2\n3\t+4\n"))
    @example((True, 2, "1_000\t2\n"))
    @example((False, 1, "1_000\n2\n"))
    @example((True, 2, ""))
    @example((False, 3, "\n \n"))
    @example((True, 2, "0\t1\n2\t3\t4\n5\t6\n"))               # a line of the wrong width
    @example((False, 2, "1,2\n3,4\n"))                        # one-digit, read from its bytes
    def test_rows_and_faults_equal_the_line_list_parse(self, drawn):
        integer, width, text = drawn
        dtype, delimiter = (np.int64, "\t") if integer else (np.float64, ",")
        args = (dtype, delimiter, width, "wrong count {got}", "bad value")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.txt"
            path.write_bytes(text.encode())
            ours = _Table.read(path, *args)
            theirs = _Table(path, *reference.read_table(path, *args))
            assert values_of(ours.rows) == values_of(theirs.rows)
            assert ours.fault == theirs.fault
            assert fault_message(ours) == fault_message(theirs)
