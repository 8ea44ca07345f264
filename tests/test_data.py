import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from agst import (
    DatasetBundle,
    DatasetFormatError,
    SparseGraph,
    SplitSpec,
    convert_content_release,
    load_dataset,
    make_split,
    save_dataset,
    two_cluster_bundle,
)

import reference
from conftest import make_bundle, random_graph_edges


def write_dataset_dir(root, meta, edges, features, labels):
    root.mkdir(parents=True, exist_ok=True)
    (root / "meta").write_text(meta)
    (root / "edges.tsv").write_text(edges)
    (root / "features.csv").write_text(features)
    (root / "labels.tsv").write_text(labels)
    return root


# digit strings, signed values, and ones only the float parse (or the line
# scan) reads
FEATURE_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "007", "+7", " 7 ", "32767", "-0", "-3", "0.5", "1e3",
                     "40000", "1_0", "x"]),
    st.integers(0, 99_999).map(str),
    st.integers(0, 999).map("{:05d}".format),
)


ONE_DIGIT_PERTURBATIONS = (None, "crlf", "blank line", "no final newline", "trailing comma",
                           "two digits", "shifted token", "sign or space", "row past n")


@st.composite
def one_digit_tables(draw):
    """(n, f, text): an n x f table of one-digit tokens, as ``save_dataset``
    writes a binary one, with at most one perturbation; shifted tokens leave
    the total token count unchanged. The drawn rows may follow 2048 rows of
    zeros, which puts the perturbation past the loader's first 4 KiB."""
    n, f = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    digit = st.sampled_from("0123456789")
    rows = draw(st.lists(st.lists(digit, min_size=f, max_size=f), min_size=n, max_size=n))
    perturbation = draw(st.sampled_from(ONE_DIGIT_PERTURBATIONS))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, f - 1))
    zeros = draw(st.sampled_from([0, 2048]))
    rows = [["0"] * f for _ in range(zeros)] + rows
    n, i = n + zeros, i + zeros
    end = "\n"
    if perturbation == "crlf":
        end = "\r\n"
    elif perturbation == "two digits":
        rows[i][j] += draw(digit)
    elif perturbation == "shifted token":
        assume(n - zeros > 1)
        other = draw(st.integers(zeros, n - 1).filter(lambda k: k != i))
        rows[i].append(rows[other].pop())
    elif perturbation == "sign or space":
        rows[i][j] = draw(st.sampled_from(["+", " "])) + rows[i][j]
    elif perturbation == "row past n":
        rows.append(draw(st.lists(digit, min_size=f, max_size=f)))
    lines = [",".join(row) for row in rows]
    if perturbation == "blank line":
        lines.insert(i, "")
    elif perturbation == "trailing comma":
        lines[i] += ","
    text = "".join(line + end for line in lines)
    return n, f, text[:-1] if perturbation == "no final newline" else text


def line_rules_features(text: str, n: int, f: int):
    """The rows of a ``features.csv`` as the format's rules read it line by
    line, or the message of its first fault (every token here parses)."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if len(rows) == n:
            return f"features.csv:{lineno}: more than n={n} rows"
        tokens = line.strip().split(",")
        if len(tokens) != f:
            return f"features.csv:{lineno}: expected {f} values, got {len(tokens)}"
        rows.append([float(token) for token in tokens])
    if len(rows) != n:
        return f"features.csv: expected {n} rows, got {len(rows)}"
    return rows


@pytest.fixture
def tiny_dir(tmp_path):
    return write_dataset_dir(
        tmp_path / "tiny",
        meta="n=2\nf=2\nc=2\n",
        edges="0\t1\n",
        features="1.5,0.25\n-0.5,3\n",
        labels="0\t0\n",
    )


class TestLoadDataset:
    def test_minimal_valid_input(self, tiny_dir):
        bundle = load_dataset(tiny_dir)
        assert bundle.n == 2
        assert bundle.graph.m == 1
        assert bundle.num_features == 2
        assert bundle.num_classes == 2
        assert np.array_equal(bundle.gold, [0, -1])
        assert np.allclose(bundle.features, [[1.5, 0.25], [-0.5, 3.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="missing dataset file"):
            load_dataset(tmp_path / "nope")

    def test_node_id_out_of_range(self, tmp_path):
        root = write_dataset_dir(tmp_path / "bad", "n=3\nf=1\nc=1\n",
                                 "0\t5\n", "0\n0\n0\n", "0\t0\n")
        with pytest.raises(DatasetFormatError, match=r"edges\.tsv:1.*out of range"):
            load_dataset(root)

    def test_non_numeric_feature(self, tmp_path):
        root = write_dataset_dir(tmp_path / "bad", "n=2\nf=2\nc=1\n",
                                 "0\t1\n", "1,2\nx,4\n", "0\t0\n")
        with pytest.raises(DatasetFormatError, match=r"features\.csv:2.*non-numeric"):
            load_dataset(root)

    def test_label_beyond_class_count(self, tmp_path):
        root = write_dataset_dir(tmp_path / "bad", "n=2\nf=1\nc=2\n",
                                 "0\t1\n", "1\n2\n", "0\t0\n1\t2\n")
        with pytest.raises(DatasetFormatError, match=r"labels\.tsv:2.*class count"):
            load_dataset(root)

    def test_duplicate_edges_deduplicated(self, tmp_path, caplog):
        root = write_dataset_dir(tmp_path / "dup", "n=3\nf=1\nc=1\n",
                                 "0\t1\n1\t0\n0\t1\n1\t2\n", "0\n0\n0\n", "0\t0\n")
        with caplog.at_level("INFO", logger="agst.data"):
            bundle = load_dataset(root)
        assert bundle.graph.m == 2
        assert any("duplicate" in r.message for r in caplog.records)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature(self, tmp_path, value):
        # the blank line still counts, so the bad row is line 4
        root = write_dataset_dir(tmp_path / "bad", "n=3\nf=2\nc=1\n",
                                 "0\t1\n", f"1,2\n3,4\n\n5,{value}\n", "0\t0\n")
        with pytest.raises(DatasetFormatError, match=r"^features\.csv:4: non-finite feature$"):
            load_dataset(root)

    @pytest.mark.parametrize("name, meta, edges, features, labels, message", [
        ("edges.tsv", "n=3\nf=1\nc=1", "0\t1\n1\t2\t0\n", "0\n0\n0", "",
         "edges.tsv:2: expected src<TAB>dst"),
        ("edges.tsv", "n=3\nf=1\nc=1", "\n0\tx\n", "0\n0\n0", "",
         "edges.tsv:2: non-integer node id"),
        ("edges.tsv", "n=3\nf=1\nc=1", "0\t1\n0\t2.7\n", "0\n0\n0", "",
         "edges.tsv:2: non-integer node id"),
        ("edges.tsv", "n=3\nf=1\nc=1", "0\t1\n1e0\t2\n", "0\n0\n0", "",
         "edges.tsv:2: non-integer node id"),
        ("edges.tsv", "n=3\nf=1\nc=1", "0\t1\n-1\t2\n", "0\n0\n0", "",
         "edges.tsv:2: node id out of range [0, 3)"),
        ("features.csv", "n=2\nf=2\nc=1", "", "1,2\n3\n", "",
         "features.csv:2: expected 2 values, got 1"),
        ("features.csv", "n=2\nf=1\nc=1", "", "1\n2\n\n3\n", "",
         "features.csv:4: more than n=2 rows"),
        ("features.csv", "n=3\nf=1\nc=1", "", "1\n2\n", "",
         "features.csv: expected 3 rows, got 2"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "0\t1\n1\n",
         "labels.tsv:2: expected node<TAB>class"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "0\t1.0\n",
         "labels.tsv:1: non-integer entry"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "1\t0\n0\t2.7\n",
         "labels.tsv:2: non-integer entry"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "0\t1\n2\t0\n",
         "labels.tsv:2: node id out of range [0, 2)"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "1\t1\n\n1\t0\n",
         "labels.tsv:3: duplicate label for node 1"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "1\t0\n0\t99999999999999999999\n",
         "labels.tsv:2: label 99999999999999999999 >= declared class count 2"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "0\t1\n1\t-1\n",
         "labels.tsv:2: negative label -1; unlabeled nodes are omitted, not marked -1"),
        ("meta", "n=2\nf=1\nc=2\n\nn=5", "", "0\n0", "",
         "meta:5: duplicate key 'n'"),
        ("meta", "n=2\nf=1\nc=2\nd=4", "", "0\n0", "",
         "meta:4: unknown key 'd'"),
        ("meta", "n=2\nf=one\nc=2", "", "0\n0", "",
         "meta:2: non-integer value 'one'"),
        ("meta", "n=2\nc=2", "", "0\n0", "",
         "meta: missing key 'f'"),
        ("meta", "n=2\nf=1\nc=0", "", "0\n0", "",
         "meta: c must be positive"),
        # two faults: the earliest faulty line wins, and on one line
        # `more than n rows` comes before a parse fault
        ("edges.tsv", "n=3\nf=1\nc=1", "0\t5\n0\tx\n", "0\n0\n0", "",
         "edges.tsv:1: node id out of range [0, 3)"),
        ("features.csv", "n=2\nf=2\nc=1", "", "1,2\n3,4\n5\n", "",
         "features.csv:3: more than n=2 rows"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "1\t0\n1\t1\n5\t0\n",
         "labels.tsv:2: duplicate label for node 1"),
        ("labels.tsv", "n=2\nf=1\nc=2", "", "0\n0", "0\t5\n1\tx\n",
         "labels.tsv:1: label 5 >= declared class count 2"),
        ("features.csv", "n=2\nf=1\nc=1", "", "nan\n0\n0\n", "",
         "features.csv:1: non-finite feature"),
        ("features.csv", "n=3\nf=1\nc=1", "", "0\ninf\n", "",
         "features.csv:2: non-finite feature"),
        ("features.csv", "n=2\nf=2\nc=1", "", "0,-inf\n3\n", "",
         "features.csv:1: non-finite feature"),
        # the features' finiteness is checked last, after every other file
        ("labels.tsv", "n=2\nf=1\nc=2", "", "nan\n0", "0\t5\n",
         "labels.tsv:1: label 5 >= declared class count 2"),
    ])
    def test_error_names_file_and_line(self, tmp_path, name, meta, edges, features,
                                       labels, message):
        root = write_dataset_dir(tmp_path / "bad", meta, edges, features, labels)
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(root)
        assert str(err.value) == message

    def test_integer_parse_via_float_is_refused(self, tmp_path, monkeypatch):
        # numpy before 2.0 reads "2.7" as the integer 2 with only a
        # DeprecationWarning; such a parse must still end in the line scan
        real_loadtxt = np.loadtxt
        dtypes = []

        def lenient_loadtxt(lines, dtype, **kwargs):
            dtypes.append(np.dtype(dtype))
            if np.issubdtype(dtype, np.integer):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                return real_loadtxt(lines, dtype=np.float64, **kwargs).astype(dtype)
            return real_loadtxt(lines, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        root = write_dataset_dir(tmp_path / "bad", "n=3\nf=1\nc=3", "0\t1\n",
                                 "0\n0\n0", "0\t1\n1\t2.7\n")
        with pytest.raises(DatasetFormatError, match=r"^labels\.tsv:2: non-integer entry$"):
            load_dataset(root)
        # a features table is parsed as floats, so the float parse, not the
        # line scan, reads 2.7
        root = write_dataset_dir(tmp_path / "float", "n=3\nf=1\nc=3", "0\t1\n",
                                 "0\n2.7\n1", "0\t1\n")
        dtypes.clear()
        assert load_dataset(root).features.ravel().tolist() == [0.0, 2.7, 1.0]
        assert np.dtype(np.float64) in dtypes

    def test_spellings_only_the_line_scan_accepts(self, tmp_path):
        # int() and float() accept digit underscores; the one-call parse does
        # not, and the line scan then loads the file as before
        root = write_dataset_dir(tmp_path / "odd", "n=12\nf=2\nc=2\n",
                                 "0\t1_1\n\n  \n3\t4\t\n",
                                 "1_0.5,2\n" + "0,0\n" * 11, "1_1\t1\n")
        bundle = load_dataset(root)
        assert bundle.graph.edges.tolist() == [[0, 11], [3, 4]]
        assert bundle.features[0].tolist() == [10.5, 2.0]
        assert bundle.gold[11] == 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda f: st.lists(
        st.lists(FEATURE_TOKENS, min_size=f, max_size=f), min_size=1, max_size=4)))
    def test_features_load_as_float_reads_each_token(self, table):
        # each value must be float(token), signed zero included, and a bad
        # token the same fault the line-by-line parse names
        with tempfile.TemporaryDirectory() as tmp:
            root = write_dataset_dir(Path(tmp) / "d", f"n={len(table)}\nf={len(table[0])}\nc=1",
                                     "", "".join(",".join(row) + "\n" for row in table), "")
            bad = [i for i, row in enumerate(table, 1) if "x" in row]
            if bad:
                with pytest.raises(DatasetFormatError) as err:
                    load_dataset(root)
                assert str(err.value) == f"features.csv:{bad[0]}: non-numeric feature"
                return
            features = load_dataset(root).features
        expected = np.array([[float(token) for token in row] for row in table])
        assert features.tobytes() == expected.tobytes()
        assert np.array_equal(np.signbit(features), np.signbit(expected))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(one_digit_tables())
    # the token counts match; only where the newlines fall is wrong
    @example((3, 2, "0,0\n0,0,0\n0\n"))
    def test_one_digit_tables_load_as_the_line_rules_read_them(self, drawn):
        # a one-digit table is read from its bytes; one perturbation of it
        # must still give float(token) for every token, or the fault the
        # line-by-line rules name
        n, f, text = drawn
        expected = line_rules_features(text, n, f)
        with tempfile.TemporaryDirectory() as tmp:
            root = write_dataset_dir(Path(tmp) / "d", f"n={n}\nf={f}\nc=1", "", "", "")
            (root / "features.csv").write_bytes(text.encode())
            if isinstance(expected, str):
                with pytest.raises(DatasetFormatError) as err:
                    load_dataset(root)
                assert str(err.value) == expected
                return
            features = load_dataset(root).features
        assert features.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_bundle_rejects_non_finite_features(self):
        features = np.array([[0.0, np.inf], [1.0, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            DatasetBundle(SparseGraph(2, [[0, 1]]), features, np.array([0, -1]), 1)

    @pytest.mark.parametrize("features, gold, message", [
        (np.zeros(2), [0, 1], r"features must be \(n, f\) with n=2, got \(2,\)"),
        (np.zeros((3, 1)), [0, 1], r"features must be \(n, f\) with n=2, got \(3, 1\)"),
        (np.zeros((2, 1)), [0, 1, 1], r"gold labels must have shape \(2,\)"),
        (np.zeros((2, 1)), [0, 2], r"gold label outside \[0, num_classes\)"),
        (np.zeros((2, 1)), [-2, 1], r"gold label outside \[0, num_classes\)"),
    ])
    def test_bundle_rejects_malformed_arrays(self, features, gold, message):
        with pytest.raises(ValueError, match=message):
            DatasetBundle(SparseGraph(2, [[0, 1]]), features, np.array(gold), 2)


class TestRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        n = 17
        gold = rng.integers(0, 3, size=n)
        gold[rng.choice(n, size=4, replace=False)] = -1
        bundle = DatasetBundle(SparseGraph(n, random_graph_edges(rng, n, 0.3)),
                               rng.normal(size=(n, 5)), gold, 3)
        save_dataset(bundle, tmp_path / "rt")
        back = load_dataset(tmp_path / "rt")
        assert np.array_equal(back.graph.edges, bundle.graph.edges)
        assert np.array_equal(back.features, bundle.features)  # exact, %.17g
        assert np.array_equal(back.gold, bundle.gold)
        assert back.num_classes == bundle.num_classes

    @pytest.mark.parametrize("seed", range(8))
    def test_files_equal_the_per_value_writer(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n, f, c = int(rng.integers(1, 25)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        features = rng.normal(size=(n, f)) * 10.0 ** rng.integers(-300, 300, size=(n, f))
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
                    1e16, 0.1, 1 / 3]
        hit = rng.random((n, f)) < 0.3
        features[hit] = rng.choice(extremes, size=hit.sum())
        gold = rng.integers(-1, c, size=n)
        edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        bundle = DatasetBundle(SparseGraph(n, edges), features, gold, c)
        save_dataset(bundle, tmp_path / "ours")
        reference.save_dataset(bundle, tmp_path / "reference")
        for name in ("meta", "edges.tsv", "features.csv", "labels.tsv"):
            assert ((tmp_path / "ours" / name).read_bytes()
                    == (tmp_path / "reference" / name).read_bytes()), name


class TestMakeSplit:
    @pytest.fixture
    def big_bundle(self):
        rng = np.random.default_rng(1)
        n, c = 300, 3
        gold = np.repeat(np.arange(c), n // c)
        return make_bundle(n, random_graph_edges(rng, n, 0.02), gold, c, rng=rng)

    def test_balanced_counts(self, big_bundle):
        split = make_split(big_bundle, "balanced", seed=4, k=5)
        assert split.labeled.size == 15
        assert split.validation.size == 90
        assert split.test.size == 300 - 15 - 90
        for cls in range(3):
            assert np.sum(big_bundle.gold[split.labeled] == cls) == 5
            assert np.sum(big_bundle.gold[split.validation] == cls) == 30

    def test_standard20_is_balanced_k20(self, big_bundle):
        split = make_split(big_bundle, "standard20", seed=9)
        twin = make_split(big_bundle, "balanced", seed=9, k=20)
        assert np.array_equal(split.labeled, twin.labeled)
        assert np.sum(big_bundle.gold[split.labeled] == 0) == 20

    def test_deterministic_given_seed(self, big_bundle):
        a = make_split(big_bundle, "balanced", seed=7, k=3)
        b = make_split(big_bundle, "balanced", seed=7, k=3)
        assert np.array_equal(a.labeled, b.labeled)
        assert np.array_equal(a.validation, b.validation)
        assert np.array_equal(a.test, b.test)

    def test_partition_disjoint(self, big_bundle):
        split = make_split(big_bundle, "balanced", seed=2, k=4)
        joined = np.concatenate([split.labeled, split.validation, split.test])
        assert np.unique(joined).size == joined.size

    @pytest.mark.parametrize("labeled, validation, test", [
        ([0, 1], [1], [2]), ([0], [2], [3, 0]), ([0, 0], [], [])])
    def test_overlapping_sets_rejected(self, labeled, validation, test):
        with pytest.raises(ValueError, match="pairwise disjoint"):
            SplitSpec(labeled, validation, test)

    def test_insufficient_class_rejected(self, big_bundle):
        with pytest.raises(ValueError, match="class"):
            make_split(big_bundle, "balanced", seed=0, k=80)

    def test_imbalanced_counts_match_ceiling(self):
        rng = np.random.default_rng(2)
        n = 2708
        gold = rng.integers(0, 7, size=n)
        bundle = make_bundle(n, [[0, 1]], gold, 7, rng=rng)
        split = make_split(bundle, "imbalanced", seed=1, rate=0.005)
        assert split.labeled.size == math.ceil(0.005 * n) == 14
        assert split.test.size == 1000
        assert split.validation.size == 0

    def test_imbalanced_resamples_until_all_classes_present(self, caplog):
        # class 2 is a single node, so most draws miss it
        gold = np.zeros(200, dtype=np.int64)
        gold[100:199] = 1
        gold[199] = 2
        bundle = make_bundle(200, [[0, 1]], gold, 3)
        with caplog.at_level("DEBUG", logger="agst.data"):
            split = make_split(bundle, "imbalanced", seed=0, rate=0.02)
        assert np.unique(bundle.gold[split.labeled]).size == 3

    def test_rate_outside_unit_interval_rejected(self, big_bundle):
        with pytest.raises(ValueError, match="rate"):
            make_split(big_bundle, "imbalanced", seed=0, rate=1.5)

    @pytest.mark.parametrize("k", [0, None])
    def test_balanced_without_a_positive_k_rejected(self, big_bundle, k):
        with pytest.raises(ValueError, match="needs k >= 1"):
            make_split(big_bundle, "balanced", seed=0, k=k)

    def test_rate_asking_for_more_than_the_gold_labeled_rejected(self):
        gold = np.array([0, 1, -1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
        bundle = make_bundle(12, [[0, 1]], gold, 2)
        with pytest.raises(ValueError, match="asks for 12 labeled nodes, only 11 eligible"):
            make_split(bundle, "imbalanced", seed=0, rate=0.95)

    def test_imbalanced_gives_up_when_no_draw_covers_every_class(self):
        # two labeled nodes can never cover three classes
        bundle = make_bundle(200, [[0, 1]], np.arange(200) % 3, 3)
        with pytest.raises(ValueError, match="could not cover every class in 1000 resamples"):
            make_split(bundle, "imbalanced", seed=0, rate=0.01)

    def test_negative_val_per_class_rejected(self, big_bundle):
        with pytest.raises(ValueError, match="val_per_class"):
            make_split(big_bundle, "balanced", seed=0, k=3, val_per_class=-2)

    def test_zero_val_per_class_gives_no_validation(self, big_bundle):
        split = make_split(big_bundle, "balanced", seed=0, k=3, val_per_class=0)
        assert split.validation.size == 0 and split.labeled.size > 0

    def test_unknown_protocol(self, big_bundle):
        with pytest.raises(ValueError, match="protocol"):
            make_split(big_bundle, "stratified", seed=0)

    def test_labeled_nodes_have_known_gold(self):
        gold = np.array([0, 1, -1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
        bundle = make_bundle(12, [[0, 1]], gold, 2)
        split = make_split(bundle, "balanced", seed=3, k=2, val_per_class=1)
        assert np.all(bundle.gold[split.labeled] != -1)
        assert 2 not in split.test  # unknown-gold node is never scored


class TestSynthetic:
    def test_two_cluster_shapes_and_separation(self):
        bundle = two_cluster_bundle(n=40, noise_fraction=0.1, seed=3)
        assert bundle.n == 40
        assert np.sum(bundle.gold == 0) == 20
        # noise adds inter-class pairs on top of the intra-class backbone
        inter = np.sum(bundle.gold[bundle.graph.edges[:, 0]]
                       != bundle.gold[bundle.graph.edges[:, 1]])
        assert inter > 0
        clean = two_cluster_bundle(n=40, noise_fraction=0.0, seed=3)
        inter_clean = np.sum(clean.gold[clean.graph.edges[:, 0]]
                             != clean.gold[clean.graph.edges[:, 1]])
        assert inter_clean == 0

    def test_two_cluster_deterministic(self):
        a = two_cluster_bundle(seed=11)
        b = two_cluster_bundle(seed=11)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert np.array_equal(a.features, b.features)

    def test_more_noise_than_inter_cluster_pairs_rejected(self):
        # 19 intra-cluster edges ask for 95 noise edges; 5 * 5 pairs exist
        with pytest.raises(ValueError, match="asks for 95 inter-cluster edges; only 25"):
            two_cluster_bundle(n=10, noise_fraction=5.0, seed=0)
        full = two_cluster_bundle(n=10, intra_degree=0, noise_fraction=2.5, seed=0)
        assert full.graph.m == 10 + 25


class TestConverter:
    def test_content_release_round_trip(self, tmp_path):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "toy.content").write_text(
            "p1\t1\t0\t1\tgenetics\n"
            "p2\t0\t1\t0\ttheory\n"
            "p3\t1\t1\t0\tgenetics\n"
        )
        # p9 is unknown and must be skipped; p1-p2 duplicated both ways
        (src / "toy.cites").write_text("p1\tp2\np2\tp1\np2\tp3\np9\tp1\n")
        summary = convert_content_release(src, tmp_path / "out")
        assert summary == {
            "n": 3, "m": 2, "f": 3, "c": 2,
            "skipped_citations": 1, "classes": ["genetics", "theory"],
        }
        bundle = load_dataset(tmp_path / "out")
        assert bundle.n == 3
        assert np.array_equal(bundle.gold, [0, 1, 0])
        assert np.array_equal(bundle.features[0], [1, 0, 1])

    @pytest.mark.parametrize("content, message", [
        ("p1\t1\t0\tml\n\np2\t1\tdb\n", "toy.content:3: expected 2 features, got 1"),
        ("p1\t1\t0\tml\np2\t1\t0\t1\tdb\n", "toy.content:2: expected 2 features, got 3"),
        ("", "toy.content: no nodes (empty file)"),
        ("\n \n", "toy.content: no nodes (empty file)"),
        ("p1\t1\tml\np2\tdb\n", "toy.content:2: expected id, features, label"),
        ("p1\t1\tml\np2\tone\tdb\n", "toy.content:2: non-numeric feature"),
        ("p1\t1\tml\np2\tnan\tdb\n", "toy.content:2: non-finite feature"),
        ("p1\t1\tml\n\np2\t-inf\tdb\n", "toy.content:3: non-finite feature"),
        ("p1\tinf\t0\tml\n", "toy.content:1: non-finite feature"),
        ("p1\t1\tml\np1\t0\tdb\n", "toy.content: duplicate node ids"),
    ])
    def test_malformed_content_names_the_file(self, tmp_path, content, message):
        (tmp_path / "toy.content").write_text(content)
        (tmp_path / "toy.cites").write_text("")
        with pytest.raises(DatasetFormatError) as err:
            convert_content_release(tmp_path, tmp_path / "out")
        assert str(err.value) == message

    @pytest.mark.parametrize("cites, message", [
        ("p1\tp2\tp3\np2\tp1\n", "toy.cites:1: expected two ids, got 3"),
        ("p1\tp2\n\np2\n", "toy.cites:3: expected two ids, got 1"),
    ])
    def test_malformed_cites_row_names_the_line(self, tmp_path, cites, message):
        (tmp_path / "toy.content").write_text("p1\t1\tml\np2\t0\tdb\np3\t1\tml\n")
        (tmp_path / "toy.cites").write_text(cites)
        with pytest.raises(DatasetFormatError) as err:
            convert_content_release(tmp_path, tmp_path / "out")
        assert str(err.value) == message
        assert not (tmp_path / "out").exists()

    def test_missing_content_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="content"):
            convert_content_release(tmp_path, tmp_path / "out")

    def test_missing_cites_file(self, tmp_path):
        (tmp_path / "toy.content").write_text("p1\t1\tml\n")
        with pytest.raises(DatasetFormatError, match=r"missing citation file .*toy\.cites$"):
            convert_content_release(tmp_path, tmp_path / "out")
