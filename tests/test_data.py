import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse

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
from agst import data
from agst.data import BLOCK_LINES

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

    @pytest.mark.parametrize("n", [2, 10, 11])
    def test_only_the_feature_table_is_tried_as_one_digit(self, tmp_path, monkeypatch, n):
        # up to ten nodes, edges.tsv and labels.tsv are one-digit tables too;
        # the line rules read them, to int64
        tried = []
        real = data._one_digit_csr

        def recording(fh, *args):
            tried.append(Path(fh.name).name)
            return real(fh, *args)

        monkeypatch.setattr(data, "_one_digit_csr", recording)
        edges = [[i, i + 1] for i in range(n - 1)]
        grid = np.arange(2 * n).reshape(n, 2) % 2
        root = write_dataset_dir(
            tmp_path / "d", f"n={n}\nf=2\nc=2\n",
            "".join(f"{i}\t{j}\n" for i, j in edges),
            "".join(f"{a},{b}\n" for a, b in grid),
            "".join(f"{i}\t{i % 2}\n" for i in range(n)))
        bundle = load_dataset(root)
        assert tried == ["features.csv"]
        assert bundle.graph.edges.tolist() == edges
        assert bundle.gold.dtype == np.int64
        assert bundle.gold.tolist() == [i % 2 for i in range(n)]
        assert np.array_equal(as_dense(bundle.features), grid.astype(np.float64))

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

    @pytest.mark.parametrize("features", [
        np.array([[0.0, np.inf], [1.0, 2.0]]),
        sparse.csr_array(np.array([[0.0, np.inf], [1.0, 2.0]])),
        sparse.coo_array((np.array([np.nan, 1.0]), ([1, 0], [0, 1])), shape=(2, 2)),
        # stored duplicates that sum to nan
        sparse.coo_array((np.array([np.inf, -np.inf]), ([0, 0], [1, 1])), shape=(2, 2)),
    ], ids=["dense", "csr", "coo", "duplicates"])
    def test_bundle_rejects_non_finite_features(self, features):
        with pytest.raises(ValueError, match=r"^features must be finite \(found nan or inf\)$"):
            DatasetBundle(SparseGraph(2, [[0, 1]]), features, np.array([0, -1]), 1)

    @pytest.mark.parametrize("features, gold, message", [
        (np.zeros(2), [0, 1], r"features must be \(n, f\) with n=2, got \(2,\)"),
        (np.zeros((3, 1)), [0, 1], r"features must be \(n, f\) with n=2, got \(3, 1\)"),
        (sparse.csr_array((3, 5)), [0, 1], r"features must be \(n, f\) with n=2, got \(3, 5\)"),
        (sparse.coo_array((1, 4)), [0, 1], r"features must be \(n, f\) with n=2, got \(1, 4\)"),
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


def digit_table_bytes(grid: np.ndarray, newline: bytes = b"\n") -> bytes:
    """The table of one-digit ``grid`` as ``save_dataset`` writes it, each
    line ending in ``newline``."""
    text = np.full((grid.shape[0], 2 * grid.shape[1]), ord(","), dtype=np.uint8)
    text[:, 0::2] = grid + ord("0")
    text[:, -1] = ord("\n")
    return text.tobytes().replace(b"\n", newline)


def digit_dataset(root: Path, grid: np.ndarray, newline: bytes = b"\n") -> Path:
    """A dataset directory with ``grid`` as its features, one edge, no labels."""
    n, f = grid.shape
    write_dataset_dir(root, f"n={n}\nf={f}\nc=1", "0\t1\n" if n > 1 else "", "", "")
    (root / "features.csv").write_bytes(digit_table_bytes(grid, newline))
    return root


def digit_grid(seed: int, n: int, f: int, density: float) -> np.ndarray:
    """An n x f grid of digits, about ``density`` of them nonzero, led by the
    digits 1-9 in row-major order."""
    rng = np.random.default_rng(seed)
    grid = np.where(rng.random((n, f)) < density, rng.integers(1, 10, (n, f)), 0)
    lead = min(9, grid.size)
    grid.flat[:lead] = np.arange(1, lead + 1)
    return grid.astype(np.uint8)


def as_dense(features) -> np.ndarray:
    return features.toarray() if sparse.issparse(features) else features


class TestSparseFeatures:
    """A large, mostly-zero feature table is a canonical float64 CSR array,
    from the file and from memory."""

    # 400 x 1433 = 573k entries, past the bundle's 500k
    N, F = 400, 1433

    def test_one_digit_table_loads_as_the_text_path_reads_it(self, tmp_path, monkeypatch):
        grid = digit_grid(1, self.N, self.F, 0.05)
        parsed = []
        real_loadtxt = np.loadtxt

        def recording_loadtxt(lines, dtype, **kwargs):
            parsed.append(np.dtype(dtype))
            return real_loadtxt(lines, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
        lf = load_dataset(digit_dataset(tmp_path / "lf", grid)).features
        assert np.dtype(np.float64) not in parsed     # read from its bytes
        crlf = load_dataset(digit_dataset(tmp_path / "crlf", grid, b"\r\n")).features
        assert np.dtype(np.float64) in parsed         # CRLF takes the float parse
        assert isinstance(lf, sparse.csr_array) and lf.dtype == np.float64
        assert lf.has_canonical_format and np.all(lf.data != 0)
        assert np.array_equal(lf.toarray(), crlf.toarray())
        assert np.array_equal(lf.toarray(), grid.astype(np.float64))
        # the arrays the bundle makes from the text path's dense table
        for name in ("data", "indices", "indptr"):
            ours, theirs = getattr(lf, name), getattr(crlf, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    @pytest.mark.parametrize("edit, message", [
        (lambda row, j: row[:2 * j] + b"x" + row[2 * j + 1:], "non-numeric feature"),
        (lambda row, j: row[:2 * j] + row[2 * j + 2:], "expected 1433 values, got 1432"),
        (lambda row, j: row[:2 * j] + b"1,1" + row[2 * j + 1:], "expected 1433 values, got 1434"),
        (lambda row, j: row[:2 * j] + b"12" + row[2 * j + 1:], None),
    ], ids=["letter", "missing token", "extra token", "two digits"])
    def test_a_fault_in_a_later_block_reads_as_the_line_rules(self, tmp_path, edit, message):
        # row 700 lies in the third block of lines and 2 MB past the first 4 KiB
        grid = digit_grid(2, self.N + 400, self.F, 0.02)
        root = digit_dataset(tmp_path / "d", grid)
        lines = (root / "features.csv").read_bytes().split(b"\n")
        lines[699] = edit(lines[699], 5)
        (root / "features.csv").write_bytes(b"\n".join(lines))
        if message is not None:
            with pytest.raises(DatasetFormatError, match=rf"^features\.csv:700: {message}$"):
                load_dataset(root)
            return
        expected = grid.astype(np.float64)
        expected[699, 5] = 12.0
        assert np.array_equal(as_dense(load_dataset(root).features), expected)

    @pytest.mark.parametrize("rows", [1, BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1,
                                      2 * BLOCK_LINES])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_a_table_ending_at_or_near_a_block_boundary(self, tmp_path, rows, final_newline):
        grid = digit_grid(5, rows, 3, 0.5)
        root = digit_dataset(tmp_path / "d", grid)
        if not final_newline:
            (root / "features.csv").write_bytes((root / "features.csv").read_bytes()[:-1])
        assert np.array_equal(as_dense(load_dataset(root).features), grid)

    def test_a_table_over_a_quarter_nonzero_stays_dense(self, tmp_path):
        grid = digit_grid(3, self.N, self.F, 0.3)
        features = load_dataset(digit_dataset(tmp_path / "d", grid)).features
        assert isinstance(features, np.ndarray) and features.dtype == np.float64
        assert np.array_equal(features, grid.astype(np.float64))

    def test_loading_makes_no_dense_float_copy(self, tmp_path):
        # Cora's shape at 1.2% nonzero: a dense float64 copy alone is n f 8 bytes
        n, f = 2708, 1433
        root = digit_dataset(tmp_path / "d", digit_grid(4, n, f, 0.012))
        tracemalloc.start()
        try:
            features = load_dataset(root).features
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sparse.issparse(features)
        assert peak < n * f * 8 / 4, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("f, scale", [(1433, 1.0), (200, 0.5)])
    def test_saving_makes_no_dense_float_copy(self, tmp_path, f, scale):
        # the load's bound, n f 8 / 4 bytes, at Cora's row count, for a
        # one-digit table at Cora's width and, at a width that keeps the
        # traced per-row writes quick, one that is not; a block of rows is
        # 1/10.6 of the bound
        n = 2708
        grid = digit_grid(4, n, f, 0.012) * scale
        bundle = DatasetBundle(SparseGraph(n, []), grid, np.zeros(n, dtype=np.int64), 1)
        assert sparse.issparse(bundle.features)
        tracemalloc.start()
        try:
            save_dataset(bundle, tmp_path / "d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * f * 8 / 4, f"peak {peak / 1e6:.1f} MB"
        np.savetxt(tmp_path / "whole.csv", grid, fmt="%.17g", delimiter=",")
        assert ((tmp_path / "d" / "features.csv").read_bytes()
                == (tmp_path / "whole.csv").read_bytes())

    @pytest.mark.parametrize("n, f, density", [
        (1, 3, 1.0), (BLOCK_LINES, 3, 1.0), (BLOCK_LINES + 1, 3, 1.0),
        (2 * BLOCK_LINES + 3, 1000, 0.01)])       # the last one is stored as CSR
    def test_saved_table_is_the_whole_table_written_at_once(self, tmp_path, n, f, density):
        rng = np.random.default_rng(n)
        table = np.where(rng.random((n, f)) < density, rng.normal(size=(n, f)), 0.0)
        bundle = DatasetBundle(SparseGraph(n, []), table, np.zeros(n, dtype=np.int64), 1)
        assert sparse.issparse(bundle.features) == (density < 0.25)
        save_dataset(bundle, tmp_path / "d")
        np.savetxt(tmp_path / "whole.csv", table, fmt="%.17g", delimiter=",")
        assert ((tmp_path / "d" / "features.csv").read_bytes()
                == (tmp_path / "whole.csv").read_bytes())

    @pytest.mark.parametrize("layout", ["coo", "csc", "csr", "csr_matrix"])
    def test_any_sparse_input_becomes_canonical_float64_csr(self, layout):
        # duplicate entries sum, explicit and summed-away zeros go
        rows = np.array([5, 0, 5, 3, 3, 9, 7, 7])
        cols = np.array([2, 7, 2, 1, 4, 0, 3, 3])
        vals = np.array([1, 2, 3, 0, 4, 5, 6, -6], dtype=np.int64)
        coo = sparse.coo_array((vals, (rows, cols)), shape=(self.N, self.F))
        given = {"coo": coo, "csc": coo.tocsc(), "csr": sparse.csr_array(coo),
                 "csr_matrix": sparse.csr_matrix(coo)}[layout]
        expected = np.zeros((self.N, self.F))
        np.add.at(expected, (rows, cols), vals)
        bundle = DatasetBundle(SparseGraph(self.N, [[0, 1]]), given,
                               np.zeros(self.N, dtype=np.int64), 1)
        x = bundle.features
        assert isinstance(x, sparse.csr_array) and x.dtype == np.float64
        assert x.has_canonical_format and x.nnz == 4 and np.all(x.data != 0)
        assert np.array_equal(x.toarray(), expected)
        assert np.array_equal(coo.data, vals)    # the caller's arrays are left as given

    def test_small_or_dense_input_is_stored_dense(self):
        small = sparse.coo_array((np.array([2.0]), ([1], [0])), shape=(3, 2))
        bundle = DatasetBundle(SparseGraph(3, [[0, 1]]), small, np.zeros(3, dtype=np.int64), 1)
        assert isinstance(bundle.features, np.ndarray)
        assert bundle.features.tolist() == [[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]]
        dense = sparse.csr_array(np.ones((self.N, self.F)))
        bundle = DatasetBundle(SparseGraph(self.N, [[0, 1]]), dense,
                               np.zeros(self.N, dtype=np.int64), 1)
        assert isinstance(bundle.features, np.ndarray) and bundle.features.sum() == self.N * self.F

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 420), f=st.integers(1, 1500), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=400, f=1433, density=0.05, seed=0)       # stored as CSR
    @example(n=400, f=1433, density=0.3, seed=0)        # as many entries, stored dense
    def test_saved_digit_grids_load_back_equal(self, n, f, density, seed):
        grid = np.where(np.random.default_rng(seed).random((n, f)) < density,
                        np.random.default_rng(seed + 1).integers(1, 10, (n, f)), 0)
        bundle = DatasetBundle(SparseGraph(n, []), grid, np.zeros(n, dtype=np.int64), 1)
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(bundle, Path(tmp) / "d")
            back = load_dataset(Path(tmp) / "d").features
        assert sparse.issparse(back) == sparse.issparse(bundle.features)
        assert np.array_equal(as_dense(back), as_dense(bundle.features))
        assert np.array_equal(as_dense(back), grid)


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

    def test_converting_a_cora_shaped_release_makes_no_dense_float_copy(self, tmp_path):
        # Cora's shape at 1.2% nonzero; a dense float64 table is n f 8 bytes
        n, f = 2708, 1433
        grid = (digit_grid(6, n, f, 0.012) > 0).astype(np.uint8)
        names = ["theory", "genetics", "rule_learning"]
        rows = digit_table_bytes(grid).replace(b",", b"\t").split(b"\n")
        (tmp_path / "cora.content").write_bytes(b"".join(
            b"p%d\t%s\t%s\n" % (i, row, names[i % 3].encode()) for i, row in enumerate(rows[:n])))
        (tmp_path / "cora.cites").write_text("".join(f"p{i}\tp{(7 * i + 1) % n}\n"
                                                     for i in range(n)))
        tracemalloc.start()
        try:
            summary = convert_content_release(tmp_path, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * f * 8 / 4, f"peak {peak / 1e6:.1f} MB"
        assert (summary["n"], summary["f"], summary["c"]) == (n, f, 3)
        bundle = load_dataset(tmp_path / "out")
        assert sparse.issparse(bundle.features)
        assert np.array_equal(bundle.features.toarray(), grid.astype(np.float64))
        assert (tmp_path / "out" / "features.csv").read_bytes() == digit_table_bytes(grid)
        assert bundle.gold.tolist() == [sorted(names).index(names[i % 3]) for i in range(n)]

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_a_small_release_keeps_a_signed_zero(self, tmp_path, sign):
        # a table small enough to be stored dense keeps -0 as written
        (tmp_path / "toy.content").write_text(f"p1\t{sign}0\t2.5\tml\np2\t0\t-0.0\tdb\n")
        (tmp_path / "toy.cites").write_text("p1\tp2\n")
        convert_content_release(tmp_path, tmp_path / "out")
        assert (tmp_path / "out" / "features.csv").read_text() == f"{sign}0,2.5\n0,-0\n"

    def test_missing_content_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="content"):
            convert_content_release(tmp_path, tmp_path / "out")

    def test_missing_cites_file(self, tmp_path):
        (tmp_path / "toy.content").write_text("p1\t1\tml\n")
        with pytest.raises(DatasetFormatError, match=r"missing citation file .*toy\.cites$"):
            convert_content_release(tmp_path, tmp_path / "out")
