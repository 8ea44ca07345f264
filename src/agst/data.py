"""Dataset bundles: on-disk format, train/validation/test splits, synthetic graphs.

On-disk layout is a directory of four UTF-8 text files:

    meta          lines ``n=<int>``, ``f=<int>``, ``c=<int>``, each key once
    edges.tsv     one ``src<TAB>dst`` pair per line, 0-based node ids
    features.csv  n rows of f comma-separated finite decimals
    labels.tsv    lines ``node<TAB>class``, at most one per node; omitted
                  nodes are unlabeled (there is no -1 marker)

Blank lines are skipped. ``load_dataset`` parses each table in one call and
checks each rule once over the parsed rows; a fault raises
DatasetFormatError naming the file and its first faulty line. A table whose
every token is one ASCII digit, as ``save_dataset`` writes a binary
bag-of-words table (lines such as ``0,1,0``), is read straight from its
bytes; any other table takes numpy's parse, then the line-by-line parse.
Every path gives the values the line-by-line parse gives. ``save_dataset``
writes the same layout with ``np.savetxt``.

Bundles hold the raw features; the student trains on ``mlp.feature_matrix``
of them, and prediction is ``forward`` on that matrix.

``convert_content_release`` maps the classic two-file citation release
(``<stem>.content`` + ``<stem>.cites``) into this layout.
"""

from __future__ import annotations

import io
import logging
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import SparseGraph

log = logging.getLogger(__name__)

UNLABELED = -1
# the imbalanced protocol's test-set size, and its tries at covering every class
IMBALANCED_TEST_SIZE, MAX_RESAMPLE = 1000, 1000


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries file name and line number."""


@dataclass
class DatasetBundle:
    """A graph with node features and (possibly partial) gold labels."""

    graph: SparseGraph
    features: np.ndarray          # (n, f) float64
    gold: np.ndarray              # (n,) int64, UNLABELED where unknown
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.gold = np.asarray(self.gold, dtype=np.int64)
        n = self.graph.n
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(f"features must be (n, f) with n={n}, got {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite (found nan or inf)")
        if self.gold.shape != (n,):
            raise ValueError(f"gold labels must have shape ({n},)")
        known = self.gold[self.gold != UNLABELED]
        if known.size and (known.min() < 0 or known.max() >= self.num_classes):
            raise ValueError("gold label outside [0, num_classes)")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.gold != UNLABELED)


@dataclass
class SplitSpec:
    """Disjoint labeled/validation/test node sets."""

    labeled: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        self.labeled = np.sort(np.asarray(self.labeled, dtype=np.int64))
        self.validation = np.sort(np.asarray(self.validation, dtype=np.int64))
        self.test = np.sort(np.asarray(self.test, dtype=np.int64))
        joined = np.concatenate([self.labeled, self.validation, self.test])
        if np.unique(joined).size != joined.size:
            raise ValueError("labeled/validation/test sets must be pairwise disjoint")


def require_gold(bundle: DatasetBundle, split: SplitSpec) -> None:
    """Refuse a split whose labeled, validation or test nodes include an id
    outside [0, n), or one with gold ``UNLABELED``: training and scoring read
    those nodes' labels, and a negative id would index another node."""
    nodes = np.concatenate([split.labeled, split.validation, split.test])

    def refuse(bad: np.ndarray, what: str) -> None:
        ids = np.unique(nodes[bad])
        if ids.size:
            shown = ", ".join(map(str, ids[:10])) + (", ..." if ids.size > 10 else "")
            raise ValueError(f"{ids.size} split node(s) {what}: {shown}")

    refuse((nodes < 0) | (nodes >= bundle.n), f"lie outside [0, {bundle.n})")
    refuse(bundle.gold[nodes] == UNLABELED, "have no gold label")


def require_integers(settings, *names: str) -> None:
    """Refuse each named field of ``settings`` whose value is not a Python or
    numpy integer, or is a bool: a count or a seed of 2.0 would otherwise
    fail only mid-run, in ``range`` or a generator."""
    for name in names:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _read_meta(path: Path) -> dict[str, int]:
    values: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text().split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in ("n", "f", "c"):
            raise DatasetFormatError(f"{path.name}:{lineno}: unknown key {key!r}")
        if key in values:
            raise DatasetFormatError(f"{path.name}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = int(raw)
        except ValueError:
            raise DatasetFormatError(f"{path.name}:{lineno}: non-integer value {raw!r}") from None
    for key in ("n", "f", "c"):
        if key not in values:
            raise DatasetFormatError(f"{path.name}: missing key {key!r}")
        if values[key] < 1:
            raise DatasetFormatError(f"{path.name}: {key} must be positive")
    return values


def _one_digit_table(fh, delimiter: str, width: int) -> np.ndarray | None:
    r"""The (lines, width) uint8 digits of the binary file ``fh`` if every
    token in it is one ASCII digit, each line holding ``width`` of them, else
    None.

    Such a table is a whole number of lines of 2 * ``width`` bytes: a digit
    at every even offset, the delimiter at every odd one but the last of a
    line, which is ``\n`` (the file's last ``\n`` may be missing). The whole
    file is read only if every even byte of its first 4 KiB is a digit, so
    other tables are refused there; CRLF, a BOM, blanks, blank lines, signs
    and multi-digit tokens all break the layout.
    """
    if not fh.peek(4096)[:4096:2].isdigit():   # nor is an empty file such a table
        return None
    raw = fh.read()
    step = 2 * width
    lines = -(-len(raw) // step)
    if len(raw) < lines * step - 1:
        return None
    grid = np.frombuffer(raw.ljust(lines * step, b"\n"), dtype=np.uint8).reshape(lines, step)
    digits = grid[:, 0::2] - ord("0")     # a byte below "0" wraps past 9
    if (digits.max() > 9 or not (grid[:, 1:-1:2] == ord(delimiter)).all()
            or not (grid[:, -1] == ord("\n")).all()):
        return None
    return digits


@dataclass
class _Table:
    """The non-blank lines of one dataset file as the rows of an array."""

    path: Path
    rows: np.ndarray
    fault: str | None     # why the line after the last row did not parse

    @classmethod
    def read(cls, path: Path, dtype, delimiter: str, width: int,
             bad_count: str, bad_value: str) -> _Table:
        """Parse every non-blank line of ``path``.

        Values parse exactly as ``parse`` parses them: ``int`` for an integer
        ``dtype``, else ``float``.  Three paths are tried in turn:

        1. A one-digit table (``_one_digit_table``) is its bytes minus
           ``"0"``, cast to ``dtype``. That is exact: ``int`` and ``float``
           read a one-digit token to that digit, no token has a sign (so no
           ``-0``), and each line has ``width`` tokens with no blank line
           between, so the rows are those the line parse gives.
        2. One ``np.loadtxt`` call over the non-blank lines. Older numpy
           reads a non-integer such as ``2.7`` as an integer with only a
           DeprecationWarning; that warning is made an error, so the value
           reaches ``int`` and is refused.
        3. Only when that fails too are the lines parsed one by one with
           ``parse``, which accepts a few spellings ``loadtxt`` refuses
           (``1_000``); that parse stops at the first line with other than
           ``width`` fields (``bad_count``, formatted with ``got``) or a
           value that does not parse (``bad_value``).

        The first path reads the whole file only if its first 4 KiB could
        begin such a table. A table it refuses is read from its start as
        text, decoded as ``open`` decodes it, so it gives the same values or
        the same fault as it would without the first path.
        """
        with path.open("rb") as fh:
            digits = _one_digit_table(fh, delimiter, width)
            if digits is not None:
                return cls(path, digits.astype(dtype), None)
            fh.seek(0)      # the test may have read the whole file
            # the text itself is not kept: ``check`` reads the file again on a fault
            lines = list(filter(None, map(str.strip, io.TextIOWrapper(fh))))
        parse = int if np.issubdtype(dtype, np.integer) else float
        if lines:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    rows = np.loadtxt(lines, dtype=dtype, delimiter=delimiter,
                                      comments=None, ndmin=2)
                if rows.shape[1] == width:
                    return cls(path, rows, None)
            except (ValueError, DeprecationWarning):
                pass
        parsed, fault = [], None
        for line in lines:
            values = line.split(delimiter)
            if len(values) != width:
                fault = bad_count.format(got=len(values))
                break
            try:
                parsed.append([parse(v) for v in values])
            except ValueError:
                fault = bad_value
                break
        try:
            rows = np.array(parsed, dtype=dtype)
        except OverflowError:   # an int past int64 stays a Python int for the range rules
            rows = np.array(parsed, dtype=object)
        return cls(path, rows.reshape(-1, width), fault)

    def check(self, *rules) -> None:
        """Raise DatasetFormatError for the earliest faulty line.

        Each rule is a mask over the lines read (the rows, then the line that
        did not parse, if any), one entry or one row of entries per line,
        with the message for a faulty index, listed in the order the rules
        apply to one line. The parse fault comes last.
        """
        faults = []
        for k, (mask, _) in enumerate(rules):
            # a 2-D mask is searched flat: numpy's .any(axis=1) is slow on short rows
            hits = np.flatnonzero(mask)
            if hits.size:
                faults.append((hits[0] // (mask.size // len(mask)), k))
        if self.fault is not None:
            faults.append((len(self.rows), len(rules)))
        if not faults:
            return
        index, k = min(faults)
        message = rules[k][1](index) if k < len(rules) else self.fault
        with self.path.open() as fh:
            linenos = [lineno for lineno, line in enumerate(fh, 1) if line.strip()]
        raise DatasetFormatError(f"{self.path.name}:{linenos[index]}: {message}")


def load_dataset(path: str | Path) -> DatasetBundle:
    """Load a dataset directory, validating and canonicalizing as it goes.

    Duplicate and self-loop edge rows are dropped with a logged count;
    anything else malformed raises DatasetFormatError naming the file and
    its first faulty line. Each file is parsed in one call and every rule is
    checked once, as a mask over the parsed rows; line numbers are worked out
    only when a rule fails. The features' finiteness is the bundle's check,
    made last, so a non-finite feature in an otherwise valid features.csv is
    named after any fault of labels.tsv.
    """
    root = Path(path)
    for name in ("meta", "edges.tsv", "features.csv", "labels.tsv"):
        if not (root / name).exists():
            raise DatasetFormatError(f"missing dataset file {root / name}")

    meta = _read_meta(root / "meta")
    n, f, c = meta["n"], meta["f"], meta["c"]

    edges = _Table.read(root / "edges.tsv", np.int64, "\t", 2,
                        "expected src<TAB>dst", "non-integer node id")
    pairs = edges.rows
    edges.check(((pairs < 0) | (pairs >= n), lambda i: f"node id out of range [0, {n})"))
    graph = SparseGraph(n, pairs)
    n_loops = int(np.count_nonzero(pairs[:, 0] == pairs[:, 1]))
    n_dup = len(pairs) - n_loops - graph.m
    if n_dup or n_loops:
        log.info(
            "%s: dropped %d duplicate edge rows and %d self-loops", edges.path, n_dup, n_loops
        )

    feats = _Table.read(root / "features.csv", np.float64, ",", f,
                        f"expected {f} values, got {{got}}", "non-numeric feature")
    features = feats.rows

    def non_finite():
        return ~np.isfinite(features), lambda i: "non-finite feature"

    if feats.fault is not None or len(features) != n:
        # a non-finite value before the table's fault is named first
        lines_read = len(features) + (feats.fault is not None)
        feats.check((np.arange(lines_read) >= n, lambda i: f"more than n={n} rows"),
                    non_finite())
        raise DatasetFormatError(f"{feats.path.name}: expected {n} rows, got {len(features)}")

    labels = _Table.read(root / "labels.tsv", np.int64, "\t", 2,
                         "expected node<TAB>class", "non-integer entry")
    nodes, classes = labels.rows.T
    order = np.argsort(nodes, kind="stable")
    repeat = np.zeros(len(nodes), dtype=bool)
    repeat[order[1:]] = nodes[order[1:]] == nodes[order[:-1]]
    labels.check(((nodes < 0) | (nodes >= n), lambda i: f"node id out of range [0, {n})"),
                 (classes < 0, lambda i: f"negative label {classes[i]}; unlabeled nodes "
                                         f"are omitted, not marked {UNLABELED}"),
                 (classes >= c, lambda i: f"label {classes[i]} >= declared class count {c}"),
                 (repeat, lambda i: f"duplicate label for node {nodes[i]}"))
    gold = np.full(n, UNLABELED, dtype=np.int64)
    gold[nodes] = classes

    # the bundle's one pass over the features is the load's finiteness check;
    # every other rule it applies holds by now
    try:
        return DatasetBundle(graph, features, gold, c)
    except ValueError:
        feats.check(non_finite())
        raise


def save_dataset(bundle: DatasetBundle, path: str | Path) -> None:
    """Write a bundle in the directory format; round-trips exactly."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "meta").write_text(
        f"n={bundle.n}\nf={bundle.num_features}\nc={bundle.num_classes}\n"
    )
    np.savetxt(root / "edges.tsv", bundle.graph.edges, fmt="%d", delimiter="\t")
    np.savetxt(root / "features.csv", bundle.features, fmt="%.17g", delimiter=",")
    labeled = bundle.labeled_nodes()
    np.savetxt(root / "labels.tsv", np.column_stack([labeled, bundle.gold[labeled]]),
               fmt="%d", delimiter="\t")


def make_split(
    bundle: DatasetBundle,
    protocol: str,
    seed: int,
    k: int | None = None,
    rate: float | None = None,
    val_per_class: int = 30,
) -> SplitSpec:
    """Draw a labeled/validation/test split under one of three protocols.

    balanced    exactly ``k`` labeled and ``val_per_class`` validation nodes
                per class, the remaining gold-labeled nodes as test
    imbalanced  ceil(rate * n) labeled nodes drawn uniformly (resampled with
                an incremented seed until every class appears),
                IMBALANCED_TEST_SIZE test nodes, no validation
    standard20  balanced with k = 20

    Deterministic given the seed.
    """
    if protocol == "standard20":
        protocol, k = "balanced", 20
    if protocol == "balanced":
        if k is None or k < 1:
            raise ValueError("balanced protocol needs k >= 1")
        if val_per_class < 0:
            raise ValueError("balanced protocol needs val_per_class >= 0")
        rng = np.random.default_rng(seed)
        labeled, validation = [], []
        for cls in range(bundle.num_classes):
            members = np.flatnonzero(bundle.gold == cls)
            if members.size < k + val_per_class:
                raise ValueError(
                    f"class {cls} has {members.size} labeled-eligible nodes, "
                    f"needs {k + val_per_class}"
                )
            perm = rng.permutation(members)
            labeled.append(perm[:k])
            validation.append(perm[k : k + val_per_class])
        labeled = np.concatenate(labeled)
        validation = np.concatenate(validation)
        held = np.concatenate([labeled, validation])
        test = np.setdiff1d(bundle.labeled_nodes(), held)
        return SplitSpec(labeled, validation, test)

    if protocol == "imbalanced":
        if rate is None or not 0.0 < rate < 1.0:
            raise ValueError("imbalanced protocol needs rate in (0, 1)")
        n_labeled = math.ceil(rate * bundle.n)
        eligible = bundle.labeled_nodes()
        if n_labeled > eligible.size:
            raise ValueError(f"rate {rate} asks for {n_labeled} labeled nodes, "
                             f"only {eligible.size} eligible")
        present = np.unique(bundle.gold[eligible])
        for attempt in range(MAX_RESAMPLE):
            draw_seed = seed + attempt
            rng = np.random.default_rng(draw_seed)
            labeled = rng.choice(eligible, size=n_labeled, replace=False)
            if np.unique(bundle.gold[labeled]).size == present.size:
                if attempt:
                    log.info("imbalanced split resampled %d time(s), final seed %d",
                             attempt, draw_seed)
                break
            log.debug("seed %d missed a class, resampling", draw_seed)
        else:
            raise ValueError(f"could not cover every class in {MAX_RESAMPLE} resamples")
        remaining = np.setdiff1d(eligible, labeled)
        n_test = min(IMBALANCED_TEST_SIZE, remaining.size)
        if n_test < IMBALANCED_TEST_SIZE:
            log.info("only %d nodes left for the test set (wanted %d)",
                     n_test, IMBALANCED_TEST_SIZE)
        test = rng.choice(remaining, size=n_test, replace=False)
        return SplitSpec(labeled, np.empty(0, dtype=np.int64), test)

    raise ValueError(f"unknown protocol {protocol!r}")


def two_cluster_bundle(
    n: int = 40,
    feature_dim: int = 8,
    separation: float = 2.0,
    intra_degree: int = 3,
    noise_fraction: float = 0.0,
    seed: int = 0,
) -> DatasetBundle:
    """Synthetic two-class benchmark: two random intra-connected clusters.

    Features are Gaussian around +/- separation/2 per coordinate, so a
    linear classifier suffices.  ``noise_fraction`` of the intra-class edge
    count is injected as random inter-class edges.  With ``intra_degree=0``
    each cluster is a bare ring.
    """
    rng = np.random.default_rng(seed)
    n0 = n // 2
    sizes = [n0, n - n0]
    offsets = [0, n0]
    pairs = []
    for size, off in zip(sizes, offsets):
        # ring backbone keeps each cluster connected, random chords densify
        for u in range(size):
            pairs.append((off + u, off + (u + 1) % size))
        for u in range(size):
            others = np.delete(np.arange(size), u)
            take = min(intra_degree, others.size)
            for v in rng.choice(others, size=take, replace=False):
                pairs.append((off + u, off + int(v)))
    existing = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    n_noise = int(noise_fraction * len(existing))
    if n_noise > n0 * (n - n0):
        raise ValueError(f"noise_fraction {noise_fraction} asks for {n_noise} inter-cluster "
                         f"edges; only {n0 * (n - n0)} pairs exist")
    while n_noise > 0:
        pair = (int(rng.integers(0, n0)), int(rng.integers(n0, n)))
        if pair not in existing:
            existing.add(pair)
            pairs.append(pair)
            n_noise -= 1
    features = np.empty((n, feature_dim))
    features[:n0] = rng.normal(+separation / 2, 1.0, size=(n0, feature_dim))
    features[n0:] = rng.normal(-separation / 2, 1.0, size=(n - n0, feature_dim))
    gold = np.repeat([0, 1], sizes)
    return DatasetBundle(SparseGraph(n, pairs), features, gold, 2)


def convert_content_release(input_dir: str | Path, output_dir: str | Path) -> dict:
    """Convert a ``<stem>.content`` + ``<stem>.cites`` release to the directory format.

    Node ids take the .content file order; label names map to indices in
    sorted order.  Citation rows naming unknown ids are skipped with a log; a
    row without exactly two ids, and a feature that does not parse or is not
    finite, are refused with their line.  Returns summary statistics.
    """
    root = Path(input_dir)
    content_files = sorted(root.glob("*.content"))
    if not content_files:
        raise DatasetFormatError(f"no .content file in {root}")
    content = content_files[0]
    cites = content.with_suffix(".cites")
    if not cites.exists():
        raise DatasetFormatError(f"missing citation file {cites}")

    ids: list[str] = []
    rows: list[list[float]] = []
    label_names: list[str] = []
    with content.open() as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 3:
                raise DatasetFormatError(f"{content.name}:{lineno}: expected id, features, label")
            if rows and len(parts) - 2 != len(rows[0]):
                raise DatasetFormatError(f"{content.name}:{lineno}: expected "
                                         f"{len(rows[0])} features, got {len(parts) - 2}")
            ids.append(parts[0])
            try:
                row = [float(v) for v in parts[1:-1]]
            except ValueError:
                raise DatasetFormatError(f"{content.name}:{lineno}: non-numeric feature") from None
            if not all(map(math.isfinite, row)):
                raise DatasetFormatError(f"{content.name}:{lineno}: non-finite feature")
            rows.append(row)
            label_names.append(parts[-1])
    if not ids:
        raise DatasetFormatError(f"{content.name}: no nodes (empty file)")
    index = {pid: i for i, pid in enumerate(ids)}
    if len(index) != len(ids):
        raise DatasetFormatError(f"{content.name}: duplicate node ids")
    classes = sorted(set(label_names))
    cls_index = {name: i for i, name in enumerate(classes)}
    gold = np.array([cls_index[name] for name in label_names], dtype=np.int64)

    pairs = []
    skipped = 0
    with cites.open() as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise DatasetFormatError(
                    f"{cites.name}:{lineno}: expected two ids, got {len(parts)}")
            a, b = parts
            if a in index and b in index:
                pairs.append((index[a], index[b]))
            else:
                skipped += 1
    if skipped:
        log.info("%s: skipped %d citation rows with unknown ids", cites, skipped)

    n = len(ids)
    bundle = DatasetBundle(
        SparseGraph(n, pairs),
        np.asarray(rows, dtype=np.float64),
        gold,
        len(classes),
    )
    save_dataset(bundle, output_dir)
    return {
        "n": bundle.n,
        "m": bundle.graph.m,
        "f": bundle.num_features,
        "c": bundle.num_classes,
        "skipped_citations": skipped,
        "classes": classes,
    }
