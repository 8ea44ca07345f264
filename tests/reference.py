"""Reference implementations the program's faster code is tested against."""

import math
import warnings
from pathlib import Path

import numpy as np

from agst import SoftLabels, SparseGraph, SplitSpec, class_members, compute_prototypes, mlp
from agst.data import IMBALANCED_TEST_SIZE, MAX_RESAMPLE
from agst.mlp import PARAM_NAMES, PseudoLabelSet, clamped_log
from agst.propagation import initial_label_matrix


def closed_form_oracle(op, bundle, split, alpha: float) -> SoftLabels:
    """The propagation iteration's exact fixed point
    (1 - alpha) * inv(I - alpha * S) @ Y(0), by a dense solve; n <= 2000."""
    n = op.shape[0]
    if n > 2000:
        raise ValueError("dense oracle is limited to n <= 2000")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    y0 = initial_label_matrix(bundle, split)
    system = np.eye(n) - alpha * op.toarray()
    solution = (1.0 - alpha) * np.linalg.solve(system, y0)
    return SoftLabels(np.maximum(solution, 0.0), normalized=False)


def generate_candidates(
    hard: np.ndarray, graph: SparseGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Addition candidates (same-hard-label non-edges) and removal candidates
    (every existing edge), both as canonical (k, 2) arrays.

    Nodes are grouped by label first, so no cross-class pair is ever touched.
    """
    blocks = []
    for cls in np.unique(hard):
        members = np.flatnonzero(hard == cls)
        if members.size < 2:
            continue
        iu, ju = np.triu_indices(members.size, k=1)
        blocks.append(np.column_stack([members[iu], members[ju]]))
    if blocks:
        pairs = np.concatenate(blocks)
        additions = pairs[~graph.has_edges(pairs[:, 0], pairs[:, 1])]
        order = np.lexsort((additions[:, 1], additions[:, 0]))
        additions = additions[order]
    else:
        additions = np.empty((0, 2), dtype=np.int64)
    return additions, graph.edges.copy()


def graph_keys(n: int, pairs) -> np.ndarray:
    """``SparseGraph``'s canonical edge keys as ``np.unique`` defines them:
    each pair other than a self-loop once, as min * n + max, sorted."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))


def make_split(bundle, protocol: str, seed: int, k=None, rate=None,
               val_per_class: int = 30) -> SplitSpec:
    """``make_split`` for valid arguments as written with ``setdiff1d`` and
    ``unique``."""
    if protocol == "balanced":
        rng = np.random.default_rng(seed)
        labeled, validation = [], []
        for cls in range(bundle.num_classes):
            members = np.flatnonzero(bundle.gold == cls)
            if members.size < k + val_per_class:
                raise ValueError(f"class {cls} has {members.size} labeled-eligible nodes")
            perm = rng.permutation(members)
            labeled.append(perm[:k])
            validation.append(perm[k : k + val_per_class])
        labeled = np.concatenate(labeled)
        validation = np.concatenate(validation)
        test = np.setdiff1d(bundle.labeled_nodes(), np.concatenate([labeled, validation]))
        return SplitSpec(labeled, validation, test)
    n_labeled = math.ceil(rate * bundle.n)
    eligible = bundle.labeled_nodes()
    if n_labeled > eligible.size:
        raise ValueError(f"rate {rate} asks for {n_labeled} labeled nodes")
    present = np.unique(bundle.gold[eligible])
    for attempt in range(MAX_RESAMPLE):
        rng = np.random.default_rng(seed + attempt)
        labeled = rng.choice(eligible, size=n_labeled, replace=False)
        if np.unique(bundle.gold[labeled]).size == present.size:
            break
    else:
        raise ValueError("could not cover every class")
    remaining = np.setdiff1d(eligible, labeled)
    test = rng.choice(remaining, size=min(IMBALANCED_TEST_SIZE, remaining.size), replace=False)
    return SplitSpec(labeled, np.empty(0, dtype=np.int64), test)


def unlabeled_nodes(n: int, labeled: np.ndarray) -> np.ndarray:
    """The nodes of 0..n-1 not in ``labeled``, by ``setdiff1d``."""
    return np.setdiff1d(np.arange(n), labeled)


def missing_classes(c: int, labels: np.ndarray) -> np.ndarray:
    """The classes of 0..c-1 not in ``labels``, by ``setdiff1d``."""
    return np.setdiff1d(np.arange(c), labels)


def read_table(path: Path, dtype, delimiter: str, width: int, bad_count: str, bad_value: str):
    """(rows, fault) of a dataset table as the text path read it before its
    one parse of the whole file: the stripped non-blank lines as a list,
    one ``np.loadtxt`` call over that list, then the line-by-line parse."""
    with path.open() as fh:
        lines = list(filter(None, map(str.strip, fh)))
    if lines:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=2)
            if rows.shape[1] == width:
                return rows, None
        except (ValueError, DeprecationWarning):
            pass
    parse = int if np.issubdtype(dtype, np.integer) else float
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
    except OverflowError:
        rows = np.array(parsed, dtype=object)
    return rows.reshape(-1, width), fault


def save_dataset(bundle, path) -> None:
    """The dataset writer as it was before ``np.savetxt``: one formatted value
    at a time."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "meta").write_text(
        f"n={bundle.n}\nf={bundle.num_features}\nc={bundle.num_classes}\n"
    )
    with (root / "edges.tsv").open("w") as fh:
        for i, j in bundle.graph.edges:
            fh.write(f"{i}\t{j}\n")
    with (root / "features.csv").open("w") as fh:
        for row in bundle.features:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    with (root / "labels.tsv").open("w") as fh:
        for node in np.flatnonzero(bundle.gold != -1):
            fh.write(f"{node}\t{bundle.gold[node]}\n")


# The student's epoch as it was written before the momentum branch moved to
# class space: the momentum encoder runs over every row of x, and the
# prototypes and the filter read its n x hidden embeddings.


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def similarity_distribution(z, protos, tau):
    """Softmax over the prototype dot products at temperature tau."""
    return softmax(z @ protos.T / tau)


def momentum_embed(params, features):
    """The momentum encoder's embeddings of every row of ``features``."""
    a1 = np.maximum(features @ params.mw1 + params.mb1, 0.0)
    return a1 @ params.mw2 + params.mb2


def filter_pseudo_labels(soft, z_momentum, protos, tau, unlabeled):
    """Keep unlabeled nodes whose similarity to their own pseudo-class
    prototype strictly exceeds 1/c, from the momentum embeddings."""
    c = protos.shape[0]
    hard = np.argmax(soft.matrix, axis=1)
    sims = similarity_distribution(z_momentum[unlabeled], protos, tau)
    own = sims[np.arange(unlabeled.size), hard[unlabeled]]
    return PseudoLabelSet(hard=hard, kept=unlabeled[own > 1.0 / c]), own


def pseudo_targets(params, x, gold, labeled, unlabeled, soft, cfg):
    """(prototypes, pseudo-label set, each unlabeled node's similarity to its
    own class) from the momentum embeddings of every row."""
    z_mom = momentum_embed(params, x)
    protos = compute_prototypes(z_mom, class_members(gold, labeled, params.w3.shape[1]))
    return (protos, *filter_pseudo_labels(soft, z_mom, protos, cfg.tau, unlabeled))


def loss_contrastive(z, protos, pls, tau):
    """The contrastive loss and its gradient w.r.t. z, (n, hidden)."""
    grad = np.zeros_like(z)
    kept = pls.kept
    if kept.size == 0:
        return 0.0, grad
    sims = similarity_distribution(z[kept], protos, tau)
    own = pls.hard[kept]
    value = -clamped_log(sims[np.arange(kept.size), own]).sum()
    value, g = _mean(value, (sims @ protos - protos[own]) / tau, kept.size)
    grad[kept] = g
    return value, grad


def _mean(value, grad, count):
    if count:
        return float(value / count), grad / count
    return float(value), grad


# The student's epoch in fresh arrays: ``agst.mlp``'s class-space head step
# by step, every step allocating its result, with the program's own softmax
# and losses (which allocate when given no ``out``).  An epoch written into a
# shared ``EpochWorkspace`` must give the same bits.


def _forward_cache(params, x, k, dropout=0.0, rng=None):
    """The hidden layer and the head's output h @ (w2 @ k) + (b2 @ k + [b3 | 0])."""
    h1 = x @ params.w1 + params.b1
    keep = (h1 > 0.0).astype(h1.dtype)
    if rng is not None and dropout > 0.0:
        # drawn and scaled in the dtype of the hidden layer, an even number
        # of uniforms (one unused for an odd count): agst.mlp.draw_kept reads
        # the generator's 64-bit words two 32-bit halves at a time
        u = rng.random(h1.size + h1.size % 2, dtype=h1.dtype)[:h1.size].reshape(h1.shape)
        keep = keep * ((u >= dropout).astype(h1.dtype) / (1.0 - dropout))
    d1 = h1 * keep
    c = params.b3.size
    bias = params.b2 @ k
    bias[:c] += params.b3
    out = d1 @ (params.w2 @ k) + bias
    return {"x": x, "d1": d1, "keep": keep, "out": out, "p": mlp.softmax(out[:, :c])}


def _backward(params, cache, d_out, w_out):
    """Gradients given the gradient ``d_out`` of the head's output, whose
    embedding gradient is ``d_out @ w_out``."""
    c = params.b3.size
    d1, x = cache["d1"], cache["x"]
    ones = np.ones(d1.shape[0], d1.dtype)
    g_out = d1.T @ d_out
    s = ones @ d_out
    d_h1 = (d_out @ (w_out @ params.w2.T)) * cache["keep"]
    return {
        "w1": np.asarray(x.T @ d_h1),
        "b1": ones @ d_h1,
        "w2": g_out @ w_out,
        "b2": s @ w_out,
        "w3": params.w2.T @ g_out[:, :c] + np.outer(params.b2, s[:c]),
        "b3": s[:c],
    }


def joint_objective(params, x, labeled, unlabeled, targets, cfg, protos, pls, rng=None):
    """(joint loss, its three parts, gradients, forward cache)."""
    c = params.b3.size
    k = params.w3 if pls is None else np.concatenate([params.w3, protos.T / cfg.tau], axis=1)
    cache = _forward_cache(params, x, k, cfg.dropout, rng)
    l_lab, l_unl, d_logits = mlp.loss_cross_entropy(cache["p"], targets, labeled, unlabeled,
                                                    cfg.lambda1)
    if pls is None:
        l_con, d_out, w_out = 0.0, d_logits, params.w3.T
    else:
        l_con, g_sim = mlp.loss_contrastive(cache["out"][:, c:], pls)
        d_out = np.concatenate([d_logits, g_sim], axis=1)
        w_out = np.concatenate([params.w3.T, protos * (cfg.lambda2 / cfg.tau)])
    joint = l_lab + cfg.lambda1 * l_unl + cfg.lambda2 * l_con
    return joint, (l_lab, l_unl, l_con), _backward(params, cache, d_out, w_out), cache


class Adam:
    """``agst.mlp.Adam`` as it was written before its scratch buffers: every
    step allocates its temporaries."""

    def __init__(self, lr=0.01, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.state = {}

    def step(self, params, grads):
        self.t += 1
        for name in PARAM_NAMES:
            value = getattr(params, name)
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * value
            if name not in self.state:
                self.state[name] = (np.zeros_like(value), np.zeros_like(value))
            m, v = self.state[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
