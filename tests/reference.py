"""Reference implementations the program's faster code is tested against."""

from pathlib import Path

import numpy as np
from scipy import sparse

from agst import SoftLabels, SparseGraph, class_members, compute_prototypes
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


# The student's epoch as it was written before the epoch workspace and
# before the momentum branch moved to class space: every array is fresh, in
# the dtype of the parameters and features it is given.  The momentum
# encoder runs over every row of x, the prototypes and the filter read its
# n x hidden embeddings, and the contrastive gradient is an n x hidden
# gradient w.r.t. z added to d_z.  ``joint_objective`` below assembles the
# loss the same way ``agst.mlp.joint_objective`` does.


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def similarity_distribution(z, protos, tau):
    """Softmax over the prototype dot products at temperature tau."""
    return softmax(z @ protos.T / tau)


def _forward_cache(params, x, dropout=0.0, rng=None):
    h1 = x @ params.w1 + params.b1
    a1 = np.maximum(h1, 0.0)
    mask = None
    d1 = a1
    if rng is not None and dropout > 0.0:
        # drawn and scaled in the dtype of the hidden layer, an even number
        # of uniforms (one unused for an odd count): agst.mlp.draw_kept reads
        # the generator's 64-bit words two 32-bit halves at a time
        u = rng.random(a1.size + a1.size % 2, dtype=a1.dtype)[:a1.size].reshape(a1.shape)
        mask = (u >= dropout).astype(a1.dtype) / (1.0 - dropout)
        d1 = a1 * mask
    z = d1 @ params.w2 + params.b2
    logits = z @ params.w3 + params.b3
    p = softmax(logits)
    return {"x": x, "h1": h1, "d1": d1, "mask": mask, "z": z, "p": p}


def _backward(params, cache, d_logits, d_z_extra=None):
    """Gradients of the assembled loss given d(loss)/d(logits) and an optional
    extra d(loss)/d(embeddings) term (the contrastive path)."""
    grads = {}
    z, d1, h1, x = cache["z"], cache["d1"], cache["h1"], cache["x"]
    grads["w3"] = z.T @ d_logits
    grads["b3"] = d_logits.sum(axis=0)
    d_z = d_logits @ params.w3.T
    if d_z_extra is not None:
        d_z = d_z + d_z_extra
    grads["w2"] = d1.T @ d_z
    grads["b2"] = d_z.sum(axis=0)
    d_d1 = d_z @ params.w2.T
    if cache["mask"] is not None:
        d_d1 = d_d1 * cache["mask"]
    d_h1 = d_d1 * (h1 > 0.0)
    grads["w1"] = (x.T @ d_h1) if not sparse.issparse(x) else np.asarray(x.T @ d_h1)
    grads["b1"] = d_h1.sum(axis=0)
    return grads


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


def loss_ce_labeled(p, gold, nodes, reduction):
    """Cross-entropy against gold labels on ``nodes``; gradient w.r.t. their
    logits."""
    rows = p[nodes]
    targets = gold[nodes]
    value = -clamped_log(rows[np.arange(nodes.size), targets]).sum()
    grad = rows.copy()
    grad[np.arange(nodes.size), targets] -= 1.0
    return _mean(value, grad, nodes.size, reduction)


def loss_ce_unlabeled(p, soft, nodes, reduction):
    rows = p[nodes]
    targets = soft.matrix[nodes].astype(p.dtype, copy=False)
    value = -(targets * clamped_log(rows)).sum()
    return _mean(value, rows - targets, nodes.size, reduction)


def loss_contrastive(z, protos, pls, tau, reduction):
    """The contrastive loss and its gradient w.r.t. z, (n, hidden)."""
    grad = np.zeros_like(z)
    kept = pls.kept
    if kept.size == 0:
        return 0.0, grad
    sims = similarity_distribution(z[kept], protos, tau)
    own = pls.hard[kept]
    value = -clamped_log(sims[np.arange(kept.size), own]).sum()
    value, g = _mean(value, (sims @ protos - protos[own]) / tau, kept.size, reduction)
    grad[kept] = g
    return value, grad


def _mean(value, grad, count, reduction):
    if reduction == "mean" and count:
        return float(value / count), grad / count
    return float(value), grad


def joint_objective(params, x, gold, labeled, unlabeled, soft, cfg, protos, pls, rng=None):
    """(joint loss, its three parts, gradients, forward cache)."""
    cache = _forward_cache(params, x, cfg.dropout, rng)
    p, z = cache["p"], cache["z"]
    red = cfg.loss_reduction
    l_lab, g_lab = loss_ce_labeled(p, gold, labeled, red)
    l_unl, g_unl = loss_ce_unlabeled(p, soft, unlabeled, red)
    if pls is not None:
        l_con, g_z = loss_contrastive(z, protos, pls, cfg.tau, red)
    else:
        l_con, g_z = 0.0, None
    joint = l_lab + cfg.lambda1 * l_unl + cfg.lambda2 * l_con

    d_logits = np.zeros_like(p)
    d_logits[labeled] += g_lab
    d_logits[unlabeled] += cfg.lambda1 * g_unl
    d_z_extra = cfg.lambda2 * g_z if g_z is not None else None
    return joint, (l_lab, l_unl, l_con), _backward(params, cache, d_logits, d_z_extra), cache


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
