"""Reference implementations the program's faster code is tested against."""

import numpy as np

from agst import SparseGraph


def generate_candidates(
    hard: np.ndarray, graph: SparseGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Addition candidates (same-hard-label non-edges) and removal candidates
    (every existing edge), both as canonical (k, 2) arrays.

    Nodes are grouped by label first, so no cross-class pair is ever touched.
    """
    n = graph.n
    existing = graph.edge_keys()
    blocks = []
    for cls in np.unique(hard):
        members = np.flatnonzero(hard == cls)
        if members.size < 2:
            continue
        iu, ju = np.triu_indices(members.size, k=1)
        blocks.append(np.column_stack([members[iu], members[ju]]))
    if blocks:
        pairs = np.concatenate(blocks)
        keys = pairs[:, 0] * n + pairs[:, 1]
        additions = pairs[~np.isin(keys, existing)]
        order = np.lexsort((additions[:, 1], additions[:, 0]))
        additions = additions[order]
    else:
        additions = np.empty((0, 2), dtype=np.int64)
    return additions, graph.edges.copy()
