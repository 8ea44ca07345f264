import ctypes

import numpy as np
import pytest

from agst import DatasetBundle, SparseGraph, SplitSpec, selftrain


def make_bundle(n, edges, gold, c, features=None, f=2, rng=None):
    if features is None:
        rng = rng or np.random.default_rng(0)
        features = rng.normal(size=(n, f))
    return DatasetBundle(SparseGraph(n, edges), features, gold, c)


def split_of(labeled, validation=(), test=()):
    return SplitSpec(np.asarray(labeled, dtype=np.int64),
                     np.asarray(list(validation), dtype=np.int64),
                     np.asarray(list(test), dtype=np.int64))


def random_graph_edges(rng, n, p):
    """Erdos-Renyi edge list as an (m, 2) array."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return np.column_stack([iu[keep], ju[keep]])


@pytest.fixture
def two_node_bundle():
    """Single edge 0-1, node 0 labeled with the only class."""
    return make_bundle(2, [[0, 1]], gold=np.array([0, -1]), c=1)


@pytest.fixture
def path3_graph():
    return SparseGraph(3, [[0, 1], [1, 2]])


def _blas_thread_calls():
    """(get, set) thread-count calls of every loaded OpenBLAS, by library path."""
    calls = {}
    for lib, handle in selftrain._openblas_libraries().items():
        for name in selftrain._OPENBLAS_SETTERS:
            set_threads = getattr(handle, name, None)
            get_threads = getattr(handle, name.replace("_set_", "_get_"), None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                calls[lib] = (get_threads, set_threads)
                break
    return calls
