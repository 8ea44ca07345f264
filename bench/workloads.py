"""The benchmark's workloads: what each generator draws and how agst runs on it.

Plain data only (no numpy, no agst), so the launcher, the generator and the
measuring interpreter all read the same table.  Why each workload exists is
in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# Cora's seven class sizes (2708 nodes), so the balanced split and the
# per-class work look like the real citation graph.
CORA_CLASS_SIZES = (818, 426, 418, 351, 298, 217, 180)


@dataclass(frozen=True)
class Shape:
    """What one workload's generator draws."""

    class_sizes: tuple[int, ...]
    edges: int                 # unique undirected edges after deduplication
    homophily: float           # share of generated edges inside one class
    features: int
    binary: bool               # sparse bag-of-words, else dense Gaussian
    signal: float              # binary: share of words from the class topic;
                               # dense: distance between class means
    words: float = 18.0        # binary: mean words per node (Cora: 18)


@dataclass(frozen=True)
class Workload:
    """One workload: its input shape and the single operation that is timed.

    ``pool`` False times one ``selftrain.run_agst`` on one split; ``pool``
    True times one ``experiments.run_experiment`` over ``runs`` repetitions
    on ``workers`` processes.  ``no_val_epochs`` only matters without a
    validation set.  ``acc_band`` is the test accuracy every run must reach.
    """

    name: str
    shape: Shape
    protocol: str
    k: int = 5
    rate: float = 0.01
    val_per_class: int = 30
    no_val_epochs: int = 300
    pool: bool = False
    runs: int = 1
    workers: int = 1
    acc_band: tuple[float, float] = (0.0, 1.0)


WORKLOADS = {w.name: w for w in (
    Workload(
        "cora-csbm",
        # signal 0.35 puts test accuracy near 0.75-0.9; at 0.30, three of
        # fifteen seeds ran a last round of 143-336 epochs instead of ~110
        # (validation loss kept creeping down), so run time hung on the seed
        Shape(CORA_CLASS_SIZES, 5278, 0.8, 1433, True, 0.35),
        protocol="balanced", k=5, val_per_class=30,
        acc_band=(0.6, 0.95),
    ),
    Workload(
        "rewire-large",
        # equal classes and clear features keep the predicted classes
        # balanced; a collapsed prediction inflates sum n_c^2 and the run time
        Shape((1200, 1200, 1200), 10800, 0.8, 8, False, 4.0),
        protocol="balanced", k=5, val_per_class=0, no_val_epochs=30,
        acc_band=(0.7, 0.99),
    ),
    Workload(
        "splits-pool",
        Shape((300, 300, 300, 300), 3600, 0.8, 32, False, 5.0),
        protocol="imbalanced", rate=0.03, val_per_class=0, no_val_epochs=100,
        pool=True, runs=4, workers=2,
        acc_band=(0.6, 0.99),
    ),
    # seconds-scale inputs for bench/selftest.py; not in BENCHMARK.json
    Workload(
        "tiny-agst",
        Shape((40, 40, 40), 360, 0.8, 24, True, 0.5, words=6.0),
        protocol="balanced", k=3, val_per_class=5,
        acc_band=(0.5, 1.0),
    ),
    Workload(
        "tiny-pool",
        Shape((40, 40, 40), 360, 0.8, 8, False, 4.0),
        protocol="imbalanced", rate=0.1, val_per_class=0, no_val_epochs=50,
        pool=True, runs=2, workers=2,
        acc_band=(0.5, 1.0),
    ),
)}
