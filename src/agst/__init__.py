"""Graph semi-supervised learning via augmented self-training.

A label-propagation teacher generates soft pseudo-labels, an MLP student
learns the feature-to-label map under a joint cross-entropy + prototype
contrastive objective, and the student's predictions rewire the graph
between self-training rounds.
"""

from .data import (
    DatasetBundle,
    DatasetFormatError,
    SplitSpec,
    convert_content_release,
    load_dataset,
    make_split,
    save_dataset,
    two_cluster_bundle,
)
from .experiments import (
    ExperimentSpec,
    Report,
    confidence_halfwidth,
    method_config,
    run_experiment,
    run_single,
    run_sweep,
    write_sweep_csv,
)
from .gradcheck import grad_check, run_gradcheck_suite
from .graph import SparseGraph, normalize_adjacency
from .mlp import (
    TrainConfig,
    class_members,
    compute_prototypes,
    filter_pseudo_labels,
    forward,
    init_params,
    joint_objective,
    loss_contrastive,
    loss_cross_entropy,
    momentum_update,
    pseudo_targets,
    student_targets,
    train_student,
)
from .propagation import (
    LpConfig,
    SoftLabels,
    propagate_labels,
    to_distribution,
)
from .rewiring import (
    AugmentConfig,
    apply_augmentation,
    edge_probability,
    plan_augmentation,
)
from .selftrain import AgstConfig, run_agst

__version__ = "0.1.0"
