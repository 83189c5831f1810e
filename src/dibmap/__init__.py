"""dibmap: map the full primal DIB Pareto frontier of discrete joints.

The package traces the complete trade-off between the entropy of a hard
clustering and the relevant information it retains, via an epsilon-greedy
agglomerative search, with a brute-force oracle for verification,
finite-sample robust variants, symmetric (shared-encoder) compression, and
a Monte Carlo lab for Pareto-set sparsity scaling.
"""

from .distributions import (
    EmpiricalCounts,
    JointPMF,
    entropy,
    load_counts_csv,
    load_joint_csv,
    multinomial_sample,
    mutual_information,
    normalize_counts,
    push_forward,
    sample_simplex,
    sampling_ratio,
    save_matrix_csv,
    trials_for_ratio,
)
from .encoders import Encoder, canonicalize
from .errors import CapacityError, DimensionMismatchError, InvalidDistributionError
from .mapper import (
    SearchConfig,
    SearchStats,
    dmc_points,
    enqueue_probability,
    pareto_mapper,
    upper_hull,
)
from .oracle import (
    FrontierScore,
    bell_number,
    brute_force_frontier,
    enumerate_partitions,
    precision_recall,
)
from .pareto import ParetoPoint, ParetoSet, pareto_mask
from .robust import (
    RobustConfig,
    bootstrap_uncertainty,
    robust_pareto_mapper,
    significance_filter,
)
from .scaling import (
    CopulaKind,
    dib_frontier_scaling,
    harmonic_number,
    pareto_mask_by_ranks,
    pareto_size,
    sample_cloud,
    scaling_experiment,
)
from .symmetric import (
    TripleJointPMF,
    load_triple_csv,
    save_triple_csv,
    symmetric_objectives,
    symmetric_pareto_mapper,
)
from .datasets import GroupTable, group_joint, ingest_bigrams, make_group

__version__ = "0.1.0"
