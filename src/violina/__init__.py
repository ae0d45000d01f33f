"""Violina: constrained identification of linear time-invariant
non-Markovian state-space models from multiple trajectories, with a DMDc
baseline and a synthetic cylinder-grid diffusion benchmark."""

from .constraints import (
    CausalBand,
    ConstraintSpec,
    Fixed,
    FullSpace,
    NonnegativeDiagonal,
    ShiftedGraphLaplacian,
    SymmetricMaskedNonneg,
    project_nonneg_diagonal,
    project_shifted_laplacian,
    project_symmetric_masked_nonneg,
)
from .dmdc import RankScanResult, dmdc_fit, dmdc_rank_scan
from .kernel import (
    CausalBandKernel,
    apply_kernel,
    fractional_kernel,
    fractional_toeplitz,
    partial_identity,
    project_to_band,
)
from .model import (
    DataMatrices,
    StateSpaceModel,
    Trajectory,
    arx_offset,
    build_data_matrices,
    relative_error,
)
from .objective import (
    Dataset,
    TangentTuple,
    UniquenessReport,
    fixed_d_hessian,
    gradient,
    hessian_apply,
    lipschitz_constant,
    loss,
    perturbed,
    uniqueness_certificate,
)
from .pgd import FitReport, PgdConfig, SolverError, default_initial_point, violina_fit
from .synth import (
    BenchmarkConfig,
    BenchmarkSuite,
    CylinderGrid,
    build_benchmark_suite,
    build_cylinder_graph,
    energy,
    energy_deviation,
    ground_truth_models,
    make_datasets,
    make_input,
)

__version__ = "0.1.0"
