"""Violina: constrained identification of linear time-invariant
non-Markovian state-space models from multiple trajectories, with a DMDc
baseline and a synthetic cylinder-grid diffusion benchmark.

The package loads lazily (PEP 562): ``import violina`` imports no submodule
and not numpy, and each public name imports its submodule on first access.
"""

import importlib

_EXPORTS = {
    "constraints": (
        "CausalBand", "ConstraintSpec", "Fixed", "FullSpace", "NonnegativeDiagonal",
        "ShiftedGraphLaplacian", "SymmetricMaskedNonneg", "project_nonneg_diagonal",
        "project_shifted_laplacian", "project_symmetric_masked_nonneg",
    ),
    "dmdc": ("RankScanResult", "dmdc_fit", "dmdc_rank_scan"),
    "kernel": (
        "CausalBandKernel", "apply_kernel", "fractional_kernel", "fractional_toeplitz",
        "partial_identity", "project_to_band",
    ),
    "model": (
        "DataMatrices", "Dataset", "StateSpaceModel", "Trajectory", "arx_offset",
        "build_data_matrices", "relative_error",
    ),
    "objective": (
        "TangentTuple", "UniquenessReport", "fixed_d_hessian", "gradient", "hessian_apply",
        "lipschitz_constant", "loss", "perturbed", "uniqueness_certificate",
    ),
    "pgd": ("FitReport", "PgdConfig", "SolverError", "default_initial_point", "violina_fit"),
    "synth": (
        "BenchmarkConfig", "BenchmarkSuite", "CylinderGrid", "build_benchmark_suite",
        "build_cylinder_graph", "energy", "energy_deviation", "ground_truth_models",
        "make_datasets", "make_input",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """The public ``name`` from its submodule, kept in this module's globals
    so that it is looked up once; a submodule of ``_EXPORTS`` by its name."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
