"""The lazy ``violina`` namespace: its public names, their homes and
``__version__``."""

import importlib
import re
from pathlib import Path

import pytest

import violina

PUBLIC = {
    "constraints": ["CausalBand", "ConstraintSpec", "Fixed", "FullSpace", "NonnegativeDiagonal",
                    "ShiftedGraphLaplacian", "SymmetricMaskedNonneg", "project_nonneg_diagonal",
                    "project_shifted_laplacian", "project_symmetric_masked_nonneg"],
    "dmdc": ["RankScanResult", "dmdc_fit", "dmdc_rank_scan"],
    "kernel": ["CausalBandKernel", "apply_kernel", "fractional_kernel", "fractional_toeplitz",
               "partial_identity", "project_to_band"],
    "model": ["DataMatrices", "StateSpaceModel", "Trajectory", "arx_offset",
              "build_data_matrices", "relative_error"],
    "objective": ["Dataset", "TangentTuple", "UniquenessReport", "fixed_d_hessian", "gradient",
                  "hessian_apply", "lipschitz_constant", "loss", "perturbed",
                  "uniqueness_certificate"],
    "pgd": ["FitReport", "PgdConfig", "SolverError", "default_initial_point", "violina_fit"],
    "synth": ["BenchmarkConfig", "BenchmarkSuite", "CylinderGrid", "build_benchmark_suite",
              "build_cylinder_graph", "energy", "energy_deviation", "ground_truth_models",
              "make_datasets", "make_input"],
}


def test_all_holds_the_fifty_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 50
    assert sorted(violina.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodules_object(module):
    home = importlib.import_module(f"violina.{module}")
    for name in PUBLIC[module]:
        assert getattr(violina, name) is getattr(home, name), name
        assert vars(violina)[name] is getattr(home, name), name  # kept after the first lookup
    assert getattr(violina, module) is home


def test_dir_and_star_import_list_the_public_names():
    assert set(violina.__all__) <= set(dir(violina))
    assert "__version__" in dir(violina)
    namespace = {}
    exec("from violina import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(violina.__all__)


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'violina' has no attribute 'no_such_name'$"):
        violina.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from violina import no_such_name", {})


def test_version_is_the_projects():
    """``__version__`` is ``[project].version`` of ``pyproject.toml``, read
    with a pattern so that Python 3.10, which has no ``tomllib``, runs it."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project[1], re.M)
    assert violina.__version__ == version[1]
