import json
from pathlib import Path

import numpy as np
import pytest

from violina import (
    BenchmarkConfig,
    CausalBandKernel,
    build_benchmark_suite,
    build_cylinder_graph,
    energy,
    energy_deviation,
    ground_truth_models,
    make_datasets,
    make_input,
)
from oracles import hankel_companion


def neighbor_counts(grid):
    return (grid.adjacency > 0).sum(axis=1)


def test_ring_graph_has_two_neighbors_each():
    grid = build_cylinder_graph(3, 1, 0.5, 1.5, seed=1)
    assert np.all(neighbor_counts(grid) == 2)


def test_paper_grid_neighbor_counts():
    grid = build_cylinder_graph(20, 5, 0.5, 1.5, seed=1)
    counts = neighbor_counts(grid).reshape(5, 20)
    assert np.all(counts[0] == 3)
    assert np.all(counts[-1] == 3)
    assert np.all(counts[1:-1] == 4)


def test_laplacian_row_and_column_sums_vanish():
    grid = build_cylinder_graph(7, 3, 0.5, 1.5, seed=3)
    L = grid.laplacian
    assert np.max(np.abs(L.sum(axis=0))) <= 1e-12
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-12
    off = L - np.diag(np.diag(L))
    assert off.min() >= 0.0
    assert np.array_equal(L != 0.0, grid.neighbor_mask & ~np.eye(grid.n, dtype=bool)
                          | np.diag(np.diag(L) != 0.0))


def test_weights_inside_range_and_symmetric():
    grid = build_cylinder_graph(6, 2, 0.5, 1.5, seed=7)
    K = grid.adjacency
    assert np.array_equal(K, K.T)
    w = K[K > 0]
    assert w.min() >= 0.5 and w.max() <= 1.5


def test_seed_reproducibility_bitwise():
    a = build_cylinder_graph(6, 3, 0.5, 1.5, seed=11)
    b = build_cylinder_graph(6, 3, 0.5, 1.5, seed=11)
    c = build_cylinder_graph(6, 3, 0.5, 1.5, seed=12)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_graph_validation():
    with pytest.raises(ValueError):
        build_cylinder_graph(2, 1, 0.5, 1.5, seed=0)
    with pytest.raises(ValueError):
        build_cylinder_graph(4, 0, 0.5, 1.5, seed=0)
    with pytest.raises(ValueError):
        build_cylinder_graph(4, 1, 0.0, 1.5, seed=0)
    with pytest.raises(ValueError):
        build_cylinder_graph(4, 1, 2.0, 1.5, seed=0)


@pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1.0])
def test_ground_truth_refuses_a_time_step_that_is_not_positive_and_finite(h):
    grid = build_cylinder_graph(4, 1, 0.5, 1.5, seed=0)
    with pytest.raises(ValueError, match=f"time step must be positive and finite, got {h}"):
        ground_truth_models(grid, h, m=10)


def test_ground_truth_matrices():
    grid = build_cylinder_graph(5, 2, 0.5, 1.5, seed=5)
    h = 0.01
    markov, nonmarkov = ground_truth_models(grid, h, m=30)
    np.testing.assert_allclose(markov.A, np.eye(10) + grid.laplacian * h)
    np.testing.assert_allclose(markov.B, np.eye(10) * h)
    assert markov.kernel.q == 0 and markov.kernel.Q == 1
    assert nonmarkov.kernel.q == 2 and nonmarkov.kernel.Q == 3
    assert nonmarkov.kernel.coeffs == (0.03, -0.01)


def test_paper_scale_time_step():
    cfg = BenchmarkConfig.paper_scale()
    assert cfg.m == 1000
    assert cfg.h == pytest.approx(1.001001e-3, rel=1e-6)


def test_make_input_shared_sinusoid_when_sigma_positive():
    U = make_input("parallel", 1, 3, 1, Lx=4, Ly=2, m=8, h=0.1)
    wave = np.sin(2 * np.pi * 3 * np.arange(8) * 0.1)
    for x in range(4):
        np.testing.assert_array_equal(U[x + 4 * 1], wave)
    assert np.all(U[:4] == 0.0)  # other row silent
    assert np.all(U[:, 0] == 0.0)  # sin(0) = 0


def test_make_input_alternating_sign():
    U = make_input("parallel", -1, 2, 0, Lx=4, Ly=2, m=6, h=0.05)
    wave = np.sin(2 * np.pi * 2 * np.arange(6) * 0.05)
    for x in range(4):
        np.testing.assert_array_equal(U[x], (-1.0) ** x * wave)
    assert np.all(U[4:] == 0.0)


def test_make_input_perpendicular_orientation():
    U = make_input("perp", -1, 1, 2, Lx=4, Ly=3, m=5, h=0.1)
    wave = np.sin(2 * np.pi * np.arange(5) * 0.1)
    for y in range(3):
        np.testing.assert_array_equal(U[2 + 4 * y], (-1.0) ** y * wave)


def test_make_input_index_validation():
    with pytest.raises(ValueError):
        make_input("parallel", 1, 1, 5, Lx=4, Ly=2, m=5, h=0.1)
    with pytest.raises(ValueError):
        make_input("perp", 1, 1, 4, Lx=4, Ly=2, m=5, h=0.1)
    with pytest.raises(ValueError):
        make_input("diagonal", 1, 1, 0, Lx=4, Ly=2, m=5, h=0.1)


def test_dataset_counts_paper_and_desk_index_sets():
    grid = build_cylinder_graph(20, 5, 0.5, 1.5, seed=2)
    markov, _ = ground_truth_models(grid, 0.01, m=25)
    train, test, en = make_datasets(markov, grid, m=25, h=0.01)
    assert (train.size, test.size, en.size) == (20, 8, 1)
    desk = build_cylinder_graph(10, 3, 0.5, 1.5, seed=2)
    markov, _ = ground_truth_models(desk, 0.01, m=25)
    train, test, en = make_datasets(markov, desk, m=25, h=0.01)
    assert (train.size, test.size, en.size) == (12, 8, 1)


def test_single_row_ring_suite_is_valid():
    suite = build_benchmark_suite(BenchmarkConfig(Lx=4, Ly=1, m=20, seed=3))
    assert (suite.markov.train.size, suite.markov.test.size,
            suite.markov.energy.size) == (4, 8, 1)
    assert suite.grid.n == 4


def test_train_ordering_starts_with_designated_fit_input():
    grid = build_cylinder_graph(6, 2, 0.5, 1.5, seed=9)
    h = 0.02
    markov, _ = ground_truth_models(grid, h, m=20)
    train, _, _ = make_datasets(markov, grid, m=20, h=h)
    expected = make_input("parallel", 1, 3, 0, grid.Lx, grid.Ly, 20, h)
    np.testing.assert_array_equal(train.trajectories[0].inputs, expected)


def test_markovian_energy_set_conserves_energy():
    suite = build_benchmark_suite(BenchmarkConfig(Lx=6, Ly=2, m=60, seed=4))
    traj = suite.markov.energy.trajectories[0]
    E = energy(traj)
    assert E[0] == pytest.approx(12.0)
    assert np.max(np.abs(E - E[0])) / abs(E[0]) <= 1e-10


def test_nonmarkovian_energy_not_conserved():
    suite = build_benchmark_suite(BenchmarkConfig(Lx=6, Ly=2, m=60, seed=4))
    E = energy(suite.nonmarkov.energy.trajectories[0])
    assert np.max(np.abs(E - E[0])) > 1e-6


def test_companion_spectral_radius_of_ground_truth():
    cfg = BenchmarkConfig.desk_scale()
    suite = build_benchmark_suite(cfg)
    sA, _ = hankel_companion(suite.nonmarkov.model)
    radius = np.max(np.abs(np.linalg.eigvals(sA)))
    assert radius < 1.0 + 10.0 * cfg.h


def test_suite_reproducibility_bitwise():
    cfg = BenchmarkConfig(Lx=5, Ly=2, m=30, seed=17)
    s1 = build_benchmark_suite(cfg)
    s2 = build_benchmark_suite(cfg)
    assert np.array_equal(s1.grid.adjacency, s2.grid.adjacency)
    for a, b in zip(s1.nonmarkov.train.trajectories, s2.nonmarkov.train.trajectories):
        assert np.array_equal(a.states, b.states)


def test_energy_deviation_identical_is_zero():
    suite = build_benchmark_suite(BenchmarkConfig(Lx=5, Ly=2, m=20, seed=3))
    traj = suite.markov.energy.trajectories[0]
    assert np.array_equal(energy_deviation(traj, traj), np.zeros(21))


def test_energy_deviation_length_mismatch(rng):
    from violina import Trajectory
    t1 = Trajectory(rng.normal(size=(2, 5)), rng.normal(size=(1, 4)))
    t2 = Trajectory(rng.normal(size=(2, 6)), rng.normal(size=(1, 5)))
    with pytest.raises(ValueError):
        energy_deviation(t1, t2)


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_preset_files_are_the_presets(preset):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{preset}.json"
    parsed = BenchmarkConfig.from_dict(json.loads(path.read_text()))
    assert parsed == getattr(BenchmarkConfig, f"{preset}_scale")()


@pytest.mark.parametrize("field, value", [("Lx", 10.0), ("Ly", 3.0), ("m", 200.0), ("seed", 1.5),
                                          ("q", 2.0), ("Q", 3.0), ("seed", True)])
def test_config_refuses_a_size_that_is_not_an_integer(field, value):
    """A float or a bool in an integer field is refused at construction,
    naming the field, not inside ``build_benchmark_suite``; numpy integers
    count."""
    sizes = dict(Lx=10, Ly=3, m=200)
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        BenchmarkConfig(**dict(sizes, **{field: value}))
    assert BenchmarkConfig(**{key: np.int64(v) for key, v in sizes.items()}).m == 200


def test_config_defaults_are_the_field_defaults():
    cfg = BenchmarkConfig(Lx=4, Ly=1, m=20)
    assert BenchmarkConfig.from_dict({"Lx": 4, "Ly": 1, "m": 20}) == cfg
    assert BenchmarkConfig.desk_scale().seed == BenchmarkConfig.paper_scale().seed == cfg.seed
    grid = build_cylinder_graph(4, 1, cfg.w0, cfg.w1, cfg.seed)
    _, nonmarkov = ground_truth_models(grid, cfg.h, cfg.m)
    assert nonmarkov.kernel == CausalBandKernel(cfg.m, cfg.q, cfg.Q, cfg.coeffs)


@pytest.mark.parametrize("sigma", [0, 2])
def test_make_input_refuses_sigma_other_than_plus_minus_one(sigma):
    with pytest.raises(ValueError, match=f"^sigma must be \\+1 or -1, got {sigma}$"):
        make_input("parallel", sigma, 1, 0, Lx=4, Ly=2, m=8, h=0.1)


@pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1.0])
def test_make_input_refuses_a_time_step_that_is_not_positive_and_finite(h):
    """``make_input`` refuses the time steps ``ground_truth_models`` does,
    with its message, instead of returning a NaN or constant forcing."""
    with pytest.raises(ValueError, match=f"^time step must be positive and finite, got {h}$"):
        make_input("parallel", 1, 1, 0, Lx=4, Ly=2, m=8, h=h)
