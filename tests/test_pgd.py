import re
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from violina import (
    BenchmarkConfig,
    CausalBand,
    CausalBandKernel,
    ConstraintSpec,
    Dataset,
    Fixed,
    FullSpace,
    NonnegativeDiagonal,
    PgdConfig,
    ShiftedGraphLaplacian,
    SolverError,
    StateSpaceModel,
    SymmetricMaskedNonneg,
    Trajectory,
    build_benchmark_suite,
    default_initial_point,
    fractional_kernel,
    gradient,
    lipschitz_constant,
    loss,
    violina_fit,
)
from violina import pgd
from conftest import random_stable_model, simulated_dataset
from oracles import (
    literal_fit,
    literal_nonneg_diagonal,
    percall_shifted_laplacian,
    percall_symmetric_masked_nonneg,
)


def _dense(D):
    return D if isinstance(D, np.ndarray) else D.to_dense()


def reference_dense_fit(data, project_A, project_B, project_D, cfg, exact_A=True):
    """Ambient reference: the same scheme run with dense matrices and dense
    kernel matrices, recording losses, stepsizes and backtracks.  Each
    ``project_*`` maps a dense matrix into its factor's set; the start may
    lie outside any of them, and its kernel may be dense or band.  Every
    iterate's surrogate condition and feasibility are asserted here: each
    ``B`` iterate is a fixed point of ``project_B``, and each ``A`` iterate
    one of ``project_A``, exactly unless ``exact_A`` is false (the
    Laplacian's projection reproduces its points only to rounding)."""
    A = cfg.theta0.A.copy()
    B = cfg.theta0.B.copy()
    kern = cfg.theta0.kernel
    t = cfg.t0
    curve = [loss(StateSpaceModel(A, B, kern), data)]
    steps, backs = [], []
    for _ in range(cfg.max_steps):
        theta = StateSpaceModel(A, B, kern)
        f = loss(theta, data)
        g = gradient(theta, data)
        nb = 0
        while True:
            A2 = project_A(A - t * g.dA)
            B2 = project_B(B - t * g.dB)
            K2 = project_D(_dense(kern) - t * g.dD)
            f2 = loss(StateSpaceModel(A2, B2, K2), data)
            dD = _dense(K2) - _dense(kern)
            gdot = float(np.sum((A2 - A) * g.dA) + np.sum((B2 - B) * g.dB)
                         + np.sum(dD * g.dD))
            dist2 = float(np.sum((A2 - A) ** 2) + np.sum((B2 - B) ** 2)
                          + np.sum(dD ** 2))
            surrogate = f + gdot + dist2 / (2.0 * t)
            if f2 <= surrogate + 1e-12 * (1.0 + abs(f)):
                break
            t /= cfg.eta
            nb += 1
        # accepted step satisfies the sufficient-decrease surrogate
        assert f2 <= surrogate + 1e-10 * (1.0 + abs(f))
        # iterate feasibility
        np.testing.assert_array_equal(project_B(B2), B2)
        if exact_A:
            np.testing.assert_array_equal(project_A(A2), A2)
        else:
            np.testing.assert_allclose(project_A(A2), A2, rtol=0.0,
                                       atol=1e-12 * (1.0 + np.abs(A2).max()))
        A, B, kern = A2, B2, K2
        curve.append(f2)
        steps.append(t)
        backs.append(nb)
    return np.array(curve), np.array(steps), np.array(backs), (A, B, kern)


SMALL_SHAPES = [(1, 3), (0, 1), (2, 4)]


def small_shape_id(shape):
    return f"q{shape[0]}-Q{shape[1]}"


def constrained_problem(rng, q, Q):
    n, k, m = 3, 2, 12
    mask = np.ones((n, n), dtype=bool)
    truth = StateSpaceModel(
        np.eye(n) * 0.5 + 0.05,
        np.zeros((n, k)),
        CausalBandKernel(m, q, Q, (0.05, -0.02, 0.01)[: Q - 1]),
    )
    data = simulated_dataset(rng, truth, m, N=3)
    spec = ConstraintSpec(SymmetricMaskedNonneg(mask), NonnegativeDiagonal(),
                          CausalBand(q, Q))
    cfg = PgdConfig(theta0=default_initial_point(n, k, m, q, Q),
                    t0=0.3, eta=1.05, max_steps=60)
    return data, spec, cfg, mask, q, Q


@pytest.fixture(params=SMALL_SHAPES, ids=small_shape_id)
def small_constrained_problem(rng, request):
    return constrained_problem(rng, *request.param)


def test_band_path_matches_dense_reference(small_constrained_problem):
    data, spec, cfg, mask, *_ = small_constrained_problem
    report = violina_fit(data, spec, cfg)
    curve, steps, backs, (A, B, kern) = reference_dense_fit(
        data, partial(percall_symmetric_masked_nonneg, mask=mask), literal_nonneg_diagonal,
        spec.on_D.project, cfg)
    scale = 1.0 + np.abs(curve)
    assert np.max(np.abs(report.loss_curve - curve) / scale) <= 1e-12
    np.testing.assert_allclose(report.stepsizes, steps, rtol=1e-12)
    np.testing.assert_array_equal(report.backtracks, backs)
    np.testing.assert_allclose(report.theta_final.A, A, atol=1e-12)
    np.testing.assert_allclose(
        np.array(report.theta_final.kernel.coeffs), np.array(kern.coeffs), atol=1e-12)


@pytest.mark.parametrize("start", ["dense", "other-band", "fixed"])
def test_start_outside_the_set_matches_dense_reference(rng, start):
    # the first projection moves the start kernel: the first step's surrogate
    # distance must include that move, as the dense reference's does
    n, k, m, q, Q = 3, 2, 12, 1, 3
    mask = np.ones((n, n), dtype=bool)
    truth = random_stable_model(rng, n=n, k=k, m=m, q=q, Q=Q)
    data = simulated_dataset(rng, truth, m, N=3)
    D0, on_D = {
        "dense": (np.eye(m) + np.triu(rng.normal(scale=0.1, size=(m, m)), 1),
                  CausalBand(q, Q)),
        "other-band": (CausalBandKernel(m, 0, 2, (0.1,)), CausalBand(q, Q)),
        "fixed": (CausalBandKernel.identity(m, q, Q), Fixed(fractional_kernel(0.5, m))),
    }[start]
    spec = ConstraintSpec(SymmetricMaskedNonneg(mask), NonnegativeDiagonal(), on_D)
    cfg = PgdConfig(theta0=StateSpaceModel(np.eye(n), np.zeros((n, k)), D0), max_steps=60)
    report = violina_fit(data, spec, cfg)
    curve, steps, backs, _ = reference_dense_fit(
        data, partial(percall_symmetric_masked_nonneg, mask=mask), literal_nonneg_diagonal,
        on_D.project, cfg)
    np.testing.assert_array_equal(report.stepsizes, steps)
    np.testing.assert_array_equal(report.backtracks, backs)
    assert np.max(np.abs(report.loss_curve - curve) / (1.0 + np.abs(curve))) <= 1e-12


@pytest.mark.parametrize("on_A", ["symmetric-masked", "laplacian"])
def test_sparse_mask_start_off_the_support_matches_dense_reference(rng, on_A):
    # A path mask leaves most of A off the support, and the start has entries
    # there (and off the diagonal of B): the first step moves them to the
    # sets' constants, and its surrogate must count that move, as the dense
    # reference's does
    n, k, m, q, Q = 5, 3, 12, 1, 3
    mask = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    truth = random_stable_model(rng, n=n, k=k, m=m, q=q, Q=Q)
    data = simulated_dataset(rng, truth, m, N=3)
    cset, reference = {
        "symmetric-masked": (SymmetricMaskedNonneg(mask),
                             partial(percall_symmetric_masked_nonneg, mask=mask)),
        "laplacian": (ShiftedGraphLaplacian(mask),
                      partial(percall_shifted_laplacian, mask=mask, shift=np.eye(n))),
    }[on_A]
    spec = ConstraintSpec(cset, NonnegativeDiagonal(), CausalBand(q, Q))
    theta0 = StateSpaceModel(0.5 * np.eye(n) + rng.normal(scale=0.1, size=(n, n)),
                             rng.normal(scale=0.1, size=(n, k)),
                             CausalBandKernel(m, q, Q, (0.1, -0.05)))
    assert np.any(theta0.A[~mask] != 0.0)
    cfg = PgdConfig(theta0=theta0, max_steps=60)
    report = violina_fit(data, spec, cfg)
    curve, steps, backs, (A, B, _) = reference_dense_fit(
        data, reference, literal_nonneg_diagonal, spec.on_D.project, cfg,
        exact_A=on_A == "symmetric-masked")
    np.testing.assert_array_equal(report.stepsizes, steps)
    np.testing.assert_array_equal(report.backtracks, backs)
    assert np.max(np.abs(report.loss_curve - curve) / (1.0 + np.abs(curve))) <= 1e-12
    np.testing.assert_allclose(report.theta_final.A, A, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(report.theta_final.B, B, rtol=0.0, atol=1e-12)


def test_loss_curve_monotone(small_constrained_problem):
    data, spec, cfg, *_ = small_constrained_problem
    report = violina_fit(data, spec, cfg)
    diffs = np.diff(report.loss_curve)
    assert np.all(diffs <= 1e-10 * (1.0 + report.loss_curve[:-1]))


def assert_curve_matches_objective(data, spec, cfg):
    """Each loss_curve entry agrees with objective.loss of its iterate; the
    iterate after ``s`` steps is the final point of a fit cut at ``s`` steps."""
    full = violina_fit(data, spec, cfg)
    f0 = loss(cfg.theta0, data)
    assert abs(full.loss_curve[0] - f0) <= 1e-12 * (1.0 + f0)
    for s in range(1, cfg.max_steps + 1):
        cut = violina_fit(data, spec, replace(cfg, max_steps=s))
        np.testing.assert_array_equal(cut.loss_curve, full.loss_curve[: s + 1])
        f = loss(cut.theta_final, data)
        assert abs(cut.loss_curve[-1] - f) <= 1e-12 * (1.0 + f), s
    return full


def test_fixed_dense_kernel_fit_matches_objective(rng):
    # the start's band kernel is not the fixed one: the fit carries Y D - Y D0
    n, k, m, q = 3, 2, 12, 1
    truth = random_stable_model(rng, n=n, k=k, m=m, q=q, Q=3)
    data = simulated_dataset(rng, truth, m, N=3)
    D = fractional_kernel(0.5, m)
    spec = ConstraintSpec(FullSpace(), FullSpace(), Fixed(D))
    cfg = PgdConfig(theta0=default_initial_point(n, k, m, q, 3), max_steps=15)
    report = assert_curve_matches_objective(data, spec, cfg)
    assert report.theta_final.kernel is spec.on_D.value
    assert report.theta_final.kernel.tobytes() == D.tobytes()
    assert report.loss_curve[-1] < report.loss_curve[1]


@pytest.mark.parametrize("start", ["dense", "in-band", "other-band"])
def test_band_fit_matches_objective_from_any_start(rng, start):
    # a start kernel outside the band form is mapped in by the first
    # projection; one inside it has nonzero coefficients to step from
    n, k, m, q, Q = 3, 2, 12, 1, 3
    truth = random_stable_model(rng, n=n, k=k, m=m, q=q, Q=Q)
    data = simulated_dataset(rng, truth, m, N=3)
    D0 = {
        "dense": np.eye(m) + np.triu(rng.normal(scale=0.1, size=(m, m)), 1),
        "in-band": CausalBandKernel(m, q, Q, (0.1, -0.05)),
        "other-band": CausalBandKernel(m, 0, 2, (0.1,)),
    }[start]
    theta0 = StateSpaceModel(np.eye(n), np.zeros((n, k)), D0)
    spec = ConstraintSpec(FullSpace(), FullSpace(), CausalBand(q, Q))
    cfg = PgdConfig(theta0=theta0, max_steps=15)
    report = assert_curve_matches_objective(data, spec, cfg)
    assert isinstance(report.theta_final.kernel, CausalBandKernel)
    assert report.loss_curve[-1] < report.loss_curve[0]


def test_desk_a2b_fit_pinned():
    # the desk-fit benchmark's fit: its backtracks and final loss must not move
    suite = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1))
    train = suite.nonmarkov.train
    spec = ConstraintSpec(ShiftedGraphLaplacian(suite.grid.neighbor_mask),
                          NonnegativeDiagonal(), CausalBand(train.q, train.q + 1))
    theta0 = default_initial_point(train.n, train.k, train.m, train.q, train.q + 1)
    report = violina_fit(train, spec, PgdConfig(theta0=theta0, max_steps=1000))
    assert report.steps == 1000
    assert report.backtracks.sum() == 113
    assert report.loss_curve[-1] == pytest.approx(1.3577891666125e-3, rel=1e-10)
    f = loss(report.theta_final, train)
    assert abs(report.loss_curve[-1] - f) <= 1e-12 * (1.0 + f)


def test_desk_a1b_fit_pinned():
    # the desk fit with the symmetric masked projection: pinned like the a2b one
    suite = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1))
    train = suite.nonmarkov.train
    spec = ConstraintSpec(SymmetricMaskedNonneg(suite.grid.neighbor_mask),
                          NonnegativeDiagonal(), CausalBand(train.q, train.q + 1))
    theta0 = default_initial_point(train.n, train.k, train.m, train.q, train.q + 1)
    report = violina_fit(train, spec, PgdConfig(theta0=theta0, max_steps=1000))
    assert report.steps == 1000
    assert report.backtracks.sum() == 113
    assert report.loss_curve[-1] == pytest.approx(5.353478438998e-4, rel=1e-10)
    f = loss(report.theta_final, train)
    assert abs(report.loss_curve[-1] - f) <= 1e-12 * (1.0 + f)


def desk_problem(on_A, scale=1.0):
    """The desk train set, states and inputs times ``scale``, with ``on_A`` on
    the neighbour mask, nonnegative diagonal ``B`` and the band of the data,
    1 000 steps from the default start with ``t0 = 0.3 / scale^2`` (the
    loss and its curvature scale by ``scale^2``)."""
    suite = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1))
    train = suite.nonmarkov.train
    if scale != 1.0:
        train = Dataset([Trajectory(t.states * scale, t.inputs * scale)
                         for t in train.trajectories], train.q, train.m)
    spec = ConstraintSpec(on_A(suite.grid.neighbor_mask), NonnegativeDiagonal(),
                          CausalBand(train.q, train.q + 1))
    theta0 = default_initial_point(train.n, train.k, train.m, train.q, train.q + 1)
    return train, spec, PgdConfig(theta0=theta0, t0=0.3 / scale**2, max_steps=1000)


def assert_fit_matches_literal(report, data, spec, cfg):
    """The fit takes the path of :func:`oracles.literal_fit`, which forms
    ``F = Theta R^T`` densely on every trial: the same backtracks and
    stepsizes, losses within rounding."""
    curve, steps, backs = literal_fit(data, spec, cfg)
    np.testing.assert_array_equal(report.backtracks, backs)
    np.testing.assert_array_equal(report.stepsizes, steps)
    gap = np.abs(report.loss_curve - curve)
    assert np.all(gap <= 1e-14 * (1.0 + curve))


@pytest.mark.parametrize("problem", [ShiftedGraphLaplacian, SymmetricMaskedNonneg, *SMALL_SHAPES],
                         ids=["desk-a2b", "desk-a1b", *map(small_shape_id, SMALL_SHAPES)])
def test_fit_matches_literal_engine(rng, problem):
    # the Gram engine and the loss increments take the fit path of the dense
    # Theta R^T, its loss ||F||^2 and gradient 2 F R
    if isinstance(problem, tuple):
        data, spec, cfg, *_ = constrained_problem(rng, *problem)
    else:
        data, spec, cfg = desk_problem(problem)
    assert_fit_matches_literal(violina_fit(data, spec, cfg), data, spec, cfg)


@pytest.mark.parametrize("scale", [1e2, 1e3, 1e4])
def test_scaled_desk_fit_keeps_its_path_and_precision(scale):
    # the Gram blocks square the data and the curve sums loss increments;
    # on data scaled by up to 1e4 (losses up to 1.4e5) the fit still takes
    # the factor form's path and ends within 1e-12 (1 + f) of objective.loss
    train, spec, cfg = desk_problem(ShiftedGraphLaplacian, scale)
    report = violina_fit(train, spec, cfg)
    curve, steps, backs = literal_fit(train, spec, cfg)
    np.testing.assert_array_equal(report.backtracks, backs)
    np.testing.assert_array_equal(report.stepsizes, steps)
    f = loss(report.theta_final, train)
    assert abs(report.loss_curve[-1] - f) <= 1e-12 * (1.0 + f)


def test_paper_cli_fit_matches_literal_engine():
    # the paper-scale a1b fit of the benchmark's CLI chain (10 steps)
    suite = build_benchmark_suite(BenchmarkConfig.paper_scale(seed=1))
    train = suite.nonmarkov.train
    spec = ConstraintSpec(SymmetricMaskedNonneg(suite.grid.neighbor_mask),
                          NonnegativeDiagonal(), CausalBand(train.q, train.q + 1))
    theta0 = default_initial_point(train.n, train.k, train.m, train.q, train.q + 1)
    cfg = PgdConfig(theta0=theta0, max_steps=10)
    report = violina_fit(train, spec, cfg)
    assert report.backtracks.sum() == 146
    assert_fit_matches_literal(report, train, spec, cfg)


class ProjectOnly:
    """A constraint set known only by ``project``, counting its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def project(self, M):
        self.calls += 1
        return self.inner.project(M)


def _start_off_supports(train, spec, cfg):
    """``A`` and ``B`` with entries off the mask and off the diagonal."""
    A, B, kernel = cfg.theta0.A + 0.02, cfg.theta0.B + 0.02, cfg.theta0.kernel
    return spec, replace(cfg, theta0=StateSpaceModel(A, B, kernel))


def _start_dense_kernel(train, spec, cfg):
    kernel = cfg.theta0.kernel.to_dense() + np.triu(np.full((train.m, train.m), 0.01))
    return spec, replace(cfg, theta0=StateSpaceModel(cfg.theta0.A, cfg.theta0.B, kernel))


def _start_off_fixed_kernel(train, spec, cfg):
    return replace(spec, on_D=Fixed(fractional_kernel(0.5, train.m))), cfg


@pytest.mark.parametrize("wrap_B", [False, True], ids=["A", "A-and-B"])
@pytest.mark.parametrize("on_A, start", [
    pytest.param(on_A, start, id=f"desk-{kind}{name}")
    for kind, on_A in (("a2b", ShiftedGraphLaplacian), ("a1b", SymmetricMaskedNonneg))
    for name, start in (("", None), ("-off-supports", _start_off_supports),
                        ("-dense-kernel", _start_dense_kernel),
                        ("-fixed-kernel", _start_off_fixed_kernel))])
def test_project_only_set_gives_the_same_fit(on_A, start, wrap_B):
    # a set without support coordinates is free on every entry and projects
    # the whole matrix once per trial point; its fit is the support path's,
    # also from a start off the set, whose first step moves it onto the set
    train, spec, cfg = desk_problem(on_A)
    if start is not None:
        spec, cfg = start(train, spec, cfg)
    report = violina_fit(train, spec, cfg)
    wrapped_A = ProjectOnly(spec.on_A)
    wrapped_B = ProjectOnly(spec.on_B) if wrap_B else spec.on_B
    delegated = violina_fit(train, ConstraintSpec(wrapped_A, wrapped_B, spec.on_D), cfg)
    assert delegated.loss_curve.tobytes() == report.loss_curve.tobytes()
    np.testing.assert_array_equal(delegated.stepsizes, report.stepsizes)
    np.testing.assert_array_equal(delegated.backtracks, report.backtracks)
    assert delegated.theta_final.A.tobytes() == report.theta_final.A.tobytes()
    assert delegated.theta_final.B.tobytes() == report.theta_final.B.tobytes()
    assert (_dense(delegated.theta_final.kernel).tobytes()
            == _dense(report.theta_final.kernel).tobytes())
    trials = report.steps + int(report.backtracks.sum())
    assert wrapped_A.calls == trials
    if wrap_B:
        assert wrapped_B.calls == trials


def test_stationary_at_exact_model(rng):
    # dynamics chosen so every arithmetic step is exactly representable:
    # the residual, loss and gradient are bitwise zero and the iterate is a
    # true fixed point of the projected step
    n, k, m = 2, 2, 10
    mask = np.ones((n, n), dtype=bool)
    truth = StateSpaceModel(0.5 * np.eye(n), np.zeros((n, k)),
                            CausalBandKernel.identity(m, 0, 1))
    traj = truth.simulate(np.ones((n, 1)), np.zeros((k, m)))
    data = Dataset([traj], 0, m)
    spec = ConstraintSpec(SymmetricMaskedNonneg(mask), NonnegativeDiagonal(),
                          CausalBand(0, 1))
    cfg = PgdConfig(theta0=truth, t0=0.3, eta=1.05, max_steps=20)
    report = violina_fit(data, spec, cfg)
    assert np.all(report.loss_curve == 0.0)
    np.testing.assert_array_equal(report.theta_final.A, truth.A)
    assert report.backtracks.sum() == 0


def test_unconstrained_fixed_kernel_converges_to_pseudoinverse(rng):
    n, k, m = 2, 1, 14
    truth = random_stable_model(rng, n=n, k=k, m=m, q=0, Q=1)
    data = simulated_dataset(rng, truth, m, N=1, zero_initial=False)
    spec = ConstraintSpec(FullSpace(), FullSpace(),
                          Fixed(CausalBandKernel.identity(m, 0, 1)))
    cfg = PgdConfig(theta0=default_initial_point(n, k, m, 0, 1),
                    t0=0.3, eta=1.05, max_steps=5000)
    report = violina_fit(data, spec, cfg)
    mat = data.matrices[0]
    Z = np.vstack([mat.X, mat.U])
    assert np.linalg.matrix_rank(Z) == n + k
    target = mat.Y @ np.linalg.pinv(Z)
    got = np.hstack([report.theta_final.A, report.theta_final.B])
    assert np.max(np.abs(got - target)) <= 1e-6 * max(1.0, np.max(np.abs(target)))


def test_constant_stepsize_below_inverse_lipschitz_is_monotone(rng):
    n, k, m = 2, 1, 10
    truth = random_stable_model(rng, n=n, k=k, m=m, q=0, Q=2)
    data = simulated_dataset(rng, truth, m, N=2)
    spec = ConstraintSpec(FullSpace(), FullSpace(), CausalBand(0, 2))
    t_const = 1.0 / lipschitz_constant(data)
    cfg = PgdConfig(theta0=default_initial_point(n, k, m, 0, 2),
                    t0=t_const, eta=1.05, max_steps=200)
    report = violina_fit(data, spec, cfg)
    assert report.backtracks.sum() == 0
    assert np.all(report.stepsizes == t_const)
    diffs = np.diff(report.loss_curve)
    assert np.all(diffs <= 1e-10 * (1.0 + report.loss_curve[:-1]))


def test_early_stop_truncates(rng):
    truth = random_stable_model(rng, n=2, k=1, m=10, q=0, Q=1)
    data = simulated_dataset(rng, truth, 10, N=1)
    spec = ConstraintSpec(FullSpace(), FullSpace(), CausalBand(0, 1))
    cfg = PgdConfig(theta0=default_initial_point(2, 1, 10, 0, 1),
                    t0=0.1, eta=1.05, max_steps=5000, stop_tol=1e-6)
    report = violina_fit(data, spec, cfg)
    assert report.steps < 5000
    assert len(report.loss_curve) == report.steps + 1


def test_backtracking_cap_raises(rng):
    # an eta barely above one cannot shrink a huge stepsize within the cap of
    # 200 divisions; the stepsize is small enough that the loss stays finite
    truth = random_stable_model(rng, n=2, k=1, m=10, q=0, Q=1)
    data = simulated_dataset(rng, truth, 10, N=1)
    spec = ConstraintSpec(FullSpace(), FullSpace(), CausalBand(0, 1))
    cfg = PgdConfig(theta0=default_initial_point(2, 1, 10, 0, 1),
                    t0=1e100, eta=1.0 + 1e-9, max_steps=3)
    with pytest.raises(SolverError, match="after 201 divisions"):
        violina_fit(data, spec, cfg)


@pytest.mark.parametrize("t0", [1e200, 1e308])
def test_overflowing_stepsize_raises_without_warnings(rng, t0):
    # the first trial point overflows; the solver reports it as a non-finite
    # loss, and no numpy warning escapes (warnings are errors here)
    truth = random_stable_model(rng, n=2, k=1, m=10, q=0, Q=1)
    data = simulated_dataset(rng, truth, 10, N=1)
    spec = ConstraintSpec(ShiftedGraphLaplacian(np.ones((2, 2), dtype=bool)),
                          NonnegativeDiagonal(), CausalBand(0, 1))
    cfg = PgdConfig(theta0=default_initial_point(2, 1, 10, 0, 1), t0=t0, max_steps=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="loss became non-finite at step 0"):
            violina_fit(data, spec, cfg)


def test_nan_data_raises(rng):
    states = rng.normal(size=(2, 6))
    states[0, 3] = np.nan
    data = Dataset([Trajectory(states, rng.normal(size=(1, 5)))], 0, 5)
    spec = ConstraintSpec(FullSpace(), FullSpace(), CausalBand(0, 1))
    cfg = PgdConfig(theta0=default_initial_point(2, 1, 5, 0, 1), max_steps=3)
    with pytest.raises(SolverError):
        violina_fit(data, spec, cfg)


def test_config_validation(rng):
    theta0 = default_initial_point(2, 1, 5, 0, 1)
    with pytest.raises(ValueError):
        PgdConfig(theta0=theta0, t0=0.0)
    with pytest.raises(ValueError):
        PgdConfig(theta0=theta0, eta=1.0)
    with pytest.raises(ValueError):
        PgdConfig(theta0=theta0, max_steps=0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="initial stepsize"):
            PgdConfig(theta0=theta0, t0=bad)
        with pytest.raises(ValueError, match="backtracking divisor"):
            PgdConfig(theta0=theta0, eta=bad)
    for bad in (np.nan, np.inf, -1e-9):
        with pytest.raises(ValueError, match="stopping tolerance"):
            PgdConfig(theta0=theta0, stop_tol=bad)
    PgdConfig(theta0=theta0, stop_tol=0.0)


@pytest.mark.parametrize("value", [10.0, 10.5, True, "10", None])
def test_config_refuses_a_max_steps_that_is_not_an_integer(value):
    """A float or a bool step count is refused at construction, naming the
    field, not by ``range`` after the data pass; a numpy integer counts."""
    theta0 = default_initial_point(2, 1, 5, 0, 1)
    with pytest.raises(ValueError, match="^max_steps must be an integer"):
        PgdConfig(theta0=theta0, max_steps=value)
    assert PgdConfig(theta0=theta0, max_steps=np.int64(10)).max_steps == 10


def test_fixed_kernel_is_a_read_only_copy(rng):
    """A fitted model's ``Fixed`` kernel cannot be edited in place, and the
    caller's array, which stays writable, is not the set's value."""
    n, k, m, q = 3, 2, 12, 1
    data = simulated_dataset(rng, random_stable_model(rng, n=n, k=k, m=m, q=q, Q=3), m)
    D = fractional_kernel(0.5, m)
    before = D.copy()
    spec = ConstraintSpec(FullSpace(), FullSpace(), Fixed(D))
    cfg = PgdConfig(theta0=default_initial_point(n, k, m, q, 3), max_steps=2)
    fitted = violina_fit(data, spec, cfg).theta_final.kernel
    with pytest.raises(ValueError, match="read-only"):
        fitted[0, 0] = 2.0
    D[0, 0] = 2.0
    assert spec.on_D.value.tobytes() == before.tobytes()
    assert violina_fit(data, spec, cfg).theta_final.kernel.tobytes() == before.tobytes()


def test_start_kernel_equal_to_the_fixed_one_does_not_move(rng, monkeypatch):
    """A start kernel equal to the ``Fixed`` kernel, but not the set's own
    copy, is not moved: the engine carries no ``J`` block, and the fit is
    bitwise the one from the copy itself."""
    n, k, m, q = 3, 2, 12, 1
    data = simulated_dataset(rng, random_stable_model(rng, n=n, k=k, m=m, q=q, Q=3), m, N=3)
    D = fractional_kernel(0.5, m)
    spec = ConstraintSpec(FullSpace(), FullSpace(), Fixed(D))
    A0, B0 = np.eye(n), np.zeros((n, k))
    weights = []

    class Engine(pgd._StartRelativeLoss):
        def __init__(self, *args):
            super().__init__(*args)
            weights.append(self.nz)

    monkeypatch.setattr(pgd, "_StartRelativeLoss", Engine)
    fits = [violina_fit(data, spec, PgdConfig(theta0=StateSpaceModel(A0, B0, D0), max_steps=30))
            for D0 in (spec.on_D.value, D, D.copy())]
    assert weights == [0, 0, 0]
    for first, *rest in zip(*[(r.loss_curve, r.stepsizes, r.theta_final.A, r.theta_final.B)
                              for r in fits]):
        assert all(first.tobytes() == other.tobytes() for other in rest)


@pytest.mark.parametrize("value, shape", [([[1.0]], (1, 1)), (0.0, ())], ids=["list", "scalar"])
def test_fixed_value_not_an_array_is_shape_checked(rng, value, shape):
    """A ``Fixed`` value given as a list or a number is held as a float
    array, so a fit whose ``A`` it does not fit raises ``ValueError`` naming
    both shapes, and a 3 x 3 list projects to a float array."""
    n, k, m, q = 3, 2, 12, 1
    data = simulated_dataset(rng, random_stable_model(rng, n=n, k=k, m=m, q=q, Q=3), m)
    spec = ConstraintSpec(Fixed(value), FullSpace(), CausalBand(q, 3))
    cfg = PgdConfig(theta0=default_initial_point(n, k, m, q, 3), max_steps=2)
    with pytest.raises(ValueError, match=rf"^fixed constraint of shape {re.escape(str(shape))} "
                                         rf"bound to input of shape \(3, 3\)$"):
        violina_fit(data, spec, cfg)
    listed = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    out = Fixed(listed).project(np.zeros((3, 3)))
    assert isinstance(out, np.ndarray) and out.dtype == float
    assert np.array_equal(out, np.diag([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("field, args", [("n", (2.0, 1, 5, 1, 2)), ("k", (2, 1.0, 5, 1, 2)),
                                         ("m", (2, 1, 5.0, 1, 2)), ("q", (2, 1, 5, True, 2)),
                                         ("Q", (2, 1, 5, 1, np.float64(2.0)))])
def test_default_initial_point_refuses_a_size_that_is_not_an_integer(field, args):
    """A float or a bool size is refused naming the field, not by a
    ``TypeError`` from ``np.eye`` or the kernel; numpy integers count."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        default_initial_point(*args)
    theta = default_initial_point(*map(np.int64, (2, 1, 5, 1, 2)))
    assert theta.kernel == default_initial_point(2, 1, 5, 1, 2).kernel
