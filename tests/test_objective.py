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
    PgdConfig,
    StateSpaceModel,
    TangentTuple,
    Trajectory,
    build_benchmark_suite,
    dmdc_fit,
    dmdc_rank_scan,
    fixed_d_hessian,
    fractional_kernel,
    gradient,
    hessian_apply,
    lipschitz_constant,
    loss,
    perturbed,
    uniqueness_certificate,
    violina_fit,
)
from violina.kernel import band_offset_counts
from violina.objective import _restricted_hessian_extremes, _StartRelativeLoss
from conftest import ReadOnce, longer_trajectories, random_dataset, random_stable_model, random_theta, simulated_dataset
from oracles import (
    exact_lipschitz,
    LiteralEngine,
    finite_difference_gradient,
    gram_blocks,
    literal_lipschitz,
    literal_loss,
    literal_stacks,
    literal_smoothness_bound,
    literal_theta,
    restricted_hessian,
    stacked_rank,
)


def random_tangent(rng, data):
    return TangentTuple(
        rng.normal(size=(data.n, data.n)),
        rng.normal(size=(data.n, data.k)),
        rng.normal(size=(data.m, data.m)),
    )


def test_loss_hand_computed_scalar_case():
    # states (1, 2, 4, 8), zero input: doubling map has zero loss, identity
    # map leaves residuals (1, 2, 4)
    traj = Trajectory(np.array([[1.0, 2.0, 4.0, 8.0]]), np.zeros((1, 3)))
    data = Dataset([traj], 0, 3)
    kern = CausalBandKernel(3, 0, 1)
    assert loss(StateSpaceModel([[2.0]], [[0.0]], kern), data) == pytest.approx(0.0, abs=1e-18)
    theta = StateSpaceModel([[1.0]], [[0.0]], kern)
    assert loss(theta, data) == pytest.approx(21.0, rel=1e-14)
    assert literal_loss(theta, data) == pytest.approx(21.0, rel=1e-14)


def test_loss_zero_parameters_is_shift_energy(rng):
    data = random_dataset(rng, n=3, k=2, m=7, q=2, N=2)
    theta = StateSpaceModel(
        np.zeros((3, 3)), np.zeros((3, 2)), CausalBandKernel.identity(7, 2, 3)
    )
    expected = sum(float(np.sum(mat.Y ** 2)) for mat in data.matrices)
    assert loss(theta, data) == pytest.approx(expected, rel=1e-14)


def test_loss_zero_on_exact_model_data(rng):
    model = random_stable_model(rng, n=3, k=2, m=10, q=1, Q=3)
    data = simulated_dataset(rng, model, 10, N=2)
    assert loss(model, data) <= 1e-18 * (1 + max(np.max(t.states ** 2) for t in data.trajectories))


def test_loss_matches_literal_oracle(rng):
    data = random_dataset(rng, n=2, k=2, m=6, q=1, N=3)
    theta = random_theta(rng, n=2, k=2, m=6, q=1, Q=3)
    assert loss(theta, data) == pytest.approx(literal_loss(theta, data), rel=1e-13)


def test_gradient_zero_at_exact_model(rng):
    model = random_stable_model(rng, n=2, k=1, m=8, q=1, Q=2)
    data = simulated_dataset(rng, model, 8, N=2)
    g = gradient(model, data)
    for block in (g.dA, g.dB, g.dD):
        assert np.max(np.abs(block)) <= 1e-12


def test_gradient_matches_finite_differences(rng):
    for _ in range(5):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(0, 2))
        m = int(rng.integers(q + 3, 9))
        N = int(rng.integers(1, 3))
        Q = int(rng.integers(max(q, 1), q + 3))
        data = random_dataset(rng, n=n, k=k, m=m, q=q, N=N)
        theta = random_theta(rng, n=n, k=k, m=m, q=q, Q=Q)
        g = gradient(theta, data)
        fd = finite_difference_gradient(theta, data)
        scale = max(g.norm(), 1.0)
        assert abs(g.dA - fd.dA).max() <= 1e-6 * scale
        assert abs(g.dB - fd.dB).max() <= 1e-6 * scale
        assert abs(g.dD - fd.dD).max() <= 1e-6 * scale


def test_gradient_doubles_with_duplicated_trajectories(rng):
    data = random_dataset(rng, n=2, k=1, m=6, q=0, N=1)
    doubled = Dataset(data.trajectories * 2, 0, 6)
    theta = random_theta(rng, n=2, k=1, m=6, q=0, Q=2)
    g1, g2 = gradient(theta, data), gradient(theta, doubled)
    np.testing.assert_array_equal(g2.dA, 2.0 * g1.dA)
    np.testing.assert_array_equal(g2.dD, 2.0 * g1.dD)


def test_hessian_linear_and_zero_on_zero(rng):
    data = random_dataset(rng)
    zero = TangentTuple(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((8, 8)))
    out = hessian_apply(zero, data)
    assert out.norm() == 0.0


def test_hessian_quadratic_form_nonnegative(rng):
    data = random_dataset(rng)
    for _ in range(20):
        delta = random_tangent(rng, data)
        assert delta.inner(hessian_apply(delta, data)) >= -1e-12


def test_hessian_equals_gradient_difference(rng):
    data = random_dataset(rng, n=3, k=2, m=7, q=1, N=2)
    theta = random_theta(rng, n=3, k=2, m=7, q=1, Q=2)
    delta = random_tangent(rng, data)
    g0 = gradient(theta, data)
    g1 = gradient(perturbed(theta, delta), data)
    Hd = hessian_apply(delta, data)
    diff = TangentTuple(g1.dA - g0.dA - Hd.dA, g1.dB - g0.dB - Hd.dB,
                        g1.dD - g0.dD - Hd.dD)
    assert diff.norm() <= 1e-10 * max(1.0, Hd.norm())


def test_quadratic_expansion_is_exact(rng):
    data = random_dataset(rng, n=2, k=2, m=6, q=0, N=2)
    theta = random_theta(rng, n=2, k=2, m=6, q=0, Q=2)
    for _ in range(5):
        delta = random_tangent(rng, data)
        f0 = loss(theta, data)
        f1 = loss(perturbed(theta, delta), data)
        model = f0 + gradient(theta, data).inner(delta) \
            + 0.5 * delta.inner(hessian_apply(delta, data))
        assert f1 == pytest.approx(model, rel=1e-9)


def test_midpoint_convexity(rng):
    data = random_dataset(rng, n=2, k=1, m=6, q=1, N=2)
    for _ in range(20):
        t1 = random_theta(rng, n=2, k=1, m=6, q=1, Q=2)
        t2 = random_theta(rng, n=2, k=1, m=6, q=1, Q=2)
        mid = StateSpaceModel(
            0.5 * (t1.A + t2.A), 0.5 * (t1.B + t2.B),
            0.5 * (t1.kernel.to_dense() + t2.kernel.to_dense()),
        )
        f_mid = loss(mid, data)
        bound = 0.5 * (loss(t1, data) + loss(t2, data))
        assert f_mid <= bound + 1e-10 * (1 + abs(bound))


def test_additivity_over_trajectories(rng):
    d1 = random_dataset(rng, n=2, k=1, m=6, q=1, N=1)
    d2 = random_dataset(rng, n=2, k=1, m=6, q=1, N=1)
    joint = Dataset(d1.trajectories + d2.trajectories, 1, 6)
    theta = random_theta(rng, n=2, k=1, m=6, q=1, Q=2)
    assert loss(theta, joint) == loss(theta, d1) + loss(theta, d2)
    gj, g1, g2 = gradient(theta, joint), gradient(theta, d1), gradient(theta, d2)
    np.testing.assert_array_equal(gj.dA, g1.dA + g2.dA)
    np.testing.assert_array_equal(gj.dD, g1.dD + g2.dD)


@pytest.mark.parametrize("field, q, m", [("q", 1.5, 6), ("m", 0, 6.9), ("q", True, 6),
                                         ("m", 0, np.float64(6.0))])
def test_dataset_refuses_a_size_that_is_not_an_integer(rng, field, q, m):
    """A float or a bool ``q`` or ``m`` is refused, naming the field, not
    rounded down to an integer; numpy integers count."""
    trajs = random_dataset(rng, q=0, m=6).trajectories
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        Dataset(trajs, q, m)
    data = Dataset(trajs, np.int64(1), np.int32(6))
    assert (type(data.q), type(data.m), data.q, data.m) == (int, int, 1, 6)


def test_lipschitz_zero_dataset():
    traj = Trajectory(np.zeros((2, 5)), np.zeros((1, 4)))
    assert lipschitz_constant(Dataset([traj], 0, 4)) == 0.0


def test_lipschitz_duplicate_matches_recomputation_oracle(rng):
    data = random_dataset(rng, n=2, k=2, m=6, q=0, N=1)
    doubled = Dataset(data.trajectories * 2, 0, 6)
    L1 = lipschitz_constant(data)
    L2 = lipschitz_constant(doubled)
    assert L1 == pytest.approx(literal_smoothness_bound(data), rel=1e-12)
    assert L2 == pytest.approx(literal_smoothness_bound(doubled), rel=1e-12)
    # both Gram matrices double, so the bound doubles
    assert L2 == pytest.approx(2.0 * L1, rel=1e-12)
    # the printed formula sums squared norms, so it grows by sqrt(2)
    assert literal_lipschitz(doubled) == pytest.approx(
        np.sqrt(2.0) * literal_lipschitz(data), rel=1e-12)


def test_lipschitz_bounds_exact_constant_within_factor_two(rng):
    for n, k, m, q, N in [(1, 1, 3, 0, 1), (2, 1, 5, 1, 2), (3, 2, 6, 1, 3), (2, 3, 4, 2, 2)]:
        data = random_dataset(rng, n=n, k=k, m=m, q=q, N=N)
        exact = exact_lipschitz(data)
        L = lipschitz_constant(data)
        assert exact <= L * (1.0 + 1e-12)
        assert L <= 2.0 * exact * (1.0 + 1e-12)


def test_lipschitz_readme_scalar_instance():
    # X = U = Y = [1]: the exact constant is 6, the printed formula 2*sqrt(3)
    data = Dataset([Trajectory(np.ones((1, 2)), np.ones((1, 1)))], 0, 1)
    assert exact_lipschitz(data) == pytest.approx(6.0, rel=1e-12)
    assert lipschitz_constant(data) == pytest.approx(6.0, rel=1e-12)
    assert literal_lipschitz(data) == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)


def test_lipschitz_printed_constant_underestimates_gradient_variation(rng):
    # The printed smoothness constant 2*max(rho_X, rho_U, rho_Y) is NOT an
    # upper bound for ||grad f(t2) - grad f(t1)|| / ||t2 - t1|| in general:
    # its derivation drops the cross terms of the residual difference.  This
    # test pins the measured behavior of the printed formula on a fixed seed
    # so a silent change of it is caught in either direction (ratios around
    # 1.2 here, up to ~2 on other seeds).
    worst = 0.0
    for _ in range(5):
        data = random_dataset(rng, n=3, k=2, m=7, q=1, N=2)
        L = literal_lipschitz(data)
        for _ in range(20):
            t1 = random_theta(rng, n=3, k=2, m=7, q=1, Q=2)
            t2 = random_theta(rng, n=3, k=2, m=7, q=1, Q=2)
            g1, g2 = gradient(t1, data), gradient(t2, data)
            diff = TangentTuple(g2.dA - g1.dA, g2.dB - g1.dB, g2.dD - g1.dD)
            dA = t2.A - t1.A
            dB = t2.B - t1.B
            dD = t2.kernel.to_dense() - t1.kernel.to_dense()
            dist = np.sqrt(np.sum(dA**2) + np.sum(dB**2) + np.sum(dD**2))
            worst = max(worst, diff.norm() / (L * dist))
    assert 1.0 < worst <= 2.5


def test_fixed_d_hessian_structure(rng):
    traj = Trajectory(np.zeros((2, 7)), np.zeros((1, 6)))
    assert np.array_equal(fixed_d_hessian(Dataset([traj], 0, 6)), np.zeros((3, 3)))
    data = random_dataset(rng, n=2, k=1, m=6, q=1, N=1)
    mat = data.matrices[0]
    Z = np.vstack([mat.X, mat.U])
    np.testing.assert_array_equal(fixed_d_hessian(data), Z @ Z.T)
    eigs = np.linalg.eigvalsh(fixed_d_hessian(random_dataset(rng, N=3)))
    assert eigs[0] >= -1e-10


def test_uniqueness_short_single_trajectory_is_degenerate(rng):
    # m < n + k: rank condition must fail and the Hessian is singular
    n, k, m = 3, 2, 4
    traj = Trajectory(rng.normal(size=(n, m + 1)), rng.normal(size=(k, m)))
    report = uniqueness_certificate(Dataset([traj], 0, m), mode="fixed_d")
    assert not report.rank_condition
    assert not report.positive_definite
    assert report.smallest_eigenvalue <= 1e-8


def test_uniqueness_rich_data_has_full_rank(rng):
    n, k, m = 2, 2, 2 + 2 + 5
    data = random_dataset(rng, n=n, k=k, m=m, q=0, N=1)
    report = uniqueness_certificate(data, mode="fixed_d")
    assert report.rank_condition
    assert report.positive_definite


def test_uniqueness_zero_dataset_eigenvalue_zero():
    traj = Trajectory(np.zeros((2, 6)), np.zeros((1, 5)))
    report = uniqueness_certificate(Dataset([traj], 0, 5), mode="fixed_d")
    assert report.smallest_eigenvalue == 0.0
    assert not report.positive_definite


@pytest.mark.parametrize("n, k, m, q, Q, N", [
    (2, 1, 9, 1, 3, 2),   # q > 0, rich data
    (2, 1, 9, 0, 1, 2),   # Q = 1: no band directions
    (1, 2, 8, 0, 4, 1),   # n < Q - 1
    (3, 2, 7, 2, 3, 1),   # q > 0, short data: singular
    (2, 2, 10, 3, 5, 3),  # q > 0, n < Q - 1
], ids=["q1-Q3", "q0-Q1", "n1-Q4", "q2-Q3-singular", "q3-Q5"])
def test_uniqueness_full_mode_matches_restricted_hessian_oracle(rng, n, k, m, q, Q, N):
    data = random_dataset(rng, n=n, k=k, m=m, q=q, N=N)
    report = uniqueness_certificate(data, mode="full", Q=Q)
    eigs = np.linalg.eigvalsh(restricted_hessian(data, q, Q))
    assert abs(report.smallest_eigenvalue - eigs[0]) <= 1e-10 * eigs[-1]
    assert report.positive_definite == (eigs[0] > 1e-10 * max(1.0, eigs[-1]))


def test_uniqueness_full_mode_at_desk_scale_is_singular():
    train = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1)).nonmarkov.train
    report = uniqueness_certificate(train, mode="full")
    assert not report.positive_definite
    assert abs(report.smallest_eigenvalue) <= 1e-10 * lipschitz_constant(train)


@pytest.mark.parametrize("instance", [
    (3, 2, 8, 1, 2), (2, 1, 9, 1, 2), (2, 1, 9, 0, 2), (1, 2, 8, 0, 1), (3, 2, 7, 2, 1),
    (2, 2, 10, 3, 3), (3, 2, 4, 0, 1), (2, 2, 9, 0, 1), (2, 1, 6, 1, 1), (3, 2, 8, 1, 3),
    (4, 3, 12, 2, 2), (2, 1, 5, 0, 1), "duplicated-row", "desk",
], ids=str)
def test_uniqueness_fixed_d_is_full_mode_at_Q1(rng, instance):
    # (n, k, m, q, N) of random_dataset, a rank-deficient instance, the desk train set
    if instance == "desk":
        data = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1)).nonmarkov.train
    elif instance == "duplicated-row":
        states = rng.normal(size=(3, 9))
        states[2] = states[0]
        data = Dataset([Trajectory(states, rng.normal(size=(2, 8)))], 0, 8)
    else:
        n, k, m, q, N = instance
        data = random_dataset(rng, n=n, k=k, m=m, q=q, N=N)
    report = uniqueness_certificate(data, mode="fixed_d")
    assert report == uniqueness_certificate(data, mode="full", Q=1)
    smallest, largest, rank = _restricted_hessian_extremes(data, data.q, 1)
    assert smallest == report.smallest_eigenvalue
    eigs = 2.0 * np.linalg.eigvalsh(fixed_d_hessian(data))
    assert abs(smallest - eigs[0]) <= 1e-10 * eigs[-1]
    assert abs(largest - eigs[-1]) <= 1e-10 * eigs[-1]
    assert rank == stacked_rank(data)
    full_rank = stacked_rank(data) == data.n + data.k
    assert report.rank_condition == full_rank
    assert uniqueness_certificate(data, mode="full").rank_condition == full_rank
    if instance == "duplicated-row":
        assert not full_rank


def test_band_offset_counts():
    np.testing.assert_array_equal(band_offset_counts(6, 2, 4), [4.0, 4.0, 3.0])
    assert band_offset_counts(6, 0, 1).shape == (0,)
    for q, Q in ((0, 0), (0, 7), (6, 6)):
        with pytest.raises(ValueError):
            band_offset_counts(6, q, Q)


def test_uniqueness_fixed_d_rejects_a_bandwidth(rng):
    data = random_dataset(rng, n=2, k=1, m=5, q=0, N=1)
    with pytest.raises(ValueError, match="fixed_d.*Q=3"):
        uniqueness_certificate(data, mode="fixed_d", Q=3)
    assert uniqueness_certificate(data, "fixed_d", Q=1) == uniqueness_certificate(data)


def test_uniqueness_full_mode_rejects_bad_bandwidth(rng):
    data = random_dataset(rng, n=2, k=1, m=5, q=0, N=1)
    for Q in (0, 6):
        with pytest.raises(ValueError):
            uniqueness_certificate(data, mode="full", Q=Q)


def test_dataset_validation(rng):
    with pytest.raises(ValueError):
        Dataset([], 0, 4)
    t1 = Trajectory(rng.normal(size=(2, 5)), rng.normal(size=(1, 4)))
    t2 = Trajectory(rng.normal(size=(3, 5)), rng.normal(size=(1, 4)))
    with pytest.raises(ValueError):
        Dataset([t1, t2], 0, 4)
    with pytest.raises(ValueError):
        Dataset([t1], 0, 5)  # m exceeds the trajectory length
    longer = Trajectory(rng.normal(size=(2, 7)), rng.normal(size=(1, 6)))
    with pytest.raises(ValueError, match="trajectory 1 has 5 states but m=5 needs 6"):
        Dataset([longer, t1], 0, 5)
    for q in (-1, 4):
        with pytest.raises(ValueError, match=f"need 0 <= q < m, got q={q}, m=4"):
            Dataset([t1], q, 4)


def test_loss_shape_mismatch_raises(rng):
    data = random_dataset(rng, n=3, k=2, m=8, q=1, N=1)
    with pytest.raises(ValueError):
        loss(random_theta(rng, n=2, k=2, m=8, q=1), data)
    with pytest.raises(ValueError):
        loss(random_theta(rng, n=3, k=2, m=7, q=1), data)


def test_dataset_json_round_trip(rng):
    data = random_dataset(rng, n=2, k=1, m=5, q=1, N=2)
    back = Dataset.from_dict(data.to_dict())
    assert back.q == data.q and back.m == data.m and back.size == data.size
    np.testing.assert_array_equal(back.trajectories[0].states, data.trajectories[0].states)


ENGINE_CASES = pytest.mark.parametrize(
    "q, Q, dense_start, k", [(1, 3, False, 2), (1, 3, True, 2), (0, 1, False, 2), (1, 3, False, 5)],
    ids=["band-start", "dense-start", "Q1", "k-gt-n"])


def random_engine(rng, q, Q, dense_start, k):
    """An engine and its factor-form oracle on random data, with the ``J``
    block of a start outside the band when ``dense_start``, the number of
    data columns, and two random points ``(P, z)``, ``P = [A0 - A, B0 -
    B]``, with negative kernel weights."""
    n, m = 3, 8
    data = random_dataset(rng, n, k, m, q)
    theta0 = random_theta(rng, n, k, m, q, Q)
    kernel_after = None
    if dense_start:
        theta0 = StateSpaceModel(theta0.A, theta0.B, rng.normal(size=(m, m)))
        kernel_after = CausalBand(q, Q).project(theta0.kernel)
    engine = _StartRelativeLoss(data, theta0, q, Q, kernel_after)
    literal = LiteralEngine(data, theta0, q, Q, kernel_after)
    assert engine.nz == literal.nz == Q - 1 + dense_start
    points = [(rng.normal(size=(n, n + k)), -0.5 - rng.random(engine.nz)) for _ in range(2)]
    return engine, literal, data.size * m, points


@ENGINE_CASES
def test_engine_gradient_matches_literal(rng, q, Q, dense_start, k):
    # The Gram blocks and the factor R differ from the exact sum W W^T by
    # the rounding of a length-M sum and of a backward-stable QR, each within
    # (M + r) eps ||W_i|| ||W_j|| for rows i, j of the stacked W (M columns,
    # r rows), and the products over them add as much again: each entry of
    # G = [gA, gB] lies within 2 (M + r) eps (|Theta| w w^T) of the dense
    # -2 Theta R^T R, w the row norms, and each gz_i within that bound
    # summed over the diagonal of its kernel block.
    engine, literal, M, points = random_engine(rng, q, Q, dense_start, k)
    w = literal.row_norms
    eps = np.finfo(float).eps
    n, nk = points[0][0].shape
    for point in points:
        G, gz = engine.gradient(*point)
        lG, lz = literal.gradient(literal.residual(*point))
        assert G.shape == lG.shape == (n, nk)
        assert gz.shape == lz.shape == (engine.nz,)
        bound = 2.0 * (M + len(w)) * eps * np.outer(np.abs(literal_theta(*point)) @ w, w)
        assert np.all(np.abs(G - lG) <= bound[:, :nk])
        blocks = bound[:, nk : nk + engine.nz * n].reshape(n, engine.nz, n)
        assert np.all(np.abs(gz - lz) <= np.trace(blocks, axis1=0, axis2=2))


def test_engine_reads_each_trajectory_once(rng):
    # the start residual and the Gram blocks share one read of each trajectory
    data = random_dataset(rng, N=3)
    trajectories = data.trajectories
    data.trajectories = ReadOnce(trajectories)
    _StartRelativeLoss(data, random_theta(rng, Q=3), 1, 3, None)
    assert list(map(id, data.trajectories.taken)) == list(map(id, trajectories))


def _fit(data, theta):
    spec = ConstraintSpec(FullSpace(), FullSpace(), CausalBand(1, 2))
    return violina_fit(data, spec, PgdConfig(theta0=theta, max_steps=2))


@pytest.mark.parametrize("read", [
    _fit,
    lambda data, theta: dmdc_fit(data, 1),
    lambda data, theta: dmdc_rank_scan(data, 0),
    lambda data, theta: dmdc_rank_scan(data, 2),
    lambda data, theta: dmdc_rank_scan(data, None),
    lambda data, theta: loss(theta, data),
    lambda data, theta: gradient(theta, data),
    lambda data, theta: fixed_d_hessian(data),
    lambda data, theta: lipschitz_constant(data),
    lambda data, theta: uniqueness_certificate(data, "fixed_d"),
    lambda data, theta: uniqueness_certificate(data, "full"),
], ids=["violina_fit", "dmdc_fit", "scan-fit-0", "scan-fit-2", "scan-pooled", "loss",
        "gradient", "fixed_d_hessian", "lipschitz_constant", "certificate-fixed_d",
        "certificate-full"])
def test_each_reader_takes_each_trajectory_once_in_order(rng, read):
    # so each of them runs on a one-pass stream such as the CLI's
    data = random_dataset(rng, N=3)
    trajectories = data.trajectories
    data.trajectories = ReadOnce(trajectories)
    read(data, random_theta(rng))
    assert list(map(id, data.trajectories.taken)) == list(map(id, trajectories))


# The input rows each trajectory drives (k = 5): none, every row, and sets
# that differ from one trajectory to the next.
MIXED = [(0, 3), (), range(5), (1, 2, 4)]


def driven_dataset(rng, n, k, m, q, driven):
    """Trajectory ``i`` has normal inputs in rows ``driven[i]`` inside the
    window, columns ``q .. m-1``, and zeros in the other rows there; every
    row is nonzero before column ``q``, which drives nothing."""
    trajs = []
    for rows in driven:
        inputs = np.zeros((k, m))
        inputs[:, :q] = rng.normal(size=(k, q))
        inputs[list(rows), q:] = rng.normal(size=(len(rows), m - q))
        trajs.append(Trajectory(rng.normal(size=(n, m + 1)), inputs))
    return Dataset(trajs, q, m)


GRAM_CASES = pytest.mark.parametrize(
    "data_q, q, Q, start, k, driven",
    [(1, 1, 3, "band", 2, None), (1, 1, 3, "dense", 2, None), (0, 0, 1, "band", 2, None),
     (1, 1, 3, "band", 5, None), (1, 0, 1, "fixed", 2, None), (0, 2, 4, "band", 2, None),
     (1, 1, 3, "band", 5, MIXED), (1, 3, 4, "band", 5, MIXED), (2, 1, 3, "band", 5, MIXED),
     (1, 0, 1, "band", 5, MIXED), (1, 1, 2, "dense", 5, MIXED), (1, 1, 3, "fixed", 5, MIXED),
     (1, 1, 3, "band", 5, [()] * 2), (1, 1, 3, "band", 5, "longer")],
    ids=["band-start", "dense-start", "Q1", "k-gt-n", "fixed", "band-q-differs",
         "driven-rows-differ", "driven-band-q-above-p", "driven-band-q-below-p", "driven-Q1",
         "driven-dense-start", "driven-fixed", "nothing-driven", "longer-than-m"])


@GRAM_CASES
def test_engine_blocks_match_the_whole_gram_matrix(rng, data_q, q, Q, start, k, driven):
    # The engine sums only the blocks it keeps, over the input rows each
    # trajectory drives, the oracle slices W W^T.  Each entry of either is a
    # sum of the same p products in another order, so each lies within
    # (p + N) eps sum |a b| of the exact sum: p = M products of two rows of
    # the stacked W for G_PP and C, bounded by the product of their norms
    # w_i w_j, and p = n M for an entry of S, bounded by the sum of w_i w_j
    # over the rows of its two n-row blocks.  When Q > 1 the first band
    # block of C is X Z^T less the products of the columns S_1 Y lacks, so
    # its rows are bounded by the norms of X's rows, which are no smaller.
    # The initial loss is the same residual-form sum, bit for bit.
    n, m = 3, 8
    if driven is None:
        data = random_dataset(rng, n, k, m, data_q, 2)
    elif driven == "longer":
        data = Dataset(longer_trajectories(rng, n, k, m, (3, 6)), data_q, m)
    else:
        data = driven_dataset(rng, n, k, m, data_q, driven)
    theta0 = random_theta(rng, n, k, m, data_q, data_q + 2)
    kernel_after = None
    if start == "dense":
        theta0 = StateSpaceModel(theta0.A, theta0.B, rng.normal(size=(m, m)))
        kernel_after = CausalBand(q, Q).project(theta0.kernel)
    elif start == "fixed":
        kernel_after = Fixed(fractional_kernel(0.5, m)).project(theta0.kernel)
    engine = _StartRelativeLoss(data, theta0, q, Q, kernel_after)
    G_PP, C, S, f0, w = gram_blocks(data, theta0, q, Q, kernel_after)
    nk, l, N, eps = n + k, engine.nz + 1, len(data.trajectories), np.finfo(float).eps
    M = N * m
    assert engine.nz == Q - 1 + (start != "band")
    bound = 2.0 * (M + N) * eps * np.outer(w, w)
    assert np.all(np.abs(-0.5 * engine._G_PP - G_PP) <= bound[:nk, :nk])
    w_C = np.concatenate([w[:n] if Q > 1 else w[nk : nk + n], w[nk + n :]])
    bound_C = 2.0 * (M + N) * eps * np.outer(w_C, w[:nk])
    assert np.all(np.abs(-0.5 * engine._C.reshape(l * n, nk) - C) <= bound_C)
    blocks = w[nk:].reshape(l, n)
    trace_bound = 2.0 * (n * M + N) * eps * blocks @ blocks.T
    assert np.all(np.abs(0.5 * engine._S - S) <= trace_bound)
    assert engine.initial_loss == f0


def test_driven_stacks_hold_the_inputs_nonzero_in_the_window(rng):
    """A row counts as driven when it is nonzero, or not finite, inside the
    window; the packed ``[X; U_r]`` holds the values of the data matrices."""
    from violina.objective import _stacks

    n, k, m, q = 3, 5, 8, 2
    data = driven_dataset(rng, n, k, m, q, MIXED)
    data.trajectories[1].inputs[3, -1] = np.nan
    data.trajectories[1].inputs[4, q] = -np.inf
    expected = [(0, 3), (3, 4), range(5), (1, 2, 4)]
    taken = [(W[: n + len(r)].copy(), r.copy()) for W, _, r in _stacks(data, q, 2, driven=True)]
    for (Z, r), rows, (mat, _) in zip(taken, expected, literal_stacks(data, q, 1)):
        assert list(r) == list(rows)
        assert np.array_equal(Z, np.vstack([mat.X, mat.U[list(rows)]]), equal_nan=True)
    with np.errstate(invalid="ignore"):
        engine = _StartRelativeLoss(data, random_theta(rng, n, k, m, q, 2), q, 2, None)
    # the row is summed against X's, so no fit starts from finite blocks
    assert np.isnan(engine._G_PP[n + 3, [*range(n), n + 3]]).all()
    assert np.isnan(engine.initial_loss)


def test_driven_stacks_skip_inputs_after_the_window(rng):
    """Trajectories longer than ``m`` are cut to it: an input row nonzero
    only after column ``m - 1`` counts as undriven."""
    from violina.objective import _stacks

    n, k, m, q = 3, 5, 8, 1
    data = Dataset(longer_trajectories(rng, n, k, m, (3, 6)), q, m)
    taken = [(W[: n + len(r)].copy(), r.copy()) for W, _, r in _stacks(data, q, 1, driven=True)]
    for (Z, r), (mat, _) in zip(taken, literal_stacks(data, q, 1), strict=True):
        assert list(r) == [1, 2, 3, 4]
        assert np.array_equal(Z, np.vstack([mat.X, mat.U[1:]]))


@pytest.mark.parametrize("name", ["markov", "nonmarkov"])
def test_stacks_have_the_parents_bits_on_the_desk_train_set(name, monkeypatch):
    """One writer owns the stack: ``fixed_d_hessian`` is bitwise the
    engine's ``G_PP`` block, and the certificates are bitwise the ones
    reduced from stacks built from ``build_data_matrices``."""
    from violina import objective

    train = getattr(build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1)), name).train
    q, Q = train.q, train.q + 1
    engine = _StartRelativeLoss(train, random_theta(np.random.default_rng(0), train.n, train.k,
                                                    train.m, q, Q), q, Q, None)
    assert fixed_d_hessian(train).tobytes() == (-0.5 * engine._G_PP).tobytes()
    reports = [uniqueness_certificate(train, mode) for mode in ("fixed_d", "full")]
    monkeypatch.setattr(objective, "_stacks", lambda data, q, Q: (
        (W, mat.Y) for mat, W in literal_stacks(data, q, Q)))
    assert reports == [uniqueness_certificate(train, mode) for mode in ("fixed_d", "full")]


def _engine_peak(traj, copies):
    """Traced peak of building the engine on ``copies`` of one desk
    trajectory, above what the dataset (one shared trajectory) holds."""
    import tracemalloc

    from violina.pgd import default_initial_point

    cfg = BenchmarkConfig.desk_scale()
    data = Dataset([traj] * copies, cfg.q, cfg.m)
    theta0 = default_initial_point(data.n, data.k, data.m, data.q, cfg.Q)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _StartRelativeLoss(data, theta0, cfg.q, cfg.Q, None)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_engine_memory_does_not_grow_with_the_trajectories():
    # each trajectory's matrices, start residual and stack are dropped before
    # the next one's are built
    traj = build_benchmark_suite(BenchmarkConfig.desk_scale()).nonmarkov.train.trajectories[0]
    few, many = _engine_peak(traj, 5), _engine_peak(traj, 20)
    assert many <= 1.25 * few


def test_uniqueness_certificate_refuses_an_unknown_mode(rng):
    with pytest.raises(ValueError, match="^unknown mode 'exact', expected 'fixed_d' or 'full'$"):
        uniqueness_certificate(random_dataset(rng), mode="exact")


@pytest.mark.parametrize("mode, Q", [("full", 1.5), ("full", True), ("fixed_d", True),
                                     ("fixed_d", 1.0), ("full", np.float64(2.0))])
def test_uniqueness_certificate_refuses_a_bandwidth_that_is_not_an_integer(rng, mode, Q):
    """A float or a bool ``Q`` is refused naming the field, in either mode:
    ``True`` does not run as ``Q = 1``; numpy integers count."""
    data = random_dataset(rng, n=2, k=1, m=5, q=0, N=1)
    with pytest.raises(ValueError, match="^Q must be an integer"):
        uniqueness_certificate(data, mode=mode, Q=Q)
    same = uniqueness_certificate(data, "full", Q=np.int64(2))
    assert same == uniqueness_certificate(data, "full", Q=2)
