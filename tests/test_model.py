import numpy as np
import pytest

from violina import (
    CausalBandKernel,
    StateSpaceModel,
    Trajectory,
    arx_offset,
    build_data_matrices,
    fractional_kernel,
    relative_error,
)
from conftest import longer_trajectories, random_stable_model, simulated_dataset
from oracles import column_simulate, hankel_companion, literal_matrices, literal_simulate


def dense_recursion_residual(model, traj, q, m):
    """Dense-matrix oracle for the ARX recursion, built with literal loops.

    ``[x_0 .. x_m] @ G == A X + B U`` where ``G`` is the (m+1) x m Toeplitz
    slab ``G[s, j] = c_{j+1-s}`` on columns ``j >= q``; it extends the kernel
    by one leading row so the memory of the very first state is represented.
    Holds exactly for every admissible initial value.
    """
    mats = build_data_matrices(traj, q, m)
    coeffs = (1.0,) + model.kernel.coeffs
    G = np.zeros((m + 1, m))
    for s in range(m + 1):
        for j in range(q, m):
            d = j + 1 - s
            if 0 <= d < len(coeffs):
                G[s, j] = coeffs[d]
    return traj.states @ G - (model.A @ mats.X + model.B @ mats.U)


def test_simulate_identity_dynamics():
    model = StateSpaceModel([[1.0]], [[0.0]], CausalBandKernel(6, 0, 1))
    traj = model.simulate(np.array([[1.0]]), np.zeros((1, 5)) + 7.0)
    assert np.array_equal(traj.states, np.ones((1, 6)))


def test_simulate_zero_data_stays_zero(rng):
    model = random_stable_model(rng, n=3, k=2, m=9, q=2, Q=3)
    traj = model.simulate(np.zeros((3, 3)), np.zeros((2, 9)))
    assert np.array_equal(traj.states, np.zeros((3, 10)))


def test_simulate_hand_recursion_with_memory():
    # q=1, Q=2, c1=0.1, A=0.5, B=1, x0=0, x1=1, u=1:
    #   x2 = 0.5*1 - 0.1*1 + 1 = 1.4
    #   x3 = 0.5*1.4 - 0.1*1.4 + 1 = 1.56
    #   x4 = 0.4*1.56 + 1 = 1.624
    model = StateSpaceModel([[0.5]], [[1.0]], CausalBandKernel(4, 1, 2, (0.1,)))
    traj = model.simulate(np.array([[0.0, 1.0]]), np.ones((1, 4)))
    np.testing.assert_allclose(traj.states[0], [0.0, 1.0, 1.4, 1.56, 1.624], atol=1e-15)
    # independent dense oracle on the produced trajectory
    res = dense_recursion_residual(model, traj, 1, 4)
    assert np.max(np.abs(res)) <= 1e-12


def test_simulate_identity_oracle_any_initial_values(rng):
    for _ in range(10):
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        q = int(rng.integers(0, 3))
        Q = int(rng.integers(max(q, 1), q + 3))
        m = int(rng.integers(q + 3, q + 12))
        model = random_stable_model(rng, n=n, k=k, m=m, q=q, Q=Q, coeff_scale=0.2)
        traj = model.simulate(rng.normal(size=(n, q + 1)), rng.normal(size=(k, m)))
        res = dense_recursion_residual(model, traj, q, m)
        assert np.max(np.abs(res)) <= 1e-10 * (1 + np.max(np.abs(traj.states)))


def test_round_trip_zeroed_identity_for_zero_initial_values(rng):
    # with zero initial values the zero-padded data matrices satisfy the
    # model identity exactly, for any bandwidth
    for _ in range(8):
        q = int(rng.integers(0, 3))
        Q = int(rng.integers(max(q, 1), q + 3))
        m = int(rng.integers(q + 3, q + 12))
        model = random_stable_model(rng, n=2, k=2, m=m, q=q, Q=Q, coeff_scale=0.2)
        data = simulated_dataset(rng, model, m, N=1, zero_initial=True)
        mats = data.matrices[0]
        D = model.kernel.to_dense()
        res = mats.Y @ D - (model.A @ mats.X + model.B @ mats.U)
        scale = 1 + np.max(np.abs(mats.Y))
        assert np.max(np.abs(res)) <= 1e-10 * scale


def test_round_trip_zeroed_identity_memoryless_any_initial(rng):
    # Q = 1 has no memory reaching the initial block: арbitrary initial works
    model = random_stable_model(rng, n=3, k=2, m=10, q=0, Q=1)
    traj = model.simulate(rng.normal(size=(3, 1)), rng.normal(size=(2, 10)))
    mats = build_data_matrices(traj, 0, 10)
    res = mats.Y @ model.kernel.to_dense() - (model.A @ mats.X + model.B @ mats.U)
    assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize("q, Q, zero_coeff", [(0, 1, None), (1, 3, None), (0, 3, None),
                                             (2, 4, None), (2, 4, 1)],
                         ids=["q0Q1", "q1Q3", "q0Q3", "q2Q4", "q2Q4-c2=0"])
@pytest.mark.parametrize("zero_start", [True, False], ids=["zero-start", "random-start"])
def test_simulate_matches_literal_oracle(rng, q, Q, zero_coeff, zero_start):
    n, m = 3, 14
    model = random_stable_model(rng, n=n, k=2, m=m, q=q, Q=Q, coeff_scale=0.3)
    if zero_coeff is not None:
        coeffs = list(model.kernel.coeffs)
        coeffs[zero_coeff] = 0.0
        model = StateSpaceModel(model.A, model.B, CausalBandKernel(m, q, Q, tuple(coeffs)))
    initial = np.zeros((n, q + 1)) if zero_start else rng.normal(size=(n, q + 1))
    inputs = rng.normal(size=(2, m))
    states = model.simulate(initial, inputs).states
    expect = literal_simulate(model, initial, inputs)
    assert states.flags.c_contiguous
    # a dense B sums B u in a batched product, so agreement is to float64 rounding
    assert np.max(np.abs(states - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))
    # with at most one nonzero per row of B the two orders give the same bits
    diag = StateSpaceModel(model.A, np.diag(rng.normal(size=n)), model.kernel)
    inputs = rng.normal(size=(n, m))
    assert np.array_equal(diag.simulate(initial, inputs).states,
                          literal_simulate(diag, initial, inputs))


@pytest.mark.parametrize("q, Q", [(q, Q) for q in range(3) for Q in range(max(q, 1), 5)])
def test_simulate_matches_column_oracle_with_dense_b(rng, q, Q):
    """A dense ``B`` makes ``B U``'s bits depend on the layout of the product,
    so the time-major recursion must keep the column loop's bits exactly,
    for inputs that own their data and for column slices of wider ones."""
    n, m = 100, 120
    model = random_stable_model(rng, n=n, k=n, m=m, q=q, Q=Q, coeff_scale=0.1)
    initial = rng.normal(size=(n, q + 1))
    wide = rng.normal(size=(n, 2 * m + 3))
    for inputs in (rng.normal(size=(n, m)), wide[:, 3 : m + 3], wide[:, 1::2][:, :m]):
        states = model.simulate(initial, inputs).states
        assert states.flags.c_contiguous
        assert np.array_equal(states, column_simulate(model, initial, inputs))


@pytest.mark.parametrize("preset", ["desk_scale", "paper_scale"])
def test_simulate_matches_column_oracle_on_ground_truths(rng, preset):
    from violina import BenchmarkConfig
    from violina.synth import suite_models

    cfg = getattr(BenchmarkConfig, preset)()
    _, *models = suite_models(cfg)
    for model in models:
        initial = rng.normal(size=(model.n, model.kernel.q + 1))
        inputs = rng.normal(size=(model.k, cfg.m))
        assert np.array_equal(model.simulate(initial, inputs).states,
                              column_simulate(model, initial, inputs))


@pytest.mark.parametrize("N", [1, 2, 3, 5])
@pytest.mark.parametrize("q, Q", [(q, Q) for q in range(3) for Q in range(max(q, 1), 5)])
def test_simulate_many_matches_column_oracle(rng, N, q, Q):
    """Each trajectory of the lockstep recursion has the bits of the
    column-major loop run on it alone: a dense ``B``, each trajectory its
    own initial states, inputs that own their data or are column slices of
    wider arrays, and the memory with and without a zero coefficient."""
    n, m = 30, 50
    model = random_stable_model(rng, n=n, k=n, m=m, q=q, Q=Q, coeff_scale=0.1)
    models = [model]
    if Q > 1:
        coeffs = (0.0, *model.kernel.coeffs[1:])
        models.append(StateSpaceModel(model.A, model.B, CausalBandKernel(m, q, Q, coeffs)))
    initial = [rng.normal(size=(n, q + 1)) for _ in range(N)]
    inputs = []
    for i in range(N):
        wide = rng.normal(size=(n, 2 * m + 3))
        inputs.append((wide[:, :m].copy(), wide[:, 3 : m + 3], wide[:, 1::2][:, :m])[i % 3])
    for model in models:
        trajs = model.simulate_many(initial, inputs)
        assert len(trajs) == N
        for x0, u, traj in zip(initial, inputs, trajs):
            assert traj.states.flags.c_contiguous
            assert np.array_equal(traj.states, column_simulate(model, x0, u))
            assert np.array_equal(traj.inputs, u)


def test_simulate_many_names_the_faulty_trajectory():
    model = StateSpaceModel([[0.5]], [[1.0]], CausalBandKernel(4, 1, 2, (0.1,)))
    x0, u = np.zeros((1, 2)), np.ones((1, 4))
    with pytest.raises(ValueError, match=r"^trajectory 2: expected 1x2 initial states"):
        model.simulate_many([x0, x0, np.zeros((1, 1))], [u] * 3)
    with pytest.raises(ValueError, match=r"^trajectory 1: expected 1-row inputs"):
        model.simulate_many([x0] * 2, [u, np.ones((2, 4))])
    with pytest.raises(ValueError,
                       match=r"^trajectory 1: 5 inputs, but the first trajectory has 4$"):
        model.simulate_many([x0] * 3, [u, np.ones((1, 5)), u])
    with pytest.raises(ValueError, match=r"^need at least q\+1=2 inputs, got 1$"):
        model.simulate_many([x0], [np.ones((1, 1))])  # one pair: no index
    with pytest.raises(ValueError, match=r"^got 2 initial states and 1 inputs$"):
        model.simulate_many([x0] * 2, [u])
    assert model.simulate_many([], []) == []


def test_simulate_shape_errors():
    model = StateSpaceModel([[0.5]], [[1.0]], CausalBandKernel(4, 1, 2, (0.1,)))
    with pytest.raises(ValueError, match=r"^expected 1x2 initial states"):
        model.simulate(np.zeros((1, 1)), np.ones((1, 4)))  # needs q+1 = 2 columns
    with pytest.raises(ValueError, match=r"^expected 1-row inputs, got shape \(2, 4\)$"):
        model.simulate(np.zeros((1, 2)), np.ones((2, 4)))  # wrong input rows
    with pytest.raises(ValueError, match=r"^need at least q\+1=2 inputs, got 1$"):
        model.simulate(np.zeros((1, 2)), np.ones((1, 1)))  # too few inputs


def test_build_data_matrices_markovian_pairing(rng):
    traj = Trajectory(rng.normal(size=(2, 6)), rng.normal(size=(1, 5)))
    mats = build_data_matrices(traj, 0, 5)
    assert np.array_equal(mats.X, traj.states[:, :5])
    assert np.array_equal(mats.Y, traj.states[:, 1:6])
    assert np.array_equal(mats.U, traj.inputs)


def test_build_data_matrices_zero_padding(rng):
    traj = Trajectory(rng.normal(size=(2, 5)), rng.normal(size=(1, 4)))
    mats = build_data_matrices(traj, 2, 4)
    assert np.array_equal(mats.X[:, :2], np.zeros((2, 2)))
    assert np.array_equal(mats.X[:, 2:], traj.states[:, 2:4])
    assert np.array_equal(mats.Y[:, 2:], traj.states[:, 3:5])
    assert np.array_equal(mats.U[:, :2], np.zeros((1, 2)))


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("longer", [False, True], ids=["length-m", "longer"])
def test_build_data_matrices_equals_the_literal_windows(rng, q, longer):
    """The views of the stack writer hold the bits of three zero-padded
    slices of the trajectory, also when it is longer than ``m``."""
    n, k, m = 3, 2, 6
    if longer:
        trajs = longer_trajectories(rng, n, k, m, (3, 5))
    else:
        trajs = [Trajectory(rng.normal(size=(n, m + 1)), rng.normal(size=(k, m)))]
    for traj in trajs:
        got, want = build_data_matrices(traj, q, m), literal_matrices(traj, q, m)
        for name in ("X", "Y", "U"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name


def test_build_data_matrices_length_error(rng):
    traj = Trajectory(rng.normal(size=(2, 5)), rng.normal(size=(1, 4)))
    with pytest.raises(ValueError):
        build_data_matrices(traj, 1, 5)


@pytest.mark.parametrize("q, m, name", [(1.0, 10, "q"), (True, 10, "q"), (1, 9.5, "m"),
                                         (0, np.float64(5.0), "m")])
def test_build_data_matrices_refuses_an_argument_that_is_not_an_integer(rng, q, m, name):
    """A float or a bool ``q`` or ``m`` is refused naming it: ``True`` does not
    run as ``q = 1``; numpy integers count."""
    traj = Trajectory(rng.normal(size=(2, 11)), rng.normal(size=(1, 10)))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        build_data_matrices(traj, q, m)
    same = build_data_matrices(traj, np.int64(1), np.int32(10))
    assert np.array_equal(same.X, build_data_matrices(traj, 1, 10).X)


def test_hankel_companion_no_memory_is_plain_pair(rng):
    model = random_stable_model(rng, n=3, k=2, m=8, q=0, Q=1)
    sA, sB = hankel_companion(model)
    assert np.array_equal(sA, model.A)
    assert np.array_equal(sB, model.B)


def test_hankel_companion_scalar_two_band():
    # the memory term shares lag one with A, so the oldest stack entry is
    # never referenced: bottom row (0, a - c1), not (-c1, a - c1)
    a, c1 = 0.7, 0.2
    model = StateSpaceModel([[a]], [[1.0]], CausalBandKernel(6, 0, 2, (c1,)))
    sA, _ = hankel_companion(model)
    np.testing.assert_allclose(sA, [[0.0, 1.0], [0.0, a - c1]])


def test_hankel_companion_three_band_blocks():
    a, c1, c2 = 0.6, 0.2, -0.1
    model = StateSpaceModel([[a]], [[1.0]], CausalBandKernel(8, 0, 3, (c1, c2)))
    sA, sB = hankel_companion(model)
    np.testing.assert_allclose(sA, [[0, 1, 0], [0, 0, 1], [0, -c2, a - c1]])
    np.testing.assert_allclose(sB, [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]])


def test_hankel_iteration_matches_simulate(rng):
    for _ in range(6):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 3))
        q = int(rng.integers(0, 3))
        Q = int(rng.integers(max(q, 1), 5))
        if Q < q:
            Q = q
        m = int(rng.integers(q + Q + 2, 30))
        model = random_stable_model(rng, n=n, k=k, m=m, q=q, Q=Q, coeff_scale=0.1)
        traj = model.simulate(rng.normal(size=(n, q + 1)), rng.normal(size=(k, m)))
        sA, sB = hankel_companion(model)
        # warm start: stack [x_t, ..., x_{t+Q-1}] at t = q + 1 (all entries
        # already produced by the recursion, so the stack is consistent)
        t0 = q + 1
        if t0 + Q - 1 > m:
            continue
        z = traj.states[:, t0 : t0 + Q].T.reshape(-1)
        for t in range(t0 + 1, m - Q + 2):
            u = traj.inputs[:, t - 1 : t + Q - 1].T.reshape(-1)
            z = sA @ z + sB @ u
            np.testing.assert_allclose(
                z, traj.states[:, t : t + Q].T.reshape(-1),
                atol=1e-10 * (1 + np.max(np.abs(traj.states))),
            )


def test_markovian_specialization_direct_loop(rng):
    model = random_stable_model(rng, n=3, k=2, m=12, q=0, Q=1)
    x0 = rng.normal(size=(3, 1))
    U = rng.normal(size=(2, 12))
    traj = model.simulate(x0, U)
    x = x0[:, 0]
    for t in range(12):
        x = model.A @ x + model.B @ U[:, t]
        np.testing.assert_allclose(traj.states[:, t + 1], x, atol=1e-13)


def test_arx_offset_no_nullity_is_zero(rng):
    model = random_stable_model(rng, n=2, k=1, m=6, q=0, Q=2)
    lam = arx_offset(model, rng.normal(size=(2, 1)), 6)
    assert np.array_equal(lam, np.zeros((2, 6)))


def test_arx_offset_zero_initial_is_zero(rng):
    model = random_stable_model(rng, n=2, k=1, m=6, q=2, Q=3)
    lam = arx_offset(model, np.zeros((2, 3)), 6)
    assert np.array_equal(lam, np.zeros((2, 6)))


@pytest.mark.parametrize("q,Q,m", [(1, 2, 4), (2, 3, 7), (3, 4, 9)])
def test_arx_offset_annihilates_kernel(rng, q, Q, m):
    model = random_stable_model(rng, n=2, k=1, m=m, q=q, Q=Q, coeff_scale=0.4)
    initial = rng.normal(size=(2, q + 1))
    lam = arx_offset(model, initial, m)
    D = CausalBandKernel(m, q, Q, model.kernel.coeffs).to_dense()
    assert np.max(np.abs(lam @ D)) <= 1e-10 * (1 + np.max(np.abs(lam)))


def test_relative_error_basic():
    truth = np.array([[1.0, 2.0, 2.0]])
    assert relative_error(np.zeros((1, 3)), truth, first=1) == 1.0
    assert relative_error(truth, truth) == 0.0


def test_model_json_round_trip(rng):
    model = random_stable_model(rng, n=2, k=2, m=5, q=1, Q=2)
    back = StateSpaceModel.from_dict(model.to_dict())
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.B, model.B)
    assert back.kernel == model.kernel
    traj = model.simulate(rng.normal(size=(2, 2)), rng.normal(size=(2, 5)))
    back_traj = Trajectory.from_dict(traj.to_dict())
    assert np.array_equal(back_traj.states, traj.states)
    assert np.array_equal(back_traj.inputs, traj.inputs)


@pytest.mark.parametrize("members, message", [
    ({"n": 7}, r"^'n' is 7, but A has 2 rows$"),
    ({"k": 3}, r"^'k' is 3, but B has 1 columns$"),
    ({"n": 2, "k": 0}, r"^'k' is 0, but B has 1 columns$"),
    ({"n": 2.0}, r"^'n' must be an integer, got 2\.0$"),
    ({"k": True}, r"^'k' must be an integer, got True$"),
], ids=["n", "k", "k-after-a-good-n", "float-n", "bool-k"])
def test_model_file_sizes_must_match_its_arrays(rng, members, message):
    """A model file's ``n`` and ``k``, when present, are checked against
    ``A``'s rows and ``B``'s columns; a file without them reads as before."""
    d = random_stable_model(rng, n=2, k=1, m=5, q=1, Q=2).to_dict()
    with pytest.raises(ValueError, match=message):
        StateSpaceModel.from_dict({**d, **members})
    bare = StateSpaceModel.from_dict({key: d[key] for key in ("A", "B", "kernel")})
    assert (bare.n, bare.k) == (2, 1)


def test_dense_kernel_model_round_trips_bit_for_bit(rng):
    """A model with a dense kernel writes it as ``kernel_dense`` and reads
    back, through ``json``, with every bit of ``A``, ``B`` and the kernel."""
    import json

    model = StateSpaceModel(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)),
                            fractional_kernel(0.5, 6) + np.array(5e-324))
    d = model.to_dict()
    assert "kernel_dense" in d and "kernel" not in d
    back = StateSpaceModel.from_dict(json.loads(json.dumps(d)))
    for a, b in ((back.A, model.A), (back.B, model.B), (back.kernel, model.kernel)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("use, run", [
    ("simulation", lambda model: model.simulate(np.zeros((3, 1)), np.zeros((2, 6)))),
    ("the ARX-like offset", lambda model: arx_offset(model, np.zeros((3, 1)), 6)),
], ids=["simulate", "arx_offset"])
def test_dense_kernel_model_refuses_the_recursion(rng, use, run):
    """The ARX recursion needs a band kernel: ``simulate`` and
    ``arx_offset`` on a dense-kernel model raise ``TypeError`` naming the
    use."""
    model = StateSpaceModel(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)), np.eye(6))
    with pytest.raises(TypeError, match=f"^{use} needs a band kernel"):
        run(model)


def test_one_dimensional_initial_state_simulates_as_one_column(rng):
    """Without nullity the one initial state may be given 1-D, and the
    trajectory is the one from that state as an ``n x 1`` column."""
    model = random_stable_model(rng, n=3, k=2, m=6, q=0, Q=3)
    x0, u = rng.normal(size=3), rng.normal(size=(2, 6))
    flat, column = model.simulate(x0, u), model.simulate(x0[:, None], u)
    assert flat.states.tobytes() == column.states.tobytes()
    assert np.array_equal(flat.states[:, 0], x0)


def test_trajectory_arrays_must_be_2d():
    with pytest.raises(ValueError, match="^states and inputs must be 2-D arrays$"):
        Trajectory(np.zeros(3), np.zeros((1, 2)))


@pytest.mark.parametrize("A, B, kernel, message", [
    (np.zeros((2, 3)), np.zeros((2, 1)), np.eye(4), r"^A must be square, got shape \(2, 3\)$"),
    (np.eye(2), np.zeros((3, 1)), np.eye(4), r"^B must have 2 rows, got shape \(3, 1\)$"),
    (np.eye(2), np.zeros((2, 1)), np.zeros((2, 3)),
     r"^dense kernel must be square, got shape \(2, 3\)$"),
], ids=["A", "B", "kernel"])
def test_model_checks_its_shapes(A, B, kernel, message):
    with pytest.raises(ValueError, match=message):
        StateSpaceModel(A, B, kernel)


def test_build_data_matrices_needs_q_below_m(rng):
    traj = Trajectory(rng.normal(size=(2, 4)), rng.normal(size=(1, 3)))
    with pytest.raises(ValueError, match=r"^need 0 <= q < m, got q=3, m=3$"):
        build_data_matrices(traj, 3, 3)


def test_arx_offset_needs_m_above_q(rng):
    model = random_stable_model(rng, n=2, k=1, m=6, q=2, Q=3)
    with pytest.raises(ValueError, match=r"^need m > q, got m=2, q=2$"):
        arx_offset(model, np.zeros((2, 3)), 2)
