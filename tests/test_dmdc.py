import numpy as np
import pytest

from violina import (
    BenchmarkConfig,
    CausalBandKernel,
    Dataset,
    StateSpaceModel,
    Trajectory,
    build_benchmark_suite,
    dmdc_fit,
    dmdc_rank_scan,
    uniqueness_certificate,
)
from conftest import random_stable_model, simulated_dataset
from oracles import attainable_rank, literal_rank_scan


def test_exact_recovery_at_full_rank(rng):
    n, k, m = 3, 2, 20
    truth = random_stable_model(rng, n=n, k=k, m=m, q=0, Q=1)
    data = simulated_dataset(rng, truth, m, N=1, zero_initial=False)
    A, B = dmdc_fit(data, n + k)
    assert np.max(np.abs(A - truth.A)) <= 1e-8 * max(1, np.max(np.abs(truth.A)))
    assert np.max(np.abs(B - truth.B)) <= 1e-8 * max(1, np.max(np.abs(truth.B)))


def test_fit_refuses_an_empty_choice_of_trajectories(rng):
    truth = random_stable_model(rng, n=3, k=2, m=20, q=0, Q=1)
    data = simulated_dataset(rng, truth, 20, N=2)
    for indices in ([], (), np.zeros(0, dtype=int)):
        with pytest.raises(ValueError, match="no trajectory chosen to fit"):
            dmdc_fit(data, 1, indices)


@pytest.mark.parametrize("indices", [[True], [1.0], [0, np.float64(1.0)]])
def test_fit_refuses_a_position_that_is_not_an_integer(rng, indices):
    """A bool or a float position is refused, naming it, not taken as the
    trajectory it compares equal to; numpy integers count."""
    truth = random_stable_model(rng, n=3, k=2, m=20, q=0, Q=1)
    data = simulated_dataset(rng, truth, 20, N=2)
    with pytest.raises(ValueError, match=rf"^indices\[{len(indices) - 1}\] must be an integer"):
        dmdc_fit(data, 1, indices)
    for numpy_int, python_int in zip(dmdc_fit(data, 2, [np.int64(1)]), dmdc_fit(data, 2, [1])):
        assert numpy_int.tobytes() == python_int.tobytes()


@pytest.mark.parametrize("fit_index", [True, 1.0, np.float64(0.0)])
def test_rank_scan_refuses_a_fit_index_that_is_not_an_integer(rng, fit_index):
    truth = random_stable_model(rng, n=3, k=2, m=20, q=0, Q=1)
    data = simulated_dataset(rng, truth, 20, N=2)
    with pytest.raises(ValueError, match="^fit_index must be an integer"):
        dmdc_rank_scan(data, fit_index=fit_index)
    numpy_int, python_int = (dmdc_rank_scan(data, fit_index=i) for i in (np.int64(1), 1))
    assert numpy_int.errors == python_int.errors
    assert numpy_int.A.tobytes() == python_int.A.tobytes()


def test_zero_targets_give_zero_model(rng):
    states = np.zeros((2, 7))
    states[:, 0] = 0.0
    inputs = rng.normal(size=(1, 6))
    data = Dataset([Trajectory(states, inputs)], 0, 6)
    A, B = dmdc_fit(data, 1)
    assert np.max(np.abs(A)) <= 1e-14
    assert np.max(np.abs(B)) <= 1e-14


def test_full_rank_equals_pseudoinverse(rng):
    data = simulated_dataset(rng, random_stable_model(rng, n=2, k=2, m=15, q=0, Q=1),
                             15, N=2, zero_initial=False)
    A, B = dmdc_fit(data, 4)
    X = np.hstack([mat.X for mat in data.matrices])
    Y = np.hstack([mat.Y for mat in data.matrices])
    U = np.hstack([mat.U for mat in data.matrices])
    target = Y @ np.linalg.pinv(np.vstack([X, U]))
    np.testing.assert_allclose(np.hstack([A, B]), target, atol=1e-10)


def test_rank_above_numerical_rank_errors(rng):
    # duplicated state rows leave [X; U] rank deficient
    base = rng.normal(size=(1, 9))
    states = np.vstack([base, base])
    inputs = rng.normal(size=(1, 8))
    data = Dataset([Trajectory(states, inputs)], 0, 8)
    assert attainable_rank(data) == 2
    with pytest.raises(ValueError, match="attainable rank is 2"):
        dmdc_fit(data, 3)
    A, B = dmdc_fit(data, 2)  # reduced rank still returns a solution
    assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))


def test_rank_scan_recovers_markovian_dimension(rng):
    n, k, m = 3, 2, 25
    truth = random_stable_model(rng, n=n, k=k, m=m, q=0, Q=1)
    trajs = [
        truth.simulate(rng.normal(size=(n, 1)), rng.normal(size=(k, m)))
        for _ in range(3)
    ]
    train = Dataset(trajs, 0, m)
    scan = dmdc_rank_scan(train, fit_index=0)
    assert scan.best_rank == n + k
    assert scan.errors[scan.best_rank - 1] <= 1e-6
    assert all(scan.errors[scan.best_rank - 1] < e
               for i, e in enumerate(scan.errors) if i != scan.best_rank - 1)


def test_rank_scan_single_feasible_rank(rng):
    # rank-one data: only one candidate
    x = rng.normal(size=(2, 1))
    states = np.hstack([x * (0.5 ** t) for t in range(7)])
    inputs = np.zeros((1, 6))
    data = Dataset([Trajectory(states, inputs)], 0, 6)
    scan = dmdc_rank_scan(data)
    assert scan.ranks == (1,)
    assert scan.best_rank == 1


def test_rank_scan_records_whole_curve(rng):
    truth = random_stable_model(rng, n=2, k=1, m=12, q=0, Q=1)
    train = simulated_dataset(rng, truth, 12, N=2, zero_initial=False)
    scan = dmdc_rank_scan(train, fit_index=None)
    assert len(scan.errors) == len(scan.ranks) == attainable_rank(train)


def _fit_indices(fit_index):
    """The ``dmdc_fit`` indices of a scan's ``fit_index`` (``None``: pooled)."""
    return None if fit_index is None else [fit_index]


def test_pooled_scan_is_fit_index_none():
    """``fit_index=None`` is the pooled scan: one SVD of every trajectory and
    all of them scored in one group, bit for bit, with ``dmdc_fit``'s
    pooled ``(A, B)`` at the best rank."""
    import violina.dmdc as dmdc

    suite = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1))
    for train in (suite.markov.train, suite.nonmarkov.train):
        trajs = train.trajectories
        svd = dmdc._StackSvd(trajs, train.m)
        pooled = dmdc._RankErrors(svd, train.m, group_size=len(trajs))
        for traj in trajs:
            pooled.hold(traj)
        errors = tuple(pooled.means())
        scan = dmdc_rank_scan(train, fit_index=None)
        assert scan.ranks == tuple(range(1, svd.rank + 1))
        assert scan.errors == errors
        assert scan.best_rank == int(np.argmin(errors)) + 1
        A, B = dmdc_fit(train, scan.best_rank)
        np.testing.assert_array_equal(scan.A, A)
        np.testing.assert_array_equal(scan.B, B)


def assert_scan_matches_oracle(train, fit_index=0):
    """The scan against the full-state oracle: ranks, best rank and ``(A, B)``
    exactly; every error within ``100 eps (s_1 / s_r) (1 + e_r)``, the rounding
    the rank-``r`` conditioning allows."""
    scan = dmdc_rank_scan(train, fit_index=fit_index)
    ranks, errors, s = literal_rank_scan(train, fit_index=fit_index)
    assert scan.ranks == ranks
    assert scan.best_rank == ranks[int(np.argmin(errors))]
    A, B = dmdc_fit(train, scan.best_rank, _fit_indices(fit_index))
    np.testing.assert_array_equal(scan.A, A)
    np.testing.assert_array_equal(scan.B, B)
    e = np.asarray(errors)
    bound = 100 * np.finfo(float).eps * (s[0] / s[np.asarray(ranks) - 1]) * (1 + e)
    gap = np.abs(np.asarray(scan.errors) - e)
    assert np.all(gap <= bound), (gap / bound).max()
    return scan, errors


def test_rank_scan_matches_separate_fits_on_desk_suite(monkeypatch):
    suite = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1))
    for system in (suite.markov, suite.nonmarkov):
        for fit_index in (0, None):
            scan, _ = assert_scan_matches_oracle(system.train, fit_index)
            assert scan.ranks == tuple(range(1, attainable_rank(
                system.train, _fit_indices(fit_index)) + 1))

    def no_simulate(*args):
        raise AssertionError("the scan simulates no full-state model")
    monkeypatch.setattr(StateSpaceModel, "simulate", no_simulate)
    assert dmdc_rank_scan(suite.nonmarkov.train, fit_index=None).best_rank == scan.best_rank


@pytest.mark.parametrize("where", ["middle", "last"])
def test_rank_scan_matches_oracle_with_later_fit_index(where):
    """The trajectories before ``fit_index`` wait for its SVD, then are scored
    in dataset order like the ones after it."""
    suite = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1))
    for system in (suite.markov, suite.nonmarkov):
        later = system.train.size // 2 if where == "middle" else system.train.size - 1
        for fit_index in (later, None):
            scan, _ = assert_scan_matches_oracle(system.train, fit_index)
            assert scan.ranks == tuple(range(1, attainable_rank(
                system.train, _fit_indices(fit_index)) + 1))


def test_rank_scan_chunks_its_ranks(rng):
    """One trajectory with ``k > n`` attains rank ``p = n + k = 44``.  The
    scan's traced peak stays within 10 times the trajectory's arrays (3.7
    was seen), since it holds one rank's ``m / 8 x r`` buffer at a time:
    every rank's ``m x r`` states held at once would alone be about 22
    times them, and an ``m x p x p`` state buffer 44 times."""
    import tracemalloc

    n, k, m = 4, 40, 200
    truth = random_stable_model(rng, n=n, k=k, m=m, q=0, Q=1)
    train = simulated_dataset(rng, truth, m, N=1, zero_initial=False)
    traj = train.trajectories[0]
    scan, _ = assert_scan_matches_oracle(train)  # also makes the first-call allocations
    assert scan.ranks[-1] == n + k
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dmdc_rank_scan(train)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10 * (traj.states.nbytes + traj.inputs.nbytes), peak


def _zero_trajectory_dataset(rng):
    truth = random_stable_model(rng, n=3, k=2, m=20, q=0, Q=1)
    data = simulated_dataset(rng, truth, 20, N=2, zero_initial=False)
    zero = Trajectory(np.zeros((3, 21)), np.zeros((2, 20)))
    return Dataset([*data.trajectories, zero], 0, 20)


def _wide_input_dataset(rng):  # k > n: ranks above n
    truth = random_stable_model(rng, n=2, k=4, m=15, q=0, Q=1)
    return simulated_dataset(rng, truth, 15, N=3, zero_initial=False)


def _lagged_dataset(rng):  # q > 0: the scan still pairs single steps
    truth = random_stable_model(rng, n=3, k=2, m=25, q=2, Q=3, coeff_scale=0.2)
    return simulated_dataset(rng, truth, 25, N=3, zero_initial=False)


@pytest.mark.parametrize("make", [_zero_trajectory_dataset, _wide_input_dataset,
                                  _lagged_dataset], ids=["zero-trajectory", "k>n", "q>0"])
@pytest.mark.parametrize("fit_index", [0, None], ids=["single", "pooled"])
def test_rank_scan_matches_oracle_on_small_cases(rng, make, fit_index):
    train = make(rng)
    scan, errors = assert_scan_matches_oracle(train, fit_index)
    if make is _wide_input_dataset:
        assert scan.ranks[-1] > train.n
    if make is _lagged_dataset:
        assert scan.errors == dmdc_rank_scan(Dataset(train.trajectories, 0, train.m),
                                             fit_index).errors
    if make is _zero_trajectory_dataset and fit_index == 0:  # the zero one adds error 0.0
        single = Dataset(train.trajectories[:2], 0, train.m)
        _, single_errors = assert_scan_matches_oracle(single, fit_index)
        assert errors == tuple(e * 2 / 3 for e in single_errors)


@pytest.mark.parametrize("size", [1, 2, None], ids=["groups-of-1", "groups-of-2", "one-group"])
def test_rank_scan_groups_match_oracle(rng, monkeypatch, size):
    """The scan scores reduced trajectories a group at a time; groups of 1,
    2 and all trajectories give the oracle's ranks, best rank, ``(A, B)``
    and errors, on the desk suites and with ``p > n`` (a square ``Q``), and
    a zero trajectory still adds exactly 0.  The pooled scan holds every
    trajectory for its SVD, so it scores them in one group."""
    import violina.dmdc as dmdc

    sizes = []
    add = dmdc._RankErrors.add

    def counted(self):
        sizes.append(len(self.group))
        add(self)
    monkeypatch.setattr(dmdc._RankErrors, "add", counted)
    monkeypatch.setattr(dmdc, "_group_size", lambda *shape: size or 10 ** 9)
    suite = build_benchmark_suite(BenchmarkConfig.desk_scale(seed=1))
    wide = _wide_input_dataset(rng)
    for train in (suite.markov.train, suite.nonmarkov.train, wide):
        for fit_index in (0, None):
            sizes.clear()
            assert_scan_matches_oracle(train, fit_index)
            N = train.size
            assert sizes == ([size] * (N // size) + [N % size] * (N % size > 0)
                             if size and fit_index == 0 else [N])
    assert dmdc_rank_scan(wide).ranks[-1] > wide.n
    zero = _zero_trajectory_dataset(rng)
    _, errors = assert_scan_matches_oracle(zero)
    _, single_errors = assert_scan_matches_oracle(Dataset(zero.trajectories[:2], 0, zero.m))
    assert errors == tuple(e * 2 / 3 for e in single_errors)


def test_markovian_pairing_used_even_for_lagged_datasets(rng):
    # same trajectories, different dataset q: DMDc must not depend on q
    truth = random_stable_model(rng, n=2, k=1, m=12, q=0, Q=1)
    trajs = [
        truth.simulate(rng.normal(size=(2, 1)), rng.normal(size=(1, 12)))
        for _ in range(2)
    ]
    d0 = Dataset(trajs, 0, 12)
    d2 = Dataset(trajs, 2, 12)
    A0, B0 = dmdc_fit(d0, 3)
    A2, B2 = dmdc_fit(d2, 3)
    np.testing.assert_array_equal(A0, A2)
    np.testing.assert_array_equal(B0, B2)


def test_uniqueness_linkage_with_rank_deficiency(rng):
    # when the certificate reports deficiency, full-rank DMDc must refuse
    n, k, m = 3, 2, 4
    traj = Trajectory(rng.normal(size=(n, m + 1)), rng.normal(size=(k, m)))
    data = Dataset([traj], 0, m)
    report = uniqueness_certificate(data, mode="fixed_d")
    assert not report.rank_condition
    with pytest.raises(ValueError):
        dmdc_fit(data, n + k)
    # at the attainable rank the minimum-norm solution matches the pinv
    r = attainable_rank(data)
    A, B = dmdc_fit(data, r)
    mat = data.matrices[0]
    target = mat.Y @ np.linalg.pinv(np.vstack([mat.X, mat.U]))
    np.testing.assert_allclose(np.hstack([A, B]), target, atol=1e-9)
