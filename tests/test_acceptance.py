"""Acceptance suite: one test per criterion at its stated tolerance.

Each test prints a `[PASS]`/`[FAIL]` line (visible with ``pytest -v -s`` or
``-rA``).  Criterion 3 checks the library's smoothness constant against
sampled gradient variations; the formula as printed underestimates the true
value, so the library returns a provable bound instead (see README, "Known
limitations").
"""

import json
import time

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
    StateSpaceModel,
    SymmetricMaskedNonneg,
    TangentTuple,
    Trajectory,
    build_benchmark_suite,
    default_initial_point,
    dmdc_rank_scan,
    energy,
    energy_deviation,
    fractional_kernel,
    fractional_toeplitz,
    gradient,
    hessian_apply,
    lipschitz_constant,
    loss,
    partial_identity,
    perturbed,
    project_nonneg_diagonal,
    project_shifted_laplacian,
    project_symmetric_masked_nonneg,
    project_to_band,
    relative_error,
    uniqueness_certificate,
    violina_fit,
)
from violina.cli import main as cli_main
from violina.dmdc import as_model, dmdc_fit
from conftest import random_dataset, random_theta, random_stable_model, simulated_dataset
from oracles import (
    finite_difference_gradient,
    lstsq_band_projection,
    qp_graph_laplacian,
    qp_nonneg_diagonal,
    qp_symmetric_masked_nonneg,
)


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_instance(rng):
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    q = int(rng.integers(0, 3))
    m = int(rng.integers(q + 3, 11))
    N = int(rng.integers(1, 4))
    Q = int(rng.integers(max(q, 1), min(m, q + 3) + 1))
    return random_dataset(rng, n=n, k=k, m=m, q=q, N=N), \
        random_theta(rng, n=n, k=k, m=m, q=q, Q=Q)


# ------------------------------------------------------- shared benchmark

DESK = dict(n=30, m=200, q=2, Q=3, p=2000, t0=0.3, eta=1.05, seed=42)


@pytest.fixture(scope="module")
def desk_bench():
    """Desk-scale suite plus the fitted models shared by criteria 7-9."""
    t_start = time.perf_counter()
    suite = build_benchmark_suite(
        BenchmarkConfig.desk_scale(seed=DESK["seed"])
    )
    build_time = time.perf_counter() - t_start
    mask = suite.grid.neighbor_mask
    n, m = suite.grid.n, suite.config.m

    fits = {}
    timings = {"build": build_time}
    jobs = {
        ("markov", "a1"): (suite.markov, SymmetricMaskedNonneg(mask), 0, 1),
        ("markov", "a2"): (suite.markov,
                           ShiftedGraphLaplacian(mask, shift="identity"), 0, 1),
        ("nonmarkov", "a1"): (suite.nonmarkov, SymmetricMaskedNonneg(mask),
                              DESK["q"], DESK["Q"]),
    }
    for key, (system, on_A, q, Q) in jobs.items():
        t0 = time.perf_counter()
        spec = ConstraintSpec(on_A, NonnegativeDiagonal(), CausalBand(q, Q))
        cfg = PgdConfig(theta0=default_initial_point(n, n, m, q, Q),
                        t0=DESK["t0"], eta=DESK["eta"], max_steps=DESK["p"])
        fits[key] = violina_fit(system.train, spec, cfg)
        timings[key] = time.perf_counter() - t0

    scans = {}
    for name, system in (("markov", suite.markov), ("nonmarkov", suite.nonmarkov)):
        t0 = time.perf_counter()
        scan = dmdc_rank_scan(system.train, fit_index=0)
        A, B = dmdc_fit(system.train, scan.best_rank, [0])
        scans[name] = as_model(A, B, m)
        timings[f"dmdc_{name}"] = time.perf_counter() - t0
    return {"suite": suite, "fits": fits, "dmdc": scans, "timings": timings}


def mean_test_error(model, test):
    q = model.kernel.q
    errs = []
    for traj in test.trajectories:
        pred = model.simulate(traj.states[:, : q + 1], traj.inputs[:, : test.m])
        errs.append(relative_error(pred.states, traj.states[:, : test.m + 1],
                                   first=q + 1))
    return float(np.mean(errs))


# ------------------------------------------------------------- criteria

def test_criterion_01_gradient_and_hessian_correctness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_fd, worst_hess = 0.0, 0.0
    for _ in range(20):
        data, theta = random_instance(rng)
        g = gradient(theta, data)
        fd = finite_difference_gradient(theta, data)
        scale = max(g.norm(), 1.0)
        worst_fd = max(
            worst_fd,
            np.abs(g.dA - fd.dA).max() / scale,
            np.abs(g.dB - fd.dB).max() / scale,
            np.abs(g.dD - fd.dD).max() / scale,
        )
        delta = TangentTuple(
            rng.normal(size=(data.n, data.n)),
            rng.normal(size=(data.n, data.k)),
            rng.normal(size=(data.m, data.m)),
        )
        Hd = hessian_apply(delta, data)
        g1 = gradient(perturbed(theta, delta), data)
        diff = TangentTuple(g1.dA - g.dA - Hd.dA, g1.dB - g.dB - Hd.dB,
                            g1.dD - g.dD - Hd.dD)
        worst_hess = max(worst_hess, diff.norm() / max(Hd.norm(), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_fd <= 1e-6 and worst_hess <= 1e-10 and elapsed < 5.0
    report(1, "gradient and Hessian correctness", ok,
           f"fd {worst_fd:.2e}, hess {worst_hess:.2e}, {elapsed:.2f}s")


def test_criterion_02_convexity_and_psd():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    data, _ = random_instance(rng)
    ok = True
    for _ in range(100):
        d1, t1 = random_instance(rng)
        t2 = random_theta(rng, n=d1.n, k=d1.k, m=d1.m, q=d1.q,
                          Q=t1.kernel.Q)
        mid = StateSpaceModel(0.5 * (t1.A + t2.A), 0.5 * (t1.B + t2.B),
                              0.5 * (t1.kernel.to_dense() + t2.kernel.to_dense()))
        bound = 0.5 * (loss(t1, d1) + loss(t2, d1))
        ok = ok and loss(mid, d1) <= bound + 1e-10 * (1 + abs(bound))
    worst_quad = 0.0
    for _ in range(100):
        delta = TangentTuple(
            rng.normal(size=(data.n, data.n)),
            rng.normal(size=(data.n, data.k)),
            rng.normal(size=(data.m, data.m)),
        )
        worst_quad = min(worst_quad, delta.inner(hessian_apply(delta, data)))
    elapsed = time.perf_counter() - t0
    ok = ok and worst_quad >= -1e-12 and elapsed < 5.0
    report(2, "midpoint convexity and Hessian positive semidefiniteness", ok,
           f"min quad form {worst_quad:.2e}, {elapsed:.2f}s")


def test_criterion_03_lipschitz_bound_as_printed():
    # Checked exactly as stated: the sampled gradient variation must stay
    # below the smoothness constant.  The printed 2*max(rho_X, rho_U, rho_Y)
    # is too small in general (its derivation drops residual cross terms), so
    # lipschitz_constant returns the provable bound 2*(lambda_Z + lambda_Y);
    # see README, "Known limitations".
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        data, _ = random_instance(rng)
        L = lipschitz_constant(data)
        for _ in range(100):
            t1 = random_theta(rng, n=data.n, k=data.k, m=data.m, q=data.q)
            t2 = random_theta(rng, n=data.n, k=data.k, m=data.m, q=data.q)
            g1, g2 = gradient(t1, data), gradient(t2, data)
            diff = TangentTuple(g2.dA - g1.dA, g2.dB - g1.dB, g2.dD - g1.dD)
            dD = t2.kernel.to_dense() - t1.kernel.to_dense()
            dist = np.sqrt(np.sum((t2.A - t1.A) ** 2)
                           + np.sum((t2.B - t1.B) ** 2) + np.sum(dD ** 2))
            worst = max(worst, diff.norm() / (L * dist))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-12 and elapsed < 10.0
    report(3, "gradient variation bounded by the printed smoothness constant",
           ok, f"worst ratio {worst:.4f}, {elapsed:.2f}s")


def test_criterion_04_projection_optimality():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst_gap, worst_idem, worst_exp = 0.0, 0.0, 0.0

    def track(P, Pfun, M1, M2, oracle):
        nonlocal worst_gap, worst_idem, worst_exp
        worst_gap = max(worst_gap, float(np.max(np.abs(P - oracle))))
        worst_idem = max(worst_idem, float(np.max(np.abs(Pfun(P) - P))))
        worst_exp = max(
            worst_exp,
            float(np.linalg.norm(P - Pfun(M2)) - np.linalg.norm(M1 - M2)),
        )

    for _ in range(6):
        n = int(rng.integers(2, 4))
        mask = rng.random((n, n)) < 0.75
        mask = mask | mask.T
        np.fill_diagonal(mask, True)
        M1, M2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))

        f = lambda M: project_symmetric_masked_nonneg(M, mask)
        track(f(M1), f, M1, M2, qp_symmetric_masked_nonneg(M1, mask))

        g = lambda M: project_shifted_laplacian(M, mask, np.zeros((n, n)))
        track(g(M1), g, M1, M2, qp_graph_laplacian(M1, mask))

        B1, B2 = rng.normal(size=(n, n + 1)), rng.normal(size=(n, n + 1))
        track(project_nonneg_diagonal(B1), project_nonneg_diagonal, B1, B2,
              qp_nonneg_diagonal(B1))

        m = int(rng.integers(5, 9))
        q = int(rng.integers(0, 3))
        Q = int(rng.integers(max(q, 1), min(m, q + 3) + 1))
        D1, D2 = rng.normal(size=(m, m)), rng.normal(size=(m, m))
        band = lambda M: project_to_band(M, q, Q).to_dense()
        track(band(D1), band, D1, D2, lstsq_band_projection(D1, q, Q))

    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_idem <= 1e-8 and worst_exp <= 1e-8 \
        and elapsed < 30.0
    report(4, "projections match the QP oracle, idempotent, non-expansive",
           ok, f"oracle gap {worst_gap:.2e}, {elapsed:.2f}s")


def test_criterion_05_left_pseudoinverse_identity():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 51))
        q = int(rng.integers(0, min(5, m - 1) + 1))
        q = min(q, m - 1)
        Q = int(rng.integers(max(q, 1), min(m, q + 5) + 1))
        kern = CausalBandKernel(m, q, Q, tuple(rng.normal(scale=0.4, size=Q - 1)))
        err = kern.left_pseudoinverse() @ kern.to_dense() - partial_identity(m, q)
        worst = max(worst, float(np.max(np.abs(err))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 2.0
    report(5, "left pseudoinverse cancels the kernel", ok,
           f"max abs {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_solver_behavior():
    rng = np.random.default_rng(106)
    t0 = time.perf_counter()
    n, k, m = 3, 2, 18
    truth = random_stable_model(rng, n=n, k=k, m=m, q=0, Q=1)
    data = simulated_dataset(rng, truth, m, N=1, zero_initial=False)
    mat = data.matrices[0]
    Z = np.vstack([mat.X, mat.U])
    assert np.linalg.matrix_rank(Z) == n + k
    spec = ConstraintSpec(FullSpace(), FullSpace(),
                          Fixed(CausalBandKernel.identity(m, 0, 1)))
    cfg = PgdConfig(theta0=default_initial_point(n, k, m, 0, 1),
                    t0=0.3, eta=1.05, max_steps=5000)
    rep = violina_fit(data, spec, cfg)
    diffs = np.diff(rep.loss_curve)
    monotone = bool(np.all(diffs <= 1e-10 * (1.0 + rep.loss_curve[:-1])))
    target = mat.Y @ np.linalg.pinv(Z)
    got = np.hstack([rep.theta_final.A, rep.theta_final.B])
    gap = float(np.max(np.abs(got - target)) / max(1.0, np.max(np.abs(target))))
    elapsed = time.perf_counter() - t0
    ok = monotone and gap <= 1e-6 and elapsed < 60.0
    report(6, "solver monotone and reaches the pseudoinverse solution", ok,
           f"gap {gap:.2e}, monotone {monotone}, {elapsed:.2f}s")


def test_criterion_07_ground_truth_energy_physics(desk_bench):
    t0 = time.perf_counter()
    suite = desk_bench["suite"]
    E_mk = energy(suite.markov.energy.trajectories[0])
    markov_drift = float(np.max(np.abs(E_mk - E_mk[0])) / abs(E_mk[0]))
    E_nm = energy(suite.nonmarkov.energy.trajectories[0])
    nonmarkov_dev = float(np.max(np.abs(E_nm - E_nm[0])))
    elapsed = time.perf_counter() - t0 + desk_bench["timings"]["build"]
    ok = markov_drift <= 1e-10 and nonmarkov_dev > 1e-6 and elapsed < 5.0
    report(7, "energy conserved only by the memoryless ground truth", ok,
           f"drift {markov_drift:.2e}, memory dev {nonmarkov_dev:.2e}, {elapsed:.2f}s")


def test_criterion_08_desk_scale_generalization(desk_bench):
    suite = desk_bench["suite"]
    details = []
    ok = True
    runtime = sum(desk_bench["timings"].values())
    for name, system in (("markov", suite.markov), ("nonmarkov", suite.nonmarkov)):
        v_err = mean_test_error(desk_bench["fits"][(name, "a1")].theta_final,
                                system.test)
        d_err = mean_test_error(desk_bench["dmdc"][name], system.test)
        details.append(f"{name}: pgd {v_err:.3e} vs dmdc {d_err:.3e}")
        ok = ok and v_err <= 0.5 * d_err
    # stepsize adjustments settle within the first iterations
    for key in (("markov", "a1"), ("nonmarkov", "a1")):
        ok = ok and not np.any(desk_bench["fits"][key].backtracks[50:] > 0)
    ok = ok and runtime < 900.0
    report(8, "constrained fit at least twice as accurate as rank-scanned DMDc",
           ok, "; ".join(details) + f"; {runtime:.1f}s")


def test_criterion_09_energy_conservation_comparison(desk_bench):
    suite = desk_bench["suite"]
    truth = suite.markov.energy.trajectories[0]
    e0 = float(energy(truth)[0])
    values = {}
    for label in ("a1", "a2"):
        model = desk_bench["fits"][("markov", label)].theta_final
        pred = model.simulate(truth.states[:, :1], truth.inputs)
        dev = energy_deviation(pred, truth)
        values[label] = float(np.max(np.abs(dev)) / abs(e0))
    ok = values["a2"] <= 1.5 * values["a1"]
    report(9, "column-sum constraint conserves energy at least as well", ok,
           f"a1 {values['a1']:.3e}, a2 {values['a2']:.3e}")


def test_criterion_10_uniqueness_certificates():
    rng = np.random.default_rng(110)
    t0 = time.perf_counter()
    n, k = 3, 2
    short = Dataset([Trajectory(rng.normal(size=(n, 5)), rng.normal(size=(k, 4)))],
                    0, 4)
    r_short = uniqueness_certificate(short, mode="fixed_d")
    rich = Dataset([Trajectory(rng.normal(size=(n, 13)), rng.normal(size=(k, 12)))],
                   0, 12)
    r_rich = uniqueness_certificate(rich, mode="fixed_d")
    elapsed = time.perf_counter() - t0
    ok = (not r_short.rank_condition and r_short.smallest_eigenvalue <= 1e-8
          and not r_short.positive_definite and r_rich.rank_condition
          and elapsed < 2.0)
    report(10, "uniqueness certificates track the stacked data rank", ok,
           f"short eig {r_short.smallest_eigenvalue:.2e}, {elapsed:.2f}s")


def test_criterion_11_fractional_kernels():
    t0 = time.perf_counter()
    ok = bool(np.array_equal(fractional_kernel(0.0, 32), np.eye(32)))
    worst = 0.0
    for a, b in ((0.5, 0.5), (0.3, 0.7), (1.0, 1.0)):
        err = fractional_toeplitz(a, 32) @ fractional_toeplitz(b, 32) \
            - fractional_toeplitz(a + b, 32)
        worst = max(worst, float(np.max(np.abs(err))))
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-12 and elapsed < 1.0
    report(11, "fractional kernels form an exact semigroup", ok,
           f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_12_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Lx": 5, "Ly": 2, "m": 30, "seed": 21,
                               "q": 2, "Q": 3, "coeffs": [0.03, -0.01]}))
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        assert cli_main(["--quiet", "generate", "--config", str(cfg),
                         "--out", str(d)]) == 0
        model = d / "model.json"
        curve = d / "curve.csv"
        assert cli_main(["--quiet", "fit",
                         "--train", str(d / "nonmarkov_train.json"),
                         "--constraints", "a1b", "--mask", str(d / "manifest.json"),
                         "--steps", "40", "--out", str(model),
                         "--curve", str(curve)]) == 0
        rep = d / "report.csv"
        assert cli_main(["--quiet", "evaluate", "--model", str(model),
                         "--dataset", str(d / "nonmarkov_test.json"),
                         "--report", str(rep)]) == 0
        outputs.append((curve.read_bytes(), rep.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(12, "generate-fit-evaluate pipeline is byte deterministic", ok)
