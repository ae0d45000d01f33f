"""Library side of the benchmark: runs in a child process that imports
violina from the checkout's ``src/``.

    python3 perfbench/worker.py TASK PARAMS.json RESULT.json

Tasks:

``machine``
    numpy, scipy and BLAS versions, and the BLAS thread count in effect.
``desk-fit``
    The desk-fit workload: suite build (set-up, repeated), then timed
    ``violina_fit`` calls.  Traced, it times one plain and one traced fit
    and then probes every library layer.
``check``
    Checks the CLI fit and DMDc outputs against the in-memory suite.
``probe``
    Times every library layer at the workload's scale, repeats the CLI fit
    in-process with a timed ``on_A`` wrapper, and runs the ``check`` checks.

The result file holds ``checks`` (name, passed, detail), ``counts``, spans
and task-specific values; time metrics are derived from the spans by the
harness.  Exit status 1 means the task raised; the traceback is on stderr.
"""

from __future__ import annotations

import ctypes
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import violina
from violina import (
    BenchmarkConfig,
    CausalBand,
    ConstraintSpec,
    Dataset,
    NonnegativeDiagonal,
    PgdConfig,
    ShiftedGraphLaplacian,
    StateSpaceModel,
    SymmetricMaskedNonneg,
    apply_kernel,
    build_benchmark_suite,
    default_initial_point,
    dmdc_fit,
    dmdc_rank_scan,
    loss,
    violina_fit,
)
from violina.cli import _load_json

from spans import Tracer

# Set-up repetitions of the in-process suite build (desk-fit); median taken.
SETUP_REPS = 5
# Each micro-layer call repeats until this much time has passed; median taken.
MICRO_SECONDS = 0.5
MICRO_MAX_REPS = 50
# Relative tolerance between the reported final loss and objective.loss.
LOSS_RTOL = 1e-9
# A fitted A is a fixed point of its projection within this relative distance.
FIXED_POINT_RTOL = 1e-12
# Scale of the seeded perturbation of the true A that the projections receive.
PERTURBATION = 0.01


class TimedProjection:
    """Delegates to a constraint set, recording a span around each call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def project(self, M):
        with self.tracer.span("constraints.project"):
            return self.inner.project(M)


def suite_config(p) -> BenchmarkConfig:
    if p["grid"] is not None:
        return BenchmarkConfig.from_dict(dict(p["grid"], seed=p["seed"]))
    if p["preset"] == "paper":
        return BenchmarkConfig.paper_scale(p["seed"])
    return BenchmarkConfig.desk_scale(p["seed"])


def fit_spec(kind: str, mask, q: int) -> ConstraintSpec:
    """The two fits the benchmark runs, with the CLI's default band Q = q + 1."""
    on_A = SymmetricMaskedNonneg(mask) if kind == "a1b" else ShiftedGraphLaplacian(mask)
    return ConstraintSpec(on_A, NonnegativeDiagonal(), CausalBand(q, q + 1))


def run_fit(train: Dataset, spec: ConstraintSpec, steps: int):
    theta0 = default_initial_point(train.n, train.k, train.m, train.q, spec.on_D.Q)
    return violina_fit(train, spec, PgdConfig(theta0=theta0, max_steps=steps))


def signature(report) -> dict:
    """What must repeat exactly between fits of the same inputs."""
    backtracks = int(report.backtracks.sum())
    return {"steps": report.steps, "backtracks": backtracks,
            "evals": report.steps + backtracks,
            "final_loss": float(report.loss_curve[-1])}


def check_fit(checks, theta: StateSpaceModel, final_loss: float, train: Dataset, on_A):
    ref = loss(theta, train)
    checks.append(("fit.loss_matches_objective",
                   abs(final_loss - ref) <= LOSS_RTOL * abs(ref),
                   f"reported {final_loss!r}, objective.loss {ref!r}"))
    dist = float(np.linalg.norm(on_A.project(theta.A) - theta.A))
    checks.append(("fit.A_is_fixed_point",
                   dist <= FIXED_POINT_RTOL * max(1.0, float(np.linalg.norm(theta.A))),
                   f"|P(A) - A| = {dist:.3e}"))


def check_cli_outputs(checks, p, suite, scan):
    """The CLI fit (a1b) and DMDc results against the in-memory suite."""
    cli = p["cli"]
    train = suite.nonmarkov.train
    theta = StateSpaceModel.from_dict(_load_json(cli["fit_model"]))
    check_fit(checks, theta, cli["fit"]["final_loss"], train,
              SymmetricMaskedNonneg(suite.grid.neighbor_mask))
    checks.append(("dmdc.best_rank_matches_scan", scan.best_rank == cli["rank"],
                   f"CLI rank {cli['rank']}, dmdc_rank_scan {scan.best_rank}"))
    checks.append(("dmdc.ranks_scanned_match", len(scan.ranks) == cli["ranks_scanned"],
                   f"CLI {cli['ranks_scanned']}, in-memory {len(scan.ranks)}"))


def repeat(tr: Tracer, name: str, fn):
    """Call ``fn`` in spans named ``name`` until MICRO_SECONDS have passed."""
    start = time.perf_counter()
    for _ in range(MICRO_MAX_REPS):
        with tr.span(name):
            out = fn()
        if time.perf_counter() - start >= MICRO_SECONDS:
            break
    return out


def traced_fit(tr: Tracer, train: Dataset, spec: ConstraintSpec, steps: int):
    """A fit with a timed ``on_A`` wrapper, then a one-step fit for step 1.

    Returns the report and the steady ms/step: the time from the first
    projection of step 2 to the first projection of the last step, over the
    steps between.  Every trial point of a step calls ``on_A`` once, so step
    ``k`` starts its projections after ``sum(backtracks[:k] + 1)`` calls.
    Taking it from one fit's own timeline keeps it out of the noise of
    ``pgd.first_step_s``, which at paper scale is ~15 times the rest of a
    10-step fit.
    """
    wrapped = ConstraintSpec(TimedProjection(spec.on_A, tr), spec.on_B, spec.on_D)
    with tr.span("pgd.fit") as fit:
        report = run_fit(train, wrapped, steps)
    with tr.span("pgd.first_step"):
        run_fit(train, spec, 1)
    calls = [s["start"] for s in tr.spans
             if s["name"] == "constraints.project" and s["parent"] == fit["id"]]
    first_call = np.concatenate([[0], np.cumsum(report.backtracks + 1)])
    second, last = calls[first_call[1]], calls[first_call[report.steps - 1]]
    return report, 1e3 * (last - second) / (report.steps - 2)


def probe_layers(tr: Tracer, p, suite, checks):
    """Time one call into each library layer at the suite's scale."""
    cfg = suite.config
    truth = suite.nonmarkov.model
    train = suite.nonmarkov.train
    mask = suite.grid.neighbor_mask
    repeat(tr, "synth.build_suite", lambda: build_benchmark_suite(cfg))
    train_path = Path(p["suite_dir"]) / "nonmarkov_train.json"
    loaded = repeat(tr, "cli.io.read", lambda: Dataset.from_dict(_load_json(train_path)))
    checks.append(("io.read_round_trip", all(
        np.array_equal(a.states, b.states) and np.array_equal(a.inputs, b.inputs)
        for a, b in zip(loaded.trajectories, train.trajectories, strict=True)), ""))
    repeat(tr, "model.data_matrices", lambda: Dataset(train.trajectories, train.q, train.m))
    traj = suite.nonmarkov.test.trajectories[0]
    repeat(tr, "model.simulate",
           lambda: truth.simulate(traj.states[:, : cfg.q + 1], traj.inputs[:, : cfg.m]))
    repeat(tr, "kernel.apply",
           lambda: [apply_kernel(mat.Y, truth.kernel) for mat in train.matrices])
    theta0 = default_initial_point(train.n, train.k, train.m, train.q, cfg.q + 1)
    repeat(tr, "objective.loss", lambda: loss(theta0, train))
    rng = np.random.default_rng(p["seed"])
    M = truth.A + PERTURBATION * rng.standard_normal(truth.A.shape)
    for kind in ("a1b", "a2b"):
        on_A = fit_spec(kind, mask, train.q).on_A
        repeat(tr, f"constraints.project.{kind}", lambda: on_A.project(M))
    with tr.span("dmdc.scan"):
        scan = dmdc_rank_scan(train)
    repeat(tr, "dmdc.fit", lambda: dmdc_fit(train, scan.best_rank, [0]))
    return loaded, scan


def task_machine(p, tr, result):
    blas = numpy_blas()
    result.update(numpy=np.__version__, scipy=scipy.__version__,
                  blas_name=blas.get("name"), blas_version=blas.get("version"),
                  blas_threads=blas_threads(), violina_file=violina.__file__)


def task_desk_fit(p, tr, result):
    cfg = suite_config(p)
    windows = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        suite = build_benchmark_suite(cfg)
        windows.append((start, time.perf_counter()))
    result["setup_windows"] = windows
    train = suite.nonmarkov.train
    spec = fit_spec("a2b", suite.grid.neighbor_mask, train.q)

    windows, sigs = [], []
    start = time.perf_counter()
    while not windows or (not p["trace"] and time.perf_counter() - start < p["seconds"]):
        t = time.perf_counter()
        report = run_fit(train, spec, p["steps"])
        windows.append((t, time.perf_counter()))
        sigs.append(signature(report))
    result["fit_windows"] = windows
    if p["trace"]:
        report, step_ms = traced_fit(tr, train, spec, p["steps"])
        sigs.append(signature(report))
        fit_span = [s for s in tr.spans if s["name"] == "pgd.fit"][-1]
        result["traced_window"] = (fit_span["start"], fit_span["end"])
        _, scan = probe_layers(tr, p, suite, result["checks"])
        check_cli_outputs(result["checks"], p, suite, scan)
        result["counts"] = dict(sigs[-1], ranks_scanned=len(scan.ranks), step_ms=step_ms)
    result["checks"].append(("determinism.desk_fit", all(s == sigs[0] for s in sigs),
                             json.dumps(sigs)))
    check_fit(result["checks"], report.theta_final, float(report.loss_curve[-1]),
              train, spec.on_A)


def task_check(p, tr, result):
    suite = build_benchmark_suite(suite_config(p))
    check_cli_outputs(result["checks"], p, suite, dmdc_rank_scan(suite.nonmarkov.train))


def task_probe(p, tr, result):
    suite = build_benchmark_suite(suite_config(p))
    loaded, scan = probe_layers(tr, p, suite, result["checks"])
    check_cli_outputs(result["checks"], p, suite, scan)
    report, step_ms = traced_fit(
        tr, loaded, fit_spec("a1b", suite.grid.neighbor_mask, loaded.q), p["steps"])
    sig = signature(report)
    result["checks"].append(("determinism.cli_vs_library_fit", sig == p["cli"]["fit"],
                             f"library {sig}, CLI {p['cli']['fit']}"))
    result["counts"] = dict(sig, ranks_scanned=len(scan.ranks), step_ms=step_ms)


def numpy_blas() -> dict:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


TASKS = {"machine": task_machine, "desk-fit": task_desk_fit, "check": task_check,
         "probe": task_probe}


def main(argv) -> int:
    task, params_path, result_path = argv
    with open(params_path, encoding="utf-8") as fh:
        p = json.load(fh)
    tr = Tracer(run_id=p["run_id"], enabled=bool(p["trace"]))
    result = {"checks": [], "counts": {}}
    src = Path(p["src"]).resolve()
    result["checks"].append(("code.from_checkout",
                             src in Path(violina.__file__).resolve().parents,
                             violina.__file__))
    TASKS[task](p, tr, result)
    result["spans"] = tr.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
