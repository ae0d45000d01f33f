#!/usr/bin/env python3
"""Benchmark harness for violina.

    python3 perfbench/run.py --workload paper-analyse --seed 1 --seconds 5 --trace 0

Workloads (perfbench/README.md gives the reason for each):

``paper-generate``  ``violina generate --preset paper`` into a fresh directory.
``paper-analyse``   set-up generates the paper suite; timed: CLI ``fit``
                    (a1b), ``dmdc`` (rank scan) and ``evaluate`` of both models.
``desk-fit``        an in-process a2b ``violina_fit`` on the desk train set.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
record of the run (machine, code, every metric, checks, spans) goes to
``.perfbench/results/`` in the checkout.

The harness uses the standard library only.  Every CLI call runs as
``python -m violina.cli`` with the checkout's ``src/`` on ``PYTHONPATH`` and a
single BLAS thread, so the code measured is the checkout's own.  End-to-end
times are calibrated to a reference CPU speed (see speed.py).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("paper-generate", "paper-analyse", "desk-fit")
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh-interpreter ``import violina`` repetitions; the median is reported.
IMPORT_REPS = 3
# Steps of the CLI fit: at paper scale step 1 backtracks ~146 times and later
# steps are cheap, so a few steps cover both and keep the chain short.
CLI_FIT_STEPS = 10
# Steps of the desk fit: enough that steady steps, not step 1, dominate.
DESK_FIT_STEPS = 1000
# generate writes the models exactly, so re-simulating reproduces the data.
ROUND_TRIP_TOL = 1e-12
# Every child is killed once this much time has passed since the start.
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics and saved, but not part of the result.
RAW = {"wall_raw_s": "s", "setup_raw_s": "s"}
PER_LAYER = {
    "cli.import_s": "s", "cli.generate_s": "s", "cli.fit_s": "s", "cli.dmdc_s": "s",
    "cli.evaluate_s": "s", "cli.io.write_s": "s", "cli.io.read_s": "s",
    "cli.io.bytes_written": "bytes", "synth.build_suite_s": "s",
    "model.simulate_ms": "ms", "model.data_matrices_s": "s", "kernel.apply_ms": "ms",
    "objective.loss_ms": "ms", "constraints.project_ms.a1b": "ms",
    "constraints.project_ms.a2b": "ms", "constraints.calls": "count",
    "constraints.self_s": "s", "constraints.share": "ratio", "pgd.steps": "count",
    "pgd.backtracks": "count", "pgd.evals": "count", "pgd.self_s": "s",
    "pgd.first_step_s": "s", "pgd.step_ms": "ms", "dmdc.scan_s": "s",
    "dmdc.ranks_scanned": "count", "dmdc.fit_ms": "ms", "trace.overhead_s": "s",
}


class StepFailed(Exception):
    """A failed operation that the rest of the workload depends on."""


@dataclass
class Child:
    code: int
    start: float
    end: float
    rss_mb: float
    stdout: Path


@dataclass
class Timing:
    """Raw and calibrated durations of repeated intervals; medians on demand."""

    raw: list[float]
    calibrated: list[float]

    @property
    def raw_s(self) -> float:
        return statistics.median(self.raw)

    @property
    def cal_s(self) -> float:
        return statistics.median(self.calibrated)

    def total(self) -> "Timing":
        """One interval made of all of these in sequence."""
        return Timing([sum(self.raw)], [sum(self.calibrated)])


class Run:
    """One invocation: child processes, checks, spans and the result."""

    def __init__(self, args, probe: SpeedProbe):
        self.args = args
        self.probe = probe
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.tracer = Tracer(self.run_id, enabled=bool(args.trace))
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        **{var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
        self.grid = json.loads(Path(args.grid).read_text()) if args.grid else None
        self.preset = "desk" if args.workload == "desk-fit" else "paper"
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.record: dict = {}
        self._children = 0

    # ---------------------------------------------------------- operations

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def timing(self, windows) -> Timing:
        windows = list(windows)
        return Timing([end - start for start, end in windows],
                      [self.probe.calibrate(start, end) for start, end in windows])

    def spawn(self, label: str, argv, span: str | None = None) -> Child:
        """Run one child to completion; a non-zero exit fails the step.

        Peak RSS comes from the child's own ``wait4`` rusage, not from
        ``RUSAGE_CHILDREN``, which keeps the maximum over all children.
        """
        remaining = self.deadline - time.monotonic()
        if not self.check(f"{label}: started", remaining > 0, "run time budget spent"):
            raise StepFailed(label)
        n = self._children
        self._children += 1
        out_path, err_path = self.dir / f"{n:02d}.out", self.dir / f"{n:02d}.err"
        with self.tracer.span(span) if span else nullcontext(), \
                open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(proc.returncode, start, end, usage.ru_maxrss / 1024, out_path)
        if not self.check(label, child.code == 0, f"exit {child.code}: {_tail(err_path)}"):
            raise StepFailed(label)
        return child

    def cli(self, label: str, args, span: str | None = None) -> Child:
        return self.spawn(label, [sys.executable, "-m", "violina.cli", *args], span)

    def imports(self) -> Timing:
        """Fresh-interpreter ``import violina``, which every CLI call pays."""
        children = [self.spawn("import violina", [sys.executable, "-c", "import violina"],
                               "cli.import") for _ in range(IMPORT_REPS)]
        return self.timing((c.start, c.end) for c in children)

    def worker(self, task: str, params: dict) -> tuple[Child, dict]:
        """Run a perfbench/worker.py task; its checks count as operations."""
        stem = self.dir / f"worker-{task}-{self._children}"
        params_path, result_path = Path(f"{stem}.params.json"), Path(f"{stem}.result.json")
        params_path.write_text(json.dumps(dict(
            params, run_id=self.run_id, src=str(SRC), trace=self.args.trace,
            seed=self.args.seed, grid=self.grid, preset=self.preset)))
        with self.tracer.span(f"worker.{task}") as span:
            child = self.spawn(f"worker {task}", [sys.executable, HERE / "worker.py", task,
                                                  params_path, result_path])
        result = json.loads(result_path.read_text())
        for name, ok, detail in result["checks"]:
            self.check(name, ok, detail)
        if span is not None:
            self.tracer.adopt(result["spans"], span["id"])
        return child, result

    def generate(self, out: Path, span: str | None = "cli.generate") -> Child:
        source = ["--config", self.args.grid] if self.grid else ["--preset", self.preset]
        return self.cli("generate", ["generate", *source, "--seed", self.args.seed,
                                     "--out", out], span)

    # ------------------------------------------------------------- output

    def report(self) -> dict:
        units = PER_LAYER if self.args.trace else END_TO_END
        failed = len(self.failures)
        attempted = max(self.attempted, 1)
        for name, unit in (units if self.args.trace else {**units, **RAW}).items():
            print(f"{name} = {self.metrics.get(name)!r} {unit}")
        print(f"error_rate = {failed / attempted!r} ratio ({failed} of {attempted} failed)")
        for failure in self.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": self.metrics.get(name), "unit": unit}
                        for name, unit in units.items()},
        }
        self.save(result)
        return result

    def save(self, result: dict):
        out = WORK / "results"
        out.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        stem = f"BENCH_{stamp}_{self.args.workload}_seed{self.args.seed}_trace{self.args.trace}"
        record = dict(self.record, result=result, failures=self.failures,
                      all_metrics=self.metrics, run_id=self.run_id,
                      workload=self.args.workload, seed=self.args.seed,
                      seconds=self.args.seconds, trace=self.args.trace,
                      grid=self.grid, code=code_identity())
        (out / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        if self.args.trace:
            self.tracer.write(out / f"{stem}.spans.jsonl")


def _tail(path: Path, limit: int = 400) -> str:
    text = path.read_text(errors="replace").strip()
    return text[-limit:].replace("\n", " | ")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def set_time(run: Run, name: str, timing: Timing):
    """``name`` gets the calibrated median and ``<stem>_raw_s`` the raw one."""
    run.metrics[name] = timing.cal_s
    run.metrics[name.replace("_s", "_raw_s")] = timing.raw_s
    run.record.setdefault("samples", {})[name] = {"raw": timing.raw,
                                                  "calibrated": timing.calibrated}


# ------------------------------------------------------------- the CLI chain

def cli_chain(run: Run, suite: Path, tag: str, traced: bool) -> dict:
    """fit (a1b) -> dmdc (rank scan) -> evaluate both models on the test set."""
    out = run.dir / f"chain-{tag}"
    out.mkdir()
    train, test = suite / "nonmarkov_train.json", suite / "nonmarkov_test.json"

    def span(name):
        return name if traced else None

    children = [
        run.cli("fit", ["fit", "--train", train, "--constraints", "a1b",
                        "--mask", suite / "manifest.json", "--steps", CLI_FIT_STEPS,
                        "--out", out / "fit.json", "--curve", out / "curve.csv"],
                span("cli.fit")),
        run.cli("dmdc", ["dmdc", "--train", train, "--scan-csv", out / "scan.csv",
                         "--out", out / "dmdc.json"], span("cli.dmdc")),
    ]
    for model in ("fit", "dmdc"):
        children.append(run.cli(f"evaluate {model}", [
            "evaluate", "--model", out / f"{model}.json", "--dataset", test,
            "--report", out / f"{model}-report.csv",
            "--aggregate", out / f"{model}-aggregate.json"], span("cli.evaluate")))
    # each call is calibrated over its own interval; the chain is their sum
    calls = run.timing((c.start, c.end) for c in children)

    with open(out / "curve.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    backtracks = sum(int(r["backtracks"]) for r in rows[1:])
    fit = {"steps": len(rows) - 1, "backtracks": backtracks,
           "evals": len(rows) - 1 + backtracks, "final_loss": float(rows[-1]["loss"])}
    match = re.search(r"dmdc: rank (\d+)", children[1].stdout.read_text())
    if not run.check("dmdc: reports its rank", match is not None, _tail(children[1].stdout)):
        raise StepFailed("dmdc")
    with open(out / "scan.csv", newline="", encoding="utf-8") as fh:
        ranks_scanned = len(list(csv.DictReader(fh)))
    return {"timing": calls.total(),
            "rss_mb": max(c.rss_mb for c in children), "fit": fit,
            "rank": int(match.group(1)), "ranks_scanned": ranks_scanned,
            "fit_model": str(out / "fit.json")}


def same(run: Run, name: str, values: list):
    run.check(f"determinism.{name}", all(v == values[0] for v in values), repr(values))


def round_trip(run: Run, suite: Path):
    """Re-simulating the generated truth must reproduce the test set."""
    agg = run.dir / "round-trip.json"
    run.cli("evaluate round trip", [
        "evaluate", "--model", suite / "nonmarkov_model.json",
        "--dataset", suite / "nonmarkov_test.json",
        "--report", run.dir / "round-trip.csv", "--aggregate", agg])
    err = json.loads(agg.read_text())["mean_rel_error"]
    run.check("generate: round trip", err <= ROUND_TRIP_TOL, f"mean_rel_error {err!r}")


def chain_params(chain: dict, suite: Path) -> dict:
    return {"suite_dir": str(suite), "steps": CLI_FIT_STEPS,
            "cli": {k: chain[k] for k in ("fit", "rank", "ranks_scanned", "fit_model")}}


# --------------------------------------------------------------- workloads

def paper_generate(run: Run):
    set_time(run, "setup_s", run.imports())
    children, sizes = [], []
    start = time.perf_counter()
    # traced: one plain generate for the overhead, then the traced one
    while not children or (len(children) < 2 if run.args.trace
                           else time.perf_counter() - start < run.args.seconds):
        suite = run.dir / f"suite-{len(children)}"
        if children:
            shutil.rmtree(run.dir / f"suite-{len(children) - 1}")
        with_span = run.args.trace and len(children) == 1
        children.append(run.generate(suite, span="cli.generate" if with_span else None))
        sizes.append(dir_bytes(suite))
    same(run, "bytes_written", sizes)
    round_trip(run, suite)
    if not run.args.trace:
        set_time(run, "wall_s", run.timing((c.start, c.end) for c in children))
        run.metrics["peak_rss_mb"] = max(c.rss_mb for c in children)
        return
    plain, traced = run.timing((c.start, c.end) for c in children).calibrated
    run.metrics["trace.overhead_s"] = traced - plain
    run.metrics["cli.io.bytes_written"] = sizes[-1]
    chain = cli_chain(run, suite, "traced", traced=True)
    _, result = run.worker("probe", chain_params(chain, suite))
    layer_metrics(run, result["counts"])


def paper_analyse(run: Run):
    suite = run.dir / "suite"
    gen = run.generate(suite)
    set_time(run, "setup_s", run.timing([(gen.start, gen.end)]))
    plain = cli_chain(run, suite, "plain", traced=False)
    set_time(run, "wall_s", plain["timing"])
    run.metrics["peak_rss_mb"] = plain["rss_mb"]
    if not run.args.trace:
        run.worker("check", chain_params(plain, suite))
        return
    run.imports()
    run.metrics["cli.io.bytes_written"] = dir_bytes(suite)
    traced = cli_chain(run, suite, "traced", traced=True)
    run.metrics["trace.overhead_s"] = traced["timing"].cal_s - plain["timing"].cal_s
    for key in ("fit", "rank", "ranks_scanned"):
        same(run, f"cli.{key}", [plain[key], traced[key]])
    _, result = run.worker("probe", chain_params(traced, suite))
    layer_metrics(run, result["counts"])


def desk_fit(run: Run):
    imports = run.imports()
    params = {}
    if run.args.trace:
        suite = run.dir / "suite"
        run.generate(suite)
        run.metrics["cli.io.bytes_written"] = dir_bytes(suite)
        params = chain_params(cli_chain(run, suite, "traced", traced=True), suite)
    child, result = run.worker("desk-fit", dict(params, steps=DESK_FIT_STEPS,
                                                seconds=run.args.seconds))
    build = run.timing(result["setup_windows"])
    # set-up: one import plus one suite build, each the median of its repetitions
    set_time(run, "setup_s", Timing([imports.raw_s + build.raw_s],
                                    [imports.cal_s + build.cal_s]))
    fits = run.timing(result["fit_windows"])
    set_time(run, "wall_s", fits)
    run.metrics["peak_rss_mb"] = child.rss_mb
    if run.args.trace:
        traced = run.timing([result["traced_window"]]).cal_s
        run.metrics["trace.overhead_s"] = traced - fits.calibrated[0]
        layer_metrics(run, result["counts"])


def layer_metrics(run: Run, counts: dict):
    """Per-layer metrics (raw times) from the merged spans and the worker's counts."""
    tr, m = run.tracer, run.metrics
    for name in ("cli.import", "cli.generate", "cli.fit", "cli.dmdc", "cli.evaluate",
                 "cli.io.read", "synth.build_suite", "model.data_matrices",
                 "pgd.first_step", "dmdc.scan"):
        m[f"{name}_s"] = tr.median(name)
    for name in ("model.simulate", "kernel.apply", "objective.loss", "dmdc.fit"):
        m[f"{name}_ms"] = 1e3 * tr.median(name)
    for kind in ("a1b", "a2b"):
        m[f"constraints.project_ms.{kind}"] = 1e3 * tr.median(f"constraints.project.{kind}")
    m["cli.io.write_s"] = m["cli.generate_s"] - m["synth.build_suite_s"] - m["cli.import_s"]
    fit_s = tr.durations("pgd.fit")[-1]
    m["constraints.calls"] = len(tr.durations("constraints.project"))
    m["constraints.self_s"] = tr.self_total("constraints.project")
    m["constraints.share"] = m["constraints.self_s"] / fit_s
    m["pgd.self_s"] = tr.self_total("pgd.fit")
    m["pgd.steps"], m["pgd.backtracks"], m["pgd.evals"] = (
        counts["steps"], counts["backtracks"], counts["evals"])
    m["pgd.step_ms"] = counts["step_ms"]
    m["dmdc.ranks_scanned"] = counts["ranks_scanned"]


WORKLOAD_FNS = {"paper-generate": paper_generate, "paper-analyse": paper_analyse,
                "desk-fit": desk_fit}


# ----------------------------------------------------------------- records

def code_identity() -> dict:
    """Git commit when the checkout is a repository, and a hash of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def machine(run: Run, cpu: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    _, libs = run.worker("machine", {})
    return {"nproc": os.cpu_count(), "pinned_cpu": cpu, "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform(),
            "numpy": libs["numpy"], "scipy": libs["scipy"], "blas": libs["blas_name"],
            "blas_version": libs["blas_version"], "blas_threads": libs["blas_threads"],
            "blas_threads_requested": BLAS_THREADS, "seed": run.args.seed}


# -------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep repeating the timed part until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--grid", help="benchmark config JSON used instead of the "
                                  "paper and desk presets (harness self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "violina" / "cli.py").is_file():
        print(f"error: {SRC / 'violina'} not found; run from the root of a "
              f"violina checkout", file=sys.stderr)
        return 2
    # the probe must sample the CPU that the measured processes run on
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:  # unpinned, the calibration only loses precision
        print(f"warning: cannot pin to CPU {cpu}: {exc}", file=sys.stderr)
        cpu = None
    with SpeedProbe() as probe:
        run = Run(args, probe)
        try:
            run.record["machine"] = machine(run, cpu)
            WORKLOAD_FNS[args.workload](run)
        except StepFailed:
            pass
        except Exception:  # report any harness fault as a failed run, not a crash
            traceback.print_exc()
            run.check("harness", False, traceback.format_exc(limit=1).strip())
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        result = run.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
