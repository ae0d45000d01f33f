"""Batch front end: generate benchmark suites, fit by PGD or DMDc, simulate,
evaluate, and render CSV/SVG reports.

Exit codes: 0 success, 2 configuration or parse problem, 3 I/O failure,
4 numeric or shape failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .constraints import (
    CausalBand,
    ConstraintSpec,
    FullSpace,
    NonnegativeDiagonal,
    ShiftedGraphLaplacian,
    SymmetricMaskedNonneg,
)
from .dmdc import as_model, dmdc_fit, dmdc_rank_scan
from .kernel import CausalBandKernel
from .model import StateSpaceModel, Trajectory, relative_error
from .objective import Dataset
from .pgd import PgdConfig, SolverError, default_initial_point, violina_fit
from .svgplot import line_plot, panel_plot
from .synth import BenchmarkConfig, build_benchmark_suite, energy_deviation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid configuration or unparseable input file."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _parse_file(path, parse):
    """``parse`` of the JSON in ``path``; malformed content (``ValueError`` or
    ``TypeError`` from the parser) is a configuration error naming the path."""
    obj = _load_json(path)
    try:
        return parse(obj)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_dataset(path) -> Dataset:
    return _parse_file(path, Dataset.from_dict)


def _load_model(path) -> StateSpaceModel:
    return _parse_file(path, StateSpaceModel.from_dict)


def _parse_mask(manifest) -> np.ndarray:
    if "mask" not in manifest:
        raise ValueError("missing field 'mask'")
    mask = np.asarray(manifest["mask"], dtype=float)
    if not np.all(np.isfinite(mask)):
        raise ValueError("'mask' holds non-finite values")
    return mask != 0


def _check_index(flag: str, value: int, size: int):
    if not 0 <= value < size:
        raise ConfigError(f"{flag} {value} outside the valid range [0, {size})")


def _dump_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _dump_dataset(path, data: Dataset):
    """Write the bytes of ``_dump_json(path, data.to_dict())``, encoding one
    trajectory at a time.  ``json.dump`` streams through the pure-Python
    encoder; ``encode`` runs the C encoder, and one call per trajectory keeps
    the text of a whole dataset out of memory."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"m":{encode(data.m)},"q":{encode(data.q)},"trajectories":[')
        for i, traj in enumerate(data.trajectories):
            if i:
                fh.write(",")
            fh.write(encode(traj.to_dict()))
        fh.write("]}\n")


# ---------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    if args.preset:
        cfg = (BenchmarkConfig.desk_scale() if args.preset == "desk"
               else BenchmarkConfig.paper_scale())
        cfg_dict = cfg.to_dict()
    else:
        cfg_dict = _load_json(args.config)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    try:
        cfg = BenchmarkConfig.from_dict(cfg_dict)
        suite = build_benchmark_suite(cfg)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"benchmark config: {exc}") from exc

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "grid": suite.grid.to_dict(),
        "h": cfg.h,
        "config": cfg.to_dict(),
        "mask": suite.grid.neighbor_mask.astype(int).tolist(),
        "models": {},
        "datasets": {},
    }
    for name, system in (("markov", suite.markov), ("nonmarkov", suite.nonmarkov)):
        model_file = f"{name}_model.json"
        _dump_json(out / model_file, system.model.to_dict())
        manifest["models"][name] = model_file
        manifest["datasets"][name] = {}
        for kind, data in (("train", system.train), ("test", system.test),
                           ("energy", system.energy)):
            data_file = f"{name}_{kind}.json"
            _dump_dataset(out / data_file, data)
            manifest["datasets"][name][kind] = data_file
    _dump_json(out / "manifest.json", manifest)

    if not args.quiet:
        print(f"suite written to {out}")
        print("  system     train  test  energy    n     m")
        for name, system in (("markov", suite.markov), ("nonmarkov", suite.nonmarkov)):
            print(f"  {name:<9} {system.train.size:>5} {system.test.size:>5} "
                  f"{system.energy.size:>7} {suite.grid.n:>4} {cfg.m:>5}")
    return EXIT_OK


# --------------------------------------------------------------------- fit

def _constraint_spec_from_args(args, train: Dataset) -> ConstraintSpec:
    Q = args.bandwidth if args.bandwidth is not None else train.q + 1
    on_D = CausalBand(train.q, Q)
    if args.constraints == "free":
        return ConstraintSpec(FullSpace(), FullSpace(), on_D)
    if not args.mask:
        raise ConfigError(f"constraints {args.constraints!r} need --mask MANIFEST")
    mask = _parse_file(args.mask, _parse_mask)
    if mask.shape != (train.n, train.n):
        raise ConfigError(
            f"{args.mask}: mask shape {mask.shape} does not match state dimension {train.n}"
        )
    try:
        if args.constraints == "a1b":
            on_A = SymmetricMaskedNonneg(mask)
        else:
            shift = "identity" if args.laplacian_shift == "identity" else "zero"
            on_A = ShiftedGraphLaplacian(mask, shift=shift)
    except ValueError as exc:
        raise ConfigError(f"{args.mask}: {exc}") from exc
    return ConstraintSpec(on_A, NonnegativeDiagonal(), on_D)


def cmd_fit(args) -> int:
    train = _load_dataset(args.train)
    spec = _constraint_spec_from_args(args, train)
    try:
        theta0 = default_initial_point(train.n, train.k, train.m, train.q, spec.on_D.Q)
        cfg = PgdConfig(theta0=theta0, t0=args.t0, eta=args.eta, max_steps=args.steps,
                        stop_tol=args.stop_tol)
    except ValueError as exc:
        raise ConfigError(f"solver settings: {exc}") from exc
    report = violina_fit(train, spec, cfg)
    _dump_json(args.out, report.theta_final.to_dict())
    if args.curve:
        report.write_curve_csv(args.curve)
    if not args.quiet:
        print(f"fit: {report.steps} steps, loss {report.loss_curve[0]:.6e} -> "
              f"{report.loss_curve[-1]:.6e}, model written to {args.out}")
    return EXIT_OK


def cmd_dmdc(args) -> int:
    train = _load_dataset(args.train)
    if not args.pooled:
        _check_index("--fit-index", args.fit_index, train.size)
    indices = None if args.pooled else [args.fit_index]
    if args.rank is not None:
        rank = args.rank
        scan = None
    else:
        scan = dmdc_rank_scan(train, fit_index=args.fit_index, pooled=args.pooled)
        rank = scan.best_rank
    try:
        A, B = dmdc_fit(train, rank, indices)
    except ValueError as exc:  # only an unattainable --rank
        raise ConfigError(f"--rank: {exc}") from exc
    _dump_json(args.out, as_model(A, B, train.m).to_dict())
    if scan is not None and args.scan_csv:
        with open(args.scan_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("rank,mean_self_reconstruction_error\n")
            for r, err in zip(scan.ranks, scan.errors):
                fh.write(f"{r},{err!r}\n")
    if not args.quiet:
        note = f" (scanned {len(scan.ranks)} ranks)" if scan is not None else ""
        print(f"dmdc: rank {rank}{note}, model written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------- simulate / evaluate

def _predict(model: StateSpaceModel, traj: Trajectory, m: int) -> Trajectory:
    if not isinstance(model.kernel, CausalBandKernel):
        raise ValueError("cannot simulate a model with a dense kernel")
    q = model.kernel.q
    return model.simulate(traj.states[:, : q + 1], traj.inputs[:, :m])


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    data = _load_dataset(args.dataset)
    predicted = [_predict(model, traj, data.m) for traj in data.trajectories]
    _dump_dataset(args.out, Dataset(predicted, data.q, data.m))
    if not args.quiet:
        print(f"simulated {len(predicted)} trajectories to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    data = _load_dataset(args.dataset)
    q = model.kernel.q if isinstance(model.kernel, CausalBandKernel) else 0
    rows = []
    energy_max = 0.0
    for i, traj in enumerate(data.trajectories):
        pred = _predict(model, traj, data.m)
        truth = traj.states[:, : data.m + 1]
        err = relative_error(pred.states, truth, first=q + 1)
        row = {"trajectory": i, "rel_error": err}
        if args.energy:
            dev = energy_deviation(pred, Trajectory(truth, traj.inputs[:, : data.m]))
            row["max_abs_denergy"] = float(np.max(np.abs(dev)))
            energy_max = max(energy_max, row["max_abs_denergy"])
        rows.append(row)

    fields = list(rows[0].keys())
    with open(args.report, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(
                str(row[f]) if f == "trajectory" else repr(float(row[f]))
                for f in fields) + "\n")

    errors = [row["rel_error"] for row in rows]
    aggregate = {
        "mean_rel_error": float(np.mean(errors)),
        "max_rel_error": float(np.max(errors)),
        "trajectories": len(rows),
    }
    if args.energy:
        e0 = float(data.trajectories[0].states[:, 0].sum())
        aggregate["max_energy_deviation"] = energy_max
        aggregate["max_energy_deviation_rel"] = energy_max / abs(e0) if e0 else float("inf")
    if args.aggregate:
        _dump_json(args.aggregate, aggregate)
    if not args.quiet:
        print(f"evaluate: mean rel error {aggregate['mean_rel_error']:.6e} "
              f"over {len(rows)} trajectories")
    return EXIT_OK


# -------------------------------------------------------------------- plot

def _read_csv_series(path, x_col, y_col):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or x_col not in reader.fieldnames \
                or y_col not in reader.fieldnames:
            raise ConfigError(f"{path}: need columns {x_col!r} and {y_col!r}")
        xs, ys = [], []
        for row in reader:
            xs.append(float(row[x_col]))
            ys.append(float(row[y_col]))
    if not xs:
        raise ConfigError(f"{path}: no data rows")
    return xs, ys


def cmd_plot(args) -> int:
    if args.kind == "curve":
        if not args.inputs:
            raise ConfigError("plot curve: need at least one CSV input")
        series = []
        for path in args.inputs:
            xs, ys = _read_csv_series(path, args.x_col, args.y_col)
            series.append((Path(path).stem, xs, ys))
        svg = line_plot(series, title=args.title, xlabel=args.x_col,
                        ylabel=args.y_col, logy=not args.linear)
    elif args.kind == "traces":
        for flag, path in (("--truth", args.truth), ("--pred", args.pred)):
            if path is None:
                raise ConfigError(f"plot traces: need {flag} DATASET")
        truth = _load_dataset(args.truth)
        pred = _load_dataset(args.pred)
        _check_index("--traj", args.traj, min(truth.size, pred.size))
        n_cells = min(truth.n, pred.n)
        try:
            cells = [int(c) for c in args.cells.split(",") if c.strip()]
        except ValueError as exc:
            raise ConfigError(f"--cells {args.cells!r} is not a list of integers "
                              f"in the valid range [0, {n_cells})") from exc
        if not cells:
            raise ConfigError("plot traces: --cells is empty")
        for c in cells:
            _check_index("--cells entry", c, n_cells)
        t_states = truth.trajectories[args.traj].states[:, : truth.m + 1]
        p_states = pred.trajectories[args.traj].states[:, : truth.m + 1]
        ts = list(range(truth.m + 1))
        panels = [(f"cell {c}", [("truth", ts, t_states[c].tolist()),
                                 ("model", ts, p_states[c].tolist(), True)])
                  for c in cells]
        svg = panel_plot(panels, xlabel="t", ylabel="state")
    else:
        raise ConfigError(f"unknown plot kind {args.kind!r}")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    if not args.quiet:
        print(f"plot written to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    means = {}
    for label, path in (("a", args.a), ("b", args.b)):
        _, ys = _read_csv_series(path, "trajectory", args.metric)
        means[label] = float(np.mean(ys))
    ratio = means["a"] / means["b"] if means["b"] else float("inf")
    result = {"mean_a": means["a"], "mean_b": means["b"], "ratio_a_over_b": ratio}
    if args.out:
        _dump_json(args.out, result)
    if not args.quiet:
        print(f"compare: mean_a={means['a']:.6e} mean_b={means['b']:.6e} "
              f"ratio={ratio:.4f}")
    return EXIT_OK


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="violina",
        description="Identify non-Markovian linear models from trajectories "
                    "and benchmark them against DMDc.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a benchmark suite")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="benchmark config JSON")
    g.add_argument("--preset", choices=("desk", "paper"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit a model by projected gradient descent")
    p.add_argument("--train", required=True, help="training dataset JSON")
    p.add_argument("--constraints", choices=("a1b", "a2b", "free"), default="a1b")
    p.add_argument("--mask", help="manifest JSON carrying the neighbor mask")
    p.add_argument("--laplacian-shift", choices=("identity", "zero"), default="identity")
    p.add_argument("--bandwidth", type=int, default=None,
                   help="kernel bandwidth Q (default: q + 1)")
    p.add_argument("--t0", type=float, default=0.3)
    p.add_argument("--eta", type=float, default=1.05)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--stop-tol", type=float, default=None)
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--curve", help="learning-curve CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("dmdc", help="fit the DMDc baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--rank", type=int, default=None,
                   help="fixed rank (default: scan for the best)")
    p.add_argument("--fit-index", type=int, default=0)
    p.add_argument("--pooled", action="store_true")
    p.add_argument("--scan-csv", help="rank-scan CSV output")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dmdc)

    p = sub.add_parser("simulate", help="re-simulate a dataset under a model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="per-trajectory reconstruction errors")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--report", required=True, help="per-trajectory CSV output")
    p.add_argument("--aggregate", help="aggregate JSON output")
    p.add_argument("--energy", action="store_true",
                   help="also report the energy deviation")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", help="render SVG line plots")
    p.add_argument("--kind", choices=("curve", "traces"), default="curve")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="*", help="CSV inputs for curve plots")
    p.add_argument("--x-col", default="step")
    p.add_argument("--y-col", default="loss")
    p.add_argument("--title", default="")
    p.add_argument("--linear", action="store_true", help="linear y axis")
    p.add_argument("--truth", help="truth dataset JSON (traces)")
    p.add_argument("--pred", help="prediction dataset JSON (traces)")
    p.add_argument("--traj", type=int, default=0)
    p.add_argument("--cells", default="0")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("compare", help="compare two evaluation reports")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--metric", default="rel_error")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError, SolverError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
