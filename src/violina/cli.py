"""Batch front end: generate benchmark suites, fit by PGD or DMDc, simulate,
evaluate, and render CSV/SVG reports.

Exit codes: 0 success, 2 configuration or parse problem, 3 I/O failure,
4 numeric or shape failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import itertools
import json
import os
import re
import sys
from contextlib import ExitStack, closing, contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .kernel import CausalBandKernel, json_floats, json_int, pack_json
from .model import Dataset, StateSpaceModel, Trajectory, _check_trajectory, relative_error

# Each command imports the rest of the package it runs (synth, constraints,
# pgd, dmdc, svgplot) when it runs, so a child process loads only its own.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid configuration or unparseable input file."""


def _not_utf8(path, exc: UnicodeDecodeError) -> ConfigError:
    return ConfigError(f"{path}: not UTF-8 text ({exc.reason}: byte "
                       f"{exc.object[exc.start]:#04x})")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _parse_file(path, parse):
    """``parse`` of the JSON in ``path``; malformed content (``ValueError`` or
    ``TypeError`` from the parser) is a configuration error naming the path."""
    obj = _load_json(path)
    try:
        return parse(obj)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_CHUNK = 1 << 20  # bytes of dataset text read at a time
_HEAD_END = b',"trajectories":['  # _dump_datasets writes it after q
# the pieces of each array of a trajectory after its member's name: the
# head, the base64 text and the tail, which is ']' or the stored columns
# ',[j0,…]]', then the ',' before "states", or the '}' and what follows it;
# each number a nonnegative integer as %d writes it
_ARRAY_HEAD = re.compile(rb':\[(0|[1-9][0-9]*),(0|[1-9][0-9]*),\Z')
_TAIL = rb'(?:,\[((?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*|)\])?\]'
_MEMBERS = (("inputs", re.compile(_TAIL + rb',\Z')),
            ("states", re.compile(_TAIL + rb'\}(.*)\Z', re.S)))


def _pieces(fh):
    """Yield the bytes of the binary file ``fh`` between consecutive ``"``,
    before the first and after the last, reading ``_CHUNK`` bytes at a time
    and copying each byte once, into a ``bytearray`` per piece."""
    piece = bytearray()
    while chunk := fh.read(_CHUNK):
        view, i = memoryview(chunk), 0
        while (j := chunk.find(b'"', i)) >= 0:
            piece += view[i:j]
            yield piece
            piece, i = bytearray(), j + 1
        piece += view[i:]
    yield piece


def _read_dataset_json(fh):
    """Yield the JSON objects of the dataset in the binary file ``fh``,
    holding one trajectory's text at a time, when the file has the layout
    ``_dump_dataset`` writes: first the members before the first
    ``,"trajectories":[``, with ``trajectories`` as an empty list, then each
    element of the array.  Only the head goes through the JSON decoder.  A
    trajectory must be exactly the bytes the writer writes,
    ``{"inputs":[R,C,"…"],"states":[R,C,"…"]}`` with ``R`` and ``C``
    nonnegative integers without a sign or leading zero, each array with or
    without a fourth item ``,[…]`` of such integers joined by ``,``; after
    the last come ``]}`` and only whitespace.  As each array's base64 text
    lies between two quotes, a trajectory is the eight pieces (``_pieces``)
    from its name ``inputs`` on, each checked alone, and it is yielded, once
    a byte follows its ``}``, as ``{"inputs": [R, C, "…"], "states": […]}``
    with the fourth item as a list of ints and the ASCII text as it stands:
    ``kernel.json_table`` refuses any character JSON would unescape or
    reject there, as none is base64, and checks the columns.  UTF-8 puts
    no ASCII byte inside a multi-byte character, so the cuts are exact.
    Any other layout, text ``json.load`` rejects and a trajectory in any
    other layout raise ``ValueError``, some of them after every trajectory
    is yielded."""
    pieces = _pieces(fh)
    comma, name, bracket = _HEAD_END.split(b'"')
    front = []  # the pieces up to the first _HEAD_END
    for piece in pieces:
        front.append(piece)
        if (piece.startswith(bracket) and len(front) > 2 and front[-2] == name
                and front[-3].endswith(comma)):
            break
    else:
        raise ValueError("the text ends early")
    piece, front[-1] = piece[len(bracket):], bracket
    # the ',' leaves the quote unescaped: a match off the top level fails here
    yield json.JSONDecoder().decode(b'"'.join(front).decode("utf-8") + "]}")
    lead = b"{"  # the piece before a trajectory's "inputs"
    while piece == lead:
        obj = {}
        for key, tail in _MEMBERS:
            # unpacking fewer than four raises ValueError: the text ends early
            member, shape, text, piece = itertools.islice(pieces, 4)
            shape, tail = _ARRAY_HEAD.match(shape), tail.match(piece)
            if member != key.encode() or not (shape and tail):
                raise ValueError("a trajectory not in the packed layout")
            obj[key] = [int(shape[1]), int(shape[2]), str(text, "ascii")]
            del text  # its bytes, before the next array's are read
            if tail[1] is not None:
                obj[key].append([int(j) for j in tail[1].split(b",")] if tail[1] else [])
        piece, lead = tail[2], b",{"
        if not piece and next(pieces, None) is None:  # no byte after the '}'
            raise ValueError("the text ends early")
        yield obj
        del obj  # before the next trajectory's text is read
    if piece.rstrip(b" \t\n\r") != b"]}" or next(pieces, None) is not None:
        raise ValueError("expected ',' or ']}' and the end of the text")


def _dataset_objects(path):
    """``_read_dataset_json`` of the file ``path``; closing them closes it."""
    with open(path, "rb") as fh:
        yield from _read_dataset_json(fh)


class _DatasetStream:
    """The dataset in ``path``, read one trajectory at a time: ``q`` and
    ``m`` from the members before the trajectories, ``n`` and ``k`` from the
    first trajectory, which opening reads.  ``trajectories`` is iterated
    once, each passing the checks of ``Dataset.from_dict``; ``size`` counts
    those read.  Where the reader stops taking the file, the stream goes on
    in place on the list path, raising its ``ConfigError``, or one of its
    own if a later member replaces ``q``, ``m`` or a trajectory read."""

    def __init__(self, path):
        self.path, self.size = path, 1
        self._objects = _dataset_objects(path)
        try:
            head = next(self._objects)
            self.q, self.m = json_int(head, "q"), json_int(head, "m")
            if not 0 <= self.q < self.m:
                raise ValueError("need 0 <= q < m")
            self._first = Trajectory.from_dict(next(self._objects))
            self.n, self.k = self._first.n, self._first.k
            _check_trajectory(0, self._first, self.n, self.k, self.m)
        except BaseException:
            self._objects.close()
            raise

    @property
    def trajectories(self):
        if self._objects is None:
            raise RuntimeError(f"the dataset stream of {self.path} is read once")
        objects, self._objects = self._objects, None
        return self._checked(objects)

    def _checked(self, objects):
        traj, self._first = self._first, None
        yield traj
        try:
            for obj in objects:
                traj = Trajectory.from_dict(obj)
                _check_trajectory(self.size, traj, self.n, self.k, self.m)
                self.size += 1
                yield traj
            return
        except (ValueError, TypeError):
            objects.close()
        whole = _parse_file(self.path, Dataset.from_dict)
        with closing(_dataset_objects(self.path)) as again:  # the text this stream took
            taken = map(Trajectory.from_dict, itertools.islice(again, 1, self.size + 1))
            if Dataset(taken, self.q, self.m).to_dict() != Dataset(
                    whole.trajectories[: self.size], whole.q, whole.m).to_dict():
                raise ConfigError(f"{self.path}: a later 'q', 'm' or 'trajectories' "
                                  "member replaces data already read")
        for traj in whole.trajectories[self.size:]:
            self.size += 1
            yield traj


def _open_dataset(path) -> _DatasetStream | Dataset:
    """A ``_DatasetStream`` of ``path``, or the list path's ``Dataset`` when
    the stream cannot open it.  No other code knows there are two readers."""
    try:
        return _DatasetStream(path)
    except (ValueError, TypeError, StopIteration):
        return _parse_file(path, Dataset.from_dict)


def _check_index(flag: str, value: int, size: int):
    if not 0 <= value < size:
        raise ConfigError(f"{flag} {value} outside the valid range [0, {size})")


def _dump_json(path, obj):
    """Write ``obj`` as strict JSON: a non-finite float raises ``ValueError``
    before the file is opened."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _dump_csv(path, header, rows):
    """Write ``header`` and then each row of ``rows`` as a comma-joined line:
    an integer cell (Python or numpy) as ``str``, any other as
    ``repr(float(cell))``, so ``inf`` and ``nan`` stay as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) if isinstance(x, (int, np.integer)) else repr(float(x))
                              for x in row) + "\n")


def _finite_or_none(x: float) -> float | None:
    """``x``, or ``None`` (JSON ``null``) when it is infinite or NaN."""
    return float(x) if np.isfinite(x) else None


def _dump_datasets(targets, groups, m: int) -> int:
    """Write one dataset of length ``m`` per ``(path, q, where)`` in
    ``targets`` and return how many trajectories each got.  ``groups`` is
    any iterable of tuples of trajectories, one per target in its order,
    which all share the inputs of the first.  The bytes of each file are
    ``_dump_json``'s of its dataset's ``to_dict()``, but each group is
    written before the next is taken: its inputs are packed once
    (``kernel.pack_json``, which leaves out the columns that are all
    ``+0.0``) and those bytes go into every file, then each target's
    states are packed and written in turn.  The files are written
    in binary and no JSON encoder runs, so one array's text is alive at a
    time, and no group is held while the next is taken.  States that are
    not all finite raise ``ValueError`` naming the trajectory after the
    target's prefix ``where``; a non-finite input raises ``pack_json``'s."""
    i = -1
    with ExitStack() as files:
        fhs = [files.enter_context(open(path, "wb")) for path, _, _ in targets]
        for fh, (_, q, _) in zip(fhs, targets):
            fh.write(b'{"m":%d,"q":%d' % (m, q) + _HEAD_END)
        for group in groups:  # no enumerate: it would hold the last group
            i += 1
            inputs = pack_json(group[0].inputs.T)
            for fh in fhs:
                fh.write(b',{"inputs":' if i else b'{"inputs":')
                fh.write(inputs)
                fh.write(b',"states":')
            del inputs
            for fh, traj, (_, _, where) in zip(fhs, group, targets):
                try:
                    states = pack_json(traj.states.T)
                except ValueError:
                    raise ValueError(
                        f"{where}trajectory {i}: the simulated states overflow") from None
                fh.write(states)
                del states
                fh.write(b"}")
            del group, traj  # so none of it is held while the next group is made
        for fh in fhs:
            fh.write(b"]}\n")
    return i + 1


def _dump_dataset(path, trajectories, q: int, m: int, where: str = "") -> int:
    """Write a dataset of ``trajectories``, any iterable of them, with ``q``
    and ``m``, and return how many were written: ``_dump_datasets`` with
    one target."""
    return _dump_datasets([(path, q, where)], ((traj,) for traj in trajectories), m)


@contextmanager
def _publishing(out_dir=None):
    """Stage output files and publish them together.  Yields ``stage``:
    ``stage(target)``, the temporary path beside ``target`` to write to,
    which refuses a target resolving to one already staged (``ConfigError``).
    When the block ends without an error every staged file is moved onto its
    target with ``os.replace``, so a target that existed keeps its old bytes
    until the new ones are complete; a target that is a directory raises
    ``IsADirectoryError`` before any moves.  On any error the temporaries are
    removed, and so are the directories that making ``out_dir`` (when given)
    created; an ``OSError`` about a temporary names its target instead."""
    out = Path(out_dir) if out_dir is not None else None
    made = [] if out is None else list(
        itertools.takewhile(lambda p: not p.exists(), (out, *out.parents)))
    staged = {}

    def stage(target) -> Path:
        if os.path.realpath(target) in map(os.path.realpath, staged.values()):
            raise ConfigError(f"{target}: two outputs of the command name this file")
        path = Path(target)
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        staged[str(temp)] = os.fspath(target)
        return temp

    try:
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        yield stage
        for target in staged.values():
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for temp, target in staged.items():
            os.replace(temp, target)
    except BaseException as exc:
        for temp in staged:
            Path(temp).unlink(missing_ok=True)
        for directory in made:  # deepest first; one that is not empty stays
            try:
                directory.rmdir()
            except OSError:
                break
        if isinstance(exc, OSError) and str(exc.filename) in staged:
            raise OSError(exc.errno, exc.strerror, staged[str(exc.filename)]) from exc
        raise


# ---------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    from .synth import KINDS, BenchmarkConfig, simulate_trajectories, suite_models

    if args.preset:
        cfg = (BenchmarkConfig.desk_scale() if args.preset == "desk"
               else BenchmarkConfig.paper_scale())
        cfg_dict = cfg.to_dict()
    else:
        cfg_dict = _load_json(args.config)
        if not isinstance(cfg_dict, dict):
            raise ConfigError(f"{args.config}: the benchmark config must be a JSON object")
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    source = f"{args.config}: " if args.config else ""
    try:
        cfg = BenchmarkConfig.from_dict(cfg_dict)
        grid, *models = suite_models(cfg)
    except (TypeError, ValueError, MemoryError) as exc:
        raise ConfigError(f"{source}benchmark config: {exc}") from exc

    systems = tuple(zip(("markov", "nonmarkov"), models))
    out = Path(args.out)
    manifest = {
        "grid": grid.to_dict(),
        "h": cfg.h,
        "config": cfg.to_dict(),
        "mask": grid.neighbor_mask.astype(int).tolist(),
        "models": {name: f"{name}_model.json" for name, _ in systems},
        "datasets": {name: {kind: f"{name}_{kind}.json" for kind in KINDS}
                     for name, _ in systems},
    }
    sizes = {}
    # each input drives both ground truths, whose states are checked and
    # written before the next input is made, so the overflow reported is the
    # first in input order (train, test, energy), markov before nonmarkov
    # for one input; a suite that overflows leaves no file and no directory
    # of its own
    try:
        with _publishing(out) as stage:
            sets = itertools.groupby(simulate_trajectories(models, grid, cfg.m, cfg.h),
                                     key=lambda pair: pair[0])
            for kind, pairs in sets:
                sizes[kind] = _dump_datasets(
                    [(stage(out / manifest["datasets"][name][kind]), model.kernel.q,
                      f"{name} {kind} set: ") for name, model in systems],
                    (group for _, group in pairs), cfg.m)
            for name, model in systems:
                _dump_json(stage(out / manifest["models"][name]), model.to_dict())
            _dump_json(stage(out / "manifest.json"), manifest)
    except MemoryError as exc:  # an array of the config's size, as in make_input
        raise ConfigError(f"{source}benchmark config: {exc}") from exc

    if not args.quiet:
        print(f"suite written to {out}")
        print("  system     train  test  energy    n     m")
        for name, _ in systems:
            print(f"  {name:<9} {sizes['train']:>5} {sizes['test']:>5} "
                  f"{sizes['energy']:>7} {grid.n:>4} {cfg.m:>5}")
    return EXIT_OK


# --------------------------------------------------------------------- fit

def _constraint_spec_from_args(args, train: Dataset):
    from .constraints import (CausalBand, ConstraintSpec, FullSpace, NonnegativeDiagonal,
                              ShiftedGraphLaplacian, SymmetricMaskedNonneg)

    Q = args.bandwidth if args.bandwidth is not None else train.q + 1
    try:
        on_D = CausalBand(train.q, Q)
    except ValueError as exc:
        raise ConfigError(f"solver settings: {exc}") from exc
    if args.constraints == "free":
        return ConstraintSpec(FullSpace(), FullSpace(), on_D)
    if not args.mask:
        raise ConfigError(f"constraints {args.constraints!r} need --mask MANIFEST")
    mask = _parse_file(args.mask, lambda manifest: json_floats(manifest, "mask", 2) != 0)
    if mask.shape != (train.n, train.n):
        raise ConfigError(
            f"{args.mask}: mask shape {mask.shape} does not match state dimension {train.n}"
        )
    try:
        if args.constraints == "a1b":
            on_A = SymmetricMaskedNonneg(mask)
        else:
            on_A = ShiftedGraphLaplacian(mask)
    except ValueError as exc:
        raise ConfigError(f"{args.mask}: {exc}") from exc
    return ConstraintSpec(on_A, NonnegativeDiagonal(), on_D)


def cmd_fit(args) -> int:
    from .pgd import PgdConfig, SolverError, default_initial_point, violina_fit

    with _publishing() as stage:
        out, curve = stage(args.out), stage(args.curve) if args.curve else None
        train = _open_dataset(args.train)
        spec = _constraint_spec_from_args(args, train)
        try:
            theta0 = default_initial_point(train.n, train.k, train.m, train.q, spec.on_D.Q)
            # the settings given; PgdConfig holds the defaults of the others
            cfg = PgdConfig(theta0=theta0, **{f.name: getattr(args, f.name)
                                              for f in fields(PgdConfig) if hasattr(args, f.name)})
        except ValueError as exc:
            raise ConfigError(f"solver settings: {exc}") from exc
        try:
            report = violina_fit(train, spec, cfg)
        except MemoryError as exc:  # the engine's stack buffer grows with the bandwidth
            raise ConfigError(f"solver settings: bandwidth {spec.on_D.Q}: {exc}") from exc
        except SolverError as exc:  # a numeric failure, which main reports as such
            raise ValueError(str(exc)) from exc
        _dump_json(out, report.theta_final.to_dict())
        if curve:
            _dump_csv(curve, ("step", "loss", "stepsize", "backtracks"),
                      zip(range(report.steps + 1), report.loss_curve,
                          (report.initial_stepsize, *report.stepsizes),
                          (0, *report.backtracks)))
    if not args.quiet:
        print(f"fit: {report.steps} steps, loss {report.loss_curve[0]:.6e} -> "
              f"{report.loss_curve[-1]:.6e}, model written to {args.out}")
    return EXIT_OK


def cmd_dmdc(args) -> int:
    from .dmdc import as_model, dmdc_fit, dmdc_rank_scan

    if args.rank is not None and args.scan_csv:
        raise ConfigError("--scan-csv needs the rank scan, which --rank skips")
    if args.pooled and args.fit_index is not None:
        raise ConfigError("--fit-index picks the one trajectory to fit, "
                          "but --pooled fits them all")
    fit_index = None if args.pooled else args.fit_index or 0
    with _publishing() as stage:
        out, scan_csv = stage(args.out), stage(args.scan_csv) if args.scan_csv else None
        train = _open_dataset(args.train)
        try:
            if args.rank is not None:
                rank, scan = args.rank, None
                try:
                    A, B = dmdc_fit(train, rank, None if fit_index is None else [fit_index])
                except ValueError as exc:  # only an unattainable --rank
                    raise ConfigError(f"--rank: {exc}") from exc
            else:
                scan = dmdc_rank_scan(train, fit_index)
                rank, A, B = scan.best_rank, scan.A, scan.B
        except IndexError:  # no trajectory --fit-index, known once all are read
            _check_index("--fit-index", fit_index, train.size)
            raise
        _dump_json(out, as_model(A, B, train.m).to_dict())
        if scan_csv:
            _dump_csv(scan_csv, ("rank", "mean_self_reconstruction_error"),
                      zip(scan.ranks, scan.errors))
    if not args.quiet:
        note = f" (scanned {len(scan.ranks)} ranks)" if scan is not None else ""
        print(f"dmdc: rank {rank}{note}, model written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------- simulate / evaluate

def _predict(model: StateSpaceModel, traj: Trajectory, m: int) -> Trajectory:
    return model.simulate(traj.states[:, : model.kernel.q + 1], traj.inputs[:, :m])


def _load_model_and_dataset(args) -> tuple[StateSpaceModel, Dataset]:
    """The model and dataset of ``--model`` and ``--dataset``, whose state and
    input counts must agree, and whose ``m`` must give the recursion at
    least the ``q + 1`` inputs it needs.  The kernel's ``m`` need not be the
    dataset's: ``_predict`` runs the recursion, which reads only the
    kernel's ``q`` and ``coeffs``, so a model runs on data of any such
    length.  A model with a dense kernel has no recursion and raises
    ``ValueError``."""
    model = _parse_file(args.model, StateSpaceModel.from_dict)
    data = _open_dataset(args.dataset)
    if (model.n, model.k) != (data.n, data.k):
        raise ConfigError(
            f"{args.model}: model (n, k) = {(model.n, model.k)} does not match "
            f"{args.dataset}: dataset (n, k) = {(data.n, data.k)}")
    if not isinstance(model.kernel, CausalBandKernel):
        raise ValueError("cannot simulate a model with a dense kernel")
    if data.m < model.kernel.q + 1:
        raise ConfigError(
            f"{args.model}: model q = {model.kernel.q} needs at least "
            f"q+1 = {model.kernel.q + 1} inputs, but {args.dataset}: dataset m = {data.m}")
    return model, data


def cmd_simulate(args) -> int:
    model, data = _load_model_and_dataset(args)
    with _publishing() as stage:
        size = _dump_dataset(stage(args.out),
                             (_predict(model, traj, data.m) for traj in data.trajectories),
                             data.q, data.m)
    if not args.quiet:
        print(f"simulated {size} trajectories to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    with _publishing() as stage:
        report_csv = stage(args.report)
        aggregate_json = stage(args.aggregate) if args.aggregate else None
        model, data = _load_model_and_dataset(args)
        header = ("trajectory", "rel_error") + (("max_abs_denergy",) if args.energy else ())
        rows = []
        energy_max = 0.0
        if args.energy:
            from .synth import energy_deviation
        for i, traj in enumerate(data.trajectories):
            pred = _predict(model, traj, data.m)
            truth = traj.states[:, : data.m + 1]
            row = (i, relative_error(pred.states, truth, first=model.kernel.q + 1))
            if args.energy:
                if i == 0:
                    e0 = float(traj.states[:, 0].sum())
                dev = energy_deviation(pred, Trajectory(truth, traj.inputs[:, : data.m]))
                row += (float(np.max(np.abs(dev))),)
                energy_max = max(energy_max, row[2])
            rows.append(row)

        errors = [row[1] for row in rows]
        mean_error = float(np.mean(errors))
        # JSON has no infinity or NaN: a value that is not finite is written as null
        aggregate = {
            "mean_rel_error": _finite_or_none(mean_error),
            "max_rel_error": _finite_or_none(np.max(errors)),
            "trajectories": len(rows),
        }
        if args.energy:
            aggregate["max_energy_deviation"] = _finite_or_none(energy_max)
            # undefined for a zero-energy start
            aggregate["max_energy_deviation_rel"] = (
                _finite_or_none(energy_max / abs(e0)) if e0 else None)
        _dump_csv(report_csv, header, rows)
        if aggregate_json:
            _dump_json(aggregate_json, aggregate)
    if not args.quiet:
        print(f"evaluate: mean rel error {mean_error:.6e} over {len(rows)} trajectories")
    return EXIT_OK


# -------------------------------------------------------------------- plot

def _read_csv_series(path, x_col, y_col):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or x_col not in reader.fieldnames \
                    or y_col not in reader.fieldnames:
                raise ConfigError(f"{path}: need columns {x_col!r} and {y_col!r}")
            xs, ys = [], []
            for row in reader:
                try:
                    xs.append(float(row[x_col]))
                    ys.append(float(row[y_col]))
                except (TypeError, ValueError):  # a non-numeric cell or a short row
                    raise ConfigError(
                        f"{path}: line {reader.line_num} needs numbers in {x_col!r} and "
                        f"{y_col!r}, got {row[x_col]!r} and {row[y_col]!r}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
    if not xs:
        raise ConfigError(f"{path}: no data rows")
    return xs, ys


def _trajectory_at(data, index: int) -> Trajectory | None:
    """Trajectory ``index`` of ``data``, or ``None`` when there is none,
    after every trajectory is read."""
    kept = None
    for i, traj in enumerate(data.trajectories):
        if i == index:
            kept = traj
    return kept


def cmd_plot(args) -> int:
    from .svgplot import panel_plot

    if args.kind == "curve":
        if not args.inputs:
            raise ConfigError("plot curve: need at least one CSV input")
        series = []
        for path in args.inputs:
            xs, ys = _read_csv_series(path, args.x_col, args.y_col)
            series.append((Path(path).stem, xs, ys))
        svg = panel_plot([(args.title, series)], panel_height=420, xlabel=args.x_col,
                         ylabel=args.y_col, logy=not args.linear)
    else:  # traces
        for flag, path in (("--truth", args.truth), ("--pred", args.pred)):
            if path is None:
                raise ConfigError(f"plot traces: need {flag} DATASET")
        truth = _open_dataset(args.truth)
        t_traj = _trajectory_at(truth, args.traj)
        pred = _open_dataset(args.pred)
        p_traj = _trajectory_at(pred, args.traj)
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
        t_states = t_traj.states[:, : truth.m + 1]
        p_states = p_traj.states[:, : truth.m + 1]
        ts = list(range(truth.m + 1))
        panels = [(f"cell {c}", [("truth", ts, t_states[c].tolist()),
                                 ("model", ts, p_states[c].tolist(), True)])
                  for c in cells]
        svg = panel_plot(panels, xlabel="t", ylabel="state")
    with _publishing() as stage:
        stage(args.out).write_text(svg, encoding="utf-8", newline="")
    if not args.quiet:
        print(f"plot written to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    means = {}
    for label, path in (("a", args.a), ("b", args.b)):
        _, ys = _read_csv_series(path, "trajectory", args.metric)
        means[label] = float(np.mean(ys))
    # a zero mean_b leaves the ratio undefined; JSON writes it, and any value
    # that is not finite, as null
    ratio = _finite_or_none(means["a"] / means["b"]) if means["b"] else None
    result = {"mean_a": _finite_or_none(means["a"]), "mean_b": _finite_or_none(means["b"]),
              "ratio_a_over_b": ratio}
    if args.out:
        with _publishing() as stage:
            _dump_json(stage(args.out), result)
    if not args.quiet:
        print(f"compare: mean_a={means['a']:.6e} mean_b={means['b']:.6e} "
              f"ratio={'undefined' if ratio is None else f'{ratio:.4f}'}")
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
    p.add_argument("--bandwidth", type=int, default=None,
                   help="kernel bandwidth Q (default: q + 1)")
    # the solver settings, named as PgdConfig's fields; one not given stays
    # out of args, so that PgdConfig alone holds the defaults
    p.add_argument("--t0", type=float, default=argparse.SUPPRESS)
    p.add_argument("--eta", type=float, default=argparse.SUPPRESS)
    p.add_argument("--steps", dest="max_steps", metavar="STEPS", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--stop-tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--curve", help="learning-curve CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("dmdc", help="fit the DMDc baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--rank", type=int, default=None,
                   help="fixed rank (default: scan for the best)")
    p.add_argument("--fit-index", type=int, default=None,
                   help="the fit trajectory (default 0); not with --pooled")
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
        # a diverging model is reported by the one error line below, or as
        # null in a report, not by numpy's warnings as well
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
