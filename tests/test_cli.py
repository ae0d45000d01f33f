import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import violina
from violina import Dataset, StateSpaceModel, Trajectory
from violina.cli import main

TINY = {"Lx": 5, "Ly": 2, "m": 30, "seed": 13, "q": 2, "Q": 3,
        "coeffs": [0.03, -0.01], "w0": 0.5, "w1": 1.5}


def _load_dataset(path) -> Dataset:
    """The whole dataset in ``path``, read by the CLI's ``_open_dataset``:
    the stream, which continues on the list path when it stops taking the
    file, or the list path when the stream cannot open it.  The list path
    raises the error (with its line number) that ``json.load`` gives, or
    parses the layouts the stream does not take."""
    from violina import cli

    data = cli._open_dataset(path)
    return Dataset(data.trajectories, data.q, data.m)


def _numbers(t: dict) -> dict:
    """The parsed trajectory ``t`` with its arrays as lists of numbers, the
    layout of data written by other programs."""
    traj = Trajectory.from_dict(t)
    return dict(t, states=traj.states.T.tolist(), inputs=traj.inputs.T.tolist())


def _as_numbers(d: dict) -> dict:
    """The parsed dataset ``d`` with every trajectory's arrays as lists of
    numbers."""
    return dict(d, trajectories=[_numbers(t) for t in d["trajectories"]])


@pytest.fixture
def suite_dir(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    out = tmp_path / "suite"
    assert main(["--quiet", "generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_generate_writes_expected_files(suite_dir):
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    assert manifest["grid"] == {"Lx": 5, "Ly": 2, "w0": 0.5, "w1": 1.5, "seed": 13}
    assert manifest["h"] == pytest.approx(1.0 / 29.0)
    assert len(manifest["mask"]) == 10
    for name in ("markov", "nonmarkov"):
        assert (suite_dir / manifest["models"][name]).exists()
        for kind in ("train", "test", "energy"):
            assert (suite_dir / manifest["datasets"][name][kind]).exists()
    train = Dataset.from_dict(json.loads((suite_dir / "markov_train.json").read_text()))
    assert train.size == 8  # 2 sigma * 2 nu * 2 rows


def test_generate_deterministic_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--quiet", "generate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--quiet", "generate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("manifest.json", "nonmarkov_train.json", "markov_model.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["--quiet", "generate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    cfg.write_text(json.dumps({"Ly": 2, "m": 30}))  # missing Lx
    assert main(["--quiet", "generate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    # out-of-range values, each with the message of the check it fails
    for bad, seed, message in [
        ({"Lx": 2}, [], "circumference must be at least 3"),
        ({"q": 5, "Q": 3}, [], "0 <= q <= Q <= m"),
        ({"coeffs": [0.03]}, [], "expected 2 coefficients, got 1"),
        ({"w0": -1}, [], "need 0 < w0 <= w1"),
        ({"m": 1}, [], "need m >= 2"),
        ({"m": 10 ** 400}, [], "m is too large for a float"),
        ({}, ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ({"Lx": 5.5}, [], "'Lx' must be an integer, got 5.5"),
        ({"m": 30.0}, [], "'m' must be an integer, got 30.0"),
        ({"Q": "3"}, [], "'Q' must be an integer, got '3'"),
        ({"seed": True}, [], "'seed' must be an integer, got True"),
        ({"w0": True}, [], "'w0': true/false is not a number"),
        ({"w1": "1.5"}, [], "'w1': a string is not a number"),
        ({"w1": float("nan")}, [], "'w1' holds non-finite values"),
        ({"coeffs": ["0.03", True]}, [], "'coeffs': a string is not a number"),
        ({"coeffs": [0.03, True]}, [], "'coeffs': true/false is not a number"),
        ({"coeffs": 0.03}, [], "'coeffs' must be a flat list, got shape ()"),
        ({"seeed": 5, "coefs": [0.5, 0.5]}, [], "unknown member 'seeed'; a config holds only "
         "Lx, Ly, m, seed, w0, w1, q, Q, coeffs"),
    ]:
        cfg.write_text(json.dumps({**TINY, **bad}))
        capsys.readouterr()
        assert main(["--quiet", "generate", "--config", str(cfg),
                     "--out", str(tmp_path / "x"), *seed]) == 2, bad or seed
        err = capsys.readouterr().err
        assert f"{cfg}: benchmark config: " in err and message in err


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["no-seed", "seed"])
@pytest.mark.parametrize("text", ["[1, 2]", "7", '"desk"', "null"])
def test_generate_config_not_an_object_exit_2(tmp_path, capsys, seed, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["--quiet", "generate", "--config", str(cfg),
                 "--out", str(tmp_path / "x"), *seed]) == 2
    assert f"{cfg}: the benchmark config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("config, size", [
    ({"Lx": 100000, "Ly": 1000, "m": 10}, "71.1 PiB"),
    ({"Lx": 3, "Ly": 1, "m": 1000000000000000}, "7.11 PiB"),
], ids=["grid", "length"])
def test_generate_config_too_large_to_allocate_exit_2(tmp_path, capsys, config, size):
    """A config whose arrays exceed any address space, the grid's Laplacian
    (``build_cylinder_graph``) or one input's time axis (``make_input``),
    exits 2 with one line naming the config, and leaves no output
    directory."""
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out" / "suite"
    assert main(["--quiet", "generate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: benchmark config: Unable to allocate {size}")
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


def test_generate_missing_file_exit_3(tmp_path):
    assert main(["--quiet", "generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 3


def test_fit_evaluate_round_trip(suite_dir, tmp_path):
    model = tmp_path / "model.json"
    curve = tmp_path / "curve.csv"
    rc = main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
               "--constraints", "a1b", "--mask", str(suite_dir / "manifest.json"),
               "--steps", "60", "--out", str(model), "--curve", str(curve)])
    assert rc == 0
    fitted = StateSpaceModel.from_dict(json.loads(model.read_text()))
    assert np.array_equal(fitted.A, fitted.A.T)
    off = fitted.A - np.diag(np.diag(fitted.A))
    assert off.min() >= 0.0
    assert curve.read_text().splitlines()[0] == "step,loss,stepsize,backtracks"

    report = tmp_path / "report.csv"
    agg = tmp_path / "agg.json"
    rc = main(["--quiet", "evaluate", "--model", str(model),
               "--dataset", str(suite_dir / "markov_test.json"),
               "--report", str(report), "--aggregate", str(agg)])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "trajectory,rel_error"
    assert len(lines) == 9
    assert 0 <= json.loads(agg.read_text())["mean_rel_error"] < 10


def test_evaluate_ground_truth_model_is_exact(suite_dir, tmp_path):
    report = tmp_path / "r.csv"
    agg = tmp_path / "a.json"
    rc = main(["--quiet", "evaluate", "--model", str(suite_dir / "nonmarkov_model.json"),
               "--dataset", str(suite_dir / "nonmarkov_test.json"),
               "--report", str(report), "--aggregate", str(agg)])
    assert rc == 0
    assert json.loads(agg.read_text())["max_rel_error"] <= 1e-8


def test_evaluate_zero_model_unit_error(suite_dir, tmp_path):
    model_dict = json.loads((suite_dir / "markov_model.json").read_text())
    model_dict["A"] = (np.zeros((10, 10))).tolist()
    model_dict["B"] = (np.zeros((10, 10))).tolist()
    zero_model = tmp_path / "zero.json"
    zero_model.write_text(json.dumps(model_dict))
    report = tmp_path / "r.csv"
    agg = tmp_path / "a.json"
    assert main(["--quiet", "evaluate", "--model", str(zero_model),
                 "--dataset", str(suite_dir / "markov_test.json"),
                 "--report", str(report), "--aggregate", str(agg)]) == 0
    assert json.loads(agg.read_text())["mean_rel_error"] == pytest.approx(1.0)


def test_dmdc_command_and_schema_identical_reports(suite_dir, tmp_path):
    model = tmp_path / "dmdc.json"
    scan = tmp_path / "scan.csv"
    rc = main(["--quiet", "dmdc", "--train", str(suite_dir / "markov_train.json"),
               "--scan-csv", str(scan), "--out", str(model)])
    assert rc == 0
    assert scan.read_text().splitlines()[0] == "rank,mean_self_reconstruction_error"

    rep_v = tmp_path / "v.csv"
    rep_d = tmp_path / "d.csv"
    fit_model = tmp_path / "fit.json"
    main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
          "--constraints", "free", "--steps", "20", "--out", str(fit_model)])
    main(["--quiet", "evaluate", "--model", str(fit_model),
          "--dataset", str(suite_dir / "markov_test.json"), "--report", str(rep_v)])
    main(["--quiet", "evaluate", "--model", str(model),
          "--dataset", str(suite_dir / "markov_test.json"), "--report", str(rep_d)])
    assert rep_v.read_text().splitlines()[0] == rep_d.read_text().splitlines()[0]

    cmp_json = tmp_path / "cmp.json"
    assert main(["--quiet", "compare", "--a", str(rep_v), "--b", str(rep_d),
                 "--out", str(cmp_json)]) == 0
    assert "ratio_a_over_b" in json.loads(cmp_json.read_text())


def test_simulate_command(suite_dir, tmp_path):
    out = tmp_path / "pred.json"
    rc = main(["--quiet", "simulate", "--model", str(suite_dir / "markov_model.json"),
               "--dataset", str(suite_dir / "markov_energy.json"), "--out", str(out)])
    assert rc == 0
    pred = Dataset.from_dict(json.loads(out.read_text()))
    truth = Dataset.from_dict(json.loads((suite_dir / "markov_energy.json").read_text()))
    np.testing.assert_allclose(pred.trajectories[0].states,
                               truth.trajectories[0].states, atol=1e-10)


def test_evaluate_energy_flag(suite_dir, tmp_path):
    report = tmp_path / "r.csv"
    agg = tmp_path / "a.json"
    rc = main(["--quiet", "evaluate", "--model", str(suite_dir / "markov_model.json"),
               "--dataset", str(suite_dir / "markov_energy.json"),
               "--report", str(report), "--aggregate", str(agg), "--energy"])
    assert rc == 0
    assert report.read_text().splitlines()[0] == "trajectory,rel_error,max_abs_denergy"
    payload = json.loads(agg.read_text())
    assert payload["max_energy_deviation_rel"] <= 1e-10


def test_evaluate_energy_zero_start_writes_null(suite_dir, tmp_path):
    dataset = suite_dir / "markov_test.json"
    first = Dataset.from_dict(json.loads(dataset.read_text())).trajectories[0]
    assert first.states[:, 0].sum() == 0.0  # zero energy: the ratio is undefined
    agg = tmp_path / "a.json"
    assert main(["--quiet", "evaluate", "--model", str(suite_dir / "markov_model.json"),
                 "--dataset", str(dataset), "--report", str(tmp_path / "r.csv"),
                 "--aggregate", str(agg), "--energy"]) == 0
    assert '"max_energy_deviation_rel":null' in agg.read_text()
    assert json.loads(agg.read_text())["max_energy_deviation_rel"] is None


def test_compare_zero_mean_b_writes_null(tmp_path, capsys):
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "cmp.json"
    a.write_text("trajectory,rel_error\n0,0.5\n1,0.25\n")
    b.write_text("trajectory,rel_error\n0,0.0\n1,0.0\n")
    assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"mean_a": 0.375, "mean_b": 0.0,
                                           "ratio_a_over_b": None}
    assert "ratio=undefined" in capsys.readouterr().out


def _strict_json(text):
    """Parse ``text`` as RFC 8259 JSON: the tokens NaN and Infinity are errors."""
    def reject(token):
        raise AssertionError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_evaluate_and_compare_write_null_for_non_finite(suite_dir, tmp_path, capsys):
    # all-zero truth under a model driven by nonzero inputs: every error is inf
    d = json.loads((suite_dir / "markov_test.json").read_text())
    for traj in d["trajectories"]:
        rows, cols, _ = traj["states"]
        traj["states"] = [[0.0] * cols for _ in range(rows)]
    dataset, report, agg = tmp_path / "zero.json", tmp_path / "r.csv", tmp_path / "a.json"
    dataset.write_text(json.dumps(d))
    assert main(["--quiet", "evaluate", "--model", str(suite_dir / "markov_model.json"),
                 "--dataset", str(dataset), "--report", str(report),
                 "--aggregate", str(agg)]) == 0
    assert _strict_json(agg.read_text()) == {
        "max_rel_error": None, "mean_rel_error": None, "trajectories": len(d["trajectories"])}
    b = tmp_path / "b.csv"
    b.write_text("trajectory,rel_error\n0,0.5\n")
    out = tmp_path / "cmp.json"
    assert main(["compare", "--a", str(report), "--b", str(b), "--out", str(out)]) == 0
    assert _strict_json(out.read_text()) == {"mean_a": None, "mean_b": 0.5,
                                             "ratio_a_over_b": None}
    assert "ratio=undefined" in capsys.readouterr().out


def test_simulate_overflow_exit_4_without_non_json_tokens(suite_dir, tmp_path, capsys):
    d = json.loads((suite_dir / "markov_model.json").read_text())
    d["A"] = (1e200 * np.eye(len(d["A"]))).tolist()  # overflows on the second step
    model, out = tmp_path / "model.json", tmp_path / "pred.json"
    model.write_text(json.dumps(d))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["--quiet", "simulate", "--model", str(model),
                   "--dataset", str(suite_dir / "markov_test.json"), "--out", str(out)])
    assert rc == 4
    assert "trajectory 0: the simulated states overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate", "generate"])
def test_diverging_model_prints_only_the_error_line(suite_dir, tmp_path, command):
    # simulate and generate exit 4 with one line and write no file; evaluate
    # reports nan and exits 0; none of them prints a numpy warning
    d = json.loads((suite_dir / "markov_model.json").read_text())
    d["A"] = (1e200 * np.eye(len(d["A"]))).tolist()
    model, cfg, out = tmp_path / "model.json", tmp_path / "cfg.json", tmp_path / "out"
    model.write_text(json.dumps(d))
    cfg.write_text(json.dumps({"Lx": 10, "Ly": 3, "m": 20, "coeffs": [1e308, 1e308]}))
    data = ["--model", str(model), "--dataset", str(suite_dir / "markov_test.json")]
    argv = {"simulate": ["simulate", *data, "--out", str(out)],
            "evaluate": ["evaluate", *data, "--report", str(out)],
            "generate": ["generate", "--config", str(cfg), "--out", str(out)]}[command]
    src = str(Path(violina.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-m", "violina.cli", "--quiet", *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    if command == "evaluate":
        assert (run.returncode, run.stderr) == (0, "")
        assert "nan" in out.read_text()
    else:
        where = "nonmarkov train set: " if command == "generate" else ""
        assert (run.returncode, run.stderr.splitlines()) == (
            4, [f"numeric error: {where}trajectory 0: the simulated states overflow"])
        assert not out.exists()


@pytest.mark.parametrize("t0", ["1e200", "1e308"])
def test_fit_overflowing_stepsize_exit_4_with_one_error_line(suite_dir, tmp_path, t0):
    # a huge finite stepsize overflows the first trial point; the fit stops
    # with the numeric exit code and prints no numpy warning before it
    src = str(Path(violina.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = tmp_path / "fit.json"
    run = subprocess.run(
        [sys.executable, "-m", "violina.cli", "--quiet", "fit",
         "--train", str(suite_dir / "markov_train.json"), "--constraints", "a2b",
         "--mask", str(suite_dir / "manifest.json"), "--steps", "3", "--t0", t0,
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 4
    assert run.stderr.splitlines() == ["numeric error: loss became non-finite at step 0"]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["dataset", "model", "mask", "config", "plot-csv",
                                  "compare-csv"])
def test_non_utf8_input_exit_2_names_the_file(suite_dir, tmp_path, capsys, kind):
    source = {"dataset": suite_dir / "markov_test.json",
              "model": suite_dir / "markov_model.json",
              "mask": suite_dir / "manifest.json"}.get(kind)
    body = source.read_bytes() if source else (
        json.dumps(TINY).encode() if kind == "config" else b"trajectory,rel_error\n0,0.5\n")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(body[:20] + b"\xff" + body[20:])
    out = str(tmp_path / "out")
    argv = {
        "dataset": ["evaluate", "--model", str(suite_dir / "markov_model.json"),
                    "--dataset", str(bad), "--report", out],
        "model": ["evaluate", "--model", str(bad),
                  "--dataset", str(suite_dir / "markov_test.json"), "--report", out],
        "mask": ["fit", "--train", str(suite_dir / "markov_train.json"), "--mask", str(bad),
                 "--steps", "1", "--out", out],
        "config": ["generate", "--config", str(bad), "--out", out],
        "plot-csv": ["plot", "--kind", "curve", "--x-col", "trajectory", "--y-col",
                     "rel_error", str(bad), "--out", out],
        "compare-csv": ["compare", "--a", str(bad), "--b", str(bad)],
    }[kind]
    assert main(["--quiet", *argv]) == 2
    assert f"{bad}: not UTF-8 text (invalid start byte: byte 0xff)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("mismatch", ["n", "k"])
def test_model_dataset_size_mismatch_exit_2(suite_dir, tmp_path, capsys, command,
                                            mismatch):
    model = tmp_path / "model.json"
    if mismatch == "n":  # the ground truth of a smaller grid
        cfg = tmp_path / "cfg2.json"
        cfg.write_text(json.dumps(dict(TINY, Lx=4, Ly=2)))
        other = tmp_path / "other"
        assert main(["--quiet", "generate", "--config", str(cfg), "--out", str(other)]) == 0
        model.write_text((other / "markov_model.json").read_text())
        shapes = "(n, k) = (8, 8)", "(n, k) = (10, 10)"
    else:  # one input column too few
        d = json.loads((suite_dir / "markov_model.json").read_text())
        d["B"] = [row[:-1] for row in d["B"]]
        d["k"] = 9
        model.write_text(json.dumps(d))
        shapes = "(n, k) = (10, 9)", "(n, k) = (10, 10)"
    dataset = suite_dir / "markov_test.json"
    out = tmp_path / "out"
    dest = ["--report", str(out)] if command == "evaluate" else ["--out", str(out)]
    rc = main(["--quiet", command, "--model", str(model), "--dataset", str(dataset), *dest])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{model}: model {shapes[0]} does not match {dataset}: dataset {shapes[1]}" \
        in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_dataset_shorter_than_the_model_memory_exit_2(suite_dir, tmp_path, capsys, command):
    """A dataset whose ``m`` is below the model's ``q + 1`` cannot start
    the recursion: a model/dataset mismatch, refused before any output is
    written; ``m = q + 1`` runs."""
    from violina.cli import _dump_dataset

    model = suite_dir / "nonmarkov_model.json"  # q = 2
    first = _load_dataset(suite_dir / "nonmarkov_test.json").trajectories[0]
    for m, rc in ((2, 2), (3, 0)):
        dataset = tmp_path / f"m{m}.json"
        _dump_dataset(dataset, [Trajectory(first.states[:, : m + 1], first.inputs[:, :m])], 0, m)
        out = tmp_path / f"out{m}"
        dest = ["--report", str(out)] if command == "evaluate" else ["--out", str(out)]
        capsys.readouterr()
        assert main(["--quiet", command, "--model", str(model), "--dataset", str(dataset),
                     *dest]) == rc
        if rc:
            assert capsys.readouterr().err == (
                f"error: {model}: model q = 2 needs at least q+1 = 3 inputs, "
                f"but {dataset}: dataset m = 2\n")
            assert not out.exists()
            assert not list(tmp_path.rglob(".*.tmp"))
        else:
            assert out.exists()


@pytest.mark.parametrize("layout", ["packed", "numbers"])
@pytest.mark.parametrize("k", [2, 0])
@pytest.mark.parametrize("command", ["fit", "dmdc"])
def test_dataset_without_state_variables_exit_2(tmp_path, capsys, layout, k, command):
    """A dataset whose trajectories have no state variable (``n = 0``) is
    refused where trajectories are checked, by the stream and by the list
    path alike, with one line and no output file."""
    from violina.cli import _dump_dataset

    dataset = tmp_path / "n0.json"
    _dump_dataset(dataset, [Trajectory(np.zeros((0, 6)), np.ones((k, 5)))], 0, 5)
    if layout == "numbers":
        dataset.write_text(json.dumps(_as_numbers(json.loads(dataset.read_text()))))
    out = tmp_path / "model.json"
    extra = ["--constraints", "free", "--steps", "2"] if command == "fit" else []
    rc = main(["--quiet", command, "--train", str(dataset), *extra, "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (
        2, f"error: {dataset}: trajectory 0 has no state variable (n = 0)\n")
    assert not out.exists()


def test_malformed_dataset_exit_2_names_the_trajectory(suite_dir, tmp_path, capsys):
    good = _as_numbers(json.loads((suite_dir / "markov_test.json").read_text()))

    def broken(edit):
        d = json.loads(json.dumps(good))
        edit(d)
        return d

    cases = {
        "'q'": broken(lambda d: d.pop("q")),
        "trajectory 1: missing field 'inputs'": broken(
            lambda d: d["trajectories"][1].pop("inputs")),
        "trajectory 1: ": broken(
            lambda d: d["trajectories"][1]["states"][3].pop()),
        "trajectory 1: 'states' holds non-finite values": broken(
            lambda d: d["trajectories"][1]["states"][5].__setitem__(0, float("nan"))),
        "trajectory 1 has 21 states but m=30 needs 31": broken(
            lambda d: d["trajectories"][1].update(states=d["trajectories"][1]["states"][:21],
                                                  inputs=d["trajectories"][1]["inputs"][:20])),
        "need 0 <= q < m, got q=30, m=30": broken(lambda d: d.__setitem__("q", 30)),
        "need 0 <= q < m, got q=-1, m=30": broken(lambda d: d.__setitem__("q", -1)),
        "'q' must be an integer, got 1.7": broken(lambda d: d.__setitem__("q", 1.7)),
        "'q' must be an integer, got True": broken(lambda d: d.__setitem__("q", True)),
        "'m' must be an integer, got 30.0": broken(lambda d: d.__setitem__("m", 30.0)),
        "'q' must be an integer, got [[": broken(
            lambda d: d.__setitem__("q", d["trajectories"][0]["states"])),
        # three rows, the last a string, are rows, not a packed array
        "trajectory 1: 'inputs': a string is not a number": broken(
            lambda d: d["trajectories"][1].__setitem__("inputs", [[0.0], [1.0], "1.5"])),
        "trajectory 1: 'inputs': setting an array element with a sequence": broken(
            lambda d: d["trajectories"][1]["inputs"][2].pop()),
        "trajectory 0: 'states': Maximum allowed dimension exceeded": broken(
            lambda d: d["trajectories"][0].__setitem__("states", [10 ** 30, 2, "", []])),
    }
    for i, (expected, data) in enumerate(cases.items()):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        for argv in (
            ["fit", "--train", str(path), "--constraints", "free", "--steps", "1",
             "--out", str(tmp_path / "m.json")],
            ["evaluate", "--model", str(suite_dir / "markov_model.json"),
             "--dataset", str(path), "--report", str(tmp_path / "r.csv")],
        ):
            assert main(["--quiet"] + argv) == 2, (expected, argv[0])
            err = capsys.readouterr().err
            assert str(path) in err and expected in err, err
            assert len(err.encode()) < 1024, err


@pytest.fixture(scope="module")
def desk_files(tmp_path_factory):
    from violina import BenchmarkConfig, build_benchmark_suite
    from violina.cli import _dump_dataset

    system = build_benchmark_suite(BenchmarkConfig.desk_scale()).nonmarkov
    out = tmp_path_factory.mktemp("desk")
    for kind in ("train", "test"):
        data = getattr(system, kind)
        _dump_dataset(out / f"{kind}.json", data.trajectories, data.q, data.m)
    return out


@pytest.mark.parametrize("kind", ["train", "test"])
def test_dataset_reader_matches_list_path(desk_files, kind):
    path = desk_files / f"{kind}.json"
    read = _load_dataset(path).trajectories
    listed = Dataset.from_dict(json.loads(path.read_text())).trajectories
    for a, b in zip(read, listed, strict=True):
        for x, y in ((a.states, b.states), (a.inputs, b.inputs)):
            assert (x.dtype, x.shape, x.strides) == (y.dtype, y.shape, y.strides)
            assert x.tobytes() == y.tobytes()


def test_canonical_sets_never_fall_back(desk_files, monkeypatch):
    """Every array violina writes has the canonical base64, so the pair table
    decodes all of it, the padded last groups too: with ``base64.b64decode``
    made to raise, the desk train and test sets read through the stream and
    through the list path to the arrays they read to with it."""
    import base64

    paths = [desk_files / f"{kind}.json" for kind in ("train", "test")]
    texts = [a[2] for p in paths for t in json.loads(p.read_text())["trajectories"]
             for a in t.values()]
    assert any(t.endswith("=") for t in texts) and not all(t.endswith("=") for t in texts)
    expected = [_load_dataset(p).trajectories for p in paths]

    def refuse(*args, **kwargs):
        raise AssertionError("base64.b64decode decoded a canonical text")

    monkeypatch.setattr(base64, "b64decode", refuse)
    for path, want in zip(paths, expected):
        for read in (_load_dataset(path), Dataset.from_dict(json.loads(path.read_text()))):
            for a, b in zip(read.trajectories, want, strict=True):
                assert a.states.tobytes() == b.states.tobytes()
                assert a.inputs.tobytes() == b.inputs.tobytes()


def test_dataset_reader_yields_json_loads_of_each_trajectory(monkeypatch):
    """The byte split of each trajectory gives what ``json.loads`` gives:
    ``[int, int, str]`` per array, or ``[int, int, str, [int, …]]`` when
    all-zero columns are left out, for base64 with 0, 2 and 1 ``=`` in
    either form, for arrays with no rows or no columns and for empty,
    one-column and two-column lists, read in chunks of several sizes."""
    import io

    import violina.cli as cli
    from violina.kernel import pack_json

    arrays = [np.arange(3.0).reshape(3, 1), np.array([[-0.0, 5e-324]]),
              np.arange(4.0).reshape(2, 2) / 3, np.empty((3, 0)), np.empty((0, 2)),
              np.zeros((2, 3)), np.array([[0.0, 1.5]]), np.array([[0.0, 1.5], [0.0, -2.0]]),
              np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 3.0, 0.0], [4.0, 0.0, 0.0, 0.0]])]
    assert [pack_json(a).count(b"=") for a in arrays] == [0, 2, 1, 0, 0, 0, 1, 2, 0]
    assert [pack_json(a).count(b"[") for a in arrays] == [1, 1, 1, 1, 2, 2, 2, 2, 2]
    text = (b'{"m":2,"q":0' + cli._HEAD_END
            + b",".join(b'{"inputs":%s,"states":%s}' % (pack_json(u), pack_json(x))
                        for u, x in itertools.product(arrays, repeat=2)) + b"]}\n")
    whole = json.loads(text)["trajectories"]
    for chunk in (1, 7, 1 << 20):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        head, *objects = cli._read_dataset_json(io.BytesIO(text))
        assert head == {"m": 2, "q": 0, "trajectories": []}
        assert [list(o.items()) for o in objects] == [list(o.items()) for o in whole]
        items = [a for o in objects for a in o.values()]
        assert {tuple(map(type, a)) for a in items} == {(int, int, str), (int, int, str, list)}
        assert {type(j) for a in items if len(a) == 4 for j in a[3]} == {int}


def test_stream_reads_left_out_columns_bit_exact(tmp_path, monkeypatch):
    """Arrays with ``+0.0`` columns, which the writer leaves out, with
    ``-0.0`` and ``5e-324`` columns, which it stores, and all-zero inputs
    (``[]``) go through the stream, in chunks of several sizes, with every
    bit, and the list path reads the same."""
    import violina.cli as cli

    tiny = 5e-324
    states = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, tiny, -tiny]])
    trajs = [Trajectory(states, np.array([[0.0] * 3, [-0.0] * 3, [tiny, 1.0, tiny], [0.0] * 3])),
             Trajectory(states[::-1], np.zeros((4, 3))),
             Trajectory(states + 1.0, np.array([[0.0, -0.0, 0.0], [0.0] * 3, [2.0] * 3, [tiny] * 3]))]
    path = tmp_path / "columns.json"
    assert cli._dump_dataset(path, trajs, 0, 3) == 3
    text = path.read_bytes()
    assert text == (json.dumps(Dataset(trajs, 0, 3).to_dict(), sort_keys=True,
                               separators=(",", ":")) + "\n").encode()
    lists = [t[key][3] for t in json.loads(text)["trajectories"] for key in ("inputs", "states")
             if len(t[key]) == 4]
    assert lists == [[1, 2], [0, 2], [], [0, 2], [0, 2, 3]]
    listed = cli._parse_file(path, Dataset.from_dict).trajectories
    for chunk in (1, 7, 1 << 20):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        stream = cli._DatasetStream(path)
        for got, traj, other in zip(stream.trajectories, trajs, listed, strict=True):
            for key in ("states", "inputs"):
                x, y, z = (getattr(t, key) for t in (got, traj, other))
                assert x.tobytes() == y.tobytes() == z.tobytes() and x.shape == y.shape


def _packed_whole(d: dict) -> dict:
    """The parsed dataset ``d`` with every array packed whole,
    ``[rows, cols, "<base64>"]``, the layout violina wrote before it left
    all-zero columns out."""
    import binascii

    def whole(a):
        return [*a.shape, binascii.b2a_base64(a.astype("<f8").tobytes(), newline=False).decode()]

    trajs = map(Trajectory.from_dict, d["trajectories"])
    return dict(d, trajectories=[{"inputs": whole(t.inputs.T), "states": whole(t.states.T)}
                                 for t in trajs])


def test_three_item_suite_reads_as_the_new_one(contract_files, tmp_path):
    """Every dataset of the desk suite, rewritten with its arrays packed
    whole and, from there, with lists of numbers, reads bitwise as the new
    file, through the stream and the list path.  The new files leave the
    all-zero input columns out (all of them in the energy sets), are
    smaller, and hold the same states items."""
    from violina import cli
    from violina.synth import KINDS

    suite = contract_files["model"].parent
    for name in (f"{system}_{kind}.json" for system in ("markov", "nonmarkov") for kind in KINDS):
        new = json.loads((suite / name).read_text())
        old = _packed_whole(new)
        whole, numbers = tmp_path / name, tmp_path / f"numbers_{name}"
        whole.write_text(json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n")
        numbers.write_text(json.dumps(_as_numbers(old)))
        assert whole.stat().st_size > (suite / name).stat().st_size
        assert [t["states"] for t in new["trajectories"]] == \
            [t["states"] for t in old["trajectories"]]
        assert {len(t["inputs"]) for t in new["trajectories"]} == {4}
        if name.endswith("_energy.json"):
            assert {(t["inputs"][2], len(t["inputs"][3])) for t in new["trajectories"]} == {("", 0)}
        reads = [list(cli._DatasetStream(suite / name).trajectories),
                 list(cli._DatasetStream(whole).trajectories),
                 cli._parse_file(suite / name, Dataset.from_dict).trajectories,
                 cli._parse_file(whole, Dataset.from_dict).trajectories,
                 cli._parse_file(numbers, Dataset.from_dict).trajectories]
        for trajs in zip(*reads, strict=True):
            for key in ("states", "inputs"):
                assert len({(a.dtype, a.shape, a.strides, a.tobytes())
                            for a in (getattr(t, key) for t in trajs)}) == 1, (name, key)


def test_dataset_reader_peak_memory(desk_files, monkeypatch):
    """Read 16 KiB at a time, far less than the file, the reader never holds
    the whole text: beside the arrays it returns, its peak is below half the
    file's size, for the train and the test set."""
    import tracemalloc

    from violina import cli

    monkeypatch.setattr(cli, "_CHUNK", 1 << 14)
    for kind in ("train", "test"):
        path = desk_files / f"{kind}.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            data = _load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        arrays = sum(t.states.nbytes + t.inputs.nbytes for t in data.trajectories)
        assert peak <= arrays + path.stat().st_size / 2, (kind, peak, arrays)


def _set_cell(value):
    return lambda d: d["trajectories"][1]["states"][3].__setitem__(0, value)


def _packed_1(**change):
    """Trajectory 1 packed again, each array ``key`` in ``change`` replaced
    by ``change[key]`` of it."""
    from violina.kernel import pack_floats

    def edit(d):
        t = d["trajectories"][1]
        for key in ("states", "inputs"):
            t[key] = pack_floats(change.get(key, lambda a: a)(np.array(t[key])))
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_cell("a"), "trajectory 1: 'states': a string is not a number"),
    (_set_cell("1.5"), "trajectory 1: 'states': a string is not a number"),
    (lambda d: d["trajectories"][1]["inputs"][2].__setitem__(0, " 3 "),
     "trajectory 1: 'inputs': a string is not a number"),
    (lambda d: d["trajectories"][1]["states"][3].__setitem__(slice(0, 2), ["1.5", None]),
     "trajectory 1: 'states': a string is not a number"),
    (_set_cell(None), "trajectory 1: 'states' holds non-finite values"),
    (_set_cell({"states": [[1.0]]}), "trajectory 1: 'states': float() argument must be"),
    (_set_cell(10 ** 400), "trajectory 1: 'states': int too large to convert to float"),
    (lambda d: d["trajectories"][1].__setitem__("inputs", [[1.0], [10 ** 400]]),
     "trajectory 1: 'inputs': int too large to convert to float"),
    (lambda d: d.update(states=[[1.0, 2.0], [3.0]]), None),
    (lambda d: (d.update(d.pop("trajectories")[0]), d.pop("q")), "missing field 'q'"),
    (_set_cell(True), "trajectory 1: 'states': true/false is not a number"),
    (lambda d: d["trajectories"][1]["inputs"][2].__setitem__(0, False),
     "trajectory 1: 'inputs': true/false is not a number"),
    (lambda d: d["trajectories"][1].update(states=[r[:-1] for r in d["trajectories"][1]["states"]]),
     "trajectory 1 has shape"),
    (lambda d: d["trajectories"][1].update(states=d["trajectories"][1]["states"][:2],
                                           inputs=d["trajectories"][1]["inputs"][:1]),
     "trajectory 1 has 2 states but m="),
    (_packed_1(states=lambda a: a[:, :-1]), "trajectory 1 has shape"),
    (_packed_1(states=lambda a: a[:2], inputs=lambda a: a[:1]),
     "trajectory 1 has 2 states but m="),
], ids=["string-cell", "number-string-cell", "number-string-input",
        "string-next-to-null", "null-cell", "object-cell", "too-large-int", "too-large-input",
        "top-level-states", "trajectory-at-top-level", "bool-cell", "bool-input",
        "narrow-trajectory", "short-trajectory", "packed-narrow-trajectory",
        "packed-short-trajectory"])
def test_dataset_reader_errors_match_list_path(suite_dir, tmp_path, capsys, monkeypatch,
                                              edit, message):
    """Each file, in ``json.dumps``' default layout and in the compact one
    the stream reads, exits as the list path
    ``Dataset.from_dict(json.load(...))`` parses it: 2 with its message, or
    0 when it parses.  Trajectory 1 is edited as lists of numbers, and
    packed again by the ``packed-`` cases.  The stream stops taking a
    compact file with a fault in trajectory 1, and continues on the list
    path, after it has yielded trajectory 0, and, when trajectory 1 is
    packed, after its own checks of it."""
    import violina.cli as cli
    from violina.kernel import packed

    d = json.loads((suite_dir / "markov_test.json").read_text())
    d["trajectories"][1] = _numbers(d["trajectories"][1])
    edit(d)
    yielded = []
    read = cli._read_dataset_json

    def traced(fh):
        for obj in read(fh):
            yielded.append(obj)
            yield obj
    monkeypatch.setattr(cli, "_read_dataset_json", traced)
    path = tmp_path / "bad.json"
    for separators in (None, (",", ":")):
        path.write_text(json.dumps(d, separators=separators))
        try:
            Dataset.from_dict(json.loads(path.read_text()))
            expected = (0, "")
        except (ValueError, TypeError) as exc:
            expected = (2, f"error: {path}: {exc}\n")
        rc = main(["--quiet", "evaluate", "--model", str(suite_dir / "markov_model.json"),
                   "--dataset", str(path), "--report", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert (rc, err) == expected, separators
        assert (message or "") in err and (rc == 0) == (message is None)
    if "trajectory 1" in (message or ""):
        # the head and trajectory 0 of the compact file, and trajectory 1
        # when it is packed
        assert len(yielded) == 2 + packed(d["trajectories"][1]["states"])


def _list_path(path):
    """Exit code, stderr and dataset of the CLI reading ``path`` as the list
    path ``Dataset.from_dict(json.load(...))`` does."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            return 2, f"error: {path}: invalid JSON at line {exc.lineno}: {exc.msg}\n", None
    try:
        return 0, "", Dataset.from_dict(obj)
    except (ValueError, TypeError) as exc:
        return 2, f"error: {path}: {exc}\n", None


def _trajectories_first(text, d):
    return json.dumps({"trajectories": d["trajectories"], "q": d["q"], "m": d["m"]})


def _escaped_key(text, d):
    return text.replace('"states"', '"st\\u0061tes"')


def _brackets_in_strings(text, d):
    d = dict(d, note='{ } [ ] " \\ ]}', trajectories=list(d["trajectories"]))
    d["trajectories"][0] = dict(d["trajectories"][0], label='}]"\\')
    return json.dumps(d, indent=1)


def _two_trajectory_keys(text, d):
    first = json.dumps(d["trajectories"][:1])
    return text.replace('"trajectories":', f'"trajectories":{first},"trajectories":', 1)


def _truncated_in_trajectory_3(text, d):
    starts = [i for i in range(len(text)) if text.startswith('{"inputs"', i)]
    return text[: (starts[3] + starts[4]) // 2]


def _late_syntax_error(text, d):
    lines = json.dumps(d, indent=1).split("\n")
    late = max(i for i, line in enumerate(lines) if line.endswith(","))
    lines[late] = lines[late][:-1]
    return "\n".join(lines)


def _chunk_inside(needle, offset):
    """The text unchanged, read in chunks that end ``offset`` characters into
    the first ``needle``."""
    return lambda text, d: (text, text.index(needle) + offset)


def _trajectory_1_at(text) -> int:
    return text.index('{"inputs"', text.index('{"inputs"') + 1)


def _in_trajectory_1(old, new):
    """The text with the first ``old`` in trajectory 1 made ``new``."""
    def make(text, d):
        i = _trajectory_1_at(text)
        assert old in text[i:]
        return text[:i] + text[i:].replace(old, new, 1)
    return make


def _states_first_in_trajectory_1(text, d):
    t = d["trajectories"][1]
    d["trajectories"][1] = {"states": t["states"], "inputs": t["inputs"]}
    return json.dumps(d, separators=(",", ":"))


def _states_rows_in_trajectory_1(rows):
    def make(text, d):
        i = _trajectory_1_at(text)
        return text[:i] + re.sub(r'"states":\[[0-9]+,', f'"states":[{rows},', text[i:], count=1)
    return make


def _columns_in_trajectory_1(columns):
    """The text with the column list of trajectory 1's inputs, the first
    list in it, spelled ``columns``."""
    def make(text, d):
        i = _trajectory_1_at(text)
        tail, count = re.subn(r'",\[[0-9,]*\]\]', f'",[{columns}]]', text[i:], count=1)
        assert count == 1 and tail.index(columns) < tail.index('"states"')
        return text[:i] + tail
    return make


@pytest.mark.parametrize("make, streams", [
    (_trajectories_first, False),
    (lambda text, d: json.dumps(d, indent=1), False),
    (_escaped_key, False),
    (_brackets_in_strings, False),
    (_two_trajectory_keys, False),
    (lambda text, d: json.dumps(dict(d, trajectories=[])), False),
    (lambda text, d: json.dumps(dict(d, trajectories=[]), separators=(",", ":")), True),
    (lambda text, d: text + " {}", True),
    (lambda text, d: text[:-2] + ',"note":0}\n', False),
    (lambda text, d: text.replace(',"trajectories":', ',"x\\"trajectories":', 1), False),
    (_truncated_in_trajectory_3, True),
    (_late_syntax_error, True),
    (_chunk_inside('"states":[', 11), True),
    (_chunk_inside('"inputs"', 3), True),
    (lambda text, d: (_escaped_key(text, d), _escaped_key(text, d).index("\\u0061") + 3), False),
    (lambda text, d: (_brackets_in_strings(text, d), 1), False),
    (lambda text, d: (text, 1), True),
    (lambda text, d: (json.dumps(d, indent=1), 1), False),
    (_chunk_inside('"inputs":[', 20), True),
    (lambda text, d: json.dumps(_as_numbers(d), separators=(",", ":")), False),
    (_in_trajectory_1('"states":[', '"states": ['), False),
    (_in_trajectory_1(',"states"', ', "states"'), False),
    (_in_trajectory_1(',"', ', "'), False),
    (_states_first_in_trajectory_1, False),
    (_in_trajectory_1('"]}', '"],"x":0}'), False),
    (_in_trajectory_1('"states"', '"statas"'), False),
    (_states_rows_in_trajectory_1("01"), False),
    (_states_rows_in_trajectory_1("-1"), False),
    (_states_rows_in_trajectory_1("1e3"), False),
    (_columns_in_trajectory_1("0, 5"), False),
    (_columns_in_trajectory_1("01,5"), False),
    (_columns_in_trajectory_1("0,1e3"), False),
    (_columns_in_trajectory_1("-0,5"), False),
    (_columns_in_trajectory_1("0,7"), True),
], ids=["trajectories-first", "indent-1", "escaped-key", "brackets-in-strings",
        "two-trajectory-keys", "no-trajectories", "no-trajectories-compact", "trailing-data",
        "member-after-trajectories", "escaped-quote-key", "truncated", "late-syntax-error",
        "chunk-in-number", "chunk-in-key", "chunk-in-escape", "one-byte-chunks",
        "one-byte-chunks-canonical", "one-byte-chunks-indent-1", "chunk-in-base64",
        "numbers-compact", "space-after-colon", "space-after-comma", "space-in-array-head",
        "states-first", "extra-member", "a-in-key", "rows-01", "rows-minus-1", "rows-1e3",
        "space-in-columns", "columns-01", "columns-1e3", "columns-minus-0",
        "columns-moved"])
def test_dataset_reader_layouts_match_list_path(suite_dir, tmp_path, capsys, monkeypatch,
                                                make, streams):
    """The chunked reader takes the layout ``_dump_dataset`` writes, in
    chunks of any size, without reading the whole file; any other layout of
    valid JSON (``streams`` false), lists of numbers in place of packed
    arrays, an escape in a key and one byte off in a trajectory or its
    column list among them, is read whole by the list path.  On invalid
    JSON the CLI exits as the list path does, line number included.  A
    column list that moves the data (``columns-moved``) streams, and both
    paths put it in the listed column."""
    import violina.cli as cli

    text = (suite_dir / "markov_test.json").read_text()
    made = make(text, json.loads(text))
    text, chunk = made if isinstance(made, tuple) else (made, None)
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    path = tmp_path / "layout.json"
    path.write_text(text)
    expected_rc, expected_err, listed = _list_path(path)
    yielded = []  # the objects the chunked reader yielded, then "end" if it ended
    read = cli._read_dataset_json

    def traced(fh):
        for obj in read(fh):
            yielded.append(obj)
            yield obj
        yielded.append("end")
    monkeypatch.setattr(cli, "_read_dataset_json", traced)
    rc = main(["--quiet", "evaluate", "--model", str(suite_dir / "markov_model.json"),
               "--dataset", str(path), "--report", str(tmp_path / "r.csv")])
    assert (rc, capsys.readouterr().err) == (expected_rc, expected_err)
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        assert yielded[-1:] != ["end"]
    else:
        # the head, its trajectories filled in, when the reader read to the end
        chunked = ([dict(yielded[0], trajectories=yielded[1:-1])]
                   if yielded[-1:] == ["end"] else [])
        assert chunked == ([whole] if streams else [])
    if listed is not None:
        for a, b in zip(_load_dataset(path).trajectories, listed.trajectories,
                        strict=True):
            assert a.states.tobytes() == b.states.tobytes()
            assert a.inputs.tobytes() == b.inputs.tobytes()


def test_dataset_reader_matches_list_path_on_edited_text(tmp_path, monkeypatch):
    """Seeded random edits of a small dataset text, its arrays as lists of
    numbers or packed, read in chunks of random sizes: the reader gives what
    the list path gives, arrays or message."""
    import random

    import violina.cli as cli
    from violina.kernel import pack_floats

    base = {"q": 1, "m": 3, "note": 'a "{[x]}" \\', "trajectories": [
        {"states": [[0.0, 1.0], [0.5, -2e-5], [1.5, 2.0], [3.0, 4.0]],
         "inputs": [[0.0], [1.0], [0.0]], "label": "r\u00e9"},
        {"inputs": [[1.0], [2.0], [3.0]], "states": [[1, 2], [3, 4], [5, 6], [7, 8]]}]}
    packed = dict(base, trajectories=[
        dict(t, **{key: pack_floats(np.array(t[key], dtype=float)) for key in ("states", "inputs")})
        for t in base["trajectories"]])
    texts = [json.dumps(base), json.dumps(base, indent=1), json.dumps(base, ensure_ascii=False),
             json.dumps(base, separators=(",", ":")), json.dumps(packed, separators=(",", ":")),
             json.dumps(packed, sort_keys=True, separators=(",", ":"))]
    alphabet = ' \n{}[]",:\\0123456789.-eEtruefalsn\u00e9A+/='
    rng = random.Random(20261018)
    path = tmp_path / "edited.json"

    def outcome(read):
        try:
            return [(t.states.tobytes(), t.inputs.tobytes(), t.states.shape)
                    for t in read().trajectories]
        except cli.ConfigError as exc:
            return str(exc)

    for _ in range(500):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            text = rng.choice([text[:k] + text[k + 1:], text[:k], text[:k] + rng.choice(alphabet)
                               + text[k:]])
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "_CHUNK", rng.choice([1, 2, 3, 7, 64, 1 << 20]))
        assert outcome(lambda: _load_dataset(path)) == \
            outcome(lambda: cli._parse_file(path, Dataset.from_dict)), text


def _reading(read, text: bytes) -> tuple[list, bool]:
    """The objects ``read`` yields from ``text``, and whether it raised
    ``ValueError`` after them."""
    import io

    objects = []
    try:
        for obj in read(io.BytesIO(text)):
            objects.append(obj)
    except ValueError:
        return objects, True
    return objects, False


def test_dataset_reader_matches_byte_offset_oracle(monkeypatch):
    """Seeded random deletions, insertions and replacements, most of them at
    or beside a structural byte, and truncations of a short dataset text of
    the edge arrays, under several heads (extra, escaped and repeated
    members): read in chunks of several sizes, the reader yields the
    objects the byte-offset parser it replaced yields, in order, and raises
    after exactly as many of them on exactly the same texts."""
    import random

    import violina.cli as cli
    from oracles import byte_offset_dataset_json
    from violina.kernel import pack_json

    arrays = [np.arange(3.0).reshape(3, 1), np.array([[-0.0, 5e-324]]),
              np.arange(4.0).reshape(2, 2) / 3, np.empty((3, 0)), np.empty((0, 2)),
              np.zeros((2, 3)), np.array([[0.0, 1.5]]), np.array([[0.0, 1.5], [0.0, -2.0]]),
              np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 3.0, 0.0], [4.0, 0.0, 0.0, 0.0]])]
    body = b",".join(b'{"inputs":%s,"states":%s}' % (pack_json(u), pack_json(x))
                     for u, x in zip(arrays[0::2], arrays[1::2] + arrays[:1])) + b"]}\n"
    heads = [b'{"m":2,"q":0', b'{"label":"r\xc3\xa9","m":2,"q":0', b'{"m":2,"\\u0071":0',
             b'{"m":2,"note":"a,\\"trajectories\\":[","q":0', b'{"m":2,"q":0,"q":1',
             b'{"m":2,"q":0,"trajectories":[]']
    texts = [head + cli._HEAD_END + body for head in heads]
    structural = b'"{}[],:'
    alphabet = [bytes([c]) for c in b'"{}[],: \n\\0123456789eA+/='] + [b"\xc3\xa9"]
    rng = random.Random(20261020)
    whole = late = 0  # texts read to the end, and raising after a trajectory
    for _ in range(4000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            marks = [i for i, c in enumerate(text) if c in structural]
            k = rng.choice(marks) + rng.randint(0, 1) if marks and rng.random() < 0.7 \
                else rng.randrange(len(text) + 1)
            byte = rng.choice(alphabet)
            text = rng.choice([text[:k] + text[k + 1:], text[:k] + byte + text[k:],
                               text[:k] + byte + text[k + 1:], text[:k]])
        expected = _reading(lambda fh: byte_offset_dataset_json(fh, 1 << 20), text)
        whole += not expected[1]
        late += expected[1] and len(expected[0]) > 1
        for chunk in (1, 2, 3, 7, 64, 1 << 20):
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            assert _reading(cli._read_dataset_json, text) == expected, (chunk, text)
    assert whole > 100 and late > 500, (whole, late)


def test_dataset_reader_peak_holds_one_trajectory(desk_files, monkeypatch):
    """Beside the arrays it returns, the reader's peak is at most four times
    the text of the largest trajectory plus one chunk of 16 KiB, about a
    fifth of that text."""
    import tracemalloc

    from violina import cli

    monkeypatch.setattr(cli, "_CHUNK", 1 << 14)
    path = desk_files / "train.json"
    listed = json.loads(path.read_text())["trajectories"]
    largest = max(len(json.dumps(t, sort_keys=True, separators=(",", ":"))) for t in listed)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data = _load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    arrays = sum(t.states.nbytes + t.inputs.nbytes for t in data.trajectories)
    assert peak <= arrays + 4 * largest + cli._CHUNK, (peak, arrays, largest)


@pytest.fixture(scope="module")
def copies_files(tmp_path_factory):
    """The desk nonmarkov model, and datasets of 4 and 16 copies of its
    first train trajectory."""
    from violina import BenchmarkConfig, build_benchmark_suite
    from violina.cli import _dump_dataset, _dump_json

    system = build_benchmark_suite(BenchmarkConfig.desk_scale()).nonmarkov
    traj = system.train.trajectories[0]
    out = tmp_path_factory.mktemp("copies")
    _dump_json(out / "model.json", system.model.to_dict())
    for name, copies in (("few", 4), ("many", 16)):
        _dump_dataset(out / f"{name}.json", [traj] * copies, system.train.q, system.train.m)
    return out, traj


def _command(name, out, dataset):
    """The arguments of command ``name`` reading ``dataset``."""
    model = str(out / "model.json")
    return ["--quiet", *{
        "fit": ["fit", "--train", dataset, "--constraints", "free", "--steps", "3",
                "--out", str(out / "fit.json")],
        "evaluate": ["evaluate", "--model", model, "--dataset", dataset, "--energy",
                     "--report", str(out / "report.csv")],
        "simulate": ["simulate", "--model", model, "--dataset", dataset,
                     "--out", str(out / "sim.json")],
        "plot": ["plot", "--kind", "traces", "--truth", dataset, "--pred", dataset,
                 "--traj", "1", "--out", str(out / "traces.svg")],
        "dmdc": ["dmdc", "--train", dataset, "--scan-csv", str(out / "scan.csv"),
                 "--out", str(out / "dmdc.json")],
    }[name]]


def _main_peaks(name, out, monkeypatch):
    """Traced peaks of command ``name`` on the 4-copy and the 16-copy
    dataset, read in 16 KiB chunks, after one untraced run that makes the
    first-call allocations."""
    import tracemalloc

    import violina.cli as cli

    monkeypatch.setattr(cli, "_CHUNK", 1 << 14)
    assert main(_command(name, out, str(out / "few.json"))) == 0
    peaks = []
    for dataset in ("few", "many"):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(_command(name, out, str(out / f"{dataset}.json"))) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("name", ["fit", "dmdc", "evaluate", "simulate", "plot"])
def test_commands_hold_one_trajectory_at_a_time(copies_files, monkeypatch, name):
    """Each trajectory is used and dropped as it is read, so 12 more
    trajectories (1.2 MB of arrays) move the peak by at most half of one
    trajectory's arrays (15 KB at most was seen)."""
    out, traj = copies_files
    few, many = _main_peaks(name, out, monkeypatch)
    assert abs(many - few) <= (traj.states.nbytes + traj.inputs.nbytes) / 2, (few, many)


def test_python_3_10_decoder_streams_the_same_bytes(desk_files, tmp_path, monkeypatch):
    """Under ``base64.b64decode`` as Python 3.10 has it (``conftest``), the
    stream reads every trajectory of the desk suite, and ``fit``, ``dmdc``
    and ``evaluate`` write the bytes they write with the stdlib decoder."""
    import base64

    from conftest import lenient_b64decode
    from violina.cli import _DatasetStream

    train, test = desk_files / "train.json", desk_files / "test.json"
    outputs = []
    for decoder in (base64.b64decode, lenient_b64decode):
        monkeypatch.setattr(base64, "b64decode", decoder)
        for path in (train, test):
            stream = _DatasetStream(path)
            assert sum(1 for _ in stream.trajectories) == stream.size == len(
                json.loads(path.read_text())["trajectories"])
        out = tmp_path / decoder.__name__
        out.mkdir()
        for argv in (["fit", "--train", train, "--constraints", "free", "--steps", "5",
                      "--out", out / "fit.json", "--curve", out / "curve.csv"],
                     ["dmdc", "--train", train, "--scan-csv", out / "scan.csv",
                      "--out", out / "dmdc.json"],
                     ["evaluate", "--model", out / "dmdc.json", "--dataset", test,
                      "--energy", "--report", out / "report.csv",
                      "--aggregate", out / "aggregate.json"]):
            assert main(["--quiet", *map(str, argv)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_dataset_stream_is_read_once(copies_files):
    from violina.cli import _DatasetStream

    out, traj = copies_files
    stream = _DatasetStream(out / "few.json")
    assert (stream.q, stream.m, stream.n, stream.k) == (2, traj.length, traj.n, traj.k)
    assert [t.states.tobytes() for t in stream.trajectories] == [traj.states.tobytes()] * 4
    assert stream.size == 4
    with pytest.raises(RuntimeError, match="read once"):
        stream.trajectories


def _brace_in_trajectory_1(d):
    d["trajectories"][1]["label"] = "}"
    return json.dumps(d, separators=(",", ":"))


def _second_trajectories_member(d):
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return text.replace('"trajectories":', '"trajectories":'
                        + json.dumps(d["trajectories"][::-1]) + ',"trajectories":', 1)


@pytest.mark.parametrize("make", [_brace_in_trajectory_1, _second_trajectories_member],
                         ids=["brace-in-trajectory-1", "two-trajectory-members"])
def test_declined_file_runs_again_on_the_list_path(suite_dir, tmp_path, make):
    """A file the stream stops taking part way through (at trajectory 1), or
    at its first trajectory (one in another layout, in the first of two
    ``trajectories`` members), gives ``fit``, ``dmdc`` and ``evaluate`` the
    bytes they give on the canonical dump of the list path's dataset."""
    from violina.cli import _dump_dataset, _parse_file

    path, canonical = tmp_path / "odd.json", tmp_path / "canonical.json"
    path.write_text(make(json.loads((suite_dir / "markov_train.json").read_text())))
    listed = _parse_file(path, Dataset.from_dict)
    _dump_dataset(canonical, listed.trajectories, listed.q, listed.m)
    outputs = []
    for dataset in (path, canonical):
        out = tmp_path / dataset.stem
        out.mkdir()
        for argv in (["fit", "--train", dataset, "--mask", suite_dir / "manifest.json",
                      "--steps", "20", "--out", out / "fit.json", "--curve", out / "curve.csv"],
                     ["dmdc", "--train", dataset, "--fit-index", "2",
                      "--scan-csv", out / "scan.csv", "--out", out / "dmdc.json"],
                     ["evaluate", "--model", out / "dmdc.json", "--dataset", dataset,
                      "--energy", "--report", out / "report.csv",
                      "--aggregate", out / "aggregate.json"]):
            assert main(["--quiet", *map(str, argv)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def _with_member(text, member):
    """``text``, a JSON object, with ``member`` added at its end."""
    end = text.rindex("}")
    return text[:end] + "," + member + text[end:]


def _fewer_after_trajectory_2(text, d):
    """The brace moved to trajectory 2, so the stream takes two
    trajectories, and a later member with only the first of them."""
    trajs = [dict(t) for t in d["trajectories"]]
    trajs[2]["label"] = trajs[1].pop("label")
    text = json.dumps(dict(d, trajectories=trajs), separators=(",", ":"))
    return _with_member(text, '"trajectories":' + json.dumps(trajs[:1]))


@pytest.mark.parametrize("make, refused", [
    (lambda text, d: _with_member(text, '"trajectories":' + json.dumps(d["trajectories"][::-1])),
     True),
    (lambda text, d: _with_member(text, '"q":1'), True),
    (_fewer_after_trajectory_2, True),
    (lambda text, d: _with_member(text, '"trajectories":' + json.dumps(d["trajectories"][:1])),
     False),
    (lambda text, d: _with_member(text, '"trajectories":'
                                  + json.dumps(d["trajectories"][:1] + d["trajectories"][2:])),
     False),
    (lambda text, d: _with_member(text, '"q":0'), False),
    (lambda text, d: text[:-40], False),
    (lambda text, d: text.replace('"label":"}"', '"label":"}"' + ',"states":0', 1), False),
], ids=["other-trajectories", "other-q", "fewer-trajectories", "only-the-one-read",
        "same-first-trajectory", "same-q", "truncated-late", "bad-trajectory-1"])
def test_stream_continues_on_the_list_path_where_they_agree(suite_dir, tmp_path, capsys, make,
                                                            refused):
    """A file the stream stops taking at trajectory 1 continues on the list
    path in place.  A later member that replaces ``q``, ``m`` or the
    trajectories already read is refused, as the command has used them;
    otherwise ``evaluate`` exits as on the list path, message and line
    number included, and writes what it writes on the canonical dump of the
    list path's dataset."""
    from violina.cli import _dump_dataset

    def evaluate(dataset):
        report = tmp_path / f"{dataset.stem}.csv"
        rc = main(["--quiet", "evaluate", "--model", str(suite_dir / "markov_model.json"),
                   "--dataset", str(dataset), "--report", str(report)])
        return rc, capsys.readouterr().err, report.read_bytes() if rc == 0 else None

    d = json.loads((suite_dir / "markov_test.json").read_text())
    path, canonical = tmp_path / "odd.json", tmp_path / "canonical.json"
    path.write_text(make(_brace_in_trajectory_1(d), d))
    expected_rc, expected_err, listed = _list_path(path)
    rc, err, report = evaluate(path)
    if refused:
        assert (expected_rc, rc, err) == (0, 2, f"error: {path}: a later 'q', 'm' or "
                                          "'trajectories' member replaces data already read\n")
    else:
        assert (rc, err) == (expected_rc, expected_err)
    if rc == 0:
        _dump_dataset(canonical, listed.trajectories, listed.q, listed.m)
        assert report == evaluate(canonical)[2]
    assert not list(tmp_path.glob(".*.tmp"))


def _counted(monkeypatch, module, names) -> dict:
    """Replace each function ``names`` of ``module`` by one that counts its
    calls into the returned dict."""
    calls = dict.fromkeys(names, 0)

    def counting(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return counted
    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("name", ["fit", "dmdc", "evaluate", "simulate", "plot"])
def test_each_command_does_its_work_once(suite_dir, tmp_path, monkeypatch, name):
    """On files the stream stops taking at trajectory 1, every command runs
    once, and so do the fit and the rank scan: the stream continues on the
    list path in place, and ``plot --kind traces`` reads two such files."""
    import violina.cli as cli
    import violina.dmdc
    import violina.pgd

    d = json.loads((suite_dir / "markov_train.json").read_text())
    for stem in ("odd", "odd2"):
        (tmp_path / f"{stem}.json").write_text(_brace_in_trajectory_1(d))
    (tmp_path / "model.json").write_bytes((suite_dir / "markov_model.json").read_bytes())
    argv = _command(name, tmp_path, str(tmp_path / "odd.json"))
    if name == "plot":
        argv[argv.index("--pred") + 1] = str(tmp_path / "odd2.json")
    commands = [n for n in vars(cli) if n.startswith("cmd_")]
    counts = [_counted(monkeypatch, violina.pgd, ["violina_fit"]),
              _counted(monkeypatch, violina.dmdc, ["dmdc_rank_scan"]),
              _counted(monkeypatch, cli, commands)]
    assert main(argv) == 0
    calls = {name: c for count in counts for name, c in count.items()}
    work = {"fit": {"violina_fit": 1}, "dmdc": {"dmdc_rank_scan": 1}}.get(name, {})
    assert {n: c for n, c in calls.items() if c} == {f"cmd_{name}": 1, **work}


_RUN_ALL = """
import json, sys
from violina.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
"""


def test_number_array_files_give_the_same_bytes(tmp_path):
    """On the desk suite, with one BLAS thread, every command that reads a
    dataset writes the same bytes whether the suite is as ``generate`` wrote
    it or rewritten with lists of numbers, which the list path reads; and
    the stream's arrays are the list path's in dtype, shape and strides, and
    own their data."""
    import shutil

    from violina import cli

    packed, numbers = tmp_path / "packed", tmp_path / "numbers"
    assert main(["--quiet", "generate", "--preset", "desk", "--out", str(packed)]) == 0
    shutil.copytree(packed, numbers)
    for path in packed.glob("*_*.json"):
        if not path.name.endswith("_model.json"):
            d = _as_numbers(json.loads(path.read_text()))
            (numbers / path.name).write_text(json.dumps(d, separators=(",", ":")))
    for name in ("nonmarkov_train.json", "markov_test.json", "nonmarkov_energy.json"):
        stream = cli._DatasetStream(packed / name)
        listed = cli._parse_file(numbers / name, Dataset.from_dict)
        for a, b in zip(stream.trajectories, listed.trajectories, strict=True):
            for x, y in ((a.states, b.states), (a.inputs, b.inputs)):
                assert (x.dtype, x.shape, x.strides) == (y.dtype, y.shape, y.strides)
                assert x.tobytes() == y.tobytes()
                assert x.base.flags.owndata and x.base.base is None
    commands = []
    for suite in (packed, numbers):
        out = suite / "out"
        out.mkdir()
        train, test = str(suite / "nonmarkov_train.json"), str(suite / "nonmarkov_test.json")
        fit = ["fit", "--train", train, "--mask", str(suite / "manifest.json"), "--steps", "200"]
        commands += [["--quiet", *map(str, argv)] for argv in (
            [*fit, "--constraints", "a1b", "--out", out / "a1b.json", "--curve", out / "a1b.csv"],
            [*fit, "--constraints", "a2b", "--out", out / "a2b.json", "--curve", out / "a2b.csv"],
            ["dmdc", "--train", train, "--scan-csv", out / "scan.csv", "--out", out / "dmdc.json"],
            ["dmdc", "--train", train, "--pooled", "--scan-csv", out / "pooled.csv",
             "--out", out / "pooled.json"],
            ["evaluate", "--model", out / "a2b.json", "--dataset", test,
             "--report", out / "report.csv", "--aggregate", out / "aggregate.json"],
            ["evaluate", "--model", suite / "nonmarkov_model.json", "--energy",
             "--dataset", suite / "nonmarkov_energy.json", "--report", out / "energy.csv",
             "--aggregate", out / "energy.json"],
            ["simulate", "--model", out / "a2b.json", "--dataset", test,
             "--out", out / "sim.json"],
            ["plot", "--kind", "traces", "--truth", test, "--pred", out / "sim.json",
             "--traj", "3", "--cells", "0,7", "--out", out / "traces.svg"])]
    src = str(Path(violina.__file__).resolve().parents[1])
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
    env = dict(os.environ, **threads, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(commands)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    outputs = [{f.name: f.read_bytes() for f in (suite / "out").iterdir()}
               for suite in (packed, numbers)]
    assert len(outputs[0]) == 14 and outputs[0] == outputs[1]


def test_malformed_model_exit_2(suite_dir, tmp_path, capsys):
    good = json.loads((suite_dir / "nonmarkov_model.json").read_text())

    def broken(edit):
        d = json.loads(json.dumps(good))
        edit(d)
        return d

    cases = {
        "missing field 'A'": broken(lambda d: d.pop("A")),
        "inhomogeneous": broken(lambda d: d["A"][3].pop()),
        "'A': setting an array element with a sequence": broken(lambda d: d["A"][5].pop()),
        "'A' holds non-finite values": broken(
            lambda d: d["A"][3].__setitem__(0, float("nan"))),
        "'B' holds non-finite values": broken(lambda d: d.__setitem__("B", None)),
        "'A': int too large to convert to float": broken(
            lambda d: d["A"][3].__setitem__(0, 10 ** 400)),
        "kernel: 'coeffs': int too large to convert to float": broken(
            lambda d: d["kernel"]["coeffs"].__setitem__(0, -10 ** 400)),
        "'A': a string is not a number": broken(
            lambda d: d["A"][3].__setitem__(0, "0.5")),
        "kernel: 'coeffs': a string is not a number": broken(
            lambda d: d["kernel"]["coeffs"].__setitem__(0, "0.25")),
        "kernel: missing field 'Q'": broken(lambda d: d["kernel"].pop("Q")),
        "kernel: 'coeffs' must be a flat list": broken(
            lambda d: d["kernel"].__setitem__("coeffs", [[0.1], [0.2]])),
        "kernel: 'coeffs' holds non-finite values": broken(
            lambda d: d["kernel"]["coeffs"].__setitem__(0, float("inf"))),
        "kernel: 'q' must be an integer, got 1.7": broken(
            lambda d: d["kernel"].__setitem__("q", 1.7)),
        "kernel: 'Q' must be an integer, got True": broken(
            lambda d: d["kernel"].__setitem__("Q", True)),
        "kernel: 'm' must be an integer, got 30.0": broken(
            lambda d: d["kernel"].__setitem__("m", 30.0)),
        "'A': true/false is not a number": broken(lambda d: d["A"][3].__setitem__(3, True)),
        "'B': true/false is not a number": broken(lambda d: d["B"][0].__setitem__(1, False)),
        "kernel: 'coeffs': true/false is not a number": broken(
            lambda d: d["kernel"]["coeffs"].__setitem__(1, False)),
        "'kernel_dense': true/false is not a number": broken(
            lambda d: d.update(kernel_dense=[[True] + [0.0] * 29] + np.eye(30)[1:].tolist())
            or d.pop("kernel")),
    }
    data = suite_dir / "nonmarkov_test.json"
    for i, (expected, model) in enumerate(cases.items()):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(model))
        for argv in (
            ["evaluate", "--model", str(path), "--dataset", str(data),
             "--report", str(tmp_path / "r.csv")],
            ["simulate", "--model", str(path), "--dataset", str(data),
             "--out", str(tmp_path / "p.json")],
        ):
            assert main(["--quiet"] + argv) == 2, (expected, argv[0])
            err = capsys.readouterr().err
            assert str(path) in err and expected in err, err


def test_malformed_manifest_exit_2(suite_dir, tmp_path, capsys):
    good = json.loads((suite_dir / "manifest.json").read_text())

    def broken(edit):
        d = json.loads(json.dumps(good))
        edit(d)
        return d

    cases = {
        "missing field 'mask'": broken(lambda d: d.pop("mask")),
        "inhomogeneous": broken(lambda d: d["mask"][2].pop()),
        "'mask': setting an array element with a sequence": broken(
            lambda d: d["mask"][4].pop()),
        "'mask' holds non-finite values": broken(
            lambda d: d["mask"][2].__setitem__(0, float("nan"))),
        "'mask': int too large to convert to float": broken(
            lambda d: d["mask"][2].__setitem__(0, 10 ** 400)),
        "'mask': a string is not a number": broken(
            lambda d: d["mask"][2].__setitem__(0, "1")),
        "mask shape (9, 9)": broken(lambda d: d.__setitem__("mask", np.eye(9).tolist())),
        "mask must be symmetric": broken(lambda d: d["mask"][0].__setitem__(9, 1)),
        "'mask': true/false is not a number": broken(
            lambda d: d["mask"][0].__setitem__(d["mask"][0].index(1), True)),
        "true/false is not a number": broken(
            lambda d: d["mask"][0].__setitem__(0, False)),
    }
    for i, (expected, manifest) in enumerate(cases.items()):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(manifest))
        rc = main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
                   "--mask", str(path), "--steps", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 2, expected
        err = capsys.readouterr().err
        assert str(path) in err and expected in err, err


# The mutation contract of the input files.  Each mutation replaces one value
# of a valid desk file, or deletes one key, and every command that reads the
# file must exit 2 with one error line that names the file (and the
# trajectory, inside one), without writing anything.  The leaves no command
# reads stay as they are: a model's n and k, and every manifest member but
# mask.  A "dataset" file holds lists of numbers, which the list path reads;
# a "packed" file is in the layout violina writes, which the stream reads.
_BIG = 10 ** 400  # an integer too large for a float
_DELETE = object()
_REPLACEMENTS = {"true": True, "str": "1.5", "null": None, "list": [], "object": {},
                 "big": _BIG}
_FILES = {
    # kind: (paths of numbers and arrays, paths of objects, optional keys)
    "dataset": ([("q",), ("m",), ("trajectories",)] + [
        ("trajectories", 1, key, *tail) for key in ("states", "inputs")
        for tail in ((), (3,), (3, 0))], [(), ("trajectories", 1)], ()),
    "model": ([("A",), ("A", 3), ("A", 3, 0), ("B",), ("B", 3), ("B", 3, 0),
               ("kernel", "m"), ("kernel", "q"), ("kernel", "Q"), ("kernel", "coeffs"),
               ("kernel", "coeffs", 0)], [(), ("kernel",)], ()),
    "mask": ([("mask",), ("mask", 2), ("mask", 2, 0)], [()], ()),
    "config": ([(key,) for key in ("Lx", "Ly", "m", "seed", "w0", "w1", "q", "Q",
                                   "coeffs")] + [("coeffs", 0)], [()],
               ("seed", "w0", "w1", "q", "Q", "coeffs")),
}
# a JSON integer of any size is a valid seed, and evaluate and simulate run
# the recursion with the kernel's q and coeffs, so any m >= Q passes
_ACCEPTED = {("config", ("seed",), "big"), ("model", ("kernel", "m"), "big")}


def _raw(edit):
    """A replacement of a packed array by the one whose stored float64 values
    are ``edit`` of the old ones, packed as ``kernel.pack_floats`` packs them
    but without its finiteness check, and with the old list of stored
    columns, if any.  ``edit`` keeps the number of columns."""
    import binascii

    def replace(old):
        rows, cols, text, *columns = old
        width = len(columns[0]) if columns else cols
        a = edit(np.frombuffer(binascii.a2b_base64(text), dtype="<f8").reshape(rows, width))
        return [len(a), cols, binascii.b2a_base64(a.tobytes(), newline=False).decode(), *columns]
    return replace


def _set_first(value):
    def edit(a):
        a = a.copy()
        a.flat[0] = value
        return a
    return edit


def _columns(edit):
    """A replacement of a packed array with stored columns ``[j0, …]`` by
    the one whose list is ``edit`` of it."""
    def replace(old):
        assert len(old) == 4 and len(old[3]) >= 2, old
        return [*old[:3], edit(old[3])]
    return replace


# (path, label, replacement of the old value) in trajectory 1 of a packed
# file, whose inputs leave out their all-zero columns and whose states do not
_PACKED = [(("trajectories", 1, key), label, value) for key in ("states", "inputs")
           for label, value in (
               ("alphabet", lambda v: [v[0], v[1], v[2][:8] + "*" + v[2][8:], *v[3:]]),
               ("line-break", lambda v: [v[0], v[1], v[2][:76] + "\n" + v[2][76:], *v[3:]]),
               ("padding-extra", lambda v: [v[0], v[1], v[2] + "=", *v[3:]]),
               ("padding-inside", lambda v: [v[0], v[1], v[2][:6] + "=" + v[2][7:], *v[3:]]),
               ("not-ascii", lambda v: [v[0], v[1], "\u00e9" + v[2][1:], *v[3:]]),
               ("short-bytes", lambda v: [v[0], v[1], _raw(lambda a: a[:-1])(v)[2], *v[3:]]),
               ("nan", _raw(_set_first(np.nan))),
               ("inf", _raw(_set_first(-np.inf))),
               ("rows-float", lambda v: [float(v[0]), v[1], v[2], *v[3:]]),
               ("cols-float", lambda v: [v[0], float(v[1]), v[2], *v[3:]]),
               ("rows-true", lambda v: [True, v[1], v[2], *v[3:]]),
               ("cols-true", lambda v: [v[0], True, v[2], *v[3:]]),
               ("rows-negative", lambda v: [-1, v[1], v[2], *v[3:]]),
               ("cols-negative", lambda v: [v[0], -1, v[2], *v[3:]]),
               ("shape-negated", lambda v: [-v[0], -v[1], v[2], *v[3:]]),
               ("transposed", lambda v: [v[1], v[0], v[2], *v[3:]]))] + [
    (("trajectories", 1, "states"), "one-state-fewer", _raw(lambda a: a[:-1])),
    (("trajectories", 1, "inputs"), "one-input-more", _raw(lambda a: np.vstack([a, a[-1:]])))] + [
    (("trajectories", 1, "inputs"), f"columns-{label}", value) for label, value in (
        ("not-a-list", lambda v: [*v[:3], ",".join(map(str, v[3]))]),
        ("float", _columns(lambda c: [c[0], float(c[1]), *c[2:]])),
        ("true", _columns(lambda c: [True, *c[1:]])),
        ("negative", _columns(lambda c: [-1, *c[1:]])),
        ("cols", _columns(lambda c: [*c[:-1], 30])),
        ("duplicate", _columns(lambda c: [c[0], c[0], *c[2:]])),
        ("decreasing", _columns(lambda c: [c[1], c[0], *c[2:]])),
        ("one-more", _columns(lambda c: [*c, 29])),
        ("one-fewer", _columns(lambda c: c[:-1])),
        ("empty", _columns(lambda c: [])),
        ("huge", lambda v: [v[0], 10 ** 15, "", []]))]


def _mutations():
    for path, label, value in _PACKED:
        yield pytest.param("packed", path, label, value,
                           id=f"packed-{'.'.join(map(str, path))}-{label}")
    for kind, (leaves, objects, optional) in _FILES.items():
        for path in leaves + objects:
            values = dict(_REPLACEMENTS, **({"5": 5} if path in objects else {}))
            if path and isinstance(path[-1], str) and path[-1] not in optional:
                values["deleted"] = _DELETE
            for label, value in values.items():
                yield pytest.param(kind, path, label, value,
                                   id=f"{kind}-{'.'.join(map(str, path)) or 'top'}-{label}")


def _mutate(d, path, value):
    if not path:
        return value
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    elif callable(value):
        parent[path[-1]] = value(parent[path[-1]])
    else:
        parent[path[-1]] = value
    return d


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """The desk suite, its config, and its test set cut to two trajectories,
    as lists of numbers and in the layout violina writes."""
    root = tmp_path_factory.mktemp("contract")
    assert main(["--quiet", "generate", "--preset", "desk", "--out", str(root)]) == 0
    d = json.loads((root / "nonmarkov_test.json").read_text())
    d["trajectories"] = d["trajectories"][:2]
    (root / "dataset.json").write_text(json.dumps(_as_numbers(d)))
    (root / "packed.json").write_text(json.dumps(d, sort_keys=True, separators=(",", ":")))
    config = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
    return {"dataset": root / "dataset.json", "packed": root / "packed.json",
            "model": root / "nonmarkov_model.json", "mask": root / "manifest.json",
            "config": config}


@pytest.mark.parametrize("kind, path, label, value", _mutations())
def test_mutated_input_exit_2(contract_files, tmp_path, capsys, monkeypatch, kind, path,
                              label, value):
    import violina.cli as cli

    files = {k: str(v) for k, v in contract_files.items()}
    bad = tmp_path / "bad.json"
    good = json.loads(contract_files[kind].read_text())
    mutated = _mutate(good, path, value)
    texts = [json.dumps(mutated)]
    if kind == "dataset":  # also compact, the layout the stream's head takes
        texts.append(json.dumps(mutated, separators=(",", ":")))
    if kind == "packed":  # only the layout violina writes, which the stream reads
        texts = [json.dumps(mutated, sort_keys=True, separators=(",", ":"))]
    out = tmp_path / "out"
    out.mkdir()
    role = {"packed": "dataset"}.get(kind, kind)  # the file bad.json stands for
    data, model, mask = (str(bad) if role == k else files[k]
                         for k in ("dataset", "model", "mask"))
    yielded = []
    read = cli._read_dataset_json

    def traced(fh):
        for obj in read(fh):
            yielded.append(fh.name)
            yield obj
    monkeypatch.setattr(cli, "_read_dataset_json", traced)
    commands = {
        "dataset": [
            ["fit", "--train", data, "--constraints", "a2b", "--mask", mask, "--steps", "1",
             "--out", str(out / "fit.json"), "--curve", str(out / "curve.csv")],
            ["dmdc", "--train", data, "--out", str(out / "dmdc.json"),
             "--scan-csv", str(out / "scan.csv")],
            ["evaluate", "--model", model, "--dataset", data, "--report", str(out / "r.csv"),
             "--aggregate", str(out / "a.json")],
            ["simulate", "--model", model, "--dataset", data, "--out", str(out / "p.json")],
            ["plot", "--kind", "traces", "--truth", data, "--pred", files["dataset"],
             "--out", str(out / "t.svg")],
            ["plot", "--kind", "traces", "--truth", files["dataset"], "--pred", data,
             "--out", str(out / "t.svg")],
        ],
        "model": [
            ["evaluate", "--model", model, "--dataset", data, "--report", str(out / "r.csv"),
             "--aggregate", str(out / "a.json")],
            ["simulate", "--model", model, "--dataset", data, "--out", str(out / "p.json")],
        ],
        "mask": [["fit", "--train", data, "--constraints", constraints, "--mask", mask,
                  "--steps", "1", "--out", str(out / "fit.json")]
                 for constraints in ("a1b", "a2b")],
        "config": [["generate", "--config", str(bad), "--out", str(out / "suite")]],
    }[role]
    accepted = (kind, path, label) in _ACCEPTED
    for text, argv in itertools.product(texts, commands):
        bad.write_text(text)
        rc = main(["--quiet", *argv])
        err = capsys.readouterr().err
        if accepted:
            assert (rc, err) == (0, ""), argv[0]
            continue
        assert rc == 2, (argv[0], text[:40], err)
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: "), err
        if path[:2] == ("trajectories", 1):
            assert f"{bad}: trajectory 1: " in err, err
        assert not any(out.iterdir()), argv[0]
        if kind == "packed":  # the stream read the head and trajectory 0 at least
            assert yielded.count(str(bad)) >= 2, argv[0]
        yielded.clear()


@pytest.mark.parametrize("setting", [["--steps", "0"], ["--t0", "-1"], ["--t0", "nan"],
                                     ["--t0", "inf"], ["--eta", "0.5"], ["--eta", "inf"],
                                     ["--stop-tol", "nan"], ["--stop-tol", "inf"],
                                     ["--stop-tol", "-1"], ["--bandwidth", "1"],
                                     ["--bandwidth", "0"]],
                         ids=lambda s: f"{s[0][2:]}={s[1]}")
def test_bad_solver_settings_exit_2(suite_dir, tmp_path, capsys, setting):
    rc = main(["--quiet", "fit", "--train", str(suite_dir / "nonmarkov_train.json"),
               "--mask", str(suite_dir / "manifest.json"), *setting,
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "solver settings" in capsys.readouterr().err


class _NoRoom:
    """numpy, but with no memory for an array of more than 5 000 entries:
    ``zeros`` raises ``MemoryError`` with numpy's message instead of
    allocating it."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def zeros(shape, *args, **kwargs):
        if np.prod(shape) > 5_000:
            raise MemoryError(f"Unable to allocate for an array with shape {shape} "
                              "and data type float64")
        return np.zeros(shape, *args, **kwargs)


def test_fit_bandwidth_too_large_for_memory_exit_2(suite_dir, tmp_path, capsys, monkeypatch):
    """A bandwidth whose stack buffer (``r x m`` with ``r = n (Q + 1) + k``
    rows, 220 x 30 here), the engine's largest array, cannot be allocated
    exits 2 with one line naming the bandwidth, and writes no file.  The
    allocation is made to fail, not attempted."""
    from violina import model

    monkeypatch.setattr(model, "np", _NoRoom())
    out, curve = tmp_path / "m.json", tmp_path / "c.csv"
    rc = main(["--quiet", "fit", "--train", str(suite_dir / "nonmarkov_train.json"),
               "--mask", str(suite_dir / "manifest.json"), "--bandwidth", "20",
               "--out", str(out), "--curve", str(curve)])
    assert (rc, capsys.readouterr().err) == (2, (
        "error: solver settings: bandwidth 20: Unable to allocate for an array with "
        "shape (220, 30) and data type float64\n"))
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "suite"]


def test_dataset_writer_matches_json_dump(tmp_path):
    from violina import BenchmarkConfig, build_benchmark_suite
    from violina.cli import _dump_dataset

    train = build_benchmark_suite(BenchmarkConfig.desk_scale()).nonmarkov.train
    path = tmp_path / "train.json"
    _dump_dataset(path, train.trajectories, train.q, train.m)
    expected = json.dumps(train.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_dataset_writer_pads_base64_as_json_dump(tmp_path):
    """Arrays of 1, 2 and 3 floats hold 8, 16 and 24 bytes, whose base64
    ends in two, one and no ``=``: the writer's bytes are ``json.dumps``'s
    for each, and the extreme values and ``-0.0`` read back with their
    bits.  Non-finite states raise ``ValueError`` naming the trajectory."""
    from violina.cli import _dump_dataset

    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    pads = set()
    for m in (1, 2):  # inputs of m floats, states of m + 1
        trajs = [Trajectory(np.roll(values, i)[None, : m + 1], np.roll(values, -i)[None, :m])
                 for i in range(4)]
        data = Dataset(trajs, 0, m)
        path = tmp_path / f"m{m}.json"
        assert _dump_dataset(path, trajs, 0, m) == 4
        expected = json.dumps(data.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        back = Dataset.from_dict(json.loads(path.read_text()))
        for got, traj in zip(back.trajectories, trajs):
            assert got.states.tobytes() == traj.states.tobytes()
            assert got.inputs.tobytes() == traj.inputs.tobytes()
        pads |= {len(text) - len(text.rstrip("=")) for t in data.to_dict()["trajectories"]
                 for _, _, text in t.values()}
    assert pads == {0, 1, 2}
    for bad in (np.inf, -np.inf, np.nan):
        overflow = Trajectory(np.array([[1.0, bad]]), np.array([[0.0]]))
        with pytest.raises(ValueError, match=r"^x: trajectory 1: the simulated states overflow$"):
            _dump_dataset(tmp_path / "bad.json", [trajs[0], overflow], 0, 1, "x: ")


def _writer_peak(path, traj, copies):
    """Traced peak of writing a dataset of ``copies`` fresh copies of
    ``traj``, each made as the writer asks for it."""
    import tracemalloc

    from violina.cli import _dump_dataset

    fresh = (Trajectory(traj.states.copy(), traj.inputs.copy()) for _ in range(copies))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _dump_dataset(path, fresh, 2, traj.length)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_dataset_writer_memory_does_not_grow_with_the_trajectories(tmp_path):
    # each trajectory is checked, encoded and written before the next is made
    from violina import BenchmarkConfig, build_benchmark_suite

    traj = build_benchmark_suite(BenchmarkConfig.desk_scale()).nonmarkov.train.trajectories[0]
    few = _writer_peak(tmp_path / "few.json", traj, 5)
    many = _writer_peak(tmp_path / "many.json", traj, 20)
    assert many <= 1.25 * few


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


@pytest.mark.parametrize("seed", [1, 7])
def test_generate_writes_the_library_suite(tmp_path, seed):
    """The streamed suite has the bytes of ``build_benchmark_suite``'s
    objects, so both take their trajectories in one order."""
    from violina import BenchmarkConfig, build_benchmark_suite

    suite = build_benchmark_suite(BenchmarkConfig.desk_scale(seed))
    out = tmp_path / "suite"
    assert main(["--quiet", "generate", "--preset", "desk", "--seed", str(seed),
                 "--out", str(out)]) == 0
    systems = {"markov": suite.markov, "nonmarkov": suite.nonmarkov}
    kinds = ("train", "test", "energy")
    expected = {"manifest.json": _dump({
        "grid": suite.grid.to_dict(), "h": suite.h, "config": suite.config.to_dict(),
        "mask": suite.grid.neighbor_mask.astype(int).tolist(),
        "models": {name: f"{name}_model.json" for name in systems},
        "datasets": {name: {kind: f"{name}_{kind}.json" for kind in kinds}
                     for name in systems}})}
    for name, system in systems.items():
        expected[f"{name}_model.json"] = _dump(system.model.to_dict())
        for kind in kinds:
            expected[f"{name}_{kind}.json"] = _dump(getattr(system, kind).to_dict())
    assert sorted(os.listdir(out)) == sorted(expected)
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name


def test_generate_keeps_the_column_loop_bits(tmp_path, monkeypatch):
    """The desk datasets ``generate`` writes have the bytes of datasets
    simulated by the column-major loop of ``oracles.column_simulate``, one
    trajectory at a time, in place of the lockstep ``simulate_many`` that
    ``synth.simulate_trajectories`` calls."""
    from oracles import column_simulate

    from violina import BenchmarkConfig, build_benchmark_suite

    out = tmp_path / "suite"
    assert main(["--quiet", "generate", "--preset", "desk", "--out", str(out)]) == 0
    monkeypatch.setattr(StateSpaceModel, "simulate_many", lambda self, initial, inputs: [
        Trajectory(column_simulate(self, x0, u), u) for x0, u in zip(initial, inputs)])
    suite = build_benchmark_suite(BenchmarkConfig.desk_scale())
    for name, system in (("markov", suite.markov), ("nonmarkov", suite.nonmarkov)):
        for kind in ("train", "test", "energy"):
            data = _dump(getattr(system, kind).to_dict())
            assert (out / f"{name}_{kind}.json").read_bytes() == data, (name, kind)


def test_generate_encodes_each_input_once(tmp_path, monkeypatch):
    """Both ground truths are driven by the same inputs, so each input array
    is packed once for both files: a desk suite has 21 inputs (12 train,
    8 test, 1 energy) of ``m`` rows each, and 42 state arrays of ``m + 1``
    rows, each packed by ``pack_json``."""
    from collections import Counter

    import violina.cli as cli

    pack, rows = cli.pack_json, Counter()

    def counting(a):
        rows[a.shape[0]] += 1
        return pack(a)

    monkeypatch.setattr(cli, "pack_json", counting)
    assert main(["--quiet", "generate", "--preset", "desk", "--out", str(tmp_path)]) == 0
    assert rows == {200: 21, 201: 42}


def _generate_peak(tmp_path, grid):
    """Traced peak of ``generate --config`` on ``grid`` with ``m = 200``,
    after one untraced run that makes the first-call allocations."""
    import tracemalloc

    tmp_path.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**grid, "m": 200}))
    argv = ["--quiet", "generate", "--config", str(cfg), "--out", str(tmp_path / "suite")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_generate_holds_one_input_at_a_time(tmp_path):
    """Two grids of 30 cells, whose train sets hold 12 and 24 trajectories:
    each input's trajectories are written and dropped before the next is
    taken, and each chunk of ``synth._LOCKSTEP`` inputs before the next
    chunk is simulated, so the peaks differ by at most half of one trajectory's
    arrays, the bound of ``test_commands_hold_one_trajectory_at_a_time``."""
    few = _generate_peak(tmp_path / "few", {"Lx": 10, "Ly": 3})
    many = _generate_peak(tmp_path / "many", {"Lx": 5, "Ly": 6})
    one = (30 * 201 + 30 * 200) * 8  # the states and inputs of one trajectory
    assert abs(many - few) <= one / 2, (few, many)


def _snapshot(directory) -> dict:
    return {p.name: p.read_bytes() if p.is_file() else None
            for p in Path(directory).iterdir()}


def test_failed_generate_keeps_the_old_suite(suite_dir, tmp_path, capsys, monkeypatch):
    old = _snapshot(suite_dir)
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"Lx": 10, "Ly": 3, "m": 20, "coeffs": [1e308, 1e308]}))
    capsys.readouterr()
    assert main(["--quiet", "generate", "--config", str(cfg), "--out", str(suite_dir)]) == 4
    assert capsys.readouterr().err == (
        "numeric error: nonmarkov train set: trajectory 0: the simulated states overflow\n")
    assert _snapshot(suite_dir) == old

    # a write that fails at the second packed array: after the first input,
    # at the first input's markov states, with markov_train and
    # nonmarkov_train staged and no model file
    import violina.cli as cli

    pack, calls, files = cli.pack_json, [], []

    def failing(a):
        calls.append(a)
        if len(calls) == 2:
            files.extend(set(os.listdir(suite_dir)) - set(old))
            raise OSError(28, "No space left on device")
        return pack(a)

    monkeypatch.setattr(cli, "pack_json", failing)
    assert main(["--quiet", "generate", "--config", str(tmp_path / "cfg.json"),
                 "--seed", "5", "--out", str(suite_dir)]) == 3
    assert capsys.readouterr().err == "io error: [Errno 28] No space left on device\n"
    assert len(files) == 2
    assert _snapshot(suite_dir) == old


def test_simulate_publishes_only_a_complete_file(suite_dir, tmp_path, capsys):
    model, data = str(suite_dir / "markov_model.json"), suite_dir / "markov_test.json"
    pred = tmp_path / "pred.json"
    assert main(["--quiet", "simulate", "--model", model, "--dataset", str(data),
                 "--out", str(pred)]) == 0
    # --out may be the dataset that is read
    inplace = tmp_path / "inplace.json"
    inplace.write_bytes(data.read_bytes())
    assert main(["--quiet", "simulate", "--model", model, "--dataset", str(inplace),
                 "--out", str(inplace)]) == 0
    assert inplace.read_bytes() == pred.read_bytes()
    # an overflow leaves an existing --out as it was
    d = json.loads(Path(model).read_text())
    d["A"] = (1e200 * np.eye(len(d["A"]))).tolist()
    diverging = tmp_path / "diverging.json"
    diverging.write_text(json.dumps(d))
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["--quiet", "simulate", "--model", str(diverging), "--dataset", str(data),
                 "--out", str(pred)]) == 4
    assert capsys.readouterr().err == (
        "numeric error: trajectory 0: the simulated states overflow\n")
    assert _snapshot(tmp_path) == before
    # an error about the output names the path given, not a temporary one
    missing = tmp_path / "nodir" / "x.json"
    assert main(["--quiet", "simulate", "--model", model, "--dataset", str(data),
                 "--out", str(missing)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.endswith(f"'{missing}'\n"), err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("second", ["missing", "directory"])
@pytest.mark.parametrize("command", ["fit", "dmdc", "evaluate"])
def test_failed_second_output_publishes_nothing(suite_dir, tmp_path, capsys, command, second):
    """When the second output of ``fit``, ``dmdc`` or ``evaluate`` cannot be
    written (its directory is missing, or it is a directory), the command
    exits 3 naming that path, the first output is neither created nor
    changed, and no temporary is left."""
    train = str(suite_dir / "markov_train.json")
    out = tmp_path / "out"
    out.mkdir()
    first = out / "first"
    if second == "missing":
        target = tmp_path / "nodir" / "second"
    else:
        target = out / "second"
        target.mkdir()
    argv = {
        "fit": ["fit", "--train", train, "--constraints", "free", "--steps", "3",
                "--out", first, "--curve", target],
        "dmdc": ["dmdc", "--train", train, "--out", first, "--scan-csv", target],
        "evaluate": ["evaluate", "--model", suite_dir / "markov_model.json",
                     "--dataset", suite_dir / "markov_test.json",
                     "--report", first, "--aggregate", target],
    }[command]
    for old in (None, b"older bytes\n"):
        if old is not None:
            first.write_bytes(old)
        before = _snapshot(out)
        capsys.readouterr()
        assert main(["--quiet", *map(str, argv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.endswith(f"'{target}'\n"), err
        assert _snapshot(out) == before
        assert not list(tmp_path.rglob(".*.tmp"))


@pytest.mark.parametrize("spelling", ["first", "./first", "../out/first"])
@pytest.mark.parametrize("command", ["fit", "dmdc", "evaluate"])
def test_two_outputs_naming_one_file_publish_nothing(suite_dir, tmp_path, capsys, monkeypatch,
                                                     command, spelling):
    """When both outputs of ``fit``, ``dmdc`` or ``evaluate`` name one file,
    however spelled, the command exits 2 naming the second, writes
    nothing, leaves an older file its bytes and leaves no temporary."""
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    argv = {
        "fit": ["fit", "--train", suite_dir / "markov_train.json", "--constraints", "free",
                "--steps", "3", "--out", "first", "--curve", spelling],
        "dmdc": ["dmdc", "--train", suite_dir / "markov_train.json", "--out", "first",
                 "--scan-csv", spelling],
        "evaluate": ["evaluate", "--model", suite_dir / "markov_model.json",
                     "--dataset", suite_dir / "markov_test.json",
                     "--report", "first", "--aggregate", spelling],
    }[command]
    for old in (None, b"older bytes\n"):
        if old is not None:
            (out / "first").write_bytes(old)
        before = _snapshot(out)
        capsys.readouterr()
        assert main(["--quiet", *map(str, argv)]) == 2
        assert capsys.readouterr().err == (
            f"error: {spelling}: two outputs of the command name this file\n")
        assert _snapshot(out) == before
        assert not list(tmp_path.rglob(".*.tmp"))


@pytest.mark.parametrize("command", ["fit", "dmdc", "evaluate"])
def test_two_outputs_naming_one_file_are_refused_before_any_read(desk_files, tmp_path, capsys,
                                                                 monkeypatch, command):
    """``fit``, ``dmdc`` and ``evaluate`` refuse two outputs that name one
    file before they read an input: a missing ``--train`` or ``--dataset``
    gives that exit 2, not the read's exit 3, and on the desk sets the fit,
    the rank scan or the first prediction is never reached."""
    import violina.cli as cli
    import violina.dmdc
    import violina.pgd
    from violina.dmdc import as_model

    train = _load_dataset(desk_files / "train.json")
    model = tmp_path / "model.json"
    cli._dump_json(model, as_model(np.zeros((train.n, train.n)), np.zeros((train.n, train.k)),
                                   train.m).to_dict())

    def never(*args, **kwargs):
        raise AssertionError("the command did its work before checking its outputs")
    # each command looks its work up where it runs: fit and dmdc in the module
    # they import when they run
    monkeypatch.setattr(*{"fit": (violina.pgd, "violina_fit"),
                          "dmdc": (violina.dmdc, "dmdc_rank_scan"),
                          "evaluate": (cli, "_predict")}[command], never)
    monkeypatch.chdir(tmp_path)
    valid = desk_files / ("test.json" if command == "evaluate" else "train.json")
    for data in (tmp_path / "missing.json", valid):
        argv = {
            "fit": ["fit", "--train", data, "--constraints", "free", "--out", "P",
                    "--curve", "./P"],
            "dmdc": ["dmdc", "--train", data, "--out", "P", "--scan-csv", "./P"],
            "evaluate": ["evaluate", "--model", model, "--dataset", data, "--report", "P",
                         "--aggregate", "./P"],
        }[command]
        capsys.readouterr()
        assert main(["--quiet", *map(str, argv)]) == 2
        assert capsys.readouterr().err == "error: ./P: two outputs of the command name this file\n"
        assert not (tmp_path / "P").exists()
        assert not list(tmp_path.rglob(".*.tmp"))


def test_fit_curve_csv_layout(tmp_path, rng):
    """``fit --curve`` writes a header, the initial point and one row per
    step; the step and backtracks columns are integers, with no ``.0``."""
    from conftest import random_stable_model, simulated_dataset
    from violina.cli import _dump_dataset

    truth = random_stable_model(rng, n=2, k=1, m=8, q=0, Q=1)
    data = simulated_dataset(rng, truth, 8, N=1)
    train = tmp_path / "train.json"
    _dump_dataset(train, data.trajectories, data.q, data.m)
    path = tmp_path / "curve.csv"
    assert main(["--quiet", "fit", "--train", str(train), "--constraints", "free",
                 "--steps", "4", "--out", str(tmp_path / "model.json"),
                 "--curve", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,stepsize,backtracks"
    assert len(lines) == 6  # header + initial point + 4 steps
    assert lines[1].startswith("0,")
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(re.fullmatch(r"0|[1-9][0-9]*", row[3]) for row in rows), lines


def test_fit_requires_mask_for_constrained_runs(suite_dir, tmp_path):
    rc = main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
               "--constraints", "a1b", "--steps", "5",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_fit_a2b_identity_shift_unit_column_sums(suite_dir, tmp_path):
    model = tmp_path / "a2.json"
    rc = main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
               "--constraints", "a2b",
               "--mask", str(suite_dir / "manifest.json"),
               "--steps", "30", "--out", str(model)])
    assert rc == 0
    fitted = StateSpaceModel.from_dict(json.loads(model.read_text()))
    assert np.max(np.abs(fitted.A.sum(axis=0) - 1.0)) <= 1e-7
    off = fitted.A - np.diag(np.diag(fitted.A))
    assert off.min() >= -1e-10
    assert np.all(fitted.A[np.eye(10, dtype=bool) == False] >= -1e-10)


def test_plot_curve_and_determinism(suite_dir, tmp_path):
    model = tmp_path / "model.json"
    curve = tmp_path / "curve.csv"
    main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
          "--constraints", "free", "--steps", "25",
          "--out", str(model), "--curve", str(curve)])
    svg1 = tmp_path / "p1.svg"
    svg2 = tmp_path / "p2.svg"
    assert main(["--quiet", "plot", "--kind", "curve", str(curve),
                 "--out", str(svg1)]) == 0
    assert main(["--quiet", "plot", "--kind", "curve", str(curve),
                 "--out", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    text = svg1.read_text()
    assert text.startswith("<svg") and "polyline" in text
    # one 640 x 420 panel: the background and one frame
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420" '
                           'viewBox="0 0 640 420">')
    assert text.count("<rect") == 2


def test_plot_curve_escapes_text(tmp_path):
    """A file name with ``&``, a title and column headers with ``<`` reach
    the SVG as escaped text, so it parses as XML and reads back verbatim."""
    from xml.etree import ElementTree

    csv = tmp_path / "a&b.csv"
    csv.write_text("t<0,y<1\n0,1\n1,2\n", encoding="utf-8")
    svg = tmp_path / "p.svg"
    assert main(["--quiet", "plot", "--kind", "curve", str(csv), "--title", "x < y",
                 "--x-col", "t<0", "--y-col", "y<1", "--out", str(svg)]) == 0
    texts = [el.text for el in ElementTree.fromstring(svg.read_text()).iter()
             if el.tag.endswith("text")]
    assert {"x < y", "t<0", "y<1", "a&b"} <= set(texts)


def test_plot_traces(suite_dir, tmp_path):
    pred = tmp_path / "pred.json"
    main(["--quiet", "simulate", "--model", str(suite_dir / "markov_model.json"),
          "--dataset", str(suite_dir / "markov_test.json"), "--out", str(pred)])
    svg = tmp_path / "traces.svg"
    rc = main(["--quiet", "plot", "--kind", "traces",
               "--truth", str(suite_dir / "markov_test.json"), "--pred", str(pred),
               "--cells", "0,3,7", "--out", str(svg)])
    assert rc == 0
    assert svg.read_text().count("<polyline") == 6  # two lines per panel


@pytest.mark.parametrize("missing", ["--truth", "--pred"])
def test_plot_traces_missing_dataset_exit_2(suite_dir, tmp_path, capsys, missing):
    given = {"--truth", "--pred"} - {missing}
    argv = [a for flag in given for a in (flag, str(suite_dir / "markov_test.json"))]
    svg = tmp_path / "traces.svg"
    assert main(["--quiet", "plot", "--kind", "traces", "--out", str(svg), *argv]) == 2
    assert f"need {missing}" in capsys.readouterr().err
    assert not svg.exists()


def test_plot_empty_input_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("step,loss\n")
    assert main(["--quiet", "plot", "--kind", "curve", str(empty),
                 "--out", str(tmp_path / "x.svg")]) == 2
    assert main(["--quiet", "plot", "--kind", "curve",
                 "--out", str(tmp_path / "x.svg")]) == 2


@pytest.mark.parametrize("body,got", [("0,1.5\n1,abc\n", "got '1' and 'abc'"),
                                      ("0,1.5\n1\n", "got '1' and None")],
                         ids=["non-numeric", "short-row"])
def test_malformed_csv_exit_2(tmp_path, capsys, body, got):
    bad = tmp_path / "bad.csv"
    bad.write_text("step,loss\n" + body)
    assert main(["--quiet", "plot", "--kind", "curve", str(bad),
                 "--out", str(tmp_path / "x.svg")]) == 2
    assert f"{bad}: line 3 needs numbers in 'step' and 'loss', {got}" in capsys.readouterr().err
    bad.write_text("trajectory,rel_error\n" + body)
    assert main(["--quiet", "compare", "--a", str(bad), "--b", str(bad)]) == 2
    assert f"{bad}: line 3 needs numbers in 'trajectory' and 'rel_error', {got}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("linear", [[], ["--linear"]], ids=["log", "linear"])
def test_plot_curve_skips_non_finite_points(tmp_path, capsys, linear):
    """``evaluate`` writes ``inf`` and ``nan`` for a diverging model: those
    points are left out on either axis, and a CSV of nothing else has
    nothing to plot."""
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("step,loss\n0,1.5\n1,inf\n2,nan\n3,0.5\ninf,2.0\nnan,3.0\n4,-inf\n")
    svg = tmp_path / "mixed.svg"
    assert main(["--quiet", "plot", "--kind", "curve", str(mixed), "--out", str(svg),
                 *linear]) == 0
    text = svg.read_text()
    assert not re.search(r"\b(nan|inf)\b", text)
    points, = re.findall(r'<polyline points="([^"]*)"', text)
    assert len(points.split()) == 2  # steps 0 and 3
    bad = tmp_path / "bad.csv"
    bad.write_text("step,loss\n0,inf\n1,nan\nnan,1.0\n")
    out = tmp_path / "bad.svg"
    assert main(["--quiet", "plot", "--kind", "curve", str(bad), "--out", str(out),
                 *linear]) == 4
    err = capsys.readouterr().err
    assert err == "numeric error: nothing to plot: no finite data points\n"
    assert not out.exists()


def test_plot_curve_missing_columns_exit_2(tmp_path, capsys):
    csv = tmp_path / "other.csv"
    csv.write_text("a,b\n0,1\n")
    svg = tmp_path / "x.svg"
    assert main(["--quiet", "plot", "--kind", "curve", str(csv), "--out", str(svg)]) == 2
    assert f"{csv}: need columns 'step' and 'loss'" in capsys.readouterr().err
    assert not svg.exists()


def test_plot_traces_blank_cells_exit_2(suite_dir, tmp_path, capsys):
    svg = tmp_path / "traces.svg"
    test = str(suite_dir / "markov_test.json")
    assert main(["--quiet", "plot", "--kind", "traces", "--truth", test, "--pred", test,
                 "--cells", " , ", "--out", str(svg)]) == 2
    assert "plot traces: --cells is empty" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_dense_kernel_model_exit_4(suite_dir, tmp_path, capsys, command):
    """A ``kernel_dense`` model has no ARX recursion: both commands refuse it
    with one error line and write nothing."""
    d = json.loads((suite_dir / "nonmarkov_model.json").read_text())
    d["kernel_dense"] = StateSpaceModel.from_dict(d).kernel.to_dense().tolist()
    del d["kernel"]
    model = tmp_path / "dense.json"
    model.write_text(json.dumps(d))
    outputs = {"evaluate": ["--report", str(tmp_path / "r.csv"),
                            "--aggregate", str(tmp_path / "a.json")],
               "simulate": ["--out", str(tmp_path / "sim.json")]}[command]
    assert main(["--quiet", command, "--model", str(model),
                 "--dataset", str(suite_dir / "nonmarkov_test.json"), *outputs]) == 4
    assert capsys.readouterr().err == \
        "numeric error: cannot simulate a model with a dense kernel\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "dense.json", "suite"]


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("key, value, axis", [("n", 7, "A has 10 rows"),
                                              ("k", 3, "B has 10 columns")])
def test_model_sizes_other_than_its_arrays_exit_2(suite_dir, tmp_path, capsys, command,
                                                  key, value, axis):
    """A model file whose ``n`` or ``k`` is not its arrays' is refused with
    one error line naming the field, and nothing is written."""
    d = json.loads((suite_dir / "nonmarkov_model.json").read_text())
    d[key] = value
    model = tmp_path / "sizes.json"
    model.write_text(json.dumps(d))
    outputs = {"evaluate": ["--report", str(tmp_path / "r.csv"),
                            "--aggregate", str(tmp_path / "a.json")],
               "simulate": ["--out", str(tmp_path / "sim.json")]}[command]
    assert main(["--quiet", command, "--model", str(model),
                 "--dataset", str(suite_dir / "nonmarkov_test.json"), *outputs]) == 2
    assert capsys.readouterr().err == f"error: {model}: {key!r} is {value}, but {axis}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sizes.json", "suite"]


@pytest.mark.parametrize("fit", [["--fit-index", "0"], ["--fit-index", "5"], ["--pooled"]],
                         ids=["fit-index-0", "fit-index-5", "pooled"])
def test_dmdc_writes_the_library_scan_bit_for_bit(desk_files, tmp_path, fit):
    """``dmdc`` reads its train set through the stream, yet writes the bytes
    of ``dmdc_rank_scan`` on the list path's dataset: each ``scan.csv`` row
    is ``rank,repr(error)`` and ``dmdc.json`` is the best rank's model."""
    from violina.cli import _dump_json
    from violina.dmdc import as_model, dmdc_rank_scan

    train = desk_files / "train.json"
    out, scan_csv = tmp_path / "dmdc.json", tmp_path / "scan.csv"
    assert main(["--quiet", "dmdc", "--train", str(train), *fit, "--scan-csv", str(scan_csv),
                 "--out", str(out)]) == 0
    data = Dataset.from_dict(json.loads(train.read_text()))
    scan = dmdc_rank_scan(data, None if fit == ["--pooled"] else int(fit[1]))
    assert scan_csv.read_text().splitlines() == [
        "rank,mean_self_reconstruction_error",
        *(f"{rank},{error!r}" for rank, error in zip(scan.ranks, scan.errors))]
    _dump_json(tmp_path / "library.json", as_model(scan.A, scan.B, data.m).to_dict())
    assert out.read_bytes() == (tmp_path / "library.json").read_bytes()


def test_dmdc_rank_zero_fit_trajectory(suite_dir, tmp_path, capsys):
    """An all-zero fit trajectory leaves DMDc no rank to scan (exit 4), and
    a fixed ``--rank`` names the attainable rank 0 (exit 2)."""
    data = _load_dataset(suite_dir / "markov_train.json")
    first = data.trajectories[0]
    zero = Trajectory(np.zeros_like(first.states), np.zeros_like(first.inputs))
    train = tmp_path / "train.json"
    train.write_text(json.dumps(Dataset([zero, *data.trajectories[1:]], data.q,
                                        data.m).to_dict()))
    out = tmp_path / "dmdc.json"
    argv = ["--quiet", "dmdc", "--train", str(train), "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr().err == "numeric error: fitting data has rank zero\n"
    assert main([*argv, "--rank", "1"]) == 2
    err = capsys.readouterr().err
    assert "--rank" in err and "the attainable rank is 0" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--fit-index", "99"], ["--fit-index", "-1"],
                                   ["--fit-index", "8", "--rank", "2"]],
                         ids=["99", "-1", "8-fixed-rank"])
def test_dmdc_fit_index_out_of_range_exit_2(suite_dir, tmp_path, capsys, extra):
    out = tmp_path / "dmdc.json"
    rc = main(["--quiet", "dmdc", "--train", str(suite_dir / "markov_train.json"),
               "--out", str(out), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--fit-index" in err and "valid range [0, 8)" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--fit-index", "99"], ["--fit-index", "-3", "--rank", "1"],
                                   ["--fit-index", "0"]], ids=["99", "-3-fixed-rank", "0"])
def test_dmdc_fit_index_with_pooled_exit_2(suite_dir, tmp_path, capsys, extra):
    out = tmp_path / "dmdc.json"
    rc = main(["--quiet", "dmdc", "--train", str(suite_dir / "markov_train.json"),
               "--out", str(out), "--pooled", *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--fit-index" in err and "--pooled" in err
    assert not out.exists()


def test_fit_laplacian_shift_option_is_gone(suite_dir, tmp_path, capsys):
    # a2b always uses the identity shift; the option is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
              "--constraints", "a2b", "--laplacian-shift", "identity",
              "--mask", str(suite_dir / "manifest.json"), "--out", str(tmp_path / "m.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --laplacian-shift" in capsys.readouterr().err


@pytest.mark.parametrize("rank", ["0", "99"], ids=["rank=0", "rank=99"])
@pytest.mark.parametrize("pooled", [[], ["--pooled"]], ids=["single", "pooled"])
def test_dmdc_rank_out_of_range_exit_2(suite_dir, tmp_path, capsys, rank, pooled):
    out = tmp_path / "dmdc.json"
    rc = main(["--quiet", "dmdc", "--train", str(suite_dir / "markov_train.json"),
               "--out", str(out), "--rank", rank, *pooled])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--rank" in err and f"rank {rank} outside the valid range [1, " in err
    assert not out.exists()


def test_dmdc_rank_with_scan_csv_exit_2(suite_dir, tmp_path, capsys):
    out, scan = tmp_path / "dmdc.json", tmp_path / "scan.csv"
    rc = main(["--quiet", "dmdc", "--train", str(suite_dir / "markov_train.json"),
               "--out", str(out), "--rank", "2", "--scan-csv", str(scan)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--scan-csv" in err and "--rank" in err
    assert not out.exists() and not scan.exists()


@pytest.mark.parametrize("extra, pred_size, flag", [
    (["--traj", "99"], None, "--traj"),
    (["--traj", "-1"], None, "--traj"),
    (["--traj", "1"], 1, "--traj"),
    (["--cells", "a"], None, "--cells"),
    (["--cells", "0,10"], None, "--cells"),
    (["--cells", "-1"], None, "--cells"),
], ids=["traj=99", "traj=-1", "traj-past-pred", "cells=a", "cells=10", "cells=-1"])
def test_plot_traces_out_of_range_exit_2(suite_dir, tmp_path, capsys, extra, pred_size,
                                         flag):
    pred = tmp_path / "pred.json"
    main(["--quiet", "simulate", "--model", str(suite_dir / "markov_model.json"),
          "--dataset", str(suite_dir / "markov_test.json"), "--out", str(pred)])
    if pred_size is not None:
        d = json.loads(pred.read_text())
        d["trajectories"] = d["trajectories"][:pred_size]
        pred.write_text(json.dumps(d))
    svg = tmp_path / "traces.svg"
    rc = main(["--quiet", "plot", "--kind", "traces",
               "--truth", str(suite_dir / "markov_test.json"), "--pred", str(pred),
               "--out", str(svg), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert flag in err and "valid range [0, " in err
    assert not svg.exists()


_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import violina, violina.cli
done = []
for name, argv in json.loads(sys.argv[1]):
    assert violina.cli.main(argv) == 0, name
    done.append(name)
stream = violina.cli._DatasetStream(sys.argv[2])
train = violina.Dataset(stream.trajectories, stream.q, stream.m)
assert train.q > 0
for mode in ("full", "fixed_d"):
    violina.uniqueness_certificate(train, mode=mode)
    done.append(mode)
kernel = violina.CausalBandKernel(train.m, 2, 3, (0.03, -0.01))
kernel.left_pseudoinverse()
violina.fractional_kernel(1.7, 8)
model = violina.StateSpaceModel(np.eye(train.n), np.zeros((train.n, train.k)), kernel)
violina.arx_offset(model, np.ones((train.n, 3)), train.m)
done += ["left_pseudoinverse", "fractional_kernel", "arx_offset"]
assert sys.modules["scipy"] is None
assert "numpy.ma" not in sys.modules  # np.unique loads it; no command needs it
print(json.dumps(done))
"""


def test_runs_without_scipy(tmp_path):
    """``generate``, ``dmdc``, ``evaluate``, ``simulate``, ``fit`` (free and
    ``a2b``), both certificates, ``left_pseudoinverse``, ``fractional_kernel``
    and ``arx_offset`` run with SciPy made unimportable, and none of them
    loads ``numpy.ma``."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "suite"
    cfg.write_text(json.dumps(TINY))
    model, data = str(out / "markov_model.json"), str(out / "markov_test.json")
    steps = [
        ("generate", ["--config", str(cfg), "--out", str(out)]),
        ("dmdc", ["--train", str(out / "markov_train.json"),
                  "--out", str(tmp_path / "dmdc.json")]),
        ("evaluate", ["--model", model, "--dataset", data,
                      "--report", str(tmp_path / "r.csv")]),
        ("simulate", ["--model", model, "--dataset", data,
                      "--out", str(tmp_path / "pred.json")]),
        ("fit", ["--train", str(out / "markov_train.json"), "--constraints", "free",
                 "--steps", "2", "--out", str(tmp_path / "fit.json")]),
        ("fit", ["--train", str(out / "markov_train.json"), "--constraints", "a2b",
                 "--mask", str(out / "manifest.json"), "--steps", "2",
                 "--out", str(tmp_path / "fit_a2b.json")]),
    ]
    steps = [(name, ["--quiet", name, *argv]) for name, argv in steps]
    src = str(Path(violina.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(steps),
                          str(out / "nonmarkov_train.json")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [
        "generate", "dmdc", "evaluate", "simulate", "fit", "fit", "full", "fixed_d",
        "left_pseudoinverse", "fractional_kernel", "arx_offset"]


_LOADS_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("violina", "numpy"))
import violina
assert loaded() == ["violina"], loaded()
import violina.cli
imported = loaded()
assert [m for m in imported if m.startswith("violina")] == [
    "violina", "violina.cli", "violina.kernel", "violina.model"], imported
violina.cli._build_parser().parse_args(argv)
assert loaded() == imported, "parsing the arguments loaded a module"
assert violina.cli.main(argv) == 0
print(json.dumps([m for m in loaded() if m.startswith("violina.")]))
"""


def test_each_command_loads_only_its_own_modules(tmp_path):
    """In a fresh interpreter ``import violina`` loads neither numpy nor any
    submodule, ``violina.cli`` loads the dataset reader's modules and
    parsing a command line loads nothing more; each command then loads
    only the modules it runs."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "suite"
    cfg.write_text(json.dumps(TINY))
    train, test = str(out / "markov_train.json"), str(out / "markov_test.json")
    model, curve, report = (str(tmp_path / name) for name in ("model.json", "curve.csv", "r.csv"))
    evaluate = ["evaluate", "--model", model, "--dataset", test, "--report", report]
    steps = [
        (["generate", "--config", str(cfg), "--out", str(out)], ["synth"]),
        (["fit", "--train", train, "--constraints", "a2b", "--mask", str(out / "manifest.json"),
          "--steps", "2", "--out", model, "--curve", curve], ["constraints", "objective", "pgd"]),
        (["dmdc", "--train", train, "--out", str(tmp_path / "dmdc.json")], ["dmdc"]),
        (evaluate, []),
        ([*evaluate, "--energy"], ["synth"]),
        (["simulate", "--model", model, "--dataset", test, "--out", str(tmp_path / "pred.json")],
         []),
        (["plot", "--kind", "traces", "--truth", test, "--pred", str(tmp_path / "pred.json"),
          "--out", str(tmp_path / "traces.svg")], ["svgplot"]),
        (["plot", "--out", str(tmp_path / "curve.svg"), curve], ["svgplot"]),
        (["compare", "--a", report, "--b", report], []),
    ]
    src = str(Path(violina.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for argv, own in steps:
        run = subprocess.run([sys.executable, "-c", _LOADS_PROBE, json.dumps(["--quiet", *argv])],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == sorted(
            f"violina.{name}" for name in ["cli", "kernel", "model", *own]), argv
