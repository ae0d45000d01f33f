import json

import numpy as np
import pytest

from violina import Dataset, StateSpaceModel
from violina.cli import main

TINY = {"Lx": 5, "Ly": 2, "m": 30, "seed": 13, "q": 2, "Q": 3,
        "coeffs": [0.03, -0.01], "w0": 0.5, "w1": 1.5}


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


def test_generate_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["--quiet", "generate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    cfg.write_text(json.dumps({"Ly": 2, "m": 30}))  # missing Lx
    assert main(["--quiet", "generate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2


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


def test_fit_shape_mismatch_exit_4(suite_dir, tmp_path):
    # nonmarkov mask works, but evaluating a markov model against the
    # nonmarkov dataset of a different generation breaks shapes
    other = tmp_path / "other"
    cfg = tmp_path / "cfg2.json"
    cfg.write_text(json.dumps(dict(TINY, Lx=4, Ly=2)))
    assert main(["--quiet", "generate", "--config", str(cfg), "--out", str(other)]) == 0
    report = tmp_path / "r.csv"
    rc = main(["--quiet", "evaluate", "--model", str(other / "markov_model.json"),
               "--dataset", str(suite_dir / "markov_test.json"), "--report", str(report)])
    assert rc == 4


def test_malformed_dataset_exit_2_names_the_trajectory(suite_dir, tmp_path, capsys):
    good = json.loads((suite_dir / "markov_test.json").read_text())

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


def test_malformed_model_exit_2(suite_dir, tmp_path, capsys):
    good = json.loads((suite_dir / "nonmarkov_model.json").read_text())

    def broken(edit):
        d = json.loads(json.dumps(good))
        edit(d)
        return d

    cases = {
        "missing field 'A'": broken(lambda d: d.pop("A")),
        "inhomogeneous": broken(lambda d: d["A"][3].pop()),
        "'A' holds non-finite values": broken(
            lambda d: d["A"][3].__setitem__(0, float("nan"))),
        "'B' holds non-finite values": broken(lambda d: d.__setitem__("B", None)),
        "kernel: missing field 'Q'": broken(lambda d: d["kernel"].pop("Q")),
        "kernel: 'coeffs' must be a flat list": broken(
            lambda d: d["kernel"].__setitem__("coeffs", [[0.1], [0.2]])),
        "kernel coefficients must be finite": broken(
            lambda d: d["kernel"]["coeffs"].__setitem__(0, float("inf"))),
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
        "'mask' holds non-finite values": broken(
            lambda d: d["mask"][2].__setitem__(0, float("nan"))),
        "mask shape (9, 9)": broken(lambda d: d.__setitem__("mask", np.eye(9).tolist())),
        "mask must be symmetric": broken(lambda d: d["mask"][0].__setitem__(9, 1)),
    }
    for i, (expected, manifest) in enumerate(cases.items()):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(manifest))
        rc = main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
                   "--mask", str(path), "--steps", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 2, expected
        err = capsys.readouterr().err
        assert str(path) in err and expected in err, err


@pytest.mark.parametrize("setting", [["--steps", "0"], ["--t0", "-1"], ["--t0", "nan"],
                                     ["--eta", "0.5"], ["--bandwidth", "1"]],
                         ids=lambda s: f"{s[0][2:]}={s[1]}")
def test_bad_solver_settings_exit_2(suite_dir, tmp_path, capsys, setting):
    rc = main(["--quiet", "fit", "--train", str(suite_dir / "nonmarkov_train.json"),
               "--mask", str(suite_dir / "manifest.json"), *setting,
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "solver settings" in capsys.readouterr().err


def test_dataset_writer_matches_json_dump(tmp_path):
    from violina import BenchmarkConfig, build_benchmark_suite
    from violina.cli import _dump_dataset

    train = build_benchmark_suite(BenchmarkConfig.desk_scale()).nonmarkov.train
    path = tmp_path / "train.json"
    _dump_dataset(path, train)
    expected = json.dumps(train.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_fit_requires_mask_for_constrained_runs(suite_dir, tmp_path):
    rc = main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
               "--constraints", "a1b", "--steps", "5",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_fit_a2b_identity_shift_unit_column_sums(suite_dir, tmp_path):
    model = tmp_path / "a2.json"
    rc = main(["--quiet", "fit", "--train", str(suite_dir / "markov_train.json"),
               "--constraints", "a2b", "--laplacian-shift", "identity",
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
