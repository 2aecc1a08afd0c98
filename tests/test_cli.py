"""Command line surface: every subcommand end to end on tiny workloads,
config-file merging, exit codes, byte-identical reruns, and the flags
each subcommand's option table declares."""

import argparse
import inspect
import json
import shutil
import subprocess

import numpy as np
import pytest

from bmpnet import border, cli
from bmpnet.cli import _COMMANDS, _HELP, build_parser, main
from bmpnet.scheme import BilinearScheme, scheme_from_json, scheme_to_json
from bmpnet.training import TrainingDiverged
from bmpnet.verify import known_strassen, verify_scheme
from clirun import run_module
from netgen import float_scheme

TINY_TRAIN = ["--n", "2", "--r", "7", "--epochs", "2", "--batch-size", "16",
              "--train-size", "64", "--val-size", "32", "--seed", "0"]
TINY_SWEEP = ["--n", "2", "--ranks", "5,7", "--reps", "2", "--epochs", "2",
              "--batch-size", "16", "--train-size", "64", "--val-size",
              "32", "--seed", "0"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_classical_walkthrough(self, capsys):
        code, out, _ = run_cli(capsys, ["demo", "classical2x2"])
        assert code == 0
        assert "routes agree entrywise: True" in out
        assert "equals A @ B: True" in out

    def test_seven_multiplication_walkthrough(self, capsys):
        code, out, _ = run_cli(capsys, ["demo", "strassen2x2"])
        assert code == 0
        assert "exact residual zero: True" in out
        assert "equals vec(A @ B) plus zero padding: True" in out
        assert "2.807" in out


class TestTrain:
    def test_writes_run_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, ["train"] + TINY_TRAIN + ["--out", str(out_dir)])
        assert code == 0
        assert "final train loss" in out
        payload = json.loads((out_dir / "run.json").read_text())
        assert len(payload["train_losses"]) == 2
        assert np.isfinite(payload["final_val_loss"])
        assert "wall_seconds" not in payload
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["files"] == ["run.json"]
        assert manifest["options"]["epochs"] == 2

    def test_verbose_prints_epochs(self, capsys):
        code, out, _ = run_cli(capsys, ["train"] + TINY_TRAIN + ["--verbose"])
        assert code == 0
        assert out.count("epoch ") == 2

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli(capsys, ["train"] + TINY_TRAIN + ["--out", str(a)])
        run_cli(capsys, ["train"] + TINY_TRAIN + ["--out", str(b)])
        assert (a / "run.json").read_bytes() == (b / "run.json").read_bytes()

    def test_manifest_does_not_depend_on_the_directory(self, capsys,
                                                       tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "deeper" / "b"
        run_cli(capsys, ["train"] + TINY_TRAIN + ["--out", str(a)])
        run_cli(capsys, ["train"] + TINY_TRAIN + ["--out", str(b)])
        assert (a / "manifest.json").read_bytes() \
            == (b / "manifest.json").read_bytes()
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["options"]["out"] == "."

    def test_divergence_prints_no_numpy_warnings(self):
        done = run_module(["train", "--n", "2", "--r", "7", "--alpha",
                           "1e200", "--epochs", "1", "--train-size", "64",
                           "--val-size", "64"], timeout=120)
        assert done.returncode == 3
        assert "RuntimeWarning" not in done.stderr
        assert done.stderr.splitlines() == [
            "error: training diverged in epoch 0: non-finite loss or "
            "parameters (last finite losses: train None, val None)"]

    def test_divergence_has_its_own_exit_code(self, capsys):
        with np.errstate(all="ignore"):
            code, _, err = run_cli(capsys, ["train"] + TINY_TRAIN
                                   + ["--alpha", "1e200"])
        assert code == 3
        assert "error: training diverged in epoch 0" in err

    def test_divergence_leaves_a_partial_record(self, capsys, tmp_path):
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, ["train"] + TINY_TRAIN + [
                "--alpha", "1e200", "--out", str(tmp_path)])
        assert code == 3 and out == ""
        assert "error: training diverged in epoch 0" in err
        record = json.loads((tmp_path / "run.json").read_text())
        assert record == {
            "config": dict(record["config"], alpha=1e200),
            "train_losses": [], "val_losses": [],
            "diverged": {"epoch": 0}}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["files"] == ["run.json"]

    def test_overflowing_epoch_mean_is_divergence(self, capsys, tmp_path):
        # every batch loss is finite, the mean of epoch 6 overflows
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, [
                "train", "--n", "2", "--r", "7", "--epochs", "8",
                "--batch-size", "16", "--train-size", "64", "--val-size",
                "32", "--lr", "1e50", "--out", str(tmp_path)])
        assert code == 3 and out == ""
        assert "error: training diverged in epoch 6" in err

        def refuse(name):
            raise ValueError("not JSON: %s" % name)

        record = json.loads((tmp_path / "run.json").read_text(),
                            parse_constant=refuse)
        assert record["diverged"] == {"epoch": 6}
        assert len(record["train_losses"]) == 6
        assert len(record["val_losses"]) == 6

    def test_partial_record_keeps_the_curves(self, capsys, tmp_path,
                                             monkeypatch):
        def diverges(cfg, progress=None):
            raise TrainingDiverged(2, 0.5, 0.25, ([0.75, 0.5], [0.5, 0.25]))

        monkeypatch.setattr(cli, "train", diverges)
        code, out, _ = run_cli(capsys, ["train"] + TINY_TRAIN
                               + ["--out", str(tmp_path)])
        assert code == 3 and out == ""
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["diverged"] == {"epoch": 2}
        assert record["train_losses"] == [0.75, 0.5]
        assert record["val_losses"] == [0.5, 0.25]
        assert record["config"]["seed"] == 0
        # without --out nothing is written and nothing reaches stdout
        elsewhere = tmp_path / "none"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli(capsys, ["train"] + TINY_TRAIN)[:2] == (3, "")
        assert list(elsewhere.iterdir()) == []

    def test_sweep_divergence_has_its_own_exit_code(self, capsys):
        # every run of the first rank stack diverges; the sweep reports
        # none of them and raises the first
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, ["sweep"] + TINY_SWEEP
                                     + ["--alpha", "1e200"])
        assert code == 3
        assert "rank" not in out
        assert err.strip().splitlines()[-1] == (
            "error: training diverged in epoch 0: non-finite loss or "
            "parameters (last finite losses: train None, val None)")

    @pytest.mark.parametrize("command, lr", [("train", "1e308"),
                                             ("train-eps", "1e306")])
    def test_overflowing_update_is_divergence(self, capsys, command, lr):
        # the losses stay finite until an Adam update overflows to inf
        with np.errstate(all="ignore"):
            code, _, err = run_cli(capsys, [
                command, "--lr", lr, "--epochs", "2", "--train-size", "64",
                "--val-size", "64"])
        assert code == 3
        assert "error: training diverged in epoch 0" in err


class TestSweep:
    def test_full_output_tree(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run_cli(
            capsys, ["sweep"] + TINY_SWEEP + ["--out", str(out_dir)])
        assert code == 0
        assert "rank  5: mean" in out
        assert "rank 7 vs 5: t=" in out
        for name in ("curves.csv", "hist.csv", "welch.json",
                     "manifest.json"):
            assert (out_dir / name).exists()
        for rank in (5, 7):
            for rep in (0, 1):
                assert (out_dir / "runs"
                        / ("rank%02d_rep%d.json" % (rank, rep))).exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["files"]) == 7

    def test_top_vs_rest_flag(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _, _ = run_cli(capsys, ["sweep"] + TINY_SWEEP
                             + ["--top-vs-rest", "--out", str(out_dir)])
        assert code == 0
        payload = json.loads((out_dir / "welch.json").read_text())
        assert "top_pairs" in payload

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli(capsys, ["sweep"] + TINY_SWEEP + ["--out", str(a)])
        run_cli(capsys, ["sweep"] + TINY_SWEEP + ["--out", str(b)])
        for name in ("welch.json", "curves.csv", "hist.csv",
                     "runs/rank07_rep1.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, capsys, threads):
        code, out, err = run_cli(capsys, ["sweep"] + TINY_SWEEP
                                 + ["--threads", threads])
        assert code == 2
        assert "--threads must be at least 1" in err
        assert out == ""

    def test_fractional_rank_names_the_option(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--n", "2", "--ranks",
                                          "19.5", "--reps", "2"])
        assert code == 2
        assert err == ("error: bad --ranks: invalid literal for int() "
                       "with base 10: '19.5'\n")
        assert out == ""

    def test_duplicate_ranks_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["sweep"] + TINY_SWEEP[:2]
                               + ["--ranks", "5,5", "--reps", "2"])
        assert code == 2
        assert "distinct" in err


class TestVerify:
    def test_builtin_scheme_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--scheme", "strassen"])
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_zero"] is True
        assert payload["residual"] == 0.0

    def test_float_file_within_tolerance(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme_to_json(float_scheme(
            known_strassen()))))
        code, out, _ = run_cli(capsys, ["verify", "--scheme", str(path),
                                        "--tol", "1e-8"])
        assert code == 0
        assert json.loads(out)["exact_zero"] is None

    def test_float_file_beyond_tolerance(self, capsys, tmp_path):
        s = float_scheme(known_strassen())
        H = s.H.copy()
        H[0, 0] += 0.1
        bad = BilinearScheme(n=2, r=7, H=H, K=s.K, F=s.F)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scheme_to_json(bad)))
        code, _, _ = run_cli(capsys, ["verify", "--scheme", str(path),
                                      "--tol", "1e-8"])
        assert code == 1

    def test_exact_file(self, capsys, tmp_path):
        path = tmp_path / "exact.json"
        path.write_text(json.dumps(scheme_to_json(known_strassen())))
        code, out, _ = run_cli(capsys, ["verify", "--scheme", str(path),
                                        "--exact"])
        assert code == 0
        assert json.loads(out)["exact_zero"] is True

    def test_round_recovers_noisy_scheme(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        s = float_scheme(known_strassen())
        noisy = BilinearScheme(
            n=2, r=7,
            H=s.H + rng.uniform(-0.15, 0.15, s.H.shape),
            K=s.K + rng.uniform(-0.15, 0.15, s.K.shape),
            F=s.F + rng.uniform(-0.15, 0.15, s.F.shape))
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(scheme_to_json(noisy)))
        out_dir = tmp_path / "report"
        code, out, _ = run_cli(capsys, ["verify", "--scheme", str(path),
                                        "--round", "--out", str(out_dir)])
        assert code == 0
        assert json.loads(out)["exact_zero"] is True
        assert (out_dir / "rounded_scheme.json").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "rounded_scheme.json" in manifest["files"]

    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
    def test_bad_tol_is_a_usage_error(self, capsys, monkeypatch, tol):
        # found before verifying, not reported as a failed residual check
        def no_verify(*args, **kwargs):
            raise AssertionError("verify ran")
        monkeypatch.setattr(cli, "verify_scheme", no_verify)
        code, out, err = run_cli(capsys, ["verify", "--scheme", "strassen",
                                          "--tol", tol])
        assert code == 2
        assert err.startswith("error: --tol must be 0 or more")
        assert out == ""

    @pytest.mark.parametrize("tol, code", [("inf", 0), ("0", 1)])
    def test_tol_inf_and_zero_stay_valid(self, capsys, tmp_path, tol, code):
        s = float_scheme(known_strassen())
        H = s.H.copy()
        H[0, 0] += 0.1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scheme_to_json(
            BilinearScheme(n=2, r=7, H=H, K=s.K, F=s.F))))
        assert run_cli(capsys, ["verify", "--scheme", str(path), "--tol",
                                tol])[0] == code

    def test_grid_without_round_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--scheme", "strassen",
                                          "--grid", "0,1"])
        assert code == 2
        assert err == "error: --grid needs --round\n"
        assert out == ""

    def test_custom_grid(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme_to_json(float_scheme(
            known_strassen()))))
        code, _, _ = run_cli(capsys, ["verify", "--scheme", str(path),
                                      "--round", "--grid=-1,0,1,1/2,-1/2"])
        assert code == 0

    def test_missing_scheme_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["verify"])
        assert code == 2
        assert "scheme" in err

    def test_run_file_loads_its_scheme(self, capsys, tmp_path):
        # train, sweep and train-eps records nest their scheme under one
        # key; verify reads it and exits by its verdict
        for command, args, name in (
                ("train", TINY_TRAIN, "run.json"),
                ("sweep", TINY_SWEEP, "runs/rank07_rep1.json"),
                ("train-eps", TINY_TRAIN, "run_eps.json")):
            out_dir = tmp_path / command
            assert run_cli(capsys, [command] + args
                           + ["--out", str(out_dir)])[0] == 0
            record = json.loads((out_dir / name).read_text())
            want = verify_scheme(scheme_from_json(record["scheme"]))
            code, out, _ = run_cli(capsys, ["verify", "--scheme",
                                            str(out_dir / name)])
            assert code == (0 if want.residual <= 1e-8 else 1)
            assert json.loads(out) == want.to_json()
            code, _, _ = run_cli(capsys, ["verify", "--scheme",
                                          str(out_dir / name), "--round"])
            assert code in (0, 1)

    def test_run_file_without_scheme_is_usage_error_naming_the_key(
            self, capsys, tmp_path):
        # a diverged train writes a partial run.json with no scheme
        with np.errstate(all="ignore"):
            run_cli(capsys, ["train"] + TINY_TRAIN
                    + ["--alpha", "1e200", "--out", str(tmp_path)])
        code, _, err = run_cli(capsys, ["verify", "--scheme",
                                        str(tmp_path / "run.json")])
        assert code == 2
        assert err.startswith("error: scheme key 'n'")

    def test_malformed_key_is_usage_error(self, capsys, tmp_path):
        doc = scheme_to_json(float_scheme(known_strassen()))
        doc["K"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["verify", "--scheme", str(path)])
        assert code == 2
        assert err.startswith("error: scheme key 'K'")

    def test_non_finite_entry_is_usage_error(self, capsys, tmp_path):
        # a non-finite entry in a file is bad input, not divergence
        doc = scheme_to_json(float_scheme(known_strassen()))
        doc["H"][0][0] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["verify", "--scheme", str(path)])
        assert code == 2
        assert "scheme entries must be finite" in err

    def test_unreadable_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["verify", "--scheme",
                                        str(tmp_path / "missing.json")])
        assert code == 2
        assert "cannot read" in err


class TestWelch:
    def test_worked_fixture(self, capsys, tmp_path):
        out_dir = tmp_path / "w"
        code, out, _ = run_cli(capsys, [
            "welch", "--g1", "0.0022168,0.0047183,7",
            "--g2", "0.012782,0.0069753,7", "--out", str(out_dir)])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["t"] - (-3.318)) <= 0.005
        assert 0.002 <= payload["p_one_tailed"] <= 0.005
        on_disk = json.loads((out_dir / "welch.json").read_text())
        assert on_disk == payload

    def test_bad_group_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["welch", "--g1", "1,2",
                                        "--g2", "0,1,5"])
        assert code == 2
        assert "mean,std,count" in err

    def test_missing_group_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["welch", "--g1", "0,1,5"])
        assert code == 2

    @pytest.mark.parametrize("std", ["1e200", "1e100", "1e-100"])
    def test_spread_out_of_float_range_is_usage_error(self, capsys, std):
        # the squared standard errors, or the squares in the degrees of
        # freedom, overflow or underflow to 0/0
        code, out, err = run_cli(capsys, ["welch", "--g1", "0,%s,3" % std,
                                          "--g2", "1,%s,3" % std])
        assert code == 2
        assert err.startswith("error: standard errors or degrees of "
                              "freedom leave the float range")
        assert err.count("\n") == 1
        assert out == ""

    def test_overflowing_mean_gap_is_usage_error(self, capsys):
        # t and the interval would be -inf, which JSON cannot hold
        code, out, err = run_cli(capsys, ["welch", "--g1", "-1e308,1,3",
                                          "--g2", "1e308,1,3"])
        assert code == 2
        assert err.startswith("error: the t statistic or the confidence "
                              "interval leaves the float range")
        assert err.count("\n") == 1
        assert out == ""


class TestTrainEps:
    def test_writes_run_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "eps"
        code, out, _ = run_cli(
            capsys, ["train-eps"] + TINY_TRAIN
            + ["--eps0", "0.05", "--decay", "0.9", "--dmax", "1",
               "--fmin", "-1", "--out", str(out_dir)])
        assert code == 0
        assert "probe loss" in out
        payload = json.loads((out_dir / "run_eps.json").read_text())
        assert payload["epsilon_trajectory"] == [0.05, 0.05 * 0.9]
        assert len(payload["eps_factors"]["h_coeffs"]) == 2
        assert len(payload["eps_factors"]["f_coeffs"]) == 3
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "train-eps"

    @pytest.mark.parametrize("flags", [["--fmin", "5"], ["--fmin", "4"],
                                       ["--dmax", "-1", "--fmin", "-3"]])
    def test_bad_degree_bounds_are_usage_errors(self, capsys, flags):
        code, out, err = run_cli(capsys, ["train-eps"] + TINY_TRAIN + flags)
        assert code == 2
        assert err == "error: need 0 <= d_max and f_min <= d_max\n"
        assert out == ""

    def test_flat_settings_match_plain_train(self, capsys, tmp_path):
        # degree 0 and decay 1: the extension must reproduce train's JSON
        a = tmp_path / "plain"
        b = tmp_path / "eps"
        run_cli(capsys, ["train"] + TINY_TRAIN + ["--out", str(a)])
        code, _, _ = run_cli(
            capsys, ["train-eps"] + TINY_TRAIN
            + ["--decay", "1.0", "--dmax", "0", "--fmin", "0",
               "--out", str(b)])
        assert code == 0
        plain = json.loads((a / "run.json").read_text())
        eps = json.loads((b / "run_eps.json").read_text())
        assert eps["train_losses"] == plain["train_losses"]
        assert eps["val_losses"] == plain["val_losses"]
        assert eps["scheme"] == plain["scheme"]

    def test_border_defaults_are_train_eps_defaults(self):
        params = inspect.signature(border.train_eps).parameters
        keys = cli.TRAIN_EPS_KEYS
        assert (keys["dmax"], keys["fmin"], keys["probe_eps"]) == (
            params["d_max"].default, params["f_min"].default,
            params["probe_eps"].default)


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"epochs": 3, "train_size": 64, "val_size": 32,
             "batch_size": 16, "r": 5}))
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, ["train", "--config", str(cfg_path),
                                      "--epochs", "1", "--out",
                                      str(out_dir)])
        assert code == 0
        payload = json.loads((out_dir / "run.json").read_text())
        assert payload["config"]["r"] == 5
        assert len(payload["train_losses"]) == 1

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "wrong_key": True}))
        code, _, err = run_cli(capsys, ["train", "--config", str(cfg_path)])
        assert code == 2
        assert "wrong_key" in err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "resample", "false"), ("train", "epochs", 1.5),
        ("train", "epochs", True), ("train", "lr", "0.01"),
        ("train", "clip", None), ("sweep", "seed", "1"),
        ("train-eps", "decay", "1"), ("train", "verbose", "false"),
        ("train-eps", "dmax", 1.5), ("train", "out", 5),
        ("sweep", "out", ["a"]), ("verify", "grid", 5),
        ("sweep", "ranks", [[1]]), ("welch", "g1", [0.4, 0.05, [7]]),
        ("sweep", "ranks", None), ("welch", "g2", [0.4, True, 7])])
    def test_config_value_of_wrong_type_rejected(self, capsys, tmp_path,
                                                 command, key, value):
        cfg_path = tmp_path / "cfg.json"
        base = {"verify": {"scheme": "strassen", "round": True},
                "welch": {"g1": "0.42,0.05,7", "g2": "0.49,0.06,7"}}.get(
            command, {"epochs": 2, "train_size": 64, "val_size": 32,
                      "batch_size": 16})
        cfg_path.write_text(json.dumps(dict(base, **{key: value})))
        code, out, err = run_cli(capsys, [command, "--config",
                                          str(cfg_path)])
        assert code == 2
        assert err.startswith("error: option %s must be" % key)
        assert out == ""

    @pytest.mark.parametrize("command, config", [
        ("sweep", {"ranks": [19.5], "reps": 2}),
        ("welch", {"g1": [0.4, 0.05, 7.5], "g2": "0.49,0.06,7"})])
    def test_list_element_is_not_truncated(self, capsys, tmp_path,
                                           command, config):
        # 19.5 is no rank and 7.5 no count; neither becomes an int
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, [command, "--config",
                                          str(cfg_path)])
        assert code == 2
        option = {"sweep": "--ranks", "welch": "--g1"}[command]
        assert err.startswith("error: bad %s: " % option)
        assert err.count("\n") == 1
        assert out == ""

    def test_int_config_value_stands_for_float(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lr": 1, "resample": True}))
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, ["train", "--config", str(cfg_path)]
                             + TINY_TRAIN + ["--out", str(out_dir)])
        assert code == 0
        config = json.loads((out_dir / "run.json").read_text())["config"]
        assert config["lr"] == 1.0 and isinstance(config["lr"], float)
        assert config["resample"] is True

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2, 3]")
        code, _, err = run_cli(capsys, ["train", "--config", str(cfg_path)])
        assert code == 2
        assert "JSON object" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["train", "--config",
                                        str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read config" in err


class TestInstalledEntryPoint:
    @pytest.mark.skipif(shutil.which("bmpnet") is None,
                        reason="bmpnet console script not installed")
    def test_console_script_runs(self):
        exe = shutil.which("bmpnet")
        assert exe is not None
        proc = subprocess.run([exe, "demo", "classical2x2"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "routes agree entrywise: True" in proc.stdout


class TestModuleEntryPoint:
    def test_python_m_runs(self):
        proc = run_module(["demo", "classical2x2"], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "routes agree entrywise: True" in proc.stdout


class TestNonFiniteOptions:
    """A value no run can use is a usage error, found before training."""

    @pytest.mark.parametrize("command, flags", [
        ("train-eps", ["--eps0", "inf"]), ("train-eps", ["--probe-eps", "0"]),
        ("train-eps", ["--probe-eps", "inf"]),
        ("train-eps", ["--probe-eps", "nan"]), ("train", ["--lr", "inf"]),
        ("train", ["--low=-inf"]), ("train", ["--clip", "nan"]),
        ("sweep", ["--clip", "nan"])])
    def test_exit_code_two(self, capsys, command, flags):
        tiny = TINY_SWEEP if command == "sweep" else TINY_TRAIN
        code, out, err = run_cli(capsys, [command] + tiny + flags)
        assert code == 2
        assert err.startswith("error: ") and "diverged" not in err
        assert out == ""

    @pytest.mark.parametrize("value", ["0", "inf", "nan"])
    def test_probe_eps_rejected_before_training(self, capsys, monkeypatch,
                                                value):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran")
        monkeypatch.setattr(border, "fit", no_fit)
        code, _, err = run_cli(capsys, ["train-eps"] + TINY_TRAIN
                               + ["--probe-eps", value])
        assert code == 2
        assert err.startswith("error: probe_eps must be positive")

    def test_infinite_clip_turns_clipping_off(self, capsys):
        code, _, _ = run_cli(capsys, ["train"] + TINY_TRAIN
                             + ["--clip", "inf"])
        assert code == 0


class TestNegativeNumbers:
    """A value that float() reads is a value even when it starts with a
    minus sign and is not a plain decimal."""

    @pytest.mark.parametrize("value", ["-1e-3", "-2E2", "-1.5e+1"])
    def test_scientific_value_trains(self, capsys, value):
        code, out, err = run_cli(capsys, ["train"] + TINY_TRAIN
                                 + ["--low", value])
        assert code == 0, err
        assert out.startswith("final train loss")

    def test_same_as_written_with_equals(self):
        parser = build_parser()
        for value in ("-1e-3", "-2E2", "-1", "-.5", "-inf"):
            spaced = parser.parse_args(["train", "--verbose", "--low",
                                        value])
            joined = parser.parse_args(["train", "--verbose",
                                        "--low=" + value])
            assert spaced.low == joined.low == float(value)
            assert spaced.verbose is True

    def test_negative_infinity_is_not_finite(self, capsys):
        code, out, err = run_cli(capsys, ["train"] + TINY_TRAIN
                                 + ["--low", "-inf"])
        assert code == 2
        assert err.startswith("error: ") and "must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("grid", ["-1,0,1", "-1/2,0,1/2"])
    def test_negative_grid_list(self, capsys, grid):
        verify = ["verify", "--scheme", "strassen", "--round", "--grid"]
        spaced = run_cli(capsys, verify + [grid])
        assert spaced == run_cli(capsys, verify[:-1] + ["--grid=" + grid])
        # Strassen certifies on {-1, 0, 1}; snapped to halves it does not
        assert spaced[0] == (0 if grid == "-1,0,1" else 1)
        assert '"exact_zero"' in spaced[1]

    def test_flag_after_grid_is_still_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scheme", "strassen", "--grid", "--round"])
        assert exc.value.code == 2
        assert "--grid: expected one argument" in capsys.readouterr().err


def _subparsers():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _options(sp):
    return [a for a in sp._actions
            if a.dest not in ("help", "config")]


# every flag each subcommand took before the option tables declared them:
# flag -> (dest, type of the parsed value; bool for a switch)
_TRAIN_FLAGS = {
    "--n": ("n", int), "--r": ("r", int), "--epochs": ("epochs", int),
    "--batch-size": ("batch_size", int), "--lr": ("lr", float),
    "--clip": ("clip", float), "--train-size": ("train_size", int),
    "--val-size": ("val_size", int), "--alpha": ("alpha", float),
    "--seed": ("seed", int), "--low": ("low", float),
    "--high": ("high", float), "--resample": ("resample", bool),
    "--out": ("out", str), "--verbose": ("verbose", bool),
}
_FLAGS = {
    "train": _TRAIN_FLAGS,
    "sweep": dict(
        {k: v for k, v in _TRAIN_FLAGS.items() if k not in ("--r",
                                                            "--verbose")},
        **{"--ranks": ("ranks", str), "--reps": ("reps", int),
           "--threads": ("threads", int),
           "--top-vs-rest": ("top_vs_rest", bool)}),
    "verify": {
        "--scheme": ("scheme", str), "--exact": ("exact", bool),
        "--round": ("round", bool), "--tol": ("tol", float),
        "--grid": ("grid", str), "--out": ("out", str)},
    "welch": {"--g1": ("g1", str), "--g2": ("g2", str),
              "--out": ("out", str)},
    "train-eps": dict(_TRAIN_FLAGS, **{
        "--eps0": ("eps0", float), "--decay": ("decay", float),
        "--floor": ("floor", float), "--dmax": ("dmax", int),
        "--fmin": ("fmin", int), "--probe-eps": ("probe_eps", float)}),
}
_SAMPLE = {int: ("3", 3), float: ("0.5", 0.5), str: ("x", "x")}


class TestOptionTables:
    """Each subcommand's flags are exactly its option table."""

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_flag_dests_are_the_table_keys(self, command):
        sp = _subparsers()[command]
        dests = [a.dest for a in _options(sp)]
        assert sorted(dests) == sorted(_COMMANDS[command][1])
        for action in _options(sp):
            default = _COMMANDS[command][1][action.dest]
            switch = isinstance(action, argparse._StoreTrueAction)
            assert switch == isinstance(default, bool), action.dest

    @pytest.mark.parametrize("command", sorted(_FLAGS))
    def test_earlier_flags_still_accepted(self, command):
        parser = build_parser()
        for flag, (dest, kind) in _FLAGS[command].items():
            if kind is bool:
                argv, want = [command, flag], True
            else:
                text, want = _SAMPLE[kind]
                argv = [command, flag, text]
            got = vars(parser.parse_args(argv))
            assert got == {"command": command, dest: want}, flag
            assert type(got[dest]) is kind, flag

    def test_sweep_verbose_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--verbose"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_help_prints_every_option_help(self, command):
        proc = run_module([command, "--help"], timeout=60)
        assert proc.returncode == 0, proc.stderr
        text = " ".join(proc.stdout.split())
        helps = [_HELP[key] for key in _COMMANDS[command][1] if key in _HELP]
        assert helps
        for help_ in helps:
            assert " ".join(help_.split()) in text
