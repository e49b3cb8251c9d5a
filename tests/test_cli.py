"""Command-line runner: configs, reports, and exit statuses."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qmhlab import cli
from qmhlab.annealing import QueryLedger, prepare, qsa_schedule
from qmhlab.cli import CI_ALPHA, CI_EPS, _default_model, experiment_anneal, main, scaling_study
from qmhlab.inference import (CredibleQuery, PosteriorHandle, credible_bound_search,
                              synth_gw_instance)
from qmhlab.markov import ProposalKernel, build_transition_matrix, negation_slots
from qmhlab.qmci import internal_accuracy
from qmhlab.qsim import RegisterLayout


def write_model(tmp_path, seed=0):
    cfg = {
        "grid": {"shape": [8]},
        "prior": {"type": "uniform"},
        "nll": {"type": "quadratic", "center": [3.0], "scale": 0.5},
        "proposal": {"type": "nearest"},
        "seed": seed,
    }
    path = tmp_path / f"model{seed}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_config(tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return CliRunner().invoke(main, ["run", str(cfg_path)])


# the defaults each experiment's optional config keys had when the CLI spelled them out
SPELLED_OUT_DEFAULTS = {
    "verify-walk": {},
    "verify-bounds": {"seeds": [0, 1, 2, 3], "eps_values": [0.01, 0.05, 0.1]},
    "anneal": {"seed": 0, "eps": 0.1, "mode": "exact"},
    "qmci-pipeline": {"seed": 0, "eps": 0.2, "delta": 0.1, "M": 64, "spread": 0.5},
    "credible-interval": {"seed": 0, "axis": 0, "alpha": 0.5, "eps": 0.05, "delta": 0.1},
    "gw-scaling": {"M_values": [256, 512, 1024, 2048, 4096],
                   "methods": ["proposed", "exact-qsa", "classical-mh"],
                   "rho": 2.0, "eps": 0.1, "delta": 0.2, "seeds": [0, 1, 2]},
}


def report_bytes(tmp_path, name, cfg):
    """Exit code, stdout and every report file of one run, with its own output_dir."""
    out = tmp_path / name
    result = run_config(tmp_path, {**cfg, "output_dir": str(out)})
    return result.exit_code, result.output, {f.name: f.read_bytes() for f in out.iterdir()}


class TestRunCommand:
    def test_verify_walk_experiment(self, tmp_path):
        out = tmp_path / "out"
        result = run_config(tmp_path, {
            "experiment": "verify-walk",
            "model": write_model(tmp_path),
            "output_dir": str(out),
        })
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        payload = json.loads((out / "verify_walk.json").read_text())
        assert payload["pass"]
        assert payload["reference_block_error"] <= 1e-10
        assert (out / "eigenphases.csv").exists()

    def test_verify_walk_on_8x8_gaussian_torus(self, tmp_path):
        # 64 states x 9 move slots x 2 coin states: D = 1152, the certificate above toy size
        model = tmp_path / "torus.json"
        model.write_text(json.dumps({
            "grid": {"shape": [8, 8]},
            "prior": {"type": "uniform"},
            "nll": {"type": "quadratic", "center": [3.0, 4.0], "scale": 0.3},
            "proposal": {"type": "gaussian", "width": 1.0, "radius": 1},
        }))
        out = tmp_path / "out"
        result = run_config(tmp_path, {
            "experiment": "verify-walk",
            "model": str(model),
            "output_dir": str(out),
        })
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "verify_walk.json").read_text())
        assert payload["pass"]
        assert payload["sf_squared_error"] == 0.0
        assert payload["reference_block_error"] <= 1e-10

    def test_verify_walk_fails_on_corrupted_negation_table(self, tmp_path, monkeypatch):
        # the zero move is its own negation: a table that sends it to slot 1
        # breaks the involution (S F)^2 = I
        def corrupted(layout):
            neg = negation_slots(layout.shape, layout.moves).copy()    # the cached table is read-only
            neg[0] = 1
            return neg

        monkeypatch.setattr(RegisterLayout, "neg_slots", corrupted)
        out = tmp_path / "out"
        result = run_config(tmp_path, {"experiment": "verify-walk", "output_dir": str(out)})
        assert result.exit_code == 1
        assert "FAIL" in result.output
        payload = json.loads((out / "verify_walk.json").read_text())
        assert payload["sf_squared_error"] == 1.0
        assert not payload["pass"]

    def test_verify_bounds_experiment(self, tmp_path):
        out = tmp_path / "out"
        result = run_config(tmp_path, {
            "experiment": "verify-bounds",
            "output_dir": str(out),
            "seeds": [0, 1],
            "eps_values": [0.05, 0.1],
        })
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "verify_bounds.json").read_text())
        assert payload["mixing_bound_pass"]
        assert len(payload["records"]) == 4
        assert all(r["pass"] for r in payload["records"])

    def test_anneal_experiment(self, tmp_path):
        out = tmp_path / "out"
        result = run_config(tmp_path, {
            "experiment": "anneal", "output_dir": str(out), "eps": 0.1,
        })
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "anneal.json").read_text())
        assert payload["success"]
        assert payload["final_fidelity"] >= 0.8

    def test_schedule_queries_are_the_schedule_search_ledger_total(self, tmp_path):
        model, kernel = _default_model()
        for seed in (0, 3):
            _, payload = experiment_anneal(model, kernel, str(tmp_path), seed=seed)
            ledger = QueryLedger()
            qsa_schedule(model, kernel, build_transition_matrix(model, kernel).signed_gap,
                         eta=0.1, seed=seed, ledger=ledger)
            assert payload["schedule_queries"] == ledger.total > 0

    def test_qmci_pipeline_experiment(self, tmp_path):
        out = tmp_path / "out"
        result = run_config(tmp_path, {
            "experiment": "qmci-pipeline", "output_dir": str(out), "eps": 0.2,
        })
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "qmci_pipeline.json").read_text())
        assert payload["tv_realized"] <= 0.2
        assert payload["oracle_queries"] > 0

    def test_unknown_experiment_fails_with_diagnostic(self, tmp_path):
        result = run_config(tmp_path, {"experiment": "frobnicate"})
        assert result.exit_code != 0
        assert "frobnicate" in result.output

    def test_module_entry_point_runs_the_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "frobnicate"}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "qmhlab.cli", "run", str(cfg_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "frobnicate" in proc.stderr

    @pytest.mark.parametrize("experiment", sorted(SPELLED_OUT_DEFAULTS))
    def test_absent_keys_take_the_spelled_out_defaults(self, tmp_path, experiment):
        bare = report_bytes(tmp_path, "bare", {"experiment": experiment})
        spelled = report_bytes(tmp_path, "spelled",
                               {"experiment": experiment, **SPELLED_OUT_DEFAULTS[experiment]})
        assert bare[0] == 0, bare[1]
        assert bare[2]
        assert bare == spelled

    def test_config_seed_overrides_model_file_seed(self, tmp_path):
        def report(name, **cfg):
            return report_bytes(tmp_path, name, {"experiment": "qmci-pipeline", **cfg})

        seed4, seed0 = write_model(tmp_path, seed=4), write_model(tmp_path, seed=0)
        from_file = report("file", model=seed4)
        assert from_file[0] == 0, from_file[1]
        assert from_file == report("same", model=seed4, seed=4)
        assert from_file != report("default", model=seed0)
        assert report("override", model=seed4, seed=0) == report("file0", model=seed0)

    def test_malformed_json_reports_location(self, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text('{"experiment": "verify-walk",}')
        result = CliRunner().invoke(main, ["run", str(cfg_path)])
        assert result.exit_code != 0
        assert "parse error" in result.output

    @pytest.mark.parametrize("case,detail", [
        ("no-grid", "missing key 'grid'"),
        ("no-nll", "missing key 'nll'"),
        ("short-table", "length must match"),
        ("malformed-json", "line 1 column"),
        ("no-file", "No such file"),
        ("grid-list", "entry 'grid' must be an object, not list"),
        ("nll-string", "entry 'nll' must be an object, not str"),
        ("proposal-int", "entry 'proposal' must be an object, not int"),
    ], ids=["no-grid", "no-nll", "short-table", "malformed-json", "no-file",
            "grid-list", "nll-string", "proposal-int"])
    def test_bad_model_file_is_an_error_message(self, tmp_path, case, detail):
        model = {"grid": {"shape": [8]}, "nll": {"type": "table", "values": [0.0] * 8}}
        if case == "no-grid":
            del model["grid"]
        elif case == "no-nll":
            del model["nll"]
        elif case == "short-table":
            model["nll"]["values"] = [0.0] * 7
        elif case == "grid-list":
            model["grid"] = [8]
        elif case == "nll-string":
            model["nll"] = "table"
        elif case == "proposal-int":
            model["proposal"] = 5
        path = tmp_path / "model.json"
        if case != "no-file":
            path.write_text('{"grid": {"shape": [8]},' if case == "malformed-json"
                            else json.dumps(model))
        result = run_config(tmp_path, {"experiment": "verify-walk", "model": str(path),
                                       "output_dir": str(tmp_path / "out")})
        # a ClickException exits through SystemExit; an escaped error would be the exception
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"model file {path}: " in result.output
        assert detail in result.output
        assert "Traceback" not in result.output
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("cfg,detail", [
        ([1], "config holds a JSON list, not an object"),
        ({"experiment": "anneal", "seed": "x"}, "config key 'seed' must be an integer"),
        ({"experiment": "anneal", "eps": "x"}, "config key 'eps' must be a number"),
        ({"experiment": "verify-bounds", "seeds": 3}, "config key 'seeds' must be a list of"),
        ({"experiment": "credible-interval", "eps": 0.3}, "need 0 < eps < alpha/2"),
        ({"experiment": "anneal", "mode": "bogus"}, "unknown gate mode 'bogus'"),
        ({"experiment": "credible-interval", "axis": 3}, "axis 3 is outside the"),
        ({"experiment": ["anneal"]}, "unknown experiment ['anneal']"),
        ({"experiment": "anneal", "model": 3}, "config key 'model' must be a string"),
        ({"experiment": "anneal", "output_dir": 3}, "config key 'output_dir' must be a string"),
        ({"experiment": "gw-scaling", "M_values": []},
         "config key 'M_values' must be a list of one or more integers, not []"),
        ({"experiment": "gw-scaling", "methods": []},
         "config key 'methods' must be a list of one or more strings, not []"),
        ({"experiment": "verify-bounds", "seeds": []},
         "config key 'seeds' must be a list of one or more integers, not []"),
        ({"experiment": "qmci-pipeline", "M": 0}, "an oracle needs M >= 1 terms, not M = 0"),
        ({"experiment": "anneal", "eps": 0}, "anneal: eps must be positive, not 0"),
        ({"experiment": "anneal", "eps": -0.1}, "anneal: eps must be positive, not -0.1"),
        ({"experiment": "qmci-pipeline", "delta": 2.0},
         "qmci-pipeline: need eps > 0 and delta in (0, 1)"),
        ({"experiment": "credible-interval", "delta": 1.5},
         "credible-interval: delta must be in (0, 1), not 1.5"),
        ({"experiment": "anneal", "eps": 5}, "anneal: eps must be below 0.5, not 5"),
        ({"experiment": "qmci-pipeline", "eps": 5}, "qmci-pipeline: eps must be below 1, not 5"),
        ({"experiment": "gw-scaling", "M_values": [256]},
         "gw-scaling: a slope needs two or more distinct M values, not [256]"),
        ({"experiment": "gw-scaling", "M_values": [256, 256]},
         "gw-scaling: a slope needs two or more distinct M values, not [256, 256]"),
        ({"experiment": "gw-scaling", "methods": ["proposed", "bogus"]},
         "gw-scaling: unknown method 'bogus'; choose from proposed, exact-qsa, classical-mh"),
        ({"experiment": "gw-scaling", "M_values": [256, 2]},
         "gw-scaling: M must be even and at least 4, not 2"),
    ], ids=["list", "seed-string", "eps-string", "seeds-int", "eps-above-alpha",
            "bogus-mode", "axis-off-grid", "experiment-list", "model-int", "output-dir-int",
            "M-values-empty", "methods-empty", "seeds-empty", "M-zero", "anneal-eps-zero",
            "anneal-eps-negative", "pipeline-delta-above-1", "credible-delta-above-1",
            "anneal-eps-vacuous", "pipeline-eps-vacuous", "M-values-one", "M-values-repeated",
            "method-unknown", "M-values-below-4"])
    def test_malformed_config_is_an_error_message(self, tmp_path, cfg, detail):
        if isinstance(cfg, dict):
            cfg = {"output_dir": str(tmp_path / "out"), **cfg}
        result = run_config(tmp_path, cfg)
        # a ClickException exits through SystemExit; an escaped error would be the exception
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert detail in result.output
        assert "Traceback" not in result.output
        assert len(result.output.splitlines()) == 1

    def test_sharp_quadratic_target_anneals(self, tmp_path):
        # scale 12 puts L 48 nats up one step from the centre of the 8-ring: the chain
        # was once refused as "reducible (6 strongly connected components)"
        model = tmp_path / "sharp.json"
        model.write_text(json.dumps({"grid": {"shape": [8]},
                                     "nll": {"type": "quadratic", "center": [3], "scale": 12}}))
        out = tmp_path / "out"
        result = run_config(tmp_path, {"experiment": "anneal", "model": str(model),
                                       "output_dir": str(out)})
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        assert json.loads((out / "anneal.json").read_text())["pass"]

    def test_underflowed_target_is_an_error_message(self, tmp_path):
        model = tmp_path / "underflow.json"
        model.write_text(json.dumps({"grid": {"shape": [8]},
                                     "nll": {"type": "table", "values": [0] * 4 + [900] * 4}}))
        result = run_config(tmp_path, {"experiment": "anneal", "model": str(model),
                                       "output_dir": str(tmp_path / "out")})
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith("Error: anneal: target underflows to 0 at beta = 1: ")
        assert "Traceback" not in result.output
        assert len(result.output.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    def test_m_zero_fails_before_any_warning(self, tmp_path):
        # M = 0 once reached the oracle's table mean: NumPy's "Mean of empty slice",
        # then a NaN conversion error that named neither M nor the oracle
        result = run_config(tmp_path, {"experiment": "qmci-pipeline", "M": 0,
                                       "output_dir": str(tmp_path / "out")})
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output == "Error: qmci-pipeline: an oracle needs M >= 1 terms, not M = 0\n"

    @pytest.mark.parametrize("command", [["run"], ["scaling", "--config"]], ids=["run", "scaling"])
    def test_directory_config_is_a_usage_error(self, tmp_path, command):
        # click rejects it as it rejects a missing file: a usage error, exit code 2
        result = CliRunner().invoke(main, command + [str(tmp_path)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "is a directory" in errors[0]
        assert "Traceback" not in result.output

    def test_reports_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run_config(tmp_path, {
                "experiment": "verify-walk",
                "output_dir": str(out),
                "seed": 0,
            })
            assert result.exit_code == 0
            outs.append((out / "verify_walk.json").read_bytes())
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def test_walk_suite(self, tmp_path):
        result = CliRunner().invoke(
            main, ["verify", "--suite", "walk", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "walk-operator checks: PASS" in result.output

    def test_bounds_suite(self, tmp_path):
        result = CliRunner().invoke(
            main, ["verify", "--suite", "bounds", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "perturbation/mixing bounds: PASS" in result.output


class TestScalingCommand:
    def test_small_study_writes_reports(self, tmp_path):
        cfg = {
            "M_values": [64, 128],
            "methods": ["classical-mh"],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "scaling.json"
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["scaling", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "scaling.json").read_text())
        assert "classical-mh" in payload["slopes"]
        assert payload["leave_one_seed_out_slopes"] == {"classical-mh": None}   # one seed
        # doubling M doubles the per-step cost exactly for the classical chain
        assert payload["slopes"]["classical-mh"] == pytest.approx(1.0, abs=0.01)
        assert (tmp_path / "out" / "scaling.csv").exists()

    @pytest.mark.parametrize("M_values,methods,detail", [
        ((256,), ("classical-mh",), "two or more distinct M values, not [256]"),
        ((256, 256), ("exact-qsa",), "two or more distinct M values, not [256, 256]"),
        ((256, 512), ("proposed", "mcmc"), "unknown method 'mcmc'")])
    def test_refused_before_any_instance_is_built(self, tmp_path, monkeypatch, M_values,
                                                  methods, detail):
        # one M once fitted a slope through one point (3.90 for exact-qsa) and passed; an
        # unknown method was caught after the first instance and its ladder were built
        monkeypatch.setattr(cli.inference, "synth_gw_instance", None)
        with pytest.raises(ValueError, match=re.escape(detail)):
            scaling_study(str(tmp_path), M_values=M_values, methods=methods, seeds=(0,))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("M_values,bad", [((256, 2), 2), ((256, 512, 1023), 1023),
                                              ((0, 256), 0), ((256, -4), -4)])
    def test_every_M_checked_before_any_instance_is_built(self, tmp_path, monkeypatch,
                                                          M_values, bad):
        # [256, 2] once built both M = 256 instances and ran every method on them first
        built = []
        monkeypatch.setattr(cli.inference, "synth_gw_instance",
                            lambda *args, **kwargs: built.append(args))
        with pytest.raises(ValueError, match=f"M must be even and at least 4, not {bad}$"):
            scaling_study(str(tmp_path), M_values=M_values, seeds=(0,))
        assert built == [] and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("M_values,seeds,detail", [
        ((64, 64, 128), (0,), "each M value must be given once, not [64, 64, 128]"),
        ((256, 512, 256), (0, 1), "each M value must be given once, not [256, 512, 256]"),
        ((64, 128), (0, 1, 0), "each seed must be given once, not [0, 1, 0]")])
    def test_repeated_M_or_seed_refused_before_any_instance_is_built(
            self, tmp_path, monkeypatch, M_values, seeds, detail):
        # [64, 64, 128] once ran M = 64 twice and fitted the slope through both copies; a
        # repeated seed would leave no seed to fit when it is left out
        built = []
        monkeypatch.setattr(cli.inference, "synth_gw_instance",
                            lambda *args, **kwargs: built.append(args))
        with pytest.raises(ValueError, match=re.escape(detail)):
            scaling_study(str(tmp_path), M_values=M_values, seeds=seeds)
        assert built == [] and not list(tmp_path.iterdir())

    def test_slopes_per_seed_and_of_the_mean_of_logs(self, tmp_path):
        M_values, seeds = (64, 128, 256), (0, 1, 2)
        payload = scaling_study(str(tmp_path), M_values=M_values,
                                methods=("classical-mh", "exact-qsa"), seeds=seeds)
        logM = np.log(M_values)
        for method in ("classical-mh", "exact-qsa"):
            q = np.array([[r["queries"] for r in payload["records"]
                           if r["method"] == method and r["M"] == M and r["seed"] == s]
                          for s in seeds for M in M_values], float).reshape(3, 3)  # seed, M
            per_seed = {str(s): np.polyfit(logM, np.log(row), 1)[0] for s, row in zip(seeds, q)}
            assert payload["seed_slopes"][method] == pytest.approx(per_seed, abs=1e-12)
            assert payload["log_mean_slopes"][method] == pytest.approx(
                np.polyfit(logM, np.log(q).mean(axis=0), 1)[0], abs=1e-12)
            assert payload["slopes"][method] == np.polyfit(logM, np.log(q.mean(axis=0)), 1)[0]
            # each seed left out in turn: the slope of the other two seeds' mean
            left_out = [np.polyfit(logM, np.log(np.delete(q, s, axis=0).mean(axis=0)), 1)[0]
                        for s in range(3)]
            assert payload["leave_one_seed_out_slopes"][method] == pytest.approx(
                [min(left_out), max(left_out)], abs=1e-12)
        assert json.loads((tmp_path / "scaling.json").read_text()) == payload

    def test_each_instance_is_prepared_at_its_own_eps_internal(self, tmp_path):
        payload = scaling_study(str(tmp_path), M_values=(64, 128), methods=("classical-mh",),
                                seeds=(0, 2))
        for r in payload["records"]:
            inst = synth_gw_instance(0.1, 0.0, r["M"], 2.0, r["seed"])
            kernel = ProposalKernel.nearest_neighbor(inst.space)
            assert r["eps_internal"] == internal_accuracy(inst.model, kernel, 0.1)
        assert len({r["eps_internal"] for r in payload["records"]}) == 4
        with open(tmp_path / "scaling.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["eps_internal"]) for row in rows] == \
            [r["eps_internal"] for r in payload["records"]]

    def test_exact_qsa_is_priced_at_m_times_the_preparation(self, tmp_path):
        # exact QSA prepares as the proposed method does (annealing.prepare at the
        # study's eps and delta) and pays M queries per walk application
        eps, delta = 0.1, 0.2
        payload = scaling_study(str(tmp_path), M_values=(64, 128), methods=("exact-qsa",),
                                eps=eps, delta=delta, seeds=(0, 1))
        query = CredibleQuery(axis=0, alpha=CI_ALPHA, eps=CI_EPS, delta=delta)
        for r in payload["records"]:
            inst = synth_gw_instance(0.1, 0.0, r["M"], 2.0, r["seed"])
            _, _, ledger = prepare(inst.model, ProposalKernel.nearest_neighbor(inst.space), eps,
                                   delta, r["seed"])
            handle = PosteriorHandle(inst.model.distribution(), inst.space, r["M"] * ledger.total)
            assert r["queries"] == credible_bound_search(query, handle, r["seed"]).queries > 0
