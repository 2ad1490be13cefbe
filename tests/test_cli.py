import argparse
import builtins
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import basis_order, load_tool

import stepopt
from stepopt import cli, simulator
from stepopt.cli import main
from stepopt.schedule_file import ScheduleFile, write_texts
from stepopt.schedules import NoiseSchedule, uniform_t_grid
from stepopt.weights import OrderSchedule, weights_lagrange, weights_taylor

README = Path(__file__).parents[1] / "README.md"


@pytest.fixture
def model_file(tmp_path):
    payload = {
        "dim": 2,
        "components": [
            {"pi": 0.5, "mu": [2.0, 2.0], "s": 0.5},
            {"pi": 0.5, "mu": [-2.0, -2.0], "s": 0.5},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    return str(path)


def run(*argv):
    return main(list(argv))


def run_module(cwd, *argv):
    """``python -m stepopt.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(stepopt.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "stepopt.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


class TestBaseline:
    def test_uniform_t_values(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run(
            "baseline", "--scheme", "uniform-t", "--schedule", "vp-linear",
            "--N", "2", "--T", "1.0", "--eps", "0.001", "--out", str(out),
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["t"] == pytest.approx([1.0, 0.5005, 0.001])
        assert data["N"] == 2
        assert data["objective"] > 0

    def test_edm_midpoint(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run(
            "baseline", "--scheme", "edm", "--rho", "7", "--schedule", "ve-edm",
            "--N", "2", "--out", str(out),
        )
        assert rc == 0
        data = json.loads(out.read_text())
        expect = ((80.0 ** (1 / 7) + 0.002 ** (1 / 7)) / 2.0) ** 7
        assert data["t"][1] == pytest.approx(expect, rel=1e-9)

    def test_uniform_lambda_geometric_mean(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "ve-edm",
            "--N", "2", "--out", str(out),
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["t"][1] == pytest.approx(math.sqrt(80.0 * 0.002), rel=1e-9)

    @pytest.mark.parametrize("schedule,T,eps", [
        ("vp-linear", 1.0, 1e-3), ("vp-cosine", 0.992, 1e-3), ("ve-edm", 80.0, 0.002),
    ])
    def test_default_T_and_eps_of_each_family(self, tmp_path, schedule, T, eps):
        # T is the top of the family's time domain
        out = tmp_path / "s.json"
        assert run("baseline", "--scheme", "uniform-t", "--schedule", schedule,
                   "--N", "3", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert (data["T"], data["eps"]) == (T, eps)
        assert (data["t"][0], data["t"][-1]) == (T, eps)

    def test_deterministic_output(self, tmp_path):
        args = (
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "6", "--order", "3",
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_family_flags_reach_the_schedule_only_when_given(self, tmp_path, monkeypatch):
        # an unset flag leaves the parameter to NoiseSchedule's own default
        calls = []
        real = NoiseSchedule.from_name.__func__

        def spy(cls, name, **params):
            calls.append(params)
            return real(cls, name, **params)

        monkeypatch.setattr(NoiseSchedule, "from_name", classmethod(spy))
        base = ("baseline", "--scheme", "edm", "--schedule", "vp-cosine", "--N", "4")
        assert run(*base, "--out", str(tmp_path / "a.json")) == 0
        assert calls == [{}]
        calls.clear()
        assert run(*base, "--cosine-shift", "0.02", "--out", str(tmp_path / "b.json")) == 0
        assert calls == [{"cosine_shift": 0.02}]


class TestOptimize:
    def test_two_step_midpoint(self, tmp_path):
        out = tmp_path / "opt.json"
        rc = run(
            "optimize", "--schedule", "ve-edm", "--N", "2", "--order", "1",
            "--init", "uniform-t", "--out", str(out),
        )
        assert rc == 0
        data = json.loads(out.read_text())
        mid = 0.5 * (data["lambda"][0] + data["lambda"][2])
        assert data["lambda"][1] == pytest.approx(mid, abs=1e-6)
        assert data["converged"] is True

    def test_best_of_three_beats_singles(self, tmp_path):
        singles = {}
        for init in ("uniform-t", "uniform-lambda", "edm"):
            out = tmp_path / f"{init}.json"
            rc = run(
                "optimize", "--schedule", "vp-linear", "--N", "5", "--order", "3",
                "--init", init, "--out", str(out),
            )
            assert rc == 0
            singles[init] = json.loads(out.read_text())["objective"]
        out = tmp_path / "best.json"
        rc = run(
            "optimize", "--schedule", "vp-linear", "--N", "5", "--order", "3",
            "--init", "best-of-3", "--out", str(out),
        )
        assert rc == 0
        best = json.loads(out.read_text())["objective"]
        assert all(best <= v + 1e-15 for v in singles.values())

    def test_smallest_margin_at_tiny_eps(self, tmp_path):
        # nodes at the 1e-4 margin near lambda = 346 still get a gradient
        out = tmp_path / "deep.json"
        assert run(
            "optimize", "--schedule", "vp-linear", "--N", "5", "--eps", "1e-300",
            "--margin", "1e-4", "--p", "1", "--kind", "taylor", "--out", str(out),
        ) == 0
        assert np.all(np.diff(json.loads(out.read_text())["lambda"]) >= 1e-4)

    def test_explicit_order_list(self, tmp_path):
        out = tmp_path / "opt.json"
        rc = run(
            "optimize", "--schedule", "ve-edm", "--N", "3", "--order", "1,2,2",
            "--init", "uniform-lambda", "--out", str(out),
        )
        assert rc == 0
        assert json.loads(out.read_text())["orders"] == [1, 2, 2]


class TestSimulate:
    def _write_schedules(self, tmp_path):
        files = []
        for scheme in ("uniform-lambda", "edm"):
            out = tmp_path / f"{scheme}.json"
            assert run(
                "baseline", "--scheme", scheme, "--schedule", "vp-linear",
                "--N", "4", "--order", "3", "--out", str(out),
            ) == 0
            files.append(str(out))
        return files

    def test_same_schedule_twice_identical_rows(self, tmp_path, model_file):
        files = self._write_schedules(tmp_path)
        out = tmp_path / "rep.json"
        rc = run(
            "simulate", "--model", model_file, "--steps", files[0], "--steps", files[0],
            "--seeds", "16", "--rng-seed", "3", "--out", str(out),
        )
        assert rc == 0
        rows = json.loads(out.read_text())["reports"]
        assert rows[0]["mean_l2"] == rows[1]["mean_l2"]

    def test_deterministic_given_seed(self, tmp_path, model_file):
        files = self._write_schedules(tmp_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            rc = run(
                "simulate", "--model", model_file, "--steps", files[0],
                "--seeds", "8", "--rng-seed", "11", "--out", str(out),
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_emission(self, tmp_path, model_file):
        files = self._write_schedules(tmp_path)
        out, table = tmp_path / "rep.json", tmp_path / "rep.csv"
        rc = run(
            "simulate", "--model", model_file, "--steps", files[0], "--steps", files[1],
            "--seeds", "8", "--rng-seed", "0", "--out", str(out), "--csv", str(table),
        )
        assert rc == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "label,N,mean_l2,median_l2"
        assert len(lines) == 3

    def test_diverged_grids_exit_1_naming_each(self, tmp_path, model_file, monkeypatch, capsys):
        # grids 'b' and 'c' get NaN predictions in the stacked pass; the
        # one-grid reference is left alone
        real = simulator._posterior_mean

        def poisoned(model, x, alpha, sigma):
            out = real(model, x, alpha, sigma)
            out[:, 1:] = np.nan
            return out

        monkeypatch.setattr(simulator, "_posterior_mean", poisoned)
        first = self._write_schedules(tmp_path)[0]
        steps = []
        for label in ("a", "b", "c"):
            steps += ["--steps", str(tmp_path / f"{label}.json")]
            (tmp_path / f"{label}.json").write_bytes(Path(first).read_bytes())
        out = tmp_path / "rep.json"
        capsys.readouterr()
        rc = run("simulate", "--model", model_file, *steps, "--seeds", "8", "--out", str(out))
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "error: sampler state non-finite entering step 2 of grid 'b'; "
            "sampler state non-finite entering step 2 of grid 'c'\n"
        )

    def test_error_beyond_float_range_exits_1(self, tmp_path, model_file, monkeypatch, capsys):
        # a finite state whose mean error exceeds the float range is not
        # written as Infinity: the command fails and writes nothing
        real = cli.evaluate_schedules

        def overflowing(*args, **kwargs):
            first, *rest = real(*args, **kwargs)
            return [dataclasses.replace(first, mean_l2_error=math.inf), *rest]

        monkeypatch.setattr(cli, "evaluate_schedules", overflowing)
        files = self._write_schedules(tmp_path)
        out, table = tmp_path / "rep.json", tmp_path / "rep.csv"
        capsys.readouterr()
        rc = run("simulate", "--model", model_file, "--steps", files[0], "--steps", files[1],
                 "--seeds", "4", "--out", str(out), "--csv", str(table))
        assert rc == 1 and not out.exists() and not table.exists()
        assert capsys.readouterr().err.startswith("error: Out of range float values")

    def test_endpoint_mismatch_exits_2(self, tmp_path, model_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "4", "--out", str(a),
        ) == 0
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "4", "--eps", "0.002", "--out", str(b),
        ) == 0
        rc = run(
            "simulate", "--model", model_file, "--steps", str(a), "--steps", str(b),
            "--seeds", "4", "--out", str(tmp_path / "rep.json"),
        )
        assert rc == 2


class TestExitCodes:
    def test_unknown_flag_is_2(self, capsys):
        assert run("baseline", "--scheme", "bogus", "--schedule", "vp-linear",
                   "--N", "2", "--out", "x.json") == 2
        capsys.readouterr()
        # a bad --N is rejected as --N, not blamed on the default --order
        assert run("baseline", "--scheme", "edm", "--schedule", "vp-linear",
                   "--N", "0", "--out", "x.json") == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument --N" in message and "--order" not in message

    def test_inverted_range_is_2(self, tmp_path):
        # a NaN end time fails T > eps as well
        for range_flags in (("--T", "0.0005", "--eps", "0.001"), ("--eps", "nan")):
            assert run(
                "baseline", "--scheme", "uniform-t", "--schedule", "vp-linear",
                "--N", "2", *range_flags, "--out", str(tmp_path / "x.json"),
            ) == 2, range_flags

    def test_bad_order_is_2(self, tmp_path):
        for n_steps, order in (("2", "1,2,3"), ("5", "3,3")):
            assert run(
                "baseline", "--scheme", "uniform-t", "--schedule", "vp-linear",
                "--N", n_steps, "--order", order, "--out", str(tmp_path / "x.json"),
            ) == 2, order

    def test_rho_below_one_is_2(self, tmp_path):
        out = str(tmp_path / "x.json")
        spec = ("--schedule", "vp-linear", "--N", "3", "--rho", "0", "--out", out)
        assert run("baseline", "--scheme", "edm", *spec) == 2
        assert run("optimize", "--init", "edm", *spec) == 2

    @pytest.mark.parametrize("flags", [
        ("--margin", "nan"),
        ("--margin", "inf"),
        ("--margin", "5"),
        ("--max-iters", "0"),
    ], ids=["nan", "inf", "infeasible-margin", "max-iters-0"])
    def test_non_finite_margin_is_2(self, tmp_path, flags):
        # a NaN margin used to pass the lower-bound check and run without a gap;
        # six gaps of 5 do not fit the span of about 9.6, which used to exit 1
        assert run(
            "optimize", "--init", "edm", "--schedule", "vp-linear", "--N", "5",
            *flags, "--out", str(tmp_path / "x.json"),
        ) == 2

    def test_margin_filling_the_span_is_2(self, tmp_path, capsys):
        # one step whose margin is exactly the span leaves no room to place nodes
        schedule = NoiseSchedule.from_name("vp-linear")
        span = float(schedule.lambda_of_t(1e-3)) - float(schedule.lambda_of_t(1.0))
        assert run(
            "optimize", "--init", "edm", "--schedule", "vp-linear", "--N", "1",
            "--margin", repr(span), "--out", str(tmp_path / "x.json"),
        ) == 2
        assert "cannot hold 1 gaps" in capsys.readouterr().err

    @pytest.mark.parametrize("family_flags", [
        ("--schedule", "vp-linear", "--beta-max", "inf"),
        ("--schedule", "vp-linear", "--beta-min", "nan"),
        ("--schedule", "vp-cosine", "--cosine-shift", "nan"),
        ("--schedule", "vp-cosine", "--cosine-shift", "inf"),
        ("--schedule", "vp-linear", "--beta-min", "30"),
    ], ids=["beta-max-inf", "beta-min-nan", "shift-nan", "shift-inf", "beta-min-above-max"])
    def test_non_finite_family_parameter_is_2(self, tmp_path, family_flags):
        assert run(
            "baseline", "--scheme", "edm", "--N", "5", *family_flags,
            "--out", str(tmp_path / "x.json"),
        ) == 2

    @pytest.mark.parametrize("family_flags", [
        ("--schedule", "vp-linear", "--cosine-shift", "nan"),
        ("--schedule", "vp-linear", "--cosine-shift", "0.02"),
        ("--schedule", "ve-edm", "--beta-max", "5"),
        ("--schedule", "vp-cosine", "--beta-min", "0.2"),
        ("--schedule", "ve-edm", "--beta-min", "0.1"),
        ("--schedule", "vp-linear", "--cosine-shift", "0.008"),
    ], ids=["linear-shift-nan", "linear-shift", "edm-beta-max", "cosine-beta-min",
            "edm-beta-min-default", "linear-shift-default"])
    def test_flag_of_another_family_is_2(self, tmp_path, family_flags, capsys):
        # the flag used to be dropped without a word, exit 0; at its default
        # value it still was
        assert run(
            "baseline", "--scheme", "edm", "--N", "4", *family_flags,
            "--out", str(tmp_path / "x.json"),
        ) == 2
        assert "do not apply to" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command", [("baseline", "--scheme", "edm"), ("optimize",)],
                             ids=["baseline", "optimize"])
    def test_taylor_order_above_cap_is_2(self, tmp_path, command):
        out = str(tmp_path / "x.json")
        for order in ("4", "1,2,3,4,1"):
            assert run(*command, "--schedule", "vp-linear", "--N", "5", "--kind", "taylor",
                       "--order", order, "--out", out) == 2, order

    def test_taylor_file_above_order_cap_is_2(self, tmp_path, model_file):
        a = tmp_path / "a.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "5", "--order", "4", "--out", str(a),
        ) == 0
        taylor = _edited(a, tmp_path / "taylor.json", polynomial_kind="taylor")
        out = str(tmp_path / "r.json")
        assert run("dump-weights", "--steps", taylor, "--out", out) == 2
        assert run("simulate", "--model", model_file, "--steps", taylor,
                   "--seeds", "4", "--out", out) == 2
        with pytest.raises(ValueError, match="taylor weights support order <= 3"):
            ScheduleFile.read(taylor)

    @pytest.mark.parametrize("flags", [
        ("--beta-max", "10"),
        None,
        ("--order", "2"),
        ("--kind", "taylor"),
    ], ids=["beta-max", "end-lambda", "orders", "kind"])
    def test_mismatched_schedule_files_are_2(self, tmp_path, model_file, capsys, flags):
        # a smaller --beta-max keeps family, T and eps but moves both end log-SNR values
        spec = ("baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "5")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*spec, "--out", str(a)) == 0
        if flags is None:
            # a last log-SNR value moved by 1e-9 keeps family, T, eps and every interior
            # t; reading the file rejects it, since lambda(eps) no longer matches
            lam = json.loads(a.read_text())["lambda"]
            _edited(a, b, **{"lambda": [*lam[:-1], lam[-1] + 1e-9]})
        else:
            assert run(*spec, *flags, "--out", str(b)) == 0
        capsys.readouterr()
        assert run("simulate", "--model", model_file, "--steps", str(a), "--steps", str(b),
                   "--seeds", "4", "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        if flags is None:
            assert f"bad input file {b}: lambda[5] = " in err
            assert "does not match the value" in err and "takes at eps" in err
        else:
            assert "schedule files must share" in err

    def test_numeric_failure_is_1(self, tmp_path):
        # time outside the family domain is a numeric failure, not usage
        for family, T in (("ve-edm", "200.0"), ("vp-linear", "2")):
            assert run(
                "baseline", "--scheme", "uniform-t", "--schedule", family,
                "--N", "2", "--T", T, "--out", str(tmp_path / "x.json"),
            ) == 1, family

    def test_time_below_the_vp_domain_is_1(self, tmp_path, capsys):
        # below t = 1e-300 the VP maps lose digits; at 1e-315 lambda was inf
        out = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(
                "baseline", "--scheme", "uniform-t", "--schedule", "vp-cosine",
                "--cosine-shift", "1e-12", "--eps", "1e-315", "--N", "4", "--out", str(out),
            ) == 1
        assert "time 1e-315 outside valid domain [1e-300, 0.992] of vp-cosine" in \
            capsys.readouterr().err
        assert not out.exists()
        # the domain is closed: 1e-300 itself is in it, and a file below it is bad input
        assert run("baseline", "--scheme", "uniform-t", "--schedule", "vp-cosine",
                   "--eps", "1e-300", "--N", "4", "--out", str(out)) == 0
        below = _edited(out, tmp_path / "below.json", eps=1e-315)
        assert run("dump-weights", "--steps", below, "--out", str(tmp_path / "w.json")) == 2
        err = capsys.readouterr().err
        assert f"bad input file {below}" in err and "outside valid domain [1e-300" in err

    def test_zero_seeds_is_2(self, tmp_path, model_file):
        a = tmp_path / "a.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "3", "--out", str(a),
        ) == 0
        assert run(
            "simulate", "--model", model_file, "--steps", str(a),
            "--seeds", "0", "--out", str(tmp_path / "r.json"),
        ) == 2
        assert run(
            "simulate", "--model", model_file, "--steps", str(a),
            "--rng-seed", "-1", "--out", str(tmp_path / "r.json"),
        ) == 2

    def test_missing_model_file_is_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "3", "--out", str(a),
        ) == 0
        missing = tmp_path / "nope.json"
        assert run(
            "simulate", "--model", str(missing), "--steps", str(a),
            "--seeds", "4", "--out", str(tmp_path / "r.json"),
        ) == 2
        assert f"bad input file {missing}" in capsys.readouterr().err

    def test_unwritable_output_is_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run(
            "baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "3",
            "--out", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "bad input file" not in err

    def test_invalid_input_files_are_2(self, tmp_path, model_file):
        a = tmp_path / "a.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "3", "--out", str(a),
        ) == 0
        lam = json.loads(a.read_text())["lambda"]
        reversed_lam = _edited(a, tmp_path / "rev.json", **{"lambda": lam[::-1]})
        out = str(tmp_path / "r.json")
        assert run("simulate", "--model", model_file, "--steps", reversed_lam,
                   "--seeds", "4", "--out", out) == 2
        assert run("dump-weights", "--steps", reversed_lam, "--out", out) == 2
        family = _edited(a, tmp_path / "family.json", schedule_family="vp-quadratic")
        assert run("simulate", "--model", model_file, "--steps", family,
                   "--seeds", "4", "--out", out) == 2
        t = json.loads(a.read_text())["t"]
        moved_start = _edited(a, tmp_path / "start.json", t=[0.9, *t[1:]])
        assert run("simulate", "--model", model_file, "--steps", moved_start,
                   "--seeds", "4", "--out", out) == 2
        assert run("dump-weights", "--steps", moved_start, "--out", out) == 2
        # eps 1e-3 lies below ve-edm's time domain, which starts at 0.002
        relabelled = _edited(a, tmp_path / "relabelled.json", schedule_family="ve-edm")
        assert run("simulate", "--model", model_file, "--steps", relabelled,
                   "--seeds", "4", "--out", out) == 2
        # each malformed field alone; a parser that coerces or ignores it exits 0
        for field, value in (("p", 9), ("converged", "yes"), ("init", 42), ("N", 3.7),
                             ("orders", [1, 2.0, 3]), ("schema_version", 1.9),
                             ("T", "1.0"), ("objective", "0.5"), ("objective", True),
                             ("tool_version", 7), ("lambda", [str(v) for v in lam]),
                             ("objective", float("nan")), ("objective", float("inf"))):
            bad = _edited(a, tmp_path / f"bad-{field}.json", **{field: value})
            assert run("simulate", "--model", model_file, "--steps", bad,
                       "--seeds", "4", "--out", out) == 2, (field, value)
            assert run("dump-weights", "--steps", bad, "--out", out) == 2, (field, value)
        # an infinite end node made dump-weights exit 1 and simulate never finish
        infinite_end = _edited(a, tmp_path / "inf-end.json", **{"lambda": [*lam[:-1], math.inf]})
        assert run("dump-weights", "--steps", infinite_end, "--out", out) == 2
        with pytest.raises(ValueError, match="finite"):
            ScheduleFile.read(infinite_end)
        # a missing key, in a schedule file or in a model file
        no_orders = json.loads(a.read_text())
        del no_orders["orders"]
        no_orders_file = tmp_path / "no-orders.json"
        no_orders_file.write_text(json.dumps(no_orders))
        assert run("dump-weights", "--steps", str(no_orders_file), "--out", out) == 2
        bad_model = tmp_path / "bad-model.json"
        bad_model.write_text(json.dumps({"dim": 1}))
        assert run("simulate", "--model", str(bad_model), "--steps", str(a),
                   "--seeds", "4", "--out", out) == 2
        bad_model.write_text(json.dumps(
            {"dim": 1, "components": [{"pi": 0.7, "mu": [0.0], "s": 1.0}]}))
        assert run("simulate", "--model", str(bad_model), "--steps", str(a),
                   "--seeds", "4", "--out", out) == 2
        # each malformed model value alone; a reader that coerces it exits 0, and
        # a non-finite one used to reach the sampler and exit 1
        for where, value in (("dim", 2.7), ("dim", "2"), ("pi", "1.0"), ("pi", True),
                             ("mu", ["1.0", 0.0]), ("s", "0.5"),
                             ("mu", [float("nan"), 0.0]), ("s", float("inf"))):
            component = {"pi": 1.0, "mu": [1.0, 0.0], "s": 0.5}
            payload = {"dim": 2, "components": [component]}
            (payload if where == "dim" else component)[where] = value
            bad_model.write_text(json.dumps(payload))
            assert run("simulate", "--model", str(bad_model), "--steps", str(a),
                       "--seeds", "4", "--out", out) == 2, (where, value)


class TestModuleRun:
    """``python -m stepopt.cli`` behaves like the installed ``stepopt`` command."""

    def test_imports_without_scipy(self):
        # scipy is imported where it runs, by the optimizer and the reference
        # integration, so that baseline and dump-weights start without it
        env = dict(os.environ, PYTHONPATH=str(Path(stepopt.__file__).parents[1]))
        code = ("import sys, stepopt, stepopt.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_optimize_writes_its_file(self, tmp_path):
        done = run_module(tmp_path, "optimize", "--schedule", "vp-linear", "--N", "5",
                         "--out", "q.json")
        assert done.returncode == 0, done.stderr
        assert ScheduleFile.read(tmp_path / "q.json").N == 5

    def test_usage_error_exits_2(self, tmp_path):
        done = run_module(tmp_path, "optimize", "--schedule", "vp-linear", "--N", "5",
                          "--rho", "0", "--out", "q.json")
        assert done.returncode == 2
        assert not (tmp_path / "q.json").exists()


class TestRepeatedCalls:
    """``main`` reuses one parser; calls in one process stay independent."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_appended_steps_do_not_carry_over(self, tmp_path, model_file):
        sched = tmp_path / "s.json"
        assert run(
            "baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "4",
            "--out", str(sched),
        ) == 0
        out = tmp_path / "rep.json"
        common = ("--model", model_file, "--seeds", "4", "--out", str(out))
        assert run("simulate", "--steps", str(sched), "--steps", str(sched), *common) == 0
        assert len(json.loads(out.read_text())["reports"]) == 2
        assert run("simulate", "--steps", str(sched), *common) == 0
        assert len(json.loads(out.read_text())["reports"]) == 1

    def test_usage_errors_leave_later_commands_unchanged(self, tmp_path):
        spec = ("baseline", "--scheme", "edm", "--schedule", "vp-cosine", "--N", "6")
        assert run(*spec, "--rho", "0", "--out", str(tmp_path / "x.json")) == 2
        assert run(*spec, "--T", "0.0005", "--eps", "0.001",
                   "--out", str(tmp_path / "x.json")) == 2
        assert run(*spec, "--out", str(tmp_path / "here.json")) == 0
        fresh = run_module(tmp_path, *spec, "--out", "fresh.json")
        assert fresh.returncode == 0, fresh.stderr
        assert (tmp_path / "here.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()

    def test_version_then_command(self, tmp_path, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.strip() == f"stepopt {stepopt.__version__}"
        out = tmp_path / "s.json"
        assert run(
            "baseline", "--scheme", "uniform-t", "--schedule", "ve-edm", "--N", "3",
            "--out", str(out),
        ) == 0
        assert ScheduleFile.read(out).N == 3


class TestParsing:
    """``main`` parses a known command's flags with its subparser alone, as the full parser would."""

    @pytest.mark.parametrize("argv", [
        ["baseline", "--scheme", "edm", "--schedule", "vp-cosine", "--N", "6", "--T", "0.9",
         "--eps", "0.01", "--order", "1,2,2,2,2,2", "--p", "2", "--kind", "taylor", "--rho", "5",
         "--cosine-shift", "0.02", "--out", "s.json", "--dump-weights", "w.json"],
        ["baseline", "--sched", "ve-edm", "--scheme", "edm", "--N=4", "--out", "s.json"],
        ["optimize", "--init", "uniform-t", "--margin", "0.001", "--max-iters", "10",
         "--schedule", "vp-linear", "--N", "4", "--beta-min", "0.2", "--beta-max", "10",
         "--out", "o.json"],
        ["simulate", "--model", "m.json", "--steps", "a.json", "--steps", "b.json",
         "--seeds", "8", "--rng-seed", "3", "--out", "r.json", "--csv", "r.csv"],
        ["dump-weights", "--steps", "a.json", "--out", "w.json"],
    ], ids=["baseline", "abbreviated", "optimize", "simulate", "dump-weights"])
    def test_same_namespace(self, argv):
        assert cli._parse_args(argv) == cli._build_parser()[0].parse_args(argv)

    @pytest.mark.parametrize("argv", load_tool("same_outputs").USAGE, ids=shlex.join)
    def test_same_exit_code_and_output(self, argv, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as full:
            cli._build_parser()[0].parse_args(argv)
        expected = (full.value.code, *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected


class TestOutputs:
    """Every output goes through ``schedule_file.write_texts``, which overwrites in place."""

    def _write_all(self, d, model_file):
        """Write all four outputs into ``d``; return their paths."""
        paths = [d / name for name in ("s.json", "w.json", "rep.json", "rep.csv")]
        assert run(
            "baseline", "--scheme", "edm", "--schedule", "vp-cosine", "--N", "6",
            "--out", str(paths[0]), "--dump-weights", str(paths[1]),
        ) == 0
        assert run(
            "simulate", "--model", model_file, "--steps", str(paths[0]), "--steps", str(paths[0]),
            "--seeds", "8", "--out", str(paths[2]), "--csv", str(paths[3]),
        ) == 0
        return paths

    def test_overwrite_leaves_no_stale_tail(self, tmp_path, model_file):
        # each output over a longer file equals the same output on a fresh path
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        fresh.mkdir()
        stale.mkdir()
        for name in ("s.json", "w.json", "rep.json", "rep.csv"):
            (stale / name).write_bytes(b"junk\n" * 20000)
        want = [p.read_bytes() for p in self._write_all(fresh, model_file)]
        got = [p.read_bytes() for p in self._write_all(stale, model_file)]
        assert got == want and all(0 < len(b) < 100000 for b in want)
        # and dump-weights over the longer weight table of a larger grid
        big = tmp_path / "big.json"
        assert run(
            "baseline", "--scheme", "edm", "--schedule", "vp-cosine", "--N", "40",
            "--out", str(big), "--dump-weights", str(stale / "w.json"),
        ) == 0
        assert run("dump-weights", "--steps", str(fresh / "s.json"), "--out", str(stale / "w.json")) == 0
        assert (stale / "w.json").read_bytes() == want[1]

    def test_interrupted_overwrite_leaves_no_old_tail(self, tmp_path, monkeypatch):
        # the file is cut to the new length before any byte is written, so a
        # write stopped part-way leaves no old bytes past the new end; those
        # after the written prefix and before that end are still the old ones
        path = tmp_path / "rep.csv"
        path.write_bytes(b"old,row\n" * 5000)
        real_write = os.write

        def write_then_stop(fd, data):
            real_write(fd, bytes(data[:10]))
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "write", write_then_stop)
        new = "grid,mean\n" + "a,0.5\n" * 100
        with pytest.raises(KeyboardInterrupt):
            write_texts((path, new))
        got = path.read_bytes()
        assert len(got) == len(new) and got.startswith(new[:10].encode())
        assert got[10:] == (b"old,row\n" * 5000)[10:len(new)]

    def test_dev_null_output_is_0(self, tmp_path, model_file):
        # not a regular file, so the writer leaves its length alone
        steps = tmp_path / "s.json"
        assert run(
            "baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "4",
            "--out", os.devnull, "--dump-weights", os.devnull,
        ) == 0
        assert run(
            "baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "4",
            "--out", str(steps),
        ) == 0
        assert run("dump-weights", "--steps", str(steps), "--out", os.devnull) == 0
        assert run(
            "simulate", "--model", model_file, "--steps", str(steps), "--seeds", "4",
            "--out", os.devnull, "--csv", os.devnull,
        ) == 0

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_outputs_are_2(self, tmp_path, model_file, where):
        bad = str(tmp_path if where == "directory" else tmp_path / "missing" / "x.json")
        steps = tmp_path / "s.json"
        base = ("baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "4")
        assert run(*base, "--out", str(steps)) == 0
        assert run(*base, "--out", bad) == 2
        assert run(*base, "--out", str(tmp_path / "t.json"), "--dump-weights", bad) == 2
        assert run("dump-weights", "--steps", str(steps), "--out", bad) == 2
        sim = ("simulate", "--model", model_file, "--steps", str(steps), "--seeds", "4")
        assert run(*sim, "--out", bad) == 2
        assert run(*sim, "--out", str(tmp_path / "r.json"), "--csv", bad) == 2
        # every output is opened before any is written: a failed command
        # leaves no new file behind and an existing one as it was
        assert not (tmp_path / "t.json").exists() and not (tmp_path / "r.json").exists()
        kept = tmp_path / "kept.json"
        kept.write_bytes(b"old bytes\n")
        assert run(*base, "--out", str(kept), "--dump-weights", bad) == 2
        assert run(*sim, "--out", str(kept), "--csv", bad) == 2
        assert kept.read_bytes() == b"old bytes\n"

    def test_one_file_given_twice_is_2(self, tmp_path, model_file, monkeypatch, capsys):
        # two outputs naming one regular file, by any spelling or a link,
        # write nothing: a new file is removed and an existing one kept as it was
        monkeypatch.chdir(tmp_path)
        base = ("baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "4")
        os.symlink("s.json", "link.json")  # dangling until s.json exists
        for first, twice in [("s.json", "s.json"), ("s.json", "./s.json"),
                             ("s.json", str(tmp_path / "s.json")), ("s.json", "link.json"),
                             ("link.json", "s.json")]:
            assert run(*base, "--out", first, "--dump-weights", twice) == 2
            assert capsys.readouterr().err == f"error: outputs {first} and {twice} are the same file\n"
            assert not os.path.exists("s.json") and os.path.islink("link.json")
        assert run(*base, "--out", "b.json") == 0
        sim = ("simulate", "--model", model_file, "--steps", "b.json", "--seeds", "4")
        for twice in ("r.json", "./r.json"):
            assert run(*sim, "--out", "r.json", "--csv", twice) == 2
            assert not os.path.exists("r.json")
        old = Path("b.json").read_bytes()
        os.symlink("b.json", "to-b.json")
        assert run(*base, "--out", "b.json", "--dump-weights", "./b.json") == 2
        assert run(*sim, "--out", "to-b.json", "--csv", "b.json") == 2
        assert Path("b.json").read_bytes() == old

    def test_no_output_is_truncated_on_open(self, tmp_path, model_file, monkeypatch):
        # a writer that opens with O_TRUNC or any writing mode of open()
        # bypasses write_texts
        opened, modes = [], []
        real_os_open, real_open = os.open, builtins.open

        def os_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_os_open(path, flags, *args, **kwargs)

        def py_open(file, mode="r", *args, **kwargs):
            modes.append((file, mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(builtins, "open", py_open)
        d = tmp_path
        spec = ("--schedule", "vp-linear", "--N", "4")
        assert run("baseline", "--scheme", "edm", *spec,
                   "--out", str(d / "b.json"), "--dump-weights", str(d / "bw.json")) == 0
        assert run("optimize", "--init", "edm", *spec,
                   "--out", str(d / "o.json"), "--dump-weights", str(d / "ow.json")) == 0
        assert run("dump-weights", "--steps", str(d / "b.json"), "--out", str(d / "dw.json")) == 0
        assert run("simulate", "--model", model_file, "--steps", str(d / "b.json"),
                   "--steps", str(d / "o.json"), "--seeds", "4",
                   "--out", str(d / "r.json"), "--csv", str(d / "r.csv")) == 0
        outputs = {str(d / n) for n in
                   ("b.json", "bw.json", "o.json", "ow.json", "dw.json", "r.json", "r.csv")}
        assert outputs <= {path for path, _ in opened}
        assert not [(path, flags) for path, flags in opened if flags & os.O_TRUNC]
        assert not [(f, mode) for f, mode in modes if set(mode) & set("wax+")]


def _edited(src, dst, **changes):
    """Copy of a schedule file with some top-level fields replaced."""
    payload = json.loads(src.read_text())
    payload.update(changes)
    dst.write_text(json.dumps(payload, indent=2) + "\n")
    return str(dst)


def _counted(post_init, calls):
    def counted(self):
        calls.append(type(self).__name__)
        post_init(self)

    return counted


class TestScheduleFile:
    def test_round_trip_bit_exact(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(
            "optimize", "--schedule", "ve-edm", "--N", "4", "--order", "3",
            "--init", "uniform-lambda", "--out", str(out),
        ) == 0
        text = out.read_text()
        parsed = ScheduleFile.parse(text)
        assert parsed.emit() == text
        # and once more through the dataclass
        assert ScheduleFile.parse(parsed.emit()).emit() == text

    @pytest.mark.parametrize("family,flags,changes", [
        ("vp-linear", ("--N", "4", "--beta-min", "0.2", "--beta-max", "10"),
         {"T": 1, "converged": True, "tool_version": "0.1.0+\u00e9t\u00e9"}),
        ("vp-cosine", ("--N", "4", "--cosine-shift", "0.02"), {"converged": False, "objective": 2}),
        # node 1 at the integer lambda 1, whose ve-edm time is exp(-1)
        ("ve-edm", ("--N", "2"), {"T": 80, "lambda": 1, "t": math.exp(-1)}),
    ], ids=["ints-parameters-converged-non-ascii", "shift-not-converged", "int-node"])
    def test_emit_matches_json_indent_encoder(self, tmp_path, family, flags, changes):
        sched = tmp_path / "s.json"
        assert run("baseline", "--scheme", "uniform-lambda", "--schedule", family, *flags,
                   "--out", str(sched)) == 0
        payload = json.loads(sched.read_text())
        for key in ("lambda", "t"):
            if key in changes:
                payload[key][1] = changes.pop(key)
        payload.update(changes)
        text = json.dumps(payload, indent=2) + "\n"
        assert ScheduleFile.parse(text).emit() == text

    def test_grid_round_trip(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(
            "baseline", "--scheme", "edm", "--schedule", "ve-edm", "--N", "5",
            "--out", str(out),
        ) == 0
        sf = ScheduleFile.read(out)
        grid = sf.grid
        assert grid.n_steps == 5
        assert np.all(np.diff(grid.lam) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleFile(
                schedule_family="ve-edm", T=80.0, eps=0.002, N=2,
                lam=[0.0, 1.0], t=[80.0, 0.002],  # wrong lengths
                orders=[1, 1], polynomial_kind="lagrange", p=1,
                objective=1.0, init="uniform-t",
            )

    def _baseline(self, tmp_path):
        sched = tmp_path / "s.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "ve-edm",
            "--N", "3", "--out", str(sched),
        ) == 0
        return sched

    def test_rejects_other_schema_version(self, tmp_path):
        bad = _edited(self._baseline(tmp_path), tmp_path / "v99.json", schema_version=99)
        with pytest.raises(ValueError, match="schema version"):
            ScheduleFile.read(bad)
        assert run("dump-weights", "--steps", bad, "--out", str(tmp_path / "w.json")) == 2

    def test_rejects_unknown_polynomial_kind(self, tmp_path):
        bad = _edited(self._baseline(tmp_path), tmp_path / "cheb.json", polynomial_kind="chebyshev")
        with pytest.raises(ValueError, match="polynomial kind"):
            ScheduleFile.read(bad)
        assert run("dump-weights", "--steps", bad, "--out", str(tmp_path / "w.json")) == 2

    def test_rejects_interior_time_off_its_lambda(self, tmp_path):
        # t[2] is 0.592 here; a reader that checks only the end times took 0.5, exit 0
        sched = tmp_path / "s.json"
        assert run("baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "4",
                   "--out", str(sched)) == 0
        t = json.loads(sched.read_text())["t"]
        bad = _edited(sched, tmp_path / "t2.json", t=[*t[:2], 0.5, *t[3:]])
        with pytest.raises(ValueError, match=r"t\[2\] = 0.5 does not match lambda\[2\]"):
            ScheduleFile.read(bad)
        assert run("dump-weights", "--steps", bad, "--out", str(tmp_path / "w.json")) == 2

    def test_written_file_reuses_the_command_spec_and_still_checks_times(
        self, tmp_path, monkeypatch
    ):
        # the writer takes the command's spec and grid as built; a grid whose
        # interior t is off its lambda is still refused, and nothing is written
        from stepopt.objective import ObjectiveSpec
        from stepopt.schedules import LambdaGrid, edm_grid

        built = []
        for cls in (NoiseSchedule, ObjectiveSpec, LambdaGrid):
            monkeypatch.setattr(cls, "__post_init__", _counted(cls.__post_init__, built))
        schedule = NoiseSchedule.from_name("vp-linear")
        spec = ObjectiveSpec(schedule, 4, 1.0, 1e-3, OrderSchedule.warmup(4, 3))
        grid = edm_grid(schedule, 4, 1.0, 1e-3)
        args = argparse.Namespace(out=str(tmp_path / "s.json"), dump_weights=None)
        built.clear()
        cli._write_schedule(args, spec, grid, 1.0, init="edm")
        assert built == []
        assert ScheduleFile.read(args.out).grid.lam.tolist() == grid.lam.tolist()

        t = grid.t.copy()
        t[2] = 0.5  # 0.592 on this grid
        off = LambdaGrid(lam=grid.lam, t=t, T=grid.T, eps=grid.eps)
        args.out = str(tmp_path / "t2.json")
        with pytest.raises(ValueError, match=r"t\[2\] = 0.5 does not match lambda\[2\]"):
            cli._write_schedule(args, spec, off, 1.0, init="edm")
        assert not os.path.exists(args.out)

    @pytest.mark.parametrize("moves", [(-0.5, 1.0), (-1e-9, 0.0), (0.0, 1e-9)],
                             ids=["both", "first", "last"])
    def test_rejects_end_lambda_off_its_time(self, tmp_path, model_file, capsys, moves):
        # the end times and every interior node still match; dump-weights and simulate
        # used to exit 0, and simulate integrated between the file's own end values
        sched = tmp_path / "s.json"
        assert run("baseline", "--scheme", "edm", "--schedule", "vp-linear", "--N", "5",
                   "--out", str(sched)) == 0
        lam = json.loads(sched.read_text())["lambda"]
        bad = _edited(sched, tmp_path / "ends.json",
                      **{"lambda": [lam[0] + moves[0], *lam[1:-1], lam[-1] + moves[1]]})
        i, at = (0, "T") if moves[0] else (5, "eps")
        with pytest.raises(ValueError, match=rf"lambda\[{i}\] = .* does not match the value "
                                             rf".* that vp-linear takes at {at}$"):
            ScheduleFile.read(bad)
        capsys.readouterr()
        assert run("dump-weights", "--steps", bad, "--out", str(tmp_path / "w.json")) == 2
        assert run("simulate", "--model", model_file, "--steps", bad, "--seeds", "4",
                   "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err.count(f"bad input file {bad}: lambda[{i}]") == 2

    @pytest.mark.parametrize("family,eps,params", [
        ("vp-linear", "1e-300", ()), ("vp-linear", "1e-3", ()), ("vp-cosine", "1e-300", ()),
        ("vp-cosine", "1e-5", ()), ("ve-edm", "0.002", ()),
        ("vp-linear", "1e-300", ("--beta-min", "1e-6", "--beta-max", "1e-5")),
        ("vp-linear", "1e-3", ("--beta-min", "5", "--beta-max", "100")),
        ("vp-cosine", "1e-300", ("--cosine-shift", "1e-8")),
        ("vp-cosine", "1e-5", ("--cosine-shift", "1e-4")),
        ("vp-cosine", "1e-3", ("--cosine-shift", "1000")),
        ("vp-cosine", "1e-300", ("--cosine-shift", "1e-12")),
    ])
    def test_reads_every_scheme_it_writes(self, tmp_path, family, eps, params):
        # reading checks each interior t against t_of_lambda(lambda) alone,
        # and uniform-t files keep the times as given; at a cosine shift of
        # 1e-12 uniform-lambda and edm used to exit 1
        for scheme in ("uniform-t", "uniform-lambda", "edm"):
            sched = tmp_path / f"{scheme}.json"
            assert run("baseline", "--scheme", scheme, "--schedule", family, "--N", "200",
                       "--eps", eps, "--order", "1", *params, "--out", str(sched)) == 0
            ScheduleFile.read(sched)

    def test_records_family_parameters(self, tmp_path):
        # files used to drop --beta-max, so simulate ran them on the default alpha and sigma
        flags = ("--scheme", "uniform-t", "--N", "6", "--order", "2")
        for family, params in (("vp-linear", {"beta_min": 0.2, "beta_max": 10.0}),
                               ("vp-cosine", {"cosine_shift": 0.02})):
            sched = tmp_path / f"{family}.json"
            cli_params = [v for k, x in params.items() for v in ("--" + k.replace("_", "-"), repr(x))]
            assert run("baseline", *flags, "--schedule", family, *cli_params,
                       "--out", str(sched)) == 0
            payload = json.loads(sched.read_text())
            assert {k: payload[k] for k in params} == params
            sf = ScheduleFile.read(sched)
            assert sf.spec.schedule == NoiseSchedule.from_name(family, **params)
            assert sf.emit() == sched.read_text()
            assert run("dump-weights", "--steps", str(sched), "--out", str(tmp_path / "w.json")) == 0
            # read as the default family, the recorded times no longer match
            dropped = {k: v for k, v in payload.items() if k not in params}
            bare = tmp_path / "bare.json"
            bare.write_text(json.dumps(dropped, indent=2) + "\n")
            with pytest.raises(ValueError, match="does not match lambda"):
                ScheduleFile.read(bare)
        # a default family records no parameter, and a foreign one is refused
        default = tmp_path / "default.json"
        assert run("baseline", *flags, "--schedule", "vp-linear", "--beta-max", "20",
                   "--out", str(default)) == 0
        assert ScheduleFile.read(default).family_parameters == {}
        foreign = _edited(default, tmp_path / "foreign.json", cosine_shift=0.02)
        with pytest.raises(ValueError, match="do not apply to vp-linear"):
            ScheduleFile.read(foreign)
        assert run("dump-weights", "--steps", foreign, "--out", str(tmp_path / "w.json")) == 2
        for value in ("10", True):
            bad = _edited(default, tmp_path / "typed.json", beta_max=value)
            with pytest.raises(ValueError, match="must be numbers"):
                ScheduleFile.read(bad)

    def test_from_grid_refuses_a_foreign_parameter_at_its_default(self):
        # the key used to be dropped without a word
        grid = uniform_t_grid(NoiseSchedule.from_name("vp-linear"), 4, 1.0, 1e-3)
        message = re.escape("['cosine_shift'] do not apply to vp-linear")
        with pytest.raises(ValueError, match=message):
            ScheduleFile.from_grid(grid, "vp-linear", OrderSchedule.warmup(4, 3), "lagrange", 1,
                                   1.0, "uniform-t", cosine_shift=0.008)

    def test_rejects_unknown_key(self, tmp_path):
        # a misspelt "converged" used to be dropped without a word, exit 0
        bad = _edited(self._baseline(tmp_path), tmp_path / "typo.json", convereged=True)
        with pytest.raises(ValueError, match="unknown keys"):
            ScheduleFile.read(bad)
        assert run("dump-weights", "--steps", bad, "--out", str(tmp_path / "w.json")) == 2


def _json_weight_table(sched) -> str:
    """The weight table of a schedule file as json's indent encoder writes it."""
    sf = ScheduleFile.read(sched)
    orders = OrderSchedule(tuple(sf.orders))
    build = weights_lagrange if sf.polynomial_kind == "lagrange" else weights_taylor
    w, anchor = build(sf.grid, orders), float(sf.grid.lam[-1])
    steps = [
        {"n": n, "weights": [[j, v] for j, v in enumerate(basis_order(w, orders, n).tolist())]}
        for n in range(1, sf.N + 1)
    ]
    return json.dumps({"anchor": anchor, "steps": steps}, indent=2) + "\n"


class TestDumpWeights:
    @pytest.mark.parametrize("N", [1, 40])
    @pytest.mark.parametrize("kind", ["lagrange", "taylor-p2", "mixed"])
    @pytest.mark.parametrize("command", ["dump-weights", "baseline", "optimize"])
    def test_bytes_match_json_indent_encoder(self, tmp_path, command, kind, N):
        # eps 1e-300 puts the anchor near 346, far from the magnitudes near one
        mixed = ",".join(str((1, 2, 1, 3, 2)[i % 5]) for i in range(N))
        kind_flags = {
            "lagrange": ("--order", "3"),
            "taylor-p2": ("--kind", "taylor", "--p", "2"),
            "mixed": ("--order", mixed),
        }[kind]
        sched, table = tmp_path / "s.json", tmp_path / "w.json"
        spec_flags = ("--schedule", "vp-linear", "--eps", "1e-300", "--N", str(N), *kind_flags,
                      "--out", str(sched))
        if command == "optimize":
            argv = ("optimize", "--init", "uniform-lambda", "--max-iters", "3", *spec_flags)
        else:
            argv = ("baseline", "--scheme", "edm", *spec_flags)
        if command == "dump-weights":
            assert run(*argv) == 0
            assert run("dump-weights", "--steps", str(sched), "--out", str(table)) == 0
        else:
            assert run(*argv, "--dump-weights", str(table)) == 0
        text = table.read_text(encoding="utf-8")
        assert json.loads(text)["anchor"] == pytest.approx(346.5, abs=0.5)
        assert text == _json_weight_table(sched)

    def test_table_contents(self, tmp_path):
        sched = tmp_path / "s.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "ve-edm",
            "--N", "3", "--order", "2", "--out", str(sched),
        ) == 0
        table = tmp_path / "w.json"
        assert run("dump-weights", "--steps", str(sched), "--out", str(table)) == 0
        data = json.loads(table.read_text())
        assert "anchor" in data
        assert [s["n"] for s in data["steps"]] == [1, 2, 3]
        assert [len(s["weights"]) for s in data["steps"]] == [1, 2, 2]

    @pytest.mark.parametrize("kind_flags", [(), ("--kind", "taylor", "--p", "2")])
    def test_pairs_are_in_basis_index_order(self, tmp_path, kind_flags):
        # with k_n >= 2 both kinds integrate a linear prediction exactly, so
        # pair j, the weight on lam[n - k_n + j], dotted with those nodes gives
        # int exp(lam - anchor) lam; pairs in age order would not
        sched, table = tmp_path / "s.json", tmp_path / "w.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "5", "--order", "1,2,1,3,2", *kind_flags, "--out", str(sched),
        ) == 0
        assert run("dump-weights", "--steps", str(sched), "--out", str(table)) == 0
        lam = json.loads(sched.read_text())["lambda"]
        data = json.loads(table.read_text())
        anchor = data["anchor"]
        assert [s["n"] for s in data["steps"]] == [1, 2, 3, 4, 5]
        for step, k in zip(data["steps"], (1, 2, 1, 3, 2)):
            n, pairs = step["n"], step["weights"]
            assert [j for j, _ in pairs] == list(range(k))
            if k < 2:
                continue
            got = math.fsum(w * lam[n - k + j] for j, w in pairs)
            exact = (math.exp(lam[n] - anchor) * (lam[n] - 1.0)
                     - math.exp(lam[n - 1] - anchor) * (lam[n - 1] - 1.0))
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_flag_on_baseline(self, tmp_path):
        sched, table = tmp_path / "s.json", tmp_path / "w.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "ve-edm",
            "--N", "2", "--dump-weights", str(table), "--out", str(sched),
        ) == 0
        assert table.exists()


class TestReadmeExample:
    def test_result_table(self, tmp_path, monkeypatch):
        # the README's command-line block, run as written, reproduces its
        # result table to the two decimals the table prints
        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line\n\n```bash\n", 1)[1].split("```", 1)[0]
        model = re.search(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", block, re.S)
        monkeypatch.chdir(tmp_path)
        Path(model[1]).write_text(model[2])
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("stepopt ")]
        assert len(commands) == 6
        for line in commands:
            assert run(*shlex.split(line)[1:]) == 0, line
        table_text = text.split("\nOutput of the comparison above", 1)[1].split("\n\n")[1]
        table = dict(re.findall(r"^\| (\S+)[^|]*\| (\d+\.\d\d) +\|$", table_text, re.M))
        reports = json.loads(Path("report.json").read_text())["reports"]
        assert {r["label"]: f"{r['mean_l2']:.2f}" for r in reports} == table
        assert table == {"optimized": "0.44", "uniform-lambda": "0.99", "edm": "2.89",
                         "uniform-t": "5.24"}
