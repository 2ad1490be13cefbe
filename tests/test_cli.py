import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stepopt
from stepopt import cli
from stepopt.cli import main
from stepopt.schedule_file import ScheduleFile


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

    def test_deterministic_output(self, tmp_path):
        args = (
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "6", "--order", "3",
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_inverted_range_is_2(self, tmp_path):
        assert run(
            "baseline", "--scheme", "uniform-t", "--schedule", "vp-linear",
            "--N", "2", "--T", "0.0005", "--eps", "0.001",
            "--out", str(tmp_path / "x.json"),
        ) == 2

    def test_bad_order_is_2(self, tmp_path):
        assert run(
            "baseline", "--scheme", "uniform-t", "--schedule", "vp-linear",
            "--N", "2", "--order", "1,2,3", "--out", str(tmp_path / "x.json"),
        ) == 2

    def test_rho_below_one_is_2(self, tmp_path):
        out = str(tmp_path / "x.json")
        spec = ("--schedule", "vp-linear", "--N", "3", "--rho", "0", "--out", out)
        assert run("baseline", "--scheme", "edm", *spec) == 2
        assert run("optimize", "--init", "edm", *spec) == 2

    @pytest.mark.parametrize("margin", ["nan", "inf"])
    def test_non_finite_margin_is_2(self, tmp_path, margin):
        # a NaN margin used to pass the lower-bound check and run without a gap
        assert run(
            "optimize", "--init", "edm", "--schedule", "vp-linear", "--N", "5",
            "--margin", margin, "--out", str(tmp_path / "x.json"),
        ) == 2

    @pytest.mark.parametrize("family_flags", [
        ("--schedule", "vp-linear", "--beta-max", "inf"),
        ("--schedule", "vp-linear", "--beta-min", "nan"),
        ("--schedule", "vp-cosine", "--cosine-shift", "nan"),
        ("--schedule", "vp-cosine", "--cosine-shift", "inf"),
    ], ids=["beta-max-inf", "beta-min-nan", "shift-nan", "shift-inf"])
    def test_non_finite_family_parameter_is_2(self, tmp_path, family_flags):
        assert run(
            "baseline", "--scheme", "edm", "--N", "5", *family_flags,
            "--out", str(tmp_path / "x.json"),
        ) == 2

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

    def test_numeric_failure_is_1(self, tmp_path):
        # time outside the family domain is a numeric failure, not usage
        assert run(
            "baseline", "--scheme", "uniform-t", "--schedule", "ve-edm",
            "--N", "2", "--T", "200.0", "--eps", "0.002",
            "--out", str(tmp_path / "x.json"),
        ) == 1

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

    def test_missing_model_file_is_2(self, tmp_path):
        a = tmp_path / "a.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "vp-linear",
            "--N", "3", "--out", str(a),
        ) == 0
        assert run(
            "simulate", "--model", str(tmp_path / "nope.json"), "--steps", str(a),
            "--seeds", "4", "--out", str(tmp_path / "r.json"),
        ) == 2

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
        bad_model = tmp_path / "bad-model.json"
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


def _edited(src, dst, **changes):
    """Copy of a schedule file with some top-level fields replaced."""
    payload = json.loads(src.read_text())
    payload.update(changes)
    dst.write_text(json.dumps(payload, indent=2) + "\n")
    return str(dst)


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

    def test_grid_round_trip(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(
            "baseline", "--scheme", "edm", "--schedule", "ve-edm", "--N", "5",
            "--out", str(out),
        ) == 0
        sf = ScheduleFile.read(out)
        grid = sf.to_grid()
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


class TestDumpWeights:
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

    def test_flag_on_baseline(self, tmp_path):
        sched, table = tmp_path / "s.json", tmp_path / "w.json"
        assert run(
            "baseline", "--scheme", "uniform-lambda", "--schedule", "ve-edm",
            "--N", "2", "--dump-weights", str(table), "--out", str(sched),
        ) == 0
        assert table.exists()
