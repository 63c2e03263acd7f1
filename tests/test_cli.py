"""Command-line interface: parsing, sweeps, output files, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import iga_asp
from iga_asp.cli import build_parser, main, parse_int_values, parse_tau_values


class TestValueParsing:
    def test_int_range(self):
        assert parse_int_values("1..6") == (1, 2, 3, 4, 5, 6)

    def test_int_list(self):
        assert parse_int_values("8,16,32") == (8, 16, 32)

    def test_int_single(self):
        assert parse_int_values("4") == (4,)

    def test_int_empty_range(self):
        with pytest.raises(ValueError):
            parse_int_values("6..1")
        with pytest.raises(ValueError):
            parse_int_values(",")

    def test_tau_decades(self):
        values = parse_tau_values("1e-4..1e4")
        assert len(values) == 9
        assert values[0] == pytest.approx(1e-4)
        assert values[-1] == pytest.approx(1e4)
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r == pytest.approx(10.0) for r in ratios)

    def test_tau_decades_are_nearest_doubles(self):
        # each step is the double nearest 3e-4, 3e-3, ..., not a
        # repeated product that drifts to 0.0029999999999999996
        assert parse_tau_values("3e-4..3e4") == tuple(
            float(f"3e{k}") for k in range(-4, 5))

    def test_tau_list(self):
        assert parse_tau_values("1e-4,1e2") == (1e-4, 1e2)

    def test_tau_invalid(self):
        with pytest.raises(ValueError):
            parse_tau_values("1e4..1e-4")
        with pytest.raises(ValueError):
            parse_tau_values("0..1")


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.problem is None          # defaults filled in later

    def test_unknown_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--precond", "amg"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_csv_to_stdout(self, capsys):
        code = main(["run", "--problem", "curl", "--dim", "2", "--p", "1",
                     "--n", "4", "--tau", "1e-2", "--precond", "asp"])
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("problem,dim,p,n,tau")
        assert len(out.strip().splitlines()) == 2

    def test_output_file_and_json(self, tmp_path):
        out = tmp_path / "table.json"
        code = main(["run", "--p", "1", "--n", "4", "--tau", "1e-2",
                     "--precond", "asp", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data[0]["p"] == 1 and data[0]["converged"]

    def test_spec_file_with_overrides(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"problem": "div", "p": "1", "n": "4",
                                    "tau": "1e-2", "precond": "asp"}))
        code = main(["run", "--spec", str(spec), "--format", "json",
                     "--n", "8"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["problem"] == "div"
        assert data[0]["n"] == 8            # CLI override wins

    def test_spec_file_unknown_key(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"solver": "gmres"}))
        with pytest.raises(SystemExit):
            main(["run", "--spec", str(spec)])

    def test_spec_file_invalid_json(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        with pytest.raises(SystemExit):
            main(["run", "--spec", str(spec)])

    @pytest.mark.parametrize("key, value", [
        ("format", "xml"), ("smoother", "sor"), ("curl_smoother", "ilu"),
        ("variant", "smooth"), ("cond_mode", "exact"),
        # wrong JSON types
        ("report", 5), ("nu1", [1]), ("nu2", [2]), ("dim", None),
        ("max_iter", True), ("p", [[1]]), ("p", 2.5), ("n", {"8": 1}),
        ("tau", [None]),
        # values a cell would die on
        ("p", 0), ("n", [8, 0]), ("nu2", 0), ("tol", -1), ("max_iter", 0),
        # an option that does nothing for the default 2-D curl problem
        ("curl_smoother", "sgs")])
    def test_spec_file_bad_choice_exits_before_any_cell(
            self, tmp_path, monkeypatch, key, value):
        # values from --spec bypass argparse choices; they must still
        # stop at parser.error (exit 2) before the sweep starts
        def no_sweep(spec):
            raise AssertionError("run_experiment called")
        monkeypatch.setattr("iga_asp.cli.run_experiment", no_sweep)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--spec", str(spec)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        ["--p", "0"], ["--n", "0"], ["--p", "1,0"], ["--nu1", "0"],
        ["--nu-asp", "0"], ["--nu2", "0", "--precond", "asp-glt"],
        ["--nu2", "-1"], ["--tol", "-1"], ["--tol", "0"], ["--tol", "nan"],
        ["--tol", "inf"], ["--max-iter", "0"],
        # p = 1, n = 1: no unknowns, whatever the preconditioner or report
        ["--n", "1"], ["--n", "1", "--precond", "asp-glt"],
        ["--n", "1,4", "--precond", "asp", "--report", "cond"],
        ["--n", "1", "--precond", "asp", "--report", "cond",
         "--cond-mode", "lanczos"],
        ["--n", "1", "--report", "errors"],
        ["--n", "1", "--problem", "div", "--dim", "3", "--precond", "asp"],
        # the sgs curl smoother exists only in 3-D div's preconditioner
        ["--curl-smoother", "sgs"],
        ["--problem", "curl", "--dim", "3", "--curl-smoother", "sgs"],
        ["--problem", "div", "--dim", "2", "--precond", "asp",
         "--curl-smoother", "sgs"]])
    def test_bad_sweep_value_exits_before_any_cell(self, monkeypatch, capsys,
                                                   args):
        # exit 2 (usage), not a traceback in a cell or the exit 1 of a
        # non-converged sweep
        def no_sweep(spec):
            raise AssertionError("run_experiment called")
        monkeypatch.setattr("iga_asp.cli.run_experiment", no_sweep)
        with pytest.raises(SystemExit) as exc:
            main(["run", *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err and "integer, not" not in err

    def test_dense_kappa_past_its_limit_exits_before_any_cell(
            self, tmp_path, monkeypatch, capsys):
        def no_sweep(spec):
            raise AssertionError("run_experiment called")
        monkeypatch.setattr("iga_asp.cli.run_experiment", no_sweep)
        out = tmp_path / "F"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "curl", "--dim", "2", "--p", "1",
                  "--n", "8,110", "--tau", "1e-4", "--precond", "asp",
                  "--report", "cond", "--cond-mode", "dense",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "p=1 n=110 has N=23980" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_sweep_value_exits_before_any_cell(self, monkeypatch,
                                                        capsys):
        def no_sweep(spec):
            raise AssertionError("run_experiment called")
        monkeypatch.setattr("iga_asp.cli.run_experiment", no_sweep)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--p", "1,1", "--n", "2", "--tau", "1e-4,1e-4"])
        assert exc.value.code == 2
        assert "p values must be distinct; 1 is repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, field, expected", [
        ("p", 2, "p_values", (2,)), ("n", 8, "n_values", (8,)),
        ("tau", 0.01, "tau_values", (0.01,))])
    def test_spec_file_bare_number_is_one_value_list(
            self, tmp_path, monkeypatch, key, value, field, expected):
        seen = []
        monkeypatch.setattr("iga_asp.cli.run_experiment",
                            lambda spec: seen.append(spec) or [])
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({key: value}))
        assert main(["run", "--spec", str(spec)]) == 0
        assert getattr(seen[0], field) == expected

    def test_nonconvergence_exit_code(self, capsys):
        argv = ["run", "--p", "2", "--n", "8", "--tau", "1e-4",
                "--max-iter", "3"]
        assert main(argv) == 1
        capsys.readouterr()
        assert main(argv + ["--allow-nonconverged"]) == 0
        out = capsys.readouterr().out
        assert ",-," in out                  # non-convergence marker

    def test_dump_matrices(self, tmp_path, capsys):
        root = tmp_path / "mats"
        code = main(["run", "--p", "1", "--n", "4", "--tau", "1e-2",
                     "--precond", "asp", "--dump-matrices", str(root)])
        assert code == 0
        (cell,) = list(root.iterdir())
        assert cell.name == "curl2d_p1_n4_tau1e-02"
        names = {f.name for f in cell.iterdir()}
        assert {"A.mtx", "M_D.mtx", "M_range.mtx", "D_mat.mtx",
                "manifest.json"} <= names
        manifest = json.loads((cell / "manifest.json").read_text())
        assert manifest["problem"]["operator"] == "curl"

    def test_dump_matrices_keeps_tau_values_of_one_decade_apart(self, tmp_path,
                                                                 capsys):
        root = tmp_path / "mats"
        code = main(["run", "--p", "1", "--n", "2", "--tau", "1e-4,1.4e-4,3e-4",
                     "--dump-matrices", str(root)])
        assert code == 0
        names = sorted(d.name for d in root.iterdir())
        assert names == ["curl2d_p1_n2_tau1.4e-04", "curl2d_p1_n2_tau1e-04",
                         "curl2d_p1_n2_tau3e-04"]
        for name in names:
            manifest = json.loads((root / name / "manifest.json").read_text())
            assert float(name.split("tau")[1]) == manifest["problem"]["tau"]

    def test_pretty_format(self, capsys):
        code = main(["run", "--p", "1", "--n", "4", "--tau", "1e-2",
                     "--precond", "asp", "--smoother", "gs",
                     "--format", "pretty", "--report", "iters,cond"])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoother=gs" in out

    def test_console_script_installed(self):
        """The declared ``iga-asp`` console script runs as its own process.

        The target is read from ``[project.scripts]`` and called the way
        the installed wrapper calls it, so no install is needed.  An
        ``iga-asp`` found on PATH is run too, with the same checks.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["iga-asp"]
        module, attr = target.split(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.exit({attr}())")
        args = ["run", "--p", "1", "--n", "2", "--tau", "1.0",
                "--precond", "asp"]
        import_root = Path(iga_asp.__file__).resolve().parents[1]
        runs = [([sys.executable, "-c", wrapper, *args],
                 dict(os.environ, PYTHONPATH=str(import_root)))]
        exe = shutil.which("iga-asp")
        if exe is not None:
            runs.append(([exe, *args], None))
        for cmd, env in runs:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("problem,")
