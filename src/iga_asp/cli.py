"""Command-line interface.

``iga-asp run`` sweeps the cross product of degrees, mesh sizes, and
tau values for one model problem and writes the result table as CSV,
JSON, or an aligned text table.  Ranges use ``a..b`` (inclusive integer
range; decade steps for tau) or comma lists.  A JSON file passed via
``--spec`` provides defaults that command-line flags override.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from pathlib import Path

from .assembly import export_matrix_market, system_matrix, system_setup
from .bench import ExperimentSpec, emit, run_experiment

__all__ = ["main", "build_parser", "parse_int_values", "parse_tau_values"]


def parse_int_values(text: str) -> tuple[int, ...]:
    """``"1..6"`` -> 1,...,6; ``"8,16,32"`` -> the listed values."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    values = tuple(int(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("empty value list")
    return values


def parse_tau_values(text: str) -> tuple[float, ...]:
    """``"1e-4..1e4"`` -> decade steps 1e-4, 1e-3, ..., 1e4, each the
    double nearest the decimal value (``"3e-4..3e4"`` gives 0.003, not
    0.0029999999999999996); comma lists are taken verbatim."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = float(lo_s), float(hi_s)
        if not 0.0 < lo <= hi < math.inf:
            raise ValueError(f"invalid tau range {text!r}")
        first = Decimal(lo_s.strip())
        out = []
        t = lo
        while t <= hi * (1.0 + 1e-9):
            out.append(t)
            t = float(first.scaleb(len(out)))
        return tuple(out)
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("empty tau list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iga-asp",
        description="Auxiliary-space preconditioned solves of spline "
                    "curl-curl / grad-div problems on the unit square/cube.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a parameter sweep")
    run.add_argument("--spec", type=Path,
                     help="JSON file with defaults for any of the options below")
    run.add_argument("--problem", choices=["curl", "div"])
    run.add_argument("--dim", type=int, choices=[2, 3])
    run.add_argument("--p", help="degrees, e.g. 1..6 or 2,3")
    run.add_argument("--n", help="elements per direction, e.g. 8,16,32,64")
    run.add_argument("--tau", help="tau values, e.g. 1e-4..1e4 (decade steps) "
                                   "or 1e-4,1e2")
    run.add_argument("--precond", choices=["none", "asp", "asp-glt"])
    run.add_argument("--smoother", choices=["jacobi", "gs"])
    run.add_argument("--curl-smoother", choices=["diag", "sgs"],
                     help="second smoother of the 3-D div preconditioner")
    run.add_argument("--nu1", type=int)
    run.add_argument("--nu2", help="psq, pcube, or a fixed integer")
    run.add_argument("--nu-asp", type=int)
    run.add_argument("--tol", type=float)
    run.add_argument("--max-iter", type=int)
    run.add_argument("--report", help="comma list from iters,cond,errors")
    run.add_argument("--variant", choices=["pure", "perturbed"],
                     help="2-D manufactured-solution variant")
    run.add_argument("--cond-mode", choices=["auto", "dense", "lanczos"])
    run.add_argument("--format", choices=_FORMATS)
    run.add_argument("--out", type=Path, help="output file (default stdout)")
    run.add_argument("--dump-matrices", type=Path, metavar="DIR",
                     help="export each cell's matrices in Matrix Market format")
    run.add_argument("--allow-nonconverged", action="store_true",
                     help="exit 0 even when some cells did not converge")
    return parser


_FORMATS = ("csv", "json", "pretty")

_DEFAULTS = {
    "problem": "curl", "dim": 2, "p": "1", "n": "8", "tau": "1e-4",
    "precond": "none", "smoother": "jacobi", "curl_smoother": "diag",
    "nu1": 1, "nu2": "psq", "nu_asp": 3, "tol": 1e-6, "max_iter": 3000,
    "report": "iters", "variant": "perturbed", "cond_mode": "auto",
    "format": "csv",
}


def _settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if args.spec is not None:
        loaded = json.loads(args.spec.read_text())
        if not isinstance(loaded, dict):
            raise ValueError("--spec file must contain a JSON object")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown keys in --spec file: {sorted(unknown)}")
        settings.update(loaded)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["format"] not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}")
    return settings


def _number(key: str, value, kind):
    """A JSON number or numeric string as ``kind`` (int or float); a bool,
    list, object, null or non-integral float for an int raises
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{key} must be a number, not {value!r}")
    out = kind(value)
    if isinstance(value, float) and out != value:
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return out


def _values(key: str, value, parse, kind) -> tuple:
    """A range string, one bare number, or a list of numbers."""
    if isinstance(value, str):
        return parse(value)
    if not isinstance(value, list):
        value = [value]
    return tuple(_number(key, v, kind) for v in value)


def _experiment_spec(settings: dict) -> ExperimentSpec:
    nu2 = settings["nu2"]
    if nu2 not in ("psq", "pcube"):
        nu2 = _number("nu2", nu2, int)
    report = settings["report"]
    if isinstance(report, str):
        report = [v.strip() for v in report.split(",") if v.strip()]
    if not (isinstance(report, list) and all(isinstance(v, str) for v in report)):
        raise ValueError(f"report must be a comma list of names, not {report!r}")
    return ExperimentSpec(
        problem=settings["problem"], dim=_number("dim", settings["dim"], int),
        p_values=_values("p", settings["p"], parse_int_values, int),
        n_values=_values("n", settings["n"], parse_int_values, int),
        tau_values=_values("tau", settings["tau"], parse_tau_values, float),
        precond=settings["precond"],
        smoother=settings["smoother"], curl_smoother=settings["curl_smoother"],
        nu1=_number("nu1", settings["nu1"], int), nu2_rule=nu2,
        nu_asp=_number("nu_asp", settings["nu_asp"], int),
        tol=_number("tol", settings["tol"], float),
        max_iter=_number("max_iter", settings["max_iter"], int),
        report=tuple(report), variant=settings["variant"],
        cond_mode=settings["cond_mode"])


def _tau_label(tau: float) -> str:
    """The shortest e-notation of ``tau`` that reads back as the same
    double: ``1e-04``, but ``1.4e-04`` for 1.4e-4."""
    return next(label for digits in range(17)
                if float(label := f"{tau:.{digits}e}") == tau)


def _dump_matrices(spec: ExperimentSpec, root: Path) -> None:
    for p in spec.p_values:
        for n in spec.n_values:
            setup = system_setup(spec.problem, spec.dim, p, n)
            for tau in spec.tau_values:
                system = system_matrix(setup, tau)
                name = f"{spec.problem}{spec.dim}d_p{p}_n{n}_tau{_tau_label(tau)}"
                export_matrix_market(system, root / name)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _settings(args)
        spec = _experiment_spec(settings)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        parser.error(str(exc))
    rows = run_experiment(spec)
    text = emit(rows, settings["format"])
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    if args.dump_matrices is not None:
        _dump_matrices(spec, args.dump_matrices)
    if all(r["converged"] for r in rows) or args.allow_nonconverged:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
