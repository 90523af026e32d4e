"""Command-line front end: evaluate the dilogarithm family and run suites.

Two subcommands:

  qdilog eval   --what Gb|gb|zeta --points 0.5,0.3+0.2j [--b ...] [...]
  qdilog verify --suite reflection|funceq|...           [--b ...] [...]

Options can come from a JSON config file (--config) with the same keys as
the flags, checked the same way before anything runs; flags win.  Exit
codes: 0 all cases pass, 1 numeric failure, 2 unsupported configuration,
3 usage error.  Reports print to stdout and, with --out, are also written
to a file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field, fields

from .core import (
    EvalConfig,
    _near_lattice,
    _small_gb_arg,
    as_modulus,
    gb_eval,
    gb_eval_many,
    small_gb,
)
from .errors import ConvergenceError, PoleProximityError, QdilogError
from .reports import EvalReport, EvalRow, render
from .suites import DEFAULT_B, SUITES, run_suite

__all__ = ["RunConfig", "main", "parse_complex"]

EXIT_PASS = 0
EXIT_NUMERIC = 1
EXIT_UNSUPPORTED = 2
EXIT_USAGE = 3

POLE_FLAG_DISTANCE = 1e-3


def parse_complex(text: str) -> complex:
    """Accept Python complex syntax with either i or j as the unit."""
    s = text.strip().replace(" ", "")
    for candidate in (s, s.replace("i", "j")):
        try:
            return complex(candidate)
        except ValueError:
            continue
    raise ValueError(f"cannot parse {text!r} as a complex number")


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _integer(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _complex(v) -> complex:
    """Text, a real number, or a [re, im] pair."""
    if isinstance(v, str):
        return parse_complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_real(v[0]), _real(v[1]))
    return complex(_real(v))


def _text(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _option(default, convert, help_text=None, choices=None):
    """A RunConfig field whose metadata holds its converter, allowed values
    and flag help; flag and config-file values both go through _option_value."""
    meta = {"convert": convert, "choices": choices, "help": help_text}
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Serializable bundle of every knob the CLI accepts, one flag per field."""

    b: complex = _option(DEFAULT_B, _complex, "modulus b (complex)")
    alpha: float | None = _option(None, _real, "default: the suite's own")
    tol: float | None = _option(None, _real, "suite tolerance")
    rel_tol: float | None = _option(None, _real, "engine relative tolerance")
    seed: int | None = _option(None, _integer, "default: the suite's own")
    threads: int | None = _option(None, _integer, "accepted and recorded; has no effect")
    format: str = _option("pretty", _text, choices=("json", "csv", "pretty"))
    out: str | None = _option(None, _text)
    grid: str = _option("default", _text, choices=("default", "small"))

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "b":
                v = [v.real, v.imag]
            d[f.name] = v
        return d

    def report_dict(self) -> dict:
        # The output path changes where the report lands, not what is in
        # it; keep it out so identical computations embed identical configs.
        d = self.to_dict()
        d.pop("out")
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        unknown = set(d) - set(_OPTIONS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**{k: _option_value(k, v) for k, v in d.items()})

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return RunConfig.from_dict(json.load(fh))


_OPTIONS = {f.name: f for f in fields(RunConfig)}


def _option_value(name: str, v):
    """Convert and check one option value; ValueError if it is not allowed."""
    option = _OPTIONS[name]
    if v is None and option.default is None:
        return None
    choices = option.metadata["choices"]
    try:
        v = option.metadata["convert"](v)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if choices is not None and v not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}; got {v!r}")
    return v


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# Built at the first main() call, not at import, and then reused: parse_args
# keeps no state between calls.
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="qdilog", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_option(parser, name):
        meta = _OPTIONS[name].metadata
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, default=None, choices=meta["choices"], help=meta["help"])

    common = argparse.ArgumentParser(add_help=False)
    for name in _OPTIONS:
        if name != "grid":  # verify only
            add_option(common, name)
    common.add_argument("--config", type=str, default=None, help="JSON config file")

    pe = sub.add_parser("eval", parents=[common], help="tabulate function values")
    pe.add_argument("--what", choices=["Gb", "gb", "zeta"], required=True)
    pe.add_argument(
        "--points",
        type=str,
        default="",
        help="comma-separated complex arguments",
    )

    pv = sub.add_parser("verify", parents=[common], help="run an identity suite")
    pv.add_argument("--suite", choices=sorted(SUITES), required=True)
    add_option(pv, "grid")
    return p


def _merge_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for name in _OPTIONS:
        v = getattr(args, name, None)  # eval has no --grid
        if v is not None:
            setattr(cfg, name, _option_value(name, v))
    return cfg


def _eval_config(cfg: RunConfig) -> EvalConfig | None:
    if cfg.rel_tol is None:
        return None
    return EvalConfig(rel_tol=cfg.rel_tol)


def _value_row(k: int, z: complex, v: complex, rel: float, near: bool) -> EvalRow:
    flags = ("pole-proximity",) if near else ()
    return EvalRow(k, z, v, rel * abs(v), flags=flags)


def _eval_rows(what: str, points: list, m, ecfg, rel: float) -> list:
    """One EvalRow per point.

    G_b and g_b take all of a request's points in one gb_eval_many call.
    If that raises, each point is evaluated alone, so that only the failing
    points become error rows.
    """
    try:
        if what == "Gb":
            values = gb_eval_many(points, m, ecfg).tolist()
            near = _near_lattice(points, m, POLE_FLAG_DISTANCE).any(axis=0)
        else:
            args = [_small_gb_arg(x, m) for x in points]
            values = [m.zeta_bar / v for v in gb_eval_many(args, m, ecfg).tolist()]
            near = [False] * len(points)
    except QdilogError:
        pass
    else:
        return [
            _value_row(k, z, v, rel, bool(n))
            for k, (z, v, n) in enumerate(zip(points, values, near))
        ]
    rows = []
    for k, z in enumerate(points):
        try:
            v = gb_eval(z, m, ecfg) if what == "Gb" else small_gb(z, m, ecfg)
        except PoleProximityError as exc:
            flags = ("pole-proximity",)
            rows.append(EvalRow(k, z, None, None, flags=flags, detail=str(exc)))
            continue
        except QdilogError as exc:
            detail = f"{type(exc).__name__}: {exc}"
            rows.append(EvalRow(k, z, None, None, flags=("error",), detail=detail))
            continue
        # G_b took z, so z is finite and its lattice distance defined.
        near = what == "Gb" and _near_lattice(z, m, POLE_FLAG_DISTANCE).any()
        rows.append(_value_row(k, z, v, rel, bool(near)))
    return rows


def _cmd_eval(args, cfg: RunConfig) -> tuple:
    t0 = time.perf_counter()
    m = as_modulus(cfg.b)
    ecfg = _eval_config(cfg)
    rel = cfg.rel_tol if cfg.rel_tol is not None else EvalConfig().rel_tol
    rows = []
    if args.what == "zeta":
        rows.append(
            EvalRow(0, 0j, m.zeta, 0.0, detail="zeta_b normalization constant")
        )
    else:
        if not args.points:
            raise ValueError("eval needs --points for Gb and gb")
        points = [parse_complex(tok) for tok in args.points.split(",") if tok]
        rows = _eval_rows(args.what, points, m, ecfg, rel)
    report = EvalReport(
        what=args.what,
        b=complex(m.b),
        rows=rows,
        config=cfg.report_dict(),
        elapsed_seconds=time.perf_counter() - t0,
    )
    return report, EXIT_PASS


def _cmd_verify(args, cfg: RunConfig) -> tuple:
    report = run_suite(
        args.suite,
        b=cfg.b,
        alpha=cfg.alpha,
        tol=cfg.tol,
        seed=cfg.seed,
        grid=cfg.grid,
        cfg=_eval_config(cfg),
    )
    report.config = {**report.config, **cfg.report_dict()}
    return report, (EXIT_PASS if report.passed else EXIT_NUMERIC)


def main(argv=None) -> int:
    """Run one qdilog command (argv defaults to sys.argv[1:]); return its exit code.

    The argument parser is built at the first call and reused by later
    calls in the same process.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        if args.command == "eval":
            report, code = _cmd_eval(args, cfg)
        else:
            report, code = _cmd_verify(args, cfg)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except QdilogError as exc:
        print(f"unsupported configuration: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    text = render(report, cfg.format)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
