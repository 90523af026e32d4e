"""Command-line front end: evaluate the dilogarithm family and run suites.

Two subcommands:

  qdilog eval   --what Gb|gb|zeta --points 0.5,0.3+0.2j [--b ...] [...]
  qdilog verify --suite reflection|funceq|...           [--b ...] [...]

Options can come from a JSON config file (--config) with the same keys as
the flags; flags win.  Exit codes: 0 all cases pass, 1 numeric failure,
2 unsupported configuration, 3 usage error.  Reports print to stdout and,
with --out, are also written to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields

from .core import EvalConfig, _lattice_distance, as_modulus, gb_eval, small_gb
from .errors import (
    ContourUnsupportedError,
    ConvergenceError,
    DegenerateParameterError,
    ParameterDomainError,
    PoleProximityError,
    QdilogError,
    StripDomainError,
    UnsupportedParameterError,
)
from .reports import EvalReport, EvalRow, render
from .suites import SUITES, run_suite

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


@dataclass
class RunConfig:
    """Serializable bundle of every knob the CLI accepts."""

    b: complex = 0.8
    alpha: float = 0.5
    tol: float | None = None
    rel_tol: float | None = None
    seed: int = 20260817
    grid: str = "default"
    format: str = "pretty"
    threads: int | None = None
    out: str | None = None

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
        known = {f.name for f in fields(RunConfig)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kw = dict(d)
        if "b" in kw:
            v = kw["b"]
            if isinstance(v, str):
                kw["b"] = parse_complex(v)
            elif isinstance(v, (list, tuple)):
                kw["b"] = complex(v[0], v[1])
            else:
                kw["b"] = complex(v)
        return RunConfig(**kw)

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return RunConfig.from_dict(json.load(fh))


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="qdilog", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--b", type=str, default=None, help="modulus b (complex)")
    common.add_argument("--alpha", type=float, default=None)
    common.add_argument("--tol", type=float, default=None, help="suite tolerance")
    common.add_argument(
        "--rel-tol", type=float, default=None, help="engine relative tolerance"
    )
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=None)
    common.add_argument(
        "--format", choices=["json", "csv", "pretty"], default=None
    )
    common.add_argument("--out", type=str, default=None)
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
    pv.add_argument("--grid", choices=["default", "small"], default=None)
    return p


def _merge_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        "alpha": args.alpha,
        "tol": args.tol,
        "rel_tol": args.rel_tol,
        "seed": args.seed,
        "threads": args.threads,
        "format": args.format,
        "out": args.out,
    }
    if args.b is not None:
        cfg.b = parse_complex(args.b)
    if getattr(args, "grid", None) is not None:
        cfg.grid = args.grid
    for k, v in overrides.items():
        if v is not None:
            setattr(cfg, k, v)
    return cfg


def _eval_config(cfg: RunConfig) -> EvalConfig | None:
    if cfg.rel_tol is None:
        return None
    return EvalConfig(rel_tol=cfg.rel_tol)


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
        for k, z in enumerate(points):
            flags = []
            if args.what == "Gb" and _lattice_distance(z, m) < POLE_FLAG_DISTANCE:
                flags.append("pole-proximity")
            try:
                if args.what == "Gb":
                    v = gb_eval(z, m, ecfg)
                else:
                    v = small_gb(z, m, ecfg)
                rows.append(
                    EvalRow(k, z, v, rel * abs(v), flags=tuple(flags))
                )
            except PoleProximityError as exc:
                rows.append(
                    EvalRow(
                        k,
                        z,
                        None,
                        None,
                        flags=tuple(flags + ["pole-proximity"]),
                        detail=str(exc),
                    )
                )
            except QdilogError as exc:
                rows.append(
                    EvalRow(
                        k,
                        z,
                        None,
                        None,
                        flags=tuple(flags + ["error"]),
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
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
        threads=cfg.threads,
        grid=cfg.grid,
        cfg=_eval_config(cfg),
    )
    report.config = {**report.config, **cfg.report_dict()}
    report.seed = cfg.seed if report.seed is None else report.seed
    return report, (EXIT_PASS if report.passed else EXIT_NUMERIC)


def main(argv=None) -> int:
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
    except (
        UnsupportedParameterError,
        ContourUnsupportedError,
        DegenerateParameterError,
        ParameterDomainError,
        StripDomainError,
    ) as exc:
        print(f"unsupported configuration: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    text = render(report, cfg.format)
    sys.stdout.write(text)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
