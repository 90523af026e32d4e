"""Report containers and renderers for evaluation tables and verify suites.

JSON keys are sorted and floats go through repr.  For a fixed config and
seed, the only fields that vary between identical runs are `timestamp` and
`elapsed_seconds` (callers comparing reports drop those two).  CSV columns are fixed and documented in the README; `pretty`
is a fixed-width text table for terminals.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

SCHEMA_VERSION = 1

VERIFY_CSV_COLUMNS = [
    "index",
    "label",
    "mode",
    "passed",
    "deviation",
    "tol",
    "err_estimate",
    "lhs_re",
    "lhs_im",
    "rhs_re",
    "rhs_im",
    "flags",
    "detail",
]

EVAL_CSV_COLUMNS = [
    "index",
    "input_re",
    "input_im",
    "value_re",
    "value_im",
    "err_estimate",
    "flags",
]


def _jsonable(x):
    if isinstance(x, np.generic):  # numpy scalars are not JSON serializable
        x = x.item()
    if isinstance(x, complex):
        return {"im": x.imag, "re": x.real}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and x != x:  # NaN is not valid JSON
        return None
    return x


@dataclass
class CaseResult:
    """One comparison inside a suite."""

    index: int
    label: str
    passed: bool
    mode: str = "numeric"  # or "exact"
    lhs: complex | None = None
    rhs: complex | None = None
    deviation: float | None = None
    tol: float | None = None
    err_estimate: float | None = None
    inputs: dict = field(default_factory=dict)
    flags: tuple = ()
    detail: str = ""
    contour: dict | None = None

    def to_dict(self) -> dict:
        return _jsonable({f.name: getattr(self, f.name) for f in fields(self)})


@dataclass
class SuiteReport:
    """Outcome of one verify suite."""

    suite: str
    b: complex
    alpha: float | None
    tol: float | None
    cases: list
    seed: int | None = None
    config: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.cases)

    def to_dict(self) -> dict:
        out = _jsonable(
            {
                "alpha": self.alpha,
                "b": self.b,
                "config": self.config,
                "elapsed_seconds": self.elapsed_seconds,
                "kind": "verify",
                "n_cases": len(self.cases),
                "n_failed": self.n_failed,
                "passed": self.passed,
                "schema_version": SCHEMA_VERSION,
                "seed": self.seed,
                "suite": self.suite,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "tol": self.tol,
            }
        )
        out["cases"] = [c.to_dict() for c in self.cases]
        return out


@dataclass
class EvalRow:
    index: int
    point: complex
    value: complex | None
    err_estimate: float | None
    flags: tuple = ()
    detail: str = ""


@dataclass
class EvalReport:
    what: str
    b: complex
    rows: list
    config: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return _jsonable(
            {
                "b": self.b,
                "config": self.config,
                "elapsed_seconds": self.elapsed_seconds,
                "kind": "eval",
                "rows": [
                    {
                        "detail": r.detail,
                        "err_estimate": r.err_estimate,
                        "flags": list(r.flags),
                        "index": r.index,
                        "input": r.point,
                        "value": r.value,
                    }
                    for r in self.rows
                ],
                "schema_version": SCHEMA_VERSION,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "what": self.what,
            }
        )


def render_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _r(x) -> str:
    """repr of a float-like for CSV, exact round-trip and no numpy wrapper;
    an empty cell for None."""
    return "" if x is None else repr(float(x))


def _parts(z) -> tuple:
    return (None, None) if z is None else (z.real, z.imag)


def render_csv(report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if isinstance(report, EvalReport):
        w.writerow(EVAL_CSV_COLUMNS)
        for r in report.rows:
            nums = (*_parts(r.point), *_parts(r.value), r.err_estimate)
            w.writerow([r.index, *map(_r, nums), ";".join(r.flags)])
        return buf.getvalue()
    w.writerow(VERIFY_CSV_COLUMNS)
    for c in report.cases:
        nums = (c.deviation, c.tol, c.err_estimate, *_parts(c.lhs), *_parts(c.rhs))
        w.writerow([c.index, c.label, c.mode, int(c.passed), *map(_r, nums),
                    ";".join(c.flags), c.detail])
    return buf.getvalue()


def render_pretty(report) -> str:
    lines = []
    if isinstance(report, EvalReport):
        lines.append(f"{report.what} at b = {report.b}")
        lines.append(
            f"{'#':>3} {'input':>28} {'value':>44} {'err':>10} flags"
        )
        for r in report.rows:
            val = "-" if r.value is None else f"{r.value:.16g}"
            err = "-" if r.err_estimate is None else f"{r.err_estimate:.2e}"
            lines.append(
                f"{r.index:>3} {r.point:>28.12g} {val:>44} {err:>10} "
                f"{';'.join(r.flags)}"
            )
        return "\n".join(lines) + "\n"
    for c in report.cases:
        status = "PASS" if c.passed else "FAIL"
        dev = "exact" if c.mode == "exact" else (
            "-" if c.deviation is None else f"{c.deviation:.3e}"
        )
        lines.append(f"{status}  [{c.index:>3}] {c.label:<48} dev={dev}")
        if c.detail and not c.passed:
            lines.append(f"      {c.detail}")
    verdict = "PASS" if report.passed else "FAIL"
    tol = "-" if report.tol is None else f"{report.tol:.0e}"
    lines.append(
        f"suite {report.suite}: {len(report.cases) - report.n_failed}"
        f"/{len(report.cases)} cases within {tol} ({verdict}), "
        f"{report.elapsed_seconds:.1f}s"
    )
    return "\n".join(lines) + "\n"


def render(report, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "pretty":
        return render_pretty(report)
    raise ValueError(f"unknown format {fmt!r}")
