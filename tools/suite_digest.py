"""Digest every verify report of the package, and compare two digests.

    python3 tools/suite_digest.py write OUT.json [--src DIR]
    python3 tools/suite_digest.py compare BEFORE.json AFTER.json

`write` runs 38 suite reports, each in a fresh interpreter: every suite
at `--grid default` and `--grid small`, at b = 0.8 and b = 0.6, and
product-oracle (which needs Im b^2 > 0) at b = 0.6+0.1i.  It stores each
JSON report without its wall-clock fields `timestamp` and `elapsed_seconds`,
with its exit code.  It also stores `qdilog eval --what Gb --format csv` on
the gb-table request inputs of benchmark seeds 1-3, one interpreter per
seed, and `--what gb` on the same inputs (each z read as the argument x of
g_b) in one more interpreter per seed.
`--src` names the package source to import (default: the `src` beside this
script), so one copy of the script digests any checkout.

`compare` prints one line per suite report: the pass state, the worst
deviation on each side, its change in decades (`roundoff` where both lie
below 1e-13), the smallest margin on each side, and the largest relative
change of any case's `lhs` or `rhs`; then the largest relative change of
the eval values, once for G_b and once for g_b.
A case's margin is log10(tol / deviation), capped at 16 decades, the
quantity whose minimum over a benchmark pass is its `accuracy_decades`.
It exits 1 if the two digests differ in anything but numbers: exit codes,
pass states, labels, case order, flags, or empty eval cells.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from checks import decades  # noqa: E402
SUITES = ("reflection", "funceq", "product-oracle", "pole-limits", "tau-binomial",
          "six-nine", "theorem31-exact", "q-binomial", "kac", "consistency")
EVAL_SEEDS = (1, 2, 3)
# Digest key and `--what` of each kind of eval request.
EVAL_KINDS = (("evals", "Gb"), ("gb_evals", "gb"))
VOLATILE = ("timestamp", "elapsed_seconds")
# Worst deviations both below this are roundoff, whose change in decades
# says nothing about the change.
ROUNDOFF = 1e-13

_RUN_CLI = "import sys; from qdilog.cli import main; sys.exit(main(sys.argv[1:]))"
_RUN_EVALS = """
import contextlib, io, json, sys
from qdilog.cli import main
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def report_runs():
    """(key, argv) of the 38 suite reports."""
    for suite in SUITES:
        moduli = ("0.6+0.1j",) if suite == "product-oracle" else ("0.8", "0.6")
        for b in moduli:
            for grid in ("default", "small"):
                argv = ["verify", "--suite", suite, "--b", b, "--grid", grid,
                        "--format", "json"]
                yield f"{suite} b={b} grid={grid}", argv


def eval_argvs(seed: int, what: str) -> list:
    import workloads

    requests = workloads.gb_table_inputs(seed)["requests"]
    argvs = [workloads.eval_argv(b, pairs) for b, pairs in requests]
    return [[what if a == "Gb" else a for a in argv] for argv in argvs]


def _python(src: pathlib.Path, code: str, args=(), stdin=None):
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, text=True, env=env, check=False)


def write(out: pathlib.Path, src: pathlib.Path) -> None:
    digest = {"reports": {}}
    for key, argv in report_runs():
        proc = _python(src, _RUN_CLI, argv)
        report = json.loads(proc.stdout)
        for name in VOLATILE:
            report.pop(name)
        digest["reports"][key] = {"exit": proc.returncode, "report": report}
        print(f"{key}: exit {proc.returncode}", file=sys.stderr)
    for key, what in EVAL_KINDS:
        digest[key] = {}
        for seed in EVAL_SEEDS:
            proc = _python(src, _RUN_EVALS, stdin=json.dumps(eval_argvs(seed, what)))
            if proc.returncode:
                raise SystemExit(f"{what} requests of seed {seed} failed:\n{proc.stderr}")
            digest[key][str(seed)] = json.loads(proc.stdout)
    out.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")


def _complex(d):
    return None if d is None else complex(d["re"], d["im"])


def _rel(a, b) -> float:
    if a is None or b is None or a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _worst(cases) -> float | None:
    devs = [c["deviation"] for c in cases if c.get("deviation") is not None]
    return max(devs) if devs else None


def _margin(cases) -> float | None:
    """Smallest margin over the cases that carry a deviation and a tol."""
    margins = [decades(c["deviation"], c["tol"]) for c in cases
               if c.get("deviation") is not None and c.get("tol")]
    return min(margins) if margins else None


def _shape(case) -> tuple:
    return case["label"], case["passed"], tuple(case["flags"])


def _sci(x) -> str:
    return "-" if x is None else f"{x:.3e}"


def _decades(before, after) -> str:
    if before is None or after is None:
        return "-"
    if before < ROUNDOFF and after < ROUNDOFF:
        return "roundoff"
    if before == after:
        return "+0.000"
    if before == 0.0 or after == 0.0:
        return "inf"
    return f"{math.log10(after / before):+.3f}"


def _eval_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def compare(before: dict, after: dict) -> int:
    mismatches = []
    if before["reports"].keys() != after["reports"].keys():
        mismatches.append("the digests hold different reports")
    print(f"{'report':<40} {'pass':>9} {'worst before':>13} {'worst after':>13} "
          f"{'decades':>8} {'margin before/after':>19} {'lhs/rhs rel':>11}")
    for key in sorted(before["reports"].keys() & after["reports"].keys()):
        a, b = before["reports"][key], after["reports"][key]
        ca, cb = a["report"]["cases"], b["report"]["cases"]
        if a["exit"] != b["exit"] or [_shape(c) for c in ca] != [_shape(c) for c in cb]:
            mismatches.append(key)
        rel = max((_rel(_complex(x[side]), _complex(y[side]))
                   for x, y in zip(ca, cb) for side in ("lhs", "rhs")), default=0.0)
        wa, wb = _worst(ca), _worst(cb)
        state = f"{a['report']['passed']}/{b['report']['passed']}"
        margins = "/".join("-" if x is None else f"{x:.3f}"
                           for x in (_margin(ca), _margin(cb)))
        print(f"{key:<40} {state:>9} {_sci(wa):>13} {_sci(wb):>13} "
              f"{_decades(wa, wb):>8} {margins:>19} {rel:>11.2e}")
    for key, what in EVAL_KINDS:
        ea, eb = before.get(key, {}), after.get(key, {})
        eval_rel = 0.0
        for seed in sorted(ea.keys() | eb.keys()):
            ra, rb = ea.get(seed, []), eb.get(seed, [])
            if len(ra) != len(rb):
                mismatches.append(f"{what} eval seed {seed}: request count")
            for k, ((code_a, text_a), (code_b, text_b)) in enumerate(zip(ra, rb)):
                rows_a, rows_b = _eval_rows(text_a), _eval_rows(text_b)
                same = code_a == code_b and len(rows_a) == len(rows_b) and all(
                    x["flags"] == y["flags"] and (x["value_re"] == "") == (y["value_re"] == "")
                    for x, y in zip(rows_a, rows_b))
                if not same:
                    mismatches.append(f"{what} eval seed {seed} request {k}")
                    continue
                for x, y in zip(rows_a, rows_b):
                    if x["value_re"]:
                        eval_rel = max(eval_rel, _rel(
                            complex(float(x["value_re"]), float(x["value_im"])),
                            complex(float(y["value_re"]), float(y["value_im"]))))
        print(f"{what} eval values: largest relative change {eval_rel:.2e}")
    for m in mismatches:
        print(f"MISMATCH: {m}")
    print("structure: " + ("differs" if mismatches else "same"))
    return 1 if mismatches else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    w = sub.add_parser("write")
    w.add_argument("out", type=pathlib.Path)
    w.add_argument("--src", type=pathlib.Path, default=ROOT / "src")
    c = sub.add_parser("compare")
    c.add_argument("before", type=pathlib.Path)
    c.add_argument("after", type=pathlib.Path)
    args = ap.parse_args()
    if args.mode == "write":
        write(args.out, args.src.resolve())
    else:
        sys.exit(compare(json.loads(args.before.read_text()),
                         json.loads(args.after.read_text())))


if __name__ == "__main__":
    main()
