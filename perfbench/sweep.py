"""Scaling sweep over history length, claim-store size and audit universe.

    python3 perfbench/sweep.py [--out sweep.json]

Reported, never gated.  Each point runs in its own child process under a
wall-clock cap of CAP_S seconds; a point that raises or hits the cap is recorded as failed
with its error class, so known defects stay in the table instead of
being sized away.  Times are plain wall clock, best of up to three
repetitions, as in the ROADMAP baseline table whose rows come first.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run

POINTS = (
    "chain-100", "chain-200", "chain-400",
    "claims-32x2", "claims-64x2", "claims-48x4", "claims-200x3",
    "audit-6x2", "audit-8x2", "audit-10x2", "audit-12x2",
)
REPEAT_BUDGET_S = 20.0  # stop repeating a point once this much time is spent
CAP_S = 120.0  # wall-clock cap per point
SEED = 0  # reproduces the ROADMAP baseline rows


def best_of(fn, budget: float = REPEAT_BUDGET_S, most: int = 3) -> dict:
    """Run ``fn`` (returning a dict of timings) up to ``most`` times; keep each best."""
    best: dict = {}
    spent = 0.0
    for _ in range(most):
        start = perf_counter()
        got = fn()
        spent += perf_counter() - start
        for k, v in got.items():
            best[k] = min(best.get(k, v), v)
        if spent > budget:
            break
    return best


def measure(point: str) -> dict:
    import gen
    import plurality
    import workloads

    kind, size = point.split("-", 1)
    if kind == "chain":
        case = gen.history(int(size), SEED)
    else:
        n, d = map(int, re.fullmatch(r"(\d+)x(\d+)", size).groups())
        case = gen.claims(n, d, 1, SEED)

    def engine_run() -> tuple[dict, object]:
        t0 = perf_counter()
        scenario = plurality.parse_scenario(case.scenario, name=case.name)
        t1 = perf_counter()
        engine = plurality.Engine(scenario)
        doc = engine.run()
        t2 = perf_counter()
        plurality.trace_text(doc)
        for c in engine.certificates:
            plurality.certificate_to_text(c)
        t3 = perf_counter()
        bad = workloads.check_run(case, engine, doc)
        if bad:
            raise AssertionError(bad[0])
        return {"parse_s": t1 - t0, "run_s": t2 - t1, "serialize_s": t3 - t2}, (scenario, engine)

    if kind != "audit":
        return best_of(lambda: engine_run()[0])

    _, (scenario, engine) = engine_run()
    text = plurality.certificate_to_text(engine.certificates[0])
    defs = scenario.contract.defs

    def audit() -> dict:
        t0 = perf_counter()
        cert = plurality.certificate_from_text(text, lambda s: plurality.parse_formula(s, scenario))
        plurality.check_certificate(cert, defs.constraints, defs)
        return {"audit_s": perf_counter() - t0}

    return best_of(audit)


def run_point(point: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--point", point]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        return {"point": point, "ok": False, "error": "Timeout", "detail": f"over the {CAP_S:g} s cap"}
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"point": point, "ok": False, "error": "NoOutput", "detail": done.stderr[-300:]}
    return {"point": point, **json.loads(lines[-1])}


def child(point: str) -> int:
    if run.load_program() is None:
        return 2
    try:
        result = {"ok": True, **measure(point)}
    except Exception as exc:  # the point failed; record its class
        print(json.dumps({"ok": False, "error": type(exc).__name__, "detail": str(exc)[:300]}))
        return 1
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="also write the results to this JSON file")
    ap.add_argument("--point", choices=POINTS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.point:
        return child(args.point)

    rows = []
    for point in POINTS:
        row = run_point(point)
        rows.append(row)
        if row["ok"]:
            cols = "  ".join(f"{k} {v:.4g}" for k, v in row.items() if k.endswith("_s"))
        else:
            cols = f"FAILED {row['error']}: {row['detail']}"
        print(f"{point:<13} {cols}", flush=True)
    doc = {"seed": SEED, "cap_s": CAP_S, "src_lines": run.src_lines(), "points": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
