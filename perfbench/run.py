"""Run one plurality benchmark workload and print its metrics.

    python3 perfbench/run.py --workload history --seed 1 --seconds 15 --trace 0

Workloads: history, discord, forks, audit (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics, measured with no wrapper
but the per-decision timer.  ``--trace 1`` spends half the window
untraced and half with every layer wrapped, and prints the per-layer
split and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` next to this
directory; without it the script exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostclock import KERNEL_REF_S, HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ITERATIONS = 3  # timed iterations per measured phase, whatever --seconds says
SETUP_SAMPLES = 15  # set-ups timed per run; setup_s is their median
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
CHILD_TIMEOUT_S = 60  # one set-up and iteration in a fresh process


def load_program():
    """Import plurality from this checkout's src/, or None if it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import plurality
    except ImportError as exc:
        print(f"perfbench: cannot import plurality from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(plurality.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: plurality was imported from {plurality.__file__}", file=sys.stderr)
        return None
    return plurality


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples above."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


class Runner:
    """Times set-ups and iterations of one workload on one generated case."""

    def __init__(self, workload, case):
        self.workload = workload
        self.case = case
        self.clock = HostClock()
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: str | None = None
        self.parse_s: list[float] = []  # traced set-ups: time in parse_scenario
        self.summaries: list[dict] = []  # traced iterations: tracer summaries

    def setup(self):
        self.clock.start()
        state = self.workload.setup(self.case)
        self.setups.append(self.clock.stop())
        return state

    def iterate(self, tracer=None):
        """One set-up plus one checked iteration; None if it raised."""
        try:
            if tracer is not None:
                tracer.reset()
            state = self.setup()
            if tracer is not None:
                self.parse_s.append(
                    sum(e - b for n, b, e, _ in tracer.spans if n == "syntax.parse_scenario")
                )
                tracer.reset()
            it = self.workload.run(state, self.case, self.clock)
        except Exception as exc:  # an escaped exception is a failed operation
            self.attempted += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        if tracer is not None:
            self.summaries.append(tracer.summary(it.raw_s))
            tracer.reset()
        self.attempted += max(len(it.decisions_ms), 1)
        self.failures += it.failures
        if self.reference is None:
            self.reference = it.digest
        elif it.digest != self.reference:
            self.failures.append("output digest differs between repetitions of one seed")
        return it

    def phase(self, seconds: float, tracer=None) -> list:
        """Iterate until ``seconds`` have passed and MIN_ITERATIONS succeeded."""
        done = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(done) < MIN_ITERATIONS:
            it = self.iterate(tracer)
            if it is not None:
                done.append(it)
            elif len(self.failures) > 10 * MIN_ITERATIONS:
                break
        return done


def end_to_end(runner: Runner, timed: list, rss_mib: float) -> tuple[dict, list[str]]:
    # Every decision sample of every timed iteration, host-scaled: a cost
    # that lands on different decisions in different repetitions, such as a
    # garbage collection, stays in the tail.
    samples = [ms for it in timed for ms in it.decisions_ms]
    tail_ms, pct = tail(samples)
    audit = runner.workload.name == "audit"
    metrics = {
        "setup_s": (statistics.median(runner.setups), "s"),
        "run_s": (statistics.median(it.run_s for it in timed), "s"),
        "decision_ms_p50": (statistics.median(samples), "ms"),
        "decision_ms_tail": (tail_ms, "ms"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    op = "verdicts" if audit else "decisions"
    notes = [
        f"setup_s          median of {len(runner.setups)} set-ups",
        f"run_s            median of {len(timed)} iterations"
        + ("; this is audit_s, the time to verdicts for the whole certificate set" if audit else ""),
        f"decision_ms_p50  median of {len(samples)} {op} ({len(timed)} iterations)",
        f"decision_ms_tail p{pct:.2f} of the same {len(samples)} {op}, {TAIL_BEYOND} beyond it",
        "peak_rss_mib     one fresh child process running one iteration",
        f"plain wall time: run_s median {statistics.median(it.raw_s for it in timed):.4f} s; "
        f"host speed {KERNEL_REF_S / statistics.median(runner.clock.kernel_s):.3f} of reference "
        f"(median of {len(runner.clock.kernel_s)} calibrations)",
    ]
    return metrics, notes


def per_layer(runner: Runner, untraced: list, traced: list):
    import tracing

    summaries = runner.summaries
    n = len(summaries)

    def mean(get):
        return sum(get(s) for s in summaries) / n

    def inc(name):
        return mean(lambda s: s["inclusive"].get(name, 0.0))

    def calls(name):
        return mean(lambda s: s["calls"].get(name, 0))

    def count(name):
        return mean(lambda s: s["counts"].get(name, 0))

    def under(name, parent, key="by_parent"):
        return mean(lambda s: s[key].get((name, parent), 0))

    validations = calls("validator.validate")
    traced_s = sum(it.raw_s for it in traced) / len(traced)
    untraced_s = sum(it.raw_s for it in untraced) / len(untraced)
    m = {
        "syntax.parse_s": (statistics.median(runner.parse_s), "s"),
        "blocktree.select_calls": (calls("blocktree.select"), "count"),
        "blocktree.select_s": (inc("blocktree.select"), "s"),
        "blocktree.chain_to_blocks": (count("blocktree.chain_to_blocks"), "count"),
        "blocktree.lost_races": (count("blocktree.lost_races"), "count"),
        "validator.compute_state_calls": (calls("validator.compute_state"), "count"),
        "validator.compute_state_s": (inc("validator.compute_state"), "s"),
        "validator.blocks_folded": (count("validator.blocks_folded"), "count"),
        "validator.validate_s": (inc("validator.validate"), "s"),
        "validator.evaluate_s": (inc("logic.evaluate"), "s"),
        "validator.accept_ratio": (
            count("validator.accepted") / validations if validations else 0.0,
            "ratio",
        ),
        "logic.refute_calls": (calls("logic.refute"), "count"),
        "logic.refute_s": (inc("logic.refute"), "s"),
        "logic.refute_store_claims": (count("logic.refute_store_claims"), "count"),
        "logic.proof_steps": (count("logic.proof_steps"), "count"),
        "logic.ground_expand_calls": (calls("logic.ground_expand"), "count"),
        "logic.ground_expand_s": (inc("logic.ground_expand"), "s"),
        "logic.ground_expand_s.refute": (under("logic.ground_expand", "logic.refute"), "s"),
        "logic.ground_expand_s.replay": (
            under("logic.ground_expand", "certificates.replay_refutation"),
            "s",
        ),
        "logic.ground_expand_s.brute_force": (
            under("logic.ground_expand", "logic.brute_force_satisfiable"),
            "s",
        ),
        "logic.minimize_s": (inc("logic.minimize_conflict"), "s"),
        "logic.minimize_probes": (
            under("logic.refute", "logic.minimize_conflict", "by_parent_calls"),
            "count",
        ),
        "logic.store_consistent_calls": (calls("logic.store_consistent"), "count"),
        "logic.store_consistent_s": (inc("logic.store_consistent"), "s"),
        "runtime.trace_s": (inc("runtime.trace"), "s"),
        "runtime.serialize_s": (inc("runtime.trace_text"), "s"),
        "runtime.trace_bytes": (count("runtime.trace_bytes"), "bytes"),
        "certificates.parse_s": (inc("certificates.certificate_from_text"), "s"),
        "certificates.replay_s": (inc("certificates.replay_refutation"), "s"),
        "certificates.minimality_s": (inc("certificates.check_minimality"), "s"),
        "certificates.assignments": (count("certificates.assignments"), "count"),
        "certificates.brute_force_calls": (calls("logic.brute_force_satisfiable"), "count"),
    }
    for layer in tracing.LAYERS:
        m[f"self_s.{layer}"] = (mean(lambda s: s["self"][layer]), "s")
    m["self_s.unattributed"] = (mean(lambda s: s["unattributed"]), "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")

    phase = "audit_s" if runner.workload.name == "audit" else "run_s"
    notes = [
        f"traced {phase} {traced_s:.4f} s over {len(traced)} iterations, "
        f"untraced {untraced_s:.4f} s over {len(untraced)}: "
        f"tracing overhead {traced_s - untraced_s:+.4f} s",
        "self time per layer (mean per traced iteration):",
    ]
    for layer in tracing.LAYERS:
        v = m[f"self_s.{layer}"][0]
        notes.append(f"  {layer:<13} {v:.4f} s  {100 * v / traced_s:5.1f}%")
    v = m["self_s.unattributed"][0]
    notes.append(f"  {'unattributed':<13} {v:.4f} s  {100 * v / traced_s:5.1f}%")
    parents: dict[str, float] = {}
    for s in summaries:
        for (name, parent), dur in s["by_parent"].items():
            if name == "logic.ground_expand":
                parents[parent] = parents.get(parent, 0.0) + dur / n
    notes.append(
        "ground_expand by parent span: "
        + (", ".join(f"{p} {v:.4f} s" for p, v in sorted(parents.items())) or "none")
    )
    return m, notes


def peak_rss_child(workload: str, seed: int) -> tuple[float | None, str | None]:
    """Peak RSS (MiB) of a fresh process that sets up and runs one iteration."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--rss-child"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"peak-RSS child exceeded {CHILD_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"peak-RSS child failed: {done.stderr.strip()[-300:]}"
    return float(lines[-1]), None


def rss_child(workload, seed: int) -> int:
    case = workload.generate(seed)
    it = workload.run(workload.setup(case), case, HostClock(calibrate=False))
    if it.failures:
        print(f"perfbench: {it.failures[0]}", file=sys.stderr)
        return 1
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


def _require(done, runner: Runner):
    if not done:
        raise RuntimeError(f"no iteration succeeded; first failure: {runner.failures[0]}")


def measure(workload, case, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """One benchmark run: the result document and the human-readable lines."""
    import tracing

    runner = Runner(workload, case)
    runner.iterate()  # warm-up; also fixes the reference output digest
    runner.setups.clear()
    if trace:
        runner.clock = HostClock(calibrate=False)  # compare plain wall times
        untraced = runner.phase(seconds / 2)
        with tracing.Tracer() as tracer:
            traced = runner.phase(seconds / 2, tracer)
        _require(untraced and traced, runner)
        metrics, notes = per_layer(runner, untraced, traced)
    else:
        timed = runner.phase(seconds)
        _require(timed, runner)
        while len(runner.setups) < SETUP_SAMPLES:
            runner.setup()
        rss, err = peak_rss_child(workload.name, seed)
        if err:
            runner.failures.append(err)
        metrics, notes = end_to_end(runner, timed, rss if rss is not None else 0.0)

    failed = min(len(runner.failures), runner.attempted)
    lines = [f"workload {workload.name} ({case.name}), seed {seed}, trace {trace}"]
    lines += [f"  {k:<32} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines += [f"  {line}" for line in notes]
    lines.append(
        f"  failed_ratio {failed / runner.attempted:.6g} ({failed} of {runner.attempted} operations)"
    )
    lines += [f"  FAILED: {f}" for f in runner.failures[:10]]
    lines.append(f"  src_lines {src_lines()} (informational, not gated)")
    doc = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return doc, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if load_program() is None:
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.rss_child:
        return rss_child(workload, args.seed)

    doc, lines = measure(workload, workload.generate(args.seed), args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
