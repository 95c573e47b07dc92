"""The four benchmark workloads: inputs, one timed iteration, and checks.

Every workload is a closed loop: one caller in one process, no threads,
the next operation issued only when the previous one returned.  An
iteration starts from a freshly set-up engine (or freshly parsed
scenario, for ``audit``) and ends with the texts ``plurality run`` or
``plurality check-certificate`` would produce; nothing is written to
disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import gen
from hostclock import HostClock
import plurality
from plurality import Engine
from plurality.certificates import CertificateError
from plurality.logic import claim_text

# Public functions are looked up on the package at call time, so that the
# tracer's wrappers (installed on the package namespace too) see the calls.

# Workload sizes.  An engine iteration takes about two seconds on a 2-core
# x86_64 sandbox, so a run repeats it several times.  Discord has 12
# conflicts so that the decision tail rests on many minimization samples.
# Audit uses the 6x2 universe so that a verdict takes tens of milliseconds
# and its 54 verdicts repeat many times per run.
HISTORY_N = 300
DISCORD = (48, 4, 12)  # items, values, conflicts
FORKS = (30, 4)  # rounds, siblings
AUDIT = (6, 2, 3)  # items, values, source runs; every item gets a conflict


@dataclass
class Iteration:
    """What one timed iteration produced."""

    run_s: float  # reference seconds (see hostclock)
    raw_s: float  # plain wall time, calibrations excluded
    decisions_ms: list[float]
    digest: str
    failures: list[str] = field(default_factory=list)


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# engine workloads: history, discord, forks


class EngineWorkload:
    """Parse and construct (set-up), then run to trace and certificate texts."""

    def __init__(self, name: str, make):
        self.name = name
        self._make = make

    def generate(self, seed: int) -> gen.Expected:
        return self._make(seed)

    def setup(self, case: gen.Expected) -> Engine:
        return setup_engine(case)

    def run(self, engine: Engine, case: gen.Expected, clock: HostClock) -> Iteration:
        parts: list[list[int]] = []  # per decision, indices into clock.samples
        clock.start()
        if case.rounds:
            self._drive_forks(engine, case, clock, parts)
            doc = engine.trace()
        else:
            attempt = engine.attempt

            def timed_attempt(name, **kwargs):
                start = perf_counter()
                try:
                    return attempt(name, **kwargs)
                finally:
                    parts.append([clock.record(perf_counter() - start)])

            engine.attempt = timed_attempt
            doc = engine.run()
        trace = plurality.trace_text(doc)
        certs = [plurality.certificate_to_text(c) for c in engine.certificates]
        run_s = clock.stop()
        raw_s = clock.raw_s
        decisions = [sum(clock.samples[i] for i in p) * 1e3 for p in parts]
        it = Iteration(run_s, raw_s, decisions, _digest(trace, *certs))
        it.failures = check_run(case, engine, doc)
        if len(decisions) != case.decisions:
            it.failures.append(f"{len(decisions)} decisions, expected {case.decisions}")
        return it

    @staticmethod
    def _drive_forks(engine: Engine, case: gen.Expected, clock: HostClock, parts: list):
        """Validate every sibling against one head, then commit them all."""
        for names in case.rounds:
            pending = []
            for name in names:
                start = perf_counter()
                p = engine.validate_action(name)
                pending.append((p, clock.record(perf_counter() - start)))
            for p, validated in pending:
                start = perf_counter()
                if p is not None:
                    engine.commit_action(p)
                parts.append([validated, clock.record(perf_counter() - start)])


def setup_engine(case: gen.Expected) -> Engine:
    scenario = plurality.parse_scenario(case.scenario, name=case.name)
    return Engine(scenario, consistency_checks=case.consistency_checks)


def check_run(case: gen.Expected, engine: Engine, doc: dict) -> list[str]:
    """Compare a finished run with the generator's known answer."""
    bad: list[str] = []
    stages = {r["name"]: r for r in doc["records"]}
    for name, want in case.outcomes.items():
        got = stages.get(name, {}).get("stage")
        if got != want:
            bad.append(f"{name}: {got}, expected {want}")
    kinds = [e["kind"] for e in doc["events"]]
    if kinds.count("append") != case.appends:
        bad.append(f"{kinds.count('append')} appends, expected {case.appends}")
    if kinds.count("reject") != case.rejections:
        bad.append(f"{kinds.count('reject')} rejections, expected {case.rejections}")

    certs = engine.certificates
    if len(certs) != len(case.certificates):
        bad.append(f"{len(certs)} certificates, expected {len(case.certificates)}")
    for cert, want in zip(certs, case.certificates):
        rec = stages.get(want.rejected, {})
        if rec.get("certificate") is None or certs[rec["certificate"]] is not cert:
            bad.append(f"certificate for {want.rejected} is not where the record points")
        bad += check_certificate_answer(cert, want)
        origins = tuple(c.origin for c in cert.conflict)
        blocks = tuple(stages.get(label, {}).get("block") for label in want.conflict_labels)
        if origins != blocks:
            bad.append(f"certificate for {want.rejected} cites blocks {origins}")

    opening_total = sum(case.opening.values())
    lengths = tuple(sorted(c["length"] for c in doc["chains"]))
    if lengths != case.leaf_lengths:
        bad.append(f"leaf chain lengths {lengths}, expected {case.leaf_lengths}")
    for chain in doc["chains"]:
        balances = chain["balances"]
        if sum(balances.values()) != opening_total:
            bad.append(f"chain {chain['head'][:12]} does not conserve the balance total")
        want = dict(case.opening)
        for name in chain["published"]:
            if name in case.transfers:
                src, amount, sink = case.transfers[name]
                want[src] -= amount
                want[sink] += amount
        if balances != want:
            bad.append(f"chain {chain['head'][:12]} balances differ from its transfers")
        if chain["selected"] and case.final_balances is not None:
            if balances != case.final_balances:
                bad.append("selected chain does not end with the expected balances")
    return bad


def check_certificate_answer(cert, want: gen.CertAnswer) -> list[str]:
    got = (
        claim_text(cert.candidate),
        tuple(claim_text(c) for c in cert.conflict),
        tuple(cert.authorities),
    )
    if got != (want.candidate, want.conflict, want.authorities):
        return [f"certificate for {want.rejected} is {got}"]
    return []


# ---------------------------------------------------------------------------
# audit: verdicts over genuine and tampered certificates

class AuditWorkload:
    name = "audit"

    def generate(self, seed: int) -> gen.AuditSet:
        """Run each source scenario once and derive the certificate set.

        Every item gets a conflict, so the certificates (and their cost)
        are the same for every seed; a padded copy adds the stored claim
        that the next certificate cites.  The sources differ in timeline
        order only, which makes 54 verdicts, enough for a decision tail.
        """
        items, values, sources = AUDIT
        out = gen.AuditSet()
        for j in range(sources):
            case = gen.claims(items, values, items, seed * sources + j)
            out.sources.append(case)
            out.verdicts += self._verdicts(case, j)
        return out

    @staticmethod
    def _verdicts(case: gen.Expected, source: int) -> list[gen.Verdict]:
        engine = setup_engine(case)
        doc = engine.run()
        bad = check_run(case, engine, doc)
        if bad:
            raise RuntimeError(f"source run for the audit is wrong: {bad[0]}")
        blocks = {r["name"]: r.get("block") for r in doc["records"]}
        answers = case.certificates
        out = []
        for n, (cert, answer) in enumerate(zip(engine.certificates, answers)):
            text = plurality.certificate_to_text(cert)
            cert_doc = json.loads(text)
            neighbour = answers[(n + 1) % len(answers)]
            extra = {
                "authority": gen.ORACLE,
                "body": neighbour.conflict[0].split(": ", 1)[1],
                "origin": blocks[neighbour.conflict_labels[0]],
            }
            label = f"{source}:{answer.rejected}"
            flipped = _canonical(gen.flip_candidate_literal(cert_doc))
            padded = _canonical(gen.add_conflict_member(cert_doc, extra))
            out += [
                gen.Verdict(label, source, text, None, answer),
                gen.Verdict(f"{label}-flipped", source, flipped, "ReplayFailed"),
                gen.Verdict(f"{label}-padded", source, padded, "NotMinimal"),
            ]
        return out

    def setup(self, case: gen.AuditSet):
        return [plurality.parse_scenario(c.scenario, name=c.name) for c in case.sources]

    def run(self, scenarios, case: gen.AuditSet, clock: HostClock) -> Iteration:
        parsers = [lambda text, sc=sc: plurality.parse_formula(text, sc) for sc in scenarios]
        parts: list[int] = []
        outcomes: list[tuple] = []
        clock.start()
        for v in case.verdicts:
            start = perf_counter()
            defs = scenarios[v.source].contract.defs
            try:
                cert = plurality.certificate_from_text(v.text, parsers[v.source])
                plurality.check_certificate(cert, defs.constraints, defs)
                outcomes.append((v, None, cert))
            except CertificateError as exc:
                outcomes.append((v, type(exc).__name__, None))
            parts.append(clock.record(perf_counter() - start))
        run_s = clock.stop()
        raw_s = clock.raw_s
        decisions = [clock.samples[i] * 1e3 for i in parts]
        failures = []
        for v, error, cert in outcomes:
            if error != v.error:
                failures.append(f"{v.label}: verdict {error}, expected {v.error}")
            elif v.answer is not None:
                failures += check_certificate_answer(cert, v.answer)
        verdicts = json.dumps([(v.label, e) for v, e, _ in outcomes])
        return Iteration(run_s, raw_s, decisions, _digest(verdicts), failures)


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("history", lambda seed: gen.history(HISTORY_N, seed)),
        EngineWorkload("discord", lambda seed: gen.claims(*DISCORD, seed)),
        EngineWorkload("forks", lambda seed: gen.forks(*FORKS, seed)),
        AuditWorkload(),
    )
}
