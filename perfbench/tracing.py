"""Spans and counters around the public functions of each plurality layer.

The wrappers live here, not in ``src/``: ``Tracer.install`` replaces each
target function in every ``plurality`` module namespace that holds it
(``refute`` is reached both as ``plurality.validator.refute`` and, from
inside ``minimize_conflict``, as ``plurality.logic.refute``), and
``Tracer.remove`` puts the originals back.  A span is recorded as
``[name, start, end, parent]``; a layer's self time is its spans'
durations minus the part their child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import plurality.blocktree
import plurality.certificates
import plurality.logic
import plurality.runtime
import plurality.syntax
import plurality.validator

LAYERS = ("syntax", "blocktree", "validator", "logic", "certificates", "runtime")


def _chain_to(counts, args, result):
    counts["blocktree.chain_to_blocks"] += len(result)


def _compute_state(counts, args, result):
    tree, head = args[0], args[1]
    counts["validator.blocks_folded"] += tree.block(head).height + 1


def _validate(counts, args, result):
    counts["validator.accepted"] += bool(result.ok)


def _refute(counts, args, result):
    counts["logic.refute_store_claims"] += len(args[0])
    if result is not None:
        counts["logic.proof_steps"] += len(result.steps)


def _trace_text(counts, args, result):
    counts["runtime.trace_bytes"] += len(result.encode("utf-8"))


def _lost_race(counts, exc):
    if isinstance(exc, plurality.blocktree.FrugalLimitReached):
        counts["blocktree.lost_races"] += 1


# (owner, attribute, span name, hook on return, hook on exception).
# A span's layer is the part of its name before the first dot.
SPANS = (
    (plurality.syntax, "parse_scenario", "syntax.parse_scenario", None, None),
    (plurality.syntax, "parse_formula", "syntax.parse_formula", None, None),
    (plurality.blocktree.BlockTree, "select", "blocktree.select", None, None),
    (plurality.blocktree.BlockTree, "leaves", "blocktree.leaves", None, None),
    (plurality.blocktree.BlockTree, "chain_to", "blocktree.chain_to", _chain_to, None),
    (plurality.blocktree.BlockTree, "get_token", "blocktree.get_token", None, None),
    (plurality.blocktree.BlockTree, "commit", "blocktree.commit", None, _lost_race),
    (plurality.validator, "compute_state", "validator.compute_state", _compute_state, None),
    (plurality.validator.Validator, "validate", "validator.validate", _validate, None),
    (plurality.validator, "proof_of_discord", "validator.proof_of_discord", None, None),
    (plurality.validator, "chain_claims_consistent", "validator.chain_claims_consistent", None, None),
    (plurality.logic, "evaluate", "logic.evaluate", None, None),
    (plurality.logic, "refute", "logic.refute", _refute, None),
    (plurality.logic, "ground_expand", "logic.ground_expand", None, None),
    (plurality.logic, "minimize_conflict", "logic.minimize_conflict", None, None),
    (plurality.logic, "store_consistent", "logic.store_consistent", None, None),
    (plurality.logic, "brute_force_satisfiable", "logic.brute_force_satisfiable", None, None),
    (plurality.runtime.Engine, "run", "runtime.run", None, None),
    (plurality.runtime.Engine, "attempt", "runtime.attempt", None, None),
    (plurality.runtime.Engine, "validate_action", "runtime.validate_action", None, None),
    (plurality.runtime.Engine, "commit_action", "runtime.commit_action", None, None),
    (plurality.runtime.Engine, "trace", "runtime.trace", None, None),
    (plurality.runtime, "trace_text", "runtime.trace_text", _trace_text, None),
    (plurality.certificates, "certificate_to_text", "certificates.certificate_to_text", None, None),
    (plurality.certificates, "certificate_from_text", "certificates.certificate_from_text", None, None),
    (plurality.certificates, "check_certificate", "certificates.check_certificate", None, None),
    (plurality.certificates, "replay_refutation", "certificates.replay_refutation", None, None),
    (plurality.certificates, "check_minimality", "certificates.check_minimality", None, None),
)

# Counted without a span; the call's time stays in the caller's self time.
# Patched on the owner module alone (no scan of other namespaces), so only
# the calls ``certificates`` makes are counted: the recursion inside
# ``logic`` and the calls from ``logic.brute_force_satisfiable`` are not.
COUNTERS = ((plurality.certificates, "eval_residual", "certificates.assignments"),)


class Tracer:
    """Records spans and counts while installed; keeps them in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, on_return, on_error):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, make, everywhere=True):
        original = owner.__dict__[attr]
        wrapper = make(original)
        if isinstance(owner, type) or not everywhere:
            holders = [owner]
        else:
            # every plurality namespace that imported the function by name
            holders = [
                m
                for n, m in sorted(sys.modules.items())
                if (n == "plurality" or n.startswith("plurality."))
                and m.__dict__.get(attr) is original
            ]
            if owner not in holders:
                holders.append(owner)
        for h in holders:
            self._patches.append((h, attr, h.__dict__[attr]))
            setattr(h, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, name, on_return, on_error in SPANS:
                self._patch(
                    owner, attr, lambda fn, n=name, r=on_return, e=on_error: self._span(n, fn, r, e)
                )
            for owner, attr, name in COUNTERS:
                self._patch(owner, attr, lambda fn, n=name: self._counter(n, fn), everywhere=False)
        except BaseException:
            self.remove()
            raise

    def remove(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset with open spans")
        self.spans.clear()
        self.counts.clear()

    # -- aggregation ----------------------------------------------------------

    def summary(self, wall: float) -> dict:
        """Inclusive time and calls per span name, self time per layer.

        ``wall`` is the measured interval the spans fall in; the part of
        it no root span covers is reported as unattributed.
        """
        inclusive: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_time: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        by_parent: dict[tuple[str, str], float] = defaultdict(float)
        by_parent_calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        rooted = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
                pname = self.spans[parent][0]
            else:
                rooted += dur
                pname = "-"
            inclusive[name] += dur
            calls[name] += 1
            by_parent[name, pname] += dur
            by_parent_calls[name, pname] += 1
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return {
            "inclusive": dict(inclusive),
            "calls": dict(calls),
            "self": self_time,
            "unattributed": wall - rooted,
            "by_parent": dict(by_parent),
            "by_parent_calls": dict(by_parent_calls),
            "counts": dict(self.counts),
        }
