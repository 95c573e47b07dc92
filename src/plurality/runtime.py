"""Deterministic scenario execution: clock, mempool and trace.

The engine advances a simulated clock from tick 0 to the scenario
horizon.  At each tick it first processes the scripted timeline
(authority claims posted to the chain, explicit submissions), then
fires every eligible action to a fixpoint: an action is eligible when
it has been submitted (actions without a scripted submission are
auto-submitted at tick 0), is not yet published, and its dependencies
are published on the selected chain.  When several actions are
eligible at once their order is drawn from the seeded generator, which
is the only source of scheduling nondeterminism — the same seed always
yields a byte-identical trace.

Each action is indexed under its dependencies, and a name newly on the
selected chain wakes its waiters (Kahn 1962); no pass walks the contract.

Appending is split-phase, mirroring the block tree: ``validate_action``
validates against the current head and, on a pass only, obtains an
append token there; ``commit_action`` spends it.  Tests drive these
steps directly to interleave competing appends; ``attempt`` is the retry
loop the scheduler uses, which re-validates whenever a commit loses the
head race.

Failed validations never halt the run.  They are recorded as rejection
events carrying the validator's reason, and a discord rejection
additionally captures the minimized certificate.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field

from .blocktree import BlockTree, FrugalLimitReached, RetryExhausted
from .certificates import claim_to_doc, json_text
from .logic import DiscordCertificate, claim_text
from .syntax import ClaimEvent, Scenario, SubmitEvent
from .validator import (
    ClaimPayload,
    GenesisPayload,
    TransactionPayload,
    Validator,
    chain_claims_consistent,
    compute_state,  # not called here; perfbench/test_smoke.py reads runtime.compute_state
    fold_block,
)

TRACE_FORMAT = "plurality-trace/1"

# Record stages
PENDING = "pending"
SUBMITTED = "submitted"
PUBLISHED = "published"
REJECTED = "rejected"

# Rejection reason used when a scripted submission names the wrong agent.
WRONG_SUBMITTER = "WrongSubmitter"


class EngineError(Exception):
    pass


class ConsistencyError(EngineError):
    """A chain's claim store became refutable — the admission rule leaked."""


class UnknownName(EngineError):
    """No action binding or claim label under that name."""


@dataclass
class Record:
    """Lifecycle of one named chain entry (action binding or claim label)."""

    name: str
    kind: str  # "action" | "claim"
    stage: str = PENDING
    history: list[str] = field(default_factory=list)
    block: str | None = None
    certificate: int | None = None


@dataclass(frozen=True)
class Event:
    seq: int
    tick: int
    kind: str  # "tick" | "submit" | "append" | "reject" | "discord"
    data: dict


@dataclass
class PendingAppend:
    """A validated-but-uncommitted append: the split-phase handle."""

    name: str
    payload: object
    token: object
    head: str
    tick: int


class Engine:
    """Runs one scenario against one block tree.

    With ``consistency_checks`` every commit checks that no branch's
    claim store has become refutable, and raises ConsistencyError if one
    has.  Each new block is checked once, when it is appended (verdicts
    are kept per block id), by what its chain adds to its nearest
    checked block's store; a leaf attached to the tree by other means is
    checked at the next commit (see ``chain_claims_consistent``).  Such a
    block bypasses ``records``: the scheduler retries its action, and
    records one DuplicateBinding rejection per retry.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        oracle=None,
        seed: int | None = None,
        consistency_checks: bool = False,
    ):
        self.scenario = scenario
        self.contract = scenario.contract
        self.oracle = oracle if oracle is not None else scenario.oracle
        self.seed = scenario.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.consistency_checks = consistency_checks
        self._consistent: set[str] = set()
        self.tree = BlockTree(GenesisPayload.for_contract(self.contract), self.oracle)
        self.validator = Validator(scenario, self.tree)
        self.clock = 0
        self.events: list[Event] = []
        self.certificates: list[DiscordCertificate] = []
        self.records: dict[str, Record] = {}
        self._armed: set[str] = set()
        self._scripted = scenario.scripted()
        self._claim_events: dict[str, ClaimEvent] = {}
        self._publish_serial = 0
        self._index = {a.binding: i for i, a in enumerate(self.contract.actions)}  # -> position
        self._waiters: dict[str | None, set[int]] = defaultdict(set)  # dep (None: none) -> positions
        for i, a in enumerate(self.contract.actions):
            for d in a.deps or (None,):
                self._waiters[d].add(i)
            rec = Record(a.binding, "action")
            if a.binding not in self._scripted:
                rec.stage = SUBMITTED
                rec.history.append("t=0 auto-submitted")
            self.records[a.binding] = rec
        for e in scenario.events:
            if isinstance(e, ClaimEvent):
                self._claim_events[e.label] = e
                self.records[e.label] = Record(e.label, "claim")

    # -- bookkeeping ------------------------------------------------------

    def _emit(self, kind: str, **data):
        self.events.append(Event(len(self.events), self.clock, kind, data))

    def _payload(self, name: str):
        i = self._index.get(name)
        if i is not None:
            return TransactionPayload(self.contract.actions[i])
        ev = self._claim_events.get(name)
        if ev is not None:
            return ClaimPayload(name, ev.claim)
        raise UnknownName(f"no action or claim named {name!r}")

    def _reject(self, name: str, reason: str, detail: str | None, certificate=None):
        rec = self.records[name]
        if rec.stage != PUBLISHED:
            rec.stage = REJECTED
        rec.history.append(f"t={self.clock} rejected: {reason}")
        self._emit("reject", name=name, reason=reason, detail=detail)
        if certificate is not None:
            idx = len(self.certificates)
            self.certificates.append(certificate)
            rec.certificate = idx
            self._emit(
                "discord",
                name=name,
                certificate=idx,
                candidate=claim_text(certificate.candidate),
                conflict=[claim_text(c) for c in certificate.conflict],
                origins=[c.origin for c in certificate.conflict],
                authorities=list(certificate.authorities),
            )

    # -- split-phase appends ----------------------------------------------

    def validate_action(self, name: str) -> PendingAppend | None:
        """Validate on the current head at the current tick; None means rejected (and logged)."""
        payload = self._payload(name)
        head = self.tree.select()
        r = self.validator.validate(payload, head, self.clock)
        if not r.ok:
            self._reject(name, r.reason, r.detail, r.certificate)
            return None
        return PendingAppend(name, payload, self.tree.get_token(head, payload), head, self.clock)

    def commit_action(self, pending: PendingAppend):
        """Spend the token and attach the block.

        Returns the new block, or None when the commit could not go
        through: either the head moved and the token's target is
        saturated (caller should re-validate), or the token was already
        spent.  A spent token on an unpublished action is recorded as a
        rejection; replaying the commit of an already published action
        is a harmless no-op.
        """
        rec = self.records[pending.name]
        if pending.token.consumed:
            if rec.stage != PUBLISHED:
                self._reject(pending.name, "TokenSpent", "append token was already consumed")
            return None
        try:
            block = self.tree.commit(pending.token, pending.payload, tick=pending.tick)
        except FrugalLimitReached:
            rec.history.append(f"t={self.clock} lost the head race")
            return None
        rec.stage = PUBLISHED
        rec.block = block.id
        rec.history.append(f"t={pending.tick} published as block {block.id[:12]}")
        self._publish_serial += 1
        self._emit("append", name=pending.name, block=block.id, height=block.height)
        if self.consistency_checks and not chain_claims_consistent(
            self.tree, self.scenario, self._consistent
        ):
            raise ConsistencyError(
                f"claim store became refutable after appending {pending.name!r}"
            )
        return block

    def attempt(self, name: str) -> bool:
        """Validate and commit, re-validating (up to 16 times) when the head race is lost."""
        for _ in range(16):
            pending = self.validate_action(name)
            if pending is None:
                return False
            if self.commit_action(pending) is not None:
                return True
            if self.records[name].stage == REJECTED:
                return False
        raise RetryExhausted(f"{name!r} kept losing the head race")

    # -- the clock loop ---------------------------------------------------

    def run(self) -> dict:
        """Drive the scenario to its horizon and return the trace doc."""
        by_tick: dict[int, list] = defaultdict(list)
        for e in self.scenario.events:
            by_tick[e.tick].append(e)
        for tick in range(self.scenario.horizon + 1):
            self.clock = tick
            if tick > 0:
                self._emit("tick", clock=tick)
            for e in by_tick.get(tick, ()):
                if isinstance(e, ClaimEvent):
                    self._post_claim(e)
                else:
                    self._process_submit(e)
            self._fire_eligible()
        return self.trace()

    def _post_claim(self, e: ClaimEvent):
        self.attempt(e.label)

    def _process_submit(self, e: SubmitEvent):
        action = self.contract.actions[self._index[e.binding]]
        source = action.transaction.source
        actor = e.by if e.by is not None else source
        self._emit("submit", name=e.binding, by=actor)
        if actor != source:
            self._reject(
                e.binding, WRONG_SUBMITTER, f"{actor} cannot submit for source {source}"
            )
            return
        rec = self.records[e.binding]
        if rec.stage != PUBLISHED:
            rec.stage = SUBMITTED
            rec.history.append(f"t={self.clock} submitted by {actor}")
        self._armed.add(e.binding)

    def _fire_eligible(self):
        """Attempt every runnable action until nothing more publishes.

        Within one tick an action is retried only after some other
        append changed the chain underneath it; across ticks everything
        eligible is retried, since the clock itself is chain state.

        ``ready`` holds, in contract order, the actions not published,
        unscripted or armed, not tried since the last publish, and with
        every dependency on the selected chain.  The rule is tested only
        on this call's unpublished attempts and this pass's woken
        actions, yet the list is the one a walk of the contract makes:
        no record leaves PUBLISHED and within a call none is armed, so
        an untried action that passes now failed last pass on a
        dependency alone, and that name, new on the head, woke it.  On
        the first pass every name is new, and the actions without
        dependencies wake too.  An action seen published leaves
        ``_waiters``, so a later call's first pass does not wake it.
        """
        actions = self.contract.actions
        last_attempt: dict[int, int] = {}  # tried and unpublished -> serial at the try
        seen, woken = frozenset(), set(self._waiters.get(None, ()))  # names seen, actions woken
        while True:
            names = self.validator.state_of(self.tree.select()).published_names
            for name in names - seen:
                woken.update(self._waiters.get(name, ()))
            seen = names
            ready, candidates, woken = [], woken.union(last_attempt), set()
            for i in sorted(candidates):
                a = actions[i]
                if self.records[a.binding].stage == PUBLISHED:
                    last_attempt.pop(i, None)
                    for d in a.deps or (None,):
                        self._waiters[d].discard(i)
                    continue
                if a.binding in self._scripted and a.binding not in self._armed:
                    continue
                if last_attempt.get(i, -1) >= self._publish_serial:
                    continue
                if any(d not in names for d in a.deps):
                    continue
                ready.append(i)
            if not ready:
                return
            self.rng.shuffle(ready)
            for i in ready:
                name = actions[i].binding
                last_attempt[i] = self._publish_serial
                done = self.attempt(name)
                if done or self.records[name].stage == REJECTED:
                    self._armed.discard(name)

    # -- trace export ------------------------------------------------------

    def trace(self) -> dict:
        tree = self.tree
        head = tree.select()
        chains: dict[str, dict] = {}
        asserted: set = set()  # no chain document shows it, so all branches share one
        # Blocks still to fold, each with its parent chain's balances,
        # published names and claim documents.  A block's first child
        # takes that fold over and the others get copies, so each claim
        # is rendered once, when its block is folded.
        todo = [(tree.genesis.id, {}, [], [])]
        while todo:
            bid, balances, published, docs = todo.pop()
            block = tree.block(bid)
            added: list = []
            fold_block(block, balances, published, added, asserted)
            docs += [claim_to_doc(c) for c in added]
            kids = tree.children(bid)
            if not kids:
                chains[bid] = {
                    "head": bid,
                    "length": block.height + 1,
                    "selected": bid == head,
                    "balances": balances,
                    "clock": tree.append_tick(bid),
                    "published": published,
                    "claims": docs,
                }
                continue
            for kid in kids[1:]:
                todo.append((kid, dict(balances), list(published), list(docs)))
            todo.append((kids[0], balances, published, docs))
        records = []
        for r in sorted(self.records.values(), key=lambda r: r.name):
            doc: dict = {
                "name": r.name,
                "kind": r.kind,
                "stage": r.stage,
                "history": list(r.history),
            }
            if r.block is not None:
                doc["block"] = r.block
            if r.certificate is not None:
                doc["certificate"] = r.certificate
            records.append(doc)
        return {
            "format": TRACE_FORMAT,
            "scenario": self.scenario.name,
            "seed": self.seed,
            "oracle": str(self.oracle),
            "horizon": self.scenario.horizon,
            "events": [
                {"seq": e.seq, "tick": e.tick, "kind": e.kind, **e.data}
                for e in self.events
            ],
            "records": records,
            "certificates": len(self.certificates),
            "chains": [chains[leaf] for leaf in tree.leaves()],
            "tree": tree.snapshot().splitlines(),
        }


def trace_text(doc: dict) -> str:
    """Canonical byte-stable rendering of a trace document."""
    return json_text(doc)


def trace_human(doc: dict) -> str:
    """Compact human-oriented rendering of a trace document."""
    out = [
        f"scenario {doc['scenario']}  seed {doc['seed']}  "
        f"oracle {doc['oracle']}  horizon {doc['horizon']}"
    ]
    for e in doc["events"]:
        tick = f"[t{e['tick']}]"
        kind = e["kind"]
        if kind == "tick":
            continue
        if kind == "submit":
            out.append(f"{tick} submit {e['name']} by {e['by']}")
        elif kind == "append":
            out.append(f"{tick} append {e['name']} -> {e['block'][:12]} (height {e['height']})")
        elif kind == "reject":
            detail = f" ({e['detail']})" if e.get("detail") else ""
            out.append(f"{tick} reject {e['name']}: {e['reason']}{detail}")
        elif kind == "discord":
            out.append(
                f"{tick} discord #{e['certificate']} on {e['name']}: "
                f"accountable {', '.join(e['authorities'])}"
            )
    out.append("records:")
    for r in doc["records"]:
        suffix = f" block {r['block'][:12]}" if "block" in r else ""
        if "certificate" in r:
            suffix += f" certificate #{r['certificate']}"
        out.append(f"  {r['name']} ({r['kind']}): {r['stage']}{suffix}")
    for c in doc["chains"]:
        mark = "selected " if c["selected"] else "fork     "
        balances = " ".join(f"{k}={v}" for k, v in sorted(c["balances"].items()))
        out.append(
            f"{mark}head {c['head'][:12]} length {c['length']} clock {c['clock']}: {balances}"
        )
        if c["published"]:
            out.append(f"         published: {', '.join(c['published'])}")
    return "\n".join(out) + "\n"
