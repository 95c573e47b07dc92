"""Enriched block validation: append conditions, guards and discord.

This module gives block payloads their meaning.  A chain is folded
into a :class:`ChainState` (balances, published bindings, the chain's
claim store).  A new payload is then admitted only if

1. the structural append conditions hold (fresh binding, dependencies
   already published, the source can cover the amount),
2. its guard is satisfied — a closed guard must evaluate to true
   against the chain state at the current tick, while a claimed guard
   is admitted on the say-so of its authority, and
3. none of the claims the payload adds is refuted by the chain's claim
   store together with the contract's integrity constraints.

Rule 3 is checked open-world: a claim is *valid unless the store
proves its negation*.  When that proof exists the validator returns a
minimized discord certificate naming exactly the accountable
authorities, instead of a bare rejection.

Each branch of the block tree carries its own claim store, so discord
is always relative to the chain a payload tries to extend.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

from .logic import (
    AgentRef,
    Atom,
    Claim,
    DiscordCertificate,
    IntLit,
    LogicError,
    Model,
    Value,
    _formula_clauses,
    claim_text,
    evaluate,
    formula_text,
    minimize_conflict,
    refute,  # not called here; perfbench/test_smoke.py reads plurality.validator.refute
    store_consistent,
)
from .syntax import (
    Action,
    ClaimedGuard,
    ClosedGuard,
    Contract,
    Scenario,
    action_text,
)


class ValidatorError(Exception):
    pass


# ---------------------------------------------------------------------------
# Block payloads


@dataclass(frozen=True)
class GenesisPayload:
    """Root block: the opening balance sheet."""

    balances: tuple[tuple[str, int], ...]

    @classmethod
    def for_contract(cls, contract: Contract) -> "GenesisPayload":
        return cls(tuple(sorted((a.id, a.balance) for a in contract.wallets())))

    def canonical(self) -> str:
        if not self.balances:
            return "genesis"
        return "genesis " + ",".join(f"{a}={b}" for a, b in self.balances)

    def describe(self) -> str:
        return "genesis"


@dataclass(frozen=True)
class TransactionPayload:
    """A guarded transfer appended under its action binding."""

    action: Action

    def canonical(self) -> str:
        return action_text(self.action)

    def describe(self) -> str:
        tx = self.action.transaction
        return f"tx {self.action.binding}: {tx.source} -({tx.amount})-> {tx.sink}"

    @cached_property
    def update(self) -> Atom:
        """The balance update this transfer causes, built once per payload.

        The candidate validated before the append and the claim every
        later fold of the chain stores share this one formula.
        """
        tx = self.action.transaction
        return Atom("updates", (AgentRef(tx.source), IntLit(tx.amount), AgentRef(tx.sink)))

    def claims(self, origin: str) -> tuple[Claim, ...]:
        """The claims this payload adds to the chain's store.

        The source implicitly endorses the balance update it causes;
        a claimed guard additionally stores its authority's claim.
        """
        tx = self.action.transaction
        out = [Claim(tx.source, self.update, origin=origin)]
        if isinstance(tx.guard, ClaimedGuard):
            out.append(replace(tx.guard.claim, origin=origin))
        return tuple(out)


@dataclass(frozen=True)
class ClaimPayload:
    """A free-standing authority claim posted to the chain."""

    label: str
    claim: Claim

    def canonical(self) -> str:
        return f"post {self.label} = {claim_text(self.claim)}"

    def describe(self) -> str:
        return f"claim {self.label} by {self.claim.authority}"


# ---------------------------------------------------------------------------
# Chain state


@dataclass(frozen=True)
class ChainState:
    """Everything a chain asserts, folded from genesis to one block.

    ``asserted`` holds the closed-world bookkeeping atoms (``updates``,
    ``published`` and scenario facts) that closed guards may test;
    claim bodies never enter it.  ``clock`` is the tick at which the
    head block was appended.  A state is immutable, so a closed guard
    reads it without a copy.
    """

    balances: Mapping[str, int] = field(default_factory=dict)
    published: tuple[str, ...] = ()
    claims: tuple[Claim, ...] = ()
    clock: int = 0
    asserted: frozenset[tuple[str, tuple[Value, ...]]] = frozenset()

    @cached_property
    def published_names(self) -> frozenset[str]:
        """``published`` as a set, for membership tests."""
        return frozenset(self.published)


def fold_block(block, balances: dict, published: list, claims: list, asserted: set) -> None:
    """Add one block's effects to the running fold of the chain it ends.

    ``compute_state`` folds one chain with it, block by block from
    genesis; ``Engine.trace`` folds the whole tree in one walk.  Each
    claim a block adds carries the block's id as its origin.
    """
    p = block.payload
    if isinstance(p, GenesisPayload):
        balances.update(dict(p.balances))
    elif isinstance(p, TransactionPayload):
        tx = p.action.transaction
        balances[tx.source] = balances.get(tx.source, 0) - tx.amount
        balances[tx.sink] = balances.get(tx.sink, 0) + tx.amount
        published.append(p.action.binding)
        asserted.add(("updates", (tx.source, tx.amount, tx.sink)))
        asserted.add(("published", (p.action.binding,)))
        claims.extend(p.claims(block.id))
    elif isinstance(p, ClaimPayload):
        published.append(p.label)
        asserted.add(("published", (p.label,)))
        claims.append(replace(p.claim, origin=block.id))
    else:
        raise ValidatorError(f"unrecognized payload kind {type(p).__name__}")


def compute_state(tree, head_id: str, facts=()) -> ChainState:
    """Fold the chain ending at ``head_id`` into a ChainState."""
    balances: dict[str, int] = {}
    published: list[str] = []
    claims: list[Claim] = []
    asserted: set[tuple[str, tuple[Value, ...]]] = {
        (name, tuple(args)) for name, args in facts
    }
    for bid in tree.chain_to(head_id):
        fold_block(tree.block(bid), balances, published, claims, asserted)
    return ChainState(
        balances=MappingProxyType(balances),
        published=tuple(published),
        claims=tuple(claims),
        clock=tree.append_tick(head_id),
        asserted=frozenset(asserted),
    )


# ---------------------------------------------------------------------------
# Append conditions


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one payload against one chain.

    ``reason`` is None on success, else one of "AppendConditions",
    "GuardFalse", "Discord" or "ResourceLimit" (the discord check could
    not be decided within its limits, or raised another logic error); a
    discord result carries the minimized certificate.
    """

    ok: bool
    reason: str | None = None
    detail: str | None = None
    certificate: DiscordCertificate | None = None


def _unmet(code: str, detail: str) -> ValidationResult:
    return ValidationResult(False, "AppendConditions", f"{code}: {detail}")


def check_append(action: Action, state: ChainState) -> ValidationResult:
    """Structural admissibility of an action against a chain state.

    A rejection's detail starts with the failed condition's code.  The
    amount test guards code-built Actions; a negative amount passes the
    balance test.
    """
    tx = action.transaction
    if action.binding in state.published_names:
        return _unmet("DuplicateBinding", f"binding {action.binding!r} is already published")
    for dep in action.deps:
        if dep not in state.published_names:
            return _unmet("UnmetDependency", f"dependency {dep!r} is not yet published")
    held = state.balances.get(tx.source, 0)
    if held < tx.amount:
        return _unmet("InsufficientBalance", f"{tx.source} holds {held}, needs {tx.amount}")
    if tx.amount <= 0:
        return _unmet("NonPositiveAmount", f"amount {tx.amount} is not positive")
    return ValidationResult(True)


# ---------------------------------------------------------------------------
# Discord


def proof_of_discord(claims, constraints, candidate: Claim, defs) -> DiscordCertificate | None:
    """Admit ``candidate`` unless the store refutes it.

    Returns None when the claim is admissible, else a minimized discord
    certificate: the store plus constraints prove its negation.
    """
    return minimize_conflict(claims, constraints, candidate, defs)


def chain_claims_consistent(tree, scenario: Scenario, verified: set[str] | None = None) -> bool:
    """True iff every branch's claim store is free of internal discord.

    ``verified`` holds ids of blocks whose chains are already known to
    be consistent under ``scenario``: leaves in it are skipped, and each
    leaf that passes is added.  A block id hashes its parent id and its
    payload, so a block's chain, its claim store and the verdict never
    change; a caller that keeps the set across appends (as ``Engine``
    does) checks each new block's store once, when it is appended.  The
    verdict also depends on the scenario's constraints, which the id
    does not cover, so a set must not be shared between scenarios.

    A leaf is checked by what its chain added since its nearest
    verified block, or since genesis when no block on it is verified:
    ``store_consistent`` gets those new claims, the stored claims
    connected to them through shared ground atoms (directly or through
    constraint clauses), and the constraints, whole.  This is exact.
    Split the store and the constraint clauses into components that
    share no atom: a component without a new claim is part of the
    verified block's store plus the constraints, which is known to be
    consistent, so the store is consistent iff the new claims'
    component is.  With no verified block every claim is new, and the
    check takes the whole store.  No check folds a chain: each block's
    claims and their atom keys are kept per block id on the definitions.
    """
    d = scenario.contract.defs
    if verified is None:
        verified = set()
    for leaf in tree.leaves():
        if leaf in verified:
            continue
        claims = _component_of_new_claims(tree, leaf, d, verified)
        if not store_consistent(claims, d.constraints, d):
            return False
        verified.add(leaf)
    return True


def _block_claims(block, defs) -> tuple[tuple[Claim, list[str]], ...]:
    """The claims ``block`` adds, each with its ground atom keys."""
    got = defs._block_claims.get(block.id)
    if got is None:
        claims: list[Claim] = []
        fold_block(block, {}, [], claims, set())
        got = tuple((c, _formula_clauses(c.body, defs)[0]) for c in claims)
        defs._block_claims[block.id] = got
    return got


def _component_of_new_claims(tree, leaf: str, defs, verified) -> list[Claim]:
    """The new claims on ``leaf``'s chain and the stored claims connected to them.

    A claim is new when its block comes after the nearest block of the
    chain in ``verified``; with none there, every claim is new.  A
    stored claim is connected when it shares a ground atom with a new
    claim, directly or through a chain of claims and constraint clauses.
    The claims keep their store order.
    """
    chain = tree.chain_to(leaf)
    start = next((i for i in range(len(chain), 0, -1) if chain[i - 1] in verified), 0)
    old = [r for bid in chain[:start] for r in _block_claims(tree.block(bid), defs)]
    records = old + [r for bid in chain[start:] for r in _block_claims(tree.block(bid), defs)]
    groups = [atoms for _, atoms in records] + defs.constraint_clause_atoms
    owners: dict[str, list[int]] = {}
    for i, atoms in enumerate(groups):
        for a in atoms:
            owners.setdefault(a, []).append(i)
    taken = set(range(len(old), len(records)))
    todo = [a for i in taken for a in groups[i]]
    reached = set(todo)
    while todo:
        for i in owners[todo.pop()]:
            if i not in taken:
                taken.add(i)
                fresh = [a for a in groups[i] if a not in reached]
                reached.update(fresh)
                todo += fresh
    return [c for i, (c, _) in enumerate(records) if i in taken]


# ---------------------------------------------------------------------------
# The validator


class Validator:
    """Applies the enriched append rule to payloads on one block tree.

    ``validate`` folds the target's chain with ``state_of`` and returns
    the verdict; a caller asks the tree for an append token only once it
    has passed.  ``state_of`` keeps the last id it folded (an id fixes
    its chain, and a ChainState is frozen), so the head ``Engine`` reads
    to schedule and the validations on it share a fold.
    """

    def __init__(self, scenario: Scenario, tree):
        self.scenario = scenario
        self.tree = tree
        self._last: tuple[str, ChainState] | None = None  # target id, its state

    def state_of(self, bid: str) -> ChainState:
        """The state of the chain ending at ``bid``; a repeated id is not refolded."""
        if self._last is None or self._last[0] != bid:
            self._last = bid, compute_state(self.tree, bid, self.scenario.facts)
        return self._last[1]

    def validate(self, payload, head_id: str, tick: int) -> ValidationResult:
        """Validate ``payload`` for appending on ``head_id``; guards read ``tick``."""
        state = self.state_of(head_id)
        if isinstance(payload, TransactionPayload):
            return self._transaction(payload, state, tick)
        if isinstance(payload, ClaimPayload):
            return self._admit_claims((payload.claim,), state)
        return ValidationResult(
            False, "AppendConditions", f"unrecognized payload kind {type(payload).__name__}"
        )

    # -- payload kinds ----------------------------------------------------

    def _transaction(
        self, payload: TransactionPayload, state: ChainState, tick: int
    ) -> ValidationResult:
        action = payload.action
        defs = self.scenario.contract.defs
        structural = check_append(action, state)
        if not structural.ok:
            return structural
        tx = action.transaction
        if isinstance(tx.guard, ClosedGuard):
            model = Model(balances=state.balances, asserted=state.asserted, clock=tick)
            try:
                holds = evaluate(tx.guard.formula, model, defs)
            except LogicError as e:
                return ValidationResult(
                    False, "GuardFalse", f"guard cannot be evaluated: {e}"
                )
            if not holds:
                return ValidationResult(
                    False, "GuardFalse", formula_text(tx.guard.formula)
                )
        return self._admit_claims(payload.claims("submitted"), state)

    def _admit_claims(self, candidates, state: ChainState) -> ValidationResult:
        """Every claim a payload adds must survive proof-of-discord."""
        defs = self.scenario.contract.defs
        store = list(state.claims)
        for cand in candidates:
            try:
                cert = proof_of_discord(store, defs.constraints, cand, defs)
            except LogicError as e:
                return ValidationResult(False, "ResourceLimit", str(e))
            if cert is not None:
                accountable = ", ".join(cert.authorities)
                return ValidationResult(
                    False,
                    "Discord",
                    f"{claim_text(cand)} is refuted; accountable: {accountable}",
                    certificate=cert,
                )
            store.append(cand)
        return ValidationResult(True)
