"""Seeded scenario generators whose known answers are computed here.

Each generator writes a ``.plu`` scenario text and, alongside it, the
outcome the engine must reach: which names publish and which are
rejected, each discord certificate's candidate, conflict member and
accountable authorities, and the balances every chain must end with.
None of it is obtained by running the engine.

The workload seed fixes the engine's scheduling seed and a permutation
of declaration order; sizes are chosen by the caller, so every seed of
one workload does the same amount of work.
"""

from __future__ import annotations

import copy
import hashlib
import random
from dataclasses import dataclass, field

ORACLE = "O"


@dataclass(frozen=True)
class CertAnswer:
    """The certificate one rejected claim must produce."""

    rejected: str  # label of the refuted claim
    candidate: str  # claim text, as ``claim_text`` renders it
    conflict: tuple[str, ...]  # claim texts of the minimal conflict
    conflict_labels: tuple[str, ...]  # labels whose blocks the conflict cites
    authorities: tuple[str, ...]


@dataclass
class Expected:
    """Known answer for one generated scenario."""

    scenario: str  # the .plu text
    name: str
    decisions: int  # decisions one iteration makes
    outcomes: dict[str, str]  # name -> "published" | "rejected"
    opening: dict[str, int]  # wallet -> opening balance
    transfers: dict[str, tuple[str, int, str]]  # binding -> (source, amount, sink)
    leaf_lengths: tuple[int, ...]  # sorted chain lengths (genesis included)
    final_balances: dict[str, int] | None = None  # selected chain, when known up front
    certificates: tuple[CertAnswer, ...] = ()
    rounds: tuple[tuple[str, ...], ...] = ()  # forks: sibling bindings per round
    consistency_checks: bool = False

    @property
    def appends(self) -> int:
        return sum(1 for s in self.outcomes.values() if s == "published")

    @property
    def rejections(self) -> int:
        return sum(1 for s in self.outcomes.values() if s == "rejected")


def _shuffled(items, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# history: one long chain of dependent transfers


def history(n: int, seed: int) -> Expected:
    """chain-N: F pays W0..W(n-1), each transfer after the previous one.

    Closed guards cycle through ``true``, a balance test, a
    ``published`` test on the predecessor and a hashlock, all of which
    hold, so every transfer publishes.  The stored ``updates`` claims
    name distinct sinks and share no atoms.
    """
    rng = random.Random(seed)
    amounts = [1 + rng.randrange(5) for _ in range(n)]
    funder = sum(amounts) + 1  # |F| >= 1 holds before every transfer
    wallets = [f"W{i}" for i in range(n)]
    lines = [f"seed {seed}", f"agent F balance {funder}"]
    lines += [f"agent {w}" for w in _shuffled(wallets, rng)]
    transfers = {}
    for i in range(n):
        kind = i % 4
        if kind == 0 or i == 0:
            guard = "true"
        elif kind == 1:
            guard = "|F| >= 1"
        elif kind == 2:
            guard = f"published(x{i - 1})"
        else:
            secret = f"s{seed}-{i}"
            digest = hashlib.sha256(secret.encode()).hexdigest()
            guard = f'hashlock("{digest}", "{secret}")'
        after = f"after [x{i - 1}] " if i else ""
        lines.append(f"{after}issue x{i} = tx F -({amounts[i]})[{guard}]-> W{i}")
        transfers[f"x{i}"] = ("F", amounts[i], f"W{i}")
    final = {"F": 1, **{f"W{i}": amounts[i] for i in range(n)}}
    return Expected(
        scenario="\n".join(lines) + "\n",
        name=f"chain-{n}",
        decisions=n,
        outcomes={x: "published" for x in transfers},
        opening={"F": funder, **{w: 0 for w in wallets}},
        transfers=transfers,
        leaf_lengths=(n + 1,),
        final_balances=final,
    )


# ---------------------------------------------------------------------------
# discord: a claim store under a uniqueness constraint, then conflicts


def claims(n: int, d: int, k: int, seed: int) -> Expected:
    """claims-NxD: n claims ``st(item, v0)`` at tick 0, k conflicts at tick 1.

    The constraint says an item has one value, so each conflicting claim
    ``st(item, vj)`` with j >= 1 is refuted by exactly one stored claim,
    the one about the same item.  The seed permutes the timeline, not the
    domain: domain order fixes the ground atom order, and with it the shape
    (and cost) of every certificate.
    """
    if not (d >= 2 and 1 <= k <= n):
        raise ValueError("claims needs d >= 2 and 1 <= k <= n")
    rng = random.Random(seed)
    items = [f"i{i}" for i in range(n)]
    lines = [
        f"seed {seed}",
        f"oracle {ORACLE}",
        f"domain Items = {{ {', '.join(items)} }}",
        f"domain Vals = {{ {', '.join(f'v{j}' for j in range(d))} }}",
        "atom st(item, val)",
        "constraint forall c in Items . forall u in Vals . forall w in Vals .",
        "  (st(c, u) & st(c, w)) -> u = w",
    ]
    outcomes = {}
    for i in _shuffled(range(n), rng):
        lines.append(f"at 0 claim s{i} = {ORACLE}: st(i{i}, v0)")
        outcomes[f"s{i}"] = "published"
    certs = []
    for j, i in enumerate(rng.sample(range(n), k)):
        val = 1 + rng.randrange(d - 1)
        lines.append(f"at 1 claim d{j} = {ORACLE}: st(i{i}, v{val})")
        outcomes[f"d{j}"] = "rejected"
        certs.append(
            CertAnswer(
                rejected=f"d{j}",
                candidate=f"claim {ORACLE}: st(i{i}, v{val})",
                conflict=(f"claim {ORACLE}: st(i{i}, v0)",),
                conflict_labels=(f"s{i}",),
                authorities=(ORACLE,),
            )
        )
    return Expected(
        scenario="\n".join(lines) + "\n",
        name=f"claims-{n}x{d}",
        decisions=n + k,
        outcomes=outcomes,
        opening={},
        transfers={},
        leaf_lengths=(n + 1,),
        final_balances={},
        certificates=tuple(certs),
    )


# ---------------------------------------------------------------------------
# forks: siblings validated against one head, then all committed


def forks(rounds: int, siblings: int, seed: int) -> Expected:
    """R rounds of K sibling transfers under a prodigal oracle.

    Every round validates K transfers against the selected head and then
    commits all of them, so each round leaves K - 1 dead leaves behind and
    the tree ends with R * (K - 1) + 1 leaves.  Guards alternate by round
    between a claim by the oracle and a closed balance test; no constraint
    exists, so every store stays consistent and nothing is rejected.
    """
    rng = random.Random(seed)
    funder = rounds + 1
    sinks = [f"W{s}" for s in range(siblings)]
    lines = [
        f"seed {seed}",
        "tokens prodigal",
        f"agent F balance {funder}",
        f"oracle {ORACLE}",
        "atom ok(who, round)",
    ]
    lines += [f"agent {w}" for w in _shuffled(sinks, rng)]
    transfers = {}
    slots = [(r, s) for r in range(rounds) for s in range(siblings)]
    plan: list[list[str]] = [[] for _ in range(rounds)]
    for n, (r, s) in enumerate(_shuffled(slots, rng)):
        # Siblings share a guard kind, so every chain stores the same
        # number of claims whichever sibling the head selection picks.
        guard = "|F| >= 1" if r % 2 else f"claim {ORACLE}: ok(W{s}, {r})"
        lines.append(f"issue y{n} = tx F -(1)[{guard}]-> W{s}")
        transfers[f"y{n}"] = ("F", 1, f"W{s}")
        plan[r].append(f"y{n}")
    # Each round strands K - 1 siblings at its height; the last round K.
    lengths = [r + 2 for r in range(rounds - 1) for _ in range(siblings - 1)]
    lengths += [rounds + 1] * siblings
    return Expected(
        scenario="\n".join(lines) + "\n",
        name=f"forks-{rounds}x{siblings}",
        decisions=rounds * siblings,
        outcomes={b: "published" for b in transfers},
        opening={"F": funder, **{w: 0 for w in sinks}},
        transfers=transfers,
        leaf_lengths=tuple(sorted(lengths)),
        rounds=tuple(tuple(names) for names in plan),
        consistency_checks=True,
    )


# ---------------------------------------------------------------------------
# audit: tampered copies of genuine certificates


@dataclass(frozen=True)
class Verdict:
    """One certificate text and the auditor's expected verdict."""

    label: str
    source: int  # index of its scenario in AuditSet.sources
    text: str
    error: str | None  # expected exception class name, None if it verifies
    answer: CertAnswer | None = None  # set for genuine certificates


def flip_candidate_literal(doc: dict) -> dict:
    """Negate the literals of the candidate's input step: replay must fail."""
    out = copy.deepcopy(doc)
    for step in out["refutation"]["steps"]:
        if step["rule"] == "input" and step["source"] == "candidate":
            step["clause"] = sorted(-lit for lit in step["clause"])
            return out
    raise ValueError("certificate has no candidate input step")


def add_conflict_member(doc: dict, claim_doc: dict) -> dict:
    """Append a stored claim to the conflict: the set is no longer minimal."""
    out = copy.deepcopy(doc)
    out["conflict"].append(dict(claim_doc))
    return out


@dataclass
class AuditSet:
    sources: list[Expected] = field(default_factory=list)  # the certificates' scenarios
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"{len(self.sources)}x{self.sources[0].name}"
