"""Certificate serialization, independent replay and minimality audit."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurality.certificates import (
    NotMinimal,
    ReplayFailed,
    _Audit,
    certificate_from_text,
    certificate_to_doc,
    certificate_to_text,
    check_certificate,
    check_minimality,
    replay_refutation,
)
from plurality.logic import (
    Atom,
    Claim,
    DefinitionSet,
    DiscordCertificate,
    Not,
    atom_key,
    brute_force_satisfiable,
    minimize_conflict,
    refute,
    store_consistent,
)
from plurality.syntax import parse_contract, parse_formula
from tests.test_logic import random_ground_formula

CTX = parse_contract(
    """
agent W balance 10
agent A
agent B
oracle Omega_s
oracle Omega_X
oracle Omega_Y
atom license(holder)
atom p
atom q
function rank(class, student)
domain Students = { A, B }
domain Positions = { 1, 2 }
constraint forall i in Positions . forall s in Students . forall t in Students . ((s != t) -> !((rank(C, s) = i) & (rank(C, t) = i)))
"""
)


def _parse(text: str):
    return parse_formula(text, CTX)


def rank_conflict():
    stored = Claim("Omega_s", _parse("rank(C, A) = 1"), origin="block-a")
    noise = Claim("Omega_X", _parse("license(A)"), origin="block-n")
    candidate = Claim("Omega_s", _parse("rank(C, B) = 1"))
    cert = minimize_conflict(
        (noise, stored), CTX.defs.constraints, candidate, CTX.defs
    )
    return cert


def test_serialization_roundtrip():
    cert = rank_conflict()
    text = certificate_to_text(cert)
    back = certificate_from_text(text, _parse)
    assert back == cert
    assert certificate_to_text(back) == text


def test_serialized_form_is_canonical():
    cert = rank_conflict()
    assert certificate_to_text(cert) == certificate_to_text(rank_conflict())
    doc = certificate_to_doc(cert)
    assert doc["format"] == "plurality-discord-certificate/1"
    assert [c["authority"] for c in doc["conflict"]] == ["Omega_s"]
    assert doc["candidate"]["body"] == "(rank(C, B) = 1)"
    # keys are emitted sorted, so the dump round-trips byte-identically
    assert json.dumps(doc, sort_keys=True, indent=1) + "\n" == certificate_to_text(cert)


def test_replay_accepts_engine_output():
    cert = rank_conflict()
    replay_refutation(cert, CTX.defs.constraints, CTX.defs)
    check_certificate(cert, CTX.defs.constraints, CTX.defs)


def test_replay_rejects_deleted_claim():
    cert = rank_conflict()
    doc = certificate_to_doc(cert)
    doc["conflict"] = []
    tampered = certificate_from_text(json.dumps(doc), _parse)
    with pytest.raises(ReplayFailed):
        replay_refutation(tampered, CTX.defs.constraints, CTX.defs)


def test_replay_rejects_bent_resolution_step():
    cert = rank_conflict()
    doc = certificate_to_doc(cert)
    for step in doc["refutation"]["steps"]:
        if step["rule"] == "resolve" and step["clause"]:
            step["clause"] = step["clause"][:-1]
            break
    tampered = certificate_from_text(json.dumps(doc), _parse)
    with pytest.raises(ReplayFailed):
        replay_refutation(tampered, CTX.defs.constraints, CTX.defs)


def test_replay_rejects_swapped_candidate():
    cert = rank_conflict()
    doc = certificate_to_doc(cert)
    doc["candidate"]["body"] = "(rank(C, A) = 2)"
    tampered = certificate_from_text(json.dumps(doc), _parse)
    with pytest.raises(ReplayFailed):
        replay_refutation(tampered, CTX.defs.constraints, CTX.defs)


def test_replay_rejects_foreign_constraints():
    cert = rank_conflict()
    with pytest.raises(ReplayFailed):
        replay_refutation(cert, (), CTX.defs)  # constraints withheld


def test_replay_rejects_truncated_trace():
    cert = rank_conflict()
    doc = certificate_to_doc(cert)
    doc["refutation"]["steps"] = doc["refutation"]["steps"][:-1]
    tampered = certificate_from_text(json.dumps(doc), _parse)
    with pytest.raises(ReplayFailed):
        replay_refutation(tampered, CTX.defs.constraints, CTX.defs)


def with_member(cert, pad: Claim):
    """The certificate with one more conflict member; its proof still replays."""
    return dataclasses.replace(
        cert,
        conflict=cert.conflict + (pad,),
        refutation=dataclasses.replace(
            cert.refutation, used_claims=cert.refutation.used_claims + (pad,)
        ),
    )


def test_padded_conflict_is_flagged():
    cert = rank_conflict()
    pad = Claim("Omega_Y", _parse("q"), origin="block-p")
    padded = with_member(cert, pad)
    replay_refutation(padded, CTX.defs.constraints, CTX.defs)  # proof still replays
    with pytest.raises(NotMinimal):
        check_minimality(padded, CTX.defs.constraints, CTX.defs)


def test_minimality_audits_conflicts_over_eight_members():
    # the constraint forbids all ten atoms at once: nine stored claims
    # plus the candidate make a minimal conflict of nine stored members
    names = [f"a{i}" for i in range(10)]
    ctx = parse_contract(
        "".join(f"atom {n}\n" for n in names + ["q"])
        + "constraint !(" + " & ".join(names) + ")\n"
    )
    d = ctx.defs
    stored = tuple(
        Claim(f"O{i}", parse_formula(n, ctx), origin=f"b{i}") for i, n in enumerate(names[:-1])
    )
    cert = minimize_conflict(stored, d.constraints, Claim("Oc", parse_formula("a9", ctx)), d)
    assert len(cert.conflict) == 9
    check_certificate(cert, d.constraints, d)
    pad = Claim("Oq", parse_formula("q", ctx), origin="b-q")
    padded = with_member(cert, pad)
    with pytest.raises(NotMinimal, match="without claim Oq: q"):
        check_certificate(padded, d.constraints, d)


def test_self_contradiction_certificate():
    d = DefinitionSet(atoms={"p": 0})
    cand = Claim("Omega", parse_formula("p & !p", parse_contract("atom p\n")))
    cert = minimize_conflict((), (), cand, d)
    assert cert.conflict == ()
    replay_refutation(cert, (), d)
    check_certificate(cert, (), d)


def test_replay_randomized_certificates():
    rng = random.Random(77)
    replayed = 0
    for _ in range(300):
        names = [f"g{i}" for i in range(rng.randrange(2, 7))]
        d = DefinitionSet(atoms={n: 0 for n in names})
        claims = tuple(
            Claim(f"O{i}", random_ground_formula(rng, names, 2), origin=f"b{i}")
            for i in range(rng.randrange(1, 5))
        )
        cand = Claim("Oc", random_ground_formula(rng, names, 2))
        if not store_consistent(claims, (), d):
            # a broken store can never pin the blame on one candidate;
            # the chain never admits such stores in the first place
            continue
        if refute(claims, (), cand, d) is None:
            continue
        cert = minimize_conflict(claims, (), cand, d)
        replay_refutation(cert, (), d)
        check_certificate(cert, (), d)
        # and the serialized form replays identically
        ctx = parse_contract("".join(f"atom {n}\n" for n in names))
        back = certificate_from_text(
            certificate_to_text(cert), lambda s: parse_formula(s, ctx)
        )
        replay_refutation(back, (), d)
        replayed += 1
    assert replayed > 15


# --- the audit's search against exhaustive enumeration -----------------------

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_ground_set(rng: random.Random, most: int):
    names = [f"g{i}" for i in range(rng.randrange(1, 6))]
    bodies = [random_ground_formula(rng, names, rng.randrange(1, 4)) for _ in range(most)]
    return names, DefinitionSet(atoms={n: 0 for n in names}), bodies


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_search_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    names, d, formulas = random_ground_set(rng, rng.randrange(0, 5))
    audit = _Audit(d)
    assert audit.satisfiable(formulas) == (brute_force_satisfiable(formulas, d) is not None)
    # under a partial assignment, the way the entailment check asks
    fixed = {n: rng.random() < 0.5 for n in rng.sample(names, rng.randrange(len(names) + 1))}
    literals = [Atom(n) if v else Not(Atom(n)) for n, v in fixed.items()]
    want = brute_force_satisfiable(formulas + literals, d) is not None
    ids = {audit.id_of(atom_key(Atom(n))): v for n, v in fixed.items()}
    assert audit.satisfiable(formulas, ids) == want


def test_drop_one_minimality_matches_subset_enumeration():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        names, d, bodies = random_ground_set(rng, rng.randrange(2, 7))
        members = [Claim(f"O{i}", b, origin=f"b{i}") for i, b in enumerate(bodies[1:])]
        constraints = tuple(bodies[:1])
        cert = DiscordCertificate(members[0], tuple(members[1:]), refutation=None)
        n = len(members)
        every_proper_subset_sat = all(
            brute_force_satisfiable(
                [m.body for i, m in enumerate(members) if mask >> i & 1] + list(constraints), d
            )
            is not None
            for mask in range((1 << n) - 1)
        )
        try:
            check_minimality(cert, constraints, d)
            minimal = True
        except NotMinimal:
            minimal = False
        assert minimal == every_proper_subset_sat
        if brute_force_satisfiable([m.body for m in members] + list(constraints), d) is None:
            verdicts[minimal] += 1  # count only sets that really conflict
    assert min(verdicts.values()) > 20


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_minimized_certificates_pass_the_audit(seed):
    rng = random.Random(seed)
    names, d, bodies = random_ground_set(rng, rng.randrange(2, 7))
    cand = Claim("Oc", bodies[0])
    constraints = tuple(bodies[1:2])
    claims = tuple(Claim(f"O{i}", b, origin=f"b{i}") for i, b in enumerate(bodies[2:]))
    if not store_consistent(claims, constraints, d) or refute(claims, constraints, cand, d) is None:
        return
    check_certificate(minimize_conflict(claims, constraints, cand, d), constraints, d)
