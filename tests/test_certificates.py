"""Certificate serialization, independent replay and minimality audit."""

from __future__ import annotations

import dataclasses
import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurality import certificates
from plurality.certificates import (
    CertificateError,
    NotMinimal,
    ReplayFailed,
    _Audit,
    certificate_from_text,
    certificate_to_doc,
    certificate_to_text,
    check_certificate,
    check_minimality,
    json_text,
    replay_refutation,
)
from plurality.logic import (
    And,
    Atom,
    Claim,
    Constant,
    DefinitionSet,
    DiscordCertificate,
    ForAll,
    Not,
    ProofStep,
    Refutation,
    ResourceLimit,
    formula_text,
    brute_force_satisfiable,
    minimize_conflict,
    refute,
    store_consistent,
)
from plurality.runtime import Engine
from plurality.syntax import parse_contract, parse_formula, parse_scenario
from tests.test_logic import random_ground_formula

CTX_TEXT = """
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
CTX = parse_contract(CTX_TEXT)


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


# Strings mix arbitrary code points, lone surrogates included, with the
# characters JSON escapes specially.
JSON_TEXT = st.text(
    st.characters(blacklist_categories=())
    | st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\ud800\udfff\u00e9\U0001f600'),
    max_size=12,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_json_text_is_json_dumps_with_sorted_keys_and_indent_1(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=1) + "\n"


@settings(max_examples=30, deadline=None)
@given(JSON_VALUES, st.sampled_from([0.5, float("nan"), {1, 2}, (1,), {1: "x"}, {None: 0}]))
def test_json_text_rejects_other_types_wherever_they_sit(value, bad):
    for doc in (bad, [value, bad], {"k": value, "z": [bad]}, [{"a": value, "b": bad}]):
        with pytest.raises(TypeError):
            json_text(doc)


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
    # a read certificate, after a warm check, against another tuple
    read = certificate_from_text(certificate_to_text(cert), _parse)
    check_certificate(read, CTX.defs.constraints, CTX.defs)
    for constraints in ((), (_parse("!license(A)"),)):
        with pytest.raises(ReplayFailed, match="unknown constraint cited"):
            replay_refutation(read, constraints, CTX.defs)


def test_a_cited_constraint_must_be_the_contracts_own_not_one_with_its_text():
    # the copy leaves x a constant, so it forbids p(x) itself, which the
    # contract's constraint over the members of D does not mention
    ctx = parse_contract("oracle O\ndomain D = { a, b }\natom p(x)\nconstraint forall x in D . !p(x)\n")
    (own,) = ctx.defs.constraints
    copy = ForAll("x", "D", Not(Atom("p", (Constant("x"),))))
    assert formula_text(copy) == formula_text(own) and copy != own
    candidate = Claim("O", Atom("p", (Constant("x"),)))
    steps = (
        ProofStep("input", (1,), source=("candidate",)),
        ProofStep("input", (-1,), source=("constraint", 0)),
        ProofStep("resolve", (), premises=(0, 1)),
    )
    refutation = Refutation(Not(candidate.body), (), (copy,), ("p(x)",), steps)
    cert = DiscordCertificate(candidate, (), refutation)
    with pytest.raises(ReplayFailed, match="unknown constraint cited"):
        check_certificate(cert, ctx.defs.constraints, ctx.defs)
    # citing the contract's own constraint, the clause -p(x) does not follow
    own_cert = dataclasses.replace(cert, refutation=dataclasses.replace(refutation, used_constraints=(own,)))
    with pytest.raises(ReplayFailed, match="step 1: clause"):
        check_certificate(own_cert, ctx.defs.constraints, ctx.defs)


def test_a_conclusion_in_other_but_equal_text_still_verifies():
    doc = certificate_to_doc(rank_conflict())
    conclusion = doc["refutation"]["conclusion"]
    doc["refutation"]["conclusion"] = f"(({conclusion}))"
    read = certificate_from_text(json.dumps(doc), _parse)
    assert read.refutation.conclusion is not Not(read.candidate.body)
    check_certificate(read, CTX.defs.constraints, CTX.defs)
    doc["refutation"]["conclusion"] = "!(rank(C, A) = 1)"
    with pytest.raises(ReplayFailed, match="conclusion is not the negation"):
        check_certificate(certificate_from_text(json.dumps(doc), _parse), CTX.defs.constraints, CTX.defs)


def test_replacing_the_constraints_replaces_the_texts_the_parser_knows():
    ctx = parse_contract(CTX_TEXT)
    text = certificate_to_text(rank_conflict())
    cert = certificate_from_text(text, lambda t: parse_formula(t, ctx))
    assert cert.refutation.used_constraints[0] is ctx.defs.constraints[0]
    check_certificate(cert, ctx.defs.constraints, ctx.defs)
    ctx.defs = dataclasses.replace(ctx.defs, constraints=(parse_formula("!license(A)", ctx),))
    again = certificate_from_text(text, lambda t: parse_formula(t, ctx))
    with pytest.raises(ReplayFailed, match="unknown constraint cited"):
        replay_refutation(again, ctx.defs.constraints, ctx.defs)


def test_replay_rejects_truncated_trace():
    cert = rank_conflict()
    doc = certificate_to_doc(cert)
    doc["refutation"]["steps"] = doc["refutation"]["steps"][:-1]
    tampered = certificate_from_text(json.dumps(doc), _parse)
    with pytest.raises(ReplayFailed):
        replay_refutation(tampered, CTX.defs.constraints, CTX.defs)


def test_replay_refuses_a_clause_entailed_only_semantically():
    # (p | q) & (p | !q) entails p, but making p false leaves q and !q open
    ctx = parse_contract("atom p\natom q\nconstraint !p\n")
    d = ctx.defs
    cand = Claim("O", parse_formula("(p | q) & (p | !q)", ctx))
    cert = minimize_conflict((), d.constraints, cand, d)
    check_certificate(cert, d.constraints, d)  # the engine cites (p | q) and (p | !q)
    p = cert.refutation.atoms.index("p") + 1
    shortcut = dataclasses.replace(
        cert.refutation,
        steps=(
            ProofStep("input", (p,), source=("candidate",)),
            ProofStep("input", (-p,), source=("constraint", 0)),
            ProofStep("resolve", (), premises=(0, 1)),
        ),
    )
    assert brute_force_satisfiable([cand.body, Not(Atom("p"))], d) is None
    with pytest.raises(ReplayFailed, match=rf"step 0: clause \[{p}\] does not follow"):
        replay_refutation(dataclasses.replace(cert, refutation=shortcut), d.constraints, d)


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
    # under a partial assignment, given as unit literals
    fixed = {n: rng.random() < 0.5 for n in rng.sample(names, rng.randrange(len(names) + 1))}
    literals = [Atom(n) if v else Not(Atom(n)) for n, v in fixed.items()]
    want = brute_force_satisfiable(formulas + literals, d) is not None
    assert audit.satisfiable(formulas + literals) == want


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


# --- the auditor against a reference auditor built on enumeration -------------

GS = [f"g{i}" for i in range(5)]  # the atoms certificates are about
HS = [f"h{i}" for i in range(3)]  # atoms no certificate mentions


def contract_defs() -> DefinitionSet:
    return DefinitionSet(atoms={n: 0 for n in GS + HS})


def reference_verdict(cert, constraints, d) -> str | None:
    """The verdict class of ``check_certificate``, decided by exhaustive
    enumeration: every input clause must follow from its cited source,
    every resolvent must be exact, and dropping any member of candidate
    plus conflict must leave a set consistent with the constraints."""
    r = cert.refutation
    sources = {("candidate",): cert.candidate.body}
    sources.update({("claim", i): c.body for i, c in enumerate(cert.conflict)})
    sources.update({("constraint", i): g for i, g in enumerate(r.used_constraints)})
    ok = (
        bool(r.steps)
        and r.used_claims == cert.conflict
        and all(g in constraints for g in r.used_constraints)
        and r.conclusion == Not(cert.candidate.body)
        and r.steps[-1].clause == ()
    )
    derived: list[tuple[int, ...]] = []
    for n, step in enumerate(r.steps):
        if not ok:
            break
        if step.rule == "input":
            # the source with every literal of the clause made false
            falsified = [
                Not(Atom(r.atoms[abs(lit) - 1])) if lit > 0 else Atom(r.atoms[abs(lit) - 1])
                for lit in step.clause
            ]
            ok = step.source in sources and (
                brute_force_satisfiable([sources[step.source]] + falsified, d) is None
            )
        else:
            a, b = step.premises
            ok = 0 <= a < n and 0 <= b < n and any(
                -p in derived[b] and set(derived[a]) - {p} | set(derived[b]) - {-p} == set(step.clause)
                for p in derived[a]
            )
        derived.append(step.clause)
    if not ok:
        return "ReplayFailed"
    members = [c.body for c in cert.conflicting_claims]
    for i in range(len(members)):
        if brute_force_satisfiable(members[:i] + members[i + 1 :] + list(constraints), d) is None:
            return "NotMinimal"
    return None


def verdict(cert, constraints, d) -> str | None:
    try:
        check_certificate(cert, constraints, d)
    except CertificateError as exc:
        return type(exc).__name__
    return None


def flipped(cert):
    """The candidate's input clause with every literal negated."""
    steps = list(cert.refutation.steps)
    for i, s in enumerate(steps):
        if s.rule == "input" and s.source == ("candidate",):
            steps[i] = dataclasses.replace(s, clause=tuple(sorted(-lit for lit in s.clause)))
            break
    return dataclasses.replace(
        cert, refutation=dataclasses.replace(cert.refutation, steps=tuple(steps))
    )


def random_audit_cases(rng: random.Random, count: int):
    """Certificates with flipped and padded copies, each with the
    constraints to judge it under.

    Some constraint sets carry a component over the ``h`` atoms, which
    no certificate mentions: a satisfiable one, sometimes folded into a
    cited constraint, or an unsatisfiable one, added only when judging
    (no run admits a store that contradicts the constraints).
    """
    d = contract_defs()
    cases = []
    while len(cases) < count:
        base = tuple(random_ground_formula(rng, GS, 2) for _ in range(rng.randrange(0, 2)))
        kind = rng.choice(["none", "sat", "folded", "unsat"])
        component = random_ground_formula(rng, HS, 2)
        if kind == "unsat":
            component = And(component, Not(component))
        elif kind != "none" and brute_force_satisfiable([component], d) is None:
            continue
        made = base
        if kind == "sat":
            made = base + (component,)
        elif kind == "folded":
            made = (And(base[0], component),) + base[1:] if base else (component,)
        judged = made + (component,) if kind == "unsat" else made
        claims = tuple(
            Claim(f"O{i}", random_ground_formula(rng, GS, 2), origin=f"b{i}")
            for i in range(rng.randrange(1, 5))
        )
        cand = Claim("Oc", random_ground_formula(rng, GS, 2))
        if not store_consistent(claims, made, d) or refute(claims, made, cand, d) is None:
            continue
        cert = minimize_conflict(claims, made, cand, d)
        outside = [c for c in claims if c not in cert.conflict]
        pad = outside[0] if outside else Claim("Op", random_ground_formula(rng, GS, 1), "bp")
        for c in (cert, flipped(cert), with_member(cert, pad)):
            cases.append((c, judged, kind))
    return cases


def test_auditor_agrees_with_the_reference_warm_and_cold():
    cases = random_audit_cases(random.Random(4242), 240)
    want = [reference_verdict(c, g, contract_defs()) for c, g, _ in cases]
    # warm: one contract for every certificate, in two different orders
    warm = contract_defs()
    assert [verdict(c, g, warm) for c, g, _ in cases] == want
    order = list(range(len(cases)))
    random.Random(7).shuffle(order)
    warm = contract_defs()
    shuffled = {i: verdict(cases[i][0], cases[i][1], warm) for i in order}
    assert [shuffled[i] for i in range(len(cases))] == want
    # cold: a fresh contract for each certificate
    assert [verdict(c, g, contract_defs()) for c, g, _ in cases] == want
    counts = {v: want.count(v) for v in (None, "ReplayFailed", "NotMinimal")}
    assert min(counts.values()) >= 20, counts
    kinds = [k for _, _, k in cases]
    assert min(kinds.count(k) for k in ("none", "sat", "folded", "unsat")) >= 20
    # constraints contradictory on their own leave no member to blame
    assert all(v == "NotMinimal" for v, k in zip(want, kinds) if k == "unsat" and v != "ReplayFailed")


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_entailment_from_a_sliced_source_agrees_with_enumeration(seed):
    # a constraint whose conjuncts over the h atoms are not connected to
    # the literals: when that part is contradictory every check fails
    rng = random.Random(seed)
    d = contract_defs()
    near = random_ground_formula(rng, GS[:3], 2)
    far = random_ground_formula(rng, HS, 2)
    if rng.random() < 0.5:
        far = And(far, Not(far))
    source = And(near, far) if rng.random() < 0.5 else And(far, near)
    fixed = {n: rng.random() < 0.5 for n in rng.sample(GS[:3], rng.randrange(4))}
    literals = [Atom(n) if v else Not(Atom(n)) for n, v in fixed.items()]
    want = brute_force_satisfiable([source] + literals, d) is not None
    assert _Audit(d, (source,)).satisfiable(literals) == want


def test_a_check_leaves_no_cyclic_garbage():
    cert = rank_conflict()
    defs = parse_contract(CTX_TEXT).defs
    gc.collect()
    gc.disable()
    try:
        check_certificate(cert, defs.constraints, defs)  # cold: compiles
        check_certificate(cert, defs.constraints, defs)  # warm
        assert gc.collect() == 0
    finally:
        gc.enable()


def node_atoms(nodes) -> set[int]:
    out: set[int] = set()
    todo = list(nodes)
    while todo:
        n = todo.pop()
        if type(n) is int:
            out.add(abs(n))
        elif type(n) is tuple:
            todo.extend(n[1])
    return out


def claims_12x3():
    """A freshly parsed claims-12x3 scenario and its 3 certificates read
    back from text.  The constraint grounds to 72 conjuncts over 36
    atoms, but each certificate is about one item, whose component has
    3 atoms."""
    items = ", ".join(f"i{i}" for i in range(12))
    lines = [
        "oracle O",
        f"domain Items = {{ {items} }}",
        "domain Vals = { v0, v1, v2 }",
        "atom st(item, val)",
        "constraint forall c in Items . forall u in Vals . forall w in Vals .",
        "  (st(c, u) & st(c, w)) -> u = w",
    ]
    lines += [f"at 0 claim s{i} = O: st(i{i}, v0)" for i in range(12)]
    lines += [f"at 1 claim d{i} = O: st(i{i}, v{1 + i % 2})" for i in (0, 5, 11)]
    source = "\n".join(lines) + "\n"
    engine = Engine(parse_scenario(source, name="claims-12x3"))
    engine.run()
    assert len(engine.certificates) == 3
    scenario = parse_scenario(source, name="claims-12x3")
    certs = [
        certificate_from_text(certificate_to_text(c), lambda s: parse_formula(s, scenario))
        for c in engine.certificates
    ]
    return scenario, certs


def test_later_checks_follow_the_certificate_not_the_universe(monkeypatch):
    scenario, certs = claims_12x3()
    defs = scenario.contract.defs
    check_certificate(certs[0], defs.constraints, defs)  # grounds the constraint once

    expanded, searched = [], []
    real_expand, real_search = certificates.ground_expand, certificates._search
    monkeypatch.setattr(
        certificates, "ground_expand", lambda f, d: expanded.append(f) or real_expand(f, d)
    )
    monkeypatch.setattr(
        certificates,
        "_search",
        lambda nodes, asg: searched.append(node_atoms(nodes) | set(asg)) or real_search(nodes, asg),
    )
    for cert in certs[1:]:
        check_certificate(cert, defs.constraints, defs)
    # only the two claim bodies of each certificate are grounded, once
    # per verdict: the replay and the minimality audit share one view
    assert len(expanded) == 4 and len(set(expanded)) == 4
    assert not set(expanded) & set(defs.constraints)
    assert searched and max(len(atoms) for atoms in searched) <= 3
    # replay evaluates: it never searches, and it simplifies only the
    # conjuncts that mention an atom of the clause, not all 72 of the constraint
    searched.clear()
    simplified = []
    real_simplify = certificates._simplify
    monkeypatch.setattr(
        certificates, "_simplify", lambda node, asg: simplified.append(node) or real_simplify(node, asg)
    )
    for cert in certs:
        simplified.clear()
        replay_refutation(cert, defs.constraints, defs)
        assert len(simplified) <= 4 * len(cert.refutation.steps)
    assert searched == []


def test_certificates_leave_nothing_behind_in_the_contract_cache():
    # the contract keeps only what it derives from its constraints; the
    # atoms and bodies a certificate brings, valid or not, are dropped
    scenario, certs = claims_12x3()
    defs = scenario.contract.defs
    check_certificate(certs[0], defs.constraints, defs)
    (background,) = defs._audit_cache.values()
    assert defs._audit_cache == {id(defs.constraints): background}
    assert background.constraints is defs.constraints
    sizes = [len(table) for table in (background.ids, background.parts, background.index)]
    assert sizes == [36, 72, 36]
    verdicts = []
    for n in range(30):
        cert = certs[n % 3]
        r = cert.refutation
        fresh = dataclasses.replace(r, atoms=tuple(f"fresh{n}_{k}" for k in range(len(r.atoms))))
        body = f"st(i{n % 12}, v{n % 3}) | !st(i{(n + 1) % 12}, v{n // 12})"
        pad = Claim("O", parse_formula(body, scenario), "bp")
        for c in (cert, flipped(cert), with_member(cert, pad), dataclasses.replace(cert, refutation=fresh)):
            verdicts.append(verdict(c, defs.constraints, defs))
    assert defs._audit_cache == {id(defs.constraints): background}
    assert [len(table) for table in (background.ids, background.parts, background.index)] == sizes
    assert {None, "ReplayFailed", "NotMinimal"} <= set(verdicts)


def test_a_check_against_another_tuple_keeps_no_record():
    scenario, certs = claims_12x3()
    defs = scenario.contract.defs
    check_certificate(certs[0], defs.constraints, defs)
    (background,) = defs._audit_cache.values()
    for _ in range(200):
        check_certificate(certs[0], tuple(list(defs.constraints)), defs)
    assert defs._audit_cache == {id(defs.constraints): background}


def direct_certificate(ctx, candidate: str, cited: int):
    """Candidate ``candidate``, no conflict, and a proof that resolves the
    candidate's unit clause against the opposite unit of the contract's
    constraint ``cited``."""
    body = parse_formula(candidate, ctx)
    key = formula_text(body.sub if isinstance(body, Not) else body)
    sign = -1 if isinstance(body, Not) else 1
    steps = (
        ProofStep("input", (sign,), source=("candidate",)),
        ProofStep("input", (-sign,), source=("constraint", 0)),
        ProofStep("resolve", (), premises=(0, 1)),
    )
    refutation = Refutation(Not(body), (), (ctx.defs.constraints[cited],), (key,), steps)
    return DiscordCertificate(Claim("O", body), (), refutation)


def counted_searches(monkeypatch) -> list:
    searched = []
    real = certificates._search
    monkeypatch.setattr(certificates, "_search", lambda nodes, asg: searched.append(1) or real(nodes, asg))
    return searched


def test_constraints_the_all_false_assignment_violates_are_decided_by_search(monkeypatch):
    searched = counted_searches(monkeypatch)
    defs = parse_contract("atom p\natom q\nconstraint p | q\n").defs
    assert _Audit(defs, defs.constraints).background.sat and len(searched) == 1
    defs = parse_contract("atom p\nconstraint !p\n").defs
    assert _Audit(defs, defs.constraints).background.sat and len(searched) == 1
    # contradictory constraints: every member looks redundant, as before
    ctx = parse_contract("oracle O\natom p\nconstraint p\nconstraint !p\n")
    cert = direct_certificate(ctx, "!p", 0)
    with pytest.raises(NotMinimal, match="already contradictory without claim O: !p"):
        check_certificate(cert, ctx.defs.constraints, ctx.defs)
    assert not _Audit(ctx.defs, ctx.defs.constraints).background.sat


PIGEONHOLE = (
    "((forall i in Pigeons . (exists h in Holes . sits(i, h))) & (forall h in Holes ."
    " (forall i in Pigeons . (forall j in Pigeons . ((i < j) -> !(sits(i, h) & sits(j, h)))))))"
)


def test_a_constraint_the_all_false_assignment_satisfies_is_not_searched(monkeypatch):
    # a search branches on z first, True first, and PHP(9, 8) then takes
    # more than MAX_SEARCH_STEPS steps: the all-false witness decides it
    ctx = parse_contract(
        "oracle O\ndomain One = { 1 }\ndomain Pigeons = { 1, 2, 3, 4, 5, 6, 7, 8, 9 }\n"
        "domain Holes = { 1, 2, 3, 4, 5, 6, 7, 8 }\natom r(x)\natom z\natom sits(pigeon, hole)\n"
        f"constraint forall x in One . !r(x)\nconstraint z -> {PIGEONHOLE}\n"
    )
    searched = counted_searches(monkeypatch)
    check_certificate(direct_certificate(ctx, "r(1)", 0), ctx.defs.constraints, ctx.defs)
    assert len(searched) == 1  # the minimality probe's, over no atoms
    background = _Audit(ctx.defs, ctx.defs.constraints).background
    assert background.sat
    with pytest.raises(ResourceLimit):  # what deciding sat by search meets
        certificates._search([p.node for p in background.parts], {})
