"""Evaluator, ground expansion and the refutation engine.

The evaluator is checked against ``direct_evaluate``, an interpreter
that walks the formula itself instead of its ground expansion, and the
one-pass clausifier against ``oracle_formula_clauses``, which expands,
pushes negations in and distributes in three passes.  The refutation
tests lean on an exhaustive truth-table oracle; the engine must agree
with it exactly, and certificates must be minimal against brute-force
subset enumeration.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurality.logic import (
    BUILTIN_FUNCTIONS,
    CMP_OPS,
    FALSE,
    TRUE,
    AgentRef,
    And,
    Atom,
    BalanceOf,
    Claim,
    Cmp,
    Constant,
    DefinitionSet,
    Exists,
    FalseF,
    FnApp,
    ForAll,
    FunctionDef,
    Implies,
    IntLit,
    LogicError,
    MAX_CLAUSES,
    Model,
    NonGround,
    Not,
    Or,
    PredicateDef,
    ResourceLimit,
    StratificationViolation,
    TrueF,
    TypeMismatch,
    UnknownSymbol,
    Var,
    _arith,
    _check_arity,
    _decide_cmp,
    _formula_clauses,
    _hashlock,
    _is_tautology,
    _wrap,
    atom_key,
    brute_force_satisfiable,
    claim_text,
    eval_residual,
    evaluate,
    formula_text,
    ground_expand,
    minimize_conflict,
    refute,
    residual_atoms,
    store_consistent,
)
from plurality import logic
from plurality.certificates import certificate_to_text
from plurality.syntax import ClaimedGuard, ClaimEvent, parse_scenario


def basic_defs() -> DefinitionSet:
    d = DefinitionSet()
    d.domains["Kids"] = ("A", "B")
    d.domains["None"] = ()
    d.atoms["paid"] = 1
    d.atoms["license"] = 1
    d.atoms["p"] = 0
    d.atoms["q"] = 0
    d.functions["as_grate"] = FunctionDef("as_grate", 1, params=("x",), body=Var("x"))
    d.functions["rank"] = FunctionDef("rank", 2)
    d.functions["grade_of"] = FunctionDef(
        "grade_of", 1, table={("A",): 12, ("B",): 9}
    )
    d.predicates["at_least"] = PredicateDef("at_least", ("w", "k"), Cmp(">=", Var("w"), Var("k")))
    return d


def direct_evaluate(f, m: Model, defs: DefinitionSet) -> bool:
    """Truth of ``f`` in ``m``, read off the formula without expanding it.

    The evaluator that ``evaluate`` replaced, kept as its oracle.  It
    short-circuits, so it can answer where a branch it never reaches
    would fail to ground; ``evaluate`` then raises.
    """
    return _direct(f, m, defs, {}, ())


def _direct(f, m, defs, env, stack) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        name = f.name
        if name == "hashlock":
            _check_arity(name, f.args, 2)
            a, b = (_direct_term(t, m, defs, env, stack) for t in f.args)
            return _hashlock(a, b)
        if name == "before":
            _check_arity(name, f.args, 1)
            t = _direct_term(f.args[0], m, defs, env, stack)
            if not isinstance(t, int):
                raise TypeMismatch("before expects an integer tick")
            return m.clock <= t
        if name in defs.predicates:
            if name in stack:
                raise StratificationViolation(f"predicate {name!r} depends on itself")
            pd = defs.predicates[name]
            _check_arity(name, f.args, len(pd.params))
            inner = {
                p: _wrap(_direct_term(a, m, defs, env, stack))
                for p, a in zip(pd.params, f.args)
            }
            return _direct(pd.body, m, defs, inner, stack + (name,))
        arity = defs.atom_arity(name)
        if arity is None:
            raise UnknownSymbol(f"atom {name!r} is not declared")
        _check_arity(name, f.args, arity)
        key = (name, tuple(_direct_term(a, m, defs, env, stack) for a in f.args))
        return key in m.asserted
    if isinstance(f, Cmp):
        a = _direct_term(f.lhs, m, defs, env, stack)
        b = _direct_term(f.rhs, m, defs, env, stack)
        return _decide_cmp(f.op, a, b)
    if isinstance(f, Not):
        return not _direct(f.sub, m, defs, env, stack)
    if isinstance(f, And):
        return _direct(f.lhs, m, defs, env, stack) and _direct(f.rhs, m, defs, env, stack)
    if isinstance(f, Or):
        return _direct(f.lhs, m, defs, env, stack) or _direct(f.rhs, m, defs, env, stack)
    if isinstance(f, Implies):
        return (not _direct(f.lhs, m, defs, env, stack)) or _direct(f.rhs, m, defs, env, stack)
    if isinstance(f, ForAll):
        members = defs.domain_members(f.domain)
        return all(_direct(f.body, m, defs, {**env, f.var: _wrap(v)}, stack) for v in members)
    if isinstance(f, Exists):
        members = defs.domain_members(f.domain)
        return any(_direct(f.body, m, defs, {**env, f.var: _wrap(v)}, stack) for v in members)
    raise TypeError(f"not a formula: {f!r}")


def _direct_term(t, m, defs, env, stack):
    if isinstance(t, (Constant, IntLit)):
        return t.value
    if isinstance(t, AgentRef):
        return t.agent
    if isinstance(t, BalanceOf):
        try:
            return m.balances[t.wallet]
        except KeyError:
            raise UnknownSymbol(f"no wallet {t.wallet!r} in model") from None
    if isinstance(t, Var):
        if t.name not in env:
            raise NonGround(f"free variable {t.name!r}")
        return _direct_term(env[t.name], m, defs, env, stack)
    if isinstance(t, FnApp):
        name = t.name
        if name in BUILTIN_FUNCTIONS:
            _check_arity(name, t.args, 2)
            a, b = (_direct_term(x, m, defs, env, stack) for x in t.args)
            return _arith(name, a, b)
        fd = defs.functions.get(name)
        if fd is None:
            raise UnknownSymbol(f"function {name!r} is not declared")
        _check_arity(name, t.args, fd.arity)
        vals = tuple(_direct_term(x, m, defs, env, stack) for x in t.args)
        if fd.kind == "table":
            try:
                return fd.table[vals]
            except KeyError:
                raise UnknownSymbol(f"{name}{vals!r} has no table entry") from None
        if fd.kind == "parametric":
            if name in stack:
                raise StratificationViolation(f"function {name!r} depends on itself")
            inner = {p: _wrap(v) for p, v in zip(fd.params, vals)}
            return _direct_term(fd.body, m, defs, inner, stack + (name,))
        raise UnknownSymbol(f"function {name!r} has no interpretation here")
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# evaluate


def test_true_is_true():
    assert evaluate(TRUE, Model(), basic_defs()) is True
    assert evaluate(FALSE, Model(), basic_defs()) is False


def test_balance_comparison():
    m = Model(balances={"B": 0})
    f = Cmp("<", BalanceOf("B"), IntLit(2))
    assert evaluate(f, m, basic_defs()) is True
    m.balances["B"] = 2
    assert evaluate(f, m, basic_defs()) is False


def test_identity_grade_guard():
    m = Model(balances={"S_A": 12})
    f = Cmp(">", FnApp("as_grate", (BalanceOf("S_A"),)), IntLit(10))
    assert evaluate(f, m, basic_defs()) is True
    m.balances["S_A"] = 9
    assert evaluate(f, m, basic_defs()) is False


def test_closed_world_atoms():
    d = basic_defs()
    m = Model(asserted={("paid", ("A",))})
    assert evaluate(Atom("paid", (Constant("A"),)), m, d) is True
    assert evaluate(Atom("paid", (Constant("B"),)), m, d) is False
    assert evaluate(Not(Atom("paid", (Constant("B"),))), m, d) is True


def test_quantifiers():
    d = basic_defs()
    m = Model(asserted={("paid", ("A",)), ("paid", ("B",))})
    every = ForAll("x", "Kids", Atom("paid", (Var("x"),)))
    some = Exists("x", "Kids", Atom("paid", (Var("x"),)))
    assert evaluate(every, m, d)
    assert evaluate(some, m, d)
    m.asserted.discard(("paid", ("B",)))
    assert not evaluate(every, m, d)
    assert evaluate(some, m, d)
    # vacuous truth / falsity over an empty domain
    assert evaluate(ForAll("x", "None", FALSE), m, d)
    assert not evaluate(Exists("x", "None", TRUE), m, d)


def test_defined_predicate_unfolds():
    d = basic_defs()
    d.predicates["broke"] = PredicateDef("broke", ("w",), Cmp("=", BalanceOf("A"), IntLit(0)))
    d.predicates["all_paid"] = PredicateDef(
        "all_paid", (), ForAll("x", "Kids", Atom("paid", (Var("x"),)))
    )
    m = Model(balances={"A": 0}, asserted={("paid", ("A",)), ("paid", ("B",))})
    assert evaluate(Atom("all_paid"), m, d)
    assert evaluate(Atom("broke", (Constant("A"),)), m, d)


def test_recursive_definitions_rejected():
    d = basic_defs()
    d.predicates["even"] = PredicateDef("even", (), Not(Atom("odd")))
    d.predicates["odd"] = PredicateDef("odd", (), Not(Atom("even")))
    with pytest.raises(StratificationViolation):
        evaluate(Atom("even"), Model(), d)
    d.functions["loop"] = FunctionDef("loop", 1, params=("x",), body=FnApp("loop", (Var("x"),)))
    with pytest.raises(StratificationViolation):
        evaluate(Cmp("=", FnApp("loop", (IntLit(1),)), IntLit(1)), Model(), d)


def test_error_cases():
    d = basic_defs()
    with pytest.raises(UnknownSymbol):
        evaluate(Atom("never_declared"), Model(), d)
    with pytest.raises(NonGround):
        evaluate(Atom("paid", (Var("x"),)), Model(), d)
    with pytest.raises(TypeMismatch):
        evaluate(Cmp("<", Constant("A"), IntLit(2)), Model(), d)
    with pytest.raises(UnknownSymbol):
        evaluate(Cmp("=", BalanceOf("nobody"), IntLit(0)), Model(), d)
    with pytest.raises(TypeMismatch):
        evaluate(Atom("paid", (Constant("A"), Constant("B"))), Model(), d)


def test_hashlock_builtin():
    secret = "wonderland"
    digest = hashlib.sha256(secret.encode()).hexdigest()
    d = basic_defs()
    good = Atom("hashlock", (Constant(digest), Constant(secret)))
    bad = Atom("hashlock", (Constant(digest), Constant("guessing")))
    assert evaluate(good, Model(), d)
    assert not evaluate(bad, Model(), d)


def test_before_builtin_tracks_clock():
    d = basic_defs()
    f = Atom("before", (IntLit(5),))
    assert evaluate(f, Model(clock=5), d)
    assert evaluate(f, Model(clock=0), d)
    assert not evaluate(f, Model(clock=6), d)


def test_arithmetic_and_table_functions():
    d = basic_defs()
    m = Model()
    assert evaluate(Cmp("=", FnApp("add", (IntLit(2), IntLit(3))), IntLit(5)), m, d)
    assert evaluate(Cmp("=", FnApp("sub", (IntLit(2), IntLit(3))), IntLit(-1)), m, d)
    assert evaluate(Cmp("=", FnApp("mul", (IntLit(2), IntLit(3))), IntLit(6)), m, d)
    assert evaluate(Cmp("=", FnApp("grade_of", (Constant("A"),)), IntLit(12)), m, d)
    with pytest.raises(UnknownSymbol):
        evaluate(Cmp("=", FnApp("grade_of", (Constant("Z"),)), IntLit(0)), m, d)
    # uninterpreted functions have no closed value
    with pytest.raises(UnknownSymbol):
        evaluate(Cmp("=", FnApp("rank", (Constant("C"), Constant("A"))), IntLit(1)), m, d)


# ---------------------------------------------------------------------------
# ground_expand


def test_expand_finite_forall():
    d = basic_defs()
    f = ForAll("x", "Kids", Atom("paid", (Var("x"),)))
    assert ground_expand(f, d) == And(
        Atom("paid", (Constant("A"),)), Atom("paid", (Constant("B"),))
    )


def test_expand_constants_and_empty_domains():
    d = basic_defs()
    assert ground_expand(TRUE, d) == TRUE
    assert ground_expand(Exists("x", "None", Atom("paid", (Var("x"),))), d) == FALSE
    assert ground_expand(ForAll("x", "None", Atom("paid", (Var("x"),))), d) == TRUE


def test_expand_folds_rigid_subterms():
    d = basic_defs()
    f = Cmp("=", FnApp("add", (IntLit(1), IntLit(1))), IntLit(2))
    assert ground_expand(f, d) == TRUE
    g = Cmp("<", BalanceOf("W"), FnApp("mul", (IntLit(2), IntLit(5))))
    assert ground_expand(g, d) == Cmp("<", BalanceOf("W"), IntLit(10))


def random_model(rng: random.Random, d: DefinitionSet) -> Model:
    asserted = set()
    for kid in d.domains["Kids"]:
        if rng.random() < 0.5:
            asserted.add(("paid", (kid,)))
        if rng.random() < 0.5:
            asserted.add(("license", (kid,)))
    for name in ("p", "q"):
        if rng.random() < 0.5:
            asserted.add((name, ()))
    return Model(
        balances={"W": rng.randrange(0, 30), "S_A": rng.randrange(0, 21)},
        asserted=asserted,
        clock=rng.randrange(0, 8),
    )


def random_closed_formula(rng: random.Random, depth: int):
    """A guard over ``basic_defs`` that grounds and evaluates without error
    in every ``random_model``."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        pick = rng.randrange(9)
        if pick == 0:
            return Atom("paid", (Constant(rng.choice(("A", "B"))),))
        if pick == 1:
            return Atom(rng.choice(("p", "q")))
        if pick == 2:
            return Cmp(
                rng.choice(("<", "<=", "=", ">=", ">", "!=")),
                BalanceOf(rng.choice(("W", "S_A"))),
                IntLit(rng.randrange(0, 25)),
            )
        if pick == 3:
            return Atom("before", (IntLit(rng.randrange(0, 8)),))
        if pick == 4:
            return Cmp(">", FnApp("as_grate", (BalanceOf("S_A"),)), IntLit(10))
        if pick == 5:
            return Cmp(
                rng.choice(("<", "<=", "=", ">=", ">", "!=")),
                FnApp("add", (BalanceOf(rng.choice(("W", "S_A"))), IntLit(rng.randrange(-5, 6)))),
                IntLit(rng.randrange(0, 30)),
            )
        if pick == 6:
            return Cmp(
                rng.choice(("<", "=", ">")),
                FnApp("grade_of", (Constant(rng.choice(("A", "B"))),)),
                IntLit(rng.randrange(8, 14)),
            )
        if pick == 7:
            wallet = BalanceOf(rng.choice(("W", "S_A")))
            return Atom("at_least", (wallet, IntLit(rng.randrange(0, 25))))
        return rng.choice((TRUE, FALSE))
    if roll < 0.42:
        return Not(random_closed_formula(rng, depth - 1))
    if roll < 0.56:
        return And(random_closed_formula(rng, depth - 1), random_closed_formula(rng, depth - 1))
    if roll < 0.70:
        return Or(random_closed_formula(rng, depth - 1), random_closed_formula(rng, depth - 1))
    if roll < 0.84:
        return Implies(
            random_closed_formula(rng, depth - 1), random_closed_formula(rng, depth - 1)
        )
    kind = ForAll if rng.random() < 0.5 else Exists
    return kind("v", "Kids", Or(Atom("license", (Var("v"),)), random_closed_formula(rng, depth - 1)))


def test_expansion_preserves_truth():
    d = basic_defs()
    rng = random.Random(7)
    for _ in range(400):
        f = random_closed_formula(rng, 4)
        m = random_model(rng, d)
        truth = direct_evaluate(f, m, d)
        assert evaluate(f, m, d) == truth
        assert evaluate(ground_expand(f, d), m, d) == truth


def test_a_branch_that_cannot_ground_fails_the_whole_guard():
    # grade_of has no entry for Z.  The direct reading never reaches it
    # once paid(A) holds; the expansion grounds every branch first.
    d = basic_defs()
    m = Model(asserted={("paid", ("A",))})
    f = Or(
        Atom("paid", (Constant("A"),)),
        Cmp("=", FnApp("grade_of", (Constant("Z"),)), IntLit(1)),
    )
    assert direct_evaluate(f, m, d) is True
    with pytest.raises(UnknownSymbol, match=r"^grade_of\('Z',\) has no table entry$"):
        evaluate(f, m, d)


def test_expansion_is_residual():
    # residual_atoms accepts the output (i.e. no quantifiers survive)
    d = basic_defs()
    rng = random.Random(8)
    for _ in range(200):
        f = random_closed_formula(rng, 4)
        residual_atoms(ground_expand(f, d))


# ---------------------------------------------------------------------------
# refute


def rank_eq(student: str, position: int):
    return Cmp("=", FnApp("rank", (Constant("C"), Constant(student))), IntLit(position))


def one_rank_per_position():
    # rank is a function: two students cannot share a position
    d = DefinitionSet()
    d.domains["Students"] = ("A", "B")
    d.domains["Positions"] = (1, 2)
    d.functions["rank"] = FunctionDef("rank", 2)
    d.atoms["license"] = 1
    d.atoms["p"] = 0
    constraint = ForAll(
        "i",
        "Positions",
        ForAll(
            "s",
            "Students",
            ForAll(
                "t",
                "Students",
                Implies(
                    Cmp("!=", Var("s"), Var("t")),
                    Not(And(
                        Cmp("=", FnApp("rank", (Constant("C"), Var("s"))), Var("i")),
                        Cmp("=", FnApp("rank", (Constant("C"), Var("t"))), Var("i")),
                    )),
                ),
            ),
        ),
    )
    return dataclasses.replace(d, constraints=(constraint,))


def test_unrefuted_claim_on_empty_store():
    d = basic_defs()
    cand = Claim("Omega_X", Atom("license", (Constant("A"),)))
    assert refute((), (), cand, d) is None


def test_direct_contradiction_is_refuted():
    d = basic_defs()
    stored = Claim("Omega_Y", Not(Atom("license", (Constant("A"),))), origin="b1")
    cand = Claim("Omega_X", Atom("license", (Constant("A"),)))
    r = refute((stored,), (), cand, d)
    assert r is not None
    assert r.used_claims == (stored,)
    assert r.used_constraints == ()
    assert r.steps[-1].clause == ()


def test_functional_rank_conflict():
    d = one_rank_per_position()
    first = Claim("Omega_s", rank_eq("A", 1), origin="b-a")
    cand = Claim("Omega_s", rank_eq("B", 1))
    r = refute((first,), d.constraints, cand, d)
    assert r is not None
    assert r.used_claims == (first,)
    assert len(r.used_constraints) == 1
    assert formula_text(r.conclusion) == "!" + formula_text(cand.body)


def test_self_contradictory_candidate():
    d = basic_defs()
    cand = Claim("Omega", And(Atom("p"), Not(Atom("p"))))
    r = refute((), (), cand, d)
    assert r is not None
    assert r.used_claims == ()
    assert all(s.source != ("claim", 0) for s in r.steps if s.rule == "input")


def test_tautological_clauses_stay_out_of_refutations(monkeypatch):
    # (p | !p) & q clausifies to {p, -p} and {q}; only {q} may enter the
    # search, so the two input clauses fit a budget of two clauses
    d = basic_defs()
    stored = Claim("Omega_Y", And(Or(Atom("p"), Not(Atom("p"))), Atom("q")), origin="b1")
    cand = Claim("Omega_X", Not(Atom("q")))
    monkeypatch.setattr(logic, "MAX_CLAUSES", 2)
    r = refute((stored,), (), cand, d)
    assert r is not None
    inputs = [set(s.clause) for s in r.steps if s.rule == "input"]
    assert inputs and not any(-lit in clause for clause in inputs for lit in clause)


def test_subsumed_resolvents_stay_out_of_the_search(monkeypatch):
    # eliminating a from {a, b} and {!a, c} gives {b, c}, which the live
    # unit {c} subsumes through c, not through b; the three input clauses
    # then fit a budget of three clauses
    d = DefinitionSet(atoms={"a": 0, "b": 0, "c": 0})
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    store = [Claim("O", f, origin=f"b{i}") for i, f in enumerate((Or(a, b), Or(Not(a), c), c))]
    monkeypatch.setattr(logic, "MAX_CLAUSES", 3)
    assert store_consistent(store, (), d)


def test_refutation_is_deterministic():
    d = one_rank_per_position()
    first = Claim("Omega_s", rank_eq("A", 1), origin="b-a")
    cand = Claim("Omega_s", rank_eq("B", 1))
    r1 = refute((first,), d.constraints, cand, d)
    r2 = refute((first,), d.constraints, cand, d)
    assert r1 == r2


def test_atom_universe_cap(monkeypatch):
    d = DefinitionSet()
    d.domains["Big"] = tuple(f"m{i}" for i in range(40))
    d.atoms["covered"] = 2
    body = ForAll(
        "x", "Big", ForAll("y", "Big", Atom("covered", (Var("x"), Var("y"))))
    )
    monkeypatch.setattr(logic, "MAX_ATOMS", 64)
    with pytest.raises(ResourceLimit):
        refute((), (), Claim("O", body), d)
    # the clauses are cached now; the cap must still apply to the merge
    with pytest.raises(ResourceLimit):
        refute((), (), Claim("O", body), d)


# --- engine vs. exhaustive oracle ------------------------------------------


def random_ground_formula(rng: random.Random, atoms: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.38:
        a = Atom(rng.choice(atoms))
        return Not(a) if rng.random() < 0.4 else a
    roll = rng.random()
    l = random_ground_formula(rng, atoms, depth - 1)
    r = random_ground_formula(rng, atoms, depth - 1)
    if roll < 0.33:
        return And(l, r)
    if roll < 0.66:
        return Or(l, r)
    if roll < 0.85:
        return Implies(l, r)
    return Not(l)


def test_refute_agrees_with_enumeration_small():
    rng = random.Random(99)
    for _ in range(250):
        n_atoms = rng.randrange(2, 9)
        names = [f"g{i}" for i in range(n_atoms)]
        d = DefinitionSet(atoms={n: 0 for n in names})
        claims = tuple(
            Claim(f"O{i}", random_ground_formula(rng, names, rng.randrange(1, 4)), origin=f"b{i}")
            for i in range(rng.randrange(0, 4))
        )
        constraints = tuple(
            random_ground_formula(rng, names, rng.randrange(1, 3))
            for _ in range(rng.randrange(0, 2))
        )
        cand = Claim("Oc", random_ground_formula(rng, names, rng.randrange(1, 4)))
        engine = refute(claims, constraints, cand, d)
        folded = [c.body for c in claims] + list(constraints) + [cand.body]
        oracle = brute_force_satisfiable(folded, d)
        assert (engine is None) == (oracle is not None)


# --- Davis-Putnam elimination pinned by recorded refutations ----------------

REFUTATIONS = Path(__file__).resolve().parent / "fixtures" / "refutations.json"
# Seeds whose refutation, when the fixture was recorded, resolved at least
# 20 clauses, skipped at least 10 subsumed resolvents and kept at least 5
# resolution steps in the proof.
ELIMINATION_SEEDS = (
    1, 5, 8, 14, 19, 21, 24, 38, 40, 51, 53, 57, 61, 62, 77, 81, 84, 85, 86, 87,
    89, 93, 97, 99, 100, 101, 103, 109, 110, 114, 116, 124, 128, 134, 135, 141,
    144, 145, 154, 158,
)


def elimination_case(seed: int):
    """A store of wide claims over 8-16 atoms and a candidate it refutes."""
    rng = random.Random(seed)
    names = [f"g{i}" for i in range(rng.randrange(8, 17))]
    defs = DefinitionSet(atoms={n: 0 for n in names})

    def wide():
        return Or(random_ground_formula(rng, names, 2), random_ground_formula(rng, names, 2))

    claims = tuple(Claim(f"O{i}", wide(), origin=f"b{i}") for i in range(rng.randrange(15, 30)))
    constraints = tuple(wide() for _ in range(rng.randrange(0, 3)))
    cand = Claim("Oc", random_ground_formula(rng, names, 3))
    return claims, constraints, cand, defs


def refutation_doc(seed: int) -> dict:
    claims, constraints, cand, defs = elimination_case(seed)
    r = refute(claims, constraints, cand, defs)
    assert r is not None and r.conclusion == Not(cand.body)
    return {
        "claims": [claims.index(c) for c in r.used_claims],
        "constraints": [constraints.index(g) for g in r.used_constraints],
        "atoms": list(r.atoms),
        "steps": [
            [s.rule, list(s.clause), s.source and list(s.source), s.premises and list(s.premises)]
            for s in r.steps
        ],
    }


def test_elimination_gives_the_recorded_refutations():
    recorded = json.loads(REFUTATIONS.read_text(encoding="utf-8"))
    assert sorted(map(int, recorded)) == sorted(ELIMINATION_SEEDS)
    for seed in ELIMINATION_SEEDS:
        assert refutation_doc(seed) == recorded[str(seed)], seed


# --- the per-formula clause cache on DefinitionSet ---------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_warm_cache_gives_the_cold_refutation(seed):
    rng = random.Random(seed)
    names = [f"g{i}" for i in range(rng.randrange(2, 7))]
    claims = tuple(
        Claim(f"O{i}", random_ground_formula(rng, names, rng.randrange(1, 4)), origin=f"b{i}")
        for i in range(rng.randrange(0, 5))
    )
    constraints = tuple(
        random_ground_formula(rng, names, rng.randrange(1, 3))
        for _ in range(rng.randrange(0, 2))
    )
    cand = Claim("Oc", random_ground_formula(rng, names, rng.randrange(1, 4)))
    warm = DefinitionSet(atoms={n: 0 for n in names})
    # fill the cache from calls that number the atoms in another order
    store_consistent(claims[::-1], constraints, warm)
    refute((), (), cand, warm)
    cold = DefinitionSet(atoms={n: 0 for n in names})
    assert refute(claims, constraints, cand, warm) == refute(claims, constraints, cand, cold)


def test_failed_grounding_is_not_cached():
    d = basic_defs()
    cand = Claim("O", Atom("undeclared", (Constant("A"),)))
    for _ in range(2):
        with pytest.raises(UnknownSymbol):
            refute((), (), cand, d)


def test_cache_is_per_definition_set():
    # same formula, same domain name, different members: no shared entry
    constraint = ForAll("x", "D", Atom("p", (Var("x"),)))
    cand = Claim("O", Not(Atom("p", (Constant("b"),))))
    for order in ((1, 2), (2, 1)):
        defs = {n: DefinitionSet(domains={"D": ("a", "b")[:n]}, atoms={"p": 1}) for n in order}
        for n in order:
            refuted = refute((), (constraint,), cand, defs[n]) is not None
            assert refuted == (n == 2)


# --- one-pass clausification against expand, then NNF, then CNF ------------


def _nnf(f, neg: bool):
    if isinstance(f, TrueF):
        return FALSE if neg else TRUE
    if isinstance(f, FalseF):
        return TRUE if neg else FALSE
    if isinstance(f, (Atom, Cmp)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.sub, not neg)
    if isinstance(f, And):
        if neg:
            return Or(_nnf(f.lhs, True), _nnf(f.rhs, True))
        return And(_nnf(f.lhs, False), _nnf(f.rhs, False))
    if isinstance(f, Or):
        if neg:
            return And(_nnf(f.lhs, True), _nnf(f.rhs, True))
        return Or(_nnf(f.lhs, False), _nnf(f.rhs, False))
    if isinstance(f, Implies):
        if neg:
            return And(_nnf(f.lhs, False), _nnf(f.rhs, True))
        return Or(_nnf(f.lhs, True), _nnf(f.rhs, False))
    raise LogicError(f"not residual: {formula_text(f)}")


def _clauses(f, table: dict[str, int]) -> list[frozenset[int]]:
    """Plain distributive CNF of an NNF residual formula, within ``logic.MAX_CLAUSES``."""
    if isinstance(f, TrueF):
        return []
    if isinstance(f, FalseF):
        return [frozenset()]
    if isinstance(f, (Atom, Cmp)):
        return [frozenset({table.setdefault(atom_key(f), len(table)) + 1})]
    if isinstance(f, Not):
        return [frozenset({-(table.setdefault(atom_key(f.sub), len(table)) + 1)})]
    if isinstance(f, And):
        return _clauses(f.lhs, table) + _clauses(f.rhs, table)
    if isinstance(f, Or):
        left = _clauses(f.lhs, table)
        right = _clauses(f.rhs, table)
        if not left or not right:
            # one side is valid, so the disjunction is valid
            return []
        out = []
        for cl in left:
            for cr in right:
                out.append(cl | cr)
                if len(out) > logic.MAX_CLAUSES:
                    raise ResourceLimit("clause budget exceeded in CNF")
        return out
    raise LogicError(f"unexpected connective in NNF: {formula_text(f)}")


def oracle_formula_clauses(f, defs):
    """What ``_formula_clauses`` computed before grounding and clause
    building became one walk: expand, push negations in, distribute."""
    table: dict[str, int] = {}
    clauses = _clauses(_nnf(ground_expand(f, defs), False), table)
    return list(table), [cl for cl in clauses if not _is_tautology(cl)]


DIGEST_OF_S = hashlib.sha256(b"s").hexdigest()


def clause_defs() -> DefinitionSet:
    d = DefinitionSet()
    d.domains["Kids"] = ("A", "B")
    d.domains["Nums"] = (1, 2)
    d.domains["None"] = ()
    d.atoms["paid"] = 1
    d.atoms["p"] = 0
    d.atoms["q"] = 0
    d.atoms["r"] = 2
    d.functions["as_grate"] = FunctionDef("as_grate", 1, params=("x",), body=Var("x"))
    d.functions["rank"] = FunctionDef("rank", 2)
    d.functions["grade_of"] = FunctionDef("grade_of", 1, table={("A",): 12, ("B",): 9})
    d.predicates["at_least"] = PredicateDef("at_least", ("w", "k"), Cmp(">=", Var("w"), Var("k")))
    d.predicates["some_paid"] = PredicateDef(
        "some_paid", (), Exists("z", "Kids", Atom("paid", (Var("z"),)))
    )
    d.predicates["loop"] = PredicateDef("loop", (), Atom("loop"))
    return d


def clause_outcome(clausify, f, budget):
    """Atom keys and clauses as sets of literals, or the error's class and
    text, with the CNF clause budget set to ``budget``."""
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logic, "MAX_CLAUSES", budget)
            names, clauses = clausify(f, clause_defs())
    except LogicError as e:
        return type(e), str(e)
    return list(names), [frozenset(cl) for cl in clauses]


def random_term(rng: random.Random, sort: str, depth: int = 1):
    """A ``sort`` ("sym" or "num") term over ``clause_defs`` once x ranges
    over Kids and y over Nums; now and then a term of the other sort, a
    table miss, a hashlock operand or a free variable."""
    roll = rng.random()
    if roll < 0.05:
        return rng.choice((Constant("Z"), Constant(DIGEST_OF_S), Constant("s"), Var("free")))
    if roll < 0.1:
        sort = "num" if sort == "sym" else "sym"
    if depth <= 0 or roll < 0.6:
        if sort == "sym":
            return rng.choice((Constant("A"), Constant("B"), Var("x")))
        return rng.choice((IntLit(1), IntLit(2), BalanceOf("W"), Var("y")))
    if sort == "sym":
        return FnApp("as_grate", (random_term(rng, "sym", depth - 1),))
    pick = rng.randrange(3)
    if pick == 0:
        return FnApp("add", tuple(random_term(rng, "num", depth - 1) for _ in range(2)))
    if pick == 1:
        return FnApp("grade_of", (random_term(rng, "sym", depth - 1),))
    return FnApp("rank", (random_term(rng, "sym", depth - 1), random_term(rng, "num", depth - 1)))


def random_clause_formula(rng: random.Random, depth: int):
    """A formula over ``clause_defs`` whose free variables are x and y."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        pick = rng.randrange(11)
        if pick == 0:
            return rng.choice((TRUE, FALSE))
        if pick <= 2:
            return rng.choice((Atom("p"), Atom("q"), Atom("some_paid")))
        if pick == 3 and rng.random() < 0.3:
            return rng.choice((Atom("loop"), Atom("undeclared"), Atom("paid")))
        if pick <= 4:
            if rng.random() < 0.5:
                sort = rng.choice(("sym", "num"))
                return Cmp(rng.choice(("=", "!=")), random_term(rng, sort), random_term(rng, sort))
            return Cmp(rng.choice(CMP_OPS), random_term(rng, "num"), random_term(rng, "num"))
        if pick == 5:
            operands = (Constant(DIGEST_OF_S), Constant("s"), Var("x"), BalanceOf("W"))
            return Atom("hashlock", (rng.choice(operands), rng.choice(operands)))
        if pick == 6:
            return Atom("before", (random_term(rng, "num"),))
        if pick == 7:
            return Atom("at_least", (random_term(rng, "num"), random_term(rng, "num")))
        if pick == 8:
            return Atom("r", (random_term(rng, "sym"), random_term(rng, "num")))
        return Atom("paid", (random_term(rng, "sym"),))
    sub = [random_clause_formula(rng, depth - 1) for _ in range(2)]
    if roll < 0.35:
        sub[rng.randrange(2)] = rng.choice((TRUE, FALSE))  # folds under this connective
    if roll < 0.75:
        return rng.choice((And, Or, Implies))(*sub)
    if roll < 0.85:
        return Not(sub[0])
    kind = rng.choice((ForAll, Exists))
    return kind(rng.choice("xy"), rng.choice(("Kids", "Nums", "None")), sub[0])


@settings(max_examples=1000, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_one_pass_clauses_match_the_oracle(seed):
    rng = random.Random(seed)
    f = random_clause_formula(rng, rng.randrange(1, 6))
    for var, domain in (("y", "Nums"), ("x", "Kids")):
        f = rng.choice((ForAll, Exists))(var, domain if rng.random() < 0.9 else "None", f)
    budget = rng.choice((1, 2, 3, 5, 8, MAX_CLAUSES))
    assert clause_outcome(_formula_clauses, f, budget) == clause_outcome(
        oracle_formula_clauses, f, budget
    )


# (p & paid(A)) | (p & r(A, 1)) distributes to four clauses
FOUR_CLAUSES = Or(
    And(Atom("p"), Atom("paid", (Constant("A"),))),
    And(Atom("p"), Atom("r", (Constant("A"), IntLit(1)))),
)


def test_an_overflow_in_a_branch_the_expansion_folds_away_is_no_error():
    assert clause_outcome(_formula_clauses, FOUR_CLAUSES, 3) == (
        ResourceLimit,
        "clause budget exceeded in CNF",
    )
    valid, unsatisfiable = ([], []), ([], [frozenset()])
    for f, want in (
        (Or(FOUR_CLAUSES, TRUE), valid),
        (Implies(FOUR_CLAUSES, TRUE), valid),
        (Exists("x", "Kids", Or(TRUE, FOUR_CLAUSES)), valid),
        (And(FOUR_CLAUSES, FALSE), unsatisfiable),
    ):
        assert clause_outcome(_formula_clauses, f, 3) == want
        assert clause_outcome(oracle_formula_clauses, f, 3) == want


def test_a_grounding_error_wins_over_an_earlier_overflow():
    f = And(FOUR_CLAUSES, Atom("paid", (FnApp("grade_of", (Constant("Z"),)),)))
    want = (UnknownSymbol, "grade_of('Z',) has no table entry")
    assert clause_outcome(_formula_clauses, f, 3) == want
    assert clause_outcome(oracle_formula_clauses, f, 3) == want


def test_scenario_formulas_clausify_as_the_oracle_does():
    # claim bodies, constraints and closed guards of every bundled scenario
    root = Path(__file__).resolve().parents[1]
    seen = 0
    for path in sorted((root / "scenarios").glob("*.plu")):
        scenario = parse_scenario(path.read_text(encoding="utf-8"), path.stem)
        defs = scenario.contract.defs
        bodies = list(defs.constraints)
        bodies += [e.claim.body for e in scenario.events if isinstance(e, ClaimEvent)]
        for a in scenario.contract.actions:
            guard = a.transaction.guard
            bodies.append(guard.claim.body if isinstance(guard, ClaimedGuard) else guard.formula)
        for f in bodies:
            names, clauses = _formula_clauses(f, defs)
            want_names, want = oracle_formula_clauses(f, defs)
            assert names == want_names and [frozenset(c) for c in clauses] == want, path.stem
            assert all(len(set(c)) == len(c) for c in clauses)
            seen += 1
    assert seen >= 29


def test_a_quantifier_over_a_large_domain_does_not_recurse_per_member():
    d = DefinitionSet(domains={"Big": tuple(f"m{i}" for i in range(3000))}, atoms={"st": 1})
    st_c = Atom("st", (Var("c"),))
    names, clauses = _formula_clauses(ForAll("c", "Big", Or(Not(st_c), st_c)), d)
    assert len(names) == 3000 and clauses == []
    assert evaluate(ForAll("c", "Big", Not(st_c)), Model(), d)
    assert not evaluate(Exists("c", "Big", st_c), Model(), d)
    assert evaluate(Exists("c", "Big", st_c), Model(asserted={("st", ("m2999",))}), d)


def test_a_clause_overflow_over_a_large_domain_is_a_resource_limit():
    # the retry after the overflow walks the expansion, a chain as long as the domain
    d = DefinitionSet(domains={"Big": tuple(f"m{i}" for i in range(1200))}, atoms={"st": 1, "lt": 1})
    body = Exists("c", "Big", And(Atom("st", (Var("c"),)), Atom("lt", (Var("c"),))))
    with pytest.raises(ResourceLimit, match="clause budget exceeded in CNF"):
        _formula_clauses(body, d)


def test_enumeration_over_a_large_domain_is_a_resource_limit():
    # the atom walk runs before the limit check, over a chain as long as the domain
    d = DefinitionSet(domains={"Big": tuple(f"m{i}" for i in range(1200))}, atoms={"st": 1})
    with pytest.raises(ResourceLimit, match="1200 atoms exceeds enumeration limit 22"):
        brute_force_satisfiable([Exists("c", "Big", Atom("st", (Var("c"),)))], d)


def stacked_definitions(base, wrap) -> DefinitionSet:
    """Twelve predicates, each ``wrap`` of the one before, the first of ``base``."""
    d = DefinitionSet(atoms={"p": 0, "q": 0})
    for i in range(12):
        body = wrap(Atom(f"q{i - 1}") if i else base)
        d.predicates[f"q{i}"] = PredicateDef(f"q{i}", (), body)
    return d


def negations(f, n=90):
    for _ in range(n):
        f = Not(f)
    return f


def conjunction(f, n=90):
    for _ in range(n):
        f = And(f, Atom("q"))
    return f


def test_definitions_stacked_past_the_bound_expand_and_evaluate_without_deep_recursion():
    d = stacked_definitions(Atom("p"), negations)
    assert evaluate(Atom("q11"), Model(asserted={("p", ())}), d)
    assert not evaluate(Atom("q11"), Model(), d)
    assert residual_atoms(ground_expand(Atom("q11"), d)) == ["p"]
    assert ground_expand(Atom("q11"), stacked_definitions(TrueF(), negations)) == TrueF()
    d = stacked_definitions(Atom("p"), conjunction)
    assert evaluate(Atom("q11"), Model(asserted={("p", ()), ("q", ())}), d)
    assert not evaluate(Atom("q11"), Model(asserted={("p", ())}), d)
    assert residual_atoms(ground_expand(Atom("q11"), d)) == ["p", "q"]


# --- eval_residual against the recursive reader it replaced -----------------


def recursive_eval_residual(f, assignment: dict[str, bool]) -> bool:
    """Truth of a residual formula under an explicit atom assignment.

    The reader ``eval_residual`` replaced, kept as its oracle.  It recurses
    once per chain link, so it reads only formulas of moderate depth.
    """
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, (Atom, Cmp)):
        key = atom_key(f)
        if key not in assignment:
            raise LogicError(f"assignment is missing atom {key}")
        return assignment[key]
    if isinstance(f, Not):
        return not recursive_eval_residual(f.sub, assignment)
    if isinstance(f, And):
        return recursive_eval_residual(f.lhs, assignment) and recursive_eval_residual(
            f.rhs, assignment
        )
    if isinstance(f, Or):
        return recursive_eval_residual(f.lhs, assignment) or recursive_eval_residual(
            f.rhs, assignment
        )
    if isinstance(f, Implies):
        return (not recursive_eval_residual(f.lhs, assignment)) or recursive_eval_residual(
            f.rhs, assignment
        )
    raise LogicError(f"not residual: {formula_text(f)}")


RESIDUAL_ATOMS = (
    Atom("p"),
    Atom("q"),
    Atom("paid", (Constant("A"),)),
    Cmp("<", BalanceOf("W"), IntLit(3)),
)


def random_residual(rng: random.Random, depth: int):
    """A residual formula over RESIDUAL_ATOMS: now and then a constant, a
    chain of up to 30 operands, or a quantifier, which is not residual."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        pick = rng.random()
        if pick < 0.1:
            return rng.choice((TRUE, FALSE))
        if pick < 0.13:
            return ForAll("x", "Kids", Atom("p"))
        return rng.choice(RESIDUAL_ATOMS)
    if roll < 0.45:
        return Not(random_residual(rng, depth - 1))
    if roll < 0.55:
        operands = [random_residual(rng, depth - 1) for _ in range(rng.randrange(2, 31))]
        return functools.reduce(rng.choice((And, Or)), operands)
    kind = rng.choice((And, Or, Implies))
    return kind(random_residual(rng, depth - 1), random_residual(rng, depth - 1))


def residual_outcome(read, f, assignment):
    """The truth value ``read`` gives, or the error's class and text."""
    try:
        return read(f, assignment)
    except LogicError as e:
        return type(e), str(e)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_eval_residual_reads_as_the_recursive_oracle(seed):
    rng = random.Random(seed)
    f = random_residual(rng, rng.randrange(1, 6))
    # now and then an atom is left out of the assignment
    assignment = {atom_key(a): rng.random() < 0.5 for a in RESIDUAL_ATOMS if rng.random() < 0.9}
    assert residual_outcome(eval_residual, f, assignment) == residual_outcome(
        recursive_eval_residual, f, assignment
    )


def test_eval_residual_reads_a_long_chain_without_recursion():
    atoms = [Atom("st", (Constant(f"m{i}"),)) for i in range(3000)]
    assignment = {atom_key(a): False for a in atoms}
    assert not eval_residual(functools.reduce(Or, atoms), assignment)
    assignment[atom_key(atoms[-1])] = True
    assert eval_residual(functools.reduce(Or, atoms), assignment)
    assert eval_residual(Not(functools.reduce(And, [Not(a) for a in atoms])), assignment)


# ---------------------------------------------------------------------------
# minimize_conflict


def minimal_unsat_subsets(claims, constraints, cand, d):
    """All subset-minimal S with S + constraints + candidate unsatisfiable."""
    import itertools

    out = []
    for k in range(len(claims) + 1):
        for combo in itertools.combinations(range(len(claims)), k):
            chosen = [claims[i] for i in combo]
            folded = [c.body for c in chosen] + list(constraints) + [cand.body]
            if brute_force_satisfiable(folded, d) is None:
                if not any(set(prev) <= set(combo) for prev in out):
                    out.append(combo)
    return out


def test_minimize_drops_unrelated_claims():
    d = basic_defs()
    noise = Claim("Omega_N", Atom("q"), origin="b0")
    stored = Claim("Omega_Y", Not(Atom("license", (Constant("A"),))), origin="b1")
    cand = Claim("Omega_X", Atom("license", (Constant("A"),)))
    cert = minimize_conflict((noise, stored), (), cand, d)
    assert cert.conflict == (stored,)
    assert cert.candidate == cand
    assert cert.conflicting_claims == (cand, stored)
    assert cert.authorities == ("Omega_X", "Omega_Y")
    oracle = minimal_unsat_subsets((noise, stored), (), cand, d)
    assert oracle == [(1,)]


def test_minimize_empty_conflict_for_self_contradiction():
    d = basic_defs()
    cand = Claim("Omega", And(Atom("p"), Not(Atom("p"))))
    cert = minimize_conflict((Claim("O1", Atom("q"), origin="b0"),), (), cand, d)
    assert cert.conflict == ()


def test_minimize_requires_a_conflict():
    d = basic_defs()
    assert minimize_conflict((), (), Claim("O", Atom("p")), d) is None


def test_minimized_conflicts_match_subset_oracle():
    rng = random.Random(1234)
    found = 0
    for _ in range(200):
        n_atoms = rng.randrange(2, 6)
        names = [f"g{i}" for i in range(n_atoms)]
        d = DefinitionSet(atoms={n: 0 for n in names})
        claims = tuple(
            Claim(f"O{i}", random_ground_formula(rng, names, 2), origin=f"b{i}")
            for i in range(rng.randrange(1, 5))
        )
        cand = Claim("Oc", random_ground_formula(rng, names, 2))
        if refute(claims, (), cand, d) is None:
            continue
        found += 1
        cert = minimize_conflict(claims, (), cand, d)
        chosen = tuple(claims.index(c) for c in cert.conflict)
        minimal = minimal_unsat_subsets(claims, (), cand, d)
        assert chosen in minimal, (chosen, minimal)
    assert found > 20  # the sample actually exercised conflicts


# --- locality: claims over fresh atoms change no certificate ----------------


def satisfied_formula(rng, names, model):
    """A random formula over ``names`` that ``model`` makes true."""
    f = random_ground_formula(rng, names, rng.randrange(1, 4))
    return f if eval_residual(f, model) else Not(f)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_claims_over_fresh_atoms_leave_the_certificate_unchanged(seed):
    # a consistent store and constraints over atoms A refute a candidate
    # over A; claims over fresh atoms B, consistent among themselves and
    # in no constraint, never meet A's clauses, so neither the refutation
    # nor the minimized certificate may change wherever they are inserted
    rng = random.Random(seed)
    pool = [f"x{i}" for i in range(rng.randrange(4, 11))]
    rng.shuffle(pool)  # A and B interleave in name order too
    cut = rng.randrange(2, len(pool) - 1)
    a_names, b_names = pool[:cut], pool[cut:]
    d = DefinitionSet(atoms={n: 0 for n in pool})
    model_a = {n: rng.random() < 0.5 for n in a_names}
    model_b = {n: rng.random() < 0.5 for n in b_names}
    store = [
        Claim(f"O{i}", satisfied_formula(rng, a_names, model_a), origin=f"b{i}")
        for i in range(rng.randrange(1, 6))
    ]
    constraints = tuple(satisfied_formula(rng, a_names, model_a) for _ in range(rng.randrange(0, 3)))
    for _ in range(20):
        cand = Claim("Oc", random_ground_formula(rng, a_names, rng.randrange(1, 4)))
        if refute(store, constraints, cand, d) is not None:
            break
    else:
        cand = Claim("Oc", Not(rng.choice(store).body))
    before = refute(store, constraints, cand, d)
    text = certificate_to_text(minimize_conflict(store, constraints, cand, d))

    extended = list(store)
    for j in range(rng.randrange(1, 6)):
        fresh = Claim(f"P{j}", satisfied_formula(rng, b_names, model_b), origin=f"f{j}")
        extended.insert(rng.randrange(len(extended) + 1), fresh)
    try:
        after = refute(extended, constraints, cand, d)
        again = certificate_to_text(minimize_conflict(extended, constraints, cand, d))
    except ResourceLimit:  # MAX_ATOMS or MAX_CLAUSES over the whole store: the one exception
        return
    assert after == before
    assert again == text


def test_store_consistency_probe():
    d = basic_defs()
    ok = (Claim("O1", Atom("p"), origin="b0"),)
    bad = ok + (Claim("O2", Not(Atom("p")), origin="b1"),)
    assert store_consistent(ok, (), d)
    assert not store_consistent(bad, (), d)


def test_claim_rendering():
    c = Claim("Omega_s", rank_eq("A", 1))
    assert claim_text(c) == "claim Omega_s: (rank(C, A) = 1)"


if __name__ == "__main__":
    # Rewrites the recorded refutations; a change to them is a change of
    # the elimination's output, like a golden-file update.
    REFUTATIONS.parent.mkdir(exist_ok=True)
    docs = {str(seed): refutation_doc(seed) for seed in ELIMINATION_SEEDS}
    REFUTATIONS.write_text(json.dumps(docs, indent=1) + "\n", encoding="utf-8")
