"""Grammar, contract validation and round-trip printing."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurality.blocktree import OracleConfig
from plurality.logic import (
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
    FnApp,
    ForAll,
    FunctionDef,
    Implies,
    IntLit,
    Not,
    Or,
    PredicateDef,
    Var,
    formula_text,
)
from plurality.syntax import (
    Action,
    Agent,
    ArityError,
    ClaimedGuard,
    ClaimEvent,
    ClosedGuard,
    Contract,
    DuplicateAgent,
    DuplicateBinding,
    DuplicateDefinition,
    ForwardDependency,
    NonPositiveAmount,
    ParseError,
    Scenario,
    SourceIsSink,
    SubmitEvent,
    Transaction,
    UncomputableGuard,
    UndeclaredName,
    UnknownAgent,
    UnknownBinding,
    UnknownEventKind,
    parse_contract,
    parse_formula,
    parse_scenario,
    pretty_print,
)


def action(contract, binding: str) -> Action:
    """The action ``contract`` binds to ``binding``."""
    return next(a for a in contract.actions if a.binding == binding)


FAIR = """
# weekly pocket money, split fairly
agent F balance 50
agent W
agent A
agent B

issue x = tx F -(50)[true]-> W
after [x] issue y = tx W -(20)[true]-> A
after [x] issue z = tx W -(20)[true]-> B
"""

STUDIOUS = """
agent F balance 50
agent W
agent A
agent School balance 25
agent S_A
function as_grate(g) = g

issue x = tx F -(50)[true]-> W
issue s = tx School -(12)[true]-> S_A
after [x, s] issue y = tx W -(20)[as_grate(|S_A|) > 10]-> A
after [x, s] issue z = tx W -(10)[!(as_grate(|S_A|) > 10)]-> A
"""

EVIDENTIAL = """
agent P balance 10
agent A
oracle Omega_X
atom license(holder)

issue a = tx P -(10)[claim Omega_X: license(A)]-> A
"""

COMPETITIVE_V2 = """
agent W balance 30
agent A
agent B
oracle Omega_s
domain Students = { A, B }
domain Positions = { 1, 2 }
function rank(class, student)
constraint forall i in Positions . forall s in Students . forall t in Students . ((s != t) -> !((rank(C, s) = i) & (rank(C, t) = i)))

issue x = tx W -(1)[true]-> A
issue a = tx W -(20)[claim Omega_s: rank(C, A) = 1]-> A
issue b = tx W -(10)[claim Omega_s: rank(C, B) = 1]-> B
"""


def test_parse_fair_contract():
    c = parse_contract(FAIR)
    assert [a.id for a in c.agents] == ["F", "W", "A", "B"]
    assert c.agent("F").balance == 50
    assert len(c.actions) == 3
    x, y, z = c.actions
    assert x == Action("x", (), Transaction("F", 50, ClosedGuard(TRUE), "W"))
    assert y.deps == ("x",)
    assert z.transaction.sink == "B"


def test_parse_claimed_guard():
    c = parse_contract(EVIDENTIAL)
    (a,) = c.actions
    guard = a.transaction.guard
    assert isinstance(guard, ClaimedGuard)
    assert guard.claim == Claim("Omega_X", Atom("license", (AgentRef("A"),)))


def test_empty_contract_with_declarations():
    c = parse_contract("agent A\nagent B\n")
    assert c.actions == ()
    assert len(c.agents) == 2


def test_studious_guard_shape():
    c = parse_contract(STUDIOUS)
    y = action(c, "y")
    assert y.transaction.guard == ClosedGuard(
        Cmp(">", FnApp("as_grate", (BalanceOf("S_A"),)), IntLit(10))
    )


def test_a_parsed_definition_set_is_frozen():
    defs = parse_contract(COMPETITIVE_V2).defs
    for name in [f.name for f in dataclasses.fields(defs)] + ["constraint_texts"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(defs, name, getattr(defs, name))


def test_uninterpreted_functions_allowed_in_claims_only():
    c = parse_contract(COMPETITIVE_V2)
    assert c.defs.functions["rank"].kind == "uninterpreted"
    assert len(c.defs.constraints) == 1
    bad = COMPETITIVE_V2 + "\nissue w = tx W -(1)[rank(C, A) = 1]-> B\n"
    with pytest.raises(UncomputableGuard):
        parse_contract(bad)


@pytest.mark.parametrize(
    "guard,first",
    [
        ("(k(u(1), v(2)) = 1) & (w(3) = 1)", "u"),
        ("(k(1, v(2)) = u(1)) | (w(3) = 1)", "v"),
        ("!(exists x in D . w(x) = 1) -> (u(1) = 2)", "w"),
        ("forall x in D . (k(x, 1) = 1) & !(v(x) = u(x))", "v"),
    ],
)
def test_an_uncomputable_guard_names_its_first_uninterpreted_function(guard, first):
    head = "agent A\nagent B\ndomain D = { 1 }\nfunction k(x, y) = x\nfunction u(x)\nfunction v(x)\nfunction w(x)\n"
    with pytest.raises(UncomputableGuard, match=f"uninterpreted function '{first}'"):
        parse_contract(head + f"issue x = tx A -(1)[{guard}]-> B\n")


@pytest.mark.parametrize(
    "source,err",
    [
        ("agent A\nagent A\n", DuplicateAgent),
        ("agent K_t\n", DuplicateAgent),
        ("oracle Theta\n", DuplicateAgent),
        ("agent A\nagent B\nissue x = tx A -(1)[true]-> B\nissue x = tx B -(1)[true]-> A\n", DuplicateBinding),
        ("agent A\nissue x = tx A -(1)[true]-> Z\n", UnknownAgent),
        ("agent A\nagent B\nissue x = tx A -(1)[claim Nobody: true]-> B\n", UnknownAgent),
        ("agent A\nagent B\nafter [y] issue x = tx A -(1)[true]-> B\n", ForwardDependency),
        ("agent A\nissue x = tx A -(5)[true]-> A\n", SourceIsSink),
        ("agent A\nagent B\nissue x = tx A -(0)[true]-> B\n", NonPositiveAmount),
        ("agent A\nagent B\nissue x = tx A -(1)[mystery(A)]-> B\n", UndeclaredName),
        ("agent A\nagent B\nissue x = tx A -(1)[forall v in Nowhere . true]-> B\n", UndeclaredName),
        ("agent A\nagent B\natom paid(k)\nissue x = tx A -(1)[paid(A, B)]-> B\n", ArityError),
        ("domain D = { 1 }\ndomain D = { 2 }\n", DuplicateDefinition),
        ("function f(x) = x\nmap f(1) = 2\n", DuplicateDefinition),
        ("oracle O balance 5\n", ParseError),
    ],
)
def test_contract_rejections(source, err):
    with pytest.raises(err):
        parse_contract(source)


def test_scenario_only_statements_rejected_in_contracts():
    with pytest.raises(ParseError):
        parse_contract("agent A\nseed 3\n")
    with pytest.raises(ParseError):
        parse_contract(FAIR + "at 1 submit x\n")


@pytest.mark.parametrize(
    "extra,err",
    [
        ("at 1 dance x\n", UnknownEventKind),
        ("at 1 submit nosuch\n", UnknownBinding),
        ("at 1 submit x by Nobody\n", UnknownAgent),
        ("at 1 claim Nobody: true\n", UnknownAgent),
        ("tokens frugal 1\ntokens prodigal\n", DuplicateDefinition),
        ("seed 1\nseed 2\n", DuplicateDefinition),
        ("fact undeclared_thing\n", UndeclaredName),
        ("atom wet(t)\nfact wet(a, b)\n", ArityError),
    ],
)
def test_scenario_rejections(extra, err):
    with pytest.raises(err):
        parse_scenario(FAIR + extra)


def test_scenario_defaults_and_events():
    s = parse_scenario(FAIR)
    assert s.oracle == OracleConfig.frugal(1)
    assert s.seed == 0 and s.horizon == 0
    assert s.events == ()
    assert s.scripted() == frozenset()

    s2 = parse_scenario(
        COMPETITIVE_V2
        + """
tokens frugal 1
seed 7
at 1 claim Omega_s: rank(C, A) = 1
at 1 submit a
at 2 claim second = Omega_s: rank(C, B) = 1
at 2 submit b
"""
    )
    assert s2.seed == 7
    assert s2.horizon == 2
    assert len(s2.events) == 4
    claims = [e for e in s2.events if isinstance(e, ClaimEvent)]
    assert len(claims) == 2
    assert claims[0].label == "claim0"
    assert claims[1].label == "second"
    assert claims[1].claim.authority == "Omega_s"
    assert s2.scripted() == {"a", "b"}


def test_events_sorted_stably_by_tick():
    s = parse_scenario(
        FAIR
        + """
at 3 submit z
at 1 submit y
at 3 submit x
"""
    )
    assert [(e.tick, e.binding) for e in s.events] == [(1, "y"), (3, "z"), (3, "x")]
    assert s.horizon == 3


def test_time_oracle_is_always_an_authority():
    s = parse_scenario("agent A\natom bill_day\nat 1 claim K_t: bill_day\n")
    (e,) = s.events
    assert e.claim.authority == "K_t"


def test_facts_are_collected():
    s = parse_scenario("agent A\natom vip(w)\nfact vip(A)\n")
    assert s.facts == (("vip", ("A",)),)


def test_formula_precedence():
    c = parse_contract("agent A\natom p\natom q\natom r\n")
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse_formula("p -> q -> r", c) == Implies(p, Implies(q, r))
    assert parse_formula("p & q | r", c) == Or(And(p, q), r)
    assert parse_formula("!p & q", c) == And(Not(p), q)
    assert parse_formula("p | q & r", c) == Or(p, And(q, r))
    with pytest.raises(ParseError):
        parse_formula("1 < 2 < 3", c)


def test_balance_bars_do_not_collide_with_or():
    c = parse_contract("agent A\nagent B\n")
    f = parse_formula("|A| < 1 | |B| < 2", c)
    assert f == Or(Cmp("<", BalanceOf("A"), IntLit(1)), Cmp("<", BalanceOf("B"), IntLit(2)))


def test_identifier_resolution():
    c = parse_contract("agent A\natom near(x, y)\n")
    f = parse_formula("forall v in D . near(v, A)", parse_contract("agent A\natom near(x, y)\ndomain D = { A }\n"))
    assert f == ForAll("v", "D", Atom("near", (Var("v"), AgentRef("A"))))
    g = parse_formula("near(someplace, A)", parse_contract("agent A\natom near(x, y)\n"))
    assert g == Atom("near", (Constant("someplace"), AgentRef("A")))


def test_negative_integers_and_strings():
    c = parse_contract("agent A\natom tagged(x)\n")
    assert parse_formula("|A| > -5", c) == Cmp(">", BalanceOf("A"), IntLit(-5))
    assert parse_formula('tagged("hello world")', c) == Atom(
        "tagged", (Constant("hello world"),)
    )


def test_roundtrip_example_contracts():
    for source in (FAIR, STUDIOUS, EVIDENTIAL, COMPETITIVE_V2):
        c = parse_contract(source)
        printed = pretty_print(c)
        assert parse_contract(printed) == c
        # printing is a fixpoint
        assert pretty_print(parse_contract(printed)) == printed


# ---------------------------------------------------------------------------
# randomized round-trip


def _random_term(rng, bound, *, ints_only=False, depth=2):
    if ints_only or rng.random() < 0.3:
        return IntLit(rng.randrange(-9, 50))
    roll = rng.randrange(6 if depth > 0 else 5)
    if roll == 0:
        return Constant(rng.choice(("c1", "c2", "red", "blue")))
    if roll == 1:
        return AgentRef(rng.choice(("W", "A", "B")))
    if roll == 2:
        return BalanceOf(rng.choice(("W", "A", "B")))
    if roll == 3 and bound:
        return Var(rng.choice(sorted(bound)))
    if roll == 4:
        return Constant(rng.choice(("c3", "c4")))
    name = rng.choice(("idf", "uf", "add", "sub"))
    if name in ("add", "sub"):
        args = (_random_term(rng, bound, depth=depth - 1), _random_term(rng, bound, depth=depth - 1))
    else:
        args = (_random_term(rng, bound, depth=depth - 1),)
    return FnApp(name, args)


def _random_formula(rng, bound, depth, *, computable=False):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.randrange(4)
        if roll == 0:
            return rng.choice((TRUE, FALSE))
        if roll == 1:
            return Atom("pb")
        if roll == 2:
            return Atom("pa", (_random_term(rng, bound, depth=1),))
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        return Cmp(op, _random_term(rng, bound, depth=1), _random_term(rng, bound, depth=1))
    roll = rng.randrange(6)
    if roll == 0:
        return Not(_random_formula(rng, bound, depth - 1, computable=computable))
    if roll == 1:
        return And(
            _random_formula(rng, bound, depth - 1, computable=computable),
            _random_formula(rng, bound, depth - 1, computable=computable),
        )
    if roll == 2:
        return Or(
            _random_formula(rng, bound, depth - 1, computable=computable),
            _random_formula(rng, bound, depth - 1, computable=computable),
        )
    if roll == 3:
        return Implies(
            _random_formula(rng, bound, depth - 1, computable=computable),
            _random_formula(rng, bound, depth - 1, computable=computable),
        )
    var = f"v{len(bound)}"
    kind = ForAll if roll == 4 else Exists
    return kind(
        var,
        rng.choice(("D1", "D2")),
        _random_formula(rng, bound | {var}, depth - 1, computable=computable),
    )


def _strip_uninterpreted(rng, f, bound):
    # closed guards cannot mention uf; just regenerate atoms as needed
    return Cmp("<", BalanceOf("W"), IntLit(rng.randrange(100)))


def _random_contract(rng) -> Contract:
    defs = DefinitionSet()
    defs.domains["D1"] = ("A", "B")
    defs.domains["D2"] = (1, 2, 3)
    defs.functions["idf"] = FunctionDef("idf", 1, params=("x",), body=Var("x"))
    defs.functions["uf"] = FunctionDef("uf", 1, params=("y",))
    defs.atoms["pa"] = 1
    defs.atoms["pb"] = 0
    defs.predicates["pr"] = PredicateDef(
        "pr", ("u",), _random_formula(rng, {"u"}, 2)
    )
    constraints = tuple(
        _random_formula(rng, set(), rng.randrange(0, 4)) for _ in range(rng.randrange(0, 3))
    )
    defs = dataclasses.replace(defs, constraints=constraints)
    agents = (
        Agent("W", "wallet", rng.randrange(0, 100)),
        Agent("A", "wallet", 0),
        Agent("B", "wallet", rng.randrange(0, 10)),
        Agent("Om", "oracle", 0),
    )
    actions = []
    for i in range(rng.randrange(0, 5)):
        source, sink = rng.sample(["W", "A", "B"], 2)
        if rng.random() < 0.5:
            guard = ClosedGuard(_strip_uninterpreted(rng, None, set()))
        else:
            guard = ClaimedGuard(
                Claim(rng.choice(("Om", "W", "K_t")), _random_formula(rng, set(), 2))
            )
        deps = tuple(a.binding for a in actions if rng.random() < 0.3)
        actions.append(
            Action(f"b{i}", deps, Transaction(source, rng.randrange(1, 60), guard, sink))
        )
    return Contract(agents=agents, defs=defs, actions=tuple(actions))


def test_random_roundtrip():
    rng = random.Random(2024)
    for _ in range(150):
        c = _random_contract(rng)
        printed = pretty_print(c)
        back = parse_contract(printed)
        assert back == c, printed


def test_formula_text_reparses():
    rng = random.Random(31)
    ctx = _random_contract(rng)
    for _ in range(300):
        f = _random_formula(rng, set(), 4)
        assert parse_formula(formula_text(f), ctx) == f


# ---------------------------------------------------------------------------
# property: the nesting bound holds for the canonical text as documented


def canonical_nesting(f) -> int:
    """Levels ``formula_text(f)`` nests, counted as docs/format.md says."""
    if isinstance(f, (And, Or, Implies)):
        return 1 + max(canonical_nesting(f.lhs), 1 + canonical_nesting(f.rhs))
    if isinstance(f, Not):
        return 1 + canonical_nesting(f.sub)
    if isinstance(f, (ForAll, Exists)):
        return 2 + canonical_nesting(f.body)
    if isinstance(f, Cmp):
        return 1 + max(_term_nesting(f.lhs), _term_nesting(f.rhs))
    if isinstance(f, Atom):
        return _term_nesting(FnApp(f.name, f.args))
    return 0


def _term_nesting(t) -> int:
    if isinstance(t, FnApp) and t.args:
        return 1 + max(_term_nesting(a) for a in t.args)
    return 0


def _spine(rng, bound, length):
    """A formula with one path of ``length`` connectives and quantifiers."""
    if length <= 0:
        return _random_formula(rng, bound, 1)
    roll = rng.randrange(5)
    if roll == 0:
        return Not(_spine(rng, bound, length - 1))
    if roll < 4:
        kind, side = (And, Or, Implies)[roll - 1], _random_formula(rng, bound, 1)
        inner = _spine(rng, bound, length - 1)
        return kind(inner, side) if rng.random() < 0.5 else kind(side, inner)
    var = f"v{len(bound)}"
    kind = rng.choice((ForAll, Exists))
    return kind(var, rng.choice(("D1", "D2")), _spine(rng, bound | {var}, length - 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_canonical_text_nests_as_documented(seed):
    rng = random.Random(seed)
    ctx = _random_contract(rng)
    f = _spine(rng, set(), rng.randrange(40, 80))
    if canonical_nesting(f) <= 100:
        assert parse_formula(formula_text(f), ctx) == f
    else:
        with pytest.raises(ParseError) as info:
            parse_formula(formula_text(f), ctx)
        assert info.value.msg == "formula nests deeper than 100 levels"


# ---------------------------------------------------------------------------
# property: printed text reparses however it is spaced and commented

# The documented tokens; anything else is a one-character operator.
_TOKEN_TEXT = re.compile(r'"(?:[^"\\]|\\[\s\S])*"|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|->|<=|>=|!=|:=|\S')
_SEPARATORS = (" ", "\n", "\t", "\r\n", "\n\n  ", ' # "quoted" #, back\\slash\n', "  #\n")
_STRINGS = st.lists(
    st.text(alphabet='ab1 #"\\\n\t.(', max_size=6), min_size=1, max_size=4, unique=True
)


def _respaced(text: str, rnd: random.Random) -> str:
    """``text`` with a random blank, line break or comment after every token."""
    return "".join(tok + rnd.choice(_SEPARATORS) for tok in _TOKEN_TEXT.findall(text))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), strings=_STRINGS, rnd=st.randoms(use_true_random=False))
def test_printed_contracts_reparse_however_spaced(seed, strings, rnd):
    c = _random_contract(random.Random(seed))
    c.defs.domains["D3"] = tuple(strings)
    c.defs.functions["tag"] = FunctionDef(
        "tag", 1, table={(s,): strings[-1 - i] for i, s in enumerate(strings)}
    )
    c.defs = dataclasses.replace(
        c.defs, constraints=c.defs.constraints + (Atom("pa", (Constant(strings[0]),)),)
    )
    printed = pretty_print(c)
    assert parse_contract(printed) == c
    assert parse_contract(_respaced(printed, rnd)) == c


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), strings=_STRINGS, rnd=st.randoms(use_true_random=False))
def test_printed_formulas_reparse_however_spaced(seed, strings, rnd):
    rng = random.Random(seed)
    ctx = _random_contract(rng)
    f = _random_formula(rng, set(), 4)
    for s in strings:
        f = And(f, Atom("pa", (Constant(s),)))
    assert parse_formula(formula_text(f), ctx) == f
    assert parse_formula(_respaced(formula_text(f), rnd), ctx) == f
