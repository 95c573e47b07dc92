"""Ground first-order logic for guard evaluation and claim refutation.

Formulas range over finite declared domains with integer and symbolic
terms, so everything here is decidable by construction: quantifiers
expand over finite member lists, predicate definitions are stratified
and non-recursive, and refutation reduces to propositional reasoning
over a bounded universe of ground atoms.

There is one ground expansion and two readings of the residual atoms
it leaves.  Closed guards read them against a concrete chain state with
closed-world negation (an atom not asserted is false).  Claims endorsed
by an authority are instead tested for *discord*: a claim is accepted
unless the current claim store refutes it, and no closed-world
assumption is applied inside that refutation, where each residual atom
is a propositional variable.  The refutation engine emits a
step-by-step resolution trace so a conflict can be re-checked without
trusting the search.
"""

from __future__ import annotations

import hashlib
import operator
import re
from collections.abc import Mapping, Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property


class LogicError(Exception):
    pass


class UnknownSymbol(LogicError):
    """A predicate, function, domain or wallet that was never declared."""


class NonGround(LogicError):
    """A free variable survived to evaluation."""


class StratificationViolation(LogicError):
    """A predicate or function definition depends on itself."""


class TypeMismatch(LogicError):
    """Ill-typed term operation, e.g. ordering two symbols."""


class ResourceLimit(LogicError):
    """Atom universe or clause budget exceeded during refutation."""


Value = str | int

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Constant(Term):
    value: str


@dataclass(frozen=True, slots=True)
class IntLit(Term):
    value: int


@dataclass(frozen=True, slots=True)
class AgentRef(Term):
    agent: str


@dataclass(frozen=True, slots=True)
class BalanceOf(Term):
    wallet: str


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class FnApp(Term):
    name: str
    args: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True, slots=True)
class FalseF(Formula):
    pass


class _Keyed(Formula):
    __slots__ = ("_key",)  # atom_key's text: a slot, not a field, so never built or compared


@dataclass(frozen=True, slots=True)
class Atom(_Keyed):
    name: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Cmp(_Keyed):
    op: str  # "=", "!=", "<", "<=", ">", ">="
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class ForAll(Formula):
    var: str
    domain: str
    body: Formula


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    var: str
    domain: str
    body: Formula


TRUE = TrueF()
FALSE = FalseF()

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class Claim:
    """A formula endorsed by an accountable authority."""

    authority: str
    body: Formula
    origin: str = "submitted"


# ---------------------------------------------------------------------------
# Canonical text rendering (one syntax shared by parser, hashes, atom keys)


def term_text(t: Term) -> str:
    if isinstance(t, Constant):
        if _IDENT.match(t.value):
            return t.value
        escaped = t.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, AgentRef):
        return t.agent
    if isinstance(t, BalanceOf):
        return f"|{t.wallet}|"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, FnApp):
        inner = ", ".join(term_text(a) for a in t.args)
        return f"{t.name}({inner})"
    raise TypeError(f"not a term: {t!r}")


def formula_text(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, _Keyed):
        return atom_key(f)
    if isinstance(f, Not):
        return "!" + formula_text(f.sub)
    if isinstance(f, And):
        return f"({formula_text(f.lhs)} & {formula_text(f.rhs)})"
    if isinstance(f, Or):
        return f"({formula_text(f.lhs)} | {formula_text(f.rhs)})"
    if isinstance(f, Implies):
        return f"({formula_text(f.lhs)} -> {formula_text(f.rhs)})"
    if isinstance(f, ForAll):
        return f"(forall {f.var} in {f.domain} . {formula_text(f.body)})"
    if isinstance(f, Exists):
        return f"(exists {f.var} in {f.domain} . {formula_text(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


def atom_key(f: Atom | Cmp) -> str:
    """Canonical text of an atom or comparison, rendered once per node."""
    try:
        return f._key
    except AttributeError:
        if type(f) is Cmp:
            key = f"({term_text(f.lhs)} {f.op} {term_text(f.rhs)})"
        else:
            key = f"{f.name}({', '.join(map(term_text, f.args))})" if f.args else f.name
        object.__setattr__(f, "_key", key)  # past the frozen class's __setattr__
        return key


def claim_text(c: Claim) -> str:
    return f"claim {c.authority}: {formula_text(c.body)}"


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class FunctionDef:
    """One of three function flavours.

    parametric   params + body term, unfolded on use (e.g. identity)
    table        finite map from ground argument tuples to values
    uninterpreted declared arity only; usable inside claims, where it
                  stays symbolic, but not inside closed guards
    """

    name: str
    arity: int
    params: tuple[str, ...] | None = None
    body: Term | None = None
    table: dict[tuple[Value, ...], Value] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        if self.body is not None:
            return "parametric"
        if self.table:
            return "table"
        return "uninterpreted"


@dataclass
class PredicateDef:
    name: str
    params: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class DefinitionSet:
    """Domains, defined symbols and integrity constraints of a scenario.

    Frozen: the parser builds it once, after its last statement, and no
    field is rebound after that, so nothing derived from it is ever
    invalidated.  Code that needs other constraints builds another one
    with ``dataclasses.replace``, which starts with empty caches.  The
    tables (domains, functions, predicates, atoms) are filled before
    the first ``refute`` or certificate check and not changed after.

    ``refute`` caches, per formula, what it derives from one claim body
    or constraint alone: the formula's ground atom keys in
    first-occurrence order and its non-tautological clauses over local
    1-based atom ids.  Consistency checks keep the claims each block id
    adds with their atom keys (``_block_claims``).  ``_audit_cache``
    holds the auditor's immutable record of ``constraints`` under that
    tuple's ``id``; a check against any other tuple builds its own record
    and drops it.  ``constraint_texts`` and ``constraint_clause_atoms``
    are computed on first use.
    """

    domains: dict[str, tuple[Value, ...]] = field(default_factory=dict)
    functions: dict[str, FunctionDef] = field(default_factory=dict)
    predicates: dict[str, PredicateDef] = field(default_factory=dict)
    atoms: dict[str, int] = field(default_factory=dict)  # open atoms: name -> arity
    constraints: tuple[Formula, ...] = ()
    _clause_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _audit_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _block_claims: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def constraint_texts(self) -> dict[str, Formula]:
        """Each constraint by its canonical text."""
        return {formula_text(g): g for g in self.constraints}

    @cached_property
    def constraint_clause_atoms(self) -> list[list[str]]:
        """The atom keys of each constraint clause, constraints in order."""
        compiled = [_formula_clauses(g, self) for g in self.constraints]
        return [[names[abs(lit) - 1] for lit in cl] for names, clauses in compiled for cl in clauses]

    def domain_members(self, name: str) -> tuple[Value, ...]:
        try:
            return self.domains[name]
        except KeyError:
            raise UnknownSymbol(f"domain {name!r} is not declared") from None

    def atom_arity(self, name: str) -> int | None:
        if name in self.atoms:
            return self.atoms[name]
        if name in RESERVED_ATOMS:
            return RESERVED_ATOMS[name]
        return None


# Builtins.  hashlock/before are rigid-but-special predicates; the three
# arithmetic helpers keep amounts integer-only.
BUILTIN_FUNCTIONS = {"add": 2, "sub": 2, "mul": 2}
BUILTIN_PREDICATES = {"hashlock": 2, "before": 1}
# Bookkeeping atoms asserted by the chain itself.
RESERVED_ATOMS = {"updates": 3, "published": 1, "valid": 1}


@dataclass
class Model:
    """Concrete chain state a closed guard is evaluated against."""

    balances: Mapping[str, int] = field(default_factory=dict)
    asserted: AbstractSet[tuple[str, tuple[Value, ...]]] = field(default_factory=set)
    clock: int = 0


def _wrap(v: Value) -> Term:
    return IntLit(v) if isinstance(v, int) else Constant(v)


def _value_of(t: Term) -> Value | None:
    if isinstance(t, (Constant, IntLit)):
        return t.value
    if isinstance(t, AgentRef):
        return t.agent
    return None


def _decide_cmp(op: str, a: Value, b: Value) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeMismatch(f"ordering needs integers, got {a!r} {op} {b!r}")
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise LogicError(f"unknown comparison {op!r}")


def _hashlock(digest: Value, preimage: Value) -> bool:
    if not (isinstance(digest, str) and isinstance(preimage, str)):
        raise TypeMismatch("hashlock expects a hex digest and a string preimage")
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest() == digest.lower()


def _arith(name: str, a: Value, b: Value) -> int:
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeMismatch(f"{name} expects integers, got {a!r}, {b!r}")
    if name == "add":
        return a + b
    if name == "sub":
        return a - b
    return a * b


def _check_arity(name, args, arity):
    if len(args) != arity:
        raise TypeMismatch(f"{name} expects {arity} argument(s), got {len(args)}")


# ---------------------------------------------------------------------------
# Closed-world evaluation against a model


def evaluate(f: Formula, m: Model, defs: DefinitionSet) -> bool:
    """Truth of ``f`` in model ``m`` under closed-world negation.

    ``f`` is ground-expanded first, so a grounding error anywhere in it
    raises, even in a branch the model would never reach; the residual
    atoms are then read from ``m``.
    """
    return _holds(ground_expand(f, defs), lambda a: _model_atom(a, m, defs))


def _holds(f, leaf) -> bool:
    """Truth of a residual formula whose atoms and comparisons ``leaf`` decides."""
    if isinstance(f, (Atom, Cmp)):
        return leaf(f)
    if isinstance(f, Not):
        neg = False
        while isinstance(f, Not):
            f, neg = f.sub, not neg
        return _holds(f, leaf) != neg
    if isinstance(f, (And, Or)):  # a quantifier's chain is as long as its domain: loop
        kind, stop, rest = type(f), isinstance(f, Or), [f.rhs]
        while isinstance(f := f.lhs, kind):
            rest.append(f.rhs)
        rest.append(f)
        while rest:  # the operands, first first
            if _holds(rest.pop(), leaf) == stop:
                return stop
        return not stop
    if isinstance(f, Implies):
        return (not _holds(f.lhs, leaf)) or _holds(f.rhs, leaf)
    if isinstance(f, (TrueF, FalseF)):
        return isinstance(f, TrueF)
    raise LogicError(f"not residual: {formula_text(f)}")


def _model_atom(f, m, defs) -> bool:
    """Truth in ``m`` of a residual atom or comparison; an open atom holds iff asserted."""
    if isinstance(f, Cmp):
        return _decide_cmp(f.op, _model_value(f.lhs, m, defs), _model_value(f.rhs, m, defs))
    vals = tuple(_model_value(a, m, defs) for a in f.args)
    if f.name == "hashlock":
        return _hashlock(*vals)
    if f.name == "before":
        if not isinstance(vals[0], int):
            raise TypeMismatch("before expects an integer tick")
        return m.clock <= vals[0]
    return (f.name, vals) in m.asserted


def _model_value(t, m, defs) -> Value:
    """Value in ``m`` of a residual term: balances, arithmetic and tables over them."""
    v = _value_of(t)
    if v is not None:
        return v
    if isinstance(t, BalanceOf):
        try:
            return m.balances[t.wallet]
        except KeyError:
            raise UnknownSymbol(f"no wallet {t.wallet!r} in model") from None
    vals = tuple(_model_value(a, m, defs) for a in t.args)
    if t.name in BUILTIN_FUNCTIONS:
        return _arith(t.name, *vals)
    table = defs.functions[t.name].table
    if not table:
        raise UnknownSymbol(f"function {t.name!r} has no interpretation here")
    try:
        return table[vals]
    except KeyError:
        raise UnknownSymbol(f"{t.name}{vals!r} has no table entry") from None


# ---------------------------------------------------------------------------
# Ground expansion (quantifier and definition elimination)


def ground_expand(f: Formula, defs: DefinitionSet) -> Formula:
    """Rewrite ``f`` into an equivalent quantifier- and definition-free form.

    Finite quantifiers become conjunction/disjunction chains, defined
    predicates and parametric functions are unfolded, rigid subterms
    are folded to values.  What remains are boolean connectives over
    *residual* atoms: open atoms, ``before``-atoms, ``hashlock``-atoms
    with an argument that is not a value, and comparisons that mention
    balances or uninterpreted functions.
    """
    return _expand(f, defs, {}, ())


def _mk_not(f):
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    return Not(f)


def _mk_and(a, b):
    if isinstance(a, FalseF) or isinstance(b, FalseF):
        return FALSE
    if isinstance(a, TrueF):
        return b
    if isinstance(b, TrueF):
        return a
    return And(a, b)


def _mk_or(a, b):
    if isinstance(a, TrueF) or isinstance(b, TrueF):
        return TRUE
    if isinstance(a, FalseF):
        return b
    if isinstance(b, FalseF):
        return a
    return Or(a, b)


def _mk_implies(a, b):
    if isinstance(a, FalseF) or isinstance(b, TrueF):
        return TRUE
    if isinstance(a, TrueF):
        return b
    if isinstance(b, FalseF):
        return _mk_not(a)
    return Implies(a, b)


def _expand(f, defs, env, stack) -> Formula:
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, (Atom, Cmp)):
        g = _ground_atom(f, defs, env, stack)
        if type(g) is list:  # a ground atom keeps its node, and so its key
            return f if all(map(operator.is_, g, f.args)) else Atom(f.name, tuple(g))
        return _expand(g[0], defs, g[1], g[2]) if type(g) is tuple else g
    # definitions can stack negations and chains past the nesting bound: loop, as _cnf does
    if isinstance(f, Not):
        depth = 0
        while isinstance(f, Not):
            f, depth = f.sub, depth + 1
        g = _expand(f, defs, env, stack)
        for _ in range(depth):
            g = _mk_not(g)
        return g
    if isinstance(f, (And, Or)):
        kind, rest = type(f), [f.rhs]
        join = _mk_and if kind is And else _mk_or
        while type(f := f.lhs) is kind:
            rest.append(f.rhs)
        g = _expand(f, defs, env, stack)
        while rest:  # the links' right operands, first link first
            g = join(g, _expand(rest.pop(), defs, env, stack))
        return g
    if isinstance(f, Implies):
        return _mk_implies(_expand(f.lhs, defs, env, stack), _expand(f.rhs, defs, env, stack))
    if isinstance(f, (ForAll, Exists)):
        members = defs.domain_members(f.domain)
        parts = [
            _expand(f.body, defs, {**env, f.var: _wrap(v)}, stack) for v in members
        ]
        if isinstance(f, ForAll):
            out: Formula = TRUE
            for p in parts:
                out = _mk_and(out, p)
        else:
            out = FALSE
            for p in parts:
                out = _mk_or(out, p)
        return out
    raise TypeError(f"not a formula: {f!r}")


def _ground_atom(f, defs, env, stack):
    """Ground an atom or comparison to TRUE, FALSE, a residual Cmp, a residual
    atom's argument list, or a predicate's ``(body, env, stack)`` to ground."""
    if type(f) is Cmp:
        a = _norm_term(f.lhs, defs, env, stack)
        b = _norm_term(f.rhs, defs, env, stack)
        va, vb = _value_of(a), _value_of(b)
        if va is not None and vb is not None:
            return TRUE if _decide_cmp(f.op, va, vb) else FALSE
        return Cmp(f.op, a, b)
    name = f.name
    args = [_norm_term(a, defs, env, stack) for a in f.args]
    if name == "hashlock":
        _check_arity(name, args, 2)
        vals = [_value_of(a) for a in args]
        if any(isinstance(v, int) for v in vals):
            raise TypeMismatch("hashlock expects a hex digest and a string preimage")
        return args if None in vals else TRUE if _hashlock(*vals) else FALSE
    if name == "before":
        _check_arity(name, args, 1)
        if isinstance(_value_of(args[0]), str):
            raise TypeMismatch("before expects an integer tick")
        return args
    if name in defs.predicates:
        if name in stack:
            raise StratificationViolation(f"predicate {name!r} depends on itself")
        pd = defs.predicates[name]
        _check_arity(name, args, len(pd.params))
        return pd.body, dict(zip(pd.params, args)), stack + (name,)
    arity = defs.atom_arity(name)
    if arity is None:
        raise UnknownSymbol(f"atom {name!r} is not declared")
    _check_arity(name, args, arity)
    return args


def _norm_term(t, defs, env, stack) -> Term:
    if isinstance(t, Var):
        if t.name not in env:
            raise NonGround(f"free variable {t.name!r}")
        return env[t.name]
    if isinstance(t, (Constant, IntLit, AgentRef, BalanceOf)):
        return t
    if isinstance(t, FnApp):
        name = t.name
        args = tuple(_norm_term(a, defs, env, stack) for a in t.args)
        vals = [_value_of(a) for a in args]
        if name in BUILTIN_FUNCTIONS:
            _check_arity(name, args, 2)
            if all(v is not None for v in vals):
                return IntLit(_arith(name, vals[0], vals[1]))
            return FnApp(name, args)
        fd = defs.functions.get(name)
        if fd is None:
            raise UnknownSymbol(f"function {name!r} is not declared")
        _check_arity(name, args, fd.arity)
        if fd.kind == "table":
            if all(v is not None for v in vals):
                key = tuple(vals)
                if key not in fd.table:
                    raise UnknownSymbol(f"{name}{key!r} has no table entry")
                return _wrap(fd.table[key])
            return FnApp(name, args)
        if fd.kind == "parametric":
            if name in stack:
                raise StratificationViolation(f"function {name!r} depends on itself")
            inner = dict(zip(fd.params, args))
            return _norm_term(fd.body, defs, inner, stack + (name,))
        return FnApp(name, args)  # uninterpreted: stays symbolic
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Residual formulas as propositional structures


def residual_atoms(f: Formula) -> list[str]:
    """Ordered unique atom keys of a residual (expanded) formula."""
    seen: dict[str, None] = {}
    todo = [f]  # a quantifier's chain is as long as its domain: no recursion
    while todo:
        g = todo.pop()
        if isinstance(g, (Atom, Cmp)):
            seen.setdefault(atom_key(g))
        elif isinstance(g, Not):
            todo.append(g.sub)
        elif isinstance(g, (And, Or, Implies)):
            todo += (g.rhs, g.lhs)
        elif not isinstance(g, (TrueF, FalseF)):
            raise LogicError(f"not residual: {formula_text(g)}")
    return list(seen)


def eval_residual(f: Formula, assignment: dict[str, bool]) -> bool:
    """Truth of a residual formula under an explicit atom assignment."""

    def leaf(a) -> bool:
        key = atom_key(a)
        if key not in assignment:
            raise LogicError(f"assignment is missing atom {key}")
        return assignment[key]

    return _holds(f, leaf)


def brute_force_satisfiable(formulas: list[Formula], defs: DefinitionSet) -> dict[str, bool] | None:
    """Exhaustive truth-assignment search; returns a model or None.

    Deliberately naive — this is the independent oracle that the
    resolution engine and the certificate auditor are checked against
    in the tests.
    """
    trees = [ground_expand(f, defs) for f in formulas]
    keys: dict[str, None] = {}
    for t in trees:
        for k in residual_atoms(t):
            keys.setdefault(k)
    names = list(keys)
    if len(names) > 22:
        raise ResourceLimit(f"{len(names)} atoms exceeds enumeration limit 22")
    for bits in range(1 << len(names)):
        asg = {names[i]: bool(bits >> i & 1) for i in range(len(names))}
        if all(eval_residual(t, asg) for t in trees):
            return asg
    return None


# ---------------------------------------------------------------------------
# Clausification


def _is_tautology(clause: frozenset[int]) -> bool:
    return not clause.isdisjoint(map(operator.neg, clause))


def _formula_clauses(f: Formula, defs: DefinitionSet):
    """Atom keys and non-tautological clauses of ``f``, over local ids.

    Memoized on ``defs``; a formula that raises is not cached.
    """
    got = defs._clause_cache.get(f)
    if got is None:
        table: dict[str, int] = {}
        try:
            clauses = _cnf(f, False, {}, (), defs, table, {}, {})
        except ResourceLimit:  # the expansion may fold the overflowing branch away,
            table = {}  # or fail to ground after it: walk the expansion
            clauses = _cnf(ground_expand(f, defs), False, {}, (), defs, table, {}, {})
        got = (list(table), [tuple(cl) for cl in map(frozenset, clauses) if not _is_tautology(cl)])
        defs._clause_cache[f] = got
    return got


def _cnf(f, neg, env, stack, defs, table, wrapped, texts) -> list[tuple[int, ...]]:
    """Clauses of ``ground_expand(f)``, negated if ``neg``, in one walk: ``[]``
    is TRUE, ``[()]`` FALSE.  ``table`` maps atom keys to 0-based ids in
    first-occurrence order, and a part that folds to a constant leaves no
    atoms in it.  ``wrapped`` maps domains to members, ``texts`` ids to texts."""
    kind = type(f)
    while kind is Not:
        f, neg, kind = f.sub, not neg, type(f.sub)
    if kind is Atom or kind is Cmp:
        g = _ground_atom(f, defs, env, stack)
        if type(g) is list:
            k = ", ".join([texts.get(id(a)) or term_text(a) for a in g])
            k = f"{f.name}({k})" if g else f.name
        elif type(g) is Cmp:
            k = formula_text(g)
        elif type(g) is tuple:
            return _cnf(g[0], neg, g[1], g[2], defs, table, wrapped, texts)
        else:
            return [] if (g is TRUE) != neg else [()]
        lit = table.setdefault(k, len(table)) + 1
        return [(-lit,)] if neg else [(lit,)]
    if kind is TrueF or kind is FalseF:
        return [] if (kind is TrueF) != neg else [()]
    mark = len(table)
    if kind is Implies:
        a = _cnf(f.lhs, not neg, env, stack, defs, table, wrapped, texts)
        out = _join(neg, a, _cnf(f.rhs, neg, env, stack, defs, table, wrapped, texts))
    elif kind is And or kind is Or:  # a quantifier's chain is as long as its domain: loop
        conj, rest = (kind is And) != neg, [f.rhs]
        while type(f := f.lhs) is kind:
            rest.append(f.rhs)
        out = _cnf(f, neg, env, stack, defs, table, wrapped, texts)
        while rest:  # the links' right operands, first link first
            out = _join(conj, out, _cnf(rest.pop(), neg, env, stack, defs, table, wrapped, texts))
    elif kind is ForAll or kind is Exists:
        conj = (kind is ForAll) != neg
        terms = wrapped.get(f.domain)
        if terms is None:
            terms = wrapped[f.domain] = [_wrap(v) for v in defs.domain_members(f.domain)]
            texts.update((id(t), term_text(t)) for t in terms)
        out, inner = [] if conj else [()], dict(env)
        for t in terms:
            inner[f.var] = t
            part = _cnf(f.body, neg, inner, stack, defs, table, wrapped, texts)
            out = _join(conj, out, part)
    else:
        raise TypeError(f"not a formula: {f!r}")
    if not out or not out[0]:  # a constant: none of its atoms is in the expansion
        while len(table) > mark:
            table.popitem()
    return out


def _join(conj: bool, a: list, b: list) -> list:
    """``a & b`` if ``conj`` else ``a | b``, folding constants; the caller owns both lists."""
    if conj:
        if not a or (b and not b[0]):
            return b
        if b and a[0]:
            a += b
        return a
    if not b or (a and not a[0]):
        return b
    if not a or not b[0]:
        return a
    if len(a) * len(b) > MAX_CLAUSES:
        raise ResourceLimit("clause budget exceeded in CNF")
    return [x + y for x in a for y in b]


# ---------------------------------------------------------------------------
# Refutation with replayable traces


# Refutation limits: ground atoms in one assembled problem, and clauses
# from one formula's CNF or live during elimination.
MAX_ATOMS = 512
MAX_CLAUSES = 100_000


@dataclass(frozen=True)
class ProofStep:
    """One line of a ground resolution trace.

    rule "input":   ``source`` names where the clause came from —
                    ("claim", i) indexes used_claims, ("constraint", j)
                    indexes used_constraints, ("candidate",) is the
                    claim under test.
    rule "resolve": ``premises`` are indices of two earlier steps.
    ``clause`` is a sorted tuple of nonzero literals; atoms are 1-based
    indices into Refutation.atoms, negative for negated atoms.
    """

    rule: str
    clause: tuple[int, ...]
    source: tuple | None = None
    premises: tuple[int, int] | None = None


@dataclass(frozen=True)
class Refutation:
    """A replayable derivation of the empty clause.

    ``conclusion`` is the negation of the candidate claim's body: what
    the store plus constraints actually entail.
    """

    conclusion: Formula
    used_claims: tuple[Claim, ...]
    used_constraints: tuple[Formula, ...]
    atoms: tuple[str, ...]
    steps: tuple[ProofStep, ...]


def refute(claims, constraints, candidate: Claim, defs: DefinitionSet) -> Refutation | None:
    """Try to refute ``candidate`` from the claim store and constraints.

    Returns a Refutation if claims + constraints + candidate body is
    jointly unsatisfiable, else None (the claim is admissible).  No
    closed-world assumption is applied: only what the store actually
    says, plus integrity constraints, can contradict a claim.

    The search is Davis–Putnam variable elimination over the ground
    atom universe — chosen over DPLL because bucket elimination yields
    a ground resolution trace directly, and the trace is the product
    that matters: certificates must replay without the search engine.

    Variables are eliminated in atom-number order.  The live clauses are
    kept in an occurrence index: each literal maps to the live clauses
    holding it, in the order they became live (inputs in input order,
    then resolvents in the order they were derived).  Eliminating a
    variable therefore touches only its own clauses, and a resolvent is
    tested for subsumption only against the live clauses that share one
    of its literals (no live clause is empty, so a subsuming clause
    always shares one).  Every clause becomes live after all clauses
    already live, so each bucket lists its clauses in the order of the
    whole live list, and the resolvents, proof steps and atom numbers
    are those of a scan over that list.
    """
    claims = tuple(claims)
    constraints = tuple(constraints)
    table: dict[str, int] = {}  # atom key -> 0-based id, in first-occurrence order
    inputs: list[tuple[tuple, frozenset[int]]] = []

    def clausify(source: tuple, body: Formula):
        names, clauses = _formula_clauses(body, defs)
        ids = [0] + [table.setdefault(k, len(table)) + 1 for k in names]
        for cl in clauses:
            inputs.append((source, frozenset(ids[l] if l > 0 else -ids[-l] for l in cl)))
        if len(table) > MAX_ATOMS:
            raise ResourceLimit(f"{len(table)} ground atoms exceeds the configured cap {MAX_ATOMS}")

    for i, c in enumerate(claims):
        clausify(("claim", i), c.body)
    for j, g in enumerate(constraints):
        clausify(("constraint", j), g)
    clausify(("candidate",), candidate.body)

    steps: list[ProofStep] = []
    clause_step: dict[frozenset[int], int] = {}
    # literal -> the live clauses holding it, as an insertion-ordered set
    occurs: dict[int, dict[frozenset[int], None]] = {}

    def record(rule, clause, source=None, premises=None) -> int:
        idx = len(steps)
        steps.append(
            ProofStep(rule, tuple(sorted(clause)), source=source, premises=premises)
        )
        clause_step[clause] = idx
        return idx

    def make_live(clause: frozenset[int]):
        for lit in clause:
            occurs.setdefault(lit, {})[clause] = None

    def subsumed(r: frozenset[int]) -> bool:
        return any(s <= r for lit in r for s in occurs.get(lit, ()))

    empty_at: int | None = None
    for source, cl in inputs:
        if cl in clause_step:
            continue  # duplicate clause: first source wins
        idx = record("input", cl, source=source)
        if not cl:
            empty_at = idx
            break
        make_live(cl)

    if empty_at is None:
        for var in range(1, len(table) + 1):
            pos = list(occurs.pop(var, ()))
            neg = list(occurs.pop(-var, ()))
            for c in pos + neg:  # no longer live; they could not subsume anyway
                for lit in c:
                    if lit != var and lit != -var:
                        del occurs[lit][c]
            for p in pos:
                p_rest = p - {var}
                for n in neg:
                    r = p_rest | (n - {-var})
                    if _is_tautology(r) or r in clause_step or subsumed(r):
                        continue  # a tautology, known already, or subsumed by a live clause
                    idx = record("resolve", r, premises=(clause_step[p], clause_step[n]))
                    if not r:
                        empty_at = idx
                        break
                    make_live(r)
                if empty_at is not None:
                    break
            if empty_at is not None:
                break
            if len(clause_step) > MAX_CLAUSES:
                raise ResourceLimit("clause budget exceeded during elimination")

    if empty_at is None:
        return None

    # --- proof extraction -------------------------------------------------
    needed: set[int] = set()
    work = [empty_at]
    while work:
        i = work.pop()
        if i in needed:
            continue
        needed.add(i)
        if steps[i].premises is not None:
            work.extend(steps[i].premises)

    order = sorted(needed)
    renum = {old: new for new, old in enumerate(order)}
    cited = [steps[i].source for i in order if steps[i].rule == "input"]
    claim_ids = sorted({src[1] for src in cited if src[0] == "claim"})
    constraint_ids = sorted({src[1] for src in cited if src[0] == "constraint"})
    claim_pos = {old: new for new, old in enumerate(claim_ids)}
    constraint_pos = {old: new for new, old in enumerate(constraint_ids)}
    used_atom_ids = sorted({abs(l) for i in order for l in steps[i].clause})
    names = list(table)
    atom_renum = {old: new for new, old in enumerate(used_atom_ids, start=1)}

    def remap(clause):
        return tuple(sorted((1 if l > 0 else -1) * atom_renum[abs(l)] for l in clause))

    trace: list[ProofStep] = []
    for i in order:
        st = steps[i]
        if st.rule == "input":
            src = st.source
            if src[0] == "claim":
                src = ("claim", claim_pos[src[1]])
            elif src[0] == "constraint":
                src = ("constraint", constraint_pos[src[1]])
            trace.append(ProofStep("input", remap(st.clause), source=src))
        else:
            a, b = st.premises
            trace.append(ProofStep("resolve", remap(st.clause), premises=(renum[a], renum[b])))

    return Refutation(
        conclusion=Not(candidate.body),
        used_claims=tuple(claims[i] for i in claim_ids),
        used_constraints=tuple(constraints[j] for j in constraint_ids),
        atoms=tuple(names[old - 1] for old in used_atom_ids),
        steps=tuple(trace),
    )


# ---------------------------------------------------------------------------
# Minimal conflict extraction


@dataclass(frozen=True)
class DiscordCertificate:
    """Evidence that a candidate claim contradicts the store.

    ``conflict`` is a minimal subset of stored claims that, together
    with the candidate and the integrity constraints, is unsatisfiable:
    dropping any one of them restores satisfiability.  The named
    authorities of candidate + conflict are exactly who is accountable
    for the contradiction.
    """

    candidate: Claim
    conflict: tuple[Claim, ...]
    refutation: Refutation

    @property
    def conflicting_claims(self) -> tuple[Claim, ...]:
        return (self.candidate,) + self.conflict

    @property
    def authorities(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for c in self.conflicting_claims:
            seen.setdefault(c.authority)
        return tuple(seen)


def minimize_conflict(
    claims, constraints, candidate: Claim, defs: DefinitionSet
) -> DiscordCertificate | None:
    """Deletion-minimize the set of stored claims needed to refute.

    Returns None when nothing refutes ``candidate``: the claim is
    admissible.  Otherwise standard destructive shrinking: start from
    the claims the first refutation cited, try dropping each in store
    order, keep the drop whenever a refutation still exists.  One pass
    suffices because satisfiability is monotone under deletion.
    """
    claims = tuple(claims)
    constraints = tuple(constraints)
    first = refute(claims, constraints, candidate, defs)
    if first is None:
        return None
    work = list(first.used_claims)
    i = 0
    while i < len(work):
        trial = work[:i] + work[i + 1 :]
        if refute(trial, constraints, candidate, defs) is not None:
            work = trial
        else:
            i += 1
    final = refute(work, constraints, candidate, defs)
    assert final is not None and len(final.used_claims) == len(work)
    return DiscordCertificate(candidate=candidate, conflict=tuple(work), refutation=final)


def store_consistent(claims, constraints, defs: DefinitionSet) -> bool:
    """True iff the claim store plus constraints admits no refutation."""
    probe = Claim("Theta", TRUE, origin="consistency-check")
    return refute(tuple(claims), tuple(constraints), probe, defs) is None
