"""Parser and printer for ``.plu`` contract and scenario files.

A contract is a list of declarations (agents, domains, functions,
predicates, open atoms, integrity constraints) followed by guarded
transfer actions.  A scenario wraps a contract with a token-oracle
policy, a clock horizon and a timeline of scripted events (authority
claims and explicit submissions).

Identifiers resolve by position: quantifier-bound names are variables,
declared agent ids are agent references, anything else is a symbolic
constant.  Declarations must precede use, which also makes predicate
definitions stratified by construction.  See docs/format.md for the
grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .blocktree import OracleConfig
from .logic import (
    BUILTIN_FUNCTIONS,
    BUILTIN_PREDICATES,
    FALSE,
    RESERVED_ATOMS,
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
    Formula,
    FunctionDef,
    Implies,
    IntLit,
    Not,
    Or,
    PredicateDef,
    Term,
    Value,
    Var,
    _wrap,
    claim_text,
    formula_text,
    term_text,
)

TIME_ORACLE = "K_t"
VALIDATION_AUTHORITY = "Theta"


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


class DuplicateAgent(ParseError):
    pass


class DuplicateBinding(ParseError):
    pass


class DuplicateDefinition(ParseError):
    pass


class UnknownAgent(ParseError):
    pass


class UnknownBinding(ParseError):
    pass


class ForwardDependency(ParseError):
    pass


class SourceIsSink(ParseError):
    pass


class NonPositiveAmount(ParseError):
    pass


class UndeclaredName(ParseError):
    pass


class ArityError(ParseError):
    pass


class UncomputableGuard(ParseError):
    """A closed guard mentions a symbol with no chain-computable value."""


class UnknownEventKind(ParseError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Agent:
    id: str
    kind: str = "wallet"  # "wallet" | "oracle"
    balance: int = 0


@dataclass(frozen=True)
class ClosedGuard:
    formula: Formula


@dataclass(frozen=True)
class ClaimedGuard:
    claim: Claim


Guard = ClosedGuard | ClaimedGuard


@dataclass(frozen=True)
class Transaction:
    source: str
    amount: int
    guard: Guard
    sink: str


@dataclass(frozen=True)
class Action:
    binding: str
    deps: tuple[str, ...]
    transaction: Transaction


@dataclass
class Contract:
    agents: tuple[Agent, ...] = ()
    defs: DefinitionSet = field(default_factory=DefinitionSet)
    actions: tuple[Action, ...] = ()

    def agent(self, aid: str) -> Agent | None:
        for a in self.agents:
            if a.id == aid:
                return a
        return None

    def wallets(self) -> tuple[Agent, ...]:
        return tuple(a for a in self.agents if a.kind == "wallet")


@dataclass(frozen=True)
class ClaimEvent:
    tick: int
    label: str
    claim: Claim


@dataclass(frozen=True)
class SubmitEvent:
    tick: int
    binding: str
    by: str | None = None


Event = ClaimEvent | SubmitEvent


@dataclass
class Scenario:
    contract: Contract
    events: tuple[Event, ...] = ()
    oracle: OracleConfig = OracleConfig.frugal(1)
    seed: int = 0
    horizon: int = 0
    facts: tuple[tuple[str, tuple[Value, ...]], ...] = ()
    name: str = "scenario"

    def scripted(self) -> frozenset[str]:
        return frozenset(e.binding for e in self.events if isinstance(e, SubmitEvent))


# ---------------------------------------------------------------------------
# Lexer
#
# A token is its source text: an identifier, a decimal integer, a string
# literal with its quotes and escapes, or an operator.  Outside strings
# every token is ASCII, so str.isidentifier and str.isdigit tell the
# identifiers and the integers from the rest.  One match skips blanks
# and comments and captures the next token.  At the end of the text it
# captures "", and at a character no token starts with it captures the
# rest of the text, so a findall yields the tokens, then at most one bad
# rest, then "".  Positions are worked out from offsets, and only for an
# error.

_SKIP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_VALID = re.compile(
    r'[A-Za-z_][A-Za-z0-9_]*|[0-9]+|"[^"\\]*(?:\\[\s\S][^"\\]*)*"'
    r"|->|<=|>=|!=|:=|[()\[\]{},;:.=<>!&|-]"
)
_TOKEN = re.compile(rf"{_SKIP}({_VALID.pattern}|\Z|[\s\S]+)")
_ESCAPE = re.compile(r"\\([\s\S])")
_EOF = ""  # a string literal's token keeps its quotes, so no token is empty


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lex(text: str) -> list[str]:
    toks = _TOKEN.findall(text)
    rest = toks[-2] if len(toks) > 1 else _EOF
    if rest and not _VALID.fullmatch(rest):
        msg = "unterminated string" if rest[0] == '"' else f"stray character {rest[0]!r}"
        raise ParseError(msg, *_line_col(text, len(text) - len(rest)))
    toks.append(_EOF)  # look-ahead past the end reads end of input
    return toks


def _unquote(tok: str) -> str:
    return _ESCAPE.sub(r"\1", tok[1:-1])


# ---------------------------------------------------------------------------
# Parser

_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))
# Levels a formula may nest, as written and in its canonical form (the one
# formula_text prints): a parenthesis (a term's too), negation, quantifier,
# implication or further chain operand opens one level.
MAX_NESTING = 100
_SCENARIO_KEYWORDS = {"tokens", "seed", "horizon", "at", "fact"}
_STATEMENTS = {
    "agent": "p_agent",
    "oracle": "p_oracle",
    "domain": "p_domain",
    "function": "p_function",
    "map": "p_map",
    "predicate": "p_predicate",
    "atom": "p_atom",
    "constraint": "p_constraint",
    "issue": "p_action",
    "after": "p_action",
    "tokens": "p_tokens",
    "seed": "p_seed",
    "horizon": "p_horizon",
    "at": "p_event",
    "fact": "p_fact",
}


class _Parser:
    """Formulas and terms, read in the declaration context of a contract."""

    def __init__(self, text: str, contract: Contract):
        self.text = text
        self.toks = _lex(text)
        self.pos = 0
        self.depth = self.height = 0  # levels open here; canonical levels of the last part
        self.defs = contract.defs
        self.agents = {a.id: a for a in contract.agents}

    # -- token plumbing ---------------------------------------------------

    def fail(self, msg: str, at: int | None = None, err=ParseError):
        """Raise ``err`` located at token ``at`` (default: the current one)."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        at = self.pos if at is None else at
        raise err(msg, *_line_col(self.text, starts[min(at, len(starts) - 1)]))

    def take(self, tok: str) -> bool:
        if self.toks[self.pos] == tok:
            self.pos += 1
            return True
        return False

    def expect(self, tok: str):
        if self.toks[self.pos] != tok:
            self.fail(f"expected {tok!r}")
        self.pos += 1

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.toks[self.pos]
        if not tok.isidentifier():
            self.fail(f"expected {what}")
        self.pos += 1
        return tok

    def expect_int(self, what: str = "integer") -> int:
        tok = self.toks[self.pos]
        if not tok.isdigit():
            self.fail(f"expected {what}")
        self.pos += 1
        return int(tok)

    def _wallet(self, what: str) -> str:
        at = self.pos
        aid = self.expect_ident(what)
        a = self.agents.get(aid)
        if a is None or a.kind != "wallet":
            self.fail(f"{aid!r} is not a declared wallet agent", at, UnknownAgent)
        return a.id  # the declared string itself, so lookups by it hit on identity

    # -- formulas ---------------------------------------------------------

    def _too_deep(self, at: int):
        self.fail(f"formula nests deeper than {MAX_NESTING} levels", at)

    def _deeper(self, at: int, up: int, floor: int, parse, *args):
        """``parse(*args)``, read one level below token ``at``.  The levels open as
        written bound the parser's recursion, the canonical ones every later walk;
        the part's canonical height is ``up`` more than that of what ``parse``
        read, or ``floor`` if that is more."""
        self.depth += 1
        got = parse(*args) if self.depth <= MAX_NESTING else self._too_deep(at)
        self.depth -= 1
        self.height = max(floor, self.height + up)
        return got if self.height <= MAX_NESTING else self._too_deep(at)

    def formula(self, bound: set[str]) -> Formula:
        left = self.f_or(bound)
        if self.toks[self.pos] == "->":
            self.pos += 1  # right-associative
            return Implies(left, self._deeper(self.pos - 1, 2, self.height + 1, self.formula, bound))
        return left

    def f_or(self, bound) -> Formula:
        left = self.f_and(bound)
        while self.toks[self.pos] == "|":
            self.pos += 1
            left = Or(left, self._deeper(self.pos - 1, 2, self.height + 1, self.f_and, bound))
        return left

    def f_and(self, bound) -> Formula:
        left = self.f_unary(bound)
        while self.toks[self.pos] == "&":
            self.pos += 1
            left = And(left, self._deeper(self.pos - 1, 2, self.height + 1, self.f_unary, bound))
        return left

    def f_unary(self, bound) -> Formula:
        at = self.pos
        tok = self.toks[at]
        if tok == "!":
            self.pos += 1
            return Not(self._deeper(at, 1, 0, self.f_unary, bound))
        if tok == "forall" or tok == "exists":
            self.pos += 1
            var = self.expect_ident("variable")
            self.expect("in")
            dom = self.expect_ident("domain")
            if dom not in self.defs.domains:
                self.fail(f"domain {dom!r} is not declared", self.pos - 1, UndeclaredName)
            self.expect(".")
            body = self._deeper(at, 2, 0, self.formula, bound | {var})
            return (ForAll if tok == "forall" else Exists)(var, dom, body)
        return self.f_primary(bound)

    def f_primary(self, bound) -> Formula:
        at = self.pos
        tok = self.toks[at]
        self.height = 0
        if tok == "true":
            self.pos += 1
            return TRUE
        if tok == "false":
            self.pos += 1
            return FALSE
        if tok == "(":
            self.pos += 1
            inner = self._deeper(at, 0, 0, self.formula, bound)
            self.expect(")")
            return inner
        lhs = self.term(bound)
        op = self.toks[self.pos]
        if op in _COMPARISONS:
            self.pos += 1
            height = self.height
            rhs = self.term(bound)
            self.height = max(height, self.height) + 1
            if self.height > MAX_NESTING:
                self._too_deep(at)
            self._resolve_term(lhs)
            self._resolve_term(rhs)
            if self.toks[self.pos] in _COMPARISONS:
                self.fail("comparisons do not chain")
            return Cmp(op, lhs, rhs)
        return self._term_as_atom(lhs, at)

    def _term_as_atom(self, lhs: Term, at: int) -> Formula:
        d = self.defs
        if isinstance(lhs, FnApp):
            arity = d.atom_arity(lhs.name)
            if lhs.name in d.predicates:
                arity = len(d.predicates[lhs.name].params)
            elif lhs.name in BUILTIN_PREDICATES:
                arity = BUILTIN_PREDICATES[lhs.name]
            if arity is None:
                if lhs.name in d.functions or lhs.name in BUILTIN_FUNCTIONS:
                    self.fail(f"function {lhs.name!r} is not a formula", at)
                self.fail(f"predicate {lhs.name!r} is not declared", at, UndeclaredName)
            if arity != len(lhs.args):
                self.fail(f"{lhs.name} expects {arity} argument(s)", at, ArityError)
            for a in lhs.args:
                self._resolve_term(a)
            return Atom(lhs.name, lhs.args)
        if isinstance(lhs, Constant):
            name = lhs.value
            arity = d.atom_arity(name)
            if name in d.predicates:
                arity = len(d.predicates[name].params)
            if arity is None:
                self.fail(f"predicate {name!r} is not declared", at, UndeclaredName)
            if arity != 0:
                self.fail(f"{name} expects {arity} argument(s)", at, ArityError)
            return Atom(name)
        self.fail("expected a formula", at)

    # -- terms ------------------------------------------------------------

    def term(self, bound: set[str]) -> Term:
        at = self.pos
        tok = self.toks[at]
        self.pos = at + 1
        self.height = 0
        if tok.isidentifier():
            if self.toks[self.pos] == "(":
                self.pos += 1
                args: list[Term] = []
                while (arg := self.toks[self.pos]) != ")":
                    if arg.isidentifier() and self.toks[self.pos + 1] == "(":
                        args.append(self._deeper(at + 1, 1, self.height, self.term, bound))
                    elif self.depth < MAX_NESTING:  # a leaf: one level, no call of its own
                        height = self.height
                        args.append(self.term(bound))
                        self.height = max(height, 1)
                    else:
                        self._too_deep(at + 1)
                    self.take(",")
                self.pos += 1
                return FnApp(tok, tuple(args))
            if tok in bound:
                return Var(tok)
            if tok in self.agents:
                return AgentRef(tok)
            return Constant(tok)
        if tok.isdigit():
            return IntLit(int(tok))
        if tok == "-":
            return IntLit(-self.expect_int("integer"))
        if tok[:1] == '"':
            return Constant(_unquote(tok))
        if tok == "|":
            wallet = self._wallet("wallet")
            self.expect("|")
            return BalanceOf(wallet)
        self.fail("expected a term", at)

    def _resolve_term(self, t: Term):
        """Check nested applications really are functions of right arity."""
        if isinstance(t, FnApp):
            d = self.defs
            if t.name in BUILTIN_FUNCTIONS:
                arity = BUILTIN_FUNCTIONS[t.name]
            elif t.name in d.functions:
                arity = d.functions[t.name].arity
            elif (
                t.name in d.predicates
                or d.atom_arity(t.name) is not None
                or t.name in BUILTIN_PREDICATES
            ):
                self.fail(f"predicate {t.name!r} is not a term")
            else:
                self.fail(f"function {t.name!r} is not declared", err=UndeclaredName)
            if arity != len(t.args):
                self.fail(f"{t.name} expects {arity} argument(s)", err=ArityError)
            for a in t.args:
                self._resolve_term(a)


class _FileParser(_Parser):
    """Statements of a contract file or, with ``scenario``, a scenario file."""

    def __init__(self, text: str, *, scenario: bool, name: str = "scenario"):
        self.contract = Contract()
        super().__init__(text, self.contract)
        self.scenario_mode = scenario
        self.name = name
        self.actions: list[Action] = []
        self.constraints: list[Formula] = []
        self.bindings: set[str] = set()
        self.labels: set[str] = set()
        self.events: list[Event] = []
        self.facts: list[tuple[str, tuple[Value, ...]]] = []
        self.oracle: OracleConfig | None = None
        self.seed: int | None = None
        self.horizon: int | None = None
        self.auto_label = 0

    def parse(self):
        while self.toks[self.pos] != _EOF:
            if not self.take(";"):
                self.statement()
        d, constraints = self.defs, tuple(self.constraints)
        self.contract.defs = DefinitionSet(d.domains, d.functions, d.predicates, d.atoms, constraints)
        self.contract.agents = tuple(self.agents.values())
        self.contract.actions = tuple(self.actions)
        if not self.scenario_mode:
            return self.contract
        events = sorted(self.events, key=lambda e: e.tick)  # stable on script order
        horizon = self.horizon if self.horizon is not None else 0
        if events:
            horizon = max(horizon, max(e.tick for e in events))
        return Scenario(
            contract=self.contract,
            events=tuple(events),
            oracle=self.oracle or OracleConfig.frugal(1),
            seed=self.seed or 0,
            horizon=horizon,
            facts=tuple(self.facts),
            name=self.name,
        )

    def statement(self):
        kw = self.toks[self.pos]
        if not kw.isidentifier():
            self.fail("expected a declaration, action or event")
        if kw in _SCENARIO_KEYWORDS and not self.scenario_mode:
            self.fail(f"{kw!r} statements belong in scenarios, not bare contracts")
        if kw not in _STATEMENTS:
            self.fail(f"unknown statement {kw!r}")
        getattr(self, _STATEMENTS[kw])()

    def _declared(self, what: str) -> tuple[int, str]:
        """Skip the statement keyword; the position and text of the name after it."""
        self.pos += 1
        at = self.pos
        return at, self.expect_ident(what)

    def _ground_value(self, msg: str = "expected a constant value") -> Value:
        tok = self.toks[self.pos]
        self.pos += 1
        if tok.isidentifier():
            return tok
        if tok.isdigit():
            return int(tok)
        if tok[:1] == '"':
            return _unquote(tok)
        self.fail(msg, self.pos - 1)

    def _ground_args(self) -> list[Value]:
        """A parenthesized list of constants; commas are optional."""
        self.expect("(")
        args: list[Value] = []
        while self.toks[self.pos] != ")":
            args.append(self._ground_value())
            self.take(",")
        self.pos += 1
        return args

    def _params(self) -> list[str]:
        """A parenthesized list of parameter names; commas are optional."""
        self.expect("(")
        names: list[str] = []
        while self.toks[self.pos] != ")":
            names.append(self.expect_ident("parameter"))
            self.take(",")
        self.pos += 1
        return names

    # -- declarations -----------------------------------------------------

    def _declare_agent(self, at: int, aid: str, kind: str, balance: int = 0):
        if aid in (TIME_ORACLE, VALIDATION_AUTHORITY):
            self.fail(f"{aid!r} is reserved", at, DuplicateAgent)
        if aid in self.agents:
            self.fail(f"agent {aid!r} declared twice", at, DuplicateAgent)
        self.agents[aid] = Agent(aid, kind, balance)

    def p_agent(self):
        at, aid = self._declared("agent id")
        balance = self.expect_int("balance") if self.take("balance") else 0
        self._declare_agent(at, aid, "wallet", balance)

    def p_oracle(self):
        at, aid = self._declared("oracle id")
        if self.toks[self.pos] == "balance":
            self.fail("oracles hold no balance")
        self._declare_agent(at, aid, "oracle")

    def p_domain(self):
        at, name = self._declared("domain name")
        if name in self.defs.domains:
            self.fail(f"domain {name!r} declared twice", at, DuplicateDefinition)
        self.expect("=")
        self.expect("{")
        members: list[Value] = []
        while self.toks[self.pos] != "}":
            members.append(self._ground_value("domain members are identifiers or integers"))
            self.take(",")
        self.pos += 1
        self.defs.domains[name] = tuple(members)

    def _taken_symbol(self, name: str) -> bool:
        d = self.defs
        return (
            name in d.functions
            or name in d.predicates
            or name in d.atoms
            or name in BUILTIN_FUNCTIONS
            or name in BUILTIN_PREDICATES
            or name in RESERVED_ATOMS
        )

    def _new_symbol(self, what: str) -> str:
        at, name = self._declared(what)
        if self._taken_symbol(name):
            self.fail(f"symbol {name!r} declared twice", at, DuplicateDefinition)
        return name

    def p_function(self):
        name = self._new_symbol("function name")
        params = self._params()
        body = self.term(set(params)) if self.take("=") else None
        self.defs.functions[name] = FunctionDef(name, len(params), params=tuple(params), body=body)

    def p_map(self):
        at, name = self._declared("function name")
        fd = self.defs.functions.get(name)
        key = tuple(self._ground_args())
        self.expect("=")
        value = self._ground_value()
        if fd is None:
            if self._taken_symbol(name):
                self.fail(f"{name!r} is not a mappable function", at, DuplicateDefinition)
            fd = self.defs.functions[name] = FunctionDef(name, len(key))
        if fd.body is not None:
            self.fail(f"{name!r} already has a defined body", at, DuplicateDefinition)
        if fd.arity != len(key):
            self.fail(f"{name} expects {fd.arity} argument(s)", at, ArityError)
        if key in fd.table:
            self.fail(f"duplicate map entry for {name}{key!r}", at, DuplicateDefinition)
        fd.table[key] = value

    def p_predicate(self):
        name = self._new_symbol("predicate name")
        params = self._params()
        self.expect(":=")
        body = self.formula(set(params))
        self.defs.predicates[name] = PredicateDef(name, tuple(params), body)

    def p_atom(self):
        name = self._new_symbol("atom name")
        self.defs.atoms[name] = len(self._params()) if self.toks[self.pos] == "(" else 0

    def p_constraint(self):
        self.pos += 1
        self.constraints.append(self.formula(set()))

    # -- actions ----------------------------------------------------------

    def p_action(self):
        deps: list[str] = []
        if self.take("after"):
            self.expect("[")
            while self.toks[self.pos] != "]":
                at = self.pos
                dep = self.expect_ident("dependency binding")
                if dep not in self.bindings:
                    self.fail(
                        f"dependency {dep!r} is not an earlier binding", at, ForwardDependency
                    )
                deps.append(dep)
                self.take(",")
            self.pos += 1
        self.expect("issue")
        at = self.pos
        binding = self.expect_ident("binding")
        if binding in self.bindings or binding in self.labels:
            self.fail(f"binding {binding!r} used twice", at, DuplicateBinding)
        self.expect("=")
        self.expect("tx")
        tx = self.p_transaction()
        self.bindings.add(binding)
        self.actions.append(Action(binding, tuple(deps), tx))

    def p_transaction(self) -> Transaction:
        source = self._wallet("source agent")
        self.expect("-")
        self.expect("(")
        at = self.pos
        amount = self.expect_int("amount")
        if amount <= 0:
            self.fail("amount must be strictly positive", at, NonPositiveAmount)
        self.expect(")")
        self.expect("[")
        guard = self.p_guard()
        self.expect("]")
        self.expect("->")
        at = self.pos
        sink = self._wallet("sink agent")
        if source == sink:
            self.fail("source and sink must differ", at, SourceIsSink)
        return Transaction(source, amount, guard, sink)

    def _authority(self) -> str:
        """An endorsing authority and the ':' before its claim body."""
        at = self.pos
        aid = self.expect_ident("authority")
        if aid != TIME_ORACLE and aid not in self.agents:
            self.fail(f"unknown authority {aid!r}", at, UnknownAgent)
        self.expect(":")
        return aid

    def p_guard(self) -> Guard:
        if self.take("claim"):
            authority = self._authority()
            return ClaimedGuard(Claim(authority, self.formula(set())))
        f = self.formula(set())
        self._require_computable(f)
        return ClosedGuard(f)

    def _require_computable(self, f: Formula):
        """Closed guards may only mention symbols the chain can value."""

        def bad(term: Term):
            if isinstance(term, FnApp):
                fd = self.defs.functions.get(term.name)
                if fd is not None and fd.kind == "uninterpreted":
                    raise UncomputableGuard(
                        f"closed guard uses uninterpreted function {term.name!r}"
                    )
                for a in term.args:
                    bad(a)

        def walk(g: Formula):
            if isinstance(g, Atom):
                for a in g.args:
                    bad(a)
            elif isinstance(g, Cmp):
                bad(g.lhs)
                bad(g.rhs)
            elif isinstance(g, Not):
                walk(g.sub)
            elif isinstance(g, (And, Or, Implies)):
                walk(g.lhs)
                walk(g.rhs)
            elif isinstance(g, (ForAll, Exists)):
                walk(g.body)

        walk(f)

    # -- scenario statements ----------------------------------------------

    def p_tokens(self):
        at = self.pos
        self.pos += 1
        if self.oracle is not None:
            self.fail("tokens policy declared twice", at, DuplicateDefinition)
        if self.take("prodigal"):
            self.oracle = OracleConfig.prodigal()
        elif self.take("frugal"):
            k = self.expect_int("k")
            if k < 1:
                self.fail("frugal k must be at least 1", at)
            self.oracle = OracleConfig.frugal(k)
        else:
            self.fail("expected 'prodigal' or 'frugal k'")

    def p_seed(self):
        if self.seed is not None:
            self.fail("seed declared twice", err=DuplicateDefinition)
        self.pos += 1
        self.seed = self.expect_int("seed")

    def p_horizon(self):
        if self.horizon is not None:
            self.fail("horizon declared twice", err=DuplicateDefinition)
        self.pos += 1
        self.horizon = self.expect_int("horizon")

    def p_fact(self):
        at, name = self._declared("atom name")
        args = self._ground_args() if self.toks[self.pos] == "(" else []
        arity = self.defs.atom_arity(name)
        if arity is None:
            self.fail(f"atom {name!r} is not declared", at, UndeclaredName)
        if arity != len(args):
            self.fail(f"{name} expects {arity} argument(s)", at, ArityError)
        self.facts.append((name, tuple(args)))

    def p_event(self):
        self.pos += 1
        tick = self.expect_int("tick")
        at = self.pos
        kind = self.expect_ident("event kind")
        if kind == "claim":
            label = None
            if self.toks[self.pos].isidentifier() and self.toks[self.pos + 1] == "=":
                at = self.pos
                label = self.toks[at]
                self.pos += 2
                if label in self.labels or label in self.bindings:
                    self.fail(f"label {label!r} used twice", at, DuplicateBinding)
            authority = self._authority()
            body = self.formula(set())
            while label is None or label in self.labels or label in self.bindings:
                label = f"claim{self.auto_label}"
                self.auto_label += 1
            self.labels.add(label)
            self.events.append(ClaimEvent(tick, label, Claim(authority, body)))
        elif kind == "submit":
            at = self.pos
            binding = self.expect_ident("binding")
            if binding not in self.bindings:
                self.fail(f"no action bound to {binding!r}", at, UnknownBinding)
            by = None
            if self.take("by"):
                at = self.pos
                by = self.expect_ident("agent")
                if by not in self.agents:
                    self.fail(f"unknown agent {by!r}", at, UnknownAgent)
            self.events.append(SubmitEvent(tick, binding, by))
        else:
            self.fail(f"unknown event kind {kind!r}", at, UnknownEventKind)


# ---------------------------------------------------------------------------
# Public API


def parse_contract(text: str) -> Contract:
    """Parse declarations and actions; scenario statements are rejected."""
    return _FileParser(text, scenario=False).parse()


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse a full scenario: a contract plus oracle policy and timeline."""
    return _FileParser(text, scenario=True, name=name).parse()


def parse_formula(text: str, context) -> Formula:
    """Parse one formula in the declaration context of a contract/scenario.

    The exact canonical text of one of the contract's constraints gives
    that constraint, which is what parsing the text would build, without
    parsing it: certificates cite their constraints by that text.
    """
    contract = context.contract if isinstance(context, Scenario) else context
    known = contract.defs.constraint_texts.get(text)
    if known is not None:
        return known
    p = _Parser(text, contract)
    f = p.formula(set())
    if p.toks[p.pos] != _EOF:
        p.fail("trailing input after formula")
    return f


def guard_text(g: Guard) -> str:
    if isinstance(g, ClaimedGuard):
        return claim_text(g.claim)
    return formula_text(g.formula)


def action_text(a: Action) -> str:
    """Canonical one-line rendering of a bound action."""
    tx = a.transaction
    head = f"after [{', '.join(a.deps)}] issue" if a.deps else "issue"
    return f"{head} {a.binding} = tx {tx.source} -({tx.amount})[{guard_text(tx.guard)}]-> {tx.sink}"


def pretty_print(c: Contract) -> str:
    """Canonical text of a contract; parses back to an equal Contract."""
    out: list[str] = []
    for a in c.agents:
        if a.kind == "oracle":
            out.append(f"oracle {a.id}")
        elif a.balance:
            out.append(f"agent {a.id} balance {a.balance}")
        else:
            out.append(f"agent {a.id}")
    d = c.defs
    for name, members in d.domains.items():
        inner = ", ".join(term_text(_wrap(m)) for m in members)
        out.append(f"domain {name} = {{ {inner} }}")
    for name, fd in d.functions.items():
        if fd.body is not None:
            out.append(f"function {name}({', '.join(fd.params)}) = {term_text(fd.body)}")
        elif fd.params is not None:
            out.append(f"function {name}({', '.join(fd.params)})")
        for key, val in fd.table.items():
            args = ", ".join(term_text(_wrap(v)) for v in key)
            out.append(f"map {name}({args}) = {term_text(_wrap(val))}")
    for name, arity in d.atoms.items():
        if arity:
            out.append(f"atom {name}({', '.join(f'a{i}' for i in range(arity))})")
        else:
            out.append(f"atom {name}")
    for name, pd in d.predicates.items():
        out.append(f"predicate {name}({', '.join(pd.params)}) := {formula_text(pd.body)}")
    for g in d.constraints:
        out.append(f"constraint {formula_text(g)}")
    for a in c.actions:
        out.append(action_text(a))
    return "\n".join(out) + "\n"
