"""Every parse error pinned down: its class, message, line and column.

One entry per ``fail`` call site in ``plurality.syntax`` and per lexer
error.  Inputs are contracts (``parse_contract``), scenarios
(``parse_scenario``) or single formulas parsed against ``CONTEXT``
(``parse_formula``).  Positions count every character from the start
of the text, newlines inside string literals and comments included.
"""

from __future__ import annotations

import pytest

from plurality.syntax import ParseError, parse_contract, parse_formula, parse_scenario

BASE = "agent A balance 5\nagent B\noracle O\natom paid(k)\natom flag\n"
FAIR = "agent F balance 50\nagent W\nissue x = tx F -(50)[true]-> W\n"
CONTEXT = "agent A\noracle O\natom st(x)\ndomain D = { A }\n"

PARSE = {
    "contract": parse_contract,
    "scenario": parse_scenario,
    "formula": lambda text: parse_formula(text, parse_contract(CONTEXT)),
}

# (id, input kind, input text, error class, message, line, column)
CASES = [
    # lexer
    ('unterminated-string', 'contract', 'agent A\ndomain D = { "open\n',
     'ParseError', 'unterminated string', 2, 14),
    ('stray-character', 'contract', 'agent A\nagent B $\n',
     'ParseError', "stray character '$'", 2, 9),
    ('stray-after-multiline-string', 'contract', 'agent A\ndomain D = { "x\ny", @ }',
     'ParseError', "stray character '@'", 3, 5),
    ('error-after-multiline-string', 'contract', 'domain D = { "a\nb" }\ndomain D = { 1 }\n',
     'DuplicateDefinition', "domain 'D' declared twice", 3, 8),
    ('non-ascii-digit-in-scenario', 'scenario', 'agent A balance ²\n',
     'ParseError', "stray character '²'", 1, 17),
    ('non-ascii-digit-in-formula', 'formula', 'st(²)',
     'ParseError', "stray character '²'", 1, 4),
    ('non-ascii-digit-in-identifier', 'contract', 'agent A²\n',
     'ParseError', "stray character '²'", 1, 8),
    ('non-ascii-identifier', 'contract', 'agent é\n',
     'ParseError', "stray character 'é'", 1, 7),
    ('non-ascii-in-comment-and-string', 'contract', '# é²\ndomain D = { "é²" }\n×',
     'ParseError', "stray character '×'", 3, 1),
    # statements and declarations
    ('expected-statement', 'contract', 'agent A\n42\n',
     'ParseError', 'expected a declaration, action or event', 2, 1),
    ('scenario-statement-in-contract', 'contract', 'agent A\nseed 3\n',
     'ParseError', "'seed' statements belong in scenarios, not bare contracts", 2, 1),
    ('unknown-statement', 'contract', 'agent A\nbogus B\n',
     'ParseError', "unknown statement 'bogus'", 2, 1),
    ('reserved-agent', 'contract', 'agent A\nagent K_t\n',
     'DuplicateAgent', "'K_t' is reserved", 2, 7),
    ('agent-declared-twice', 'contract', 'agent A\n  agent A\n',
     'DuplicateAgent', "agent 'A' declared twice", 2, 9),
    ('oracle-balance', 'contract', 'oracle O balance 5\n',
     'ParseError', 'oracles hold no balance', 1, 10),
    ('expected-agent-id', 'contract', 'agent 5\n',
     'ParseError', 'expected agent id', 1, 7),
    ('expected-balance', 'contract', 'agent A balance x\n',
     'ParseError', 'expected balance', 1, 17),
    ('domain-declared-twice', 'contract', 'domain D = { 1 }\ndomain D = { 2 }\n',
     'DuplicateDefinition', "domain 'D' declared twice", 2, 8),
    ('domain-member', 'contract', 'domain D = { 1, ; }\n',
     'ParseError', 'domain members are identifiers or integers', 1, 17),
    ('domain-member-at-end', 'contract', 'domain D = { 1,',
     'ParseError', 'domain members are identifiers or integers', 1, 16),
    ('expected-equals', 'contract', 'domain D { 1 }\n',
     'ParseError', "expected '='", 1, 10),
    ('function-declared-twice', 'contract', 'atom f\nfunction f(x) = x\n',
     'DuplicateDefinition', "symbol 'f' declared twice", 2, 10),
    ('expected-parameter', 'contract', 'function f(1) = 1\n',
     'ParseError', 'expected parameter', 1, 12),
    ('not-mappable', 'contract', 'atom f\nmap f(1) = 2\n',
     'DuplicateDefinition', "'f' is not a mappable function", 2, 5),
    ('map-over-body', 'contract', 'function f(x) = x\nmap f(1) = 2\n',
     'DuplicateDefinition', "'f' already has a defined body", 2, 5),
    ('map-arity', 'contract', 'map g(1) = 2\nmap g(1, 2) = 3\n',
     'ArityError', 'g expects 1 argument(s)', 2, 5),
    ('duplicate-map-entry', 'contract', 'map g(1) = 2\nmap g(1) = 3\n',
     'DuplicateDefinition', 'duplicate map entry for g(1,)', 2, 5),
    ('expected-constant', 'contract', 'map g(->) = 1\n',
     'ParseError', 'expected a constant value', 1, 7),
    ('predicate-declared-twice', 'contract', 'atom p\npredicate p(x) := true\n',
     'DuplicateDefinition', "symbol 'p' declared twice", 2, 11),
    ('expected-define', 'contract', 'predicate p(x) = true\n',
     'ParseError', "expected ':='", 1, 16),
    ('atom-declared-twice', 'contract', 'atom p\natom p(x)\n',
     'DuplicateDefinition', "symbol 'p' declared twice", 2, 6),
    # actions
    ('forward-dependency', 'contract', BASE + 'after [y] issue x = tx A -(1)[true]-> B\n',
     'ForwardDependency', "dependency 'y' is not an earlier binding", 6, 8),
    ('expected-issue', 'contract', BASE + 'after [] x = tx A -(1)[true]-> B\n',
     'ParseError', "expected 'issue'", 6, 10),
    ('binding-used-twice', 'contract', BASE + 'issue x = tx A -(1)[true]-> B\nissue x = tx B -(1)[true]-> A\n',
     'DuplicateBinding', "binding 'x' used twice", 7, 7),
    ('expected-tx', 'contract', BASE + 'issue x = A -(1)[true]-> B\n',
     'ParseError', "expected 'tx'", 6, 11),
    ('expected-amount', 'contract', BASE + 'issue x = tx A -(x)[true]-> B\n',
     'ParseError', 'expected amount', 6, 18),
    ('non-positive-amount', 'contract', BASE + 'issue x = tx A -(0)[true]-> B\n',
     'NonPositiveAmount', 'amount must be strictly positive', 6, 18),
    ('source-is-sink', 'contract', BASE + 'issue x = tx A -(5)[true]-> A\n',
     'SourceIsSink', 'source and sink must differ', 6, 29),
    ('oracle-as-source', 'contract', BASE + 'issue x = tx O -(5)[true]-> A\n',
     'UnknownAgent', "'O' is not a declared wallet agent", 6, 14),
    ('unknown-sink', 'contract', BASE + 'issue x = tx A -(5)[true]-> Z\n',
     'UnknownAgent', "'Z' is not a declared wallet agent", 6, 29),
    ('expected-arrow', 'contract', BASE + 'issue x = tx A -(5)[true] B\n',
     'ParseError', "expected '->'", 6, 27),
    ('unknown-authority-in-guard', 'contract', BASE + 'issue x = tx A -(1)[claim Nobody: true]-> B\n',
     'UnknownAgent', "unknown authority 'Nobody'", 6, 27),
    ('uncomputable-guard', 'contract', 'agent A\nagent B\nfunction u(x)\nissue x = tx A -(1)[u(1) = 2]-> B\n',
     'UncomputableGuard', "closed guard uses uninterpreted function 'u'", 0, 0),
    # formulas and terms in guards
    ('expected-in', 'contract', BASE + 'domain D = { 1 }\nissue x = tx A -(1)[forall v D . true]-> B\n',
     'ParseError', "expected 'in'", 7, 30),
    ('undeclared-domain', 'contract', BASE + 'issue x = tx A -(1)[forall v in Nowhere . true]-> B\n',
     'UndeclaredName', "domain 'Nowhere' is not declared", 6, 33),
    ('expected-dot', 'contract', BASE + 'domain D = { 1 }\nissue x = tx A -(1)[exists v in D true]-> B\n',
     'ParseError', "expected '.'", 7, 35),
    ('chained-comparison', 'contract', BASE + 'issue x = tx A -(1)[1 < 2 < 3]-> B\n',
     'ParseError', 'comparisons do not chain', 6, 27),
    ('function-not-formula', 'contract', BASE + 'issue x = tx A -(1)[add(1, 2)]-> B\n',
     'ParseError', "function 'add' is not a formula", 6, 21),
    ('undeclared-predicate-application', 'contract', BASE + 'issue x = tx A -(1)[mystery(A)]-> B\n',
     'UndeclaredName', "predicate 'mystery' is not declared", 6, 21),
    ('atom-arity', 'contract', BASE + 'issue x = tx A -(1)[paid(A, B)]-> B\n',
     'ArityError', 'paid expects 1 argument(s)', 6, 21),
    ('undeclared-predicate-constant', 'contract', BASE + 'issue x = tx A -(1)[mystery]-> B\n',
     'UndeclaredName', "predicate 'mystery' is not declared", 6, 21),
    ('nullary-use-of-unary-atom', 'contract', BASE + 'issue x = tx A -(1)[paid]-> B\n',
     'ArityError', 'paid expects 1 argument(s)', 6, 21),
    ('expected-formula', 'contract', BASE + 'issue x = tx A -(1)[5]-> B\n',
     'ParseError', 'expected a formula', 6, 21),
    ('balance-of-oracle', 'contract', BASE + 'issue x = tx A -(1)[|O| > 1]-> B\n',
     'UnknownAgent', "'O' is not a declared wallet agent", 6, 22),
    ('expected-term', 'contract', BASE + 'issue x = tx A -(1)[|A| > ]-> B\n',
     'ParseError', 'expected a term', 6, 27),
    ('expected-integer-after-minus', 'contract', BASE + 'issue x = tx A -(1)[|A| > -x]-> B\n',
     'ParseError', 'expected integer', 6, 28),
    ('predicate-as-term', 'contract', BASE + 'issue x = tx A -(1)[paid(A) = 1]-> B\n',
     'ParseError', "predicate 'paid' is not a term", 6, 32),
    ('undeclared-function', 'contract', BASE + 'issue x = tx A -(1)[nof(1) = 1]-> B\n',
     'UndeclaredName', "function 'nof' is not declared", 6, 31),
    ('function-arity', 'contract', BASE + 'issue x = tx A -(1)[add(1) = 1]-> B\n',
     'ArityError', 'add expects 2 argument(s)', 6, 31),
    ('expected-close-paren', 'contract', BASE + 'issue x = tx A -(1)[(true]-> B\n',
     'ParseError', "expected ')'", 6, 26),
    ('expected-close-bar', 'contract', BASE + 'issue x = tx A -(1)[|A > 1]-> B\n',
     'ParseError', "expected '|'", 6, 24),
    # scenario statements
    ('tokens-declared-twice', 'scenario', FAIR + 'tokens frugal 1\ntokens prodigal\n',
     'DuplicateDefinition', 'tokens policy declared twice', 5, 1),
    ('frugal-zero', 'scenario', FAIR + 'tokens frugal 0\n',
     'ParseError', 'frugal k must be at least 1', 4, 1),
    ('unknown-tokens-policy', 'scenario', FAIR + 'tokens lavish\n',
     'ParseError', "expected 'prodigal' or 'frugal k'", 4, 8),
    ('seed-declared-twice', 'scenario', FAIR + 'seed 1\nseed 2\n',
     'DuplicateDefinition', 'seed declared twice', 5, 1),
    ('expected-seed', 'scenario', FAIR + 'seed x\n',
     'ParseError', 'expected seed', 4, 6),
    ('horizon-declared-twice', 'scenario', FAIR + 'horizon 1\nhorizon 2\n',
     'DuplicateDefinition', 'horizon declared twice', 5, 1),
    ('undeclared-fact', 'scenario', FAIR + 'fact nope\n',
     'UndeclaredName', "atom 'nope' is not declared", 4, 6),
    ('fact-arity', 'scenario', FAIR + 'atom wet(t)\nfact wet(a, b)\n',
     'ArityError', 'wet expects 1 argument(s)', 5, 6),
    ('label-used-twice', 'scenario', FAIR + 'at 1 claim x = W: true\n',
     'DuplicateBinding', "label 'x' used twice", 4, 12),
    ('label-reused', 'scenario', FAIR + 'at 1 claim c = W: true\nat 2 claim c = W: true\n',
     'DuplicateBinding', "label 'c' used twice", 5, 12),
    ('binding-after-label', 'scenario', FAIR + 'at 1 claim c = W: true\nissue c = tx W -(1)[true]-> F\n',
     'DuplicateBinding', "binding 'c' used twice", 5, 7),
    ('unknown-authority-in-event', 'scenario', FAIR + 'at 1 claim Nobody: true\n',
     'UnknownAgent', "unknown authority 'Nobody'", 4, 12),
    ('unknown-binding', 'scenario', FAIR + 'at 1 submit nosuch\n',
     'UnknownBinding', "no action bound to 'nosuch'", 4, 13),
    ('unknown-submitter', 'scenario', FAIR + 'at 1 submit x by Nobody\n',
     'UnknownAgent', "unknown agent 'Nobody'", 4, 18),
    ('unknown-event-kind', 'scenario', FAIR + 'at 1 dance x\n',
     'UnknownEventKind', "unknown event kind 'dance'", 4, 6),
    ('expected-tick', 'scenario', FAIR + 'at soon submit x\n',
     'ParseError', 'expected tick', 4, 4),
    ('expected-colon', 'scenario', FAIR + 'at 1 claim W true\n',
     'ParseError', "expected ':'", 4, 14),
    # bare formulas
    ('trailing-input', 'formula', 'true true',
     'ParseError', 'trailing input after formula', 1, 6),
    ('empty-formula', 'formula', '',
     'ParseError', 'expected a term', 1, 1),
    ('end-after-comment', 'formula', 'st(A) &\n  # nothing follows',
     'ParseError', 'expected a term', 2, 20),
]


@pytest.mark.parametrize(
    "kind,text,err,msg,line,col", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_parse_error_is_pinned(kind, text, err, msg, line, col):
    with pytest.raises(ParseError) as info:
        PARSE[kind](text)
    e = info.value
    assert (type(e).__name__, e.msg, e.line, e.col) == (err, msg, line, col)
