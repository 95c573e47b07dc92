"""Discord certificate serialization and independent replay checking.

The checker deliberately does not reuse the resolution search: input
steps are checked by evaluation and resolution steps syntactically.  An
input clause must follow from its cited source by simplification: under
the assignment that makes every literal of the clause false, three-valued
partial evaluation must turn one of the source's top-level conjuncts
FALSE.  Every clause of the source's ground expansion in conjunctive
normal form passes, and so does any clause containing one, which covers
every clause the engine cites; a clause the source entails only
semantically is refused, so replay never searches.  The minimality audit
asks satisfiability questions of a small DPLL over the same partial
evaluation, so its cost follows the atoms its formulas leave
undetermined, not the size of the contract's ground universe; each search
stops with ResourceLimit after ``MAX_SEARCH_STEPS`` steps, and every model
it reports is confirmed with the formula evaluator.  The only code shared
with the engine is that evaluator and ground expansion.

What derives from the constraints alone is one immutable ``_Background``
per constraint tuple, built by the first check against it; a
certificate's bodies are compiled once per verdict, in one view that the
replay and the minimality audit share.  Replay finds a cited constraint
by structural equality in the contract's tuple.  A satisfiability check
searches its own formulas plus only the constraint conjuncts connected to
their atoms.  This is exact: the other conjuncts share no atom with the
search and are a subset of the constraints, so they are satisfiable
whenever the constraints are, which the background decides once; when
they are not, every check answers unsatisfiable, as a search over all of
them would.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from operator import index
from typing import NamedTuple

from .logic import (
    And,
    Claim,
    DefinitionSet,
    DiscordCertificate,
    FalseF,
    Formula,
    Implies,
    Not,
    Or,
    ProofStep,
    Refutation,
    ResourceLimit,
    TrueF,
    atom_key,
    claim_text,
    eval_residual,
    formula_text,
    ground_expand,
)

CERTIFICATE_FORMAT = "plurality-discord-certificate/1"
MAX_SEARCH_STEPS = 1000  # stack pops per search: engine certificates need a few


class CertificateError(Exception):
    pass


class ReplayFailed(CertificateError):
    """The refutation trace does not check out against its inputs."""


class NotMinimal(CertificateError):
    """Some proper subset of the conflict already contradicts itself."""


# ---------------------------------------------------------------------------
# Serialization


def claim_to_doc(c: Claim) -> dict:
    return {"authority": c.authority, "body": formula_text(c.body), "origin": c.origin}


def step_to_doc(s: ProofStep) -> dict:
    doc: dict = {"rule": s.rule, "clause": list(s.clause)}
    if s.rule == "input":
        if s.source[0] == "candidate":
            doc["source"] = "candidate"
        else:
            doc["source"] = f"{s.source[0]}:{s.source[1]}"
    else:
        doc["premises"] = list(s.premises)
    return doc


def certificate_to_doc(cert: DiscordCertificate) -> dict:
    r = cert.refutation
    return {
        "format": CERTIFICATE_FORMAT,
        "candidate": claim_to_doc(cert.candidate),
        "conflict": [claim_to_doc(c) for c in cert.conflict],
        "refutation": {
            "conclusion": formula_text(r.conclusion),
            "used_constraints": [formula_text(g) for g in r.used_constraints],
            "atoms": list(r.atoms),
            "steps": [step_to_doc(s) for s in r.steps],
        },
    }


def certificate_to_text(cert: DiscordCertificate) -> str:
    return json_text(certificate_to_doc(cert))


def json_text(doc) -> str:
    """The canonical text of a JSON document, ending in a newline.

    The text is exactly ``json.dumps(doc, sort_keys=True, indent=1)``
    plus a newline: sorted keys, one more space of indent per level,
    ASCII only with ``\\uXXXX`` escapes (docs/format.md gives the rules).
    Only str, int, bool, None, list and dicts with str keys are allowed;
    anything else raises TypeError.
    """
    return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` rendered, its inner lines starting ``newline`` plus a space.

    Each container is joined from its members' texts, and a string
    member is quoted in place; json's pure-Python encoder, which
    ``indent`` selects, yields a chunk per token instead.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + " "
        items = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            text = _quote(item) if type(item) is str else _json(item, inner)
            items.append(_quote(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + " "
        items = [_quote(v) if type(v) is str else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _get(doc, key: str, kind: type, default=None):
    """``doc[key]``, which must be of exactly type ``kind``.

    A certificate comes from outside the program, so a missing key or a
    value of the wrong JSON type is a CertificateError, not a crash in
    the code that reads it.  ``default`` stands in for a missing key.
    """
    if type(doc) is dict:
        value = doc.get(key, default)
        if type(value) is kind:
            return value
        if value is None:
            raise CertificateError(f"{key!r} is missing or null")
        raise CertificateError(f"{key!r} is {type(value).__name__}, not {kind.__name__}")
    raise CertificateError(f"expected an object holding {key!r}, got {type(doc).__name__}")


def _ints(doc, key: str) -> tuple[int, ...]:
    """The list ``doc[key]`` of integers, as a tuple.

    ``operator.index`` rejects every other JSON type in one pass in C,
    which keeps the check cheap on proof steps.
    """
    try:
        return tuple(map(index, doc[key]))
    except (KeyError, TypeError):
        raise CertificateError(f"{key!r} is not a list of integers") from None


def _strs(doc, key: str) -> tuple[str, ...]:
    """The list ``doc[key]`` of strings, as a tuple."""
    values = _get(doc, key, list)
    if any(type(v) is not str for v in values):
        raise CertificateError(f"{key!r} holds an item that is not str")
    return tuple(values)


def _claim_from_doc(doc: dict, parse) -> Claim:
    return Claim(
        _get(doc, "authority", str),
        parse(_get(doc, "body", str)),
        _get(doc, "origin", str, "submitted"),
    )


def _step_from_doc(doc: dict) -> ProofStep:
    clause = _ints(doc, "clause")
    rule = _get(doc, "rule", str)
    if rule == "input":
        raw = _get(doc, "source", str)
        if raw == "candidate":
            source: tuple = ("candidate",)
        else:
            kind, _, idx = raw.partition(":")
            try:
                source = (kind, int(idx))
            except ValueError:
                raise CertificateError(f"source {raw!r} has no integer index") from None
        return ProofStep("input", clause, source=source)
    premises = _ints(doc, "premises")
    if len(premises) != 2:
        raise CertificateError(f"a resolution step cites {len(premises)} premises, not 2")
    return ProofStep(rule, clause, premises=premises)  # replay rejects a rule it does not know


def certificate_from_doc(doc: dict, parse) -> DiscordCertificate:
    """Rebuild a certificate; ``parse`` maps formula text back to an AST.

    A missing field or one of the wrong JSON type raises
    CertificateError; ``parse`` raises its own errors on formula text.
    """
    fmt = _get(doc, "format", str, "")
    if fmt != CERTIFICATE_FORMAT:
        raise CertificateError(f"unrecognized certificate format {fmt!r}")
    r = _get(doc, "refutation", dict)
    candidate = _claim_from_doc(_get(doc, "candidate", dict), parse)
    negation = Not(candidate.body)  # nests a level deeper than the body: compared, not parsed
    text = _get(r, "conclusion", str)
    refutation = Refutation(
        conclusion=negation if text == formula_text(negation) else parse(text),
        used_claims=tuple(_claim_from_doc(c, parse) for c in _get(doc, "conflict", list)),
        used_constraints=tuple(parse(g) for g in _strs(r, "used_constraints")),
        atoms=_strs(r, "atoms"),
        steps=tuple(_step_from_doc(s) for s in _get(r, "steps", list)),
    )
    return DiscordCertificate(
        candidate=candidate,
        conflict=refutation.used_claims,
        refutation=refutation,
    )


def certificate_from_text(text: str, parse) -> DiscordCertificate:
    return certificate_from_doc(json.loads(text), parse)


# ---------------------------------------------------------------------------
# Satisfiability: three-valued simplification and a small DPLL
#
# A compiled formula is a node in negation normal form: True, False, a
# literal (a signed 1-based atom id), or a flat ("and" | "or", children)
# pair.  Flattening keeps the nesting depth at the number of alternations
# between the two connectives, however long a grounded chain is.


def _connective(f: Formula, neg: bool):
    """The flat kind of ``f`` under polarity ``neg`` and its signed operands."""
    if isinstance(f, And):
        return ("or" if neg else "and"), ((f.lhs, neg), (f.rhs, neg))
    if isinstance(f, Or):
        return ("and" if neg else "or"), ((f.lhs, neg), (f.rhs, neg))
    if isinstance(f, Implies):
        return ("and" if neg else "or"), ((f.lhs, not neg), (f.rhs, neg))
    return None, ()


def _flat(f: Formula, neg: bool):
    """``f`` and ``neg`` without outer negations, the flat kind (None for a
    leaf) and the signed operands, same-kind connectives spliced in."""
    while isinstance(f, Not):
        f, neg = f.sub, not neg
    kind, todo = _connective(f, neg)
    todo, operands = list(reversed(todo)), []
    while todo:
        g, gneg = todo.pop()
        while isinstance(g, Not):
            g, gneg = g.sub, not gneg
        gkind, gops = _connective(g, gneg)
        if gkind == kind:
            todo.extend(reversed(gops))
        else:
            operands.append((g, gneg))
    return f, neg, kind, operands


class _Part(NamedTuple):
    """A top-level conjunct: residual form, compiled node, atom id -> key."""

    residual: Formula
    node: object
    atoms: dict[int, str]


def _compile(f: Formula, defs: DefinitionSet, id_of) -> tuple[_Part, ...]:
    """The top-level conjuncts of ``f`` after ground expansion, each atom
    numbered by ``id_of(key)``."""
    top, neg, kind, operands = _flat(ground_expand(f, defs), False)
    parts = []
    for g, gneg in operands if kind == "and" else [(top, neg)]:
        atoms: dict[int, str] = {}
        parts.append(_Part(Not(g) if gneg else g, _node(g, gneg, atoms, id_of), atoms))
    return tuple(parts)


def _node(f: Formula, neg: bool, atoms: dict[int, str], id_of):
    f, neg, kind, operands = _flat(f, neg)
    if kind is not None:
        return (kind, tuple(_node(g, gneg, atoms, id_of) for g, gneg in operands))
    if isinstance(f, (TrueF, FalseF)):
        return isinstance(f, TrueF) != neg
    key = atom_key(f)
    atom = id_of(key)
    atoms[atom] = key
    return -atom if neg else atom


def _confirmed(parts: list[_Part]) -> bool:
    """Search ``parts``; a model found is confirmed by evaluating every
    part's residual form, unassigned atoms False."""
    model = _search([p.node for p in parts], {})
    if model is None:
        return False
    full = {key: model.get(a, False) for p in parts for a, key in p.atoms.items()}
    if not all(eval_residual(p.residual, full) for p in parts):
        raise RuntimeError("the search returned an assignment that is not a model")
    return True


class _Background:
    """What checks derive from one constraint tuple alone, built by the
    first check against it and never changed: atom ids, compiled conjuncts
    (``spans[j]`` holds constraint j's), their index by atom, and ``sat``,
    whether the constraints alone are satisfiable.  It keeps the tuple but
    not the DefinitionSet, so it forms no reference cycle with it."""

    def __init__(self, constraints: tuple[Formula, ...], defs: DefinitionSet):
        self.constraints, self.ids, self.parts, self.spans = constraints, {}, [], []
        for g in constraints:
            start = len(self.parts)
            self.parts += _compile(g, defs, lambda key: self.ids.setdefault(key, len(self.ids) + 1))
            self.spans.append(range(start, len(self.parts)))
        self.index: dict[int, list[int]] = {}
        for i, p in enumerate(self.parts):
            for a in p.atoms:
                self.index.setdefault(a, []).append(i)
        done: set[int] = set()
        self.sat = True
        for i, p in enumerate(self.parts):
            if self.sat and i not in done:
                component = self.component(p.atoms) or [i]
                done.update(component)
                self.sat = _confirmed([self.parts[j] for j in component])

    def component(self, atoms) -> list[int]:
        """Positions of the conjuncts connected to ``atoms``, in order."""
        picked: set[int] = set()
        seen, todo = set(atoms), list(atoms)
        while todo:
            for i in self.index.get(todo.pop(), ()):
                if i not in picked:
                    picked.add(i)
                    todo += self.parts[i].atoms.keys() - seen
                    seen.update(self.parts[i].atoms)
        return sorted(picked)


class _Audit:
    """One verdict's view: the background of its constraint tuple, kept in
    ``_audit_cache`` under the tuple's ``id``, plus the atom ids and
    compiled bodies the certificate brings, dropped with the view."""

    def __init__(self, defs: DefinitionSet, constraints: tuple[Formula, ...] = ()):
        background = defs._audit_cache.get(id(constraints))
        if background is None:
            background = defs._audit_cache[id(constraints)] = _Background(constraints, defs)
        self.defs, self.background, self.ids, self.compiled = defs, background, {}, {}

    def id_of(self, key: str) -> int:
        ids = self.background.ids
        return ids.get(key) or self.ids.setdefault(key, len(ids) + len(self.ids) + 1)

    def compile(self, f: Formula) -> tuple[_Part, ...]:
        got = self.compiled.get(f)
        if got is None:
            got = self.compiled[f] = _compile(f, self.defs, self.id_of)
        return got

    def satisfiable(self, formulas) -> bool:
        """Whether some assignment satisfies every formula and the
        constraints, searching only the constraint conjuncts connected
        to the atoms of the formulas."""
        background = self.background
        parts = [p for f in formulas for p in self.compile(f)]
        seed = [a for p in parts for a in p.atoms]
        parts += [background.parts[i] for i in background.component(seed)]
        return background.sat and _confirmed(parts)


def _simplify(node, asg: dict[int, bool]):
    """Three-valued partial evaluation of ``node`` under ``asg``.

    Returns True, False, or the node over the atoms ``asg`` leaves open.
    """
    if node is True or node is False:
        return node
    if type(node) is int:
        val = asg.get(abs(node))
        if val is None:
            return node
        return val if node > 0 else not val
    kind, kids = node
    decides = kind == "or"  # the child value that settles the connective
    out = []
    changed = False
    for kid in kids:
        s = _simplify(kid, asg)
        if s is not kid:
            changed = True
        if s is True or s is False:
            if s is decides:
                return decides
            changed = True
            continue
        if type(s) is tuple and s[0] == kind:
            out.extend(s[1])
        else:
            out.append(s)
    if not changed:
        return node
    if not out:
        return not decides
    if len(out) == 1:
        return out[0]
    return (kind, tuple(out))


def _propagate(nodes: list, asg: dict[int, bool], delta: dict[int, bool]):
    """Simplify ``nodes`` under ``delta``, then assign unit literals into
    ``asg`` until none is left.

    Returns the open nodes, with top-level conjunctions split, or None
    when some node is falsified.
    """
    while True:
        out = []
        units: dict[int, bool] = {}
        for node in nodes:
            s = _simplify(node, delta)
            if s is False:
                return None
            if s is True:
                continue
            for part in s[1] if type(s) is tuple and s[0] == "and" else (s,):
                if type(part) is int:
                    if units.setdefault(abs(part), part > 0) != (part > 0):
                        return None
                else:
                    out.append(part)
        if not units:
            return out
        asg.update(units)
        nodes, delta = out, units


def _search(nodes: list, asg: dict[int, bool]) -> dict[int, bool] | None:
    """DPLL with an explicit stack: an assignment extending ``asg`` that
    satisfies every node, or None.

    Branches on the first atom of the first open node, True first, and
    raises ResourceLimit once ``MAX_SEARCH_STEPS`` stack pops leave the
    question open.
    """
    stack = [(nodes, asg, dict(asg))]
    for _ in range(MAX_SEARCH_STEPS):
        if not stack:
            return None
        nodes, asg, delta = stack.pop()
        nodes = _propagate(nodes, asg, delta)
        if nodes is None:
            continue
        if not nodes:
            return asg
        atom = nodes[0]
        while type(atom) is tuple:
            atom = atom[1][0]
        atom = abs(atom)
        stack.append((nodes, {**asg, atom: False}, {atom: False}))
        stack.append((nodes, {**asg, atom: True}, {atom: True}))
    if stack:
        raise ResourceLimit(f"the audit's search took more than {MAX_SEARCH_STEPS} steps")
    return None


# ---------------------------------------------------------------------------
# Replay


def _entails_clause(source, clause, atom_ids: list[int]) -> bool:
    """The conjuncts of ``source`` entail ``clause`` by simplification:
    under the assignment that makes every literal of the clause false,
    some conjunct simplifies to FALSE (or the clause is a tautology).

    Every clause of the source's CNF passes, by induction over the
    connectives: a conjunction's clause falsifies one conjunct, a
    disjunction's falsifies every disjunct.  With an index, only the
    conjuncts that mention an assigned atom are simplified: the others
    do not change, since expansion folds constants away below the root,
    so a constant is always the sole conjunct.
    """
    falsify: dict[int, bool] = {}
    tautology = False
    for lit in clause:
        if not 0 < abs(lit) <= len(atom_ids):
            raise ReplayFailed(f"literal {lit} indexes outside the atom table")
        if falsify.setdefault(atom_ids[abs(lit) - 1], lit < 0) != (lit < 0):
            tautology = True  # two literal ids name one atom with both signs
    parts, span, index = source
    if index is not None and len(span) > 1:
        span = {i for atom in falsify for i in index.get(atom, ()) if i in span}
    return tautology or any(_simplify(parts[i].node, falsify) is False for i in span)


def replay_refutation(
    cert: DiscordCertificate,
    constraints: tuple[Formula, ...],
    defs: DefinitionSet,
    *,
    audit: _Audit | None = None,
) -> None:
    """Re-derive the certificate's conclusion from its own inputs.

    Raises ReplayFailed unless every input clause follows by
    simplification from the claim or constraint it cites, every
    resolution step is a correct resolvent of earlier steps, and the
    final step is the empty clause.  ``audit`` is the verdict's view
    when ``check_certificate`` shares one; by default replay makes its
    own.
    """
    r = cert.refutation
    if not r.steps:
        raise ReplayFailed("empty refutation trace")
    if r.used_claims != cert.conflict:
        raise ReplayFailed("refutation claims do not match the conflict set")
    cited = []  # each cited constraint's position in ``constraints``
    for g in r.used_constraints:
        if g not in constraints:
            raise ReplayFailed(f"unknown constraint cited: {formula_text(g)}")
        cited.append(constraints.index(g))
    if r.conclusion != Not(cert.candidate.body):
        raise ReplayFailed("conclusion is not the negation of the candidate body")

    audit = audit or _Audit(defs, constraints)
    atom_ids = [audit.id_of(key) for key in r.atoms]
    sources: dict[tuple, tuple] = {}  # each cited source's conjuncts, compiled once
    seen: list[tuple[int, ...]] = []
    for n, step in enumerate(r.steps):
        if step.rule == "input":
            source = sources.get(step.source)
            if source is None:
                source = sources[step.source] = _source(audit, cert, cited, step.source, n)
            if not _entails_clause(source, step.clause, atom_ids):
                raise ReplayFailed(
                    f"step {n}: clause {list(step.clause)} does not follow from its source"
                )
        elif step.rule == "resolve":
            a, b = step.premises
            if not (0 <= a < n and 0 <= b < n):
                raise ReplayFailed(f"step {n} resolves against later or missing steps")
            ca, cb = set(seen[a]), set(seen[b])
            want = set(step.clause)
            for pivot in sorted(ca):
                if -pivot in cb and (ca - {pivot}) | (cb - {-pivot}) == want:
                    break
            else:
                raise ReplayFailed(f"step {n} is not a resolvent of its premises")
        else:
            raise ReplayFailed(f"step {n} uses unknown rule {step.rule!r}")
        seen.append(step.clause)

    if r.steps[-1].clause != ():
        raise ReplayFailed("trace does not end in the empty clause")


def _source(audit: _Audit, cert: DiscordCertificate, cited: list[int], source: tuple, n: int):
    """The conjuncts of the formula input step ``n`` cites as ``source``,
    the positions among them to check and, for a constraint, the index by
    atom; ``cited`` holds the cited constraints' positions in the tuple."""
    kind = source[0]
    if kind == "constraint":
        if not 0 <= source[1] < len(cited):
            raise ReplayFailed(f"step {n} cites missing constraint {source[1]}")
        background = audit.background
        return background.parts, background.spans[cited[source[1]]], background.index
    if kind == "claim":
        if not 0 <= source[1] < len(cert.conflict):
            raise ReplayFailed(f"step {n} cites missing claim {source[1]}")
        parts = audit.compile(cert.conflict[source[1]].body)
    elif kind == "candidate":
        parts = audit.compile(cert.candidate.body)
    else:
        raise ReplayFailed(f"step {n} has unknown source {source!r}")
    return parts, range(len(parts)), None


def check_minimality(
    cert: DiscordCertificate,
    constraints: tuple[Formula, ...],
    defs: DefinitionSet,
    *,
    audit: _Audit | None = None,
) -> None:
    """Audit that no proper subset of candidate + conflict suffices.

    Satisfiability is monotone under deletion, so every proper subset is
    satisfiable together with the constraints iff every subset that
    drops one member is: n searches for n members.  Raises NotMinimal
    naming a member whose removal leaves a contradiction.  ``audit`` is
    as for ``replay_refutation``.

    Assumes the store the certificate came from was itself consistent,
    which the runtime guarantees for published claims; against a broken
    store the blame cannot be pinned on the candidate and this audit
    (rightly) refuses the certificate.
    """
    audit = audit or _Audit(defs, constraints)
    bodies = [c.body for c in cert.conflicting_claims]
    for i, member in enumerate(cert.conflicting_claims):
        if not audit.satisfiable(bodies[:i] + bodies[i + 1 :]):
            raise NotMinimal(f"already contradictory without {claim_text(member)}")


def check_certificate(
    cert: DiscordCertificate,
    constraints: tuple[Formula, ...],
    defs: DefinitionSet,
) -> None:
    """Full audit: replay the refutation, then audit minimality, both in
    one view, so each body is ground-expanded and compiled once."""
    audit = _Audit(defs, constraints)
    replay_refutation(cert, constraints, defs, audit=audit)
    check_minimality(cert, constraints, defs, audit=audit)
