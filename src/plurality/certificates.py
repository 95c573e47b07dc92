"""Discord certificate serialization and independent replay checking.

The checker deliberately does not reuse the resolution search: input
steps are checked semantically (the cited source formula must entail
the cited clause) and resolution steps are checked syntactically.
Semantic questions go to a small DPLL over three-valued partial
evaluation, so the cost of a check follows the atoms its formulas leave
undetermined, not the size of the contract's ground universe; every
model the search reports is confirmed with the formula evaluator.  The
only code shared with the engine is that evaluator and ground expansion.
"""

from __future__ import annotations

import json

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
    TrueF,
    atom_key,
    claim_text,
    eval_residual,
    formula_text,
    ground_expand,
)

CERTIFICATE_FORMAT = "plurality-discord-certificate/1"


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
    return json.dumps(certificate_to_doc(cert), sort_keys=True, indent=1) + "\n"


def _claim_from_doc(doc: dict, parse) -> Claim:
    return Claim(doc["authority"], parse(doc["body"]), doc.get("origin", "submitted"))


def _step_from_doc(doc: dict) -> ProofStep:
    clause = tuple(doc["clause"])
    if doc["rule"] == "input":
        raw = doc["source"]
        if raw == "candidate":
            source: tuple = ("candidate",)
        else:
            kind, _, idx = raw.partition(":")
            source = (kind, int(idx))
        return ProofStep("input", clause, source=source)
    return ProofStep("resolve", clause, premises=tuple(doc["premises"]))


def certificate_from_doc(doc: dict, parse) -> DiscordCertificate:
    """Rebuild a certificate; ``parse`` maps formula text back to an AST."""
    if doc.get("format") != CERTIFICATE_FORMAT:
        raise CertificateError(f"unrecognized certificate format {doc.get('format')!r}")
    r = doc["refutation"]
    candidate = _claim_from_doc(doc["candidate"], parse)
    refutation = Refutation(
        conclusion=parse(r["conclusion"]),
        used_claims=tuple(_claim_from_doc(c, parse) for c in doc["conflict"]),
        used_constraints=tuple(parse(g) for g in r["used_constraints"]),
        atoms=tuple(r["atoms"]),
        steps=tuple(_step_from_doc(s) for s in r["steps"]),
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


class _Audit:
    """The atom table and compiled formulas of one check.

    Each formula is ground-expanded and compiled once; each residual
    atom's key is computed once, when its occurrence is compiled.
    """

    def __init__(self, defs: DefinitionSet):
        self.defs = defs
        self.ids: dict[str, int] = {}
        self._compiled: dict[Formula, tuple[Formula, object]] = {}

    def id_of(self, key: str) -> int:
        return self.ids.setdefault(key, len(self.ids) + 1)

    def compile(self, f: Formula) -> tuple[Formula, object]:
        """The residual form of ``f`` (for confirmation) and its node."""
        got = self._compiled.get(f)
        if got is None:
            residual = ground_expand(f, self.defs)
            got = self._compiled[f] = (residual, self._node(residual, False))
        return got

    def _node(self, f: Formula, neg: bool):
        while isinstance(f, Not):
            f, neg = f.sub, not neg
        kind, operands = _connective(f, neg)
        if kind is None:
            if isinstance(f, (TrueF, FalseF)):
                return isinstance(f, TrueF) != neg
            atom = self.id_of(atom_key(f))
            return -atom if neg else atom
        kids = []
        todo = list(reversed(operands))
        while todo:
            g, gneg = todo.pop()
            while isinstance(g, Not):
                g, gneg = g.sub, not gneg
            gkind, gops = _connective(g, gneg)
            if gkind == kind:
                todo.extend(reversed(gops))
            else:
                kids.append(self._node(g, gneg))
        return (kind, tuple(kids))

    def satisfiable(self, formulas, fixed: dict[int, bool] | None = None) -> bool:
        """Whether some assignment extending ``fixed`` satisfies every formula.

        A model found by the search is confirmed by evaluating every
        formula's residual form under it, unassigned atoms set to False.
        """
        compiled = [self.compile(f) for f in formulas]
        model = _search([node for _, node in compiled], dict(fixed or {}))
        if model is None:
            return False
        full = {key: model.get(atom, False) for key, atom in self.ids.items()}
        if not all(eval_residual(residual, full) for residual, _ in compiled):
            raise RuntimeError("the search returned an assignment that is not a model")
        return True


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

    Branches on the first atom of the first open node, True first.
    """
    stack = [(nodes, asg, dict(asg))]
    while stack:
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
    return None


# ---------------------------------------------------------------------------
# Replay


def _entails_clause(audit: _Audit, source: Formula, clause, atom_ids: list[int]) -> bool:
    """source |= clause: the source is unsatisfiable under the assignment
    that falsifies the clause.

    The search first simplifies the source under that assignment, which
    settles the question when the source becomes FALSE; otherwise it
    branches only on the atoms still undetermined.
    """
    fixed: dict[int, bool] = {}
    tautology = False
    for lit in clause:
        if not 0 < abs(lit) <= len(atom_ids):
            raise ReplayFailed(f"literal {lit} indexes outside the atom table")
        if fixed.setdefault(atom_ids[abs(lit) - 1], lit < 0) != (lit < 0):
            tautology = True  # two literal ids name one atom with both signs
    return tautology or not audit.satisfiable([source], fixed)


def replay_refutation(
    cert: DiscordCertificate,
    constraints: tuple[Formula, ...],
    defs: DefinitionSet,
) -> None:
    """Re-derive the certificate's conclusion from its own inputs.

    Raises ReplayFailed unless every input clause follows from the claim
    or constraint it cites, every resolution step is a correct resolvent
    of earlier steps, and the final step is the empty clause.
    """
    r = cert.refutation
    if not r.steps:
        raise ReplayFailed("empty refutation trace")
    if r.used_claims != cert.conflict:
        raise ReplayFailed("refutation claims do not match the conflict set")
    known = {formula_text(g) for g in constraints}
    for g in r.used_constraints:
        if formula_text(g) not in known:
            raise ReplayFailed(f"unknown constraint cited: {formula_text(g)}")
    if formula_text(r.conclusion) != formula_text(Not(cert.candidate.body)):
        raise ReplayFailed("conclusion is not the negation of the candidate body")

    audit = _Audit(defs)
    atom_ids = [audit.id_of(key) for key in r.atoms]
    seen: list[tuple[int, ...]] = []
    for n, step in enumerate(r.steps):
        if step.rule == "input":
            kind = step.source[0]
            if kind == "claim":
                idx = step.source[1]
                if not 0 <= idx < len(cert.conflict):
                    raise ReplayFailed(f"step {n} cites missing claim {idx}")
                body = cert.conflict[idx].body
            elif kind == "constraint":
                idx = step.source[1]
                if not 0 <= idx < len(r.used_constraints):
                    raise ReplayFailed(f"step {n} cites missing constraint {idx}")
                body = r.used_constraints[idx]
            elif kind == "candidate":
                body = cert.candidate.body
            else:
                raise ReplayFailed(f"step {n} has unknown source {step.source!r}")
            if not _entails_clause(audit, body, step.clause, atom_ids):
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


def check_minimality(
    cert: DiscordCertificate,
    constraints: tuple[Formula, ...],
    defs: DefinitionSet,
) -> None:
    """Audit that no proper subset of candidate + conflict suffices.

    Satisfiability is monotone under deletion, so every proper subset is
    satisfiable together with the constraints iff every subset that
    drops one member is: n searches for n members.  Raises NotMinimal
    naming a member whose removal leaves a contradiction.

    Assumes the store the certificate came from was itself consistent,
    which the runtime guarantees for published claims; against a broken
    store the blame cannot be pinned on the candidate and this audit
    (rightly) refuses the certificate.
    """
    audit = _Audit(defs)
    bodies = [c.body for c in cert.conflicting_claims]
    for i, member in enumerate(cert.conflicting_claims):
        if not audit.satisfiable(bodies[:i] + bodies[i + 1 :] + list(constraints)):
            raise NotMinimal(f"already contradictory without {claim_text(member)}")


def check_certificate(
    cert: DiscordCertificate,
    constraints: tuple[Formula, ...],
    defs: DefinitionSet,
) -> None:
    """Full audit: replay the refutation, then audit minimality."""
    replay_refutation(cert, constraints, defs)
    check_minimality(cert, constraints, defs)
