"""Chain-state folding, append conditions, guards and discord admission."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plurality.validator
from plurality.blocktree import BlockTree, OracleConfig, block_id
from plurality.certificates import claim_to_doc
from plurality.logic import (
    Claim,
    _formula_clauses,
    formula_text,
    refute,
    store_consistent,
)
from plurality.runtime import Engine
from plurality.syntax import parse_formula, parse_scenario
from plurality.validator import (
    ChainState,
    ClaimPayload,
    GenesisPayload,
    TransactionPayload,
    Validator,
    _component_of_new_claims,
    chain_claims_consistent,
    check_append,
    compute_state,
    proof_of_discord,
)
from tests.test_blocktree import put
from tests.test_syntax import action


BANK = """
agent W balance 50
agent A
agent B
oracle Omega_X
atom license(holder)
issue x = tx W -(10)[true]-> A
after [x] issue y = tx W -(20)[|A| >= 10]-> B
issue lic = tx W -(5)[claim Omega_X: license(A)]-> A
"""


def bank():
    return parse_scenario(BANK, name="bank")


def append(bt, v: Validator, payload, tick: int = 0):
    """Validate on the selected head and, on a pass, take a token there
    and commit, as ``Engine`` does: the validation result."""
    head = bt.select()
    r = v.validate(payload, head, tick)
    if r.ok:
        bt.commit(bt.get_token(head, payload), payload, tick=tick)
    return r


def seeded_tree(scenario, *blocks, oracle=OracleConfig.prodigal()):
    """A tree holding the given payloads in one chain, no validation."""
    bt = BlockTree(GenesisPayload.for_contract(scenario.contract), oracle)
    for i, p in enumerate(blocks):
        put(bt, p, tick=i + 1)
    return bt


# ---------------------------------------------------------------------------
# Payloads


def test_genesis_payload_is_sorted_balance_sheet():
    g = GenesisPayload.for_contract(bank().contract)
    assert g.balances == (("A", 0), ("B", 0), ("W", 50))
    assert g.canonical() == "genesis A=0,B=0,W=50"
    assert GenesisPayload(()).canonical() == "genesis"


def test_transaction_payload_canonical_names_the_action():
    s = bank()
    x = action(s.contract, "x")
    y = action(s.contract, "y")
    assert TransactionPayload(x).canonical() == "issue x = tx W -(10)[true]-> A"
    assert (
        TransactionPayload(y).canonical()
        == "after [x] issue y = tx W -(20)[(|A| >= 10)]-> B"
    )


def test_transaction_payload_claims():
    s = bank()
    plain = TransactionPayload(action(s.contract, "x")).claims("b123")
    assert len(plain) == 1
    assert plain[0].authority == "W"
    assert formula_text(plain[0].body) == "updates(W, 10, A)"
    assert plain[0].origin == "b123"

    lic = TransactionPayload(action(s.contract, "lic")).claims("b456")
    assert [c.authority for c in lic] == ["W", "Omega_X"]
    assert formula_text(lic[1].body) == "license(A)"
    assert lic[1].origin == "b456"


def test_claim_payload_canonical():
    s = bank()
    body = parse_formula("license(A)", s)
    p = ClaimPayload("lbl", Claim("Omega_X", body))
    assert p.canonical() == "post lbl = claim Omega_X: license(A)"
    assert "Omega_X" in p.describe()


# ---------------------------------------------------------------------------
# Chain state


def test_compute_state_folds_balances_and_bookkeeping():
    s = bank()
    x = TransactionPayload(action(s.contract, "x"))
    y = TransactionPayload(action(s.contract, "y"))
    bt = seeded_tree(s, x, y)
    st = compute_state(bt, bt.select())
    # independent fold of the same two transfers
    expect = {"A": 0, "B": 0, "W": 50}
    for tx in (x.action.transaction, y.action.transaction):
        expect[tx.source] -= tx.amount
        expect[tx.sink] += tx.amount
    assert st.balances == expect
    assert st.published == ("x", "y")
    assert ("updates", ("W", 10, "A")) in st.asserted
    assert ("published", ("y",)) in st.asserted
    assert st.clock == 2  # the head landed at tick 2


def test_compute_state_collects_claims_in_block_order():
    s = bank()
    lic = TransactionPayload(action(s.contract, "lic"))
    x = TransactionPayload(action(s.contract, "x"))
    bt = seeded_tree(s, lic, x)
    st = compute_state(bt, bt.select())
    assert [c.authority for c in st.claims] == ["W", "Omega_X", "W"]
    chain = bt.chain_to(bt.select())
    # claim origins are the block ids that introduced them
    assert st.claims[0].origin == chain[1]
    assert st.claims[1].origin == chain[1]
    assert st.claims[2].origin == chain[2]


def test_compute_state_claim_payload_and_facts():
    s = bank()
    body = parse_formula("license(A)", s)
    post = ClaimPayload("lbl", Claim("Omega_X", body))
    bt = seeded_tree(s, post)
    st = compute_state(bt, bt.select(), facts=(("license", ("B",)),))
    assert st.published == ("lbl",)
    assert ("published", ("lbl",)) in st.asserted
    assert ("license", ("B",)) in st.asserted
    assert len(st.claims) == 1
    assert st.claims[0].origin == bt.select()
    # the claim body itself is never asserted closed-world
    assert ("license", ("A",)) not in st.asserted


def test_compute_state_random_folds_match_reference():
    rng = random.Random(4242)
    wallets = ["P", "Q", "R"]
    for _ in range(150):
        lines = [f"agent {w} balance 100" for w in wallets]
        expect = {w: 100 for w in wallets}
        for i in range(rng.randrange(1, 8)):
            src, snk = rng.sample(wallets, 2)
            q = rng.randrange(1, 9)
            lines.append(f"issue t{i} = tx {src} -({q})[true]-> {snk}")
            expect[src] -= q
            expect[snk] += q
        s = parse_scenario("\n".join(lines) + "\n", name="t")
        bt = seeded_tree(s, *[TransactionPayload(a) for a in s.contract.actions])
        st = compute_state(bt, bt.select())
        assert st.balances == expect
        assert sum(st.balances.values()) == 300  # conservation


def attach(bt, parent: str, payload, tick: int) -> str:
    """Commit ``payload`` under any block of a prodigal tree."""
    bid = block_id(payload.canonical(), parent)
    bt.commit(bt.oracle.grant(parent, bid), payload, tick=tick)
    return bid


def fold_from_genesis(bt, head: str, facts) -> dict:
    """Every ChainState field, folded here from genesis."""
    balances: dict[str, int] = {}
    published: list[str] = []
    claims: list[Claim] = []
    asserted = {(name, tuple(args)) for name, args in facts}
    for bid in bt.chain_to(head):
        p = bt.block(bid).payload
        if isinstance(p, GenesisPayload):
            balances = dict(p.balances)
        elif isinstance(p, TransactionPayload):
            tx = p.action.transaction
            balances[tx.source] -= tx.amount
            balances[tx.sink] += tx.amount
            published.append(p.action.binding)
            asserted.add(("updates", (tx.source, tx.amount, tx.sink)))
            asserted.add(("published", (p.action.binding,)))
            claims += p.claims(bid)
        else:
            published.append(p.label)
            asserted.add(("published", (p.label,)))
            claims.append(Claim(p.claim.authority, p.claim.body, origin=bid))
    return {
        "balances": balances,
        "published": tuple(published),
        "claims": tuple(claims),
        "clock": bt.append_tick(head),
        "asserted": asserted,
    }


def state_fields(state: ChainState) -> dict:
    assert state.published_names == set(state.published)
    return {
        "balances": dict(state.balances),
        "published": state.published,
        "claims": state.claims,
        "clock": state.clock,
        "asserted": set(state.asserted),
    }


def bank_payloads(s):
    posts = [
        ClaimPayload(f"c{i}", Claim(f"Omega_{i}", parse_formula(text, s)))
        for i, text in enumerate(("license(A)", "!license(B)", "license(A) | license(B)"))
    ]
    return [TransactionPayload(a) for a in s.contract.actions] + posts


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_states_of_random_prodigal_trees_match_a_fold_from_genesis(data):
    s = bank()
    payloads = bank_payloads(s)
    facts = data.draw(st.sampled_from(((), (("license", ("B",)),))))
    engine = Engine(s, oracle=OracleConfig.prodigal())
    bt = engine.tree
    ids = [bt.genesis.id]
    steps = st.tuples(
        st.integers(0, 10**6), st.sampled_from(range(len(payloads))), st.integers(0, 9)
    )
    for parent, which, tick in data.draw(st.lists(steps, max_size=30)):
        parent = ids[parent % len(ids)]
        if block_id(payloads[which].canonical(), parent) not in bt:
            ids.append(attach(bt, parent, payloads[which], tick))
    for bid in ids:
        assert state_fields(compute_state(bt, bid, facts)) == fold_from_genesis(bt, bid, facts)
    # the trace folds the whole tree in one walk; each leaf's chain document
    # is the one its own compute_state gives
    chains = engine.trace()["chains"]
    assert [c["head"] for c in chains] == list(bt.leaves())
    for doc in chains:
        leaf = doc["head"]
        state = compute_state(bt, leaf)
        assert doc == {
            "head": leaf,
            "length": len(bt.chain_to(leaf)),
            "selected": leaf == bt.select(),
            "balances": dict(state.balances),
            "clock": state.clock,
            "published": list(state.published),
            "claims": [claim_to_doc(c) for c in state.claims],
        }


# ---------------------------------------------------------------------------
# Append conditions


def state_with(published=(), balances=None) -> ChainState:
    return ChainState(balances=dict(balances or {}), published=tuple(published))


def test_check_append_duplicate_binding():
    a = action(bank().contract, "x")
    r = check_append(a, state_with(published=("x",), balances={"W": 50}))
    assert not r.ok and r.reason == "AppendConditions"
    assert r.detail == "DuplicateBinding: binding 'x' is already published"


def test_check_append_unmet_dependency():
    a = action(bank().contract, "y")
    r = check_append(a, state_with(balances={"W": 50}))
    assert not r.ok and r.detail == "UnmetDependency: dependency 'x' is not yet published"
    r2 = check_append(a, state_with(published=("x",), balances={"W": 50}))
    assert r2.ok


def test_check_append_insufficient_balance():
    a = action(bank().contract, "x")
    r = check_append(a, state_with(balances={"W": 9}))
    assert not r.ok and r.detail == "InsufficientBalance: W holds 9, needs 10"
    assert check_append(a, state_with(balances={"W": 10})).ok


@pytest.mark.parametrize("amount", [0, -5])
def test_non_positive_amount_built_in_code_is_rejected(amount):
    # the parser rejects such an amount; an Action built in code can carry one,
    # and -5 would pass the balance test and move funds from sink to source
    s = bank()
    x = action(s.contract, "x")
    bad = replace(x, transaction=replace(x.transaction, amount=amount))
    bt = BlockTree(GenesisPayload.for_contract(s.contract), OracleConfig.prodigal())
    r = Validator(s, bt).validate(TransactionPayload(bad), bt.select(), 0)
    assert not r.ok and r.reason == "AppendConditions"
    assert r.detail == f"NonPositiveAmount: amount {amount} is not positive"


def test_check_append_order():
    a = action(bank().contract, "x")
    # duplicate binding outranks the balance shortfall
    r = check_append(a, state_with(published=("x",), balances={"W": 0}))
    assert r.detail.startswith("DuplicateBinding: ")


# ---------------------------------------------------------------------------
# Guards through the validator


def run_validate(source: str, *, pre=(), tick=0):
    """Validate the last declared action against a chain of ``pre`` payloads."""
    s = parse_scenario(source, name="t")
    bt = seeded_tree(s, *pre)
    target = s.contract.actions[-1]
    return Validator(s, bt).validate(TransactionPayload(target), bt.select(), tick), bt, s


def test_closed_guard_balance_true_and_false():
    ok, _, _ = run_validate(
        "agent W balance 50\nagent A\nissue x = tx W -(10)[|W| >= 50]-> A\n"
    )
    assert ok.ok
    bad, _, _ = run_validate(
        "agent W balance 50\nagent A\nissue x = tx W -(10)[|W| > 50]-> A\n"
    )
    assert not bad.ok and bad.reason == "GuardFalse"
    assert bad.detail == "(|W| > 50)"


def test_closed_guard_sees_validation_tick():
    src = "agent W balance 50\nagent A\nissue x = tx W -(10)[before(3)]-> A\n"
    early, _, _ = run_validate(src, tick=3)
    late, _, _ = run_validate(src, tick=4)
    assert early.ok
    assert not late.ok and late.reason == "GuardFalse"


def test_closed_guard_table_miss_rejects():
    src = (
        "agent W balance 50\nagent A\n"
        "map grade(A) = 7\n"
        "issue x = tx W -(10)[grade(W) > 3]-> A\n"
    )
    r, _, _ = run_validate(src)
    assert not r.ok and r.reason == "GuardFalse"
    assert "cannot be evaluated" in r.detail


def test_a_guard_with_a_branch_that_cannot_ground_is_rejected_as_a_claim_is():
    # paid(A) holds, but grade has no entry for Z: the guard is ground-
    # expanded before it is read, so it cannot be evaluated, and the
    # same body endorsed as a claim cannot be refuted either
    src = (
        "agent W balance 50\nagent A\noracle Omega_X\n"
        "atom paid(who)\nfact paid(A)\nmap grade(A) = 7\n"
        "issue x = tx W -(10)[{guard}]-> A\n"
    )
    body = "paid(A) | grade(Z) = 1"
    closed, _, _ = run_validate(src.format(guard=body))
    assert not closed.ok and closed.reason == "GuardFalse"
    assert closed.detail == "guard cannot be evaluated: grade('Z',) has no table entry"
    claimed, _, _ = run_validate(src.format(guard=f"claim Omega_X: {body}"))
    assert not claimed.ok and claimed.reason == "ResourceLimit"
    assert claimed.detail == "grade('Z',) has no table entry"


@pytest.mark.parametrize(
    "body, error",
    [
        ("before(a)", "before expects an integer tick"),
        ("hashlock(1, |W|)", "hashlock expects a hex digest and a string preimage"),
    ],
)
def test_an_ill_typed_builtin_is_rejected_as_a_guard_and_as_a_claim(body, error):
    # a value argument of the wrong type (the balance stays open) is
    # rejected by grounding, which both readings share
    src = "agent W balance 50\nagent A\noracle Omega_X\nissue x = tx W -(10)[{guard}]-> A\n"
    closed, _, _ = run_validate(src.format(guard=body))
    assert not closed.ok and closed.reason == "GuardFalse"
    assert closed.detail == f"guard cannot be evaluated: {error}"
    claimed, _, _ = run_validate(src.format(guard=f"claim Omega_X: {body}"))
    assert not claimed.ok and claimed.reason == "ResourceLimit"
    assert claimed.detail == error


def test_structural_rejection_reported_before_guard():
    r, _, _ = run_validate(
        "agent W balance 5\nagent A\nissue x = tx W -(10)[false]-> A\n"
    )
    assert r.reason == "AppendConditions"
    assert r.detail.startswith("InsufficientBalance")


# ---------------------------------------------------------------------------
# Discord admission


def test_claimed_guard_admitted_on_empty_store():
    r, bt, s = run_validate(
        "agent W balance 50\nagent A\noracle Omega_X\natom license(holder)\n"
        "issue lic = tx W -(5)[claim Omega_X: license(A)]-> A\n"
    )
    assert r.ok


def test_claimed_guard_refuted_by_stored_claim():
    s = parse_scenario(
        "agent W balance 50\nagent A\noracle Omega_X\noracle Omega_Y\n"
        "atom license(holder)\n"
        "issue lic = tx W -(5)[claim Omega_X: license(A)]-> A\n",
        name="t",
    )
    denial = ClaimPayload("deny", Claim("Omega_Y", parse_formula("!license(A)", s)))
    bt = seeded_tree(s, denial)
    lic = TransactionPayload(action(s.contract, "lic"))
    r = Validator(s, bt).validate(lic, bt.select(), 0)
    assert not r.ok and r.reason == "Discord"
    cert = r.certificate
    assert cert.candidate.authority == "Omega_X"
    assert [c.authority for c in cert.conflict] == ["Omega_Y"]
    assert cert.conflict[0].origin == bt.select()
    assert "Omega_Y" in r.detail


def test_updates_claims_are_subject_to_constraints():
    # a constraint can veto the transfer's own update endorsement
    r, _, _ = run_validate(
        "agent W balance 50\nagent A\n"
        "constraint !updates(W, 10, A)\n"
        "issue x = tx W -(10)[true]-> A\n"
    )
    assert not r.ok and r.reason == "Discord"
    assert r.certificate.candidate.authority == "W"
    assert r.certificate.conflict == ()


def test_claim_payload_discord_names_both_authorities():
    s = parse_scenario(
        "agent Alice balance 9\noracle Omega_IoT\n"
        "domain Cars = { cadillac }\ndomain States = { good, bad }\n"
        "atom state(car, condition)\n"
        "constraint forall c in Cars . forall u in States . forall w in States . "
        "(state(c, u) & state(c, w)) -> u = w\n",
        name="t",
    )
    good = ClaimPayload("g", Claim("Omega_IoT", parse_formula("state(cadillac, good)", s)))
    bt = seeded_tree(s, good)
    bad = ClaimPayload("b", Claim("Alice", parse_formula("state(cadillac, bad)", s)))
    r = Validator(s, bt).validate(bad, bt.select(), 0)
    assert not r.ok
    cert = r.certificate
    assert cert.authorities == ("Alice", "Omega_IoT")


def test_proof_of_discord_modes():
    s = parse_scenario("oracle Om\natom p\n", name="t")
    d = s.contract.defs
    assert proof_of_discord((), (), Claim("Om", parse_formula("p", s)), d) is None
    stored = Claim("Om", parse_formula("!p", s), origin="b0")
    cert = proof_of_discord((stored,), (), Claim("Om", parse_formula("p", s)), d)
    assert cert.conflict == (stored,)


# ---------------------------------------------------------------------------
# Full appends through the tree


def test_validator_drives_tree_appends():
    s = bank()
    bt = BlockTree(GenesisPayload.for_contract(s.contract), OracleConfig.frugal(2))
    v = Validator(s, bt)
    assert append(bt, v, TransactionPayload(action(s.contract, "x"))).ok
    assert append(bt, v, TransactionPayload(action(s.contract, "y"))).ok
    st = compute_state(bt, bt.select())
    assert st.balances == {"W": 20, "A": 10, "B": 20}
    assert st.published == ("x", "y")
    # replaying a published binding is a structural rejection
    r = append(bt, v, TransactionPayload(action(s.contract, "x")))
    assert r.reason == "AppendConditions"
    assert r.detail.startswith("DuplicateBinding: ")
    assert len(bt) == 3


def test_dependency_rejected_until_parent_lands():
    s = bank()
    bt = BlockTree(GenesisPayload.for_contract(s.contract), OracleConfig.frugal(2))
    v = Validator(s, bt)
    r = append(bt, v, TransactionPayload(action(s.contract, "y")))
    assert not r.ok and r.detail.startswith("UnmetDependency: ")
    assert len(bt) == 1
    assert append(bt, v, TransactionPayload(action(s.contract, "x"))).ok
    assert append(bt, v, TransactionPayload(action(s.contract, "y"))).ok
    assert compute_state(bt, bt.select()).published == ("x", "y")


def test_chain_local_stores_keep_forks_independent():
    # two branches hold contradictory claims; each alone stays consistent
    s = parse_scenario("oracle Om\natom p\ntokens frugal 2\n", name="t")
    bt = BlockTree(GenesisPayload.for_contract(s.contract), s.oracle)
    yes = ClaimPayload("yes", Claim("Om", parse_formula("p", s)))
    no = ClaimPayload("no", Claim("Om", parse_formula("!p", s)))
    g = bt.genesis.id
    ta = bt.get_token(g, yes)
    bt.commit(ta, yes)
    tb = bt.oracle.grant(g, block_id(no.canonical(), g))
    bt.commit(tb, no)
    assert len(bt.leaves()) == 2
    assert chain_claims_consistent(bt, s)
    # but the union of both branches would be discordant
    union = tuple(
        c for leaf in bt.leaves() for c in compute_state(bt, leaf).claims
    )
    d = s.contract.defs
    assert not store_consistent(union, d.constraints, d)


LINKED = """
oracle Om
atom p
atom q
atom r
atom s
atom t
constraint !(q & r)
"""


def connected_claims_oracle(claims, leaf: str, defs) -> list[Claim]:
    """The claims block ``leaf`` added and those connected to them.

    A breadth-first search over the atoms of every claim of a folded
    store and of every constraint clause, as the consistency check
    selected claims before it kept per-block records.
    """
    groups = [_formula_clauses(c.body, defs)[0] for c in claims]
    for g in defs.constraints:
        names, clauses = _formula_clauses(g, defs)
        groups += [[names[abs(lit) - 1] for lit in cl] for cl in clauses]
    owners: dict[str, list[int]] = {}
    for i, atoms in enumerate(groups):
        for a in atoms:
            owners.setdefault(a, []).append(i)
    taken = {i for i, c in enumerate(claims) if c.origin == leaf}
    todo = [a for i in taken for a in groups[i]]
    reached = set(todo)
    while todo:
        for i in owners[todo.pop()]:
            if i not in taken:
                taken.add(i)
                fresh = [a for a in groups[i] if a not in reached]
                reached.update(fresh)
                todo += fresh
    return [c for i, c in enumerate(claims) if i in taken]


# LINKED with transfers: ``x`` and ``y`` store a claimed guard beside the
# source's update, and every transfer shares the one update atom
LINKED_TX = LINKED + """
agent W balance 50
agent A
issue x = tx W -(1)[claim Om: q]-> A
issue y = tx W -(1)[claim Om: !s]-> A
issue z = tx W -(1)[|W| >= 1]-> A
"""


def linked_payloads(s) -> dict[str, object]:
    texts = ("p", "!p", "q", "r", "s", "!s | q", "p | r", "t", "!t & s", "true")
    out: dict[str, object] = {
        text: ClaimPayload(f"c{i}", Claim("Om", parse_formula(text, s)))
        for i, text in enumerate(texts)
    }
    out.update((a.binding, TransactionPayload(a)) for a in s.contract.actions)
    return out


def linked_tree(data, s):
    """A prodigal tree of ``linked_payloads`` attached anywhere, unvalidated,
    so that stores of every kind occur: the tree and its block ids."""
    payloads = list(linked_payloads(s).values())
    bt = BlockTree(GenesisPayload.for_contract(s.contract), OracleConfig.prodigal())
    ids = [bt.genesis.id]
    steps = st.tuples(st.integers(0, 10**6), st.sampled_from(range(len(payloads))))
    for parent, which in data.draw(st.lists(steps, min_size=1, max_size=25)):
        parent = ids[parent % len(ids)]
        if block_id(payloads[which].canonical(), parent) not in bt:
            ids.append(attach(bt, parent, payloads[which], 0))
    return bt, ids


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_component_of_what_a_block_adds_matches_a_search_of_the_folded_store(data):
    s = parse_scenario(LINKED_TX, name="linked")
    d = s.contract.defs
    bt, ids = linked_tree(data, s)
    for bid in data.draw(st.permutations(ids[1:])):
        want = connected_claims_oracle(compute_state(bt, bid).claims, bid, d)
        assert _component_of_new_claims(bt, bid, d, {bt.block(bid).parent}) == want


def must_not_fold(tree, head, facts=()):
    raise AssertionError("a consistency check folded a chain")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checking_what_a_leaf_adds_agrees_with_a_full_store_check(data):
    # verified sets are drawn from the blocks whose stores are consistent;
    # a fold of each leaf's store is the oracle, and no check may fold
    s = parse_scenario(LINKED_TX, name="linked")
    d = s.contract.defs
    bt, ids = linked_tree(data, s)
    full = {bid: store_consistent(compute_state(bt, bid).claims, d.constraints, d) for bid in ids}
    verified = set(data.draw(st.lists(st.sampled_from([b for b in ids if full[b]]), unique=True)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plurality.validator, "compute_state", must_not_fold)
        assert chain_claims_consistent(bt, s, set(verified)) == all(map(full.get, bt.leaves()))
        for leaf in ids[1:]:
            # the chain to ``leaf`` alone, so that ``leaf`` is its one leaf
            chain = BlockTree(GenesisPayload.for_contract(s.contract), OracleConfig.prodigal())
            for bid in bt.chain_to(leaf)[1:]:
                attach(chain, bt.block(bid).parent, bt.block(bid).payload, 0)
            checked = set(verified)
            assert chain_claims_consistent(chain, s, checked) == full[leaf]
            assert (leaf in checked) == full[leaf]


@pytest.mark.parametrize(
    "chain",
    [
        # s touches only "!s | q", which is newer than it
        ["s", "p", "!s | q", "q"],
        # q reaches r only through the constraint clause !(q & r)
        ["r", "p", "t", "q"],
        # x adds W's update and Om's guard claim q; z shares the update
        ["z", "r", "p", "x"],
        ["t", "p", "!t & s"],
        # a leaf under a planted block whose chain was never checked
        ["p", "!p", "t"],
        # the leaf contradicts r through "!s | q" and the constraint
        ["!s | q", "r", "s"],
    ],
)
def test_a_leaf_check_selects_and_decides_as_a_full_fold_does(monkeypatch, chain):
    s = parse_scenario(LINKED_TX, name="linked")
    d = s.contract.defs
    payloads = linked_payloads(s)
    bt = BlockTree(GenesisPayload.for_contract(s.contract), OracleConfig.prodigal())
    leaf = bt.genesis.id
    for key in chain:
        leaf = attach(bt, leaf, payloads[key], 0)
    parent = bt.block(leaf).parent
    claims = compute_state(bt, leaf).claims
    want = connected_claims_oracle(claims, leaf, d)
    assert _component_of_new_claims(bt, leaf, d, {parent}) == want
    full = store_consistent(claims, d.constraints, d)
    parent_ok = store_consistent(compute_state(bt, parent).claims, d.constraints, d)
    # no check folds a chain, whether or not the parent has passed
    monkeypatch.setattr(plurality.validator, "compute_state", must_not_fold)
    verified = {parent} if parent_ok else set()
    assert chain_claims_consistent(bt, s, verified) == full


def test_chain_claims_consistent_flags_forced_discord():
    # bypass validation to plant a contradiction on one chain
    s = parse_scenario("oracle Om\natom p\n", name="t")
    yes = ClaimPayload("yes", Claim("Om", parse_formula("p", s)))
    no = ClaimPayload("no", Claim("Om", parse_formula("!p", s)))
    bt = seeded_tree(s, yes, no)
    assert not chain_claims_consistent(bt, s)


def test_a_contract_with_other_constraints_is_checked_under_its_own():
    # the first check caches the constraint clauses' atoms (none); a
    # contract built with !(p & q) must connect q's block to p's
    s = parse_scenario("oracle Om\natom p\natom q\n", name="t")
    p = ClaimPayload("p", Claim("Om", parse_formula("p", s)))
    q = ClaimPayload("q", Claim("Om", parse_formula("q", s)))
    bt = seeded_tree(s, p, q)
    assert chain_claims_consistent(bt, s)
    defs = replace(s.contract.defs, constraints=(parse_formula("!(p & q)", s),))
    other = replace(s, contract=replace(s.contract, defs=defs))
    (leaf,) = bt.leaves()
    assert not store_consistent(compute_state(bt, leaf).claims, defs.constraints, defs)
    # p's chain is consistent under !(p & q) too, so it may stay verified
    assert not chain_claims_consistent(bt, other, {bt.chain_to(leaf)[1]})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_validator_reused_across_targets_answers_as_a_fresh_one(data):
    s = bank()
    payloads = bank_payloads(s) + [
        ClaimPayload("no", Claim("Omega_Y", parse_formula("!license(A)", s)))
    ]
    bt = BlockTree(GenesisPayload.for_contract(s.contract), OracleConfig.prodigal())
    v = Validator(s, bt)
    ids = [bt.genesis.id]
    steps = st.tuples(
        st.booleans(),
        st.integers(0, 10**6),
        st.sampled_from(range(len(payloads))),
        st.integers(0, 9),
    )
    for grow, at, which, tick in data.draw(st.lists(steps, min_size=1, max_size=40)):
        target, payload = ids[at % len(ids)], payloads[which]
        if grow:
            if block_id(payload.canonical(), target) not in bt:
                ids.append(attach(bt, target, payload, tick))
            continue
        got = v.validate(payload, target, tick)
        assert got == Validator(s, bt).validate(payload, target, tick)


def test_validated_appends_never_break_store_consistency():
    rng = random.Random(99)
    s = parse_scenario(
        "oracle Om\noracle Ox\natom p\natom q\natom r\n", name="t"
    )
    d = s.contract.defs
    atoms = ["p", "q", "r"]
    for _ in range(40):
        bt = BlockTree(GenesisPayload.for_contract(s.contract), OracleConfig.frugal(1))
        v = Validator(s, bt)
        for i in range(rng.randrange(2, 10)):
            name = rng.choice(atoms)
            body = parse_formula(name if rng.random() < 0.5 else f"!{name}", s)
            p = ClaimPayload(f"c{i}", Claim(rng.choice(["Om", "Ox"]), body))
            append(bt, v, p)
        assert chain_claims_consistent(bt, s)
        # and the refuter agrees with itself on the surviving store
        st = compute_state(bt, bt.select())
        assert refute(st.claims, d.constraints, Claim("Om", parse_formula("true", s)), d) is None
