"""Engine scheduling: clock, mempool, races, rejections and traces."""

from __future__ import annotations

import gc
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plurality.validator
from plurality.blocktree import OracleConfig, block_id
from plurality.certificates import certificate_from_text, certificate_to_text, check_certificate
from plurality.logic import Claim
from plurality.runtime import (
    PUBLISHED,
    REJECTED,
    SUBMITTED,
    WRONG_SUBMITTER,
    ConsistencyError,
    Engine,
    UnknownName,
    trace_human,
    trace_text,
)
from plurality.syntax import ClaimEvent, parse_formula, parse_scenario
from plurality.validator import ClaimPayload, TransactionPayload, chain_claims_consistent
from tests.test_syntax import action


FAIR = """
agent F balance 10
agent W balance 40
agent A
agent B
issue x = tx F -(10)[true]-> W
after [x] issue y = tx W -(20)[true]-> A
after [x] issue z = tx W -(20)[true]-> B
"""

STUDIOUS = """
agent School balance 100
agent S_A
agent W balance 30
agent A
function as_grate(x) = x
issue s = tx School -(12)[true]-> S_A
after [s] issue y = tx W -(20)[as_grate(|S_A|) > 10]-> A
after [s] issue z = tx W -(10)[!(as_grate(|S_A|) > 10)]-> A
"""

LICENSE_DISCORD = """
agent W balance 50
agent A
oracle Omega_X
oracle Omega_Y
atom license(holder)
issue lic = tx W -(5)[claim Omega_X: license(A)]-> A
at 0 claim deny = Omega_Y: !license(A)
at 1 submit lic
"""


def run(source: str, name: str = "t", **kw):
    eng = Engine(parse_scenario(source, name=name), **kw)
    doc = eng.run()
    return eng, doc


def events_of(doc: dict, kind: str) -> list[dict]:
    return [e for e in doc["events"] if e["kind"] == kind]


def finals(doc: dict) -> dict[str, int]:
    (chain,) = [c for c in doc["chains"] if c["selected"]]
    return chain["balances"]


def record(doc: dict, name: str) -> dict:
    (r,) = [r for r in doc["records"] if r["name"] == name]
    return r


# ---------------------------------------------------------------------------
# Straight-line runs


def test_fair_run_settles_all_three_transfers():
    eng, doc = run(FAIR)
    assert finals(doc) == {"F": 0, "W": 10, "A": 20, "B": 20}
    assert {r["name"]: r["stage"] for r in doc["records"]} == {
        "x": PUBLISHED,
        "y": PUBLISHED,
        "z": PUBLISHED,
    }
    # single chain of four blocks, all landed at tick 0
    (chain,) = doc["chains"]
    assert chain["length"] == 4 and chain["clock"] == 0
    assert chain["published"][0] == "x"
    assert set(chain["published"]) == {"x", "y", "z"}


def test_studious_grade_picks_exactly_one_branch():
    eng, doc = run(STUDIOUS)
    assert record(doc, "y")["stage"] == PUBLISHED
    assert record(doc, "z")["stage"] == REJECTED
    assert finals(doc) == {"School": 88, "S_A": 12, "W": 10, "A": 20}

    eng2, doc2 = run(STUDIOUS.replace("-(12)", "-(9)"))
    assert record(doc2, "y")["stage"] == REJECTED
    assert record(doc2, "z")["stage"] == PUBLISHED
    assert finals(doc2) == {"School": 91, "S_A": 9, "W": 20, "A": 10}


def test_dependencies_wait_without_noise():
    src = """
agent W balance 50
agent A
agent B
horizon 3
issue x = tx W -(10)[true]-> B
after [x] issue y = tx B -(5)[true]-> A
at 2 submit x
"""
    eng, doc = run(src)
    # y never produced a rejection while its dependency was unpublished
    assert [e["name"] for e in events_of(doc, "reject")] == []
    appends = {e["name"]: e["tick"] for e in events_of(doc, "append")}
    assert appends == {"x": 2, "y": 2}  # y fires the same tick its dep lands
    assert finals(doc) == {"W": 40, "A": 5, "B": 5}


def test_timelocked_action_retries_each_tick():
    src = """
agent W balance 50
agent A
horizon 4
issue x = tx W -(10)[!before(2)]-> A
"""
    eng, doc = run(src)
    rejects = events_of(doc, "reject")
    assert [e["tick"] for e in rejects] == [0, 1, 2]
    assert all(e["reason"] == "GuardFalse" for e in rejects)
    (append,) = events_of(doc, "append")
    assert append["tick"] == 3
    assert record(doc, "x")["stage"] == PUBLISHED


def test_wrong_submitter_is_rejected_then_recoverable():
    src = """
agent W balance 50
agent A
agent B
issue x = tx W -(10)[true]-> B
at 0 submit x by A
at 1 submit x by W
"""
    eng, doc = run(src)
    first = events_of(doc, "reject")[0]
    assert first["reason"] == WRONG_SUBMITTER
    assert "A" in first["detail"] and "W" in first["detail"]
    assert record(doc, "x")["stage"] == PUBLISHED
    (append,) = events_of(doc, "append")
    assert append["tick"] == 1


def test_scripted_submission_is_one_shot():
    src = """
agent W balance 50
agent A
horizon 3
issue x = tx W -(10)[!before(2)]-> A
at 0 submit x
"""
    eng, doc = run(src)
    # one scripted attempt at tick 0 fails; no automatic retries follow
    assert [e["tick"] for e in events_of(doc, "reject")] == [0]
    assert record(doc, "x")["stage"] == REJECTED


def test_resubmission_after_rejection():
    src = """
agent W balance 50
agent A
issue x = tx W -(10)[!before(2)]-> A
at 0 submit x
at 4 submit x
"""
    eng, doc = run(src)
    assert [e["tick"] for e in events_of(doc, "reject")] == [0]
    (append,) = events_of(doc, "append")
    assert append["tick"] == 4
    assert record(doc, "x")["stage"] == PUBLISHED


# ---------------------------------------------------------------------------
# Claims and discord


def test_admitted_claim_guard_publishes():
    src = """
agent W balance 50
agent A
oracle Omega_X
atom license(holder)
issue lic = tx W -(5)[claim Omega_X: license(A)]-> A
"""
    eng, doc = run(src)
    assert record(doc, "lic")["stage"] == PUBLISHED
    (chain,) = doc["chains"]
    assert [c["authority"] for c in chain["claims"]] == ["W", "Omega_X"]


def test_discord_rejection_carries_certificate():
    eng, doc = run(LICENSE_DISCORD)
    assert record(doc, "deny")["stage"] == PUBLISHED
    lic = record(doc, "lic")
    assert lic["stage"] == REJECTED
    assert lic["certificate"] == 0
    (discord,) = events_of(doc, "discord")
    assert discord["name"] == "lic"
    assert discord["authorities"] == ["Omega_X", "Omega_Y"]
    assert discord["candidate"] == "claim Omega_X: license(A)"
    assert discord["conflict"] == ["claim Omega_Y: !license(A)"]
    assert len(eng.certificates) == 1
    cert = eng.certificates[0]
    assert cert.conflict[0].origin == record(doc, "deny")["block"]
    # the transfer never happened
    assert finals(doc) == {"W": 50, "A": 0}


def claims_source(n: int, d: int) -> str:
    """n claims st(ik, v0) at tick 0, one conflicting claim at tick 1."""
    items = ", ".join(f"i{k}" for k in range(n))
    vals = ", ".join(f"v{j}" for j in range(d))
    lines = [
        "oracle O",
        f"domain Items = {{ {items} }}",
        f"domain Vals = {{ {vals} }}",
        "atom st(item, val)",
        "constraint forall c in Items . forall u in Vals . forall w in Vals .",
        "  (st(c, u) & st(c, w)) -> u = w",
    ]
    lines += [f"at 0 claim s{k} = O: st(i{k}, v0)" for k in range(n)]
    lines.append(f"at 1 claim d = O: st(i{n - 1}, v1)")
    return "\n".join(lines) + "\n"


def test_atom_cap_becomes_a_recorded_rejection():
    # 200 items x 3 values ground to 600 atoms, over refute's cap of 512
    eng, doc = run(claims_source(200, 3))
    rejects = events_of(doc, "reject")
    assert len(rejects) == 201
    assert {e["reason"] for e in rejects} == {"ResourceLimit"}
    assert "600 ground atoms exceeds the configured cap 512" in rejects[0]["detail"]
    assert all(r["stage"] == REJECTED for r in doc["records"])
    assert eng.certificates == []


def test_scripted_claim_of_time_oracle():
    src = """
agent W balance 50
agent A
atom settled
issue x = tx W -(10)[published(claim0)]-> A
at 1 claim K_t: settled
at 2 submit x
"""
    eng, doc = run(src)
    # the reserved time oracle is always a valid authority
    assert record(doc, "claim0")["stage"] == PUBLISHED
    assert record(doc, "x")["stage"] == PUBLISHED


def test_consistency_checks_stay_green_through_discord():
    eng, doc = run(LICENSE_DISCORD, consistency_checks=True)
    assert chain_claims_consistent(eng.tree, eng.scenario)
    assert doc["certificates"] == 1


SIBLINGS = """
agent W balance 100
agent A
agent B
oracle Om
atom ok(agent)
issue a = tx W -(10)[true]-> A
issue b = tx W -(10)[claim Om: ok(B)]-> B
issue c = tx W -(10)[|W| >= 10]-> A
issue d = tx W -(10)[claim Om: ok(A)]-> A
issue e = tx W -(10)[true]-> B
"""


def test_consistency_checks_run_once_per_appended_block(monkeypatch):
    calls = []
    real = plurality.validator.store_consistent

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(plurality.validator, "store_consistent", counting)
    eng = Engine(
        parse_scenario(SIBLINGS, name="siblings"),
        oracle=OracleConfig.prodigal(),
        consistency_checks=True,
    )
    appended = 0
    for names in (["a", "b", "c"], ["d", "e"]):
        pending = [eng.validate_action(n) for n in names]
        for p in pending:
            assert eng.commit_action(p) is not None
            appended += 1
    assert len(eng.tree.leaves()) == 4
    # every leaf was checked once, when it was appended, never again
    assert len(calls) == appended == 5


def test_siblings_fold_their_head_once_and_checks_fold_nothing(monkeypatch):
    folded = []
    real = plurality.validator.compute_state

    def counting(tree, head, facts=()):
        folded.append(head)
        return real(tree, head, facts)

    monkeypatch.setattr(plurality.validator, "compute_state", counting)
    eng = Engine(
        parse_scenario(SIBLINGS, name="siblings"),
        oracle=OracleConfig.prodigal(),
        consistency_checks=True,
    )
    for names in (["a", "b", "c"], ["d", "e"]):
        head = eng.tree.select()
        folded.clear()
        pending = [eng.validate_action(n) for n in names]
        # K sibling validations against one head fold it once
        assert folded == [head]
        folded.clear()
        for p in pending:
            assert eng.commit_action(p) is not None
        # no check folds a chain, not even under genesis, which was never checked
        assert folded == []


CONTRADICTED = """
agent W balance 50
agent A
oracle Om
atom p
atom q
constraint !(p & q)
issue x = tx W -(10)[true]-> A
issue y = tx W -(10)[true]-> A
at 0 claim yes = Om: p
"""


@pytest.mark.parametrize(
    "under,body,refuted",
    [
        pytest.param("head", "!p", True, id="head"),
        pytest.param("verified inner block", "!p", True, id="verified inner block"),
        pytest.param("block below the claim", "!p", True, id="block below the claim"),
        pytest.param("head", "q", True, id="through the constraint"),
        pytest.param("block below the claim", "q", True, id="below, through the constraint"),
        pytest.param("verified inner block", "!q", False, id="consistent"),
        pytest.param("block below the claim", "!q", False, id="below, consistent"),
    ],
)
def test_planted_discord_fails_the_next_commit(under, body, refuted):
    s = parse_scenario(CONTRADICTED, name="planted")
    eng = Engine(s, oracle=OracleConfig.prodigal(), consistency_checks=True)
    assert eng.attempt("yes")
    parent = eng.records["yes"].block
    if under != "head":
        assert eng.attempt("x")
    if under == "block below the claim":
        parent = eng.records["x"].block
    pending = eng.validate_action("y")
    # attach a claim under the verified ``parent`` without validating it
    no = ClaimPayload("no", Claim("Om", parse_formula(body, s)))
    eng.tree.commit(eng.tree.oracle.grant(parent, block_id(no.canonical(), parent)), no)
    if refuted:
        with pytest.raises(ConsistencyError):
            eng.commit_action(pending)
    else:
        assert eng.commit_action(pending) is not None


# ---------------------------------------------------------------------------
# Split-phase appends and races


RACE = """
agent W balance 50
agent A
agent B
issue a = tx W -(10)[true]-> A
issue b = tx W -(10)[true]-> B
"""


def test_split_phase_race_loser_revalidates():
    eng = Engine(parse_scenario(RACE, name="race"))
    pa = eng.validate_action("a")
    pb = eng.validate_action("b")
    assert pa is not None and pb is not None
    assert pa.head == pb.head == eng.tree.genesis.id
    assert eng.commit_action(pa) is not None
    # b's token targets the saturated genesis block now
    assert eng.commit_action(pb) is None
    assert eng.records["b"].stage == SUBMITTED
    assert eng.attempt("b")
    assert eng.records["b"].stage == PUBLISHED
    assert len(eng.tree) == 3
    chain = eng.tree.chain_to(eng.tree.select())
    assert [eng.tree.block(b).payload.describe() for b in chain][1:] == [
        "tx a: W -(10)-> A",
        "tx b: W -(10)-> B",
    ]


def test_replaying_a_finished_commit_is_a_noop():
    eng = Engine(parse_scenario(RACE, name="race"))
    pa = eng.validate_action("a")
    assert eng.commit_action(pa) is not None
    before = len(eng.events)
    assert eng.commit_action(pa) is None
    assert eng.records["a"].stage == PUBLISHED
    assert len(eng.events) == before  # no rejection recorded


def test_a_rejected_validation_grants_no_token():
    # the engine validates first and asks for a token only on a pass
    eng = Engine(parse_scenario(RACE + "issue c = tx W -(99)[true]-> A\n", name="race"))
    first = eng.validate_action("a")
    assert eng.validate_action("c") is None  # W holds 50
    assert eng.records["c"].stage == REJECTED
    assert eng.validate_action("b").token.token_id == first.token.token_id + 1


def test_burned_token_rejects_then_recovers():
    eng = Engine(parse_scenario(RACE, name="race"))
    p = eng.validate_action("a")
    p.token.consumed = True  # byzantine oracle burned the token
    assert eng.commit_action(p) is None
    assert eng.records["a"].stage == REJECTED
    reject = [e for e in eng.events if e.kind == "reject"][-1]
    assert reject.data["reason"] == "TokenSpent"
    assert eng.attempt("a")
    assert eng.records["a"].stage == PUBLISHED


def test_unknown_name_raises():
    eng = Engine(parse_scenario(RACE, name="race"))
    with pytest.raises(UnknownName):
        eng.validate_action("nope")


# ---------------------------------------------------------------------------
# Traces and determinism


def test_trace_doc_shape():
    eng, doc = run(FAIR)
    assert doc["format"] == "plurality-trace/1"
    assert doc["scenario"] == "t"
    assert [e["seq"] for e in doc["events"]] == list(range(len(doc["events"])))
    assert [r["name"] for r in doc["records"]] == sorted(r["name"] for r in doc["records"])
    assert sum(c["selected"] for c in doc["chains"]) == 1
    assert len(doc["tree"]) == len(eng.tree)
    for r in doc["records"]:
        if r["stage"] == PUBLISHED:
            assert "block" in r


def test_no_rejection_after_publication():
    eng, doc = run(LICENSE_DISCORD)
    landed: dict[str, int] = {}
    for e in doc["events"]:
        if e["kind"] == "append":
            landed[e["name"]] = e["seq"]
        if e["kind"] == "reject":
            assert e["name"] not in landed


def test_same_seed_same_bytes():
    a = trace_text(run(FAIR, name="fair")[1])
    b = trace_text(run(FAIR, name="fair")[1])
    assert a == b
    # a different seed may reorder same-tick appends but settles identically
    c = run(FAIR, name="fair", seed=1)[1]
    assert finals(c) == {"F": 0, "W": 10, "A": 20, "B": 20}


def test_seed_and_oracle_overrides_recorded():
    eng, doc = run(FAIR, seed=7, oracle=OracleConfig.prodigal())
    assert doc["seed"] == 7
    assert doc["oracle"] == "prodigal"


def test_trace_human_rendering():
    eng, doc = run(LICENSE_DISCORD, name="lic")
    text = trace_human(doc)
    assert "scenario lic" in text
    assert "discord #0 on lic" in text
    assert "accountable Omega_X, Omega_Y" in text
    assert "selected head" in text


def test_random_transfer_runs_conserve_and_replay():
    rng = random.Random(31)
    wallets = ["P", "Q", "R", "S"]
    for trial in range(60):
        lines = [f"agent {w} balance {rng.randrange(0, 40)}" for w in wallets]
        total = sum(int(l.rsplit(" ", 1)[1]) for l in lines)
        for i in range(rng.randrange(1, 9)):
            src, snk = rng.sample(wallets, 2)
            lines.append(f"issue t{i} = tx {src} -({rng.randrange(1, 30)})[true]-> {snk}")
        source = "\n".join(lines) + "\n"
        seed = rng.randrange(1000)
        eng, doc = run(source, seed=seed)
        assert sum(finals(doc).values()) == total
        for r in doc["records"]:
            assert r["stage"] in (PUBLISHED, REJECTED)
        # byte-identical replay under the same seed
        assert trace_text(doc) == trace_text(run(source, seed=seed)[1])


# ---------------------------------------------------------------------------
# Generated scenarios


@st.composite
def generated_scenarios(draw):
    """Small contracts under the cadillac uniqueness constraint.

    Transfers carry closed or claimed guards, may wait on earlier
    transfers, and may be submitted by script, some by the wrong agent;
    oracles post claims over 2-4 ``st`` atoms, some of them in discord
    with each other.
    """
    items, vals = draw(st.sampled_from([(1, 2), (1, 3), (1, 4), (2, 2)]))
    wallets = ["P", "Q", "R"]
    balances = [draw(st.integers(0, 30)) for _ in wallets]
    lines = [f"agent {w} balance {b}" for w, b in zip(wallets, balances)]
    lines += [
        "oracle Om",
        "oracle On",
        f"domain Items = {{ {', '.join(f'i{k}' for k in range(items))} }}",
        f"domain Vals = {{ {', '.join(f'v{j}' for j in range(vals))} }}",
        "atom st(item, val)",
        "constraint forall c in Items . forall u in Vals . forall w in Vals .",
        "  (st(c, u) & st(c, w)) -> u = w",
    ]
    atom = st.builds(
        "st(i{}, v{})".format, st.integers(0, items - 1), st.integers(0, vals - 1)
    )
    literal = st.builds(str.__add__, st.sampled_from(["", "!"]), atom)
    transfers = draw(st.integers(1, 4))
    for i in range(transfers):
        src, snk = draw(st.permutations(wallets))[:2]
        amount = draw(st.integers(1, 20))
        guard = draw(
            st.one_of(
                st.just("true"),
                st.just(f"|{src}| >= {amount}"),
                st.builds("claim {}: {}".format, st.sampled_from(["Om", "On"]), literal),
            )
        )
        deps = draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True)) if i else []
        after = f"after [{', '.join(f't{j}' for j in deps)}] " if deps else ""
        lines.append(f"{after}issue t{i} = tx {src} -({amount})[{guard}]-> {snk}")
    for i in draw(st.lists(st.integers(0, transfers - 1), max_size=3)):
        by = draw(st.sampled_from(["", *(f" by {w}" for w in wallets)]))
        lines.append(f"at {draw(st.integers(0, 2))} submit t{i}{by}")
    for k in range(draw(st.integers(0, 4))):
        tick = draw(st.integers(0, 2))
        who = draw(st.sampled_from(["Om", "On"]))
        lines.append(f"at {tick} claim c{k} = {who}: {draw(literal)}")
    return "\n".join(lines) + "\n", sum(balances)


ORACLES = st.one_of(
    st.builds(OracleConfig.frugal, st.integers(1, 3)), st.just(OracleConfig.prodigal())
)


@settings(max_examples=40, deadline=None)
@given(generated_scenarios(), ORACLES, st.integers(0, 1000))
def test_generated_runs_stay_consistent_conserve_and_replay(case, oracle, seed):
    source, total = case

    def run_once():
        eng = Engine(
            parse_scenario(source, name="gen"),
            oracle=oracle,
            seed=seed,
            consistency_checks=True,
        )
        return eng.run()  # raises ConsistencyError if a store became refutable

    doc = run_once()
    for chain in doc["chains"]:
        assert sum(chain["balances"].values()) == total
    assert trace_text(doc) == trace_text(run_once())


def ordered_authorities(cert) -> list[str]:
    return list(dict.fromkeys(c.authority for c in (cert.candidate,) + cert.conflict))


@settings(max_examples=60, deadline=None)
@given(generated_scenarios(), ORACLES, st.integers(0, 1000), st.data())
def test_split_phase_forks_stay_consistent_and_their_certificates_audit(case, oracle, seed, data):
    # rounds of siblings: each round validates k names against one head,
    # then commits them all, so a prodigal oracle grows real forks and a
    # frugal one makes the losers of each round lose the head race
    source, total = case
    scenario = parse_scenario(source, name="gen")
    names = [a.binding for a in scenario.contract.actions]
    names += [e.label for e in scenario.events if isinstance(e, ClaimEvent)]
    rounds = data.draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=6,
        )
    )

    def grow():
        eng = Engine(
            parse_scenario(source, name="gen"), oracle=oracle, seed=seed, consistency_checks=True
        )
        for names_in_round in rounds:
            pending = [eng.validate_action(n) for n in names_in_round]
            for p in pending:
                if p is not None:
                    eng.commit_action(p)  # raises ConsistencyError on a refutable store
        return eng, eng.trace()

    eng, doc = grow()
    for chain in doc["chains"]:
        assert sum(chain["balances"].values()) == total
    assert trace_text(doc) == trace_text(grow()[1])
    auditor = parse_scenario(source, name="gen")
    defs = auditor.contract.defs
    for e in doc["events"]:
        if e["kind"] != "discord":
            continue
        cert = eng.certificates[e["certificate"]]
        assert e["authorities"] == ordered_authorities(cert)
        assert list(cert.authorities) == ordered_authorities(cert)
        back = certificate_from_text(
            certificate_to_text(cert), lambda s: parse_formula(s, auditor)
        )
        check_certificate(back, defs.constraints, defs)


# ---------------------------------------------------------------------------
# The scheduler against its definition


class NaiveEngine(Engine):
    """An engine whose scheduler walks every contract action on every
    pass and folds the head from genesis for it: the definition that
    the indexed scheduler must match, decision for decision."""

    def _fire_eligible(self):
        last_attempt: dict[str, int] = {}
        while True:
            state = plurality.validator.compute_state(
                self.tree, self.tree.select(), self.scenario.facts
            )
            ready = []
            for a in self.contract.actions:
                rec = self.records[a.binding]
                if rec.stage == PUBLISHED:
                    continue
                if a.binding in self._scripted and a.binding not in self._armed:
                    continue
                if last_attempt.get(a.binding, -1) >= self._publish_serial:
                    continue
                if any(d not in state.published_names for d in a.deps):
                    continue
                ready.append(a.binding)
            if not ready:
                return
            self.rng.shuffle(ready)
            for name in ready:
                last_attempt[name] = self._publish_serial
                done = self.attempt(name)
                if done or self.records[name].stage == REJECTED:
                    self._armed.discard(name)


def texts(eng: Engine) -> list[str]:
    """The trace text, then every certificate's text."""
    return [trace_text(eng.trace())] + [certificate_to_text(c) for c in eng.certificates]


def both_schedulers(source: str, drive, **kw) -> list[Engine]:
    """Drive an indexed and a naive engine alike; their texts must match."""
    engines = []
    for cls in (Engine, NaiveEngine):
        eng = cls(parse_scenario(source, name="sched"), **kw)
        drive(eng)
        engines.append(eng)
    indexed, naive = engines
    assert texts(indexed) == texts(naive)
    return engines


@settings(max_examples=80, deadline=None)
@given(generated_scenarios(), ORACLES, st.integers(0, 1000))
def test_scheduler_matches_the_naive_walk_on_generated_scenarios(case, oracle, seed):
    both_schedulers(case[0], Engine.run, oracle=oracle, seed=seed)


FORKED_DEPENDENCY = """
agent W balance 100
agent A
agent B
oracle Om
atom p
issue a = tx W -(10)[true]-> A
issue b = tx W -(10)[true]-> B
after [a] issue y = tx A -(5)[true]-> B
after [a] issue v = tx A -(50)[true]-> B
after [b] issue z = tx B -(5)[true]-> A
at 0 submit b
"""


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scheduler_drops_a_dependency_the_new_head_lacks(seed):
    moved_at = []  # per engine: the events recorded before the head moved

    def drive(eng):
        pb = eng.validate_action("b")  # on genesis; b is scripted, so never fired
        eng._fire_eligible()  # a, then y publish; v is rejected, short of funds
        tip = eng.commit_action(pb).id  # b lands beside a, one block lower than y
        for label in ("k1", "k2"):  # two unvalidated claims make b's branch the longest
            post = ClaimPayload(label, Claim("Om", parse_formula("p", eng.scenario)))
            token = eng.tree.oracle.grant(tip, block_id(post.canonical(), tip))
            tip = eng.tree.commit(token, post).id
        assert eng.tree.select() == tip
        moved_at.append(len(eng.events))
        eng._fire_eligible()

    eng, _ = both_schedulers(FORKED_DEPENDENCY, drive, oracle=OracleConfig.prodigal(), seed=seed)
    head = eng.tree.select()
    names = plurality.validator.compute_state(eng.tree, head).published
    assert names == ("b", "k1", "k2", "z")
    # v waits on a, which the new head lacks: it is not retried there
    rejected = [(e.seq < moved_at[0], e.data["name"]) for e in eng.events if e.kind == "reject"]
    assert rejected and set(rejected) == {(True, "v")}
    assert eng.records["y"].stage == PUBLISHED and eng.records["v"].stage == REJECTED


DIRECT_DEPENDENCY = """
agent W balance 50
agent A
agent B
issue x = tx W -(10)[true]-> A
after [x] issue y = tx A -(5)[true]-> B
"""


def test_scheduler_wakes_on_a_block_committed_to_the_tree_directly():
    def drive(eng):
        tx = TransactionPayload(action(eng.contract, "x"))
        g = eng.tree.genesis.id
        eng.tree.commit(eng.tree.oracle.grant(g, block_id(tx.canonical(), g)), tx)
        eng.run()

    eng, _ = both_schedulers(DIRECT_DEPENDENCY, drive)
    # x's record never saw its block, so the scheduler tries it, again
    # after y lands, and the validator finds it published each time;
    # y waits on the chain, not on records
    rejects = [e.data for e in eng.events if e.kind == "reject"]
    assert [(r["name"], r["detail"].split(":")[0]) for r in rejects] == [
        ("x", "DuplicateBinding"),
        ("x", "DuplicateBinding"),
    ]
    assert eng.records["x"].stage == REJECTED
    assert eng.records["y"].stage == PUBLISHED


REARMED = """
agent W balance 50
agent A
agent B
issue x = tx W -(10)[!before(2)]-> A
after [x] issue y = tx A -(5)[true]-> B
at 0 submit x
at 3 submit x
"""


def test_scheduler_rearms_a_rejected_action_on_a_later_submit():
    eng, _ = both_schedulers(REARMED, Engine.run)
    assert [(e.tick, e.data["name"]) for e in eng.events if e.kind == "reject"] == [(0, "x")]
    assert [(e.tick, e.data["name"]) for e in eng.events if e.kind == "append"] == [
        (3, "x"),
        (3, "y"),
    ]


NEVER_ARMED = """
agent W balance 50
agent A
agent B
horizon 2
issue x = tx W -(10)[true]-> A
after [x] issue y = tx A -(5)[true]-> B
issue z = tx W -(5)[true]-> B
at 0 submit x by A
"""


def test_scheduler_never_fires_a_scripted_action_left_unarmed():
    eng, _ = both_schedulers(NEVER_ARMED, Engine.run)
    (reject,) = [e.data for e in eng.events if e.kind == "reject"]
    assert reject["name"] == "x" and reject["reason"] == WRONG_SUBMITTER
    assert [e.data["name"] for e in eng.events if e.kind == "append"] == ["z"]
    assert eng.records["y"].stage == SUBMITTED


# Positions: x 0, v 1, n 2, f0..f13 3..16, w 17.  When v is tried before
# x lands, the next pass readies v (a retry) and w (woken by x); 17 and
# 1 share a slot in a small set, so only sorting puts v first.
CONTRACT_ORDER = "\n".join(
    [
        "agent W balance 50",
        "agent A",
        "issue x = tx W -(10)[true]-> A",
        "issue v = tx W -(100)[true]-> A",
        "issue n = tx W -(1)[true]-> A",
        *(f"after [n] issue f{k} = tx W -(1)[true]-> A" for k in range(14)),
        "after [x] issue w = tx W -(1)[true]-> A",
        "at 0 submit n by A",
    ]
)


@pytest.mark.parametrize("seed", range(6))
def test_scheduler_keeps_contract_order_before_the_shuffle(seed):
    eng, _ = both_schedulers(CONTRACT_ORDER, Engine.run, seed=seed)
    assert eng.records["w"].stage == PUBLISHED and eng.records["v"].stage == REJECTED


def chain_source(n: int) -> str:
    """chain-N: F pays W0..W(n-1) one each, each transfer after the previous."""
    lines = [f"agent F balance {n}"] + [f"agent W{i}" for i in range(n)]
    lines += [
        (f"after [x{i - 1}] " if i else "") + f"issue x{i} = tx F -(1)[true]-> W{i}"
        for i in range(n)
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("cls,folds", [(Engine, 1), (NaiveEngine, 2)])
def test_scheduler_folds_each_head_once_on_a_chain(monkeypatch, cls, folds):
    calls = []
    real = plurality.validator.compute_state

    def counting(tree, head, facts=()):
        calls.append(head)
        return real(tree, head, facts)

    monkeypatch.setattr(plurality.validator, "compute_state", counting)
    n = 40
    eng = cls(parse_scenario(chain_source(n), name="chain"))
    eng.run()
    assert all(r.stage == PUBLISHED for r in eng.records.values())
    # one fold per pass; the naive pass folds again for the validation
    assert len(calls) == folds * n + 1


def test_parsing_and_running_leave_no_cyclic_garbage():
    # a cycle through the parser would hold its tokens and text, and the
    # scenario, until a collection runs
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    sources = [(p.stem, p.read_text()) for p in sorted(scenarios.glob("*.plu"))]
    sources += [("chain-300", chain_source(300)), ("claims-48x4", claims_source(48, 4))]
    assert len(sources) == 11
    gc.collect()
    gc.disable()
    try:
        for name, source in sources:
            eng = Engine(parse_scenario(source, name=name))
            trace_text(eng.run())
            for cert in eng.certificates:
                certificate_to_text(cert)
            del eng
            assert gc.collect() == 0, name
    finally:
        gc.enable()


class CountingRecords(dict):
    """An engine's records that count lookups by name."""

    reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return super().__getitem__(name)


@pytest.mark.parametrize("cls", [Engine, NaiveEngine])
def test_scheduler_examines_linearly_many_actions_on_a_chain(cls):
    n = 100
    for horizon in (0, 50, 100):
        eng = cls(parse_scenario(chain_source(n) + f"horizon {horizon}\n", name="chain"))
        eng.records = counted = CountingRecords(eng.records)
        eng.run()
        assert all(r.stage == PUBLISHED for r in eng.records.values())
        if cls is Engine:
            # per action: woken, fired and committed, then seen once more as
            # published; commits read the record too.  A published action
            # waits no more, so the idle ticks after the chain wake nothing
            assert counted.reads <= 4 * n
        else:
            assert counted.reads > n * n  # the walk reads every record on every pass
