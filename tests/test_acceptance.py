"""Top-level acceptance checks, one test per headline requirement.

The worked scenarios must land on their exact final balances and
verdicts, the token oracle and the refutation engine must hold their
randomized properties inside fixed time budgets, every branch's claim
store must stay consistent after every run, and equal seeds must give
byte-identical traces.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

from plurality.blocktree import (
    AlreadyConsumed,
    BlockTree,
    FrugalLimitReached,
    OracleConfig,
)
from plurality.certificates import certificate_to_text, replay_refutation
from plurality.cli import main as cli_main
from plurality.logic import (
    Claim,
    DefinitionSet,
    brute_force_satisfiable,
    formula_text,
    minimize_conflict,
    refute,
)
from plurality.runtime import PUBLISHED, REJECTED, Engine, trace_text
from plurality.syntax import parse_scenario
from plurality.validator import chain_claims_consistent
from tests.test_logic import random_ground_formula

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
ALL_SCENARIOS = (
    "fair",
    "studious",
    "evidential",
    "evidential_discord",
    "competitive_v1",
    "competitive_v2",
    "cadillac",
    "atomic_swap",
    "atomic_swap_halting",
)


def load(name: str):
    return parse_scenario((SCENARIOS / f"{name}.plu").read_text(), name=name)


def run_file(name: str, **overrides):
    engine = Engine(load(name), **overrides)
    return engine, engine.run()


def run_source(source: str, name: str = "inline"):
    engine = Engine(parse_scenario(source, name=name))
    return engine, engine.run()


def selected_balances(doc: dict) -> dict[str, int]:
    chain = [c for c in doc["chains"] if c["selected"]]
    assert len(chain) == 1
    return chain[0]["balances"]


def history(engine: Engine, name: str) -> str:
    return " / ".join(engine.records[name].history)


# ---------------------------------------------------------------------------
# 1. fair pocket money


def test_01_fair_pocket_money_settles_exactly():
    started = time.perf_counter()
    engine, doc = run_file("fair")
    elapsed = time.perf_counter() - started

    assert selected_balances(doc) == {"A": 20, "B": 20, "F": 0, "W": 10}
    appends = [e for e in doc["events"] if e["kind"] == "append"]
    assert len(appends) == 3
    seq = {e["name"]: e["seq"] for e in appends}
    assert seq["x"] < seq["y"] and seq["x"] < seq["z"]
    assert engine.certificates == []
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. studious pocket money


STUDIOUS_SWEEP = """\
agent F balance 50
agent W
agent A
agent S_A balance {grade}

function as_grate(x) = x

issue x = tx F -(50)[true]-> W
after [x] issue y = tx W -(20)[as_grate(|S_A|) > 10]-> A
after [x] issue z = tx W -(10)[as_grate(|S_A|) <= 10]-> A
"""


def test_02_studious_pocket_money_grade_branches():
    src = (SCENARIOS / "studious.plu").read_text()

    engine, doc = run_source(src, name="grade12")
    assert engine.records["y"].stage == PUBLISHED
    assert engine.records["z"].stage == REJECTED
    assert "GuardFalse" in history(engine, "z")
    assert selected_balances(doc)["A"] == 20

    engine, doc = run_source(src.replace("-(12)", "-(9)"), name="grade9")
    assert engine.records["z"].stage == PUBLISHED
    assert engine.records["y"].stage == REJECTED
    assert selected_balances(doc)["A"] == 10

    for grade in range(21):
        engine, doc = run_source(STUDIOUS_SWEEP.format(grade=grade), name="sweep")
        published = {
            n for n in ("y", "z") if engine.records[n].stage == PUBLISHED
        }
        assert len(published) == 1, f"grade {grade} published {published}"
        assert selected_balances(doc)["A"] == (20 if grade > 10 else 10)


# ---------------------------------------------------------------------------
# 3. evidential pocket money


def test_03_evidential_pocket_money_both_ways():
    engine, doc = run_file("evidential")
    assert engine.records["a"].stage == PUBLISHED
    assert engine.certificates == []
    assert selected_balances(doc)["A"] == 20

    engine, doc = run_file("evidential_discord")
    assert engine.records["a"].stage == REJECTED
    assert "Discord" in history(engine, "a")
    assert len(engine.certificates) == 1
    cert = engine.certificates[0]
    assert cert.candidate.authority == "Omega_X"
    assert formula_text(cert.candidate.body) == "license(A)"
    assert len(cert.conflict) == 1
    assert cert.conflict[0].authority == "Omega_Y"
    assert formula_text(cert.conflict[0].body) == "!license(A)"
    assert selected_balances(doc)["A"] == 0


# ---------------------------------------------------------------------------
# 4. competitive pocket money, endorsed ranking


def test_04_competitive_rank_discord_certificate(tmp_path, capsys):
    engine, doc = run_file("competitive_v2")
    assert engine.records["a"].stage == PUBLISHED
    assert engine.records["b"].stage == REJECTED
    assert len(engine.certificates) == 1
    cert = engine.certificates[0]

    involved = (cert.candidate,) + cert.conflict
    assert {c.authority for c in involved} == {"Omega_s"}
    assert {formula_text(c.body) for c in involved} == {
        "(rank(C, A) = 1)",
        "(rank(C, B) = 1)",
    }
    # The two endorsements only clash through the one-student-per-rank
    # constraint, so the refutation must have drawn on it.
    assert len(cert.refutation.used_constraints) > 0

    cert_path = tmp_path / "competitive_v2.cert-0.json"
    cert_path.write_text(certificate_to_text(cert))
    code = cli_main(
        ["check-certificate", str(cert_path), str(SCENARIOS / "competitive_v2.plu")]
    )
    capsys.readouterr()
    assert code == 0


# ---------------------------------------------------------------------------
# 5. rented-car condition discord


def test_05_rented_car_condition_discord_accountability():
    engine, doc = run_file("cadillac")
    assert engine.records["pay"].stage == PUBLISHED
    assert engine.records["counter"].stage == REJECTED
    assert len(engine.certificates) == 1
    cert = engine.certificates[0]
    assert set(cert.authorities) == {"Alice", "Omega_IoT"}
    bodies = {formula_text(c.body) for c in (cert.candidate,) + cert.conflict}
    assert bodies == {"state(cadillac, bad)", "state(cadillac, good)"}


# ---------------------------------------------------------------------------
# 6. three-party swap


def test_06_three_party_swap_happy_and_halting():
    engine, doc = run_file("atomic_swap")
    for name in ("a", "b", "c"):
        assert engine.records[name].stage == PUBLISHED
    assert selected_balances(doc) == {"Alice": 1, "Bob": 30, "Carol": 20}

    engine, doc = run_file("atomic_swap_halting")
    for name in ("a", "b", "c"):
        assert engine.records[name].stage == REJECTED
        assert "GuardFalse" in history(engine, name)
    assert selected_balances(doc) == {"Alice": 30, "Bob": 20, "Carol": 1}


# ---------------------------------------------------------------------------
# 7. token oracle properties


@dataclass(frozen=True)
class Note:
    text: str

    def canonical(self) -> str:
        return f"note {self.text}"

    def describe(self) -> str:
        return f"note {self.text}"


def all_block_ids(tree: BlockTree) -> list[str]:
    out, work = [], [tree.genesis.id]
    while work:
        bid = work.pop()
        out.append(bid)
        work.extend(tree.children(bid))
    return out


def test_07_token_oracle_randomized_properties():
    started = time.perf_counter()
    rng = random.Random(1729)
    counter = 0
    for k, sequences in ((1, 3334), (2, 3333), (3, 3333)):
        for _ in range(sequences):
            tree = BlockTree(Note("genesis"), OracleConfig.frugal(k))
            pending = []
            spent: set[int] = set()
            for _ in range(rng.randrange(4, 11)):
                if pending and rng.random() < 0.45:
                    i = rng.randrange(len(pending))
                    token, payload = pending.pop(i)
                    try:
                        tree.commit(token, payload)
                    except (AlreadyConsumed, FrugalLimitReached):
                        continue
                    assert token.token_id not in spent, "token spent twice"
                    spent.add(token.token_id)
                    if rng.random() < 0.1:
                        try:
                            tree.commit(token, payload)
                            raise AssertionError("spent token committed again")
                        except AlreadyConsumed:
                            pass
                else:
                    counter += 1
                    payload = Note(f"n{counter}")
                    token = tree.get_token(tree.select(), payload)
                    pending.append((token, payload))
            for bid in all_block_ids(tree):
                assert len(tree.children(bid)) <= k
            if k == 1:
                assert len(tree.leaves()) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"10,000 append sequences took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 8. refutation engine vs. exhaustive enumeration


def test_08_refutation_engine_randomized_equivalence():
    started = time.perf_counter()
    rng = random.Random(4242)
    refuted = 0
    for _ in range(5000):
        pool = [f"g{i}" for i in range(rng.randrange(2, 13))]
        defs = DefinitionSet(atoms={n: 0 for n in pool})
        claims = tuple(
            Claim(f"O{i}", random_ground_formula(rng, pool, rng.randrange(1, 4)), origin=f"b{i}")
            for i in range(rng.randrange(0, 5))
        )
        constraints = tuple(
            random_ground_formula(rng, pool, rng.randrange(1, 3))
            for _ in range(rng.randrange(0, 2))
        )
        cand = Claim("Oc", random_ground_formula(rng, pool, rng.randrange(1, 4)))

        engine = refute(claims, constraints, cand, defs)
        folded = [c.body for c in claims] + list(constraints) + [cand.body]
        assert (engine is None) == (brute_force_satisfiable(folded, defs) is not None)
        if engine is None:
            continue

        refuted += 1
        cert = minimize_conflict(claims, constraints, cand, defs)
        replay_refutation(cert, constraints, defs)
        if len(cert.conflict) <= 8:
            # Dropping any member must restore satisfiability; by
            # monotonicity that is exactly subset-minimality.
            for i in range(len(cert.conflict)):
                rest = cert.conflict[:i] + cert.conflict[i + 1 :]
                trimmed = [c.body for c in rest] + list(constraints) + [cand.body]
                assert brute_force_satisfiable(trimmed, defs) is not None
    elapsed = time.perf_counter() - started
    assert refuted > 200, f"only {refuted} refutable sets drawn"
    assert elapsed < 60.0, f"5,000 formula sets took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9. published stores stay consistent


def test_09_published_stores_stay_consistent():
    for name in ALL_SCENARIOS:
        engine, _ = run_file(name, consistency_checks=True)
        assert chain_claims_consistent(engine.tree, engine.scenario), name

    rng = random.Random(31)
    for _ in range(30):
        name = rng.choice(ALL_SCENARIOS)
        oracle = rng.choice(
            [None, OracleConfig.prodigal(), OracleConfig.frugal(2), OracleConfig.frugal(3)]
        )
        engine, _ = run_file(
            name, seed=rng.randrange(1000), oracle=oracle, consistency_checks=True
        )
        assert chain_claims_consistent(engine.tree, engine.scenario), name


# ---------------------------------------------------------------------------
# 10. determinism


def test_10_same_seed_runs_are_byte_identical():
    for name in ALL_SCENARIOS:
        for seed in (None, 5):
            first = trace_text(run_file(name, seed=seed)[1])
            second = trace_text(run_file(name, seed=seed)[1])
            assert first == second, f"{name} seed {seed} traces differ"
