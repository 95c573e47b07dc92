"""End-to-end tests for the command-line interface.

Each test drives ``plurality.cli.main`` in-process with a real scenario
file and checks exit codes, stdout/stderr, and the files written to a
temporary directory.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurality import certificates, logic
from plurality.cli import (
    EXIT_DISCORD,
    EXIT_ERROR,
    EXIT_NOT_MINIMAL,
    EXIT_OK,
    main,
)
from plurality.logic import DefinitionSet
from plurality.runtime import TRACE_FORMAT

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_scenario(tmp_path, capsys, name: str, *extra: str) -> tuple[int, str, Path]:
    trace = tmp_path / f"{name}.trace.json"
    code, out, err = run_cli(
        capsys, "run", str(SCENARIOS / f"{name}.plu"), "--trace", str(trace), *extra
    )
    assert err == ""
    return code, out, trace


# ---------------------------------------------------------------------------
# run


def test_run_writes_trace_and_exits_zero(tmp_path, capsys):
    code, out, trace = run_scenario(tmp_path, capsys, "fair")
    assert code == EXIT_OK
    assert trace.exists()
    doc = json.loads(trace.read_text())
    assert doc["format"] == TRACE_FORMAT
    assert f"trace written to {trace}" in out
    assert "x (action): published block" in out
    # The summary names the selected head balances.
    assert "A=20 B=20 F=0 W=10" in out


def test_run_discord_exits_two_and_writes_certificate(tmp_path, capsys):
    code, out, trace = run_scenario(tmp_path, capsys, "evidential_discord")
    assert code == EXIT_DISCORD
    cert_path = tmp_path / "evidential_discord.cert-0.json"
    assert cert_path.exists()
    assert f"certificate written to {cert_path}" in out
    doc = json.loads(cert_path.read_text())
    assert doc["candidate"]["authority"] == "Omega_X"
    assert [c["authority"] for c in doc["conflict"]] == ["Omega_Y"]


def test_run_defaults_to_trace_dir_env_var(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "traces"
    monkeypatch.setenv("PLURALITY_TRACE_DIR", str(out_dir))
    code, out, err = run_cli(capsys, "run", str(SCENARIOS / "cadillac.plu"))
    assert code == EXIT_DISCORD
    assert (out_dir / "cadillac.trace.json").exists()
    assert (out_dir / "cadillac.cert-0.json").exists()
    assert err == ""


def test_run_defaults_to_cwd_without_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PLURALITY_TRACE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "run", str(SCENARIOS / "evidential.plu"))
    assert code == EXIT_OK
    assert (tmp_path / "evidential.trace.json").exists()


def test_run_structured_prints_canonical_json(tmp_path, capsys):
    code, out, trace = run_scenario(tmp_path, capsys, "fair", "--format", "structured")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["format"] == TRACE_FORMAT
    assert "trace written" not in out
    # stdout and the file hold the same canonical bytes.
    assert out == trace.read_text()


def test_run_records_overrides_in_trace(tmp_path, capsys):
    code, _, trace = run_scenario(
        tmp_path, capsys, "fair", "--oracle", "prodigal", "--seed", "9"
    )
    assert code == EXIT_OK
    doc = json.loads(trace.read_text())
    assert doc["oracle"] == "prodigal"
    assert doc["seed"] == 9
    # Overrides never change the outcome of this scenario, only scheduling.
    selected = [c for c in doc["chains"] if c["selected"]]
    assert selected[0]["balances"] == {"A": 20, "B": 20, "F": 0, "W": 10}


def test_run_missing_scenario_is_an_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", str(tmp_path / "missing.plu"))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("plurality: cannot read scenario")


def test_run_parse_error_is_reported_with_path(tmp_path, capsys):
    bad = tmp_path / "bad.plu"
    bad.write_text("agent A holds nonsense\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == EXIT_ERROR
    assert "bad.plu" in err


def test_run_reports_a_non_ascii_digit_with_its_position(tmp_path, capsys):
    bad = tmp_path / "bad.plu"
    bad.write_text("agent A balance \u00b2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == f"plurality: {bad}: line 1, col 17: stray character '\u00b2'\n"


def test_run_rejects_unknown_oracle(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run", str(SCENARIOS / "fair.plu"), "--oracle", "generous"
    )
    assert code == EXIT_ERROR
    assert "plurality:" in err


# ---------------------------------------------------------------------------
# explain


def test_explain_published_action(tmp_path, capsys):
    _, _, trace = run_scenario(tmp_path, capsys, "fair")
    code, out, _ = run_cli(capsys, "explain", str(trace), "y")
    assert code == EXIT_OK
    assert out.startswith("y (action): published")
    assert "block:" in out


def test_explain_discord_names_the_accountable(tmp_path, capsys):
    _, _, trace = run_scenario(tmp_path, capsys, "evidential_discord")
    code, out, _ = run_cli(capsys, "explain", str(trace), "a")
    assert code == EXIT_OK
    assert "discord certificate #0" in out
    assert "candidate: claim Omega_X: license(A)" in out
    assert "against:   claim Omega_Y: !license(A) (origin " in out
    assert "accountable: Omega_X, Omega_Y" in out


def test_explain_unknown_name_lists_records(tmp_path, capsys):
    _, _, trace = run_scenario(tmp_path, capsys, "fair")
    code, _, err = run_cli(capsys, "explain", str(trace), "nope")
    assert code == EXIT_ERROR
    assert "no record named 'nope'" in err
    assert "x, y, z" in err


def test_explain_rejects_non_trace_file(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else"}))
    code, _, err = run_cli(capsys, "explain", str(other), "x")
    assert code == EXIT_ERROR
    assert TRACE_FORMAT in err


# ---------------------------------------------------------------------------
# check-certificate


def certificate_from_run(tmp_path, capsys, name: str) -> Path:
    code, _, _ = run_scenario(tmp_path, capsys, name)
    assert code == EXIT_DISCORD
    return tmp_path / f"{name}.cert-0.json"


def test_check_certificate_verifies_engine_output(tmp_path, capsys):
    cert = certificate_from_run(tmp_path, capsys, "evidential_discord")
    code, out, _ = run_cli(
        capsys,
        "check-certificate",
        str(cert),
        str(SCENARIOS / "evidential_discord.plu"),
    )
    assert code == EXIT_OK
    assert "certificate verified: claim Omega_X: license(A)" in out
    assert "conflicts with 1 stored claim(s)" in out
    assert "accountable: Omega_X, Omega_Y" in out


def test_check_certificate_uses_scenario_constraints(tmp_path, capsys):
    # The cadillac conflict is only contradictory together with the
    # one-condition-per-car constraint, so verification must load it.
    cert = certificate_from_run(tmp_path, capsys, "cadillac")
    code, out, _ = run_cli(
        capsys, "check-certificate", str(cert), str(SCENARIOS / "cadillac.plu")
    )
    assert code == EXIT_OK
    assert "accountable: Alice, Omega_IoT" in out


def test_check_certificate_detects_broken_replay(tmp_path, capsys):
    cert = certificate_from_run(tmp_path, capsys, "evidential_discord")
    doc = json.loads(cert.read_text())
    doc["refutation"]["steps"][0]["clause"] = [1]
    cert.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys,
        "check-certificate",
        str(cert),
        str(SCENARIOS / "evidential_discord.plu"),
    )
    assert code == EXIT_DISCORD
    assert out.startswith("replay failed:")


def test_check_certificate_detects_padded_conflict(tmp_path, capsys):
    cert = certificate_from_run(tmp_path, capsys, "evidential_discord")
    doc = json.loads(cert.read_text())
    doc["conflict"].append(
        {"authority": "Omega_Y", "body": "license(B)", "origin": "padding"}
    )
    cert.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys,
        "check-certificate",
        str(cert),
        str(SCENARIOS / "evidential_discord.plu"),
    )
    assert code == EXIT_NOT_MINIMAL
    assert out.startswith("conflict set is not minimal")


def test_check_certificate_audits_a_wide_constraint(tmp_path, capsys):
    # A constraint over 25 fresh atoms is tautological, so the engine's
    # certificate never cites it, but the minimality audit must load it.
    cert = certificate_from_run(tmp_path, capsys, "evidential_discord")
    members = ", ".join(f"m{i}" for i in range(25))
    widened = tmp_path / "evidential_discord.plu"
    widened.write_text(
        (SCENARIOS / "evidential_discord.plu").read_text()
        + f"domain Big = {{ {members} }}\natom mark(x)\n"
        + "constraint forall x in Big . mark(x) | !mark(x)\n"
    )
    code, out, err = run_cli(capsys, "check-certificate", str(cert), str(widened))
    assert code == EXIT_OK
    assert err == ""
    assert out.startswith("certificate verified:")


def claims_scenario(items: int, values: int) -> str:
    """One value per item; every item gets v0, then the last item gets v1."""
    names = ", ".join(f"i{i}" for i in range(items))
    vals = ", ".join(f"v{j}" for j in range(values))
    lines = [
        "oracle O",
        f"domain Items = {{ {names} }}",
        f"domain Vals = {{ {vals} }}",
        "atom st(item, val)",
        "constraint forall c in Items . forall u in Vals . forall w in Vals .",
        "  (st(c, u) & st(c, w)) -> u = w",
    ]
    lines += [f"at 0 claim s{i} = O: st(i{i}, v0)" for i in range(items)]
    lines.append(f"at 1 claim d = O: st(i{items - 1}, v1)")
    return "\n".join(lines) + "\n"


def test_check_certificate_is_fast_on_claims_12x2(tmp_path, capsys):
    # Enumerating all 24 ground atoms of the constraint used to take minutes.
    scenario = tmp_path / "claims.plu"
    scenario.write_text(claims_scenario(12, 2))
    trace = tmp_path / "claims.trace.json"
    code, _, _ = run_cli(capsys, "run", str(scenario), "--trace", str(trace))
    assert code == EXIT_DISCORD
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "check-certificate", str(tmp_path / "claims.cert-0.json"), str(scenario)
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert "certificate verified: claim O: st(i11, v1)" in out


def wide_scenario(line: str, members: int = 1500) -> str:
    """A domain Items of ``members`` members, an atom st over it and ``line``."""
    items = ", ".join(f"i{i}" for i in range(members))
    return (
        f"agent W balance 50\nagent A\noracle O\ndomain Items = {{ {items} }}\n"
        f"atom st(item)\n{line}\n"
    )


def run_wide(tmp_path, capsys, line: str) -> str:
    scenario = tmp_path / "wide.plu"
    scenario.write_text(wide_scenario(line))
    trace = tmp_path / "wide.trace.json"
    code, out, err = run_cli(capsys, "run", str(scenario), "--trace", str(trace))
    assert code in (EXIT_OK, EXIT_DISCORD)
    assert "Traceback" not in err
    return out


def test_a_closed_guard_over_a_wide_domain_is_read_without_deep_recursion(tmp_path, capsys):
    out = run_wide(tmp_path, capsys, "issue x = tx W -(10)[forall c in Items . !st(c)]-> A")
    assert "x (action): published block" in out


def test_a_closed_guard_through_a_chain_of_negated_definitions_is_read(tmp_path, capsys):
    # each definition nests 90 levels, within the bound; the chain of twelve nests 1,080
    lines = ["agent W balance 50", "agent A", "predicate q0() := " + "!" * 90 + "true"]
    lines += [f"predicate q{i}() := " + "!" * 90 + f"q{i - 1}()" for i in range(1, 12)]
    lines.append("issue x = tx W -(1)[q11()]-> A")
    scenario = tmp_path / "negations.plu"
    scenario.write_text("\n".join(lines) + "\n")
    trace = tmp_path / "negations.trace.json"
    code, out, err = run_cli(capsys, "run", str(scenario), "--trace", str(trace))
    assert (code, err) == (EXIT_OK, "")
    assert "x (action): published block" in out


def test_a_constraint_over_a_wide_domain_gives_its_claim_a_verdict(tmp_path, capsys):
    out = run_wide(
        tmp_path,
        capsys,
        "constraint forall c in Items . !st(c) | st(c)\nat 0 claim k = O: st(i0)",
    )
    assert "reject k: ResourceLimit (1500 ground atoms exceeds the configured cap 512)" in out


def test_a_claim_whose_clauses_overflow_over_a_wide_domain_is_rejected(tmp_path, capsys):
    # the retry after the overflow walks the expansion, a chain of 1,200 links
    scenario = tmp_path / "wide.plu"
    scenario.write_text(
        wide_scenario("atom lt(item)\nat 0 claim k = O: exists c in Items . st(c) & lt(c)", 1200)
    )
    trace = tmp_path / "wide.trace.json"
    code, out, err = run_cli(capsys, "run", str(scenario), "--trace", str(trace))
    assert (code, err) == (EXIT_OK, "")
    assert "reject k: ResourceLimit (clause budget exceeded in CNF)" in out


def test_check_certificate_audits_a_padded_member_over_a_wide_domain(tmp_path, capsys):
    # the padded member's residual form is a chain of 1,200 links
    scenario = tmp_path / "wide.plu"
    scenario.write_text(wide_scenario("constraint !st(i0)\nat 0 claim k = O: st(i0)", 1200))
    trace = tmp_path / "wide.trace.json"
    assert run_cli(capsys, "run", str(scenario), "--trace", str(trace))[0] == EXIT_DISCORD
    cert = tmp_path / "wide.cert-0.json"
    doc = json.loads(cert.read_text())
    doc["conflict"].append(
        {"authority": "O", "body": "(exists c in Items . st(c))", "origin": "x"}
    )
    cert.write_text(json.dumps(doc))
    assert run_cli(capsys, "check-certificate", str(cert), str(scenario)) == (
        EXIT_NOT_MINIMAL,
        "conflict set is not minimal: already contradictory without claim O: "
        "(exists c in Items . st(c))\n",
        "",
    )


# Claims equivalent to ``on`` that nest exactly MAX_NESTING (100) levels, as
# written or in canonical form, and the same shapes one level deeper.
NESTED = {
    "chain": (" & ".join(["on"] * 100), " & ".join(["on"] * 101)),
    "negations": ("!" * 100 + "on", "!" * 102 + "on"),
    "parentheses": ("(" * 100 + "on" + ")" * 100, "(" * 101 + "on" + ")" * 101),
    "quantifiers": ("exists x in D . " * 50 + "on", "exists x in D . " * 51 + "on"),
    "implications": ("true -> " * 50 + "on", "true -> " * 51 + "on"),
    "terms": (
        "on & " + "add(" * 97 + "0" + ", 0)" * 97 + " = 0",
        "on & " + "add(" * 98 + "0" + ", 0)" * 98 + " = 0",
    ),
    "long-chain": (" | ".join(["on"] * 100), " | ".join(["on"] * 600)),
    # a deep right operand: the canonical form parenthesizes it
    "or-negations": ("on | " + "!" * 98 + "on", "on | " + "!" * 99 + "on"),
    "and-negations": ("on & " + "!" * 98 + "on", "on & " + "!" * 99 + "on"),
    "implies-negations": ("true -> " + "!" * 98 + "on", "true -> " + "!" * 99 + "on"),
}


def nested_scenario(tmp_path, body: str) -> Path:
    scenario = tmp_path / "nested.plu"
    scenario.write_text(
        f"oracle O\ndomain D = {{ a }}\natom on\nconstraint !on\nat 0 claim k = O: {body}\n"
    )
    return scenario


@pytest.mark.parametrize("shape", list(NESTED))
def test_a_claim_at_the_nesting_bound_runs_and_its_certificate_checks(tmp_path, capsys, shape):
    scenario = nested_scenario(tmp_path, NESTED[shape][0])
    trace = tmp_path / "nested.trace.json"
    code, _, err = run_cli(capsys, "run", str(scenario), "--trace", str(trace))
    assert (code, err) == (EXIT_DISCORD, "")
    cert = tmp_path / "nested.cert-0.json"
    code, out, err = run_cli(capsys, "check-certificate", str(cert), str(scenario))
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("certificate verified: claim O: ")


@pytest.mark.parametrize("shape", list(NESTED))
def test_a_claim_past_the_nesting_bound_is_a_parse_error(tmp_path, capsys, shape):
    scenario = nested_scenario(tmp_path, NESTED[shape][1])
    trace = tmp_path / "nested.trace.json"
    code, out, err = run_cli(capsys, "run", str(scenario), "--trace", str(trace))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("plurality: ") and err.endswith(
        ": formula nests deeper than 100 levels\n"
    )
    assert err.count("\n") == 1


def test_check_certificate_reports_a_body_past_the_nesting_bound(tmp_path, capsys):
    scenario = nested_scenario(tmp_path, "on")
    trace = tmp_path / "nested.trace.json"
    assert run_cli(capsys, "run", str(scenario), "--trace", str(trace))[0] == EXIT_DISCORD
    cert = tmp_path / "nested.cert-0.json"
    doc = json.loads(cert.read_text())
    doc["candidate"]["body"] = "!" * 102 + "on"
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check-certificate", str(cert), str(scenario))
    assert (code, out) == (EXIT_ERROR, "")
    assert "formula nests deeper than 100 levels" in err and err.count("\n") == 1


def test_check_certificate_refuses_a_pigeonhole_body_without_searching(capsys, monkeypatch):
    # PHP(9, 8) is unsatisfiable, so its empty clause follows semantically,
    # but not by simplification; a search for it took seconds
    fixtures = Path(__file__).resolve().parent / "fixtures"
    searches = []
    monkeypatch.setattr(certificates, "_search", lambda *args: searches.append(args))
    code, out, err = run_cli(
        capsys,
        "check-certificate",
        str(fixtures / "pigeonhole.cert.json"),
        str(fixtures / "pigeonhole.plu"),
    )
    assert (code, out, err) == (
        EXIT_DISCORD,
        "replay failed: step 0: clause [] does not follow from its source\n",
        "",
    )
    assert searches == []


def test_check_certificate_gives_up_on_a_pigeonhole_member_within_its_budget(capsys, monkeypatch):
    # the proof cites only the candidate r(1) and the constraint !r(1), so
    # it replays at once; minimality must then decide the member PHP(9, 8)
    # without the candidate, which took 80,639 propagations unbounded
    fixtures = Path(__file__).resolve().parent / "fixtures"
    propagated = []
    real_propagate = certificates._propagate
    monkeypatch.setattr(
        certificates, "_propagate", lambda *args: propagated.append(1) or real_propagate(*args)
    )
    code, out, err = run_cli(
        capsys,
        "check-certificate",
        str(fixtures / "pigeonhole_member.cert.json"),
        str(fixtures / "pigeonhole_member.plu"),
    )
    budget = certificates.MAX_SEARCH_STEPS
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"plurality: cannot audit certificate: the audit's search took more than {budget} steps\n"
    # the all-false witness decides the constraint alone, then the probe spends the budget
    assert len(propagated) == budget


ENGINE_CODE = (
    "refute",
    "minimize_conflict",
    "store_consistent",
    "_formula_clauses",
    "_cnf",
    "compute_state",
    "chain_claims_consistent",
    "fold_block",
    "_block_claims",
    "_component_of_new_claims",
)


def test_check_certificate_runs_no_engine_code(tmp_path, capsys, monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("check-certificate ran engine code")

    patched = []
    for name, module in list(sys.modules.items()):
        if name == "plurality" or name.startswith("plurality."):
            for attr in ENGINE_CODE:
                if attr in vars(module):
                    monkeypatch.setattr(module, attr, unavailable)
                    patched.append(attr)
    assert patched.count("compute_state") >= 2 and set(patched) == set(ENGINE_CODE)
    monkeypatch.setattr(DefinitionSet, "constraint_clause_atoms", property(unavailable))

    golden = sorted(GOLDEN.glob("*.cert-*.json"))
    assert len(golden) == 12
    for cert in golden:
        scenario = SCENARIOS / f"{cert.name.split('.')[0]}.plu"
        assert run_cli(capsys, "check-certificate", str(cert), str(scenario))[0] == EXIT_OK, cert.name
    fixtures = Path(__file__).resolve().parent / "fixtures"
    pigeonhole = run_cli(
        capsys,
        "check-certificate",
        str(fixtures / "pigeonhole.cert.json"),
        str(fixtures / "pigeonhole.plu"),
    )
    assert pigeonhole[0] == EXIT_DISCORD
    doc = json.loads((golden[0].parent / "competitive_v2.seed-5.prodigal.cert-0.json").read_text())
    flipped = json.loads(json.dumps(doc))
    step = next(s for s in flipped["refutation"]["steps"] if s.get("source") == "candidate")
    step["clause"] = sorted(-lit for lit in step["clause"])
    padded = json.loads(json.dumps(doc))
    padded["conflict"].append(padded["conflict"][0])
    scenario = str(SCENARIOS / "competitive_v2.plu")
    for tampered, want in ((flipped, EXIT_DISCORD), (padded, EXIT_NOT_MINIMAL)):
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(tampered))
        assert run_cli(capsys, "check-certificate", str(path), scenario)[0] == want


def term_nodes(t) -> int:
    """The terms of ``t``, itself included: the ``term_text`` calls one rendering makes."""
    return 1 + sum(map(term_nodes, getattr(t, "args", ())))


def test_check_certificate_renders_each_atom_node_once(capsys, monkeypatch):
    # every term_text call runs under atom_key; charge it to that frame's node
    renders: dict[int, list] = {}  # id -> [node, calls]; the node is kept so no id is reused
    real = logic.term_text

    def counting(t):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not logic.atom_key.__code__:
            frame = frame.f_back
        assert frame is not None, f"{real(t)} rendered outside atom_key"
        node = frame.f_locals["f"]
        renders.setdefault(id(node), [node, 0])[1] += 1
        return real(t)

    monkeypatch.setattr(logic, "term_text", counting)
    golden = sorted(GOLDEN.glob("*.cert-*.json"))
    for cert in golden:
        scenario = SCENARIOS / f"{cert.name.split('.')[0]}.plu"
        assert run_cli(capsys, "check-certificate", str(cert), str(scenario))[0] == EXIT_OK, cert.name
    assert len(golden) == 12 and len(renders) > 50
    for node, calls in renders.values():
        args = (node.lhs, node.rhs) if isinstance(node, logic.Cmp) else node.args
        assert calls == sum(map(term_nodes, args)), logic.formula_text(node)


def test_check_certificate_rejects_malformed_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{ not json")
    code, _, err = run_cli(
        capsys, "check-certificate", str(bogus), str(SCENARIOS / "fair.plu")
    )
    assert code == EXIT_ERROR
    assert "malformed certificate" in err


def test_check_certificate_reports_a_non_ascii_digit_in_a_body(tmp_path, capsys):
    cert = certificate_from_run(tmp_path, capsys, "evidential_discord")
    doc = json.loads(cert.read_text())
    doc["candidate"]["body"] = "license(\u00b2)"
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "check-certificate", str(cert), str(SCENARIOS / "evidential_discord.plu")
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "plurality: malformed certificate: line 1, col 9: stray character '\u00b2'\n"


def test_check_certificate_rejects_an_unknown_rule(tmp_path, capsys):
    cert = certificate_from_run(tmp_path, capsys, "evidential_discord")
    doc = json.loads(cert.read_text())
    step = next(s for s in doc["refutation"]["steps"] if s["rule"] == "resolve")
    step["rule"] = "frobnicate"
    cert.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "check-certificate", str(cert), str(SCENARIOS / "evidential_discord.plu")
    )
    assert code == EXIT_DISCORD
    assert out.startswith("replay failed:") and "unknown rule 'frobnicate'" in out


def break_body(doc):
    doc["candidate"]["body"] = 5


def break_clause(doc):
    doc["refutation"]["steps"][0]["clause"] = ["1"]


def break_source(doc):
    step = next(s for s in doc["refutation"]["steps"] if s.get("source", "").startswith("claim"))
    step["source"] = "claim:zz"


def assert_one_error_line(code, out, err):
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("plurality: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("tamper", [break_body, break_clause, break_source])
def test_check_certificate_reports_a_field_of_the_wrong_type(tmp_path, capsys, tamper):
    cert = certificate_from_run(tmp_path, capsys, "evidential_discord")
    doc = json.loads(cert.read_text())
    tamper(doc)
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "check-certificate", str(cert), str(SCENARIOS / "evidential_discord.plu")
    )
    assert_one_error_line(code, out, err)
    assert "malformed certificate" in err


def test_check_certificate_reports_a_certificate_that_is_not_utf8(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden" / "cadillac.seed-5.prodigal.cert-0.json"
    cert = tmp_path / "cert.json"
    cert.write_bytes(golden.read_bytes() + b"\xff")
    code, out, err = run_cli(
        capsys, "check-certificate", str(cert), str(SCENARIOS / "cadillac.plu")
    )
    assert_one_error_line(code, out, err)
    assert err.startswith("plurality: cannot read certificate: ")


@pytest.mark.parametrize(
    "body,error",
    [
        ("hashlock(1, 2)", "hashlock expects a hex digest and a string preimage"),
        ('("a" < 3)', "ordering needs integers, got 'a' < 3"),
        ("(add(a, 1) = 2)", "add expects integers, got 'a', 1"),
    ],
)
def test_check_certificate_reports_an_ill_typed_body(tmp_path, capsys, body, error):
    golden = Path(__file__).resolve().parent / "golden" / "cadillac.seed-5.prodigal.cert-0.json"
    doc = json.loads(golden.read_text())
    doc["candidate"]["body"] = body
    doc["refutation"]["conclusion"] = f"!{body}"
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "check-certificate", str(cert), str(SCENARIOS / "cadillac.plu")
    )
    assert_one_error_line(code, out, err)
    assert err == f"plurality: malformed certificate: {error}\n"


@pytest.mark.parametrize("command,what", [("run", "scenario"), ("explain", "trace")])
def test_commands_report_an_input_that_is_not_utf8(tmp_path, capsys, command, what):
    bad = tmp_path / "bad"
    bad.write_bytes(b"agent A balance 1\n\xff\n")
    code, out, err = run_cli(capsys, command, str(bad), *(["x"] if command == "explain" else []))
    assert_one_error_line(code, out, err)
    assert err.startswith(f"plurality: cannot read {what}: ")


@pytest.mark.parametrize(
    "command,suffix,extra,what",
    [
        ("check-certificate", "cert-0.json", [SCENARIOS / "cadillac.plu"], "malformed certificate"),
        ("explain", "trace.json", ["x"], "cannot read trace"),
        ("inspect-tree", "trace.json", [], "cannot read trace"),
    ],
)
def test_commands_report_an_integer_too_long_to_read(tmp_path, capsys, command, suffix, extra, what):
    # json.loads refuses an integer of more than 4,300 digits with a plain ValueError
    bad = tmp_path / "bad.json"
    golden = (GOLDEN / f"cadillac.seed-5.prodigal.{suffix}").read_text()
    bad.write_text(golden.replace("{", '{"pad": ' + "9" * 5000 + ",", 1))
    code, out, err = run_cli(capsys, command, str(bad), *map(str, extra))
    assert_one_error_line(code, out, err)
    assert err.startswith(f"plurality: {what}: ")


def test_run_reports_a_certificate_it_cannot_write(tmp_path, capsys):
    (tmp_path / "evidential_discord.cert-0.json").mkdir()
    trace = tmp_path / "evidential_discord.trace.json"
    code, out, err = run_cli(
        capsys, "run", str(SCENARIOS / "evidential_discord.plu"), "--trace", str(trace)
    )
    assert_one_error_line(code, out, err)
    assert err.startswith("plurality: cannot write certificate: ")


def break_records(doc):
    doc["records"] = 5


def break_history(doc):
    doc["records"][0]["history"] = None


def break_chains(doc):
    doc["chains"] = None


@pytest.mark.parametrize(
    "tamper,command",
    [(break_records, "explain"), (break_history, "explain"), (break_chains, "inspect-tree")],
)
def test_trace_commands_report_a_field_of_the_wrong_type(tmp_path, capsys, tamper, command):
    _, _, trace = run_scenario(tmp_path, capsys, "evidential_discord")
    doc = json.loads(trace.read_text())
    tamper(doc)
    trace.write_text(json.dumps(doc))
    argv = [command, str(trace), "x"] if command == "explain" else [command, str(trace)]
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert "malformed trace" in err


# ---------------------------------------------------------------------------
# mutated golden inputs: a documented exit code and at most one error line


def json_slots(doc) -> list:
    """Every (container, key) pair of a JSON document."""
    slots, todo = [], [doc]
    while todo:
        node = todo.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for k in keys:
            slots.append((node, k))
            todo.append(node[k])
    return slots


OTHER_VALUES = (None, True, 0, -1, 1.5, "", "x", [], {}, ["x"], {"x": 1})
OUT_OF_RANGE = (-1, 2**31, -(2**63), 2**64, 10**100)
NON_ASCII = ("\u00e9", "\u00b2", "\u0663", "\u96ea", "\U0001f600", "\ufeff", "\x00")
HUGE = "9" * 5000  # past Python's integer-string limit: spliced into the text


def mutant(data, path: Path) -> bytes:
    """``path``'s JSON with 1-3 random edits: a value of another JSON
    type, a deleted key or item, an integer out of range, non-ASCII text;
    then perhaps a trailing byte that is not UTF-8."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        slots = json_slots(doc)
        if not slots:
            break
        node, key = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
        value, kind = node[key], data.draw(st.sampled_from(("type", "delete", "integer", "text")))
        if kind == "delete":
            del node[key]
        elif kind == "integer":
            node[key] = data.draw(st.sampled_from(OUT_OF_RANGE + ("huge",)))
        elif kind == "text":
            text = value if isinstance(value, str) else ""
            at = data.draw(st.integers(0, len(text)))
            node[key] = text[:at] + data.draw(st.sampled_from(NON_ASCII)) + text[at:]
        else:
            other = data.draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(value)]))
            node[key] = copy.deepcopy(other)  # later edits may change it
    text = json.dumps(doc, ensure_ascii=data.draw(st.booleans())).replace('"huge"', HUGE)
    return text.encode("utf-8") + (b"\xff" if data.draw(st.booleans()) else b"")


def fenced_cli(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mutated_golden_inputs_get_a_verdict_or_one_error_line(data):
    certs = sorted(GOLDEN.glob("*.cert-*.json"))
    traces = sorted(GOLDEN.glob("*.trace.json"))
    assert len(certs) == 12 and len(traces) == 36
    path = data.draw(st.sampled_from(certs) | st.sampled_from(traces))
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "mutant.json"
        target.write_bytes(mutant(data, path))
        if path in certs:
            scenario = SCENARIOS / f"{path.name.split('.')[0]}.plu"
            runs = [("check-certificate", str(target), str(scenario))]
        else:
            name = json.loads(path.read_text())["records"][0]["name"]
            runs = [("explain", str(target), name), ("inspect-tree", str(target))]
        for argv in runs:
            code, err = fenced_cli(*argv)
            assert code in (EXIT_OK, EXIT_ERROR, EXIT_DISCORD, EXIT_NOT_MINIMAL), argv
            assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), (argv, err)


# ---------------------------------------------------------------------------
# inspect-tree


def test_inspect_tree_marks_selected_chain(tmp_path, capsys):
    _, _, trace = run_scenario(tmp_path, capsys, "competitive_v2")
    code, out, _ = run_cli(capsys, "inspect-tree", str(trace))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert any("genesis" in ln for ln in lines)
    assert any("tx a: W -(20)-> A" in ln for ln in lines)
    starred = [ln for ln in lines if ln.startswith("* head ")]
    assert len(starred) == 1
    assert "A=20 B=0 F=0 W=30" in starred[0]


# ---------------------------------------------------------------------------
# scenario outcomes through the CLI


@pytest.mark.parametrize(
    "name,expected",
    [
        ("fair", {"A": 20, "B": 20, "F": 0, "W": 10}),
        ("studious", {"A": 20, "F": 0, "S_A": 12, "School": 88, "W": 30}),
        ("evidential", {"A": 20, "F": 0, "W": 30}),
        ("competitive_v1", {"A": 20, "B": 0, "F": 0, "W": 30}),
        ("atomic_swap", {"Alice": 1, "Bob": 30, "Carol": 20}),
        ("atomic_swap_halting", {"Alice": 30, "Bob": 20, "Carol": 1}),
    ],
)
def test_scenario_final_balances(tmp_path, capsys, name, expected):
    code, _, trace = run_scenario(tmp_path, capsys, name)
    assert code == EXIT_OK
    doc = json.loads(trace.read_text())
    selected = [c for c in doc["chains"] if c["selected"]][0]
    for agent, balance in expected.items():
        assert selected["balances"].get(agent, 0) == balance


def test_competitive_v2_certificate_holds_both_rank_claims(tmp_path, capsys):
    cert = certificate_from_run(tmp_path, capsys, "competitive_v2")
    doc = json.loads(cert.read_text())
    texts = {doc["candidate"]["body"]} | {c["body"] for c in doc["conflict"]}
    assert texts == {"(rank(C, B) = 1)", "(rank(C, A) = 1)"}
    assert doc["candidate"]["authority"] == "Omega_s"
    code, _, _ = run_cli(
        capsys, "check-certificate", str(cert), str(SCENARIOS / "competitive_v2.plu")
    )
    assert code == EXIT_OK
