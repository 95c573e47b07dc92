"""Golden traces and certificates for every bundled scenario.

Each case runs one scenario under one seed and one token policy, with
the consistency audit on, and compares the trace text and every
certificate text byte for byte with the files in ``tests/golden/``.
A mismatch is a behaviour change.  To make one on purpose, regenerate
the files and check each new certificate with ``plurality
check-certificate`` before committing them:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from plurality.blocktree import OracleConfig
from plurality.certificates import (
    ReplayFailed,
    certificate_from_text,
    certificate_to_text,
    check_certificate,
)
from plurality.runtime import Engine, trace_text
from plurality.syntax import parse_formula, parse_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (None, 5)  # None: the scenario's own seed
ORACLES = ("frugal:1", "prodigal")

CASES = [
    (path.stem, seed, oracle)
    for path in sorted(SCENARIOS.glob("*.plu"))
    for seed in SEEDS
    for oracle in ORACLES
]


def case_stem(name: str, seed: int | None, oracle: str) -> str:
    seed_part = "default" if seed is None else str(seed)
    return f"{name}.seed-{seed_part}.{oracle.replace(':', '')}"


def render(name: str, seed: int | None, oracle: str) -> dict[str, str]:
    """File name -> text for one case: the trace, then each certificate."""
    source = (SCENARIOS / f"{name}.plu").read_text(encoding="utf-8")
    engine = Engine(
        parse_scenario(source, name=name),
        oracle=OracleConfig.from_text(oracle),
        seed=seed,
        consistency_checks=True,
    )
    stem = case_stem(name, seed, oracle)
    out = {f"{stem}.trace.json": trace_text(engine.run())}
    for i, cert in enumerate(engine.certificates):
        out[f"{stem}.cert-{i}.json"] = certificate_to_text(cert)
    return out


@pytest.mark.parametrize(
    "name,seed,oracle", CASES, ids=[case_stem(*c) for c in CASES]
)
def test_golden_bytes(name, seed, oracle):
    fresh = render(name, seed, oracle)
    stem = case_stem(name, seed, oracle)
    stored = sorted(p.name for p in GOLDEN.glob(f"{stem}.*"))
    assert stored == sorted(fresh), "golden file set differs"
    for fname, text in fresh.items():
        assert (GOLDEN / fname).read_text(encoding="utf-8") == text, fname


CERTIFICATES = sorted(GOLDEN.glob("*.cert-*.json"))


def audit(name: str, text: str) -> None:
    """Check one certificate text against the scenario it came from."""
    scenario = parse_scenario((SCENARIOS / f"{name}.plu").read_text(encoding="utf-8"), name=name)
    cert = certificate_from_text(text, lambda s: parse_formula(s, scenario))
    defs = scenario.contract.defs
    check_certificate(cert, defs.constraints, defs)


@pytest.mark.parametrize("path", CERTIFICATES, ids=[p.name for p in CERTIFICATES])
def test_golden_certificate_passes_the_audit(path):
    name = path.name.split(".", 1)[0]
    text = path.read_text(encoding="utf-8")
    audit(name, text)
    doc = json.loads(text)
    step = next(s for s in doc["refutation"]["steps"] if s.get("source") == "candidate")
    step["clause"] = sorted(-lit for lit in step["clause"])
    with pytest.raises(ReplayFailed):
        audit(name, json.dumps(doc))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for case in CASES:
        for fname, text in render(*case).items():
            (GOLDEN / fname).write_text(text, encoding="utf-8")
