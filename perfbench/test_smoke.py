"""Tiny-size smoke test of the benchmark: output schema and known answers.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

assert run.load_program() is not None
import gen  # noqa: E402
import plurality  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"HISTORY_N": 12, "DISCORD": (6, 3, 2), "FORKS": (4, 3), "AUDIT": (3, 2, 2)}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "peak_rss_child", lambda workload, seed: (1.0, None))


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema_and_known_answers(tiny, name, trace):
    w = workloads.WORKLOADS[name]
    doc, lines = run.measure(w, w.generate(3), 3, 0.05, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0, "\n".join(lines)
    assert doc["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float | int)
        if not trace:
            assert got["value"] > 0
    json.dumps(doc, allow_nan=False)


def test_a_wrong_known_answer_is_reported(tiny):
    w = workloads.WORKLOADS["history"]
    case = w.generate(1)
    case.final_balances["F"] += 1
    doc, _ = run.measure(w, case, 1, 0.05, 0)
    assert doc["correct"] is False and doc["failed"] >= 1


def test_a_wrong_verdict_is_reported(tiny):
    w = workloads.WORKLOADS["audit"]
    case = w.generate(1)
    padded = next(i for i, v in enumerate(case.verdicts) if v.error == "NotMinimal")
    v = case.verdicts[padded]
    case.verdicts[padded] = gen.Verdict(v.label, v.source, v.text, None)
    doc, _ = run.measure(w, case, 1, 0.05, 0)
    assert doc["correct"] is False and doc["failed"] >= 1


def test_generators_give_the_stated_shape():
    forks = gen.forks(5, 3, seed=2)
    assert len(forks.leaf_lengths) == 5 * (3 - 1) + 1
    discord = gen.claims(8, 2, 3, seed=2)
    assert (discord.appends, discord.rejections) == (8, 3)
    assert gen.history(7, seed=2).final_balances["F"] == 1


def test_tracer_wraps_every_namespace_and_restores():
    original = plurality.logic.refute
    residual = plurality.logic.eval_residual
    with tracing.Tracer():
        assert plurality.logic.eval_residual is residual
        assert plurality.certificates.eval_residual is not residual
        assert plurality.logic.refute is not original
        assert plurality.validator.refute is plurality.logic.refute
        assert plurality.runtime.compute_state is plurality.validator.compute_state
        assert plurality.runtime.compute_state.__name__ == "traced"
    assert plurality.logic.refute is original
    assert plurality.validator.refute is original
    assert plurality.runtime.compute_state.__name__ == "compute_state"


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
