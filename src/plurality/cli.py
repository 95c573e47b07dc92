"""Command-line front end.

Four subcommands:

``run``               execute a scenario file, write the trace (and any
                      discord certificates) to disk, print a summary.
``explain``           show the lifecycle of one binding or claim label
                      from a trace, including who is accountable for a
                      discord rejection.
``check-certificate`` independently replay and audit a certificate
                      against the scenario it came from.
``inspect-tree``      print the block tree recorded in a trace.

Exit codes: 0 success, 1 usage/file/parse errors, 2 discord was found
(``run``) or the replay failed (``check-certificate``), 3 the
certificate's conflict set is not minimal.  A certificate whose audit
exceeds the checker's search budget exits 1.

The trace directory defaults to the current directory and can be
redirected with ``--trace`` or the ``PLURALITY_TRACE_DIR`` environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .blocktree import OracleConfig
from .certificates import (
    CertificateError,
    NotMinimal,
    ReplayFailed,
    certificate_from_text,
    certificate_to_text,
    check_certificate,
)
from .logic import LogicError, ResourceLimit, claim_text
from .runtime import TRACE_FORMAT, ConsistencyError, Engine, trace_human, trace_text
from .syntax import ParseError, parse_formula, parse_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DISCORD = 2
EXIT_NOT_MINIMAL = 3


def _err(msg: str) -> int:
    print(f"plurality: {msg}", file=sys.stderr)
    return EXIT_ERROR


def _load_scenario(path_text: str):
    path = Path(path_text)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read scenario: {e}") from None
    try:
        return parse_scenario(text, name=path.stem)
    except ParseError as e:
        raise ValueError(f"{path}: {e}") from None


# The fields of a trace that ``explain`` and ``inspect-tree`` read: a
# dict gives required keys, a one-item list a list of that shape.
_TRACE_SHAPE = {
    "records": [{"name": str, "kind": str, "stage": str, "history": list}],
    "events": [{"kind": str}],
    "chains": [{"head": str, "length": int, "clock": int, "selected": bool, "balances": dict}],
    "tree": [str],
}
_DISCORD_SHAPE = {
    "name": str,
    "certificate": int,
    "candidate": str,
    "conflict": list,
    "origins": list,
    "authorities": [str],
}


def _shape_error(value, shape, where: str) -> str | None:
    """Where ``value`` first departs from ``shape``, or None if it fits."""
    if isinstance(shape, dict):
        if type(value) is not dict:
            return f"{where} is not an object"
        for key, sub in shape.items():
            if key not in value:
                return f"{where} has no {key!r}"
            err = _shape_error(value[key], sub, f"{where}.{key}")
            if err:
                return err
    elif isinstance(shape, list):
        if type(value) is not list:
            return f"{where} is not a list"
        for i, item in enumerate(value):
            err = _shape_error(item, shape[0], f"{where}[{i}]")
            if err:
                return err
    elif type(value) is not shape:
        return f"{where} is {type(value).__name__}, not {shape.__name__}"
    return None


def _load_trace(path_text: str) -> dict:
    path = Path(path_text)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError: bad UTF-8, bad JSON, too many digits
        raise ValueError(f"cannot read trace: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path} is not a {TRACE_FORMAT} document")
    err = _shape_error(doc, _TRACE_SHAPE, "trace")
    if err is None:
        for i, e in enumerate(doc["events"]):
            if e["kind"] == "discord":
                err = _shape_error(e, _DISCORD_SHAPE, f"trace.events[{i}]")
                if err:
                    break
    if err:
        raise ValueError(f"{path}: malformed trace: {err}")
    return doc


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except ValueError as e:
        return _err(str(e))
    oracle = None
    if args.oracle:
        try:
            oracle = OracleConfig.from_text(args.oracle)
        except ValueError as e:
            return _err(str(e))
    engine = Engine(
        scenario,
        oracle=oracle,
        seed=args.seed,
        consistency_checks=args.check_consistency,
    )
    try:
        doc = engine.run()
    except ConsistencyError as e:
        return _err(f"consistency check failed: {e}")

    out_dir = Path(os.environ.get("PLURALITY_TRACE_DIR") or ".")
    if args.trace:
        trace_path = Path(args.trace)
    else:
        trace_path = out_dir / f"{scenario.name}.trace.json"
    try:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(trace_text(doc), encoding="utf-8")
    except OSError as e:
        return _err(f"cannot write trace: {e}")
    stem = trace_path.name
    if stem.endswith(".trace.json"):
        stem = stem[: -len(".trace.json")]
    else:
        stem = trace_path.stem
    cert_paths = []
    for i, cert in enumerate(engine.certificates):
        cp = trace_path.with_name(f"{stem}.cert-{i}.json")
        try:
            cp.write_text(certificate_to_text(cert), encoding="utf-8")
        except OSError as e:
            return _err(f"cannot write certificate: {e}")
        cert_paths.append(cp)

    if args.format == "structured":
        print(trace_text(doc), end="")
    else:
        print(trace_human(doc), end="")
        print(f"trace written to {trace_path}")
        for cp in cert_paths:
            print(f"certificate written to {cp}")
    return EXIT_DISCORD if engine.certificates else EXIT_OK


# ---------------------------------------------------------------------------
# explain


def cmd_explain(args) -> int:
    try:
        doc = _load_trace(args.trace)
    except ValueError as e:
        return _err(str(e))
    records = {r["name"]: r for r in doc["records"]}
    rec = records.get(args.name)
    if rec is None:
        known = ", ".join(sorted(records)) or "(none)"
        return _err(f"no record named {args.name!r}; trace has: {known}")
    print(f"{rec['name']} ({rec['kind']}): {rec['stage']}")
    for line in rec["history"]:
        print(f"  {line}")
    if "block" in rec:
        print(f"  block: {rec['block']}")
    for e in doc["events"]:
        if e["kind"] == "discord" and e["name"] == args.name:
            print(f"  discord certificate #{e['certificate']}")
            print(f"    candidate: {e['candidate']}")
            for text, origin in zip(e["conflict"], e["origins"]):
                print(f"    against:   {text} (origin {origin})")
            print(f"    accountable: {', '.join(e['authorities'])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-certificate


def cmd_check_certificate(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except ValueError as e:
        return _err(str(e))
    try:
        text = Path(args.certificate).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        return _err(f"cannot read certificate: {e}")
    try:
        cert = certificate_from_text(text, lambda s: parse_formula(s, scenario))
    except (ValueError, CertificateError, ParseError) as e:  # ValueError: bad JSON, too many digits
        return _err(f"malformed certificate: {e}")

    defs = scenario.contract.defs
    try:
        check_certificate(cert, defs.constraints, defs)
    except ReplayFailed as e:
        print(f"replay failed: {e}")
        return EXIT_DISCORD
    except NotMinimal as e:
        print(f"conflict set is not minimal: {e}")
        return EXIT_NOT_MINIMAL
    except ResourceLimit as e:
        return _err(f"cannot audit certificate: {e}")
    except LogicError as e:  # a body that parses but cannot be ground-expanded
        return _err(f"malformed certificate: {e}")
    print(f"certificate verified: {claim_text(cert.candidate)}")
    print(f"conflicts with {len(cert.conflict)} stored claim(s)")
    print(f"accountable: {', '.join(cert.authorities)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect-tree


def cmd_inspect_tree(args) -> int:
    try:
        doc = _load_trace(args.trace)
    except ValueError as e:
        return _err(str(e))
    for line in doc["tree"]:
        print(line)
    for c in doc["chains"]:
        mark = "*" if c["selected"] else " "
        balances = " ".join(f"{k}={v}" for k, v in sorted(c["balances"].items()))
        print(
            f"{mark} head {c['head']} length {c['length']} clock {c['clock']}: {balances}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="plurality",
        description="Deterministic simulator for guarded-transfer contracts "
        "with authority claims and proof-of-discord.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a .plu scenario")
    run_p.add_argument("--oracle", help="token policy override: prodigal or frugal:K")
    run_p.add_argument("--seed", type=int, help="scheduling seed override")
    run_p.add_argument("--trace", help="trace output path")
    run_p.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="stdout format (default: text)",
    )
    run_p.add_argument(
        "--check-consistency",
        action="store_true",
        help="audit every branch's claim store after each append",
    )
    run_p.set_defaults(func=cmd_run)

    ex_p = sub.add_parser("explain", help="show one record from a trace")
    ex_p.add_argument("trace", help="path to a trace JSON file")
    ex_p.add_argument("name", help="action binding or claim label")
    ex_p.set_defaults(func=cmd_explain)

    cc_p = sub.add_parser(
        "check-certificate", help="replay and audit a discord certificate"
    )
    cc_p.add_argument("certificate", help="path to a certificate JSON file")
    cc_p.add_argument("scenario", help="the scenario the certificate came from")
    cc_p.set_defaults(func=cmd_check_certificate)

    it_p = sub.add_parser("inspect-tree", help="print the block tree of a trace")
    it_p.add_argument("trace", help="path to a trace JSON file")
    it_p.set_defaults(func=cmd_inspect_tree)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
