"""Console entry point: build, characters, classify, verify.

Each command consumes a *case file*, a JSON object selecting one datum::

    {"type": "C", "rank": 3, "decoration": [2, 1, 1],
     "lattice": "coweight", "mode": "generic", "p": 5}

``decoration`` takes an integer (all nodes equal), a list with one weight
per node class in canonical class order, or a mapping from affine node
labels to weights.  ``lattice`` is ``"coweight"``, ``"coroot"`` or an
explicit list of basis vectors.  Every field except ``type`` and ``rank``
has a default (decoration 1, coweight lattice, generic mode, p = 5).

A *suite file* holds ``{"cases": [...]}`` where each entry is either a
bare case object or ``{"case": {...}, "expect": {...}}``; expectations
may pin ``verdict``, ``r``, ``dimension`` and ``supersingular``, and no
other field.  The ``verify`` command runs its built-in suite when no
file is given.

Reports are JSON with sorted keys and no volatile fields, so repeated
runs produce byte-identical output; opt into wall-clock data with
``--timing``.  Exit codes: 0 success (an ``ExcludedTypeA`` verdict is a
successful classification), 1 verification mismatch, 2 invalid input,
3 broken internal invariant (failed relations, or no case of the
analysis applying) or memory exhausted.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import HeckeLabError, RelationsFail
from .rootdata import INFINITE_BOND, build_root_datum
from .hecke import HeckeAlgebra
from .intlin import is_int, is_prime
from .modules import character_extends, enumerate_characters
from .classify import (CASE_EXCLUDED_A, CASE_ONE_DIM, CASE_REFLECTION,
                       CASE_TWO_DIM, CASE_UNHANDLED, is_discrete_character,
                       key_result_search)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

# errors that mean the analysis itself failed, not the input
_INTERNAL_ERRORS = (RelationsFail, MemoryError)

DEFAULT_PRIME = 5

_CASE_KEYS = {"type", "rank", "decoration", "lattice", "mode", "p"}

_EXPECT_KEYS = {"verdict", "r", "dimension", "supersingular"}


def parse_case(obj: dict) -> dict:
    """Validate and normalize a case object; raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("a case must be a JSON object")
    unknown = set(obj) - _CASE_KEYS
    if unknown:
        raise ValueError(f"unknown case fields: {sorted(unknown)}")
    if "type" not in obj or "rank" not in obj:
        raise ValueError("a case needs at least 'type' and 'rank'")
    kind = obj["type"]
    rank = obj["rank"]
    if not isinstance(kind, str) or kind not in "ABCDEFG" or len(kind) != 1:
        raise ValueError(f"'type' must be one of A..G, got {kind!r}")
    if not is_int(rank):
        raise ValueError(f"'rank' must be an integer, got {rank!r}")
    decoration = obj.get("decoration", 1)
    if isinstance(decoration, dict):
        try:
            decoration = {int(k): v for k, v in decoration.items()}
        except (TypeError, ValueError):
            raise ValueError("decoration mapping keys must be node labels")
        weights = list(decoration.values())
    else:
        weights = (decoration if isinstance(decoration, (list, tuple))
                   else [decoration])
    if not all(is_int(w) for w in weights):
        raise ValueError(f"decoration weights must be integers, "
                         f"got {decoration!r}")
    lattice = obj.get("lattice", "coweight")
    if isinstance(lattice, list):
        if not all(isinstance(row, (list, tuple))
                   and all(is_int(x) for x in row)
                   for row in lattice):
            raise ValueError("'lattice' must be 'coweight', 'coroot' or a "
                             f"list of integer vectors, got {lattice!r}")
        lattice = [tuple(row) for row in lattice]
    elif lattice not in ("coweight", "coroot"):
        raise ValueError(f"unknown lattice choice {lattice!r}")
    mode = obj.get("mode", "generic")
    if mode not in ("generic", "modp"):
        raise ValueError(f"'mode' must be 'generic' or 'modp', got {mode!r}")
    p = obj.get("p", DEFAULT_PRIME)
    if not (is_int(p) and p < 2**63 and is_prime(p)):
        raise ValueError(f"'p' must be a prime below 2^63, got {p!r}")
    return {"type": kind, "rank": rank, "decoration": decoration,
            "lattice": lattice, "mode": mode, "p": p}


def _algebra_for(case: dict) -> HeckeAlgebra:
    datum = build_root_datum(case["type"], case["rank"],
                             weights=case["decoration"],
                             lattice=case["lattice"])
    return HeckeAlgebra(datum)


def _echo_case(case: dict, alg: HeckeAlgebra) -> dict:
    d = alg.datum
    return {"type": case["type"], "rank": case["rank"],
            "decoration": list(d.class_weights),
            "lattice": (case["lattice"] if isinstance(case["lattice"], str)
                        else [list(r) for r in case["lattice"]]),
            "mode": case["mode"], "p": case["p"]}


def _canonical(obj) -> str:
    """``obj`` as report text: exactly the bytes of
    ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, written in one
    pass, since the C encoder of the standard library is not used once
    ``indent`` is set.  Strings are written by
    ``json.encoder.encode_basestring_ascii``, ints by ``int.__repr__``,
    ``True``, ``False`` and ``None`` as literals and any other scalar by
    ``json.dumps``.  A dict key that is not a ``str`` raises
    ``TypeError``, where ``json.dumps`` would write it as a string.

    >>> print(_canonical({"b": [1, "x"], "a": {}}), end="")
    {
      "a": {},
      "b": [
        1,
        "x"
      ]
    }
    """
    out: list[str] = []
    _write(obj, "", "\n", out)
    out.append("\n")
    return "".join(out)


# the writer of each scalar type that is not left to json.dumps
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _write(obj, head: str, pad: str, out: list[str]) -> None:
    """Append ``obj`` to ``out`` after ``head``, its separator and indent,
    with ``pad`` the line break and indent of the line it starts on.  A
    scalar is one chunk, head and text together."""
    text = _SCALARS.get(type(obj))
    if text is not None:
        out.append(head + text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append(head + "{}")
            return
        inner = pad + "  "
        head += "{" + inner
        # keys of mixed types fail to sort, with TypeError too
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {key!r}")
            _write(obj[key], head + encode_basestring_ascii(key) + ": ",
                   inner, out)
            head = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append(head + "[]")
            return
        inner = pad + "  "
        head += "[" + inner
        for item in obj:
            _write(item, head, inner, out)
            head = "," + inner
        out.append(pad + "]")
    else:
        out.append(head + json.dumps(obj))


def _input_hash(obj) -> str:
    return "sha256:" + hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---- the built-in suite ---------------------------------------------------


def default_suite() -> list[dict]:
    """The standard list of cases with their expected outcomes."""

    def entry(kind, rank, decoration, verdict, r=None):
        case = {"type": kind, "rank": rank, "decoration": decoration}
        expect = {"verdict": verdict}
        if r is not None:
            expect["r"] = r
        if verdict in (CASE_ONE_DIM, CASE_TWO_DIM, CASE_REFLECTION):
            expect["supersingular"] = True
        return {"case": case, "expect": expect}

    out = [
        entry("A", 1, [1, 1], CASE_EXCLUDED_A),
        entry("A", 1, [1, 2], CASE_ONE_DIM, r=1),
        entry("A", 2, 1, CASE_EXCLUDED_A),
        entry("A", 3, 1, CASE_EXCLUDED_A),
        entry("A", 4, 1, CASE_EXCLUDED_A),
        entry("B", 3, 1, CASE_ONE_DIM, r=1),
    ]
    c_table = {
        2: {(1, 1, 1): 2, (2, 1, 1): 2, (1, 2, 2): 1, (2, 3, 3): 1},
        3: {(1, 1, 1): 2, (2, 1, 1): 1, (1, 2, 2): 2, (2, 3, 3): 2},
        4: {(1, 1, 1): 1, (2, 1, 1): 1, (1, 2, 2): 2, (2, 3, 3): 2},
        5: {(1, 1, 1): 1, (2, 1, 1): 1, (1, 2, 2): 2, (2, 3, 3): 1},
    }
    for rank in (2, 3, 4, 5):
        for deco, r in c_table[rank].items():
            verdict = CASE_ONE_DIM if r == 1 else CASE_TWO_DIM
            out.append(entry("C", rank, list(deco), verdict, r=r))
    out += [
        entry("D", 4, 1, CASE_REFLECTION),
        entry("D", 5, 1, CASE_REFLECTION),
        entry("E", 6, 1, CASE_REFLECTION),
        entry("E", 7, 1, CASE_REFLECTION),
        entry("E", 8, 1, CASE_REFLECTION),
        entry("F", 4, 1, CASE_ONE_DIM, r=1),
        entry("G", 2, 1, CASE_ONE_DIM, r=1),
    ]
    return out


# ---- command payloads ------------------------------------------------------


def run_build(case: dict) -> dict:
    alg = _algebra_for(case)
    d = alg.datum
    m = [[(None if x == INFINITE_BOND else x) for x in row]
         for row in d.coxeter_m]
    omega_full = alg.omega_full
    omega = alg.omega
    return {
        "case": _echo_case(case, alg),
        "report": {
            "label": d.label(),
            "cartan_matrix": [list(r) for r in d.cartan],
            "affine_coxeter_matrix": m,
            "node_classes": [list(c) for c in d.classes],
            "class_weights": list(d.class_weights),
            "positive_root_count": len(d.pos_roots),
            "theta_coroot": list(d.theta_coroot),
            "length_zero_group": {
                "order": len(omega_full.elements),
                "structure": omega_full.structure(),
                "decorated_order": len(omega.elements),
                "decorated_structure": omega.structure(),
            },
            "effective_lattice": [list(r) for r in alg.effective_basis],
            "lattice_index": d.lattice_index,
        },
    }


def run_characters(case: dict) -> dict:
    alg = _algebra_for(case)
    rows = []
    if case["mode"] == "generic":
        for ch in enumerate_characters(alg, "generic"):
            extends, exts = character_extends(alg, ch)
            discrete, table = is_discrete_character(alg, ch)
            rows.append({
                "label": ch.label(),
                "values": list(ch.values),
                "extends": extends,
                "extension_count": len(exts),
                "discrete": discrete,
                "exponent_table": table,
            })
    else:
        for ch in enumerate_characters(alg, "modp"):
            rows.append({"label": ch.label(), "values": list(ch.values)})
    return {
        "case": _echo_case(case, alg),
        "characters": rows,
        "count": len(rows),
        "mode": case["mode"],
    }


def run_classify(case: dict, exhaustive: bool = False) -> dict:
    alg = _algebra_for(case)
    outcome = key_result_search(alg, p=case["p"], exhaustive=exhaustive)
    return {
        "case": _echo_case(case, alg),
        "verdict": outcome.case,
        "r": outcome.r,
        "dimension": outcome.dimension,
        "certificate": outcome.certificate,
    }


def _check_expectations(result: dict, expect: dict) -> list[str]:
    fails = []
    if "verdict" in expect and result["verdict"] != expect["verdict"]:
        fails.append(f"verdict {result['verdict']} != "
                     f"expected {expect['verdict']}")
    if "r" in expect and result["r"] != expect["r"]:
        fails.append(f"r {result['r']} != expected {expect['r']}")
    if "dimension" in expect and result["dimension"] != expect["dimension"]:
        fails.append(f"dimension {result['dimension']} != "
                     f"expected {expect['dimension']}")
    cert = result.get("certificate", {})
    got_ss = cert.get("supersingular_mod_p", {}).get("nilpotent")
    if "supersingular" in expect and got_ss != expect["supersingular"]:
        fails.append(f"supersingular {got_ss} != "
                     f"expected {expect['supersingular']}")
    if result["verdict"] in (CASE_ONE_DIM, CASE_TWO_DIM, CASE_REFLECTION):
        if cert.get("relations") != "pass":
            fails.append("certificate does not record passing relations")
        if got_ss is not True:
            fails.append("produced module is not supersingular")
    return fails


def run_verify(entries: list[dict], exhaustive: bool = False) -> tuple[dict, int]:
    def one(idx, entry):
        case = entry["case"]
        expect = entry.get("expect", {})
        row = {"index": idx}
        try:
            result = run_classify(case, exhaustive=exhaustive)
        except _INTERNAL_ERRORS + (HeckeLabError, ValueError) as exc:
            row.update({"case": case, "pass": False,
                        "failures": [f"{type(exc).__name__}: {exc}"]})
            if isinstance(exc, _INTERNAL_ERRORS):
                row["internal"] = True
            return row
        fails = _check_expectations(result, expect)
        if result["verdict"] == CASE_UNHANDLED:
            row["internal"] = True
            fails.append("no case of the analysis applied")
        row.update({"case": result["case"], "verdict": result["verdict"],
                    "r": result["r"], "expected": expect,
                    "pass": not fails, "failures": fails})
        return row

    rows = [one(idx, entry) for idx, entry in enumerate(entries)]
    passed = sum(1 for r in rows if r["pass"])
    payload = {
        "results": rows,
        "summary": {"total": len(rows), "passed": passed,
                    "failed": len(rows) - passed},
        "warnings": [] if rows else ["suite is empty; nothing was checked"],
    }
    if any(r.get("internal") for r in rows):
        code = EXIT_INTERNAL
    elif passed < len(rows):
        code = EXIT_MISMATCH
    else:
        code = EXIT_OK
    return payload, code


# ---- wiring ----------------------------------------------------------------


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_suite(path: str | None) -> list[dict]:
    if path is None:
        entries = default_suite()
    else:
        raw = _load_json(path)
        if isinstance(raw, dict):
            raw = raw.get("cases")
            if raw is None:
                raise ValueError("a suite object needs a 'cases' list")
        if not isinstance(raw, list):
            raise ValueError("a suite must be a list of cases")
        entries = []
        for item in raw:
            if isinstance(item, dict) and "case" in item:
                expect = item.get("expect", {})
                if not isinstance(expect, dict):
                    raise ValueError("an expectation must be a JSON object")
                unknown = set(expect) - _EXPECT_KEYS
                if unknown:
                    raise ValueError(
                        f"unknown expectation fields: {sorted(unknown)}")
                entries.append({"case": item["case"], "expect": expect})
            else:
                entries.append({"case": item, "expect": {}})
    for entry in entries:
        entry["case"] = parse_case(entry["case"])
    return entries


def _emit(report: dict, args) -> None:
    text = _canonical(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote report to {args.json}", file=sys.stderr)
    sys.stdout.write(text)


def _wrap(command: str, payload: dict, args, hashed, started: float) -> dict:
    report = {
        "tool": {"name": "heckelab", "version": __version__},
        "command": command,
        "input_hash": _input_hash(hashed),
        "seed": args.seed,
        "timing": ({"seconds": round(time.time() - started, 3)}
                   if args.timing else None),
    }
    report.update(payload)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="exact computations with extended affine Hecke algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "build": "construct the datum and report its combinatorial frame",
        "characters": "list one dimensional characters with their verdicts",
        "classify": "run the classification search on one case",
        "verify": "run a suite of cases against expected outcomes",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--case", metavar="FILE",
                       help="JSON file with one case object")
        if name == "verify":
            p.add_argument("--suite", metavar="FILE",
                           help="JSON suite file (default: built-in suite)")
        p.add_argument("--p", type=int, default=None, metavar="PRIME",
                       help=f"characteristic (default {DEFAULT_PRIME})")
        p.add_argument("--seed", type=int, default=0,
                       help="seed echoed into the report for reproducibility")
        p.add_argument("--exhaustive", action="store_true",
                       help="test every generator orbit, even on the "
                            "largest exceptional types")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock seconds (breaks "
                            "byte-stability of reports)")
        p.add_argument("--json", metavar="OUT",
                       help="also write the report to this file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call rather than at
    import: building it takes a few milliseconds, a sizeable share of a
    small command, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.time()
    try:
        if args.command == "verify":
            if args.case is not None and args.suite is not None:
                raise ValueError("pass --case or --suite, not both")
            if args.case is not None:
                entries = [{"case": parse_case(_load_json(args.case)),
                            "expect": {}}]
            else:
                entries = _load_suite(args.suite)
            if args.p is not None:
                for entry in entries:
                    entry["case"]["p"] = args.p
                    parse_case(entry["case"])
            payload, code = run_verify(entries, exhaustive=args.exhaustive)
            hashed = [{"case": e["case"], "expect": e["expect"]}
                      for e in entries]
            _emit(_wrap("verify", payload, args, hashed, started), args)
            return code

        if args.case is None:
            raise ValueError(f"'{args.command}' needs --case FILE")
        case = parse_case(_load_json(args.case))
        if args.p is not None:
            case["p"] = args.p
            case = parse_case(case)
        if args.command == "build":
            payload = run_build(case)
            code = EXIT_OK
        elif args.command == "characters":
            payload = run_characters(case)
            code = EXIT_OK
        else:
            payload = run_classify(case, exhaustive=args.exhaustive)
            code = (EXIT_INTERNAL if payload["verdict"] == CASE_UNHANDLED
                    else EXIT_OK)
        _emit(_wrap(args.command, payload, args, case, started), args)
        return code
    except _INTERNAL_ERRORS + (HeckeLabError, ValueError, KeyError,
                               TypeError, OSError) as exc:
        # json.JSONDecodeError is a ValueError
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        try:
            _emit(error, args)
        except OSError:
            # the --json file cannot be written: the report goes to stdout
            sys.stdout.write(_canonical(error))
        return (EXIT_INTERNAL if isinstance(exc, _INTERNAL_ERRORS)
                else EXIT_BAD_INPUT)


if __name__ == "__main__":
    sys.exit(main())
