"""Command line interface: exit codes, report shapes, byte-stable
output, the thread pool, and fuzzed case files."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckelab import build_root_datum, cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def child_env():
    """The environment for a child interpreter, with the directory that
    holds the heckelab package under test first on its import path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_case(tmp_path, payload, name="case.json"):
    f = tmp_path / name
    f.write_text(json.dumps(payload))
    return str(f)


def test_build_report(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "G", "rank": 2})
    code, out = run_cli(["build", "--case", case], capsys)
    assert code == 0
    r = json.loads(out)
    assert r["command"] == "build"
    assert r["tool"]["name"] == "heckelab"
    assert r["case"]["decoration"] == [1, 1]
    assert r["case"]["p"] == 5
    assert r["input_hash"].startswith("sha256:")
    rep = r["report"]
    assert rep["label"] == "G2"
    assert rep["positive_root_count"] == 6
    assert rep["cartan_matrix"] == [[2, -3], [-1, 2]]
    assert rep["length_zero_group"]["structure"] == "1"
    assert r["timing"] is None
    assert r["seed"] == 0


def test_characters_report(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "C", "rank": 2})
    code, out = run_cli(["characters", "--case", case], capsys)
    assert code == 0
    r = json.loads(out)
    assert r["count"] == 8 and len(r["characters"]) == 8
    discrete = [c["label"] for c in r["characters"] if c["discrete"]]
    assert sorted(discrete) == ["(-1, -1, -1)", "(-1, -1, q)", "(-1, q, -1)"]
    for c in r["characters"]:
        rows = c["exponent_table"]["rows"]
        assert c["discrete"] == all(row["exponent"] < 0 for row in rows)


def test_classify_success(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "G", "rank": 2})
    code, out = run_cli(["classify", "--case", case], capsys)
    assert code == 0
    r = json.loads(out)
    assert r["verdict"] == "Character1Dim"
    assert r["r"] == 1 and r["dimension"] == 1
    assert r["certificate"]["relations"] == "pass"
    assert r["certificate"]["supersingular_mod_p"]["nilpotent"] is True


def test_classify_unhandled_maps_to_exit_3(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "B", "rank": 3,
                                 "decoration": [1, 2]})
    code, out = run_cli(["classify", "--case", case], capsys)
    assert code == 3
    assert json.loads(out)["verdict"] == "UnhandledCase"


def test_excluded_type_a_is_success(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "A", "rank": 2})
    code, out = run_cli(["classify", "--case", case], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "ExcludedTypeA"


def test_invalid_inputs_exit_2(tmp_path, capsys):
    bad_cases = [
        {"type": "Q", "rank": 2},
        {"type": "G", "rank": 2, "p": 6},
        {"type": "G", "rank": 2, "mode": "quantum"},
        {"type": "G", "rank": 2, "unknown_key": 1},
        {"type": "C", "rank": 2, "decoration": [1, 2]},
        {"type": "G"},
    ]
    for payload in bad_cases:
        case = write_case(tmp_path, payload)
        code, out = run_cli(["build", "--case", case], capsys)
        assert code == 2, payload
        r = json.loads(out)
        assert "error" in r and r["error"]["message"]

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all {")
    code, out = run_cli(["build", "--case", str(garbage)], capsys)
    assert code == 2

    code, out = run_cli(["build", "--case", str(tmp_path / "missing.json")],
                        capsys)
    assert code == 2


def test_uncoerced_inputs_exit_2(tmp_path, capsys):
    """Bools, floats and strings are refused where integers are due,
    not read as the integers they resemble."""
    bad_cases = [
        {"type": "C", "rank": 3, "decoration": [1.5, 1, 1]},
        {"type": "C", "rank": 3, "decoration": [1, True, 1]},
        {"type": "C", "rank": 3, "decoration": ["2", 1, 1]},
        {"type": "C", "rank": 2, "decoration": True},
        {"type": "C", "rank": 2, "decoration": 1.0},
        {"type": "C", "rank": 2, "decoration": "1"},
        {"type": "C", "rank": 2, "decoration": {"0": 1, "1": 1.0, "2": 1}},
        {"type": "A", "rank": True},
        {"type": "A", "rank": 2.0},
        {"type": "A", "rank": "2"},
        {"type": "C", "rank": 2, "lattice": [[1, 0], [0, "1"]]},
        {"type": "C", "rank": 2, "lattice": [[1, 0], [0, True]]},
        {"type": "C", "rank": 2, "lattice": [[1, 0], [0, 1.0]]},
        {"type": "C", "rank": 2, "lattice": [1, 0]},
    ]
    for payload in bad_cases:
        case = write_case(tmp_path, payload)
        for command in ("build", "characters"):
            code, out = run_cli([command, "--case", case], capsys)
            assert code == 2, (command, payload)
            r = json.loads(out)
            assert set(r) == {"error"} and r["error"]["message"], payload


def test_characters_a7(tmp_path, capsys):
    """A7 generic: two characters, the special one discrete, the trivial
    one not, over the 64 coroot monoid generators."""
    case = write_case(tmp_path, {"type": "A", "rank": 7})
    code, out = run_cli(["characters", "--case", case], capsys)
    assert code == 0
    r = json.loads(out)
    assert r["count"] == 2 and len(r["characters"]) == 2
    verdicts = {tuple(c["values"]): c["discrete"] for c in r["characters"]}
    assert verdicts == {(-1,): True, (1,): False}
    for c in r["characters"]:
        assert len(c["exponent_table"]["rows"]) == 64


def test_verify_suite_pass_and_mismatch(tmp_path, capsys):
    suite = {"cases": [
        {"case": {"type": "G", "rank": 2},
         "expect": {"verdict": "Character1Dim", "r": 1, "dimension": 1,
                    "supersingular": True}},
        {"case": {"type": "A", "rank": 2},
         "expect": {"verdict": "ExcludedTypeA"}},
        {"case": {"type": "C", "rank": 2, "decoration": [1, 2, 2]},
         "expect": {"verdict": "Character1Dim"}},
    ]}
    f = write_case(tmp_path, suite, "suite.json")
    code, out = run_cli(["verify", "--suite", f], capsys)
    assert code == 0
    r = json.loads(out)
    assert r["summary"] == {"failed": 0, "passed": 3, "total": 3}
    assert all(entry["pass"] for entry in r["results"])
    assert [entry["index"] for entry in r["results"]] == [0, 1, 2]

    suite["cases"][0]["expect"]["verdict"] = "Induced2Dim"
    f2 = write_case(tmp_path, suite, "suite_bad.json")
    code, out = run_cli(["verify", "--suite", f2], capsys)
    assert code == 1
    r = json.loads(out)
    assert r["summary"]["failed"] == 1
    failing = [e for e in r["results"] if not e["pass"]]
    assert len(failing) == 1 and failing[0]["failures"]


def test_verify_refuses_expectations_it_cannot_check(tmp_path, capsys):
    """An expectation that is not an object, or that pins a field verify
    does not check, is bad input naming the field, not a pass."""
    for expect, named in [({"verdit": "Induced2Dim"}, "'verdit'"),
                          ("Induced2Dim", "object")]:
        suite = {"cases": [{"case": {"type": "G", "rank": 2},
                            "expect": expect}]}
        f = write_case(tmp_path, suite, "suite.json")
        code, out = run_cli(["verify", "--suite", f], capsys)
        assert code == 2, expect
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError" and named in error["message"]


def test_verify_runs_the_built_in_suite(capsys):
    code, out = run_cli(["verify"], capsys)
    assert code == 0
    r = json.loads(out)
    assert r["summary"] == {"failed": 0, "passed": 29, "total": 29}
    assert r["warnings"] == []


def test_verify_empty_suite_warns(tmp_path, capsys):
    f = write_case(tmp_path, {"cases": []}, "empty.json")
    code, out = run_cli(["verify", "--suite", f], capsys)
    assert code == 0
    r = json.loads(out)
    assert r["summary"]["total"] == 0
    assert r["warnings"]


def test_verify_single_case_flag(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "F", "rank": 4})
    code, out = run_cli(["verify", "--case", case], capsys)
    assert code == 0
    r = json.loads(out)
    assert r["summary"]["total"] == 1


def test_output_is_byte_stable(tmp_path, capsys):
    suite = {"cases": [
        {"case": {"type": "C", "rank": 2},
         "expect": {"verdict": "Induced2Dim"}},
        {"case": {"type": "B", "rank": 3},
         "expect": {"verdict": "Character1Dim"}},
    ]}
    f = write_case(tmp_path, suite, "suite.json")
    _, first = run_cli(["verify", "--suite", f], capsys)
    _, second = run_cli(["verify", "--suite", f], capsys)
    assert first == second


# report values: str-keyed dicts, lists and tuples over the JSON scalars,
# with non-ASCII, control and lone-surrogate characters, ints past 64
# bits and finite floats
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
            | st.floats(allow_nan=False, allow_infinity=False) | _TEXT)
_VALUES = st.recursive(_SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4)), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_canonical_writes_the_bytes_of_json_dumps(obj):
    assert cli._canonical(obj) == json.dumps(
        obj, sort_keys=True, indent=2) + "\n"


def test_canonical_refuses_keys_that_are_not_str():
    for obj in ({1: 2}, {"a": [{(1, 2): 3}]}, {"a": 0, 1: 0},
                {None: 0}, {True: 0}):
        with pytest.raises(TypeError):
            cli._canonical(obj)


def test_json_file_duplicates_stdout(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "G", "rank": 2})
    target = tmp_path / "report.json"
    code, out = run_cli(["classify", "--case", case,
                         "--json", str(target)], capsys)
    assert code == 0
    assert target.read_text() == out


def test_json_file_that_cannot_be_written_is_bad_input(tmp_path, capsys):
    """A ``--json`` path in a missing directory gives one JSON error
    report on stdout and exit 2, on good input and on bad; a writable path
    gets the error report too."""
    target = tmp_path / "missing_dir" / "report.json"
    for payload in ({"type": "G", "rank": 2}, {"type": "Q", "rank": 2}):
        case = write_case(tmp_path, payload)
        code, out = run_cli(["classify", "--case", case,
                             "--json", str(target)], capsys)
        assert code == 2, payload
        assert "error" in json.loads(out)
    assert not target.parent.exists()
    written = tmp_path / "report.json"
    code, out = run_cli(["classify", "--case", case,
                         "--json", str(written)], capsys)
    assert code == 2 and written.read_text() == out


def test_seed_and_timing_flags(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "G", "rank": 2})
    _, out = run_cli(["build", "--case", case, "--seed", "42"], capsys)
    assert json.loads(out)["seed"] == 42
    _, out = run_cli(["build", "--case", case, "--timing"], capsys)
    timing = json.loads(out)["timing"]
    assert timing is not None and timing["seconds"] >= 0


def test_prime_override(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "G", "rank": 2})
    code, out = run_cli(["classify", "--case", case, "--p", "11"], capsys)
    assert code == 0
    assert json.loads(out)["case"]["p"] == 11
    code, _ = run_cli(["classify", "--case", case, "--p", "9"], capsys)
    assert code == 2


def test_input_hash_tracks_content(tmp_path, capsys):
    a = write_case(tmp_path, {"type": "G", "rank": 2}, "a.json")
    b = write_case(tmp_path, {"type": "G", "rank": 2, "p": 7}, "b.json")
    _, out_a = run_cli(["build", "--case", a], capsys)
    _, out_b = run_cli(["build", "--case", b], capsys)
    _, out_a2 = run_cli(["build", "--case", a], capsys)
    ha = json.loads(out_a)["input_hash"]
    hb = json.loads(out_b)["input_hash"]
    assert ha == json.loads(out_a2)["input_hash"]
    assert ha != hb


def test_console_entry_point(tmp_path):
    case = tmp_path / "case.json"
    case.write_text(json.dumps({"type": "A", "rank": 1,
                                "decoration": [1, 2]}))
    proc = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", "classify",
         "--case", str(case)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Character1Dim"


def test_module_entry_point(tmp_path):
    case = write_case(tmp_path, {"type": "A", "rank": 1,
                                 "decoration": [1, 2]})
    proc = subprocess.run(
        [sys.executable, "-m", "heckelab", "classify", "--case", case],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Character1Dim"


def test_node_weights_are_bounded(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "C", "rank": 2,
                                 "decoration": [1, 10**4, 10**4]})
    code, out = run_cli(["characters", "--case", case], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 8
    for big in (10**4 + 1, 10**30):
        case = write_case(tmp_path, {"type": "C", "rank": 2,
                                     "decoration": [1, big, big]})
        code, out = run_cli(["characters", "--case", case], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "WeightTooLarge"
        assert "10000" in error["message"]


def test_weight_bound_peaks_under_150_mb(tmp_path):
    """characters and classify at the weight bound, each in a fresh
    interpreter that reports its own peak: a relation check stacks
    character modules only while their degree slices fit one bound
    (stacking all eight members peaks near 237 MB)."""
    case = write_case(tmp_path, {"type": "C", "rank": 2,
                                 "decoration": [1, 10**4, 10**4]})
    script = ("import resource, sys\n"
              "from heckelab import cli\n"
              "code = cli.main([sys.argv[1], '--case', sys.argv[2]])\n"
              "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "print(code, peak, file=sys.stderr)\n")
    for command in ("characters", "classify"):
        done = subprocess.run([sys.executable, "-c", script, command, case],
                              env=child_env(), capture_output=True,
                              text=True, timeout=300)
        code, peak = map(int, done.stderr.split()[-2:])
        # ru_maxrss counts kilobytes on Linux and bytes on macOS
        mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10
        assert code == 0 and mb < 150, (command, mb)


def test_b8_at_the_weight_bound_classifies_under_100_mb(tmp_path):
    """classify on B8 [10^4, 1] in a fresh interpreter that reports its
    own peak: c(v) is counted over the exponents that occur, not densely
    over a range of millions (the dense count peaked near 180 MB); and
    c(v) on every generator orbit of the answer against the dense count."""
    from geom_oracle import dense_central_scalar
    from heckelab.classify import _certificate, key_result_search
    case = write_case(tmp_path, {"type": "B", "rank": 8,
                                 "decoration": [10**4, 1]})
    script = ("import resource, sys\n"
              "from heckelab import cli\n"
              "code = cli.main(['classify', '--case', sys.argv[1]])\n"
              "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "print(code, peak, file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", script, case],
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    code, peak = map(int, done.stderr.split()[-2:])
    # ru_maxrss counts kilobytes on Linux and bytes on macOS
    mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10
    assert code == 0 and mb < 100, mb

    src = key_result_search(build_root_datum(
        "B", 8, weights=[10**4, 1])).module.generic
    cert = _certificate(src)
    level = "coroot" if src.omega_mats is None else "effective"
    gens = src.alg.monoid_generators(level)
    assert cert is not None and len(gens) > 1
    for gen in gens:
        pts = np.array(src.alg.datum.weyl_orbit(gen), dtype=np.int64)
        assert cert.scalar(pts) == dense_central_scalar(cert, pts), gen


def test_classify_on_a_sublattice_is_a_typed_error(tmp_path, capsys):
    from heckelab import HeckeLabError, SublatticeUnsupported
    case = write_case(tmp_path, {"type": "C", "rank": 2,
                                 "lattice": [[1, 0], [0, 2]]})
    code, out = run_cli(["classify", "--case", case], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "SublatticeUnsupported",
        "message": "the search needs the full coweight lattice; "
                   "got a sublattice of index 2"}
    assert issubclass(SublatticeUnsupported, HeckeLabError)
    assert issubclass(SublatticeUnsupported, ValueError)


def test_classify_d4_at_a_prime_beyond_a_million(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "D", "rank": 4})
    code, out = run_cli(["classify", "--case", case, "--p", "1000003"],
                        capsys)
    assert code == 0
    r = json.loads(out)
    assert r["case"]["p"] == 1000003
    assert r["verdict"] == "ReflectionTwist"
    assert r["certificate"]["supersingular_mod_p"]["nilpotent"] is True


def test_prime_beyond_int64_is_refused(tmp_path, capsys):
    # 2^64 - 59 is prime; the refusal comes before any primality test
    case = write_case(tmp_path, {"type": "G", "rank": 2})
    code, out = run_cli(["classify", "--case", case,
                         "--p", str(2**64 - 59)], capsys)
    assert code == 2
    assert "below 2^63" in json.loads(out)["error"]["message"]


def test_memory_error_is_a_clean_internal_error(tmp_path, capsys,
                                                monkeypatch):
    def exhausted(case, exhaustive=False):
        raise MemoryError("orbit too large")

    monkeypatch.setattr(cli, "run_classify", exhausted)
    case = write_case(tmp_path, {"type": "E", "rank": 8})
    code, out = run_cli(["classify", "--case", case, "--exhaustive"], capsys)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "MemoryError"
    code, out = run_cli(["verify", "--case", case, "--exhaustive"], capsys)
    assert code == 3
    assert json.loads(out)["results"][0]["internal"] is True


def test_classify_at_a_prime_near_two_to_the_61(tmp_path, capsys):
    # validating p takes a Miller-Rabin test, not a trial division
    p = 2**61 - 1
    case = write_case(tmp_path, {"type": "C", "rank": 2})
    start = time.monotonic()
    code, out = run_cli(["classify", "--case", case, "--p", str(p)], capsys)
    assert time.monotonic() - start < 5
    assert code == 0
    r = json.loads(out)
    assert r["case"]["p"] == p
    assert r["certificate"]["supersingular_mod_p"]["nilpotent"] is True


# ---- fuzzed case files ----------------------------------------------------

#: Well-formed cases that answer quickly under every command, as
#: (type, rank, decoration); each valid rank range below is the one
#: ``cartan_matrix`` accepts.
GOOD_CASES = [("A", 1, [1, 2]), ("A", 2, 1), ("B", 3, 1), ("C", 2, 1),
              ("C", 2, [1, 2, 2]), ("C", 3, [2, 1, 1]), ("G", 2, 1)]
VALID_RANKS = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9),
               "D": range(3, 9), "E": range(6, 9), "F": (4,), "G": (2,)}
COMMANDS = ["build", "characters", "classify"]


def run_case_file(command, text):
    """``heckelab <command> --case FILE`` in process on a case file holding
    ``text``: the exit code and the parsed report.  An exception escaping
    ``cli.main`` (a traceback) fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--case", path])
    assert "Traceback" not in err.getvalue()
    return code, json.loads(out.getvalue())


#: Values that are no valid type, rank, weight, lattice or prime.
_junk = st.one_of(st.none(), st.booleans(), st.floats(),
                  st.lists(st.text(max_size=3), min_size=1, max_size=3),
                  st.dictionaries(st.text(max_size=3), st.text(max_size=3),
                                  max_size=2))


@st.composite
def malformed_cases(draw):
    """The text of a case file that is invalid in one way: a good case
    with one field replaced by a bad value, a field missing, an unknown
    field added, a JSON value that is not an object, or not JSON."""
    kind, rank, decoration = draw(st.sampled_from(GOOD_CASES))
    case = {"type": kind, "rank": rank, "decoration": decoration}
    n_classes = len(build_root_datum(kind, rank).classes)
    bad_weight = st.one_of(st.integers(max_value=0),
                           st.integers(min_value=10_001), _junk)
    bad = {
        "type": st.one_of(
            st.text(max_size=3).filter(lambda t: t not in set("ABCDEFG")),
            st.integers(), _junk),
        "rank": st.one_of(
            st.integers().filter(lambda r: r not in VALID_RANKS[kind]),
            st.floats(), _junk),
        "decoration": st.one_of(
            bad_weight, st.lists(bad_weight, min_size=1, max_size=4),
            st.lists(st.integers(1, 5), max_size=6).filter(
                lambda w: len(w) != n_classes),
            st.dictionaries(st.sampled_from(["0", "1", "2", "x", "-1"]),
                            st.integers(1, 3), max_size=rank)),
        "lattice": st.one_of(
            st.text(max_size=8).filter(
                lambda t: t not in ("coweight", "coroot")),
            st.integers(), st.floats(),
            st.lists(st.lists(st.integers(-3, 3), min_size=rank + 1,
                              max_size=rank + 2), min_size=1, max_size=3),
            st.integers(0, 3).map(lambda k: [[0] * rank] * k),
            st.integers(3, 9).map(lambda k: [[k * (i == j)
                                              for j in range(rank)]
                                             for i in range(rank)]),
            st.lists(st.lists(st.floats(), min_size=rank, max_size=rank),
                     min_size=rank, max_size=rank)),
        "mode": st.one_of(
            st.text(max_size=8).filter(
                lambda t: t not in ("generic", "modp")), st.integers()),
        "p": st.one_of(st.integers(max_value=1),
                       st.integers(2, 10**6).map(lambda n: n * n),
                       st.integers(min_value=2**63), st.floats(),
                       st.booleans(), st.text(max_size=3)),
    }
    how = draw(st.sampled_from(["field", "missing", "unknown", "not an "
                                "object", "not JSON"]))
    if how == "field":
        key = draw(st.sampled_from(sorted(bad)))
        case[key] = draw(bad[key])
    elif how == "missing":
        del case[draw(st.sampled_from(["type", "rank"]))]
    elif how == "unknown":
        key = draw(st.text(max_size=8).filter(
            lambda k: k not in cli._CASE_KEYS))
        case[key] = draw(st.one_of(st.integers(), _junk))
    elif how == "not an object":
        case = draw(st.one_of(st.lists(st.integers(), max_size=3),
                              st.integers(), st.text(max_size=5),
                              st.none(), st.floats()))
    else:
        return draw(st.text(max_size=10).filter(lambda t: not _is_json(t)))
    return json.dumps(case)


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COMMANDS), malformed_cases())
def test_malformed_case_files_exit_2(command, text):
    """Every malformed case file is refused as invalid input: exit 2 and
    an ``error`` object naming the exception, never a traceback."""
    code, report = run_case_file(command, text)
    assert code == 2, (command, text, report)
    assert set(report) == {"error"}
    assert set(report["error"]) == {"type", "message"}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(COMMANDS), st.sampled_from(GOOD_CASES),
       st.fixed_dictionaries({}, optional={
           "lattice": st.just("coweight"),
           "mode": st.sampled_from(["generic", "modp"]),
           "p": st.sampled_from([2, 3, 5, 7, 999983, 2**31 - 1])}))
def test_well_formed_case_files_exit_0(command, good, extra):
    kind, rank, decoration = good
    case = {"type": kind, "rank": rank, "decoration": decoration, **extra}
    code, report = run_case_file(command, json.dumps(case))
    assert code == 0, (command, case, report)
    assert "error" not in report and report["command"] == command
