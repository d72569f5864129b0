"""Command line interface: exit codes, report shapes, byte-stable
output, and the thread pool."""

import json
import os
import subprocess
import sys
import time

import pytest

from heckelab import cli


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


def test_json_file_duplicates_stdout(tmp_path, capsys):
    case = write_case(tmp_path, {"type": "G", "rank": 2})
    target = tmp_path / "report.json"
    code, out = run_cli(["classify", "--case", case,
                         "--json", str(target)], capsys)
    assert code == 0
    assert target.read_text() == out


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
