"""heckelab benchmark: end-to-end and per-layer timings of four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

The loop is closed with one client: one generator process starts one
pass at a time, each in a fresh interpreter (``passrun.py``), as a single
``heckelab`` invocation would, so process-wide caches start cold every
pass and stay warm across the ops of a pass.  ``HECKE_LAB_THREADS`` is
removed from the pass environment, BLAS is pinned to one thread and
``PYTHONHASHSEED`` is fixed so that call counts repeat exactly.

``--trace 0`` runs untraced passes for about ``--seconds`` (a count fixed
per workload, at least two) and reports the end-to-end metrics, the
pass and op times at reference speed (see ``passrun.py``; the wall times
are printed beside them): the median pass time ``pass_s``, the median op
time ``op_s.p50``, the highest percentile of op time with at least ten
samples beyond it ``op_s.tail``, the median wall time from a fresh
interpreter to import and pre-op builds done ``setup_s`` and the median
peak resident memory of a pass ``peak_rss_mb``.  ``--trace 1`` runs one untraced and two traced passes
and reports the per-layer metrics (see ``tracer.py``).  Both check every
op's output, and that outputs (verdicts, certificates, CLI report bytes)
are identical across passes; ``--trace 1`` also checks that the two
traced passes count exactly the same work and that the predicted nonzero
and zero layer counts hold.  ``workloads.json`` records each workload's op
list, reason and the predictions.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine facts, the sample counts, the failure ratio, the probe outcomes
and the full trace table.  The exit code is 1 when a check fails and 2
when the checkout holds no heckelab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKDIR, WORKLOADS  # noqa: E402

PASSRUN = os.path.join(HERE, "passrun.py")
MIN_PASSES = 2
SETUP_SAMPLES = 9
# Nominal seconds per untraced pass on the reference box (2 vCPU, Python
# 3.11.7, numpy 2.4.6).  A run makes --seconds / nominal passes (at least
# MIN_PASSES), a number fixed by its arguments, so that every run of a
# workload has the same sample count and its tail the same percentile.
NOMINAL_PASS_S = {"classify": 4.0, "reflection": 11.0, "kernel": 4.0,
                  "characters": 8.0}
CHILD_TIMEOUT_S = 150

END_TO_END = {"pass_s": "s", "op_s.p50": "s", "op_s.tail": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
# per-layer metric -> workloads it should move on (checked nonzero there)
SHOULD_MOVE = {m: tuple(row["on"]) for row in SPEC["predictions"]
               for m in row["metrics"]}
# per-layer metric -> workloads on which it must read exactly 0
MUST_BE_ZERO = {m: tuple(row["zero_on"]) for row in SPEC["predictions"]
                for m in row["metrics"]}
COUNT_FIELDS = ("calls", "letters", "points")


def per_layer_unit(name: str) -> str:
    return "count" if name.rsplit(".", 1)[1] in COUNT_FIELDS else "s"


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE_LAB_THREADS", None)
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(workload: str, seed: int, mode: str, trace: int = 0) -> dict:
    """Run one fresh interpreter to completion and return its result."""
    cmd = [sys.executable, PASSRUN, "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    env = child_env()
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def machine_facts(seed: int) -> dict:
    import numpy
    blas = None
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas")
    except (TypeError, ValueError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas,
        "env_given": {k: os.environ.get(k) for k in (
            "HECKE_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def prepare(name: str, seed: int) -> None:
    wl = WORKLOADS[name]
    if hasattr(wl, "prepare"):
        ops = wl.ops(seed) + (wl.probes() if hasattr(wl, "probes") else [])
        wl.prepare(os.path.join(WORKDIR, name), ops)
    # warm-up: bytecode and file caches; its numbers are discarded
    spawn(name, seed, "setup")


def compare_outputs(passes: list[dict]) -> list[str]:
    """Op outputs must be identical in every pass."""
    seen: dict[str, str] = {}
    bad = []
    for p in passes:
        for op in p["ops"]:
            if op["digest"] is None:
                continue
            first = seen.setdefault(op["name"], op["digest"])
            if first != op["digest"] and op["name"] not in bad:
                bad.append(op["name"])
    return [f"output of {n} differs between passes" for n in bad]


def count_ops(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors = []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if op["failures"]:
                failed += 1
                errors.append(f"{op['name']}: {op['failures'][0]}")
    return attempted, failed, errors


def timed_run(name: str, seed: int, seconds: float) -> dict:
    prepare(name, seed)
    count = max(MIN_PASSES, int(seconds / NOMINAL_PASS_S[name] + 0.5))
    passes = [spawn(name, seed, "pass") for _ in range(count)]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(name, seed, "setup")["setup_s"])
    op_times = [op["op_s"] for p in passes for op in p["ops"]]
    tail_s, tail_pct = tail(op_times)
    metrics = {
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "op_s.p50": statistics.median(op_times),
        "op_s.tail": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    attempted, failed, errors = count_ops(passes)
    detail = {"passes": len(passes),
              "pass_s_each": [p["pass_s"] for p in passes],
              "pass_s_wall_each": [p["pass_s_wall"] for p in passes],
              "speed_each": [p["speed"] for p in passes],
              "op_samples": len(op_times),
              "op_s.tail": {"percentile": tail_pct, "samples": len(op_times)},
              "setup_samples": len(setups),
              "pass_env": passes[0]["env"]}
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
            "attempted": attempted, "failed": failed,
            "problems": errors + compare_outputs(passes), "detail": detail}


def layer_value(trace: dict, name: str) -> float:
    record, field = name.rsplit(".", 1)
    row = trace.get(record)
    if row is None:
        return 0
    if field == "s_per_point":
        return row["total_s"] / row["points"] if row["points"] else 0.0
    return row[field]


def traced_run(name: str, seed: int) -> dict:
    prepare(name, seed)
    plain = spawn(name, seed, "pass", trace=0)
    traced = [spawn(name, seed, "pass", trace=1) for _ in range(2)]
    first, second = traced[0]["trace"], traced[1]["trace"]
    problems = compare_outputs([plain] + traced)
    for record in sorted(set(first) | set(second)):
        for field in COUNT_FIELDS:
            a = first.get(record, {}).get(field)
            b = second.get(record, {}).get(field)
            if a != b:
                problems.append(f"{record}.{field} differs between traced "
                                f"passes: {a} != {b}")
    metrics = {}
    for metric, movers in SHOULD_MOVE.items():
        if metric == "trace.overhead_s":
            value = traced[0]["pass_s"] - plain["pass_s"]
        else:
            value = layer_value(first, metric)
        metrics[metric] = (value, per_layer_unit(metric))
        if name in movers and not value > 0:
            problems.append(f"{metric} is {value} on {name}, predicted "
                            "nonzero")
        if name in MUST_BE_ZERO.get(metric, ()) and value != 0:
            problems.append(f"{metric} is {value} on {name}, predicted 0")
    attempted, failed, errors = count_ops([plain] + traced)
    detail = {"untraced_pass_s": plain["pass_s"],
              "traced_pass_s": [t["pass_s"] for t in traced],
              "pass_env": plain["env"], "trace_table": first}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": errors + problems, "detail": detail}


def probe_run(name: str, seed: int) -> list[dict]:
    wl = WORKLOADS[name]
    if not hasattr(wl, "probes"):
        return []
    res = spawn(name, seed, "probe")
    return [{"name": op["name"], "ok": not op["failures"],
             "failures": op["failures"]} for op in res["ops"]]


def run_workload(name: str, args) -> dict:
    if args.trace:
        out = traced_run(name, args.seed)
    else:
        out = timed_run(name, args.seed, args.seconds)
    recorded = SPEC["workloads"][name]["ops"]
    if [op["name"] for op in WORKLOADS[name].ops(args.seed)] != recorded:
        out["problems"].append("op list differs from workloads.json")
    probes = probe_run(name, args.seed)
    attempted = out["attempted"] + len(probes)
    failed = out["failed"] + sum(1 for p in probes if not p["ok"])
    out["detail"]["fail_ratio"] = {"value": failed / attempted,
                                   "failed": failed, "attempted": attempted,
                                   "probes": probes}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "heckelab", "__init__.py")):
        print(f"no heckelab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_facts(args.seed)}), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            out = run_workload(name, args)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(json.dumps({"workload": name, "error": str(exc)}),
                  file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in out["metrics"].items():
            result["metrics"][prefix + metric] = {"value": value,
                                                  "unit": unit}
        result["attempted"] += out["attempted"]
        result["failed"] += out["failed"]
        if out["problems"]:
            result["correct"] = False
        print(json.dumps({"workload": name, "loop": "closed, one client",
                          "problems": out["problems"], **out["detail"]}),
              flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
