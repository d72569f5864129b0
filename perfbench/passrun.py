"""One pass of one workload in a fresh interpreter.

Started by ``run.py``, never by hand::

    python3 perfbench/passrun.py --workload W --seed N --mode pass \
        --trace 0 --t0 <time.monotonic() of the parent just before spawn>

``--mode setup`` stops after the pre-op builds, ``--mode probe`` runs the
workload's probe ops untimed.  The result is one JSON line on stdout.
heckelab is imported from ``src/`` of the checkout this file lives in,
never from an installed copy.

Op times are reported as measured (``op_s_wall``) and at reference speed
(``op_s``).  The shared host this benchmark targets changes the speed of
a core by up to a factor of two for seconds to minutes at a time (CPU
time and wall time move together, so it is not time spent descheduled).
While the ops of a pass run, a ``SpeedSampler`` interrupts them every
``SAMPLE_INTERVAL_S`` and times ``reference_work``, a fixed mix of
pure-Python and small numpy work of the kinds heckelab runs, independent
of it.  An op's time at reference speed is its wall time, less the
sampling, times ``REFERENCE_S`` over the median reference time sampled
while it ran.  A change to heckelab moves it as it moves the wall time; a
change of host speed slows the op and the reference alike and so cancels
out.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# About the time of one reference_work call on the reference box (2 vCPU,
# Python 3.11.7, numpy 2.4.6) when it runs fast; it only sets the scale
# of op_s.
REFERENCE_S = 0.0003
# untimed calls before the first timed one, so that the interpreter has
# specialised reference_work's bytecode
REFERENCE_WARMUP = 50
SAMPLE_INTERVAL_S = 0.01
# an op shorter than this many samples takes the ones nearest to it
SAMPLES_PER_OP = 7


def _mix(a: int, b: int) -> int:
    return (a * b + 7) % 1009


_CUBE = np.arange(6 * 5 * 5, dtype=float).reshape(6, 5, 5)
_SHIFT = np.eye(5)


def reference_work() -> float:
    """Dict and tuple building, integer arithmetic and small calls, then
    small numpy products of the kind the truncated central action makes.
    It keeps nothing, so it never sets off the garbage collector."""
    table: dict = {}
    acc = 0
    for i in range(500):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + _mix(i, key[1])
        acc += (acc + i) & 3
    total = float(acc + len(table))
    for _ in range(12):
        out = np.zeros_like(_CUBE)
        out[1:] += _CUBE[:5] @ _SHIFT
        out %= 7
        total += out[1, 0, 0]
    return total


class SpeedSampler:
    """Times one reference_work call from a SIGALRM handler every
    SAMPLE_INTERVAL_S of wall time, between two bytecodes of whatever
    runs then."""

    def __init__(self):
        self.ends: list[float] = []   # perf_counter() at each sample's end
        self.refs: list[float] = []   # the reference time of each sample
        self.spent: list[float] = []  # running total of time in the handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.refs.append(t1 - t0)
        total = self.spent[-1] if self.spent else 0.0
        self.spent.append(total + time.perf_counter() - t0)

    def start(self) -> None:
        for _ in range(REFERENCE_WARMUP):
            reference_work()
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent_until(self, t: float) -> float:
        i = bisect.bisect_right(self.ends, t)
        return self.spent[i - 1] if i else 0.0

    def reference_between(self, t0: float, t1: float) -> float:
        """Median reference time of the samples taken in [t0, t1], or of
        the SAMPLES_PER_OP samples nearest to it when it holds fewer."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        while hi - lo < SAMPLES_PER_OP and (lo > 0 or hi < len(self.ends)):
            if lo > 0 and (hi == len(self.ends)
                           or t0 - self.ends[lo - 1] < self.ends[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.refs[lo:hi])


def _import_heckelab():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import heckelab
    import heckelab.cli  # noqa: F401  (the tracer needs every module loaded)
    if not os.path.abspath(heckelab.__file__).startswith(src + os.sep):
        raise ImportError(f"heckelab imported from {heckelab.__file__}, "
                          f"not from {src}")
    return heckelab


def _run_ops(wl, state, ops) -> tuple[list[dict], float, float, float]:
    """Time each op; check and digest its output outside the timing.
    Returns the rows, the pass time at reference speed, the pass wall time
    (both without the sampling) and the host speed, REFERENCE_S over the
    median reference time of the pass."""
    sampler = SpeedSampler()
    done = []
    sampler.start()
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = wl.run(state, op)
            except Exception:
                out = None
                fails = [traceback.format_exc(limit=3)]
            t1 = time.perf_counter()
            dig = None
            if out is not None:
                try:
                    fails, dig = wl.check(op, out), wl.digest(out)
                except Exception:
                    fails = [traceback.format_exc(limit=3)]
            done.append((op["name"], t0, t1, fails, dig))
    finally:
        sampler.stop()
    rows, pass_s, pass_wall = [], 0.0, 0.0
    for name, t0, t1, fails, dig in done:
        wall = t1 - t0 - (sampler.spent_until(t1) - sampler.spent_until(t0))
        dt = wall * REFERENCE_S / sampler.reference_between(t0, t1)
        pass_s += dt
        pass_wall += wall
        rows.append({"name": name, "op_s": dt, "op_s_wall": wall,
                     "failures": fails, "digest": dig})
    speed = (REFERENCE_S / statistics.median(sampler.refs)
             if sampler.refs else None)
    return rows, pass_s, pass_wall, speed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup", "probe"),
                    default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    hl = _import_heckelab()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKDIR, WORKLOADS
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer(hl)
        tracer.install()
    wl = WORKLOADS[args.workload]
    state = wl.setup(hl, args.seed, os.path.join(WORKDIR, args.workload))
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "probe":
        result["ops"] = _run_ops(wl, state, wl.probes())[0]
    elif args.mode == "pass":
        if tracer is not None:
            tracer.reset()
        (result["ops"], result["pass_s"], result["pass_s_wall"],
         result["speed"]) = _run_ops(wl, state, wl.ops(args.seed))
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["env"] = {k: os.environ.get(k) for k in (
        "HECKE_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
        "MKL_NUM_THREADS", "PYTHONHASHSEED")}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
