"""The four benchmark workloads.

Each workload has a fixed op list (``ops``), pre-op builds (``setup``),
the timed body of one op (``run``) and an untimed correctness check of
its output (``check``, returning a list of failure strings).  Only the
kernel battery draws from the seed; the other op lists do not depend on
it.
``digest`` names the op's output for the cross-pass equivalence checks:
verdicts, certificates and CLI report bytes must not differ between
passes, traced or not.

Only ``setup`` and ``run`` call into heckelab, and only through the
package object handed to them, so the tracer sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random

# Case files for the CLI ops, inside the benchmark's own directory.
WORKDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

C_PATTERNS = [[1, 1, 1], [2, 1, 1], [1, 2, 2], [2, 3, 3]]

# The acceptance table: (type, rank, decoration, verdict, r).
TABLE = [
    ("A", 1, [1, 1], "ExcludedTypeA", None),
    ("A", 1, [1, 2], "Character1Dim", 1),
    ("A", 2, 1, "ExcludedTypeA", None),
    ("A", 3, 1, "ExcludedTypeA", None),
    ("A", 4, 1, "ExcludedTypeA", None),
    ("B", 3, 1, "Character1Dim", 1),
    ("C", 2, C_PATTERNS[0], "Induced2Dim", 2),
    ("C", 2, C_PATTERNS[1], "Induced2Dim", 2),
    ("C", 2, C_PATTERNS[2], "Character1Dim", 1),
    ("C", 2, C_PATTERNS[3], "Character1Dim", 1),
    ("C", 3, C_PATTERNS[0], "Induced2Dim", 2),
    ("C", 3, C_PATTERNS[1], "Character1Dim", 1),
    ("C", 3, C_PATTERNS[2], "Induced2Dim", 2),
    ("C", 3, C_PATTERNS[3], "Induced2Dim", 2),
    ("C", 4, C_PATTERNS[0], "Character1Dim", 1),
    ("C", 4, C_PATTERNS[1], "Character1Dim", 1),
    ("C", 4, C_PATTERNS[2], "Induced2Dim", 2),
    ("C", 4, C_PATTERNS[3], "Induced2Dim", 2),
    ("C", 5, C_PATTERNS[0], "Character1Dim", 1),
    ("C", 5, C_PATTERNS[1], "Character1Dim", 1),
    ("C", 5, C_PATTERNS[2], "Induced2Dim", 2),
    ("C", 5, C_PATTERNS[3], "Character1Dim", 1),
    ("D", 4, 1, "ReflectionTwist", None),
    ("D", 5, 1, "ReflectionTwist", None),
    ("E", 6, 1, "ReflectionTwist", None),
    ("E", 7, 1, "ReflectionTwist", None),
    ("E", 8, 1, "ReflectionTwist", None),
    ("F", 4, 1, "Character1Dim", 1),
    ("G", 2, 1, "Character1Dim", 1),
]


def node_class_count(kind: str, rank: int) -> int:
    """Conjugacy classes of affine nodes, an oracle independent of the
    library: the affine A1 bond is infinite, type C has three classes,
    B, F and G two, the simply laced types one."""
    if kind == "A":
        return 2 if rank == 1 else 1
    return {"B": 2, "C": 3, "F": 2, "G": 2}.get(kind, 1)


def digest(obj) -> str:
    """Short hash of a string, or of the canonical JSON of an object."""
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(obj.encode()).hexdigest()[:16]


def _label(kind, rank, deco) -> str:
    return f"{kind}{rank}" + ("" if deco == 1 else str(deco).replace(" ", ""))


def _case_path(workdir: str, op: dict) -> str:
    return os.path.join(workdir, op["name"].replace(" ", "_") + ".json")


def _slice_choice(rng: random.Random, seq: list, i: int, n: int):
    """A uniform draw from the i-th of n equal slices of ``seq``."""
    lo = len(seq) * i // n
    hi = max(lo + 1, len(seq) * (i + 1) // n)
    return seq[rng.randrange(lo, hi)]


class CliWorkload:
    """Ops are ``heckelab <command> --case FILE`` run in-process through
    ``cli.main``; the output is the report text on stdout."""

    command = ""

    def prepare(self, workdir: str, ops: list[dict]) -> None:
        """Write the case files the ops read (run before any pass)."""
        os.makedirs(workdir, exist_ok=True)
        for op in ops:
            path = _case_path(workdir, op)
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(op["case"], fh, sort_keys=True)
            os.replace(tmp, path)

    def setup(self, hl, seed: int, workdir: str) -> dict:
        return {"main": hl.cli.main, "workdir": workdir}

    def run(self, state: dict, op: dict):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = state["main"]([self.command, "--case",
                                  _case_path(state["workdir"], op)])
        return {"exit": code, "report": buf.getvalue()}

    def digest(self, out) -> str:
        return digest(f"{out['exit']}\n{out['report']}")


class Classify(CliWorkload):
    command = "classify"

    def ops(self, seed: int) -> list[dict]:
        return [{"name": f"classify {_label(k, r, w)}",
                 "case": {"type": k, "rank": r, "decoration": w},
                 "verdict": v, "r": rr}
                for k, r, w, v, rr in TABLE if k not in ("D", "E")]

    def check(self, op: dict, out) -> list[str]:
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        rep = json.loads(out["report"])
        fails = []
        if rep["verdict"] != op["verdict"]:
            fails.append(f"verdict {rep['verdict']} != {op['verdict']}")
        if rep["r"] != op["r"]:
            fails.append(f"r {rep['r']} != {op['r']}")
        if op["r"] is not None:
            cert = rep["certificate"]
            if cert.get("relations") != "pass":
                fails.append("certificate lacks relations: pass")
            if cert.get("supersingular_mod_p", {}).get("nilpotent") is not True:
                fails.append("certificate lacks nilpotent: true")
        return fails


class Characters(CliWorkload):
    command = "characters"
    data = [(k, r, w) for k, r, w, _, _ in TABLE] + [
        ("A", 5, 1), ("D", 6, 1), ("D", 7, 1)]
    # Attempted once per run, outside every timed pass, so that a faster
    # route for them is not charged time the box enumeration never spent:
    # the box bound of dominant_monoid_generators makes both exit 2 with
    # HilbertBasisOverflow today.
    probe_data = [("A", 7, 1), ("A", 8, 1)]

    @staticmethod
    def _op(kind, rank, deco, mode) -> dict:
        return {"name": f"characters {_label(kind, rank, deco)} {mode}",
                "case": {"type": kind, "rank": rank, "decoration": deco,
                         "mode": mode},
                "kind": kind, "rank": rank, "mode": mode}

    def ops(self, seed: int) -> list[dict]:
        return [self._op(k, r, w, mode) for k, r, w in self.data
                for mode in ("generic", "modp")]

    def probes(self) -> list[dict]:
        return [self._op(k, r, w, "generic") for k, r, w in self.probe_data]

    def check(self, op: dict, out) -> list[str]:
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        rep = json.loads(out["report"])
        rows = rep["characters"]
        if op["mode"] == "modp":
            want = 2 ** (op["rank"] + 1)
        else:
            want = 2 ** node_class_count(op["kind"], op["rank"])
        fails = []
        if rep["count"] != want or len(rows) != want:
            fails.append(f"{len(rows)} rows, expected {want}")
        if op["mode"] == "generic":
            special = [x for x in rows if all(v == -1 for v in x["values"])]
            trivial = [x for x in rows if all(v == 1 for v in x["values"])]
            if len(special) != 1 or special[0]["discrete"] is not True:
                fails.append("special character is not discrete")
            if len(trivial) != 1 or trivial[0]["discrete"] is not False:
                fails.append("trivial character is discrete")
        return fails


class Reflection:
    """The criterion-5 pipeline, exhaustive, one op per datum."""

    data = [("D", 4), ("D", 5), ("D", 6)]

    def ops(self, seed: int) -> list[dict]:
        return [{"name": f"reflection {k}{r}", "kind": k, "rank": r}
                for k, r in self.data]

    def setup(self, hl, seed: int, workdir: str) -> dict:
        return {"hl": hl}

    def run(self, state: dict, op: dict):
        hl = state["hl"]
        d = hl.build_root_datum(op["kind"], op["rank"])
        twisted = hl.reflection_module(d).star_twist()
        twisted.check_relations()
        comps = hl.decompose_at_v0(twisted)
        flag, info = hl.is_supersingular(twisted.reduce_mod_p(5),
                                         exhaustive=True)
        return {"components": [c.label() for c in comps], "flag": flag,
                "info": info}

    def digest(self, out) -> str:
        return digest(out)

    def check(self, op: dict, out) -> list[str]:
        n = op["rank"] + 1
        fails = []
        if len(out["components"]) != n or len(set(out["components"])) != n:
            fails.append(f"components {out['components']} are not {n} "
                         "pairwise distinct characters")
        if out["flag"] is not True or out["info"]["sampled"]:
            fails.append("not supersingular on every orbit")
        if not all(e["nilpotent"] for e in out["info"]["orbits"]):
            fails.append("an orbit sum is not nilpotent")
        return fails


class Kernel:
    """A battery of the eight kernel identities (a)-(h) of acceptance
    criterion 7 on its seven data, in its proportions
    (160:160:160:140:140:100:100:60, scaled down).  Data are taken in
    turn.  The seed draws the Weyl group elements and nodes.  Sample i of
    n of a kind draws its element from the i-th of n equal slices of the
    datum's pool sorted by length, so the lengths, and with them the cost,
    of a pass's elements hardly depend on the seed.  The lattice points
    and monoid generators of (f)-(h), which set the size of the Bernstein
    elements and so most of the cost, run through fixed lists, and the
    element (h) multiplies by is drawn among those of the largest length
    in the pool, so the work of a pass does not swing with the seed."""

    data = [("A", 1, 1), ("A", 1, [1, 2]), ("A", 2, 1), ("C", 2, 1),
            ("C", 2, [1, 2, 3]), ("B", 3, 1), ("G", 2, 1)]
    counts = {"a": 16, "b": 16, "c": 16, "d": 14, "e": 14, "f": 10,
              "g": 10, "h": 6}

    def ops(self, seed: int) -> list[dict]:
        ops = []
        for kind, n in self.counts.items():
            pool = range(len(self.data))
            if kind == "b":  # rank one has only the infinite bond
                pool = [i for i in pool if self.data[i][1] >= 2]
            for i in range(n):
                k, r, w = self.data[pool[i % len(pool)]]
                ops.append({"name": f"kernel {kind}{i} {_label(k, r, w)}",
                            "kind": kind, "datum": pool[i % len(pool)],
                            "variant": i // len(pool), "index": len(ops),
                            "slice": (i, n)})
        return ops

    def setup(self, hl, seed: int, workdir: str) -> dict:
        """Data, algebras, element pools, monoid generators and small
        lattice points, then the draws for every op."""
        rng = random.Random(seed)
        algebras = [hl.HeckeAlgebra(hl.build_root_datum(k, r, weights=w))
                    for k, r, w in self.data]
        pools, gens, points = [], [], []
        for H in algebras:
            d = H.datum
            pool = [om * x for om in hl.decorated_aut_group(d).elements
                    for x in hl.elements_up_to_length(d, 4)]
            pool.sort(key=lambda w: (w.length(), w.tr, w.mat))
            pools.append(pool)
            gens.append(hl.dominant_monoid_generators(
                d, lattice=hl.effective_lattice(d)))
            box = itertools.product((-1, 0, 1), repeat=d.rank)
            points.append(sorted(
                (lam for lam in box if d.in_lattice(lam)
                 and H.in_effective_lattice(lam)),
                key=lambda lam: (-sum(map(abs, lam)), lam)))

        draws = []
        for op in self.ops(seed):
            i, j = op["datum"], op["variant"]
            pool, d = pools[i], algebras[i].datum
            g, pts = gens[i], points[i]
            kind = op["kind"]
            slot, count = op["slice"]
            if kind == "a":
                draw = (rng.randrange(d.rank + 1),)
            elif kind == "b":
                draw = tuple(rng.sample(range(d.rank + 1), 2))
            elif kind == "c":
                z = _slice_choice(rng, pool, slot, count)
                draw = (z, rng.randint(0, z.length()))
            elif kind == "d":
                draw = (_slice_choice(rng, pool, slot, count),)
            elif kind == "e":
                draw = (_slice_choice(rng, pool, slot, count),
                        _slice_choice(rng, pool, count - 1 - slot, count))
            elif kind == "f":
                draw = (pts[j % len(pts)], g[j % len(g)])
            elif kind == "g":
                draw = (g[j % len(g)], g[(j + 1) % len(g)],
                        pts[j % len(pts)], pts[(j + 1) % len(pts)])
            else:
                longest = [w for w in pool if w.length() == pool[-1].length()]
                draw = (g[j % len(g)], rng.randrange(d.rank + 1),
                        rng.choice(longest))
            draws.append(draw)
        return {"hl": hl, "algebras": algebras, "draws": draws}

    def run(self, state: dict, op: dict):
        """Evaluate both sides of the op's identity; the output lists, per
        asserted equation, whether it holds and the support size."""
        hl = state["hl"]
        H = state["algebras"][op["datum"]]
        d = H.datum
        draw = state["draws"][op["index"]]
        one = hl.Laurent.one()
        kind = op["kind"]
        eqs = []
        if kind == "a":
            (s,) = draw
            ts = H.t_word((s,))
            qs = H.q_of(hl.ExtWeylElt.simple_reflection(d, s))
            eqs.append((ts * ts, ts.scale(qs - one) + H.one().scale(qs)))
        elif kind == "b":
            s, t = draw
            m = d.coxeter_m[s][t]
            left = [s if i % 2 == 0 else t for i in range(m)]
            right = [t if i % 2 == 0 else s for i in range(m)]
            eqs.append((H.t_word(left), H.t_word(right)))
        elif kind == "c":
            z, k = draw
            omega, letters = z.reduced_word()
            x = hl.ExtWeylElt.from_word(d, letters[:k], omega=omega)
            y = hl.ExtWeylElt.from_word(d, letters[k:])
            eqs.append((H.t(x) * H.t(y), H.t(z)))
        elif kind == "d":
            (w,) = draw
            eqs.append((H.t(w) * H.star_t(w.inv()),
                        H.one().scale(H.q_of(w))))
        elif kind == "e":
            x, y = H.t(draw[0]), H.t(draw[1])
            eqs.append((H.sign_star(H.sign_star(x)), x))
            eqs.append((H.sign_star(x * y),
                        H.sign_star(x) * H.sign_star(y)))
        elif kind == "f":
            lam, nu = draw
            plus, minus = H.dominant_decomposition(lam)
            plus = tuple(a + b for a, b in zip(plus, nu))
            minus = tuple(a + b for a, b in zip(minus, nu))
            t_plus = hl.ExtWeylElt.translation(d, plus)
            t_minus = hl.ExtWeylElt.translation(d, minus)
            t_lam = hl.ExtWeylElt.translation(d, lam)
            delta = (t_plus.weighted_length() + t_minus.weighted_length()
                     - t_lam.weighted_length())
            neg = tuple(-x for x in minus)
            alt = (H.star_t(t_plus)
                   * H.t(hl.ExtWeylElt.translation(d, neg))
                   ).scale(hl.Laurent.v(-delta))
            eqs.append((alt, H.bernstein(lam)))
        elif kind == "g":
            lam, mu, a, b = draw
            total = tuple(x + y for x, y in zip(lam, mu))
            eqs.append((H.bernstein(lam) * H.bernstein(mu),
                        H.bernstein(total)))
            ea, eb = H.bernstein(a), H.bernstein(b)
            eqs.append((ea * eb, eb * ea))
        else:
            gen, s, w = draw
            z = H.central(gen)
            ts, tw = H.t_word((s,)), H.t(w)
            eqs.append((z * ts, ts * z))
            eqs.append((z * tw, tw * z))
            shape = z.all_coeffs_polynomial() and z.all_coeffs_even()
            return {"eqs": [[lhs == rhs, len(lhs.terms)] for lhs, rhs in eqs],
                    "polynomial_even": shape}
        return {"eqs": [[lhs == rhs, len(lhs.terms)] for lhs, rhs in eqs]}

    def digest(self, out) -> str:
        return digest(out)

    def check(self, op: dict, out) -> list[str]:
        fails = [f"identity {op['kind']} equation {i} fails"
                 for i, (ok, _) in enumerate(out["eqs"]) if not ok]
        if out.get("polynomial_even") is False:
            fails.append("orbit sum has a non-polynomial or odd coefficient")
        return fails


WORKLOADS = {"classify": Classify(), "reflection": Reflection(),
             "kernel": Kernel(), "characters": Characters()}
