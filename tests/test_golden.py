"""Golden CLI reports: ``build``, ``characters`` (generic and mod p) and
``classify`` on the acceptance table must reproduce the committed bytes.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``
only when a report is meant to change.
"""

import contextlib
import io
import json
import os
import sys

from heckelab.cli import _canonical, main
from test_acceptance import TABLE

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _runs():
    """(file name, command, case) for every golden report."""
    for kind, rank, deco, _, _ in TABLE:
        label = f"{kind}{rank}" + ("" if deco == 1 else
                                   "_" + "-".join(map(str, deco)))
        case = {"type": kind, "rank": rank, "decoration": deco}
        yield f"build_{label}.json", "build", case
        for mode in ("generic", "modp"):
            yield (f"characters-{mode}_{label}.json", "characters",
                   dict(case, mode=mode))
        yield f"classify_{label}.json", "classify", case


def _report(command: str, case: dict, workdir: str) -> str:
    path = os.path.join(workdir, "case.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case, fh)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, "--case", path])
    assert code == 0, (command, case, code)
    return buf.getvalue()


def _mismatched(runs, workdir: str) -> list[str]:
    """The names of the ``runs`` whose report differs from its golden."""
    mismatched = []
    for name, command, case in runs:
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            want = fh.read()
        if _report(command, case, workdir) != want:
            mismatched.append(name)
    return mismatched


def test_golden_reports(tmp_path):
    mismatched = _mismatched(_runs(), str(tmp_path))
    assert not mismatched, mismatched


def test_golden_reports_in_reverse_order(tmp_path, fresh_frames):
    """The reports made again in reverse order, in one process and with
    every type's frame built afresh, so its Weyl orbits, length-zero
    parts and monoid generators too, match byte for byte: no table kept
    per type, lattice or algebra carries one datum's weights into the
    report of another."""
    from heckelab import rootdata
    mismatched = _mismatched(reversed(list(_runs())), str(tmp_path))
    assert not mismatched, mismatched
    frames = [rootdata._type_frame(kind, rank) for kind, rank, *_ in TABLE]
    assert all(f["_omega_frames"] and f["_level_generators"] for f in frames)
    assert any(f["_orbits"] for f in frames)



def test_canonical_reemits_every_golden():
    # each committed report, parsed and written again, gives its bytes
    names = sorted(os.listdir(GOLDEN))
    assert len(names) == len(list(_runs()))
    for name in names:
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            want = fh.read()
        assert _canonical(json.loads(want)) == want, name

if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, command, case in _runs():
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
                fh.write(_report(command, case, work))
            print(name, file=sys.stderr)
