"""Output checks for the raylift benchmark, run outside the timed region.

Every check becomes a failed-operation count. An operation is one
reconstructed row in one pass for the ``recon-*`` workloads, and one command
(``check`` or ``probe``) in one pass for ``certify``. The first pass is held
to the rules below; every later pass is a rerun and must reproduce the first
pass byte for byte.

- Unpolished row: its lift error ``lift_dist(est, truth, 2)`` must not exceed
  ``recovery_lip_bound(F, 2, 2).pipeline * ||c - c_true||_2``, the certified
  Lipschitz ceiling of the pipeline times the noise norm.
- Polished row: its residual must not exceed the unpolished residual of the
  same row.
- ``check`` (one per frame): exit code 0, verdict ``retrievable`` and
  ``0 < a0 <= b0 <= sigma_max(lifted)^2`` (the certified ceiling on b0).
- ``probe --what pi``: exit code 0 and no violations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from raylift.core import Vector
from raylift.frames import build_lifted_map
from raylift.metrics import lift_dist, ray
from raylift.recover import recovery_lip_bound
from workloads import FIELD

MAX_PROBLEMS = 20


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def note(self, why: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(why)


def verify(inp, passes: list, references: Optional[list] = None) -> Verdict:
    """Check every pass of a workload.

    ``passes`` holds one list per pass with one ``(exit_code, files)`` pair
    per command, ``files`` being the bytes of each output file in the order
    of ``workloads.output_paths``. ``references`` holds, per command, the
    output of the same ``reconstruct`` with polish off; polished workloads
    need it.
    """
    if inp.shape.rows:
        return _verify_recon(inp, passes, references or [])
    return _verify_certify(inp, passes)


def _parse(data: bytes):
    try:
        return json.loads(data)
    except (ValueError, UnicodeDecodeError):
        return None


def _rows(doc, count: int):
    rows = doc.get("rows") if isinstance(doc, dict) else None
    return rows if isinstance(rows, list) and len(rows) == count else None


def _estimate(row, shape):
    """The row's estimate as a vector, or None when it is malformed."""
    try:
        est = row["estimate"]
        entries = np.asarray(est["entries"], dtype=np.float64)
        entries = entries[:, 0] + 1j * entries[:, 1]
    except (KeyError, TypeError, ValueError, IndexError):
        return None
    if entries.shape != (shape.n,) or not np.all(np.isfinite(entries)):
        return None
    return Vector(entries, FIELD)


def _recon_rules(inp, first: list, references: list, v: Verdict) -> np.ndarray:
    """Per-row failure flags of the first pass; fills the quality figures."""
    shape = inp.shape
    bad = np.ones(shape.rows, dtype=bool)
    F, = inp.frames
    ceiling = recovery_lip_bound(F, 2, 2, lifted=build_lifted_map(F)).pipeline
    rel = []
    for k, ((rc, files), (lo, hi)) in enumerate(zip(first, inp.chunks)):
        rows = _rows(_parse(files[0]), hi - lo) if rc == 0 else None
        ref_rows = _rows(_parse(references[k]), hi - lo) if shape.polish else None
        if rows is None or (shape.polish and ref_rows is None):
            v.note(f"reconstruct {k}: exit code {rc}, malformed output or no unpolished "
                   "reference")
            continue
        for j, row in enumerate(rows):
            i = lo + j
            est = _estimate(row, shape)
            # the program writes the flag as 0/1; == accepts that and a JSON bool
            if est is None or row.get("polished") != shape.polish:
                v.note(f"row {i}: malformed estimate or wrong polished flag")
                continue
            x = inp.truth[i]
            err = lift_dist(ray(est), ray(Vector(x, FIELD)), 2)
            rel.append(err / float(np.vdot(x, x).real))
            if shape.polish:
                res, ref = row.get("residual"), ref_rows[j].get("residual")
                ok = isinstance(res, (int, float)) and isinstance(ref, (int, float)) and res <= ref
                why = f"row {i}: polished residual {res} above unpolished {ref}"
            else:
                limit = ceiling * float(np.linalg.norm(inp.noisy[i] - inp.clean[i]))
                ok = err <= limit
                why = f"row {i}: lift error {err:.6g} above certified ceiling {limit:.6g}"
            if ok:
                bad[i] = False
            else:
                v.note(why)
    if rel:
        v.quality["rel_lift_err_p50"] = float(np.median(rel))
    return bad


def _verify_recon(inp, passes: list, references: list) -> Verdict:
    v = Verdict()
    first = passes[0]
    rule_bad = _recon_rules(inp, first, references, v)
    first_rows = [_rows(_parse(files[0]), hi - lo)
                  for (_, files), (lo, hi) in zip(first, inp.chunks)]
    for p, results in enumerate(passes):
        v.attempted += inp.shape.rows
        bad = rule_bad.copy()
        for k, (got, want, (lo, hi)) in enumerate(zip(results, first, inp.chunks)):
            if got == want:
                continue
            again = _rows(_parse(got[1][0]), hi - lo) if got[0] == want[0] else None
            if again is None or first_rows[k] is None:
                bad[lo:hi] = True
            else:
                diff = np.array([json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)
                                 for a, b in zip(first_rows[k], again)])
                bad[lo:hi] |= diff
                bad[lo] |= not diff.any()  # only bytes outside the rows changed
            v.note(f"pass {p}: reconstruct {k} output differs from the first pass")
        v.failed += int(bad.sum())
    return v


def _check_ok(rc: int, data: bytes, frame, v: Verdict) -> bool:
    doc = _parse(data) if rc == 0 else None
    if not isinstance(doc, dict):
        return False
    a0, b0 = doc.get("a0"), doc.get("b0")
    ceiling = build_lifted_map(frame).sigma_max ** 2
    v.quality.setdefault("checks", []).append({"a0": a0, "b0": b0, "b0_ceiling": ceiling})
    return (doc.get("verdict") == "retrievable"
            and all(isinstance(t, (int, float)) and math.isfinite(t) for t in (a0, b0))
            and 0 < a0 <= b0 <= ceiling)


def _probe_ok(rc: int, data: bytes, v: Verdict) -> bool:
    doc = _parse(data) if rc == 0 else None
    if not (isinstance(doc, dict) and isinstance(doc.get("result"), dict)):
        return False
    v.quality["probe_max_ratio_inf"] = doc["result"].get("max_ratio_inf")
    return doc["result"].get("violations") == 0


def _verify_certify(inp, passes: list) -> Verdict:
    """Commands run ``check`` once per frame, then ``probe``."""
    v = Verdict()
    first = passes[0]
    rule_bad = []
    for k, (rc, files) in enumerate(first):
        if k < len(inp.frames):
            ok = _check_ok(rc, files[0], inp.frames[k], v)
            why = f"check {k}: exit code {rc}, or verdict/a0/b0 outside 0 < a0 <= b0 <= sigma_max^2"
        else:
            ok = _probe_ok(rc, files[0], v)
            why = f"probe: exit code {rc} or violations reported"
        if not ok:
            v.note(why)
        rule_bad.append(not ok)
    checks = v.quality.pop("checks", [])
    for key in ("a0", "b0", "b0_ceiling"):
        values = [c[key] for c in checks if isinstance(c[key], (int, float))]
        if values:
            v.quality[key] = float(np.median(values))
    if checks and all(isinstance(c["b0"], (int, float)) for c in checks):
        v.quality["b0_over_ceiling"] = float(np.median([c["b0"] / c["b0_ceiling"]
                                                        for c in checks]))
    for p, results in enumerate(passes):
        for k, (got, want) in enumerate(zip(results, first)):
            v.attempted += 1
            differs = p > 0 and got != want
            if differs:
                v.note(f"pass {p}: {inp.argv[k][0]} {k} output differs from the first pass")
            v.failed += int(rule_bad[k] or differs)
    return v
