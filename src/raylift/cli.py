"""Batch command-line front end.

Subcommands: gen (write a frame file), check (phase-retrievability verdict
with stability constants), reconstruct (invert measurement files), probe
(empirical Lipschitz bounds and counterexample certification). Every command
is deterministic given its flags, including --seed; reports carry full
provenance and contain no timestamps, so reruns are byte identical.

Exit codes: 0 success/affirmative, 1 negative verdict, 2 usage, 3 I/O
(also a measurement row the pipeline cannot represent, such as one whose
inversion overflows: reconstruct names the row and writes no output), 4
indeterminate, 5 bound violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from . import __version__
from .core import Field, SpectralError, Vector, _gaussian, symop
from .frames import (
    FrameFileError,
    _RowError,
    _float_repr17,
    _vec_to_json,
    build_lifted_map,
    dumps_json,
    gen_frame,
    measure,
    read_frame,
    read_measurements,
    write_frame,
)
from .metrics import lift_dist
from .probes import (
    _PROPERTY_K,
    estimate_lower_lip,
    estimate_upper_lip,
    pr_verdict,
    probe_bilipschitz,
    upper_lip_ceiling,
    verify_property_k,
)
from .recover import _report_rows, polish, recover, recovery_lip_bound
from .retraction import retraction_probe, retraction_ratio

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INDETERMINATE = 4
EXIT_VIOLATION = 5


def _flag_type(kind, valid, expected: str):
    """An argparse type: ``kind(text)`` when ``valid`` accepts it, else a
    usage error saying what was expected."""
    def parse(text: str):
        try:
            val = kind(text)
        except ValueError:
            val = None
        if val is None or not valid(val):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return val
    return parse


_parse_count = _flag_type(int, lambda v: v >= 1, "a positive integer")
_parse_seed = _flag_type(int, lambda v: v >= 0, "a non-negative integer")
# a norm order; NaN fails the comparison
_parse_order = _flag_type(float, lambda v: v >= 1, "a number >= 1 or 'inf'")
_parse_dims = _flag_type(lambda text: tuple(int(t) for t in text.split(",") if t),
                         lambda dims: bool(dims) and min(dims) >= 2,
                         "comma-separated integers >= 2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raylift",
        description="Stable inversion of intensity measurements: frames, verdicts, "
        "reconstruction and Lipschitz probes.",
    )
    parser.add_argument("--version", action="version", version=f"raylift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a frame and write it as JSON")
    g.add_argument("--dim", type=_parse_count)
    g.add_argument("--count", type=_parse_count)
    g.add_argument("--field", choices=["real", "complex"], default="real")
    g.add_argument("--seed", type=_parse_seed, default=0)
    g.add_argument("--kind", choices=["gaussian", "named"], default="gaussian")
    g.add_argument("--name")
    g.add_argument("--out", required=True)

    c = sub.add_parser("check", help="phase-retrievability verdict for a frame file")
    c.add_argument("--frame", required=True)
    c.add_argument("--starts", type=_parse_count, default=64)
    c.add_argument("--seed", type=_parse_seed, default=0)
    c.add_argument("--report", required=True)

    r = sub.add_parser("reconstruct", help="invert measurement rows against a frame")
    r.add_argument("--frame", required=True)
    r.add_argument("--measurements", required=True)
    r.add_argument("--polish", choices=["on", "off"], default="off",
                   help="on: refine every row's estimate by damped Gauss-Newton on the "
                   "intensity residual, all rows as one stack, at most 200 accepted steps "
                   "per row (raylift.polish). Measured, not proven: on 11 full-rank "
                   "Gaussian frames its MSE read 0.93-1.02 times the Cramer-Rao bound, "
                   "against 2.3-36 times for off")
    r.add_argument("--out", required=True)

    p = sub.add_parser("probe", help="empirical Lipschitz probes and certifications")
    p.add_argument("--what", choices=["pi", "omega", "bilipschitz", "property-k"], required=True)
    p.add_argument("--p", type=_parse_order, default=math.inf)
    p.add_argument("--samples", type=_parse_count, default=1000)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--dims", type=_parse_dims, default=(2, 3, 4))
    p.add_argument("--report", required=True)
    return parser


_parser = cache(build_parser)  # main's parser, built once: parsing leaves it as it was


def _provenance(command: str, args: argparse.Namespace) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    for k, v in flags.items():
        if isinstance(v, float) and math.isinf(v):
            flags[k] = "inf"
        if isinstance(v, tuple):
            flags[k] = list(v)
    return {"tool": "raylift", "version": __version__, "command": command, "flags": flags}


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_float_repr17(x) if isinstance(x, float) else str(x) for x in row))
    _write_text(path, "\n".join(lines) + "\n")


def cmd_gen(args) -> int:
    if args.kind == "named" and not args.name:
        print("gen: --kind named requires --name", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "gaussian" and (args.dim is None or args.count is None):
        print("gen: --kind gaussian requires --dim and --count", file=sys.stderr)
        return EXIT_USAGE
    # a named frame ignores --seed, a Gaussian one --name
    kind = "named" if args.kind == "named" else "random_gaussian"
    try:
        F = gen_frame(kind, args.dim, args.count, Field(args.field), seed=args.seed, name=args.name)
    except ValueError as e:
        print(f"gen: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        write_frame(args.out, F)
    except OSError as e:
        print(f"gen: cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    sv = ", ".join(format(s, ".6g") for s in F.singular_values())
    print(f"{F.label}: wrote {F.count} vectors of dim {F.dim} ({F.field.value}) to {args.out}")
    print(f"spanning singular values: [{sv}]")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        F = read_frame(args.frame)
    except (FrameFileError, OSError) as e:
        print(f"check: {e}", file=sys.stderr)
        return EXIT_IO
    est = estimate_lower_lip(F, starts=args.starts, seed=args.seed)
    b0, b0_iterations = estimate_upper_lip(F, args.seed)
    verdict = pr_verdict(F, estimate=est)
    report = {
        "frame_label": F.label,
        "frame_hash": F.file_sha256,
        "a0": est.value,
        "b0": b0,
        "b0_upper": upper_lip_ceiling(F),
        "verdict": verdict,
        "witnesses": {
            "u": _vec_to_json(est.argmin_u.entries, F.field),
            "v": _vec_to_json(est.argmin_v.entries, F.field),
            "method": est.method,
        },
        "sample_counts": {"starts": est.starts},
        "search": {
            "kept_starts": est.kept_starts,
            "refine_iterations": est.refine_iterations,
            "refine_evaluations": est.refine_evaluations,
            "refine_stop": est.refine_stop,
            "b0_ascent_iterations": b0_iterations,
        },
        "seeds": {"seed": args.seed},
        "provenance": _provenance("check", args),
    }
    try:
        _write_text(args.report, dumps_json(report))
    except OSError as e:
        print(f"check: cannot write {args.report}: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"{F.label or args.frame}: verdict={verdict} a0={est.value:.6g} b0={b0:.6g}")
    if verdict == "retrievable":
        return EXIT_OK
    if verdict == "not_retrievable":
        return EXIT_NEGATIVE
    return EXIT_INDETERMINATE


def cmd_reconstruct(args) -> int:
    try:
        F = read_frame(args.frame)
        rows = read_measurements(args.measurements)
    except (FrameFileError, OSError) as e:
        print(f"reconstruct: {e}", file=sys.stderr)
        return EXIT_IO
    if rows[0].count != F.count:
        print(
            f"reconstruct: measurement count {rows[0].count} does not match "
            f"frame count {F.count}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if F.dim < 2:
        print(f"reconstruct: the retraction needs dimension >= 2, the frame has {F.dim}",
              file=sys.stderr)
        return EXIT_USAGE
    lifted = build_lifted_map(F)
    if lifted.rank < lifted.cols:
        print(
            f"reconstruct: warning: the lifted map has rank {lifted.rank} of "
            f"{lifted.cols} columns, so the pipeline is not a left inverse on "
            f"this frame and estimates may be wrong even without noise",
            file=sys.stderr,
        )
    reps, i = [], None
    # a row that overflows fails a finiteness check whose error names the
    # row; numpy's overflow warnings on the way would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i, row in enumerate(rows):
                reps.append(recover(F, row, lifted=lifted))
            i = None  # a later failure names its row itself, or the stack
            if args.polish == "on":  # the rows' estimates polished as one stack
                polished = polish(F, np.array([row.values for row in rows]),
                                  [r.estimate for r in reps])
                reps = [replace(rep, estimate=est, residual=res, polish=stats)
                        for rep, (est, res, stats) in zip(reps, polished)]
            stack = _report_rows(reps)
        except (ValueError, SpectralError) as e:
            i = e.row if isinstance(e, _RowError) else i
            at = "" if i is None else f"[{i}]"
            print(f"reconstruct: {args.measurements}.values{at}: {e}", file=sys.stderr)
            return EXIT_IO
    doc = {
        "frame_label": F.label,
        "frame_hash": F.file_sha256,
        "rows": stack,
        "provenance": _provenance("reconstruct", args),
    }
    try:
        _write_text(args.out, dumps_json(doc))
    except OSError as e:
        print(f"reconstruct: cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    worst = max(r.residual for r in reps)
    print(f"reconstructed {len(reps)} rows; worst residual {worst:.6g}")
    return EXIT_OK


def _probe_pi(args):
    result = retraction_probe(dims=args.dims, p=args.p, samples=args.samples, seed=args.seed)
    # the 2x2 reference pair: identity vs diag(2, 0) has ratio exactly 2 at
    # order inf, the known sharpness floor
    a = symop(np.eye(2))
    b = symop(np.diag([2.0, 0.0]))
    result["reference_pair_ratio_inf"] = retraction_ratio(a, b, math.inf)
    held = result["violations"] == 0
    rows = [
        (c["p"], c["dim"], c["field"], float(c["max_ratio"]), float(c["bound"]))
        for c in result["combos"]
    ]
    csv = ("p,dim,field,max_ratio,bound", rows)
    return result, held, csv


def _probe_frames(args):
    """For each n in --dims, a real then a complex Gaussian n^2 + n frame, seed --seed + n."""
    return (gen_frame("random_gaussian", n, n * n + n, field, seed=args.seed + n)
            for n in args.dims for field in (Field.REAL, Field.COMPLEX))


def _probe_omega(args):
    checks = []
    violations = 0
    pq_pairs = ((2.0, 1.0), (2.0, 2.0), (math.inf, 1.0))
    for F in _probe_frames(args):
        lifted = build_lifted_map(F)
        rng = np.random.default_rng([args.seed, F.dim, 0 if F.field is Field.REAL else 1])
        bounds = [recovery_lip_bound(F, p, q, lifted=lifted).pipeline for p, q in pq_pairs]
        for _ in range(args.samples):
            x, xp = _gaussian(rng, (2, F.dim), F.field)
            c = measure(F, Vector(x, F.field)).values
            cp = measure(F, Vector(xp, F.field)).values
            c = c + 0.05 * rng.standard_normal(c.shape) * max(1.0, float(np.max(c)))
            cp = cp + 0.05 * rng.standard_normal(cp.shape) * max(1.0, float(np.max(cp)))
            ra = recover(F, c, lifted=lifted).estimate
            rb = recover(F, cp, lifted=lifted).estimate
            for (p, q), bound in zip(pq_pairs, bounds):
                dq = lift_dist(ra, rb, q)
                dp = float(np.linalg.norm(c - cp, ord=p))
                ok = dq <= bound * dp + 1e-8
                violations += 0 if ok else 1
                checks.append({
                    "dim": F.dim, "field": F.field.value,
                    "p": "inf" if p == math.inf else p, "q": q,
                    "dq": dq, "ceiling": bound * dp + 1e-8,
                })
    result = {
        "checks": len(checks),
        "violations": violations,
        "pq_pairs": [["inf" if p == math.inf else p, q] for p, q in pq_pairs],
        "worst_slack": min((c["ceiling"] - c["dq"] for c in checks), default=None),
    }
    rows = [(c["dim"], c["field"], c["p"], c["q"], float(c["dq"]), float(c["ceiling"]))
            for c in checks]
    return result, violations == 0, ("dim,field,p,q,dq,ceiling", rows)


def _probe_bilip(args):
    per_frame = []
    violations = 0
    all_rows = []
    for F in _probe_frames(args):
        est = estimate_lower_lip(F, starts=32, seed=args.seed)
        res = probe_bilipschitz(F, samples=args.samples, seed=args.seed)
        ok = res["min_ratio"] ** 2 >= est.value - 1e-6
        violations += 0 if ok else 1
        per_frame.append({
            "frame_label": F.label,
            "a0": est.value,
            "min_ratio": res["min_ratio"],
            "max_ratio": res["max_ratio"],
            "kept": res["kept"],
            "consistent": ok,
        })
        all_rows.extend((F.label, float(r)) for r in res["ratios"][:1000])
    result = {"frames": per_frame, "violations": violations}
    return result, violations == 0, ("frame_label,ratio", all_rows)


def _probe_property_k(args):
    keys = ("distances_ok", "x_intersection_nonempty", "y_intersection_empty")
    result = {which: verify_property_k(which) for which in _PROPERTY_K}
    ok = all(rec[k] for rec in result.values() for k in keys)
    rows = [(which, *(rec[k] for k in keys), float(rec["located_min"]))
            for which, rec in result.items()]
    return result, ok, ("example,distances_ok,x_nonempty,y_empty,located_min", rows)


def cmd_probe(args) -> int:
    runner = {
        "pi": _probe_pi,
        "omega": _probe_omega,
        "bilipschitz": _probe_bilip,
        "property-k": _probe_property_k,
    }[args.what]
    result, held, csv = runner(args)
    doc = {
        "what": args.what,
        "bounds_held": held,
        "result": result,
        "provenance": _provenance("probe", args),
    }
    try:
        _write_text(args.report, dumps_json(doc))
        header, rows = csv
        _write_csv(str(args.report) + ".csv", header.split(","), rows)
    except OSError as e:
        print(f"probe: cannot write report: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"probe {args.what}: bounds {'held' if held else 'VIOLATED'}")
    return EXIT_OK if held else EXIT_VIOLATION


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_OK
    handlers = {
        "gen": cmd_gen,
        "check": cmd_check,
        "reconstruct": cmd_reconstruct,
        "probe": cmd_probe,
    }
    return handlers[args.command](args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
