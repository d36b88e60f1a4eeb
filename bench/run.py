"""Benchmark of the raylift CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It writes seeded inputs under
``.bench_out/``, runs ``raylift.cli.main(argv)`` in-process in repeated
passes for ``--seconds`` seconds, checks every output outside the timed
region and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` spends half the time untraced and half
under the layer tracer and reports the per-layer metrics. A fuller record
(environment, every pass time, raw layer statistics, the layer to end-to-end
map) goes to ``.bench_out/results/``. See ``bench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS thread: on a small shared machine a pinned thread count keeps runs
# comparable. It must be set before numpy loads.
BLAS_THREADS = "1"

MIN_PASSES = 3  # timed passes per run even when --seconds is short
MIN_TRACE_PASSES = 2  # per half of a traced run

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "command_rel": ("ref", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# name: (unit, better, which end-to-end metric it should move, and where)
PER_LAYER = {
    "frames.read_frame.s": ("s", "lower", "setup_s on recon-wide; negligible on recon-many"),
    "frames.build_lifted_map.s": ("s", "lower", "setup_s on recon-wide; negligible on recon-many"),
    "frames.build_lifted_map.calls": ("count", "lower", "setup_s; files + rows on recon-polish, "
                                      "where polish rebuilds the map per row"),
    "frames.lifted_map_mb": ("MB", "lower", "peak_rss_mb on recon-wide; computed from the "
                             "array sizes of the map, not measured"),
    "frames.min_norm_inverse.calls": ("count", "lower", "command_rel on recon-many, recon-wide"),
    "frames.min_norm_inverse.s": ("s", "lower", "command_rel on recon-many, recon-wide"),
    "retraction.rank_one_retract.calls": ("count", "lower", "command_rel on recon-many, recon-wide"),
    "retraction.rank_one_retract.s": ("s", "lower", "command_rel on recon-many, recon-wide"),
    "metrics.unlift.calls": ("count", "lower", "command_rel on recon-many, recon-wide"),
    "metrics.unlift.s": ("s", "lower", "command_rel on recon-many, recon-wide"),
    "core.spectral_decompose.calls": ("count", "lower", "command_rel on recon-many, recon-wide"),
    "core.spectral_decompose.s": ("s", "lower", "command_rel on recon-many, recon-wide"),
    "recover.recover.calls": ("count", "lower", "command_rel on recon-*"),
    "recover.recover.s": ("s", "lower", "command_rel on recon-many, recon-wide"),
    "recover.recover.self_s": ("s", "lower", "command_rel on recon-many, recon-wide"),
    "linalg.eig_calls_per_row": ("count", "lower", "command_rel on recon-many, recon-wide; "
                                 "numpy.linalg eigh + eigvalsh calls per row, 0 on certify"),
    "linalg.eig_calls": ("count", "lower", "command_rel on every workload"),
    "frames.read_measurements.s": ("s", "lower", "command_rel on recon-many"),
    "frames.dumps_json.s": ("s", "lower", "command_rel on recon-many"),
    "frames.measure.calls": ("count", "lower", "command_rel on recon-many"),
    "frames.measure.s": ("s", "lower", "command_rel on recon-many"),
    "recover.to_dict.s": ("s", "lower", "command_rel on recon-many"),
    "cli.self_s": ("s", "lower", "command_rel on recon-many"),
    "recover.polish.calls": ("count", "lower", "command_rel on recon-polish; 0 elsewhere"),
    "recover.polish.s": ("s", "lower", "command_rel on recon-polish; 0 on recon-many, recon-wide"),
    "probes.estimate_lower_lip.s": ("s", "lower", "command_rel on certify (check)"),
    "probes.estimate_upper_lip.s": ("s", "lower", "command_rel on certify (check)"),
    "probes.pr_verdict.s": ("s", "lower", "command_rel on certify (check)"),
    "retraction.retraction_probe.s": ("s", "lower", "command_rel on certify (probe --what pi)"),
    "cli.cmd_reconstruct.s": ("s", "lower", "command_rel on recon-*"),
    "cli.cmd_check.s": ("s", "lower", "command_rel on certify"),
    "cli.cmd_probe.s": ("s", "lower", "command_rel on certify"),
    "recover.rel_lift_err_p50": ("1", "lower", "answer quality on recon-*: median over rows of "
                                 "lift_dist(est, truth, 2)/||x||^2; 0 on certify"),
    "probes.a0": ("1", "lower", "answer quality on certify: median a0 over the checked frames; "
                  "a smaller found a0 is tighter; 0 on recon-*"),
    "probes.b0": ("1", "higher", "answer quality on certify: median b0 over the checked frames; "
                  "a larger found b0 is tighter; 0 on recon-*"),
    "probes.b0_over_ceiling": ("1", "higher", "median b0 / sigma_max(lifted)^2 on certify, at "
                               "most 1; 0 on recon-*"),
    "trace.raised": ("count", "lower", "exceptions raised through traced calls per pass"),
    "trace.overhead_frac": ("1", "lower", "median traced pass time / untraced - 1, both "
                            "relative to the reference computation"),
    "bench.command_s": ("s", "lower", "command_rel: the untraced passes' median wall time, "
                        "before dividing by the reference time"),
    "bench.ref_s": ("s", "lower", "none: the reference computation's median time, which "
                    "tracks the machine's speed, not the program's"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Put the checkout's ``src`` first on the path; fail when it is absent
    so an installed copy of the package is never measured instead."""
    if not os.path.isfile(os.path.join(SRC, "raylift", "__init__.py")):
        raise SystemExit(f"bench: no raylift sources under {SRC}")
    sys.path.insert(0, SRC)
    import raylift.cli  # noqa: F401

    return sys.modules["raylift.cli"]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cfg = np.show_config(mode="dicts") or {}
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "processes": 1,
        "seed": seed,
    }


def _blas_threads(np):
    """Threads the loaded OpenBLAS reports, else the pinned setting."""
    import ctypes

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                return int(getattr(lib, sym)())
    return int(BLAS_THREADS)


def _run_commands(cli, argvs, sink) -> list:
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(sink):
            codes.append(cli.main(argv))
        sink.seek(0)
        sink.truncate()
    return codes


@dataclass
class Passes:
    command_s: list = field(default_factory=list)  # per pass, the wall time of each command
    ref_s: list = field(default_factory=list)  # before the first command and after each
    setup_s: list = field(default_factory=list)  # per command that sets up
    outputs: list = field(default_factory=list)  # per pass, (exit code, file bytes) per command

    @property
    def wall_s(self) -> list:
        return [sum(times) for times in self.command_s]

    @property
    def rel(self) -> list:
        """Each pass in reference units: the sum over its commands of the
        command's time over the mean of the four reference times nearest to
        it, two before and two after."""
        out, j = [], 0
        for times in self.command_s:
            total = 0.0
            for dt in times:  # command j ran between ref_s[j] and ref_s[j + 1]
                total += dt / statistics.fmean(self.ref_s[max(0, j - 1):j + 3])
                j += 1
            out.append(total)
        return out


def run_passes(cli, inp, seconds: float, min_passes: int, setup=None) -> Passes:
    """Repeat the workload's commands for ``seconds``, at least ``min_passes``
    times, timing the reference computation before the first command and
    after each one."""
    from reference import reference_seconds
    from workloads import output_paths

    sink = io.StringIO()
    out = Passes(ref_s=[reference_seconds()])
    deadline = time.perf_counter() + seconds
    while len(out.command_s) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        times, result = [], []
        for argv in inp.argv:
            before = setup.stats["setup"].total if setup else 0.0
            t0 = time.perf_counter()
            rc, = _run_commands(cli, [argv], sink)
            times.append(time.perf_counter() - t0)
            out.ref_s.append(reference_seconds())
            if setup and setup.stats["setup"].total > before:
                out.setup_s.append(setup.stats["setup"].total - before)
            result.append((rc, tuple(_read(path) for path in output_paths(argv))))
        out.command_s.append(times)
        # a rerun equal to the first pass is held by reference, so the kept
        # outputs do not grow the peak memory with the number of passes
        first = out.outputs[0] if out.outputs else None
        out.outputs.append(first if result == first else result)
    return out


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def unpolished(cli, argv) -> bytes:
    """Output of ``argv`` rerun with polish off, outside the timed region."""
    argv = list(argv)
    argv[argv.index("--polish") + 1] = "off"
    out = argv[argv.index("--out") + 1] = argv[argv.index("--out") + 1] + ".unpolished"
    _run_commands(cli, [argv], io.StringIO())
    return _read(out)


def layer_metrics(tracer, passes: int, rows: int, quality: dict, overhead: float,
                  untraced: Passes) -> dict:
    stats = tracer.stats
    eig_calls = sum(stats[k].calls for k in ("linalg.eigh", "linalg.eigvalsh") if k in stats)
    special = {
        "frames.lifted_map_mb": tracer.observed.get("frames.build_lifted_map", 0.0),
        "linalg.eig_calls_per_row": eig_calls / (rows * passes) if rows else 0.0,
        "linalg.eig_calls": eig_calls / passes,
        "cli.self_s": sum(s.self_time for k, s in stats.items() if k.startswith("cli.")) / passes,
        "recover.rel_lift_err_p50": quality.get("rel_lift_err_p50", 0.0),
        "probes.a0": quality.get("a0", 0.0),
        "probes.b0": quality.get("b0", 0.0),
        "probes.b0_over_ceiling": quality.get("b0_over_ceiling", 0.0),
        "trace.raised": sum(s.raised for s in stats.values()) / passes,
        "trace.overhead_frac": overhead,
        "bench.command_s": statistics.median(untraced.wall_s),
        "bench.ref_s": statistics.median(untraced.ref_s),
    }
    fields = {".calls": "calls", ".self_s": "self_time", ".s": "total"}
    out = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name in special:
            value = special[name]
        else:
            suffix = next(s for s in fields if name.endswith(s))
            stat = stats.get(name[: -len(suffix)])
            value = getattr(stat, fields[suffix]) / passes if stat else 0.0
        out[name] = {"value": float(value), "unit": unit}
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    cli = _import_program()
    from tracer import Tracer, layer_tracer
    from verify import verify
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    shape = WORKLOADS[args.workload]
    tag = f"{shape.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_out", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    inp = make_inputs(shape, args.seed, workdir)

    codes = _run_commands(cli, inp.warm_argv, io.StringIO())
    if any(codes):
        raise SystemExit(f"bench: warm-up commands exited with {codes}")

    record = {"workload": shape.name, "why": shape.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": environment(args.seed),
              "argv": inp.argv}
    if args.trace == 0:
        with Tracer() as setup:
            setup.patch(cli, "read_frame", "setup")
            setup.patch(cli, "build_lifted_map", "setup")
            runs = run_passes(cli, inp, args.seconds, MIN_PASSES, setup)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs = runs.outputs
    else:
        half = args.seconds / 2
        runs = run_passes(cli, inp, half, MIN_TRACE_PASSES)
        with layer_tracer() as tracer:
            traced = run_passes(cli, inp, half, MIN_TRACE_PASSES)
        overhead = statistics.median(traced.rel) / statistics.median(runs.rel) - 1.0
        outputs = runs.outputs + traced.outputs
        record.update(traced_command_s=traced.command_s, traced_ref_s=traced.ref_s)
    record.update(command_s=runs.command_s, ref_s=runs.ref_s, setup_samples_s=runs.setup_s)

    references = [unpolished(cli, argv) for argv in inp.argv] if shape.polish else None
    verdict = verify(inp, outputs, references)

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(runs.setup_s),
            "command_rel": statistics.median(runs.rel),
            "peak_rss_mb": peak_mib,
        }
        metrics = {k: {"value": float(v), "unit": END_TO_END[k][0]} for k, v in metrics.items()}
    else:
        metrics = layer_metrics(tracer, len(traced.wall_s), shape.rows, verdict.quality,
                                overhead, runs)
        record["layer_stats"] = {k: vars(s) for k, s in sorted(tracer.stats.items())}
        record["layer_map"] = {k: v[2] for k, v in PER_LAYER.items()}
    result = {"correct": verdict.failed == 0, "attempted": verdict.attempted,
              "failed": verdict.failed, "metrics": metrics}
    record.update(quality=verdict.quality, problems=verdict.problems, result=result)
    os.makedirs(os.path.join(ROOT, ".bench_out", "results"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)

    for why in verdict.problems:
        print(f"FAILED: {why}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
