"""Seeded workload inputs for the raylift benchmark.

Each workload is a fixed shape; the seed picks the Gaussian frame, the
ground-truth vectors and the noise. Inputs reach the program only as files
written through the public ``gen_frame``, ``write_frame`` and
``write_measurements``. The ground truth (the vectors and the noiseless
rows) stays in the returned ``Inputs`` on the benchmark side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from raylift.core import Field, Vector
from raylift.frames import Measurement, gen_frame, measure, write_frame, write_measurements

FIELD = Field.COMPLEX  # every workload's frames and vectors
NOISE_FRAC = 0.01  # noise norm as a share of each noiseless row's norm
WARMUP_ROWS = 2
PROBE_DIMS = "2,3,4,8"
PROBE_SAMPLES = 1000
# certify checks several frames per pass: the cost of one check depends on
# its frame by about +-20%, and a pass over four frames averages that out
CHECK_FRAMES = 4


@dataclass(frozen=True)
class Shape:
    """What one workload runs: the frame shape, the row count and the
    commands. ``rows == 0`` marks the certify workload, which runs ``check``
    on ``CHECK_FRAMES`` frames of the shape and ``probe --what pi`` instead of
    ``reconstruct``."""

    name: str
    why: str
    n: int
    m: int
    rows: int
    polish: bool = False
    files: int = 1  # measurement files the rows are split over, one command each


WORKLOADS = {
    w.name: w
    for w in (
        Shape("recon-many", "reconstruct, polish off, n=8 m=72: many small rows, so the "
              "per-row pipeline and JSON I/O dominate", n=8, m=72, rows=500),
        Shape("recon-polish", "reconstruct --polish on, n=8 m=128: gradient polish "
              "dominates, the per-row pipeline is small", n=8, m=128, rows=64, polish=True,
              files=8),
        Shape("recon-wide", "reconstruct, polish off, n=32 m=2048: few large rows, so "
              "building the lifted map and large min-norm matvecs dominate",
              n=32, m=2048, rows=50),
        Shape("certify", "check on four frames of the recon-many shape, then probe --what "
              "pi: the only workload that runs the a0/b0 probes; it never calls recover",
              n=8, m=72, rows=0),
    )
}


@dataclass
class Inputs:
    """Files handed to the program plus the benchmark-only ground truth."""

    shape: Shape
    seed: int
    frames: list  # the Frame objects written, in command order
    truth: Optional[np.ndarray] = None  # (rows, n) ground-truth vectors
    clean: Optional[np.ndarray] = None  # (rows, m) noiseless intensities
    noisy: Optional[np.ndarray] = None  # (rows, m) what the program reads
    chunks: list = field(default_factory=list)  # row range of each reconstruct command
    argv: list = field(default_factory=list)  # one timed pass: a list of argv lists
    warm_argv: list = field(default_factory=list)


def make_inputs(shape: Shape, seed: int, workdir: str) -> Inputs:
    """Write the workload's input files under ``workdir`` and return them
    with the ground truth. The same seed gives byte-identical files."""
    os.makedirs(workdir, exist_ok=True)
    if shape.rows == 0:
        inp = Inputs(shape=shape, seed=seed, frames=[])
        for j in range(CHECK_FRAMES):
            path = os.path.join(workdir, f"frame{j}.json")
            inp.frames.append(_write_frame(shape, seed * CHECK_FRAMES + j, path))
            inp.argv.append(["check", "--frame", path, "--seed", str(seed), "--report",
                             os.path.join(workdir, f"check{j}.json")])
        inp.argv.append(["probe", "--what", "pi", "--dims", PROBE_DIMS, "--samples",
                         str(PROBE_SAMPLES), "--seed", str(seed), "--report",
                         os.path.join(workdir, "probe.json")])
        inp.warm_argv = [
            ["check", "--frame", path, "--starts", "1", "--report",
             os.path.join(workdir, "warm-check.json")],
            ["probe", "--what", "pi", "--dims", "2", "--samples", "10", "--report",
             os.path.join(workdir, "warm-probe.json")],
        ]
        return inp

    frame_path = os.path.join(workdir, "frame.json")
    F = _write_frame(shape, seed, frame_path)
    inp = Inputs(shape=shape, seed=seed, frames=[F])
    rng = np.random.default_rng([seed, 1])
    truth = rng.standard_normal((shape.rows, shape.n))
    truth = truth + 1j * rng.standard_normal((shape.rows, shape.n))
    clean = np.stack([measure(F, Vector(x, FIELD)).values for x in truth])
    g = rng.standard_normal(clean.shape)
    g *= (NOISE_FRAC * np.linalg.norm(clean, axis=1) / np.linalg.norm(g, axis=1))[:, None]
    noisy = clean + g
    inp.truth, inp.clean, inp.noisy = truth, clean, noisy
    polish = "on" if shape.polish else "off"

    def command(name, rows):
        path = os.path.join(workdir, f"{name}-meas.json")
        write_measurements(path, [Measurement(r) for r in rows])
        return ["reconstruct", "--frame", frame_path, "--measurements", path,
                "--polish", polish, "--out", os.path.join(workdir, f"{name}-out.json")]

    bounds = np.linspace(0, shape.rows, shape.files + 1).astype(int)
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        inp.chunks.append((int(lo), int(hi)))
        inp.argv.append(command(f"part{k}", noisy[lo:hi]))
    inp.warm_argv = [command("warm", noisy[:WARMUP_ROWS])]
    return inp


def _write_frame(shape: Shape, seed: int, path: str):
    F = gen_frame("random_gaussian", shape.n, shape.m, FIELD, seed=seed)
    write_frame(path, F)
    return F


def output_paths(argv: list) -> list:
    """Files one command writes: its --out or --report file, and the CSV
    that ``probe`` writes next to its report."""
    out = []
    for flag in ("--out", "--report"):
        if flag in argv:
            out.append(argv[argv.index(flag) + 1])
    if argv[0] == "probe":
        out.append(out[-1] + ".csv")
    return out
