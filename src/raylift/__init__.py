"""raylift: stable inversion of intensity (phaseless) measurements.

Metrics on the ray space of a finite-dimensional Hilbert space, the spectral
retraction onto rank-one PSD operators, a constructive Lipschitz left inverse
of the intensity measurement map, and estimators that certify the stability
constants at desk scale.
"""

from .core import (
    Field,
    RankOnePSD,
    RankOneViolation,
    SpectralError,
    SymOp,
    Vector,
    schatten_norm,
    sym_outer,
    symop,
    vec,
)
from .frames import (
    Frame,
    FrameFileError,
    LiftedMap,
    Measurement,
    build_lifted_map,
    gen_frame,
    measure,
    min_norm_inverse,
    read_frame,
    read_measurements,
    write_frame,
    write_measurements,
)
from .metrics import RayPoint, align_dist, lift, lift_dist, ray, unlift
from .probes import (
    LowerLipEstimate,
    estimate_lower_lip,
    estimate_upper_lip,
    lower_lip_objective,
    pr_verdict,
    probe_bilipschitz,
    upper_lip_ceiling,
    verify_property_k,
)
from .recover import LipBound, RecoveryReport, polish, recover, recovery_lip_bound
from .retraction import (
    rank_one_retract,
    retraction_bound,
    retraction_probe,
    retraction_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Vector",
    "SymOp",
    "RankOnePSD",
    "RayPoint",
    "Frame",
    "Measurement",
    "LiftedMap",
    "RecoveryReport",
    "LipBound",
    "LowerLipEstimate",
    "SpectralError",
    "RankOneViolation",
    "FrameFileError",
    "vec",
    "symop",
    "sym_outer",
    "schatten_norm",
    "ray",
    "align_dist",
    "lift_dist",
    "lift",
    "unlift",
    "measure",
    "build_lifted_map",
    "min_norm_inverse",
    "gen_frame",
    "read_frame",
    "write_frame",
    "read_measurements",
    "write_measurements",
    "rank_one_retract",
    "retraction_ratio",
    "retraction_bound",
    "retraction_probe",
    "recover",
    "recovery_lip_bound",
    "polish",
    "estimate_lower_lip",
    "estimate_upper_lip",
    "lower_lip_objective",
    "pr_verdict",
    "probe_bilipschitz",
    "upper_lip_ceiling",
    "verify_property_k",
    "__version__",
]
