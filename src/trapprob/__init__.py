"""Planar Brownian-motion trap hitting probabilities.

Exact disk-trap formulas (Bessel kernels built from scratch with certified
truncation bounds), an exact-in-distribution walk-on-lines sampler for
segment traps, and numerical checks of the conformal-radius disk surrogate
bounds.
"""

__version__ = "0.1.0"

from trapprob.conformal import (
    PlanePoint,
    TrapGeometry,
    green_segment,
    harmonic_measure_nodes,
    make_segment_trap,
    phi_segment,
    r_z,
)
from trapprob.disk_oracle import f_disk, hunt_approx, p_disk
from trapprob.errors import (
    BoundaryError,
    CapacityError,
    ConvergenceError,
    DomainError,
    HypothesisError,
    TrapProbError,
)
from trapprob.segment_sim import (
    release_circle,
    sample_batch,
    survival_curve,
    wilson_interval,
)
from trapprob.specfun import (
    GAMMA,
    BoundedValue,
    bessel_i,
    bessel_j0_y0,
    k0,
    k0_bounds,
)
from trapprob.verify import (
    BoundReport,
    check_theorem1,
    check_theorem2,
    conjecture_probe,
    figure_series,
)

__all__ = [
    "GAMMA",
    "BoundReport",
    "BoundaryError",
    "BoundedValue",
    "CapacityError",
    "ConvergenceError",
    "DomainError",
    "HypothesisError",
    "PlanePoint",
    "TrapGeometry",
    "TrapProbError",
    "bessel_i",
    "bessel_j0_y0",
    "check_theorem1",
    "check_theorem2",
    "conjecture_probe",
    "f_disk",
    "figure_series",
    "green_segment",
    "harmonic_measure_nodes",
    "hunt_approx",
    "k0",
    "k0_bounds",
    "make_segment_trap",
    "p_disk",
    "phi_segment",
    "r_z",
    "release_circle",
    "sample_batch",
    "survival_curve",
    "wilson_interval",
]
