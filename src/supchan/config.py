"""Numerical tolerances shared across the package.

Every tolerance that can be overridden (scenario file, SUPCHAN_SLACK_TOL,
``--slack-tol``) lives in one frozen dataclass, and no state, operation or
superchannel stores one: each routine that checks or decomposes takes
``tols`` as a required argument, so that a single override propagates
consistently and no call can fall back on ``DEFAULT_TOLS``, which only
callers outside the package name.  Defaults are sized for double precision on matrices of
dimension <= 36.  Thresholds that no scenario has needed to tune stay
fixed where they are used: ``channels.CP_TOL``/``TP_TOL``,
``bounds.THERMAL_MATCH_TOL`` and ``CONSISTENCY_TOL``, the 1e-12 clip bands
and trace-preservation noise of ``channels.random_cptps``, the 1e-8 QDPI
route cross-checks, and the fixed-point literals in ``channels`` (the 1e-8
eigenvalue-1 cluster width and the ``_steady_states`` limits), which go
with that routine.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    herm_tol: float = 1e-10      # max-abs deviation allowed from Hermiticity and unitarity
    psd_floor: float = 1e-10     # eigenvalues below this are clamped to exactly 0
    recon_tol: float = 1e-9      # eigendecomposition reconstruction residual
    fp_tol: float = 1e-9         # fixed-point residual ||Phi(e) - e||_1
    support_tol: float = 1e-9    # kernel weight above this means support mismatch
    slack_tol: float = 1e-8      # bound violations beyond this are genuine failures
    trace_tol: float = 1e-10     # unit-trace check for density matrices


def from_env(tols: Tolerances) -> Tolerances:
    """Apply the SUPCHAN_SLACK_TOL environment override, if set; a value that
    is not a finite positive number raises ValueError."""
    raw = os.environ.get("SUPCHAN_SLACK_TOL")
    if raw is not None:
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"SUPCHAN_SLACK_TOL: expected a finite number, got {raw!r}")
        if value <= 0:
            raise ValueError(f"SUPCHAN_SLACK_TOL: expected a positive number, got {raw!r}")
        tols = replace(tols, slack_tol=value)
    return tols


DEFAULT_TOLS = Tolerances()
