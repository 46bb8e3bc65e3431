"""Numerical tolerances shared across the package.

Every tolerance that can be overridden lives in one frozen dataclass, and
this module defines no function: ``cli._resolve_tols`` applies the
scenario file's fields and the SUPCHAN_SLACK_TOL and ``--slack-tol``
overrides of slack_tol, in their order of precedence.  No state, operation
or superchannel stores a tolerance: each routine that checks or decomposes
takes ``tols`` as a required argument, so that a single override
propagates consistently and no call can fall back on ``DEFAULT_TOLS``,
which only callers outside the package name.  Defaults are sized for double
precision on matrices of dimension <= 36.  Thresholds that no scenario has
needed to tune stay fixed where they are used:
``channels.CP_TOL``/``TP_TOL``, ``bounds.THERMAL_MATCH_TOL`` and
``CONSISTENCY_TOL``, the 1e-12 clip bands and trace-preservation noise of
``channels.random_cptps``, the 1e-8 QDPI route cross-checks, and the
fixed-point literals in ``channels`` (the 1e-8 eigenvalue-1 cluster width
and the ``_steady_states`` limits), which go with that routine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    herm_tol: float = 1e-10      # max-abs deviation allowed from Hermiticity and unitarity
    psd_floor: float = 1e-10     # eigenvalues below this are clamped to exactly 0
    recon_tol: float = 1e-9      # eigendecomposition reconstruction residual
    fp_tol: float = 1e-9         # fixed-point residual ||Phi(e) - e||_1
    support_tol: float = 1e-9    # kernel weight above this means support mismatch
    slack_tol: float = 1e-8      # bound violations beyond this are genuine failures
    trace_tol: float = 1e-10     # unit-trace check for density matrices


DEFAULT_TOLS = Tolerances()
