"""Stinespring dilations, operation entropy, and the isometric-dilation map
that tracks the entropic cost of implementing an operation.

Tensor orderings are explicit: the dilation triple is a (x) b (x) c with
a the ancilla, b the operation's output system and c the retained half of
the maximally entangled input; the isometric-dilation map works in the
canonical S (x) E (x) A ordering, with one subsystem permutation bringing
V's S (x) A grouping into it.  The channel an isometric dilation induces on
the system alone is ``channels.channel_from_dilation(iso.v, iso.alpha)``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import channels as ch
from . import matkernel as mk
from . import states as st
from . import superchannel as sup
from .config import DEFAULT_TOLS, Tolerances
from .matkernel import DimShape, ShapeError, ValidationError
from .states import DensityMatrix, density


def complete_isometry(v: np.ndarray, pivot_order: list[int] | None = None) -> np.ndarray:
    """Extend an isometry's columns to a full unitary.

    Completion columns come from the canonical basis taken in
    ``pivot_order`` (default: index order), orthonormalized against the
    existing columns; the completion is deterministic but non-unique, and
    downstream entropies do not depend on it.
    """
    v = mk.as_matrix(v)
    n, k = v.shape
    cols = [v[:, j] for j in range(k)]
    order = list(range(n)) if pivot_order is None else list(pivot_order)
    for i in order:
        if len(cols) == n:
            break
        e = np.zeros(n, dtype=complex)
        e[i] = 1.0
        for _ in range(2):  # twice for numerical orthogonality
            for c in cols:
                e = e - c * np.vdot(c, e)
        nrm = np.linalg.norm(e)
        if nrm > 1e-7:
            cols.append(e / nrm)
    if len(cols) != n:
        raise ValidationError("isometry completion failed to span the space")
    return np.column_stack(cols)


@dataclass(frozen=True)
class StinespringForm:
    """Unitary dilation data of an operation (ancilla a, system b, input copy c)."""

    v: np.ndarray           # isometry (ancilla_dim * d) x d, V = sum_k |k>_a (x) K_k
    u_ab: np.ndarray        # unitary completion on a (x) b with U(|0>_a (x) phi) = V phi
    ancilla_dim: int
    psi_abc: np.ndarray     # pure output vector on a (x) b (x) c

    def shape_abc(self, d: int) -> DimShape:
        return DimShape([self.ancilla_dim, d, d], ["a", "b", "c"])


def stinespring(
    op: ch.QuantumOperation, tols: Tolerances = DEFAULT_TOLS, pivot_order: list[int] | None = None
) -> StinespringForm:
    """Dilate a square CPTP operation to a unitary on ancilla (x) system.

    The ancilla dimension is the numerical Kraus rank; feeding the b-side of
    a maximally entangled pair through V yields the pure state psi_abc whose
    a-marginal complement reproduces the normalized Choi state.
    """
    if op.d_in != op.d_out:
        raise ShapeError("stinespring dilation requires a square operation")
    d = op.d_in
    kraus = op.kraus_ops()
    r = len(kraus)
    v = np.vstack(kraus)  # row blocks: ancilla index slow
    dev = mk.max_abs(v.conj().T @ v - np.eye(d))
    if dev > tols.herm_tol:
        raise ValidationError(f"operation is not trace preserving: isometry defect {dev:.3e}")
    if r == 1:
        u_ab = v.copy()
    else:
        u_ab = complete_isometry(v, pivot_order)
    # psi[(k, i), j] = V[(k, i), j] / sqrt(d): (V (x) I_c) applied to |beta_bc>
    psi = (v / np.sqrt(d)).reshape(-1)
    return StinespringForm(v, u_ab, r, psi)


def operation_entropy(op: ch.QuantumOperation, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Entropy of the normalized Choi state of a CP map, in nats.

    For trace-preserving maps this equals the entropy of the ancilla
    discarded by any unitary dilation.
    """
    w = mk.clamp_spectrum(np.linalg.eigvalsh(op.choi_state)[::-1], tols)
    return st.entropy_of_spectrum(w)


# ---------------------------------------------------------------------------
# Isometric dilations and the system+ancilla superchannel image
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsometricOperation:
    """A[sigma] = V (sigma (x) alpha) V^dag with V unitary on S (x) A."""

    v: np.ndarray
    alpha: DensityMatrix
    tols: InitVar[Tolerances] = DEFAULT_TOLS

    def __post_init__(self, tols: Tolerances):
        object.__setattr__(self, "v", mk.as_matrix(self.v))
        ch.check_unitary(self.v, tols, what="isometric-dilation unitary")
        if self.v.shape[0] % self.alpha.dim != 0:
            raise ShapeError(
                f"unitary dim {self.v.shape[0]} does not factor over ancilla dim {self.alpha.dim}"
            )

    @property
    def d_a(self) -> int:
        return self.alpha.dim

    @property
    def d_s(self) -> int:
        return self.v.shape[0] // self.alpha.dim


def isometry_choi_state(iso: IsometricOperation, tols: Tolerances = DEFAULT_TOLS) -> DensityMatrix:
    """Normalized Choi state of sigma -> V (sigma (x) alpha) V^dag.

    This is the unit-trace representation of the isometric dilation on
    which a normalized system+ancilla superchannel acts; pairing it with
    mmap outputs lets monotonicity be probed without naming a bound.
    """
    d_s, d_a = iso.d_s, iso.d_a
    # Kraus K_j = V (I_S (x) sqrt(lam_j) |a_j>), mapping S -> S (x) A
    ks = [iso.v @ np.kron(np.eye(d_s, dtype=complex), f[:, None])
          for f in mk.psd_factors(*iso.alpha.eig(tols))]
    op = ch.from_kraus(ks, tols=tols)
    return density(
        op.choi_state, DimShape([d_s * d_a, d_s], ["out", "in"]), tols=tols
    )


def mmap(
    sc: sup.Superchannel, iso: IsometricOperation, tols: Tolerances = DEFAULT_TOLS
) -> tuple[DensityMatrix, float]:
    """Joint system+ancilla image Upsilon of an isometric dilation, and the
    entropy change delta_S = S(Upsilon) - S(tr_E rho_SE).

    Upsilon = tr_E[(U_SE (x) I_A) P (V_SA (x) I_E)(rho_SE (x) alpha)(...)^dag P^dag]
    in the canonical S, E, A ordering, with P the explicit subsystem
    permutation bringing V's S, A grouping back to S, E, A.
    """
    if iso.d_s != sc.d_s:
        raise ShapeError(f"isometry system dim {iso.d_s} != superchannel system dim {sc.d_s}")
    d_s, d_e, d_a = sc.d_s, sc.d_e, iso.d_a
    shape_sea = DimShape([d_s, d_e, d_a], ["S", "E", "A"])
    rho_sea = mk.tensor(sc.rho_se.mat, iso.alpha.mat)
    # apply V on (S, A): permute S,E,A -> S,A,E, act, permute back
    p_sae = mk.permutation_matrix(shape_sea, ["S", "A", "E"])
    v_full = p_sae.conj().T @ mk.tensor(iso.v, np.eye(d_e)) @ p_sae
    staged = v_full @ rho_sea @ v_full.conj().T
    u_full = mk.tensor(sc.u, np.eye(d_a))
    evolved = u_full @ staged @ u_full.conj().T
    ups = mk.partial_trace(evolved, shape_sea, ["S", "A"])
    ups = (ups + ups.conj().T) / 2.0
    upsilon = density(ups, DimShape([d_s, d_a], ["S", "A"]), tols=tols)
    sigma = sc.sys_marginal
    delta_s = st.von_neumann_entropy(upsilon, tols) - st.von_neumann_entropy(sigma, tols)
    return upsilon, delta_s
