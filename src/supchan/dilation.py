"""Isometric dilations of an operation and the system+ancilla image of a
superchannel, which tracks the entropic cost of implementing the operation.

The isometric-dilation map works in the canonical S (x) E (x) A ordering,
with one subsystem permutation bringing V's S (x) A grouping into it.  The
channel an isometric dilation induces on the system alone is
``channels.channel_from_dilation(iso.v, iso.alpha)``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import channels as ch
from . import matkernel as mk
from . import states as st
from . import superchannel as sup
from .config import DEFAULT_TOLS, Tolerances
from .matkernel import DimShape, ShapeError
from .states import DensityMatrix, density


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
