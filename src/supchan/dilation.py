"""The system+ancilla image of a superchannel under an isometric dilation
A[sigma] = V (sigma (x) alpha) V^dag of an operation (V unitary on S (x) A,
alpha an ancilla state), which tracks the entropic cost of implementing the
operation.  The channel it induces on the system alone is
``channels.channels_from_dilations([v], [alpha])``.
"""

from __future__ import annotations

import numpy as np

from . import channels as ch
from . import matkernel as mk
from . import states as st
from . import superchannel as sup
from .config import Tolerances
from .matkernel import ShapeError
from .states import DensityMatrix


def mmap_block(scs: list[sup.Superchannel], vs: list[np.ndarray], alphas: list[DensityMatrix],
               tols: Tolerances) -> tuple[list[DensityMatrix], list[float]]:
    """Joint system+ancilla image Upsilon of the isometric dilation (V, alpha)
    of each trial of a block, all of one (d_S, d_E, d_A), and the entropy
    change delta_S = S(Upsilon) - S(tr_E rho_SE), with the bits of each on
    its own.

    Upsilon = tr_E[(U_SE (x) I_A) V_SEA (rho_SE (x) alpha) V_SEA^dag (U_SE (x) I_A)^dag]
    in the canonical S, E, A ordering, with V_SEA the entries of V_SA (x) I_E
    moved from the (S, A, E) index order to (S, E, A); each step is stacked,
    and the lifts of V and rho_SE are dropped before U's product is formed.
    """
    vs = mk.as_matrix(np.array(vs), stack=True)
    ch.check_unitary(vs, tols, what="isometric-dilation unitary")
    d_a = alphas[0].dim
    if vs.shape[-1] % d_a != 0:
        raise ShapeError(f"unitary dim {vs.shape[-1]} does not factor over ancilla dim {d_a}")
    d_s, d_e = scs[0].d_s, scs[0].d_e
    if vs.shape[-1] // d_a != d_s:
        raise ShapeError(f"isometry system dim {vs.shape[-1] // d_a} != superchannel system dim {d_s}")
    rho_sea = mk.kron_stack(np.array([sc.rho_se.mat for sc in scs]), np.array([a.mat for a in alphas]))
    v_full = (mk.kron_stack(vs, np.eye(d_e, dtype=complex)).reshape(-1, d_s, d_a, d_e, d_s, d_a, d_e)
              .transpose(0, 1, 3, 2, 4, 6, 5).reshape(-1, d_s * d_e * d_a, d_s * d_e * d_a))
    staged = v_full @ rho_sea @ mk.dagger(v_full)
    del rho_sea, v_full
    u_full = mk.kron_stack(np.array([sc.u for sc in scs]), np.eye(d_a, dtype=complex))
    ups = mk.partial_trace(u_full @ staged @ mk.dagger(u_full), (d_s, d_e, d_a), [0, 2])
    upsilons = st.densities((ups + mk.dagger(ups)) / 2.0, tols)
    sigmas = sup.marginals(scs, 0, tols)
    s_ups, s_sig = (st.entropies(st.decompose(rhos)[0]) for rhos in (upsilons, sigmas))
    return upsilons, [a - b for a, b in zip(s_ups, s_sig)]
