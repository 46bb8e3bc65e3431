"""Superchannels: the two-time process map built from (U, rho_SE).

A superchannel sends the quantum operation performed on the system between
two times to the system state at the later time,

    act(sc, A) = tr_E[ U ((A (x) Id_E)(rho_SE)) U^dag ].

Two equivalent realizations are kept: the operational formula above
(authoritative), and a six-index tensor M with

    M[a,b,c,p,q,r] = sum_{x,y,z} U[ax,by] rho_SE[cy,rz] conj(U)[px,qz],

contracted against the operation's Choi matrix C as

    sigma'[a,p] = sum_{b,c,q,r} M[a,b,c,p,q,r] C[bc,qr],

where C is indexed (out, in) x (out, in); their agreement is asserted in
the test suite.  ``act_block`` evaluates the operational formula for a
block of (superchannel, operation) pairs in stacked steps, with the bits of
each pair on its own, and returns each sigma' with the decomposition that
its density check took.  ``m_tensors`` computes the M of a block's
superchannels as one stack, for the caller to pass to each stacked
contraction: the normalized M# on unit-trace operation-states A_d = C/d
(``act_normalized_block``, with C = d * A_d), and M1# (x) M2# on joint
ones (``joint_act_normalized``), each with the bits of one M at a time.
The subsequent dynamics sigma -> tr_E[U (sigma (x) tau) U^dag] is
``channels.channels_from_dilations``; its steady state comes from
``neso_block``.  Each action takes the caller's ``tols``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import matkernel as mk
from . import states as st
from .config import Tolerances
from .matkernel import ShapeError
from .states import DensityMatrix, check_density


@dataclass(frozen=True)
class Superchannel:
    u: np.ndarray                 # joint unitary on S (x) E, S on the slow index
    rho_se: DensityMatrix         # initial correlated state on S (x) E, split as (d_s, d_e)
    d_s: int
    d_e: int


def marginals(scs: list[Superchannel], keep: int, tols: Tolerances) -> list[DensityMatrix]:
    """sigma = tr_E rho_SE (``keep`` 0) or tau = tr_S rho_SE (``keep`` 1) of
    each superchannel, all of one (d_S, d_E), checked in one stacked step."""
    dims = (scs[0].d_s, scs[0].d_e)
    return st.densities(mk.partial_trace(np.array([sc.rho_se.mat for sc in scs]), dims, [keep]), tols)


def build(u: np.ndarray, rho_se: DensityMatrix, d_s: int, d_e: int, tols: Tolerances) -> Superchannel:
    """Construct the superchannel for a joint unitary and correlated state on S (x) E."""
    return build_block([u], [rho_se], d_s, d_e, tols)[0]


def build_block(us: list[np.ndarray], rho_ses: list[DensityMatrix], d_s: int, d_e: int,
                tols: Tolerances) -> list[Superchannel]:
    """The superchannel of each (joint unitary, correlated state) pair, all on
    S (x) E of sizes (d_S, d_E), with the unitaries checked in one stacked step."""
    for rho_se in rho_ses:
        if rho_se.dim != d_s * d_e:
            raise ShapeError(f"rho_SE dim {rho_se.dim} != d_S * d_E = {d_s * d_e}")
    us = mk.as_matrix(np.array(us), stack=True)
    if us.shape[-2:] != (d_s * d_e, d_s * d_e):
        raise ShapeError(f"unitary shape {us.shape[-2:]} != joint dim {d_s * d_e}")
    ch.check_unitary(us, tols, what="joint unitary")
    return [Superchannel(u, rho_se, d_s, d_e) for u, rho_se in zip(us, rho_ses)]


def act_block(scs: list[Superchannel], ops: list[ch.QuantumOperation],
              tols: Tolerances) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """sigma' of each (superchannel, operation) pair, all of one (d_S, d_E),
    as a (B, d_S, d_S) stack, with the ``(w, V)`` that its check as density
    matrices took.  Each pair's terms (K (x) I_E) rho_SE (K (x) I_E)^dag are
    added into zeros in Kraus order (``mk.sum_runs``), the j-th of every pair
    from one stacked product, so a pair holds one lifted Kraus operator at a
    time."""
    sc = scs[0]
    for op in ops:
        if op.d_in != sc.d_s or op.d_out != sc.d_s:
            raise ShapeError(f"operation dims ({op.d_out}, {op.d_in}) != system dim {sc.d_s}")
    ch.require_trace_preserving(ops, "act() requires a CPTP operation")
    ks = np.concatenate([op.kraus for op in ops])
    rho = np.array([s.rho_se.mat for s in scs])

    def term(i, has):
        kk = mk.kron_stack(ks[i], np.eye(sc.d_e, dtype=complex))
        return kk @ rho[has] @ mk.dagger(kk)

    joint = mk.sum_runs(term, [len(op.kraus) for op in ops])
    u = np.array([s.u for s in scs])
    evolved = u @ joint @ mk.dagger(u)
    out = mk.partial_trace(evolved, (sc.d_s, sc.d_e), [0])
    out = mk.as_matrix((out + mk.dagger(out)) / 2.0, stack=True)
    return out, check_density(out, tols)


def m_tensors(scs: list[Superchannel]) -> np.ndarray:
    """The six-index tensor M[a, b, c, p, q, r] of each superchannel of a
    block, all of one (d_S, d_E), as one (B, d_S, ..., d_S) stack from one
    stacked contraction (``mk.einsum``)."""
    dims = sorted({(sc.d_s, sc.d_e) for sc in scs})
    if len(dims) != 1:
        raise ShapeError(f"m_tensors needs superchannels of one (d_S, d_E), got {dims}")
    u4 = np.array([sc.u for sc in scs]).reshape(-1, *dims[0], *dims[0])
    r4 = np.array([sc.rho_se.mat for sc in scs]).reshape(-1, *dims[0], *dims[0])
    return mk.einsum("axby,cyrz,pxqz->abcpqr", u4, r4, u4.conj())


def act_normalized_block(ms: np.ndarray, op_states, tols: Tolerances) -> np.ndarray:
    """M#[X] of each (six-index tensor, operation-state) pair of two stacks,
    all of one d_S, as a (B, d_S, d_S) stack checked as density matrices;
    the contractions against the Choi matrices d * X are one ``np.einsum``.

    Each X is a unit-trace PSD operation-state on out (x) in.  M# is linear
    in X and CP; it preserves traces when X lies in the span of
    operation-states of trace-preserving maps (tr_out X = tr(X)/d * I), the
    domain on which it is defined."""
    d = ms.shape[1]
    xs = mk.as_matrix(op_states, stack=True)
    if xs.shape[-2:] != (d * d, d * d):
        raise ShapeError(f"operation-state shape {xs.shape[-2:]} != {(d * d, d * d)}")
    out = np.einsum("Nabcpqr,Nbcqr->Nap", ms, (d * xs).reshape(-1, d, d, d, d))
    out = mk.as_matrix((out + mk.dagger(out)) / 2.0, stack=True)
    check_density(out, tols)
    return out


def joint_act_normalized(m1s: np.ndarray, m2s: np.ndarray, op_states: np.ndarray) -> np.ndarray:
    """(M1# (x) M2#)[X] of each (M1, M2, X) of three stacks, with X ordered
    (P_out, P_in, Q_out, Q_in), as a Hermitian stack from one stacked
    contraction (``mk.einsum``)."""
    d1, d2 = m1s.shape[1], m2s.shape[1]
    x = (d1 * d2) * np.asarray(op_states, dtype=complex).reshape(-1, d1, d1, d2, d2, d1, d1, d2, d2)
    out = mk.einsum("abcpqr,ABCPQR,bcBCqrQR->aApP", m1s, m2s, x).reshape(-1, d1 * d2, d1 * d2)
    return mk.as_matrix((out + mk.dagger(out)) / 2.0, stack=True)


def neso_block(scs: list[Superchannel], tols: Tolerances) -> list[ch.NessResult]:
    """Steady state of the subsequent dynamics of each superchannel of a
    block, all of one (d_S, d_E), with the bits of each on its own: each
    solves e = tr_E[U (e (x) tau) U^dag] with tau = tr_S rho_SE.  The
    marginals, the channels and the fixed points are each one stacked step;
    fixed-point failures propagate.  The steady operation prepares e
    (``channels.replace_channels``): ``act_normalized_block`` maps its
    operation-state e (x) I/d back to e.
    """
    taus = marginals(scs, 1, tols)
    return ch.fixed_points(ch.channels_from_dilations([sc.u for sc in scs], taus), tols)
