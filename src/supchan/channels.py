"""Completely positive maps in Kraus and Choi form.

Choi convention: ``choi = sum_ij A(|i><j|) (x) |i><j|`` on output (x) input,
i.e. the output factor is the slow index and the (unnormalized) Choi of a
trace-preserving map has trace d_in.  Equivalently
``choi = sum_k vec(K_k) vec(K_k)^dag`` with row-major vec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from . import states as st
from .config import Tolerances
from .matkernel import ShapeError
from .states import DensityMatrix, ginibre

CP_TOL = 1e-9   # Choi min eigenvalue above -CP_TOL means completely positive
TP_TOL = 1e-9   # ||tr_out(choi) - I|| below TP_TOL means trace preserving


class FixedPointError(RuntimeError):
    """A channel has no candidate steady state within fp_tol."""


@dataclass(frozen=True)
class QuantumOperation:
    """A CP map held in dual form: an (r, d_out, d_in) Kraus stack and its Choi matrix.

    It carries no tensor split of its spaces: ``marginal_chois`` and
    ``bounds.qdpi_block`` take the split from the systems it acts on.
    """

    d_in: int
    d_out: int
    choi: np.ndarray
    kraus: np.ndarray

    @property
    def choi_state(self) -> np.ndarray:
        """Normalized Choi A_d = choi / d_in, a unit-trace PSD matrix."""
        return self.choi / self.d_in


def tr_out_choi(choi: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    return mk.partial_trace(choi, (d_out, d_in), [1])


def from_kraus(kraus: list[np.ndarray]) -> QuantumOperation:
    """Build an operation from its Kraus operators."""
    kraus = [mk.as_matrix(k) for k in kraus]
    if any(k.shape != kraus[0].shape for k in kraus):
        raise ShapeError("Kraus operators have inconsistent shapes")
    return from_kraus_runs(np.array(kraus), [len(kraus)])[0]


def from_kraus_runs(kraus: np.ndarray, counts) -> list[QuantumOperation]:
    """The operation of each run of ``counts`` consecutive Kraus operators of
    a stack, with Choi matrix sum_k vec(K_k) vec(K_k)^dag in Kraus order."""
    kraus = mk.as_matrix(kraus, stack=True)
    vecs = kraus.reshape(len(kraus), -1)
    chois = mk.sum_runs(lambda i, has: vecs[i, :, None] * vecs[i].conj()[:, None, :], counts)
    d_out, d_in = kraus.shape[-2:]
    ends = np.cumsum(counts).tolist()
    return [QuantumOperation(d_in, d_out, c, kraus[e - n:e]) for c, n, e in zip(chois, counts, ends)]


def from_chois(chois: np.ndarray, d_out: int, d_in: int, tols: Tolerances) -> list[QuantumOperation]:
    """The operation of each (unnormalized, trace-d_in) Choi matrix of a
    stack, or of one matrix, with Kraus operators sqrt(lam) * v for each
    eigenpair with lam > 0 of the decomposition that its CP check took (the
    numerical Kraus rank; compare channels through their action, not their
    Kraus lists).  The check and the Kraus extraction run once over the stack."""
    n = d_out * d_in
    chois = mk.as_matrix(chois, stack=True)
    if chois.shape[-2:] != (n, n):
        raise ShapeError(f"Choi shape {chois.shape[-2:]} != {(n, n)}")
    chois = chois.reshape(-1, n, n)
    w, v = check_cp(chois, tols)
    kraus = mk.psd_factors(w, v).reshape(-1, d_out, d_in)
    ends = np.cumsum((w > 0.0).sum(-1)).tolist()
    return [QuantumOperation(d_in, d_out, c, kraus[a:b]) for c, a, b in zip(chois, [0] + ends, ends)]


def check_cp(choi: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """``from_chois``' checks of a Choi matrix, or of each of a stack:
    Hermitian relative to its largest entry, and CP within CP_TOL on the
    eigenvalues of the one ``np.linalg.eigh`` of (choi + choi^dag) / 2;
    returns that decomposition as ``mk.herm_eig_of`` returns it, after its
    reconstruction check and clamp."""
    mk.check_hermitian(choi, tols.herm_tol * np.maximum(1.0, mk.max_abs(choi)), "Choi matrix")
    w, v = np.linalg.eigh((choi + mk.dagger(choi)) / 2.0)
    mk.fail_first(w[..., 0] < -CP_TOL * np.maximum(1.0, w[..., -1]), w[..., 0],
                  "Choi matrix has eigenvalue {:.3e}: map is not CP")
    return mk.herm_eig_of(choi, w, v, tols)


def require_trace_preserving(ops: list[QuantumOperation], message: str) -> None:
    """Raise ``ValidationError(message)`` unless every operation, all of one
    size, is trace preserving: ||tr_out(choi) - I|| within TP_TOL, checked
    in one stacked step."""
    d_out, d_in = ops[0].d_out, ops[0].d_in
    dev = mk.max_abs(tr_out_choi(np.array([op.choi for op in ops]), d_out, d_in) - np.eye(d_in))
    mk.fail_first(dev > TP_TOL, dev, message)


def apply_matrices(ops: list[QuantumOperation], mats: np.ndarray) -> np.ndarray:
    """The linear action of each square operation on its matrix of a stack
    (no TP/validity checks): sum_k K X K^dag added in Kraus order."""
    if not ops:
        return np.empty_like(mats, dtype=complex)
    ks = np.concatenate([op.kraus for op in ops])
    return mk.sum_runs(lambda i, has: ks[i] @ mats[has] @ mk.dagger(ks[i]), [len(op.kraus) for op in ops])


# ---------------------------------------------------------------------------
# Named channels
# ---------------------------------------------------------------------------

def replace_channels(targets: list[DensityMatrix]) -> list[QuantumOperation]:
    """The map on the space of each target, all of one dimension, that
    discards its input and prepares the target: Kraus operators
    sqrt(lam) |v><j| for each eigenpair with lam > 0 and each j, so Choi
    matrix target (x) I and normalized Choi target (x) I/d."""
    d = targets[0].dim
    w, v = st.decompose(targets)
    f = mk.psd_factors(w, v)
    kraus = np.zeros((len(f), d, d, d), dtype=complex)
    kraus[:, np.arange(d), :, np.arange(d)] = f
    return from_kraus_runs(kraus.reshape(-1, d, d), ((w > 0.0).sum(-1) * d).tolist())


def check_unitary(u: np.ndarray, tols: Tolerances, what: str = "matrix") -> None:
    """Refuse a matrix, or a stack, that is not square or deviates from
    unitarity by more than herm_tol."""
    u = mk.as_matrix(u, stack=True)
    if u.shape[-1] != u.shape[-2]:
        raise ShapeError(f"{what} is not square: {u.shape}")
    dev = mk.max_abs(mk.dagger(u) @ u - np.eye(u.shape[-1]))
    mk.fail_first(dev > tols.herm_tol, dev, f"{what} is not unitary: max deviation {{:.3e}}")


def partial_swap_unitary(d: int, theta: float) -> np.ndarray:
    """cos(theta) I + i sin(theta) SWAP on two d-dimensional factors."""
    s = np.eye(d * d, dtype=complex).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)
    return np.cos(theta) * np.eye(d * d, dtype=complex) + 1j * np.sin(theta) * s


# ---------------------------------------------------------------------------
# Dilations and fixed points
# ---------------------------------------------------------------------------

def channels_from_dilations(us: list[np.ndarray], taus: list[DensityMatrix]) -> list[QuantumOperation]:
    """The channel sigma -> tr_E[U (sigma (x) tau) U^dag] of each (U, tau)
    pair, all of one size, U on system (x) environment with the system on
    the slow index: Kraus K_(j,i) = sqrt(lam_j) (I (x) <i|) U (I (x) |v_j>),
    for the eigenpairs (lam_j, v_j) of tau with lam_j > 0, in that order.
    Each U is one that its caller has checked unitary."""
    us = mk.as_matrix(np.array(us), stack=True)
    d_e = taus[0].dim
    d_tot = us.shape[-1]
    if d_tot % d_e != 0:
        raise ShapeError(f"unitary dim {d_tot} does not factor over environment dim {d_e}")
    d_s = d_tot // d_e
    w, v = st.decompose(taus)
    pos = w > 0.0
    counts = pos.sum(-1)
    u4 = us.reshape(-1, d_s, d_e, d_s, d_e)[np.repeat(np.arange(len(us)), counts)]
    # blocks[n, i] = (I (x) <i|) U (I (x) |v>), one Kraus per env output index
    blocks = np.einsum("zaibj,zj->ziab", u4, v.swapaxes(-1, -2)[pos])
    kraus = np.sqrt(w[pos])[:, None, None, None] * blocks
    return from_kraus_runs(kraus.reshape(-1, d_s, d_s), (counts * d_e).tolist())


def transfer_matrices(ops: list[QuantumOperation]) -> np.ndarray:
    """Superoperator on row-major vec(rho) of each operation: the sum of
    K (x) conj(K) in Kraus order."""
    k = np.concatenate([op.kraus for op in ops])
    return mk.sum_runs(lambda i, has: mk.kron_stack(k[i], k[i].conj()), [len(op.kraus) for op in ops])


@dataclass(frozen=True)
class NessResult:
    """A fixed point of a channel together with convergence diagnostics."""

    state: DensityMatrix
    residual: float
    method: str              # "eigen" or "cesaro"
    fixed_space_dim: int


def _steady_states(ops: list[QuantumOperation], mats: np.ndarray, method: str, dims: np.ndarray,
                   tols: Tolerances) -> list[NessResult | None]:
    """Each candidate of a stack repaired into a state of its operation:
    Hermitize, renormalize, clamp small negative eigenvalues, renormalize.
    None where the trace vanishes, the negative part is too large to be
    float noise, or the residual ||Phi(e) - e||_1 exceeds fp_tol."""
    out: list[NessResult | None] = [None] * len(ops)
    m = (mats + mk.dagger(mats)) / 2.0
    tr = np.trace(m, axis1=-2, axis2=-1).real
    live = np.flatnonzero(~(abs(tr) < 1e-12))
    w, v = np.linalg.eigh(m[live] / tr[live, None, None])
    keep = ~(w[:, 0] < -1e-8)
    live, w, v = live[keep], np.clip(w[keep], 0.0, None), v[keep]
    m = (v * w[:, None, :]) @ mk.dagger(v)
    m = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    resid = np.linalg.svd(apply_matrices([ops[b] for b in live], m) - m, compute_uv=False).sum(-1)
    good = ~(resid > tols.fp_tol)
    states = st.densities(m[good], tols)
    for b, r, state in zip(live[good].tolist(), resid[good].tolist(), states):
        out[b] = NessResult(state, r, method, int(dims[b]))
    return out


def fixed_points(ops: list[QuantumOperation], tols: Tolerances) -> list[NessResult]:
    """A steady state of each trace-preserving channel of a list, all of one
    dimension, with the bits of each on its own.

    Primary route: eigenvector of the d^2 x d^2 superoperator at the
    eigenvalue nearest 1, all superoperators in one stacked ``eig``.  When
    the fixed space is degenerate or the eigenvector cannot be repaired
    into a state, the Cesaro route takes I/d if it is fixed, and otherwise
    the limit of the Cesaro average (1/N) sum_n Phi^n(I/d): the part of I/d
    in the eigenvalue-1 eigenspace, from one stacked ``solve`` against the
    eigenvectors of the same ``eig``.  Raises ``FixedPointError`` for a
    channel with no candidate within fp_tol.
    """
    for op in ops:
        if op.d_in != op.d_out:
            raise ShapeError("fixed point requires a square operation")
    require_trace_preserving(ops, "fixed point requires a trace-preserving operation")
    d = ops[0].d_in
    evals, evecs = np.linalg.eig(transfer_matrices(ops))
    near = np.abs(evals - 1.0)
    fixed = near < 1e-8
    dims = np.sum(fixed, axis=-1)
    eigen = np.flatnonzero(dims == 1)
    cands = evecs[eigen, :, np.argmin(near[eigen], axis=-1)].reshape(-1, d, d)
    out = [None] * len(ops)

    def settle(idx, mats, method):
        for b, res in zip(idx, _steady_states([ops[b] for b in idx], mats, method, dims[idx], tols)):
            out[b] = res
        return [b for b, res in enumerate(out) if res is None]

    rest = settle(eigen.tolist(), cands, "eigen")
    mixed = np.broadcast_to(np.eye(d, dtype=complex) / d, (len(ops), d, d))
    if rest:
        rest = settle(rest, mixed[rest], "cesaro")
    if rest:
        try:
            coef = np.linalg.solve(evecs[rest], mixed[rest].reshape(-1, d * d, 1))
        except np.linalg.LinAlgError:
            pass    # singular eigenvectors give no limit: refused below
        else:
            rest = settle(rest, (evecs[rest] @ np.where(fixed[rest, :, None], coef, 0.0)).reshape(-1, d, d), "cesaro")
    if rest:
        raise FixedPointError(f"no steady state within residual {tols.fp_tol} (fixed_space_dim={dims[rest[0]]})")
    return out


def marginal_chois(choi: np.ndarray, dims: tuple[int, int], keep: int, tols: Tolerances) -> np.ndarray:
    """The Choi matrix of the marginal operation X -> tr_disc[op(X (x) I/d_disc)]
    on the kept subsystem (``keep`` 0 for P, 1 for Q), for the Choi matrix of
    an operation on P (x) Q, with ``dims`` = (d_P, d_Q), or for each of a
    stack, with ``from_chois``' checks: the partial trace over the discarded
    (out, in) pair, rescaled to trace d_in of the kept part."""
    reduced = mk.partial_trace(choi, tuple(dims) * 2, [keep, keep + 2]) / dims[1 - keep]
    check_cp(reduced, tols)
    return reduced


# ---------------------------------------------------------------------------
# Random channels
# ---------------------------------------------------------------------------

def bcsz_draw(d: int, kraus_rank: int, rng: np.random.Generator) -> np.ndarray:
    """The Ginibre factor G of one random CPTP map on dimension d
    (``random_cptps``), drawn from ``rng``."""
    return ginibre(d * d, kraus_rank, rng)


def _tp_projection(w: np.ndarray, d: int) -> np.ndarray:
    """W -> (I (x) R^-1/2) W (I (x) R^-1/2), Hermitized and checked finite,
    with R = tr_out W, for each PSD matrix W of a stack on out (x) in."""
    r = tr_out_choi(w, d, d)
    rw, rv = np.linalg.eigh((r + mk.dagger(r)) / 2.0)
    rw = np.clip(rw, 1e-14, None)
    r_isqrt = (rv * (rw ** -0.5)[..., None, :]) @ mk.dagger(rv)
    lift = mk.kron_stack(np.eye(d), r_isqrt)
    choi = lift @ w @ mk.dagger(lift)
    return mk.as_matrix((choi + mk.dagger(choi)) / 2.0, stack=True)


def random_cptps(d: int, draws: list[np.ndarray], tols: Tolerances) -> list[QuantumOperation]:
    """The random CPTP map of each ``bcsz_draw``, by the Wishart/BCSZ
    construction: the PSD Wishart matrix W = G G^dag on out (x) in is
    projected onto the trace-preserving slice (``_tp_projection``), and
    again where an ill-conditioned R left it off by more than float noise
    (1e-12).  The projections and ``from_chois`` run once over the stack,
    with the bits of each map.  A map on P (x) Q is drawn at d = d_P d_Q;
    its split is the caller's."""
    choi = _tp_projection(st.grams(draws), d)
    off = np.flatnonzero(mk.max_abs(tr_out_choi(choi, d, d) - np.eye(d)) > 1e-12)
    if off.size:
        choi[off] = _tp_projection(choi[off], d)
    return from_chois(choi, d, d, tols)
