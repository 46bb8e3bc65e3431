"""Completely positive maps in Kraus and Choi form.

Choi convention: ``choi = sum_ij A(|i><j|) (x) |i><j|`` on output (x) input,
i.e. the output factor is the slow index and the (unnormalized) Choi of a
trace-preserving map has trace d_in.  Equivalently
``choi = sum_k vec(K_k) vec(K_k)^dag`` with row-major vec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matkernel as mk
from .config import DEFAULT_TOLS, Tolerances
from .matkernel import DimShape, ShapeError, ValidationError
from .states import DensityMatrix, density, ginibre

CP_TOL = 1e-9   # Choi min eigenvalue above -CP_TOL means completely positive
TP_TOL = 1e-9   # ||tr_out(choi) - I|| below TP_TOL means trace preserving


class FixedPointError(RuntimeError):
    """Fixed-point extraction failed to converge."""


@dataclass(frozen=True)
class QuantumOperation:
    """A CP map held in dual form: optional (r, d_out, d_in) Kraus stack plus Choi matrix.

    ``bipartite`` optionally records a (d_P, d_Q) tensor split shared by the
    input and output spaces, enabling marginal operations.
    """

    d_in: int
    d_out: int
    choi: np.ndarray
    kraus: np.ndarray | None = None
    bipartite: tuple[int, int] | None = None
    _tols: Tolerances = field(default=DEFAULT_TOLS, repr=False)

    @cached_property
    def is_trace_preserving(self) -> bool:
        return bool(trace_preserving(self.choi, self.d_out, self.d_in))

    @property
    def choi_state(self) -> np.ndarray:
        """Normalized Choi A_d = choi / d_in, a unit-trace PSD matrix."""
        return self.choi / self.d_in

    def kraus_ops(self) -> np.ndarray:
        if self.kraus is not None:
            return self.kraus
        return kraus_of(self, self._tols)


def tr_out_choi(choi: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    shape = DimShape([d_out, d_in], ["out", "in"])
    return mk.partial_trace(choi, shape, ["in"])


def trace_preserving(choi: np.ndarray, d_out: int, d_in: int):
    """Whether ||tr_out(choi) - I|| is within TP_TOL, for a Choi matrix or
    for each of a stack."""
    return mk.max_abs(tr_out_choi(choi, d_out, d_in) - np.eye(d_in)) <= TP_TOL


def choi_from_kraus(kraus: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    d_out, d_in = kraus[0].shape
    c = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for k in kraus:
        v = np.asarray(k, dtype=complex).reshape(-1)
        c += np.outer(v, v.conj())
    return c


def from_kraus(
    kraus: list[np.ndarray],
    bipartite: tuple[int, int] | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> QuantumOperation:
    """Build an operation from its Kraus operators."""
    kraus = [mk.as_matrix(k) for k in kraus]
    d_out, d_in = kraus[0].shape
    if any(k.shape != (d_out, d_in) for k in kraus):
        raise ShapeError("Kraus operators have inconsistent shapes")
    return QuantumOperation(d_in, d_out, choi_from_kraus(kraus), np.array(kraus), bipartite, tols)


def from_choi(
    choi: np.ndarray,
    d_out: int,
    d_in: int,
    bipartite: tuple[int, int] | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> QuantumOperation:
    """Build an operation from its (unnormalized, trace-d_in) Choi matrix."""
    choi = mk.as_matrix(choi)
    if choi.shape != (d_out * d_in, d_out * d_in):
        raise ShapeError(f"Choi shape {choi.shape} != {(d_out * d_in,) * 2}")
    check_cp(choi, tols)
    return QuantumOperation(d_in, d_out, choi, None, bipartite, tols)


def check_cp(choi: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> None:
    """``from_choi``'s checks of a Choi matrix, or of each of a stack:
    Hermitian relative to its largest entry, and CP within CP_TOL."""
    mk.check_hermitian(choi, tols.herm_tol * np.maximum(1.0, mk.max_abs(choi)), "Choi matrix")
    w = np.linalg.eigvalsh((choi + mk.dagger(choi)) / 2.0)
    mk.fail_first(w[..., 0] < -CP_TOL * np.maximum(1.0, w[..., -1]), w[..., 0],
                  "Choi matrix has eigenvalue {:.3e}: map is not CP")


def kraus_of(op: QuantumOperation, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Extract Kraus operators from the Choi matrix.

    Eigenvalues below psd_floor are dropped, so the returned rank is the
    numerical Kraus rank.  Kraus sets are unique only up to isometric
    mixing; compare channels through their action, not their Kraus lists.
    """
    return mk.psd_factors(*mk.herm_eig(op.choi, tols)).reshape(-1, op.d_out, op.d_in)


def apply(op: QuantumOperation, rho: DensityMatrix, tols: Tolerances = DEFAULT_TOLS) -> DensityMatrix:
    """Apply a trace-preserving map: sum_k K rho K^dag.  ``apply_matrix``
    gives the unnormalized output of any CP map."""
    if rho.dim != op.d_in:
        raise ShapeError(f"state dim {rho.dim} != operation d_in {op.d_in}")
    if not op.is_trace_preserving:
        raise ValidationError("operation is not trace preserving")
    out = apply_matrix(op, rho.mat)
    out = (out + out.conj().T) / 2.0
    return density(out, DimShape([op.d_out], [rho.shape.labels[0]]), tols=tols)


def apply_matrix(op: QuantumOperation, mat: np.ndarray) -> np.ndarray:
    """Linear action on an arbitrary matrix (no TP/validity checks)."""
    if op.kraus is not None:
        out = np.zeros((op.d_out, op.d_out), dtype=complex)
        for k in op.kraus:
            out += k @ mat @ k.conj().T
        return out
    return apply_choi(op.choi, mat, op.d_out, op.d_in)


def apply_choi(choi: np.ndarray, mat: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """Choi contraction tr_in[choi (I (x) mat^T)]."""
    c = choi.reshape(d_out, d_in, d_out, d_in)
    return np.einsum("aibj,ij->ab", c, np.asarray(mat, dtype=complex))


# ---------------------------------------------------------------------------
# Named channels
# ---------------------------------------------------------------------------

def replace_channel(target: DensityMatrix, tols: Tolerances = DEFAULT_TOLS) -> QuantumOperation:
    """Map on the space of ``target`` that discards its input and prepares ``target``.

    Its Choi matrix is target (x) I, so the normalized Choi is target (x) I/d.
    """
    d = target.dim
    ks = []
    for f in mk.psd_factors(*target.eig(tols)):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[:, j] = f
            ks.append(k)
    return from_kraus(ks, tols=tols)


def check_unitary(u: np.ndarray, tols: Tolerances = DEFAULT_TOLS, what: str = "matrix") -> None:
    u = mk.as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"{what} is not square: {u.shape}")
    dev = mk.max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    if dev > tols.herm_tol:
        raise ValidationError(f"{what} is not unitary: max deviation {dev:.3e}")


def swap_unitary(d1: int, d2: int | None = None) -> np.ndarray:
    """SWAP between two subsystems (equal dims required for a square swap)."""
    d2 = d1 if d2 is None else d2
    shape = DimShape([d1, d2], ["1", "2"])
    return mk.permutation_matrix(shape, ["2", "1"])


def partial_swap_unitary(d: int, theta: float) -> np.ndarray:
    """cos(theta) I + i sin(theta) SWAP on two d-dimensional factors."""
    s = swap_unitary(d)
    return np.cos(theta) * np.eye(d * d, dtype=complex) + 1j * np.sin(theta) * s


# ---------------------------------------------------------------------------
# Dilations and fixed points
# ---------------------------------------------------------------------------

def channel_from_dilation(
    u: np.ndarray, tau: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
) -> QuantumOperation:
    """The channel sigma -> tr_E[U (sigma (x) tau) U^dag].

    ``u`` acts on system (x) environment with the system on the slow index.
    Kraus operators are K_(i,j) = sqrt(lam_j) (I (x) <i|) U (I (x) |v_j>)
    with (lam_j, v_j) the eigenpairs of tau.
    """
    u = mk.as_matrix(u)
    d_e = tau.dim
    d_tot = u.shape[0]
    if d_tot % d_e != 0:
        raise ShapeError(f"unitary dim {d_tot} does not factor over environment dim {d_e}")
    d_s = d_tot // d_e
    check_unitary(u, tols, what="dilation unitary")
    w, V = mk.herm_eig(tau.mat, tols)
    u4 = u.reshape(d_s, d_e, d_s, d_e)
    ks = []
    for lam, v in zip(w, V.T):
        if lam <= 0.0:
            continue
        # block[i] = (I (x) <i|) U (I (x) |v>), one Kraus per env output index
        block = np.einsum("aibj,j->iab", u4, v)
        for i in range(d_e):
            ks.append(np.sqrt(lam) * block[i])
    return from_kraus(ks, tols=tols)


def transfer_matrix(op: QuantumOperation) -> np.ndarray:
    """Superoperator on row-major vec(rho): sum of K (x) conj(K) in Kraus order."""
    ks = op.kraus_ops()
    t = np.zeros((op.d_out * op.d_out, op.d_in * op.d_in), dtype=complex)
    for term in mk.kron_stack(ks, ks.conj()):
        t += term
    return t


def trace_norm(m: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


@dataclass(frozen=True)
class NessResult:
    """A fixed point of a channel together with convergence diagnostics."""

    state: DensityMatrix
    residual: float
    method: str              # "eigen" or "cesaro"
    fixed_space_dim: int


def _repair_psd(m: np.ndarray) -> np.ndarray | None:
    """Hermitize, clamp small negative eigenvalues, renormalize; None if the
    negative part is too large to be float noise."""
    m = (m + m.conj().T) / 2.0
    tr = np.trace(m).real
    if abs(tr) < 1e-12:
        return None
    m = m / tr
    w, V = np.linalg.eigh(m)
    if w[0] < -1e-8:
        return None
    w = np.clip(w, 0.0, None)
    m = (V * w) @ V.conj().T
    return m / np.trace(m).real


def fixed_point(op: QuantumOperation, tols: Tolerances = DEFAULT_TOLS) -> NessResult:
    """Extract a steady state of a trace-preserving channel.

    Primary route: eigenvector of the d^2 x d^2 superoperator at the
    eigenvalue nearest 1.  When the fixed space is degenerate or the
    eigenvector cannot be repaired into a state, falls back to the Cesaro
    average (1/N) sum_n Phi^n(I/d) with N doubling up to 2^16, which always
    converges onto a valid fixed state for trace-preserving maps.
    """
    if op.d_in != op.d_out:
        raise ShapeError("fixed point requires a square operation")
    if not op.is_trace_preserving:
        raise ValidationError("fixed point requires a trace-preserving operation")
    d = op.d_in
    t = transfer_matrix(op)
    evals, evecs = np.linalg.eig(t)
    fixed_space_dim = int(np.sum(np.abs(evals - 1.0) < 1e-8))

    def finish(mat: np.ndarray, method: str) -> NessResult | None:
        repaired = _repair_psd(mat)
        if repaired is None:
            return None
        resid = trace_norm(apply_matrix(op, repaired) - repaired)
        if resid > tols.fp_tol:
            return None
        state = density(repaired, DimShape([d], ["S"]), tols=tols)
        return NessResult(state, resid, method, fixed_space_dim)

    if fixed_space_dim == 1:
        idx = int(np.argmin(np.abs(evals - 1.0)))
        cand = evecs[:, idx].reshape(d, d)
        res = finish(cand, "eigen")
        if res is not None:
            return res

    # Cesaro fallback from the maximally mixed state.
    x = np.eye(d, dtype=complex) / d
    total = x.copy()
    n = 1
    while n <= (1 << 16):
        res = finish(total / n, "cesaro")
        if res is not None:
            return res
        # double the number of averaged iterates
        for _ in range(n):
            x = apply_matrix(op, x)
            total += x
        n *= 2
    raise FixedPointError(
        f"Cesaro average did not reach residual {tols.fp_tol} within 2^16 iterations "
        f"(fixed_space_dim={fixed_space_dim})"
    )


def marginal_chois(choi: np.ndarray, bipartite: tuple[int, int], keep: str,
                   tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """The Choi matrix of the marginal operation X -> tr_disc[op(X (x) I/d_disc)]
    on the kept subsystem, for the Choi matrix of an operation on P (x) Q or
    for each of a stack, with ``from_choi``'s checks: the partial trace over
    the discarded (out, in) pair, rescaled to trace d_in of the kept part."""
    if keep not in ("P", "Q"):
        raise ValueError(f"keep must be 'P' or 'Q', got {keep!r}")
    d_p, d_q = bipartite
    shape = DimShape([d_p, d_q, d_p, d_q], ["Po", "Qo", "Pi", "Qi"])
    if keep == "P":
        reduced = mk.partial_trace(choi, shape, ["Po", "Pi"]) / d_q
    else:
        reduced = mk.partial_trace(choi, shape, ["Qo", "Qi"]) / d_p
    check_cp(reduced, tols)
    return reduced


# ---------------------------------------------------------------------------
# Random channels
# ---------------------------------------------------------------------------

def bcsz_draw(d: int, kraus_rank: int, rng: np.random.Generator, d_out: int | None = None) -> np.ndarray:
    """The Ginibre factor G of one random CPTP map (``random_cptps``), drawn
    from ``rng``.

    A rank below ceil(d / d_out), the least Kraus rank of a CPTP map, would
    leave R = tr_out W singular and is refused before the draw.
    """
    d_out = d if d_out is None else d_out
    least = -(-d // d_out)
    if kraus_rank < least:
        raise ValueError(f"kraus_rank {kraus_rank} is below {least}, the least Kraus rank "
                         f"of a CPTP map from dimension {d} to {d_out}")
    return ginibre(d_out * d, kraus_rank, rng)


def random_cptps(d: int, draws: list[np.ndarray], d_out: int | None = None,
                 bipartite: tuple[int, int] | None = None, tols: Tolerances = DEFAULT_TOLS) -> list[QuantumOperation]:
    """The random CPTP map of each ``bcsz_draw``, by the Wishart/BCSZ
    construction: the PSD Wishart matrix W = G G^dag on out (x) in is
    projected onto the trace-preserving slice via
    W -> (I (x) R^-1/2) W (I (x) R^-1/2) with R = tr_out W.  The projection,
    ``from_choi``'s checks and the Kraus extraction run once over the stack,
    with the bits of each map."""
    d_out = d if d_out is None else d_out
    w = mk.stack([g @ g.conj().T for g in draws])
    r = tr_out_choi(w, d_out, d)
    rw, rv = np.linalg.eigh((r + mk.dagger(r)) / 2.0)
    rw = np.clip(rw, 1e-14, None)
    r_isqrt = (rv * (rw ** -0.5)[..., None, :]) @ mk.dagger(rv)
    lift = mk.kron_stack(np.eye(d_out), r_isqrt)
    choi = lift @ w @ mk.dagger(lift)
    choi = mk.as_matrix((choi + mk.dagger(choi)) / 2.0, stack=True)
    check_cp(choi, tols)
    # Kraus form is materialized so that apply() uses the cheaper route.
    w, v = mk.herm_eig(choi, tols)
    kraus = mk.psd_factors(w, v).reshape(-1, d_out, d)
    ends = np.cumsum((w > 0.0).reshape(len(draws), -1).sum(-1)).tolist()
    return [QuantumOperation(d, d_out, c, kraus[a:b], bipartite, tols)
            for c, a, b in zip(choi.reshape(len(draws), *choi.shape[-2:]), [0] + ends, ends)]
