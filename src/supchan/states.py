"""Density matrices and entropic functionals.

A state is decomposed once, by the ``eigh`` that ``check_density`` takes,
and every entropy, tr[X log rho] and relative entropy reads it.  Entropies
are in nats; relative entropy is ``float('inf')`` when the first argument
has weight above ``support_tol`` on the kernel of the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matkernel as mk
from .config import Tolerances
from .matkernel import ShapeError


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with the decomposition ``(w, v)``
    that its check took, as ``mk.herm_eig_of`` returns it; all three arrays
    are read-only.  It carries no tensor split: the process that reads a
    state on a composite space holds the sizes of its factors."""

    mat: np.ndarray
    w: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ShapeError(f"density matrix must be square, got {self.mat.shape}")
        for name in ("mat", "w", "v"):
            if getattr(self, name).flags.writeable:
                object.__setattr__(self, name, getattr(self, name).view())
                getattr(self, name).flags.writeable = False

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def density(mat: np.ndarray, *, tols: Tolerances) -> DensityMatrix:
    """Validate a matrix as a density matrix."""
    return densities(mk.as_matrix(mat)[None], tols)[0]


def densities(mats: np.ndarray, tols: Tolerances) -> list[DensityMatrix]:
    """``density`` of each matrix of a stack, with the checks of the stack
    in one step; each keeps the decomposition that its check took, and the
    stack and its decomposition are made read-only once."""
    mats = mk.as_matrix(mats, stack=True)
    if mats.shape[-1] != mats.shape[-2]:
        raise ShapeError(f"density matrix must be square, got {mats.shape[-2:]}")
    mats, (w, v) = mats.view(), check_density(mats, tols)
    for arr in (mats, w, v):
        arr.flags.writeable = False
    return [DensityMatrix(m, wb, vb) for m, wb, vb in zip(mats, w, v)]


def check_density(mats: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """``density``'s checks of each matrix of a stack: Hermitian, unit trace
    and positive semidefinite, the last on the eigenvalues of the one
    ``np.linalg.eigh`` of (m + m^dag) / 2; returns that decomposition as
    ``mk.herm_eig_of`` returns it, after its reconstruction check and clamp."""
    mk.check_hermitian(mats, tols.herm_tol, "density matrix")
    tr = mats.trace(axis1=-2, axis2=-1).real
    mk.fail_first(abs(tr - 1.0) > tols.trace_tol, tr, f"trace {{!r}} is not 1 within {tols.trace_tol}")
    w, v = np.linalg.eigh((mats + mk.dagger(mats)) / 2.0)
    mk.fail_first(w[..., 0] < -tols.psd_floor, w[..., 0], "negative eigenvalue {:.3e} below -psd_floor")
    return mk.herm_eig_of(mats, w, v, tols)


def decompose(rhos: list[DensityMatrix]) -> tuple[np.ndarray, np.ndarray]:
    """The kept ``(w, v)`` of each density matrix of a list, as two stacks."""
    return np.array([r.w for r in rhos]), np.array([r.v for r in rhos])


def row_sums(x: np.ndarray, mask: np.ndarray, by_column: bool = False) -> np.ndarray:
    """The sum of the entries of each row of the last axis of ``x`` where
    ``mask`` (broadcast to its shape) is set, with the bits of the row's own
    sum: a pairwise sum's bits depend on the length of the row, so the rows
    of each count of set entries are summed as one contiguous (rows, count)
    array, never zero padded.  ``by_column`` lays each such array out column
    by column, which numpy sums one column after the other, as it sums the
    (rows, count) gather ``a[..., mask]`` of several rows."""
    mask = np.broadcast_to(mask, x.shape)
    counts = mask.sum(-1).ravel()
    vals, starts, out = x[mask], np.cumsum(counts) - counts, np.empty(counts.shape)
    for c in set(counts.tolist()):
        rows = counts == c
        group = vals[starts[rows, None] + np.arange(c)]
        out[rows] = (np.asfortranarray(group) if by_column else group).sum(-1)
    return out.reshape(x.shape[:-1])


def entropies(w: np.ndarray) -> list[float]:
    """The Shannon entropy in nats, with 0 log 0 = 0, of each clamped spectrum
    of a (B, d) stack, summed over its positive entries (``row_sums``)."""
    pos = w > 0.0
    return (-row_sums(w * np.log(np.where(pos, w, 1.0)), pos)).tolist()


def log_weights(xs: np.ndarray, w: np.ndarray, v: np.ndarray, tols: Tolerances) -> list[list[float]]:
    """tr[X log(base_b)] of each X of ``xs[b]``, a (B, n, d, d) stack, with
    ``(w[b], v[b])`` as ``mk.herm_eig_of`` returns it for base b; -inf when X
    has weight above support_tol on its kernel.  The weights and the sums
    over the support and over the kernel (``row_sums``) are each one
    stacked step, the sums by column for n > 1, as one base's (n, count)
    gather of its X's weights was summed."""
    w, by_column = np.asarray(w), xs.shape[1] > 1
    overlap = np.real(np.einsum("bik,bnij,bjk->bnk", v.conj(), xs, v))
    kernel = np.broadcast_to((w == 0.0)[:, None], overlap.shape)
    t = row_sums(overlap * np.log(np.where(w == 0.0, 1.0, w))[:, None], ~kernel, by_column)
    return np.where(row_sums(overlap, kernel, by_column) > tols.support_tol, -np.inf, t).tolist()


def relative_entropies(rhos: np.ndarray, s_rhos: list, refs: np.ndarray, tols: Tolerances) -> list[float]:
    """D[rho || ref] = -S(rho) - tr[rho log ref] in nats of each pair of two
    stacks, with S(rho) given and each ref checked as a density matrix; +inf
    on support mismatch (``log_weights``)."""
    w, v = check_density(refs, tols)
    return [relative_entropy_of(s, t) for s, (t,) in zip(s_rhos, log_weights(rhos[:, None], w, v, tols))]


def relative_entropy_of(entropy: float, cross: float) -> float:
    """D[rho1 || rho2] from S(rho1) and tr[rho1 log rho2]; +inf when the
    latter is -inf."""
    if cross == float("-inf"):
        return float("inf")
    d = -entropy - cross
    # Clip float noise around zero; genuine negatives would violate Klein's
    # inequality and should surface, so only a tiny band is clipped.
    return 0.0 if -1e-12 < d < 0.0 else d


def mutual_informations(mats: np.ndarray, dims: Sequence[int], part: Sequence[int],
                        tols: Tolerances) -> tuple[list[float], list[float]]:
    """(I(part : rest), S) of each density matrix of a stack on subsystems of
    sizes ``dims`` (slowest first), with I(P:Q) = S(P) + S(Q) - S(PQ): the
    stack is checked, and then each marginal in turn, each check taking the
    spectra.  ``part`` must be a proper nonempty subset of the positions."""
    if not part or not set(part) < set(range(len(dims))):
        raise ShapeError(f"{sorted(set(part))} is not a proper nonempty subset of the positions of {tuple(dims)}")
    s = entropies(check_density(mats, tols)[0])
    s_p, s_q = (entropies(check_density(mk.partial_trace(mats, dims, keep), tols)[0])
                for keep in (part, [i for i in range(len(dims)) if i not in part]))
    return [a + b - c for a, b, c in zip(s_p, s_q, s)], s


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------

def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian matrix, from one draw of its real and then
    its imaginary parts."""
    x = rng.standard_normal((2, rows, cols))
    return (x[0] + 1j * x[1]) / np.sqrt(2.0)


def grams(gs: list[np.ndarray]) -> np.ndarray:
    """G G^dag of each matrix G of a list, all of one row count, as one stack:
    one stacked product per shape, which gives each the bits of its own."""
    shapes, out = [g.shape for g in gs], np.empty((len(gs), len(gs[0]), len(gs[0])), dtype=complex)
    for shape in set(shapes):
        idx = [i for i, s in enumerate(shapes) if s == shape]
        x = np.array([gs[i] for i in idx])
        out[idx] = x @ mk.dagger(x)
    return out


def wishart(gs: list[np.ndarray]) -> np.ndarray:
    """The normalized Wishart state G G^dag / tr of each Ginibre matrix G of a
    list, as one stack."""
    m = grams(gs)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def random_densities(d: int, ranks: list[int], rngs: list[np.random.Generator], tols: Tolerances) -> list[DensityMatrix]:
    """The normalized Wishart state of a d x rank Ginibre matrix drawn from
    each generator, for each (rank, generator) pair, checked in one stacked
    step."""
    return densities(wishart([ginibre(d, r, rng) for r, rng in zip(ranks, rngs)]), tols)


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector of dimension d."""
    v = ginibre(d, 1, rng)[:, 0]
    return v / np.linalg.norm(v)


def haar_of_normals(x: np.ndarray) -> np.ndarray:
    """The Haar unitary of each (real, imaginary) pair of standard normal
    d x d matrices of a (..., 2, d, d) stack: one stacked QR of the Ginibre
    matrices with phase fix (Mezzadri, Notices AMS 54, 592, 2007), which
    gives each unitary the bits of its own one-matrix QR."""
    q, r = np.linalg.qr((x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2.0))
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary of the normals drawn next from ``rng`` (``haar_of_normals``)."""
    return haar_of_normals(rng.standard_normal((1, 2, d, d)))[0]
