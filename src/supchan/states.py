"""Density matrices and entropic functionals.

All entropies are in nats (natural logarithm).  Relative entropy returns
``float('inf')`` when the first argument has support outside the support of
the second, detected by projecting onto the kernel at ``psd_floor``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import matkernel as mk
from .config import DEFAULT_TOLS, Tolerances
from .matkernel import DimShape, ShapeError


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix on a labeled tensor factor structure;
    ``mat`` is read-only, so what ``eig`` keeps stays its decomposition."""

    mat: np.ndarray
    shape: DimShape
    # tols -> what eig returns; None -> (tols, w, v) of the eigh that a check under tols took.
    _eig: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = mk.as_matrix(self.mat).view()
        if mat.shape != (self.shape.dim,) * 2:
            raise ShapeError(f"shape dim {self.shape.dim} != matrix dim {mat.shape[0]}")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    def eig(self, tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, np.ndarray]:
        """``mk.herm_eig(mat, tols)``, computed once per ``tols``, from the
        decomposition that ``density``'s checks under ``tols`` took when
        there is one; both arrays are read-only."""
        if tols not in self._eig:
            decompose([self], tols)
        return self._eig[tols]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def factor_of(self, label: str) -> int:
        return self.shape.factor_of(label)


def density(
    mat: np.ndarray,
    shape: DimShape | None = None,
    labels: Sequence[str] | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> DensityMatrix:
    """Validate a matrix as a density matrix and attach its shape.

    With neither ``shape`` nor ``labels`` given, a single subsystem labeled
    "S" is assumed.  ``labels`` alone means one factor per label is not
    inferable, so it is only valid for a single label.
    """
    mat = mk.as_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"density matrix must be square, got {mat.shape}")
    d = mat.shape[0]
    if shape is None:
        if labels is None:
            shape = DimShape([d], ["S"])
        elif len(labels) == 1:
            shape = DimShape([d], labels)
        else:
            raise ShapeError("multiple labels require an explicit DimShape")
    return densities(mat[None], shape, tols)[0]


def densities(mats: np.ndarray, shape: DimShape, tols: Tolerances = DEFAULT_TOLS) -> list[DensityMatrix]:
    """``density`` of each matrix of a stack, all on ``shape``, with the
    checks of the stack in one step; each keeps for ``eig`` the
    ``np.linalg.eigh`` that its PSD check reads."""
    rhos = [DensityMatrix(m, shape) for m in mk.as_matrix(mats, stack=True)]
    w, v = check_density(mats, tols, np.linalg.eigh)
    for rho, wb, vb in zip(rhos, w, v):
        rho._eig[None] = (tols, wb, vb)
    return rhos


def check_density(mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, eig=None):
    """``density``'s checks of a matrix, or of each of a stack: Hermitian,
    unit trace and positive semidefinite, the last on the eigenvalues that
    ``eig`` (``np.linalg.eigvalsh`` when None, or ``eigh``) finds of
    (mat + mat^dag) / 2; returns what ``eig`` returns."""
    mk.check_hermitian(mat, tols.herm_tol, "density matrix")
    tr = mat.trace(axis1=-2, axis2=-1).real
    mk.fail_first(abs(tr - 1.0) > tols.trace_tol, tr, f"trace {{!r}} is not 1 within {tols.trace_tol}")
    out = (eig or np.linalg.eigvalsh)((mat + mk.dagger(mat)) / 2.0)
    w = out[0] if isinstance(out, tuple) else out
    mk.fail_first(w[..., 0] < -tols.psd_floor, w[..., 0], "negative eigenvalue {:.3e} below -psd_floor")
    return out


def decompose(rhos: list[DensityMatrix], tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, np.ndarray]:
    """``rho.eig(tols)`` of each density matrix of a list, as two stacks;
    those not yet decomposed under ``tols`` are in one stacked step, from
    what their checks under ``tols`` took when all have it."""
    todo = list({id(r): r for r in rhos if tols not in r._eig}.values())
    if todo:
        mats = np.array([r.mat for r in todo])
        taken = [r._eig.get(None, (None,)) for r in todo]
        if all(t[0] == tols for t in taken):
            w, v = mk.herm_eig_of(mats, np.array([t[1] for t in taken]), np.array([t[2] for t in taken]), tols)
        else:
            w, v = mk.herm_eig(mats, tols)
        for r, wb, vb in zip(todo, w, v):
            wb.flags.writeable = vb.flags.writeable = False
            r._eig[tols] = (wb, vb)
    eigs = [r._eig[tols] for r in rhos]
    return np.array([e[0] for e in eigs]), np.array([e[1] for e in eigs])


def spectrum(rho: DensityMatrix, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Descending eigenvalues, clamped at psd_floor."""
    return rho.eig(tols)[0]


def entropy_of_spectrum(w: np.ndarray) -> float:
    """Shannon entropy of a clamped spectrum in nats, with 0 log 0 = 0."""
    w = np.asarray(w, dtype=float)
    pos = w[w > 0.0]
    return float(-(pos * np.log(pos)).sum())


def von_neumann_entropy(rho: DensityMatrix, tols: Tolerances = DEFAULT_TOLS) -> float:
    """S(rho) = -tr[rho log rho] in nats."""
    return entropy_of_spectrum(spectrum(rho, tols))


def trace_against_log(
    state_mat: np.ndarray, base: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """tr[X log(base)] for a PSD unit-trace X; -inf on support mismatch.

    Support mismatch means X has weight above support_tol on the kernel of
    ``base`` (eigenvalues clamped at psd_floor).
    """
    w, v = base.eig(tols)
    # Weight of X in each eigenvector of base.
    overlap = np.real(np.einsum("ik,ij,jk->k", v.conj(), np.asarray(state_mat, dtype=complex), v))
    return float(log_weight(overlap, w, tols))


def log_weight(overlap: np.ndarray, w: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """tr[X log(base)] from the weights ``overlap`` of X in the eigenvectors
    of base (or of several X, one per row) and the clamped eigenvalues ``w``
    of base; -inf on support mismatch."""
    kernel = w == 0.0
    out = (overlap[..., ~kernel] * np.log(w[~kernel])).sum(-1)
    return np.where(overlap[..., kernel].sum(-1) > tols.support_tol, -np.inf, out)


def relative_entropy(
    rho1: DensityMatrix, rho2: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """D[rho1 || rho2] = -S(rho1) - tr[rho1 log rho2] in nats; +inf on
    support mismatch (see ``trace_against_log``).
    """
    if rho1.dim != rho2.dim:
        raise ShapeError(f"dimension mismatch {rho1.dim} != {rho2.dim}")
    cross = trace_against_log(rho1.mat, rho2, tols)
    if cross == float("-inf"):
        return float("inf")
    return relative_entropy_of(von_neumann_entropy(rho1, tols), cross)


def relative_entropy_of(entropy: float, cross: float) -> float:
    """D[rho1 || rho2] from S(rho1) and tr[rho1 log rho2]; +inf when the
    latter is -inf."""
    if cross == float("-inf"):
        return float("inf")
    d = -entropy - cross
    # Clip float noise around zero; genuine negatives would violate Klein's
    # inequality and should surface, so only a tiny band is clipped.
    if -1e-12 < d < 0.0:
        d = 0.0
    return d


def mutual_informations(mats: np.ndarray, shape: DimShape, part: Sequence[str],
                        tols: Tolerances = DEFAULT_TOLS) -> tuple[list[float], list[float]]:
    """(I(part : rest), S) of each density matrix of a stack on ``shape``, with
    I(P:Q) = S(P) + S(Q) - S(PQ): each marginal in turn is checked and
    decomposed, then the stack is.  ``part`` must be a proper nonempty subset
    of the labels."""
    if not part or not set(part) < set(shape.labels):
        raise ShapeError(f"{sorted(set(part))} is not a proper nonempty subset of {shape.labels}")
    entropies = []
    for keep in (part, [l for l in shape.labels if l not in part]):
        m = mk.partial_trace(mats, shape, keep)
        check_density(m, tols)
        entropies.append([entropy_of_spectrum(w) for w in mk.herm_eig(m, tols)[0]])
    s = [entropy_of_spectrum(w) for w in mk.herm_eig(mats, tols)[0]]
    return [s_p + s_q - s_pq for s_p, s_q, s_pq in zip(*entropies, s)], s


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------

def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian matrix."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def wishart(gs: list[np.ndarray]) -> np.ndarray:
    """The normalized Wishart state G G^dag / tr of each Ginibre matrix G of a
    list, as one stack."""
    m = np.array([g @ g.conj().T for g in gs])
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def random_densities(d: int, ranks: list[int], rngs: list[np.random.Generator], tols: Tolerances = DEFAULT_TOLS,
                     labels: Sequence[str] = ("S",)) -> list[DensityMatrix]:
    """The normalized Wishart state of a d x rank Ginibre matrix drawn from
    each generator, for each (rank, generator) pair, checked in one stacked
    step."""
    return densities(wishart([ginibre(d, r, rng) for r, rng in zip(ranks, rngs)]), DimShape([d], labels), tols)


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector of dimension d."""
    v = ginibre(d, 1, rng)[:, 0]
    return v / np.linalg.norm(v)


def haar_unitaries(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unitaries, shape (n, d, d), via QR of Ginibre matrices
    with phase fix.

    Draws what n calls of ``haar_unitary`` draw, in the same order (each
    matrix's real part, then its imaginary part), and gives the same bits.
    """
    x = rng.standard_normal((n, 2, d, d))
    q, r = np.linalg.qr((x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0))
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    return haar_unitaries(1, d, rng)[0]

