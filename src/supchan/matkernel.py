"""Dense complex-matrix kernel: stacked Kronecker products, partial traces
and the checks of Hermitian eigendecompositions.

Index convention used everywhere: a matrix on a composite space is stored
row-major with its first subsystem as the slowest-varying index, so
``kron_stack(a, b)`` puts ``a`` on the slow index (plain Kronecker product),
and ``partial_trace`` takes the subsystem sizes in that order and the
positions of the subsystems to keep.  ``einsum``, ``partial_trace``,
``check_hermitian`` and ``herm_eig_of`` also take stacks, with the bits of
one slice at a time; a failing check of a stack raises the error of its
first failing matrix.  No routine here decomposes: each check hands its
one ``eigh`` to ``herm_eig_of``.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .config import Tolerances

# Dimension guard: dense storage only, desk-scale problems.
MAX_ENTRIES = 1 << 24


class ShapeError(ValueError):
    """Dimension bookkeeping error."""


class ValidationError(ValueError):
    """Input violates a numerical invariant (Hermiticity, PSD, trace...)."""


def as_matrix(m: np.ndarray, stack: bool = False) -> np.ndarray:
    """Validate and return a finite 2-D complex array, or with ``stack`` a
    finite complex array of matrices along its last two axes."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise ShapeError(f"expected a 2-D array, got shape {m.shape}")
    if m.size > MAX_ENTRIES:
        raise ShapeError(f"matrix with {m.size} entries exceeds the dense-storage limit")
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    return m


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of each pair of matrices of two broadcasting stacks, by the
    one broadcast multiply ``np.kron`` runs inside, so with its bits."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def sum_runs(term, counts) -> np.ndarray:
    """The sum of each run of ``counts`` consecutive terms, each added into
    zeros in order, so with the bits of a loop over the run.  ``term(i, has)``
    forms the terms at flat indices ``i``, the j-th of each run ``has`` that
    reaches j, so that a run holds one term at a time."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    out = None
    for j in range(counts.max()):
        has = np.flatnonzero(counts > j)
        t = term(starts[has] + j, has)
        if out is None:
            out = np.zeros((len(counts),) + t.shape[1:], dtype=t.dtype)
        out[has] += t
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def fail_first(bad, values, message: str) -> None:
    """Raise ``ValidationError(message.format(v))`` with ``v`` the entry of
    ``values`` at the first true entry of ``bad`` (one entry per matrix)."""
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        i = int(np.argmax(np.ravel(bad)))
        raise ValidationError(message.format(float(np.ravel(values)[i])))


@functools.lru_cache(maxsize=64)
def _einsum_path(subscripts: str, *shapes: tuple[int, ...]) -> list:
    return np.einsum_path(subscripts, *(np.empty(s) for s in shapes), optimize="greedy")[0]


def einsum(subscripts: str, *stacks: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands, optimize=True)`` of each slice of
    the stacks, as one ``np.einsum`` with a batch index on every operand and
    the greedy path of one slice; its bits match each slice's own call for
    the shapes the tests sweep (the batched call takes no BLAS route)."""
    ins, out = subscripts.split("->")
    batched = ",".join("N" + s for s in ins.split(",")) + "->N" + out
    return np.einsum(batched, *stacks, optimize=_einsum_path(subscripts, *(o.shape[1:] for o in stacks)))


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem whose position in ``dims`` (the subsystem
    sizes, slowest first) is not in ``keep``; kept subsystems stay in their
    order.  ``m`` may be a stack of matrices."""
    m, dims, n = as_matrix(m, stack=True), tuple(dims), len(dims)
    if m.shape[-1] != m.shape[-2] or m.shape[-1] != math.prod(dims):
        raise ShapeError(f"expected square matrices of dim {math.prod(dims)} = prod{dims}, got {m.shape[-2:]}")
    for k in keep:
        if not 0 <= k < n:
            raise ShapeError(f"keep position {k} is outside the {n} subsystems of {dims}")
    lead = m.shape[:-2]
    t = m.reshape(lead + dims + dims)
    # Trace row/col index pairs of discarded subsystems, highest index first
    # so earlier positions stay valid.
    removed = 0
    for i in reversed(range(n)):
        if i not in keep:
            t = np.trace(t, axis1=len(lead) + i, axis2=len(lead) + i + n - removed)
            removed += 1
    d_keep = math.prod(dims[i] for i in set(keep))
    return t.reshape(lead + (d_keep, d_keep))


def max_abs(m: np.ndarray):
    """Largest entry modulus: a float, or one per matrix of a stack (ndim > 2)."""
    if m.ndim > 2:
        return np.abs(m).max(axis=(-2, -1))
    return float(np.abs(m).max()) if m.size else 0.0


def check_hermitian(m: np.ndarray, tol, what: str = "matrix") -> None:
    """Raise ValidationError when ``m`` deviates from its adjoint by more than
    ``tol`` (for a stack, per matrix; ``tol`` may hold one entry per matrix)."""
    dev = max_abs(m - dagger(m))
    fail_first(dev > tol, dev, f"{what} is not Hermitian: max deviation {{:.3e}}")


def herm_eig_of(m: np.ndarray, w: np.ndarray, V: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """``(w, V)`` of a checked Hermitian ``m`` (or of each of a stack) from the
    ascending ``np.linalg.eigh((m + m^dag) / 2)`` that its check took: ``w``
    descending with its eigenvectors the columns of ``V``, clamped
    (``clamp_spectrum``) once ``m == V diag(w) V^dag`` holds within
    ``recon_tol``.  No eigenvector order or phase is promised inside
    degenerate clusters."""
    w, V = w[..., ::-1], V[..., ::-1]
    # V diag(w) is V * w: the other terms of each sum are exact zeros.
    resid = max_abs((V * w[..., None, :]) @ dagger(V) - m)
    fail_first(resid > tols.recon_tol, resid, "eigendecomposition residual {:.3e} exceeds recon_tol")
    return clamp_spectrum(w, tols), V


def clamp_spectrum(w: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Snap eigenvalues within psd_floor of zero to exactly zero."""
    w = np.array(w, dtype=float)
    w[np.abs(w) < tols.psd_floor] = 0.0
    return w


def psd_factors(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``sqrt(lam) * v`` for each eigenpair with lam > 0 of a decomposition
    ``(w, V)`` as ``herm_eig_of`` returns it, one row each in descending order;
    for a stack of decompositions, the rows of each in turn."""
    pos = w > 0.0
    return np.sqrt(w[pos])[:, None] * V.swapaxes(-1, -2)[pos]
