"""Per-trial oracles for the stacked block evaluation.

Each function is the one-matrix-at-a-time code that the library ran before
``random_cptp``, ``act``, ``density``'s checks and ``main_bound`` became
blocks of one of stacked routines.  The tests compare the stacked routines
with them byte for byte; the ``oracles`` fixture hands them out.
"""

import math
import types

import numpy as np
import pytest

from supchan import channels as ch
from supchan import states as st
from supchan import superchannel as sup
from supchan.matkernel import DimShape, ValidationError


def herm_eig(m, tols):
    """Clamped descending spectrum and eigenvectors, with the checks of ``herm_eig``."""
    dev = float(np.abs(m - m.conj().T).max())
    if dev > tols.herm_tol:
        raise ValidationError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w, v = w[::-1], v[:, ::-1]
    resid = float(np.abs(v @ np.diag(w) @ v.conj().T - m).max())
    if resid > tols.recon_tol:
        raise ValidationError(f"eigendecomposition residual {resid:.3e} exceeds recon_tol")
    w = np.array(w, dtype=float)
    w[np.abs(w) < tols.psd_floor] = 0.0
    return w, v


def check_density(mat, tols):
    """The checks ``density`` makes of one matrix."""
    dev = float(np.abs(mat - mat.conj().T).max())
    if dev > tols.herm_tol:
        raise ValidationError(f"density matrix is not Hermitian: max deviation {dev:.3e}")
    tr = float(np.real(np.trace(mat)))
    if abs(tr - 1.0) > tols.trace_tol:
        raise ValidationError(f"trace {tr!r} is not 1 within {tols.trace_tol}")
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    if w[0] < -tols.psd_floor:
        raise ValidationError(f"negative eigenvalue {w[0]:.3e} below -psd_floor")


def kraus(choi, d_out, d_in, tols):
    """``kraus_of``: the sqrt(lam) * v factors of the Choi matrix, one at a time."""
    w, v = herm_eig(choi, tols)
    return np.array([(np.sqrt(lam) * f).reshape(d_out, d_in) for lam, f in zip(w, v.T) if lam > 0.0])


def random_cptp(d, rank, rng, d_out, tols):
    """(Choi matrix, Kraus stack) of ``random_cptp``, with the checks of ``from_choi``."""
    g = st.ginibre(d_out * d, rank, rng)
    w = g @ g.conj().T
    r = np.trace(w.reshape(d_out, d, d_out, d), axis1=0, axis2=2)
    rw, rv = np.linalg.eigh((r + r.conj().T) / 2.0)
    rw = np.clip(rw, 1e-14, None)
    r_isqrt = (rv * (rw ** -0.5)) @ rv.conj().T
    lift = np.kron(np.eye(d_out), r_isqrt)
    choi = lift @ w @ lift.conj().T
    choi = (choi + choi.conj().T) / 2.0
    assert float(np.abs(choi - choi.conj().T).max()) <= tols.herm_tol * max(1.0, float(np.abs(choi).max()))
    wc = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    assert not wc[0] < -1e-9 * max(1.0, float(wc[-1]))
    return choi, kraus(choi, d_out, d, tols)


def act(sc, ks, tols):
    """sigma' by one np.kron(K, I_E) and two products per Kraus operator,
    checked as a density matrix."""
    d_s, d_e = sc.d_s, sc.d_e
    i_e = np.eye(d_e, dtype=complex)
    joint = np.zeros_like(sc.rho_se.mat)
    for k in ks:
        kk = np.kron(k, i_e)
        joint += kk @ sc.rho_se.mat @ kk.conj().T
    evolved = sc.u @ joint @ sc.u.conj().T
    out = np.trace(evolved.reshape(d_s, d_e, d_s, d_e), axis1=1, axis2=3)
    out = (out + out.conj().T) / 2.0
    check_density(out, tols)
    return out


def entropy(w):
    pos = w[w > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def trace_against_log(x, w, v, tols):
    overlap = np.real(np.einsum("ik,ij,jk->k", v.conj(), x, v))
    kernel = w == 0.0
    if float(np.sum(overlap[kernel])) > tols.support_tol:
        return float("-inf")
    return float(np.sum(overlap[~kernel] * np.log(w[~kernel])))


def main_bound(sc, choi, ks, ness, tols):
    """(lhs, rhs, slack) of ``main_bound``, one trial at a time."""
    d = sc.d_s
    sigma = act(sc, ks, tols)
    w_out, _ = herm_eig(sigma, tols)
    a_d = choi / d
    w_op = np.linalg.eigvalsh(a_d)[::-1].copy()
    w_op[np.abs(w_op) < tols.psd_floor] = 0.0
    w_n, v_n = herm_eig(ness.mat, tols)
    t_out = trace_against_log(sigma, w_n, v_n, tols)
    marg = np.trace(a_d.reshape(d, d, d, d), axis1=1, axis2=3)
    t_op = trace_against_log(marg, w_n, v_n, tols) - math.log(d)
    lhs = entropy(w_out) - entropy(w_op)
    rhs = math.nan if math.isinf(t_op) and math.isinf(t_out) and (t_op > 0) == (t_out > 0) else t_op - t_out
    slack = math.nan if math.isinf(lhs) and math.isinf(rhs) and (lhs > 0) == (rhs > 0) else lhs - rhs
    return lhs, rhs, slack


def block_instances(d_s, d_e, n, seed):
    """``n`` (superchannel, operation) pairs in consecutive blocks of 1-8.

    Blocks cycle through four kinds: a pinned superchannel with random
    operations of mixed ranks 1..d_S^2, a random superchannel per trial with
    such operations, and a random superchannel per trial with one explicit
    operation given by its Kraus operators or by its Choi matrix.
    """
    def superchannel(rng):
        raw = st.random_density(d_s * d_e, int(rng.integers(1, d_s * d_e + 1)), rng)
        rho = st.density(raw.mat, DimShape([d_s, d_e], ["S", "E"]))
        return sup.build(st.haar_unitary(d_s * d_e, rng), rho)

    rng = np.random.default_rng(seed)
    explicit = ch.random_cptp(d_s, 2, rng)
    by_kraus = ch.from_kraus(list(explicit.kraus))
    by_choi = ch.from_choi(explicit.choi, d_s, d_s)
    pinned = superchannel(rng)
    out, start, size, kind = [], 0, 1, 0
    while start < n:
        b = min(size, n - start)
        rngs = [np.random.default_rng([*seed, start + i]) for i in range(b)]
        scs = [pinned] * b if kind == 0 else [superchannel(r) for r in rngs]
        if kind < 2:
            ranks = [1 + (start + i) % (d_s * d_s) for i in range(b)]
            ops = ch.random_cptps(d_s, ranks, rngs)
        else:
            ops = [by_kraus if kind == 2 else by_choi] * b
        out.append((scs, ops))
        start, size, kind = start + b, size % 8 + 1, (kind + 1) % 4
    return out


@pytest.fixture
def oracles():
    return types.SimpleNamespace(herm_eig=herm_eig, kraus=kraus,
                                 random_cptp=random_cptp, act=act, main_bound=main_bound,
                                 block_instances=block_instances)
