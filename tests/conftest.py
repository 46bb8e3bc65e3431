"""Per-trial oracles for the stacked block evaluation, and the library-level
constructions that only the tests use.

Each oracle is the one-matrix-at-a-time code that the library ran before
its per-trial routines became the stacked ``random_cptps``, ``act_block``,
``check_density``, ``entropies``, ``log_weights``, ``grams``, ``main_block``, ``holevo_block``, ``qdpi_block``,
``classical_mutual_informations``, ``fixed_points``, ``neso_block``,
``spohn_block``, ``clausius_block``, ``dilation.mmap_block`` and
``mmap_consistency_block``; the ``ragged_*`` oracles are the four
Kraus-ordered sums (``act_block``, ``transfer_matrices``,
``apply_matrices``, ``from_kraus_runs``) as they formed every term of a
block in one full ragged stack.  The tests compare the stacked routines
with them byte for byte; the ``oracles`` fixture hands them out.

The helpers below the oracles (one-pair forms of the stacked routines,
named channels, Stinespring dilations, the Choi matrix of M#, the Spohn
composition) are what the verifier never runs; test modules import them
with ``from conftest import ...``.  Among them, ``act``,
``von_neumann_entropy`` and ``relative_entropy`` give the bits of the
one-pair routines that ``act_block`` and ``states.relative_entropies``
replaced in the library.
"""

import math
import types
from dataclasses import dataclass

import numpy as np
import pytest

from supchan import bounds as bd
from supchan import campaigns as cp
from supchan import channels as ch
from supchan import dilation as dl
from supchan import matkernel as mk
from supchan import states as st
from supchan import superchannel as sup
from supchan.config import DEFAULT_TOLS
from supchan.matkernel import ShapeError, ValidationError


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
    """The Kraus operators of ``from_chois``: the sqrt(lam) * v factors of the
    Choi matrix, one at a time."""
    w, v = herm_eig(choi, tols)
    return np.array([(np.sqrt(lam) * f).reshape(d_out, d_in) for lam, f in zip(w, v.T) if lam > 0.0])


def tp_projection(w, d):
    """W -> (I (x) R^-1/2) W (I (x) R^-1/2), Hermitized, with R = tr_out W."""
    r = np.trace(w.reshape(d, d, d, d), axis1=0, axis2=2)
    rw, rv = np.linalg.eigh((r + r.conj().T) / 2.0)
    rw = np.clip(rw, 1e-14, None)
    r_isqrt = (rv * (rw ** -0.5)) @ rv.conj().T
    lift = np.kron(np.eye(d), r_isqrt)
    choi = lift @ w @ lift.conj().T
    return (choi + choi.conj().T) / 2.0


def random_cptp_parts(d, rank, rng, tols):
    """(Choi matrix, Kraus stack) of ``random_cptp``, with the checks of ``from_chois``."""
    g = st.ginibre(d * d, rank, rng)
    choi = tp_projection(g @ g.conj().T, d)
    if float(np.abs(np.trace(choi.reshape(d, d, d, d), axis1=0, axis2=2) - np.eye(d)).max()) > 1e-12:
        choi = tp_projection(choi, d)
    assert float(np.abs(choi - choi.conj().T).max()) <= tols.herm_tol * max(1.0, float(np.abs(choi).max()))
    wc = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    assert not wc[0] < -1e-9 * max(1.0, float(wc[-1]))
    return choi, kraus(choi, d, d, tols)


def act_kraus(sc, ks, tols):
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


def entropy_of_spectrum(w):
    """Shannon entropy of one clamped spectrum in nats, with 0 log 0 = 0:
    ``states.entropies`` one spectrum at a time."""
    w = np.asarray(w, dtype=float)
    pos = w[w > 0.0]
    return float(-(pos * np.log(pos)).sum())


def log_weights(xs, w, v, tols):
    """``states.log_weights`` with the sums of each trial taken on their own:
    its stacked weights, then each trial's support and kernel rows."""
    overlap = np.real(np.einsum("bik,bnij,bjk->bnk", v.conj(), xs, v))
    out = []
    for o, wb in zip(overlap, w):
        kernel = wb == 0.0
        t = (o[..., ~kernel] * np.log(wb[~kernel])).sum(-1)
        out.append(np.where(o[..., kernel].sum(-1) > tols.support_tol, -np.inf, t).tolist())
    return out


def grams(gs):
    """``states.grams`` one matrix at a time."""
    return np.array([g @ g.conj().T for g in gs])


def ginibre(rows, cols, rng):
    """``states.ginibre`` as two draws, the real part and then the imaginary."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def trace_log(x, w, v, tols):
    """tr[x log base] from the decomposition (w, v) of base; -inf when x has
    weight above support_tol on its kernel."""
    overlap = np.real(np.einsum("ik,ij,jk->k", v.conj(), x, v))
    kernel = w == 0.0
    if float(np.sum(overlap[kernel])) > tols.support_tol:
        return float("-inf")
    return float(np.sum(overlap[~kernel] * np.log(w[~kernel])))


def main_bound(sc, choi, ks, ness, tols):
    """(lhs, rhs, slack) of ``main_bounds``, one trial at a time."""
    d = sc.d_s
    sigma = act_kraus(sc, ks, tols)
    w_out, _ = herm_eig(sigma, tols)
    a_d = choi / d
    w_op = np.linalg.eigvalsh(a_d)[::-1].copy()
    w_op[np.abs(w_op) < tols.psd_floor] = 0.0
    w_n, v_n = herm_eig(ness.mat, tols)
    t_out = trace_log(sigma, w_n, v_n, tols)
    marg = np.trace(a_d.reshape(d, d, d, d), axis1=1, axis2=3)
    t_op = trace_log(marg, w_n, v_n, tols) - math.log(d)
    lhs = entropy_of_spectrum(w_out) - entropy_of_spectrum(w_op)
    rhs = math.nan if math.isinf(t_op) and math.isinf(t_out) and (t_op > 0) == (t_out > 0) else t_op - t_out
    slack = math.nan if math.isinf(lhs) and math.isinf(rhs) and (lhs > 0) == (rhs > 0) else lhs - rhs
    return lhs, rhs, slack


def classical_mutual_information(joint):
    """I(K;M) of one joint probability table."""
    joint = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    total = joint.sum()
    if total <= 0:
        return 0.0
    joint = joint / total
    pk = joint.sum(axis=1, keepdims=True)
    pm = joint.sum(axis=0, keepdims=True)
    mask = joint > 0.0
    ratio = joint[mask] / (pk @ pm)[mask]
    return float(np.sum(joint[mask] * np.log(ratio)))


def holevo(sc, ens, haar, tols):
    """(chi, sampled information, spectrum of the average) of ``holevo_block``,
    with one ``act`` per codeword and one Born einsum and one table per
    measurement."""
    outs = [act_kraus(sc, op.kraus, tols) for op in ens.ops]
    probs = np.asarray(ens.probs, dtype=float)
    avg = sum(p * o for p, o in zip(probs, outs))
    check_density(avg, tols)
    w_avg, v_avg = herm_eig(avg, tols)
    chi = entropy_of_spectrum(w_avg) - float(sum(p * entropy_of_spectrum(herm_eig(o, tols)[0])
                                                 for p, o in zip(probs, outs)))
    if -1e-12 < chi < 0.0:
        chi = 0.0
    bases = np.concatenate([haar, v_avg[None]])
    born = np.clip(np.real(np.einsum("nim,kij,njm->nkm", bases.conj(), np.stack(outs), bases)), 0.0, None)
    return chi, [classical_mutual_information(probs[:, None] * b) for b in born], w_avg


def mutual_information(rho, dims, part, tols):
    """(I(part : rest), S(rho)) on subsystems of sizes ``dims``, ``part`` a
    list of positions: each marginal checked and decomposed, then rho
    decomposed."""
    s = []
    for keep in (part, [i for i in range(len(dims)) if i not in part]):
        m = mk.partial_trace(rho, dims, keep)
        check_density(m, tols)
        s.append(entropy_of_spectrum(herm_eig(m, tols)[0]))
    s_rho = entropy_of_spectrum(herm_eig(rho, tols)[0])
    return s[0] + s[1] - s_rho, s_rho


def relative_entropy_to(x, s_x, ref, tols):
    """D[x || ref] with S(x) given, ref checked as a density matrix."""
    check_density(ref, tols)
    w, v = herm_eig(ref, tols)
    cross = trace_log(x, w, v, tols)
    if cross == float("-inf"):
        return float("inf")
    d = -s_x - cross
    return 0.0 if -1e-12 < d < 0.0 else d


def m_tensor(sc):
    """The six-index tensor of ``superchannel.m_tensors``, by one fresh
    optimize=True einsum."""
    u4 = sc.u.reshape(sc.d_s, sc.d_e, sc.d_s, sc.d_e)
    r4 = sc.rho_se.mat.reshape(sc.d_s, sc.d_e, sc.d_s, sc.d_e)
    return np.einsum("axby,cyrz,pxqz->abcpqr", u4, r4, u4.conj(), optimize=True)


def act_normalized(sc, a, tols):
    d = sc.d_s
    out = np.einsum("abcpqr,bcqr->ap", m_tensor(sc), (d * a).reshape(d, d, d, d))
    out = (out + out.conj().T) / 2.0
    check_density(out, tols)
    return out


def qdpi(sc1, sc2, op, tols):
    """(I_in, I_out, D_in, D_out, flags) of ``qdpi_block``, one trial at a time."""
    d_p, d_q = sc1.d_s, sc2.d_s
    assert is_trace_preserving(op)
    x = (op.choi / op.d_in).reshape(d_p, d_q, d_p, d_q, d_p, d_q, d_p, d_q)
    x = np.transpose(x, (0, 2, 1, 3, 4, 6, 5, 7)).reshape(d_p * d_p * d_q * d_q, -1)
    check_density(x, tols)
    mi_in, s_in = mutual_information(x, (d_p, d_p, d_q, d_q), [0, 1], tols)
    y = (d_p * d_q) * x.reshape(d_p, d_p, d_q, d_q, d_p, d_p, d_q, d_q)
    out = np.einsum("abcpqr,ABCPQR,bcBCqrQR->aApP", m_tensor(sc1), m_tensor(sc2), y,
                    optimize=True).reshape(d_p * d_q, d_p * d_q)
    out = (out + out.conj().T) / 2.0
    check_density(out, tols)
    mi_out, s_out = mutual_information(out, (d_p, d_q), [0], tols)
    c4 = op.choi.reshape(d_p, d_q, d_p, d_q, d_p, d_q, d_p, d_q)
    a_p = np.trace(np.trace(c4, axis1=3, axis2=7), axis1=1, axis2=4) / d_q / d_p
    a_q = np.trace(np.trace(c4, axis1=2, axis2=6), axis1=0, axis2=3) / d_p / d_q
    d_in = relative_entropy_to(x, s_in, np.kron(a_p.reshape(d_p * d_p, -1), a_q.reshape(d_q * d_q, -1)), tols)
    ref_out = np.kron(act_normalized(sc1, a_p.reshape(d_p * d_p, -1), tols),
                      act_normalized(sc2, a_q.reshape(d_q * d_q, -1), tols))
    d_out = relative_entropy_to(out, s_out, ref_out, tols)
    flags = ("relative_entropy_route_infinite",) if math.isinf(d_in) or math.isinf(d_out) else ()
    return mi_in, mi_out, d_in, d_out, flags


def transfer_matrix(ks):
    """The sum of np.kron(K, conj(K)) in Kraus order."""
    t = np.zeros((ks[0].shape[0] ** 2, ks[0].shape[1] ** 2), dtype=complex)
    for k in ks:
        t += np.kron(k, k.conj())
    return t


def ragged_sum(terms, counts):
    """Each run of ``counts`` consecutive terms of one full stack added into
    zeros in order: ``mk.sum_runs`` before it formed a term at a time."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    out = np.zeros((len(counts),) + terms.shape[1:], dtype=terms.dtype)
    for j in range(counts.max(initial=0)):
        has = np.flatnonzero(counts > j)
        out[has] += terms[starts[has] + j]
    return out


def ragged_act_block(scs, ops):
    """``act_block``'s sigma' from every K (x) I_E of the block and a copy of
    rho_SE per Kraus operator, each formed in one full ragged stack."""
    counts = [len(op.kraus) for op in ops]
    kk = mk.kron_stack(np.concatenate([op.kraus for op in ops]), np.eye(scs[0].d_e, dtype=complex))
    rho = np.array([s.rho_se.mat for s in scs])
    joint = ragged_sum(kk @ rho[np.repeat(np.arange(len(ops)), counts)] @ mk.dagger(kk), counts)
    u = np.array([s.u for s in scs])
    out = mk.partial_trace(u @ joint @ mk.dagger(u), (scs[0].d_s, scs[0].d_e), [0])
    return (out + mk.dagger(out)) / 2.0


def ragged_transfer_matrices(ops):
    """``transfer_matrices`` from one full ragged stack of K (x) conj(K)."""
    k = np.concatenate([op.kraus for op in ops])
    return ragged_sum(mk.kron_stack(k, k.conj()), [len(op.kraus) for op in ops])


def ragged_apply_matrices(ops, mats):
    """``apply_matrices`` from one full ragged stack of K X K^dag."""
    counts = [len(op.kraus) for op in ops]
    ks = np.concatenate([op.kraus for op in ops])
    return ragged_sum(ks @ mats[np.repeat(np.arange(len(ops)), counts)] @ mk.dagger(ks), counts)


def ragged_chois(kraus, counts):
    """``from_kraus_runs``' Choi matrices from one full ragged stack of
    vec(K) vec(K)^dag."""
    vecs = kraus.reshape(len(kraus), -1)
    return ragged_sum(vecs[:, :, None] * vecs.conj()[:, None, :], counts)


def apply_op(op, mat):
    """sum_k K X K^dag in Kraus order."""
    out = np.zeros((op.d_out, op.d_out), dtype=complex)
    for k in op.kraus:
        out += k @ mat @ k.conj().T
    return out


def steady_state(op, tols):
    """(state, residual, method, fixed_space_dim) of ``fixed_points`` for one
    operation: the eigen route, then I/d and the limit of the Cesaro
    average from it, each candidate repaired and checked as a density
    matrix."""
    d = op.d_in
    evals, evecs = np.linalg.eig(transfer_matrix(op.kraus))
    fixed_space_dim = int(np.sum(np.abs(evals - 1.0) < 1e-8))

    def finish(m, method):
        m = (m + m.conj().T) / 2.0
        tr = np.trace(m).real
        if abs(tr) < 1e-12:
            return None
        w, v = np.linalg.eigh(m / tr)
        if w[0] < -1e-8:
            return None
        m = (v * np.clip(w, 0.0, None)) @ v.conj().T
        m = m / np.trace(m).real
        resid = float(np.sum(np.linalg.svd(apply_op(op, m) - m, compute_uv=False)))
        if resid > tols.fp_tol:
            return None
        check_density(m, tols)
        return m, resid, method, fixed_space_dim

    if fixed_space_dim == 1:
        res = finish(evecs[:, int(np.argmin(np.abs(evals - 1.0)))].reshape(d, d), "eigen")
        if res is not None:
            return res
    mixed = np.eye(d, dtype=complex) / d
    res = finish(mixed, "cesaro")
    if res is not None:
        return res
    # The Cesaro limit: the part of I/d in the eigenvalue-1 eigenspace.
    coef = np.linalg.solve(evecs, mixed.reshape(-1))
    res = finish((evecs @ np.where(np.abs(evals - 1.0) < 1e-8, coef, 0.0)).reshape(d, d), "cesaro")
    if res is not None:
        return res
    raise ch.FixedPointError("no steady state")


def dilation_kraus(u, tau, tols):
    """Kraus operators of sigma -> tr_E[U (sigma (x) tau) U^dag], one
    einsum per positive eigenpair of tau."""
    d_e = tau.shape[0]
    d_s = u.shape[0] // d_e
    w, v = herm_eig(tau, tols)
    u4 = u.reshape(d_s, d_e, d_s, d_e)
    ks = []
    for lam, vec in zip(w, v.T):
        if lam > 0.0:
            block = np.einsum("aibj,j->iab", u4, vec)
            ks += [np.sqrt(lam) * block[i] for i in range(d_e)]
    return np.array(ks)


def choi(ks):
    """sum_k vec(K) vec(K)^dag in Kraus order."""
    c = np.zeros((ks[0].size,) * 2, dtype=complex)
    for k in ks:
        c += np.outer(k.reshape(-1), k.reshape(-1).conj())
    return c


def steady_operation(sc, tols):
    """(steady state, residual, method, fixed_space_dim) of ``neso_block``
    for one superchannel."""
    d_s, d_e = sc.d_s, sc.d_e
    tau = np.trace(sc.rho_se.mat.reshape(d_s, d_e, d_s, d_e), axis1=0, axis2=2)
    check_density(tau, tols)
    ks = dilation_kraus(sc.u, tau, tols)
    return steady_state(ch.QuantumOperation(d_s, d_s, choi(ks), ks), tols)


def spohn_bound(op, rho, tols):
    """(lhs, rhs, slack, steady-state diagnostics) of ``spohn_block`` for one
    operation at one state."""
    ness, resid, method, dim = steady_state(op, tols)
    out = apply_op(op, rho)
    out = (out + out.conj().T) / 2.0
    check_density(out, tols)
    w_n, v_n = herm_eig(ness, tols)
    lhs = entropy_of_spectrum(herm_eig(out, tols)[0]) - entropy_of_spectrum(herm_eig(rho, tols)[0])
    t_out = trace_log(out, w_n, v_n, tols)
    t_in = trace_log(rho, w_n, v_n, tols)
    rhs = bd.ext_sub(t_in, t_out)
    return lhs, rhs, bd.ext_sub(lhs, rhs), (resid, method, dim)


def replace_kraus(sigma, tols):
    """Kraus operators sqrt(lam) |v><j| of the map that prepares sigma."""
    d = sigma.shape[0]
    w, v = herm_eig(sigma, tols)
    ks = []
    for lam, f in zip(w, v.T):
        for j in range(d):
            if lam > 0.0:
                k = np.zeros((d, d), dtype=complex)
                k[:, j] = np.sqrt(lam) * f
                ks.append(k)
    return np.array(ks)


def clausius_bound(sc, sigma, gibbs, tols):
    """(lhs, rhs, slack, thermal residual) of ``clausius_block`` for one
    superchannel and state, with the Gibbs state given."""
    d = sc.d_s
    ness = steady_operation(sc, tols)[0]
    resid = float(np.abs(ness - gibbs).max())
    assert resid <= bd.THERMAL_MATCH_TOL
    sigma_p = act_kraus(sc, replace_kraus(sigma, tols), tols)
    w_g, v_g = herm_eig(gibbs, tols)
    lhs = entropy_of_spectrum(herm_eig(sigma_p, tols)[0]) - (entropy_of_spectrum(herm_eig(sigma, tols)[0]) + math.log(d))
    t_out = trace_log(sigma_p, w_g, v_g, tols)
    t_in = trace_log(sigma, w_g, v_g, tols)
    rhs = bd.ext_sub(t_in - math.log(d), t_out)
    return lhs, rhs, bd.ext_sub(lhs, rhs), resid


def mmap_image(sc, v, alpha, tols):
    """(Upsilon, delta_S, consistency residual) of ``mmap_block`` and the
    consistency check for one superchannel and isometric dilation, with
    np.kron and the explicit permutation matrix (``permutation_matrix``)."""
    d_s, d_e, d_a = sc.d_s, sc.d_e, alpha.shape[0]
    p = permutation_matrix((d_s, d_e, d_a), [0, 2, 1])
    v_full = p.conj().T @ np.kron(v, np.eye(d_e, dtype=complex)) @ p
    staged = v_full @ np.kron(sc.rho_se.mat, alpha) @ v_full.conj().T
    u_full = np.kron(sc.u, np.eye(d_a, dtype=complex))
    evolved = u_full @ staged @ u_full.conj().T
    ups = np.trace(evolved.reshape(d_s, d_e, d_a, d_s, d_e, d_a), axis1=1, axis2=4).reshape(d_s * d_a, -1)
    ups = (ups + ups.conj().T) / 2.0
    check_density(ups, tols)
    sigma = np.trace(sc.rho_se.mat.reshape(d_s, d_e, d_s, d_e), axis1=1, axis2=3)
    check_density(sigma, tols)
    delta_s = entropy_of_spectrum(herm_eig(ups, tols)[0]) - entropy_of_spectrum(herm_eig(sigma, tols)[0])
    reduced = np.trace(ups.reshape(d_s, d_a, d_s, d_a), axis1=1, axis2=3)
    direct = act_kraus(sc, dilation_kraus(v, alpha, tols), tols)
    return ups, delta_s, float(np.abs(reduced - direct).max())


def wishart(d, rank, rng, tols):
    """``random_density``'s draw: G G^dag / tr, checked as a density matrix."""
    g = st.ginibre(d, rank, rng)
    m = g @ g.conj().T
    m /= np.trace(m).real
    check_density(m, tols)
    return m


def family_trial(scenario, family, trial, tols):
    """(lhs, rhs, slack) of one ``spohn``, ``clausius`` or
    ``mmap-consistency`` trial of a scenario without explicit entries, drawn
    from the trial's generator in the per-trial order."""
    d = scenario.dims.get("d_S", 2)
    rng = np.random.default_rng([np.uint64(scenario.seed), np.uint64(FAMILY_INDEX[family]), np.uint64(trial)])
    if family == "spohn":
        c, ks = random_cptp_parts(d, int(rng.integers(1, d * d + 1)), rng, tols)
        rho = wishart(d, int(rng.integers(1, d + 1)), rng, tols)
        return spohn_bound(ch.QuantumOperation(d, d, c, ks), rho, tols)[:3]
    if family == "clausius":
        gibbs, _ = bd.thermal_state(np.diag(np.arange(d, dtype=float)).astype(complex), 1.0, tols)
        anchor = wishart(d, d, rng, tols)
        rho_se = np.kron(anchor, gibbs.mat)
        check_density(rho_se, tols)
        rho = st.DensityMatrix(rho_se, *herm_eig(rho_se, tols))
        sc = sup.Superchannel(ch.partial_swap_unitary(d, math.pi / 4), rho, d, d)
        sigma = wishart(d, int(rng.integers(1, d + 1)), rng, tols)
        return clausius_bound(sc, sigma, gibbs.mat, tols)[:3]
    d_e, d_a = scenario.dims.get("d_E", 2), scenario.dims.get("d_A", d)
    rho_se = wishart(d * d_e, int(rng.integers(1, min(4, d * d_e) + 1)), rng, tols)
    rho = st.DensityMatrix(rho_se, *herm_eig(rho_se, tols))
    sc = sup.Superchannel(st.haar_unitary(d * d_e, rng), rho, d, d_e)
    v = st.haar_unitary(d * d_a, rng)
    vec = st.random_pure(d_a, rng)
    _, _, residual = mmap_image(sc, v, np.outer(vec, vec.conj()), tols)
    return 1e-10, residual, 1e-10 - residual


FAMILY_INDEX = {"spohn": 0, "clausius": 2, "mmap-consistency": 5}


def blocks(n):
    """Consecutive blocks of 1, 2, ..., 8, 1, 2, ... indices covering range(n)."""
    out, start, size = [], 0, 1
    while start < n:
        out.append(range(start, min(start + size, n)))
        start, size = start + size, size % 8 + 1
    return out


def block_instances(d_s, d_e, n, seed):
    """``n`` (superchannel, operation) pairs in consecutive blocks of 1-8.

    Blocks cycle through four kinds: a pinned superchannel with random
    operations of mixed ranks 1..d_S^2, a random superchannel per trial with
    such operations, and a random superchannel per trial with one explicit
    operation given by its Kraus operators or by its Choi matrix.
    """
    def superchannel(rng):
        raw = random_density(d_s * d_e, int(rng.integers(1, d_s * d_e + 1)), rng)
        rho = st.density(raw.mat, tols=DEFAULT_TOLS)
        return sup.build(st.haar_unitary(d_s * d_e, rng), rho, d_s, d_e, tols=DEFAULT_TOLS)

    rng = np.random.default_rng(seed)
    explicit = random_cptp(d_s, 2, rng)
    kraus_given = ch.from_kraus(list(explicit.kraus))
    choi_given = ch.from_chois(explicit.choi, d_s, d_s, DEFAULT_TOLS)[0]
    pinned = superchannel(rng)
    out, start, size, kind = [], 0, 1, 0
    while start < n:
        b = min(size, n - start)
        rngs = [np.random.default_rng([*seed, start + i]) for i in range(b)]
        scs = [pinned] * b if kind == 0 else [superchannel(r) for r in rngs]
        if kind < 2:
            ranks = [1 + (start + i) % (d_s * d_s) for i in range(b)]
            ops = ch.random_cptps(d_s, [ch.bcsz_draw(d_s, r, g) for r, g in zip(ranks, rngs)], tols=DEFAULT_TOLS)
        else:
            ops = [kraus_given if kind == 2 else choi_given] * b
        out.append((scs, ops))
        start, size, kind = start + b, size % 8 + 1, (kind + 1) % 4
    return out


@pytest.fixture
def oracles():
    return types.SimpleNamespace(herm_eig=herm_eig, kraus=kraus,
                                 random_cptp_parts=random_cptp_parts, act=act_kraus, main_bound=main_bound,
                                 block_instances=block_instances, blocks=blocks,
                                 classical_mutual_information=classical_mutual_information,
                                 holevo=holevo, qdpi=qdpi, m_tensor=m_tensor, act_normalized=act_normalized,
                                 transfer_matrix=transfer_matrix,
                                 steady_state=steady_state, dilation_kraus=dilation_kraus, choi=choi,
                                 steady_operation=steady_operation, spohn_bound=spohn_bound,
                                 replace_kraus=replace_kraus, clausius_bound=clausius_bound,
                                 mmap_image=mmap_image, family_trial=family_trial,
                                 ragged_act_block=ragged_act_block, ragged_transfer_matrices=ragged_transfer_matrices,
                                 ragged_apply_matrices=ragged_apply_matrices, ragged_chois=ragged_chois,
                                 entropy_of_spectrum=entropy_of_spectrum, log_weights=log_weights, grams=grams,
                                 ginibre=ginibre)


# ---------------------------------------------------------------------------
# Library-level constructions that only the tests use
# ---------------------------------------------------------------------------

def random_cptp(d, kraus_rank, rng):
    """One random CPTP map: ``random_cptps`` of one ``bcsz_draw``."""
    return ch.random_cptps(d, [ch.bcsz_draw(d, kraus_rank, rng)], DEFAULT_TOLS)[0]


def fixed_point(op, tols=DEFAULT_TOLS):
    return ch.fixed_points([op], tols)[0]


def neso(sc):
    return sup.neso_block([sc], tols=DEFAULT_TOLS)[0]


def neso_op(ns):
    """The steady operation of a steady state: discard the system and
    prepare the state, so its Choi matrix is ness (x) I."""
    return ch.replace_channels([ns.state])[0]


def sys_marginal(sc):
    return sup.marginals([sc], 0, tols=DEFAULT_TOLS)[0]


def env_marginal(sc):
    return sup.marginals([sc], 1, tols=DEFAULT_TOLS)[0]


def channel_from_dilation(u, tau):
    return ch.channels_from_dilations([u], [tau])[0]


def replace_channel(target):
    return ch.replace_channels([target])[0]


def marginal(rho, dims, keep, tols=DEFAULT_TOLS):
    """Partial trace of a density matrix on subsystems of sizes ``dims`` onto
    those at the positions ``keep``."""
    return st.density(mk.partial_trace(rho.mat, dims, keep), tols=tols)


def is_trace_preserving(op):
    try:
        ch.require_trace_preserving([op], "not trace preserving")
    except ValidationError:
        return False
    return True


def apply(op, rho, tols=DEFAULT_TOLS):
    """A trace-preserving map applied to a state: ``apply_matrices`` of one
    pair, Hermitized and checked as a density matrix."""
    if rho.dim != op.d_in:
        raise ShapeError(f"state dim {rho.dim} != operation d_in {op.d_in}")
    ch.require_trace_preserving([op], "operation is not trace preserving")
    out = ch.apply_matrices([op], rho.mat[None])[0]
    return st.density((out + out.conj().T) / 2.0, tols=tols)


def act(sc, op):
    """sigma' for a CPTP operation on the system: ``act_block`` of one pair."""
    sigma, (w, v) = sup.act_block([sc], [op], tols=DEFAULT_TOLS)
    return st.DensityMatrix(sigma[0], w[0], v[0])


def von_neumann_entropy(rho):
    """S(rho) = -tr[rho log rho] in nats."""
    return entropy_of_spectrum(rho.w)


def relative_entropy(rho1, rho2, tols=DEFAULT_TOLS):
    """D[rho1 || rho2] of two density matrices (see ``relative_entropy_to``)."""
    if rho1.dim != rho2.dim:
        raise ShapeError(f"dimension mismatch {rho1.dim} != {rho2.dim}")
    return relative_entropy_to(rho1.mat, von_neumann_entropy(rho1), rho2.mat, tols)


def slack_identity(sc, op, ns, tols=DEFAULT_TOLS):
    """(D[A_d || E_d], D[sigma' || e]) of one main trial, each from the
    one-pair relative entropy of its own two states: the main-bound slack
    equals their difference on finite branches."""
    d_in = relative_entropy(st.density(op.choi_state, tols=tols),
                            st.density(neso_op(ns).choi_state, tols=tols), tols)
    return d_in, relative_entropy(act(sc, op), ns.state, tols)


def spohn(op, rho, tols=DEFAULT_TOLS, collect=None):
    return bd.spohn_block([op], [rho], tols, collect)[0]


def holevo_trial(sc, ens, haar, tols=DEFAULT_TOLS):
    """(chi, report, sampled information) of ``holevo_block`` of one pair,
    with the Haar bases ``haar`` of the trial."""
    collect = {}
    rep = bd.holevo_block([sc], [ens], haar[None], tols, collect)[0]
    return rep.metadata["chi"], rep, collect["sampled_information"]


def clausius(sc, sigma, h, beta, tols=DEFAULT_TOLS, collect=None):
    """``clausius_block`` of one pair, with the Gibbs state of (h, beta)."""
    gibbs, z = bd.thermal_state(mk.as_matrix(h), beta, tols)
    return bd.clausius_block([sc], [sigma], gibbs, z, beta, tols, collect)[0]


@dataclass(frozen=True)
class IsometricOperation:
    """A[sigma] = V (sigma (x) alpha) V^dag with V unitary on S (x) A."""

    v: np.ndarray
    alpha: st.DensityMatrix

    def __post_init__(self):
        object.__setattr__(self, "v", mk.as_matrix(self.v))
        ch.check_unitary(self.v, what="isometric-dilation unitary", tols=DEFAULT_TOLS)
        if self.v.shape[0] % self.alpha.dim != 0:
            raise ShapeError(f"unitary dim {self.v.shape[0]} does not factor over ancilla dim {self.alpha.dim}")

    @property
    def d_a(self):
        return self.alpha.dim

    @property
    def d_s(self):
        return self.v.shape[0] // self.alpha.dim


def mmap(sc, iso, tols=DEFAULT_TOLS):
    """(Upsilon, delta_S) of ``dilation.mmap_block`` for one pair."""
    upsilons, deltas = dl.mmap_block([sc], [iso.v], [iso.alpha], tols)
    return upsilons[0], deltas[0]


def random_density(d, rank, rng, tols=DEFAULT_TOLS):
    """Normalized Wishart state G G^dag / tr with G a d x rank Ginibre matrix."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range [1, {d}]")
    return st.random_densities(d, [rank], [rng], tols)[0]


def haar_unitaries(n, d, rng):
    """n Haar unitaries, shape (n, d, d), of the normals that n calls of
    ``states.haar_unitary`` draw, in the same order, by one stacked QR."""
    return st.haar_of_normals(rng.standard_normal((n, 2, d, d)))


def trial_rng(seed, trial):
    """Independent per-trial stream derived from (seed, trial)."""
    return np.random.default_rng([np.uint64(seed), np.uint64(trial)])


def campaign_blocks(scenario):
    """(family, trials) of each block that ``run_campaign`` cuts a scenario
    into: consecutive runs of ``_block_size`` trials, the last one shorter."""
    dim, n = cp._dim_values(scenario.dims), scenario.trials
    sizes = {f: cp._block_size(f, dim, scenario.n_measurements) for f in scenario.families()}
    return [(f, range(s, min(s + sizes[f], n))) for f in scenario.families() for s in range(0, n, sizes[f])]


def permutation_matrix(dims, perm):
    """Unitary P that reorders subsystems of sizes ``dims`` so that position
    k holds the old subsystem ``perm[k]``: P |i_old...> = |i_new...>, the
    dense form of the index moves that ``mmap_block`` and
    ``partial_swap_unitary`` make."""
    if sorted(perm) != list(range(len(dims))):
        raise ShapeError(f"{list(perm)} is not a permutation of the positions of {tuple(dims)}")
    d = math.prod(dims)
    rows = np.eye(d, dtype=complex).reshape(tuple(dims) + (d,))
    return np.transpose(rows, list(perm) + [len(perm)]).reshape(d, d)


def swap_unitary(d):
    """SWAP of two d-dimensional factors."""
    return permutation_matrix((d, d), [1, 0])


def identity_channel(d):
    return ch.from_kraus([np.eye(d, dtype=complex)])


def unitary_channel(u):
    ch.check_unitary(u, tols=DEFAULT_TOLS)
    return ch.from_kraus([u])


def depolarizing_channel(d):
    """Completely depolarizing map rho -> I/d."""
    ks = [np.zeros((d, d), dtype=complex) for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            ks[i * d + j][i, j] = 1.0 / np.sqrt(d)
    return ch.from_kraus(ks)


def partial_damping_kraus(d, gamma=0.5):
    """Kraus operators of the map that damps |1> into |0> with probability
    ``gamma`` and keeps every other basis state.  Its fixed space holds the
    operators on span{|0>, |2>, ..., |d-1>}: dimension (d - 1)^2 for d >= 3,
    so the eigen route does not apply, and I/d is not fixed."""
    k0 = np.eye(d, dtype=complex)
    k0[1, 1] = np.sqrt(1.0 - gamma)
    k1 = np.zeros((d, d), dtype=complex)
    k1[0, 1] = np.sqrt(gamma)
    return [k0, k1]


def classical_channel(t):
    """Channel acting as the column-stochastic matrix ``t`` on basis states."""
    d_out, d_in = t.shape
    ks = []
    for b in range(d_out):
        for c in range(d_in):
            if t[b, c] > 0.0:
                k = np.zeros((d_out, d_in), dtype=complex)
                k[b, c] = np.sqrt(t[b, c])
                ks.append(k)
    return ch.from_kraus(ks)


def compose(after, before):
    """Composition after . before via Kraus products."""
    return ch.from_kraus([a @ b for a in after.kraus for b in before.kraus])


def permute_subsystems(m, dims, perm):
    """Similarity transform by the subsystem permutation ``perm`` (as in
    ``permutation_matrix``), with the new subsystem sizes."""
    perm = list(perm)
    t = np.transpose(m.reshape(tuple(dims) * 2), perm + [p + len(perm) for p in perm])
    return t.reshape(m.shape), tuple(dims[p] for p in perm)


def choi_of_msharp(sc):
    """Choi matrix of M# on (S_out) (x) (out, in), dimension d^3: d * M
    reshaped to ((a,b,c), (p,q,r)), PSD by construction."""
    d = sc.d_s
    c = d * m_tensor(sc).reshape(d ** 3, d ** 3)
    return (c + c.conj().T) / 2.0


def msharp_tp_residual(sc):
    """Trace-preservation residual of M# on the operation-state span.

    M# preserves traces exactly on inputs X with tr_out X = tr(X)/d * I.
    Equivalently, W = tr_S Choi(M#) must have the form I (x) G: the residual
    is the deviation from that form plus the deviation of tr(W) from d^2.
    """
    d = sc.d_s
    w = mk.partial_trace(choi_of_msharp(sc), (d, d, d), [1, 2])
    g = mk.partial_trace(w, (d, d), [1]) / d
    resid = mk.max_abs(w - np.kron(np.eye(d), g))
    return max(resid, abs(float(np.trace(w).real) - d * d) / (d * d))


def ext_add(a, b):
    """a + b with inf + (-inf) mapped to NaN (indeterminate)."""
    return bd.ext_sub(a, -b)


def spohn_composition(op, sc):
    """Spohn's bound for the preparation from tr_E(rho_SE), plus the
    generalized bound for the subsequent correlated dynamics; slacks add."""
    rep_spohn = spohn(op, sys_marginal(sc))
    rep_main = bd.main_block([sc], [op], [neso(sc)], tols=DEFAULT_TOLS)[0]
    return types.SimpleNamespace(spohn=rep_spohn, main=rep_main,
                                 combined_slack=ext_add(rep_spohn.slack, rep_main.slack))


def complete_isometry(v, pivot_order=None):
    """Extend an isometry's columns to a full unitary, with completion columns
    from the canonical basis taken in ``pivot_order`` (default: index order)."""
    n, k = v.shape
    cols = [v[:, j] for j in range(k)]
    for i in range(n) if pivot_order is None else pivot_order:
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
    assert len(cols) == n, "isometry completion failed to span the space"
    return np.column_stack(cols)


@dataclass(frozen=True)
class StinespringForm:
    """Unitary dilation data of an operation (ancilla a, system b, input copy c)."""

    v: np.ndarray           # isometry (ancilla_dim * d) x d, V = sum_k |k>_a (x) K_k
    u_ab: np.ndarray        # unitary completion on a (x) b with U(|0>_a (x) phi) = V phi
    ancilla_dim: int
    psi_abc: np.ndarray     # pure output vector on a (x) b (x) c

    def dims_abc(self, d):
        return (self.ancilla_dim, d, d)


def stinespring(op, pivot_order=None):
    """Dilate a square CPTP operation to a unitary on ancilla (x) system.

    The ancilla dimension is the numerical Kraus rank; feeding the b-side of
    a maximally entangled pair through V yields the pure state psi_abc whose
    a-marginal complement reproduces the normalized Choi state.
    """
    if op.d_in != op.d_out:
        raise ShapeError("stinespring dilation requires a square operation")
    d = op.d_in
    kraus = op.kraus
    v = np.vstack(kraus)  # row blocks: ancilla index slow
    dev = mk.max_abs(v.conj().T @ v - np.eye(d))
    if dev > DEFAULT_TOLS.herm_tol:
        raise ValidationError(f"operation is not trace preserving: isometry defect {dev:.3e}")
    u_ab = v.copy() if len(kraus) == 1 else complete_isometry(v, pivot_order)
    # psi[(k, i), j] = V[(k, i), j] / sqrt(d): (V (x) I_c) applied to |beta_bc>
    return StinespringForm(v, u_ab, len(kraus), (v / np.sqrt(d)).reshape(-1))


def operation_entropy(op):
    """Entropy of the normalized Choi state of a CP map, in nats: for
    trace-preserving maps, that of the ancilla any unitary dilation discards."""
    return entropy_of_spectrum(mk.clamp_spectrum(np.linalg.eigvalsh(op.choi_state)[::-1], tols=DEFAULT_TOLS))


def isometry_choi_state(iso):
    """Normalized Choi state of sigma -> V (sigma (x) alpha) V^dag."""
    d_s, d_a = iso.d_s, iso.d_a
    # Kraus K_j = V (I_S (x) sqrt(lam_j) |a_j>), mapping S -> S (x) A
    ks = [iso.v @ np.kron(np.eye(d_s, dtype=complex), f[:, None]) for f in mk.psd_factors(iso.alpha.w, iso.alpha.v)]
    return st.density(ch.from_kraus(ks).choi_state, tols=DEFAULT_TOLS)
