"""Inequality verifiers: Spohn's bound, the generalized entropy-production
bound, its Clausius reduction, the data-processing inequality for
superchannels, the Holevo bound, and the isometric-dilation consistency.

Each family's ``<family>_block`` evaluates a block of trials and returns
one BoundReport per trial, with lhs, rhs and slack = lhs - rhs as
extended reals (float with +-inf; an undefined inf - inf becomes NaN and is
flagged "indeterminate", never silently passed).  A report passes when
slack >= -slack_tol under extended-real ordering.  A ``collect`` dict,
given to a block of one trial, receives its intermediate quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import dilation as dl
from . import matkernel as mk
from . import states as st
from . import superchannel as sup
from .config import Tolerances
from .matkernel import ShapeError, ValidationError
from .states import DensityMatrix, check_density, density


@dataclass(frozen=True)
class BoundReport:
    name: str                   # spohn | main | clausius | qdpi | holevo | ...
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tolerance: float
    flags: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)


def ext_sub(a: float, b: float) -> float:
    """a - b with inf - inf mapped to NaN (indeterminate)."""
    if math.isinf(a) and math.isinf(b) and (a > 0) == (b > 0):
        return math.nan
    return a - b


def _finish(name: str, lhs: float, rhs: float, tols: Tolerances, metadata: dict,
            extra_flags: tuple[str, ...] = ()) -> BoundReport:
    slack = ext_sub(lhs, rhs)
    flags = []
    if math.isinf(lhs):
        flags.append("lhs_pos_inf" if lhs > 0 else "lhs_neg_inf")
    if math.isinf(rhs):
        flags.append("rhs_pos_inf" if rhs > 0 else "rhs_neg_inf")
    if math.isnan(slack):
        flags.append("indeterminate")
        passed = False
    else:
        passed = slack >= -tols.slack_tol
    return BoundReport(name, lhs, rhs, slack, passed, tols.slack_tol, tuple(flags) + extra_flags, metadata)


# ---------------------------------------------------------------------------
# Spohn's inequality:  S(Phi(rho)) - S(rho) >= -tr[(Phi(rho) - rho) log e]
# ---------------------------------------------------------------------------

def spohn_block(ops: list[ch.QuantumOperation], rhos: list[DensityMatrix], tols: Tolerances,
                collect: dict | None = None) -> list[BoundReport]:
    """Entropy-production bound of each CPTP map of a block relative to its
    steady state, at its state, all of one dimension, with the bits of each
    on its own.  The steady states, the outputs, the spectra and the
    weights in the steady states' eigenvectors, the entropies and the
    weight sums are each one stacked step; the bound arithmetic stays per
    trial.
    """
    nss = ch.fixed_points(ops, tols)
    for op, rho in zip(ops, rhos):
        if rho.dim != op.d_in:
            raise ShapeError(f"state dim {rho.dim} != operation d_in {op.d_in}")
    # fixed_points has found every operation trace preserving.
    mats = np.array([rho.mat for rho in rhos])
    out = ch.apply_matrices(ops, mats)
    out = (out + mk.dagger(out)) / 2.0
    w_out = st.decompose(st.densities(out, tols))[0]
    s_outs, s_ins = st.entropies(w_out), st.entropies(st.decompose(rhos)[0])
    w_n, v_n = st.decompose([ns.state for ns in nss])
    cross = st.log_weights(np.stack([out, mats], axis=1), w_n, v_n, tols)
    reports = []
    for b, (op, ns, s_out, s_in) in enumerate(zip(ops, nss, s_outs, s_ins)):
        t_out, t_in = cross[b]
        meta = {"d": op.d_in, "fixed_space_dim": ns.fixed_space_dim, "ness_method": ns.method,
                "ness_residual": ns.residual}
        if collect is not None:
            collect.update(ness_eigenvalues=w_n[b].tolist(), entropy_out=s_out, entropy_in=s_in,
                           tr_out_log_ness=t_out, tr_in_log_ness=t_in)
        # rhs = -tr[(Phi rho - rho) log e]
        reports.append(_finish("spohn", s_out - s_in, ext_sub(t_in, t_out), tols, meta))
    return reports


# ---------------------------------------------------------------------------
# Generalized bound:  S(sigma') - S(A_d) >= -tr[sigma' log e] + tr[A_d log E_d]
# ---------------------------------------------------------------------------

def main_block(scs: list[sup.Superchannel], ops: list[ch.QuantumOperation], nss: list[ch.NessResult],
                tols: Tolerances, collect: dict | None = None) -> list[BoundReport]:
    """The generalized entropy-production bound for correlated initial
    states, for each (superchannel, operation, steady state) of a block,
    all of one (d_S, d_E), with the bits of each on its own.

    With E_d = e (x) I/d, log(E_d) = log(e) (x) I - log(d) I on its support,
    so tr[A_d log E_d] reduces to tr[tr_in(A_d) log e] - log d.

    sigma', the spectra of sigma' and of A_d, their entropies, and the
    weights of sigma' and tr_in(A_d) in the steady state's eigenvectors and
    their sums are each one stacked computation; the bound arithmetic stays
    per trial.
    """
    d = scs[0].d_s
    sigma, (w_out, _) = sup.act_block(scs, ops, tols)
    a_d = np.array([op.choi for op in ops]) / d
    s_ops = st.entropies(mk.clamp_spectrum(np.linalg.eigvalsh(a_d)[..., ::-1], tols))
    marg = mk.partial_trace(a_d, (d, d), [0])
    w_n, v = st.decompose([ns.state for ns in nss])
    cross = st.log_weights(np.stack([sigma, marg], axis=1), w_n, v, tols)
    reports = []
    for b, (sc, op, ns, s_out, s_op) in enumerate(zip(scs, ops, nss, st.entropies(w_out), s_ops)):
        t_out, t_op = cross[b]
        t_op -= math.log(d)
        meta = {"d_S": sc.d_s, "d_E": sc.d_e, "fixed_space_dim": ns.fixed_space_dim,
                "ness_method": ns.method, "ness_residual": ns.residual}
        if collect is not None:
            # (D[A_d || E_d], D[sigma' || e]): the slack equals their difference on finite branches.
            a_d_state = density(op.choi_state, tols=tols)
            e_d = ch.replace_channels([ns.state])[0].choi_state
            d_in = st.relative_entropies(a_d_state.mat[None], st.entropies(a_d_state.w[None]), e_d[None], tols)[0]
            collect.update(
                ness_eigenvalues=w_n[b].tolist(), entropy_sigma_prime=s_out,
                entropy_op_state=s_op, tr_sigma_log_ness=t_out, tr_op_log_neso=t_op,
                slack_identity=(d_in, st.relative_entropy_of(s_out, t_out)))
        reports.append(_finish("main", s_out - s_op, ext_sub(t_op, t_out), tols, meta))
    return reports


# ---------------------------------------------------------------------------
# Clausius reduction for thermal dynamics and throw-and-replace preparations
# ---------------------------------------------------------------------------

THERMAL_MATCH_TOL = 1e-6


def thermal_state(h: np.ndarray, beta: float, tols: Tolerances) -> tuple[DensityMatrix, float]:
    """(exp(-beta H)/Z, Z) for a Hamiltonian checked Hermitian at load, from
    one checked ``eigh`` of (H + H^dag)/2; an exp(-beta H) out of float range is refused."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    h = (h + mk.dagger(h)) / 2.0
    w, v = mk.herm_eig_of(h, *np.linalg.eigh(h), tols)
    with np.errstate(over="ignore"):
        fw = np.exp(-beta * w)
    if not (np.isfinite(fw).all() and fw.max() > 0.0):
        raise ValidationError(f"exp(-beta H) is out of float range: -beta times the least eigenvalue of H is "
                              f"{-beta * w[-1]:.6e}")
    gibbs = (v * fw) @ v.conj().T
    gibbs = (gibbs + gibbs.conj().T) / 2.0
    z = float(np.trace(gibbs).real)
    return density(gibbs / z, tols=tols), z


def clausius_block(scs: list[sup.Superchannel], sigmas: list[DensityMatrix], gibbs: DensityMatrix, z: float,
                   beta: float, tols: Tolerances, collect: dict | None = None) -> list[BoundReport]:
    """Clausius-form bound for each thermalizing superchannel of a block, at
    its state sigma, all of one (d_S, d_E), with the bits of each on its own;
    ``(gibbs, z)`` is ``thermal_state(h, beta, tols)``.

    Validates that the fixed point of each subsequent dynamics is the Gibbs
    state of (h, beta), then evaluates the generalized bound at the
    throw-and-replace operation A_d = sigma (x) I/d.  The steady states, the
    operations, sigma', the spectra, the entropies, the overlaps and their
    sums are each one stacked step; the bound arithmetic stays per trial.
    """
    nss = sup.neso_block(scs, tols)
    resid = mk.max_abs(np.array([ns.state.mat for ns in nss]) - gibbs.mat)
    mk.fail_first(resid > THERMAL_MATCH_TOL, resid,
                  f"fixed point is not the Gibbs state: residual {{:.3e}} > {THERMAL_MATCH_TOL}")
    d = scs[0].d_s
    sigma_p, (w_p, _) = sup.act_block(scs, ch.replace_channels(sigmas), tols)
    s_ps, s_ss = st.entropies(w_p), st.entropies(st.decompose(sigmas)[0])
    w_g, v_g = gibbs.w, gibbs.v
    mats = np.stack([sigma_p, [s.mat for s in sigmas]], axis=1)
    cross = st.log_weights(mats, [w_g] * len(scs), np.array([v_g] * len(scs)), tols)
    reports = []
    for b, (r, s_p, s_s) in enumerate(zip(resid.tolist(), s_ps, s_ss)):
        t_out, t_in = cross[b]
        meta = {"d": d, "beta": beta, "Z": z, "F": math.log(z) / beta, "thermal_residual": r}
        if collect is not None:
            collect.update(gibbs_eigenvalues=w_g.tolist(), entropy_sigma_prime=s_p, entropy_sigma=s_s,
                           tr_sigma_prime_log_gibbs=t_out, tr_sigma_log_gibbs=t_in)
        # The entropies of sigma (x) I/d split off a log d on each side.
        reports.append(_finish("clausius", s_p - (s_s + math.log(d)), ext_sub(t_in - math.log(d), t_out), tols, meta))
    return reports


# ---------------------------------------------------------------------------
# Quantum data-processing inequality through two superchannels
# ---------------------------------------------------------------------------

def regroup_joint_choi(chois: np.ndarray, d_p: int, d_q: int) -> np.ndarray:
    """(PQ)_out (x) (PQ)_in  ->  (P_out, P_in, Q_out, Q_in), for each of a
    stack of matrices."""
    x = chois.reshape(-1, d_p, d_q, d_p, d_q, d_p, d_q, d_p, d_q)
    x = np.transpose(x, (0, 1, 3, 2, 4, 5, 7, 6, 8))
    return x.reshape(len(chois), d_p * d_p * d_q * d_q, -1)


def qdpi_block(sc1s: list[sup.Superchannel], sc2s: list[sup.Superchannel], ops: list[ch.QuantumOperation],
               tols: Tolerances, collect: dict | None = None) -> list[BoundReport]:
    """Mutual information cannot grow: I[P:Q] of the output state is bounded
    by I[P:Q] of the joint operation-state, for each (superchannel,
    superchannel, joint operation) of a block, with the bits of each on its
    own.  (d_P, d_Q) are the system dimensions of the superchannels, and
    every joint operation must map d_P d_Q to d_P d_Q.

    Also evaluates the relative-entropy form through the marginal
    operations A_P, A_Q and cross-checks the two routes: the input-side
    reference A_P_d (x) A_Q_d is exactly the product of the joint
    operation-state's marginals, so D_in must equal the input mutual
    information; on the output side the reference M1#[A_P_d] (x) M2#[A_Q_d]
    is generally *not* the product of the output's marginals, so D_out
    dominates the output mutual information and the relative-entropy slack
    can only be tighter than the mutual-information slack.

    The checks, the spectra and their entropies, the marginal operations,
    the references, the overlaps, the six-index tensors of each split and
    the contractions that read them are each one stacked step; the route
    cross-checks and the bound arithmetic run per trial.
    """
    d_p, d_q = sc1s[0].d_s, sc2s[0].d_s
    for op in ops:
        if (op.d_in, op.d_out) != (d_p * d_q, d_p * d_q):
            raise ShapeError(f"qdpi requires a joint operation on d_P*d_Q={d_p * d_q}; it maps {op.d_in} to {op.d_out}")
    ch.require_trace_preserving(ops, "qdpi requires a CPTP joint operation")
    chois = np.array([op.choi for op in ops])

    x = regroup_joint_choi(np.array([op.choi_state for op in ops]), d_p, d_q)
    mi_in, s_in = st.mutual_informations(x, (d_p, d_p, d_q, d_q), [0, 1], tols)
    m1s, m2s = sup.m_tensors(sc1s), sup.m_tensors(sc2s)
    rho_out = sup.joint_act_normalized(m1s, m2s, x)
    mi_out, s_out = st.mutual_informations(rho_out, (d_p, d_q), [0], tols)

    # Relative-entropy route through the marginal operations.
    a_p = ch.marginal_chois(chois, (d_p, d_q), 0, tols) / d_p
    a_q = ch.marginal_chois(chois, (d_p, d_q), 1, tols) / d_q
    d_rel_in = st.relative_entropies(x, s_in, mk.kron_stack(a_p, a_q), tols)
    ref_out = mk.kron_stack(sup.act_normalized_block(m1s, a_p, tols), sup.act_normalized_block(m2s, a_q, tols))
    d_rel_out = st.relative_entropies(rho_out, s_out, ref_out, tols)
    reports = []
    for b, (i_in, i_out, r_in, r_out) in enumerate(zip(mi_in, mi_out, d_rel_in, d_rel_out)):
        flags = ()
        if math.isinf(r_in) or math.isinf(r_out):
            flags = ("relative_entropy_route_infinite",)
        else:
            if abs(r_in - i_in) > 1e-8:
                raise ValidationError(f"QDPI input identity broken: |D_in - I_in| = {abs(r_in - i_in):.3e}")
            if r_out < i_out - 1e-8:
                raise ValidationError(f"QDPI output dominance broken: D_out = {r_out:.6e} < I_out = {i_out:.6e}")
            if (r_in - r_out) > (i_in - i_out) + 1e-8:
                raise ValidationError("QDPI routes disagree: relative-entropy slack exceeds MI slack")
        meta = {"d_P": d_p, "d_Q": d_q, "relent_in": r_in, "relent_out": r_out}
        if collect is not None:
            collect.update(mi_in=i_in, mi_out=i_out, relent_in=r_in, relent_out=r_out)
        reports.append(_finish("qdpi", i_in, i_out, tols, meta, flags))
    return reports


# ---------------------------------------------------------------------------
# Holevo bound with sampled projective measurements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """Preparation ensemble {p_k, A^(k)} of CPTP operations."""

    probs: tuple[float, ...]
    ops: tuple[ch.QuantumOperation, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.ops) or not self.ops:
            raise ValidationError("ensemble needs matching, nonempty probs and ops")
        if any(p < 0 for p in self.probs):
            raise ValidationError("ensemble probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValidationError(f"ensemble probabilities sum to {sum(self.probs)!r}, not 1")
        dims = {(op.d_in, op.d_out) for op in self.ops}
        if len(dims) != 1:
            raise ValidationError(f"ensemble operations have mixed dims {sorted(dims)}")


def classical_mutual_informations(joints: np.ndarray) -> np.ndarray:
    """I(K;M) in nats, 0 log 0 = 0, of each joint probability table of a
    stack, with the bits of each on its own.

    The totals, marginals and terms are one vectorized pass, and each
    table's positive terms are summed as a row of exactly their count
    (``states.row_sums``); a table of total 0 has none.
    """
    joints = np.clip(np.asarray(joints, dtype=float), 0.0, None)
    total = joints.reshape(len(joints), -1).sum(-1)
    joint = joints / np.where(total > 0, total, 1.0)[:, None, None]
    mask = joint > 0.0
    outer = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    terms = np.zeros_like(joint)
    terms[mask] = joint[mask] * np.log(joint[mask] / outer[mask])
    return st.row_sums(terms.reshape(len(joint), -1), mask.reshape(len(joint), -1))


def measured_information(states: list[np.ndarray], probs: list[np.ndarray], bases: np.ndarray) -> np.ndarray:
    """Classical I(K; outcome) of each projective measurement of each trial
    of a block, as a (trials, measurements) array.

    ``bases[b]`` stacks trial b's measurements, one matrix each whose
    columns are the measurement vectors; ``states[b]`` stacks its codeword
    states and ``probs[b]`` their probabilities.  The trials with one
    codeword count share one Born-rule contraction and one
    ``classical_mutual_informations`` pass.
    """
    out = np.empty(bases.shape[:2])
    ks = np.array([len(p) for p in probs])
    for k in set(ks.tolist()):
        idx = np.flatnonzero(ks == k)
        b = bases[idx]
        born = np.einsum("bnim,bkij,bnjm->bnkm", b.conj(), np.array([states[i] for i in idx]), b)
        joint = np.array([probs[i] for i in idx])[:, None, :, None] * np.clip(np.real(born), 0.0, None)
        out[idx] = classical_mutual_informations(joint.reshape(-1, *joint.shape[2:])).reshape(len(idx), -1)
    return out


def holevo_block(scs: list[sup.Superchannel], enss: list[Ensemble], haar: np.ndarray,
                 tols: Tolerances, collect: dict | None = None) -> list[BoundReport]:
    """Holevo quantity of the received ensemble and sampled-measurement
    checks, for each (superchannel, ensemble) of a block, all of one
    (d_S, d_E), with the bits of each on its own; chi is the report's lhs,
    and the sampled information goes to its collect.

    Bob receives sigma'_k = M#[A^(k)_d]; chi = S(avg) - sum p_k S(sigma'_k)
    upper-bounds the classical information of every sampled projective
    measurement: the Haar bases ``haar[b]`` of trial b, plus the eigenbasis
    of its average.  The report records the most informative sampled
    measurement.

    The j-th sigma'_k of every trial is one ``act_block`` (one over all
    codewords would hold the stacks of every codeword at once), and
    each average adds its terms into zeros in codeword order; the spectra
    are two stacked decompositions and their entropies two stacked sums,
    and the information of every measurement is one
    ``measured_information`` call; chi and the report stay per trial.
    """
    d = scs[0].d_s
    ks = np.array([len(ens.ops) for ens in enss])
    starts = np.cumsum(ks) - ks
    probs = [np.asarray(ens.probs, dtype=float) for ens in enss]
    outs = np.empty((ks.sum(), d, d), dtype=complex)
    s_outs = np.empty(ks.sum())
    avg = np.zeros((len(scs), d, d), dtype=complex)
    for j in range(ks.max()):
        has = np.flatnonzero(ks > j)
        out, (w, _) = sup.act_block([scs[b] for b in has], [enss[b].ops[j] for b in has], tols)
        outs[starts[has] + j] = out
        s_outs[starts[has] + j] = st.entropies(w)
        avg[has] += np.array([probs[b][j] for b in has])[:, None, None] * out
    w_avg, v_avg = check_density(mk.as_matrix(avg, stack=True), tols)
    bases = np.concatenate([haar, v_avg[:, None]], axis=1)
    infos = measured_information([outs[a:a + k] for a, k in zip(starts, ks)], probs, bases)
    reports = []
    for b, (a, k, s_avg) in enumerate(zip(starts, ks, st.entropies(w_avg))):
        chi = s_avg - float(sum(p * s for p, s in zip(probs[b], s_outs[a:a + k])))
        if -1e-12 < chi < 0.0:
            chi = 0.0
        sampled = infos[b].tolist()
        meta = {"d": d, "codewords": int(k), "n_measurements": len(sampled),
                "best_measurement": int(np.argmax(sampled)), "chi": chi}
        if collect is not None:
            collect.update(chi=chi, sampled_information=list(sampled), avg_state_eigenvalues=w_avg[b].tolist())
        reports.append(_finish("holevo", chi, max(sampled), tols, meta))
    return reports


# ---------------------------------------------------------------------------
# Consistency of the isometric-dilation image with the superchannel
# ---------------------------------------------------------------------------

CONSISTENCY_TOL = 1e-10


def mmap_consistency_block(scs: list[sup.Superchannel], vs: list[np.ndarray], alphas: list[DensityMatrix],
                           tols: Tolerances, collect: dict | None = None) -> list[BoundReport]:
    """The system marginal of Upsilon must equal the superchannel acting on
    the channel that the isometric dilation (V, alpha) induces, within
    CONSISTENCY_TOL (lhs; rhs is the residual), for each trial of a block."""
    d_s, d_e, d_a = scs[0].d_s, scs[0].d_e, alphas[0].dim
    upsilons, deltas = dl.mmap_block(scs, vs, alphas, tols)
    reduced = mk.partial_trace(np.array([u.mat for u in upsilons]), (d_s, d_a), [0])
    direct = sup.act_block(scs, ch.channels_from_dilations(vs, alphas), tols)[0]
    reports = []
    for b, (upsilon, delta_s, residual) in enumerate(zip(upsilons, deltas, mk.max_abs(reduced - direct).tolist())):
        slack = CONSISTENCY_TOL - residual
        reports.append(BoundReport("mmap-consistency", CONSISTENCY_TOL, residual, slack, slack >= 0.0, 0.0,
                                   (), {"d_S": d_s, "d_E": d_e, "d_A": d_a, "delta_S": delta_s}))
        if collect is not None:
            collect.update(residual=residual, delta_S=delta_s, upsilon_eigenvalues=upsilon.w.tolist())
    return reports
