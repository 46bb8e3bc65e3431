"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the lines; the whole suite
is deterministic and sized to finish in well under ten minutes.
"""

import json
import math

import numpy as np

from supchan import bounds as bd
from supchan import campaigns as cp
from supchan import channels as ch
from supchan import matkernel as mk
from supchan import states as st
from supchan import superchannel as sup
from supchan.config import DEFAULT_TOLS

from conftest import (act, apply, channel_from_dilation, choi_of_msharp, clausius, entropy_of_spectrum, env_marginal,
                      holevo_trial, haar_unitaries, identity_channel, IsometricOperation, mmap, msharp_tp_residual,
                      neso, neso_op, operation_entropy, random_cptp, random_density, relative_entropy, replace_channel,
                      slack_identity, spohn, stinespring, sys_marginal, trial_rng, unitary_channel, von_neumann_entropy)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def campaign(seed, trials, bound, dims=None, n_measurements=50, jobs=1):
    scenario = {"seed": seed, "trials": trials, "bound": bound,
                "dims": dims or {}, "n_measurements": n_measurements}
    scn = cp.load_scenario(json.dumps(scenario))
    return cp.run_campaign(scn, DEFAULT_TOLS, jobs=jobs)


def rand_sc(d_s, d_e, rng, product=False):
    if product:
        sigma = random_density(d_s, d_s, rng)
        tau = random_density(d_e, d_e, rng)
        rho = st.density(np.kron(sigma.mat, tau.mat), tols=DEFAULT_TOLS)
    else:
        raw = random_density(d_s * d_e, int(rng.integers(1, min(4, d_s * d_e) + 1)), rng)
        rho = st.density(raw.mat, tols=DEFAULT_TOLS)
    return sup.build(st.haar_unitary(d_s * d_e, rng), rho, d_s, d_e, tols=DEFAULT_TOLS)


def test_criterion_1_monotonicity_foundation():
    # D[Phi rho1 || Phi rho2] <= D[rho1 || rho2] + 1e-8, 1000 triples, d in {2,3}
    worst = math.inf
    violations = 0
    for d in (2, 3):
        for trial in range(500):
            rng = trial_rng(101 + d, trial)
            op = random_cptp(d, int(rng.integers(1, d * d + 1)), rng)
            r1 = random_density(d, int(rng.integers(1, d + 1)), rng)
            r2 = random_density(d, d, rng)
            before = relative_entropy(r1, r2)
            after = relative_entropy(apply(op, r1), apply(op, r2))
            if math.isfinite(before):
                gap = before - after
                worst = min(worst, gap)
                if gap < -1e-8:
                    violations += 1
    _report("1 monotonicity", violations == 0, f"worst contraction gap {worst:.3e}")


def test_criterion_2_spohn_sweep():
    failures = 0
    for d in (2, 3):
        rep = campaign(seed=42, trials=1000, bound="spohn", dims={"d_S": d})
        failures += rep["summary"]["failures"]
    rng = np.random.default_rng(7)
    ident_ok = True
    for d in (2, 3):
        rho = random_density(d, d, rng)
        r = spohn(identity_channel(d), rho)
        ident_ok &= abs(r.slack) < 1e-10
    _report("2 spohn sweep", failures == 0 and ident_ok,
            f"failures={failures}, identity saturation={ident_ok}")


def test_criterion_3_main_bound_sweep():
    failures = 0
    min_slack = math.inf
    for d_e in (2, 3):
        rep = campaign(seed=42, trials=500, bound="main", dims={"d_S": 2, "d_E": d_e})
        failures += rep["summary"]["failures"]
        min_slack = min(min_slack, rep["summary"]["min_slack"])

    neso_ok = True
    for seed in range(20):
        rng = trial_rng(4242, seed)
        sc = rand_sc(2, 2, rng)
        ns = neso(sc)
        r = bd.main_block([sc], [neso_op(ns)], [ns], tols=DEFAULT_TOLS)[0]
        neso_ok &= abs(r.slack) < 1e-8

    identity_ok = True
    for seed in range(100):
        rng = trial_rng(4343, seed)
        sc = rand_sc(2, 2, rng)
        op = random_cptp(2, int(rng.integers(1, 5)), rng)
        ns = neso(sc)
        r = bd.main_block([sc], [op], [ns], tols=DEFAULT_TOLS)[0]
        d_in, d_out = slack_identity(sc, op, ns)
        if all(math.isfinite(v) for v in (r.slack, d_in, d_out)):
            identity_ok &= abs(r.slack - (d_in - d_out)) <= 1e-9

    _report("3 main bound sweep", failures == 0 and neso_ok and identity_ok,
            f"failures={failures}, min_slack={min_slack:.3e}, "
            f"neso_saturation={neso_ok}, slack_identity={identity_ok}")


def test_criterion_4_reduction_checks():
    factorized_ok = True
    worst = 0.0
    for seed in range(200):
        rng = trial_rng(99, seed)
        sc = rand_sc(2, 2, rng, product=True)
        op = random_cptp(2, int(rng.integers(1, 5)), rng)
        got = act(sc, op).mat
        phi = channel_from_dilation(sc.u, env_marginal(sc))
        oracle = apply(phi, apply(op, sys_marginal(sc))).mat
        dev = mk.max_abs(got - oracle)
        worst = max(worst, dev)
        factorized_ok &= dev <= 1e-10

    h = np.diag([0.0, 1.0]).astype(complex)
    gibbs, _ = bd.thermal_state(h, 1.0, tols=DEFAULT_TOLS)
    clausius_ok = True
    worst_c = 0.0
    for seed in range(200):
        rng = trial_rng(111, seed)
        anchor = random_density(2, 2, rng)
        rho_se = st.density(np.kron(anchor.mat, gibbs.mat), tols=DEFAULT_TOLS)
        sc = sup.build(ch.partial_swap_unitary(2, math.pi / 4), rho_se, 2, 2, tols=DEFAULT_TOLS)
        sigma = random_density(2, int(rng.integers(1, 3)), rng)
        rep_c = clausius(sc, sigma, h, 1.0)
        rep_m = bd.main_block([sc], [replace_channel(sigma)], [neso(sc)], tols=DEFAULT_TOLS)[0]
        dev = max(abs(rep_c.lhs - rep_m.lhs), abs(rep_c.rhs - rep_m.rhs),
                  abs(rep_c.slack - rep_m.slack))
        worst_c = max(worst_c, dev)
        clausius_ok &= dev <= 1e-10

    _report("4 reduction checks", factorized_ok and clausius_ok,
            f"factorized dev {worst:.3e}, clausius-vs-main dev {worst_c:.3e}")


def test_criterion_5_superchannel_dual_definition():
    dual_ok = psd_ok = tp_ok = True
    worst_dual = 0.0
    min_eig = math.inf
    worst_tp = 0.0
    for seed in range(200):
        rng = trial_rng(500, seed)
        d_e = 2 + seed % 2
        sc = rand_sc(2, d_e, rng)
        op = random_cptp(2, int(rng.integers(1, 5)), rng)
        via_m = sup.act_normalized_block(sup.m_tensors([sc]), [op.choi_state], DEFAULT_TOLS)[0]
        dev = mk.max_abs(act(sc, op).mat - via_m)
        worst_dual = max(worst_dual, dev)
        dual_ok &= dev <= 1e-10
        w = np.linalg.eigvalsh(choi_of_msharp(sc))
        min_eig = min(min_eig, float(w[0]))
        psd_ok &= w[0] >= -1e-9
        resid = msharp_tp_residual(sc)
        worst_tp = max(worst_tp, resid)
        tp_ok &= resid <= 1e-9
    _report("5 superchannel dual definition", dual_ok and psd_ok and tp_ok,
            f"dual dev {worst_dual:.3e}, min Choi eig {min_eig:.3e}, TP residual {worst_tp:.3e}")


def test_criterion_6_qdpi_sweep():
    rep = campaign(seed=42, trials=500, bound="qdpi",
                   dims={"d_P": 2, "d_Q": 2, "d_E1": 2, "d_E2": 2})
    failures = rep["summary"]["failures"]

    product_ok = True
    for seed in range(20):
        rng = trial_rng(606, seed)
        sc1 = rand_sc(2, 2, rng)
        sc2 = rand_sc(2, 2, rng)
        a_p = random_cptp(2, int(rng.integers(1, 5)), rng)
        a_q = random_cptp(2, int(rng.integers(1, 5)), rng)
        joint = ch.from_kraus([np.kron(kp, kq) for kp in a_p.kraus for kq in a_q.kraus])
        r = bd.qdpi_block([sc1], [sc2], [joint], tols=DEFAULT_TOLS)[0]
        product_ok &= abs(r.lhs) < 1e-9 and abs(r.rhs) < 1e-9
    _report("6 qdpi sweep", failures == 0 and product_ok,
            f"failures={failures}, min_slack={rep['summary']['min_slack']:.3e}, "
            f"product instances={product_ok}")


def test_criterion_7_holevo_sweep():
    rep = campaign(seed=42, trials=200, bound="holevo",
                   dims={"d_S": 2, "d_E": 2}, n_measurements=50)
    failures = rep["summary"]["failures"]

    rho_se = st.density(np.eye(4) / 4, tols=DEFAULT_TOLS)
    sc = sup.build(np.eye(4, dtype=complex), rho_se, 2, 2, tols=DEFAULT_TOLS)
    ens = bd.Ensemble(
        (0.5, 0.5),
        (
            replace_channel(st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)),
            replace_channel(st.density(np.diag([0.0, 1.0]), tols=DEFAULT_TOLS)),
        ),
    )
    haar = haar_unitaries(50, 2, np.random.default_rng(7))
    chi, _, sampled = holevo_trial(sc, ens, haar)
    orth_ok = abs(chi - math.log(2)) <= 1e-9 and max(sampled) >= math.log(2) - 1e-9
    _report("7 holevo sweep", failures == 0 and orth_ok,
            f"failures={failures}, chi={chi:.12f}, best sampled={max(sampled):.12f}")


def test_criterion_8_dilation_identities():
    choi_ok = sym_ok = True
    worst_choi = worst_sym = 0.0
    for seed in range(200):
        rng = trial_rng(808, seed)
        d = 2 + seed % 2
        op = random_cptp(d, int(rng.integers(1, d * d + 1)), rng)
        form = stinespring(op)
        rho = np.outer(form.psi_abc, form.psi_abc.conj())
        dims = form.dims_abc(d)
        dev = mk.max_abs(mk.partial_trace(rho, dims, [1, 2]) - op.choi_state)
        worst_choi = max(worst_choi, dev)
        choi_ok &= dev <= 1e-10
        s_bc = entropy_of_spectrum(
            mk.clamp_spectrum(np.linalg.eigvalsh(mk.partial_trace(rho, dims, [1, 2]))[::-1], tols=DEFAULT_TOLS)
        )
        s_a = entropy_of_spectrum(
            mk.clamp_spectrum(np.linalg.eigvalsh(mk.partial_trace(rho, dims, [0]))[::-1], tols=DEFAULT_TOLS)
        )
        worst_sym = max(worst_sym, abs(s_bc - s_a))
        sym_ok &= abs(s_bc - s_a) <= 1e-10

    unitary_ok = True
    for seed in range(20):
        u = st.haar_unitary(2 + seed % 2, trial_rng(809, seed))
        unitary_ok &= operation_entropy(unitary_channel(u)) < 1e-9
    _report("8 dilation identities", choi_ok and sym_ok and unitary_ok,
            f"choi dev {worst_choi:.3e}, entropy symmetry dev {worst_sym:.3e}, "
            f"unitary entropies={unitary_ok}")


def test_criterion_9_isometric_dilation_map():
    rep = campaign(seed=42, trials=200, bound="mmap-consistency",
                   dims={"d_S": 2, "d_E": 2, "d_A": 2})
    failures = rep["summary"]["failures"]

    decoupled_ok = True
    for seed in range(20):
        rng = trial_rng(909, seed)
        sc = rand_sc(2, 2, rng)
        vec = st.random_pure(2, rng)
        alpha = st.density(np.outer(vec, vec.conj()), tols=DEFAULT_TOLS)
        iso = IsometricOperation(np.eye(4, dtype=complex), alpha)
        _, delta_s = mmap(sc, iso)
        sigma_p = act(sc, identity_channel(2))
        expected = von_neumann_entropy(sigma_p) - von_neumann_entropy(sys_marginal(sc))
        decoupled_ok &= abs(delta_s - expected) <= 1e-10
    _report("9 isometric dilation map", failures == 0 and decoupled_ok,
            f"failures={failures}, decoupled delta_S={decoupled_ok}")


def test_criterion_10_determinism():
    scenario = {"seed": 42, "trials": 3, "bound": "all",
                "dims": {"d_S": 2, "d_E": 2}, "n_measurements": 10}
    scn = cp.load_scenario(json.dumps(scenario))
    first = cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=1))
    second = cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=1))
    parallel = cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=2))
    _report("10 determinism", first == second and first == parallel,
            f"rerun identical={first == second}, parallel identical={first == parallel}")
