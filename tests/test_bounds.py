import math

import numpy as np
import pytest

from supchan import bounds as bd
from supchan import campaigns as cp
from supchan import channels as ch
from supchan import matkernel as mk
from supchan import states as st
from supchan import superchannel as sup
from supchan.config import DEFAULT_TOLS
from supchan.matkernel import ValidationError

from conftest import (channel_from_dilation, classical_channel, clausius, depolarizing_channel, env_marginal,
                      ext_add, haar_unitaries, identity_channel, neso, neso_op, random_cptp, random_density,
                      replace_channel, holevo_trial, slack_identity, spohn, spohn_composition, swap_unitary,
                      unitary_channel, von_neumann_entropy)


def rand_sc(d_s, d_e, seed, product=False):
    rng = np.random.default_rng(seed)
    if product:
        sigma = random_density(d_s, d_s, rng)
        tau = random_density(d_e, d_e, rng)
        rho = st.density(np.kron(sigma.mat, tau.mat), tols=DEFAULT_TOLS)
    else:
        raw = random_density(d_s * d_e, int(rng.integers(1, d_s * d_e + 1)), rng)
        rho = st.density(raw.mat, tols=DEFAULT_TOLS)
    return sup.build(st.haar_unitary(d_s * d_e, rng), rho, d_s, d_e, tols=DEFAULT_TOLS), rng


# ---------------------------------------------------------------------------
# extended-real plumbing
# ---------------------------------------------------------------------------

def test_ext_arithmetic():
    inf = float("inf")
    assert bd.ext_sub(1.0, -inf) == inf
    assert bd.ext_sub(-inf, 1.0) == -inf
    assert math.isnan(bd.ext_sub(inf, inf))
    assert bd.ext_sub(inf, -inf) == inf
    assert math.isnan(ext_add(inf, -inf))
    assert ext_add(inf, 1.0) == inf


def test_finish_flags_and_pass_logic():
    inf = float("inf")
    r = bd._finish("x", 0.0, -inf, DEFAULT_TOLS, {})
    assert r.passed and "rhs_neg_inf" in r.flags
    r = bd._finish("x", 0.0, inf, DEFAULT_TOLS, {})
    assert not r.passed and "rhs_pos_inf" in r.flags
    r = bd._finish("x", inf, inf, DEFAULT_TOLS, {})
    assert not r.passed and "indeterminate" in r.flags
    r = bd._finish("x", 1.0, 1.0 + 5e-9, DEFAULT_TOLS, {})
    assert r.passed  # within slack_tol


def test_trace_against_log_support_detection():
    pure = st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)
    mixed = st.density(np.eye(2) / 2, tols=DEFAULT_TOLS)
    assert st.log_weights(mixed.mat[None, None], pure.w[None], pure.v[None], tols=DEFAULT_TOLS) == [[float("-inf")]]
    full = st.density(np.diag([0.75, 0.25]), tols=DEFAULT_TOLS)
    [[got]] = st.log_weights(mixed.mat[None, None], full.w[None], full.v[None], tols=DEFAULT_TOLS)
    assert abs(got - 0.5 * (math.log(0.75) + math.log(0.25))) <= 1e-12
    # A kernel weight of exactly support_tol is still on the support.
    tol = DEFAULT_TOLS.support_tol
    edges = np.array([[np.diag([1.0 - w, w]) for w in (tol, 2 * tol)]], dtype=complex)
    assert st.log_weights(edges, pure.w[None], pure.v[None], tols=DEFAULT_TOLS) == [[0.0, float("-inf")]]


# ---------------------------------------------------------------------------
# Spohn
# ---------------------------------------------------------------------------

def test_spohn_identity_channel_saturates():
    rho = random_density(2, 2, np.random.default_rng(1))
    rep = spohn(identity_channel(2), rho)
    assert rep.passed
    assert abs(rep.lhs) <= 1e-10 and abs(rep.rhs) <= 1e-10 and abs(rep.slack) <= 1e-10


def test_spohn_depolarizing_arithmetic_oracle():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        rho = random_density(d, d, rng)
        rep = spohn(depolarizing_channel(d), rho)
        assert rep.passed
        assert abs(rep.lhs - (math.log(d) - von_neumann_entropy(rho))) <= 1e-10
        assert abs(rep.rhs) <= 1e-10  # log e is proportional to I


def test_spohn_random_sweep_small():
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        d = int(rng.integers(2, 4))
        op = random_cptp(d, int(rng.integers(1, d * d + 1)), rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = spohn(op, rho)
        assert rep.passed, f"seed {seed}: slack {rep.slack}"


def test_spohn_rank_deficient_ness_flags_neg_inf():
    target = st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)
    op = replace_channel(target)
    rho = st.density(np.eye(2) / 2, tols=DEFAULT_TOLS)
    rep = spohn(op, rho)
    assert rep.rhs == float("-inf")
    assert rep.passed and "rhs_neg_inf" in rep.flags
    assert rep.slack == float("inf")


# ---------------------------------------------------------------------------
# Generalized bound
# ---------------------------------------------------------------------------

def test_main_bound_saturates_at_neso():
    for seed in range(10):
        sc, _ = rand_sc(2, 2, seed=3000 + seed)
        ns = neso(sc)
        rep = bd.main_block([sc], [neso_op(ns)], [ns], tols=DEFAULT_TOLS)[0]
        assert rep.passed
        assert abs(rep.slack) <= 1e-8
        assert abs(rep.lhs + math.log(2)) <= 1e-8  # both sides equal -log d


def test_main_bound_slack_identity():
    for seed in range(15):
        sc, rng = rand_sc(2, 2, seed=3100 + seed)
        op = random_cptp(2, int(rng.integers(1, 5)), rng)
        ns = neso(sc)
        collect = {}
        rep = bd.main_block([sc], [op], [ns], DEFAULT_TOLS, collect)[0]
        d_in, d_out = slack_identity(sc, op, ns)
        # The explain record gives the bits of the one-pair relative entropies.
        assert [x.hex() for x in collect["slack_identity"]] == [d_in.hex(), d_out.hex()]
        if math.isfinite(rep.slack) and math.isfinite(d_in) and math.isfinite(d_out):
            assert abs(rep.slack - (d_in - d_out)) <= 1e-9


def test_main_bound_reduces_to_spohn_for_replace_ops():
    # with A_d = omega (x) I/d the generalized bound is Spohn's bound at omega
    for seed in range(10):
        sc, rng = rand_sc(2, 2, seed=3200 + seed, product=True)
        omega = random_density(2, int(rng.integers(1, 3)), rng)
        ns = neso(sc)
        rep_main = bd.main_block([sc], [replace_channel(omega)], [ns], tols=DEFAULT_TOLS)[0]
        rep_spohn = spohn(channel_from_dilation(sc.u, env_marginal(sc)), omega)
        if math.isfinite(rep_main.slack) and math.isfinite(rep_spohn.slack):
            assert abs(rep_main.slack - rep_spohn.slack) <= 1e-9


def test_main_bound_random_sweep_small():
    for seed in range(60):
        sc, rng = rand_sc(2, 2 + seed % 2, seed=3300 + seed)
        op = random_cptp(2, int(rng.integers(1, 5)), rng)
        rep = bd.main_block([sc], [op], [neso(sc)], tols=DEFAULT_TOLS)[0]
        assert rep.passed, f"seed {seed}: slack {rep.slack}"


def test_main_bound_detects_known_adversarial_violation():
    # The generalized bound is not a theorem for arbitrary operations: with a
    # biased system marginal, a weakly mixing partial swap, and a classical
    # operation correlated with the bias, the bound genuinely fails, because
    # the normalized superchannel preserves traces only on operation-states
    # and admits no trace-preserving completely positive extension that the
    # contractivity argument needs.  The verifier must report the violation.
    sigma = np.diag([0.99, 0.01]).astype(complex)
    tau = np.eye(2, dtype=complex) / 2
    rho_se = st.density(np.kron(sigma, tau), tols=DEFAULT_TOLS)
    theta = math.asin(math.sqrt(0.1))
    sc = sup.build(ch.partial_swap_unitary(2, theta), rho_se, 2, 2, tols=DEFAULT_TOLS)
    op = classical_channel(np.array([[1.0, 0.5], [0.0, 0.5]]))
    ns = neso(sc)
    rep = bd.main_block([sc], [op], [ns], tols=DEFAULT_TOLS)[0]
    assert not rep.passed
    assert rep.slack < -0.1
    d_in, d_out = slack_identity(sc, op, ns)
    assert abs(rep.slack - (d_in - d_out)) <= 1e-9


# ---------------------------------------------------------------------------
# Composition with the preparation's own Spohn bound
# ---------------------------------------------------------------------------

def test_spohn_composition_identity_degenerates():
    sc, _ = rand_sc(2, 2, seed=4000)
    comp = spohn_composition(identity_channel(2), sc)
    assert abs(comp.spohn.slack) <= 1e-10
    assert abs(comp.combined_slack - comp.main.slack) <= 1e-12


def test_spohn_composition_depolarizing_arithmetic():
    sc, _ = rand_sc(2, 2, seed=4001)
    comp = spohn_composition(depolarizing_channel(2), sc)
    assert comp.spohn.passed and comp.main.passed
    assert abs(comp.combined_slack - (comp.spohn.slack + comp.main.slack)) <= 1e-12


def test_spohn_composition_random_sweep_small():
    for seed in range(40):
        sc, rng = rand_sc(2, 2, seed=4100 + seed)
        op = random_cptp(2, int(rng.integers(2, 5)), rng)
        comp = spohn_composition(op, sc)
        assert comp.spohn.passed and comp.main.passed


# ---------------------------------------------------------------------------
# Clausius
# ---------------------------------------------------------------------------

def qubit_thermal_sc(beta=1.0, theta=math.pi / 4, seed=0):
    h = np.diag([0.0, 1.0]).astype(complex)
    gibbs, z = bd.thermal_state(h, beta, tols=DEFAULT_TOLS)
    rng = np.random.default_rng(seed)
    anchor = random_density(2, 2, rng)
    rho_se = st.density(np.kron(anchor.mat, gibbs.mat), tols=DEFAULT_TOLS)
    sc = sup.build(ch.partial_swap_unitary(2, theta), rho_se, 2, 2, tols=DEFAULT_TOLS)
    return sc, h, gibbs, z, rng


def test_thermal_state_scalar_oracle():
    h = np.diag([0.0, 1.0]).astype(complex)
    gibbs, z = bd.thermal_state(h, 1.0, tols=DEFAULT_TOLS)
    assert abs(z - (1.0 + math.exp(-1.0))) <= 1e-12
    assert mk.max_abs(gibbs.mat - np.diag([1.0 / z, math.exp(-1.0) / z])) <= 1e-12


def test_clausius_stationary_input_saturates():
    sc, h, gibbs, _, _ = qubit_thermal_sc(seed=1)
    rep = clausius(sc, gibbs, h, 1.0)
    assert rep.passed
    assert abs(rep.slack) <= 1e-9


def test_clausius_excited_input_passes():
    sc, h, _, z, _ = qubit_thermal_sc(seed=2)
    excited = st.density(np.diag([0.0, 1.0]), tols=DEFAULT_TOLS)
    rep = clausius(sc, excited, h, 1.0)
    assert rep.passed
    assert abs(rep.metadata["Z"] - z) <= 1e-12
    assert abs(rep.metadata["F"] - math.log(z)) <= 1e-12


def test_clausius_random_sigma_sweep_small():
    sc, h, _, _, rng = qubit_thermal_sc(seed=3)
    for _ in range(50):
        sigma = random_density(2, int(rng.integers(1, 3)), rng)
        rep = clausius(sc, sigma, h, 1.0)
        assert rep.passed


def test_clausius_agrees_with_main_bound_code_path():
    sc, h, _, _, rng = qubit_thermal_sc(seed=4)
    for _ in range(10):
        sigma = random_density(2, 2, rng)
        rep_c = clausius(sc, sigma, h, 1.0)
        rep_m = bd.main_block([sc], [replace_channel(sigma)], [neso(sc)], tols=DEFAULT_TOLS)[0]
        assert abs(rep_c.lhs - rep_m.lhs) <= 1e-10
        assert abs(rep_c.rhs - rep_m.rhs) <= 1e-10
        assert abs(rep_c.slack - rep_m.slack) <= 1e-10


def test_clausius_rejects_non_thermal_fixed_point():
    # a swap against a non-thermal environment has a non-Gibbs fixed point
    h = np.diag([0.0, 1.0]).astype(complex)
    rng = np.random.default_rng(5)
    tau = random_density(2, 2, rng)
    rho_se = st.density(
        np.kron(random_density(2, 2, rng).mat, tau.mat), tols=DEFAULT_TOLS
    )
    sc = sup.build(swap_unitary(2), rho_se, 2, 2, tols=DEFAULT_TOLS)
    with pytest.raises(ValidationError, match="residual"):
        clausius(sc, tau, h, 1.0)


# ---------------------------------------------------------------------------
# QDPI
# ---------------------------------------------------------------------------

def test_qdpi_product_operation_both_sides_vanish():
    rng = np.random.default_rng(6)
    sc1, _ = rand_sc(2, 2, seed=5000)
    sc2, _ = rand_sc(2, 2, seed=5001)
    a_p = random_cptp(2, 2, rng)
    a_q = random_cptp(2, 3, rng)
    joint = ch.from_kraus([np.kron(kp, kq) for kp in a_p.kraus for kq in a_q.kraus])
    rep = bd.qdpi_block([sc1], [sc2], [joint], tols=DEFAULT_TOLS)[0]
    assert rep.passed
    assert abs(rep.lhs) <= 1e-9 and abs(rep.rhs) <= 1e-9


def test_qdpi_swap_preparation_through_depolarizing_superchannels():
    # SWAP's operation-state is maximally correlated across the P/Q pairs;
    # superchannels that discard the system output no mutual information
    rho_se = st.density(np.eye(4) / 4, tols=DEFAULT_TOLS)
    sc1 = sup.build(swap_unitary(2), rho_se, 2, 2, tols=DEFAULT_TOLS)
    sc2 = sup.build(swap_unitary(2), rho_se, 2, 2, tols=DEFAULT_TOLS)
    swap_op = unitary_channel(swap_unitary(2))
    rep = bd.qdpi_block([sc1], [sc2], [swap_op], tols=DEFAULT_TOLS)[0]
    assert rep.passed
    assert abs(rep.lhs - 2 * math.log(4)) <= 1e-9  # pure maximally entangled pairs
    assert rep.rhs <= 1e-9


def test_qdpi_random_sweep_small():
    for seed in range(40):
        rng = np.random.default_rng(5100 + seed)
        sc1, _ = rand_sc(2, 2, seed=5200 + seed)
        sc2, _ = rand_sc(2, 2, seed=5300 + seed)
        op = random_cptp(4, int(rng.integers(1, 17)), rng)
        rep = bd.qdpi_block([sc1], [sc2], [op], tols=DEFAULT_TOLS)[0]
        assert rep.passed, f"seed {seed}: slack {rep.slack}"
        # input-side identity between the MI and relative-entropy routes
        assert abs(rep.metadata["relent_in"] - rep.lhs) <= 1e-8
        # output-side dominance of the relative-entropy reference
        assert rep.metadata["relent_out"] >= rep.rhs - 1e-8


@pytest.mark.parametrize("route,shift,message", [(0, 1e-6, "QDPI input identity broken"),
                                                 (1, -1e-6, "QDPI output dominance broken")])
def test_the_qdpi_route_cross_checks_refuse_a_gap_of_1e_6(monkeypatch, route, shift, message):
    # A product operation gives D = I = 0 on each side; one route's relative
    # entropies are moved by 1e-6, far beyond rounding and far below what a
    # looser check would see.
    rng = np.random.default_rng(6)
    sc1, _ = rand_sc(2, 2, seed=5000)
    sc2, _ = rand_sc(2, 2, seed=5001)
    a_p, a_q = random_cptp(2, 2, rng), random_cptp(2, 3, rng)
    joint = ch.from_kraus([np.kron(kp, kq) for kp in a_p.kraus for kq in a_q.kraus])
    calls, real = [], st.relative_entropies

    def shifted(*args):
        calls.append(1)
        return [d + shift if len(calls) == route + 1 else d for d in real(*args)]
    monkeypatch.setattr(st, "relative_entropies", shifted)
    with pytest.raises(ValidationError, match=message):
        bd.qdpi_block([sc1], [sc2], [joint], tols=DEFAULT_TOLS)


def test_qdpi_requires_structure_and_tp():
    # The superchannels fix (d_P, d_Q) = (2, 3): a joint operation must map 6 to 6.
    sc1, _ = rand_sc(2, 2, seed=5400)
    sc2, _ = rand_sc(3, 2, seed=5401)
    for d in (4, 9):
        with pytest.raises(mk.ShapeError, match=rf"d_P\*d_Q=6; it maps {d} to {d}"):
            bd.qdpi_block([sc1], [sc2], [identity_channel(d)], tols=DEFAULT_TOLS)
    with pytest.raises(mk.ValidationError, match="CPTP"):
        bd.qdpi_block([sc1], [sc2], [ch.from_kraus([np.eye(6), np.eye(6)])], tols=DEFAULT_TOLS)
    assert bd.qdpi_block([sc1], [sc2], [identity_channel(6)], tols=DEFAULT_TOLS)[0].passed


# ---------------------------------------------------------------------------
# Holevo
# ---------------------------------------------------------------------------

def test_holevo_indistinguishable_ensemble():
    sc, rng = rand_sc(2, 2, seed=6000)
    op = random_cptp(2, 2, rng)
    ens = bd.Ensemble((0.5, 0.5), (op, op))
    chi, rep, sampled = holevo_trial(sc, ens, haar_unitaries(10, 2, rng))
    assert chi <= 1e-10
    assert max(sampled) <= 1e-9
    assert rep.passed


@pytest.mark.parametrize("shift,chi", [(-5e-7, -5e-7), (-5e-13, 0.0)])
def test_holevo_clips_only_float_noise_below_zero_from_chi(monkeypatch, shift, chi):
    # With one codeword, chi = S(average) - S(sigma') is 0; the entropies
    # taken after the average's check, which are the average's, are moved
    # by shift.
    sc, rng = rand_sc(2, 2, seed=6000)
    ens = bd.Ensemble((1.0,), (random_cptp(2, 2, rng),))
    checked, real_check, real_entropies = [], bd.check_density, st.entropies
    monkeypatch.setattr(bd, "check_density", lambda m, tols: checked.append(1) or real_check(m, tols))
    monkeypatch.setattr(st, "entropies", lambda w: [s + (shift if checked else 0.0) for s in real_entropies(w)])
    [rep] = bd.holevo_block([sc], [ens], haar_unitaries(3, 2, rng)[None], DEFAULT_TOLS)
    assert checked == [1]
    assert rep.lhs == pytest.approx(chi, rel=0.0, abs=1e-15)


def test_holevo_orthogonal_ensemble_attains_log2():
    # identity-like superchannel: product maximally mixed rho_SE with U = I
    rho_se = st.density(np.eye(4) / 4, tols=DEFAULT_TOLS)
    sc = sup.build(np.eye(4, dtype=complex), rho_se, 2, 2, tols=DEFAULT_TOLS)
    rng = np.random.default_rng(7)
    ens = bd.Ensemble(
        (0.5, 0.5),
        (
            replace_channel(st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)),
            replace_channel(st.density(np.diag([0.0, 1.0]), tols=DEFAULT_TOLS)),
        ),
    )
    chi, rep, sampled = holevo_trial(sc, ens, haar_unitaries(10, 2, rng))
    assert abs(chi - math.log(2)) <= 1e-9
    # the eigenbasis measurement (appended last) is computational here
    assert max(sampled) >= math.log(2) - 1e-9
    assert rep.passed and abs(rep.slack) <= 1e-8


def test_stacked_measurement_bases_match_sequential_draws_bitwise(oracles):
    # Reference: one Ginibre draw, QR and phase fix per basis, and one Born
    # einsum per (basis, state), as holevo did before it stacked them.
    def sequential_haar(d, rng):
        g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        ph = np.diag(r).copy()
        ph /= np.abs(ph)
        return q * ph

    for d in (2, 3, 4):
        for seed in range(50):
            rng_seq, rng_stk = np.random.default_rng(seed), np.random.default_rng(seed)
            seq = [sequential_haar(d, rng_seq) for _ in range(20)]
            stk = haar_unitaries(20, d, rng_stk)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(seq, stk))
            assert rng_seq.random() == rng_stk.random()
            assert st.haar_unitary(d, np.random.default_rng(seed)).tobytes() == seq[0].tobytes()

            states = np.stack([random_density(d, d, rng_seq).mat for _ in range(3)])
            probs = rng_seq.dirichlet(np.ones(3))
            avg = states.mean(axis=0)
            _, eig = mk.herm_eig_of(avg, *np.linalg.eigh((avg + mk.dagger(avg)) / 2.0), DEFAULT_TOLS)
            expected = []
            for basis in seq + [eig]:
                joint = np.empty((3, d))
                for k, s in enumerate(states):
                    born = np.real(np.einsum("im,ij,jm->m", basis.conj(), s, basis))
                    joint[k] = probs[k] * np.clip(born, 0.0, None)
                expected.append(oracles.classical_mutual_information(joint))
            got = bd.measured_information([states], [probs], np.concatenate([stk, eig[None]])[None])[0]
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]


def test_holevo_random_sweep_small():
    for seed in range(20):
        sc, rng = rand_sc(2, 2, seed=6100 + seed)
        k = int(rng.integers(2, 5))
        ops = tuple(random_cptp(2, int(rng.integers(1, 5)), rng) for _ in range(k))
        probs = rng.dirichlet(np.ones(k))
        ens = bd.Ensemble(tuple(float(p) for p in probs / probs.sum()), ops)
        chi, rep, sampled = holevo_trial(sc, ens, haar_unitaries(25, 2, rng))
        assert rep.passed, f"seed {seed}"
        assert chi >= -1e-10
        assert chi <= math.log(k) + 1e-9
        assert chi <= math.log(2) + 1e-9
        assert all(s <= chi + 1e-8 for s in sampled)


def test_ensemble_validation():
    op = identity_channel(2)
    with pytest.raises(ValidationError):
        bd.Ensemble((0.7, 0.7), (op, op))
    with pytest.raises(ValidationError):
        bd.Ensemble((0.5, 0.5), (op,))
    with pytest.raises(ValidationError):
        bd.Ensemble((1.5, -0.5), (op, op))
    with pytest.raises(ValidationError):
        bd.Ensemble((0.5, 0.5), (op, identity_channel(3)))
    with pytest.raises(ValidationError):
        bd.Ensemble((), ())


def test_classical_mutual_information_oracle():
    # perfectly correlated uniform bits carry log 2
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert abs(bd.classical_mutual_informations(joint[None])[0] - math.log(2)) <= 1e-12
    # independent bits carry none
    joint = np.full((2, 2), 0.25)
    assert abs(bd.classical_mutual_informations(joint[None])[0]) <= 1e-12


@pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_main_bounds_are_bitwise_the_per_trial_main_bound(d_s, d_e, oracles):
    # Blocks of 1-8 trials over a pinned and a random superchannel, random
    # operations of mixed ranks and an explicit op_kraus and op_choi.
    tols = DEFAULT_TOLS
    for scs, ops in oracles.block_instances(d_s, d_e, 200, [d_s, d_e, 1]):
        nss = [neso(sc) for sc in scs]
        reports = bd.main_block(scs, ops, nss, tols)
        for sc, op, ns, rep in zip(scs, ops, nss, reports):
            want = oracles.main_bound(sc, op.choi, op.kraus, ns.state, tols)
            got = (rep.lhs, rep.rhs, rep.slack)
            assert all(type(x) is float for x in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            one = bd.main_block([sc], [op], [ns], tols)[0]
            assert np.array((one.lhs, one.rhs, one.slack)).tobytes() == np.array(want).tobytes()


def information_tables(rng, n, k, d):
    """n joint tables (k, d): dense, sparse, with zero rows, and all zero."""
    tables = rng.random((n, k, d)) * (rng.random((n, k, d)) < rng.random((n, 1, 1)) * 1.5)
    tables[2::6] = rng.random((len(tables[2::6]), k, d))
    tables[1::7, : k // 2] = 0.0
    tables[::5] = 0.0
    return tables


def test_classical_mutual_informations_are_bitwise_the_per_table_oracle(oracles):
    # Rows of up to 59 * 4 = 236 positive entries: beyond 128 the pairwise
    # sum splits, so a pass that padded rows would move bits there.
    rng = np.random.default_rng(71)
    shapes = [(k, d) for k in (2, 3, 4) for d in (2, 3, 4)] + [(k, 4) for k in (33, 40, 59)]
    for k, d in shapes:
        tables = information_tables(rng, 60, k, d)
        got = bd.classical_mutual_informations(tables)
        want = [oracles.classical_mutual_information(t) for t in tables]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
        assert [bd.classical_mutual_informations(t[None])[0].hex() for t in tables[:12]] == [x.hex() for x in want[:12]]
        assert got[::5].tolist() == [0.0] * len(tables[::5])


def explicit_ensemble(d, rng):
    """Five codewords, one held by its Choi matrix only, one of weight 0."""
    ops = [random_cptp(d, 1 + i % (d * d), rng) for i in range(5)]
    ops[3] = ch.from_chois(ops[3].choi, d, d, DEFAULT_TOLS)[0]
    probs = rng.dirichlet(np.ones(5))
    probs[1] = 0.0
    return bd.Ensemble(tuple(float(p) for p in probs / probs.sum()), tuple(ops))


@pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_holevo_blocks_are_bitwise_the_per_trial_holevo(d_s, d_e, oracles):
    # Blocks of 1-8 trials cycle through a pinned superchannel with random
    # ensembles, random superchannels with random ensembles, and random
    # superchannels with an explicit ensemble.  Each random ensemble and the
    # Haar bases after it are the draws of a trial of one.
    tols = DEFAULT_TOLS
    pinned, rng = rand_sc(d_s, d_e, [d_s, d_e, 0])
    explicit = {"ensemble": explicit_ensemble(d_s, rng)}
    for kind, block in enumerate(oracles.blocks(48 if d_s < 4 else 20)):
        kind %= 3
        rngs = [np.random.default_rng([d_s, d_e, t]) for t in block]
        scs = [pinned if kind == 0 else rand_sc(d_s, d_e, [d_s, d_e, 1, t])[0] for t in block]
        enss = cp.random_ensembles(d_s, rngs, tols, explicit if kind == 2 else None)
        haar = np.array([haar_unitaries(6, d_s, r) for r in rngs])
        reports = bd.holevo_block(scs, enss, haar, tols)
        for t, sc, ens, h, rep in zip(block, scs, enss, haar, reports):
            chi = rep.metadata["chi"]
            if kind < 2:
                seq = np.random.default_rng([d_s, d_e, t])
                k = int(seq.integers(2, 5))
                chois = [oracles.random_cptp_parts(d_s, int(seq.integers(1, d_s * d_s + 1)), seq, tols)[0]
                         for _ in range(k)]
                p = seq.dirichlet(np.ones(k))
                assert ens.probs == tuple(float(x) for x in p / p.sum())
                assert [op.choi.tobytes() for op in ens.ops] == [c.tobytes() for c in chois]
                assert haar_unitaries(6, d_s, seq).tobytes() == h.tobytes()
            want_chi, want_sampled, want_w = oracles.holevo(sc, ens, h, tols)
            assert (chi.hex(), rep.lhs.hex(), rep.rhs.hex()) == (want_chi.hex(), want_chi.hex(), max(want_sampled).hex())
            assert rep.slack == want_chi - max(want_sampled)
            assert rep.metadata["best_measurement"] == int(np.argmax(want_sampled))
            # A collect serves a block of one, as explain runs it.
            details = {}
            one = bd.holevo_block([sc], [ens], h[None], tols, details)[0]
            assert [x.hex() for x in details["sampled_information"]] == [x.hex() for x in want_sampled]
            assert details["avg_state_eigenvalues"] == want_w.tolist()
            assert one.metadata["chi"] == want_chi


@pytest.mark.parametrize("d_p,d_q,d_e1,d_e2", [(2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (2, 3, 3, 2), (3, 2, 2, 3)])
def test_qdpi_blocks_are_bitwise_the_per_trial_qdpi(d_p, d_q, d_e1, d_e2, oracles):
    # Blocks of 1-8 trials cycle through a pinned superchannel pair with
    # random joint operations, random pairs with random operations, and
    # random pairs with an explicit operation given by its Kraus operators
    # and by its Choi matrix.
    tols = DEFAULT_TOLS
    d = d_p * d_q
    rng = np.random.default_rng([d_p, d_q, 0])
    joint = random_cptp(d, 3, rng)
    explicit = [{"op_kraus": ch.from_kraus(list(joint.kraus))}, {"op_choi": ch.from_chois(joint.choi, d, d, DEFAULT_TOLS)[0]}]
    pinned = (rand_sc(d_p, d_e1, [d_p, d_q, 1])[0], rand_sc(d_q, d_e2, [d_p, d_q, 2])[0])
    for kind, block in enumerate(oracles.blocks(36 if d < 9 else 10)):
        kind %= 4
        rngs = [np.random.default_rng([d_p, d_q, 3, t]) for t in block]
        pairs = [pinned if kind == 0 else (rand_sc(d_p, d_e1, [d_p, d_q, 4, t])[0],
                                           rand_sc(d_q, d_e2, [d_p, d_q, 5, t])[0]) for t in block]
        ops = cp.random_operations(d, rngs, tols, explicit[kind - 2] if kind >= 2 else None)
        reports = bd.qdpi_block([a for a, _ in pairs], [b for _, b in pairs], ops, tols)
        for (sc1, sc2), op, rep in zip(pairs, ops, reports):
            mi_in, mi_out, rel_in, rel_out, flags = oracles.qdpi(sc1, sc2, op, tols)
            want = np.array([mi_in, mi_out, mi_in - mi_out, rel_in, rel_out])
            got = np.array([rep.lhs, rep.rhs, rep.slack, rep.metadata["relent_in"], rep.metadata["relent_out"]])
            assert got.tobytes() == want.tobytes()
            assert rep.flags == flags
            # A collect serves a block of one, as explain runs it.
            details = {}
            one = bd.qdpi_block([sc1], [sc2], [op], tols, details)[0]
            assert np.array([details[k] for k in ("mi_in", "mi_out", "relent_in", "relent_out")]).tobytes() == \
                np.array([mi_in, mi_out, rel_in, rel_out]).tobytes()
            assert np.array([one.lhs, one.rhs, one.slack]).tobytes() == want[:3].tobytes()
