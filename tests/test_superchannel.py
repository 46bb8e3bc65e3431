import math

import numpy as np
import pytest

from supchan import campaigns as cp
from supchan import channels as ch
from supchan import matkernel as mk
from supchan import states as st
from supchan import superchannel as sup
from supchan.config import DEFAULT_TOLS
from supchan.matkernel import ShapeError, ValidationError

from conftest import (act, apply, channel_from_dilation, choi_of_msharp, env_marginal, identity_channel,
                      msharp_tp_residual, neso, neso_op, random_cptp, random_density, relative_entropy, replace_channel,
                      swap_unitary, sys_marginal, von_neumann_entropy)


def rand_sc(d_s, d_e, seed, rank=None, product=False):
    rng = np.random.default_rng(seed)
    if product:
        sigma = random_density(d_s, d_s, rng)
        tau = random_density(d_e, d_e, rng)
        rho = st.density(np.kron(sigma.mat, tau.mat), tols=DEFAULT_TOLS)
    else:
        r = rank if rank is not None else int(rng.integers(1, d_s * d_e + 1))
        raw = random_density(d_s * d_e, r, rng)
        rho = st.density(raw.mat, tols=DEFAULT_TOLS)
    return sup.build(st.haar_unitary(d_s * d_e, rng), rho, d_s, d_e, tols=DEFAULT_TOLS), rng


def test_build_validation():
    rng = np.random.default_rng(0)
    rho = random_density(4, 4, rng)
    rho_se = st.density(rho.mat, tols=DEFAULT_TOLS)
    with pytest.raises(ValidationError):
        sup.build(np.eye(4) * 1.5, rho_se, 2, 2, tols=DEFAULT_TOLS)
    with pytest.raises(ShapeError, match=r"^unitary shape \(6, 6\) != joint dim 4$"):
        sup.build(st.haar_unitary(6, rng), rho_se, 2, 2, tols=DEFAULT_TOLS)


def test_build_block_refuses_a_rho_se_that_is_not_on_d_s_times_d_e():
    rho_se = random_density(4, 4, np.random.default_rng(0))
    for d_s, d_e in ((2, 3), (3, 2), (1, 2)):
        with pytest.raises(ShapeError, match=rf"^rho_SE dim 4 != d_S \* d_E = {d_s * d_e}$"):
            sup.build_block([np.eye(d_s * d_e)], [rho_se], d_s, d_e, DEFAULT_TOLS)


def test_uncorrelated_trivial_dynamics():
    # rho_SE = sigma (x) tau with U = I: the identity operation returns sigma
    rng = np.random.default_rng(1)
    sigma = random_density(2, 2, rng)
    tau = random_density(3, 3, rng)
    rho_se = st.density(np.kron(sigma.mat, tau.mat), tols=DEFAULT_TOLS)
    sc = sup.build(np.eye(6, dtype=complex), rho_se, 2, 3, tols=DEFAULT_TOLS)
    got = act(sc, identity_channel(2))
    assert mk.max_abs(got.mat - sigma.mat) <= 1e-12


def test_factorized_superchannel_oracle():
    # for product rho_SE the superchannel factorizes: act(A) = Phi(A(sigma))
    for seed in range(20):
        sc, rng = rand_sc(2, 2, seed=100 + seed, product=True)
        sigma = sys_marginal(sc)
        phi = channel_from_dilation(sc.u, env_marginal(sc))
        op = random_cptp(2, int(rng.integers(1, 5)), rng)
        got = act(sc, op)
        oracle = apply(phi, apply(op, sigma))
        assert mk.max_abs(got.mat - oracle.mat) <= 1e-10


def test_dual_definition_agreement():
    # index-tensor contraction vs operational formula on correlated instances
    for seed in range(25):
        sc, rng = rand_sc(2, int(2 + seed % 2), seed=200 + seed)
        op = random_cptp(2, int(rng.integers(1, 5)), rng)
        operational = act(sc, op).mat
        index_formula = sup.act_normalized_block(sup.m_tensors([sc]), [op.choi_state], DEFAULT_TOLS)[0]
        assert mk.max_abs(operational - index_formula) <= 1e-10


def test_act_identity_is_plain_evolution():
    sc, _ = rand_sc(2, 3, seed=7)
    got = act(sc, identity_channel(2))
    evolved = sc.u @ sc.rho_se.mat @ sc.u.conj().T
    oracle = mk.partial_trace(evolved, (2, 3), [0])
    assert mk.max_abs(got.mat - oracle) <= 1e-12


def test_act_replace_conditions_environment():
    # a replace preparation decorrelates: sigma' = tr_E[U (pi (x) tau) U^dag]
    sc, rng = rand_sc(2, 2, seed=8)
    pi_vec = st.random_pure(2, rng)
    pi = st.density(np.outer(pi_vec, pi_vec.conj()), tols=DEFAULT_TOLS)
    got = act(sc, replace_channel(pi))
    tau = env_marginal(sc)
    joint = np.kron(pi.mat, tau.mat)
    oracle = mk.partial_trace(sc.u @ joint @ sc.u.conj().T, (2, 2), [0])
    assert mk.max_abs(got.mat - oracle) <= 1e-11


def test_act_requires_cptp():
    sc, _ = rand_sc(2, 2, seed=9)
    non_tp = ch.from_kraus([np.array([[1, 0], [0, 0.5]], dtype=complex)])
    with pytest.raises(ValidationError):
        act(sc, non_tp)
    with pytest.raises(ShapeError):
        act(sc, identity_channel(3))


def test_act_normalized_consistency_and_linearity():
    sc, rng = rand_sc(2, 2, seed=10)
    a = random_cptp(2, 3, rng)
    b = random_cptp(2, 1, rng)
    via_m = sup.act_normalized_block(sup.m_tensors([sc]), [a.choi_state], DEFAULT_TOLS)[0]
    assert mk.max_abs(via_m - act(sc, a).mat) <= 1e-11
    lam = 0.37
    mix = lam * a.choi_state + (1 - lam) * b.choi_state
    got = sup.act_normalized_block(sup.m_tensors([sc]), [mix], tols=DEFAULT_TOLS)[0]
    oracle = lam * act(sc, a).mat + (1 - lam) * act(sc, b).mat
    assert mk.max_abs(got - oracle) <= 1e-11


def test_act_normalized_depolarizing_input_oracle():
    # I/d^2 is the operation-state of the completely depolarizing channel
    sc, _ = rand_sc(2, 2, seed=11)
    d = sc.d_s
    got = sup.act_normalized_block(sup.m_tensors([sc]), [np.eye(d * d) / (d * d)], tols=DEFAULT_TOLS)[0]
    joint = np.kron(np.eye(d) / d, env_marginal(sc).mat)
    oracle = mk.partial_trace(sc.u @ joint @ sc.u.conj().T, (2, 2), [0])
    assert mk.max_abs(got - oracle) <= 1e-11


def test_act_normalized_trace_preserving_on_operation_states():
    for seed in range(20):
        sc, rng = rand_sc(2, 2, seed=300 + seed)
        ops = [random_cptp(2, int(rng.integers(1, 5)), rng) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        mix = sum(w * op.choi_state for w, op in zip(weights, ops))
        out = sup.act_normalized_block(sup.m_tensors([sc]), [mix], tols=DEFAULT_TOLS)[0]
        assert abs(np.trace(out).real - 1.0) <= 1e-10


def test_choi_of_msharp_psd_and_tp_residual():
    for seed in range(25):
        sc, _ = rand_sc(2, 2, seed=400 + seed)
        choi = choi_of_msharp(sc)
        w = np.linalg.eigvalsh(choi)
        assert w[0] >= -1e-9
        assert msharp_tp_residual(sc) <= 1e-9


def test_choi_of_msharp_maximally_mixed_trivial_case():
    # with rho_SE maximally mixed the system marginal is I/d and M# is
    # trace preserving on the whole operation-state space: tr_out Choi = I
    d_s = d_e = 2
    rho_se = st.density(np.eye(4) / 4, tols=DEFAULT_TOLS)
    sc = sup.build(np.eye(4, dtype=complex), rho_se, d_s, d_e, tols=DEFAULT_TOLS)
    choi = choi_of_msharp(sc)
    w = mk.partial_trace(choi, (d_s, d_s, d_s), [1, 2])
    assert mk.max_abs(w - np.eye(d_s * d_s)) <= 1e-10
    assert np.linalg.eigvalsh(choi)[0] >= -1e-9


def test_choi_of_msharp_factorized_composition_oracle():
    # for rho_SE = sigma (x) tau, M# is (evaluate at sigma) then Phi;
    # compare Choi matrices column by column through matrix units
    sc, _ = rand_sc(2, 2, seed=12, product=True)
    d = sc.d_s
    sigma = sys_marginal(sc)
    phi = channel_from_dilation(sc.u, env_marginal(sc))
    choi = choi_of_msharp(sc).reshape(d, d * d, d, d * d)
    for i in range(d * d):
        for j in range(d * d):
            e = np.zeros((d * d, d * d), dtype=complex)
            e[i, j] = 1.0
            # lift E_ij to the operation d*E_ij and run the composition
            lifted = d * np.einsum("aibj,ij->ab", e.reshape(d, d, d, d), sigma.mat)
            oracle = ch.apply_matrices([phi], lifted[None])[0]
            assert mk.max_abs(choi[:, i, :, j] - oracle) <= 1e-10


def test_neso_swap_gives_env_marginal():
    rng = np.random.default_rng(13)
    tau = random_density(2, 2, rng)
    sigma = random_density(2, 2, rng)
    rho_se = st.density(np.kron(sigma.mat, tau.mat), tols=DEFAULT_TOLS)
    sc = sup.build(swap_unitary(2), rho_se, 2, 2, tols=DEFAULT_TOLS)
    ns = neso(sc)
    assert mk.max_abs(ns.state.mat - tau.mat) <= 1e-9
    assert mk.max_abs(env_marginal(sc).mat - tau.mat) <= 1e-12


def test_neso_thermal_fixed_point_oracle():
    # partial-swap dilation against a thermal environment settles on it
    beta, energies = 1.0, np.array([0.0, 1.0])
    gibbs = np.diag(np.exp(-beta * energies))
    gibbs /= np.trace(gibbs)
    tau = st.density(gibbs.astype(complex), tols=DEFAULT_TOLS)
    rng = np.random.default_rng(14)
    sigma = random_density(2, 2, rng)
    rho_se = st.density(np.kron(sigma.mat, tau.mat), tols=DEFAULT_TOLS)
    sc = sup.build(ch.partial_swap_unitary(2, 0.6), rho_se, 2, 2, tols=DEFAULT_TOLS)
    ns = neso(sc)
    assert mk.max_abs(ns.state.mat - tau.mat) <= 1e-9


def test_neso_choi_structure_and_entropy_split():
    sc, _ = rand_sc(2, 2, seed=15)
    ns = neso(sc)
    d = sc.d_s
    op = neso_op(ns)
    assert mk.max_abs(op.choi - np.kron(ns.state.mat, np.eye(d))) <= 1e-10
    s_opstate = von_neumann_entropy(
        st.density(op.choi_state, tols=DEFAULT_TOLS)
    )
    s_ness = von_neumann_entropy(ns.state)
    assert abs(s_opstate - (s_ness + math.log(d))) <= 1e-10


def test_neso_self_consistency_sweep():
    # M#[E_d] == e across 100 random instances
    for seed in range(100):
        sc, _ = rand_sc(2, 2, seed=1000 + seed)
        ns = neso(sc)
        back = sup.act_normalized_block(sup.m_tensors([sc]), [neso_op(ns).choi_state], tols=DEFAULT_TOLS)[0]
        assert mk.max_abs(back - ns.state.mat) <= 1e-9


def test_msharp_monotonicity_on_operation_states():
    # relative entropy cannot grow through M# on operation-state pairs
    for seed in range(30):
        sc, rng = rand_sc(2, 2, seed=500 + seed)
        d = sc.d_s
        x_op = random_cptp(d, int(rng.integers(1, 5)), rng)
        y_op = random_cptp(d, int(rng.integers(2, 5)), rng)
        x = st.density(x_op.choi_state, tols=DEFAULT_TOLS)
        y = st.density(y_op.choi_state, tols=DEFAULT_TOLS)
        before = relative_entropy(x, y)
        x_out, y_out = sup.act_normalized_block(sup.m_tensors([sc, sc]), [x.mat, y.mat], tols=DEFAULT_TOLS)
        after = relative_entropy(st.density(x_out, tols=DEFAULT_TOLS), st.density(y_out, tols=DEFAULT_TOLS))
        if math.isfinite(before):
            assert after <= before + 1e-8


def act_kron_loop(sc, op):
    """act() with one np.kron(K, I_E) and two products per Kraus operator:
    the bitwise oracle for the stacked evaluation."""
    i_e = np.eye(sc.d_e, dtype=complex)
    joint = np.zeros_like(sc.rho_se.mat)
    for k in op.kraus:
        kk = np.kron(k, i_e)
        joint += kk @ sc.rho_se.mat @ kk.conj().T
    evolved = sc.u @ joint @ sc.u.conj().T
    out = mk.partial_trace(evolved, (sc.d_s, sc.d_e), [0])
    return (out + out.conj().T) / 2.0


@pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_act_is_bitwise_the_per_kraus_kron_loop(d_s, d_e):
    rng = np.random.default_rng([d_s, d_e])
    for i in range(200):
        raw = random_density(d_s * d_e, int(rng.integers(1, d_s * d_e + 1)), rng)
        rho_se = st.density(raw.mat, tols=DEFAULT_TOLS)
        sc = sup.build(st.haar_unitary(d_s * d_e, rng), rho_se, d_s, d_e, tols=DEFAULT_TOLS)
        op = random_cptp(d_s, 1 + i % (d_s * d_s), rng)
        assert act(sc, op).mat.tobytes() == act_kron_loop(sc, op).tobytes()


@pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_act_block_is_bitwise_the_per_trial_act(d_s, d_e, oracles):
    tols = DEFAULT_TOLS
    for scs, ops in oracles.block_instances(d_s, d_e, 200, [d_s, d_e]):
        # sigma' comes with the decomposition its check took, bitwise the
        # per-matrix oracle's (below).
        sigma, (w, v) = sup.act_block(scs, ops, tols=DEFAULT_TOLS)
        assert sigma.shape == (len(ops), d_s, d_s)
        for b, (sc, op) in enumerate(zip(scs, ops)):
            want = oracles.act(sc, op.kraus, tols)
            assert sigma[b].tobytes() == want.tobytes()
            assert act(sc, op).mat.tobytes() == want.tobytes()
            w_one, v_one = oracles.herm_eig(want, tols)
            assert w[b].tobytes() == w_one.tobytes() and v[b].tobytes() == v_one.tobytes()


def test_act_block_refuses_an_operation_that_is_not_trace_preserving():
    sc, rng = rand_sc(2, 2, 3)
    ops = ch.random_cptps(2, [ch.bcsz_draw(2, 2, rng), ch.bcsz_draw(2, 3, rng)], tols=DEFAULT_TOLS)
    half = ch.from_chois(ops[1].choi / 2, 2, 2, DEFAULT_TOLS)[0]
    with pytest.raises(ValidationError, match="requires a CPTP operation"):
        sup.act_block([sc, sc, sc], [ops[0], half, ops[1]], tols=DEFAULT_TOLS)


BATCHES = (1, 2, 7, 300)
SMALL_BATCHES = (1, 2, 7)


def random_block(d_s, d_e, n, seed):
    """n random superchannels of one (d_S, d_E), drawn as a campaign block
    draws them, and their generators."""
    rngs = [np.random.default_rng([*seed, n, t]) for t in range(n)]
    return cp.random_superchannels(d_s, d_e, rngs, DEFAULT_TOLS), rngs


@pytest.mark.parametrize("d_s,d_e,batches", [(d_s, d_e, BATCHES) for d_s in range(1, 5) for d_e in range(1, 5)]
                         + [(5, d_e, SMALL_BATCHES) for d_e in range(1, 5)])
def test_stacked_m_tensors_and_their_action_have_the_bits_of_each_superchannel(d_s, d_e, batches, oracles):
    # One stacked contraction, along the greedy path of one slice, gives
    # each superchannel the bits of its own optimize=True einsum, and the
    # stacked action those of its own plain einsum, at every batch size;
    # the path is searched once per slice shapes.
    mk._einsum_path.cache_clear()
    for n in batches:
        scs, rngs = random_block(d_s, d_e, n, [d_s, d_e])
        ms = sup.m_tensors(scs)
        assert ms.shape == (n,) + (d_s,) * 6
        ops = cp.random_operations(d_s, rngs, DEFAULT_TOLS)
        out = sup.act_normalized_block(ms, [op.choi_state for op in ops], DEFAULT_TOLS)
        for sc, m, op, o in zip(scs, ms, ops, out, strict=True):
            assert m.tobytes() == oracles.m_tensor(sc).tobytes()
            assert o.tobytes() == oracles.act_normalized(sc, op.choi_state, DEFAULT_TOLS).tobytes()
    assert mk._einsum_path.cache_info().misses == 1


@pytest.mark.parametrize("d_p,d_q,batches", [(d_p, d_q, BATCHES) for d_p in range(1, 4) for d_q in range(1, 4)]
                         + [(4, 4, SMALL_BATCHES), (4, 2, SMALL_BATCHES), (2, 4, SMALL_BATCHES)])
def test_the_stacked_joint_action_has_the_bits_of_each_trial(d_p, d_q, batches, oracles):
    # qdpi's contraction of M1, M2 and the joint operation-state, as one
    # stacked call: the bits of each trial's optimize=True einsum.  At
    # d_P = d_Q = 1 a path searched with the batch index differs.
    joint = "abcpqr,ABCPQR,bcBCqrQR->aApP"
    mk._einsum_path.cache_clear()
    for n in batches:
        sc1s, rngs = random_block(d_p, 2, n, [d_p, d_q, 1])
        sc2s, _ = random_block(d_q, 3, n, [d_p, d_q, 2])
        # The contraction is linear in X and checks nothing, so any X serves.
        xs = np.array([st.ginibre((d_p * d_q) ** 2, (d_p * d_q) ** 2, rng) for rng in rngs])
        got = sup.joint_act_normalized(sup.m_tensors(sc1s), sup.m_tensors(sc2s), xs)
        for sc1, sc2, x, g in zip(sc1s, sc2s, xs, got, strict=True):
            y = (d_p * d_q) * x.reshape(d_p, d_p, d_q, d_q, d_p, d_p, d_q, d_q)
            want = np.einsum(joint, oracles.m_tensor(sc1), oracles.m_tensor(sc2), y, optimize=True)
            want = want.reshape(d_p * d_q, d_p * d_q)
            assert g.tobytes() == ((want + want.conj().T) / 2.0).tobytes()
    # One search for each split's M and one for the joint contraction.
    assert mk._einsum_path.cache_info().misses == 3


def test_m_tensors_of_mixed_dims_is_a_shape_error():
    scs = [rand_sc(2, 2, 1)[0], rand_sc(2, 3, 2)[0]]
    with pytest.raises(ShapeError, match=r"^m_tensors needs superchannels of one \(d_S, d_E\), "
                                         r"got \[\(2, 2\), \(2, 3\)\]$"):
        sup.m_tensors(scs)


@pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_neso_blocks_are_bitwise_the_per_superchannel_steady_operation(d_s, d_e, oracles):
    tols = DEFAULT_TOLS
    for scs, _ in oracles.block_instances(d_s, d_e, 36, [d_s, d_e, 73]):
        for sc, ns in zip(scs, sup.neso_block(scs, tols=DEFAULT_TOLS)):
            state, resid, method, dim = oracles.steady_operation(sc, tols)
            assert ns.state.mat.tobytes() == state.tobytes()
            assert (ns.residual, ns.method, ns.fixed_space_dim) == (resid, method, dim)
            # The steady operation reads the decomposition that the steady
            # state's check took.
            ks = oracles.replace_kraus(state, tols)
            op = neso_op(ns)
            assert op.kraus.tobytes() == ks.tobytes() and op.choi.tobytes() == oracles.choi(ks).tobytes()
