import math

import numpy as np
import pytest

from supchan import bounds as bd
from supchan import channels as ch
from supchan import matkernel as mk
from supchan import states as st
from supchan import superchannel as sup
from supchan.config import DEFAULT_TOLS, Tolerances
from supchan.matkernel import ShapeError, ValidationError

from conftest import (apply, channel_from_dilation, compose, depolarizing_channel, entropy_of_spectrum, fixed_point,
                      identity_channel, is_trace_preserving, partial_damping_kraus, random_cptp, random_density,
                      relative_entropy, replace_channel, swap_unitary, unitary_channel)


def rand_op(d, rank, seed):
    return random_cptp(d, rank, np.random.default_rng(seed))


def test_apply_identity_and_replace():
    rng = np.random.default_rng(1)
    rho = random_density(3, 2, rng)
    assert mk.max_abs(apply(identity_channel(3), rho).mat - rho.mat) <= 1e-12
    target = random_density(3, 3, rng)
    rep = replace_channel(target)
    for _ in range(5):
        rho = random_density(3, int(rng.integers(1, 4)), rng)
        assert mk.max_abs(apply(rep, rho).mat - target.mat) <= 1e-11


def test_apply_matches_choi_contraction_oracle():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(10):
            op = random_cptp(d, int(rng.integers(1, d * d + 1)), rng)
            rho = random_density(d, d, rng)
            got = apply(op, rho).mat
            oracle = np.einsum(
                "aibj,ij->ab", op.choi.reshape(d, d, d, d), rho.mat
            )
            assert mk.max_abs(got - oracle) <= 1e-11


def test_apply_non_tp_flagging():
    k = [np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)]
    op = ch.from_kraus(k)
    assert not is_trace_preserving(op)
    rho = st.density(np.eye(2) / 2, tols=DEFAULT_TOLS)
    with pytest.raises(ValidationError):
        apply(op, rho)
    out = ch.apply_matrices([op], rho.mat[None])[0]
    assert isinstance(out, np.ndarray)
    assert abs(np.trace(out) - 0.625) <= 1e-12


def test_choi_conventions():
    # trace of the Choi of a TP map is d_in; tr_out(choi) = I
    for d in (2, 3):
        op = rand_op(d, d, seed=5)
        assert abs(np.trace(op.choi).real - d) <= 1e-9
        assert mk.max_abs(ch.tr_out_choi(op.choi, d, d) - np.eye(d)) <= 1e-9
        w = np.linalg.eigvalsh(op.choi)
        assert w[0] >= -1e-9


def test_choi_equals_kraus_on_maximally_entangled_state():
    # choi == d_in * sum_k (K_k (x) I)|beta><beta|(K_k (x) I)^dag
    d = 3
    op = rand_op(d, 4, seed=6)
    beta = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for k in op.kraus:
        v = np.kron(k, np.eye(d)) @ beta
        acc += np.outer(v, v.conj())
    assert mk.max_abs(op.choi - d * acc) <= 1e-10


def test_unitary_choi_is_rank_one():
    u = st.haar_unitary(3, np.random.default_rng(7))
    op = unitary_channel(u)
    w = np.linalg.eigvalsh(op.choi_state)
    assert np.sum(w > 1e-10) == 1
    assert entropy_of_spectrum(mk.clamp_spectrum(w, tols=DEFAULT_TOLS)) <= 1e-10


def test_depolarizing_choi_maximally_mixed():
    d = 2
    op = depolarizing_channel(d)
    assert mk.max_abs(op.choi_state - np.eye(d * d) / (d * d)) <= 1e-12
    rho = random_density(d, 1, np.random.default_rng(3))
    assert mk.max_abs(apply(op, rho).mat - np.eye(d) / d) <= 1e-12


def test_kraus_choi_round_trip_action():
    # Kraus sets differ by isometric mixing: compare via action on a basis
    rng = np.random.default_rng(11)
    d = 4
    op = random_cptp(d, 5, rng)
    rebuilt = ch.from_kraus(list(ch.from_chois(op.choi, d, d, DEFAULT_TOLS)[0].kraus))
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            assert mk.max_abs(ch.apply_matrices([op], e[None])[0] - ch.apply_matrices([rebuilt], e[None])[0]) <= 1e-10


def test_from_chois_rejects_non_cp():
    bad = np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex)
    with pytest.raises(ValidationError):
        ch.from_chois(bad, 2, 2, tols=DEFAULT_TOLS)
    with pytest.raises(ValidationError, match="not CP"):
        ch.from_chois([identity_channel(2).choi, bad], 2, 2, tols=DEFAULT_TOLS)


def test_from_chois_keeps_the_kraus_operators_of_its_cp_check(monkeypatch, oracles):
    # Off-Hermitian by 5e-10: above the default herm_tol, within the override.
    choi = identity_channel(2).choi.copy()
    choi[0, 3] += 5e-10j
    tols = Tolerances(herm_tol=1e-9)
    with pytest.raises(ValidationError, match="not Hermitian"):
        ch.from_chois(choi, 2, 2, tols=DEFAULT_TOLS)
    mixed = rand_op(2, 3, seed=5).choi
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or real(m))
    ops = ch.from_chois([choi, mixed], 2, 2, tols=tols)
    assert calls == [(2, 4, 4)]
    assert [op.kraus.tobytes() for op in ops] == [oracles.kraus(c, 2, 2, tols).tobytes() for c in (choi, mixed)]
    assert [len(op.kraus) for op in ops] == [1, 3]
    assert mk.max_abs(ch.from_kraus(ops[0].kraus).choi - choi) <= 1e-9
    assert ops[1].choi.tobytes() == mixed.tobytes()


def test_channel_from_dilation_identity_and_swap():
    rng = np.random.default_rng(13)
    tau = random_density(2, 2, rng)
    ident = channel_from_dilation(np.eye(4, dtype=complex), tau)
    rho = random_density(2, 2, rng)
    assert mk.max_abs(apply(ident, rho).mat - rho.mat) <= 1e-11

    swap = channel_from_dilation(swap_unitary(2), tau)
    assert mk.max_abs(apply(swap, rho).mat - tau.mat) <= 1e-11


def test_channel_from_dilation_matches_direct_formula():
    rng = np.random.default_rng(17)
    for d_s, d_e in ((2, 2), (2, 3), (3, 2)):
        u = st.haar_unitary(d_s * d_e, rng)
        tau = random_density(d_e, d_e, rng)
        op = channel_from_dilation(u, tau)
        assert is_trace_preserving(op)
        sigma = random_density(d_s, d_s, rng)
        direct = mk.partial_trace(u @ np.kron(sigma.mat, tau.mat) @ u.conj().T, (d_s, d_e), [0])
        assert mk.max_abs(apply(op, sigma).mat - direct) <= 1e-11
    with pytest.raises(ShapeError, match="unitary dim 5 does not factor over environment dim 2"):
        channel_from_dilation(np.eye(5, dtype=complex), tau)


def test_fixed_point_known_channels():
    fp = fixed_point(depolarizing_channel(3))
    assert mk.max_abs(fp.state.mat - np.eye(3) / 3) <= 1e-9
    assert fp.residual <= 1e-9

    omega = random_density(2, 2, np.random.default_rng(19))
    fp = fixed_point(replace_channel(omega))
    assert mk.max_abs(fp.state.mat - omega.mat) <= 1e-9
    assert fp.fixed_space_dim == 1


def test_fixed_point_matches_superoperator_eigen_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        op = random_cptp(2, int(rng.integers(2, 5)), rng)
        fp = fixed_point(op)
        assert fp.residual <= 1e-9
        # independent oracle: eigenvalue-1 eigenvector of the transfer matrix
        t = ch.transfer_matrices([op])[0]
        evals, evecs = np.linalg.eig(t)
        idx = int(np.argmin(np.abs(evals - 1.0)))
        cand = evecs[:, idx].reshape(2, 2)
        cand = (cand + cand.conj().T) / 2
        cand /= np.trace(cand).real
        assert mk.max_abs(cand - fp.state.mat) <= 1e-8


def test_fixed_point_invariance_sweep():
    # apply(op, e) == e within fp_tol, 100 random channels per dim
    for d in (2, 3, 4):
        for seed in range(100):
            rng = np.random.default_rng([d, seed])
            op = random_cptp(d, int(rng.integers(1, d * d + 1)), rng)
            fp = fixed_point(op)
            out = apply(op, fp.state)
            assert np.linalg.svd(out.mat - fp.state.mat, compute_uv=False).sum() <= 1e-9


def test_fixed_point_unital_degenerate_falls_back_to_cesaro():
    # the identity channel has a maximally degenerate fixed space; the
    # Cesaro route returns the maximally mixed representative immediately
    fp = fixed_point(identity_channel(2))
    assert fp.method == "cesaro"
    assert fp.fixed_space_dim == 4
    assert mk.max_abs(fp.state.mat - np.eye(2) / 2) <= 1e-12


@pytest.mark.parametrize("d,dim,diag", [(3, 4, [2 / 3, 0, 1 / 3]), (4, 9, [1 / 2, 0, 1 / 4, 1 / 4])])
@pytest.mark.parametrize("choi_given", [False, True])
def test_fixed_point_of_a_degenerate_channel_is_the_cesaro_limit(d, dim, diag, choi_given):
    # I/d is not fixed, and the Cesaro average reaches the fixed space only
    # at rate 1/N; its limit, the part of I/d in the eigenvalue-1
    # eigenspace, is exactly fixed by the Kraus-built map.  The map rebuilt
    # from its Choi matrix acts through the Kraus operators of its CP check,
    # so its fixed point is bitwise that of those operators given as Kraus.
    op = ch.from_kraus(partial_damping_kraus(d))
    if choi_given:
        op = ch.from_chois(op.choi, d, d, DEFAULT_TOLS)[0]
        want = fixed_point(ch.from_kraus(list(op.kraus)))
    fp = fixed_point(op)
    assert (fp.method, fp.fixed_space_dim) == ("cesaro", dim)
    if choi_given:
        assert (fp.method, fp.residual, fp.fixed_space_dim) == (want.method, want.residual, want.fixed_space_dim)
        assert (fp.state.mat.tobytes(), fp.state.w.tobytes()) == (want.state.mat.tobytes(), want.state.w.tobytes())
    else:
        assert fp.residual == 0.0
    assert mk.max_abs(fp.state.mat - np.diag(diag)) <= 1e-12


def test_a_candidate_whose_negative_part_is_beyond_float_noise_is_refused():
    # Once clamped, both candidates are fixed by the identity; only the one
    # whose negative eigenvalue could be rounding is repaired into a state.
    noisy, negative = (np.diag([1.0 + x, -x]).astype(complex) for x in (1e-9, 1e-6))
    ness = ch._steady_states([identity_channel(2)] * 2, np.array([noisy, negative]), "eigen", np.array([4, 4]),
                             DEFAULT_TOLS)
    assert ness[0].method == "eigen" and ness[1] is None


def test_fixed_points_check_one_residual_per_candidate(monkeypatch):
    # The eigen candidate, I/d and the Cesaro limit: no iteration of the channel.
    calls = []
    real = ch.apply_matrices
    monkeypatch.setattr(ch, "apply_matrices", lambda ops, mats: calls.append(len(ops)) or real(ops, mats))
    ops = [ch.from_kraus(partial_damping_kraus(3)), rand_op(3, 4, seed=8)]
    assert [fp.method for fp in ch.fixed_points(ops, tols=DEFAULT_TOLS)] == ["cesaro", "eigen"]
    assert calls == [1, 1, 1]


def test_a_singular_eigenvector_matrix_is_a_fixed_point_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ch.FixedPointError, match=r"^no steady state within residual 1e-09 \(fixed_space_dim=4\)$"):
        fixed_point(ch.from_kraus(partial_damping_kraus(3)))


def test_fixed_point_requires_square_tp():
    with pytest.raises(ValidationError):
        fixed_point(ch.from_kraus([np.array([[1, 0], [0, 0.5]], dtype=complex)]))


def test_relative_entropy_contractivity_spot_check():
    rng = np.random.default_rng(29)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        op = random_cptp(d, int(rng.integers(1, d * d + 1)), rng)
        r1 = random_density(d, d, rng)
        r2 = random_density(d, d, rng)
        before = relative_entropy(r1, r2)
        after = relative_entropy(apply(op, r1), apply(op, r2))
        assert after <= before + 1e-8


def test_marginal_operation_product():
    rng = np.random.default_rng(31)
    a_p = random_cptp(2, 2, rng)
    a_q = random_cptp(2, 3, rng)
    joint_kraus = [np.kron(kp, kq) for kp in a_p.kraus for kq in a_q.kraus]
    joint = ch.from_kraus(joint_kraus)
    got_p = ch.marginal_chois(joint.choi, (2, 2), 0, tols=DEFAULT_TOLS)
    assert mk.max_abs(got_p - a_p.choi) <= 1e-10
    got_q = ch.marginal_chois(joint.choi, (2, 2), 1, tols=DEFAULT_TOLS)
    assert mk.max_abs(got_q - a_q.choi) <= 1e-10
    # repeated extraction from a product operation changes nothing
    again = ch.marginal_chois(joint.choi, (2, 2), 0, tols=DEFAULT_TOLS)
    assert mk.max_abs(again - got_p) == 0


def test_marginal_operation_swap_is_depolarizing_like():
    swap_op = unitary_channel(swap_unitary(2))
    got = ch.from_chois(ch.marginal_chois(swap_op.choi, (2, 2), 0, DEFAULT_TOLS), 2, 2, DEFAULT_TOLS)[0]
    # oracle: partial trace of the Choi, ordered (P_out, Q_out, P_in, Q_in), over the Q pair, rescaled
    oracle = mk.partial_trace(swap_op.choi, (2, 2, 2, 2), [0, 2]) / 2
    assert mk.max_abs(got.choi - oracle) <= 1e-12
    # the marginal of SWAP discards P and hands out the maximally mixed state
    rho = random_density(2, 1, np.random.default_rng(0))
    assert mk.max_abs(apply(got, rho).mat - np.eye(2) / 2) <= 1e-10


def test_marginal_operation_requires_structure():
    # qdpi_block takes the (d_P, d_Q) split of its marginal operations from
    # the superchannels, here (2, 2), and refuses a joint operation that is
    # not on d_P*d_Q = 4, before any marginal is taken.
    sc = sup.build(np.eye(4), st.density(np.eye(4) / 4, tols=DEFAULT_TOLS), 2, 2, DEFAULT_TOLS)
    for d in (2, 8):
        with pytest.raises(ShapeError, match="d_P\\*d_Q=4"):
            bd.qdpi_block([sc], [sc], [identity_channel(d)], tols=DEFAULT_TOLS)


def test_compose_and_partial_swap():
    rng = np.random.default_rng(37)
    a = random_cptp(2, 2, rng)
    b = random_cptp(2, 2, rng)
    rho = random_density(2, 2, rng)
    got = apply(compose(a, b), rho).mat
    assert mk.max_abs(got - apply(a, apply(b, rho)).mat) <= 1e-11

    u = ch.partial_swap_unitary(2, 0.3)
    assert mk.max_abs(u.conj().T @ u - np.eye(4)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_partial_swap_is_the_dense_swap_formula_bitwise(d):
    # SWAP comes from an index move of the identity; the dense permutation
    # matrix of the same move gives the same bits.
    for theta in (0.0, 0.3, math.pi / 4, 2.0):
        dense = np.cos(theta) * np.eye(d * d, dtype=complex) + 1j * np.sin(theta) * swap_unitary(d)
        assert ch.partial_swap_unitary(d, theta).tobytes() == dense.tobytes()


def test_random_cptp_is_cptp_and_seeded():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        r = int(rng.integers(1, d * d + 1))
        op = random_cptp(d, r, rng)
        assert is_trace_preserving(op)
        assert np.linalg.eigvalsh(op.choi)[0] >= -1e-9
    a = random_cptp(2, 3, np.random.default_rng(77))
    b = random_cptp(2, 3, np.random.default_rng(77))
    assert mk.max_abs(a.choi - b.choi) == 0


def two_kron_projection(w, d, d_out):
    """W -> (I (x) R^-1/2) W (I (x) R^-1/2), Hermitized, with R = tr_out W on
    out (x) in and the lift formed by two np.kron calls."""
    r = ch.tr_out_choi(w, d_out, d)
    rw, rv = np.linalg.eigh((r + r.conj().T) / 2.0)
    rw = np.clip(rw, 1e-14, None)
    r_isqrt = (rv * (rw ** -0.5)) @ rv.conj().T
    choi = np.kron(np.eye(d_out), r_isqrt) @ w @ np.kron(np.eye(d_out), r_isqrt).conj().T
    return (choi + choi.conj().T) / 2.0


def random_cptp_choi_two_kron(d, kraus_rank, rng, d_out):
    """random_cptp's Choi matrix for d_out = d, and the same construction of
    a d -> d_out map, with each lift formed by two np.kron calls: the
    bitwise oracle for the single stacked lift.  A map off trace
    preservation by more than 1e-12 is projected once more."""
    g = st.ginibre(d_out * d, kraus_rank, rng)
    choi = two_kron_projection(g @ g.conj().T, d, d_out)
    if mk.max_abs(ch.tr_out_choi(choi, d_out, d) - np.eye(d)) > 1e-12:
        choi = two_kron_projection(choi, d, d_out)
    return choi


@pytest.mark.parametrize("d,d_out", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_transfer_matrix_and_random_cptp_lift_are_bitwise_the_kron_oracles(d, d_out, oracles):
    # Below rank ceil(d / d_out), R = tr_out W is singular and the map is not CP.
    # random_cptp draws maps on one dimension; a d -> d_out map is built from
    # the oracle's Choi matrix.
    low = -(-d // d_out)
    for i in range(200):
        rank = low + i % (d * d_out - low + 1)
        oracle = random_cptp_choi_two_kron(d, rank, np.random.default_rng([d, d_out, i]), d_out)
        if d == d_out:
            op = random_cptp(d, rank, np.random.default_rng([d, d_out, i]))
        else:
            op = ch.from_chois(oracle, d_out, d, DEFAULT_TOLS)[0]
        assert op.choi.tobytes() == oracle.tobytes()
        assert ch.transfer_matrices([op])[0].tobytes() == oracles.transfer_matrix(op.kraus).tobytes()


def test_require_trace_preserving_checks_each_call_in_one_step(monkeypatch):
    ops = [rand_op(3, 4, seed=8), rand_op(3, 2, seed=9), rand_op(3, 3, seed=10)]
    half = ch.from_chois(ops[1].choi / 2, 3, 3, DEFAULT_TOLS)[0]
    calls = []
    real = ch.tr_out_choi
    monkeypatch.setattr(ch, "tr_out_choi", lambda choi, *a: calls.append(len(choi)) or real(choi, *a))
    ch.require_trace_preserving(ops + [ops[0]], "not trace preserving")
    ch.fixed_points(ops, tols=DEFAULT_TOLS)
    assert calls == [4, 3]
    with pytest.raises(ValidationError, match="^not trace preserving$"):
        ch.require_trace_preserving([ops[0], half, ops[2]], "not trace preserving")
    assert calls == [4, 3, 3]


@pytest.mark.parametrize("d,d_out", [(2, 2), (3, 3), (4, 4)])
def test_random_cptps_are_bitwise_the_per_trial_construction(d, d_out, oracles):
    # Blocks of 1-8 maps with mixed ranks: each Choi matrix and Kraus stack
    # has the bytes of the one-map-at-a-time construction (d_out = d seeds
    # the draws).
    tols = Tolerances()
    for block in oracles.blocks(216):
        ranks = [1 + i % (d * d) for i in block]
        rngs = [np.random.default_rng([d, d_out, i]) for i in block]
        ops = ch.random_cptps(d, [ch.bcsz_draw(d, r, g) for r, g in zip(ranks, rngs)], tols=DEFAULT_TOLS)
        for i, rank, op in zip(block, ranks, ops):
            choi, kraus = oracles.random_cptp_parts(d, rank, np.random.default_rng([d, d_out, i]), tols)
            assert op.choi.tobytes() == choi.tobytes()
            assert op.kraus.tobytes() == kraus.tobytes()
            assert ch.from_chois(op.choi, d, d, DEFAULT_TOLS)[0].kraus.tobytes() == kraus.tobytes()


@pytest.mark.parametrize("d,seed", [(2, [2, 1, 712]), (3, [3, 1, 2966])])
def test_random_cptps_project_again_a_map_off_trace_preservation(d, seed):
    # A Kraus-rank-1 draw leaves R = tr_out W ill-conditioned, and one
    # projection misses trace preservation by 1e-11 (d = 2) or 6e-12
    # (d = 3); that map is projected again, and the others of its stack keep
    # the bits of one projection.
    g = ch.bcsz_draw(d, 1, np.random.default_rng(seed))
    full = ch.bcsz_draw(d, d * d, np.random.default_rng(seed))
    ops = ch.random_cptps(d, [full, g, full], tols=DEFAULT_TOLS)
    dev = mk.max_abs(ch.tr_out_choi(np.array([op.choi for op in ops]), d, d) - np.eye(d))
    assert dev.max() <= 1e-12
    once = ch.random_cptps(d, [full], tols=DEFAULT_TOLS)[0].choi
    assert ops[0].choi.tobytes() == ops[2].choi.tobytes() == once.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fixed_points_are_bitwise_the_per_operation_steady_state(d, oracles):
    # Blocks of 1-8 operations of ranks 1..d^2 (rank 1 is unitary and takes
    # the Cesaro route at I/d) and explicit operations held by Kraus or by
    # Choi; from d = 3, each block also holds a channel whose steady state
    # is the Cesaro limit, held by Kraus or by Choi.
    tols = Tolerances()
    mixed = 0
    limits = []
    if d > 2:
        damping = ch.from_kraus(partial_damping_kraus(d))
        limits = [damping, ch.from_chois(damping.choi, d, d, DEFAULT_TOLS)[0]]
    for i, (_, ops) in enumerate(oracles.block_instances(d, 2, 60, [d, 72])):
        ops = ops[:i % 3] + limits[i % 2:i % 2 + 1] + ops[i % 3:]
        results = ch.fixed_points(ops, tols)
        for op, res in zip(ops, results):
            state, resid, method, dim = oracles.steady_state(op, tols)
            assert res.state.mat.tobytes() == state.tobytes()
            assert (res.residual, res.method, res.fixed_space_dim) == (resid, method, dim)
        mixed += len({res.method for res in results}) == 2
    assert mixed > 0


@pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_dilated_and_replace_channels_are_bitwise_the_per_pair_construction(d_s, d_e, oracles):
    tols = Tolerances()
    for block in oracles.blocks(36):
        rngs = [np.random.default_rng([d_s, d_e, i]) for i in block]
        us = [st.haar_unitary(d_s * d_e, r) for r in rngs]
        taus = [random_density(d_e, 1 + i % d_e, r) for i, r in zip(block, rngs)]
        sigmas = [random_density(d_s, 1 + i % d_s, r) for i, r in zip(block, rngs)]
        for u, tau, op in zip(us, taus, ch.channels_from_dilations(us, taus)):
            ks = oracles.dilation_kraus(u, tau.mat, tols)
            assert op.kraus.tobytes() == ks.tobytes() and op.choi.tobytes() == oracles.choi(ks).tobytes()
        for sigma, op in zip(sigmas, ch.replace_channels(sigmas)):
            ks = oracles.replace_kraus(sigma.mat, tols)
            assert op.kraus.tobytes() == ks.tobytes() and op.choi.tobytes() == oracles.choi(ks).tobytes()


def test_random_cptps_decompose_each_choi_matrix_once(monkeypatch):
    # The CP check reads the eigenvalues of the eigh that the Kraus
    # extraction uses: one eigh of the R stack and one of the Choi stack.
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name)):
            calls.append((_name, args[0].shape))
            return _real(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    rngs = [np.random.default_rng([3, i]) for i in range(5)]
    ch.random_cptps(3, [ch.bcsz_draw(3, 1 + i, r) for i, r in enumerate(rngs)], tols=DEFAULT_TOLS)
    assert calls == [("eigh", (5, 3, 3)), ("eigh", (5, 9, 9))]
