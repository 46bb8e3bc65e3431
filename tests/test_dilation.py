import math

import numpy as np
import pytest

from supchan import channels as ch
from supchan import dilation as dl
from supchan import matkernel as mk
from supchan import states as st
from supchan import superchannel as sup
from supchan.config import DEFAULT_TOLS
from supchan.matkernel import ShapeError, ValidationError

from conftest import (act, apply, channel_from_dilation, depolarizing_channel, entropy_of_spectrum, identity_channel,
                      is_trace_preserving, IsometricOperation, isometry_choi_state, mmap, operation_entropy,
                      random_cptp, random_density, stinespring, swap_unitary, sys_marginal, unitary_channel,
                      von_neumann_entropy)


def rand_sc(d_s, d_e, seed):
    rng = np.random.default_rng(seed)
    raw = random_density(d_s * d_e, int(rng.integers(1, d_s * d_e + 1)), rng)
    rho = st.density(raw.mat, tols=DEFAULT_TOLS)
    return sup.build(st.haar_unitary(d_s * d_e, rng), rho, d_s, d_e, tols=DEFAULT_TOLS), rng


def entropy_of(mat):
    w = mk.clamp_spectrum(np.linalg.eigvalsh(mat)[::-1], tols=DEFAULT_TOLS)
    return entropy_of_spectrum(w)


def test_stinespring_unitary_operation():
    u = st.haar_unitary(2, np.random.default_rng(0))
    form = stinespring(unitary_channel(u))
    assert form.ancilla_dim == 1
    psi = form.psi_abc
    rho = np.outer(psi, psi.conj())
    dims = form.dims_abc(2)
    s_bc = entropy_of(mk.partial_trace(rho, dims, [1, 2]))
    s_a = entropy_of(mk.partial_trace(rho, dims, [0]))
    assert s_bc <= 1e-10 and s_a <= 1e-10


def test_stinespring_depolarizing_entropy():
    op = depolarizing_channel(2)
    form = stinespring(op)
    psi = form.psi_abc
    rho = np.outer(psi, psi.conj())
    s_bc = entropy_of(mk.partial_trace(rho, form.dims_abc(2), [1, 2]))
    assert abs(s_bc - 2 * math.log(2)) <= 1e-10
    assert abs(operation_entropy(op) - 2 * math.log(2)) <= 1e-10


def test_stinespring_reproduces_choi_state():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        for _ in range(10):
            op = random_cptp(d, int(rng.integers(1, d * d + 1)), rng)
            form = stinespring(op)
            assert mk.max_abs(form.v.conj().T @ form.v - np.eye(d)) <= 1e-10
            rho = np.outer(form.psi_abc, form.psi_abc.conj())
            got = mk.partial_trace(rho, form.dims_abc(d), [1, 2])
            assert mk.max_abs(got - op.choi_state) <= 1e-10


def test_stinespring_choi_origin_round_trip():
    # operations built from a Choi matrix dilate just as well
    rng = np.random.default_rng(2)
    base = random_cptp(2, 3, rng)
    op = ch.from_chois(base.choi, 2, 2, DEFAULT_TOLS)[0]
    form = stinespring(op)
    rho = np.outer(form.psi_abc, form.psi_abc.conj())
    got = mk.partial_trace(rho, form.dims_abc(2), [1, 2])
    assert mk.max_abs(got - op.choi_state) <= 1e-10


def test_stinespring_unitary_completion_properties():
    rng = np.random.default_rng(3)
    op = random_cptp(2, 3, rng)
    form = stinespring(op)
    n = form.ancilla_dim * 2
    assert form.u_ab.shape == (n, n)
    assert mk.max_abs(form.u_ab.conj().T @ form.u_ab - np.eye(n)) <= 1e-9
    # the ancilla-|0> block of U_ab is the isometry itself
    assert mk.max_abs(form.u_ab[:, :2] - form.v) == 0


def test_stinespring_entropies_are_completion_invariant():
    rng = np.random.default_rng(4)
    op = random_cptp(2, 4, rng)
    d = 2
    form1 = stinespring(op)
    n = form1.ancilla_dim * d
    form2 = stinespring(op, pivot_order=list(reversed(range(n))))
    assert mk.max_abs(form1.u_ab - form2.u_ab) > 1e-6  # genuinely different completions
    for form in (form1, form2):
        anc0 = np.zeros(form.ancilla_dim, dtype=complex)
        anc0[0] = 1.0
        beta = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
        # run |0>_a (x) |beta_bc> through U_ab (x) I_c
        inp = np.kron(anc0, beta)
        psi = (np.kron(form.u_ab, np.eye(d)) @ inp)
        assert mk.max_abs(psi - form.psi_abc) <= 1e-10


def test_purification_symmetry_sweep():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        op = random_cptp(d, int(rng.integers(1, d * d + 1)), rng)
        form = stinespring(op)
        rho = np.outer(form.psi_abc, form.psi_abc.conj())
        dims = form.dims_abc(d)
        s_bc = entropy_of(mk.partial_trace(rho, dims, [1, 2]))
        s_a = entropy_of(mk.partial_trace(rho, dims, [0]))
        assert abs(s_bc - s_a) <= 1e-10
        assert abs(operation_entropy(op) - s_a) <= 1e-10


def test_stinespring_rejects_non_tp():
    with pytest.raises(ValidationError):
        stinespring(ch.from_kraus([np.array([[1, 0], [0, 0.5]], dtype=complex)]))
    with pytest.raises(ShapeError):
        stinespring(ch.from_kraus([np.zeros((3, 2), dtype=complex)]))


def test_operation_entropy_unitary_is_zero():
    u = st.haar_unitary(3, np.random.default_rng(6))
    assert operation_entropy(unitary_channel(u)) <= 1e-10


def test_isometric_operation_validation():
    alpha = st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)
    with pytest.raises(ValidationError):
        IsometricOperation(np.eye(4) * 2.0, alpha)
    with pytest.raises(ShapeError):
        IsometricOperation(st.haar_unitary(5, np.random.default_rng(0)), alpha)
    # mmap_block checks each V of a block in the same way.
    sc, rng = rand_sc(2, 2, seed=12)
    good = st.haar_unitary(4, rng)
    with pytest.raises(ValidationError, match="isometric-dilation unitary is not unitary"):
        dl.mmap_block([sc, sc], [good, np.eye(4) * 2.0], [alpha, alpha], tols=DEFAULT_TOLS)
    with pytest.raises(ShapeError, match="does not factor over ancilla dim 2"):
        dl.mmap_block([sc], [st.haar_unitary(5, rng)], [alpha], tols=DEFAULT_TOLS)


def test_operation_of_reproduces_dilation_action():
    rng = np.random.default_rng(7)
    v = st.haar_unitary(4, rng)
    alpha_vec = st.random_pure(2, rng)
    alpha = st.density(np.outer(alpha_vec, alpha_vec.conj()), tols=DEFAULT_TOLS)
    iso = IsometricOperation(v, alpha)
    op = channel_from_dilation(iso.v, iso.alpha)
    assert is_trace_preserving(op)
    sigma = random_density(2, 2, rng)
    direct = mk.partial_trace(v @ np.kron(sigma.mat, alpha.mat) @ v.conj().T, (2, 2), [0])
    assert mk.max_abs(apply(op, sigma).mat - direct) <= 1e-10


def test_isometry_choi_state_is_valid_and_tp():
    rng = np.random.default_rng(8)
    v = st.haar_unitary(4, rng)
    alpha_vec = st.random_pure(2, rng)
    alpha = st.density(np.outer(alpha_vec, alpha_vec.conj()), tols=DEFAULT_TOLS)
    iso = IsometricOperation(v, alpha)
    state = isometry_choi_state(iso)
    assert abs(np.trace(state.mat).real - 1.0) <= 1e-10
    # tracing the ancilla out of the dilation Choi recovers the reduced map
    reduced = mk.partial_trace(state.mat * 2, (2, 2, 2), [0, 2])   # (S_out, A_out, in)
    assert mk.max_abs(reduced - channel_from_dilation(iso.v, iso.alpha).choi) <= 1e-10


def test_mmap_decoupled_case():
    # V = I: Upsilon = sigma' (x) alpha and delta_S = S(sigma') - S(sigma)
    sc, rng = rand_sc(2, 2, seed=9)
    alpha_vec = st.random_pure(2, rng)
    alpha = st.density(np.outer(alpha_vec, alpha_vec.conj()), tols=DEFAULT_TOLS)
    iso = IsometricOperation(np.eye(4, dtype=complex), alpha)
    upsilon, delta_s = mmap(sc, iso)
    sigma_p = act(sc, identity_channel(2))
    assert mk.max_abs(upsilon.mat - np.kron(sigma_p.mat, alpha.mat)) <= 1e-10
    expected = von_neumann_entropy(sigma_p) - von_neumann_entropy(sys_marginal(sc))
    assert abs(delta_s - expected) <= 1e-10


def test_mmap_swap_dilation_moves_state_to_ancilla():
    # V = SWAP_SA with alpha = |0><0| implements replace-by-|0> on the system
    sc, _ = rand_sc(2, 2, seed=10)
    alpha = st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)
    iso = IsometricOperation(swap_unitary(2), alpha)
    op = channel_from_dilation(iso.v, iso.alpha)
    ket0 = st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)
    rho = random_density(2, 2, np.random.default_rng(11))
    assert mk.max_abs(apply(op, rho).mat - ket0.mat) <= 1e-12
    upsilon, _ = mmap(sc, iso)
    reduced = mk.partial_trace(upsilon.mat, (2, 2), [0])
    assert mk.max_abs(reduced - act(sc, op).mat) <= 1e-10


def test_mmap_marginal_consistency_sweep():
    for seed in range(25):
        sc, rng = rand_sc(2, 2, seed=100 + seed)
        v = st.haar_unitary(4, rng)
        alpha_vec = st.random_pure(2, rng)
        alpha = st.density(np.outer(alpha_vec, alpha_vec.conj()), tols=DEFAULT_TOLS)
        iso = IsometricOperation(v, alpha)
        upsilon, _ = mmap(sc, iso)
        reduced = mk.partial_trace(upsilon.mat, (2, 2), [0])
        direct = act(sc, channel_from_dilation(iso.v, iso.alpha))
        assert mk.max_abs(reduced - direct.mat) <= 1e-10


@pytest.mark.parametrize("d_s, d_e, d_a", [(2, 2, 2), (4, 4, 4), (3, 2, 5)])
def test_mmap_block_is_bitwise_the_dense_lift(oracles, d_s, d_e, d_a):
    # mmap_block moves the entries of V (x) I_E from (S, A, E) to (S, E, A)
    # order; the oracle conjugates it by the dense permutation matrix.
    rng = np.random.default_rng([d_s, d_e, d_a])
    scs = [rand_sc(d_s, d_e, seed=int(rng.integers(1 << 30)))[0] for _ in range(3)]
    vs = [st.haar_unitary(d_s * d_a, rng) for _ in scs]
    alphas = [random_density(d_a, int(rng.integers(1, d_a + 1)), rng) for _ in scs]
    upsilons, deltas = dl.mmap_block(scs, vs, alphas, DEFAULT_TOLS)
    for sc, v, alpha, upsilon, delta_s in zip(scs, vs, alphas, upsilons, deltas):
        ups, want, _ = oracles.mmap_image(sc, v, alpha.mat, DEFAULT_TOLS)
        assert upsilon.mat.tobytes() == ups.tobytes()
        assert delta_s == want


def test_mmap_dim_mismatch():
    sc, _ = rand_sc(2, 2, seed=12)
    alpha = st.density(np.diag([1.0, 0.0, 0.0]), tols=DEFAULT_TOLS)
    with pytest.raises(ShapeError):
        mmap(sc, IsometricOperation(st.haar_unitary(9, np.random.default_rng(0)), alpha))
