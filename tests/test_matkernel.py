import numpy as np
import pytest

from supchan import bounds as bd
from supchan import channels as ch
from supchan import matkernel as mk
from supchan import states as st
from supchan import superchannel as sup
from supchan.config import DEFAULT_TOLS
from supchan.matkernel import ShapeError, ValidationError

from conftest import permutation_matrix, permute_subsystems, random_density

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def rand_herm(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def eig(m):
    """The decomposition a check takes of ``m`` (or of each of a stack):
    Hermitian, then one eigh of (m + m^dag) / 2 through ``herm_eig_of``."""
    m = mk.as_matrix(m, stack=True)
    mk.check_hermitian(m, 1e-10)
    return mk.herm_eig_of(m, *np.linalg.eigh((m + mk.dagger(m)) / 2.0), DEFAULT_TOLS)


def test_tensor_identities():
    assert mk.max_abs(mk.kron_stack(np.eye(2), np.eye(2)) - np.eye(4)) == 0
    got = mk.kron_stack(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert mk.max_abs(got - np.diag([0.0, 1.0, 0.0, 0.0])) == 0


def test_tensor_pauli_xy_hand_expansion():
    # direct 4x4 expansion of X (x) Y: anti-diagonal +-i blocks
    expected = np.array(
        [
            [0, 0, 0, -1j],
            [0, 0, 1j, 0],
            [0, -1j, 0, 0],
            [1j, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert mk.max_abs(mk.kron_stack(X, Y) - expected) == 0


def test_tensor_associativity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rand_herm(2, rng)
        b = rand_herm(3, rng)
        c = rand_herm(2, rng)
        assert mk.max_abs(mk.kron_stack(mk.kron_stack(a, b), c) - mk.kron_stack(a, mk.kron_stack(b, c))) <= 1e-13


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rand_herm(2, rng)
        b = rand_herm(3, rng)
        got = mk.partial_trace(np.kron(a, b), (2, 3), [0])
        assert mk.max_abs(got - a * np.trace(b)) <= 1e-12


def test_partial_trace_bell_marginal():
    beta = np.zeros(4, dtype=complex)
    beta[0] = beta[3] = 1 / np.sqrt(2)
    rho = np.outer(beta, beta.conj())
    got = mk.partial_trace(rho, (2, 2), [0])
    assert mk.max_abs(got - np.eye(2) / 2) <= 1e-12


def test_partial_trace_index_sum_oracle():
    # keep the second factor; oracle is sum_i (<i| (x) I) m (|i> (x) I)
    rng = np.random.default_rng(7)
    m = rand_herm(4, rng)
    got = mk.partial_trace(m, (2, 2), [1])
    oracle = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        bra = np.kron(np.eye(2)[i], np.eye(2))  # <i| (x) I, shape (2, 4)
        oracle += bra @ m @ bra.conj().T
    assert mk.max_abs(got - oracle) <= 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(9)
    m = rand_herm(12, rng)
    for keep in ([0], [1], [2], [0, 2], [0, 1, 2]):
        red = mk.partial_trace(m, (2, 2, 3), keep)
        assert abs(np.trace(red) - np.trace(m)) <= 1e-12


def test_partial_trace_refuses_a_keep_position_outside_dims():
    for keep in ([2], [-1], [0, 3]):
        with pytest.raises(ShapeError, match=rf"^keep position {keep[-1]} is outside the 2 subsystems of \(2, 2\)$"):
            mk.partial_trace(np.eye(4), (2, 2), keep)


def test_partial_trace_refuses_a_matrix_that_is_not_the_product_of_dims():
    for m in (np.eye(6), np.ones((4, 3))):
        with pytest.raises(ShapeError, match=rf"^expected square matrices of dim 4 = prod\(2, 2\), "
                                             rf"got \({m.shape[0]}, {m.shape[1]}\)$"):
            mk.partial_trace(m, (2, 2), [0])


def test_permute_identity_and_swap():
    rng = np.random.default_rng(5)
    a = rand_herm(2, rng)
    b = rand_herm(3, rng)
    same, _ = permute_subsystems(np.kron(a, b), (2, 3), [0, 1])
    assert mk.max_abs(same - np.kron(a, b)) == 0
    swapped, new_dims = permute_subsystems(np.kron(a, b), (2, 3), [1, 0])
    assert mk.max_abs(swapped - np.kron(b, a)) <= 1e-13
    assert new_dims == (3, 2)


def test_permute_involution_and_spectrum():
    rng = np.random.default_rng(6)
    m = rand_herm(8, rng)
    once, dims = permute_subsystems(m, (2, 2, 2), [2, 1, 0])
    back, _ = permute_subsystems(once, dims, [2, 1, 0])
    assert mk.max_abs(back - m) == 0
    w0 = np.sort(np.linalg.eigvalsh(m))
    w1 = np.sort(np.linalg.eigvalsh(once))
    assert mk.max_abs(w0 - w1) <= 1e-10


def test_permutation_matrix_is_unitary():
    p = permutation_matrix((2, 3, 2), [1, 2, 0])
    assert mk.max_abs(p.conj().T @ p - np.eye(12)) == 0
    with pytest.raises(ShapeError):
        permutation_matrix((2, 3, 2), [0, 1])


def test_herm_eig_diagonal():
    w, v = eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(w, [3.0, 1.0])
    assert mk.max_abs(np.abs(v) - np.eye(2)) <= 1e-12


def test_herm_eig_pauli_x():
    w, v = eig(X)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    # compare projectors, eigenvector phases are solver-dependent
    assert mk.max_abs(np.outer(v[:, 0], v[:, 0].conj()) - np.outer(plus, plus)) <= 1e-12
    assert mk.max_abs(np.outer(v[:, 1], v[:, 1].conj()) - np.outer(minus, minus)) <= 1e-12


def test_herm_eig_reconstruction_and_trace():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = rand_herm(6, rng)
        w, v = eig(m)
        assert mk.max_abs(v @ np.diag(w) @ v.conj().T - m) < 1e-10
        assert mk.max_abs(v.conj().T @ v - np.eye(6)) < 1e-10
        assert abs(np.sum(w) - np.trace(m).real) <= 1e-10
        assert np.all(np.diff(w) <= 1e-12)  # descending


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="max deviation 1.000e"):
        eig(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValidationError, match="Choi matrix is not Hermitian"):
        mk.check_hermitian(np.array([[0, 1e-9], [0, 0]]), 1e-10, "Choi matrix")
    mk.check_hermitian(np.array([[0, 1e-9], [0, 0]]), 1e-9)


def test_herm_eig_clamps_and_psd_factors_rebuild_the_matrix():
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    lam = np.array([0.7, 0.3, 1e-12, -1e-12])
    m = (q * lam) @ q.conj().T
    w, _ = eig(m)
    assert w[2] == 0.0 and w[3] == 0.0
    fs = mk.psd_factors(*eig(m))
    assert len(fs) == 2
    assert np.linalg.norm(fs[0]) ** 2 == pytest.approx(0.7)
    assert mk.max_abs(sum(np.outer(f, f.conj()) for f in fs) - m) < 1e-12


def test_herm_fn_log_maximally_mixed():
    # exp(-beta H) through thermal_state: H = log(3) I gives I/3 with Z = 1.
    gibbs, z = bd.thermal_state(np.log(3) * np.eye(3, dtype=complex), 1.0, tols=DEFAULT_TOLS)
    assert mk.max_abs(gibbs.mat - np.eye(3) / 3) <= 1e-12 and abs(z - 1.0) <= 1e-12


def test_herm_fn_exp_of_zero_matrix():
    gibbs, z = bd.thermal_state(np.zeros((2, 2), dtype=complex), 0.7, tols=DEFAULT_TOLS)
    assert mk.max_abs(gibbs.mat - np.eye(2) / 2) <= 1e-12 and z == 2.0


def test_herm_fn_log_exp_round_trip():
    # The Gibbs state of H = -log(rho) at beta = 1 is rho, with Z = 1.
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    w, v = np.linalg.eigh(rho)
    gibbs, z = bd.thermal_state((v * -np.log(w)) @ v.conj().T, 1.0, tols=DEFAULT_TOLS)
    assert mk.max_abs(gibbs.mat - rho) < 1e-10 and abs(z - 1.0) < 1e-10


def test_herm_fn_kernel_policies():
    # A singular H is a valid Hamiltonian; an exp(-beta H) that overflows,
    # or underflows to a zero partition function, is refused by name, and so
    # is a nonpositive beta.
    gibbs, z = bd.thermal_state(np.diag([1.0, 0.0]).astype(complex), 1.0, tols=DEFAULT_TOLS)
    assert mk.max_abs(gibbs.mat - np.diag([1.0, np.e]) / (1.0 + np.e)) <= 1e-12
    for h, x in (([1.0, -1000.0], "1\\.000000e\\+03"), ([1000.0, 2000.0], "-1\\.000000e\\+03")):
        with pytest.raises(ValidationError, match=f"^exp\\(-beta H\\) is out of float range: -beta times the "
                                                  f"least eigenvalue of H is {x}$"):
            bd.thermal_state(np.diag(h).astype(complex), 1.0, tols=DEFAULT_TOLS)
    with pytest.raises(ValueError, match="beta must be positive"):
        bd.thermal_state(np.eye(2, dtype=complex), 0.0, tols=DEFAULT_TOLS)


def test_a_check_of_a_stack_names_its_first_failing_matrix():
    good = np.eye(2, dtype=complex)
    bad = [np.array([[1.0, dev], [0.0, 1.0]], dtype=complex) for dev in (1e-3, 2e-3)]
    for first, second in (bad, bad[::-1]):
        with pytest.raises(ValidationError, match=f"max deviation {first[0, 1].real:.3e}"):
            eig(np.stack([good, first, good, second]))
    w, v = eig(np.stack([good, 2 * good]))
    assert w.tolist() == [[1.0, 1.0], [2.0, 2.0]] and v.shape == (2, 2, 2)


@pytest.mark.parametrize("size", [1, 2, 7])
@pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 2), (4, 4)])
def test_the_kraus_ordered_sums_are_bitwise_the_full_ragged_stack(d_s, d_e, size, oracles):
    # Each sum forms one term per operation at a time; the oracles form
    # every term of the block in one ragged stack first.  Kraus counts run
    # from 1 to d_S^2, and every other operation is given by its Choi matrix.
    rng = np.random.default_rng([d_s, d_e, size])
    ranks = rng.permutation([1 + i * (d_s * d_s - 1) // max(size - 1, 1) for i in range(size)])
    ops = ch.random_cptps(d_s, [ch.bcsz_draw(d_s, int(r), rng) for r in ranks], tols=DEFAULT_TOLS)
    ops = [ch.from_chois(op.choi, d_s, d_s, DEFAULT_TOLS)[0] if b % 2 else op for b, op in enumerate(ops)]
    assert sorted(len(op.kraus) for op in ops) == sorted(ranks.tolist())
    scs = [sup.build(st.haar_unitary(d_s * d_e, rng), random_density(d_s * d_e, 3, rng), d_s, d_e, DEFAULT_TOLS)
           for _ in ops]
    sigma, _ = sup.act_block(scs, ops, DEFAULT_TOLS)
    assert sigma.tobytes() == oracles.ragged_act_block(scs, ops).tobytes()
    assert ch.transfer_matrices(ops).tobytes() == oracles.ragged_transfer_matrices(ops).tobytes()
    mats = rng.standard_normal((size, d_s, d_s)) + 1j * rng.standard_normal((size, d_s, d_s))
    assert ch.apply_matrices(ops, mats).tobytes() == oracles.ragged_apply_matrices(ops, mats).tobytes()
    kraus, counts = np.concatenate([op.kraus for op in ops]), [len(op.kraus) for op in ops]
    chois = np.array([op.choi for op in ch.from_kraus_runs(kraus, counts)])
    assert chois.tobytes() == oracles.ragged_chois(kraus, counts).tobytes()
