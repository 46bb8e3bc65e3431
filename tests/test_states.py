import dataclasses
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

from conftest import (entropy_of_spectrum, herm_eig, marginal, random_density, relative_entropy, trial_rng,
                      von_neumann_entropy)


def test_density_validation():
    with pytest.raises(ValidationError):
        st.density(np.array([[0.5, 0.5], [0.0, 0.5]]), tols=DEFAULT_TOLS)  # not Hermitian
    with pytest.raises(ValidationError):
        st.density(np.eye(2), tols=DEFAULT_TOLS)  # trace 2
    with pytest.raises(ValidationError):
        st.density(np.diag([1.5, -0.5]), tols=DEFAULT_TOLS)  # negative eigenvalue


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)) <= 1e-12
    for d in (2, 3, 5):
        rho = st.density(np.eye(d) / d, tols=DEFAULT_TOLS)
        assert abs(von_neumann_entropy(rho) - math.log(d)) <= 1e-10


def test_entropy_scalar_oracle():
    # direct scalar formula for diag(3/4, 1/4)
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    rho = st.density(np.diag([0.75, 0.25]), tols=DEFAULT_TOLS)
    assert abs(von_neumann_entropy(rho) - expected) <= 1e-10
    assert abs(expected - 0.5623351446188083) <= 1e-12


def test_relative_entropy_basic():
    rng = np.random.default_rng(2)
    rho = random_density(3, 3, rng)
    assert relative_entropy(rho, rho) <= 1e-10
    p0 = st.density(np.diag([1.0, 0.0]), tols=DEFAULT_TOLS)
    p1 = st.density(np.diag([0.0, 1.0]), tols=DEFAULT_TOLS)
    assert relative_entropy(p0, p1) == float("inf")


def test_relative_entropy_classical_kl_oracle():
    # KL(.5,.5 || .75,.25) computed from the scalar formula
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    a = st.density(np.diag([0.5, 0.5]), tols=DEFAULT_TOLS)
    b = st.density(np.diag([0.75, 0.25]), tols=DEFAULT_TOLS)
    assert abs(relative_entropy(a, b) - expected) <= 1e-10
    assert abs(expected - 0.14384103622589045) <= 1e-12


def test_relative_entropy_nonnegative_and_faithful():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = random_density(3, int(rng.integers(2, 4)), rng)
        b = random_density(3, 3, rng)
        assert relative_entropy(a, b) >= 0.0


def test_only_float_noise_below_zero_is_clipped_from_a_relative_entropy():
    # A genuine negative breaks Klein's inequality and must surface.
    assert st.relative_entropy_of(0.0, 5e-7) == -5e-7
    assert st.relative_entropy_of(0.0, 5e-13) == 0.0


def test_relative_entropies_are_bitwise_the_one_pair_relative_entropy():
    # The stacked routine, with its one overlap step, gives the bits of the
    # one-pair routine it replaced, support mismatches (+inf) included.
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 8, 9):
        pairs = [tuple(random_density(d, int(rng.integers(1, d + 1)), rng) for _ in range(2)) for _ in range(8)]
        got = st.relative_entropies(np.array([a.mat for a, _ in pairs]), [von_neumann_entropy(a) for a, _ in pairs],
                                    np.array([b.mat for _, b in pairs]), tols=DEFAULT_TOLS)
        want = [relative_entropy(a, b) for a, b in pairs]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert math.inf in want


def test_relative_entropy_joint_convexity_spot_check():
    rng = np.random.default_rng(8)
    for _ in range(15):
        a1 = random_density(2, 2, rng)
        a2 = random_density(2, 2, rng)
        b1 = random_density(2, 2, rng)
        b2 = random_density(2, 2, rng)
        mix_a = st.density((a1.mat + a2.mat) / 2, tols=DEFAULT_TOLS)
        mix_b = st.density((b1.mat + b2.mat) / 2, tols=DEFAULT_TOLS)
        lhs = relative_entropy(mix_a, mix_b)
        rhs = (relative_entropy(a1, b1) + relative_entropy(a2, b2)) / 2
        assert lhs <= rhs + 1e-9


def test_entropy_concavity_spot_check():
    rng = np.random.default_rng(21)
    for _ in range(15):
        r1 = random_density(3, 2, rng)
        r2 = random_density(3, 3, rng)
        mixed = st.density((r1.mat + r2.mat) / 2, tols=DEFAULT_TOLS)
        s_mix = von_neumann_entropy(mixed)
        avg_s = (von_neumann_entropy(r1) + von_neumann_entropy(r2)) / 2
        assert s_mix >= avg_s - 1e-10


def test_mutual_information_product_bell_classical():
    rng = np.random.default_rng(5)
    a = random_density(2, 2, rng)
    b = random_density(2, 1, rng)
    prod = st.density(np.kron(a.mat, b.mat), tols=DEFAULT_TOLS)
    assert abs(st.mutual_informations(prod.mat[None], (2, 2), [0], tols=DEFAULT_TOLS)[0][0]) <= 1e-10

    beta = np.zeros(4, dtype=complex)
    beta[0] = beta[3] = 1 / np.sqrt(2)
    bell = st.density(np.outer(beta, beta.conj()), tols=DEFAULT_TOLS)
    assert abs(st.mutual_informations(bell.mat[None], (2, 2), [0], tols=DEFAULT_TOLS)[0][0] - 2 * math.log(2)) <= 1e-10

    classical = st.density(np.diag([0.5, 0.0, 0.0, 0.5]), tols=DEFAULT_TOLS)
    assert abs(st.mutual_informations(classical.mat[None], (2, 2), [0], DEFAULT_TOLS)[0][0] - math.log(2)) <= 1e-10


def test_mutual_information_symmetry_and_errors():
    rng = np.random.default_rng(6)
    rho = random_density(6, 4, rng)
    assert abs(st.mutual_informations(rho.mat[None], (2, 3), [0], tols=DEFAULT_TOLS)[0][0]
               - st.mutual_informations(rho.mat[None], (2, 3), [1], tols=DEFAULT_TOLS)[0][0]) <= 1e-12
    for part in ([0, 1], [], [2]):
        with pytest.raises(mk.ShapeError, match="is not a proper nonempty subset of the positions of"):
            st.mutual_informations(rho.mat[None], (2, 3), part, tols=DEFAULT_TOLS)


def test_schmidt_symmetry_for_pure_bipartite():
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = st.random_pure(6, rng)
        rho = st.density(np.outer(psi, psi.conj()), tols=DEFAULT_TOLS)
        sp = von_neumann_entropy(marginal(rho, (2, 3), [0]))
        sq = von_neumann_entropy(marginal(rho, (2, 3), [1]))
        assert abs(sp - sq) <= 1e-10


def test_random_density_properties():
    rng = np.random.default_rng(31)
    pure = random_density(4, 1, rng)
    assert von_neumann_entropy(pure) < 1e-9

    a = random_density(3, 2, np.random.default_rng(99))
    b = random_density(3, 2, np.random.default_rng(99))
    assert mk.max_abs(a.mat - b.mat) == 0  # same seed, same state

    for seed in range(100):
        full = random_density(4, 4, np.random.default_rng(seed))
        w = np.linalg.eigvalsh(full.mat)
        assert w[0] > 0.0

    with pytest.raises(ValueError):
        random_density(3, 4, rng)
    with pytest.raises(ValueError):
        random_density(3, 0, rng)


def test_haar_unitary_and_trial_rng():
    u = st.haar_unitary(5, np.random.default_rng(1))
    assert mk.max_abs(u.conj().T @ u - np.eye(5)) <= 1e-12
    r1 = trial_rng(42, 3).standard_normal(4)
    r2 = trial_rng(42, 3).standard_normal(4)
    r3 = trial_rng(42, 4).standard_normal(4)
    assert np.all(r1 == r2)
    assert not np.all(r1 == r3)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 16, 32])
def test_a_stacked_haar_qr_gives_each_unitary_the_bits_of_a_one_matrix_draw(d):
    # LAPACK factors each matrix of a stack on its own, so a block's one
    # stacked QR gives every unitary the bits of haar_unitary on its normals.
    for n in (1, 2, 7, 50):
        rngs = [np.random.default_rng([d, n, t]) for t in range(n)]
        stacked = st.haar_of_normals(np.array([rng.standard_normal((2, d, d)) for rng in rngs]))
        for t, u in enumerate(stacked):
            assert u.tobytes() == st.haar_unitary(d, np.random.default_rng([d, n, t])).tobytes()


def hexes(xs):
    return [x.hex() for x in np.ravel(xs).tolist()]


def spectra(rng, d, counts):
    """A (len(counts), d) stack of descending spectra, row i with counts[i]
    positive entries of sum 1, then zeros, and in every third row a negative
    tail past psd_floor in place of the last zeros, as clamp_spectrum keeps
    from an eigvalsh of A_d."""
    w = np.zeros((len(counts), d))
    for i, c in enumerate(counts):
        p = np.sort(rng.dirichlet(np.ones(c)))[::-1] if c else []
        w[i, :c] = p
        if i % 3 == 2 and c < d:
            w[i, c:] = -np.sort(rng.uniform(1e-9, 1e-7, d - c))[::-1]
    return w


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 9, 17, 20])
def test_stacked_entropies_have_the_bits_of_each_spectrum_on_its_own(d, oracles):
    # Positive counts from 0 to min(d, 17) cross numpy's 8-wide pairwise
    # block, where a zero-padded row would associate its terms otherwise.
    # Blocks mix the counts in a random order; a pure state's entropy and an
    # empty spectrum's are -0.0, whose sign the hex keeps.
    rng = np.random.default_rng([d, 30])
    counts = list(range(min(d, 17) + 1))
    for n in (1, 2, 7, 60):
        w = spectra(rng, d, rng.choice(counts, n).tolist())
        assert hexes(st.entropies(w)) == hexes([oracles.entropy_of_spectrum(wb) for wb in w])
    pure = np.zeros((2, d))
    pure[:, 0] = 1.0
    pure[1, 1:] = -1e-9
    assert hexes(st.entropies(pure)) == ["-0x0.0p+0"] * 2
    assert hexes(st.entropies(np.zeros((1, d)))) == ["-0x0.0p+0"]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 9, 12, 17])
def test_stacked_log_weights_have_the_bits_of_each_trial_on_its_own(d, oracles):
    # Kernels of every size from 0 to d, mixed in one block, for one X per
    # base and for two; with the eigenvectors the identity, the overlaps are
    # X's diagonal exactly, so a kernel weight of exactly support_tol is met.
    tol = DEFAULT_TOLS.support_tol
    rng = np.random.default_rng([d, 31])
    for n_x in (1, 2):
        for n in (1, 3, 40):
            kernels = rng.integers(0, d + 1, n)
            w = spectra(rng, d, (d - kernels).tolist()).clip(0.0, None)
            v = np.array([st.haar_unitary(d, rng) for _ in range(n)])
            xs = st.wishart([st.ginibre(d, int(r), rng) for r in rng.integers(1, d + 1, n * n_x)])
            xs = xs.reshape(n, n_x, d, d)
            assert hexes(st.log_weights(xs, w, v, DEFAULT_TOLS)) == hexes(oracles.log_weights(xs, w, v, DEFAULT_TOLS))
            eye = np.broadcast_to(np.eye(d), v.shape)
            edges = np.zeros_like(xs)
            diag = np.array([[np.where(wb > 0.0, (1.0 - tol * (k > 0)) / max(d - k, 1), 0.0) for _ in range(n_x)]
                             for wb, k in zip(w, kernels)])
            diag[kernels > 0, :, -1] += tol
            diag[kernels > 0, n_x - 1, -1] += tol * (n_x - 1)
            edges[..., range(d), range(d)] = diag
            got = st.log_weights(edges, w, eye, DEFAULT_TOLS)
            assert hexes(got) == hexes(oracles.log_weights(edges, w, eye, DEFAULT_TOLS))
            for row, k in zip(got, kernels):
                assert np.isfinite(row[0]) and np.isfinite(row[-1]) == (k == 0 or n_x == 1)


@pytest.mark.parametrize("d", [1, 2, 4, 9, 16])
def test_stacked_grams_have_the_bits_of_each_product_on_its_own(d, oracles):
    # Column counts from 1 (a rank-1 Gram) to d + 2, mixed in one list.
    rng = np.random.default_rng([d, 32])
    for n in (1, 2, 7, 40):
        gs = [st.ginibre(d, int(c), rng) for c in rng.integers(1, d + 3, n)]
        assert st.grams(gs).tobytes() == oracles.grams(gs).tobytes()


def test_a_one_call_ginibre_draw_is_the_two_call_draw(oracles):
    # One (2, rows, cols) draw is the real part's draw and then the
    # imaginary part's, and leaves the generator where the two calls do.
    for rows, cols in ((1, 1), (2, 1), (3, 5), (16, 4), (9, 9)):
        a, b = np.random.default_rng([rows, cols]), np.random.default_rng([rows, cols])
        assert st.ginibre(rows, cols, a).tobytes() == oracles.ginibre(rows, cols, b).tobytes()
        assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()


def count_decompositions(monkeypatch):
    """The name of each numpy eigendecomposition called, in order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_eig_is_bitwise_herm_eig():
    # The loose floor clamps the 1e-8 eigenvalue that the default floor keeps.
    loose = Tolerances(psd_floor=1e-6)
    mats = [np.diag([1 - 1e-8, 1e-8])]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        mats.append(random_density(d, int(rng.integers(1, d + 1)), rng).mat)
    for m in mats:
        for tols in (DEFAULT_TOLS, loose):
            rho = st.density(m, tols=tols)
            for got, want in zip((rho.w, rho.v), herm_eig(rho.mat, tols)):
                assert got.tobytes() == want.tobytes()


def test_a_state_is_decomposed_once_by_its_check(monkeypatch):
    # The PSD check of densities takes the decomposition that each state
    # keeps; decompose, the entropies and the operations built on the
    # states read it.
    rng = np.random.default_rng(3)
    mats = st.wishart([st.ginibre(3, r, rng) for r in (1, 2, 3)])
    calls = count_decompositions(monkeypatch)
    rhos = st.densities(mats, tols=DEFAULT_TOLS)
    assert calls == ["eigh"]
    w, v = st.decompose(rhos)
    assert [von_neumann_entropy(r) for r in rhos] == [entropy_of_spectrum(wb) for wb in w]
    st.log_weights(mats[:, None], w, v, tols=DEFAULT_TOLS)
    ch.replace_channels(rhos)
    assert calls == ["eigh"]
    for r, wb, vb in zip(rhos, w, v):
        assert r.w.tobytes() == wb.tobytes() and r.v.tobytes() == vb.tobytes()


def block_checks(tols):
    """For each block path that checks a state it builds, a function of a
    2 x 2 diagonal matrix m that runs the path on a state with m's spectrum."""
    ident = ch.from_kraus([np.eye(2, dtype=complex)])

    def superchannel(m):
        # With U and the operation the identity and d_E = 1, sigma' is m exactly.
        rho_se = st.DensityMatrix(m, *np.linalg.eigh(m))
        return sup.build(np.eye(2, dtype=complex), rho_se, 2, 1, tols)

    def holevo(m):
        # Both the codeword and the average state are m; the codeword's check meets it first.
        return bd.holevo_block([superchannel(m)], [bd.Ensemble((1.0,), (ident,))], np.eye(2, dtype=complex)[None, None],
                               tols)

    return [lambda m: sup.act_block([superchannel(m)], [ident], tols),
            lambda m: st.mutual_informations(np.kron(m, np.diag([1.0, 0.0]))[None], (2, 2), [0], tols),
            holevo]


def test_the_psd_check_at_the_psd_floor_reads_the_kept_decomposition(monkeypatch):
    # An eigenvalue of exactly -psd_floor passes, one just below fails with
    # its value; a passing matrix keeps the eigh that its check took,
    # bitwise as herm_eig.
    tols = Tolerances(psd_floor=1e-10, trace_tol=1e-9)
    edge = np.diag([1.0 + 1e-10, -1e-10]).astype(complex)
    beyond = np.diag([1.0 + 1.5e-10, -1.5e-10]).astype(complex)
    with pytest.raises(ValidationError, match="negative eigenvalue -1.500e-10 below -psd_floor"):
        st.density(beyond, tols=tols)
    with pytest.raises(ValidationError, match="negative eigenvalue -1.500e-10 below -psd_floor"):
        st.densities(np.array([edge, beyond]), tols)
    # So do act_block's sigma', the input of mutual_informations and the
    # states of holevo_block.
    for check in block_checks(tols):
        check(edge)
        with pytest.raises(ValidationError, match="negative eigenvalue -1.500e-10 below -psd_floor"):
            check(beyond)
    rotated = st.haar_unitary(2, np.random.default_rng(5))
    rho = st.density(edge, tols=tols)
    stacked = st.densities(np.array([edge, rotated @ np.diag([0.7, 0.3]) @ rotated.conj().T]), tols)
    calls = count_decompositions(monkeypatch)
    for r in [rho] + stacked:
        w, v = herm_eig(r.mat, tols)
        assert r.w.tobytes() == w.tobytes() and r.v.tobytes() == v.tobytes()
    assert calls == ["eigh"] * 3
    assert rho.w.tolist() == [1.0 + 1e-10, -1e-10]


def test_mat_and_cached_eigendecompositions_are_read_only():
    src = np.diag([0.25, 0.75]).astype(complex)
    rho = st.density(src, tols=DEFAULT_TOLS)
    for arr in (rho.mat, rho.w, rho.v):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, ...] = 0.0
    src[0, 0] = 0.5   # the caller's own array stays writable


def test_a_density_matrix_carries_no_tensor_split():
    # A state holds its matrix and the decomposition that its check took,
    # nothing else; the one object serves every split it is read at.
    assert [f.name for f in dataclasses.fields(st.DensityMatrix)] == ["mat", "w", "v"]
    rho = random_density(6, 3, np.random.default_rng(4))
    u = np.eye(6, dtype=complex)
    for d_s, d_e in ((2, 3), (3, 2), (6, 1)):
        assert sup.build(u, rho, d_s, d_e, DEFAULT_TOLS).rho_se is rho
    with pytest.raises(ShapeError, match=r"^density matrix must be square, got \(6, 2\)$"):
        st.DensityMatrix(rho.mat[:, :2], rho.w, rho.v)
    with pytest.raises(ShapeError, match=r"^density matrix must be square, got \(6, 2\)$"):
        st.density(rho.mat[:, :2], tols=DEFAULT_TOLS)
