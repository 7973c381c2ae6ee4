import re
import warnings

import numpy as np
import pytest

from athermal_markov.linalg import (
    MAX_ANGLE,
    DensityMatrix,
    check_state,
    dagger,
    eigh,
    entropy_of_spectrum,
    mat_equal,
    partial_trace,
    partial_transpose,
    reduce_mod_2pi,
    trace_norm,
)
from athermal_markov.thermal import Hamiltonian
from util import (BELL_PHI_PLUS, SIGMA_X, SIGMA_Z, matrix_log2_on_support,
                  random_density, random_hermitian, random_unitary)


def bell_state():
    return DensityMatrix(np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()), (2, 2))


# -- types -------------------------------------------------------------------

def test_density_matrix_validation():
    # check_state with eigenvectors checks what the constructor checks
    for build in (DensityMatrix, lambda m, dims: check_state(m, dims, vectors=True)):
        with pytest.raises(ValueError, match="Hermitian"):
            build(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,))
        with pytest.raises(ValueError, match="trace"):
            build(np.eye(2), (2,))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            build(np.diag([1.5, -0.5]), (2,))
        with pytest.raises(ValueError, match="bad factorization"):
            build(np.eye(4) / 4, (2, 3))


def test_check_state_returns_the_decomposition_that_checked_it():
    m = random_density(np.random.default_rng(5), 3).matrix
    w, v = check_state(m, (3,), vectors=True)
    want_w, want_v = np.linalg.eigh(m)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    w, v = check_state(m, (3,))
    assert np.array_equal(w, np.linalg.eigvalsh(m)) and v is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected_before_any_arithmetic(bad):
    # their own message, and no RuntimeWarning from the Hermiticity difference
    m = np.eye(2, dtype=complex) / 2
    m[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: DensityMatrix(m, (2,)), lambda: check_state(m, (2,)),
                      lambda: eigh(m), lambda: Hamiltonian.from_matrix(m)):
            with pytest.raises(ValueError, match="non-finite entries"):
                build()


def test_density_matrix_tolerance_is_explicit():
    # the fixed tolerance is STATE_TOL = 1e-9: a trace off by 1e-8 is
    # rejected, one off by 1e-10 is accepted
    slightly_off = np.diag([0.5 + 2e-8, 0.5 - 2e-8 + 1e-8])
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(slightly_off, (2,))
    DensityMatrix(np.diag([0.5 + 2e-8, 0.5 - 2e-8 + 1e-10]), (2,))


def test_mat_equal_uses_absolute_tolerance():
    a = np.zeros((2, 2))
    b = np.full((2, 2), 1e-10)
    assert mat_equal(a, b, 1e-9)
    assert not mat_equal(a, b, 1e-11)


# -- partial trace / transpose -------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 2)
    tau = random_density(rng, 3)
    joint = DensityMatrix(np.kron(rho.matrix, tau.matrix), (2, 3))
    assert mat_equal(partial_trace(joint, 0).matrix, rho.matrix, 1e-12)
    assert mat_equal(partial_trace(joint, 1).matrix, tau.matrix, 1e-12)


def test_partial_trace_bell_marginal():
    assert mat_equal(partial_trace(bell_state(), 0).matrix, np.eye(2) / 2, 1e-12)


def test_partial_trace_against_index_summation():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 6, dims=(2, 3))
    r = rho.matrix.reshape(2, 3, 2, 3)
    first = np.zeros((2, 2), dtype=complex)
    second = np.zeros((3, 3), dtype=complex)
    for a in range(2):
        for c in range(2):
            first[a, c] = sum(r[a, b, c, b] for b in range(3))
    for b in range(3):
        for d in range(3):
            second[b, d] = sum(r[a, b, a, d] for a in range(2))
    assert mat_equal(partial_trace(rho, 0).matrix, first, 1e-12)
    assert mat_equal(partial_trace(rho, 1).matrix, second, 1e-12)


def test_partial_trace_requires_two_factors():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="bad factorization"):
        partial_trace(random_density(rng, 4), 0)


def test_partial_transpose_product_and_involution():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 2)
    tau = random_density(rng, 3)
    joint = DensityMatrix(np.kron(rho.matrix, tau.matrix), (2, 3))
    assert mat_equal(partial_transpose(joint, 0), np.kron(rho.matrix.T, tau.matrix), 1e-12)
    twice = partial_transpose(DensityMatrix(partial_transpose(joint, 0), (2, 3)), 0)
    assert mat_equal(twice, joint.matrix, 1e-12)


def test_partial_transpose_bell_spectrum():
    w = np.sort(np.linalg.eigvalsh(partial_transpose(bell_state(), 0)))
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_spectrum_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_density(rng, 6, dims=(2, 3))
        w = np.linalg.eigvalsh(partial_transpose(rho, 0))
        assert abs(w.sum() - 1.0) < 1e-10


# -- eigh ----------------------------------------------------------------------

def test_eigh_pauli_z():
    w, v = eigh(SIGMA_Z)
    assert np.allclose(w, [-1, 1])
    assert mat_equal(v[:, 0], [0, 1], 1e-12)
    assert mat_equal(v[:, 1], [1, 0], 1e-12)


def test_eigh_pauli_x_spectrum():
    w, _ = eigh(SIGMA_X)
    assert np.allclose(w, [-1, 1])


def test_eigh_reconstruction_and_phase():
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 6)
    w, v = eigh(m)
    assert np.max(np.abs(v @ np.diag(w) @ dagger(v) - m)) < 1e-10
    for k in range(6):
        pivot = v[np.argmax(np.abs(v[:, k])), k]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def _eigh_column_by_column(m):
    """The phase convention applied one column at a time."""
    w, v = np.linalg.eigh(m)
    v = v.copy()
    for k in range(v.shape[1]):
        pivot = v[np.argmax(np.abs(v[:, k])), k]
        v[:, k] = v[:, k] * (pivot.conjugate() / abs(pivot))
    return w, v


def test_eigh_phase_fix_is_bitwise_the_column_loop():
    rng = np.random.default_rng(61)
    cases = [random_hermitian(rng, d) for d in (1, 2, 3, 6, 12, 36) for _ in range(5)]
    # degenerate spectra, where eigh returns a basis of each eigenspace
    cases += [np.eye(4, dtype=complex), np.diag([1.0, 1.0, -2.0, 3.0, 3.0]).astype(complex),
              np.kron(SIGMA_Z, np.eye(3)), np.zeros((3, 3), dtype=complex)]
    for m in cases:
        w, v = eigh(m)
        w_ref, v_ref = _eigh_column_by_column(m)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigh_deterministic():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 5)
    w1, v1 = eigh(m)
    w2, v2 = eigh(m)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


# -- trace norm ------------------------------------------------------------------

def test_trace_norm_density_matrix_is_one():
    rng = np.random.default_rng(8)
    for d in (2, 3, 6):
        assert abs(trace_norm(random_density(rng, d).matrix) - 1) < 1e-12


def test_trace_norm_diag():
    assert abs(trace_norm(np.diag([1.0, -3.0])) - 4.0) < 1e-12


def test_trace_norm_equals_abs_eigenvalue_sum():
    rng = np.random.default_rng(9)
    m = random_hermitian(rng, 5)
    w, _ = eigh(m)
    assert abs(trace_norm(m) - np.abs(w).sum()) < 1e-10


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(10)
    m = random_hermitian(rng, 4)
    u, v = random_unitary(rng, 4), random_unitary(rng, 4)
    assert abs(trace_norm(u @ m @ v) - trace_norm(m)) < 1e-10


def trace_norm_cases() -> np.ndarray:
    """A stack of 2x2 matrices: general complex, rank one, Hermitian and zero."""
    rng = np.random.default_rng(12)
    general = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    rank_one = general[:100, :, :1] @ dagger(general[100:, :, :1])
    return np.concatenate([general, rank_one, [random_hermitian(rng, 2) for _ in range(100)],
                           np.zeros((3, 2, 2))])


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_trace_norm_closed_form_stays_relative_across_the_double_range(scale):
    m = scale * trace_norm_cases()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = trace_norm(m)
    want = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    assert trace_norm(m[0]) == got[0]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_trace_norm_rejects_non_finite_entries(n, bad):
    m = np.zeros((4, n, n), dtype=complex)
    m[2, 0, -1] = bad
    for case in (m, m[2]):
        with pytest.raises(ValueError, match="non-finite entries"):
            trace_norm(case)


# -- entropy ----------------------------------------------------------------------

def test_entropy_pure_state():
    psi = np.array([0.6, 0.8j])
    rho = DensityMatrix(np.outer(psi, psi.conj()), (2,))
    assert abs(entropy_of_spectrum(rho.matrix)) < 1e-12


def test_entropy_maximally_mixed_qubit():
    assert abs(entropy_of_spectrum(DensityMatrix(np.eye(2) / 2, (2,)).matrix) - 1.0) < 1e-12


def test_entropy_binary_oracle():
    # independent binary-entropy evaluation: -(p log2 p + q log2 q)
    p, q = 0.9, 0.1
    expected = -(p * np.log2(p) + q * np.log2(q))
    got = entropy_of_spectrum(DensityMatrix(np.diag([p, q]), (2,)).matrix)
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.4689955935892812) < 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = random_density(rng, 5)
        u = random_unitary(rng, 5)
        rotated = DensityMatrix(u @ rho.matrix @ dagger(u), (5,))
        assert abs(entropy_of_spectrum(rotated.matrix) - entropy_of_spectrum(rho.matrix)) < 1e-10


def test_entropy_range():
    rng = np.random.default_rng(12)
    for d in (2, 3, 4):
        s = entropy_of_spectrum(random_density(rng, d).matrix)
        assert -1e-12 <= s <= np.log2(d) + 1e-12


# -- matrix log --------------------------------------------------------------------

def test_matrix_log2_identity():
    assert mat_equal(matrix_log2_on_support(np.eye(3)), np.zeros((3, 3)), 1e-12)


def test_matrix_log2_diagonal():
    assert mat_equal(matrix_log2_on_support(np.diag([2.0, 4.0])), np.diag([1.0, 2.0]), 1e-12)


def test_matrix_log2_round_trip():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 4).matrix
    log = matrix_log2_on_support(rho)
    w, v = eigh(log + 0j)
    back = (v * np.exp2(w)) @ dagger(v)
    assert np.max(np.abs(back - rho)) < 1e-9


def test_matrix_log2_support_convention():
    m = np.diag([0.0, 0.5, 2.0])
    out = matrix_log2_on_support(m)
    assert abs(out[0, 0]) == 0.0
    assert abs(out[1, 1] + 1.0) < 1e-12


def test_matrix_log2_rejects_negative():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        matrix_log2_on_support(np.diag([1.0, -0.2]))


# -- angle reduction ----------------------------------------------------------------

def test_reduce_mod_2pi_small_angles():
    assert abs(reduce_mod_2pi(1.25) - 1.25) < 1e-15
    assert abs(reduce_mod_2pi(-0.5) - (2 * np.pi - 0.5)) < 1e-15
    # angles already in [0, 2*pi) come back unchanged
    for angle in (0.0, 5e-324, 1e-300, 1.25, np.pi, np.nextafter(2 * np.pi, 0.0)):
        assert reduce_mod_2pi(angle) == angle
    # remainders that round up to 2*pi wrap to 0
    for angle in (2 * np.pi, -1e-300, -5e-324):
        assert reduce_mod_2pi(angle) == 0.0
    for angle in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            reduce_mod_2pi(angle)


def test_reduce_mod_2pi_is_bitwise_the_local_context_form():
    # one module-level 50-digit context does what a fresh local context per call did
    from decimal import Decimal, localcontext
    two_pi = Decimal("6.2831853071795864769252867665590057683943387987502116419498891846")

    def local(angle):
        with localcontext() as ctx:
            ctx.prec = 50
            r = Decimal(angle) % two_pi
            if r < 0:
                r += two_pi
            r = float(r)
        return 0.0 if r == 2 * np.pi else r

    rng = np.random.default_rng(2026)
    angles = rng.uniform(-1, 1, size=4000) * 10.0 ** rng.uniform(0, 12, size=4000)
    for angle in (*angles.tolist(), 2 * np.pi, -2 * np.pi, 1e9, -1e9, 1e40):
        assert reduce_mod_2pi(angle) == local(angle), angle


def test_reduce_mod_2pi_rejects_angles_beyond_its_exact_range():
    for angle in (1e51, -1e51, 1e308, MAX_ANGLE, -MAX_ANGLE):
        with pytest.raises(ValueError, match=f"angle {re.escape(repr(angle))} is too large"):
            reduce_mod_2pi(angle)
    for angle in (np.nextafter(MAX_ANGLE, 0.0), -np.nextafter(MAX_ANGLE, 0.0)):
        assert 0 <= reduce_mod_2pi(angle) < 2 * np.pi


def test_reduce_mod_2pi_huge_angles():
    # cross-check against extended-precision reduction of 4e4 and 9e8
    from decimal import Decimal, getcontext
    getcontext().prec = 60
    two_pi = Decimal("6.28318530717958647692528676655900576839433879875021164194988918461563")
    for angle in (1e4, 4e4, 1e5, 18e7, 9e8):
        expected = float(Decimal(angle) % two_pi)
        assert abs(reduce_mod_2pi(angle) - expected) < 1e-12
        assert 0 <= reduce_mod_2pi(angle) < 2 * np.pi
