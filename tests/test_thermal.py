import math

import numpy as np
import pytest

from athermal_markov import thermal
from athermal_markov.linalg import (
    DensityMatrix,
    dagger,
    mat_equal,
    partial_trace,
    reduce_mod_2pi,
    trace_norm,
)
from athermal_markov.thermal import (
    DEGENERACY_TOL,
    Hamiltonian,
    PerturbationSpec,
    TotalHamiltonian,
    apply,
    build_block_unitary,
    gibbs_state,
    mto_check,
    perturbed_state_exact,
    perturbed_state_first_order,
    state_from_level_coeffs,
    thermal_operation,
    total_hamiltonian,
)
from util import SIGMA_X, SIGMA_Z, bath_matrix, choi_state, computational_matrix, \
    product_eigvecs, random_density, random_hermitian, random_unitary

H_QUBIT = Hamiltonian.from_matrix(SIGMA_Z)
EPS = np.finfo(float).eps
GELL_MANN_1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)


def kron_sum(h_total) -> np.ndarray:
    """H_S (x) 1 + 1 (x) H_B of a total Hamiltonian's parts, in the computational basis."""
    h_sys, h_bath = h_total.parts
    return np.kron(h_sys.matrix, np.eye(h_bath.dim)) + np.kron(np.eye(h_sys.dim), h_bath.matrix)


def commutator_norm(u, h) -> float:
    """Trace norm of U H - H U in the computational basis, for a block unitary
    and a total Hamiltonian (each held in the product eigenbasis), or for a
    Hamiltonian without parts or raw matrices."""
    um = computational_matrix(u) if isinstance(u, thermal.EnergyBlockUnitary) else u
    hm = kron_sum(h) if getattr(h, "parts", None) else getattr(h, "matrix", h)
    um, hm = (np.asarray(x, dtype=complex) for x in (um, hm))
    return trace_norm(um @ hm - hm @ um)


def fig2_unitary(phases=(1e5, 2e5, 3e5, 4e5)):
    """Matched-splitting qubit pair with the rotated zero-energy block."""
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    a1, a2, a3, a4 = phases
    psi_1 = np.zeros(4, dtype=complex)
    psi_2 = np.zeros(4, dtype=complex)
    psi_1[1], psi_1[2] = np.sqrt(2 / 3), np.sqrt(1 / 3)  # |01>, |10>
    psi_2[1], psi_2[2] = np.sqrt(1 / 3), -np.sqrt(2 / 3)
    params = []
    for energy, idx in h_tot.energy_blocks():
        if len(idx) == 2:
            basis = product_eigvecs(h_tot)[:, list(idx)]
            params.append((np.array([a3, a4]), dagger(basis) @ np.column_stack([psi_1, psi_2])))
        elif energy > 0:
            params.append(a1)
        else:
            params.append(a2)
    return h_tot, build_block_unitary(h_tot, params)


def phase_diag_op(phase_grid, h_sys=H_QUBIT, h_bath=None, beta=1.0):
    """Thermal operation from per-(system level, bath level) phases."""
    h_bath = h_bath or H_QUBIT
    h_tot = total_hamiltonian(h_sys, h_bath)
    params = []
    for _, idx in h_tot.energy_blocks():
        i, r = h_tot.product_labels[idx[0]]
        params.append(float(phase_grid[i][r]))
    u = build_block_unitary(h_tot, params)
    return thermal_operation(u, gibbs_state(h_bath, beta))


# -- Gibbs states -----------------------------------------------------------------

def test_gibbs_infinite_temperature():
    g = gibbs_state(H_QUBIT, 0.0)
    assert np.allclose(g.level_probabilities, [0.5, 0.5], rtol=0, atol=1e-12)


def test_gibbs_two_level_closed_form():
    g = gibbs_state(H_QUBIT, 1.0)
    z = 2 * np.cosh(1.0)
    # levels ascend in energy: -1, then +1
    assert np.allclose(g.level_probabilities, [np.exp(1.0) / z, np.exp(-1.0) / z], rtol=0, atol=1e-12)


def test_gibbs_zero_temperature_limit():
    g = gibbs_state(H_QUBIT, math.inf)
    assert np.array_equal(g.level_probabilities, [1.0, 0.0])


def test_gibbs_zero_temperature_degenerate_rejected():
    h = Hamiltonian.from_matrix(np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError, match="ambiguous zero-temperature limit"):
        gibbs_state(h, math.inf)


def test_gibbs_rejects_negative_beta():
    with pytest.raises(ValueError, match="nonnegative"):
        gibbs_state(H_QUBIT, -0.5)


def test_gibbs_level_probabilities_are_computed_once():
    h = Hamiltonian.from_matrix(np.diag([0.3, -1.2, 2.5]).astype(complex))
    for beta in (0.0, 0.7, math.inf):
        g = gibbs_state(h, beta)
        first = g.level_probabilities
        assert first is g.level_probabilities and not first.flags.writeable
        assert np.array_equal(first, thermal._boltzmann_weights(h.energies, beta))


def test_gibbs_commutes_with_source():
    tau = bath_matrix(gibbs_state(Hamiltonian.from_matrix(SIGMA_X), 0.7))
    comm = tau @ SIGMA_X - SIGMA_X @ tau
    assert np.max(np.abs(comm)) < 1e-12


# -- total Hamiltonian --------------------------------------------------------------

def test_total_hamiltonian_matched_qubits_spectrum():
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    assert np.allclose(h_tot.energies, [-2, 0, 0, 2])
    blocks = h_tot.energy_blocks()
    assert [len(idx) for _, idx in blocks] == [1, 2, 1]


def test_total_hamiltonian_qutrit_bath_nondegenerate():
    h_sys = Hamiltonian.from_matrix(2.0 * SIGMA_Z)
    h_bath = Hamiltonian.from_matrix(GELL_MANN_1)
    h_tot = total_hamiltonian(h_sys, h_bath)
    assert np.allclose(np.sort(h_tot.energies), [-3, -2, -1, 1, 2, 3], atol=1e-9)
    assert all(len(idx) == 1 for _, idx in h_tot.energy_blocks())


def test_total_hamiltonian_zero_bath():
    h_bath = Hamiltonian.from_matrix(np.zeros((3, 3), dtype=complex))
    h_tot = total_hamiltonian(H_QUBIT, h_bath)
    # H_S (x) 1 + 1 (x) H_B, back in the computational basis
    w = product_eigvecs(h_tot)
    assert mat_equal(w @ np.diag(h_tot.energies) @ dagger(w), np.kron(SIGMA_Z, np.eye(3)), 1e-12)


def test_total_hamiltonian_product_eigvecs():
    h_sys = Hamiltonian.from_matrix(2.0 * SIGMA_Z)
    h_bath = Hamiltonian.from_matrix(GELL_MANN_1)
    h_tot = total_hamiltonian(h_sys, h_bath)
    # levels only, no matrix: E_i + E_r ascending, each labelled by its product ket
    # (i, r) at product index i d_b + r, and the labels visit every product index once
    assert isinstance(h_tot, TotalHamiltonian) and not hasattr(h_tot, "matrix")
    assert not h_tot.energies.flags.writeable
    sums = np.add.outer(h_sys.energies, h_bath.energies).ravel()
    order = [3 * i + r for i, r in h_tot.product_labels]
    assert sorted(order) == list(range(6))
    assert np.array_equal(h_tot.energies, sums[order])
    assert np.all(np.diff(h_tot.energies) >= 0)
    # kron(V_S, V_B) in level order diagonalises H_S (x) 1 + 1 (x) H_B
    w = product_eigvecs(h_tot)
    assert mat_equal(w @ np.diag(h_tot.energies) @ dagger(w), kron_sum(h_tot), 1e-10)


def test_bohr_nondegenerate_flag():
    assert H_QUBIT.bohr_nondegenerate()
    # equal spacings give a degenerate Bohr spectrum
    h = Hamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0]).astype(complex))
    assert not h.bohr_nondegenerate()
    h = Hamiltonian.from_matrix(np.diag([0.0, 1.0, 2.5]).astype(complex))
    assert h.bohr_nondegenerate()


def _element_loops(h_sys: Hamiltonian, h_prime: Hamiltonian):
    """Reference: the Bohr flag and the first-order generator as element loops."""
    e, n = h_sys.energies, h_sys.dim
    diffs = []
    for i in range(n):
        for j in range(n):
            if i != j:
                diffs.append((e[i] - e[j], (i, j)))
    diffs.sort(key=lambda t: t[0])
    bohr = True
    for (a, pa), (b, pb) in zip(diffs, diffs[1:]):
        if abs(a - b) <= DEGENERACY_TOL and pa != pb:
            bohr = False
    v = h_sys.eigvecs
    hp = dagger(v) @ h_prime.matrix @ v
    g = np.zeros_like(hp)
    for k in range(n):
        for i in range(n):
            if k != i:
                g[k, i] = hp[k, i] / (e[i] - e[k])
    return bohr, g


def test_bohr_flag_and_generator_match_element_loops():
    rng = np.random.default_rng(8)
    flags = []
    for trial in range(90):
        d = int(rng.integers(2, 7))
        if trial % 3 == 0:
            e = rng.uniform(-3, 3, size=d)
        elif trial % 3 == 1:  # level gaps around 1e-8, on both sides of DEGENERACY_TOL
            e = np.cumsum(rng.uniform(0.5e-8, 3e-8, size=d))
        else:  # near-equal spacings: Bohr differences around 1e-8 apart
            e = np.arange(d) + rng.uniform(-1e-8, 1e-8, size=d)
        u = random_unitary(rng, d)
        h_sys = Hamiltonian.from_matrix((u * e) @ dagger(u))
        h_prime = Hamiltonian.from_matrix(random_hermitian(rng, d))
        bohr, g = _element_loops(h_sys, h_prime)
        assert h_sys.bohr_nondegenerate() is bohr
        flags.append(bohr)
        if np.diff(h_sys.energies).min() > DEGENERACY_TOL:
            assert thermal.first_order_generator(h_sys, h_prime).tobytes() == g.tobytes()
        else:
            with pytest.raises(ValueError, match="degenerate spectrum"):
                thermal.first_order_generator(h_sys, h_prime)
    assert True in flags and False in flags


# -- block unitaries ------------------------------------------------------------------

def test_block_unitary_zero_phases_is_identity():
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    params = [0.0 if len(idx) == 1 else np.eye(2) for _, idx in h_tot.energy_blocks()]
    u = build_block_unitary(h_tot, params)
    assert mat_equal(u.matrix, np.eye(4), 1e-12)


def test_block_unitary_fig2_commutes():
    h_tot, u = fig2_unitary()
    assert commutator_norm(u, h_tot) <= 1e-9
    assert np.max(np.abs(u.matrix @ dagger(u.matrix) - np.eye(4))) < 1e-10


def test_block_unitary_nondegenerate_is_diagonal_in_product_basis():
    rng = np.random.default_rng(21)
    h_sys = Hamiltonian.from_matrix(2.0 * SIGMA_Z)
    h_bath = Hamiltonian.from_matrix(GELL_MANN_1)
    h_tot = total_hamiltonian(h_sys, h_bath)
    u = build_block_unitary(h_tot, list(rng.uniform(0, 2 * np.pi, size=6)))
    # held in the product eigenbasis, with exact zeros off the diagonal
    assert np.array_equal(u.matrix, np.diag(np.diag(u.matrix)))
    assert np.allclose(np.abs(np.diag(u.matrix)), 1.0)
    w = product_eigvecs(h_tot)
    in_basis = dagger(w) @ computational_matrix(u) @ w
    off = in_basis - np.diag(np.diag(in_basis))
    assert np.max(np.abs(off)) < 1e-12


def test_block_unitary_bare_phases_match_the_per_block_sum():
    # bare phases enter through one product; the reference adds one rank-one term per
    # level, with the raw angle reduced mod 2 pi as before exponentiation
    rng = np.random.default_rng(24)
    h_tot = total_hamiltonian(Hamiltonian.from_matrix(random_hermitian(rng, 2)),
                              Hamiltonian.from_matrix(random_hermitian(rng, 3)))
    phases = list(rng.uniform(0, 1e9, size=6))
    v = product_eigvecs(h_tot)
    want = sum(np.exp(-1j * reduce_mod_2pi(a)) * np.outer(v[:, k], v[:, k].conj())
               for k, a in enumerate(phases))
    u = build_block_unitary(h_tot, phases)
    assert mat_equal(computational_matrix(u), want, 1e-14)
    # level k sits on the product index i d_b + r of its label (i, r), exactly
    places = [3 * i + r for i, r in h_tot.product_labels]
    assert np.array_equal(u.matrix[places, places], [np.exp(-1j * reduce_mod_2pi(a)) for a in phases])
    assert np.count_nonzero(u.matrix) == 6
    # a bare phase is only a one-dimensional block's parameter
    params = [0.0, 1.0, 0.0]
    with pytest.raises(ValueError, match="scalar phase given for a 2-dimensional block"):
        build_block_unitary(total_hamiltonian(H_QUBIT, H_QUBIT), params)


def test_block_unitary_rejects_non_unitary_block():
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    params = [0.0, np.array([[1.0, 0.0], [0.0, 2.0]]), 0.0]
    with pytest.raises(ValueError, match="not unitary"):
        build_block_unitary(h_tot, params)


def test_energy_block_unitary_rejects_non_unitary_matrix():
    # apply and the Choi construction trust their unitary, so a direct construction is checked too
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    for m in (2 * np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0])):
        with pytest.raises(ValueError, match="not unitary"):
            thermal.EnergyBlockUnitary(m.astype(complex), h_tot)


def test_unitarity_checks_are_absolute():
    # the largest entry of U U^dag - I may reach UNITARY_TOL = 1e-10, with no relative
    # part: np.allclose's default rtol would add 1e-5 on the diagonal
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    basis = np.diag([1.0, 1.0 + 1e-6])  # max |U U^dag - I| = 4.0e-6
    with pytest.raises(ValueError, match="not unitary"):
        build_block_unitary(h_tot, [0.1, (np.array([0.3, 0.7]), basis), 0.2])
    u = build_block_unitary(h_tot, [0.1, (np.array([0.3, 0.7]), np.eye(2)), 0.2])
    with pytest.raises(ValueError, match="not unitary"):
        thermal.EnergyBlockUnitary(u.matrix * (1 + 3e-6), h_tot)


def test_block_unitary_wrong_count():
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    with pytest.raises(ValueError, match="block parameters"):
        build_block_unitary(h_tot, [0.0, 0.0])


# -- channel application ----------------------------------------------------------------

def test_apply_identity_unitary():
    rng = np.random.default_rng(22)
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    params = [0.0 if len(idx) == 1 else np.eye(2) for _, idx in h_tot.energy_blocks()]
    op = thermal_operation(build_block_unitary(h_tot, params), gibbs_state(H_QUBIT, 0.5))
    rho = random_density(rng, 2)
    joint = apply(op, rho)
    # in the product eigenbasis: rho's level coefficients and the bath's weights
    coeffs = dagger(H_QUBIT.eigvecs) @ rho.matrix @ H_QUBIT.eigvecs
    tau = np.diag(op.bath.level_probabilities)
    assert mat_equal(partial_trace(joint, 0).matrix, coeffs, 1e-12)
    assert mat_equal(partial_trace(joint, 1).matrix, tau, 1e-12)
    assert mat_equal(joint.matrix, np.kron(coeffs, tau), 1e-12)


def test_apply_fixed_point():
    beta = 0.25
    h_tot, u = fig2_unitary()
    op = thermal_operation(u, gibbs_state(H_QUBIT, beta))
    p = np.diag(gibbs_state(H_QUBIT, beta).level_probabilities)
    # the system marginal comes out in the system eigenbasis, where the Gibbs state is diag(p)
    out = partial_trace(apply(op, state_from_level_coeffs(H_QUBIT, p)), 0)
    assert 0.5 * trace_norm(out.matrix - p) <= 1e-9


def test_apply_joint_is_valid_density_matrix():
    h_tot, u = fig2_unitary()
    op = thermal_operation(u, gibbs_state(H_QUBIT, 0.25))
    rho = DensityMatrix(np.diag([0.9, 0.1]), (2,))
    joint = apply(op, rho)
    # the public constructor re-checks trace, hermiticity and positivity
    checked = DensityMatrix(joint.matrix, joint.dims)
    assert checked.dims == (2, 2)
    assert abs(np.trace(checked.matrix) - 1) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.7, 5.0])
@pytest.mark.parametrize("d_sys, d_bath", [(2, 2), (2, 3), (3, 3), (6, 6), (4, 9)])
def test_derived_states_pass_public_validation(d_sys, d_bath, beta):
    # apply and partial_trace store their outputs unchecked; the Choi construction's
    # output and the Gibbs weights, as diagonal states, are checked as states too
    rng = np.random.default_rng(10 * d_sys + d_bath)
    for trial in range(4):
        h_sys = Hamiltonian.from_matrix(random_hermitian(rng, d_sys))
        # integer bath levels give degenerate total-energy blocks
        h_bath = Hamiltonian.from_matrix(np.diag(rng.integers(0, 3, size=d_bath)).astype(complex))
        h_tot = total_hamiltonian(h_sys, h_bath)
        u = build_block_unitary(h_tot, [random_unitary(rng, len(idx))
                                        for _, idx in h_tot.energy_blocks()])
        bath = gibbs_state(h_bath, beta)
        op = thermal_operation(u, bath)
        if trial % 2:
            psi = random_unitary(rng, d_sys)[:, 0]
            rho = DensityMatrix(np.outer(psi, psi.conj()), (d_sys,))  # rank one
        else:
            rho = random_density(rng, d_sys)
        joint = apply(op, rho)
        derived = (joint, partial_trace(joint, 0), partial_trace(joint, 1), choi_state(op))
        for state in derived:
            DensityMatrix(state.matrix, state.dims)
        for g in (bath, gibbs_state(h_sys, beta)):
            DensityMatrix(np.diag(g.level_probabilities), (g.hamiltonian.dim,))


def test_apply_to_a_sequence_is_each_state_applied():
    rng = np.random.default_rng(25)
    h_tot, u = fig2_unitary()
    op = thermal_operation(u, gibbs_state(H_QUBIT, 0.25))
    states = [random_density(rng, 2) for _ in range(3)]
    joints = apply(op, states)
    assert [j.dims for j in joints] == [(2, 2)] * 3
    # each row of the stack is the one-state computation, bit for bit
    for rho, joint in zip(states, joints):
        assert np.array_equal(joint.matrix, apply(op, rho).matrix)
        assert np.array_equal(joint.matrix, joint.matrix.conj().T)


def test_apply_dimension_mismatch():
    h_tot, u = fig2_unitary()
    op = thermal_operation(u, gibbs_state(H_QUBIT, 0.25))
    wrong = DensityMatrix(np.eye(3) / 3, (3,))
    for states in (wrong, [DensityMatrix(np.eye(2) / 2, (2,)), wrong]):
        with pytest.raises(ValueError, match="dimension 3 != 2"):
            apply(op, states)


# -- commutator norm ----------------------------------------------------------------------

def test_commutator_norm_diagonal():
    u = np.diag(np.exp(-1j * np.array([0.3, 1.1, 2.2, 0.4])))
    h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    assert commutator_norm(u, h) < 1e-12


def test_commutator_norm_random_block_unitaries():
    # any assembled block unitary is energy preserving, degenerate blocks included
    rng = np.random.default_rng(32)
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    for _ in range(10):
        params = []
        for _, idx in h_tot.energy_blocks():
            k = len(idx)
            if k == 1:
                params.append(float(rng.uniform(0, 2 * np.pi)))
            else:
                a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
                q, r = np.linalg.qr(a)
                params.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        u = build_block_unitary(h_tot, params)
        assert commutator_norm(u, h_tot) <= 1e-9


def test_commutator_norm_fig2_perturbed_positive():
    h_tot, u = fig2_unitary()
    assert commutator_norm(u, h_tot) <= 1e-9
    h_pert = Hamiltonian.from_matrix(kron_sum(h_tot) + 0.2 * np.kron(SIGMA_X, np.eye(2)))
    assert commutator_norm(u, h_pert) > 1e-3


# -- Markovianity checks ------------------------------------------------------------------

def test_mto_check_identity_unitary():
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    params = [0.0 if len(idx) == 1 else np.eye(2) for _, idx in h_tot.energy_blocks()]
    op = thermal_operation(build_block_unitary(h_tot, params), gibbs_state(H_QUBIT, 1.0))
    rng = np.random.default_rng(23)
    report = mto_check(op, random_density(rng, 2))
    assert report.is_markovian
    assert report.joint_product_deviation < 1e-12
    assert report.max_amplitude_residual() < 1e-12
    assert report.max_phase_residual() < 1e-12


def test_mto_check_constraint_satisfying_phases():
    # phase differences between system levels independent of the bath level
    rng = np.random.default_rng(24)
    base = rng.uniform(0, 2 * np.pi, size=2)
    offs = rng.uniform(0, 2 * np.pi, size=2)
    grid = [[base[0] + offs[0], base[0] + offs[1]],
            [base[1] + offs[0], base[1] + offs[1]]]
    op = phase_diag_op(grid, h_bath=Hamiltonian.from_matrix(10 * SIGMA_Z), beta=0.01)
    report = mto_check(op, random_density(rng, 2))
    assert report.is_markovian
    assert report.residuals_markovian()


def test_mto_check_swap_amplitude_residuals_use_the_matched_bath_level():
    # |01> <-> |10> swap on the matched qubit pair: each transition i -> j
    # moves the bath from r to r', and the residual weighs by p[r'] / p[r]
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    params = [0.0 if len(idx) == 1 else swap for _, idx in h_tot.energy_blocks()]
    op = thermal_operation(build_block_unitary(h_tot, params), gibbs_state(H_QUBIT, 0.7))
    p0, p1 = op.bath.level_probabilities
    report = mto_check(op, DensityMatrix(np.eye(2) / 2, (2,)))
    expected = {(0, 0, 0): p1, (0, 0, 1): p0, (0, 1, 0): None, (0, 1, 1): p1,
                (1, 0, 0): p0, (1, 0, 1): None, (1, 1, 0): p1, (1, 1, 1): p0}
    assert report.amplitude_residuals.shape == (2, 2, 2)
    for key, want in expected.items():
        have = report.amplitude_residuals[key]
        assert np.isnan(have) if want is None else abs(have - want) < 1e-12, key


def test_mto_check_distance_example_phases_residual_value():
    # |00>,|11>,|01>,|10> carry phases 1e4..4e4; the residual equals the
    # spread of the two diagonal phase products around their Boltzmann mean.
    a1, a2, a3, a4 = 1e4, 2e4, 3e4, 4e4
    h_bath = Hamiltonian.from_matrix(10 * SIGMA_Z)
    grid = np.empty((2, 2))
    grid[1][1] = a1  # |00>
    grid[0][0] = a2  # |11>
    grid[1][0] = a3  # |01>
    grid[0][1] = a4  # |10>
    op = phase_diag_op(grid, h_bath=h_bath, beta=0.01)
    rng = np.random.default_rng(25)
    report = mto_check(op, random_density(rng, 2))
    assert not report.is_markovian
    assert not report.residuals_markovian()

    # independent evaluation of the constraint violation
    p = np.exp(-0.01 * np.array([-10.0, 10.0]))
    p /= p.sum()
    z0 = np.exp(-1j * (a2 - a4))  # bottom bath level: e^{-i(phi_{0,0}-phi_{1,0})}
    z1 = np.exp(-1j * (a3 - a1))  # top bath level
    lam = p[0] * z0 + p[1] * z1
    expected = max(abs(z0 - lam), abs(z1 - lam))
    assert abs(report.max_phase_residual() - expected) < 1e-9
    # which is zero iff e^{i(a4-a1)} equals e^{i(a2-a3)}
    assert abs(abs(z0 - z1) - abs(np.exp(1j * (a4 - a1)) - np.exp(1j * (a2 - a3)))) < 1e-9


def test_mto_check_resolves_bath_levels_once(monkeypatch):
    # the level table is per unitary: eight temperatures of one unitary resolve it once
    calls = []

    def counted(*args, _original=thermal._bath_levels):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(thermal, "_bath_levels", counted)
    h_bath = Hamiltonian.from_matrix(10 * SIGMA_Z)
    unitary = phase_diag_op([[1.0, 2.0], [3.0, 4.0]], h_bath=h_bath).unitary
    rho = random_density(np.random.default_rng(26), 2)
    for beta in np.linspace(0.1, 2.0, 8):
        op = thermal_operation(unitary, gibbs_state(h_bath, beta))
        mto_check(op, rho)
        amps = op.unitary.amplitude_table.amplitudes
    assert len(calls) == 1
    assert amps is unitary.amplitude_table.amplitudes and not amps.flags.writeable


def test_mto_check_rejects_a_bath_the_unitary_was_not_built_on():
    h_bath = Hamiltonian.from_matrix(10 * SIGMA_Z)
    unitary = phase_diag_op([[1.0, 2.0], [3.0, 4.0]], h_bath=h_bath).unitary
    rho = random_density(np.random.default_rng(27), 2)
    # an equal bath built again is accepted, with the same verdict
    same = thermal_operation(unitary, gibbs_state(Hamiltonian.from_matrix(10 * SIGMA_Z), 0.3))
    own = thermal_operation(unitary, gibbs_state(h_bath, 0.3))
    assert mto_check(same, rho).joint_product_deviation == mto_check(own, rho).joint_product_deviation
    # another bath, or one of another size, is refused when the operation is formed, so
    # mto_check never sees it
    for other in (Hamiltonian.from_matrix(3 * SIGMA_Z), Hamiltonian.from_matrix(10 * SIGMA_X),
                  Hamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0]).astype(complex))):
        with pytest.raises(ValueError, match="bath Hamiltonian differs"):
            thermal_operation(unitary, gibbs_state(other, 0.3))


def test_direct_thermal_operation_is_checked_like_thermal_operation():
    h_bath = Hamiltonian.from_matrix(10 * np.diag([0.0, 1.0, 2.5]).astype(complex))
    unitary = phase_diag_op([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], h_bath=h_bath).unitary
    op = thermal.ThermalOperation(unitary, gibbs_state(h_bath, 0.3))
    # the dimensions are read from the unitary's parts
    assert (op.d_sys, op.d_bath) == tuple(h.dim for h in unitary.hamiltonian.parts) == (2, 3)
    with pytest.raises(ValueError, match="bath Hamiltonian differs"):
        thermal.ThermalOperation(unitary, gibbs_state(Hamiltonian.from_matrix(10 * GELL_MANN_1), 0.3))


def test_mto_check_equivalence_random_sweep():
    rng = np.random.default_rng(26)
    h_bath = Hamiltonian.from_matrix(np.diag([-1.3, 0.4, 2.1]).astype(complex))
    h_sys = Hamiltonian.from_matrix(2.0 * SIGMA_Z)
    h_tot = total_hamiltonian(h_sys, h_bath)
    for case in range(30):
        markovian = case % 2 == 0
        if markovian:
            base = rng.uniform(0, 2 * np.pi, size=2)
            offs = rng.uniform(0, 2 * np.pi, size=3)
            grid = [[base[i] + offs[r] for r in range(3)] for i in range(2)]
        else:
            grid = rng.uniform(0, 2 * np.pi, size=(2, 3))
        params = []
        for _, idx in h_tot.energy_blocks():
            i, r = h_tot.product_labels[idx[0]]
            params.append(float(grid[i][r]))
        op = thermal_operation(build_block_unitary(h_tot, params),
                               gibbs_state(h_bath, rng.uniform(0.2, 2)))
        rho = random_density(rng, 2)
        report = mto_check(op, rho)
        assert report.is_markovian == report.residuals_markovian()
        if markovian:
            assert report.is_markovian


def test_mto_check_perturbed_input_same_verdict():
    # first-order perturbed inputs obey the same constraint verdicts
    rng = np.random.default_rng(27)
    h_sys = Hamiltonian.from_matrix(2.0 * SIGMA_Z)
    h_bath = Hamiltonian.from_matrix(np.diag([-1.3, 0.4, 2.1]).astype(complex))
    h_tot = total_hamiltonian(h_sys, h_bath)
    pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 1e-3)
    for case in range(10):
        grid = rng.uniform(0, 2 * np.pi, size=(2, 3))
        params = []
        for _, idx in h_tot.energy_blocks():
            i, r = h_tot.product_labels[idx[0]]
            params.append(float(grid[i][r]))
        op = thermal_operation(build_block_unitary(h_tot, params), gibbs_state(h_bath, 1.0))
        coeffs = random_density(rng, 2).matrix
        rho = state_from_level_coeffs(h_sys, coeffs)
        rho_fo = DensityMatrix(perturbed_state_first_order(coeffs, h_sys, pert), (2,))
        rep = mto_check(op, rho)
        rep_fo = mto_check(op, rho_fo)
        assert rep.is_markovian == rep_fo.is_markovian
        assert rep.residuals_markovian() == rep_fo.residuals_markovian()
        # the residual systems are state-independent and agree numerically
        assert abs(rep.max_phase_residual() - rep_fo.max_phase_residual()) < 1e-12


@pytest.mark.parametrize("d_sys, d_bath", [(2, 3), (3, 2), (3, 4)])
def test_transition_amplitudes_match_kron_reference(d_sys, d_bath):
    # rotated ladder spectra: degenerate blocks, and E_r + omega_ij hits a level
    rng = np.random.default_rng(3300 + 10 * d_sys + d_bath)

    def rotated_ladder(d):
        v = random_unitary(rng, d)
        return Hamiltonian.from_matrix(v @ np.diag(np.arange(d, dtype=float)) @ dagger(v))

    h_sys, h_bath = rotated_ladder(d_sys), rotated_ladder(d_bath)
    h_tot = total_hamiltonian(h_sys, h_bath)
    params = [float(rng.uniform(0, 2 * np.pi)) if len(idx) == 1 else random_unitary(rng, len(idx))
              for _, idx in h_tot.energy_blocks()]
    op = thermal_operation(build_block_unitary(h_tot, params), gibbs_state(h_bath, 0.7))
    amps = op.unitary.amplitude_table.amplitudes
    vs, vb, u = h_sys.eigvecs, h_bath.eigvecs, computational_matrix(op.unitary)
    found = 0
    for i, j, r in np.ndindex(amps.shape):
        amp = amps[i, j, r]
        target = h_bath.energies[r] + h_sys.energies[i] - h_sys.energies[j]
        hits = [k for k, e in enumerate(h_bath.energies) if abs(e - target) <= thermal.DEGENERACY_TOL]
        rp = hits[0] if len(hits) == 1 else None
        if rp is None:
            assert np.isnan(amp)
            continue
        bra = np.kron(vs[:, j], vb[:, rp])
        ket = np.kron(vs[:, i], vb[:, r])
        assert abs(amp - bra.conj() @ u @ ket) < 1e-12
        found += 1
    assert amps.shape == (d_sys, d_sys, d_bath) and found > d_sys * d_bath


def test_mto_check_degenerate_bohr_marks_phase_residuals_na():
    h_sys = Hamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0]).astype(complex))
    h_bath = Hamiltonian.from_matrix(np.diag([-0.9, 0.35]).astype(complex))
    h_tot = total_hamiltonian(h_sys, h_bath)
    params = [0.1 * k for k in range(len(h_tot.energy_blocks()))]
    op = thermal_operation(build_block_unitary(h_tot, params), gibbs_state(h_bath, 1.0))
    rng = np.random.default_rng(28)
    report = mto_check(op, random_density(rng, 3))
    assert report.phase_residuals.shape == (3, 3)
    assert np.isnan(report.phase_residuals).all()


def test_mto_check_missing_bath_level_marked_na():
    # generic bath spacings: E_r + omega_ji rarely lands on another level
    h_sys = Hamiltonian.from_matrix(2.0 * SIGMA_Z)
    h_bath = Hamiltonian.from_matrix(np.diag([-1.3, 0.4, 2.1]).astype(complex))
    h_tot = total_hamiltonian(h_sys, h_bath)
    op = thermal_operation(build_block_unitary(h_tot, [0.0] * 6), gibbs_state(h_bath, 1.0))
    rng = np.random.default_rng(29)
    report = mto_check(op, random_density(rng, 2))
    offdiag = ~np.eye(2, dtype=bool)
    assert np.isnan(report.amplitude_residuals[offdiag]).all()
    diag = report.amplitude_residuals[np.eye(2, dtype=bool)]
    assert diag.shape == (2, 3) and (diag < 1e-12).all()


def _reference_mto_check(op, rho_sys):
    """Reference: the Markovianity check with dict-valued residuals, keyed by
    (i, j, r) and (i < j), None where unconstrained, built by element loops."""
    joint = apply(op, rho_sys)
    p_bath = op.bath.level_probabilities
    # the joint state is in the product eigenbasis, where the bath is diag(p_bath)
    product = np.kron(partial_trace(joint, 0).matrix, np.diag(p_bath))
    deviation = 0.5 * trace_norm(joint.matrix - product)
    h_sys, h_bath = op.system_hamiltonian, op.bath.hamiltonian
    d_s, d_b = h_sys.dim, h_bath.dim
    u = op.unitary.matrix
    levels, amps = {}, {}
    for i in range(d_s):
        for j in range(d_s):
            for r in range(d_b):
                target = h_bath.energies[r] + h_sys.energies[i] - h_sys.energies[j]
                hits = [k for k in range(d_b) if abs(h_bath.energies[k] - target) <= DEGENERACY_TOL]
                levels[i, j, r] = hits[0] if len(hits) == 1 else None
                amps[i, j, r] = None if len(hits) != 1 else complex(u[j * d_b + hits[0], i * d_b + r])
    pij = np.zeros((d_s, d_s))
    for (i, j, r), a in amps.items():
        if a is not None:
            pij[i, j] += p_bath[r] * abs(a) ** 2
    amplitude_residuals = {
        (i, j, r): None if a is None or p_bath[r] <= 0
        else abs(abs(a) ** 2 - p_bath[levels[i, j, r]] * pij[i, j] / p_bath[r])
        for (i, j, r), a in amps.items()}
    phase_residuals = {}
    bohr_ok = h_sys.bohr_nondegenerate()
    for i in range(d_s):
        for j in range(i + 1, d_s):
            products = [(r, amps[i, i, r] * amps[j, j, r].conjugate()) for r in range(d_b)
                        if amps[i, i, r] is not None and amps[j, j, r] is not None]
            if not bohr_ok or not products:
                phase_residuals[i, j] = None
                continue
            lam = sum(p_bath[r] * z for r, z in products)
            phase_residuals[i, j] = max(abs(z - lam) for _, z in products)
    return deviation, amplitude_residuals, phase_residuals


def _reference_channels():
    """(label, unitary, bath Hamiltonian) on random pairs up to 4x9."""
    rng = np.random.default_rng(4100)

    def rotated(energies):
        v = random_unitary(rng, len(energies))
        return Hamiltonian.from_matrix((v * np.asarray(energies, dtype=float)) @ dagger(v))

    for d_s, d_b in [(2, 2), (2, 3), (3, 3), (2, 6), (3, 4), (4, 4), (3, 6), (4, 9)]:
        kinds = {
            # generic spectra: every off-diagonal bath level is missing
            "generic": (Hamiltonian.from_matrix(random_hermitian(rng, d_s)),
                        Hamiltonian.from_matrix(random_hermitian(rng, d_b))),
            # rotated ladders: a degenerate Bohr spectrum and degenerate total blocks
            "ladder": (rotated(np.arange(d_s)), rotated(np.arange(d_b))),
            # a non-degenerate Bohr system on a ladder bath: some levels found, some missing
            "mixed": (rotated(np.cumsum(rng.choice([1.0, 2.0, 5.0], size=d_s, replace=False))
                              if d_s <= 3 else np.array([0.0, 1.0, 3.0, 7.0])),
                      rotated(np.arange(d_b))),
        }
        for label, (h_sys, h_bath) in kinds.items():
            h_tot = total_hamiltonian(h_sys, h_bath)
            params = [float(rng.uniform(0, 2 * np.pi)) if len(idx) == 1
                      else random_unitary(rng, len(idx)) for _, idx in h_tot.energy_blocks()]
            yield f"{label} {d_s}x{d_b}", build_block_unitary(h_tot, params), h_bath


def test_mto_check_matches_the_dict_reference():
    rng = np.random.default_rng(4101)
    seen = {"bohr_degenerate": 0, "missing": 0, "found_offdiag": 0, "zero_weight": 0, "blocks": 0}
    for label, unitary, h_bath in _reference_channels():
        d_s, d_b = unitary.hamiltonian.parts[0].dim, h_bath.dim
        seen["bohr_degenerate"] += not unitary.hamiltonian.parts[0].bohr_nondegenerate()
        seen["blocks"] += any(len(idx) > 1 for _, idx in unitary.hamiltonian.energy_blocks())
        for beta in (0.0, 0.4, 1.5, math.inf):
            op = thermal_operation(unitary, gibbs_state(h_bath, beta))
            rho = random_density(rng, d_s)
            report = mto_check(op, rho)
            deviation, amplitude, phase = _reference_mto_check(op, rho)
            where = f"{label} beta={beta}"
            assert report.amplitude_residuals.shape == (d_s, d_s, d_b), where
            assert report.phase_residuals.shape == (d_s, d_s), where
            # a sum of d eigenvalue moduli, each accurate to eps * ||joint - product|| <= 2 eps
            assert abs(report.joint_product_deviation - deviation) <= d_s * d_b * EPS, where
            for key, want in amplitude.items():
                have = report.amplitude_residuals[key]
                if want is None:
                    assert np.isnan(have), (where, key)
                else:
                    assert abs(have - want) <= 1e-14 * max(1.0, want), (where, key)
            for i, j in np.ndindex(d_s, d_s):
                want = phase.get((i, j))
                have = report.phase_residuals[i, j]
                assert np.isnan(have) if want is None else abs(have - want) <= 1e-14, (where, i, j)
            ref_max = [max((x for x in d.values() if x is not None), default=0.0)
                       for d in (amplitude, phase)]
            assert report.is_markovian == (deviation <= thermal.STATE_TOL), where
            assert report.residuals_markovian() == all(m <= thermal.STATE_TOL for m in ref_max), where
            offdiag = [k for k in amplitude if k[0] != k[1]]
            seen["missing"] += sum(amplitude[k] is None for k in offdiag)
            seen["found_offdiag"] += sum(amplitude[k] is not None for k in offdiag)
            seen["zero_weight"] += int((op.bath.level_probabilities == 0).any())
    assert all(seen.values()), seen


# -- perturbation -----------------------------------------------------------------------

def test_perturbed_state_exact_zero_strength():
    coeffs = np.diag([0.1, 0.9]).astype(complex)
    pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.0)
    out = perturbed_state_exact(coeffs, H_QUBIT, pert)
    assert mat_equal(out.matrix, state_from_level_coeffs(H_QUBIT, coeffs).matrix, 1e-12)


def test_perturbed_state_exact_preserves_spectrum():
    coeffs = np.diag([0.1, 0.9]).astype(complex)
    pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.1)
    out = perturbed_state_exact(coeffs, H_QUBIT, pert)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out.matrix)), [0.1, 0.9], atol=1e-12)


def test_perturbed_state_exact_linear_distance_in_epsilon():
    coeffs = np.diag([0.1, 0.9]).astype(complex)
    h_prime = Hamiltonian.from_matrix(SIGMA_X)
    rho0 = state_from_level_coeffs(H_QUBIT, coeffs).matrix

    def dist(eps):
        out = perturbed_state_exact(coeffs, H_QUBIT, PerturbationSpec(h_prime, eps))
        return 0.5 * trace_norm(out.matrix - rho0)

    ratio = dist(1e-3) / dist(5e-4)
    assert 1.9 < ratio < 2.1  # O(eps) slope


def test_perturbed_state_exact_too_strong():
    # all-mixing perturbation of a qutrit scrambles the level correspondence
    h_sys = Hamiltonian.from_matrix(np.diag([0.0, 0.7, 1.9]).astype(complex))
    h_prime = Hamiltonian.from_matrix(
        np.array([[0, 1, 1], [1, 0.3, 1], [1, 1, 0.6]], dtype=complex))
    coeffs = np.diag([0.2, 0.3, 0.5]).astype(complex)
    perturbed_state_exact(coeffs, h_sys, PerturbationSpec(h_prime, 0.05))
    with pytest.raises(ValueError, match="perturbation too strong"):
        perturbed_state_exact(coeffs, h_sys, PerturbationSpec(h_prime, 30.0))


def test_perturbed_state_first_order_zero_strength():
    rng = np.random.default_rng(30)
    coeffs = random_density(rng, 2).matrix
    pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.0)
    out = perturbed_state_first_order(coeffs, H_QUBIT, pert)
    assert mat_equal(out, state_from_level_coeffs(H_QUBIT, coeffs).matrix, 1e-15)


def test_perturbed_state_first_order_is_second_order_accurate():
    coeffs = np.diag([0.1, 0.9]).astype(complex)
    h_prime = Hamiltonian.from_matrix(SIGMA_X)

    def residual(eps):
        pert = PerturbationSpec(h_prime, eps)
        exact = perturbed_state_exact(coeffs, H_QUBIT, pert).matrix
        first = perturbed_state_first_order(coeffs, H_QUBIT, pert)
        return trace_norm(exact - first)

    ratio = residual(1e-2) / residual(5e-3)
    assert 3.2 < ratio < 4.8  # halving eps shrinks the defect ~4x


def test_perturbed_state_first_order_unit_trace_hermitian():
    rng = np.random.default_rng(31)
    coeffs = random_density(rng, 2).matrix
    pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.05)
    out = perturbed_state_first_order(coeffs, H_QUBIT, pert)
    assert abs(np.trace(out) - 1) < 1e-14
    assert mat_equal(out, dagger(out), 1e-14)


def test_perturbed_state_first_order_commuting_perturbation_trivial():
    coeffs = np.diag([0.3, 0.7]).astype(complex)
    pert = PerturbationSpec(Hamiltonian.from_matrix(0.5 * SIGMA_Z), 0.1)
    out = perturbed_state_first_order(coeffs, H_QUBIT, pert)
    assert mat_equal(out, state_from_level_coeffs(H_QUBIT, coeffs).matrix, 1e-14)


def test_perturbed_state_first_order_rejects_degenerate():
    h = Hamiltonian.from_matrix(np.zeros((2, 2), dtype=complex))
    pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.1)
    with pytest.raises(ValueError, match="degenerate"):
        perturbed_state_first_order(np.diag([0.4, 0.6]), h, pert)


@pytest.mark.parametrize("eps", [1e-9, 0.1])
def test_perturbed_state_exact_rejects_degenerate(eps):
    # without the check, this H' has a degenerate-block overlap^2 above 1/2, so the
    # matching would succeed and turn the eigenvectors by a finite angle as eps -> 0
    h = Hamiltonian.from_matrix(np.diag([0.0, 0.0, 1.0]).astype(complex))
    h_prime = Hamiltonian.from_matrix(np.array([[1, 0.3, 0], [0.3, 0, 0], [0, 0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="degenerate spectrum"):
        perturbed_state_exact(np.diag([0.2, 0.3, 0.5]), h, PerturbationSpec(h_prime, eps))
