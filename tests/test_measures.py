import math

import numpy as np
import pytest

from athermal_markov import measures, thermal
from athermal_markov.experiments import (ExperimentConfig, builtin_distance, builtin_fig3,
                                         run_config, run_study)
from athermal_markov.linalg import (
    STATE_TOL,
    SUPPORT_CUTOFF,
    DensityMatrix,
    dagger,
    eigh,
    eigvalsh,
    entropy_of_spectrum,
    mat_equal,
    matrix_log2_on_support,
    partial_trace,
    partial_transpose,
    trace_norm,
    trace_out_first,
    trace_out_second,
    von_neumann_entropy,
)
from athermal_markov.measures import (
    MarkovianFamily,
    chi_lambda_bound,
    choi_state,
    discord,
    distance_measure,
    expansion_lemma_residual,
    log_negativities,
    log_negativity,
    maximally_entangled_input,
    mutual_information,
    mutual_informations,
    theta_lambda,
    x_lambda,
)
from athermal_markov.optimize import OptimizerConfig, constrained_phase_manifold
from athermal_markov.thermal import (
    Hamiltonian,
    PerturbationSpec,
    apply,
    build_block_unitary,
    gibbs_state,
    thermal_operation,
    total_hamiltonian,
)
from util import BELL_PHI_PLUS, SIGMA_X, SIGMA_Z, random_density, random_hermitian, random_unitary

H_QUBIT = Hamiltonian.from_matrix(SIGMA_Z)
H_BATH_STIFF = Hamiltonian.from_matrix(10 * SIGMA_Z)


def bell_state():
    return DensityMatrix(np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()), (2, 2))


def product_state(rng, d1, d2):
    a, b = random_density(rng, d1), random_density(rng, d2)
    return DensityMatrix(np.kron(a.matrix, b.matrix), (d1, d2))


def fig2_op(temperature=4.0):
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    psi_1 = np.zeros(4, dtype=complex)
    psi_2 = np.zeros(4, dtype=complex)
    psi_1[1], psi_1[2] = np.sqrt(2 / 3), np.sqrt(1 / 3)
    psi_2[1], psi_2[2] = np.sqrt(1 / 3), -np.sqrt(2 / 3)
    params = []
    for energy, idx in h_tot.energy_blocks():
        if len(idx) == 2:
            basis = h_tot.eigvecs[:, list(idx)]
            params.append((np.array([3e5, 4e5]), dagger(basis) @ np.column_stack([psi_1, psi_2])))
        else:
            params.append(1e5 if energy > 0 else 2e5)
    u = build_block_unitary(h_tot, params)
    return thermal_operation(u, gibbs_state(H_QUBIT, 1.0 / temperature))


def distance_example_op(beta=0.01):
    h_tot = total_hamiltonian(H_QUBIT, H_BATH_STIFF)
    grid = np.empty((2, 2))
    grid[1][1] = 1e4
    grid[0][0] = 2e4
    grid[1][0] = 3e4
    grid[0][1] = 4e4
    params = []
    for _, idx in h_tot.energy_blocks():
        i, r = h_tot.product_labels[idx[0]]
        params.append(float(grid[i][r]))
    u = build_block_unitary(h_tot, params)
    bath = gibbs_state(H_BATH_STIFF, beta)
    op = thermal_operation(u, bath)
    coeffs = tuple(1.0 if (i + r) % 2 == 0 else -1.0 for i, r in h_tot.product_labels)
    family = MarkovianFamily(h_tot, bath, constrained_phase_manifold(4, coeffs, 0.0))
    return op, family


# -- log negativity ---------------------------------------------------------------

def test_log_negativity_product_state_zero():
    rng = np.random.default_rng(40)
    assert abs(log_negativity(product_state(rng, 2, 3)).value) < 1e-12


def test_log_negativity_bell_one_ebit():
    assert abs(log_negativity(bell_state()).value - 1.0) < 1e-12


def test_log_negativity_zero_for_diagonal_unitary_evolution():
    rng = np.random.default_rng(41)
    for d2 in (2, 3):
        rho = random_density(rng, 2)
        tau = np.diag(rng.dirichlet(np.ones(d2))).astype(complex)
        u = np.diag(np.exp(-1j * rng.uniform(0, 2 * np.pi, size=2 * d2)))
        joint = u @ np.kron(rho.matrix, tau) @ dagger(u)
        joint = DensityMatrix(0.5 * (joint + dagger(joint)), (2, d2))
        assert log_negativity(joint).value <= 1e-9


# -- mutual information -----------------------------------------------------------

def test_mutual_information_product_zero():
    rng = np.random.default_rng(42)
    assert abs(mutual_information(product_state(rng, 2, 3)).value) < 1e-12


def test_mutual_information_bell_two_bits():
    assert abs(mutual_information(bell_state()).value - 2.0) < 1e-12


def test_mutual_information_local_unitary_invariance():
    rng = np.random.default_rng(43)
    rho = random_density(rng, 6, dims=(2, 3))
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
    rotated = DensityMatrix(u @ rho.matrix @ dagger(u), (2, 3))
    assert abs(mutual_information(rotated).value - mutual_information(rho).value) < 1e-10


def test_mutual_information_nonnegative_and_zero_iff_product():
    rng = np.random.default_rng(44)
    for _ in range(20):
        rho = random_density(rng, 6, dims=(2, 3))
        mi = mutual_information(rho).value
        assert mi >= -1e-12
        assert mi <= 2 * min(np.log2(2), np.log2(3)) + 1e-12
        marg = np.kron(
            np.asarray(trace_out_second(rho.matrix, 2, 3)),
            np.asarray(trace_out_first(rho.matrix, 2, 3)))
        product_gap = 0.5 * trace_norm(rho.matrix - marg)
        # Pinsker-type consistency: vanishing correlation forces product form
        if mi <= 1e-12:
            assert product_gap < 1e-5
        if product_gap < 1e-13:
            assert mi < 1e-10


# -- stacked kernels --------------------------------------------------------------

def random_op(rng, d1, d2, beta=1.0):
    """A thermal operation on random d1 x d2 Hamiltonians with one random phase per
    total level; ``beta = math.inf`` gives a pure bath."""
    while True:
        h_sys = Hamiltonian.from_matrix(random_hermitian(rng, d1))
        h_bath = Hamiltonian.from_matrix(random_hermitian(rng, d2))
        h_tot = total_hamiltonian(h_sys, h_bath)
        if (np.diff(h_sys.energies).min() > 0.1 and np.diff(h_bath.energies).min() > 1e-3
                and np.diff(h_tot.energies).min() > 1e-3):
            break
    u = build_block_unitary(h_tot, list(rng.uniform(0, 2 * np.pi, d1 * d2)))
    return thermal_operation(u, gibbs_state(h_bath, beta))


def reference_entropy(m):
    """The entropy form the stacked kernels replaced: the eigenvalues above the
    cutoff, selected before the logarithm."""
    w = np.linalg.eigvalsh(m)
    w = w[w > SUPPORT_CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def reference_log_negativity(rho):
    """log2 of the trace norm of the partial transpose, as a sum of singular values."""
    return float(np.log2(np.linalg.svd(partial_transpose(rho, 0), compute_uv=False).sum()))


def reference_mutual_information(rho):
    d1, d2 = rho.dims
    return (reference_entropy(trace_out_second(rho.matrix, d1, d2))
            + reference_entropy(trace_out_first(rho.matrix, d1, d2)) - reference_entropy(rho.matrix))


def joint_entropy_mutual_informations(joints):
    """:func:`mutual_informations` with each S(joint) from the joint's own spectrum."""
    return mutual_informations(joints, [entropy_of_spectrum(j.matrix) for j in joints])


def assert_kernels_match_references(joints):
    for kernel, single, reference in ((log_negativities, log_negativity, reference_log_negativity),
                                      (joint_entropy_mutual_informations, mutual_information,
                                       reference_mutual_information)):
        values = [mv.value for mv in kernel(joints)]
        assert max(abs(v - reference(j)) for v, j in zip(values, joints)) <= 1e-13
        # a batch of one, and the public one-state measure, are the same computation
        for joint, v in zip(joints, values):
            assert abs(kernel([joint])[0].value - v) <= 1e-13
            assert abs(single(joint).value - v) <= 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (2, 6), (4, 9)])
def test_stacked_kernels_match_the_reference_forms(d1, d2):
    rng = np.random.default_rng(90 + d2)
    mixed = apply(random_op(rng, d1, d2), [random_density(rng, d1) for _ in range(3)])
    kets = [v / np.linalg.norm(v) for v in rng.normal(size=(3, d1)) + 1j * rng.normal(size=(3, d1))]
    pure = apply(random_op(rng, d1, d2, beta=math.inf),
                 [DensityMatrix(np.outer(v, v.conj()), (d1,)) for v in kets])
    # pure inputs on a pure bath give rank-one joints: all but one eigenvalue is
    # rounding noise about zero, some of it negative, which log2 must never see
    noise = np.array([np.linalg.eigvalsh(j.matrix)[:-1] for j in pure])
    assert np.abs(noise).max() < 1e-14 and noise.min() < 0
    assert_kernels_match_references(mixed + pure)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_kernels_on_the_fig2_degenerate_block_joint():
    inputs = [thermal.state_from_level_coeffs(H_QUBIT, np.diag(p).astype(complex))
              for p in ([0.1, 0.9], [0.0, 1.0], [0.5, 0.5])]
    joints = apply(fig2_op(), inputs)
    assert log_negativities(joints)[0].value > 1e-3  # the entangled fig2 joint
    assert_kernels_match_references(joints)


def test_stacked_kernels_require_shared_two_factor_dims():
    rng = np.random.default_rng(98)
    with pytest.raises(ValueError, match="bad factorization"):
        mutual_informations([random_density(rng, 4)], [0.0])
    with pytest.raises(ValueError, match="share their dims"):
        log_negativities([random_density(rng, 4, dims=(2, 2)), DensityMatrix(np.eye(4) / 4, (4, 1))])



@pytest.mark.parametrize("joint_entropies", [0.5, [0.5], [0.5, 0.5, 0.5]])
def test_kernels_take_one_joint_entropy_per_state(joint_entropies):
    rng = np.random.default_rng(99)
    states = [random_density(rng, 6, dims=(2, 3)) for _ in range(2)]
    with pytest.raises(ValueError, match="one entry per state"):
        mutual_informations(states, joint_entropies)
    with pytest.raises(ValueError, match="one entry per state"):
        discord(states, joint_entropies)

# -- discord -----------------------------------------------------------------------

def kron_conditional_entropy(rho: DensityMatrix, theta: float, phi: float) -> float:
    """Reference sum_i p_i S(rho_B^i), sandwiching rho between kron(P_i, I)."""
    d2 = rho.dims[1]
    psi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    p1 = np.outer(psi, psi.conj())
    total = 0.0
    for p in (p1, np.eye(2) - p1):
        m = np.kron(p, np.eye(d2))
        sub = m @ rho.matrix @ m
        prob = float(np.trace(sub).real)
        if prob > 1e-12:
            cond = np.einsum("abad->bd", sub.reshape(2, d2, 2, d2)) / prob
            w = np.linalg.eigvalsh(cond)
            w = w[w > 1e-12]
            total += prob * float(-(w * np.log2(w)).sum())
    return total


def brute_force_conditional_entropy(rho: DensityMatrix, steps=60) -> float:
    """Independent dense-grid minimisation of sum_i p_i S(rho_B^i)."""
    return min(kron_conditional_entropy(rho, theta, phi)
               for theta in np.linspace(0, np.pi, steps)
               for phi in np.linspace(0, 2 * np.pi, steps, endpoint=False))


def joint_entropy_discord(states, cfg=None):
    """:func:`discord` with each S(AB) from the joint state's own spectrum."""
    return discord(states, [entropy_of_spectrum(rho.matrix) for rho in states], cfg)


def test_discord_product_state_zero():
    rng = np.random.default_rng(45)
    mv, = joint_entropy_discord([product_state(rng, 2, 3)],
                                OptimizerConfig(seeds=8, grid_resolution=10))
    value = mv.value
    assert abs(value) < 1e-9


def test_discord_classical_quantum_zero():
    rng = np.random.default_rng(46)
    blocks = [random_density(rng, 3).matrix for _ in range(2)]
    p = 0.3
    m = np.zeros((6, 6), dtype=complex)
    m[:3, :3] = p * blocks[0]
    m[3:, 3:] = (1 - p) * blocks[1]
    rho = DensityMatrix(m, (2, 3))
    value = joint_entropy_discord([rho], OptimizerConfig(seeds=8, grid_resolution=13))[0].value
    assert abs(value) < 1e-7


def test_discord_bell_one_bit_vs_brute_force():
    rho = bell_state()
    oracle_min = brute_force_conditional_entropy(rho)
    mv, = joint_entropy_discord([rho], OptimizerConfig(seeds=8, grid_resolution=10))
    assert oracle_min < 1e-6
    assert abs(mv.value - 1.0) < 1e-6
    assert mv.diagnostics["converged"]


def test_discord_matches_brute_force_on_random_state():
    rng = np.random.default_rng(47)
    rho = random_density(rng, 6, dims=(2, 3))
    mv, = joint_entropy_discord([rho], OptimizerConfig(seeds=16, grid_resolution=16))
    s_a = von_neumann_entropy(partial_trace(rho, 0))
    s_ab = von_neumann_entropy(rho)
    oracle = s_a - s_ab + brute_force_conditional_entropy(rho)
    assert mv.value <= oracle + 1e-9  # optimiser at least as good as the dense grid


def test_discord_not_above_mutual_information():
    rng = np.random.default_rng(48)
    for _ in range(5):
        rho = random_density(rng, 4, dims=(2, 2))
        d = joint_entropy_discord([rho], OptimizerConfig(seeds=8, grid_resolution=10))[0].value
        assert d <= mutual_information(rho).value + 1e-8
        assert d >= -1e-9


def test_discord_requires_qubit_measured_side():
    rng = np.random.default_rng(49)
    with pytest.raises(ValueError, match="unsupported measured dimension"):
        joint_entropy_discord([random_density(rng, 6, dims=(3, 2))])
    with pytest.raises(ValueError, match="share their dims"):
        joint_entropy_discord([random_density(rng, 6, dims=(2, 3)),
                               random_density(rng, 4, dims=(2, 2))])


@pytest.mark.parametrize("d2", [2, 3, 6])
def test_discord_of_many_states_matches_one_state_searches_bitwise(d2):
    rng = np.random.default_rng(70 + d2)
    cfg = OptimizerConfig(seeds=6, grid_resolution=7)
    # a product state gives a flat landscape, so its search ends early
    states = [random_density(rng, 2 * d2, dims=(2, d2)) for _ in range(3)] + [
        product_state(rng, 2, d2)]
    together = joint_entropy_discord(states, cfg)
    for rho, got in zip(states, together):
        alone, = joint_entropy_discord([rho], cfg)
        assert np.array_equal(np.float64(got.value).view(np.int64),
                              np.float64(alone.value).view(np.int64))
        assert got.diagnostics == alone.diagnostics


def conditional_entropy(rho: DensityMatrix, angles: np.ndarray) -> np.ndarray:
    """The stacked discord kernel on the rows of ``angles``, for one state."""
    blocks = measures._bloch_blocks(rho.matrix, rho.dims[1])
    return measures._measured_conditional_entropy(blocks, angles, np.zeros(len(angles), int))


@pytest.mark.parametrize("d2", [2, 3, 6])
def test_measured_conditional_entropy_matches_kron_reference(d2):
    rng = np.random.default_rng(50 + d2)
    for _ in range(10):
        rho = random_density(rng, 2 * d2, dims=(2, d2))
        angles = np.array([[rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)]])
        got = conditional_entropy(rho, angles)
        assert abs(got[0] - kron_conditional_entropy(rho, *angles[0])) < 1e-12


def test_measured_conditional_entropy_is_blind_to_the_measurement_order():
    # {psi, psi_perp} is one measurement, and psi_perp is (pi - theta, phi + pi)
    rng = np.random.default_rng(59)
    rho = random_density(rng, 6, dims=(2, 3))
    angles = np.column_stack([rng.uniform(0, np.pi, 50), rng.uniform(0, 2 * np.pi, 50)])
    flipped = np.column_stack([np.pi - angles[:, 0], angles[:, 1] + np.pi])
    gap = conditional_entropy(rho, angles) - conditional_entropy(rho, flipped)
    assert np.max(np.abs(gap)) < 1e-14


def pointwise_conditional_entropy(blocks, theta, phi, spectrum=eigvalsh) -> float:
    """The discord kernel one measurement at a time, in the same Bloch form, with
    each outcome's eigenvalues from ``spectrum``: the reference for the stacked
    one."""
    n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    tilt = n[0] * blocks[1] + n[1] * blocks[2] + n[2] * blocks[3]
    t = np.trace(blocks, axis1=-2, axis2=-1).real
    tilt_t = n[0] * t[1] + n[1] * t[2] + n[2] * t[3]
    total = 0.0
    for sub, prob in ((blocks[0] + tilt, t[0] + tilt_t), (blocks[0] - tilt, t[0] - tilt_t)):
        if prob > 1e-14:
            w = spectrum(sub) / prob
            w = w[w > measures.SUPPORT_CUTOFF]
            total += prob * float(-np.sum(w * np.log2(w)))
    return total


def kernel_case(d2):
    """Bloch blocks of a random state and of a state with its qubit in |0>, and
    40 measurement angles per state, ten of them at theta = 0 and ten at pi,
    where an outcome of the second state has probability <= 1e-14."""
    rng = np.random.default_rng(60 + d2)
    pure = np.kron(np.diag([1.0, 0.0]), random_density(rng, d2).matrix)
    blocks = measures._bloch_blocks(np.array([random_density(rng, 2 * d2).matrix, pure]), d2)
    angles = np.column_stack([rng.uniform(0, np.pi, 80), rng.uniform(0, 2 * np.pi, 80)])
    angles[:10, 0], angles[10:20, 0], angles[40:50, 0], angles[50:60, 0] = 0.0, np.pi, 0.0, np.pi
    return blocks, angles, np.repeat([0, 1], 40)


@pytest.mark.parametrize("d2", [2, 3, 6])
def test_measured_conditional_entropy_stack_matches_pointwise_bitwise(d2):
    blocks, angles, owner = kernel_case(d2)
    got = measures._measured_conditional_entropy(blocks, angles, owner)
    want = np.array([pointwise_conditional_entropy(blocks[o], *row)
                     for o, row in zip(owner, angles)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d2", [2, 3, 6])
def test_measured_conditional_entropy_matches_lapack_spectra(d2):
    blocks, angles, owner = kernel_case(d2)
    got = measures._measured_conditional_entropy(blocks, angles, owner)
    want = np.array([pointwise_conditional_entropy(blocks[o], *row, spectrum=np.linalg.eigvalsh)
                     for o, row in zip(owner, angles)])
    assert np.max(np.abs(got - want)) <= 1e-14
    if d2 != 3:  # LAPACK's own outcome spectra, so the kernel keeps its bits
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_fig3_discord_outcome_spectra_match_lapack(monkeypatch):
    # every outcome stack a built-in fig3 sweep's discord search diagonalises
    outcomes = []

    def recorded(h):
        outcomes.append(h)
        return eigvalsh(h)

    monkeypatch.setattr(measures, "eigvalsh", recorded)
    cfg = ExperimentConfig.from_dict({**builtin_fig3().to_dict(), "measures": ["discord"]})
    run_config(cfg)
    h = np.concatenate([o.reshape(-1, 3, 3) for o in outcomes])
    assert len(h) > 100_000
    assert np.max(np.abs(eigvalsh(h) - np.linalg.eigvalsh(h))) <= 2e-15


# -- Choi states -------------------------------------------------------------------

def test_choi_identity_map():
    # all-zero block phases make U the identity, so the channel is X -> X
    h_tot = total_hamiltonian(H_QUBIT, H_BATH_STIFF)
    u = build_block_unitary(h_tot, [0.0] * len(h_tot.energy_blocks()))
    op = thermal_operation(u, gibbs_state(H_BATH_STIFF, 0.3))
    chi = choi_state(op)
    assert mat_equal(chi.matrix, maximally_entangled_input(H_QUBIT), 1e-12)


def test_choi_depolarizing_map():
    # SWAP is block diagonal for matched qubits (it only exchanges the
    # degenerate |01>, |10> pair); against a beta = 0 bath it replaces every
    # input by I/2
    h_tot = total_hamiltonian(H_QUBIT, H_QUBIT)
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    params = []
    for _, idx in h_tot.energy_blocks():
        basis = h_tot.eigvecs[:, list(idx)]
        params.append(0.0 if len(idx) == 1 else dagger(basis) @ swap @ basis)
    op = thermal_operation(build_block_unitary(h_tot, params), gibbs_state(H_QUBIT, 0.0))
    chi = choi_state(op)
    assert mat_equal(chi.matrix, np.eye(4) / 4, 1e-12)


def _random_block_op(rng, d_sys, d_bath):
    """Thermal operation on rotated equally spaced spectra, so the total
    Hamiltonian has degenerate blocks that get random intra-block unitaries."""
    def rotated_ladder(d):
        v = random_unitary(rng, d)
        return Hamiltonian.from_matrix(v @ np.diag(np.arange(d, dtype=float)) @ dagger(v))

    h_sys, h_bath = rotated_ladder(d_sys), rotated_ladder(d_bath)
    h_tot = total_hamiltonian(h_sys, h_bath)
    params = [float(rng.uniform(0, 2 * np.pi)) if len(idx) == 1 else random_unitary(rng, len(idx))
              for _, idx in h_tot.energy_blocks()]
    return h_sys, thermal_operation(build_block_unitary(h_tot, params), gibbs_state(h_bath, 0.7))


def _choi_by_blocks(op, h_sys):
    """Reference Choi state: the channel, written out with kron, applied to
    each (ancilla a, ancilla b) block of the entangled input in turn."""
    u, tau = op.unitary.matrix, op.bath.state.matrix

    def channel(x):
        joint = u @ np.kron(x, tau) @ dagger(u)
        return np.einsum("abcb->ac", joint.reshape(op.d_sys, op.d_bath, op.d_sys, op.d_bath))

    d = h_sys.dim
    r = maximally_entangled_input(h_sys).reshape(d, d, d, d)
    out = np.zeros_like(r)
    for a in range(d):
        for b in range(d):
            out[:, a, :, b] = channel(np.ascontiguousarray(r[:, a, :, b]))
    out = out.reshape(d * d, d * d)
    return 0.5 * (out + dagger(out))


@pytest.mark.parametrize("d_sys, d_bath", [(2, 3), (3, 2)])
def test_choi_matches_block_by_block_reference(d_sys, d_bath):
    rng = np.random.default_rng(4100 + d_sys)
    h_sys, op = _random_block_op(rng, d_sys, d_bath)
    assert any(len(idx) > 1 for _, idx in op.unitary.hamiltonian.energy_blocks())
    chi = choi_state(op)
    assert mat_equal(chi.matrix, _choi_by_blocks(op, h_sys), 1e-12)

    stack = rng.normal(size=(4, 5, d_sys, d_sys)) + 1j * rng.normal(size=(4, 5, d_sys, d_sys))
    mapped = thermal.apply_to_operator(op, stack)
    assert mapped.shape == stack.shape
    for idx in np.ndindex(4, 5):
        assert mat_equal(mapped[idx], thermal.apply_to_operator(op, stack[idx]), 1e-12)


def _sampled_max_one_by_one(op, op_m, samples=16):
    """Reference sampled-state check: the same states, applied one at a time."""
    rng = np.random.default_rng(71530)
    d = op.d_sys
    worst = 0.0
    for k in range(samples):
        if k % 2 == 0:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
        else:
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a @ dagger(a)
            rho /= np.trace(rho).real
        diff = thermal.apply_to_operator(op, rho) - thermal.apply_to_operator(op_m, rho)
        worst = max(worst, trace_norm(diff))
    return worst


def test_sampled_state_check_matches_one_by_one_reference(monkeypatch):
    cfg = builtin_distance()
    op = cfg.setup.operation(cfg.beta_for(cfg.sweep_values[0]))
    family = cfg.setup.family(op)
    rng = np.random.default_rng(7153)
    pairs = [(op, family.operation(rng.uniform(0, 2 * np.pi, family.manifold.free_dim))),
             (_random_block_op(rng, 3, 3)[1], _random_block_op(rng, 3, 3)[1])]
    original = thermal.apply_to_operator
    for op, op_m in pairs:
        expected = _sampled_max_one_by_one(op, op_m)
        calls = []
        monkeypatch.setattr(thermal, "apply_to_operator",
                            lambda *args: calls.append(1) or original(*args))
        check = measures._sampled_state_check(op, op_m, expected)
        monkeypatch.setattr(thermal, "apply_to_operator", original)
        assert check == {"sampled_max": expected, "sampled_exceeds_choi": False}
        assert len(calls) == 2  # one stacked application per operation


def test_choi_of_thermal_operation_is_valid():
    chi = choi_state(fig2_op())  # construction validates
    assert chi.dims == (2, 2)


# -- distance measure ---------------------------------------------------------------

@pytest.mark.parametrize("d_sys, d_bath", [(2, 2), (2, 3), (3, 3), (4, 9)])
def test_family_member_matches_block_unitary_reference(d_sys, d_bath):
    rng = np.random.default_rng(5100 + 10 * d_sys + d_bath)
    h_sys = Hamiltonian.from_matrix(random_hermitian(rng, d_sys))
    h_bath = Hamiltonian.from_matrix(random_hermitian(rng, d_bath))
    h_tot = total_hamiltonian(h_sys, h_bath)
    bath = gibbs_state(h_bath, 0.8)
    n = h_tot.dim
    family = MarkovianFamily(h_tot, bath, constrained_phase_manifold(n, rng.choice([-1.0, 1.0], n), 0.4))
    x = rng.normal(size=(3, d_sys, d_sys)) + 1j * rng.normal(size=(3, d_sys, d_sys))
    for _ in range(3):
        free = rng.uniform(0, 2 * np.pi, family.manifold.free_dim)
        phases = [float(p) for p in family.manifold.embed(free)]
        reference = thermal_operation(build_block_unitary(h_tot, phases), bath)
        got = thermal.apply_to_operator(family.operation(free), x)
        assert mat_equal(got, thermal.apply_to_operator(reference, x), 1e-12)


def test_family_rejects_non_unitary_eigenvectors():
    _, family = distance_example_op()
    h = family.h_total
    skewed = Hamiltonian(h.matrix, h.energies, 1.01 * h.eigvecs, h.parts, h.product_labels)
    with pytest.raises(ValueError, match="not unitary"):
        MarkovianFamily(skewed, family.bath, family.manifold)


def test_family_rejects_a_bath_of_another_hamiltonian():
    _, family = distance_example_op()
    with pytest.raises(ValueError, match="bath"):
        MarkovianFamily(family.h_total, gibbs_state(Hamiltonian.from_matrix(SIGMA_X), 0.01),
                        family.manifold)


def test_distance_zero_for_markovian_member():
    op, family = distance_example_op()
    member = family.operation(np.array([0.3, 1.2, 2.6]))
    mv = distance_measure(member, family, OptimizerConfig(seeds=10, grid_resolution=6))
    assert mv.value <= 1e-6


def _random_family(rng, d_sys, d_bath, relation):
    """A family on random spectra.  A kept relation pairs a +1 and a -1 in each
    bath level, so every bath level's coefficients sum to zero; an absorbed one
    has random +-1 coefficients."""
    h_sys = Hamiltonian.from_matrix(random_hermitian(rng, d_sys))
    h_bath = Hamiltonian.from_matrix(random_hermitian(rng, d_bath))
    h_tot = total_hamiltonian(h_sys, h_bath)
    if relation == "kept":
        grid = np.zeros((d_sys, d_bath))
        for r in range(d_bath):
            i, j = rng.choice(d_sys, 2, replace=False)
            grid[i, r], grid[j, r] = 1.0, -1.0
        coeffs = [grid[i, r] for i, r in h_tot.product_labels]
    else:
        coeffs = rng.choice([-1.0, 1.0], h_tot.dim)
    manifold = constrained_phase_manifold(h_tot.dim, coeffs, 0.9)
    return h_sys, MarkovianFamily(h_tot, gibbs_state(h_bath, 0.6), manifold)


@pytest.mark.parametrize("relation", ["kept", "absorbed"])
@pytest.mark.parametrize("d_sys, d_bath", [(2, 2), (2, 3), (3, 3), (4, 9)])
def test_quotient_multipliers_match_member_operations(d_sys, d_bath, relation):
    rng = np.random.default_rng(5300 + 10 * d_sys + d_bath)
    h_sys, family = _random_family(rng, d_sys, d_bath, relation)
    differences = (d_sys - 1) * d_bath
    assert family.quotient.free_dim == (differences - 1 if relation == "kept" else differences)
    v = h_sys.eigvecs
    x = rng.normal(size=(3, d_sys, d_sys)) + 1j * rng.normal(size=(3, d_sys, d_sys))
    q = rng.uniform(0, 2 * np.pi, (4, family.quotient.free_dim))
    for free, m in zip(family.lift(q), family.multipliers(q)):
        assert family.manifold.residual(family.manifold.embed(free)) <= 1e-12
        schur = v @ ((dagger(v) @ x @ v) * m) @ dagger(v)
        assert mat_equal(schur, thermal.apply_to_operator(family.operation(free), x), 1e-12)


@pytest.mark.parametrize("d_sys, d_bath", [(2, 3), (3, 3)])
def test_shifting_a_bath_level_leaves_the_member_image_unchanged(d_sys, d_bath):
    rng = np.random.default_rng(5400 + 10 * d_sys + d_bath)
    h_tot = total_hamiltonian(Hamiltonian.from_matrix(random_hermitian(rng, d_sys)),
                              Hamiltonian.from_matrix(random_hermitian(rng, d_bath)))
    bath = gibbs_state(h_tot.parts[1], 0.6)
    x = rng.normal(size=(3, d_sys, d_sys)) + 1j * rng.normal(size=(3, d_sys, d_sys))
    phases = rng.uniform(0, 2 * np.pi, h_tot.dim)
    image = thermal.apply_to_operator(
        thermal_operation(build_block_unitary(h_tot, list(phases)), bath), x)
    bath_levels = np.array([r for _, r in h_tot.product_labels])
    for r in range(d_bath):
        shifted = phases + rng.uniform(0, 2 * np.pi) * (bath_levels == r)
        op = thermal_operation(build_block_unitary(h_tot, list(shifted)), bath)
        assert mat_equal(thermal.apply_to_operator(op, x), image, 1e-14)


def _member_value(op, family, x, free):
    """||(channel - member) (x) id applied to x||_1 through apply_to_operator
    and the svd trace norm."""
    d = op.d_sys
    blocks = x.reshape(d, d, d, d).transpose(1, 3, 0, 2)
    images = [thermal.apply_to_operator(o, blocks).transpose(2, 0, 3, 1).reshape(d * d, d * d)
              for o in (op, family.operation(free))]
    return trace_norm(images[0] - images[1])


@pytest.mark.parametrize("relation", ["builtin", "absorbed"])
def test_family_search_is_no_worse_than_random_members(relation):
    rng = np.random.default_rng(5500)
    if relation == "builtin":
        op, family = distance_example_op()
        h_sys = op.system_hamiltonian
    else:
        h_sys, family = _random_family(rng, 2, 3, relation)
        u = build_block_unitary(family.h_total, list(rng.uniform(0, 2 * np.pi, 6)))
        op = thermal_operation(u, family.bath)
    cfg = OptimizerConfig(seeds=10, grid_resolution=6)
    members = rng.uniform(0, 2 * np.pi, (200, family.manifold.free_dim))
    for sign, x in ((1.0, maximally_entangled_input(h_sys)),
                    (-1.0, measures.response_direction(h_sys, Hamiltonian.from_matrix(SIGMA_X)))):
        (result,) = measures._family_search([measures._FamilyProblem(op, family, x, sign)],
                                            cfg)
        best = _member_value(op, family, x, family.lift(result.best_point))
        assert abs(sign * result.best_value - best) <= 1e-12
        assert sign * best <= min(sign * _member_value(op, family, x, f) for f in members) + 1e-12


def test_family_search_evolves_only_outside_its_objective(monkeypatch):
    op, family = distance_example_op()
    calls = []
    original = thermal.evolve
    monkeypatch.setattr(thermal, "evolve", lambda *args: calls.append(1) or original(*args))
    mv = distance_measure(op, family, OptimizerConfig(seeds=10, grid_resolution=6))
    assert mv.diagnostics["evaluations"] > 100
    assert len(calls) == 3  # the target image, and the sampled check's two applications


def test_family_searches_differ_only_in_their_bath_weights():
    op, family = distance_example_op()
    warm = MarkovianFamily(family.h_total, gibbs_state(H_BATH_STIFF, 0.2), family.manifold)
    q = np.random.default_rng(82).uniform(0, 2 * np.pi, (6, family.quotient.free_dim))
    rows = family.multipliers(q, [warm._weights] * 3 + [family._weights] * 3)
    assert np.array_equal(rows[:3], warm.multipliers(q[:3]))
    assert np.array_equal(rows[3:], family.multipliers(q[3:]))
    _, apart = distance_example_op()  # the same physics on another total Hamiltonian
    with pytest.raises(ValueError, match="share the total Hamiltonian"):
        measures.distance_sweep([(op, family), (op, apart)], Hamiltonian.from_matrix(SIGMA_X),
                                [0.1], OptimizerConfig(seeds=1, grid_resolution=1))


def test_one_point_quotient_evaluates_its_member():
    # a 2x1 pair whose relation fixes the one phase difference: D = 2 sin(1/2)
    data = {"name": "q0", "system": {"name": "pauli_z"}, "bath": {"matrix": {"real": [[0.0]]}},
            "perturbation": {"name": "pauli_x"}, "epsilons": [0.05], "sweep": {"values": [1.0]},
            "unitary_blocks": [{"phases": [0.0]}, {"phases": [1.0]}],
            "measures": ["choi_distance"], "initial_population_a": 0.9,
            "mto_relation": {"coefficients": [1, -1]}}
    cfg = ExperimentConfig.from_dict(data)
    op = cfg.setup.operation(1.0)
    assert cfg.setup.family(op).quotient.free_dim == 0
    result = run_study("distance", cfg)
    (row,) = result.rows_for("choi_distance")
    assert abs(row.unperturbed - 0.9588510772084058) <= 1e-12
    assert row.status == "ok" and not result.deviations
    assert result.metadata["optimizer_diagnostics"]["choi_distance/eps=0.05/x=1.0"][
        "unperturbed"]["evaluations"] == 1


def test_distance_zero_for_identity_channel():
    op, family = distance_example_op()
    h_tot = family.h_total
    identity = thermal_operation(build_block_unitary(h_tot, [0.0] * 4), family.bath)
    mv = distance_measure(identity, family, OptimizerConfig(seeds=10, grid_resolution=6))
    assert mv.value <= 1e-6


def test_distance_matches_analytic_value():
    # For phase-diagonal channels only the coherence components differ, so
    # D = 1 - |sum_R P_R exp(-i (phi_{top,R} - phi_{bottom,R}))|.
    op, family = distance_example_op()
    p = np.exp(-0.01 * np.array([-10.0, 10.0]))
    p /= p.sum()
    z0 = np.exp(-1j * (2e4 - 4e4))
    z1 = np.exp(-1j * (3e4 - 1e4))
    expected = 1.0 - abs(p[0] * z0 + p[1] * z1)
    mv = distance_measure(op, family, OptimizerConfig(seeds=20, grid_resolution=8))
    assert abs(mv.value - expected) < 1e-9
    assert family.manifold.residual(mv.diagnostics["phases"]) <= 1e-12
    assert mv.diagnostics["converged"]
    assert not mv.diagnostics["sampled_exceeds_choi"]


def _perturbed_choi_input(h_sys, pert):
    """The entangled input (W (x) 1)|Phi> on the exact perturbed system
    eigenvectors, as a projector."""
    phi = thermal.perturbed_eigvectors(h_sys, pert).reshape(-1)
    phi = phi / np.linalg.norm(phi)
    return np.outer(phi, phi.conj())


def test_perturbed_choi_input_leaves_the_distance_objective_unchanged(monkeypatch):
    # The perturbed input (W (x) 1)|Phi> equals (1 (x) W')|Phi> for a unitary W'
    # on the ancilla, which channel (x) id and the trace norm do not see: the
    # built-in study's D(eps) equals D(0) by construction, so a sweep reports D(0).
    cfg = builtin_distance()
    setup = cfg.setup
    op = setup.operation(cfg.beta_for(cfg.sweep_values[0]))
    family = setup.family(op)
    h_sys = op.system_hamiltonian
    inputs = [maximally_entangled_input(h_sys)]
    for eps in cfg.epsilons:
        perturbed = _perturbed_choi_input(h_sys, PerturbationSpec(setup.h_prime, eps))
        assert np.max(np.abs(perturbed - inputs[0])) > 1e-3
        inputs.append(perturbed)
    objectives, search = [], measures.minimize

    def capture(f, *args, **kwargs):
        objectives.append(f)
        return search(f, *args, **kwargs)

    monkeypatch.setattr(measures, "minimize", capture)
    measures._family_search([measures._FamilyProblem(op, family, x, 1.0) for x in inputs],
                            OptimizerConfig(seeds=1, grid_resolution=1))
    (objective,) = objectives
    q = np.random.default_rng(81).uniform(0, 2 * np.pi, (20, family.quotient.free_dim))
    unperturbed = objective(q, np.zeros(len(q), dtype=int))
    for k in range(1, len(inputs)):
        assert np.max(np.abs(objective(q, np.full(len(q), k)) - unperturbed)) < 1e-12


def test_distance_nonnegative_and_diagnosed():
    op, family = distance_example_op()
    mv = distance_measure(op, family, OptimizerConfig(seeds=10, grid_resolution=6))
    assert mv.value >= 0
    assert len(mv.diagnostics["phases"]) == 4


# -- response quantities ---------------------------------------------------------------

def test_theta_lambda_epsilon_independent():
    op = fig2_op()
    coeffs = np.diag([0.1, 0.9]).astype(complex)
    h_prime = Hamiltonian.from_matrix(SIGMA_X)
    t1 = theta_lambda(op, coeffs, PerturbationSpec(h_prime, 0.1))
    t2 = theta_lambda(op, coeffs, PerturbationSpec(h_prime, 0.2))
    assert t1 == t2


def test_theta_lambda_first_order_law():
    # |I(eps) - I - eps*theta| shrinks ~4x when eps halves, with
    # first-order perturbed inputs
    op = fig2_op()
    coeffs = np.diag([0.1, 0.9]).astype(complex)
    h_prime = Hamiltonian.from_matrix(SIGMA_X)
    theta = theta_lambda(op, coeffs, PerturbationSpec(h_prime, 1.0))
    base = mutual_information(apply(op, thermal.state_from_level_coeffs(H_QUBIT, coeffs))).value

    def residual(eps):
        state = DensityMatrix(
            thermal.perturbed_state_first_order(coeffs, H_QUBIT, PerturbationSpec(h_prime, eps)),
            (2,))
        val = mutual_information(apply(op, state)).value
        return abs(val - base - eps * theta)

    r1, r2, r3 = residual(1e-2), residual(5e-3), residual(2.5e-3)
    assert 3.2 < r1 / r2 < 4.8
    assert 3.2 < r2 / r3 < 4.8


def test_theta_lambda_commuting_perturbation_zero():
    op = fig2_op()
    coeffs = np.diag([0.3, 0.7]).astype(complex)
    theta = theta_lambda(op, coeffs, PerturbationSpec(Hamiltonian.from_matrix(2 * SIGMA_Z), 0.1))
    assert abs(theta) < 1e-12


def test_theta_lambda_support_flags():
    # pure input: evolved states are rank deficient but the response stays
    # on their support, so the value is finite and flagged
    op = fig2_op()
    coeffs = np.diag([0.0, 1.0]).astype(complex)
    h_prime = Hamiltonian.from_matrix(SIGMA_X)
    theta, diags = theta_lambda(op, coeffs, PerturbationSpec(h_prime, 0.1), with_diagnostics=True)
    assert np.isfinite(theta)
    assert diags.get("joint_support_deficient")


def reference_theta_lambda(op, coeffs, pert):
    """theta_lambda in its log-matrix form, Tr[x (I + log2 A)] with log2 A formed,
    with its support flags."""
    h_sys = op.system_hamiltonian
    joint = apply(op, thermal.state_from_level_coeffs(h_sys, coeffs)).matrix
    joint_dir = thermal.evolve(op.unitary.matrix, op.bath.state.matrix,
                               thermal.first_order_correction(coeffs, h_sys, pert.h_prime))
    d1, d2 = op.d_sys, op.d_bath
    flags, bars = {}, []
    for name, x, state in (
            ("system", trace_out_second(joint_dir, d1, d2), trace_out_second(joint, d1, d2)),
            ("bath", trace_out_first(joint_dir, d1, d2), trace_out_first(joint, d1, d2)),
            ("joint", joint_dir, joint)):
        w, v = eigh(state)
        vs = v[:, w > SUPPORT_CUTOFF]
        if np.max(np.abs(np.eye(len(w)) - vs @ dagger(vs))) >= STATE_TOL:
            flags[f"{name}_support_deficient"] = True
        bars.append(float(np.trace(x @ (np.eye(len(w)) + matrix_log2_on_support(state))).real))
    a_bar, b_bar, c_bar = bars
    return c_bar - a_bar - b_bar, flags


def support_flags(diags):
    return {key: value for key, value in diags.items() if key.endswith("_support_deficient")}


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (2, 6), (4, 4), (3, 6), (6, 6),
                                    (4, 9)])
def test_theta_lambda_matches_the_log_matrix_form(d1, d2):
    rng = np.random.default_rng(100 + 10 * d1 + d2)
    op = random_op(rng, d1, d2)
    pert = PerturbationSpec(Hamiltonian.from_matrix(random_hermitian(rng, d1)), 0.1)
    coeffs = random_density(rng, d1).matrix  # full rank
    theta, diags = theta_lambda(op, coeffs, pert, with_diagnostics=True)
    want, flags = reference_theta_lambda(op, coeffs, pert)
    assert abs(theta - want) <= 1e-12
    assert support_flags(diags) == flags == {}
    # the joint bar vanishes: rho-tilde = [G, rho] is traceless with a zero
    # diagonal in rho's eigenbasis
    assert abs(diags["c_bar"]) <= 1e-13


def test_theta_lambda_matches_the_log_matrix_form_on_a_pure_input():
    rng = np.random.default_rng(110)
    pure = np.diag([0.0, 1.0]).astype(complex)
    for op in (fig2_op(), random_op(rng, 2, 3)):
        pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.1)
        theta, diags = theta_lambda(op, pure, pert, with_diagnostics=True)
        want, flags = reference_theta_lambda(op, pure, pert)
        assert abs(theta - want) <= 1e-12
        assert support_flags(diags) == flags and flags["joint_support_deficient"]


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (4, 9)])
def test_theta_lambda_on_a_pure_bath_is_joint_deficient_from_the_bath_alone(d1, d2):
    rng = np.random.default_rng(120 + 10 * d1 + d2)
    op = random_op(rng, d1, d2, beta=math.inf)
    pert = PerturbationSpec(Hamiltonian.from_matrix(random_hermitian(rng, d1)), 0.1)
    coeffs = random_density(rng, d1).matrix
    assert np.linalg.eigvalsh(coeffs)[0] > 1e-3  # full rank: only the bath weights vanish
    theta, diags = theta_lambda(op, coeffs, pert, with_diagnostics=True)
    want, flags = reference_theta_lambda(op, coeffs, pert)
    assert abs(theta - want) <= 1e-12
    assert support_flags(diags) == flags and flags["joint_support_deficient"]
    finite = thermal_operation(op.unitary, gibbs_state(op.bath.hamiltonian, 1.0))
    _, diags = theta_lambda(finite, coeffs, pert, with_diagnostics=True)
    assert "joint_support_deficient" not in diags


def test_check_support_error_branch():
    flags = {}
    state = np.diag([1.0, 0.0]).astype(complex)
    leaky = np.array([[0.0, 0.1], [0.1, 0.2]], dtype=complex)
    with pytest.raises(ValueError, match="theta undefined"):
        measures._check_support("t", leaky, state, flags)


def test_x_lambda_commuting_perturbation_zero():
    op = fig2_op()
    coeffs = np.diag([0.3, 0.7]).astype(complex)
    sigma = DensityMatrix(np.eye(4) / 4, (4,))
    x = x_lambda(op, coeffs, sigma, PerturbationSpec(Hamiltonian.from_matrix(SIGMA_Z), 0.1))
    assert abs(x) < 1e-12


def test_x_lambda_sigma_equal_to_evolved_state():
    # log ratio vanishes on the support, leaving Tr[B] = 0 for traceless B
    op = fig2_op()
    coeffs = np.diag([0.1, 0.9]).astype(complex)
    rho = thermal.state_from_level_coeffs(H_QUBIT, coeffs)
    joint = apply(op, rho)
    sigma = DensityMatrix(joint.matrix, (4,))
    x = x_lambda(op, coeffs, sigma, PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.1))
    assert abs(x) < 1e-10


def test_x_lambda_rejects_singular_sigma():
    op = fig2_op()
    coeffs = np.diag([0.1, 0.9]).astype(complex)
    sigma = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]), (4,))
    with pytest.raises(ValueError, match="full rank"):
        x_lambda(op, coeffs, sigma, PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.1))


def test_expansion_lemma_second_order():
    rng = np.random.default_rng(51)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        base = random_density(rng, d).matrix
        a = 0.8 * base + 0.2 * np.eye(d) / d  # full rank
        b = random_hermitian(rng, d)
        b -= np.trace(b) / d * np.eye(d)
        b /= max(1.0, trace_norm(b))
        r1 = expansion_lemma_residual(a, b, 1e-2)
        r2 = expansion_lemma_residual(a, b, 5e-3)
        assert r1 < 1e-2
        assert 3.2 < r1 / r2 < 4.8


def test_chi_lambda_bound_zero_cases():
    op, family = distance_example_op()
    cfg = OptimizerConfig(seeds=4, grid_resolution=4)
    (commuting,), _ = chi_lambda_bound(op, family, Hamiltonian.from_matrix(SIGMA_Z), [0.1], cfg)
    assert commuting < 1e-12
    (zero_eps,), _ = chi_lambda_bound(op, family, Hamiltonian.from_matrix(SIGMA_X), [0.0], cfg)
    assert zero_eps == 0.0


def test_chi_lambda_bound_dominates_measured_response():
    op, family = distance_example_op()
    cfg = OptimizerConfig(seeds=12, grid_resolution=6)
    pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.05)
    # the bound faces a search on the perturbed Choi input itself
    h_sys = op.system_hamiltonian
    d0, d1 = measures._family_search(
        [measures._FamilyProblem(op, family, x, 1.0)
         for x in (maximally_entangled_input(h_sys), _perturbed_choi_input(h_sys, pert))], cfg)
    (bound,), _ = chi_lambda_bound(op, family, pert.h_prime, [pert.epsilon], cfg)
    assert d1.best_value - d0.best_value <= bound + 1e-6

