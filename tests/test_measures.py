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
    entropy_of_spectrum,
    mat_equal,
    partial_trace,
    partial_transpose,
    trace_norm,
    trace_out_first,
    trace_out_second,
)
from athermal_markov.measures import (
    MarkovianFamily,
    discord,
    log_negativities,
    log_negativity,
    mutual_information,
    mutual_informations,
    theta_lambda,
)
from athermal_markov.optimize import (ROW_BUDGET, OptimizerConfig, _grid_points,
                                      constrained_phase_manifold, minimize)
from athermal_markov.thermal import (
    Hamiltonian,
    PerturbationSpec,
    apply,
    build_block_unitary,
    gibbs_state,
    thermal_operation,
    total_hamiltonian,
)
from util import (BELL_PHI_PLUS, SIGMA_X, SIGMA_Z, channel_image, choi_state, computational_matrix,
                  distance_value, expansion_lemma_residual, family_member, matrix_log2_on_support,
                  maximally_entangled_input, member_distances, packed_eigvalsh,
                  qubit_choi_closed_form, random_density, random_hermitian, random_unitary,
                  relation_residual, response_direction)

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
    family = MarkovianFamily(h_tot, constrained_phase_manifold(4, coeffs, 0.0))
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
    # pure inputs on a pure bath give rank-one joints.  The measures do not see a
    # local unitary, which spreads each over the whole product basis: then all but
    # one eigenvalue is rounding noise about zero, some of it negative, which log2
    # must never see
    local = np.kron(random_unitary(rng, d1), random_unitary(rng, d2))
    pure = [DensityMatrix._derived(local @ j.matrix @ dagger(local), j.dims) for j in pure]
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


def _eigvalsh_sizes(monkeypatch) -> list[int]:
    """From now on, the matrix size of every ``np.linalg.eigvalsh`` call."""
    sizes = []

    def traced(a, *args, _eigvalsh=np.linalg.eigvalsh, **kwargs):
        sizes.append(np.shape(a)[-1])
        return _eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", traced)
    return sizes


def log_negativities_by_eigvalsh(monkeypatch, states) -> list[float]:
    """:func:`log_negativities` with the Cholesky certificate failing every stack."""
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("no certificate")
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", fail)
        return [mv.value for mv in log_negativities(states)]


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 6), (4, 9)])
def test_positive_definite_partial_transposes_need_no_eigendecomposition(monkeypatch, d1, d2):
    # a channel_sweep-like stack: the partial transposes are positive definite, so
    # each trace norm is a trace, and one Cholesky factorisation certifies it
    rng = np.random.default_rng(130 + 10 * d1 + d2)
    inputs = [DensityMatrix(0.5 * random_density(rng, d1).matrix + 0.5 * np.eye(d1) / d1, (d1,))
              for _ in range(3)]
    states = apply(random_op(rng, d1, d2, beta=0.2), inputs)
    assert all(np.linalg.eigvalsh(partial_transpose(j, 0)).min() > 0 for j in states)
    want = log_negativities_by_eigvalsh(monkeypatch, states)
    sizes = _eigvalsh_sizes(monkeypatch)
    values = [mv.value for mv in log_negativities(states)]
    assert sizes == []
    assert max(abs(v - w) for v, w in zip(values, want)) <= 1e-15


def test_a_stack_that_is_not_positive_definite_falls_back_whole(monkeypatch):
    rng = np.random.default_rng(140)
    states = [product_state(rng, 2, 2), bell_state(), product_state(rng, 2, 2)]
    want = log_negativities_by_eigvalsh(monkeypatch, states)
    sizes = _eigvalsh_sizes(monkeypatch)
    assert [mv.value for mv in log_negativities(states)] == want
    assert sizes == [4]  # one eigvalsh of the whole stack


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
        discord(states, joint_entropies, OptimizerConfig())

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


def joint_entropy_discord(states, cfg):
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
    s_a = entropy_of_spectrum(partial_trace(rho, 0).matrix)
    s_ab = entropy_of_spectrum(rho.matrix)
    oracle = s_a - s_ab + brute_force_conditional_entropy(rho)
    assert mv.value <= oracle + 1e-9  # optimiser at least as good as the dense grid


def test_discord_not_above_mutual_information():
    rng = np.random.default_rng(48)
    for _ in range(5):
        rho = random_density(rng, 4, dims=(2, 2))
        d = joint_entropy_discord([rho], OptimizerConfig(seeds=8, grid_resolution=10))[0].value
        assert d <= mutual_information(rho).value + 1e-8
        assert d >= -1e-9


def test_discord_is_at_most_the_mutual_information(fig3_result):
    # D_A = I(A:B) - J(B|A), and J(B|A) >= 0 for every measurement on A, so the
    # bound holds at whatever measurement a search ends on
    mutual = {(r.control, r.epsilon): r for r in fig3_result.rows_for("mutual_information")}
    rows = fig3_result.rows_for("discord")
    assert len(rows) == len(mutual) == 20
    for r in rows:
        i = mutual[(r.control, r.epsilon)]
        assert r.unperturbed <= i.unperturbed + 1e-12
        assert r.perturbed <= i.perturbed + 1e-12
    rng = np.random.default_rng(480)
    for d2 in (2, 3, 6):
        states = ([random_density(rng, 2 * d2, dims=(2, d2)) for _ in range(4)]
                  + [pure_state(rng, 2 * d2, (2, d2)) for _ in range(4)])
        values = joint_entropy_discord(states, OptimizerConfig(seeds=4, grid_resolution=6))
        for rho, d in zip(states, values):
            assert d.value <= mutual_information(rho).value + 1e-12


def _covariant_state(rng, d2, coherence=0.0) -> np.ndarray:
    """A random full-rank joint state of a qubit and a d2-level bath that
    commutes with H_A (x) I + I (x) H_B, for H_A = diag(0, 1) and H_B of levels
    0, 1, ..., d2 - 1 in a random basis.  The spectra are resonant, so its
    total-energy blocks are dense.  ``coherence`` couples |0>|0> and |1>|0>,
    whose total energies differ, and breaks the covariance."""
    energies = np.add.outer([0.0, 1.0], np.arange(d2)).ravel()
    rho = np.zeros((2 * d2, 2 * d2), dtype=complex)
    for energy in np.unique(energies):
        block = np.ix_(*[np.flatnonzero(energies == energy)] * 2)
        rho[block] = random_density(rng, len(block[0])).matrix
    rho = 0.5 * rho / np.trace(rho).real + 0.5 * np.eye(2 * d2) / (2 * d2)
    rho[0, d2] = rho[d2, 0] = coherence
    w = np.kron(np.eye(2), random_unitary(rng, d2))
    return w @ rho @ dagger(w)


def _phi_spread(rho: np.ndarray) -> float:
    """The largest spread over phi, at fixed theta, of the discord objective's
    measured conditional entropy of ``rho``, on a 9 x 16 grid of angles."""
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi, 9), np.linspace(0.0, 2 * np.pi, 16),
                             indexing="ij")
    angles = np.column_stack([theta.ravel(), phi.ravel()])
    values = kernel(measures._bloch_blocks(rho[None], rho.shape[0] // 2), angles,
                    np.zeros(len(angles), int))
    return float(np.ptp(values.reshape(theta.shape), axis=1).max())


def test_discord_objective_is_phase_covariant():
    # a state that commutes with H_A (x) I + I (x) H_B, H_A diagonal, is invariant
    # under e^{-i H_A t} (x) e^{-i H_B t}, which turns phi by t and acts on the
    # bath by a local unitary: its measured conditional entropy has no phi dependence
    rng = np.random.default_rng(860)
    spreads = [_phi_spread(_covariant_state(rng, 2 + k % 3)) for k in range(20)]
    assert max(spreads) <= 1e-14
    # a coherence between two total energies breaks it
    assert _phi_spread(_covariant_state(rng, 3, coherence=0.01)) > 1e-3


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (2, 6), (4, 4), (3, 6), (6, 6),
                                    (4, 9)])
def test_nondegenerate_thermal_operation_fixes_incoherent_inputs(d1, d2):
    # with a non-degenerate total spectrum the energy-preserving unitary is
    # diagonal in the product energy basis, so it leaves rho_S (x) gamma_B
    # unchanged for rho_S diagonal in the system energy basis; apply's joint
    # state is in that basis, where gamma_B is diag(q).  On dense random
    # Hamiltonians the rounding of their eigenvectors leaves up to 1.5e-15 per
    # entry and 1.2e-14 on the measures (150 systems of each size)
    rng = np.random.default_rng(870 + 10 * d1 + d2)
    op = random_op(rng, d1, d2)
    coeffs = np.diag(rng.dirichlet(np.ones(d1))).astype(complex)
    rho = thermal.state_from_level_coeffs(op.system_hamiltonian, coeffs)
    joint = apply(op, rho)
    want = np.kron(coeffs, np.diag(op.bath.level_probabilities))
    assert np.max(np.abs(joint.matrix - want)) <= 4e-15
    values = [log_negativity(joint), mutual_information(joint)]
    if d1 == 2:
        values += joint_entropy_discord([joint], OptimizerConfig(seeds=2, grid_resolution=4))
    assert max(abs(mv.value) for mv in values) <= 4e-14


def test_discord_requires_qubit_measured_side():
    rng = np.random.default_rng(49)
    with pytest.raises(ValueError, match="unsupported measured dimension"):
        joint_entropy_discord([random_density(rng, 6, dims=(3, 2))], OptimizerConfig())
    with pytest.raises(ValueError, match="share their dims"):
        joint_entropy_discord([random_density(rng, 6, dims=(2, 3)),
                               random_density(rng, 4, dims=(2, 2))], OptimizerConfig())


def planted_partition(rng, d2: int) -> tuple[tuple[int, ...], ...]:
    """A random partition of d2 shuffled levels into blocks of 1 to 4 levels,
    in the order of :func:`measures._level_blocks`."""
    levels, ends = rng.permutation(d2), [0]
    while ends[-1] < d2:
        ends.append(min(ends[-1] + int(rng.integers(1, 5)), d2))
    return tuple(sorted(tuple(sorted(levels[a:b].tolist())) for a, b in zip(ends, ends[1:])))


def planted_state(rng, partition) -> DensityMatrix:
    """A random qubit-and-d2 joint state that is block diagonal on the levels of
    ``partition``: a weighted random state on the qubit and each block's levels."""
    d2 = sum(map(len, partition))
    m = np.zeros((2, d2, 2, d2), dtype=complex)
    for levels in partition:
        s = len(levels)
        block = rng.uniform(0.2, 1.0) * random_density(rng, 2 * s).matrix
        m[np.ix_([0, 1], levels, [0, 1], levels)] = block.reshape(2, s, 2, s)
    m = m.reshape(2 * d2, 2 * d2)
    return DensityMatrix(m / np.trace(m).real, (2, d2))


def pure_state(rng, d: int, dims) -> DensityMatrix:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return DensityMatrix(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, dims)


@pytest.mark.parametrize("d2", [1, 2, 3, 6])
def test_discord_of_many_states_matches_one_state_searches_bitwise(d2, monkeypatch):
    rng = np.random.default_rng(70 + d2)
    cfg = OptimizerConfig(seeds=6, grid_resolution=7)
    # a product state gives a flat landscape, so its search ends early; the
    # planted, diagonal and pure states add groups of other level blocks
    diagonal = DensityMatrix(np.diag(rng.dirichlet(np.ones(2 * d2))).astype(complex), (2, d2))
    states = [random_density(rng, 2 * d2, dims=(2, d2)) for _ in range(3)] + [
        product_state(rng, 2, d2), planted_state(rng, planted_partition(rng, d2)), diagonal,
        pure_state(rng, 2 * d2, (2, d2))]
    partitions = set(measures._level_blocks(
        measures._bloch_blocks(np.array([rho.matrix for rho in states]), d2)))
    searches = minimize_calls(monkeypatch)
    together = joint_entropy_discord(states, cfg)
    assert len(searches) == len(partitions)  # one lockstep search per partition
    for rho, got in zip(states, together):
        alone, = joint_entropy_discord([rho], cfg)
        assert np.array_equal(np.float64(got.value).view(np.int64),
                              np.float64(alone.value).view(np.int64))
        assert got.diagnostics == alone.diagnostics


def minimize_calls(monkeypatch) -> list[int]:
    """From now on, the ``problems`` of every ``minimize`` call that :mod:`measures` makes."""
    calls, search = [], measures.minimize

    def counted(*args, problems=1, **kwargs):
        calls.append(problems)
        return search(*args, problems=problems, **kwargs)
    monkeypatch.setattr(measures, "minimize", counted)
    return calls


def kernel(blocks: np.ndarray, angles: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The stacked discord kernel on the rows of ``angles``, of the states whose
    :func:`measures._bloch_blocks` are ``blocks[owner]``: as :func:`measures.discord`
    does, one kernel call per :func:`measures._level_blocks` partition of those states."""
    members, values = {}, np.empty(len(angles))
    for k, partition in enumerate(measures._level_blocks(blocks)):
        members.setdefault(partition, []).append(k)
    for partition, ks in members.items():
        rows = np.flatnonzero(np.isin(owner, ks))
        if len(rows):
            values[rows] = measures._measured_conditional_entropy(
                *measures._pack_bloch_blocks(blocks[ks], partition), angles[rows],
                np.searchsorted(ks, owner[rows]))
    return values


def conditional_entropy(rho: DensityMatrix, angles: np.ndarray) -> np.ndarray:
    """The stacked discord kernel on the rows of ``angles``, for one state."""
    return kernel(measures._bloch_blocks(rho.matrix, rho.dims[1]), angles,
                  np.zeros(len(angles), int))


@pytest.mark.parametrize("d2", [1, 2, 3, 6])
def test_measured_conditional_entropy_matches_kron_reference(d2, monkeypatch):
    rng = np.random.default_rng(50 + d2)
    for _ in range(10):
        rho = random_density(rng, 2 * d2, dims=(2, d2))
        angles = np.array([[rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)]])
        got = conditional_entropy(rho, angles)
        assert abs(got[0] - kron_conditional_entropy(rho, *angles[0])) < 1e-12

    # edge rows: a product rho_A (x) I/d2, whose outcomes are diagonal, so its
    # level blocks are single levels; a pure state, whose outcomes are
    # rank-deficient; and a stack mixing both with ordinary rows
    product = DensityMatrix(np.kron(random_density(rng, 2).matrix, np.eye(d2) / d2), (2, d2))
    pure = pure_state(rng, 2 * d2, (2, d2))
    states = [product, pure, random_density(rng, 2 * d2, dims=(2, d2))]
    angles = np.column_stack([rng.uniform(0, np.pi, 36), rng.uniform(0, 2 * np.pi, 36)])
    owner = np.arange(36) % 3
    want = np.array([kron_conditional_entropy(states[o], *row) for o, row in zip(owner, angles)])
    lapack = []  # the matrices of each np.linalg.eigvalsh call
    lapack_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda h: lapack.append(h.size // d2 ** 2) or lapack_eigvalsh(h))
    for k, rho in enumerate(states[:2]):
        mine = owner == k
        got = conditional_entropy(rho, angles[mine])
        assert np.max(np.abs(got - want[mine])) < 1e-12
    got = kernel(measures._bloch_blocks(np.array([rho.matrix for rho in states]), d2), angles,
                 owner)
    assert np.max(np.abs(got - want)) < 1e-12
    # the product rows need no LAPACK call, and every dense outcome above 1x1
    # goes to LAPACK, in one call per kernel call: 12 pure rows alone, then
    # the pure and random rows
    assert lapack == ([] if d2 == 1 else [2 * 12, 2 * 24])


@pytest.mark.parametrize("d2", [3, 4, 6])
def test_planted_level_blocks_are_found_and_diagonalised_exactly(d2):
    rng = np.random.default_rng(80 + d2)
    for _ in range(10):
        partition = planted_partition(rng, d2)
        rho = planted_state(rng, partition)
        assert measures._level_blocks(measures._bloch_blocks(rho.matrix, d2)) == [partition]
        angles = np.column_stack([rng.uniform(0, np.pi, 8), rng.uniform(0, 2 * np.pi, 8)])
        want = [kron_conditional_entropy(rho, *row) for row in angles]
        assert np.max(np.abs(conditional_entropy(rho, angles) - want)) < 1e-12


def measurement_key(theta, phi):
    """The Bloch vector of the measurement at (theta, phi), up to its sign, rounded:
    equal for psi and psi-perp."""
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    lead = n[np.abs(n) > 1e-9][0]
    return tuple(np.round(np.sign(lead) * n, 9) + 0.0)


def test_distinct_measurements_hold_every_measurement_once():
    rng = np.random.default_rng(58)
    rho = random_density(rng, 6, dims=(2, 3))
    for r in range(1, 31):
        grid = _grid_points([(0.0, np.pi), (0.0, 2 * np.pi)], [False, True], r)
        kept = measures.distinct_measurements(r)
        keys = [measurement_key(*point) for point in grid]
        twin = {keys[k]: k for k in kept}
        assert len(twin) == len(kept) == len(set(keys)), r
        values = conditional_entropy(rho, grid)
        dropped = np.setdiff1d(np.arange(len(grid)), kept)
        gaps = [abs(values[k] - values[twin[keys[k]]]) for k in dropped]
        assert max(gaps, default=0.0) <= 1e-14, r
    assert len(measures.distinct_measurements(24)) == 265


def test_measured_conditional_entropy_is_blind_to_the_measurement_order():
    # {psi, psi_perp} is one measurement, and psi_perp is (pi - theta, phi + pi)
    rng = np.random.default_rng(59)
    rho = random_density(rng, 6, dims=(2, 3))
    angles = np.column_stack([rng.uniform(0, np.pi, 50), rng.uniform(0, 2 * np.pi, 50)])
    flipped = np.column_stack([np.pi - angles[:, 0], angles[:, 1] + np.pi])
    gap = conditional_entropy(rho, angles) - conditional_entropy(rho, flipped)
    assert np.max(np.abs(gap)) < 1e-14


def pointwise_conditional_entropy(blocks, theta, phi, spectrum=packed_eigvalsh) -> float:
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


@pytest.mark.parametrize("d2", [1, 2, 3, 6])
def test_measured_conditional_entropy_stack_matches_pointwise_bitwise(d2):
    blocks, angles, owner = kernel_case(d2)
    got = kernel(blocks, angles, owner)
    want = np.array([pointwise_conditional_entropy(blocks[o], *row)
                     for o, row in zip(owner, angles)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d2", [1, 2, 3, 6])
def test_measured_conditional_entropy_matches_lapack_spectra(d2):
    blocks, angles, owner = kernel_case(d2)
    got = kernel(blocks, angles, owner)
    want = np.array([pointwise_conditional_entropy(blocks[o], *row, spectrum=np.linalg.eigvalsh)
                     for o, row in zip(owner, angles)])
    assert np.max(np.abs(got - want)) <= 1e-14
    # LAPACK's own outcome spectra, so the kernel keeps its bits
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def builtin_fig3_discord():
    return ExperimentConfig.from_dict({**builtin_fig3().to_dict(), "measures": ["discord"]})


# The kernel rows and objective calls of the built-in fig3 discord search.  Both
# repeat exactly for one numpy build and CPU, so a change to either is a change
# to the search (or to the floating-point bits of its objective).
FIG3_DISCORD_ROWS, FIG3_DISCORD_CALLS = 46_828, 84


def test_fig3_discord_states_split_into_level_blocks_without_lapack(monkeypatch):
    # what the fig3 search's speed rests on: its total spectrum is non-degenerate,
    # so in the product eigenbasis each state couples no two bath levels, and
    # every outcome is three 1x1 blocks, its own diagonal
    partitions, lapack = [], []
    level_blocks, kernel_of, lapack_eigvalsh = (measures._level_blocks,
                                                measures._measured_conditional_entropy,
                                                np.linalg.eigvalsh)

    def found(blocks):
        partitions.extend(level_blocks(blocks))
        return partitions[len(partitions) - len(blocks):]

    def counted_kernel(*args):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", lambda h: lapack.append(h.shape) or lapack_eigvalsh(h))
            return kernel_of(*args)

    monkeypatch.setattr(measures, "_level_blocks", found)
    monkeypatch.setattr(measures, "_measured_conditional_entropy", counted_kernel)
    run_config(builtin_fig3_discord())
    assert partitions == [((0,), (1,), (2,))] * 40
    assert lapack == []


def test_fig3_discord_outcome_spectra_match_lapack(monkeypatch):
    # every outcome a built-in fig3 sweep's discord search diagonalises, two per
    # kernel row: its level blocks' spectra against LAPACK's of the whole 3x3
    # outcome, rebuilt from its state's Bloch blocks
    blocks, rows, spectra = [], [], []
    bloch_of, kernel_of, spectra_of = (measures._bloch_blocks, measures._measured_conditional_entropy,
                                       measures.eigvalsh_packed)

    def recorded_blocks(rho, d2):
        blocks.append(bloch_of(rho, d2))
        return blocks[-1]

    def recorded_kernel(triangles, columns, angles, owner):
        rows.append((angles, owner))
        spectra.append([])
        return kernel_of(triangles, columns, angles, owner)

    def recorded_spectra(p):
        spectra[-1].append(spectra_of(p))
        return spectra[-1][-1]

    monkeypatch.setattr(measures, "_bloch_blocks", recorded_blocks)
    monkeypatch.setattr(measures, "_measured_conditional_entropy", recorded_kernel)
    monkeypatch.setattr(measures, "eigvalsh_packed", recorded_spectra)
    run_config(builtin_fig3_discord())
    got = np.sort(np.concatenate([np.concatenate(call) for call in spectra], axis=-1), axis=0)
    angles, owner = (np.concatenate(part) for part in zip(*rows))
    b = blocks[0][owner]
    theta, phi = angles[:, 0], angles[:, 1]
    n = np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    tilt = np.einsum("rk,rkij->rij", n, b[:, 1:])
    want = np.linalg.eigvalsh(np.stack([b[:, 0] + tilt, b[:, 0] - tilt], axis=1))
    assert len(blocks) == 1 and len(angles) == FIG3_DISCORD_ROWS
    assert np.max(np.abs(got.transpose(2, 1, 0) - want)) <= 2e-15


def test_fig3_discord_search_cost_is_pinned(monkeypatch):
    kernel_of, calls = measures._measured_conditional_entropy, []

    def counted(triangles, columns, angles, owner):
        calls.append(len(angles))
        return kernel_of(triangles, columns, angles, owner)

    monkeypatch.setattr(measures, "_measured_conditional_entropy", counted)
    searches = minimize_calls(monkeypatch)
    run_config(builtin_fig3_discord())
    # its 40 states share one partition, so the sweep is one search
    assert searches == [40]
    assert (sum(calls), len(calls)) == (FIG3_DISCORD_ROWS, FIG3_DISCORD_CALLS)
    assert max(calls) <= ROW_BUDGET


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
    u, tau = computational_matrix(op.unitary), op.bath.state.matrix

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
    mapped = channel_image(op, stack)
    assert mapped.shape == stack.shape
    for idx in np.ndindex(4, 5):
        assert mat_equal(mapped[idx], channel_image(op, stack[idx]), 1e-12)


def _sampled_max_one_by_one(op, member, samples=16):
    """Reference sampled-state check: the same states, each applied on its own
    through the full system+bath evolution of the operation and the member."""
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
        worst = max(worst, trace_norm(channel_image(op, rho) - channel_image(member, rho)))
    return worst


def test_sampled_state_check_matches_one_by_one_reference():
    # the built-in operation, and a random-phase 3x3 one, against a random member of its family
    cfg = builtin_distance()
    rng = np.random.default_rng(7153)
    _, bath, qutrits = _random_family(rng, 3, 3, "absorbed")
    phases = list(rng.uniform(0, 2 * np.pi, qutrits.h_total.dim))
    cases = [(cfg.setup.operation(cfg.beta_for(cfg.sweep_values[0])), cfg.setup.family),
             (thermal_operation(build_block_unitary(qutrits.h_total, phases), bath), qutrits)]
    for op, family in cases:
        q = rng.uniform(0, 2 * np.pi, family.quotient.free_dim)
        p = op.bath.level_probabilities
        diff = op.unitary.amplitude_table.phase_products @ p - family.multipliers(q, p)
        expected = _sampled_max_one_by_one(op, family_member(family, family.lift(q), op.bath))
        check = measures._sampled_state_check(op.system_hamiltonian.eigvecs, diff, expected)
        assert abs(check["sampled_max"] - expected) <= 1e-12
        assert not check["sampled_exceeds_choi"]


def test_sampled_state_check_flags_a_state_beyond_the_choi_distance():
    # a qutrit whose best member loses to some sampled state by more than the check's 1e-6
    data = builtin_distance().to_dict()
    data.update(system={"matrix": {"real": [[0.0, 0.0, 0.0], [0.0, 1.3, 0.0], [0.0, 0.0, 3.1]]}},
                perturbation={"name": "gell_mann_1"},
                unitary_blocks=[{"phases": [float(k * k)]} for k in range(6)],
                mto_relation={"coefficients": [1, -1, 0, 0, 0, 0]})
    cfg = ExperimentConfig.from_dict(data)
    setup = cfg.setup
    op = setup.operation(cfg.beta_for(cfg.sweep_values[0]))
    ((mv, _),) = measures.distance_sweep([op], setup.family, setup.h_prime, cfg.optimizer)
    assert mv.diagnostics["sampled_exceeds_choi"]
    assert mv.diagnostics["sampled_max"] > mv.value + 0.05
    phases = mv.diagnostics["phases"]
    assert relation_residual(setup.family.manifold, phases) <= 1e-12
    free = np.delete(phases, setup.family.manifold.eliminated)
    member = family_member(setup.family, free, op.bath)
    assert abs(mv.diagnostics["sampled_max"] - _sampled_max_one_by_one(op, member)) <= 1e-12


def test_choi_of_thermal_operation_is_valid():
    chi = choi_state(fig2_op())  # public construction validates
    assert chi.dims == (2, 2)


# -- distance measure ---------------------------------------------------------------

@pytest.mark.parametrize("d_sys, d_bath", [(2, 2), (2, 3), (3, 3), (4, 9)])
def test_family_member_matches_block_unitary_reference(d_sys, d_bath):
    # a member's channel is the Schur multiplier M[i, j] = sum_r p_r e^{-i (alpha_ir - alpha_jr)}
    rng = np.random.default_rng(5100 + 10 * d_sys + d_bath)
    h_sys = Hamiltonian.from_matrix(random_hermitian(rng, d_sys))
    h_bath = Hamiltonian.from_matrix(random_hermitian(rng, d_bath))
    h_tot = total_hamiltonian(h_sys, h_bath)
    bath = gibbs_state(h_bath, 0.8)
    n = h_tot.dim
    family = MarkovianFamily(h_tot, constrained_phase_manifold(n, rng.choice([-1.0, 1.0], n), 0.4))
    x = rng.normal(size=(3, d_sys, d_sys)) + 1j * rng.normal(size=(3, d_sys, d_sys))
    v = h_sys.eigvecs
    labels = np.array(h_tot.product_labels)
    for _ in range(3):
        free = rng.uniform(0, 2 * np.pi, family.manifold.free_dim)
        alpha = np.empty((d_sys, d_bath))
        alpha[labels[:, 0], labels[:, 1]] = family.manifold.embed(free)
        e = np.exp(-1j * alpha)
        m = (e * bath.level_probabilities) @ dagger(e)
        schur = v @ ((dagger(v) @ x @ v) * m) @ dagger(v)
        assert mat_equal(channel_image(family_member(family, free, bath), x), schur, 1e-12)


def test_family_rejects_a_bath_of_another_hamiltonian():
    # no operation of the family's unitary can carry another bath, so the search never sees one
    op, _ = distance_example_op()
    with pytest.raises(ValueError, match="bath Hamiltonian differs"):
        thermal_operation(op.unitary, gibbs_state(Hamiltonian.from_matrix(SIGMA_X), 0.01))


def assert_qubit_search_at_closed_form(op, family, h_prime, distance, chi_max):
    """The searched D and max ||chi||_1 within 2 f_tol of the closed form, and
    never on the wrong side of it (D below, the max above) by more than 1e-12;
    the max relative to its value, whose scale is ||H'|| / gap."""
    want_distance, want_chi = qubit_choi_closed_form(op, family, h_prime)
    assert -1e-12 <= distance - want_distance <= 2e-8
    assert -2e-8 <= chi_max / want_chi - 1.0 <= 1e-12


def test_qubit_family_search_matches_the_closed_form(distance_result):
    # the built-in study, whose relation (1, -1, -1, 1) has offset 0
    cfg = builtin_distance()
    setup = cfg.setup
    (distance,) = {r.unperturbed for r in distance_result.rows_for("choi_distance")}
    bounds = distance_result.rows_for("choi_distance_bound")
    for r in bounds:
        assert_qubit_search_at_closed_form(setup.operation(cfg.beta_for(r.control)), setup.family,
                                           setup.h_prime, distance, r.perturbed * 2 / r.epsilon)
    # random qubit-qubit channels, each relation kind with a random offset in [0, 2pi): the
    # circle (s (-1)^(i + r) on product level (i, r)) and the whole torus (a bath level whose
    # coefficients do not sum to zero); measured gaps up to 4.3e-10 and 7.5e-9 on D, and
    # 1.1e-9 relative on the max
    rng = np.random.default_rng(2024)
    for kind in ("circle", "torus") * 10:
        op = random_op(rng, 2, 2, beta=rng.uniform(0.1, 3.0))
        h_tot = op.unitary.hamiltonian
        labels = np.array(h_tot.product_labels)
        coefficients = rng.choice([-1.0, 1.0]) * (-1.0) ** labels.sum(axis=1)
        while kind == "torus" and not np.bincount(labels[:, 1], weights=coefficients).any():
            coefficients = rng.choice([-1.0, 1.0], 4)
        family = MarkovianFamily(h_tot, constrained_phase_manifold(4, coefficients,
                                                                   rng.uniform(0, 2 * np.pi)))
        h_prime = Hamiltonian.from_matrix(random_hermitian(rng, 2))
        (distance, chi), = measures.distance_sweep([op], family, h_prime,
                                                   OptimizerConfig(grid_resolution=8))
        assert_qubit_search_at_closed_form(op, family, h_prime, distance.value, chi.value)


def test_distance_zero_for_markovian_member():
    op, family = distance_example_op()
    member = family_member(family, np.array([0.3, 1.2, 2.6]), op.bath)
    mv = distance_value(member, family, OptimizerConfig(seeds=10, grid_resolution=6))
    assert mv.value <= 1e-6


def _random_family(rng, d_sys, d_bath, relation):
    """A family on random spectra, with a bath state of its bath.  A kept
    relation pairs a +1 and a -1 in each bath level, so every bath level's
    coefficients sum to zero; an absorbed one has random +-1 coefficients."""
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
    return h_sys, gibbs_state(h_bath, 0.6), MarkovianFamily(h_tot, manifold)


@pytest.mark.parametrize("relation", ["kept", "absorbed"])
@pytest.mark.parametrize("d_sys, d_bath", [(2, 2), (2, 3), (3, 3), (4, 9)])
def test_quotient_multipliers_match_member_operations(d_sys, d_bath, relation):
    rng = np.random.default_rng(5300 + 10 * d_sys + d_bath)
    h_sys, bath, family = _random_family(rng, d_sys, d_bath, relation)
    differences = (d_sys - 1) * d_bath
    assert family.quotient.free_dim == (differences - 1 if relation == "kept" else differences)
    v = h_sys.eigvecs
    x = rng.normal(size=(3, d_sys, d_sys)) + 1j * rng.normal(size=(3, d_sys, d_sys))
    q = rng.uniform(0, 2 * np.pi, (4, family.quotient.free_dim))
    for free, m in zip(family.lift(q), family.multipliers(q, bath.level_probabilities)):
        assert relation_residual(family.manifold, family.manifold.embed(free)) <= 1e-12
        schur = v @ ((dagger(v) @ x @ v) * m) @ dagger(v)
        assert mat_equal(schur, channel_image(family_member(family, free, bath), x), 1e-12)


@pytest.mark.parametrize("d_sys, d_bath", [(2, 3), (3, 3)])
def test_shifting_a_bath_level_leaves_the_member_image_unchanged(d_sys, d_bath):
    rng = np.random.default_rng(5400 + 10 * d_sys + d_bath)
    h_tot = total_hamiltonian(Hamiltonian.from_matrix(random_hermitian(rng, d_sys)),
                              Hamiltonian.from_matrix(random_hermitian(rng, d_bath)))
    bath = gibbs_state(h_tot.parts[1], 0.6)
    x = rng.normal(size=(3, d_sys, d_sys)) + 1j * rng.normal(size=(3, d_sys, d_sys))
    phases = rng.uniform(0, 2 * np.pi, h_tot.dim)
    image = channel_image(thermal_operation(build_block_unitary(h_tot, list(phases)), bath), x)
    bath_levels = np.array([r for _, r in h_tot.product_labels])
    for r in range(d_bath):
        shifted = phases + rng.uniform(0, 2 * np.pi) * (bath_levels == r)
        op = thermal_operation(build_block_unitary(h_tot, list(shifted)), bath)
        assert mat_equal(channel_image(op, x), image, 1e-14)


def _member_value(op, family, x, free):
    """||(channel - member) (x) id applied to x||_1 through the full evolution
    and the svd trace norm."""
    d = op.d_sys
    blocks = x.reshape(d, d, d, d).transpose(1, 3, 0, 2)
    images = [channel_image(o, blocks).transpose(2, 0, 3, 1).reshape(d * d, d * d)
              for o in (op, family_member(family, free, op.bath))]
    return trace_norm(images[0] - images[1])


@pytest.mark.parametrize("relation", ["builtin", "absorbed"])
def test_family_search_is_no_worse_than_random_members(relation):
    rng = np.random.default_rng(5500)
    if relation == "builtin":
        op, family = distance_example_op()
        h_sys = op.system_hamiltonian
    else:
        h_sys, bath, family = _random_family(rng, 2, 3, relation)
        u = build_block_unitary(family.h_total, list(rng.uniform(0, 2 * np.pi, 6)))
        op = thermal_operation(u, bath)
    cfg = OptimizerConfig(seeds=10, grid_resolution=6)
    members = rng.uniform(0, 2 * np.pi, (200, family.manifold.free_dim))
    h_prime = Hamiltonian.from_matrix(SIGMA_X)
    _, results = measures._family_search(family, [op], h_prime, cfg)
    for sign, x, result in zip((1.0, -1.0), (maximally_entangled_input(h_sys),
                                             response_direction(h_sys, h_prime)), results):
        best = _member_value(op, family, x, family.lift(result.best_point))
        assert abs(sign * result.best_value - best) <= 1e-12
        assert sign * best <= min(sign * _member_value(op, family, x, f) for f in members) + 1e-12


def test_family_search_evolves_only_outside_its_objective(monkeypatch):
    op, family = distance_example_op()
    calls = []
    for name in ("evolve", "thermal_operation"):
        original = getattr(thermal, name)
        monkeypatch.setattr(thermal, name, lambda *args, _f=original, _name=name:
                            calls.append(_name) or _f(*args))
    check = thermal.EnergyBlockUnitary.__post_init__
    monkeypatch.setattr(thermal.EnergyBlockUnitary, "__post_init__",
                        lambda u: calls.append("EnergyBlockUnitary") or check(u))
    mv = distance_value(op, family, OptimizerConfig(seeds=10, grid_resolution=6))
    assert mv.diagnostics["evaluations"] > 100
    # the search and the sampled check read each channel's and member's multiplier
    assert calls == []


def test_family_searches_differ_only_in_their_bath_weights():
    op, family = distance_example_op()
    warm, cold = gibbs_state(H_BATH_STIFF, 0.2).level_probabilities, op.bath.level_probabilities
    q = np.random.default_rng(82).uniform(0, 2 * np.pi, (6, family.quotient.free_dim))
    rows = family.multipliers(q, [warm] * 3 + [cold] * 3)
    assert np.array_equal(rows[:3], family.multipliers(q[:3], warm))
    assert np.array_equal(rows[3:], family.multipliers(q[3:], cold))


def test_one_point_quotient_evaluates_its_member():
    # a 2x1 pair whose relation fixes the one phase difference: D = 2 sin(1/2)
    data = {"name": "q0", "system": {"name": "pauli_z"}, "bath": {"matrix": {"real": [[0.0]]}},
            "perturbation": {"name": "pauli_x"}, "epsilons": [0.05], "sweep": {"values": [1.0]},
            "unitary_blocks": [{"phases": [0.0]}, {"phases": [1.0]}],
            "measures": ["choi_distance"], "initial_population_a": 0.9,
            "mto_relation": {"coefficients": [1, -1]}}
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.setup.family.quotient.free_dim == 0
    result = run_study("distance", cfg)
    (row,) = result.rows_for("choi_distance")
    assert abs(row.unperturbed - 0.9588510772084058) <= 1e-12
    assert row.status == "ok" and not result.deviations
    assert result.metadata["optimizer_diagnostics"]["choi_distance/eps=0.05/x=1.0"][
        "unperturbed"]["evaluations"] == 1


def test_distance_zero_for_identity_channel():
    op, family = distance_example_op()
    h_tot = family.h_total
    identity = thermal_operation(build_block_unitary(h_tot, [0.0] * 4), op.bath)
    mv = distance_value(identity, family, OptimizerConfig(seeds=10, grid_resolution=6))
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
    mv = distance_value(op, family, OptimizerConfig(seeds=20, grid_resolution=8))
    assert abs(mv.value - expected) < 1e-9
    assert relation_residual(family.manifold, mv.diagnostics["phases"]) <= 1e-12
    assert mv.diagnostics["converged"]
    assert not mv.diagnostics["sampled_exceeds_choi"]


def _perturbed_choi_input(h_sys, pert):
    """The entangled input (W (x) 1)|Phi> on the exact perturbed system
    eigenvectors, as a projector."""
    phi = thermal.perturbed_eigvectors(h_sys, pert).reshape(-1)
    phi = phi / np.linalg.norm(phi)
    return np.outer(phi, phi.conj())


def family_objective(monkeypatch, family, ops, h_prime):
    """The objective of :func:`measures._family_search` over ``ops``, captured from its search."""
    objectives, search = [], measures.minimize

    def capture(f, *args, **kwargs):
        objectives.append(f)
        return search(f, *args, **kwargs)

    monkeypatch.setattr(measures, "minimize", capture)
    measures._family_search(family, ops, h_prime, OptimizerConfig(seeds=1, grid_resolution=1))
    monkeypatch.setattr(measures, "minimize", search)
    (objective,) = objectives
    return objective


def test_perturbed_choi_input_leaves_the_distance_objective_unchanged(monkeypatch):
    # The perturbed input (W (x) 1)|Phi> equals (1 (x) W')|Phi> for a unitary W'
    # on the ancilla, which channel (x) id and the trace norm do not see: the
    # built-in study's D(eps) equals D(0) by construction, so a sweep reports D(0),
    # and the search's d x d objective, which never sees the ancilla, serves every input.
    cfg = builtin_distance()
    setup = cfg.setup
    op = setup.operation(cfg.beta_for(cfg.sweep_values[0]))
    family = setup.family
    h_sys = op.system_hamiltonian
    objective = family_objective(monkeypatch, family, [op], setup.h_prime)
    q = np.random.default_rng(81).uniform(0, 2 * np.pi, (20, family.quotient.free_dim))
    unperturbed = objective(q, np.zeros(len(q), dtype=int))
    choi = maximally_entangled_input(h_sys)
    assert np.max(np.abs(member_distances(family, op, choi, q) - unperturbed)) < 1e-12
    for eps in cfg.epsilons:
        perturbed = _perturbed_choi_input(h_sys, PerturbationSpec(setup.h_prime, eps))
        assert np.max(np.abs(perturbed - choi)) > 1e-3
        assert np.max(np.abs(member_distances(family, op, perturbed, q) - unperturbed)) < 1e-12


@pytest.mark.parametrize("d_sys, d_bath", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_family_objective_matches_the_brute_force(monkeypatch, d_sys, d_bath):
    # both problem kinds of two operations, on the 2x2 closed-form trace norm and on svd
    rng = np.random.default_rng(5600 + 10 * d_sys + d_bath)
    h_sys, bath, family = _random_family(rng, d_sys, d_bath, "absorbed")
    h_prime = Hamiltonian.from_matrix(random_hermitian(rng, d_sys))
    ops = [thermal_operation(build_block_unitary(
        family.h_total, list(rng.uniform(0, 2 * np.pi, family.h_total.dim))), bath) for _ in range(2)]
    objective = family_objective(monkeypatch, family, ops, h_prime)
    q = rng.uniform(0, 2 * np.pi, (20, family.quotient.free_dim))
    inputs = (maximally_entangled_input(h_sys), response_direction(h_sys, h_prime))
    for k, op in enumerate(ops):
        for kind, (sign, x) in enumerate(zip((1.0, -1.0), inputs)):
            got = sign * objective(q, np.full(len(q), 2 * k + kind))
            assert np.max(np.abs(got - member_distances(family, op, x, q))) <= 1e-12, (k, kind)


def test_distance_family_search_makes_no_eigendecomposition(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh", "svd"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _f=original, _name=name, **kwargs:
                            calls.append(_name) or _f(*args, **kwargs))
    searches, search = [], measures._family_search

    def counted(*args):
        before = len(calls)
        channels, results = search(*args)
        searches.append((len(results), calls[before:]))
        return channels, results

    monkeypatch.setattr(measures, "_family_search", counted)
    run_config(builtin_distance())
    # one search of the distance and its bound, whose rows are 2x2 closed-form trace norms
    assert searches == [(2, [])]


def test_family_search_rejects_a_unitary_it_cannot_reduce():
    cfg = builtin_distance()
    setup = cfg.setup
    op = setup.operation(cfg.beta_for(cfg.sweep_values[0]))
    h_tot = setup.family.h_total
    rng = np.random.default_rng(5700)
    dense = thermal.EnergyBlockUnitary(random_unitary(rng, h_tot.dim), h_tot)
    rotated = total_hamiltonian(Hamiltonian.from_matrix(SIGMA_X), h_tot.parts[1])
    cases = ((dense, "not diagonal in the family's product eigenbasis"),
             (thermal.EnergyBlockUnitary(np.eye(h_tot.dim), rotated),
              "not built on the family's total Hamiltonian"))
    for unitary, message in cases:
        with pytest.raises(ValueError, match=message):
            measures.distance_sweep([op, thermal_operation(unitary, op.bath)], setup.family,
                                    setup.h_prime, OptimizerConfig(seeds=1, grid_resolution=1))
    # a unitary on a Hamiltonian without a system+bath split cannot even be formed
    with pytest.raises(ValueError, match="system\\+bath total Hamiltonian"):
        thermal.EnergyBlockUnitary(np.eye(h_tot.dim), Hamiltonian.from_matrix(h_tot.matrix))


def test_distance_nonnegative_and_diagnosed():
    op, family = distance_example_op()
    mv = distance_value(op, family, OptimizerConfig(seeds=10, grid_resolution=6))
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


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (2, 6), (4, 4), (3, 6), (6, 6),
                                    (4, 9)])
def test_theta_lambda_vanishes_on_incoherent_inputs(d1, d2):
    # a thermal operation maps populations to populations, so an input diagonal
    # in the system energy basis has no first-order response
    rng = np.random.default_rng(130 + 10 * d1 + d2)
    for _ in range(3):
        op = random_op(rng, d1, d2)
        pert = PerturbationSpec(Hamiltonian.from_matrix(random_hermitian(rng, d1)), 0.1)
        coeffs = np.diag(rng.dirichlet(np.ones(d1))).astype(complex)
        assert abs(theta_lambda(op, coeffs, pert)) <= 1e-13


def test_theta_lambda_first_order_law():
    # |I(eps) - I - eps*theta| shrinks ~4x when eps halves, with
    # first-order perturbed inputs; a coherent input has theta far from 0
    op = fig2_op()
    h_prime = Hamiltonian.from_matrix(SIGMA_X)
    for coeffs, coherent in ((np.diag([0.1, 0.9]), False), ([[0.1, 0.25], [0.25, 0.9]], True)):
        coeffs = np.asarray(coeffs, dtype=complex)
        theta = theta_lambda(op, coeffs, PerturbationSpec(h_prime, 1.0))
        assert not coherent or abs(theta) > 0.1
        base = mutual_information(apply(op, thermal.state_from_level_coeffs(H_QUBIT, coeffs))).value

        def residual(eps):
            state = DensityMatrix(
                thermal.perturbed_state_first_order(coeffs, H_QUBIT, PerturbationSpec(h_prime, eps)),
                (2,))
            val = mutual_information(apply(op, state)).value
            return abs(val - base - eps * theta)

        r1, r2, r3 = residual(1e-2), residual(5e-3), residual(2.5e-3)
        assert 3.2 < r1 / r2 < 4.8, coherent
        assert 3.2 < r2 / r3 < 4.8, coherent


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
    u, tau = computational_matrix(op.unitary), op.bath.state.matrix
    joint = thermal.evolve(u, tau, thermal.state_from_level_coeffs(h_sys, coeffs).matrix)
    v = h_sys.eigvecs
    rho_tilde = v @ thermal.first_order_correction(coeffs, h_sys, pert.h_prime) @ dagger(v)
    joint_dir = thermal.evolve(u, tau, rho_tilde)
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


def test_theta_lambda_rejects_a_bath_of_another_hamiltonian():
    # theta_lambda reads the bath as level weights, so the operation itself refuses another bath
    op = fig2_op()
    with pytest.raises(ValueError, match="bath Hamiltonian differs"):
        thermal_operation(op.unitary, gibbs_state(Hamiltonian.from_matrix(SIGMA_X), 0.25))


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (2, 6), (4, 4), (3, 6), (6, 6),
                                    (4, 9)])
def test_nondegenerate_thermal_operation_leaves_the_bath_classical(d1, d2):
    # the unitary is diagonal in the product energy basis, so the joint state is
    # sum_r q_r (u_r P u_r^dag) (x) |r><r| with u_r the phases of bath level r:
    # separable, with the bath marginal diag(q) and the system one P o M_op,
    # M_op = phase_products @ q, in the system energy basis.  So the
    # log-negativity is 0, I(S:B) = S(P o M_op) - S(P), and theta_lambda =
    # -Tr[([G~, P] o M_op) log2(P o M_op)], its bath and joint bars being 0;
    # on an incoherent P all three read 0
    rng = np.random.default_rng(900 + 10 * d1 + d2)
    for _ in range(2):
        op = random_op(rng, d1, d2)
        h_sys = op.system_hamiltonian
        pert = PerturbationSpec(Hamiltonian.from_matrix(random_hermitian(rng, d1)), 0.1)
        multiplier = op.unitary.amplitude_table.phase_products @ op.bath.level_probabilities
        incoherent = np.diag(rng.dirichlet(np.ones(d1))).astype(complex)
        for coeffs in (random_density(rng, d1).matrix, 0.5 * random_density(rng, d1).matrix
                       + 0.5 * incoherent, incoherent):
            joint = apply(op, thermal.state_from_level_coeffs(h_sys, coeffs))
            assert log_negativity(joint).value == 0.0  # Cholesky certifies the PPT stack
            out = coeffs * multiplier
            want = entropy_of_spectrum(out) - entropy_of_spectrum(coeffs)
            assert abs(mutual_information(joint).value - want) <= 1e-13
            response = thermal.first_order_correction(coeffs, h_sys, pert.h_prime) * multiplier
            want = -np.trace(response @ matrix_log2_on_support(out)).real
            assert abs(theta_lambda(op, coeffs, pert) - want) <= 1e-12


def shannon_conditional_entropy(x: np.ndarray, q: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """sum_a p_a H(q(r|a)) for measuring {|psi><psi|, I - |psi><psi|} on the qubit of
    sum_r q_r x_r (x) |r><r|, with x (d2, 2, 2) the unit-trace x_r in the system
    eigenbasis and psi = (cos(theta/2), e^{i phi} sin(theta/2)) there, one value
    per (theta, phi) row of ``angles``: p(a, r) = q_r <a|x_r|a> is the whole joint
    distribution, a Shannon entropy with no eigendecomposition."""
    psi = np.column_stack([np.cos(angles[:, 0] / 2),
                           np.exp(1j * angles[:, 1]) * np.sin(angles[:, 0] / 2)])
    inner = np.einsum("ni,rij,nj->nr", psi.conj(), x, psi).real
    joint = np.stack([inner, 1.0 - inner], axis=1) * q  # (n, outcome a, bath level r)
    given = np.divide(joint, joint.sum(axis=-1, keepdims=True), out=np.ones_like(joint),
                      where=joint > 0)
    return -np.sum(np.where(joint > 0, joint * np.log2(given), 0.0), axis=(1, 2))


@pytest.mark.parametrize("d2", [2, 3, 6])
def test_nondegenerate_discord_matches_the_shannon_form(d2):
    # on a non-degenerate qubit system the joint state is sum_r q_r (u_r P u_r^dag)
    # (x) |r><r|, u_r = diag(e^{-i alpha_ir}) in the system eigenbasis, so in the
    # product eigenbasis every level block is 1x1, S(AB) = H(q) + S(P), and each
    # outcome leaves the bath in a classical distribution.  Discord is then
    # S(P o M_op) - H(q) - S(P) plus the Shannon form's minimum, here from a fine
    # grid polished by the package's minimize
    rng = np.random.default_rng(950 + d2)
    search = OptimizerConfig(seeds=8, grid_resolution=60)
    for _ in range(2):
        while True:  # random_op's non-degenerate draw, with the phases kept
            h_sys = Hamiltonian.from_matrix(random_hermitian(rng, 2))
            h_bath = Hamiltonian.from_matrix(random_hermitian(rng, d2))
            h_tot = total_hamiltonian(h_sys, h_bath)
            if (np.diff(h_sys.energies).min() > 0.1 and np.diff(h_bath.energies).min() > 1e-3
                    and np.diff(h_tot.energies).min() > 1e-3):
                break
        alpha = np.zeros((2, d2))
        phases = rng.uniform(0, 2 * np.pi, 2 * d2)
        for (i, r), a in zip(h_tot.product_labels, phases):
            alpha[i, r] = a
        op = thermal_operation(build_block_unitary(h_tot, list(phases)),
                               gibbs_state(h_bath, rng.uniform(0.2, 2.0)))
        q = op.bath.level_probabilities
        u = np.exp(-1j * alpha.T)[:, :, None]  # u_r as (d2, 2, 1) diagonals
        incoherent = np.diag(rng.dirichlet(np.ones(2))).astype(complex)
        inputs = (random_density(rng, 2).matrix, 0.5 * random_density(rng, 2).matrix
                  + 0.5 * incoherent, incoherent)
        joints = apply(op, [thermal.state_from_level_coeffs(h_sys, p) for p in inputs])
        blocks = measures._bloch_blocks(np.array([j.matrix for j in joints]), d2)
        assert measures._level_blocks(blocks) == [tuple((r,) for r in range(d2))] * len(inputs)
        s_ab = [-q @ np.log2(q) + reference_entropy(p) for p in inputs]
        values = discord(joints, s_ab, OptimizerConfig(seeds=8, grid_resolution=24))
        for p, mv, joint_entropy in zip(inputs, values, s_ab):
            x = u * p * u.conj().swapaxes(-1, -2)  # u_r P u_r^dag
            best, = minimize(lambda angles, owner: shannon_conditional_entropy(x, q, angles),
                             [(0.0, np.pi), (0.0, 2 * np.pi)], search, periodic=[False, True])
            want = reference_entropy(np.einsum("r,rij->ij", q, x)) - joint_entropy + best.best_value
            assert abs(mv.value - want) <= 2e-8


def test_check_support_error_branch():
    flags = {}
    state = np.diag([1.0, 0.0]).astype(complex)
    leaky = np.array([[0.0, 0.1], [0.1, 0.2]], dtype=complex)
    with pytest.raises(ValueError, match="theta undefined"):
        measures._check_support("t", leaky, *np.linalg.eigh(state), flags)


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
    ((_, commuting),) = measures.distance_sweep([op], family, Hamiltonian.from_matrix(SIGMA_Z), cfg)
    assert 0.1 / op.d_sys * commuting.value < 1e-12
    zero_eps = ExperimentConfig.from_dict({**builtin_distance().to_dict(), "epsilons": [0.0],
                                           "optimizer": {"seeds": 4, "grid_resolution": 4}})
    assert [r.perturbed for r in run_config(zero_eps).rows_for("choi_distance_bound")] == [0.0]


def test_chi_lambda_bound_dominates_measured_response():
    op, family = distance_example_op()
    cfg = OptimizerConfig(seeds=12, grid_resolution=6)
    pert = PerturbationSpec(Hamiltonian.from_matrix(SIGMA_X), 0.05)
    # the bound faces a brute-force search on the perturbed Choi input itself
    h_sys = op.system_hamiltonian
    inputs = (maximally_entangled_input(h_sys), _perturbed_choi_input(h_sys, pert))
    n = family.quotient.free_dim
    d0, d1 = minimize(lambda q, owner: np.where(
        owner == 0, *(member_distances(family, op, x, q) for x in inputs)),
        [(0.0, 2 * np.pi)] * n, cfg, periodic=[True] * n, problems=2)
    ((_, chi),) = measures.distance_sweep([op], family, pert.h_prime, cfg)
    assert d1.best_value - d0.best_value <= pert.epsilon / op.d_sys * chi.value + 1e-6

