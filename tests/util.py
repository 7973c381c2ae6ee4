"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from athermal_markov import measures, thermal
from athermal_markov.linalg import SUPPORT_CUTOFF, DensityMatrix, dagger, eigh, trace_out_second

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + dagger(a))


def random_density(rng: np.random.Generator, d: int, dims=None) -> DensityMatrix:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ dagger(a)
    m /= np.trace(m).real
    return DensityMatrix(m, dims or (d,))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def distance_value(op, family, cfg) -> measures.MeasureValue:
    """The distance of ``op`` from ``family``, from a sweep of ``op`` alone whose
    bound takes the system Hamiltonian itself as the perturbation."""
    return measures.distance_sweep([op], family, op.system_hamiltonian, cfg)[0][0]


def bath_matrix(bath) -> np.ndarray:
    """The Gibbs state ``bath`` in the computational basis, V_B diag(q) V_B^dag
    from its Hamiltonian's eigenvectors and its level weights."""
    v = bath.hamiltonian.eigvecs
    return (v * bath.level_probabilities) @ dagger(v)


def product_eigvecs(h_total) -> np.ndarray:
    """The eigenvectors of a :func:`thermal.total_hamiltonian` in the computational
    basis: the columns of kron(V_S, V_B) of its parts, in its level order."""
    h_sys, h_bath = h_total.parts
    return np.kron(h_sys.eigvecs, h_bath.eigvecs)[
        :, [i * h_bath.dim + r for i, r in h_total.product_labels]]


def computational_matrix(unitary) -> np.ndarray:
    """The matrix of an :class:`thermal.EnergyBlockUnitary` in the computational
    basis: its product-eigenbasis ``matrix`` conjugated by kron(V_S, V_B)."""
    w = np.kron(*(h.eigvecs for h in unitary.hamiltonian.parts))
    return w @ unitary.matrix @ dagger(w)


def channel_image(op, x: np.ndarray) -> np.ndarray:
    """The channel of the thermal operation ``op`` on a system operator or a
    stack (..., d_sys, d_sys) of them, through the full system+bath evolution
    in the computational basis."""
    return trace_out_second(thermal.evolve(computational_matrix(op.unitary), bath_matrix(op.bath),
                                           x), op.d_sys, op.d_bath)


def family_member(family, free, bath) -> thermal.ThermalOperation:
    """The member of ``family`` at free phases ``free`` of its manifold, on
    ``bath``: a thermal operation whose unitary the checking
    :func:`thermal.build_block_unitary` assembles from the embedded phases."""
    phases = [float(a) for a in family.manifold.embed(free)]
    return thermal.thermal_operation(thermal.build_block_unitary(family.h_total, phases), bath)


def maximally_entangled_input(h_sys) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |i> (x) |i> as a raw matrix, pairing the
    system eigenvectors |i> of ``h_sys`` with a fixed ancilla basis."""
    phi = h_sys.eigvecs.reshape(-1)
    phi = phi / np.linalg.norm(phi)
    return np.outer(phi, phi.conj())


def response_direction(h_sys, h_prime) -> np.ndarray:
    """The distance bound's perturbation direction (G (x) I) K + K (G (x) I)^dag,
    with K = sum_ij |ii><jj| on the system eigenbasis paired with the ancilla
    basis (d times the maximally entangled projector) and G the generator of
    ``h_prime``, its eigenbasis matrix :func:`thermal.first_order_generator`
    conjugated to the computational basis."""
    d, v = h_sys.dim, h_sys.eigvecs
    g = v @ thermal.first_order_generator(h_sys, h_prime) @ dagger(v)
    gk = np.kron(g, np.eye(d)) @ (d * maximally_entangled_input(h_sys))
    return gk + dagger(gk)


def apply_on_system_factor(u: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(channel (x) identity) on an operator ``x`` of the system+ancilla pair,
    for the thermal operation with global unitary ``u`` on bath state ``tau``,
    through the full system+bath evolution; a stack (..., d, d) of unitaries
    gives the stack of images."""
    d_bath = tau.shape[0]
    d = u.shape[-1] // d_bath
    # a stack of system operators indexed by the ancilla pair
    blocks = x.reshape(d, d, d, d).transpose(1, 3, 0, 2)
    out = trace_out_second(thermal.evolve(u[..., None, None, :, :], tau, blocks), d, d_bath)
    # axes (ancilla, ancilla, system, system) back to (system, ancilla, system, ancilla)
    return np.einsum("...abst->...satb", out).reshape(*u.shape[:-2], d * d, d * d)


def member_distances(family, op, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """||((channel - member) (x) id)(x)||_1 for the member of ``family`` at each
    quotient point of ``q`` (n, quotient.free_dim), by brute force: each
    member's unitary from its lifted phases, both channels applied through the
    full system+bath evolution, and the norm from ``np.linalg.svd``."""
    v = product_eigvecs(family.h_total)
    phases = family.manifold.embed(family.lift(q))
    members = (v * np.exp(-1j * phases)[:, None, :]) @ dagger(v)
    tau = bath_matrix(op.bath)
    diff = (apply_on_system_factor(computational_matrix(op.unitary), tau, x)
            - apply_on_system_factor(members, tau, x))
    return np.linalg.svd(diff, compute_uv=False).sum(axis=-1)


def choi_state(op) -> DensityMatrix:
    """Choi state (channel (x) identity)|Phi><Phi| of a thermal operation on the
    maximally entangled input over its system eigenvectors, checked on construction."""
    out = apply_on_system_factor(computational_matrix(op.unitary), bath_matrix(op.bath),
                                 maximally_entangled_input(op.system_hamiltonian))
    return DensityMatrix(0.5 * (out + dagger(out)), (op.d_sys, op.d_sys))


def relation_residual(manifold, phases) -> float:
    """Distance, mod 2pi, of ``phases`` from the manifold's affine relation."""
    r = (float(np.asarray(manifold.coefficients) @ np.asarray(phases, dtype=float))
         - manifold.offset) % (2 * np.pi)
    return min(r, 2 * np.pi - r)


def matrix_log2_on_support(m: np.ndarray) -> np.ndarray:
    """Spectral log2 of a PSD matrix, restricted to its support: eigenvalues at
    or below ``SUPPORT_CUTOFF`` map to zero, and one below ``-SUPPORT_CUTOFF``
    is an error."""
    w, v = eigh(m)
    if w[0] < -SUPPORT_CUTOFF:
        raise ValueError(f"matrix_log2_on_support: negative eigenvalue {w[0]}")
    vs = v[:, w > SUPPORT_CUTOFF]
    return (vs * np.log2(w[w > SUPPORT_CUTOFF])) @ dagger(vs)


def expansion_lemma_residual(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """|Tr[(A+eB) log2(A+eB)] - Tr[A log2 A] - e Tr[B (I + log2 A)]|: the
    first-order trace-log expansion behind both response bounds, whose residual
    is O(eps^2) for full-rank PSD A."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    lhs = np.trace((a + eps * b) @ matrix_log2_on_support(a + eps * b)).real
    base = np.trace(a @ matrix_log2_on_support(a)).real
    linear = np.trace(b @ (np.eye(a.shape[0]) + matrix_log2_on_support(a))).real
    return float(abs(lhs - base - eps * linear))


def qubit_choi_closed_form(op, family, h_prime) -> tuple[float, float]:
    """The Choi distance D of the qubit channel ``op`` from ``family`` on a
    qubit bath, and the max ||chi||_1 of its bound for the perturbation
    ``h_prime``, in closed form.

    In the system eigenbasis the channel and each member are Schur multipliers
    with a unit diagonal, so with x = c - m_01, c = M_op[0, 1], the Choi
    objective is |x| and chi's is 2 (sqrt(w_0) + sqrt(w_1)) |x| = 4 |G~_01| |x|.
    A member has m_01 = sum_r p_r e^{-i delta_r}, delta_r = alpha_0r - alpha_1r.
    The relation s (-1)^(i + r) alpha_ir = k reads s (delta_0 - delta_1) = k,
    so m_01 runs over the circle of radius R = |p_0 e^{-ik} + p_1|: D =
    ||c| - R|, and the max uses |c| + R.  A relation whose coefficients do not
    sum to zero on some bath level leaves both delta_r free, so m_01 fills the
    annulus |p_0 - p_1| <= |z| <= 1, which holds c: D = 0, and the max uses
    |c| + 1.  Any other relation has no closed form here (ValueError)."""
    p = op.bath.level_probabilities
    c = abs((op.unitary.amplitude_table.phase_products @ p)[0, 1])
    coefficients = np.zeros((2, 2))
    for k, (i, r) in enumerate(family.h_total.product_labels):
        coefficients[i, r] = family.manifold.coefficients[k]
    s = coefficients[0, 0]
    if not coefficients.any() or coefficients.sum(axis=0).any():
        distance, radius = 0.0, 1.0
    elif abs(s) == 1 and np.array_equal(coefficients, s * np.array([[1, -1], [-1, 1]])):
        radius = abs(p[0] * np.exp(-1j * family.manifold.offset) + p[1])
        distance = abs(c - radius)
    else:
        raise ValueError("no closed form for this relation")
    h_sys = family.h_total.parts[0]
    v = h_sys.eigvecs
    g01 = (dagger(v) @ h_prime.matrix @ v)[0, 1] / (h_sys.energies[1] - h_sys.energies[0])
    return distance, 4 * abs(g01) * (c + radius)
