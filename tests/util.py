"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from athermal_markov import measures
from athermal_markov.linalg import SUPPORT_CUTOFF, DensityMatrix, dagger, eigh, eigvalsh_packed, \
    pack_lower

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


def packed_eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (n, n), or of each matrix in
    a stack (..., n, n), from :func:`linalg.eigvalsh_packed` of its packed lower
    triangle, shaped as ``np.linalg.eigvalsh`` returns them."""
    h = np.asarray(h)
    n = h.shape[-1]
    # rows of a 2-D stack, even for one matrix, so each entry is an array
    return eigvalsh_packed(pack_lower(h.reshape(-1, n, n))).T.reshape(h.shape[:-1])


def distance_value(op, family, cfg) -> measures.MeasureValue:
    """The distance of ``op`` from ``family``, from a sweep of ``op`` alone whose
    bound takes the system Hamiltonian itself as the perturbation."""
    return measures.distance_sweep([op], family, op.system_hamiltonian, cfg)[0][0]


def choi_state(op) -> DensityMatrix:
    """Choi state (channel (x) identity)|Phi><Phi| of a thermal operation on the
    maximally entangled input over its system eigenvectors, checked on construction."""
    out = measures._apply_on_system_factor(
        op.unitary.matrix, op.bath.state.matrix,
        measures.maximally_entangled_input(op.system_hamiltonian))
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
