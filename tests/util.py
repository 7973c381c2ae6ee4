"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from athermal_markov.linalg import DensityMatrix, dagger, eigvalsh_packed, pack_lower

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
