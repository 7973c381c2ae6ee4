"""Dense complex linear algebra and entropy primitives for small quantum systems.

Operators are plain numpy arrays (row-major, complex128).  States carry an
explicit subsystem factorisation through :class:`DensityMatrix`.  Validity
checks happen on public construction, to the fixed absolute tolerance
``STATE_TOL``; spectral supports end at ``SUPPORT_CUTOFF``.  All entropies
and matrix logarithms are base 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

import math

import numpy as np

# Absolute tolerance for state validity (hermiticity, trace, positivity).
STATE_TOL = 1e-9

# Eigenvalues at or below this cutoff count as zero support.
SUPPORT_CUTOFF = 1e-12

# 2*pi with enough digits for exact-to-double reduction of huge angles.
_TWO_PI = Decimal("6.2831853071795864769252867665590057683943387987502116419498891846")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., d, d)."""
    return m.conj().swapaxes(-1, -2)


def mat_equal(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Entrywise equality within an absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b), initial=0.0) <= tol)


def is_hermitian(m: np.ndarray) -> bool:
    return mat_equal(m, dagger(m), STATE_TOL)


def reduce_mod_2pi(angle: float) -> float:
    """Reduce a finite angle to [0, 2*pi) using extended-precision arithmetic.

    Double-precision ``angle % (2*pi)`` loses ~1e-7 rad for angles of order
    1e9; phases that large appear in the block-unitary configurations, and
    only the reduced value matters to ``exp(-1j*angle)``.  An angle already
    in range is returned unchanged.  A remainder that rounds up to 2*pi
    wraps to 0.
    """
    angle = float(angle)
    if 0.0 <= angle < math.tau:
        return angle
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(angle) % _TWO_PI
        if r < 0:
            r += _TWO_PI
        r = float(r)
    return 0.0 if r == math.tau else r


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix with a declared factorisation.

    ``dims`` lists subsystem dimensions whose product equals the matrix
    dimension; single-factor states use a one-element tuple.  Validation
    happens on public construction, to ``STATE_TOL``; states the library
    derives by CPTP maps are stored through :meth:`_derived`, unchecked.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def _store(self, matrix, dims) -> "DensityMatrix":
        m = np.array(matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        return self

    @classmethod
    def _derived(cls, matrix, dims) -> "DensityMatrix":
        """A state computed from valid states by a CPTP map, stored unchecked."""
        return object.__new__(cls)._store(matrix, dims)

    def __post_init__(self):
        m = self._store(self.matrix, self.dims).matrix
        n = m.shape[0]
        if m.ndim != 2 or m.shape[1] != n:
            raise ValueError("density matrix must be square")
        if int(np.prod(self.dims)) != n:
            raise ValueError(f"bad factorization: prod{self.dims} != {n}")
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > STATE_TOL:
            raise ValueError(f"density matrix trace {tr} != 1 within tolerance")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -STATE_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _two_factor_dims(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2:
        raise ValueError(f"bad factorization: need exactly two factors, got {rho.dims}")
    return rho.dims


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state on one factor of a bipartite density matrix.

    ``keep`` = 0 keeps the first factor, 1 the second.
    """
    d1, d2 = _two_factor_dims(rho)
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    if keep == 0:
        return DensityMatrix._derived(trace_out_second(rho.matrix, d1, d2), (d1,))
    return DensityMatrix._derived(trace_out_first(rho.matrix, d1, d2), (d2,))


def trace_out_second(matrix: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Partial trace over the second factor of a raw (d1*d2) square matrix or
    a stack (..., d1*d2, d1*d2) of them."""
    return np.einsum("...abcb->...ac", matrix.reshape(*matrix.shape[:-2], d1, d2, d1, d2))


def trace_out_first(matrix: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Partial trace over the first factor of a raw (d1*d2) square matrix or
    a stack (..., d1*d2, d1*d2) of them."""
    return np.einsum("...abad->...bd", matrix.reshape(*matrix.shape[:-2], d1, d2, d1, d2))


def partial_transpose(rho: DensityMatrix, on: int) -> np.ndarray:
    """Transpose the indices of one factor only.

    The result is Hermitian with unit trace but in general indefinite, so a
    plain array is returned rather than a DensityMatrix.
    """
    d1, d2 = _two_factor_dims(rho)
    if on not in (0, 1):
        raise ValueError("on must be 0 or 1")
    r = rho.matrix.reshape(d1, d2, d1, d2)
    axes = (2, 1, 0, 3) if on == 0 else (0, 3, 2, 1)
    return r.transpose(axes).reshape(d1 * d2, d1 * d2)


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a fixed phase convention.

    Returns (eigenvalues ascending, eigenvectors as columns).  Each column is
    rescaled so its largest-magnitude component is real positive, which makes
    repeated calls bit-identical and keeps downstream optimisation starts
    reproducible.  Rejects a matrix that is not Hermitian within ``STATE_TOL``.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # one scalar division per column: an array-wide one can differ in the last ulp
    phases = [p.conjugate() / abs(p) for p in pivots]
    return w, v * np.array(phases, dtype=complex)


def trace_norm(m: np.ndarray):
    """Sum of singular values of a square matrix, as a float, or of each matrix
    in a stack (..., d, d), as an array of the stack's shape."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("trace_norm expects a square matrix or a stack of them")
    norms = np.linalg.svd(m, compute_uv=False).sum(-1)
    return float(norms) if m.ndim == 2 else norms


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(p log2 p) in bits, with the 0 log 0 = 0 convention."""
    return entropy_of_spectrum(rho.matrix)


def entropy_of_spectrum(matrix: np.ndarray) -> float:
    """Entropy in bits of a raw Hermitian matrix's spectrum (no validation)."""
    w = np.linalg.eigvalsh(matrix)
    w = w[w > SUPPORT_CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def matrix_log2_on_support(m: np.ndarray) -> np.ndarray:
    """Spectral log2 of a PSD matrix, restricted to its support.

    Eigenvalues at or below ``SUPPORT_CUTOFF`` map to zero (projector-onto-
    support convention); an eigenvalue below ``-SUPPORT_CUTOFF`` is an error.
    """
    return log2_on_support(*eigh(m))


def log2_on_support(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`matrix_log2_on_support` from a decomposition ``eigh`` returned."""
    if w[0] < -SUPPORT_CUTOFF:
        raise ValueError(f"matrix_log2_on_support: negative eigenvalue {w[0]}")
    on = w > SUPPORT_CUTOFF
    vs = v[:, on]
    return (vs * np.log2(w[on])) @ dagger(vs)
