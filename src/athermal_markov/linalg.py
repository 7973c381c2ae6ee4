"""Dense complex linear algebra and entropy primitives for small quantum systems.

Operators are plain numpy arrays (row-major, complex128).  States carry an
explicit subsystem factorisation through :class:`DensityMatrix`.  Validity
checks happen on public construction, to the fixed absolute tolerance
``STATE_TOL``; spectral supports end at ``SUPPORT_CUTOFF``.  All entropies
and matrix logarithms are base 2.  :func:`eigvalsh_packed` gives the spectra
of stacks of Hermitian matrices packed as real lower triangles by
:func:`pack_lower`, the level blocks of the discord kernel's outcomes: a 1x1
block is its entry, and every larger size goes to ``np.linalg.eigvalsh``.
:func:`trace_norm` takes 2x2 matrices (the distance search's rows on a qubit)
in closed form, where LAPACK's per-matrix overhead would outweigh the
arithmetic, and hands every other size to ``np.linalg.svd``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal

import math

import numpy as np

# Absolute tolerance for state validity (hermiticity, trace, positivity).
STATE_TOL = 1e-9

# Eigenvalues at or below this cutoff count as zero support.
SUPPORT_CUTOFF = 1e-12

# 2*pi with enough digits for exact-to-double reduction of huge angles.
_TWO_PI = Decimal("6.2831853071795864769252867665590057683943387987502116419498891846")
_DECIMAL = Context(prec=50)  # the arithmetic of that reduction

# Largest |angle| reduce_mod_2pi accepts.  _TWO_PI is short of 2*pi by 1.6e-65,
# so the remainder is off by that times the quotient |angle|/2pi: 2.5e-21 at
# 1e45, and from about 1e46 enough to round some results to another double.
# From about 1e50 the quotient no longer fits the 50-digit context at all.
MAX_ANGLE = 1e45

def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., d, d)."""
    return m.conj().swapaxes(-1, -2)


def mat_equal(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Entrywise equality within an absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b), initial=0.0) <= tol)


def _require_hermitian(m: np.ndarray, what: str):
    """Reject NaN or inf entries before any arithmetic warns, then a non-Hermitian ``m``."""
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    if not mat_equal(m, dagger(m), STATE_TOL):
        raise ValueError(f"{what} is not Hermitian within tolerance")


def reduce_mod_2pi(angle: float) -> float:
    """Reduce a finite angle to [0, 2*pi) using extended-precision arithmetic.

    Double-precision ``angle % (2*pi)`` loses ~1e-7 rad for angles of order
    1e9; phases that large appear in the block-unitary configurations, and
    only the reduced value matters to ``exp(-1j*angle)``.  An angle already
    in range is returned unchanged.  A remainder that rounds up to 2*pi
    wraps to 0.  An angle of magnitude ``MAX_ANGLE`` or more is a ValueError.
    """
    angle = float(angle)
    if 0.0 <= angle < math.tau:
        return angle
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    if abs(angle) >= MAX_ANGLE:
        raise ValueError(f"angle {angle!r} is too large: |angle| must be below {MAX_ANGLE:g}")
    r = _DECIMAL.remainder(Decimal(angle), _TWO_PI)
    r = float(_DECIMAL.add(r, _TWO_PI) if r < 0 else r)
    return 0.0 if r == math.tau else r


def check_state(m: np.ndarray, dims: tuple[int, ...], vectors: bool = False):
    """Check ``m`` as a density matrix over ``dims``; return the eigenvalues ``w`` of
    its positivity check and, with ``vectors``, the same eigh's eigenvectors ``v`` (else None)."""
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError("density matrix must be square")
    if math.prod(dims) != n:  # np.prod of a tuple costs 6 us, math.prod 0.1 us
        raise ValueError(f"bad factorization: prod{dims} != {n}")
    _require_hermitian(m, "density matrix")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > STATE_TOL:
        raise ValueError(f"density matrix trace {tr} != 1 within tolerance")
    w, v = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    if w[0] < -STATE_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {float(w[0])}")
    return w, v


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix with a declared factorisation.

    ``dims`` lists subsystem dimensions whose product equals the matrix
    dimension; single-factor states use a one-element tuple.  :func:`check_state`
    checks public construction; CPTP-derived states go through :meth:`_derived`.
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
        check_state(self._store(self.matrix, self.dims).matrix, self.dims)

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
    reproducible.  Rejects NaN or inf entries and a non-Hermitian matrix (``STATE_TOL``).
    """
    m = np.asarray(m, dtype=complex)
    _require_hermitian(m, "matrix")
    w, v = np.linalg.eigh(m)
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # one scalar division per column: an array-wide one can differ in the last ulp
    phases = [p.conjugate() / abs(p) for p in pivots]
    return w, v * np.array(phases, dtype=complex)


def _lower(n: int) -> tuple[list[int], list[int]]:
    """Flat indices into an n x n matrix of its diagonal and of the entries
    below it, row by row (the order of ``np.tril_indices(n, -1)``)."""
    return [a * (n + 1) for a in range(n)], [a * n + b for a in range(n) for b in range(a)]


def pack_lower(h: np.ndarray) -> np.ndarray:
    """The lower triangles of a stack (..., n, n) of Hermitian matrices as n * n
    reals along a new first axis: the real diagonal, then the real parts of the
    entries below it, row by row, then their imaginary parts.  Each entry of
    the stack is then one contiguous array."""
    n = h.shape[-1]
    diag, below = _lower(n)
    flat = np.moveaxis(h.reshape(*h.shape[:-2], n * n), -1, 0)
    low = flat[below]
    return np.concatenate([flat[diag].real, low.real, low.imag])


def unpack_lower(p: np.ndarray) -> np.ndarray:
    """The complex stack (..., n, n) whose lower triangles :func:`pack_lower`
    packed into ``p`` (n * n, ...); the upper triangles are zero, and
    ``np.linalg.eigvalsh`` reads the lower ones only."""
    n = math.isqrt(len(p))
    diag, below = _lower(n)
    # each packed entry's place among the interleaved real and imaginary parts
    places = [2 * k for k in diag + below] + [2 * k + 1 for k in below]
    h = np.zeros(p.shape[1:] + (2 * n * n,))
    h[..., places] = np.moveaxis(p, 0, -1)
    return h.view(complex).reshape(*p.shape[1:], n, n)


def eigvalsh_packed(p: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, along a new first axis (n, ...), of the Hermitian
    matrices whose lower triangles :func:`pack_lower` packed into ``p``.

    Each matrix is computed on its own.  For n = 1 the eigenvalue is the
    entry; every other n goes whole to one ``np.linalg.eigvalsh`` call.
    """
    if len(p) == 1:
        return p.copy()
    return np.moveaxis(np.linalg.eigvalsh(unpack_lower(p)), -1, 0)


def trace_norm(m: np.ndarray):
    """Sum of singular values of a square matrix, as a float, or of each matrix
    in a stack (..., d, d), as an array of the stack's shape.

    A 2x2 matrix A has s_1^2 + s_2^2 = ||A||_F^2 and s_1 s_2 = |det A|, so its
    norm is sqrt(||A||_F^2 + 2 |det A|), taken on A divided by its largest
    |entry| so that neither square overflows nor underflows across the double
    range.  Every other size goes to ``np.linalg.svd``.  Rejects NaN or inf entries.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("trace_norm expects a square matrix or a stack of them")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if m.shape[-1] == 2:
        peak = np.abs(m).max(axis=(-2, -1))
        a = m / np.where(peak > 0, peak, 1.0)[..., None, None]
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        frobenius = (a.real ** 2 + a.imag ** 2).sum(axis=(-2, -1))
        norms = peak * np.sqrt(frobenius + 2 * np.abs(det))
    else:
        norms = np.linalg.svd(m, compute_uv=False).sum(-1)
    return float(norms) if m.ndim == 2 else norms


def spectrum_entropy(w: np.ndarray, axis: int = -1) -> np.ndarray:
    """Entropy in bits of each spectrum along ``axis`` of ``w``, over the
    eigenvalues above ``SUPPORT_CUTOFF``; log2 sees no other value."""
    support = w > SUPPORT_CUTOFF
    return -np.sum(np.where(support, w * np.log2(np.where(support, w, 1.0)), 0.0), axis=axis)


def entropy_of_spectrum(matrix: np.ndarray):
    """Entropy in bits of a raw Hermitian matrix's spectrum, as a float, or of
    each matrix in a stack (..., d, d), as an array (no validation)."""
    entropy = spectrum_entropy(np.linalg.eigvalsh(matrix))
    return float(entropy) if np.ndim(matrix) == 2 else entropy

