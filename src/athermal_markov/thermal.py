"""Thermal channels on small system+bath pairs.

Builds Hamiltonians with cached eigensystems, Gibbs states, global unitaries
block diagonal over total-energy eigenspaces, held in the product energy
eigenbasis, and the channel ``rho -> Tr_bath[U (rho (x) tau) U^dag]``, evolved
in that basis.  Also hosts the Markovianity constraint report (tensor-product
deviation plus the amplitude/phase residual system) and non-degenerate
first-order perturbation of the system state.

Conventions: k_B = hbar = 1, energies in the problem's energy unit, inverse
temperature beta = 1/T in the same unit.  System levels are indexed ascending
in energy (index 0 is the ground level) everywhere a level index appears.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    STATE_TOL,
    DensityMatrix,
    dagger,
    eigh,
    mat_equal,
    reduce_mod_2pi,
    trace_out_second,
)

# Total-energy values closer than this are grouped into one degenerate block.
DEGENERACY_TOL = 1e-8

# Largest |U U^dag - I| entry of a block unitary: absolute, no rtol.
UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian operator with a cached ascending eigendecomposition.

    ``eigvecs`` columns follow the deterministic phase convention of
    :func:`linalg.eigh`.  For operators built by :func:`total_hamiltonian`
    the exact product eigenbasis is cached instead, ``parts`` holds the two
    local Hamiltonians and ``product_labels[k]`` gives the (system level,
    bath level) pair behind cached level ``k``.
    """

    matrix: np.ndarray
    energies: np.ndarray
    eigvecs: np.ndarray
    parts: tuple["Hamiltonian", "Hamiltonian"] | None = None
    product_labels: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        for name in ("matrix", "energies", "eigvecs"):
            arr = np.asarray(getattr(self, name))
            arr = arr.astype(complex) if name != "energies" else arr.astype(float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_matrix(cls, matrix) -> "Hamiltonian":
        m = np.asarray(matrix, dtype=complex)
        return cls(m, *eigh(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def unitary_eigvecs(self) -> bool:
        """True iff ``eigvecs`` is unitary within ``UNITARY_TOL``; checked once,
        since the cached arrays are read-only."""
        v = self.eigvecs
        return mat_equal(dagger(v) @ v, np.eye(self.dim), UNITARY_TOL)

    def bohr_nondegenerate(self) -> bool:
        """True iff all pairwise level differences E_i - E_j (i != j) are distinct."""
        e = self.energies
        diffs = np.sort((e[:, None] - e[None, :])[~np.eye(self.dim, dtype=bool)])
        return bool(np.all(np.diff(diffs) > DEGENERACY_TOL))

    def energy_blocks(self) -> list[tuple[float, tuple[int, ...]]]:
        """Group cached levels into (energy, level indices) eigenspace blocks."""
        blocks: list[tuple[float, list[int]]] = []
        for k, e in enumerate(self.energies):
            if blocks and abs(e - blocks[-1][0]) <= DEGENERACY_TOL:
                blocks[-1][1].append(k)
            else:
                blocks.append((float(e), [k]))
        return [(e, tuple(idx)) for e, idx in blocks]


@dataclass(frozen=True, eq=False)
class GibbsState:
    """Thermal state e^{-beta H}/Z together with its source Hamiltonian and
    ``level_probabilities``, the read-only Boltzmann weight of each cached
    energy level (ascending order)."""

    state: DensityMatrix
    beta: float
    hamiltonian: Hamiltonian
    level_probabilities: np.ndarray


def _boltzmann_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    if math.isinf(beta):
        return np.eye(len(energies))[0]
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def gibbs_state(h: Hamiltonian, beta: float) -> GibbsState:
    """Gibbs state of ``h`` at inverse temperature ``beta``.

    ``beta = math.inf`` returns the ground projector and requires a unique
    ground level.
    """
    if beta < 0 or math.isnan(beta):
        raise ValueError("beta must be nonnegative (math.inf allowed)")
    if math.isinf(beta) and len(h.energies) > 1 and h.energies[1] - h.energies[0] <= DEGENERACY_TOL:
        raise ValueError("ambiguous zero-temperature limit: degenerate ground space")
    if not h.unitary_eigvecs:
        raise ValueError("Hamiltonian eigenvectors are not unitary")
    v = h.eigvecs
    w = _boltzmann_weights(h.energies, beta)
    w.flags.writeable = False
    return GibbsState(DensityMatrix._derived((v * w) @ dagger(v), (h.dim,)), float(beta), h, w)


def total_hamiltonian(h_sys: Hamiltonian, h_bath: Hamiltonian) -> Hamiltonian:
    """Kronecker sum H (x) I + I (x) H with the exact product eigenbasis cached.

    Levels are sorted by total energy ascending, ties broken by (system
    level, bath level), and the label bookkeeping is kept so degenerate
    eigenspaces stay expressed in product kets.
    """
    d1, d2 = h_sys.dim, h_bath.dim
    # axes (system, system, bath, bath), to (system, bath, system, bath): Kronecker order
    m = np.multiply.outer(h_sys.matrix, np.eye(d2)) + np.multiply.outer(np.eye(d1), h_bath.matrix)
    vecs = np.multiply.outer(h_sys.eigvecs, h_bath.eigvecs).swapaxes(1, 2).reshape(d1 * d2, -1)
    # level k = i*d2 + r is the product ket |i>|r>; a stable sort breaks ties by (i, r)
    energies = np.add.outer(h_sys.energies, h_bath.energies).ravel()
    order = np.argsort(energies, kind="stable")
    return Hamiltonian(
        m.swapaxes(1, 2).reshape(d1 * d2, -1),
        energies[order],
        vecs[:, order],
        parts=(h_sys, h_bath),
        product_labels=tuple(zip((order // d2).tolist(), (order % d2).tolist())),
    )


@dataclass(frozen=True, eq=False)
class EnergyBlockUnitary:
    """Unitary block diagonal over the total-energy eigenspaces of a
    :func:`total_hamiltonian`, as its matrix in the product eigenbasis
    kron(V_S, V_B) of ``hamiltonian.parts``, with [i d_b + r, j d_b + s] = <i, r|U|j, s>.

    ``matrix`` must be unitary, so every thermal operation on it is CPTP; every
    construction checks this to ``UNITARY_TOL``, and that ``hamiltonian`` has ``parts``.
    """

    matrix: np.ndarray
    hamiltonian: Hamiltonian

    def __post_init__(self):
        if self.hamiltonian.parts is None:
            raise ValueError("unitary was not built from a system+bath total Hamiltonian")
        if not mat_equal(self.matrix @ dagger(self.matrix), np.eye(self.dim), UNITARY_TOL):
            raise ValueError("energy-block operator is not unitary")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def amplitude_table(self) -> "AmplitudeTable":
        """The :class:`AmplitudeTable` of ``hamiltonian.parts``, built on first use."""
        u = self.matrix
        h_sys, h_bath = self.hamiltonian.parts
        d_s, d_b = h_sys.dim, h_bath.dim
        levels = _bath_levels(h_sys, h_bath)
        s = np.arange(d_s)
        # U on axes (j, r', i, r); r' = -1 reads an entry masked below
        amplitudes = np.where(levels < 0, np.nan, u.reshape(d_s, d_b, d_s, d_b)[
            s[None, :, None], levels, s[:, None, None], np.arange(d_b)])
        diag = amplitudes[s, s]
        z = diag[:, None] * diag.conj()
        # only i < j is constrained, and only on a non-degenerate Bohr spectrum
        free = np.isnan(z) | (s[:, None] >= s[None, :])[..., None] | (not h_sys.bohr_nondegenerate())
        table = AmplitudeTable(amplitudes, levels, np.nan_to_num(np.abs(amplitudes) ** 2),
                               np.nan_to_num(z), free)
        for arr in table:
            arr.flags.writeable = False
        return table


def _coerce_block_unitary(param, size: int) -> np.ndarray:
    """Accept a (phases, basis) pair or an explicit matrix for a block."""
    if isinstance(param, tuple) and len(param) == 2:
        phases, basis = param
        basis = np.asarray(basis, dtype=complex)
        phases = np.asarray(phases, dtype=float)
        if basis.shape != (size, size) or len(phases) != size:
            raise ValueError("block basis/phase sizes do not match the eigenspace")
        phase_diag = np.exp(-1j * np.array([reduce_mod_2pi(p) for p in phases]))
        u = (basis * phase_diag) @ dagger(basis)
    else:
        u = np.asarray(param, dtype=complex)
        if u.shape != (size, size):
            raise ValueError(f"block unitary has shape {u.shape}, expected {(size, size)}")
    if not mat_equal(u @ dagger(u), np.eye(size), UNITARY_TOL):
        raise ValueError("block parameter is not unitary within tolerance")
    return u


def build_block_unitary(h_total: Hamiltonian, block_params) -> EnergyBlockUnitary:
    """Assemble a global unitary from one unitary per total-energy eigenspace
    of the :func:`total_hamiltonian` ``h_total``.

    ``block_params`` is a sequence aligned with ``h_total.energy_blocks()``:
    a bare phase alpha for a one-dimensional block (the block unitary is
    e^{-i alpha}), a ``(phases, basis)`` pair giving eigenphases in an
    explicit intra-block basis, or a full intra-block unitary matrix.  Each
    goes on the product indices i d_b + r of its levels' labels (i, r), so
    every other entry is an exact zero; a unit phase needs no unitarity check.
    """
    blocks = h_total.energy_blocks()
    if len(block_params) != len(blocks):
        raise ValueError(f"got {len(block_params)} block parameters for {len(blocks)} energy blocks")
    d_b = h_total.parts[1].dim
    place = [i * d_b + r for i, r in h_total.product_labels]
    u = np.zeros((h_total.dim, h_total.dim), dtype=complex)
    levels, phases = [], []
    for (_, idx), param in zip(blocks, block_params):
        if np.isscalar(param):
            if len(idx) != 1:
                raise ValueError(f"scalar phase given for a {len(idx)}-dimensional block")
            levels.append(place[idx[0]])
            phases.append(reduce_mod_2pi(float(param)))
            continue
        at = [place[k] for k in idx]
        u[np.ix_(at, at)] = _coerce_block_unitary(param, len(idx))
    u[levels, levels] = np.exp(-1j * np.array(phases))
    return EnergyBlockUnitary(u, h_total)


@dataclass(frozen=True, eq=False)
class ThermalOperation:
    """Global unitary plus bath Gibbs state, applied by conjugate-and-trace.

    The bath must be a Gibbs state of the bath the unitary was built on: the
    same :class:`Hamiltonian`, or one with equal energies and eigenvectors.
    This is checked once, here, so every evolution can take the bath as its
    level weights in that bath's eigenbasis.
    """

    unitary: EnergyBlockUnitary
    bath: GibbsState
    d_sys: int
    d_bath: int

    def __post_init__(self):
        parts = self.unitary.hamiltonian.parts
        own, bath = parts[1], self.bath.hamiltonian
        if bath is not own and not (np.array_equal(bath.energies, own.energies)
                                    and np.array_equal(bath.eigvecs, own.eigvecs)):
            raise ValueError("bath Hamiltonian differs from the one the unitary was built on")
        if (self.d_sys, self.d_bath) != (parts[0].dim, own.dim):
            raise ValueError("d_sys, d_bath do not match the unitary's system and bath")

    @property
    def system_hamiltonian(self) -> Hamiltonian:
        return self.unitary.hamiltonian.parts[0]


def thermal_operation(unitary: EnergyBlockUnitary, bath: GibbsState) -> ThermalOperation:
    h_sys, h_bath = unitary.hamiltonian.parts
    return ThermalOperation(unitary, bath, h_sys.dim, h_bath.dim)


def evolve(u: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Joint operator U (x (x) tau) U^dag for the global unitary ``u`` and the
    bath state ``tau``.

    ``x`` is a system operator or a stack (..., d_sys, d_sys) of them, of the
    size its caller checks; ``u`` is one unitary or a stack (..., d, d) whose
    leading axes broadcast against the stack of ``x``.
    """
    x = np.asarray(x, dtype=complex)
    d = u.shape[-1]
    # x (x) tau by broadcasting: axes (..., sys, bath, sys, bath)
    joint = (x[..., :, None, :, None] * tau[:, None, :]).reshape(*x.shape[:-2], d, d)
    return u @ joint @ dagger(u)


def apply(op: ThermalOperation, states: DensityMatrix | Sequence[DensityMatrix]
          ) -> DensityMatrix | list[DensityMatrix]:
    """Joint state U (rho (x) tau) U^dag of the system state ``states`` in the
    product eigenbasis of ``op.unitary.matrix``, from rho's level coefficients
    V_S^dag rho V_S and tau = diag(q); so each marginal from partial_trace is
    in its own factor's eigenbasis, and a Gibbs state there is diag(weights).

    Given a sequence of system states instead, returns the list of their
    joint states from one evolution of their (n, d_sys, d_sys) stack; one
    state is the one-row case of the same computation.
    """
    rows = [states] if isinstance(states, DensityMatrix) else states
    for rho in rows:
        if rho.dim != op.d_sys:
            raise ValueError(f"system state dimension {rho.dim} != {op.d_sys}")
    v = op.system_hamiltonian.eigvecs
    joint = evolve(op.unitary.matrix, np.diag(op.bath.level_probabilities),
                   dagger(v) @ np.array([rho.matrix for rho in rows]) @ v)
    joint = 0.5 * (joint + dagger(joint))
    out = [DensityMatrix._derived(m, (op.d_sys, op.d_bath)) for m in joint]
    return out[0] if isinstance(states, DensityMatrix) else out


# ---------------------------------------------------------------------------
# Markovianity constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MtoConstraintReport:
    """Outcome of the Markovianity check for one unitary and input state.

    ``joint_product_deviation`` is the trace distance between the evolved
    joint state and (evolved system) (x) tau.  ``amplitude_residuals[i, j, r]``
    (d_sys x d_sys x d_bath) are the transition-amplitude violations and
    ``phase_residuals[i, j]`` (d_sys x d_sys) the spreads of the diagonal phase
    products over bath levels.  NaN marks what the constraints leave free: a
    missing bath level, a zero bath weight, i >= j or a degenerate Bohr spectrum.
    """

    is_markovian: bool
    joint_product_deviation: float
    amplitude_residuals: np.ndarray
    phase_residuals: np.ndarray

    def max_amplitude_residual(self) -> float:
        return float(np.fmax.reduce(self.amplitude_residuals, axis=None, initial=0.0))

    def max_phase_residual(self) -> float:
        return float(np.fmax.reduce(self.phase_residuals, axis=None, initial=0.0))

    def residuals_markovian(self) -> bool:
        return (self.max_amplitude_residual() <= STATE_TOL
                and self.max_phase_residual() <= STATE_TOL)


class AmplitudeTable(NamedTuple):
    """Per-unitary arrays of the Markovianity check, indexed [i, j, r] over system
    levels i, j and bath levels r.  ``levels`` holds r', the bath level at
    E_r + E_i - E_j, or -1 where it is missing; ``amplitudes`` holds
    <j, r'| U |i, r> (NaN where missing) and ``weights`` its squared modulus.
    ``phase_products`` holds a[i, i, r] conj(a[j, j, r]), constrained where
    ``phase_free`` is false.  Missing entries weigh 0."""

    amplitudes: np.ndarray
    levels: np.ndarray
    weights: np.ndarray
    phase_products: np.ndarray
    phase_free: np.ndarray


def _bath_levels(h_sys: Hamiltonian, h_bath: Hamiltonian) -> np.ndarray:
    """r'[i, j, r]: the unique bath level at E_r + E_i - E_j, or -1 if there
    is none or more than one within ``DEGENERACY_TOL``."""
    omega = h_sys.energies[:, None] - h_sys.energies[None, :]
    target = h_bath.energies[None, None, :] + omega[:, :, None]
    hits = np.abs(h_bath.energies - target[..., None]) <= DEGENERACY_TOL
    return np.where(hits.sum(axis=-1) == 1, hits.argmax(axis=-1), -1)


def mto_check(op: ThermalOperation, rho_sys: DensityMatrix) -> MtoConstraintReport:
    """Check Markovianity of one application of the channel.

    The direct verdict compares the evolved joint state with the tensor
    product of its marginal and the untouched bath.  The residual system
    re-derives it from the unitary alone: squared transition amplitudes must
    match the Boltzmann-weighted transition probabilities, and on a
    non-degenerate Bohr spectrum the diagonal phase products must not depend
    on the bath level.  Only the bath weights depend on the temperature.
    Both sides are compared in the product eigenbasis, as :func:`apply` forms them.
    """
    t = op.unitary.amplitude_table
    p = op.bath.level_probabilities
    v, tau = op.system_hamiltonian.eigvecs, np.diag(p)
    joint = evolve(op.unitary.matrix, tau, dagger(v) @ rho_sys.matrix @ v)
    # rho' (x) tau, a Kronecker product formed by broadcasting
    product = np.multiply.outer(trace_out_second(joint, op.d_sys, op.d_bath),
                                tau).swapaxes(1, 2).reshape(joint.shape)
    # the difference is Hermitian, so its trace norm is the sum of |eigenvalues|
    deviation = 0.5 * float(np.abs(np.linalg.eigvalsh(joint - product)).sum())

    pij = t.weights @ p  # P(i -> j) from the available amplitudes
    ratio = np.divide(p[t.levels] * pij[..., None], p, out=np.full_like(t.weights, np.nan), where=p > 0)
    spread = np.abs(t.phase_products - (t.phase_products @ p)[..., None])
    return MtoConstraintReport(
        is_markovian=deviation <= STATE_TOL,
        joint_product_deviation=deviation,
        amplitude_residuals=np.where(t.levels < 0, np.nan, np.abs(t.weights - ratio)),
        phase_residuals=np.fmax.reduce(np.where(t.phase_free, np.nan, spread), axis=-1),
    )


# ---------------------------------------------------------------------------
# Perturbation of the system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbing Hamiltonian and dimensionless strength epsilon."""

    h_prime: Hamiltonian
    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def _require_nondegenerate(h: Hamiltonian):
    gaps = h.energies[1:] - h.energies[:-1]
    if len(gaps) and gaps.min() <= DEGENERACY_TOL:
        raise ValueError("degenerate spectrum: non-degenerate perturbation theory does not apply")


def first_order_generator(h_sys: Hamiltonian, h_prime: Hamiltonian) -> np.ndarray:
    """Anti-Hermitian G with |i'> = (I + eps G)|i> to first order, as its
    matrix G~ in the eigenbasis of ``h_sys``, where first-order theory lives:
    G~[k, i] = <k|H'|i> / (E_i - E_k) off the diagonal, zero on it.
    """
    _require_nondegenerate(h_sys)
    hp = dagger(h_sys.eigvecs) @ h_prime.matrix @ h_sys.eigvecs
    gaps = h_sys.energies[None, :] - h_sys.energies[:, None]
    return np.divide(hp, gaps, out=np.zeros_like(hp), where=gaps != 0)  # 0 only on the diagonal


def perturbed_eigvectors(h_sys: Hamiltonian, pert: PerturbationSpec) -> np.ndarray:
    """Exact eigenvectors of H + eps H', matched to the unperturbed levels.

    Column ``i`` continues unperturbed level ``i``: it is the perturbed
    eigenvector of maximal overlap, with its phase aligned so the overlap is
    real positive.  Matching with squared overlap at or below 1/2, or two
    levels claiming the same perturbed vector, is an error.
    """
    if pert.h_prime.dim != h_sys.dim:
        raise ValueError("perturbation dimension mismatch")
    _, vecs = eigh(h_sys.matrix + pert.epsilon * pert.h_prime.matrix)
    overlaps = dagger(h_sys.eigvecs) @ vecs
    match = np.argmax(np.abs(overlaps), axis=1)
    ov = overlaps[np.arange(h_sys.dim), match]
    if (np.abs(ov) ** 2 <= 0.5).any() or len(set(match.tolist())) < h_sys.dim:
        raise ValueError("perturbation too strong: eigenvector matching ambiguous")
    # one scalar division per level, as linalg.eigh aligns its columns
    return vecs[:, match] * np.array([o.conjugate() / abs(o) for o in ov])


def state_from_level_coeffs(h_sys: Hamiltonian, coeffs: np.ndarray) -> DensityMatrix:
    """Density matrix sum_ij P_ij |i><j| over the eigenlevels of ``h_sys``."""
    p = np.asarray(coeffs, dtype=complex)
    v = h_sys.eigvecs
    return DensityMatrix(v @ p @ dagger(v), (h_sys.dim,))


def perturbed_state_exact(coeffs: np.ndarray, h_sys: Hamiltonian,
                          pert: PerturbationSpec) -> DensityMatrix:
    """sum_ij P_ij |i'><j'| using exact matched eigenvectors of H + eps H'."""
    _require_nondegenerate(h_sys)
    p = np.asarray(coeffs, dtype=complex)
    v = perturbed_eigvectors(h_sys, pert)
    return DensityMatrix(v @ p @ dagger(v), (h_sys.dim,))


def first_order_correction(coeffs: np.ndarray, h_sys: Hamiltonian, h_prime: Hamiltonian) -> np.ndarray:
    """[G~, P], rho-tilde = [G, rho] in the eigenbasis of ``h_sys`` for rho's P = ``coeffs``."""
    p = np.asarray(coeffs, dtype=complex)
    g = first_order_generator(h_sys, h_prime)
    return g @ p - p @ g


def perturbed_state_first_order(coeffs: np.ndarray, h_sys: Hamiltonian,
                                pert: PerturbationSpec) -> np.ndarray:
    """rho + eps [G, rho]: Hermitian, unit trace, possibly O(eps^2) indefinite.

    Returned as a raw matrix because the first-order truncation can dip a
    hair below positivity.
    """
    p = coeffs + pert.epsilon * first_order_correction(coeffs, h_sys, pert.h_prime)
    return h_sys.eigvecs @ p @ dagger(h_sys.eigvecs)
