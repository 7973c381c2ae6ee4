"""Thermal channels on small system+bath pairs.

Builds Hamiltonians with cached eigensystems, Gibbs states, global unitaries
that are block diagonal over total-energy eigenspaces, and the channel
``rho -> Tr_bath[U (rho (x) tau) U^dag]``.  Also hosts the Markovianity
constraint report (tensor-product deviation plus the amplitude/phase residual
system) and non-degenerate first-order perturbation of the system state.

Conventions: k_B = hbar = 1, energies in the problem's energy unit, inverse
temperature beta = 1/T in the same unit.  System levels are indexed ascending
in energy (index 0 is the ground level) everywhere a level index appears.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (
    STATE_TOL,
    DensityMatrix,
    dagger,
    eigh,
    partial_trace,
    reduce_mod_2pi,
    trace_norm,
    trace_out_second,
)

# Total-energy values closer than this are grouped into one degenerate block.
DEGENERACY_TOL = 1e-8

# Absolute tolerance of U U^dag = I for block and family unitaries.
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
        w, v = eigh(m)
        return cls(m, w, v)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def unitary_eigvecs(self) -> bool:
        """True iff ``eigvecs`` is unitary within ``UNITARY_TOL``; checked once,
        since the cached arrays are read-only."""
        v = self.eigvecs
        return bool(np.allclose(dagger(v) @ v, np.eye(self.dim), atol=UNITARY_TOL))

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
    """Thermal state e^{-beta H}/Z together with its source Hamiltonian."""

    state: DensityMatrix
    beta: float
    hamiltonian: Hamiltonian

    @property
    def level_probabilities(self) -> np.ndarray:
        """Boltzmann weight of each cached energy level (ascending order)."""
        return _boltzmann_weights(self.hamiltonian.energies, self.beta)


def _boltzmann_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    if math.isinf(beta):
        w = np.zeros(len(energies))
        w[0] = 1.0
        return w
    shifted = -beta * (energies - energies.min())
    w = np.exp(shifted)
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
    return GibbsState(DensityMatrix._derived((v * w) @ dagger(v), (h.dim,)), float(beta), h)


def total_hamiltonian(h_sys: Hamiltonian, h_bath: Hamiltonian) -> Hamiltonian:
    """Kronecker sum H (x) I + I (x) H with the exact product eigenbasis cached.

    Levels are sorted by total energy ascending, ties broken by (system
    level, bath level), and the label bookkeeping is kept so degenerate
    eigenspaces stay expressed in product kets.
    """
    d1, d2 = h_sys.dim, h_bath.dim
    m = np.kron(h_sys.matrix, np.eye(d2)) + np.kron(np.eye(d1), h_bath.matrix)
    labels = [(i, r) for i in range(d1) for r in range(d2)]
    energies = np.array([h_sys.energies[i] + h_bath.energies[r] for i, r in labels])
    order = sorted(range(len(labels)), key=lambda k: (energies[k], labels[k]))
    # column i*d2 + r of the Kronecker product is the product ket |i>|r>
    vecs = np.kron(h_sys.eigvecs, h_bath.eigvecs)[:, order]
    return Hamiltonian(
        m,
        energies[order],
        vecs,
        parts=(h_sys, h_bath),
        product_labels=tuple(labels[k] for k in order),
    )


@dataclass(frozen=True, eq=False)
class EnergyBlockUnitary:
    """Unitary block diagonal over the total-energy eigenspaces of a Hamiltonian.

    ``matrix`` must be unitary, so every thermal operation on it is CPTP.  Public
    construction checks this to ``UNITARY_TOL``; ``MarkovianFamily.operation``
    stores members of a family whose V it checked once through :meth:`_derived`.
    """

    matrix: np.ndarray
    hamiltonian: Hamiltonian

    def __post_init__(self):
        if not np.allclose(self.matrix @ dagger(self.matrix), np.eye(self.dim), atol=UNITARY_TOL):
            raise ValueError("energy-block operator is not unitary")

    @classmethod
    def _derived(cls, matrix, hamiltonian) -> "EnergyBlockUnitary":
        """A unitary built from a checked unitary and unit phases, stored unchecked."""
        u = object.__new__(cls)
        object.__setattr__(u, "matrix", matrix)
        object.__setattr__(u, "hamiltonian", hamiltonian)
        return u

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    if not np.allclose(u @ dagger(u), np.eye(size), atol=UNITARY_TOL):
        raise ValueError("block parameter is not unitary within tolerance")
    return u


def build_block_unitary(h_total: Hamiltonian, block_params) -> EnergyBlockUnitary:
    """Assemble a global unitary from one unitary per total-energy eigenspace.

    ``block_params`` is a sequence aligned with ``h_total.energy_blocks()``:
    a bare phase alpha for a one-dimensional block (the block unitary is
    e^{-i alpha}), a ``(phases, basis)`` pair giving eigenphases in an
    explicit intra-block basis, or a full intra-block unitary matrix.  The
    result commutes with ``h_total`` by construction.  All bare phases enter
    through one product V diag(e^{-i alpha}) V^dag on their levels' cached
    eigenvectors V; a unit phase needs no unitarity check.
    """
    blocks = h_total.energy_blocks()
    if len(block_params) != len(blocks):
        raise ValueError(f"got {len(block_params)} block parameters for {len(blocks)} energy blocks")
    v = h_total.eigvecs
    u = np.zeros((h_total.dim, h_total.dim), dtype=complex)
    levels, phases = [], []
    for (_, idx), param in zip(blocks, block_params):
        if np.isscalar(param):
            if len(idx) != 1:
                raise ValueError(f"scalar phase given for a {len(idx)}-dimensional block")
            levels.append(idx[0])
            phases.append(reduce_mod_2pi(float(param)))
            continue
        basis = v[:, list(idx)]
        u += basis @ _coerce_block_unitary(param, len(idx)) @ dagger(basis)
    vs = v[:, levels]
    u += (vs * np.exp(-1j * np.array(phases))) @ dagger(vs)
    return EnergyBlockUnitary(u, h_total)


def commutator_norm(u, h) -> float:
    """Trace norm of U H - H U; zero certifies an energy-preserving unitary."""
    um = u.matrix if isinstance(u, EnergyBlockUnitary) else np.asarray(u, dtype=complex)
    hm = h.matrix if isinstance(h, Hamiltonian) else np.asarray(h, dtype=complex)
    return trace_norm(um @ hm - hm @ um)


@dataclass(frozen=True, eq=False)
class ThermalOperation:
    """Global unitary plus bath Gibbs state, applied by conjugate-and-trace."""

    unitary: EnergyBlockUnitary
    bath: GibbsState
    d_sys: int
    d_bath: int

    def __post_init__(self):
        if self.unitary.dim != self.d_sys * self.d_bath:
            raise ValueError("unitary dimension does not match d_sys * d_bath")
        if self.bath.hamiltonian.dim != self.d_bath:
            raise ValueError("bath dimension mismatch")

    @property
    def system_hamiltonian(self) -> Hamiltonian:
        parts = self.unitary.hamiltonian.parts
        if parts is None:
            raise ValueError("unitary was not built from a system+bath total Hamiltonian")
        return parts[0]


def thermal_operation(unitary: EnergyBlockUnitary, bath: GibbsState) -> ThermalOperation:
    d_bath = bath.hamiltonian.dim
    if unitary.dim % d_bath:
        raise ValueError("bath dimension does not divide the unitary dimension")
    return ThermalOperation(unitary, bath, unitary.dim // d_bath, d_bath)


def evolve(u: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Joint operator U (x (x) tau) U^dag for the global unitary ``u`` and the
    bath state ``tau``.

    ``x`` is a system operator or a stack (..., d_sys, d_sys) of them; ``u``
    is one unitary or a stack (..., d, d) whose leading axes broadcast
    against the stack of ``x``.
    """
    x = np.asarray(x, dtype=complex)
    d = u.shape[-1]
    d_sys = d // tau.shape[0]
    if x.shape[-2:] != (d_sys, d_sys):
        raise ValueError(f"operator dimension mismatch: {x.shape} vs system dimension {d_sys}")
    # x (x) tau by broadcasting: axes (..., sys, bath, sys, bath)
    joint = (x[..., :, None, :, None] * tau[:, None, :]).reshape(*x.shape[:-2], d, d)
    return u @ joint @ dagger(u)


def apply(op: ThermalOperation, states: DensityMatrix | Sequence[DensityMatrix]
          ) -> DensityMatrix | list[DensityMatrix]:
    """Joint state U (rho (x) tau) U^dag of the system state ``states``; its
    marginals come from partial_trace.

    Given a sequence of system states instead, returns the list of their
    joint states from one evolution of their (n, d_sys, d_sys) stack; one
    state is the one-row case of the same computation.
    """
    rows = [states] if isinstance(states, DensityMatrix) else states
    for rho in rows:
        if rho.dim != op.d_sys:
            raise ValueError(f"system state dimension {rho.dim} != {op.d_sys}")
    joint = evolve(op.unitary.matrix, op.bath.state.matrix, np.array([rho.matrix for rho in rows]))
    joint = 0.5 * (joint + dagger(joint))
    out = [DensityMatrix._derived(m, (op.d_sys, op.d_bath)) for m in joint]
    return out[0] if isinstance(states, DensityMatrix) else out


def apply_to_operator(op: ThermalOperation, x: np.ndarray) -> np.ndarray:
    """Linear extension of the channel to system operators, or stacks of them."""
    return trace_out_second(evolve(op.unitary.matrix, op.bath.state.matrix, x), op.d_sys, op.d_bath)


# ---------------------------------------------------------------------------
# Markovianity constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MtoConstraintReport:
    """Outcome of the Markovianity check for one unitary and input state.

    ``joint_product_deviation`` is the trace distance between the evolved
    joint state and (evolved system) (x) tau.  ``amplitude_residuals`` maps
    (i, j, bath level) to the violation of the transition-amplitude
    constraint, ``phase_residuals`` maps system pairs (i, j) to the spread of
    the diagonal phase products across bath levels; ``None`` marks a
    combination the constraint system does not constrain (missing bath level,
    or degenerate Bohr spectrum for the off-diagonal law).
    """

    is_markovian: bool
    joint_product_deviation: float
    amplitude_residuals: dict[tuple[int, int, int], float | None]
    phase_residuals: dict[tuple[int, int], float | None]

    def max_amplitude_residual(self) -> float:
        vals = [v for v in self.amplitude_residuals.values() if v is not None]
        return max(vals, default=0.0)

    def max_phase_residual(self) -> float:
        vals = [v for v in self.phase_residuals.values() if v is not None]
        return max(vals, default=0.0)

    def residuals_markovian(self) -> bool:
        return (self.max_amplitude_residual() <= STATE_TOL
                and self.max_phase_residual() <= STATE_TOL)


def _bath_levels(h_sys: Hamiltonian, h_bath: Hamiltonian) -> np.ndarray:
    """r'[i, j, r]: the unique bath level at E_r + E_i - E_j, or -1 if there
    is none or more than one within ``DEGENERACY_TOL``."""
    omega = h_sys.energies[:, None] - h_sys.energies[None, :]
    target = h_bath.energies[None, None, :] + omega[:, :, None]
    hits = np.abs(h_bath.energies - target[..., None]) <= DEGENERACY_TOL
    return np.where(hits.sum(axis=-1) == 1, hits.argmax(axis=-1), -1)


def transition_amplitudes(op: ThermalOperation) -> dict[tuple[int, int, int], complex | None]:
    """Matrix elements <j, r'| U |i, r> with r' the bath level at E_r + E_i - E_j.

    Keys are (i, j, r) over system levels i, j and bath levels r; the value is
    ``None`` when no unique bath level sits at the required energy.
    """
    return _transition_amplitudes(op, _bath_levels(op.system_hamiltonian, op.bath.hamiltonian))


def _transition_amplitudes(op: ThermalOperation, levels: np.ndarray) -> dict:
    """:func:`transition_amplitudes` on a level table ``_bath_levels`` returned."""
    h_sys = op.system_hamiltonian
    h_bath = op.bath.hamiltonian
    # U in the product eigenbasis: column i*d_bath + r is the ket |i, r>
    v = np.kron(h_sys.eigvecs, h_bath.eigvecs)
    u = dagger(v) @ op.unitary.matrix @ v
    d_bath = h_bath.dim
    return {(i, j, r): None if rp < 0 else complex(u[j * d_bath + rp, i * d_bath + r])
            for (i, j, r), rp in np.ndenumerate(levels)}


def mto_check(op: ThermalOperation, rho_sys: DensityMatrix) -> MtoConstraintReport:
    """Check Markovianity of one application of the channel.

    The direct verdict compares the evolved joint state against the tensor
    product of its marginal with the untouched bath.  The residual system
    re-derives the same verdict from the unitary parameters alone: the
    squared transition amplitudes must match the Boltzmann-weighted
    transition probabilities, and for a system with a non-degenerate Bohr
    spectrum the diagonal phase products must be independent of the bath
    level.
    """
    joint = apply(op, rho_sys)
    product = np.kron(partial_trace(joint, 0).matrix, op.bath.state.matrix)
    deviation = 0.5 * trace_norm(joint.matrix - product)

    h_sys = op.system_hamiltonian
    h_bath = op.bath.hamiltonian
    p_bath = op.bath.level_probabilities
    levels = _bath_levels(h_sys, h_bath)
    amps = _transition_amplitudes(op, levels)

    # P(i -> j) from the available amplitudes.
    pij = np.zeros((h_sys.dim, h_sys.dim))
    for (i, j, r), a in amps.items():
        if a is not None:
            pij[i, j] += p_bath[r] * abs(a) ** 2
    amplitude_residuals = {
        (i, j, r): None if a is None or p_bath[r] <= 0
        else abs(abs(a) ** 2 - p_bath[levels[i, j, r]] * pij[i, j] / p_bath[r])
        for (i, j, r), a in amps.items()}

    phase_residuals: dict[tuple[int, int], float | None] = {}
    bohr_ok = h_sys.bohr_nondegenerate()
    for i in range(h_sys.dim):
        for j in range(i + 1, h_sys.dim):
            if not bohr_ok:
                phase_residuals[(i, j)] = None
                continue
            products = []
            for r in range(h_bath.dim):
                ai = amps[(i, i, r)]
                aj = amps[(j, j, r)]
                if ai is None or aj is None:
                    continue
                products.append((r, ai * aj.conjugate()))
            if not products:
                phase_residuals[(i, j)] = None
                continue
            lam = sum(p_bath[r] * z for r, z in products)
            phase_residuals[(i, j)] = max(abs(z - lam) for _, z in products)

    return MtoConstraintReport(
        is_markovian=bool(deviation <= STATE_TOL),
        joint_product_deviation=float(deviation),
        amplitude_residuals=amplitude_residuals,
        phase_residuals=phase_residuals,
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


def perturbed_hamiltonian(h_sys: Hamiltonian, pert: PerturbationSpec) -> Hamiltonian:
    """H + epsilon H' with a fresh eigendecomposition."""
    if pert.h_prime.dim != h_sys.dim:
        raise ValueError("perturbation dimension mismatch")
    return Hamiltonian.from_matrix(h_sys.matrix + pert.epsilon * pert.h_prime.matrix)


def _require_nondegenerate(h: Hamiltonian):
    gaps = np.diff(h.energies)
    if len(gaps) and gaps.min() <= DEGENERACY_TOL:
        raise ValueError("degenerate spectrum: non-degenerate perturbation theory does not apply")


def first_order_generator(h_sys: Hamiltonian, h_prime: Hamiltonian) -> np.ndarray:
    """Anti-Hermitian G with |i'> = (I + eps G)|i> to first order.

    In the eigenbasis of ``h_sys``: G[k, i] = <k|H'|i> / (E_i - E_k) off the
    diagonal, zero on it.  Returned in the computational representation.
    """
    _require_nondegenerate(h_sys)
    v = h_sys.eigvecs
    hp = dagger(v) @ h_prime.matrix @ v
    e = h_sys.energies
    g = np.divide(hp, e[None, :] - e[:, None], out=np.zeros_like(hp),
                  where=~np.eye(h_sys.dim, dtype=bool))
    return v @ g @ dagger(v)


def perturbed_eigvectors(h_sys: Hamiltonian, pert: PerturbationSpec) -> np.ndarray:
    """Exact eigenvectors of H + eps H', matched to the unperturbed levels.

    Column ``i`` continues unperturbed level ``i``: it is the perturbed
    eigenvector of maximal overlap, with its phase aligned so the overlap is
    real positive.  Matching with squared overlap at or below 1/2, or two
    levels claiming the same perturbed vector, is an error.
    """
    hp = perturbed_hamiltonian(h_sys, pert)
    overlaps = dagger(h_sys.eigvecs) @ hp.eigvecs
    d = h_sys.dim
    cols = np.zeros((d, d), dtype=complex)
    taken: set[int] = set()
    for i in range(d):
        j = int(np.argmax(np.abs(overlaps[i, :])))
        ov = overlaps[i, j]
        if abs(ov) ** 2 <= 0.5 or j in taken:
            raise ValueError("perturbation too strong: eigenvector matching ambiguous")
        taken.add(j)
        cols[:, i] = hp.eigvecs[:, j] * (ov.conjugate() / abs(ov))
    return cols


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
    """The operator rho-tilde = [G, rho]; Hermitian and traceless."""
    rho = h_sys.eigvecs @ np.asarray(coeffs, dtype=complex) @ dagger(h_sys.eigvecs)
    g = first_order_generator(h_sys, h_prime)
    return g @ rho - rho @ g


def perturbed_state_first_order(coeffs: np.ndarray, h_sys: Hamiltonian,
                                pert: PerturbationSpec) -> np.ndarray:
    """rho + eps [G, rho]: Hermitian, unit trace, possibly O(eps^2) indefinite.

    Returned as a raw matrix because the first-order truncation can dip a
    hair below positivity.
    """
    rho = h_sys.eigvecs @ np.asarray(coeffs, dtype=complex) @ dagger(h_sys.eigvecs)
    return rho + pert.epsilon * first_order_correction(coeffs, h_sys, pert.h_prime)
