"""Non-Markovianity measures for thermal channels and their perturbation response.

Four measures are provided: logarithmic negativity of the evolved joint
state, quantum mutual information across the system/bath split, quantum
discord with the measurement on the first (qubit) factor, and the trace-norm
distance from the channel to the nearest member of a constrained Markovian
family, evaluated through Choi states.  Alongside them live the
first-order response quantities: the exact mutual-information response
coefficient, the relative-entropy response evaluator with its trace-log
expansion check, and the distance-response upper bound.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import thermal
from .linalg import (
    STATE_TOL,
    SUPPORT_CUTOFF,
    DensityMatrix,
    dagger,
    eigvalsh,
    entropy_of_spectrum,
    matrix_log2_on_support,
    spectrum_entropy,
    trace_norm,
    trace_out_first,
    trace_out_second,
)
from .optimize import OptimizerConfig, PhaseManifold, constrained_phase_manifold, minimize
from .thermal import EnergyBlockUnitary, PerturbationSpec, ThermalOperation


@dataclass(frozen=True)
class MeasureValue:
    """A named measure evaluation; optimiser-backed kinds carry diagnostics."""

    kind: str
    value: float
    diagnostics: dict | None = None


# ---------------------------------------------------------------------------
# State-based measures
# ---------------------------------------------------------------------------

def _joint_stack(states: Sequence[DensityMatrix]) -> tuple[np.ndarray, tuple[int, int]]:
    """The (n, d, d) stack of joint states that share one two-factor dims, and the dims."""
    dims = states[0].dims
    if len(dims) != 2:
        raise ValueError(f"bad factorization: need exactly two factors, got {dims}")
    if any(rho.dims != dims for rho in states):
        raise ValueError("joint states must share their dims")
    return np.array([rho.matrix for rho in states]), dims


def _joint_entropy_array(joint_entropies, states: Sequence[DensityMatrix]) -> np.ndarray:
    """The caller's S(AB) values as an array, one entry per state."""
    values = np.asarray(joint_entropies, dtype=float)
    if values.shape != (len(states),):
        raise ValueError(f"joint_entropies has shape {values.shape}, "
                         f"expected one entry per state ({len(states)},)")
    return values


def log_negativities(states: Sequence[DensityMatrix]) -> list[MeasureValue]:
    """:func:`log_negativity` of each joint state, from one ``eigvalsh`` of the
    stack of partial transposes: each is Hermitian, so the sum of its
    |eigenvalues| is its trace norm."""
    joints, (d1, d2) = _joint_stack(states)
    pt = joints.reshape(-1, d1, d2, d1, d2).transpose(0, 3, 2, 1, 4).reshape(joints.shape)
    values = np.log2(np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1))
    return [MeasureValue("log_negativity", float(v)) for v in values]


def mutual_informations(states: Sequence[DensityMatrix], joint_entropies) -> list[MeasureValue]:
    """:func:`mutual_information` of each joint state, from one ``eigvalsh`` of
    each marginal stack; S(joint) of each state is its entry of
    ``joint_entropies``, which the caller knows.  A joint state U (rho (x) tau)
    U^dag has the spectrum {p_i q_r} of its inputs, so a sweep passes the
    entropy of that product spectrum and diagonalises no joint state."""
    joints, (d1, d2) = _joint_stack(states)
    values = (entropy_of_spectrum(trace_out_second(joints, d1, d2))
              + entropy_of_spectrum(trace_out_first(joints, d1, d2))
              - _joint_entropy_array(joint_entropies, states))
    return [MeasureValue("mutual_information", float(v)) for v in values]


def log_negativity(rho_joint: DensityMatrix) -> MeasureValue:
    """log2 of the trace norm of the partial transpose on the first factor.

    Zero on every PPT state, in particular on all separable states of 2x2
    and 2x3 systems.
    """
    return log_negativities([rho_joint])[0]


def mutual_information(rho_joint: DensityMatrix) -> MeasureValue:
    """S(first) + S(second) - S(joint), in bits."""
    return mutual_informations([rho_joint], [entropy_of_spectrum(rho_joint.matrix)])[0]


def _bloch_blocks(rho: np.ndarray, d2: int) -> np.ndarray:
    """P_k = Tr_A[(sigma_k (x) I) rho] / 2 for sigma = (I, X, Y, Z) on the qubit,
    as (n, 4, d2, d2) for a stack of joint states ``rho`` (n, 2 d2, 2 d2)."""
    r = rho.reshape(-1, 2, d2, 2, d2)
    r00, r01, r10, r11 = r[:, 0, :, 0], r[:, 0, :, 1], r[:, 1, :, 0], r[:, 1, :, 1]
    return 0.5 * np.stack([r00 + r11, r01 + r10, 1j * (r01 - r10), r00 - r11], axis=1)


def _measured_conditional_entropy(blocks: np.ndarray, angles: np.ndarray,
                                  owner: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_B^i) for measuring {|psi><psi|, I - |psi><psi|} on the qubit,
    one value per (theta, phi) row of ``angles``, of the state whose
    :func:`_bloch_blocks` are ``blocks[owner]``.

    With n the Bloch vector of psi, the unnormalised outcomes are
    P_0 +- n . (P_1, P_2, P_3) and their probabilities the traces of those; the
    spectra of the unnormalised outcomes, from one :func:`linalg.eigvalsh` of
    their stack (closed-form roots for a qutrit second factor), are
    divided by the probabilities.  An outcome of probability at most 1e-14
    contributes nothing."""
    theta, phi = angles[:, 0], angles[:, 1]
    n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                 axis=1)
    tilt = (n[:, 0, None, None] * blocks[owner, 1] + n[:, 1, None, None] * blocks[owner, 2]
            + n[:, 2, None, None] * blocks[owner, 3])
    half = blocks[owner, 0]
    subs = np.stack([half + tilt, half - tilt], axis=1)
    t = np.trace(blocks, axis1=-2, axis2=-1).real[owner]
    tilt_t = n[:, 0] * t[:, 1] + n[:, 1] * t[:, 2] + n[:, 2] * t[:, 3]
    prob = np.stack([t[:, 0] + tilt_t, t[:, 0] - tilt_t], axis=1)
    kept = prob > 1e-14
    entropy = spectrum_entropy(eigvalsh(subs) / np.where(kept, prob, 1.0)[..., None])
    total = np.zeros(len(angles))
    for k in range(2):
        total += np.where(kept[:, k], prob[:, k] * entropy[:, k], 0.0)
    return total


def discord(states: Sequence[DensityMatrix], joint_entropies,
            cfg: OptimizerConfig | None = None) -> list[MeasureValue]:
    """Quantum discord of each joint state, with the measurement on the first
    (qubit) factor.

    Minimises the measured conditional entropy over rank-one projective
    measurements of the measured qubit via grid-seeded multi-start search,
    then returns S(A) - S(AB) + min_meas sum_i p_i S(rho_B^i), not clamped at
    zero.  S(AB) of each state is its entry of ``joint_entropies``, which the
    caller knows, as for :func:`mutual_informations`.  The states share dims
    and one lockstep search, in which each state is its own problem; each value
    equals that of a search for its state alone.
    """
    joints, (d1, d2) = _joint_stack(states)
    if d1 != 2:
        raise ValueError("unsupported measured dimension: first factor must be a qubit")
    s_ab = _joint_entropy_array(joint_entropies, states)
    cfg = cfg or OptimizerConfig(grid_resolution=24)
    blocks = _bloch_blocks(joints, d2)

    def objective(angles, owner):
        return _measured_conditional_entropy(blocks, angles, owner)

    results = minimize(objective, [(0.0, np.pi), (0.0, 2 * np.pi)], cfg, periodic=[False, True],
                       problems=len(states))
    # S(A) - S(AB) of every state
    offsets = entropy_of_spectrum(trace_out_second(joints, d1, d2)) - s_ab
    values = []
    for offset, result in zip(offsets, results):
        diags = {
            "theta": float(result.best_point[0]),
            "phi": float(result.best_point[1]),
            "converged": result.converged,
            "evaluations": result.evaluations,
        }
        values.append(MeasureValue("discord", float(offset + result.best_value), diags))
    return values


# ---------------------------------------------------------------------------
# Choi states and the distance measure
# ---------------------------------------------------------------------------

def maximally_entangled_input(h_sys: thermal.Hamiltonian) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |i> (x) |i> as a raw matrix, pairing the
    system eigenvectors |i> of ``h_sys`` with a fixed ancilla basis."""
    phi = h_sys.eigvecs.reshape(-1)
    phi = phi / np.linalg.norm(phi)
    return np.outer(phi, phi.conj())


def _apply_on_system_factor(u: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(channel (x) identity) on an operator ``x`` of the system+ancilla pair,
    for the thermal operation with global unitary ``u`` on bath state ``tau``.

    The (system, ancilla, system, ancilla) tensor is viewed as a stack of
    system operators indexed by the ancilla pair, mapped in one call.
    """
    d_bath = tau.shape[0]
    d = u.shape[0] // d_bath
    blocks = x.reshape(d, d, d, d).transpose(1, 3, 0, 2)
    out = trace_out_second(thermal.evolve(u, tau, blocks), d, d_bath)
    # axes (ancilla, ancilla, system, system) back to (system, ancilla, system, ancilla)
    return out.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def choi_state(op: ThermalOperation) -> DensityMatrix:
    """Choi state (channel (x) identity) |Phi><Phi| of a thermal operation, on
    the :func:`maximally_entangled_input` of its system Hamiltonian."""
    out = _apply_on_system_factor(op.unitary.matrix, op.bath.state.matrix,
                                  maximally_entangled_input(op.system_hamiltonian))
    out = 0.5 * (out + dagger(out))
    return DensityMatrix._derived(out, (op.d_sys, op.d_sys))


@dataclass(frozen=True)
class MarkovianFamily:
    """Phase-parametrised Markovian channels sharing the target's bath.

    Members are the unitaries V diag(e^{-i alpha}) V^dag on the cached product
    eigenvectors V of a (non-degenerate) system+bath total Hamiltonian, checked
    unitary once, with phases confined to the constraint manifold that keeps
    the evolved joint state in product form.

    In the system eigenbasis a member acts on system operators as the Schur
    multiplier X -> X o M with M[i, j] = sum_r p_r e^{-i (alpha_ir - alpha_jr)},
    where alpha_ir is the phase of product level (system i, bath r) and p_r
    the bath weights.  Shifting every alpha_ir of one bath level r by the same
    amount leaves M unchanged, so members are searched on the quotient by
    these shifts: the differences alpha_ir - alpha_{i0 r} to a reference system
    level i0, whose manifold is ``quotient``.  The relation carries over to the
    differences when every bath level's coefficients sum to zero; otherwise
    such a shift can always satisfy it, and ``quotient`` is the whole torus of
    differences.
    """

    h_total: thermal.Hamiltonian
    bath: thermal.GibbsState
    manifold: PhaseManifold
    quotient: PhaseManifold = field(init=False, repr=False, compare=False)
    _levels: np.ndarray = field(init=False, repr=False, compare=False)
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _shift: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = self.h_total.energy_blocks()
        if any(len(idx) > 1 for _, idx in blocks):
            raise ValueError("Markovian phase family requires a non-degenerate total spectrum")
        if self.manifold.dim != len(blocks):
            raise ValueError("manifold dimension must match the number of energy levels")
        if not self.h_total.unitary_eigvecs:
            raise ValueError("total Hamiltonian eigenvectors are not unitary")
        parts = self.h_total.parts
        if parts is None or not np.array_equal(parts[1].eigvecs, self.bath.hamiltonian.eigvecs):
            raise ValueError("family bath must be a Gibbs state of the total Hamiltonian's bath")

        labels = np.array(self.h_total.product_labels)
        d_sys, d_bath = parts[0].dim, parts[1].dim
        grid = np.empty((d_sys, d_bath), dtype=int)  # the level of (system i, bath r)
        grid[labels[:, 0], labels[:, 1]] = np.arange(len(labels))
        c = np.asarray(self.manifold.coefficients)
        e = self.manifold.eliminated
        # the reference level must not hold the eliminated phase, or a kept
        # relation would lose its unit coefficient
        ref = 0 if e is None else (labels[e, 0] + 1) % d_sys
        levels = np.flatnonzero(labels[:, 0] != ref)
        sums = np.bincount(labels[:, 1], weights=c, minlength=d_bath)
        kept = e is not None and not sums.any()
        quotient = constrained_phase_manifold(len(levels), c[levels] if kept else None,
                                              self.manifold.offset if kept else 0.0)
        # lift: a shift of bath level r moves the relation by sums[r] per radian
        shift = np.zeros(len(labels))
        if e is not None and not kept:
            r = int(np.argmax(np.abs(sums)))
            shift[labels[:, 1] == r] = 1.0 / sums[r]
        for name, value in (("quotient", quotient), ("_levels", levels), ("_grid", grid),
                            ("_weights", self.bath.level_probabilities), ("_shift", shift)):
            object.__setattr__(self, name, value)

    def _differences(self, q) -> np.ndarray:
        """Full phases with the reference level's row at zero, for quotient
        points (quotient.free_dim,) or row-wise for (n, quotient.free_dim)."""
        q = np.asarray(q, dtype=float)
        alpha = np.zeros(q.shape[:-1] + (self.manifold.dim,))
        alpha[..., self._levels] = self.quotient.embed(q)
        return alpha

    def multipliers(self, q, weights=None) -> np.ndarray:
        """The Schur multipliers M (d_sys, d_sys) of the members at quotient
        points, row-wise for (n, quotient.free_dim).  ``weights`` (n, d_bath)
        replaces the bath weights row by row, giving the members of families
        that differ from this one only in their bath temperature."""
        w = self._weights if weights is None else np.asarray(weights)[..., None, :]
        e = np.exp(-1j * self._differences(q)[..., self._grid])
        return (e * w) @ np.swapaxes(e.conj(), -1, -2)

    def lift(self, q) -> np.ndarray:
        """Free phases on ``manifold`` of a member with the multiplier of the
        quotient point ``q``, row-wise for (n, quotient.free_dim)."""
        alpha = self._differences(q)
        miss = self.manifold.offset - alpha @ np.asarray(self.manifold.coefficients)
        alpha = alpha + miss[..., None] * self._shift
        e = self.manifold.eliminated
        return alpha if e is None else np.delete(alpha, e, axis=-1)

    def operation(self, free_phases) -> ThermalOperation:
        """The member for free phases (free_dim,) of ``manifold``."""
        v = self.h_total.eigvecs
        u = (v * np.exp(-1j * self.manifold.embed(free_phases))) @ dagger(v)
        return thermal.thermal_operation(EnergyBlockUnitary._derived(u, self.h_total), self.bath)


SAMPLED_STATES = 16  # random input states of the distance measure's spot check


def _sampled_state_check(op: ThermalOperation, op_m: ThermalOperation, choi_value: float) -> dict:
    """Spot-check that no sampled input state beats the Choi-state distance."""
    rng = np.random.default_rng(71530)
    d = op.d_sys
    states = np.empty((SAMPLED_STATES, d, d), dtype=complex)
    for k in range(SAMPLED_STATES):
        if k % 2 == 0:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
        else:
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a @ dagger(a)
            rho /= np.trace(rho).real
        states[k] = rho
    diff = thermal.apply_to_operator(op, states) - thermal.apply_to_operator(op_m, states)
    worst = float(np.max(trace_norm(diff)))
    return {"sampled_max": worst, "sampled_exceeds_choi": bool(worst > choi_value + 1e-6)}


class _FamilyProblem(NamedTuple):
    """One search over a Markovian family: minimise (``sign`` +1) or maximise
    (``sign`` -1) ||(channel - member) (x) id applied to x||_1 over its members,
    for the channel ``op``.  A minimised problem's best member is spot-checked
    against random input states."""

    op: ThermalOperation
    family: MarkovianFamily
    x: np.ndarray
    sign: float


def _distance_problem(op: ThermalOperation, family: MarkovianFamily) -> _FamilyProblem:
    return _FamilyProblem(op, family, maximally_entangled_input(op.system_hamiltonian), 1.0)


def _bound_problem(op: ThermalOperation, family: MarkovianFamily,
                   h_prime: thermal.Hamiltonian) -> _FamilyProblem:
    return _FamilyProblem(op, family, response_direction(op.system_hamiltonian, h_prime), -1.0)


def _family_search(problems: Sequence[_FamilyProblem], cfg: OptimizerConfig | None):
    """One lockstep search over the problems' common quotient, each problem
    its own; minimises sign * ||...||_1 per problem.

    Each target image and input is rotated into the system eigenbasis once;
    there a member's image is the input times its Schur multiplier on the
    system indices.  The families share the total Hamiltonian and manifold,
    so they differ only in their bath weights, which each row of a batch
    takes from its problem.  The difference is Hermitian, so its trace norm
    is the sum of |eigenvalues|, for all rows of a batch in one ``eigvalsh``."""
    cfg = cfg or OptimizerConfig(grid_resolution=8)
    family = problems[0].family
    if any(p.family.h_total is not family.h_total or p.family.manifold != family.manifold
           for p in problems):
        raise ValueError("family searches must share the total Hamiltonian and the manifold")
    d = problems[0].op.d_sys
    v = family.h_total.parts[0].eigvecs

    def rotated(y):
        return np.einsum("ki,kalb,lj->iajb", v.conj(), y.reshape(d, d, d, d), v)

    targets = np.array([rotated(_apply_on_system_factor(p.op.unitary.matrix,
                                                        p.op.bath.state.matrix, p.x))
                        for p in problems])
    inputs = np.array([rotated(p.x) for p in problems])
    weights = np.array([p.family._weights for p in problems])
    signs = np.array([p.sign for p in problems])

    def objective(q, owner):
        m = family.multipliers(q, weights[owner])
        diff = targets[owner] - inputs[owner] * m[:, :, None, :, None]
        return signs[owner] * np.abs(np.linalg.eigvalsh(diff.reshape(-1, d * d, d * d))).sum(axis=-1)

    n = family.quotient.free_dim
    return minimize(objective, [(0.0, 2 * np.pi)] * n, cfg, periodic=[True] * n,
                    problems=len(problems))


def _family_values(problems: Sequence[_FamilyProblem],
                   cfg: OptimizerConfig | None) -> list[MeasureValue]:
    """Per problem, its extremal norm with the best member's phases, from one
    :func:`_family_search`: a ``choi_distance`` value for a minimised problem,
    the ``chi_norm_max`` of a bound for a maximised one."""
    values = []
    for p, result in zip(problems, _family_search(problems, cfg)):
        free = p.family.lift(result.best_point)
        phases = [float(a) for a in p.family.manifold.embed(free)]
        value = float(p.sign * result.best_value)
        if p.sign < 0:
            values.append(MeasureValue("chi_norm_max", value, {
                "converged": result.converged, "evaluations": result.evaluations,
                "phases": phases}))
            continue
        diags = {"phases": phases, "converged": result.converged,
                 "evaluations": result.evaluations,
                 **_sampled_state_check(p.op, p.family.operation(free), value)}
        values.append(MeasureValue("choi_distance", value, diags))
    return values


def _bounds(chi: MeasureValue, d: int, epsilons) -> tuple[list[float], dict]:
    """(eps/d) max ||chi||_1 per eps, with the bound search's diagnostics."""
    return [eps / d * chi.value for eps in epsilons], chi.diagnostics


def distance_measure(op: ThermalOperation, family: MarkovianFamily,
                     cfg: OptimizerConfig | None = None) -> MeasureValue:
    """Distance from the channel to the nearest member of a Markovian family.

    The maximisation over input states is carried by the maximally entangled
    Choi input on the system eigenvectors; the minimisation over the family
    runs on its constraint manifold.  Best-found parameters and convergence
    go into diagnostics, along with a sampled sanity check that no random
    input state exceeds the Choi-state value.
    """
    return _family_values([_distance_problem(op, family)], cfg)[0]


# ---------------------------------------------------------------------------
# First-order response quantities
# ---------------------------------------------------------------------------

def _check_support(label: str, direction: np.ndarray, state: np.ndarray, flags: dict):
    """Support check of ``direction`` against ``state``; returns
    ``np.linalg.eigh(state)``.  The kernel projector is formed only when some
    eigenvalue lies at or below ``SUPPORT_CUTOFF``."""
    w, v = np.linalg.eigh(state)
    if w[0] <= SUPPORT_CUTOFF:
        vs = v[:, w > SUPPORT_CUTOFF]
        kernel = np.eye(len(w), dtype=complex) - vs @ dagger(vs)
        if np.max(np.abs(kernel)) >= STATE_TOL:
            flags[label] = True
            if trace_norm(kernel @ direction @ kernel) > STATE_TOL:
                raise ValueError("theta undefined at this point: response leaves the state's support")
    return w, v


def _response_bar(x: np.ndarray, w: np.ndarray, v: np.ndarray, q: np.ndarray) -> float:
    """Tr[(x (x) tau)(I + log2(A (x) tau))] for A = v diag(w) v^dag and a state
    tau of spectrum ``q``, with the support convention: Tr x + sum over
    w_k q_r > SUPPORT_CUTOFF of q_r log2(w_k q_r) (v^dag x v)_kk.  With
    q = (1,) it is Tr[x (I + log2 A)]."""
    wq = np.multiply.outer(w, q)
    if wq.min() < -SUPPORT_CUTOFF:
        raise ValueError(f"theta undefined at this point: negative eigenvalue {wq.min()}")
    on = wq > SUPPORT_CUTOFF
    diagonal = np.sum(v.conj() * (x @ v), axis=0).real
    return float(np.trace(x).real + np.log2(wq[on]) @ np.multiply.outer(diagonal, q)[on])


def theta_lambda(op: ThermalOperation, rho_coeffs, pert: PerturbationSpec,
                 with_diagnostics: bool = False):
    """Exact first-order response of the mutual information to the perturbation.

    Independent of epsilon: it is built from the perturbing operator, the
    input coefficients and the channel only.  Uses the support convention for
    the logarithms and refuses inputs whose response has weight outside the
    support of the corresponding evolved state.  The evolved state and the
    evolved response come from one evolution of their stack, for their
    marginals.  The joint bar needs no joint state: a unitary keeps the
    spectrum {p_i q_r} of rho (x) tau, with p the spectrum of rho and q the
    bath weights, so it comes from rho's d_sys eigendecomposition.  The joint
    support is deficient iff some p_i q_r is at or below ``SUPPORT_CUTOFF``,
    and rho-tilde (x) tau lies in supp rho (x) supp tau iff rho-tilde lies in
    supp rho, so the response is checked against rho.
    """
    h_sys = op.system_hamiltonian
    rho = thermal.state_from_level_coeffs(h_sys, rho_coeffs)
    rho_tilde = thermal.first_order_correction(rho_coeffs, h_sys, pert.h_prime)

    pair = thermal.evolve(op.unitary.matrix, op.bath.state.matrix, np.array([rho.matrix, rho_tilde]))
    joint, joint_dir = 0.5 * (pair[0] + dagger(pair[0])), pair[1]
    d_s, d_b = op.d_sys, op.d_bath
    q = op.bath.level_probabilities

    one = np.ones(1)  # the marginal bars weigh no bath spectrum
    flags, checked = {}, []  # every support is checked before any logarithm
    for name, x, state, weights in (
            ("system", trace_out_second(joint_dir, d_s, d_b), trace_out_second(joint, d_s, d_b),
             one),
            ("bath", trace_out_first(joint_dir, d_s, d_b), trace_out_first(joint, d_s, d_b), one),
            ("joint", rho_tilde, rho.matrix, q)):
        w, v = _check_support(f"{name}_support_deficient", x, state, flags)
        checked.append((x, w, v, weights))
    # a bath weight alone can leave the joint spectrum {p_i q_r} deficient
    if np.multiply.outer(checked[2][1], q).min() <= SUPPORT_CUTOFF:
        flags["joint_support_deficient"] = True
    a_bar, b_bar, c_bar = [_response_bar(*args) for args in checked]
    theta = c_bar - a_bar - b_bar
    if with_diagnostics:
        return theta, {"a_bar": a_bar, "b_bar": b_bar, "c_bar": c_bar, **flags}
    return theta


def x_lambda(op: ThermalOperation, rho_coeffs, sigma: DensityMatrix,
             pert: PerturbationSpec) -> float:
    """Relative-entropy response evaluated against one separable witness.

    Computes Tr[B (I + log2 A - log2 sigma)] with A the evolved joint state
    and B the evolved first-order correction; ``sigma`` must be full rank.
    """
    h_sys = op.system_hamiltonian
    if sigma.dim != op.d_sys * op.d_bath:
        raise ValueError("sigma dimension mismatch")
    if float(np.linalg.eigvalsh(sigma.matrix)[0]) <= SUPPORT_CUTOFF:
        raise ValueError("sigma must be full rank")
    rho = thermal.state_from_level_coeffs(h_sys, rho_coeffs)
    rho_tilde = thermal.first_order_correction(rho_coeffs, h_sys, pert.h_prime)
    u, tau = op.unitary.matrix, op.bath.state.matrix
    a = thermal.evolve(u, tau, rho.matrix)
    b = thermal.evolve(u, tau, rho_tilde)
    d = a.shape[0]
    log_ratio = matrix_log2_on_support(a) - matrix_log2_on_support(sigma.matrix)
    return float(np.trace(b @ (np.eye(d) + log_ratio)).real)


def expansion_lemma_residual(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """|Tr[(A+eB) log2(A+eB)] - Tr[A log2 A] - e Tr[B (I + log2 A)]|.

    The first-order trace-log expansion behind both response bounds; the
    residual is O(eps^2) for full-rank PSD A.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = a.shape[0]
    lhs = float(np.trace((a + eps * b) @ matrix_log2_on_support(a + eps * b)).real)
    base = float(np.trace(a @ matrix_log2_on_support(a)).real)
    linear = float(np.trace(b @ (np.eye(d) + matrix_log2_on_support(a))).real)
    return abs(lhs - base - eps * linear)


def response_direction(h_sys: thermal.Hamiltonian, h_prime: thermal.Hamiltonian) -> np.ndarray:
    """Perturbation-direction operator entering the distance response bound.

    Equals (G (x) I) K + K (G (x) I)^dag with K = sum_ij |ii><jj| built on the
    system eigenbasis paired with the ancilla basis; K is d times the
    maximally entangled projector.
    """
    d = h_sys.dim
    g = thermal.first_order_generator(h_sys, h_prime)
    k = d * maximally_entangled_input(h_sys)
    gk = np.kron(g, np.eye(d)) @ k
    return gk + dagger(gk)


def chi_lambda_bound(op: ThermalOperation, family: MarkovianFamily, h_prime: thermal.Hamiltonian,
                     epsilons, cfg: OptimizerConfig | None = None) -> tuple[list[float], dict]:
    """Upper bounds on the distance-measure response: (eps/d) max ||chi||_1 per eps.

    ``chi`` is the family-relative image of the perturbation direction of the
    entangled input; it does not depend on eps, so one multi-start search on
    the constraint manifold gives the maximum for every bound.
    """
    return _bounds(_family_values([_bound_problem(op, family, h_prime)], cfg)[0], op.d_sys,
                   epsilons)


def distance_sweep(targets: Sequence[tuple[ThermalOperation, MarkovianFamily]],
                   h_prime: thermal.Hamiltonian, epsilons, cfg: OptimizerConfig | None = None
                   ) -> list[tuple[list[MeasureValue], list[float], dict]]:
    """Per (operation, family) pair of ``targets``: its :func:`distance_measure`
    value D(0), then D(0) again without diagnostics for each eps of ``h_prime``,
    and its :func:`chi_lambda_bound` bounds and diagnostics.

    D(eps) = D(0) exactly: the perturbed Choi input (W (x) 1)|Phi> equals
    (1 (x) W')|Phi> for an ancilla unitary W', which neither channel (x) id nor
    the trace norm sees.  Each pair's distance and bound are two problems of
    one lockstep family search, so each equals that of its own search.  The
    families must share their total Hamiltonian and manifold.
    """
    problems = [problem for op, family in targets
                for problem in (_distance_problem(op, family), _bound_problem(op, family, h_prime))]
    values = _family_values(problems, cfg)
    return [([d0, *[MeasureValue(d0.kind, d0.value)] * len(epsilons)],
             *_bounds(chi, op.d_sys, epsilons))
            for (op, _), d0, chi in zip(targets, values[::2], values[1::2])]
