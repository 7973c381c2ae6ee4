"""Non-Markovianity measures for thermal channels and their perturbation response.

Four measures are provided: logarithmic negativity of the evolved joint
state, quantum mutual information across the system/bath split, quantum
discord with the measurement on the first (qubit) factor, and the trace-norm
distance from the channel to the nearest member of a constrained Markovian
family, evaluated through Choi states, whose trace norms reduce to d x d
Schur multipliers in the system eigenbasis; the family depends on the total
Hamiltonian only, so one serves a whole sweep.  Alongside them live the
first-order response quantities: the exact mutual-information response
coefficient and the distance-response upper bound.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import thermal
from .linalg import (
    STATE_TOL,
    SUPPORT_CUTOFF,
    DensityMatrix,
    check_state,
    dagger,
    entropy_of_spectrum,
    spectrum_entropy,
    trace_norm,
    trace_out_first,
    trace_out_second,
)
from .optimize import OptimizerConfig, PhaseManifold, constrained_phase_manifold, minimize
from .thermal import UNITARY_TOL, PerturbationSpec, ThermalOperation


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
    """:func:`log_negativity` of each joint state, as log2 of the trace norm of its
    partial transpose over their common trace: a stack of partial transposes that
    ``np.linalg.cholesky`` certifies positive definite has norms equal to those
    traces, so each reads exactly 0.0; any other goes whole to one ``eigvalsh``,
    the sum of |eigenvalues| of each."""
    joints, (d1, d2) = _joint_stack(states)
    pt = joints.reshape(-1, d1, d2, d1, d2).transpose(0, 3, 2, 1, 4).reshape(joints.shape)
    traces = np.trace(pt, axis1=-2, axis2=-1).real
    try:
        np.linalg.cholesky(pt)
        norms = traces
    except np.linalg.LinAlgError:
        norms = np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1)
    return [MeasureValue("log_negativity", float(v)) for v in np.log2(norms / traces)]


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
    """log2 of the trace norm of the partial transpose on the first factor,
    normalised by its trace.

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


def _level_blocks(blocks: np.ndarray) -> list[tuple[tuple[int, ...], ...]]:
    """Per state of a stack of :func:`_bloch_blocks` (n, 4, d2, d2), its level
    blocks: the connected components of the nonzero pattern of its four
    blocks, each as its ascending levels, in the order of their first level.
    An entry between two level blocks is exactly 0.0 in all four blocks, so
    every outcome P_0 +- n . (P_1, P_2, P_3) is exactly block diagonal on them."""
    d2 = blocks.shape[-1]
    linked = (blocks != 0).any(axis=1)
    reach = (linked | linked.swapaxes(-1, -2) | np.eye(d2, dtype=bool)).astype(float)
    for _ in range((d2 - 1).bit_length()):  # each squaring doubles the path length
        reach = np.minimum(reach @ reach, 1.0)
    # per state, each level's block as the block's first level
    return [tuple(tuple(k for k, h in enumerate(heads) if h == head) for head in sorted(set(heads)))
            for heads in (reach > 0).argmax(axis=-1).tolist()]


def _split_bloch_blocks(blocks: np.ndarray, partition) -> list[np.ndarray]:
    """:func:`_bloch_blocks` (m, 4, d2, d2) of m states that share the
    :func:`_level_blocks` ``partition``, each Bloch block with its states on
    the last axis: first one real array (4, 1 + s, m) of the traces and then
    the entries of the s 1x1 level blocks, then each larger level block's
    complex submatrix (4, k, k, m), in the order of ``partition``."""
    singles = [levels[0] for levels in partition if len(levels) == 1]
    scalars = np.concatenate([np.trace(blocks, axis1=-2, axis2=-1).real[..., None],
                              blocks[..., singles, singles].real], axis=-1)
    return [np.moveaxis(part, 0, -1).copy() for part in [scalars, *(
        blocks[..., levels, :][..., levels] for levels in map(list, partition) if len(levels) > 1)]]


def _measured_conditional_entropy(parts: list[np.ndarray], angles: np.ndarray,
                                  owner: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_B^i) for measuring {|psi><psi|, I - |psi><psi|} on the qubit,
    one value per (theta, phi) row of ``angles``, of the state whose
    :func:`_split_bloch_blocks` are ``[part[..., owner] for part in parts]``;
    the states share one partition into level blocks.

    With n the Bloch vector of psi, the unnormalised outcomes are
    P_0 +- n . (P_1, P_2, P_3), formed on each part, and their probabilities
    the traces of those.  An outcome's spectrum is the union of its level
    blocks' spectra: a 1x1 block is its entry, and each larger block's comes
    from one ``np.linalg.eigvalsh`` of the block's stack; it is divided by the
    probability.  An outcome of probability at most 1e-14 contributes
    nothing.  Each row's value is that of its state alone."""
    theta, phi = angles[:, 0], angles[:, 1]
    sin = np.sin(theta)
    n = (sin * np.cos(phi), sin * np.sin(phi), np.cos(theta))
    outcomes = []
    for part in parts:
        half, x, y, z = np.take(part, owner, axis=-1)
        tilt = n[0] * x + n[1] * y + n[2] * z
        outcomes.append(np.stack([half + tilt, half - tilt], axis=-2))  # (..., 2, rows)
    scalars, *larger = outcomes
    prob = scalars[0]
    kept = prob > 1e-14
    # each (k, k, 2, rows) block goes to LAPACK as a contiguous (2, rows, k, k)
    # stack: LAPACK takes about 1.5 times as long on a strided view
    spectra = np.concatenate([scalars[1:], *(np.linalg.eigvalsh(
        block.transpose(2, 3, 0, 1).copy()).transpose(2, 0, 1) for block in larger)])
    spectra /= np.where(kept, prob, 1.0)
    return np.where(kept, prob * spectrum_entropy(spectra, axis=0), 0.0).sum(axis=0)


def distinct_measurements(resolution: int) -> np.ndarray:
    """Indices, into the discord search's regular (theta, phi) grid of
    ``resolution`` points per axis (theta the slow axis), of one point per
    distinct measurement.

    {|psi><psi|, I - |psi><psi|} is one measurement for psi and psi-perp,
    whose angles are (pi - theta, phi + pi).  Every pole point (theta = 0 or
    pi) is the measurement {|0><0|, |1><1|}, kept as point 0.  For an even
    resolution r the twin of point (i, j) is (r - 1 - i, j + r/2 mod r), so
    the theta rows 1 to r/2 - 1 hold every other measurement once; for an odd
    r no off-pole point has a twin on the grid."""
    r = resolution
    rows = r // 2 if r % 2 == 0 else r - 1
    return np.concatenate([[0], np.arange(r, rows * r)])


def discord(states: Sequence[DensityMatrix], joint_entropies,
            cfg: OptimizerConfig) -> list[MeasureValue]:
    """Quantum discord of each joint state, with the measurement on the first
    (qubit) factor.

    Minimises the measured conditional entropy over rank-one projective
    measurements of the measured qubit via grid-seeded multi-start search,
    then returns S(A) - S(AB) + min_meas sum_i p_i S(rho_B^i), not clamped at
    zero.  The grid of ``cfg.grid_resolution`` points per angle is searched
    over its :func:`distinct_measurements` only.  S(AB) of each state is its
    entry of ``joint_entropies``, which the caller knows, as for
    :func:`mutual_informations`.  The states share dims; those that share
    their :func:`_level_blocks` partition share one lockstep search, in which
    each state is its own problem, so each value equals that of a search for
    its state alone.  The search diagonalises only each state's level blocks,
    exactly as the whole outcomes.
    """
    joints, (d1, d2) = _joint_stack(states)
    if d1 != 2:
        raise ValueError("unsupported measured dimension: first factor must be a qubit")
    s_ab = _joint_entropy_array(joint_entropies, states)
    blocks = _bloch_blocks(joints, d2)
    members = {}
    for k, partition in enumerate(_level_blocks(blocks)):
        members.setdefault(partition, []).append(k)
    results = {}
    for partition, ks in members.items():
        parts = _split_bloch_blocks(blocks[ks], partition)
        results.update(zip(ks, minimize(
            lambda angles, owner: _measured_conditional_entropy(parts, angles, owner),
            [(0.0, np.pi), (0.0, 2 * np.pi)], cfg, periodic=[False, True], problems=len(ks),
            distinct=distinct_measurements(cfg.grid_resolution))))
    # S(A) - S(AB) of every state
    offsets = entropy_of_spectrum(trace_out_second(joints, d1, d2)) - s_ab
    values = []
    for k, offset in enumerate(offsets):
        result = results[k]
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

@dataclass(frozen=True)
class MarkovianFamily:
    """Phase-parametrised Markovian channels of one total Hamiltonian.

    Members are the unitaries V diag(e^{-i alpha}) V^dag on the product
    eigenvectors V of a (non-degenerate) system+bath total Hamiltonian, with
    phases confined to the constraint manifold that keeps the evolved joint
    state in product form.  Neither depends on the bath temperature, so one
    family serves a whole sweep; a member acts with the bath each caller passes.

    A member exists only as its Schur multiplier: in the system eigenbasis it
    acts on system operators as X -> X o M with M[i, j] = sum_r p_r
    e^{-i (alpha_ir - alpha_jr)}, where alpha_ir is the phase of product level
    (system i, bath r) and p_r the bath weights.  Shifting every alpha_ir of
    one bath level r by the same amount leaves M unchanged, so members are
    searched on the quotient by these shifts: the differences alpha_ir -
    alpha_{i0 r} to a reference system level i0, whose manifold is
    ``quotient``.  The relation carries over to the differences when every
    bath level's coefficients sum to zero; otherwise such a shift can always
    satisfy it, and ``quotient`` is the whole torus of differences.  A thermal
    operation whose unitary is diagonal in the product eigenbasis is a Schur
    multiplier too, so the distance search compares d_sys x d_sys ones only.
    """

    h_total: thermal.TotalHamiltonian
    manifold: PhaseManifold
    quotient: PhaseManifold = field(init=False, repr=False, compare=False)
    _levels: np.ndarray = field(init=False, repr=False, compare=False)
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _shift: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = self.h_total.energy_blocks()
        if any(len(idx) > 1 for _, idx in blocks):
            raise ValueError("Markovian phase family requires a non-degenerate total spectrum")
        if self.manifold.dim != len(blocks):
            raise ValueError("manifold dimension must match the number of energy levels")

        labels = np.array(self.h_total.product_labels)
        d_sys, d_bath = (h.dim for h in self.h_total.parts)
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
                            ("_shift", shift)):
            object.__setattr__(self, name, value)

    def _differences(self, q) -> np.ndarray:
        """Full phases with the reference level's row at zero, for quotient
        points (quotient.free_dim,) or row-wise for (n, quotient.free_dim)."""
        q = np.asarray(q, dtype=float)
        alpha = np.zeros(q.shape[:-1] + (self.manifold.dim,))
        alpha[..., self._levels] = self.quotient.embed(q)
        return alpha

    def multipliers(self, q, weights) -> np.ndarray:
        """The Schur multipliers M (d_sys, d_sys) of the members at quotient
        points with bath weights (d_bath,), row-wise for points
        (n, quotient.free_dim) and weights (d_bath,) or (n, d_bath)."""
        e = np.exp(-1j * self._differences(q)[..., self._grid])
        return (e * np.asarray(weights)[..., None, :]) @ np.swapaxes(e.conj(), -1, -2)

    def lift(self, q) -> np.ndarray:
        """Free phases on ``manifold`` of a member with the multiplier of the
        quotient point ``q``, row-wise for (n, quotient.free_dim)."""
        alpha = self._differences(q)
        miss = self.manifold.offset - alpha @ np.asarray(self.manifold.coefficients)
        alpha = alpha + miss[..., None] * self._shift
        e = self.manifold.eliminated
        return alpha if e is None else np.delete(alpha, e, axis=-1)


SAMPLED_STATES = 16  # random input states of the distance measure's spot check


def _sampled_state_check(basis: np.ndarray, diff: np.ndarray, choi_value: float) -> dict:
    """Spot-check that no sampled input state beats the Choi-state distance: with
    ``diff`` the channel's Schur multiplier minus the member's in the system
    eigenbasis ``basis`` V, a state rho scores ||(V^dag rho V) o diff||_1."""
    rng = np.random.default_rng(71530)
    d = len(basis)
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
    worst = float(np.max(trace_norm((dagger(basis) @ states @ basis) * diff)))
    return {"sampled_max": worst, "sampled_exceeds_choi": bool(worst > choi_value + 1e-6)}


def _family_search(family: MarkovianFamily, ops: Sequence[ThermalOperation],
                   h_prime: thermal.Hamiltonian, cfg: OptimizerConfig):
    """One lockstep search over the family's quotient with two problems per
    operation of ``ops``, in that order: minimise the Choi distance
    ||(channel - member) (x) id |Phi><Phi|||_1, then maximise ||(channel -
    member) (x) id chi||_1 for the perturbation direction chi = (G (x) 1) K +
    K (G (x) 1)^dag of ``h_prime``, K = sum_ij |ii><jj| and G~ = G in the
    system eigenbasis (:func:`thermal.first_order_generator`); |Phi> = K's
    vector / sqrt(d) pairs the system eigenvectors |i> with an ancilla basis.

    The operation's unitary is diagonal in the family's product eigenbasis,
    so in the system eigenbasis the channel is the Schur multiplier M_op[i, j]
    = sum_r p_r a[i, i, r] conj(a[j, j, r]) of its amplitude table, as each
    member is that of :meth:`MarkovianFamily.multipliers`, m.  With D = M_op -
    m, both norms are those of d x d matrices: the Choi image is D / d on
    span{|ii>}, of norm ||D||_1 / d, and chi's image is [[0, B^dag], [B, 0]]
    between span{|ii>} and its complement (G~_ii = 0), with B^dag B = D W D for
    W = diag(sum_a |G~_ia|^2), of norm 2 ||W^{1/2} D||_1.  Returns the
    operations' multipliers M_op (len(ops), d, d) and the search's results.
    Raises ValueError unless each operation's unitary was built on the
    family's total Hamiltonian and is diagonal in its product eigenbasis; its
    bath is then one of the family's (:class:`thermal.ThermalOperation`)."""
    h_sys, h_bath = family.h_total.parts
    for op in ops:
        if not all(np.array_equal(a.eigvecs, b.eigvecs)
                   for a, b in zip(op.unitary.hamiltonian.parts, (h_sys, h_bath))):
            raise ValueError("operation's unitary was not built on the family's total Hamiltonian")
        # a unitary whose diagonal entries all have modulus 1 is diagonal
        if np.max(np.abs(np.diagonal(op.unitary.amplitude_table.weights) - 1.0)) > UNITARY_TOL:
            raise ValueError("operation's unitary is not diagonal in the family's product eigenbasis")
    d = h_sys.dim
    g = thermal.first_order_generator(h_sys, h_prime)
    # the row scales of D: the Choi problem's, then the bound's
    scales = np.array([np.full((d, 1), 1.0 / d),
                       2.0 * np.sqrt((np.abs(g) ** 2).sum(axis=1, keepdims=True))] * len(ops))
    weights = np.repeat([op.bath.level_probabilities for op in ops], 2, axis=0)
    channels = np.array([op.unitary.amplitude_table.phase_products @ op.bath.level_probabilities
                         for op in ops])
    signs = np.tile([1.0, -1.0], len(ops))

    def objective(q, owner):
        m = family.multipliers(q, weights[owner])
        return signs[owner] * trace_norm(scales[owner] * (channels[owner // 2] - m))

    n = family.quotient.free_dim
    return channels, minimize(objective, [(0.0, 2 * np.pi)] * n, cfg, periodic=[True] * n,
                              problems=2 * len(ops))


# ---------------------------------------------------------------------------
# First-order response quantities
# ---------------------------------------------------------------------------

def _check_support(label: str, direction: np.ndarray, w: np.ndarray, v: np.ndarray, flags: dict):
    """Support check of ``direction`` against the state of ascending eigenvalues ``w`` and
    eigenvectors ``v``; the kernel projector is formed only when some ``w <= SUPPORT_CUTOFF``."""
    if w[0] <= SUPPORT_CUTOFF:
        vs = v[:, w > SUPPORT_CUTOFF]
        kernel = np.eye(len(w), dtype=complex) - vs @ dagger(vs)
        if np.max(np.abs(kernel)) >= STATE_TOL:
            flags[label] = True
            if trace_norm(kernel @ direction @ kernel) > STATE_TOL:
                raise ValueError("theta undefined at this point: response leaves the state's support")


def _response_bar(x: np.ndarray, w: np.ndarray, v: np.ndarray, q: np.ndarray | None) -> float:
    """Tr[(x (x) tau)(I + log2(A (x) tau))] for A = v diag(w) v^dag and a state
    tau of spectrum ``q``, with the support convention: Tr x + sum over
    w_k q_r > SUPPORT_CUTOFF of q_r log2(w_k q_r) (v^dag x v)_kk.  With
    q = None it is Tr[x (I + log2 A)]."""
    diagonal = (v.conj() * (x @ v)).sum(axis=0).real
    if q is not None:
        w, diagonal = np.multiply.outer(w, q).ravel(), np.multiply.outer(diagonal, q).ravel()
    lo = w.min()
    if lo < -SUPPORT_CUTOFF:
        raise ValueError(f"theta undefined at this point: negative eigenvalue {lo}")
    if lo <= SUPPORT_CUTOFF:  # log2 sees the support only
        w, diagonal = w[w > SUPPORT_CUTOFF], diagonal[w > SUPPORT_CUTOFF]
    return float(x.trace().real + np.log2(w) @ diagonal)


def theta_lambda(op: ThermalOperation, rho_coeffs, pert: PerturbationSpec,
                 with_diagnostics: bool = False):
    """Exact first-order response of the mutual information to the perturbation.

    Independent of epsilon: it is built from the perturbing operator, the
    input coefficients and the channel only.  Uses the support convention for
    the logarithms and refuses inputs whose response has weight outside the
    support of the corresponding evolved state.  All of it happens in the
    energy eigenbases: from the level coefficients P of rho, rho-tilde is
    [G~, P], and the pair evolves as one stack under the unitary's ``matrix``
    and diag(q), for their marginals.  The joint bar needs no joint state: a
    unitary keeps the spectrum {p_i q_r} of P (x) diag(q), so it comes from
    the eigh that checks P.  The joint support is deficient iff some p_i q_r
    is at or below ``SUPPORT_CUTOFF``, and rho-tilde (x) tau lies in supp rho
    (x) supp tau iff rho-tilde lies in supp rho, so the response is checked
    against P.
    """
    h_sys = op.system_hamiltonian
    rho = np.asarray(rho_coeffs, dtype=complex)
    p, p_vecs = check_state(rho, (h_sys.dim,), vectors=True)
    rho_tilde = thermal.first_order_correction(rho, h_sys, pert.h_prime)

    q, d_s, d_b = op.bath.level_probabilities, op.d_sys, op.d_bath
    pair = thermal.evolve(op.unitary.matrix, np.diag(q), np.array([rho, rho_tilde]))

    # eigh reads a lower triangle, so the marginal states need no symmetrising
    checked = [(x, *np.linalg.eigh(state), None) for state, x in (
        trace_out_second(pair, d_s, d_b), trace_out_first(pair, d_s, d_b))]
    checked.append((rho_tilde, p, p_vecs, q))
    flags = {}  # every support is checked before any logarithm
    for name, (x, w, u, _) in zip(("system", "bath", "joint"), checked):
        _check_support(f"{name}_support_deficient", x, w, u, flags)
    # a bath weight alone can leave the joint spectrum {p_i q_r} deficient
    if p[0] * q.min() <= SUPPORT_CUTOFF:
        flags["joint_support_deficient"] = True
    a_bar, b_bar, c_bar = [_response_bar(*args) for args in checked]
    theta = c_bar - a_bar - b_bar
    if with_diagnostics:
        return theta, {"a_bar": a_bar, "b_bar": b_bar, "c_bar": c_bar, **flags}
    return theta


def distance_sweep(ops: Sequence[ThermalOperation], family: MarkovianFamily,
                   h_prime: thermal.Hamiltonian, cfg: OptimizerConfig
                   ) -> list[tuple[MeasureValue, MeasureValue]]:
    """Per operation of ``ops``: its ``choi_distance`` D(0) from the nearest
    member of ``family``, and the ``chi_norm_max`` max ||chi||_1 of its
    response bound, each with its search's diagnostics.

    The distance takes the maximally entangled Choi input on the system
    eigenvectors and minimises over the family's constraint manifold; its
    diagnostics hold the best member's phases, convergence, and a sampled
    check, on the channel's and the best member's multipliers, that no random
    input state exceeds the Choi-state value.  ``chi`` is the family-relative
    image of the perturbation direction of ``h_prime`` on that input; the
    bound at eps is (eps/d) max ||chi||_1, and D(eps) = D(0) exactly: the
    perturbed Choi input (W (x) 1)|Phi> equals (1 (x) W')|Phi> for an ancilla
    unitary W', and the d x d objective of :func:`_family_search` never sees
    the ancilla.  Every distance and bound is a problem of one lockstep family
    search, so each equals that of its own search.  No member unitary is
    built, and nothing is evolved.
    """
    channels, results = _family_search(family, ops, h_prime, cfg)
    basis = family.h_total.parts[0].eigvecs
    values = []
    for op, channel, distance, chi in zip(ops, channels, results[::2], results[1::2]):
        value = float(distance.best_value)
        diff = channel - family.multipliers(distance.best_point, op.bath.level_probabilities)
        values.append((
            MeasureValue("choi_distance", value, {
                "phases": [float(a) for a in family.manifold.embed(family.lift(distance.best_point))],
                "converged": distance.converged, "evaluations": distance.evaluations,
                **_sampled_state_check(basis, diff, value)}),
            MeasureValue("chi_norm_max", float(-chi.best_value), {
                "converged": chi.converged, "evaluations": chi.evaluations,
                "phases": [float(a) for a in family.manifold.embed(family.lift(chi.best_point))]})))
    return values
