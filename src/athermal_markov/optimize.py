"""Deterministic derivative-free minimisation over small boxes.

Strategy: evaluate a regular grid, refine the most promising grid points plus
a batch of seeded random starts with Nelder-Mead, and reduce by exact
minimum.  Everything is driven by :class:`OptimizerConfig`, so two runs with
the same config and objective are bit-identical.  Angular coordinates can be
declared periodic; they are wrapped into their interval before each
evaluation, so simplex moves never fall off the torus.

Objectives are batched: ``f(X)`` takes points as the rows of an ``(n, dim)``
array and returns their ``(n,)`` values.  The grid is one call, and the
simplices of all starts advance in lockstep, one call per move kind and
round.  Each start still follows its own sequential Nelder-Mead trajectory:
the rows of a batch never interact.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OptimizerConfig:
    seeds: int = 40
    grid_resolution: int = 12
    max_iterations: int = 400
    f_tol: float = 1e-8
    seed_sequence: str = "default"

    def __post_init__(self):
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if not self.f_tol > 0:
            raise ValueError("f_tol must be positive")
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be >= 1")


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_point: np.ndarray
    converged: bool
    evaluations: int
    starts: tuple[tuple[float, bool], ...] = ()


def _rng_seed(sequence_id: str) -> int:
    digest = hashlib.sha256(sequence_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _evaluate(f, x: np.ndarray) -> np.ndarray:
    """One batched objective call on the rows of ``x``."""
    values = np.asarray(f(x), dtype=float)
    if values.shape != x.shape[:1]:
        raise ValueError(f"objective returned shape {values.shape} for {len(x)} points")
    return values


@dataclass(frozen=True)
class _Box:
    """Bounds and periodic flags, as arrays over the coordinates."""

    lo: np.ndarray
    hi: np.ndarray
    periodic: np.ndarray

    def canonicalize(self, x: np.ndarray) -> np.ndarray:
        """Wrap periodic coordinates into [lo, hi), clip the others to [lo, hi]."""
        y = np.array(x, dtype=float)
        p, c = self.periodic, ~self.periodic
        y[..., p] = self.lo[p] + (y[..., p] - self.lo[p]) % (self.hi[p] - self.lo[p])
        y[..., c] = np.minimum(np.maximum(y[..., c], self.lo[c]), self.hi[c])
        return y

    def evaluate(self, f, x: np.ndarray) -> np.ndarray:
        """The objective at the canonical form of each row of ``x``."""
        return _evaluate(f, self.canonicalize(x))


def _nelder_mead(f, x0: np.ndarray, box: _Box, cfg: OptimizerConfig):
    """Bounded Nelder-Mead from every row of ``x0``, all starts in lockstep.

    Returns per-start arrays (best_x, best_f, converged, evals).  Standard
    coefficients: reflection 1, expansion 2, contraction and shrink 1/2.
    Each round gathers the reflect points of the active starts into one
    objective call, then their expand and contract points, then their shrink
    points; a start leaves the batch when its simplex values span at most
    ``f_tol``.
    """
    m, dim = x0.shape
    simplex = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        simplex[:, k + 1, k] += 0.1 * (box.hi[k] - box.lo[k])
    values = box.evaluate(f, simplex.reshape(-1, dim)).reshape(m, dim + 1)
    evals = np.full(m, dim + 1)
    converged = np.zeros(m, dtype=bool)

    active = np.arange(m)
    for _ in range(cfg.max_iterations):
        order = np.argsort(values[active], axis=1, kind="stable")
        simplex[active] = np.take_along_axis(simplex[active], order[..., None], axis=1)
        values[active] = np.take_along_axis(values[active], order, axis=1)
        done = values[active, -1] - values[active, 0] <= cfg.f_tol
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
        s, v = simplex[active], values[active]

        centroid = np.mean(s[:, :-1], axis=1)
        worst = s[:, -1]
        reflected = centroid + (centroid - worst)
        fr = box.evaluate(f, reflected)
        evals[active] += 1
        take = (v[:, 0] <= fr) & (fr < v[:, -2])
        expand = fr < v[:, 0]
        contract = ~take & ~expand

        moved = expand | contract
        trial = np.where(expand[:, None], centroid + 2.0 * (reflected - centroid),
                         centroid + 0.5 * (worst - centroid))
        f_trial = fr.copy()
        if moved.any():
            f_trial[moved] = box.evaluate(f, trial[moved])
            evals[active[moved]] += 1
        use_trial = (expand & (f_trial < fr)) | (contract & (f_trial < v[:, -1]))
        shrink = contract & ~use_trial
        replace = active[~shrink]
        simplex[replace, -1] = np.where(use_trial[:, None], trial, reflected)[~shrink]
        values[replace, -1] = np.where(use_trial, f_trial, fr)[~shrink]

        if shrink.any():
            rows = active[shrink]
            best = simplex[rows, :1]
            points = best + 0.5 * (simplex[rows, 1:] - best)
            simplex[rows, 1:] = points
            values[rows, 1:] = box.evaluate(f, points.reshape(-1, dim)).reshape(-1, dim)
            evals[rows] += dim

    k = np.argmin(values, axis=1)
    rows = np.arange(m)
    return box.canonicalize(simplex[rows, k]), values[rows, k], converged, evals


def _grid_points(bounds, periodic, resolution) -> np.ndarray:
    axes = []
    for (lo, hi), per in zip(bounds, periodic):
        if per:
            axes.append(np.linspace(lo, hi, resolution, endpoint=False))
        else:
            axes.append(np.linspace(lo, hi, resolution))
    return np.array(list(itertools.product(*axes)))


def minimize(f, bounds, cfg: OptimizerConfig | None = None, periodic=None) -> OptimizationResult:
    """Grid-seeded multi-start Nelder-Mead minimisation of ``f`` over a box.

    ``f`` is batched: it maps an ``(n, dim)`` array of points to their
    ``(n,)`` values.  ``bounds`` is a sequence of (lo, hi) pairs;
    ``periodic`` flags the coordinates to treat as angles on [lo, hi).  The
    best grid value is a floor for the result, so the returned value never
    exceeds any grid sample; an empty box is its one point, evaluated once.
    Non-convergence of the winning start is reported, not raised.
    """
    cfg = cfg or OptimizerConfig()
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError("bounds must have hi > lo")
    dim = len(bounds)
    periodic = [False] * dim if periodic is None else list(periodic)
    box = _Box(np.array([lo for lo, _ in bounds]), np.array([hi for _, hi in bounds]),
               np.array(periodic, dtype=bool))

    grid = _grid_points(bounds, periodic, cfg.grid_resolution)
    grid_values = _evaluate(f, grid)
    evaluations = len(grid)
    if dim == 0:  # the box is one point
        return OptimizationResult(float(grid_values[0]), grid[0], True, evaluations)
    order = np.argsort(grid_values, kind="stable")

    n_grid_starts = min(len(grid), cfg.seeds - cfg.seeds // 2)
    rng = np.random.default_rng(_rng_seed(cfg.seed_sequence))
    random_starts = [[rng.uniform(lo, hi) for lo, hi in bounds]
                     for _ in range(cfg.seeds - n_grid_starts)]
    starts = np.concatenate([grid[order[:n_grid_starts]],
                             np.array(random_starts, dtype=float).reshape(-1, dim)])

    best_x = grid[order[0]]
    best_f = grid_values[order[0]]
    best_converged = False
    xs, fxs, convs, used = _nelder_mead(f, starts, box, cfg)
    evaluations += int(used.sum())
    per_start = [(float(fx), bool(conv)) for fx, conv in zip(fxs, convs)]
    for x, (fx, conv) in zip(xs, per_start):
        if fx < best_f:
            best_x, best_f, best_converged = x, fx, conv
    if not best_converged:
        # the grid floor wins outright; count a converged start that reached
        # the same value as confirmation
        best_converged = any(conv and fx <= best_f + cfg.f_tol for fx, conv in per_start)

    return OptimizationResult(
        best_value=float(best_f),
        best_point=np.array(best_x),
        converged=bool(best_converged),
        evaluations=evaluations,
        starts=tuple(per_start),
    )


@dataclass(frozen=True)
class PhaseManifold:
    """Phase vectors satisfying one affine relation sum_k c_k a_k = offset (mod 2pi).

    The relation is enforced by elimination: ``embed`` computes the dependent
    phase from the free ones, so every image point satisfies the relation
    exactly.  A relation with all-zero coefficients leaves the full torus.
    """

    dim: int
    coefficients: tuple[float, ...]
    offset: float
    eliminated: int | None

    @property
    def free_dim(self) -> int:
        return self.dim if self.eliminated is None else self.dim - 1

    def embed(self, free) -> np.ndarray:
        """Full phases for free phases (free_dim,), or row-wise for (n, free_dim)."""
        free = np.asarray(free, dtype=float)
        if free.shape[-1:] != (self.free_dim,):
            raise ValueError(f"expected {self.free_dim} free phases per row, got shape {free.shape}")
        if self.eliminated is None:
            return free % (2 * np.pi)
        full = np.zeros(free.shape[:-1] + (self.dim,))
        slots = [k for k in range(self.dim) if k != self.eliminated]
        full[..., slots] = free
        c = np.asarray(self.coefficients)
        acc = self.offset - free @ c[slots]
        full[..., self.eliminated] = (acc / c[self.eliminated]) % (2 * np.pi)
        return full % (2 * np.pi)

    def residual(self, phases) -> float:
        phases = np.asarray(phases, dtype=float)
        r = float(np.asarray(self.coefficients) @ phases) - self.offset
        r = r % (2 * np.pi)
        return min(r, 2 * np.pi - r)


def constrained_phase_manifold(dim: int, coefficients=None, offset: float = 0.0) -> PhaseManifold:
    """Parametrise the phase torus subject to one affine relation.

    ``coefficients`` of ``None`` (or all zeros with zero offset) yields the
    unconstrained torus.  Otherwise some coefficient must be +-1 so the
    corresponding phase can be eliminated exactly.  Coefficients are integers,
    so the relation is one on angles: shifting any phase by 2pi keeps it.
    """
    if coefficients is None:
        coefficients = (0.0,) * dim
    coefficients = tuple(float(c) for c in coefficients)
    if len(coefficients) != dim:
        raise ValueError("coefficient count must equal dim")
    if not all(c.is_integer() for c in coefficients):
        raise ValueError("relation coefficients must be integers, as phases are angles mod 2pi")
    if all(c == 0 for c in coefficients):
        if offset % (2 * np.pi) != 0.0:
            raise ValueError("inconsistent relation: zero coefficients, nonzero offset")
        return PhaseManifold(dim, coefficients, 0.0, None)
    unit = [k for k, c in enumerate(coefficients) if abs(abs(c) - 1.0) < 1e-12]
    if not unit:
        raise ValueError("relation needs a unit coefficient to eliminate a phase")
    return PhaseManifold(dim, coefficients, float(offset), unit[-1])
