"""Deterministic derivative-free minimisation over small boxes.

Strategy: evaluate a regular grid, refine the most promising grid points plus
a batch of seeded random starts with Nelder-Mead, and reduce by exact
minimum.  Everything is driven by :class:`OptimizerConfig`, so two runs with
the same config and objective are bit-identical.  Angular coordinates can be
declared periodic; they are wrapped into their interval before each
evaluation, so simplex moves never fall off the torus.
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


def _canonicalize(x: np.ndarray, bounds, periodic) -> np.ndarray:
    y = np.array(x, dtype=float)
    for k, (lo, hi) in enumerate(bounds):
        if periodic[k]:
            y[k] = lo + (y[k] - lo) % (hi - lo)
        else:
            y[k] = min(max(y[k], lo), hi)
    return y


def _nelder_mead(f, x0, bounds, periodic, cfg: OptimizerConfig):
    """One bounded Nelder-Mead run; returns (best_x, best_f, converged, evals).

    Standard coefficients: reflection 1, expansion 2, contraction and shrink 1/2.
    """
    dim = len(x0)
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return f(_canonicalize(x, bounds, periodic))

    simplex = [np.array(x0, dtype=float)]
    for k in range(dim):
        step = 0.1 * (bounds[k][1] - bounds[k][0])
        x = np.array(x0, dtype=float)
        x[k] += step
        simplex.append(x)
    values = [call(x) for x in simplex]

    converged = False
    for _ in range(cfg.max_iterations):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] <= cfg.f_tol:
            converged = True
            break

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + (centroid - worst)
        fr = call(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = centroid + 2.0 * (reflected - centroid)
            fe = call(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = centroid + 0.5 * (worst - centroid)
        fc = call(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        best = simplex[0]
        simplex = [best] + [best + 0.5 * (x - best) for x in simplex[1:]]
        values = [values[0]] + [call(x) for x in simplex[1:]]

    k = int(np.argmin(values))
    return _canonicalize(simplex[k], bounds, periodic), values[k], converged, evals


def _grid_points(bounds, periodic, resolution):
    axes = []
    for (lo, hi), per in zip(bounds, periodic):
        if per:
            axes.append(np.linspace(lo, hi, resolution, endpoint=False))
        else:
            axes.append(np.linspace(lo, hi, resolution))
    return [np.array(p) for p in itertools.product(*axes)]


def minimize(f, bounds, cfg: OptimizerConfig | None = None, periodic=None) -> OptimizationResult:
    """Grid-seeded multi-start Nelder-Mead minimisation of ``f`` over a box.

    ``bounds`` is a sequence of (lo, hi) pairs; ``periodic`` flags the
    coordinates to treat as angles on [lo, hi).  The best grid value is a
    floor for the result, so the returned value never exceeds any grid
    sample.  Non-convergence of the winning start is reported, not raised.
    """
    cfg = cfg or OptimizerConfig()
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError("bounds must have hi > lo")
    dim = len(bounds)
    periodic = [False] * dim if periodic is None else list(periodic)

    grid = _grid_points(bounds, periodic, cfg.grid_resolution)
    grid_values = [f(p) for p in grid]
    evaluations = len(grid)
    order = np.argsort(grid_values, kind="stable")

    n_grid_starts = min(len(grid), cfg.seeds - cfg.seeds // 2)
    starts = [grid[i] for i in order[:n_grid_starts]]
    rng = np.random.default_rng(_rng_seed(cfg.seed_sequence))
    for _ in range(cfg.seeds - n_grid_starts):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in bounds]))

    best_x = grid[order[0]]
    best_f = grid_values[order[0]]
    best_converged = False
    per_start = []
    for x0 in starts:
        x, fx, conv, used = _nelder_mead(f, x0, bounds, periodic, cfg)
        evaluations += used
        per_start.append((float(fx), conv))
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
        free = np.asarray(free, dtype=float)
        if len(free) != self.free_dim:
            raise ValueError(f"expected {self.free_dim} free phases, got {len(free)}")
        if self.eliminated is None:
            return free % (2 * np.pi)
        full = np.zeros(self.dim)
        slots = [k for k in range(self.dim) if k != self.eliminated]
        full[slots] = free
        c = np.asarray(self.coefficients)
        acc = self.offset - float(c[slots] @ full[slots])
        full[self.eliminated] = (acc / c[self.eliminated]) % (2 * np.pi)
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
    corresponding phase can be eliminated exactly.
    """
    if coefficients is None:
        coefficients = (0.0,) * dim
    coefficients = tuple(float(c) for c in coefficients)
    if len(coefficients) != dim:
        raise ValueError("coefficient count must equal dim")
    if all(c == 0 for c in coefficients):
        if offset % (2 * np.pi) != 0.0:
            raise ValueError("inconsistent relation: zero coefficients, nonzero offset")
        return PhaseManifold(dim, coefficients, 0.0, None)
    unit = [k for k, c in enumerate(coefficients) if abs(abs(c) - 1.0) < 1e-12]
    if not unit:
        raise ValueError("relation needs a unit coefficient to eliminate a phase")
    return PhaseManifold(dim, coefficients, float(offset), unit[-1])
