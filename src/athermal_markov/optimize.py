"""Deterministic derivative-free minimisation over small boxes.

Strategy: evaluate a regular grid, refine the most promising grid points plus
a batch of seeded random starts with Nelder-Mead, and reduce by exact
minimum.  Everything is driven by :class:`OptimizerConfig`, so two runs with
the same config and objective are bit-identical.  Angular coordinates can be
declared periodic; they are wrapped into their interval before each
evaluation, so simplex moves never fall off the torus.

Objectives are batched: ``f(X, owner)`` takes points as the rows of an
``(n, dim)`` array, with the index of the problem each row belongs to, and
returns their ``(n,)`` values.  One search solves any number of independent
problems over the same box: the grid is one call per problem, and the
simplices of all their starts advance in lockstep, one evaluation per move
kind and round (split into calls of bounded size).  Each start still follows its
own sequential Nelder-Mead trajectory: the rows of a batch never interact.
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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_point: np.ndarray
    converged: bool
    evaluations: int
    starts: tuple[tuple[float, bool], ...] = ()


class OptimizationResults(tuple):
    """One :class:`OptimizationResult` per problem of a search, in problem
    order, with the search's totals over all problems."""

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self)

    @property
    def starts(self) -> tuple[tuple[float, bool], ...]:
        return tuple(s for r in self for s in r.starts)


def _rng_seed(sequence_id: str) -> int:
    digest = hashlib.sha256(sequence_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _evaluate(f, x: np.ndarray, owner: np.ndarray, limit: int) -> np.ndarray:
    """The objective on the rows of ``x``, of problems ``owner``, in calls of
    at most ``limit`` rows."""
    values = np.empty(len(x))
    for i in range(0, len(x), limit):
        rows = slice(i, i + limit)
        chunk = np.asarray(f(x[rows], owner[rows]), dtype=float)
        if chunk.shape != values[rows].shape:
            raise ValueError(f"objective returned shape {chunk.shape} "
                             f"for {len(values[rows])} points")
        values[rows] = chunk
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


def _nelder_mead(evaluate, x0: np.ndarray, owner: np.ndarray, box: _Box, cfg: OptimizerConfig):
    """Bounded Nelder-Mead from every row of ``x0``, all starts in lockstep.

    ``evaluate(x, owner)`` gives the objective at the canonical form of each
    row of ``x``; start k's points are evaluated for problem ``owner[k]``.
    Returns per-start arrays (best_x, best_f, converged, evals).  Standard
    coefficients: reflection 1, expansion 2, contraction and shrink 1/2.
    Each round gathers the reflect points of the active starts into one
    evaluation, then their expand and contract points, then their shrink
    points; a start leaves the batch when its simplex values span at most
    ``f_tol``.
    """
    m, dim = x0.shape
    simplex = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        simplex[:, k + 1, k] += 0.1 * (box.hi[k] - box.lo[k])
    values = evaluate(simplex.reshape(-1, dim), np.repeat(owner, dim + 1)).reshape(m, dim + 1)
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
        fr = evaluate(reflected, owner[active])
        evals[active] += 1
        take = (v[:, 0] <= fr) & (fr < v[:, -2])
        expand = fr < v[:, 0]
        contract = ~take & ~expand

        moved = expand | contract
        trial = np.where(expand[:, None], centroid + 2.0 * (reflected - centroid),
                         centroid + 0.5 * (worst - centroid))
        f_trial = fr.copy()
        if moved.any():
            f_trial[moved] = evaluate(trial[moved], owner[active[moved]])
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
            values[rows, 1:] = evaluate(points.reshape(-1, dim),
                                        np.repeat(owner[rows], dim)).reshape(-1, dim)
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


def minimize(f, bounds, cfg: OptimizerConfig | None = None, periodic=None,
             problems: int = 1) -> OptimizationResults:
    """Grid-seeded multi-start Nelder-Mead minimisation over a box, of
    ``problems`` independent objectives at once.

    ``f`` is batched: ``f(X, owner)`` maps an ``(n, dim)`` array of points
    and the ``(n,)`` problem index of each row to their ``(n,)`` values; no
    call gets more rows than the grid or the starts' initial simplices of one
    problem.  ``bounds`` is a sequence of (lo, hi) pairs; ``periodic`` flags
    the coordinates to treat as angles on [lo, hi).  Every problem gets its
    own best grid points and the same seeded random starts, so each result
    equals that of a search of its problem alone.  The best grid value is a
    floor for each result, so no returned value exceeds any of its grid
    samples; an empty box is its one point, evaluated once.  Non-convergence
    of the winning start is reported, not raised.
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
    limit = max(len(grid), cfg.seeds * (dim + 1))
    n_grid_starts = min(len(grid), cfg.seeds - cfg.seeds // 2)
    # per problem, its best grid points, best first, and the best grid value
    seeded, floors = [], []
    for p in range(problems):
        grid_values = _evaluate(f, grid, np.full(len(grid), p), limit)
        order = np.argsort(grid_values, kind="stable")[:n_grid_starts]
        seeded.append(grid[order])
        floors.append(grid_values[order[0]])
    if dim == 0:  # the box is one point
        return OptimizationResults(OptimizationResult(float(v), grid[0], True, 1) for v in floors)

    rng = np.random.default_rng(_rng_seed(cfg.seed_sequence))
    random_starts = np.array([[rng.uniform(lo, hi) for lo, hi in bounds]
                              for _ in range(cfg.seeds - n_grid_starts)]).reshape(-1, dim)
    starts = np.concatenate([np.concatenate([points, random_starts]) for points in seeded])
    owner = np.repeat(np.arange(problems), cfg.seeds)

    def evaluate(x, rows_owner):
        return _evaluate(f, box.canonicalize(x), rows_owner, limit)

    xs, fxs, convs, used = _nelder_mead(evaluate, starts, owner, box, cfg)
    results = []
    for p in range(problems):
        mine = slice(p * cfg.seeds, (p + 1) * cfg.seeds)
        best_x, best_f, best_converged = seeded[p][0], floors[p], False
        per_start = [(float(fx), bool(conv)) for fx, conv in zip(fxs[mine], convs[mine])]
        for x, (fx, conv) in zip(xs[mine], per_start):
            if fx < best_f:
                best_x, best_f, best_converged = x, fx, conv
        if not best_converged:
            # the grid floor wins outright; count a converged start that reached
            # the same value as confirmation
            best_converged = any(conv and fx <= best_f + cfg.f_tol for fx, conv in per_start)
        results.append(OptimizationResult(
            best_value=float(best_f),
            best_point=np.array(best_x),
            converged=bool(best_converged),
            evaluations=len(grid) + int(used[mine].sum()),
            starts=tuple(per_start),
        ))
    return OptimizationResults(results)


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
