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
problems over the same box: the grids of all problems stream through the
objective, and the simplices of all their starts advance in lockstep, one
evaluation per move kind and round.  Every evaluation is split into calls of
at most ``ROW_BUDGET`` rows.  Each start still follows its own sequential
Nelder-Mead trajectory: the rows of a batch never interact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .linalg import reduce_mod_2pi


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


# Most rows one objective call gets: enough that a call's fixed cost is spread
# over many rows, few enough that its working arrays stay small.  On the fig3
# discord search (40 problems of 265 grid points and 40 starts each), 1024 ran
# fastest of 512, 1024, 2048 and 4096 (medians 48.7, 43.7, 44.6 and 45.7 ms
# over 30 interleaved passes); 2048 added 0.7 MB to the peak RSS, 4096 3.3 MB.
ROW_BUDGET = 1024


# Caps on the size of one search, so that a config that builds also runs; they
# are checked where a config is built, which knows each search's box and
# problem count.  Each was measured at its cap on the built-in studies, every
# other setting at its built-in value (fig3: 40 problems of 2 dimensions;
# distance: 2 problems of 1), on a 2-core x86-64 sandbox with numpy 2.4.6:
# - grid points, problems * grid_resolution ** dim: fig3 at grid_resolution=161
#   ran in 0.9 s with a peak RSS of 57 MB, distance at 524288 in 3.2 s and 63 MB;
# - Nelder-Mead starts, problems * seeds: fig3 at seeds=1638 ran in 1.5 s and
#   62 MB, distance at 32768 in 7.3 s and 58 MB;
# - rounds, max_iterations: fig3 with f_tol=1e-300, so that starts stop only
#   on a collapsed simplex, ran in 11.6 s and 41 MB.
MAX_GRID_POINTS = 2 ** 20
MAX_STARTS = 2 ** 16
MAX_ROUNDS = 10 ** 4


def _shown(n: int) -> str:
    """``n``, or its power of ten once it has more than 12 digits."""
    return str(n) if n < 10 ** 12 else f"~1e{len(str(n)) - 1}"


def check_search_size(cfg: OptimizerConfig, dim: int, problems: int, where: str):
    """Raise a ValueError that names the field of ``cfg``, under ``where``, and its
    value, if a search of ``problems`` problems over a ``dim``-dimensional box
    would exceed ``MAX_GRID_POINTS``, ``MAX_STARTS`` or ``MAX_ROUNDS``."""
    for name, size, what, cap in (
            ("grid_resolution", problems * cfg.grid_resolution ** dim, "grid points",
             MAX_GRID_POINTS),
            ("seeds", problems * cfg.seeds, "Nelder-Mead starts", MAX_STARTS),
            ("max_iterations", cfg.max_iterations, "rounds", MAX_ROUNDS)):
        if size > cap:
            raise ValueError(f"{where}.{name}: {_shown(getattr(cfg, name))} gives more than "
                             f"the {cap} {what} one search may hold ({problems} problems over "
                             f"a {dim}-dimensional box)")


def _rng_seed(sequence_id: str) -> int:
    digest = hashlib.sha256(sequence_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _evaluate(f, n: int, rows) -> np.ndarray:
    """The objective on ``n`` rows, in calls of at most ``ROW_BUDGET`` rows;
    ``rows(i, j)`` gives the points and the problem indices of rows i to j."""
    values = np.empty(n)
    for i in range(0, n, ROW_BUDGET):
        j = min(i + ROW_BUDGET, n)
        chunk = np.asarray(f(*rows(i, j)), dtype=float)
        if chunk.shape != (j - i,):
            raise ValueError(f"objective returned shape {chunk.shape} for {j - i} points")
        values[i:j] = chunk
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
        for k, (lo, hi, per) in enumerate(zip(self.lo, self.hi, self.periodic)):
            col = y[..., k]
            y[..., k] = lo + (col - lo) % (hi - lo) if per else np.minimum(np.maximum(col, lo), hi)
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
    ``f_tol``.  Only the active starts' simplices are kept, compacted when
    some converge, and a start's result is written out when it leaves.
    """
    m, dim = x0.shape
    simplex = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        simplex[:, k + 1, k] += 0.1 * (box.hi[k] - box.lo[k])
    values = evaluate(simplex.reshape(-1, dim), np.repeat(owner, dim + 1)).reshape(m, dim + 1)
    evals = np.full(m, dim + 1)
    best_x, best_f = np.empty((m, dim)), np.empty(m)
    converged, used = np.zeros(m, dtype=bool), np.empty(m, dtype=int)
    active, own = np.arange(m), owner  # each row's start, and its problem

    def leave(going):
        k = np.argmin(values[going], axis=1)
        starts = active[going]
        best_x[starts] = simplex[going, k]
        best_f[starts] = values[going, k]
        used[starts] = evals[going]

    for _ in range(cfg.max_iterations):
        order = np.argsort(values, axis=1, kind="stable")
        rows = np.arange(len(order))[:, None]
        simplex, values = simplex[rows, order], values[rows, order]
        done = values[:, -1] - values[:, 0] <= cfg.f_tol
        if done.any():
            leave(done)
            converged[active[done]] = True
            stay = ~done
            simplex, values, evals, active = simplex[stay], values[stay], evals[stay], active[stay]
            own = owner[active]
        if not active.size:
            break

        centroid = simplex[:, :-1].sum(axis=1) / dim
        worst = simplex[:, -1]
        reflected = centroid + (centroid - worst)
        fr = evaluate(reflected, own)
        evals += 1
        take = (values[:, 0] <= fr) & (fr < values[:, -2])
        expand = fr < values[:, 0]
        moved = ~take
        contract = moved & ~expand
        trial = np.where(expand[:, None], centroid + 2.0 * (reflected - centroid),
                         centroid + 0.5 * (worst - centroid))
        f_trial = fr.copy()
        if moved.any():
            f_trial[moved] = evaluate(trial[moved], own[moved])
            evals[moved] += 1
        use_trial = (expand & (f_trial < fr)) | (contract & (f_trial < values[:, -1]))
        shrink = contract & ~use_trial
        replace = ~shrink
        simplex[replace, -1] = np.where(use_trial[:, None], trial, reflected)[replace]
        values[replace, -1] = np.where(use_trial, f_trial, fr)[replace]

        if shrink.any():
            best = simplex[shrink, :1]
            points = best + 0.5 * (simplex[shrink, 1:] - best)
            simplex[shrink, 1:] = points
            values[shrink, 1:] = evaluate(points.reshape(-1, dim),
                                          np.repeat(own[shrink], dim)).reshape(-1, dim)
            evals[shrink] += dim

    leave(np.ones(len(active), dtype=bool))
    return box.canonicalize(best_x), best_f, converged, used


def _grid_points(bounds, periodic, resolution) -> np.ndarray:
    """The regular grid of ``resolution`` points per axis, row-major, as (points, dim)."""
    axes = [np.linspace(lo, hi, resolution, endpoint=not per)
            for (lo, hi), per in zip(bounds, periodic)]
    # (dim, points) then transposed; an empty box gives its one point, (1, 0)
    return np.array(np.meshgrid(*axes, indexing="ij", copy=False)).reshape(
        len(axes), resolution ** len(axes)).T


def minimize(f, bounds, cfg: OptimizerConfig, periodic=None,
             problems: int = 1, distinct=None) -> OptimizationResults:
    """Grid-seeded multi-start Nelder-Mead minimisation over a box, of
    ``problems`` independent objectives at once.

    ``f`` is batched: ``f(X, owner)`` maps an ``(n, dim)`` array of points
    and the ``(n,)`` problem index of each row to their ``(n,)`` values; no
    call gets more than ``ROW_BUDGET`` rows.  ``bounds`` is a sequence of
    (lo, hi) pairs; ``periodic`` flags the coordinates to treat as angles on
    [lo, hi).  ``distinct``, if given, indexes the points of the regular grid
    to evaluate, for an objective that repeats its value at the others by a
    symmetry; the others are neither evaluated nor seeded.  Every problem
    gets its own best grid points and the same seeded random starts, so each
    result equals that of a search of its problem alone.  The best grid value
    is a floor for each result, so no returned value exceeds any of its
    evaluated grid samples; an empty box is its one point, evaluated once.
    Non-convergence of the winning start is reported, not raised.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError("bounds must have hi > lo")
    dim = len(bounds)
    periodic = [False] * dim if periodic is None else list(periodic)
    box = _Box(np.array([lo for lo, _ in bounds]), np.array([hi for _, hi in bounds]),
               np.array(periodic, dtype=bool))

    grid = _grid_points(bounds, periodic, cfg.grid_resolution)
    if distinct is not None:
        grid = grid[distinct]
    size = len(grid)

    def grid_rows(i, j):  # row k is grid point k % size of problem k // size
        k = np.arange(i, j)
        return grid[k % size], k // size

    grid_values = _evaluate(f, problems * size, grid_rows).reshape(problems, size)
    n_grid_starts = min(size, cfg.seeds - cfg.seeds // 2)
    # per problem, its best grid points, best first, and the best grid value
    order = np.argsort(grid_values, axis=1, kind="stable")[:, :n_grid_starts]
    seeded = grid[order]
    floors = grid_values[np.arange(problems), order[:, 0]]
    if dim == 0:  # the box is one point
        return OptimizationResults(OptimizationResult(float(v), grid[0], True, 1) for v in floors)

    rng = np.random.default_rng(_rng_seed(cfg.seed_sequence))
    random_starts = np.array([[rng.uniform(lo, hi) for lo, hi in bounds]
                              for _ in range(cfg.seeds - n_grid_starts)]).reshape(-1, dim)
    shared = np.broadcast_to(random_starts, (problems, *random_starts.shape))
    starts = np.concatenate([seeded, shared], axis=1).reshape(-1, dim)
    owner = np.repeat(np.arange(problems), cfg.seeds)

    def evaluate(x, rows_owner):
        y = box.canonicalize(x)
        return _evaluate(f, len(y), lambda i, j: (y[i:j], rows_owner[i:j]))

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
            evaluations=size + int(used[mine].sum()),
            starts=tuple(per_start),
        ))
    return OptimizationResults(results)


@dataclass(frozen=True)
class PhaseManifold:
    """Phase vectors satisfying one affine relation sum_k c_k a_k = offset (mod 2pi).

    The relation is enforced by elimination: ``embed`` computes the dependent
    phase from the free ones, so every image point satisfies the relation
    exactly.  A relation with all-zero coefficients leaves the full torus.
    :func:`constrained_phase_manifold` stores ``offset`` reduced to [0, 2pi).
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


def constrained_phase_manifold(dim: int, coefficients=None, offset: float = 0.0) -> PhaseManifold:
    """Parametrise the phase torus subject to one affine relation.

    ``coefficients`` of ``None`` (or all zeros with zero offset) yields the
    unconstrained torus.  Otherwise some coefficient must be +-1 so the
    corresponding phase can be eliminated exactly.  Coefficients are integers,
    so the relation is one on angles: shifting any phase by 2pi keeps it.  The
    offset is kept reduced by :func:`linalg.reduce_mod_2pi`, exactly as block
    phases are, so a finite one below ``linalg.MAX_ANGLE`` in magnitude is
    required.
    """
    if coefficients is None:
        coefficients = (0.0,) * dim
    coefficients = tuple(float(c) for c in coefficients)
    if len(coefficients) != dim:
        raise ValueError("coefficient count must equal dim")
    if not all(c.is_integer() for c in coefficients):
        raise ValueError("relation coefficients must be integers, as phases are angles mod 2pi")
    offset = reduce_mod_2pi(offset)
    if all(c == 0 for c in coefficients):
        if offset != 0.0:
            raise ValueError("inconsistent relation: zero coefficients, nonzero offset")
        return PhaseManifold(dim, coefficients, 0.0, None)
    unit = [k for k, c in enumerate(coefficients) if abs(abs(c) - 1.0) < 1e-12]
    if not unit:
        raise ValueError("relation needs a unit coefficient to eliminate a phase")
    return PhaseManifold(dim, coefficients, offset, unit[-1])
