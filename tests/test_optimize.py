import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from athermal_markov.linalg import reduce_mod_2pi
from athermal_markov.optimize import (
    ROW_BUDGET,
    OptimizerConfig,
    _rng_seed,
    constrained_phase_manifold,
    minimize,
)
from util import relation_residual


def batched(*fs):
    """A batched objective from pointwise ones, one per problem, evaluated row by row."""
    return lambda points, owner: np.array([fs[o](x) for x, o in zip(points, owner)])


def solve(f, bounds, cfg, periodic=None):
    """The result of a one-problem search of a batched objective of the points alone."""
    return minimize(lambda points, _owner: f(points), bounds, cfg, periodic=periodic)[0]


# -- sequential reference -----------------------------------------------------
# One start at a time, one point per objective call: the schedule the
# lockstep optimizer must reproduce bit for bit.

def _reference_canonicalize(x, bounds, periodic):
    y = np.array(x, dtype=float)
    for k, (lo, hi) in enumerate(bounds):
        if periodic[k]:
            y[k] = lo + (y[k] - lo) % (hi - lo)
        else:
            y[k] = min(max(y[k], lo), hi)
    return y


def _reference_nelder_mead(f, x0, bounds, periodic, cfg, moves):
    dim = len(x0)
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return f(_reference_canonicalize(x, bounds, periodic))

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
            moves.append("reflect")
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            moves.append("expand")
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
            moves.append("contract")
            simplex[-1], values[-1] = contracted, fc
            continue
        moves.append("shrink")
        best = simplex[0]
        simplex = [best] + [best + 0.5 * (x - best) for x in simplex[1:]]
        values = [values[0]] + [call(x) for x in simplex[1:]]

    k = int(np.argmin(values))
    return _reference_canonicalize(simplex[k], bounds, periodic), values[k], converged, evals


def reference_minimize(f, bounds, cfg, periodic=None, moves=None, distinct=None):
    """Sequential grid-seeded multi-start search over a pointwise ``f``, on the
    grid points ``distinct`` indexes (default all); ``moves`` collects the name
    of every simplex move taken."""
    moves = [] if moves is None else moves
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    dim = len(bounds)
    periodic = [False] * dim if periodic is None else list(periodic)
    axes = [np.linspace(lo, hi, cfg.grid_resolution, endpoint=not per)
            for (lo, hi), per in zip(bounds, periodic)]
    grid = [np.array(p) for p in itertools.product(*axes)]
    if distinct is not None:
        grid = [grid[k] for k in distinct]
    grid_values = [f(p) for p in grid]
    evaluations = len(grid)
    order = np.argsort(grid_values, kind="stable")

    n_grid_starts = min(len(grid), cfg.seeds - cfg.seeds // 2)
    starts = [grid[i] for i in order[:n_grid_starts]]
    rng = np.random.default_rng(_rng_seed(cfg.seed_sequence))
    for _ in range(cfg.seeds - n_grid_starts):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in bounds]))

    best_x, best_f, best_converged = grid[order[0]], grid_values[order[0]], False
    per_start = []
    for x0 in starts:
        x, fx, conv, used = _reference_nelder_mead(f, x0, bounds, periodic, cfg, moves)
        evaluations += used
        per_start.append((float(fx), conv))
        if fx < best_f:
            best_x, best_f, best_converged = x, fx, conv
    if not best_converged:
        best_converged = any(conv and fx <= best_f + cfg.f_tol for fx, conv in per_start)
    return float(best_f), np.array(best_x), bool(best_converged), evaluations, tuple(per_start)


def _rastrigin(x):
    return 20 + x[0] ** 2 + x[1] ** 2 - 10 * (np.cos(2 * np.pi * x[0]) + np.cos(2 * np.pi * x[1]))


REFERENCE_CASES = {
    "periodic_1d": (lambda x: np.cos(3 * x[0]) + 0.3 * np.sin(x[0]), [(1.0, 1.0 + 2 * np.pi)], [True],
                    OptimizerConfig(seeds=7, grid_resolution=5)),
    "clipped_box_2d": (lambda x: (x[0] - 1.3) ** 2 + np.abs(x[1] + 2.2) + 0.1 * x[0] * x[1],
                       [(-1.0, 1.0), (-2.0, 2.0)], None, OptimizerConfig(seeds=9, grid_resolution=4)),
    "rastrigin_shrinks": (_rastrigin, [(-5.12, 5.12)] * 2, None,
                          OptimizerConfig(seeds=40, grid_resolution=16)),
    "capped_iterations": (lambda x: np.sin(17 * x[0]) + np.cos(5 * x[1]) + 0.01 * x[0],
                          [(0.0, 10.0), (0.0, 3.0)], [False, True],
                          OptimizerConfig(seeds=6, grid_resolution=3, max_iterations=7, f_tol=1e-15)),
    "periodic_3d": (lambda x: np.cos(x[0] - x[1]) * np.sin(x[2]) + 0.2 * np.cos(x[0] + 2 * x[2]),
                    [(0.0, 2 * np.pi)] * 3, [True] * 3,
                    OptimizerConfig(seeds=12, grid_resolution=5, seed_sequence="ref-3d")),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_lockstep_matches_sequential_reference(case):
    f, bounds, periodic, cfg = REFERENCE_CASES[case]
    best_f, best_x, converged, evaluations, starts = reference_minimize(f, bounds, cfg, periodic)
    got = minimize(batched(f), bounds, cfg, periodic=periodic)[0]
    assert got.best_value == best_f
    assert np.array_equal(got.best_point, best_x)
    assert got.converged == converged
    assert got.evaluations == evaluations
    assert got.starts == starts
    if case == "capped_iterations":
        assert not all(conv for _, conv in starts)


def test_distinct_grid_points_match_sequential_reference():
    # every third point of a 5^3 grid, over three problems: the grid-seeded
    # starts come from those points only
    f, bounds, periodic, cfg = REFERENCE_CASES["periodic_3d"]
    distinct = np.arange(0, cfg.grid_resolution ** 3, 3)
    fs = (f, lambda x: f(x) + 0.3 * np.sin(x[1]), lambda x: -f(x))
    got = minimize(batched(*fs), bounds, cfg, periodic=periodic, problems=3, distinct=distinct)
    for g, result in zip(fs, got):
        best_f, best_x, converged, evaluations, starts = reference_minimize(
            g, bounds, cfg, periodic, distinct=distinct)
        assert result.best_value == best_f
        assert np.array_equal(result.best_point, best_x)
        assert (result.converged, result.evaluations, result.starts) == (converged, evaluations,
                                                                         starts)


def test_reference_cases_cover_every_move():
    moves = {}
    for case, (f, bounds, periodic, cfg) in REFERENCE_CASES.items():
        moves[case] = []
        reference_minimize(f, bounds, cfg, periodic, moves[case])
    assert "shrink" in moves["rastrigin_shrinks"]
    assert set().union(*moves.values()) == {"reflect", "expand", "contract", "shrink"}


def test_lockstep_batches_every_start():
    f, bounds, periodic, cfg = REFERENCE_CASES["rastrigin_shrinks"]
    batch_sizes = []

    def counting(points, owner):
        batch_sizes.append(len(points))
        return batched(f)(points, owner)

    result = minimize(counting, bounds, cfg, periodic=periodic)[0]
    # the grid, then every start's initial simplex, then one reflect point per start
    assert batch_sizes[:3] == [cfg.grid_resolution ** 2, cfg.seeds * 3, cfg.seeds]
    assert sum(batch_sizes) == result.evaluations
    assert len(batch_sizes) < result.evaluations / 10


# Three problems on one box: two converge in different rounds, and the
# scaled |sin| one reaches max_iterations in every start.
MULTI_PROBLEMS = (lambda x: (x[0] - 1.3) ** 2 + np.cos(x[1] - 2.0),
                  lambda x: 1e3 * ((x[0] - 7.1) ** 2 + 0.5 * np.abs(np.sin(x[1]))),
                  lambda x: np.sin(17 * x[0]) + np.cos(5 * x[1]) + 0.01 * x[0])
MULTI_BOX = ([(0.0, 10.0), (0.0, 2 * np.pi)], [False, True],
             OptimizerConfig(seeds=7, grid_resolution=4, max_iterations=60, f_tol=1e-12))


def test_each_problem_matches_its_sequential_reference():
    bounds, periodic, cfg = MULTI_BOX
    got = minimize(batched(*MULTI_PROBLEMS), bounds, cfg, periodic=periodic,
                   problems=len(MULTI_PROBLEMS))
    assert len(got) == len(MULTI_PROBLEMS)
    for f, result in zip(MULTI_PROBLEMS, got):
        best_f, best_x, converged, evaluations, starts = reference_minimize(f, bounds, cfg,
                                                                            periodic)
        assert result.best_value == best_f
        assert np.array_equal(result.best_point, best_x)
        assert result.converged == converged
        assert result.evaluations == evaluations
        assert result.starts == starts
    assert len({r.evaluations for r in got}) == len(got)
    assert [{conv for _, conv in r.starts} for r in got] == [{True}, {False}, {True}]
    # the search's totals run over every problem
    assert got.evaluations == sum(r.evaluations for r in got)
    assert got.starts == got[0].starts + got[1].starts + got[2].starts


def test_no_objective_call_exceeds_one_search_batch():
    bounds, periodic, cfg = MULTI_BOX
    # three grids of 400 points: more rows than one call may take
    cfg = replace(cfg, grid_resolution=20)
    objective = batched(*MULTI_PROBLEMS)
    batch_sizes = []

    def counting(points, owner):
        batch_sizes.append(len(points))
        return objective(points, owner)

    got = minimize(counting, bounds, cfg, periodic=periodic, problems=len(MULTI_PROBLEMS))
    assert max(batch_sizes) <= ROW_BUDGET
    # the grids stream through full calls, then the initial simplices of every start
    grid_rows = len(MULTI_PROBLEMS) * cfg.grid_resolution ** 2
    assert batch_sizes[:3] == [ROW_BUDGET, grid_rows - ROW_BUDGET,
                               len(MULTI_PROBLEMS) * cfg.seeds * (len(bounds) + 1)]
    assert sum(batch_sizes) == got.evaluations


def test_objective_must_return_one_value_per_point():
    with pytest.raises(ValueError, match="objective returned shape"):
        solve(lambda points: np.zeros(1), [(0.0, 1.0)], OptimizerConfig(seeds=2, grid_resolution=3))


def test_empty_box_is_one_point():
    calls = []
    result = solve(lambda points: calls.append(points.shape) or np.full(len(points), 0.7), [],
                   OptimizerConfig())
    assert calls == [(1, 0)]
    assert (result.best_value, result.best_point.shape) == (0.7, (0,))
    assert result.converged and result.evaluations == 1


def test_quadratic_1d():
    result = solve(lambda x: (x[:, 0] - 0.3) ** 2, [(0.0, 1.0)], OptimizerConfig())
    assert abs(result.best_point[0] - 0.3) < 1e-6
    assert result.best_value < 1e-10
    assert result.converged


def test_sin_squared_theta():
    result = solve(lambda x: np.sin(x[:, 0]) ** 2, [(0.0, np.pi)],
                      OptimizerConfig(seeds=8, grid_resolution=9))
    assert result.best_value < 1e-10
    assert min(result.best_point[0], np.pi - result.best_point[0]) < 1e-4


def test_rastrigin_2d_vs_dense_grid():
    def rastrigin(x):
        return 20 + x[:, 0] ** 2 + x[:, 1] ** 2 \
            - 10 * (np.cos(2 * np.pi * x[:, 0]) + np.cos(2 * np.pi * x[:, 1]))

    bounds = [(-5.12, 5.12)] * 2
    result = solve(rastrigin, bounds, OptimizerConfig(seeds=40, grid_resolution=16))
    # dense-grid oracle for the global minimum
    axis = np.linspace(-5.12, 5.12, 201)
    dense = rastrigin(np.array([(x, y) for x in axis for y in axis])).min()
    assert result.best_value <= dense + 1e-12
    assert result.best_value < 1e-4


def test_determinism_bit_identical():
    def f(x):
        return np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) + 0.1 * x[:, 0] ** 2

    cfg = OptimizerConfig(seeds=10, grid_resolution=6, seed_sequence="abc")
    r1 = solve(f, [(-2.0, 2.0), (-2.0, 2.0)], cfg)
    r2 = solve(f, [(-2.0, 2.0), (-2.0, 2.0)], cfg)
    assert r1.best_value == r2.best_value
    assert np.array_equal(r1.best_point, r2.best_point)
    assert r1.evaluations == r2.evaluations
    assert r1.starts == r2.starts


def test_seed_sequence_changes_random_starts():
    calls_a, calls_b = [], []

    def make(f_log):
        def f(x):
            f_log.extend(map(tuple, x))
            return (x[:, 0] - 0.4) ** 2
        return f

    solve(make(calls_a), [(0.0, 1.0)], OptimizerConfig(seeds=6, grid_resolution=3,
                                                          seed_sequence="one"))
    solve(make(calls_b), [(0.0, 1.0)], OptimizerConfig(seeds=6, grid_resolution=3,
                                                          seed_sequence="two"))
    assert calls_a != calls_b


def test_best_value_not_above_any_grid_sample():
    rng = np.random.default_rng(0)
    table = {}

    def f(x):
        for key in np.round(x[:, 0], 9):
            if key not in table:
                table[key] = float(rng.normal())
        return np.array([table[key] for key in np.round(x[:, 0], 9)])

    cfg = OptimizerConfig(seeds=4, grid_resolution=11, max_iterations=20)
    grid_values = f(np.linspace(0, 1, 11)[:, None])
    result = solve(f, [(0.0, 1.0)], cfg)
    assert result.best_value <= min(grid_values)


def test_periodic_cosine_finds_pi():
    for lo in (0.0, 10 * np.pi):
        result = solve(lambda x: np.cos(x[:, 0]), [(lo, lo + 2 * np.pi)],
                          OptimizerConfig(seeds=6, grid_resolution=8), periodic=[True])
        folded = result.best_point[0] % (2 * np.pi)
        assert abs(folded - np.pi) < 1e-5
        assert abs(result.best_value + 1) < 1e-9


def test_nonconvergence_flagged():
    def f(x):
        return np.sin(17 * x[:, 0]) + x[:, 0]

    result = solve(f, [(0.0, 10.0)],
                      OptimizerConfig(seeds=2, grid_resolution=3, max_iterations=1, f_tol=1e-15))
    assert not result.converged  # best-so-far still returned
    assert np.isfinite(result.best_value)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(seeds=0)
    with pytest.raises(ValueError):
        OptimizerConfig(f_tol=0.0)
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        OptimizerConfig(max_iterations=0)


# -- constrained phase manifold -------------------------------------------------

def test_manifold_elimination_exact():
    # b0 - b1 - b2 + b3 = 0
    manifold = constrained_phase_manifold(4, (1.0, -1.0, -1.0, 1.0), 0.0)
    assert manifold.free_dim == 3
    rng = np.random.default_rng(1)
    for _ in range(100):
        full = manifold.embed(rng.uniform(0, 2 * np.pi, size=3))
        assert relation_residual(manifold, full) < 1e-12
        assert np.all((0 <= full) & (full < 2 * np.pi))


def test_manifold_trivial_relation_full_torus():
    manifold = constrained_phase_manifold(2)
    assert manifold.free_dim == 2
    out = manifold.embed([1.0, 2.0])
    assert np.allclose(out, [1.0, 2.0])


def test_manifold_inconsistent_relation():
    with pytest.raises(ValueError, match="inconsistent"):
        constrained_phase_manifold(3, (0.0, 0.0, 0.0), 1.0)


def test_manifold_offset_is_reduced_exactly():
    # 1e9 % 2pi in doubles lands 3.9e-8 rad off the exact remainder
    exact = reduce_mod_2pi(1e9)
    free = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(5, 3))
    for coefficients in ((1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, 1.0)):
        manifold = constrained_phase_manifold(4, coefficients, 1e9)
        assert manifold.offset == exact
        want = constrained_phase_manifold(4, coefficients, exact).embed(free)
        assert manifold.embed(free).tobytes() == want.tobytes()
    for coefficients in ((1.0, -1.0, -1.0, 1.0), (0.0, 0.0, 0.0, 0.0)):
        for offset in (1e45, -1e300):
            with pytest.raises(ValueError, match="is too large"):
                constrained_phase_manifold(4, coefficients, offset)
        for offset in (math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                constrained_phase_manifold(4, coefficients, offset)


def test_manifold_needs_unit_coefficient():
    with pytest.raises(ValueError, match="unit coefficient"):
        constrained_phase_manifold(2, (2.0, 2.0), 0.0)


def test_manifold_needs_integer_coefficients():
    # with (1, 0.5), reducing the free phase 7.0 mod 2pi would move the relation by pi
    for coefficients in ((1.0, 0.5), (1.0, float("nan"))):
        with pytest.raises(ValueError, match="integers"):
            constrained_phase_manifold(2, coefficients, 0.0)


def test_manifold_samples_are_markovian():
    # every sampled point keeps the evolved joint state in product form
    from athermal_markov.thermal import Hamiltonian, build_block_unitary, gibbs_state, \
        mto_check, thermal_operation, total_hamiltonian
    from util import SIGMA_Z, random_density

    h_sys = Hamiltonian.from_matrix(SIGMA_Z)
    h_bath = Hamiltonian.from_matrix(10 * SIGMA_Z)
    h_tot = total_hamiltonian(h_sys, h_bath)
    coeffs = tuple(1.0 if (i + r) % 2 == 0 else -1.0 for i, r in h_tot.product_labels)
    manifold = constrained_phase_manifold(4, coeffs, 0.0)
    bath = gibbs_state(h_bath, 0.01)
    rng = np.random.default_rng(2)
    for _ in range(100):
        phases = manifold.embed(rng.uniform(0, 2 * np.pi, size=3))
        op = thermal_operation(build_block_unitary(h_tot, list(phases)), bath)
        report = mto_check(op, random_density(rng, 2))
        assert report.is_markovian
        assert report.residuals_markovian()
