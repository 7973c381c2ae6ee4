import csv
import importlib
import io
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from athermal_markov import experiments as ex
from athermal_markov import measures, thermal
from athermal_markov.experiments import (
    BlockSpec,
    ExperimentConfig,
    HamiltonianSpec,
    SweepRow,
    builtin_distance,
    builtin_fig2,
    builtin_fig3,
    rows_to_csv,
    rows_to_svg,
    run_config,
    write_outputs,
)
from athermal_markov.linalg import DensityMatrix


# -- config plumbing ----------------------------------------------------------------

def test_named_operator_specs():
    assert HamiltonianSpec("pauli_z").build().dim == 2
    assert HamiltonianSpec("gell_mann_8").build().dim == 3
    with pytest.raises(ValueError, match="unknown operator"):
        HamiltonianSpec("pauli_w").build()


def test_explicit_matrix_spec():
    spec = HamiltonianSpec(matrix=np.diag([1.0, 3.0]).astype(complex), scale=2.0)
    assert np.allclose(spec.build().energies, [2.0, 6.0])


def test_spec_requires_exactly_one_source():
    with pytest.raises(ValueError, match="exactly one"):
        HamiltonianSpec().build()
    with pytest.raises(ValueError, match="exactly one"):
        HamiltonianSpec("pauli_z", matrix=np.eye(2)).build()


def test_builtin_configs_validate():
    for make in (builtin_fig2, builtin_fig3, builtin_distance):
        cfg = make()
        assert cfg.setup.h_sys.dim == 2
        assert len(cfg.config_hash()) == 16


def test_config_round_trip():
    for make in (builtin_fig2, builtin_fig3, builtin_distance):
        cfg = make()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.config_hash() == cfg.config_hash()


def test_config_rejects_bad_inputs():
    base = builtin_fig2().to_dict()

    bad = dict(base)
    del bad["bath"]
    with pytest.raises(ValueError, match="config.bath"):
        ExperimentConfig.from_dict(bad)

    bad = dict(base)
    bad["sweep"] = {"values": [3.0, -1.0]}
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig.from_dict(bad)

    bad = dict(base)
    bad["measures"] = ["negativity_of_vibes"]
    with pytest.raises(ValueError, match="unknown measure"):
        ExperimentConfig.from_dict(bad)

    bad = dict(base)
    bad["initial_population_a"] = 1.5
    with pytest.raises(ValueError, match="initial_population_a"):
        ExperimentConfig.from_dict(bad)

    bad = dict(base)
    bad["unitary_blocks"] = bad["unitary_blocks"][:1]
    with pytest.raises(ValueError, match="energy blocks"):
        ExperimentConfig.from_dict(bad)


def _matrix_fig2() -> dict:
    """fig2 with its system Hamiltonian and initial state given as matrices."""
    data = builtin_fig2().to_dict()
    data["system"] = {"matrix": {"real": [[1.0, 0.0], [0.0, -1.0]]}}
    del data["initial_population_a"]
    data["initial_coeffs"] = {"real": [[0.1, 0.0], [0.0, 0.9]], "imag": [[0.0, 0.0], [0.0, 0.0]]}
    return data


UNKNOWN_FIELD_CASES = [  # (base config, path to an object in it, its dotted name)
    ("fig2", (), "config"),
    ("fig3", ("sweep",), "config.sweep"),
    ("fig3", ("optimizer",), "config.optimizer"),
    ("distance", ("mto_relation",), "config.mto_relation"),
    ("fig2", ("perturbation",), "config.perturbation"),
    ("fig2", ("unitary_blocks", 0), "config.unitary_blocks[0]"),
    ("fig2", ("unitary_blocks", 1, "basis"), "config.unitary_blocks[1].basis"),
    ("matrix_fig2", ("system", "matrix"), "config.system.matrix"),
    ("matrix_fig2", ("initial_coeffs",), "config.initial_coeffs"),
]


@pytest.mark.parametrize("base, path, where", UNKNOWN_FIELD_CASES,
                         ids=[where for _, _, where in UNKNOWN_FIELD_CASES])
def test_config_rejects_unknown_field_at_every_level(base, path, where):
    bases = {"fig2": builtin_fig2, "fig3": builtin_fig3, "distance": builtin_distance}
    data = _matrix_fig2() if base == "matrix_fig2" else bases[base]().to_dict()
    ExperimentConfig.from_dict(data)  # the base is accepted
    node = data
    for key in path:
        node = node[key]
    node["extra"] = 1
    with pytest.raises(ValueError, match=f"^{re.escape(where)}\\.extra: unknown field$"):
        ExperimentConfig.from_dict(data)


def test_bench_channel_sweep_configs_are_accepted(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    channel_sweep = importlib.import_module("channel_sweep")
    # one job of every system+bath dimension pair, against the bench's own plain-numpy
    # recomputation of every row and of the direct calls it makes at each temperature
    for job in channel_sweep.generate_jobs(seed=3, count=len(channel_sweep.DIMS)):
        cfg = ExperimentConfig.from_dict(job.config())
        assert cfg.to_dict()["name"] == job.name
        values, deviations = channel_sweep.expected_values(job)
        rows = run_config(cfg).rows
        assert len(rows) == len(values) == job.rows
        for r in rows:
            unperturbed, perturbed = values[(r.control, r.epsilon, r.measure)]
            assert r.status == "ok"
            assert abs(r.unperturbed - unperturbed) <= 1e-12
            assert abs(r.perturbed - perturbed) <= 1e-12
            assert abs(r.delta - (perturbed - unperturbed)) <= 1e-12
        setup = cfg.setup
        pert = thermal.PerturbationSpec(setup.h_prime, cfg.epsilons[-1])
        for value, want in zip(cfg.sweep_values, deviations):
            op = setup.operation(cfg.beta_for(value))
            assert np.isfinite(measures.theta_lambda(op, setup.coeffs, pert))
            assert abs(thermal.mto_check(op, setup.rho).joint_product_deviation - want) <= 1e-12


def test_config_rejects_oversized_system():
    big = {"matrix": {"real": np.diag(np.arange(8.0)).tolist()}, "scale": 1.0}
    cfg = dict(builtin_fig2().to_dict())
    cfg["system"] = big
    cfg["bath"] = big
    with pytest.raises(ValueError, match="exceeds"):
        ExperimentConfig.from_dict(cfg)


def test_config_rejects_what_a_run_cannot_build():
    # a degenerate system spectrum defeats the perturbed input of every measure
    data = builtin_fig2().to_dict()
    data["system"] = {"name": "identity_2"}
    data["unitary_blocks"] = [{"phases": [1.0, 2.0], "basis": {"real": [[1, 0], [0, 1]]}},
                              {"phases": [3.0, 4.0], "basis": {"real": [[1, 0], [0, 1]]}}]
    with pytest.raises(ValueError, match="system: degenerate spectrum"):
        ExperimentConfig.from_dict(data)

    # discord measures the system, which must be a qubit
    data = builtin_fig3().to_dict()
    data["system"] = {"name": "gell_mann_3", "scale": 3.0}  # levels -3, 0, 3
    data["perturbation"] = {"name": "gell_mann_1"}
    data["unitary_blocks"] = [{"phases": [float(k)]} for k in range(9)]
    with pytest.raises(ValueError, match="discord requires a qubit system"):
        ExperimentConfig.from_dict(data)

    # a temperature whose inverse overflows has no Gibbs state on a degenerate ground space
    data = builtin_fig2().to_dict()
    data["bath"] = {"name": "identity_2"}
    data["unitary_blocks"] = [{"phases": [1.0, 2.0], "basis": {"real": [[1, 0], [0, 1]]}}] * 2
    data["sweep"] = {"values": [5e-324], "variable": "temperature"}
    with pytest.raises(ValueError, match="finite inverse"):
        ExperimentConfig.from_dict(data)


def test_level_coeffs_from_population():
    cfg = builtin_fig2()
    p = cfg.level_coeffs()
    # weight a sits on the top level, the rest on the ground level
    assert np.allclose(np.diag(p).real, [0.1, 0.9])


def test_beta_mapping():
    assert builtin_fig2().beta_for(4.0) == 0.25
    assert builtin_fig3().beta_for(0.5) == 0.5


# -- sweep engine ------------------------------------------------------------------

def _tiny_fig2(n_temps=3, epsilons=(0.0, 0.2)):
    cfg = builtin_fig2()
    return ExperimentConfig.from_dict({
        **cfg.to_dict(),
        "epsilons": list(epsilons),
        "sweep": {"values": list(np.linspace(3.0, 5.0, n_temps)), "variable": "temperature"},
    })


def _tiny_distance(epsilons=(0.0, 0.01)):
    return ExperimentConfig.from_dict({
        **builtin_distance().to_dict(),
        "epsilons": list(epsilons),
        "optimizer": {"seeds": 2, "grid_resolution": 2},
    })


def test_run_config_rows_sorted_and_complete():
    cfg = _tiny_fig2()
    result = run_config(cfg)
    assert len(result.rows) == 2 * 3
    keys = [(r.measure, r.epsilon, r.control) for r in result.rows]
    assert keys == sorted(keys)
    assert result.metadata["config_hash"] == cfg.config_hash()
    unperturbed = {}
    for r in result.rows:
        assert r.delta == r.perturbed - r.unperturbed
        # one unperturbed value per (measure, control), shared by every epsilon row
        assert unperturbed.setdefault((r.measure, r.control), r.unperturbed) == r.unperturbed
    assert len(unperturbed) == 3


def test_run_config_zero_strength_rows_are_zero():
    for cfg in (_tiny_fig2(), _tiny_distance()):
        zero = [r for r in run_config(cfg).rows if r.epsilon == 0.0]
        assert zero and all(r.delta == 0.0 for r in zero)


def _counting(monkeypatch, module, *names) -> Counter:
    counts: Counter = Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_sweep_computes_each_quantity_once_per_control_value(monkeypatch):
    searches = _counting(monkeypatch, measures, "minimize")
    calls = _counting(monkeypatch, thermal, "apply", "state_from_level_coeffs",
                      "perturbed_state_exact")
    ex.run_distance_example(_tiny_distance(epsilons=builtin_distance().epsilons))
    # the unperturbed distance, one per epsilon (3) and the bound share one search
    assert searches["minimize"] == 1
    assert calls["apply"] == 0
    data = _tiny_fig2(n_temps=3, epsilons=(0.0, 0.2)).to_dict()
    calls.clear()
    checked = _counting(monkeypatch, DensityMatrix, "__init__")
    cfg = ExperimentConfig.from_dict(data)
    # the input states come from construction alone, and only they are checked
    assert calls == {"state_from_level_coeffs": 1, "perturbed_state_exact": 2}
    assert checked == {"__init__": 3}
    calls.clear()
    checked.clear()
    run_config(cfg)
    # the stack of input states is applied once per temperature; every state the sweep
    # derives is trusted
    assert calls == {"apply": 3}
    assert checked == {}


def test_sweep_runs_one_discord_search(monkeypatch):
    cfg = ExperimentConfig.from_dict({
        **builtin_fig3().to_dict(),
        "epsilons": [0.0, 0.2],
        "sweep": {"values": [0.2, 0.5, 0.8], "variable": "inverse_temperature"},
        "optimizer": {"seeds": 4, "grid_resolution": 6},
    })
    searches = _counting(monkeypatch, measures, "minimize")
    result = run_config(cfg)
    assert searches["minimize"] == 1
    # each control value's rows equal a discord search of its own states
    setup = cfg.setup
    for value in cfg.sweep_values:
        op = setup.operation(cfg.beta_for(value))
        before, *after = measures.discord([thermal.apply(op, rho)
                                           for rho in (setup.rho, *setup.rho_eps)], cfg.optimizer)
        rows = [r for r in result.rows_for("discord") if r.control == value]
        assert [(r.unperturbed, r.perturbed) for r in rows] == [
            (before.value, mv.value) for mv in after]
        for eps, mv in zip(cfg.epsilons, after):
            assert result.metadata["optimizer_diagnostics"][f"discord/eps={eps}/x={value}"] == {
                "unperturbed": before.diagnostics, "perturbed": mv.diagnostics}


def test_runs_build_nothing(monkeypatch):
    fig2, distance = _tiny_fig2(), _tiny_distance()
    builds = _counting(monkeypatch, thermal, "build_block_unitary")
    run_config(fig2)
    ex.run_distance_example(distance)
    assert builds == {}


def test_distance_study_builds_one_operation_per_control_value(monkeypatch):
    cfg = builtin_distance()
    assert len(cfg.sweep_values) == 1
    calls = _counting(monkeypatch, thermal, "gibbs_state")
    ex.run_distance_example(cfg)
    # the bound rides in the sweep's family search, on the operation it built
    assert calls["gibbs_state"] == 1


def test_distance_study_runs_one_family_search(monkeypatch):
    cfg = ExperimentConfig.from_dict({
        **_tiny_distance().to_dict(),
        "sweep": {"values": [100.0, 20.0], "variable": "temperature"},
        "optimizer": {"seeds": 3, "grid_resolution": 4},
    })
    searches = _counting(monkeypatch, measures, "minimize")
    result = ex.run_distance_example(cfg)
    assert searches["minimize"] == 1
    # every row, diagnostic and bound equals a search of its own input
    monkeypatch.undo()
    setup, opt = cfg.setup, cfg.optimizer
    recorded = result.metadata["optimizer_diagnostics"]
    for value in cfg.sweep_values:
        op = setup.operation(cfg.beta_for(value))
        family = setup.family(op)
        before = measures.distance_measure(op, family, opt)
        after = [measures.distance_measure(op, family, opt, thermal.PerturbationSpec(
            setup.h_prime, eps)) for eps in cfg.epsilons]
        bounds, bound_diags = measures.chi_lambda_bound(op, family, setup.h_prime,
                                                        cfg.epsilons, opt)
        rows = [r for r in result.rows_for("choi_distance") if r.control == value]
        assert [(r.unperturbed, r.perturbed) for r in rows] == [
            (before.value, mv.value) for mv in after]
        bound_rows = [r for r in result.rows_for("choi_distance_bound") if r.control == value]
        assert [r.perturbed for r in bound_rows] == bounds
        for eps, mv in zip(cfg.epsilons, after):
            assert recorded[f"choi_distance/eps={eps}/x={value}"] == {
                "unperturbed": before.diagnostics, "perturbed": mv.diagnostics}
        assert recorded[f"choi_distance_bound/x={value}"] == bound_diags
    assert list(run_config(cfg).metadata["optimizer_diagnostics"]) == list(recorded)


def test_distance_metadata_records_the_bound_search():
    cfg = _tiny_distance()
    metadata = ex.run_distance_example(cfg).metadata
    recorded = {key: diags for key, diags in metadata["optimizer_diagnostics"].items()
                if key.startswith("choi_distance_bound/")}
    assert list(recorded) == [f"choi_distance_bound/x={v}" for v in cfg.sweep_values]
    setup = cfg.setup
    for value in cfg.sweep_values:
        op = setup.operation(cfg.beta_for(value))
        _, diags = measures.chi_lambda_bound(op, setup.family(op), setup.h_prime,
                                             cfg.epsilons, cfg.optimizer)
        assert recorded[f"choi_distance_bound/x={value}"] == diags
        assert diags["evaluations"] > 0 and len(diags["phases"]) == setup.h_tot.dim
    if not all(d["converged"] for d in recorded.values()):
        assert metadata["optimizer_converged"] is False


def test_run_config_reproducible():
    cfg = _tiny_fig2()
    a, b = run_config(cfg), run_config(cfg)
    assert a.rows == b.rows


# -- named experiments ----------------------------------------------------------------

def test_fig2_claims_hold(fig2_result):
    assert fig2_result.deviations == ()
    rows = fig2_result.rows_for("log_negativity")
    assert len(rows) == 3 * 21
    for eps in (0.1, 0.15, 0.2):
        series = [r for r in rows if r.epsilon == eps]
        assert len(series) == 21
        assert all(r.delta > 0 for r in series)
        deltas = [r.delta for r in series]
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
    assert all(r.status == "ok" for r in rows)


def test_fig3_claims_hold(fig3_result):
    assert fig3_result.deviations == ()
    mi = fig3_result.rows_for("mutual_information")
    dd = fig3_result.rows_for("discord")
    assert len(mi) == 20 and len(dd) == 20
    assert all(r.delta > 0 for r in mi + dd)
    mi_deltas = [r.delta for r in sorted(mi, key=lambda r: r.control)]
    assert all(a > b - 1e-12 for a, b in zip(mi_deltas, mi_deltas[1:]))


def test_fig3_unperturbed_discord_reported_unclamped_at_rounding_level(fig3_result):
    # the unperturbed 2x3 state has zero discord; the reported value is the
    # rounding floor that each delta is measured from, not clamped to 0
    values = [r.unperturbed for r in fig3_result.rows_for("discord")]
    assert len(values) == 20 and all(abs(v) <= 1e-12 for v in values)


def test_distance_claims_hold(distance_result):
    assert distance_result.deviations == ()
    rows = distance_result.rows_for("choi_distance")
    assert {r.epsilon for r in rows} == {0.01, 0.05, 0.1}
    for r in rows:
        assert abs(r.delta) <= 5e-4
    bounds = distance_result.rows_for("choi_distance_bound")
    for r in bounds:
        assert r.unperturbed <= r.perturbed + 1e-6  # delta <= bound
    assert distance_result.metadata["optimizer_converged"]


# The bench's tolerances: closed-form columns to 1e-12, optimizer-backed ones
# to 2 * f_tol, since each column is at most a difference of two minima.
GOLDEN_TOL = {"log_negativity": 1e-12, "mutual_information": 1e-12, "discord": 2e-8,
              "choi_distance": 2e-8, "choi_distance_bound": 2e-8}
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


@pytest.mark.parametrize("study, measure", [
    ("fig2", "log_negativity"), ("fig3", "mutual_information"), ("fig3", "discord"),
    ("distance", "choi_distance"), ("distance", "choi_distance_bound"),
])
def test_studies_match_bench_reference(request, study, measure):
    result = request.getfixturevalue(f"{study}_result")
    with open(REFERENCE / f"{study}-{measure}.csv", newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))[1:]  # header row not compared
    have = list(csv.reader(io.StringIO(rows_to_csv(result.rows_for(measure)))))[1:]
    assert len(have) == len(want)
    for h, w in zip(have, want):
        assert h[:3] == w[:3] and h[6] == w[6], (h, w)
        assert all(abs(float(x) - float(y)) <= GOLDEN_TOL[measure]
                   for x, y in zip(h[3:6], w[3:6])), (h, w)


def test_property_suite_all_ok(property_result):
    assert property_result.deviations == ()
    assert {r.status for r in property_result.rows} == {"ok"}
    names = {r.measure for r in property_result.rows}
    assert {"ppt_spectra_2x2", "ppt_spectra_2x3", "mto_equivalence",
            "fixed_point", "first_order_slope_fig2", "first_order_slope_fig3"} <= names


def test_deviations_recorded_not_raised():
    # a doctored config that violates the fig2 ordering claim still returns a table
    cfg = builtin_fig2()
    doctored = ExperimentConfig.from_dict({
        **cfg.to_dict(),
        "epsilons": [0.0, 0.1],
        "sweep": {"values": [3.0, 4.0], "variable": "temperature"},
    })
    result = ex.run_fig2(doctored)
    assert len(result.rows) == 4
    assert result.deviations  # eps=0 rows are flat zero: positivity claims fail
    flagged = [r for r in result.rows if r.status == "deviation"]
    assert flagged


# -- outputs -----------------------------------------------------------------------

def test_csv_format():
    rows = [SweepRow(3.0, 0.1, "log_negativity", 0.25, 0.26, 0.01),
            SweepRow(4.0, 0.1, "log_negativity", 0.125, 0.15, 0.025)]
    payload = rows_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(payload)))
    assert parsed[0] == ["T", "epsilon", "measure", "unperturbed", "perturbed", "delta", "status"]
    assert len(parsed) == 3
    assert float(parsed[1][5]) == 0.01
    assert payload.endswith("\r\n")  # RFC-4180 line endings


def test_svg_series_per_epsilon():
    rows = [SweepRow(t, e, "m", 0.0, 0.0, e * t) for e in (0.1, 0.2) for t in (3.0, 4.0, 5.0)]
    svg = rows_to_svg(rows, "m response")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "eps=0.1" in svg and "eps=0.2" in svg


def test_svg_skipped_for_single_point():
    assert rows_to_svg([SweepRow(1.0, 0.1, "m", 0, 0, 0)], "t") is None


def test_write_outputs_atomic_and_named(tmp_path, fig2_result):
    out = tmp_path / "results"
    written = write_outputs(fig2_result, str(out), "fig2")
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["fig2-log_negativity.csv", "fig2-log_negativity.svg"]
    assert all(os.path.exists(p) for p in written)
    leftovers = [p for p in os.listdir(out) if "tmp" in p]
    assert not leftovers
