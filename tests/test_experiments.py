import csv
import importlib
import io
import math
import os
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from athermal_markov import experiments as ex
from athermal_markov import measures, thermal
from athermal_markov.experiments import (
    BlockSpec,
    ExperimentConfig,
    HamiltonianSpec,
    SweepResult,
    SweepRow,
    builtin_distance,
    builtin_fig2,
    builtin_fig3,
    rows_to_csv,
    rows_to_svg,
    run_config,
    write_outputs,
)
from athermal_markov.linalg import DensityMatrix, entropy_of_spectrum


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


def test_builtin_config_hashes_are_pinned():
    # the hash covers the whole config, so a change to any built-in number shows here
    hashes = {name: ExperimentConfig.from_dict(data()).config_hash()
              for name, data in ex.BUILTIN_CONFIGS.items()}
    assert hashes == {"fig2": "2a47d897a5c286ef", "fig3": "368beb24684b696f",
                      "distance": "c0cf0978ec0871e5"}


def test_builtin_config_data_is_fresh_on_every_call():
    for data in ex.BUILTIN_CONFIGS.values():
        first = data()
        first["unitary_blocks"][0]["phases"][0] = -1.0
        assert data() != first


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


def test_builtin_config_builds_each_hamiltonian_spec_once(monkeypatch):
    built = []
    original = HamiltonianSpec.build
    monkeypatch.setattr(HamiltonianSpec, "build", lambda self: built.append(self) or original(self))
    for make in (builtin_fig2, builtin_fig3, builtin_distance):
        built.clear()
        cfg = make()
        # the built specs stay referenced, so their ids are distinct
        assert len(built) == 3, make.__name__
        assert Counter(map(id, built)) == Counter(map(id, (cfg.system, cfg.bath, cfg.perturbation)))
        assert cfg.level_coeffs() is cfg.setup.coeffs


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
    ex.run_study("distance", _tiny_distance(epsilons=builtin_distance().epsilons))
    # the distance and its bound share one search
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
        before, *after = measures.discord(thermal.apply(op, (setup.rho, *setup.rho_eps)),
                                          ex._joint_entropies(cfg, [op])[0], cfg.optimizer)
        rows = [r for r in result.rows_for("discord") if r.control == value]
        assert [(r.unperturbed, r.perturbed) for r in rows] == [
            (before.value, mv.value) for mv in after]
        for eps, mv in zip(cfg.epsilons, after):
            assert result.metadata["optimizer_diagnostics"][f"discord/eps={eps}/x={value}"] == {
                "unperturbed": before.diagnostics, "perturbed": mv.diagnostics}


def _channel_sweep_4x9(monkeypatch) -> ExperimentConfig:
    """The 4 x 9 job of the bench's channel_sweep workload at seed 3."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    channel_sweep = importlib.import_module("channel_sweep")
    job = channel_sweep.generate_jobs(seed=3, count=len(channel_sweep.DIMS))[-1]
    return ExperimentConfig.from_dict(job.config())


def _with_pure_input(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` started in its top system level."""
    data = {key: value for key, value in cfg.to_dict().items()
            if key not in ("initial_population_a", "initial_coeffs")}
    d = cfg.setup.h_sys.dim
    return ExperimentConfig.from_dict({**data, "initial_coeffs": {"real": np.diag(
        np.eye(d)[-1]).tolist()}})


def test_sweep_mutual_information_matches_the_joint_spectrum(monkeypatch):
    # S(joint) from the input and bath spectra equals the entropy of the joint's
    # own spectrum, on the degenerate fig2 block, fig3 and a 4 x 9 pair, with
    # pure inputs, and on a pure bath
    for base in (builtin_fig2(), builtin_fig3(), _channel_sweep_4x9(monkeypatch)):
        for cfg in (base, _with_pure_input(base)):
            setup = cfg.setup
            ops = [setup.operation(beta) for beta in
                   (*(cfg.beta_for(v) for v in cfg.sweep_values), math.inf)]
            joints = [thermal.apply(op, (setup.rho, *setup.rho_eps)) for op in ops]
            values, _ = ex._measure_values("mutual_information", cfg, ops, joints,
                                           ex._joint_entropies(cfg, ops))
            for js, mvs in zip(joints, values):
                want = measures.mutual_informations(
                    js, [entropy_of_spectrum(j.matrix) for j in js])
                assert max(abs(mv.value - w.value) for mv, w in zip(mvs, want)) <= 1e-13
            if "mutual_information" in cfg.measures:
                rows = run_config(cfg).rows_for("mutual_information")
                by_value = dict(zip(cfg.sweep_values, values))
                for r in rows:
                    before, *after = by_value[r.control]
                    assert (r.unperturbed, r.perturbed) == (
                        before.value, after[cfg.epsilons.index(r.epsilon)].value)


def _traced_eigen_calls(monkeypatch) -> list[tuple[int, set[str]]]:
    """From now on, (matrix size, names of the calling functions) of every
    ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def traced(a, *args, _decompose=getattr(np.linalg, name), **kwargs):
            frame, callers = sys._getframe(1), set()
            while frame is not None:
                callers.add(frame.f_code.co_name)
                frame = frame.f_back
            calls.append((np.shape(a)[-1], callers))
            return _decompose(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, traced)
    return calls


def test_no_joint_size_eigendecomposition_outside_negativity_and_mto(monkeypatch):
    # the joint spectrum of U (rho (x) tau) U^dag is known from its inputs, so only
    # the log-negativity kernel and the Markovianity check decompose joint-size matrices
    cfg = _channel_sweep_4x9(monkeypatch)
    setup = cfg.setup
    joint_dim = setup.h_sys.dim * setup.h_bath.dim
    assert joint_dim == ex.MAX_TOTAL_DIMENSION
    calls = _traced_eigen_calls(monkeypatch)
    run_config(cfg)
    pert = thermal.PerturbationSpec(setup.h_prime, cfg.epsilons[-1])
    for value in cfg.sweep_values:
        op = setup.operation(cfg.beta_for(value))
        measures.theta_lambda(op, setup.coeffs, pert)
        thermal.mto_check(op, setup.rho)
    joint_size = [callers for size, callers in calls if size == joint_dim]
    assert all(callers & {"log_negativities", "mto_check"} for callers in joint_size)
    assert not any(callers & {"mutual_informations", "theta_lambda"} for callers in joint_size)
    # the trace saw both kernels decompose, on smaller matrices
    for kernel in ("mutual_informations", "theta_lambda"):
        assert any(kernel in callers for _, callers in calls)


def test_fig3_sweep_decomposes_no_joint_state(monkeypatch):
    # discord, like the mutual information, takes S(AB) from the input spectra,
    # and its outcomes live on the qutrit factor
    cfg = builtin_fig3()
    joint_dim = cfg.setup.h_sys.dim * cfg.setup.h_bath.dim
    calls = _traced_eigen_calls(monkeypatch)
    run_config(cfg)
    assert not [callers for size, callers in calls if size == joint_dim]
    assert any("discord" in callers for _, callers in calls)


def test_runs_build_nothing(monkeypatch):
    fig2, distance = _tiny_fig2(), _tiny_distance()
    builds = _counting(monkeypatch, thermal, "build_block_unitary")
    run_config(fig2)
    ex.run_study("distance", distance)
    assert builds == {}


def test_distance_study_builds_one_operation_per_control_value(monkeypatch):
    cfg = builtin_distance()
    assert len(cfg.sweep_values) == 1
    calls = _counting(monkeypatch, thermal, "gibbs_state")
    ex.run_study("distance", cfg)
    # the bound rides in the sweep's family search, on the operation it built
    assert calls["gibbs_state"] == 1


def test_distance_study_runs_one_family_search(monkeypatch):
    cfg = ExperimentConfig.from_dict({
        **_tiny_distance().to_dict(),
        "sweep": {"values": [100.0, 20.0], "variable": "temperature"},
        "optimizer": {"seeds": 3, "grid_resolution": 4},
    })
    problems, search = [], measures.minimize
    monkeypatch.setattr(measures, "minimize", lambda *args, **kwargs: problems.append(
        kwargs["problems"]) or search(*args, **kwargs))
    result = ex.run_study("distance", cfg)
    # one search: each control value's distance and its bound
    assert problems == [2 * len(cfg.sweep_values)]
    # every row, diagnostic and bound equals a search of its own input, and each
    # epsilon row repeats D(0)
    monkeypatch.undo()
    setup, opt = cfg.setup, cfg.optimizer
    recorded = result.metadata["optimizer_diagnostics"]
    for value in cfg.sweep_values:
        op = setup.operation(cfg.beta_for(value))
        family = setup.family(op)
        before = measures.distance_measure(op, family, opt)
        bounds, bound_diags = measures.chi_lambda_bound(op, family, setup.h_prime,
                                                        cfg.epsilons, opt)
        rows = [r for r in result.rows_for("choi_distance") if r.control == value]
        assert [(r.unperturbed, r.perturbed, r.delta) for r in rows] == [
            (before.value, before.value, 0.0)] * len(cfg.epsilons)
        bound_rows = [r for r in result.rows_for("choi_distance_bound") if r.control == value]
        assert [r.perturbed for r in bound_rows] == bounds
        for eps in cfg.epsilons:
            assert recorded[f"choi_distance/eps={eps}/x={value}"] == {
                "unperturbed": before.diagnostics}
        assert recorded[f"choi_distance_bound/x={value}"] == bound_diags
    plain = run_config(cfg)
    assert list(plain.metadata["optimizer_diagnostics"]) == list(recorded)
    # a plain sweep writes the same rows, bound rows included, and checks no claim
    assert [replace(r, status="ok") for r in result.rows] == list(plain.rows)


def test_distance_metadata_records_the_bound_search():
    cfg = _tiny_distance()
    metadata = ex.run_study("distance", cfg).metadata
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
        # D(eps) is D(0) by construction, reported as such
        assert r.perturbed == r.unperturbed and r.delta == 0.0
    bounds = distance_result.rows_for("choi_distance_bound")
    for r in bounds:
        assert r.unperturbed <= r.perturbed + 1e-6  # delta <= bound
        assert r.unperturbed == 0.0
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


def test_property_suite_all_ok(properties_result):
    assert properties_result.deviations == ()
    assert {r.status for r in properties_result.rows} == {"ok"}
    # one row per property, each checked by its own claim
    names = [r.measure for r in properties_result.rows]
    assert sorted(names) == sorted(c.measure for c in ex.CLAIMS["properties"]) == sorted({
        "ppt_spectra_2x2", "ppt_spectra_2x3", "ppt_log_negativity_2x2", "ppt_log_negativity_2x3",
        "mto_equivalence", "mto_equivalence_perturbed", "fixed_point", "first_order_slope_fig2",
        "first_order_slope_fig3"})


def test_deviations_recorded_not_raised():
    # a doctored config that violates the fig2 ordering claim still returns a table
    cfg = builtin_fig2()
    doctored = ExperimentConfig.from_dict({
        **cfg.to_dict(),
        "epsilons": [0.0, 0.1],
        "sweep": {"values": [3.0, 4.0], "variable": "temperature"},
    })
    result = ex.run_study("fig2", doctored)
    assert len(result.rows) == 4
    assert result.deviations  # eps=0 rows are flat zero: positivity claims fail
    flagged = [r for r in result.rows if r.status == "deviation"]
    assert flagged


def test_deviation_lines_name_the_control():
    cfg = ExperimentConfig.from_dict({
        **builtin_fig2().to_dict(),
        "epsilons": [0.0, 0.1],
        "sweep": {"values": [0.25, 0.3], "variable": "inverse_temperature"},
    })
    deviations = ex.run_study("fig2", cfg).deviations
    assert "delta not positive at eps=0.0, beta=0.25: 0.0" in deviations
    assert not any("T=" in line for line in deviations)


def test_perturbative_regime_starts_at_half_the_system_gap():
    # fig2: ||H'||_2 / gap = 1/2, so eps = 1 sits on the limit
    cfg = ExperimentConfig.from_dict({**builtin_fig2().to_dict(), "epsilons": [0.999, 1.0]})
    assert ex._outside_perturbative_regime(cfg) == (
        "eps=1 outside the perturbative regime: eps*||H'||/gap = 0.5",)
    # a one-level system has no gap, so no epsilon is outside the regime
    one_level = ExperimentConfig.from_dict({
        **builtin_fig2().to_dict(),
        "system": {"matrix": {"real": [[1.0]]}},
        "perturbation": {"matrix": {"real": [[2.0]]}},
        "unitary_blocks": [{"phases": [1.0]}, {"phases": [2.0]}],
        "initial_population_a": 1.0,
        "sweep": {"values": [3.0], "variable": "temperature"},
    })
    assert ex._outside_perturbative_regime(one_level) == ()
    assert not any("perturbative" in line for line in ex.run_study("fig2", one_level).deviations)


CLAIM_CASES = [(study, k) for study, claims in ex.CLAIMS.items() for k in range(len(claims))]


@pytest.mark.parametrize("study, k", CLAIM_CASES, ids=[f"{s}-{k}" for s, k in CLAIM_CASES])
def test_each_claim_reports_exactly_its_violation(request, study, k):
    claim = ex.CLAIMS[study][k]
    rows = list(request.getfixturevalue(f"{study}_result").rows)
    held = ex._check_claims(SweepResult(tuple(rows), {"optimizer_diagnostics": {}}), (claim,), "c")
    assert held.deviations == () and {r.status for r in held.rows} == {"ok"}
    first = next(r for r in rows if r.measure == claim.measure)
    if claim.along is None:
        # a negative response above its bound breaks every row claim
        case = (replace(first, unperturbed=1.0, perturbed=0.0, delta=-1.0),)
        edits = {first: case[0]}
    else:
        # swapping the responses of the first pair turns the series against the claim
        other = "epsilon" if claim.along == "control" else "control"
        second = next(r for r in rows if r.measure == claim.measure and r is not first
                      and getattr(r, other) == getattr(first, other))
        case = (replace(first, delta=second.delta), replace(second, delta=first.delta))
        edits = {first: case[0], second: case[1]}
    broken = SweepResult(tuple(edits.get(r, r) for r in rows), {"optimizer_diagnostics": {}})
    checked = ex._check_claims(broken, (claim,), "c")
    assert checked.deviations == (claim.text.format(*case, x="c"),)
    flagged = [r for r in checked.rows if r.status == "deviation"]
    assert flagged == ([replace(case[0], status="deviation")] if claim.along is None else [])


def test_every_unconverged_search_is_a_deviation():
    diagnostics = {
        "discord/eps=0.2/x=0.5": {"unperturbed": {"converged": True},
                                  "perturbed": {"converged": False}},
        "choi_distance/eps=0.1/x=100.0": {"unperturbed": {"converged": False},
                                          "perturbed": {"converged": True}},
        "choi_distance_bound/x=100.0": {"converged": False},
        "choi_distance_bound/x=20.0": {"converged": True},
    }
    checked = ex._check_claims(SweepResult((), {"optimizer_diagnostics": diagnostics}), (), "T")
    assert checked.deviations == (
        "optimizer did not converge for discord/eps=0.2/x=0.5/perturbed",
        "optimizer did not converge for choi_distance/eps=0.1/x=100.0/unperturbed",
        "optimizer did not converge for choi_distance_bound/x=100.0",
    )


def test_an_unconverged_bound_search_fails_the_study(monkeypatch):
    original = measures.distance_sweep
    monkeypatch.setattr(measures, "distance_sweep", lambda *args: [
        (values, bounds, dict(diags, converged=False))
        for values, bounds, diags in original(*args)])
    # every other search of the built-in study converges
    result = ex.run_study("distance")
    assert result.metadata["optimizer_converged"] is False
    assert result.deviations == ("optimizer did not converge for choi_distance_bound/x=100.0",)


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
