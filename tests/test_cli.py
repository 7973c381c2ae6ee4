import copy
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from athermal_markov import cli
from athermal_markov.cli import ConfigError, apply_overrides, load_config, main
from athermal_markov.experiments import builtin_distance, builtin_fig2, builtin_fig3
from athermal_markov.linalg import reduce_mod_2pi
from athermal_markov.optimize import MAX_GRID_POINTS, MAX_ROUNDS, MAX_STARTS


@pytest.fixture()
def fig2_json(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(builtin_fig2().to_dict()))
    return str(path)


def small_fig2_args(out_dir, extra=()):
    return ["fig2", "--out", out_dir,
            "--set", "sweep={\"values\": [3.0, 4.0, 5.0], \"variable\": \"temperature\"}",
            *extra]


def test_fig2_end_to_end(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(small_fig2_args(str(out)))
    assert code == 0
    assert (out / "fig2-log_negativity.csv").exists()
    assert (out / "fig2-log_negativity.svg").exists()
    printed = capsys.readouterr().out
    assert "log_negativity" in printed
    assert "wrote" in printed


def test_no_svg_flag(tmp_path):
    out = tmp_path / "results"
    code = main(small_fig2_args(str(out), extra=["--no-svg"]))
    assert code == 0
    assert (out / "fig2-log_negativity.csv").exists()
    assert not (out / "fig2-log_negativity.svg").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing.json" in err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["file_digits", "file_bytes", "set_digits"])
def test_unparseable_config_values_exit_2_naming_their_source(tmp_path, capsys, case):
    # a 5,001-digit integer is past Python's digit limit, and \xff\xfe is no UTF-8
    path, digits = tmp_path / "big.json", "1" * 5001
    path.write_bytes({"file_digits": f'{{"optimizer": {{"seeds": {digits}}}}}'.encode(),
                      "file_bytes": b"\xff\xfe",
                      "set_digits": json.dumps(builtin_fig2().to_dict()).encode()}[case])
    argv = ["validate", "--config", str(path)]
    if case == "set_digits":
        argv += ["--set", f"optimizer.seeds={digits}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and len(err) < 500
    assert ("--set optimizer.seeds" if case == "set_digits" else str(path)) in err


def test_config_missing_field_names_it(tmp_path, capsys):
    data = builtin_fig2().to_dict()
    del data["perturbation"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code = main(["validate", "--config", str(path)])
    assert code == 2
    assert "config.perturbation" in capsys.readouterr().err


def test_validate_dry_run(fig2_json, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code = main(["validate", "--config", fig2_json])
    assert code == 0
    printed = capsys.readouterr().out
    assert "dims: system 2, bath 2" in printed
    assert "100000" in printed or "1e+05" in printed  # block phases shown
    assert sorted(tmp_path.rglob("*")) == before  # nothing ran, nothing written


@pytest.mark.parametrize("flags", [["--out", "never"], ["--no-svg"], ["--verbose"]])
def test_validate_rejects_output_flags(fig2_json, tmp_path, capsys, monkeypatch, flags):
    # validate writes and prints no result, so an output flag is an error, not ignored
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", fig2_json, *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_validate_round_trip(fig2_json):
    cfg = load_config(fig2_json)
    assert cfg.to_dict() == builtin_fig2().to_dict()


def test_run_user_config(fig2_json, tmp_path):
    out = tmp_path / "results"
    code = main(["run", "--config", fig2_json, "--out", str(out),
                 "--set", "epsilons=[0.2]",
                 "--set", "sweep={\"values\": [4.0], \"variable\": \"temperature\"}"])
    assert code == 0
    csv_path = out / "fig2-log_negativity.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert ",0.2," in lines[1]


def test_override_reflected_in_metadata():
    data = apply_overrides(builtin_fig2().to_dict(), ["epsilons=[0.05]"])
    cfg = cli.config_from_dict(data)
    assert cfg.epsilons == (0.05,)
    from athermal_markov.experiments import run_config
    small = apply_overrides(
        data, ["sweep={\"values\": [4.0], \"variable\": \"temperature\"}"])
    result = run_config(cli.config_from_dict(small))
    assert result.metadata["config"]["epsilons"] == [0.05]


def test_overrides_leave_the_input_unchanged():
    data = builtin_fig2().to_dict()
    snapshot = copy.deepcopy(data)
    out = apply_overrides(data, ["epsilons=[0.05]", "optimizer.seeds=3", "sweep.values=[4.0]",
                                 "mto_relation.offset=1"])
    assert data == snapshot
    assert out["epsilons"] == [0.05] and out["optimizer"]["seeds"] == 3
    assert out["sweep"] == {"values": [4.0], "variable": "temperature"}
    assert out["mto_relation"] == {"offset": 1}
    assert apply_overrides(data, []) is data


def test_override_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"^config\.flux: unknown field$"):
        cli.config_from_dict(apply_overrides(builtin_fig2().to_dict(), ["flux=3"]))


def test_override_creates_a_missing_optional_section(tmp_path):
    data = builtin_fig2().to_dict()
    del data["optimizer"]
    path = tmp_path / "no-optimizer.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path), "--set", "optimizer.seeds=20"]) == 0
    from athermal_markov.experiments import run_config
    small = apply_overrides(data, ["optimizer.seeds=20", "epsilons=[0.1]",
                                   "sweep={\"values\": [4.0], \"variable\": \"temperature\"}"])
    result = run_config(cli.config_from_dict(small))
    assert result.metadata["config"]["optimizer"]["seeds"] == 20


def test_override_section_must_be_known_and_an_object(fig2_json, capsys):
    with pytest.raises(ConfigError, match=r"^config\.flux: unknown field$"):
        cli.config_from_dict(apply_overrides(builtin_fig2().to_dict(), ["flux.a=1"]))
    assert main(["validate", "--config", fig2_json, "--set", "epsilons.x=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.epsilons: ") and "epsilons.x" in err


def test_run_and_validate_build_once(monkeypatch, fig2_json, tmp_path):
    from athermal_markov import thermal
    calls = []
    original = thermal.build_block_unitary
    monkeypatch.setattr(thermal, "build_block_unitary",
                        lambda *args: calls.append(1) or original(*args))
    assert main(["validate", "--config", fig2_json]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["run", "--config", fig2_json, "--out", str(tmp_path / "out"),
                 "--set", "epsilons=[0.2]",
                 "--set", "sweep={\"values\": [4.0], \"variable\": \"temperature\"}"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["fig3", "--out", str(tmp_path / "fig3"), "--no-svg",
                 "--set", "sweep.values=[0.5]"]) == 0
    assert len(calls) == 1


def test_successive_calls_share_the_parser_but_not_overrides(fig2_json, capsys):
    assert main(["validate", "--config", fig2_json, "--set", "epsilons=[0.05]"]) == 0
    assert "epsilons: [0.05]" in capsys.readouterr().out
    assert main(["validate", "--config", fig2_json, "--set", "sweep.values=[3.0]"]) == 0
    printed = capsys.readouterr().out
    assert "epsilons: [0.1, 0.15, 0.2]" in printed
    assert "sweep: 1 x temperature" in printed
    assert cli._build_parser() is cli._build_parser()


def test_verbose_rows_name_the_sweep_variable(tmp_path, capsys):
    assert main(["fig3", "--out", str(tmp_path), "--no-svg", "--verbose",
                 "--set", "sweep.values=[0.5]"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if " eps=" in line]
    assert len(rows) == 2 and all(line.startswith("  beta=0.5 eps=0.2 ") for line in rows)


def test_override_requires_key_value():
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        apply_overrides(builtin_fig2().to_dict(), ["epsilons"])


def test_seed_list_and_grid_overrides_reach_optimizer(tmp_path):
    out = tmp_path / "results"
    code = main(small_fig2_args(str(out), extra=["--seed-list", "alt", "--grid", "5",
                                                 "--tol", "1e-7", "--verbose"]))
    assert code == 0


def test_seed_list_recorded_in_metadata():
    from athermal_markov.experiments import run_config
    data = apply_overrides(builtin_fig2().to_dict(), [
        "sweep={\"values\": [4.0], \"variable\": \"temperature\"}",
        "epsilons=[0.1]",
        "optimizer.seed_sequence=alt-list",
    ])
    result = run_config(cli.config_from_dict(data))
    assert result.metadata["config"]["optimizer"]["seed_sequence"] == "alt-list"


def test_failed_run_leaves_no_partial_output(tmp_path, capsys):
    data = builtin_fig2().to_dict()
    data["measures"] = ["choi_distance"]  # no mto_relation: rejected pre-run
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "results"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "mto_relation" in capsys.readouterr().err
    assert not out.exists()


def test_initial_coeffs_of_another_size_exit_2_under_validate_and_run(tmp_path, capsys):
    data = builtin_fig2().to_dict()
    del data["initial_population_a"]
    data["initial_coeffs"] = {"real": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == ("error: config.initial_coeffs: expected shape (2, 2) "
                                           "for a 2-level system, got (3, 3)\n")
    assert not (tmp_path / "out").exists()


def test_one_level_system_population_exits_2_under_validate_and_run(tmp_path, capsys):
    # 1 - a and a would land in the one level's single entry
    data = {"name": "one_level", "system": {"matrix": {"real": [[0.0]]}},
            "bath": {"name": "pauli_z"}, "perturbation": {"matrix": {"real": [[1.0]]}},
            "epsilons": [0.05], "sweep": {"values": [1.0]},
            "unitary_blocks": [{"phases": [0.0]}, {"phases": [1.0]}],
            "measures": ["choi_distance"], "initial_population_a": 0.9,
            "mto_relation": {"coefficients": [1, -1]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == ("error: config.initial_population_a: a one-level "
                                           "system's only level holds population 1, got 0.9\n")
    assert not (tmp_path / "out").exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["fig2", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {taken}: ")
    assert taken.read_text() == "not a directory"


def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "fig2-log_negativity.csv").mkdir(parents=True)
    assert main(["fig2", "--out", str(out), "--no-svg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'fig2-log_negativity.csv'}: ")
    assert not [name for name in os.listdir(out) if ".tmp-" in name]


def _two_temperature_config(tmp_path, name, measures) -> str:
    data = builtin_fig2().to_dict()
    data.update(name=name, measures=measures, epsilons=[0.2],
                sweep={"values": [3.0, 4.0], "variable": "temperature"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_failed_output_write_replaces_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "tiny-mutual_information.csv").mkdir(parents=True)
    config = _two_temperature_config(tmp_path, "tiny", ["mutual_information", "log_negativity"])
    assert main(["run", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / 'tiny-mutual_information.csv'}: ")
    # log_negativity sorts first, yet none of its files and no temporary file is left
    assert os.listdir(out) == ["tiny-mutual_information.csv"]


def test_svg_title_is_escaped(tmp_path):
    out = tmp_path / "out"
    config = _two_temperature_config(tmp_path, "T<4 & eps", ["log_negativity", "mutual_information"])
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    charts = sorted(out.glob("*.svg"))
    assert len(charts) == 2
    for chart in charts:
        root = ET.fromstring(chart.read_text(encoding="utf-8"))
        assert any(el.text and el.text.startswith("T<4 & eps: ") for el in root.iter())


def test_properties_subcommand(tmp_path, capsys):
    code = main(["properties", "--out", str(tmp_path / "props")])
    assert code == 0
    written = os.listdir(tmp_path / "props")
    assert any(name.startswith("properties-") and name.endswith(".csv") for name in written)


def test_verbose_property_rows_name_their_control(tmp_path, capsys):
    assert main(["properties", "--out", str(tmp_path), "--no-svg", "--verbose"]) == 0
    rows = {line.split(":")[0].split()[-1]: line.split()[0]
            for line in capsys.readouterr().out.splitlines() if " eps=" in line}
    assert rows == {
        **dict.fromkeys(["ppt_spectra_2x2", "ppt_spectra_2x3", "ppt_log_negativity_2x2",
                         "ppt_log_negativity_2x3", "mto_equivalence",
                         "mto_equivalence_perturbed", "fixed_point"], "cases=50"),
        "first_order_slope_fig2": "T=4", "first_order_slope_fig2_coherent": "T=4",
        "first_order_slope_fig3": "beta=0.5", "first_order_slope_fig3_coherent": "beta=0.5",
    }



@pytest.mark.parametrize("flag, value", [("--set", "x=1"), ("--grid", "3"), ("--tol", "5"),
                                         ("--seed-list", "zz")])
def test_properties_rejects_config_flags(tmp_path, capsys, flag, value):
    # the property suite reads no config, so a config flag is an error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["properties", "--out", str(tmp_path / "props"), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "props").exists()


@pytest.mark.parametrize("study, eps, line", [
    ("fig3", "50.0", "eps=50 outside the perturbative regime: eps*||H'||/gap = 12.5"),
    ("distance", "1e6", "eps=1e+06 outside the perturbative regime: eps*||H'||/gap = 500000"),
])
def test_built_in_study_flags_epsilon_outside_the_perturbative_regime(tmp_path, capsys, study,
                                                                      eps, line):
    # a built-in study's claims rest on first-order perturbation theory
    out = tmp_path / "out"
    assert main([study, "--out", str(out), "--no-svg", "--set", f"epsilons=[{eps}]"]) == 1
    assert f"deviation: {line}\n" in capsys.readouterr().out
    assert any(out.iterdir())  # the tables are still written


def test_run_does_not_check_the_perturbative_regime(tmp_path, capsys):
    path = tmp_path / "distance.json"
    path.write_text(json.dumps({**builtin_distance().to_dict(), "epsilons": [1e6]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--no-svg"]) == 0
    assert "perturbative" not in capsys.readouterr().out


@pytest.mark.parametrize("study", ["fig2", "fig3"])
def test_nonpositive_max_iterations_exits_2(tmp_path, capsys, study):
    out = tmp_path / "out"
    assert main([study, "--out", str(out), "--set", "optimizer.max_iterations=-5"]) == 2
    assert capsys.readouterr().err == "error: config.optimizer: max_iterations must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["epsilons", "measures"])
def test_empty_list_fields_exit_2_and_write_nothing(tmp_path, capsys, field):
    out = tmp_path / "out"
    assert main(["fig2", "--out", str(out), "--set", f"{field}=[]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config.{field}: must")
    assert not out.exists()


def test_relation_offset_is_reduced_exactly(tmp_path):
    # 1e9 % 2pi in doubles lands 3.9e-8 rad off the exact remainder
    outputs = []
    for offset in (1e9, reduce_mod_2pi(1e9)):
        out = tmp_path / repr(offset)
        assert main(["distance", "--out", str(out), "--no-svg",
                     "--set", f"mto_relation.offset={offset!r}"]) == 0
        outputs.append([(out / f"distance-{m}.csv").read_bytes()
                        for m in ("choi_distance", "choi_distance_bound")])
    assert outputs[0] == outputs[1]


_LAST_THREE_BLOCKS = '{"phases":[2.0]},{"phases":[3.0]},{"phases":[4.0]}]'

# Overrides whose value has the wrong JSON type or is out of range, with the
# whole stderr each must give: the field and the value are named.
NAMED_ERRORS = {
    "optimizer.seeds=1.5": "config.optimizer.seeds: expected an integer, got 1.5",
    "optimizer.grid_resolution=24.9": "config.optimizer.grid_resolution: expected an integer, "
                                      "got 24.9",
    "optimizer.max_iterations=true": "config.optimizer.max_iterations: expected an integer, "
                                     "got true",
    "epsilons=[true]": "config.epsilons: expected a number, got true",
    'initial_population_a="0.5"': 'config.initial_population_a: expected a number, got "0.5"',
    'optimizer.f_tol="1e-8"': 'config.optimizer.f_tol: expected a number, got "1e-8"',
    "optimizer.seed_sequence=5": "config.optimizer.seed_sequence: expected a string, got 5",
    # a lone surrogate, which JSON allows, is no file name and no seed sequence
    'optimizer.seed_sequence="\\ud800"': 'config.optimizer.seed_sequence: expected valid '
                                          'Unicode, got "\\ud800"',
    'name="\\ud800"': 'config.name: expected valid Unicode, got "\\ud800"',
    'name=""': "config.name: expected a non-empty string without path separators",
    'unitary_blocks=[{"phases":[1e51]},' + _LAST_THREE_BLOCKS:
        "config.unitary_blocks: angle 1e+51 is too large: |angle| must be below 1e+45",
    'unitary_blocks=[{"phases":[-1e51]},' + _LAST_THREE_BLOCKS:
        "config.unitary_blocks: angle -1e+51 is too large: |angle| must be below 1e+45",
    'unitary_blocks=[{"phases":[1e308]},' + _LAST_THREE_BLOCKS:
        "config.unitary_blocks: angle 1e+308 is too large: |angle| must be below 1e+45",
    'measures=["choi_distance","choi_distance"]':
        "config.measures: 'choi_distance' is listed more than once",
    'mto_relation={"coefficients":[1,-1,-1,1],"offset":1e300}':
        "config.mto_relation: angle 1e+300 is too large: |angle| must be below 1e+45",
    "sweep.values=[3,3]": "config.sweep.values: 3.0 is listed more than once",
    "epsilons=[0.1,0.1]": "config.epsilons: 0.1 is listed more than once",
    'system={"matrix":{"real":[1.0,2.0]}}':
        "config.system.matrix.real: expected a square matrix of 1 to 36 rows, got shape (2,)",
    'system={"matrix":{"real":[[[1.0]]]}}':
        "config.system.matrix.real: expected a square matrix of 1 to 36 rows, got shape (1, 1, 1)",
    'bath={"matrix":{"real":[' + ",".join(["[]"] * 37) + "]}}":
        "config.bath.matrix.real: expected a square matrix of 1 to 36 rows, got 37 rows",
    'system={"matrix":{"real":[[1.0],[0.0,1.0]]}}':
        "config.system.matrix.real: expected a square matrix of 1 to 36 rows, "
        "got row 0 of length 1 and row 1 of length 2",
    'system={"matrix":{"real":[[1.0,2.0],[0.0]]}}':
        "config.system.matrix.real: expected a square matrix of 1 to 36 rows, "
        "got row 0 of length 2 and row 1 of length 1",
    'system={"matrix":{"real":[[1.0,2.0],3.0]}}':
        "config.system.matrix.real: expected a square matrix of 1 to 36 rows, "
        "got row 0 of length 2 and row 1 not a list",
    'system={"matrix":{"real":[[1.0,[2.0]],[0.0,1.0]]}}':
        "config.system.matrix.real: expected a square matrix of 1 to 36 rows, "
        "got entry (0, 0) not a list and entry (0, 1) of length 1",
    'system={"matrix":{"real":[[[1.0],[2.0,3.0]]]}}':
        "config.system.matrix.real: expected a square matrix of 1 to 36 rows, "
        "got entry (0, 0) of length 1 and entry (0, 1) of length 2",
}

BAD_OVERRIDES = [
    "epsilons=[NaN]",
    "sweep.values=[NaN]",
    'mto_relation={"coefficients":[2,2,2,2]}',
    'mto_relation={"coefficients":[1,1]}',
    'mto_relation={"coefficients":[1,-0.5,-1,1]}',
    "epsilons=0.1",
    "sweep.values=3",
    "system.scale=[1]",
    "optimizer.seeds=Infinity",
    "system.name={}",
    'measures="log_negativity"',
    'unitary_blocks=[{"phases":[1.0],"basis":{"real":[[2.0]]}},{"phases":[2.0]},'
    '{"phases":[3.0]},{"phases":[4.0]}]',
    'unitary_blocks=[{"phases":[NaN]},{"phases":[2.0]},{"phases":[3.0]},{"phases":[4.0]}]',
    'unitary_blocks=[{"phases":[1.0],"basis":{"real":[[1e300]]}},{"phases":[2.0]},'
    '{"phases":[3.0]},{"phases":[4.0]}]',
    "epsilons=[1e20]",
    "perturbation.scale=Infinity",
    'sweep.varible="inverse_temperature"',
    "system.scal=2",
    *NAMED_ERRORS,
]

# Runs `distance --set <override>` and `validate --config <distance config>
# --set <override>` for each override read from stdin, in one interpreter, and
# prints {override: {command: {"code", "stderr"}}} as JSON.  Every warning is
# shown, as a fresh interpreter would show it, and an escaping exception is
# recorded as its traceback on the case's stderr.
_BAD_OVERRIDE_DRIVER = """
import contextlib, io, json, sys, traceback, warnings
from athermal_markov import cli, experiments

warnings.simplefilter("always")
out_dir, results = sys.argv[1], {}
config = f"{out_dir}/distance.json"
with open(config, "w") as f:
    json.dump(experiments.BUILTIN_CONFIGS["distance"](), f)
for k, override in enumerate(json.load(sys.stdin)):
    results[override] = {}
    for command in (["distance", "--out", f"{out_dir}/{k}"], ["validate", "--config", config]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*command, "--set", override])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
        results[override][command[0]] = {"code": code, "stderr": err.getvalue()}
json.dump(results, sys.stdout)
"""


@pytest.fixture(scope="module")
def bad_override_runs(tmp_path_factory):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _BAD_OVERRIDE_DRIVER, str(tmp_path_factory.mktemp("bad"))],
        input=json.dumps(BAD_OVERRIDES), capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("override", BAD_OVERRIDES)
def test_bad_numbers_exit_2_without_traceback(bad_override_runs, override):
    # validate accepts no value that the run rejects
    assert bad_override_runs[override]["validate"] == bad_override_runs[override]["distance"]
    run = bad_override_runs[override]["distance"]
    assert run["code"] == 2
    assert run["stderr"].startswith("error: ")
    assert "Traceback" not in run["stderr"]


@pytest.mark.parametrize("override", NAMED_ERRORS)
def test_bad_values_are_named_with_the_field(bad_override_runs, override):
    assert bad_override_runs[override]["distance"]["stderr"] == f"error: {NAMED_ERRORS[override]}\n"


# Overrides that parse but describe nothing a run can build, with the key each
# error must name first, as a parse error names its field (empty lists:
# test_empty_list_fields_exit_2_and_write_nothing).
_DIM_20 = json.dumps({"matrix": {"real": [[0.0] * 20] * 20}})
BUILD_ERRORS = [
    ("fig3", ['sweep.variable="kelvin"'], "sweep.variable"),
    ("fig3", ["sweep.values=[-1.0]"], "sweep.values"),
    ("fig3", ["epsilons=[-0.1]"], "epsilons"),
    ("fig3", ['measures=["foo"]'], "measures"),
    ("fig3", ["initial_population_a=null"], "initial_population_a"),
    ("fig3", ["initial_population_a=1.5"], "initial_population_a"),
    ("fig3", ['measures=["choi_distance"]'], "mto_relation"),
    ("fig3", [f"bath={_DIM_20}"], "bath"),  # total dimension 40
    ("fig3", ['system={"name":"gell_mann_3","scale":3.0}'], "system"),  # discord on a qutrit
    ("fig3", ['system={"name":"identity_2"}'], "system"),  # degenerate perturbation theory
    ("fig3", ['perturbation={"name":"gell_mann_1"}'], "perturbation"),
    ("fig3", ["initial_population_a=null", 'initial_coeffs={"real":[[1.0]]}'], "initial_coeffs"),
    ("fig3", ["unitary_blocks=[]"], "unitary_blocks"),
    ("fig3", ['mto_relation={"coefficients":[1.0]}'], "mto_relation"),
    # the matched qubits of fig2 have a degenerate total spectrum
    ("fig2", ['measures=["choi_distance"]', 'mto_relation={"coefficients":[1,-1,-1,1]}'], "bath"),
]


@pytest.mark.parametrize("study, overrides, key", BUILD_ERRORS,
                         ids=[f"{key}-{k}" for k, (_, _, key) in enumerate(BUILD_ERRORS)])
def test_build_errors_name_their_config_key(tmp_path, capsys, study, overrides, key):
    out = tmp_path / "out"
    args = [study, "--out", str(out)]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: config.{key}: ")
    assert not out.exists()


def test_negative_zero_epsilon_is_stored_as_zero(tmp_path):
    # -0.0 passes the nonnegative check; stored as given, it would head every epsilon
    # cell of the CSV as -0.0 and hash differently from 0.0
    outputs, hashes = [], []
    for zero in ("-0.0", "0.0"):
        override = f"epsilons=[{zero}, 0.1]"
        out = tmp_path / zero
        main(["fig2", "--out", str(out), "--no-svg", "--set", override])
        outputs.append((out / "fig2-log_negativity.csv").read_bytes())
        hashes.append(cli.config_from_dict(
            apply_overrides(builtin_fig2().to_dict(), [override])).config_hash())
    assert outputs[0] == outputs[1]
    assert hashes[0] == hashes[1]


def test_optimizer_flags_need_config_objects(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**builtin_fig2().to_dict(), "optimizer": 3}))
    assert main(["validate", "--config", str(path), "--grid", "5"]) == 2
    path.write_text(json.dumps([builtin_fig2().to_dict()]))
    assert main(["validate", "--config", str(path), "--set", "epsilons=[0.1]"]) == 2
    err = capsys.readouterr().err
    assert "config.optimizer: expected an object" in err
    assert "config: expected a JSON object" in err


# Replacement values for the config fuzz: wrong types, non-finite numbers and
# malformed matrices (non-square, ragged, non-numeric, mismatched imag part).
FUZZ_VALUES = (
    None, "x", 3, float("nan"), float("inf"), [], {}, True,
    {"real": [[1.0, 2.0]]}, {"real": [[0.0, 1.0], [0.0, 0.0]]}, {"real": [[1.0], [0.0, 1.0]]},
    {"real": [["a"]]}, {"real": [[1.0]], "imag": [[1.0, 2.0]]}, {"real": 3},
)


def _paths(node, prefix=()):
    """Every key path below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def test_config_fuzz_exits_0_or_2_without_raising(tmp_path, capsys):
    rng = random.Random(20261018)
    bases = [make().to_dict() for make in (builtin_fig2, builtin_fig3, builtin_distance)]
    path = tmp_path / "fuzz.json"
    for _ in range(300):
        data = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 2)):
            target = rng.choice(list(_paths(data)))
            parent = data
            for key in target[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and rng.random() < 0.15:
                del parent[target[-1]]
            else:
                parent[target[-1]] = copy.deepcopy(rng.choice(FUZZ_VALUES))
        case = json.dumps(data)
        path.write_text(case)
        try:
            code = main(["validate", "--config", str(path)])
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} for config {case}")
        err = capsys.readouterr().err
        assert code in (0, 2), case
        assert code == 0 or err.startswith("error: "), case


# Flag values for the command fuzz: each is of the type argparse expects, so a
# bad one reaches the config checks; overrides keep the studies small.
FUZZ_SETS = (
    "epsilons=[0.05]", "epsilons=[0.02, 0.01]", "epsilons=[]", "epsilons=[-1]", "epsilons=[50.0]",
    'epsilons="x"', "sweep.values=[0.5]", "sweep.values=[4.0, 3.0]", "sweep.values=[]",
    "sweep.values=[0]", 'sweep.variable="inverse_temperature"', 'measures=["mutual_information"]',
    'measures=["log_negativity"]', 'measures=["nope"]', "optimizer.seeds=2", "optimizer.seeds=0",
    "optimizer.max_iterations=3", "optimizer.max_iterations=0", "initial_population_a=1.0",
    "initial_population_a=2", "name=fuzz", "name=null", "perturbation.scale=0.0", "no_such_field=1",
)
FUZZ_FLAGS = {
    "--grid": ("1", "2", "3", "0", "-2"),
    "--tol": ("1e-8", "1e-3", "0", "-1", "nan", "inf", "1e300"),
    "--seed-list": ("default", "bench-7", "", "x y"),
}


def test_command_flag_fuzz_exits_0_1_or_2_without_raising(tmp_path, capsys):
    rng = random.Random(20261019)
    configs = []
    for make in (builtin_fig2, builtin_fig3, builtin_distance):
        path = tmp_path / f"{make.__name__}.json"
        path.write_text(json.dumps(make().to_dict()))
        configs.append(str(path))
    for k in range(60):
        command = rng.choice(["fig2", "fig3", "distance", "run", "validate"])
        out = tmp_path / f"out{k}"
        argv = [command]
        if command in ("run", "validate"):
            argv += ["--config", rng.choice(configs)]
        if command != "validate":
            argv += ["--out", str(out)] + (["--no-svg"] if rng.random() < 0.5 else [])
        for _ in range(rng.randint(0, 2)):
            argv += ["--set", rng.choice(FUZZ_SETS)]
        for flag, values in FUZZ_FLAGS.items():
            if rng.random() < 0.3:
                argv += [flag, rng.choice(values)]
        try:
            code = main(argv)
        except BaseException as exc:  # argparse's SystemExit included: every flag is valid
            pytest.fail(f"{type(exc).__name__}: {exc} for {argv}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert code != 2 or err.startswith("error: "), argv
        assert code != 0 or command == "validate" or any(out.glob("*.csv")), argv


# The search-size caps are tested through validate only: no search above a cap
# is ever run.  fig3's discord search has 40 problems over a 2-dimensional box,
# distance's family search 2 problems over a 1-dimensional one.
SEARCHES = {"fig3": (builtin_fig3, 40, 2), "distance": (builtin_distance, 2, 1)}
CAPPED = {
    ("fig3", "optimizer.grid_resolution=1e300"): "grid_resolution: ~1e300 gives more than the "
                                                 "1048576 grid points",
    ("fig3", "optimizer.seeds=1e12"): "seeds: ~1e12 gives more than the 65536 Nelder-Mead starts",
    ("fig3", "optimizer.max_iterations=1e15"): "max_iterations: ~1e15 gives more than the 10000 "
                                               "rounds",
    ("fig3", "optimizer.grid_resolution=162"): "grid_resolution: 162 gives more than the 1048576 "
                                               "grid points",
    ("distance", "optimizer.grid_resolution=524289"): "grid_resolution: 524289 gives more than "
                                                      "the 1048576 grid points",
    ("distance", "optimizer.seeds=32769"): "seeds: 32769 gives more than the 65536 Nelder-Mead "
                                           "starts",
}


@pytest.fixture()
def study_configs(tmp_path):
    for name, (make, _, _) in SEARCHES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(make().to_dict()))
    return {name: str(tmp_path / f"{name}.json") for name in SEARCHES}


@pytest.mark.parametrize("study, override", CAPPED)
def test_validate_rejects_a_search_above_its_cap(study_configs, capsys, study, override):
    assert main(["validate", "--config", study_configs[study], "--set", override]) == 2
    _, problems, dim = SEARCHES[study]
    assert capsys.readouterr().err == (
        f"error: config.optimizer.{CAPPED[study, override]} one search may hold "
        f"({problems} problems over a {dim}-dimensional box)\n")


@pytest.mark.parametrize("study, override", [
    ("fig3", "optimizer.grid_resolution=161"), ("fig3", "optimizer.seeds=1638"),
    ("fig3", "optimizer.max_iterations=10000"), ("distance", "optimizer.grid_resolution=524288"),
    ("distance", "optimizer.seeds=32768")])
def test_validate_accepts_a_search_at_its_cap(study_configs, study, override):
    assert main(["validate", "--config", study_configs[study], "--set", override]) == 0


def test_optimizer_size_fuzz_validates_and_runs_what_it_accepts(study_configs, tmp_path, capsys):
    # optimizer integers on both sides of each cap; validate settles every one,
    # and the accepted configs with a small search also run
    rng = random.Random(20261020)
    ran = 0
    for k in range(40):
        study = rng.choice(sorted(SEARCHES))
        _, problems, dim = SEARCHES[study]
        # each value small half the time, else near a cap or far above it
        grid = rng.choice([rng.randint(1, 4)] * 3 + [rng.randint(150, 170),
                          rng.randint(520_000, 530_000), 10 ** rng.randint(7, 300)])
        seeds = rng.choice([rng.randint(1, 3)] * 3 + [rng.randint(1630, 1650),
                           rng.randint(32_760, 32_780), 10 ** rng.randint(6, 30)])
        rounds = rng.choice([rng.randint(1, 5)] * 2 + [rng.randint(9_990, 10_010),
                            10 ** rng.randint(5, 30)])
        sets = []
        for key, value in (("grid_resolution", grid), ("seeds", seeds), ("max_iterations", rounds)):
            sets += ["--set", f"optimizer.{key}={value}"]
        over = (problems * grid ** dim > MAX_GRID_POINTS or problems * seeds > MAX_STARTS
                or rounds > MAX_ROUNDS)
        try:
            code = main(["validate", "--config", study_configs[study], *sets])
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} for {study} {sets}")
        err = capsys.readouterr().err
        assert code == (2 if over else 0), (study, sets)
        assert code == 0 or err.startswith("error: config.optimizer."), (study, sets)
        if code == 0 and grid <= 4 and seeds <= 3 and rounds <= 5:
            code = main([study, "--out", str(tmp_path / f"out{k}"), "--no-svg", *sets])
            assert code in (0, 1), (study, sets)
            assert "Traceback" not in capsys.readouterr().err
            ran += 1
    assert ran >= 3, ran
