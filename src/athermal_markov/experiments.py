"""Preconfigured numerical studies and the sweep engine behind them.

``run_config`` sweeps any config over its (epsilon, control) grid; with the
Choi distance it adds a ``choi_distance_bound`` row per grid point (response,
first-order bound, their gap), and its metadata says whether every search
converged.  ``run_study`` runs a built-in study, ``fig2`` (qubit-qubit
entanglement response over bath temperature), ``fig3`` (qubit-qutrit
correlation and discord response) or ``distance`` (a qubit-qubit
distance-measure counter-example), on its config from ``BUILTIN_CONFIGS``
(literal JSON data), and checks its claims from ``CLAIMS``: each is a
predicate on every row of one measure, on consecutive control values at one
epsilon, or on consecutive epsilons at one control value.  ``_check_claims``
records a deviation line per epsilon outside the perturbative regime, per
failed case and per search that did not converge, and flags the rows that
fail a row claim; nothing is raised, so a full table always comes back.
``run_property_suite`` runs randomized structural checks, one row per
property, and checks them the same way against ``CLAIMS["properties"]``.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import math
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import measures, thermal
from .linalg import (DensityMatrix, dagger, partial_trace, partial_transpose, spectrum_entropy,
                     trace_norm)
from .optimize import OptimizerConfig, check_search_size, constrained_phase_manifold
from .thermal import Hamiltonian, PerturbationSpec

MAX_TOTAL_DIMENSION = 36


NAMED_OPERATORS = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
    "identity_2": np.eye(2, dtype=complex),
    "identity_3": np.eye(3, dtype=complex),
    "gell_mann_1": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    "gell_mann_2": np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    "gell_mann_3": np.diag([1.0, -1.0, 0.0]).astype(complex),
    "gell_mann_4": np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    "gell_mann_5": np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    "gell_mann_6": np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    "gell_mann_7": np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    "gell_mann_8": (np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)).astype(complex),
}


def _matrix_to_json(m: np.ndarray) -> dict:
    return {"real": np.real(m).tolist(), "imag": np.imag(m).tolist()}


def _field(where: str, build, *args):
    """``build(*args)``, with a conversion or construction error re-raised as a
    ValueError that names the field ``where``."""
    try:
        return build(*args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _typed(value, where: str, kind: type = float):
    """``value`` as ``kind``: a float from any JSON number but a boolean, an int
    from an integer or an integral float, a str from a string of valid Unicode.
    Any other value, a non-finite float and a string holding a lone surrogate
    are a ValueError naming ``where`` and the value."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (isinstance(value, str) if kind is str else number and (
            kind is float or isinstance(value, int) or value.is_integer())):
        expected = {float: "a number", int: "an integer", str: "a string"}[kind]
        raise ValueError(f"{where}: expected {expected}, got {json.dumps(value, default=repr)}")
    value = _field(where, kind, value)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{where}: {value} is not finite")
    # lone surrogates (JSON "\ud800", argv bytes not in UTF-8) encode to no file name or seed
    if kind is str and any("\ud800" <= c <= "\udfff" for c in value):
        raise ValueError(f"{where}: expected valid Unicode, got {json.dumps(value)}")
    return value


def _given(data: dict, key: str, parse, where: str, *args):
    """``parse(data[key], f"{where}.{key}", *args)``, or None where ``key`` is absent or null."""
    value = data.get(key)
    return None if value is None else parse(value, f"{where}.{key}", *args)


def _object(data, where: str, required: tuple[str, ...] = (),
            optional: tuple[str, ...] = ()) -> dict:
    """``data`` as a JSON object holding every ``required`` key and no key
    outside ``required`` and ``optional``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object")
    for key in required:
        if key not in data:
            raise ValueError(f"{where}.{key}: missing required field")
    for key in data:
        if key not in required and key not in optional:
            raise ValueError(f"{where}.{key}: unknown field")
    return data


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list")
    return value


def _floats(value, where: str) -> tuple[float, ...]:
    return tuple(_typed(v, where) for v in _as_list(value, where))


def _real_matrix(value, where: str) -> np.ndarray:
    """A square matrix of 1 to ``MAX_TOTAL_DIMENSION`` rows of JSON numbers, as
    a float array of finite entries.  The row count is checked before any entry
    is typed, then, depth by depth, that every list is as long as the first of
    its depth and every other value is a list where the first is, so numpy
    only ever sees a regular nest of lists."""
    expected = f"{where}: expected a square matrix of 1 to {MAX_TOTAL_DIMENSION} rows, got"
    rows = len(_as_list(value, where))
    if not 1 <= rows <= MAX_TOTAL_DIMENSION:
        raise ValueError(f"{expected} {rows} rows")
    shape, level = (rows,), value  # the values at one depth, in row-major order

    def named(k, n):
        at = f"row {k}" if len(shape) == 1 else f"entry {tuple(map(int, np.unravel_index(k, shape)))}"
        return f"{at} not a list" if n is None else f"{at} of length {n}"
    while level:
        lengths = [len(v) if isinstance(v, list) else None for v in level]
        for k, n in enumerate(lengths):
            if n != lengths[0]:
                raise ValueError(f"{expected} {named(0, lengths[0])} and {named(k, n)}")
        if lengths[0] is None:
            break
        shape, level = shape + (lengths[0],), [x for v in level for x in v]
    m = np.array([_typed(v, where) for v in level], dtype=float).reshape(shape)
    if m.shape != (rows, rows):
        raise ValueError(f"{expected} shape {m.shape}")
    return m


def _matrix_from_json(data, where: str) -> np.ndarray:
    _object(data, where, ("real",), ("imag",))
    real = _real_matrix(data["real"], f"{where}.real")
    imag = np.zeros_like(real)
    if data.get("imag") is not None:
        imag = _real_matrix(data["imag"], f"{where}.imag")
        if imag.shape != real.shape:
            raise ValueError(f"{where}: 'imag' shape {imag.shape} != 'real' shape {real.shape}")
    return real + 1j * imag


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian given by operator name plus scale, or an explicit matrix."""

    name: str | None = None
    scale: float = 1.0
    matrix: np.ndarray | None = None

    def build(self) -> Hamiltonian:
        if (self.name is None) == (self.matrix is None):
            raise ValueError("hamiltonian spec needs exactly one of 'name' or 'matrix'")
        if self.name is not None and self.name not in NAMED_OPERATORS:
            raise ValueError(f"unknown operator name '{self.name}'")
        m = NAMED_OPERATORS[self.name] if self.matrix is None else self.matrix
        return Hamiltonian.from_matrix(self.scale * np.asarray(m, dtype=complex))

    def to_dict(self) -> dict:
        if self.name is not None:
            return {"name": self.name, "scale": self.scale}
        return {"scale": self.scale, "matrix": _matrix_to_json(np.asarray(self.matrix))}

    @classmethod
    def from_dict(cls, data: dict, where: str) -> "HamiltonianSpec":
        _object(data, where, optional=("name", "scale", "matrix"))
        return cls(matrix=_given(data, "matrix", _matrix_from_json, where),
                   name=_given(data, "name", _typed, where, str),
                   scale=_typed(data.get("scale", 1.0), f"{where}.scale"))


@dataclass(frozen=True)
class BlockSpec:
    """Unitary for one total-energy eigenspace: eigenphases, optional basis."""

    phases: tuple[float, ...]
    basis: np.ndarray | None = None

    def build(self):
        if self.basis is None:
            if len(self.phases) != 1:
                raise ValueError("multi-phase block needs an explicit intra-block basis")
            return self.phases[0]
        return (np.array(self.phases, dtype=float), np.asarray(self.basis, dtype=complex))

    def to_dict(self) -> dict:
        out: dict = {"phases": list(self.phases)}
        if self.basis is not None:
            out["basis"] = _matrix_to_json(self.basis)
        return out

    @classmethod
    def from_dict(cls, data: dict, where: str) -> "BlockSpec":
        _object(data, where, ("phases",), ("basis",))
        return cls(_floats(data["phases"], f"{where}.phases"),
                   _given(data, "basis", _matrix_from_json, where))


@dataclass(frozen=True, eq=False)
class StudySetup:
    """Everything a run builds from an :class:`ExperimentConfig`."""

    h_sys: Hamiltonian
    h_bath: Hamiltonian
    h_tot: Hamiltonian
    unitary: thermal.EnergyBlockUnitary
    h_prime: Hamiltonian
    coeffs: np.ndarray
    rho: DensityMatrix
    rho_eps: tuple[DensityMatrix, ...]  # one exact perturbed input per config epsilon
    family: measures.MarkovianFamily | None  # the Choi distance's phase family, or None

    def operation(self, beta: float) -> thermal.ThermalOperation:
        """The thermal operation against the bath's Gibbs state at ``beta``."""
        return thermal.thermal_operation(self.unitary, thermal.gibbs_state(self.h_bath, beta))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one sweep.

    ``sweep_values`` is the control grid; ``sweep_variable`` says whether a
    value is a temperature (beta = 1/value) or directly an inverse
    temperature.  The initial system state is diagonal in the energy
    eigenbasis with weight ``initial_population_a`` on the top level, unless
    explicit level-basis coefficients are given.  Construction builds
    everything a run needs into ``setup``, so a config exists only if it
    builds; errors are ValueErrors that name the field.
    """

    name: str
    system: HamiltonianSpec
    bath: HamiltonianSpec
    perturbation: HamiltonianSpec
    epsilons: tuple[float, ...]
    sweep_values: tuple[float, ...]
    unitary_blocks: tuple[BlockSpec, ...]
    measures: tuple[str, ...]
    sweep_variable: str = "temperature"
    initial_population_a: float | None = None
    initial_coeffs: np.ndarray | None = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    mto_relation: tuple[tuple[float, ...], float] | None = None
    setup: StudySetup = field(init=False, repr=False, compare=False)

    KNOWN_MEASURES = ("log_negativity", "mutual_information", "discord", "choi_distance")

    def __post_init__(self):
        object.__setattr__(self, "setup", self._build())

    # overflow leaves inf/NaN, which the unitarity and Hermiticity checks reject
    @np.errstate(over="ignore", invalid="ignore")
    def _build(self) -> StudySetup:
        if self.sweep_variable not in ("temperature", "inverse_temperature"):
            raise ValueError("sweep_variable must be 'temperature' or 'inverse_temperature'")
        if not self.sweep_values or not all(math.isfinite(v) and v > 0 and math.isfinite(
                self.beta_for(v)) for v in self.sweep_values):
            raise ValueError("sweep_values must be finite and positive, with a finite inverse")
        if not self.epsilons or not all(math.isfinite(e) and e >= 0 for e in self.epsilons):
            raise ValueError("epsilons must be nonempty, finite and nonnegative")
        if not self.measures:
            raise ValueError("measures must not be empty")
        for m in self.measures:
            if m not in self.KNOWN_MEASURES:
                raise ValueError(f"unknown measure '{m}'")
        for name, values in (("sweep_values", self.sweep_values), ("epsilons", self.epsilons),
                             ("measures", self.measures)):
            seen = set()
            for v in values:
                if v in seen:
                    raise ValueError(f"{name}: {v!r} is listed more than once")
                seen.add(v)
        if (self.initial_population_a is None) == (self.initial_coeffs is None):
            raise ValueError("need exactly one of initial_population_a or initial_coeffs")
        if self.initial_population_a is not None and not 0.0 <= self.initial_population_a <= 1.0:
            raise ValueError("initial_population_a must lie in [0, 1]")
        if "choi_distance" in self.measures and self.mto_relation is None:
            raise ValueError("choi_distance requires mto_relation")

        h_sys = _field("system", self.system.build)
        h_bath = _field("bath", self.bath.build)
        if h_sys.dim * h_bath.dim > MAX_TOTAL_DIMENSION:
            raise ValueError(f"total dimension {h_sys.dim * h_bath.dim} exceeds {MAX_TOTAL_DIMENSION}")
        if "discord" in self.measures and h_sys.dim != 2:
            raise ValueError("discord requires a qubit system")
        h_prime = _field("perturbation", self.perturbation.build)
        if h_prime.dim != h_sys.dim:
            raise ValueError("perturbation dimension must match the system")
        # every measure's perturbed input needs non-degenerate perturbation theory
        _field("system", thermal.first_order_generator, h_sys, h_prime)
        coeffs = self.initial_coeffs
        if coeffs is None:
            if h_sys.dim == 1 and self.initial_population_a != 1.0:  # its ground level is its top
                raise ValueError("initial_population_a: a one-level system's only level holds "
                                 f"population 1, got {self.initial_population_a}")
            coeffs = np.zeros((h_sys.dim, h_sys.dim))
            coeffs[0, 0] = 1.0 - self.initial_population_a
            coeffs[-1, -1] = self.initial_population_a
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (h_sys.dim, h_sys.dim):
            raise ValueError(f"initial_coeffs: expected shape {(h_sys.dim, h_sys.dim)} for a "
                             f"{h_sys.dim}-level system, got {coeffs.shape}")
        rho = _field("initial_coeffs", thermal.state_from_level_coeffs, h_sys, coeffs)
        rho_eps = tuple(_field("epsilons", thermal.perturbed_state_exact, coeffs, h_sys,
                               PerturbationSpec(h_prime, eps)) for eps in self.epsilons)
        h_tot = thermal.total_hamiltonian(h_sys, h_bath)
        unitary = _field("unitary_blocks", self.build_unitary, h_tot)
        if "choi_distance" in self.measures and any(len(idx) > 1 for _, idx in h_tot.energy_blocks()):
            raise ValueError("choi_distance requires a non-degenerate total spectrum")
        manifold = None if self.mto_relation is None else _field(
            "mto_relation", constrained_phase_manifold, len(h_tot.energy_blocks()),
            *self.mto_relation)
        # each searched measure is one search over the whole sweep
        controls = len(self.sweep_values)
        if "discord" in self.measures:
            check_search_size(self.optimizer, 2, controls * (1 + len(self.epsilons)),
                              "config.optimizer")
        family = None
        if "choi_distance" in self.measures:
            family = measures.MarkovianFamily(h_tot, manifold)
            check_search_size(self.optimizer, family.quotient.free_dim, 2 * controls,
                              "config.optimizer")
        return StudySetup(h_sys, h_bath, h_tot, unitary, h_prime, coeffs, rho, rho_eps, family)

    # -- construction helpers -------------------------------------------------

    def build_system(self) -> Hamiltonian:
        return self.setup.h_sys

    def build_bath(self) -> Hamiltonian:
        return self.setup.h_bath

    def level_coeffs(self) -> np.ndarray:
        """The initial state's coefficients in the system energy eigenbasis."""
        return self.setup.coeffs

    @property
    def control_name(self) -> str:
        """``T`` or ``beta``: the symbol of a sweep value."""
        return "beta" if self.sweep_variable == "inverse_temperature" else "T"

    def beta_for(self, value: float) -> float:
        return float(value) if self.sweep_variable == "inverse_temperature" else 1.0 / float(value)

    def build_unitary(self, h_tot: Hamiltonian) -> thermal.EnergyBlockUnitary:
        return thermal.build_block_unitary(h_tot, [b.build() for b in self.unitary_blocks])

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "system": self.system.to_dict(),
            "bath": self.bath.to_dict(),
            "perturbation": self.perturbation.to_dict(),
            "epsilons": list(self.epsilons),
            "sweep": {"values": list(self.sweep_values), "variable": self.sweep_variable},
            "unitary_blocks": [b.to_dict() for b in self.unitary_blocks],
            "measures": list(self.measures),
            "optimizer": asdict(self.optimizer),
        }
        if self.initial_population_a is not None:
            out["initial_population_a"] = self.initial_population_a
        if self.initial_coeffs is not None:
            out["initial_coeffs"] = _matrix_to_json(np.asarray(self.initial_coeffs))
        if self.mto_relation is not None:
            out["mto_relation"] = {"coefficients": list(self.mto_relation[0]),
                                   "offset": self.mto_relation[1]}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _object(data, "config", ("name", "system", "bath", "perturbation", "epsilons", "sweep",
                                 "unitary_blocks", "measures"),
                ("initial_population_a", "initial_coeffs", "optimizer", "mto_relation"))
        sweep = _object(data["sweep"], "config.sweep", ("values",), ("variable",))
        defaults = asdict(OptimizerConfig())
        opt = _object(data.get("optimizer", {}), "config.optimizer", optional=tuple(defaults))
        settings = {key: _typed(value, f"config.optimizer.{key}", type(defaults[key]))
                    for key, value in opt.items()}
        optimizer = _field("config.optimizer", lambda: OptimizerConfig(**settings))
        relation = None
        if data.get("mto_relation") is not None:
            rel = _object(data["mto_relation"], "config.mto_relation", ("coefficients",),
                          ("offset",))
            relation = (_floats(rel["coefficients"], "config.mto_relation.coefficients"),
                        _typed(rel.get("offset", 0.0), "config.mto_relation.offset"))
        coeffs = _given(data, "initial_coeffs", _matrix_from_json, "config")
        name = _typed(data["name"], "config.name", str)
        # the name becomes the prefix of the output file names
        if not name or any(c in name for c in "/\\\0"):
            raise ValueError("config.name: expected a non-empty string without path separators")
        blocks = _as_list(data["unitary_blocks"], "config.unitary_blocks")
        return cls(
            name=name,
            system=HamiltonianSpec.from_dict(data["system"], "config.system"),
            bath=HamiltonianSpec.from_dict(data["bath"], "config.bath"),
            perturbation=HamiltonianSpec.from_dict(data["perturbation"], "config.perturbation"),
            epsilons=_floats(data["epsilons"], "config.epsilons"),
            sweep_values=_floats(sweep["values"], "config.sweep.values"),
            sweep_variable=_typed(sweep.get("variable", "temperature"), "config.sweep.variable", str),
            unitary_blocks=tuple(BlockSpec.from_dict(b, f"config.unitary_blocks[{k}]")
                                 for k, b in enumerate(blocks)),
            measures=tuple(_typed(m, "config.measures", str)
                           for m in _as_list(data["measures"], "config.measures")),
            initial_population_a=_given(data, "initial_population_a", _typed, "config"),
            initial_coeffs=coeffs,
            optimizer=optimizer,
            mto_relation=relation,
        )

    def config_hash(self) -> str:
        data = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Sweep results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    control: float
    epsilon: float
    measure: str
    unperturbed: float
    perturbed: float
    delta: float
    status: str = "ok"


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    metadata: dict
    deviations: tuple[str, ...] = ()

    def rows_for(self, measure: str) -> list[SweepRow]:
        return [r for r in self.rows if r.measure == measure]

    @property
    def measure_names(self) -> list[str]:
        return list(dict.fromkeys(r.measure for r in self.rows))


def _sort_rows(rows) -> tuple[SweepRow, ...]:
    return tuple(sorted(rows, key=lambda r: (r.measure, r.epsilon, r.control)))


def _base_metadata(cfg: ExperimentConfig) -> dict:
    return {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _joint_entropies(cfg: ExperimentConfig, ops: list[thermal.ThermalOperation]
                     ) -> list[np.ndarray]:
    """Per operation in ``ops``, S(joint) of each of its evolved input states,
    without a joint-size eigendecomposition: a joint state U (rho_k (x) tau)
    U^dag has the spectrum p_k (x) q, with p_k from one ``eigvalsh`` of the
    stack of inputs and q the bath weights."""
    setup = cfg.setup
    p = np.linalg.eigvalsh(np.array([rho.matrix for rho in (setup.rho, *setup.rho_eps)]))
    return [spectrum_entropy(np.multiply.outer(p, op.bath.level_probabilities).reshape(len(p), -1))
            for op in ops]


def _measure_values(measure: str, cfg: ExperimentConfig, ops: list[thermal.ThermalOperation],
                    joints: list[list[DensityMatrix]], entropies: list[np.ndarray]
                    ) -> list[Sequence[measures.MeasureValue]]:
    """Per control value, the unperturbed value of ``measure`` at its operation
    in ``ops``, then one value per config epsilon; ``joints`` holds each control
    value's evolved input states in that order, and ``entropies`` their
    :func:`_joint_entropies`, which the mutual information and discord take
    as S(AB).  The mutual information is one kernel call and discord one
    search over every joint state of the sweep.  For the Choi distance, per
    control value, its D(0) and its bound's max ||chi||_1, from one family
    search over the sweep."""
    if measure == "choi_distance":
        return measures.distance_sweep(ops, cfg.setup.family, cfg.setup.h_prime, cfg.optimizer)
    if measure == "log_negativity":
        return [measures.log_negativities(js) for js in joints]
    flat, s_ab = [joint for js in joints for joint in js], np.concatenate(entropies)
    values = (measures.discord(flat, s_ab, cfg.optimizer) if measure == "discord"
              else measures.mutual_informations(flat, s_ab))
    n = len(joints[0])
    return [values[k:k + n] for k in range(0, len(values), n)]


def run_config(cfg: ExperimentConfig) -> SweepResult:
    """Evaluate every configured measure on the (epsilon, control) grid.

    Per control value the operation is built once and applied once to the
    stack of input states, and each closed-form measure is one kernel call on
    its joint states; each measure's unperturbed value serves every epsilon
    row.  The Choi distance is expanded over epsilon here: D(eps) = D(0), and
    each (epsilon, control) pair also gets a ``choi_distance_bound`` row: the
    distance response, its first-order bound (eps/d) max ||chi||_1 and bound
    minus response.  Rows and ``optimizer_diagnostics`` come in (measure,
    epsilon, control) order, the bounds after every measure, and
    ``optimizer_converged`` says whether every search converged.
    """
    setup = cfg.setup
    metadata = _base_metadata(cfg)
    ops = [setup.operation(cfg.beta_for(value)) for value in cfg.sweep_values]
    states = (setup.rho, *setup.rho_eps) if set(cfg.measures) - {"choi_distance"} else ()
    joints = [thermal.apply(op, states) for op in ops] if states else []
    entropies = (_joint_entropies(cfg, ops)
                 if {"mutual_information", "discord"} & set(cfg.measures) else [])
    grids = {m: _measure_values(m, cfg, ops, joints, entropies) for m in cfg.measures}
    if "choi_distance" in grids:  # per control value, (D(0), max ||chi||_1)
        grids["choi_distance_bound"] = grids["choi_distance"]
    rows, diags = [], {}
    for measure, grid in grids.items():
        for k, eps in enumerate(cfg.epsilons):
            for value, op, (before, *after) in zip(cfg.sweep_values, ops, grid):
                if measure == "choi_distance_bound":
                    # the distance response is 0.0, as D(eps) = D(0)
                    bound = eps / op.d_sys * after[0].value
                    rows.append(SweepRow(value, eps, measure, 0.0, bound, bound))
                    diags[f"{measure}/x={value}"] = after[0].diagnostics
                    continue
                mv = (measures.MeasureValue(before.kind, before.value)
                      if measure == "choi_distance" else after[k])
                rows.append(SweepRow(value, eps, measure, before.value, mv.value,
                                     float(mv.value - before.value)))
                tagged = {tag: v.diagnostics for tag, v in (("unperturbed", before),
                                                            ("perturbed", mv)) if v.diagnostics}
                if tagged:
                    diags[f"{measure}/eps={eps}/x={value}"] = tagged
    metadata["optimizer_diagnostics"] = diags
    metadata["optimizer_converged"] = all(ok for _, ok in _searches(diags))
    metadata["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    return SweepResult(_sort_rows(rows), metadata)


def _searches(diagnostics: dict):
    """(label, converged) of each search in ``optimizer_diagnostics``: a bound
    search is labelled by its key, a measure's searches by ``key/tag``."""
    for key, diags in diagnostics.items():
        if "converged" in diags:
            yield key, diags["converged"]
        else:
            yield from ((f"{key}/{tag}", d["converged"]) for tag, d in diags.items())


@dataclass(frozen=True)
class Claim:
    """What a study claims of the rows of one measure.

    ``along`` is None for a claim on each row, ``"control"`` for one on each
    pair of consecutive control values at one epsilon, and ``"epsilon"`` for
    one on each pair of consecutive epsilons at one control value.  ``holds``
    takes the row, or the pair in ascending order; ``text`` is the deviation
    line, formatted with the same rows and ``x``, the name of the control.
    """

    measure: str
    along: str | None
    holds: Callable[..., bool]
    text: str


def _cases(rows: list[SweepRow], along: str | None) -> list[tuple[SweepRow, ...]]:
    """Each row, or each pair of rows consecutive in ``along`` with the other
    coordinate held."""
    if along is None:
        return [(r,) for r in rows]
    held = "epsilon" if along == "control" else "control"
    series = sorted(rows, key=lambda r: (getattr(r, held), getattr(r, along)))
    return [(a, b) for a, b in zip(series, series[1:]) if getattr(a, held) == getattr(b, held)]


def _check_claims(result: SweepResult, claims: tuple[Claim, ...], control_name: str,
                  outside: tuple[str, ...] = ()) -> SweepResult:
    """``result`` with the deviation lines ``outside`` (the epsilons outside the
    perturbative regime), then one per failed case of ``claims`` and one per
    search that did not converge; the rows that fail a row claim are flagged."""
    deviations, offenders = list(outside), set()
    for claim in claims:
        for case in _cases(result.rows_for(claim.measure), claim.along):
            if not claim.holds(*case):
                deviations.append(claim.text.format(*case, x=control_name))
                if claim.along is None:
                    offenders.update(case)
    deviations += [f"optimizer did not converge for {label}"
                   for label, ok in _searches(result.metadata["optimizer_diagnostics"]) if not ok]
    rows = tuple(replace(r, status="deviation") if r in offenders else r for r in result.rows)
    return SweepResult(rows, result.metadata, tuple(deviations))


# ---------------------------------------------------------------------------
# Built-in configurations
# ---------------------------------------------------------------------------

def _fig2_data() -> dict:
    """The JSON config of :func:`builtin_fig2`."""
    return {
        "name": "fig2",
        "system": {"name": "pauli_z", "scale": 1.0},
        "bath": {"name": "pauli_z", "scale": 1.0},
        "perturbation": {"name": "pauli_x", "scale": 1.0},
        "epsilons": [0.1, 0.15, 0.2],
        "sweep": {"values": [float(v) for v in np.linspace(3.0, 5.0, 21)],
                  "variable": "temperature"},
        "unitary_blocks": [
            {"phases": [2e5]},  # bottom level |11>
            # Zero-energy eigenspace, block basis (|10>, |01>): phases 3e5/4e5 on
            # sqrt(2/3)|01> + sqrt(1/3)|10> and its orthogonal partner.
            {"phases": [3e5, 4e5],
             "basis": {"real": [[math.sqrt(1 / 3), -math.sqrt(2 / 3)],
                                [math.sqrt(2 / 3), math.sqrt(1 / 3)]],
                       "imag": [[0.0, 0.0], [0.0, 0.0]]}},
            {"phases": [1e5]},  # top level |00>
        ],
        "measures": ["log_negativity"],
        "initial_population_a": 0.9,
    }


def _fig3_data() -> dict:
    """The JSON config of :func:`builtin_fig3`."""
    return {
        "name": "fig3",
        "system": {"name": "pauli_z", "scale": 2.0},
        "bath": {"name": "gell_mann_1", "scale": 1.0},
        "perturbation": {"name": "pauli_x", "scale": 1.0},
        "epsilons": [0.2],
        "sweep": {"values": [float(v) for v in np.linspace(0.02, 1.0, 20)],
                  "variable": "inverse_temperature"},
        # One phase per product level, ascending in energy: the system's bottom
        # level with the bath levels bottom to top, then its top level likewise.
        "unitary_blocks": [{"phases": [9e8]}, {"phases": [7e8]}, {"phases": [8e8]},  # bottom
                           {"phases": [6e8]}, {"phases": [3e8]}, {"phases": [1.8e8]}],  # top
        "measures": ["mutual_information", "discord"],
        "initial_population_a": 0.9,
        "optimizer": {"grid_resolution": 24},
    }


def _distance_data() -> dict:
    """The JSON config of :func:`builtin_distance`."""
    return {
        "name": "distance",
        "system": {"name": "pauli_z", "scale": 1.0},
        "bath": {"name": "pauli_z", "scale": 10.0},
        "perturbation": {"name": "pauli_x", "scale": 1.0},
        "epsilons": [0.01, 0.05, 0.1],
        "sweep": {"values": [100.0], "variable": "temperature"},
        # Ascending in energy; |0> is the positive-energy level on both sides.
        "unitary_blocks": [{"phases": [2e4]},   # |11>
                           {"phases": [3e4]},   # |01>
                           {"phases": [4e4]},   # |10>
                           {"phases": [1e4]}],  # |00>
        "measures": ["choi_distance"],
        "initial_population_a": 0.9,
        "optimizer": {"grid_resolution": 8},
        # a product joint state needs the system phase difference to be the same
        # on both bath levels: +1 on |11> and |00>, -1 on |01> and |10>
        "mto_relation": {"coefficients": [1.0, -1.0, -1.0, 1.0], "offset": 0.0},
    }


# Each built-in study's config as the JSON data a config file holds, so the
# CLI applies its overrides before the one build.
BUILTIN_CONFIGS = {
    "fig2": _fig2_data,
    "fig3": _fig3_data,
    "distance": _distance_data,
}

# A built-in study's epsilon is perturbative while eps ||H'||_2 stays below this
# share of the smallest system gap; the built-in configs sit at 0.005-0.1.
PERTURBATIVE_LIMIT = 0.5

# What each built-in study claims of its rows: positive responses that grow
# along the control grid (fig3: toward its low end) and with epsilon, and a
# distance response within 5e-4 and under its first-order bound.
CLAIMS = {
    "fig2": (
        Claim("log_negativity", None, lambda r: r.delta > 0,
              "delta not positive at eps={0.epsilon}, {x}={0.control}: {0.delta}"),
        Claim("log_negativity", "control", lambda a, b: b.delta >= a.delta - 1e-12,
              "delta decreases along {x} at eps={0.epsilon}: {x}={0.control}->{1.control}"),
        Claim("log_negativity", "epsilon", lambda lo, hi: hi.delta > lo.delta,
              "delta not ordered in eps at {x}={0.control}: eps={0.epsilon} vs {1.epsilon}"),
    ),
    "fig3": (
        Claim("mutual_information", None, lambda r: r.delta > 0,
              "mutual_information delta not positive at {x}={0.control}: {0.delta}"),
        Claim("discord", None, lambda r: r.delta > 0,
              "discord delta not positive at {x}={0.control}: {0.delta}"),
        Claim("mutual_information", "control", lambda a, b: a.delta > b.delta - 1e-12,
              "mutual_information delta does not grow toward small {x}: "
              "{x}={0.control}->{1.control}"),
    ),
    "distance": (
        Claim("choi_distance", None, lambda r: abs(r.delta) <= 5e-4,
              "|delta D| above 0.0005 at eps={0.epsilon}: {0.delta}"),
        Claim("choi_distance_bound", None, lambda r: r.unperturbed <= r.perturbed + 1e-6,
              "response bound violated at eps={0.epsilon}: "
              "delta={0.unperturbed}, bound={0.perturbed}"),
    ),
    # the property suite's rows: a randomized sweep's worst case within its
    # bound, and the residual of the first-order law shrinking about fourfold
    # when epsilon halves
    "properties": (
        *(Claim(m, None, lambda r: r.unperturbed <= r.perturbed,
                "{0.measure}: worst case {0.unperturbed} above {0.perturbed}")
          for m in ("ppt_spectra_2x2", "ppt_spectra_2x3", "ppt_log_negativity_2x2",
                    "ppt_log_negativity_2x3", "fixed_point")),
        *(Claim(m, None, lambda r: r.unperturbed == r.perturbed,
                "{0.measure}: verdicts agree in {0.unperturbed:g} of {0.perturbed:g} cases")
          for m in ("mto_equivalence", "mto_equivalence_perturbed")),
        *(Claim(m, None, lambda r: 3.2 <= r.unperturbed <= 4.8,
                "{0.measure}: shrink ratio {0.unperturbed} outside [3.2, 4.8]")
          for m in ("first_order_slope_fig2", "first_order_slope_fig3")),
    ),
}


def _outside_perturbative_regime(cfg: ExperimentConfig) -> tuple[str, ...]:
    """A deviation line per config epsilon at which eps ||H'||_2 / (minimum
    system gap) reaches ``PERTURBATIVE_LIMIT``; a one-level system has no gap."""
    setup = cfg.setup
    gaps = np.diff(setup.h_sys.energies)
    if not len(gaps):
        return ()
    # H' is Hermitian: its spectral norm is its largest |energy|
    scale = float(np.abs(setup.h_prime.energies).max() / gaps.min())
    return tuple(f"eps={eps:g} outside the perturbative regime: eps*||H'||/gap = {eps * scale:g}"
                 for eps in cfg.epsilons if eps * scale >= PERTURBATIVE_LIMIT)


def run_study(name: str, cfg: ExperimentConfig | None = None) -> SweepResult:
    """The sweep of built-in study ``name`` on ``cfg`` (default: the study's
    own config), with the study's claims checked and every epsilon outside the
    perturbative regime recorded as a deviation."""
    cfg = cfg or ExperimentConfig.from_dict(BUILTIN_CONFIGS[name]())
    return _check_claims(run_config(cfg), CLAIMS[name], cfg.control_name,
                         _outside_perturbative_regime(cfg))


def builtin_fig2() -> ExperimentConfig:
    """Qubit system and bath with matched splittings, a two-dimensional
    zero-energy block hosting a rotated pair of eigenvectors, and huge
    eigenphases.  Sweeps bath temperature 3..5 for three perturbation
    strengths and tracks the entanglement response."""
    return ExperimentConfig.from_dict(_fig2_data())


def builtin_fig3() -> ExperimentConfig:
    """Qubit system against a qutrit bath with a non-degenerate total
    spectrum.  Sweeps the bath's inverse temperature over (0, 1] and tracks
    the mutual-information and discord responses at one perturbation
    strength."""
    return ExperimentConfig.from_dict(_fig3_data())


def builtin_distance() -> ExperimentConfig:
    """Qubit system with a ten-times-stiffer qubit bath at temperature 100.
    Compares the channel against the constrained Markovian phase family,
    through the Choi-state distance, for three perturbation strengths."""
    return ExperimentConfig.from_dict(_distance_data())


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def _random_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ dagger(a)
    return DensityMatrix(m / np.trace(m).real, (d,))


def _ppt_spectra_sweep(rng: np.random.Generator, d2: int, cases: int) -> tuple[float, float]:
    """Diagonal product-basis unitaries never break PPT in 2x2 / 2x3."""
    worst_spec, worst_en = 0.0, 0.0
    for _ in range(cases):
        rho = _random_density(rng, 2)
        tau = np.diag(rng.dirichlet(np.ones(d2))).astype(complex)
        # a diagonal unitary acts on rho (x) tau as an entrywise phase multiplier
        phases = np.exp(-1j * rng.uniform(0, 2 * np.pi, size=2 * d2))
        joint = np.kron(rho.matrix, tau) * np.outer(phases, phases.conj())
        joint_dm = DensityMatrix(0.5 * (joint + dagger(joint)), (2, d2))
        sp = np.sort(np.linalg.eigvalsh(joint_dm.matrix))
        pt = partial_transpose(joint_dm, 0)
        sp_pt = np.sort(np.linalg.eigvalsh(0.5 * (pt + dagger(pt))))
        worst_spec = max(worst_spec, float(np.max(np.abs(sp - sp_pt))))
        worst_en = max(worst_en, measures.log_negativity(joint_dm).value)
    return worst_spec, worst_en


def _random_bohr_system(rng: np.random.Generator) -> tuple[Hamiltonian, Hamiltonian, Hamiltonian]:
    """Qubit system + qutrit bath with non-degenerate totals and Bohr spectrum."""
    while True:
        es = np.sort(rng.uniform(-3, 3, size=2))
        eb = np.sort(rng.uniform(-3, 3, size=3))
        h_sys = Hamiltonian.from_matrix(np.diag(es).astype(complex))
        h_bath = Hamiltonian.from_matrix(np.diag(eb).astype(complex))
        h_tot = thermal.total_hamiltonian(h_sys, h_bath)
        gaps = np.diff(h_tot.energies)
        if es[1] - es[0] > 0.1 and np.min(np.diff(eb)) > 0.1 and np.min(gaps) > 1e-3:
            return h_sys, h_bath, h_tot


def _mto_equivalence_sweep(rng: np.random.Generator, cases: int) -> tuple[int, int]:
    """Direct tensor-product verdicts vs residual verdicts, also on
    first-order perturbed inputs."""
    agreements = 0
    perturbed_agreements = 0
    for case in range(cases):
        h_sys, h_bath, h_tot = _random_bohr_system(rng)
        bath = thermal.gibbs_state(h_bath, rng.uniform(0.2, 2.0))
        make_markovian = case % 2 == 0
        if make_markovian:
            base = rng.uniform(0, 2 * np.pi, size=2)
            offsets = rng.uniform(0, 2 * np.pi, size=3)
            grid = base[:, None] + offsets
        else:
            while True:
                grid = rng.uniform(0, 2 * np.pi, size=(2, 3))
                diffs = grid[0] - grid[1]
                spread = np.ptp((diffs - diffs[0] + np.pi) % (2 * np.pi))
                if spread > 0.3:
                    break
        labels = h_tot.product_labels
        u = thermal.build_block_unitary(h_tot, [float(grid[labels[idx[0]]])
                                                for _, idx in h_tot.energy_blocks()])
        op = thermal.thermal_operation(u, bath)

        coeffs = _random_density(rng, 2).matrix
        rho = thermal.state_from_level_coeffs(h_sys, coeffs)
        report = thermal.mto_check(op, rho)
        if report.is_markovian == report.residuals_markovian() == make_markovian:
            agreements += 1

        pert = PerturbationSpec(Hamiltonian.from_matrix(NAMED_OPERATORS["pauli_x"]), 1e-3)
        rho_fo = DensityMatrix(thermal.perturbed_state_first_order(coeffs, h_sys, pert), (2,))
        report_fo = thermal.mto_check(op, rho_fo)
        if (report_fo.is_markovian == report.is_markovian
                and report_fo.residuals_markovian() == report.residuals_markovian()):
            perturbed_agreements += 1
    return agreements, perturbed_agreements


def _fixed_point_sweep(rng: np.random.Generator, cases: int) -> float:
    """Energy-preserving unitaries fix the matched-temperature Gibbs state."""
    worst = 0.0
    for case in range(cases):
        if case % 2 == 0:
            h_sys = Hamiltonian.from_matrix(NAMED_OPERATORS["pauli_z"])
            h_bath = Hamiltonian.from_matrix(NAMED_OPERATORS["pauli_z"])
        else:
            h_sys, h_bath, _ = _random_bohr_system(rng)
        h_tot = thermal.total_hamiltonian(h_sys, h_bath)
        params = []
        for _, idx in h_tot.energy_blocks():
            k = len(idx)
            if k == 1:
                params.append(float(rng.uniform(0, 2 * np.pi)))
            else:
                a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
                q, r = np.linalg.qr(a)
                params.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        u = thermal.build_block_unitary(h_tot, params)
        beta = float(rng.uniform(0.1, 3.0))
        bath = thermal.gibbs_state(h_bath, beta)
        op = thermal.thermal_operation(u, bath)
        tau_sys = thermal.gibbs_state(h_sys, beta)
        # apply's system marginal is in the system eigenbasis, where tau_sys is diag(p)
        out = partial_trace(thermal.apply(op, tau_sys.state), 0)
        worst = max(worst, 0.5 * trace_norm(out.matrix - np.diag(tau_sys.level_probabilities)))
    return worst


def _slope_ratio(cfg: ExperimentConfig, control: float) -> float:
    """Residual shrink factor of the first-order correlation-response law
    when epsilon halves, using first-order perturbed inputs."""
    setup = cfg.setup
    op = setup.operation(cfg.beta_for(control))
    h_sys, h_prime, coeffs = setup.h_sys, setup.h_prime, setup.coeffs

    base = measures.mutual_information(thermal.apply(op, setup.rho)).value
    theta = measures.theta_lambda(op, coeffs, PerturbationSpec(h_prime, 1.0))

    def residual(eps: float) -> float:
        state = DensityMatrix(
            thermal.perturbed_state_first_order(coeffs, h_sys, PerturbationSpec(h_prime, eps)),
            (h_sys.dim,))
        val = measures.mutual_information(thermal.apply(op, state)).value
        return abs(val - base - eps * theta)

    return residual(1e-2) / residual(5e-3)


def run_property_suite() -> SweepResult:
    """Randomized checks of the structural claims behind the experiments, one
    row per property, checked against ``CLAIMS["properties"]``.  A randomized
    sweep's row holds its worst case, its bound and bound minus worst case; a
    slope row holds the residual shrink ratio, 4 and ratio minus 4."""
    rng = np.random.default_rng(20260809)
    found = []
    for d2 in (2, 3):
        spectra, negativity = _ppt_spectra_sweep(rng, d2, 50)
        found += [(f"ppt_spectra_2x{d2}", spectra, 1e-10),
                  (f"ppt_log_negativity_2x{d2}", negativity, 1e-9)]
    direct, perturbed = _mto_equivalence_sweep(rng, 50)
    found += [("mto_equivalence", direct, 50), ("mto_equivalence_perturbed", perturbed, 50),
              ("fixed_point", _fixed_point_sweep(rng, 50), 1e-9)]
    rows = [SweepRow(50, 0.0, label, value, bound, bound - value) for label, value, bound in found]

    # a randomized sweep's control is its case count; a slope row's is its study's
    controls = {row.measure: "cases" for row in rows}
    for cfg, control, label in ((builtin_fig2(), 4.0, "first_order_slope_fig2"),
                                (builtin_fig3(), 0.5, "first_order_slope_fig3")):
        controls[label] = cfg.control_name
        ratio = _slope_ratio(cfg, control)
        rows.append(SweepRow(control, 1e-2, label, ratio, 4.0, ratio - 4.0))

    metadata = {
        "config": {"name": "properties", "seed": 20260809},
        "config_hash": "properties-20260809",
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "controls": controls,
        "optimizer_diagnostics": {},
    }
    return _check_claims(SweepResult(_sort_rows(rows), metadata), CLAIMS["properties"], "cases")


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def rows_to_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["T", "epsilon", "measure", "unperturbed", "perturbed", "delta", "status"])
    for r in rows:
        writer.writerow([repr(float(r.control)), repr(float(r.epsilon)), r.measure,
                         repr(float(r.unperturbed)), repr(float(r.perturbed)),
                         repr(float(r.delta)), r.status])
    return buf.getvalue()


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def rows_to_svg(rows, title: str) -> str | None:
    """Minimal line chart: delta vs control, one polyline per epsilon."""
    series: dict[float, list[tuple[float, float]]] = {}
    for r in rows:
        series.setdefault(r.epsilon, []).append((r.control, r.delta))
    series = {e: sorted(pts) for e, pts in series.items() if len(pts) >= 2}
    if not series:
        return None
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    width, height, margin = 640, 400, 60
    # what xml.sax.saxutils.escape does, without the urllib/ssl imports it pulls in
    text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{text}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for k in range(5):
        x = x0 + k * (x1 - x0) / 4
        y = y0 + k * (y1 - y0) / 4
        parts.append(f'<text x="{sx(x):.1f}" y="{height - margin + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{x:.4g}</text>')
        parts.append(f'<text x="{margin - 8}" y="{sy(y) + 4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{y:.4g}</text>')
    for k, (eps, pts) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 6}" y="{margin + 16 * k + 4}" font-size="11" '
                     f'font-family="sans-serif" fill="{color}">eps={eps:.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_outputs(result: SweepResult, out_dir: str, name: str, svg: bool = True) -> list[str]:
    """One CSV (and optionally SVG) per measure, each through a temporary file
    and a rename.  Every temporary file is written, and no target may be a
    directory, before the first rename; a failure removes every temporary file
    and raises an OSError that names the output path."""
    os.makedirs(out_dir, exist_ok=True)
    payloads = {}
    for measure in result.measure_names:
        rows = result.rows_for(measure)
        payloads[os.path.join(out_dir, f"{name}-{measure}.csv")] = rows_to_csv(rows)
        chart = rows_to_svg(rows, f"{name}: {measure} response") if svg else None
        if chart is not None:
            payloads[os.path.join(out_dir, f"{name}-{measure}.svg")] = chart
    tmps = {path: f"{path}.tmp-{os.getpid()}" for path in payloads}
    try:
        for path, payload in payloads.items():
            with open(tmps[path], "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        for path in payloads:
            if os.path.isdir(path):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in tmps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from exc
    return list(payloads)
