"""Random thermal-channel jobs for the ``channel_sweep`` workload.

Each job is one random system+bath pair written as a JSON experiment config.
The same seed gives the same jobs.  ``expected_values`` recomputes every
output the workload checks with plain numpy, independently of the package,
following the conventions the package documents: the system eigenbasis has
each eigenvector's largest-magnitude component real positive, perturbed
eigenvectors are matched to unperturbed levels by maximal overlap with real
positive overlap, and the global unitary is diagonal in the product
eigenbasis with one phase per total-energy level, ascending in energy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# (system, bath) dimensions; jobs cycle through them, up to the 36-dim cap.
DIMS = ((2, 2), (2, 3), (3, 3), (2, 6), (4, 4), (3, 6), (6, 6), (4, 9))
JOBS_PER_PASS = 13 * len(DIMS)
TEMPERATURES = 8
MEASURES = ("log_negativity", "mutual_information")
MAX_PHASE = 1e9
# Generation margins: a system gap large enough for non-degenerate
# perturbation theory, a total-spectrum gap far above the package's 1e-8
# degeneracy grouping, and temperatures whose bath weights stay above e^-8,
# far from the 1e-12 entropy support cutoff.
MIN_SYSTEM_GAP = 0.1
MIN_TOTAL_GAP = 1e-3
EPS_GAP_SHARE = 0.2


@dataclass(frozen=True)
class Job:
    name: str
    h_sys: np.ndarray
    h_bath: np.ndarray
    h_prime: np.ndarray
    epsilons: tuple[float, ...]
    temperatures: tuple[float, ...]
    phases: np.ndarray  # one per total-energy level, ascending energy
    coeffs: np.ndarray  # initial state in the system's level basis

    @property
    def rows(self) -> int:
        return len(self.temperatures) * len(self.epsilons) * len(MEASURES)

    def config(self) -> dict:
        return {
            "name": self.name,
            "system": {"matrix": _to_json(self.h_sys)},
            "bath": {"matrix": _to_json(self.h_bath)},
            "perturbation": {"matrix": _to_json(self.h_prime)},
            "epsilons": list(self.epsilons),
            "sweep": {"values": list(self.temperatures), "variable": "temperature"},
            "unitary_blocks": [{"phases": [float(a)]} for a in self.phases],
            "measures": list(MEASURES),
            "initial_coeffs": _to_json(self.coeffs),
        }


def _to_json(m: np.ndarray) -> dict:
    return {"real": np.real(m).tolist(), "imag": np.imag(m).tolist()}


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def _job(rng: np.random.Generator, k: int) -> Job:
    d_s, d_b = DIMS[k % len(DIMS)]
    while True:
        h_sys = _hermitian(rng, d_s)
        h_bath = _hermitian(rng, d_b)
        e_s = np.linalg.eigvalsh(h_sys)
        e_b = np.linalg.eigvalsh(h_bath)
        total = np.sort(np.add.outer(e_s, e_b).ravel())
        if np.diff(e_s).min() >= MIN_SYSTEM_GAP and np.diff(total).min() >= MIN_TOTAL_GAP:
            break
    h_prime = _hermitian(rng, d_s)
    eps_max = EPS_GAP_SHARE * np.diff(e_s).min() / np.linalg.norm(h_prime, 2)
    spread = e_b[-1] - e_b[0]
    temperatures = np.geomspace(spread / 8, 4 * spread, TEMPERATURES)
    a = rng.normal(size=(d_s, d_s)) + 1j * rng.normal(size=(d_s, d_s))
    w = a @ a.conj().T
    coeffs = 0.5 * w / np.trace(w).real + 0.5 * np.eye(d_s) / d_s
    coeffs = (coeffs + coeffs.conj().T) / 2
    return Job(
        name=f"sweep{k:03d}-{d_s}x{d_b}",
        h_sys=h_sys,
        h_bath=h_bath,
        h_prime=h_prime,
        epsilons=(float(eps_max / 2), float(eps_max)),
        temperatures=tuple(float(t) for t in temperatures),
        phases=rng.uniform(0.0, MAX_PHASE, size=d_s * d_b),
        coeffs=coeffs,
    )


def generate_jobs(seed: int, count: int = JOBS_PER_PASS) -> list[Job]:
    rng = np.random.default_rng([seed, 0xC4A77E1])
    return [_job(rng, k) for k in range(count)]


def write_configs(jobs: list[Job], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for job in jobs:
        path = os.path.join(directory, f"{job.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job.config(), fh)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Independent recomputation
# ---------------------------------------------------------------------------

def _eigh_fixed_phase(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(m)
    v = v.copy()
    for k in range(v.shape[1]):
        idx = int(np.argmax(np.abs(v[:, k])))
        v[:, k] *= v[idx, k].conjugate() / abs(v[idx, k])
    return w, v


def _entropy_bits(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 0]
    return float(-np.sum(w * np.log2(w)))


def _marginals(joint: np.ndarray, d_s: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    r = joint.reshape(d_s, d_b, d_s, d_b)
    return np.trace(r, axis1=1, axis2=3), np.trace(r, axis1=0, axis2=2)


def _log_negativity(joint: np.ndarray, d_s: int, d_b: int) -> float:
    pt = joint.reshape(d_s, d_b, d_s, d_b).transpose(2, 1, 0, 3).reshape(d_s * d_b, -1)
    return float(np.log2(np.abs(np.linalg.eigvalsh(pt)).sum()))


def _mutual_information(joint: np.ndarray, d_s: int, d_b: int) -> float:
    rho_s, rho_b = _marginals(joint, d_s, d_b)
    return _entropy_bits(rho_s) + _entropy_bits(rho_b) - _entropy_bits(joint)


def expected_values(job: Job) -> tuple[dict, list[float]]:
    """({(T, epsilon, measure): (unperturbed, perturbed)}, [Markovianity
    deviation of the unperturbed input at each T])."""
    d_s, d_b = job.h_sys.shape[0], job.h_bath.shape[0]
    e_s, v_s = _eigh_fixed_phase(job.h_sys)
    e_b, v_b = np.linalg.eigh(job.h_bath)
    levels = sorted(((e_s[i] + e_b[r], i, r) for i in range(d_s) for r in range(d_b)))
    basis = np.column_stack([np.kron(v_s[:, i], v_b[:, r]) for _, i, r in levels])
    u = (basis * np.exp(-1j * job.phases)) @ basis.conj().T

    def evolve(rho: np.ndarray, tau: np.ndarray) -> np.ndarray:
        joint = u @ np.kron(rho, tau) @ u.conj().T
        return (joint + joint.conj().T) / 2

    rho = v_s @ job.coeffs @ v_s.conj().T
    perturbed = {}
    for eps in job.epsilons:
        _, v_p = _eigh_fixed_phase(job.h_sys + eps * job.h_prime)
        overlaps = v_s.conj().T @ v_p
        cols = np.empty_like(v_p)
        for i in range(d_s):
            j = int(np.argmax(np.abs(overlaps[i])))
            cols[:, i] = v_p[:, j] * (overlaps[i, j].conjugate() / abs(overlaps[i, j]))
        perturbed[eps] = cols @ job.coeffs @ cols.conj().T

    values, deviations = {}, []
    for t in job.temperatures:
        weights = np.exp(-(e_b - e_b[0]) / t)
        tau = (v_b * (weights / weights.sum())) @ v_b.conj().T
        joint = evolve(rho, tau)
        rho_out, _ = _marginals(joint, d_s, d_b)
        diff = joint - np.kron(rho_out, tau)
        deviations.append(0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum()))
        for eps in job.epsilons:
            joint_eps = evolve(perturbed[eps], tau)
            values[(t, eps, "log_negativity")] = (
                _log_negativity(joint, d_s, d_b), _log_negativity(joint_eps, d_s, d_b))
            values[(t, eps, "mutual_information")] = (
                _mutual_information(joint, d_s, d_b), _mutual_information(joint_eps, d_s, d_b))
    return values, deviations
