"""Benchmark of the athermal_markov sweeps.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

- ``fig3_discord``: the built-in ``fig3`` study, one ``cli.main`` call a pass.
- ``distance_choi``: the built-in ``distance`` study, one call a pass.
- ``channel_sweep``: random systems generated from the seed, one
  ``cli.main run --config`` call plus direct ``theta_lambda``/``mto_check``
  calls per job, and the built-in ``fig2`` study as one more job.

One client runs the jobs back to back (closed loop).  The program runs at its
defaults: ``ATHERMAL_MARKOV_THREADS`` is removed from the environment.

``--trace 0`` repeats passes until the next one would end after ``--seconds``
and reports the end-to-end metrics named in BENCHMARK.json (medians over the
passes).  ``--trace 1`` runs one untraced pass and two traced passes,
ignoring ``--seconds``; it reports the per-layer metrics of the first traced
pass and fails the run if the two traced passes disagree on any call count.

Every pass's outputs are checked (see ``check``).  The last line on stdout is
the JSON result; a run record with the full per-layer table goes to
``.bench_run/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import channel_sweep
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
REFERENCE = BENCH_DIR / "reference"

THREADS_ENV = "ATHERMAL_MARKOV_THREADS"
SETUP_PROBES = 7
TRACED_PASSES = 2

# Closed-form outputs (log-negativity, mutual information) must match to
# 1e-12.  Optimizer-backed outputs stop when a simplex spans at most f_tol =
# 1e-8 (the seed code's default); every column is at most a difference of two
# such minima, so they must match to 2 * f_tol.  The spread measured across
# seven seed sequences was at most 9.7e-10 (discord) and 4.9e-10
# (choi_distance).
CLOSED_FORM_TOL = 1e-12
OPTIMIZER_TOL = 2e-8
OPTIMIZER_MEASURES = ("discord", "choi_distance", "choi_distance_bound")

WORKLOAD_STUDIES = {"fig3_discord": "fig3", "distance_choi": "distance"}
STUDY_OUTPUTS = {
    "fig2": ("fig2-log_negativity.csv",),
    "fig3": ("fig3-mutual_information.csv", "fig3-discord.csv"),
    "distance": ("distance-choi_distance.csv", "distance-choi_distance_bound.csv"),
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Tally:
    """Rows attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if note:
            self.note(note)

    def note(self, text: str):
        if len(self.notes) < 20:
            self.notes.append(text)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _close(have: str, want: float, tol: float) -> bool:
    value = float(have)
    return math.isfinite(value) and abs(value - want) <= tol


def check_against_reference(path: Path, tally: Tally):
    """Compare one study CSV with the reference kept in bench/reference."""
    ref = _read_csv(REFERENCE / path.name)
    rows = len(ref) - 1
    try:
        got = _read_csv(path)
    except OSError as exc:
        tally.add(rows, rows, f"{path.name}: {exc}")
        return
    if got[:1] != ref[:1]:
        tally.add(rows, rows, f"{path.name}: header {got[:1]}")
        return
    failed = 0
    for k, want in enumerate(ref[1:], start=1):
        have = got[k] if k < len(got) else None
        tol = OPTIMIZER_TOL if want[2] in OPTIMIZER_MEASURES else CLOSED_FORM_TOL
        ok = (have is not None and len(have) == len(want) and have[:3] == want[:3]
              and have[6] == want[6]
              and all(_close(h, float(w), tol) for h, w in zip(have[3:6], want[3:6])))
        if not ok:
            failed += 1
            tally.note(f"{path.name} row {k}: {have} != {want}")
    if len(got) != len(ref):
        tally.note(f"{path.name}: {len(got) - 1} rows, expected {rows}")
    tally.add(rows, failed)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _cli_main(argv) -> object:
    """Run the CLI in-process; an exception is returned as the outcome."""
    from athermal_markov import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        return f"{type(exc).__name__}: {exc}"


class StudyWorkload:
    """One built-in study per pass, with the benchmark seed as seed sequence."""

    def __init__(self, study: str, seed: int, out: Path):
        self.study = study
        self.seed = seed
        self.out = out
        self.probe_args = ["builtin", study]

    def run_pass(self) -> list[float]:
        t0 = time.perf_counter()
        self.outcome = _cli_main([self.study, "--out", str(self.out),
                                  "--seed-list", f"bench-{self.seed}"])
        return [time.perf_counter() - t0]

    def check(self, tally: Tally):
        files = STUDY_OUTPUTS[self.study]
        if self.outcome != 0:
            rows = sum(len(_read_csv(REFERENCE / f)) - 1 for f in files)
            tally.add(rows, rows, f"{self.study}: exit {self.outcome}")
            return
        for name in files:
            check_against_reference(self.out / name, tally)


class ChannelSweepWorkload:
    """Random channel jobs generated from the seed, plus the fig2 study."""

    def __init__(self, seed: int, out: Path, config_dir: Path):
        self.out = out
        self.jobs = channel_sweep.generate_jobs(seed)
        self.paths = channel_sweep.write_configs(self.jobs, str(config_dir))
        self.expected = [channel_sweep.expected_values(job) for job in self.jobs]
        self.probe_args = ["config", self.paths[0]]
        self.fig2 = StudyWorkload("fig2", seed, out)

    def _job(self, path: str):
        from athermal_markov import cli, measures, thermal

        outcome = _cli_main(["run", "--config", path, "--out", str(self.out)])
        try:
            cfg = cli.load_config(path)
            h_sys, h_bath = cfg.build_system(), cfg.build_bath()
            unitary = cfg.build_unitary(thermal.total_hamiltonian(h_sys, h_bath))
            coeffs = cfg.level_coeffs()
            rho = thermal.state_from_level_coeffs(h_sys, coeffs)
            pert = thermal.PerturbationSpec(cfg.perturbation.build(), cfg.epsilons[-1])
            direct = []
            for value in cfg.sweep_values:
                bath = thermal.gibbs_state(h_bath, cfg.beta_for(value))
                op = thermal.thermal_operation(unitary, bath)
                theta = measures.theta_lambda(op, coeffs, pert)
                report = thermal.mto_check(op, rho)
                direct.append((theta, report.joint_product_deviation))
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            return f"{type(exc).__name__}: {exc}", []
        return outcome, direct

    def run_pass(self) -> list[float]:
        latencies = []
        self.outcomes = []
        for path in self.paths:
            t0 = time.perf_counter()
            self.outcomes.append(self._job(path))
            latencies.append(time.perf_counter() - t0)
        return latencies + self.fig2.run_pass()

    def check(self, tally: Tally):
        for job, (values, deviations), (outcome, direct) in zip(
                self.jobs, self.expected, self.outcomes):
            rows = job.rows + len(job.temperatures)
            if outcome != 0 or len(direct) != len(job.temperatures):
                tally.add(rows, rows, f"{job.name}: exit {outcome}")
                continue
            got = {}
            for measure in channel_sweep.MEASURES:
                path = self.out / f"{job.name}-{measure}.csv"
                try:
                    for row in _read_csv(path)[1:]:
                        got[(float(row[0]), float(row[1]), row[2])] = row
                except OSError as exc:
                    tally.note(f"{path.name}: {exc}")
            failed = 0
            for key, (u, p) in values.items():
                row = got.get(key)
                if not (row is not None and row[6] == "ok"
                        and _close(row[3], u, CLOSED_FORM_TOL)
                        and _close(row[4], p, CLOSED_FORM_TOL)
                        and _close(row[5], p - u, CLOSED_FORM_TOL)):
                    failed += 1
                    tally.note(f"{job.name} {key}: {row} != {(u, p)}")
            for (theta, deviation), want in zip(direct, deviations):
                if not (math.isfinite(theta) and abs(deviation - want) <= CLOSED_FORM_TOL):
                    failed += 1
                    tally.note(f"{job.name}: theta {theta}, deviation {deviation} != {want}")
            tally.add(rows, failed)
        self.fig2.check(tally)


def make_workload(name: str, seed: int, work: Path):
    out = work / "out"
    if name == "channel_sweep":
        return ChannelSweepWorkload(seed, out, work / "configs")
    return StudyWorkload(WORKLOAD_STUDIES[name], seed, out)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_times(probe_args: list[str]) -> list[float]:
    """Spawn-to-ready time of fresh processes that import and build a config."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *probe_args]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return times


def one_pass(workload, tally: Tally, tracer=None) -> dict:
    shutil.rmtree(workload.out, ignore_errors=True)
    workload.out.mkdir(parents=True)
    with tracer if tracer is not None else contextlib.nullcontext():
        c0 = time.process_time()
        t0 = time.perf_counter()
        latencies = workload.run_pass()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    workload.check(tally)
    return {"wall_s": wall, "cpu_s": cpu, "job_s": latencies}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    jobs_ms = [t * 1e3 for p in passes for t in p["job_s"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "job_p50_ms": percentile(jobs_ms, 0.5),
        "job_p90_ms": percentile(jobs_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced_walls: list[float], untraced_wall: float) -> dict[str, float]:
    """Derived per-layer metrics of one traced pass; see bench/README.md."""
    table = tracer.table()

    def calls(span):
        return table.get(span, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span, row in table.items():
        out[f"{span}.calls"] = row["calls"]
        out[f"{span}.us"] = row["median_us"]
        out[f"{span}.ms"] = row["median_us"] / 1e3
        out[f"{span}.self_ms"] = row["self_ms"]
    for layer in spans.LAYERS:
        out[f"{layer}.self_ms"] = sum(row["self_ms"] for span, row in table.items()
                                      if spans.layer_of(span) == layer)
    attributed_ms = sum(row["self_ms"] for row in table.values())
    out.update({
        "optimize.objective.calls": sum(row["calls"] for span, row in table.items()
                                        if span.endswith(".objective")),
        "optimize.evals_per_minimize": ratio(tracer.minimize_evaluations,
                                             calls("optimize.minimize")),
        "optimize.converged_starts_frac": ratio(tracer.starts_converged,
                                                tracer.starts_attempted),
        "thermal.applies_per_channel": ratio(
            calls("thermal.apply") + calls("thermal.apply_to_operator"),
            calls("thermal.thermal_operation")),
        "trace.wall_s": traced_walls[0],
        "trace.overhead_s": statistics.median(traced_walls) - untraced_wall,
        "trace.attributed_frac": ratio(attributed_ms / 1e3, traced_walls[0]),
    })
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def run(args, spec: dict) -> tuple[dict, dict]:
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = make_workload(args.workload, args.seed, work)
        setup = setup_times(workload.probe_args)

        import athermal_markov
        from athermal_markov import experiments

        if Path(athermal_markov.__file__).resolve().parent.parent != SRC:
            raise RuntimeError(f"imported {athermal_markov.__file__}, not the checkout's src/")
        worker_count = getattr(experiments, "worker_count", None)
        tally = Tally()
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "workers": worker_count() if worker_count else None,
            "src_lines": src_lines(),
            "setup_s": setup,
        }
        if args.trace == 0:
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(one_pass(workload, tally))
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(p["wall_s"] for p in passes) > args.seconds:
                    break
            metrics = end_to_end(passes, setup)
            names = [m["name"] for m in spec["end_to_end"]]
            record["passes"] = passes
            record["job_samples"] = sum(len(p["job_s"]) for p in passes)
        else:
            untraced = one_pass(workload, tally)
            tracers, traced = [], []
            for _ in range(TRACED_PASSES):
                tracers.append(spans.Tracer())
                traced.append(one_pass(workload, tally, tracers[-1]))
            metrics = per_layer(tracers[0], [p["wall_s"] for p in traced], untraced["wall_s"])
            names = [m["name"] for m in spec["per_layer"]]
            counts = [t.counts() for t in tracers]
            record["passes"] = {"untraced": untraced, "traced": traced}
            record["absent"] = tracers[0].absent
            record["layers"] = tracers[0].table()
            record["count_differences"] = {
                k: [c.get(k) for c in counts] for k in sorted(set().union(*counts))
                if len({c.get(k) for c in counts}) > 1}
            record["counts_repeat"] = not record["count_differences"]
        record["metrics"] = metrics
        record["attempted"] = tally.attempted
        record["failed"] = tally.failed
        record["failed_frac"] = tally.failed / max(tally.attempted, 1)
        record["failures"] = tally.notes
        correct = tally.failed == 0 and tally.attempted > 0 and record.get("counts_repeat", True)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        result = {
            "correct": bool(correct),
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
            "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": units[n]} for n in names},
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_STUDIES, "channel_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "athermal_markov" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    popped = os.environ.pop(THREADS_ENV, None)

    result, record = run(args, spec)
    record["threads_env_removed"] = popped
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(f"run record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
