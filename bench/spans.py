"""Outside-in span tracing of the athermal_markov package.

The tracer wraps functions at their module attributes and re-binds every
package module (and module-level dict) that holds the same function object,
so ``from .linalg import trace_norm`` call sites are traced too.  Nothing in
the package changes; ``uninstall`` restores every binding.

Targets are named as strings and looked up when the tracer is installed, so
a function that a refactor removes is reported as absent instead of raising.

Accounting.  Each span records its inclusive wall duration.  Self time is
wall-clock share: every instant during which at least one thread is inside a
traced call is divided equally among those threads, and within a thread it
goes to the innermost open span.  A thread blocked on the sweep engine's
pool (``WAITING_SPANS``) takes a share only while no worker is inside a
traced call.  With one thread this is the usual "duration minus children";
under the pool the shares still add up to the wall time that traced calls
cover, so per-layer self times can be compared with the pass's wall time.
Per-call durations are inclusive wall times: under the pool they include
waits for the interpreter lock, and always the tracing cost of nested spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from array import array

PACKAGE = "athermal_markov"

# Layers are the package modules plus numpy; a span's layer is the first
# dotted component of its name.
LAYERS = ("cli", "experiments", "measures", "optimize", "thermal", "linalg", "numpy")

# (span name, module, attribute path).  Module-level functions of the package
# are found by ``package_functions``; this list adds methods, private helpers
# that the per-layer table names, and numpy kernels.
EXTRA_TARGETS = (
    ("linalg.DensityMatrix", "athermal_markov.linalg", "DensityMatrix.__init__"),
    ("thermal.Hamiltonian.from_matrix", "athermal_markov.thermal", "Hamiltonian.from_matrix"),
    ("measures.MarkovianFamily.operation", "athermal_markov.measures", "MarkovianFamily.operation"),
    ("measures._apply_channel_to_bipartite", "athermal_markov.measures",
     "_apply_channel_to_bipartite"),
    ("measures._measured_conditional_entropy", "athermal_markov.measures",
     "_measured_conditional_entropy"),
    ("experiments.validate", "athermal_markov.experiments", "ExperimentConfig.validate"),
    ("experiments.ExperimentConfig.from_dict", "athermal_markov.experiments",
     "ExperimentConfig.from_dict"),
    ("experiments.HamiltonianSpec.build", "athermal_markov.experiments", "HamiltonianSpec.build"),
    ("experiments._parallel_map", "athermal_markov.experiments", "_parallel_map"),
    ("numpy.kron", "numpy", "kron"),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
)

# Names the per-layer table relies on; each is reported absent if missing.
EXPECTED = (
    "cli.main", "cli.config_from_dict", "experiments.run_config", "experiments.write_outputs",
    "measures.discord", "measures.distance_measure", "measures.chi_lambda_bound",
    "measures.theta_lambda", "measures.log_negativity", "measures.mutual_information",
    "optimize.minimize", "thermal.apply", "thermal.apply_to_operator",
    "thermal.build_block_unitary", "thermal.thermal_operation", "thermal.mto_check",
    "thermal.gibbs_state", "thermal.perturbed_state_exact", "linalg.kron",
    "linalg.reduce_mod_2pi", "linalg.trace_norm", "linalg.eigh", "linalg.entropy_of_spectrum",
) + tuple(name for name, _, _ in EXTRA_TARGETS)

# Spans whose thread only waits for pool workers: they get time only while no
# other thread is inside a traced call.
WAITING_SPANS = frozenset({"experiments._parallel_map"})

# The minimize wrapper names the objective after the span that called it.
OBJECTIVE_NAMES = {
    "measures.discord": "measures.discord.objective",
    "measures.distance_measure": "measures.distance.objective",
    "measures.chi_lambda_bound": "measures.chi_bound.objective",
}


def package_functions(module) -> list[tuple[str, str]]:
    """(span name, attribute) for the public functions a package module defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__):
            out.append((f"{layer}.{attr}", attr))
    return sorted(out)


class _Segment:
    """A stretch of one thread's time that is either busy or waiting on the pool."""

    __slots__ = ("start", "end", "waiting", "self_s")

    def __init__(self, start: float, waiting: bool):
        self.start = start
        self.end = start
        self.waiting = waiting
        self.self_s: dict[str, float] = {}


class _ThreadState:
    __slots__ = ("stack", "last", "segment", "segments", "durations")

    def __init__(self):
        self.stack: list[tuple[str, float, bool]] = []  # name, start, waiting
        self.last = 0.0
        self.segment: _Segment | None = None
        self.segments: list[_Segment] = []
        self.durations: dict[str, array] = {}


def _segment_weights(segments: list[_Segment]) -> dict[_Segment, float]:
    """Wall-clock share of each segment: every instant is split equally among
    the busy segments open then, or among the waiting ones if none is busy."""
    events = sorted([(s.start, 1, k) for k, s in enumerate(segments)]
                    + [(s.end, -1, k) for k, s in enumerate(segments)])
    share = [0.0] * len(segments)
    busy: set[int] = set()
    waiting: set[int] = set()
    last = events[0][0] if events else 0.0
    for t, kind, k in events:
        holders = busy or waiting
        if holders and t > last:
            part = (t - last) / len(holders)
            for h in holders:
                share[h] += part
        last = t
        group = waiting if segments[k].waiting else busy
        if kind > 0:
            group.add(k)
        else:
            group.discard(k)
    return {s: share[k] for k, s in enumerate(segments)}


class Tracer:
    """Collects spans from wrapped functions; install, run, uninstall, report.

    Each thread keeps its own stack and totals, so spans take no shared lock;
    the per-thread results are combined by ``table``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self.minimize_evaluations = 0
        self.starts_attempted = 0
        self.starts_converged = 0
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    @staticmethod
    def _retarget(st: _ThreadState, now: float, waiting: bool):
        """Start a new segment when the innermost span turns busy or waiting."""
        if st.segment is not None:
            st.segment.end = now
        st.segment = _Segment(now, waiting)
        st.segments.append(st.segment)

    def call(self, name: str, fn, args, kwargs, waiting: bool = False):
        st = self._state()
        stack = st.stack
        now = time.perf_counter()
        if stack:
            own = st.segment.self_s
            top = stack[-1][0]
            own[top] = own.get(top, 0.0) + (now - st.last)
            if st.segment.waiting != waiting:
                self._retarget(st, now, waiting)
        else:
            self._retarget(st, now, waiting)
        stack.append((name, now, waiting))
        st.last = now
        try:
            return fn(*args, **kwargs)
        finally:
            now = time.perf_counter()
            _, start, _ = stack.pop()
            own = st.segment.self_s
            own[name] = own.get(name, 0.0) + (now - st.last)
            st.last = now
            if not stack:
                st.segment.end = now
                st.segment = None
            elif stack[-1][2] != st.segment.waiting:
                self._retarget(st, now, stack[-1][2])
            durations = st.durations.get(name)
            if durations is None:
                durations = st.durations[name] = array("d")
            durations.append(now - start)

    def caller(self) -> str | None:
        stack = self._state().stack
        return stack[-1][0] if stack else None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        waiting = name in WAITING_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, waiting)

        return traced

    def _wrap_minimize(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            caller = tracer.caller()
            objective = OBJECTIVE_NAMES.get(caller, f"{caller}.objective")

            def traced_objective(*a, **k):
                return tracer.call(objective, f, a, k)

            result = tracer.call("optimize.minimize", fn, (traced_objective,) + args, kwargs)
            starts = getattr(result, "starts", ())
            with tracer._lock:  # minimize runs in pool workers
                tracer.minimize_evaluations += int(getattr(result, "evaluations", 0))
                tracer.starts_attempted += len(starts)
                tracer.starts_converged += sum(1 for _, converged in starts if converged)
            return result

        return traced

    def _set(self, owner, attr: str, value, is_item: bool):
        old = owner[attr] if is_item else getattr(owner, attr)
        self._undo.append((owner, attr, old, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapped):
        """Point every package-module name and module-level dict entry at ``wrapped``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped, False)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapped, True)

    def _targets(self):
        """(span name, module, attribute path) of every target whose module imports."""
        for layer in LAYERS[:-1]:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for name, attr in package_functions(module):
                yield name, module, attr
        for name, mod_name, path in EXTRA_TARGETS:
            try:
                yield name, importlib.import_module(mod_name), path
            except ImportError:
                self.absent.append(name)

    def install(self):
        """Wrap every target; record the ones that do not exist."""
        seen = set()
        for name, module, path in self._targets():
            seen.add(name)
            owner = module
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__)), False)
                continue
            wrapped = (self._wrap_minimize(raw) if name == "optimize.minimize"
                       else self._wrap(name, raw))
            self._set(owner, attr, wrapped, False)
            if not isinstance(owner, type) and module.__name__.startswith(PACKAGE):
                self._rebind_everywhere(raw, wrapped)
        self.absent += [n for n in EXPECTED if n not in seen and n not in self.absent]

    def uninstall(self):
        for owner, attr, old, is_item in reversed(self._undo):
            if is_item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- report -------------------------------------------------------------

    def _durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for st in self._threads:
            for name, d in st.durations.items():
                out.setdefault(name, []).extend(d)
        return out

    def table(self) -> dict[str, dict]:
        """Per span name: calls, median and total inclusive time, self time."""
        segments = [seg for st in self._threads for seg in st.segments]
        self_s: dict[str, float] = {}
        for seg, share in _segment_weights(segments).items():
            length = seg.end - seg.start
            scale = share / length if length > 0 else 0.0
            for name, t in seg.self_s.items():
                self_s[name] = self_s.get(name, 0.0) + t * scale
        durations = self._durations()
        out = {}
        for name in sorted(set(durations) | set(self_s)):
            d = durations.get(name, [])
            out[name] = {
                "calls": len(d),
                "median_us": statistics.median(d) * 1e6 if d else 0.0,
                "total_ms": sum(d) * 1e3,
                "self_ms": self_s.get(name, 0.0) * 1e3,
            }
        return out

    def counts(self) -> dict[str, int]:
        out = {name: len(d) for name, d in self._durations().items()}
        out["optimize.minimize.evaluations"] = self.minimize_evaluations
        return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
