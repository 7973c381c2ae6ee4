"""Acceptance criteria for the whole artifact, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Shared experiment runs come from session fixtures, so each
sweep executes once per test session; wall-clock targets are checked on
those recorded runtimes.
"""

import numpy as np

import conftest
from athermal_markov.experiments import builtin_fig2, builtin_fig3, _slope_ratio
from athermal_markov.linalg import trace_norm
from util import expansion_lemma_residual, random_density, random_hermitian


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_entanglement_response_sweep(fig2_result):
    rows = fig2_result.rows_for("log_negativity")
    ok = fig2_result.deviations == () and len(rows) == 63
    positives = all(r.delta > 0 for r in rows)
    mono, ordered = True, True
    by_eps = {}
    for r in rows:
        by_eps.setdefault(r.epsilon, []).append(r)
    for eps, series in by_eps.items():
        series.sort(key=lambda r: r.control)
        deltas = [r.delta for r in series]
        mono &= all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
    for lo, hi in ((0.1, 0.15), (0.15, 0.2)):
        lo_map = {r.control: r.delta for r in by_eps[lo]}
        hi_map = {r.control: r.delta for r in by_eps[hi]}
        ordered &= all(hi_map[t] > lo_map[t] for t in lo_map)
    runtime = conftest.RUNTIMES["fig2"]
    ok = ok and positives and mono and ordered and runtime < 3.0
    _report("1", ok,
            f"positive={positives}, nondecreasing-in-T={mono}, eps-ordered={ordered}, "
            f"runtime={runtime:.1f}s (<3s)")


def test_criterion_2_correlation_response_sweep(fig3_result):
    mi = sorted(fig3_result.rows_for("mutual_information"), key=lambda r: r.control)
    dd = fig3_result.rows_for("discord")
    positives = all(r.delta > 0 for r in mi) and all(r.delta > 0 for r in dd)
    growing = all(a.delta > b.delta - 1e-12 for a, b in zip(mi, mi[1:]))
    runtime = conftest.RUNTIMES["fig3"]
    ok = (fig3_result.deviations == () and len(mi) == 20 and len(dd) == 20
          and positives and growing and runtime < 3.0)
    _report("2", ok,
            f"positive={positives}, growing-toward-low-control={growing}, "
            f"runtime={runtime:.1f}s (<3s)")


def test_criterion_3_distance_counter_example(distance_result):
    rows = distance_result.rows_for("choi_distance")
    bounds = distance_result.rows_for("choi_distance_bound")
    small = all(abs(r.delta) <= 5e-4 for r in rows)
    converged = distance_result.metadata["optimizer_converged"]
    bounded = all(r.unperturbed <= r.perturbed + 1e-6 for r in bounds)
    runtime = conftest.RUNTIMES["distance"]
    ok = (distance_result.deviations == ()
          and {r.epsilon for r in rows} == {0.01, 0.05, 0.1}
          and small and converged and bounded and runtime < 3.0)
    _report("3", ok,
            f"|dD|<=5e-4={small}, converged={converged}, dD<=bound+1e-6={bounded}, "
            f"runtime={runtime:.1f}s (<3s)")


def test_criterion_4_ppt_under_diagonal_unitaries(properties_result):
    rows = {r.measure: r for r in properties_result.rows}
    spectra = [rows["ppt_spectra_2x2"], rows["ppt_spectra_2x3"]]
    negativity = [rows["ppt_log_negativity_2x2"], rows["ppt_log_negativity_2x3"]]
    cases = int(sum(r.control for r in spectra))
    worst_spectra = max(r.unperturbed for r in spectra)
    worst_negativity = max(r.unperturbed for r in negativity)
    ok = (cases == 100 and [r.control for r in negativity] == [r.control for r in spectra]
          and {r.status for r in spectra + negativity} == {"ok"}
          and worst_spectra <= 1e-10 and worst_negativity <= 1e-9)
    _report("4", ok,
            f"{cases} cases, worst spectra deviation {worst_spectra:.2e} (<=1e-10), "
            f"worst log-neg {worst_negativity:.2e} (<=1e-9)")


def test_criterion_5_first_order_correlation_law():
    ratios = {
        "fig2": _slope_ratio(builtin_fig2(), 4.0),
        "fig3": _slope_ratio(builtin_fig3(), 0.5),
    }
    ok = all(3.2 <= r <= 4.8 for r in ratios.values())
    _report("5", ok,
            "residual shrink when eps halves: "
            + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items()) + " (within [3.2, 4.8])")


def test_criterion_6_trace_log_expansion_lemma():
    rng = np.random.default_rng(60)
    worst_lo, worst_hi = np.inf, 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = 0.8 * random_density(rng, d).matrix + 0.2 * np.eye(d) / d
        b = random_hermitian(rng, d)
        b -= np.trace(b) / d * np.eye(d)
        b /= max(1.0, trace_norm(b))
        ratio = expansion_lemma_residual(a, b, 1e-2) / expansion_lemma_residual(a, b, 5e-3)
        worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    ok = 3.2 <= worst_lo and worst_hi <= 4.8
    _report("6", ok,
            f"20 random full-rank pairs, shrink ratios in [{worst_lo:.3f}, {worst_hi:.3f}] "
            f"(within [3.2, 4.8])")


def test_criterion_7_markovianity_constraint_equivalence(properties_result):
    rows = {r.measure: r for r in properties_result.rows}
    direct = rows["mto_equivalence"]
    perturbed = rows["mto_equivalence_perturbed"]
    ok = (direct.unperturbed == 50 and perturbed.unperturbed == 50
          and direct.status == perturbed.status == "ok")
    _report("7", ok,
            f"direct-vs-residual verdicts agree {int(direct.unperturbed)}/50, "
            f"first-order inputs agree {int(perturbed.unperturbed)}/50, tolerance 1e-9")


def test_criterion_8_channel_sanity(properties_result):
    rows = {r.measure: r for r in properties_result.rows}
    fp = rows["fixed_point"]
    # joint validity is enforced during the sweep itself: every evolved joint
    # is constructed as a density matrix at tolerance 1e-9
    ok = fp.status == "ok" and fp.unperturbed <= 1e-9 and fp.control == 50
    _report("8", ok,
            f"50 random energy-preserving unitaries, worst fixed-point deviation "
            f"{fp.unperturbed:.2e} (<=1e-9), all evolved joints valid at 1e-9")
