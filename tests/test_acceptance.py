"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Every criterion runs at its stated tolerance.  Criterion 7 is asserted
exactly as stated, at equal weights, even though the measured ratio
plateaus there; it stays a known failure until the paper's text settles
which measure carries the anomaly (notes/decisions.md, D1).  The
upward-ladder window of criterion 10 takes eps1 = 5/64, the top rung's
share; its content is the pin of the exact integral 1/12 = (16/15) eps1
inside the certified interval (D2).

Criteria 2, 6, 8, 9, 10c and 11 report the `verify` checks that state
them, through the session fixture `check_result` (tests/conftest.py):
each check runs once per test session, however many criteria read it.
"""

import time
from fractions import Fraction

from dendrite import checks
from dendrite.closed_forms import energy_closed, u_down, u_up
from dendrite.dirichlet import effective_resistance
from dendrite.exit_time import boundary_resistance, exit_ratio_experiment
from dendrite.measure import WeightVector, harmonic_weights, integrate_pw_harmonic
from dendrite.network import ball_graph, build_level_graph
from dendrite.reduction import (
    bottom_grounded_conductance,
    q0_boundary_resistance,
    udown_value_q0,
    upward_grounded_conductance,
    uup_values,
)

HALF = Fraction(1, 2)
Q0, Q1, Q2, Q3 = ("2", 1), ("", 1), ("", 2), ("", 3)
EQUAL = WeightVector.equal()


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_exact_boundary_resistances():
    t0 = time.perf_counter()
    for level in range(0, 7):
        g = build_level_graph(level)
        assert effective_resistance(g, [Q2], [Q1]) == 1
        assert effective_resistance(g, [Q3], [Q1]) == 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (boundary resistances)",
        elapsed < 1.0,
        f"R(q2,q1)=R(q3,q1)=1 exactly at levels 0-6 in {elapsed:.2f}s",
    )


def test_c02_renormalization(check_result):
    ok, detail, _ = check_result("graph", "renormalization")
    report("criterion 2 (renormalization)", ok, detail)


def test_c03_closed_form_energies():
    for s0 in (HALF, Fraction(1, 3), Fraction(2, 5)):
        assert energy_closed(u_down(s0)) == 1 / s0 + 1
    assert energy_closed(u_down()) == 3
    assert energy_closed(u_up()) == Fraction(3, 2)
    down = [bottom_grounded_conductance(level) for level in range(13)]
    up = [upward_grounded_conductance(level) for level in range(13)]
    assert all(a < b for a, b in zip(down, down[1:]))
    assert all(a < b for a, b in zip(up, up[1:]))
    ok = abs(float(down[12]) / 3 - 1) <= 0.02 and abs(float(up[12]) / 1.5 - 1) <= 0.02
    report(
        "criterion 3 (closed-form energies)",
        ok,
        f"E(udown)=3, E(uup)=3/2 exact; discrete energies rise to {float(down[12]):.6f}, {float(up[12]):.6f} at L=12",
    )


def test_c04_ladder_values():
    lam = [udown_value_q0(level) for level in range(1, 13)]
    assert all(a > b for a, b in zip(lam, lam[1:]))
    assert abs(float(lam[-1]) * 4 - 1) <= 0.02
    final = uup_values(12)
    for m in range(5):
        seq = [uup_values(level)[m] for level in range(m + 2, 13)]
        assert all(a >= b for a, b in zip(seq, seq[1:])), f"a_{m} not monotone"
        assert abs(float(final[m]) * 4 ** (m + 1) - 1) <= 0.02
    report(
        "criterion 4 (ladder values)",
        True,
        f"u_down(q0) -> {float(lam[-1]):.6f} (1/4), a_m -> 4^-(m+1) within 2% at L=12, monotone",
    )


def test_c05_exact_ball_resistance():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        level = n + 7
        want = Fraction(1, 3 * (2 ** (n - 1) + 2 ** (2 * n - 1)))
        g = ball_graph(n, level)
        _, _, r = boundary_resistance(Q0, n, level, graph=g, mode="float")
        assert abs(r - float(q0_boundary_resistance(n, level))) < 1e-12
        assert float(want) <= r <= float(want) * 1.05, (n, r)
        assert float(q0_boundary_resistance(n, level + 1)) <= float(
            q0_boundary_resistance(n, level)
        )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5 (ball resistance)",
        elapsed < 30.0,
        f"R(q0, frontier) within 5% above 1/9, 1/30, 1/108 at L=n+7, decreasing; {elapsed:.1f}s",
    )


def test_c06_coefficient_oracles(check_result):
    ok, detail, _ = check_result("harmonics", "coefficient tables")
    ok2, detail2, _ = check_result("harmonics", "coefficient recurrence")
    report("criterion 6 (coefficient oracles)", ok and ok2, f"{detail}; {detail2}")


def test_c07_exit_time_anomaly():
    rows, slope, stderr = exit_ratio_experiment(range(2, 6), EQUAL, level_offset=5)
    detail = (
        f"equal-weight slope {slope:.3f} +- {stderr:.3f} "
        f"(ratios {[round(r.ratio, 4) for r in rows]}); "
        "the ratio only collapses for w2 > 2 w0 -- see notes/decisions.md"
    )
    report("criterion 7 (exit-time anomaly, equal weights)", -1.25 <= slope <= -0.75, detail)


def test_c08_ehi_failure(check_result):
    ok, detail, _ = check_result("harnack", "ehi collapse")
    report("criterion 8 (EHI failure)", ok, detail)


def test_c09_weh_threshold(check_result):
    ok, detail, _ = check_result("harnack", "weh threshold")
    report("criterion 9 (wEH threshold)", ok, detail)


def test_c10_integral_udown():
    bounds = integrate_pw_harmonic(u_down(), EQUAL)
    eps0 = Fraction(1, 7)
    ok = eps0 <= bounds.lower <= bounds.upper <= 4 * eps0
    report(
        "criterion 10a (decay integral)",
        ok,
        f"certified [{float(bounds.lower):.5f},{float(bounds.upper):.5f}] inside [1/7, 4/7]",
    )


def test_c10_integral_uup_window():
    # eps1 is the top rung of the ladder: the cell K_2 carries
    # u_plus(1, 1/4, 1/16), integrated from the harmonic weights p and the
    # decay integral; the lower rungs repeat it with ratio w0/4 = 1/16
    p1, p2, p3 = harmonic_weights(EQUAL)
    w0, w2 = EQUAL.w0, EQUAL.w2
    lam = Fraction(1, 4)
    # u_down is harmonic on K_0, K_1 with corners (1, lam, 1), (1, 1, lam)
    # and repeats itself, scaled by lam, on K_2 and K_3
    i_down = w0 * (p1 + lam * p2 + p3 + p1 + p2 + lam * p3) / (1 - 2 * w2 * lam)
    a, b, c = Fraction(1), Fraction(1, 4), Fraction(1, 16)
    mid = (a + b) / 2
    i_plus = (
        w0 * (p1 * b + p2 * mid + p3 * b)
        + w0 * (p1 * b + p2 * b + p3 * c)
        + w2 * (p1 * mid + p2 * a + p3 * mid)
        + w2 * c * i_down
    )
    eps1 = w2 * i_plus
    assert eps1 == Fraction(5, 64)
    bounds = integrate_pw_harmonic(u_up(), EQUAL)
    ladder = eps1 / (1 - w0 / 4)  # (16/15) eps1 = 1/12
    # the window [eps1, 4 eps1] holds by construction once eps1 is the top
    # rung (the integral is only (16/15) eps1); the gate's content is the pin
    ok = eps1 <= bounds.lower <= bounds.upper <= 4 * eps1
    ok &= bounds.lower <= ladder <= bounds.upper
    detail = (
        f"certified [{float(bounds.lower):.5f},{float(bounds.upper):.5f}] contains "
        f"(16/15) eps1 = {ladder}, inside [eps1, 4 eps1] = [5/64, 5/16] -- see notes/decisions.md"
    )
    report("criterion 10b (ladder integral window)", ok, detail)


def test_c10_doubling(check_result):
    ok, detail, _ = check_result("measure", "doubling")
    report("criterion 10c (doubling)", ok, detail)


def test_c11_property_suites(check_result):
    # summed per-check seconds: the wall time of `verify --suite all`
    results = {
        f"{suite}/{label}": check_result(suite, label)
        for suite, group in checks.SUITES.items()
        for label, _ in group
    }
    failed = [name for name, (ok, _, _) in results.items() if not ok]
    elapsed = sum(seconds for _, _, seconds in results.values())
    report(
        "criterion 11 (property suites)",
        not failed and elapsed < 300.0,
        f"{len(results)} verify checks, failed: {failed or 'none'}, in {elapsed:.0f}s",
    )
