from fractions import Fraction

import pytest

from dendrite.addressing import canonicalize
from dendrite.dirichlet import equilibrium_potential
from dendrite.harnack import (
    BoundaryProfile,
    boundary_harmonic,
    ehi_ratio,
    ehi_slope,
    on_cantor_piece,
    piece_boundary_values,
    weh_growth,
    weh_ratio,
    weh_threshold_scan,
    weights_for_rho,
)
from dendrite.measure import WeightVector
from dendrite.network import ball, ball_graph
from dendrite.reduction import x_point_word, y_point_word

HALF = Fraction(1, 2)
Q0 = ("2", 1)
EQUAL = WeightVector.equal()


def test_on_cantor_piece_membership():
    assert on_cantor_piece(("", 2), "2")  # q2 sits on the left half of the bottom line
    assert on_cantor_piece(("2", 3), "23")
    assert on_cantor_piece(("23", 2), "23")
    assert not on_cantor_piece(("02", 1), "23")
    # branch pieces contain their junction endpoint through the alternate address
    assert on_cantor_piece(("22", 1), "20")
    assert on_cantor_piece(("23", 1), "21")
    assert not on_cantor_piece(("2023", 1), "20")


def test_piece_values_indicator():
    n, level = 2, 6
    g = ball_graph(n, level)
    region = ball(g, Q0, Fraction(1, 4))
    vals = piece_boundary_values(region, BoundaryProfile("lower", k=1), n)
    assert set(vals) == set(region.frontier)
    hits = [v for v, val in vals.items() if val == 1]
    assert hits and all(val in (0, 1) for val in vals.values())
    assert all(v[0].startswith("2") for v in hits)


def test_unknown_piece_rejected():
    n, level = 1, 5
    g = ball_graph(n, level)
    region = ball(g, Q0, HALF)
    with pytest.raises(ValueError):
        piece_boundary_values(region, BoundaryProfile("lower", branch="01", k=1), n)


def test_boundary_harmonic_in_unit_interval():
    n, level = 2, 6
    region, sol = boundary_harmonic(n, BoundaryProfile("upper", m=0, k=1), level)
    vals = [float(sol[v]) for v in region.interior]
    assert all(-1e-12 <= v <= 1 + 1e-12 for v in vals)
    assert max(vals) > 0


def test_boundary_harmonic_level_precondition():
    with pytest.raises(ValueError):
        boundary_harmonic(2, BoundaryProfile("lower", k=3), 5)


def test_boundary_profile_refuses_unknown_kinds():
    for kind in ("middle", "Upper", ""):
        with pytest.raises(ValueError, match=f"unknown boundary profile kind {kind!r}"):
            BoundaryProfile(kind)


def test_lower_piece_value_window_at_y1():
    vals = []
    for n in (1, 2, 3):
        region, sol = boundary_harmonic(n, BoundaryProfile("lower", k=1), n + 4)
        y1 = canonicalize(y_point_word(n, 1), 1)
        vals.append(float(sol[y1]))
    assert max(vals) / min(vals) < 1.5  # fixed window across n


def test_upper_piece_value_window_at_x00():
    vals = []
    for n in (1, 2, 3):
        region, sol = boundary_harmonic(n, BoundaryProfile("upper", m=0, k=0), n + 4)
        x00 = canonicalize(x_point_word(n, 0, 0), 1)
        vals.append(float(sol[x00]))
    assert max(vals) / min(vals) < 1.5


def test_superposition_exact():
    n, level = 2, 6
    g = ball_graph(n, level)
    p1 = BoundaryProfile("upper", m=0, k=1)
    p2 = BoundaryProfile("lower", k=1)
    mix = BoundaryProfile("mixture", parts=((p1, Fraction(1, 3)), (p2, Fraction(2))))
    _, s1 = boundary_harmonic(n, p1, level, graph=g, mode="exact")
    _, s2 = boundary_harmonic(n, p2, level, graph=g, mode="exact")
    _, sm = boundary_harmonic(n, mix, level, graph=g, mode="exact")
    for v in g.vertices:
        assert sm[v] == Fraction(1, 3) * s1[v] + 2 * s2[v]


def test_full_frontier_cover_sums_to_one():
    n, level = 2, 6
    g = ball_graph(n, level)
    region = ball(g, Q0, Fraction(1, 4))
    upper = [(BoundaryProfile("upper", m=m, k=1), 1) for m in range(level - n)]
    lower = [
        (BoundaryProfile("lower", branch=format(b, f"0{n-1}b"), k=0), 1)
        for b in range(2 ** (n - 1))
    ]
    _, s_up = boundary_harmonic(n, BoundaryProfile("mixture", parts=tuple(upper)), level, graph=g, mode="exact")
    _, s_low = boundary_harmonic(n, BoundaryProfile("mixture", parts=tuple(lower)), level, graph=g, mode="exact")
    apex = canonicalize("02", 1)
    psi_apex, _ = equilibrium_potential(g, apex, region.frontier - {apex}, mode="exact")
    assert all(
        s_up[v] + s_low[v] + psi_apex[v] == 1 for v in region.interior
    )


def test_ehi_ratio_fields_and_model():
    out = ehi_ratio(2, 1, HALF, 6)
    assert 0 < out["inf"] < out["sup"] <= 1
    assert out["ratio"] == pytest.approx(out["inf"] / out["sup"])
    assert out["model"] == pytest.approx(1.0 / (4 * 0.5 + 1.0))


def test_ehi_monotone_in_epsilon():
    r_half = ehi_ratio(2, 1, HALF, 6)["ratio"]
    r_quarter = ehi_ratio(2, 1, Fraction(1, 4), 6)["ratio"]
    assert r_quarter >= r_half


def test_ehi_tiny_ball_ratio_near_one():
    out = ehi_ratio(2, 1, Fraction(1, 1024), 6)
    assert out["ratio"] > 0.9


def test_ehi_slope_matches_collapse():
    rows, slope, err = ehi_slope(range(2, 5), k=1, epsilon=HALF, level_offset=4)
    assert -1.25 <= slope <= -0.75


def test_weh_report_well_formed():
    rep = weh_ratio(2, Fraction(1), EQUAL, BoundaryProfile("upper", m=0, k=1), 6)
    assert rep.ratio_lower >= 1 - 1e-9  # mean of u >= inf u
    assert rep.ratio_lower <= rep.ratio_upper
    assert rep.mean_lower <= rep.mean_upper


def test_weh_delta_validation():
    with pytest.raises(ValueError):
        weh_ratio(2, Fraction(3, 2), EQUAL, BoundaryProfile("upper", m=0, k=1), 6)


def test_weights_for_rho():
    w = weights_for_rho(Fraction(1), Fraction(2))
    assert w.w2 / w.w0 == 2
    w = weights_for_rho(Fraction(1), Fraction(1, 2))
    assert w.w2 / w.w0 == Fraction(1, 2)
    w_half = weights_for_rho(HALF, Fraction(1))
    assert abs(float(w_half.w2 / w_half.w0) - 2**0.5) < 1e-9


def test_weh_bounded_for_equal_weights():
    reports, per_n, total = weh_growth(
        range(2, 5), Fraction(1), EQUAL, BoundaryProfile("upper", m=0, k=1), 4
    )
    assert total <= 1.15


def test_weh_growth_at_heavy_bottom():
    # w2/w0 = 2 at delta 1: the asymptotic per-ball factor is 2; measure it
    # in the regime where the transient has died down
    w = weights_for_rho(Fraction(1), Fraction(2))
    reports, per_n, total = weh_growth(
        range(4, 7), Fraction(1), w, BoundaryProfile("upper", m=0, k=1), 4
    )
    assert 1.5 <= per_n <= 2.5


def test_weh_lower_piece_always_bounded():
    w = WeightVector(Fraction(1, 6), Fraction(1, 3))
    reports, per_n, total = weh_growth(
        range(2, 5), Fraction(1), w, BoundaryProfile("lower", k=1), 4
    )
    assert total <= 1.3


def test_threshold_scan_monotone_and_split():
    rows = weh_threshold_scan(Fraction(1), [HALF, Fraction(1), Fraction(2)], range(2, 5))
    growths = [row["growth_range"] for row in rows]
    assert growths[0] <= growths[1] + 0.08 <= growths[2] + 0.16
    assert growths[0] <= 1.15
    assert growths[2] > 1.3
