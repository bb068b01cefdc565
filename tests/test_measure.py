import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dendrite.addressing import canonicalize, in_cell, parse_vertex, words_of_length
from dendrite import closed_forms, measure, network
from dendrite.closed_forms import HarmonicSpec, _int_step, _state_children, u_down, u_minus, u_up
from dendrite.measure import (
    HarmonicIntegrator,
    IntegralBounds,
    WeightVector,
    ball_measure,
    cell_measure,
    cell_measure_units,
    classify_region_cells,
    doubling_ratio,
    extension_matrices,
    harmonic_weights,
    integrate_closed,
    integrate_pw_harmonic,
    measure_ball_bounds,
    subdivision_quadrature_row,
)
from dendrite.metric import Metric
from dendrite.network import ball, ball_graph

HALF = Fraction(1, 2)
Q0 = ("2", 1)
EQUAL = WeightVector.equal()
SKEW = WeightVector(Fraction(1, 6), Fraction(1, 3))


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightVector(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        WeightVector(Fraction(-1, 4), Fraction(3, 4))
    w = WeightVector.parse("1/6,1/3")
    assert w.w1 == Fraction(1, 6) and w.w3 == Fraction(1, 3)


def test_cell_measure_examples():
    assert cell_measure(EQUAL, "") == 1
    assert cell_measure(EQUAL, "02") == Fraction(1, 16)
    assert cell_measure(SKEW, "220") == Fraction(1, 54)


def test_cell_measure_additivity():
    for w in (EQUAL, SKEW):
        for word in ("", "2", "03", "220"):
            parent = cell_measure(w, word)
            assert parent == sum(cell_measure(w, word + d) for d in "0123")


def test_harmonic_weights_properties():
    for w in (EQUAL, SKEW, WeightVector(Fraction(1, 10), Fraction(2, 5))):
        p = harmonic_weights(w)
        assert sum(p) == 1
        assert p[1] == p[2]
        assert all(x > 0 for x in p)


def test_harmonic_weights_equal_case_frozen():
    assert harmonic_weights(EQUAL) == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))


def test_harmonic_weights_vs_subdivision_oracle():
    for w in (EQUAL, SKEW):
        p = harmonic_weights(w)
        row = subdivision_quadrature_row(w, 10)
        assert all(abs(float(p[j] - row[j])) < 1e-6 for j in range(3))


def _literal_extension_matrices(s0):
    # the V0 -> V1 maps as literal matrices: row j of A_i gives the value
    # at F_i(q_j) from the values at q1, q2, q3
    s2 = 1 - s0
    one, zero = Fraction(1), Fraction(0)
    return (
        ((one, zero, zero), (s2, s0, zero), (one, zero, zero)),
        ((one, zero, zero), (one, zero, zero), (s2, zero, s0)),
        ((s2, s0, zero), (zero, one, zero), (s2, s0, zero)),
        ((s2, zero, s0), (s2, zero, s0), (zero, zero, one)),
    )


@pytest.mark.parametrize("s0", [HALF, Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)])
def test_extension_matrices_match_literal_maps(s0):
    got = extension_matrices(s0)
    assert got == _literal_extension_matrices(s0)
    assert all(type(x) is Fraction for a in got for row in a for x in row)


def test_hat_integral_is_p1():
    p = harmonic_weights(EQUAL)
    assert integrate_closed(u_minus(HALF, 0, 1, 0), EQUAL) == p[0]


def test_udown_integral_exact_and_certified():
    exact = integrate_closed(u_down(), EQUAL)
    assert exact == HALF
    assert Fraction(1, 7) <= exact <= Fraction(4, 7)
    bounds = integrate_pw_harmonic(u_down(), EQUAL)
    assert bounds.lower <= exact <= bounds.upper
    assert float((bounds.upper - bounds.lower) / abs(bounds.midpoint())) < 1e-3


def test_uup_integral_exact_and_certified():
    exact = integrate_closed(u_up(), EQUAL)
    assert exact == Fraction(1, 12)
    bounds = integrate_pw_harmonic(u_up(), EQUAL)
    assert bounds.lower <= exact <= bounds.upper
    assert float((bounds.upper - bounds.lower) / abs(bounds.midpoint())) < 1e-3


def test_constant_integrates_to_itself():
    bounds = integrate_pw_harmonic(u_minus(HALF, 5, 5, 5), EQUAL)
    assert bounds.exact == 5
    assert bounds.lower <= 5 <= bounds.upper


def test_self_similar_consistency_of_integration():
    # integrating the four rescaled pieces reproduces the whole integral; the
    # states are integer, ("plus", 8, 4, 1) in the unit 8 is ("plus", 1, 1/2, 1/8),
    # and the children come back in the unit 8 K
    integ = HarmonicIntegrator(SKEW)
    step = _int_step(HALF)
    for state in (("down", 1), ("plus", 8, 4, 1)):
        total = integ.exact(state)
        kids = _state_children(state, step)
        assert step[0] * total == sum(q * integ.exact(k) for q, k in zip(SKEW.as_tuple(), kids))


def test_ball_measure_b1_limits():
    g = ball_graph(1, 8)
    region = ball(g, Q0, HALF)
    b = ball_measure(EQUAL, region)
    assert b.lower <= Fraction(1, 3) <= b.upper
    assert b.upper / b.lower <= Fraction(11, 10)


def test_ball_measure_whole_space():
    g = ball_graph(1, 4)
    region = ball(g, ("", 1), Fraction(2))
    b = ball_measure(EQUAL, region)
    assert (b.lower, b.upper) == (1, 1)


def test_generic_ball_bounds_match_graph_bounds():
    g = ball_graph(2, 7)
    region = ball(g, Q0, Fraction(1, 4))
    graph_bounds = ball_measure(EQUAL, region)
    generic = measure_ball_bounds(Q0, Fraction(1, 4), EQUAL, max_depth=7)
    assert graph_bounds.lower == generic.lower
    assert graph_bounds.upper == generic.upper


def test_doubling_lower_bound_at_yn():
    metric = Metric(HALF)
    for n in (2, 3):
        yn = canonicalize("2" + "0" * (n - 1), 2)
        ratio, big, small = doubling_ratio(EQUAL, yn, Fraction(1, 2**n), max_depth=n + 6, metric=metric)
        assert ratio.lower >= Fraction(3, 16) * 2**n
        assert ratio.lower >= 1


def test_doubling_lattice_cap():
    metric = Metric(HALF)
    for x, n in ((canonicalize("02", 1), 2), (Q0, 1)):
        ratio, _, _ = doubling_ratio(EQUAL, x, Fraction(1, 2 ** (n + 1)), max_depth=n + 9, metric=metric)
        assert 1 <= ratio.lower and ratio.upper <= 64


def test_integral_bounds_validation():
    with pytest.raises(ValueError):
        IntegralBounds(Fraction(2), Fraction(1))


def _product_measure(w, word):
    """Oracle: mu(K_w) multiplied out digit by digit."""
    mu = Fraction(1)
    for d in word:
        mu *= w.digit(d)
    return mu


@pytest.mark.parametrize("weights", ["1/4,1/4", "1/10,2/5", "1/6,1/3"])
def test_cell_measure_matches_product(weights):
    w = WeightVector.parse(weights)
    for length in range(7):
        nums, den = cell_measure_units(w, length)
        for word in words_of_length(length):
            mu = _product_measure(w, word)
            assert cell_measure(w, word) == mu
            assert Fraction(nums[sum(d in "01" for d in word)], den) == mu


def test_cell_measure_rejects_invalid_word():
    for word in ("04", "0x1"):
        with pytest.raises(ValueError):
            cell_measure(EQUAL, word)


def test_classify_region_cells_matches_corner_bound():
    """Oracle: the cell distance bound over canonicalised corners, word by word."""
    region = ball(ball_graph(2, 6), Q0, Fraction(1, 4))
    g = region.graph
    scale = Fraction(1, 2**g.level)
    for radius in (None, Fraction(1, 8), Fraction(3, 32)):
        r = region.radius if radius is None else radius
        inside, straddle = [], []
        for k, word in enumerate(g.words):
            ds = [Fraction(region.units[g.vertex_id(canonicalize(word, j))], g.unit) for j in (1, 2, 3)]
            if min(ds[0] + scale, ds[1] + 2 * scale, ds[2] + 2 * scale) < r:
                inside.append(k)
            elif min(ds) < r:
                straddle.append(k)
        assert inside and straddle
        assert classify_region_cells(region, radius=radius) == (inside, straddle)


def test_measure_ball_bounds_match_recorded_values():
    """Exact (lower, upper) pairs recorded at commit 8fcf9a2, before the
    descent moved to integer arithmetic.

    The cases cover the quadrature workload's doubling grid (four weights,
    y_n for n = 2..6, radii 2^-n and 2^(1-n), depth 12), s0 in {1/3, 2/5,
    3/4} with non-dyadic radii at depth 8, a centre word longer than
    max_depth, and the radius >= 2 shortcut.
    """
    path = Path(__file__).with_name("measure_ball_bounds_golden.json")
    cases = json.loads(path.read_text())
    metrics = {}
    wrong = []
    for case in cases:
        s0 = Fraction(case["s0"])
        metric = metrics.setdefault(s0, Metric(s0))
        b = measure_ball_bounds(
            parse_vertex(case["center"]), Fraction(case["radius"]),
            WeightVector.parse(case["weights"]), max_depth=case["depth"], metric=metric,
        )
        if (b.lower, b.upper) != (Fraction(case["lower"]), Fraction(case["upper"])):
            wrong.append((case, str(b.lower), str(b.upper)))
    assert len(cases) == 84
    assert not wrong


def test_integrate_pw_harmonic_matches_recorded_values():
    """Exact (lower, upper) pairs and exact integrals recorded before the
    certified refinement moved to integer arithmetic.

    The cases cover the quadrature workload's four integrals at the five
    workload weights, and udown, uminus and uplus (negative, non-dyadic
    parameters) at s0 in {1/3, 2/5}, each at one weight, taken in turn;
    every case at depths -1, 0, 1, 3, 8, 12 and 200.  Depth 200 lets the
    integer unit grow until the relative-gap stop.
    """
    path = Path(__file__).with_name("integrate_pw_harmonic_golden.json")
    cases = json.loads(path.read_text())
    wrong = []
    for case in cases:
        spec = HarmonicSpec(
            case["kind"], tuple(map(Fraction, case["params"])), Fraction(case["s0"])
        )
        w = WeightVector.parse(case["weights"])
        b = integrate_pw_harmonic(spec, w, max_depth=case["depth"])
        got = (b.lower, b.upper, integrate_closed(spec, w))
        if got != tuple(Fraction(case[k]) for k in ("lower", "upper", "exact")):
            wrong.append((case, *map(str, got)))
    assert len(cases) == 182
    assert not wrong


def test_certified_bounds_refuse_inexact_values(monkeypatch):
    """A root value that is not a multiple of the integer unit raises, never rounds."""
    spec = u_minus(HALF, Fraction(1, 3), 0, 1)
    b = integrate_pw_harmonic(spec, EQUAL, max_depth=3)
    assert b.lower <= b.exact == Fraction(2, 9) <= b.upper
    monkeypatch.setattr(closed_forms, "_state_unit", lambda state: 2)
    with pytest.raises(ArithmeticError):
        integrate_pw_harmonic(spec, EQUAL, max_depth=3)


@pytest.mark.parametrize("s0", [HALF, Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)])
def test_integer_step_matches_independent_oracles(s0):
    """Seeded random descents, to depth 4, of the integer cell-state step.

    An "h" state's children must be the literal extension maps applied to
    its corner values; the children of a "down", "plus" or "up" state must
    integrate, weighted by w, to the parent's exact integral.
    """
    rng = random.Random(7)
    step = _int_step(s0)
    maps = _literal_extension_matrices(s0)
    integ = HarmonicIntegrator(SKEW, s0)
    kinds = ("h", "down", "plus", "up") if s0 == HALF else ("h", "down", "plus")
    checked = set()
    values = lambda st, unit: tuple(Fraction(n, unit) for n in st[1:])
    for trial in range(48):
        kind = kinds[trial % len(kinds)]
        u = rng.randint(1, 30)
        state = (kind, *(rng.randint(-50, 50) for _ in range(3 if kind in ("h", "plus") else 1)))
        for _ in range(4):
            kids = _state_children(state, step)
            if state[0] == "h":
                a = values(state, u)
                for m, kid in zip(maps, kids):
                    want = tuple(sum(m[j][k] * a[k] for k in range(3)) for j in range(3))
                    assert kid[0] == "h" and values(kid, u * step[0]) == want
            else:
                parent = integ.exact((state[0], *values(state, u)))
                kid_sum = sum(
                    q * integ.exact((k[0], *values(k, u * step[0])))
                    for q, k in zip(SKEW.as_tuple(), kids)
                )
                assert kid_sum == parent
            checked.add(state[0])
            state, u = rng.choice(kids), u * step[0]
    assert checked == set(kinds)


def test_measure_ball_bounds_refuses_inexact_distances():
    """A distance that is not a multiple of the integer unit raises, never rounds."""

    class OffByAnEleventh(Metric):
        def dist(self, u, v):
            return super().dist(u, v) + Fraction(1, 11)

    with pytest.raises(ArithmeticError):
        measure_ball_bounds(Q0, Fraction(1, 4), EQUAL, max_depth=3, metric=OffByAnEleventh(HALF))


def _descent_oracle(center, radius, max_depth, metric):
    """Oracle: the ball cover cell by cell, as the descent ran before it folded cell states.

    Yields (word, a, inside) for each cell of the cover, a the digits of
    the word in {0,1}; every cell off the centre's chain is pushed and
    popped on its own, with no memo.
    """
    center = canonicalize(*center)
    p, q = metric.s0.numerator, metric.s0.denominator
    unit = q ** (max(max_depth, len(center[0]), 0) + 2) * radius.denominator

    def units(d, per_unit=unit):
        n, rem = divmod(d.numerator * per_unit, d.denominator)
        assert not rem
        return n

    def center_dists(word):
        return tuple(units(metric.dist(center, (word, j))) for j in (1, 2, 3))

    digits = [
        (str(i), int(i < 2), p if i < 2 else q - p,
         [min((units(metric.dist(("", k), (str(i), j + 1)), q), j) for j in range(3)) for k in (1, 2, 3)])
        for i in range(4)
    ]
    reach = (1, 2, 2)
    r = units(radius)
    stack = []
    held = "", 0, unit, center_dists("")
    while held:
        word, a, scale, ds = held
        inside = any(d + k * scale < r for d, k in zip(ds, reach))
        if inside or len(word) >= max_depth:
            yield word, a, inside
            break
        step, held = scale // q, None
        for digit, da, factor, _ in digits:
            child, cds = word + digit, center_dists(word + digit)
            if 0 not in cds and in_cell(center, child):
                held = child, a + da, step * factor, cds
            else:
                stack.append((child, a + da, step * factor, *min(zip(cds, range(3)))))
    while stack:
        word, a, scale, d, e = stack.pop()
        if d >= r:
            continue
        inside = d + reach[e] * scale < r
        if inside or len(word) >= max_depth:
            yield word, a, inside
            continue
        step = scale // q
        for digit, da, factor, moves in digits:
            stack.append((word + digit, a + da, step * factor, d + step * moves[e][0], moves[e][1]))


@pytest.mark.parametrize("s0", [HALF, Fraction(1, 3), Fraction(2, 5)])
def test_folded_cover_matches_the_cell_by_cell_descent(s0):
    """Seeded random centres, radii and depths 0-9: the folded counts, and at
    s0 = 1/2 the words of `ball_cell_words`, equal the oracle's cell by cell."""
    rng = random.Random(19)
    metric = Metric(s0)
    mixed = 0
    for _ in range(60):
        depth = rng.randint(0, 9)
        word = "".join(rng.choice("0123") for _ in range(rng.randint(0, 6)))
        center = canonicalize(word, rng.randint(1, 3))
        radius = rng.choice([Fraction(1, 2 ** rng.randint(1, 8)), Fraction(rng.randint(1, 40), rng.randint(21, 97))])
        cells = list(_descent_oracle(center, radius, depth, metric))
        counts = Counter((len(w), a, inside) for w, a, inside in cells)
        assert measure._ball_cover_counts(center, radius, depth, metric) == dict(counts)
        mixed += {inside for _, _, inside in counts} == {True, False}
        if s0 == HALF:
            want = [w + tail for w, _, _ in cells for tail in words_of_length(depth - len(w))]
            assert sorted(network.ball_cell_words(center, radius, depth)) == sorted(want)
    assert mixed >= 25


def test_doubling_bounds_at_y6_tighten_with_depth():
    """Depths 12, 16 and 20 at y_6, r = 1/64: each ball's bounds nest, and
    depth 20 runs in under 0.1 s (a cell-by-cell descent took 1.3 s)."""
    w = WeightVector.parse("1/10,2/5")
    y6 = canonicalize("2" + "0" * 5, 2)
    runs = []
    for depth in (12, 16, 20):
        start = time.perf_counter()
        runs.append(doubling_ratio(w, y6, Fraction(1, 64), max_depth=depth, metric=Metric(HALF))[1:])
        seconds = time.perf_counter() - start
    assert seconds < 0.1
    for coarse, fine in zip(runs, runs[1:]):
        for a, b in zip(coarse, fine):
            assert a.lower <= b.lower and b.upper <= a.upper
