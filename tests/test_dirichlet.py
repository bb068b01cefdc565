import operator
import random
from fractions import Fraction

import pytest

from dendrite.addressing import canonicalize
from dendrite.dirichlet import (
    ById,
    VertexFunction,
    dirichlet_energy,
    effective_resistance,
    equilibrium_on_ball,
    equilibrium_potential,
    green_g1,
    solve_dirichlet,
    solve_on_ball,
)
from dendrite.exit_time import _lumped_masses, q0_ball
from dendrite.measure import WeightVector
from dendrite.network import Network, ball, ball_graph, build_level_graph, resistance_distance

HALF = Fraction(1, 2)
Q0, Q1, Q2, Q3 = ("2", 1), ("", 1), ("", 2), ("", 3)


def test_level1_harmonic_midpoint():
    g = build_level_graph(1)
    u = solve_dirichlet(g, {Q1: 1, Q2: 0, Q3: 0})
    assert u[Q0] == HALF


def test_constants_are_harmonic():
    g = build_level_graph(2)
    u = solve_dirichlet(g, {Q1: 5, Q2: 5, Q3: 5})
    assert all(v == 5 for v in u.values)
    assert dirichlet_energy(u) == 0


def test_pin_everything_returns_the_data():
    g = build_level_graph(0)
    u = solve_dirichlet(g, {Q1: 7, Q2: 1, Q3: 2})
    assert {v: u[v] for v in g.vertices} == {Q1: 7, Q2: 1, Q3: 2}


def test_empty_constraints_rejected():
    g = build_level_graph(1)
    with pytest.raises(ValueError):
        solve_dirichlet(g, {})


def test_bottom_grounded_value_approaches_quarter_from_above():
    values = []
    for level in (2, 3, 4):
        g = build_level_graph(level)
        bottom = [v for v in g.vertices if v[1] in (2, 3) and all(c in "23" for c in v[0])]
        sol = solve_dirichlet(g, {Q1: 1, **{v: 0 for v in bottom}})
        values.append(sol[Q0])
    assert values[0] > values[1] > values[2] > Fraction(1, 4)


def test_energy_formula_level0():
    g = build_level_graph(0)
    data = {Q1: Fraction(1), Q2: Fraction(0), Q3: Fraction(0)}
    u = VertexFunction(g, [data[v] for v in g.vertices], "exact")
    assert dirichlet_energy(u) == 2


def test_renormalized_energy_is_exact():
    g = build_level_graph(1)
    u = solve_dirichlet(g, {Q1: 1, Q2: 0, Q3: 0})
    assert dirichlet_energy(u) == 2


def test_effective_resistances():
    for level in range(4):
        g = build_level_graph(level)
        assert effective_resistance(g, [Q2], [Q1]) == 1
    g = build_level_graph(2)
    assert effective_resistance(g, [Q2, Q3], [Q1]) == HALF
    assert effective_resistance(g, [Q1, Q2, Q3], [Q0]) == Fraction(1, 4)
    with pytest.raises(ValueError):
        effective_resistance(g, [Q1], [Q1])


def test_resistance_from_current_equals_inverse_energy():
    """R read off the net current out of the high set is 1 / the potential's
    energy exactly, and in float within 1e-12 relative of the exact R."""
    rng = random.Random(5)
    cases = []
    for level in range(1, 6):
        g = build_level_graph(level, HALF if level % 2 else Fraction(2, 5))
        for _ in range(3):
            picked = rng.sample(g.vertices, 5)
            cases.append((g, picked[:2], picked[2:]))
    region = ball(ball_graph(2, 8), Q0, Fraction(1, 4))
    for x in [Q0] + rng.sample(sorted(region.interior), 4):
        cases.append((region.graph, list(region.frontier), [x]))
    for g, low, high in cases:
        r = effective_resistance(g, low, high)
        pinned = {**{v: 0 for v in low}, **{v: 1 for v in high}}
        assert r == 1 / dirichlet_energy(solve_dirichlet(g, pinned))
        assert abs(effective_resistance(g, low, high, mode="float") - float(r)) <= 1e-12 * float(r)
    # between two vertices the elimination meets the integer tree walk
    for s0 in (Fraction(1, 3), Fraction(2, 5)):
        for level in (1, 3, 4):
            g = build_level_graph(level, s0)
            for _ in range(3):
                a, b = rng.sample(g.vertices, 2)
                r = effective_resistance(g, [a], [b])
                assert type(r) is Fraction and r == resistance_distance(g, a, b)
                assert abs(effective_resistance(g, [a], [b], mode="float") - float(r)) <= 1e-12 * float(r)


def test_equilibrium_potential_basic():
    g = build_level_graph(2)
    psi, r = equilibrium_potential(g, Q1, [Q2, Q3])
    assert psi[Q1] == 1 and psi[Q2] == 0
    assert psi[Q0] == HALF
    assert r == HALF
    assert all(0 <= v <= 1 for v in psi.values)


def test_equilibrium_star_reduction():
    g = build_level_graph(1)
    others = [v for v in g.vertices if v != Q0]
    _, r = equilibrium_potential(g, Q0, others)
    total = sum(c for j, c in g.adj[g.vertex_id(Q0)])
    assert r == 1 / total


def test_grounded_source_rejected():
    g = build_level_graph(1)
    with pytest.raises(ValueError):
        equilibrium_potential(g, Q1, [Q1, Q2])


def test_green_zero_masses():
    g = ball_graph(1, 4)
    region = ball(g, Q0, HALF)
    sol = green_g1(region, {}, mode="exact")
    assert all(v == 0 for v in sol.values)


def test_green_diagonal_equals_resistance():
    g = ball_graph(1, 4)
    region = ball(g, Q0, HALF)
    x = canonicalize("22", 1)
    sol = green_g1(region, {x: 1}, mode="exact")
    _, r = equilibrium_potential(g, x, region.frontier)
    assert sol[x] == r


def test_green_mass_on_frontier_rejected():
    g = ball_graph(1, 4)
    region = ball(g, Q0, HALF)
    frontier_v = next(iter(region.frontier))
    assert Q3 not in g.index
    for v in (frontier_v, Q3):
        with pytest.raises(ValueError):
            green_g1(region, {v: 1})
    # a mass label is read in normal form: F_0(q2) is q0
    assert green_g1(region, {("0", 2): 1}).values == green_g1(region, {Q0: 1}).values


def test_green_none_mass_loads_nothing():
    g = ball_graph(1, 4)
    region = ball(g, Q0, HALF)
    x = canonicalize("22", 1)
    alone = green_g1(region, {x: 1}).values
    assert green_g1(region, {x: 1, next(iter(region.frontier)): None}).values == alone
    loads = [None] * len(g.vertices)
    loads[g.vertex_id(x)] = 1
    assert green_g1(region, loads).values == alone


def _net_flow(g, values, i):
    """Sum over the neighbours j of id i of c_ij (u_i - u_j)."""
    return sum(c * (values[i] - values[j]) for j, c in g.adj[i])


def test_green_resolves_each_mass_label_once(monkeypatch):
    """`green_g1` checks a label mapping and hands the masses on by id, so two labels
    cost two lookups; two labels of one vertex add."""
    g = ball_graph(1, 4)
    region = ball(g, Q0, HALF)
    x, y = canonicalize("22", 1), canonicalize("0002", 1)
    calls = []
    lookup = g.vertex_id
    monkeypatch.setattr(g, "vertex_id", lambda v: calls.append(v) or lookup(v))
    sol = green_g1(region, {x: 1, y: 2}, mode="exact")
    assert len(calls) == 2
    monkeypatch.undo()
    loads = {g.vertex_id(x): 1, g.vertex_id(y): 2}
    for i in (g.vertex_id(v) for v in region.interior):
        assert _net_flow(g, sol.values, i) == loads.get(i, 0)
    # ("20", 1) is q0 = ("2", 1)
    assert green_g1(region, {Q0: 1, ("20", 1): 2}).values == green_g1(region, {Q0: 3}).values


def test_float_green_solve_peak_memory(traced):
    """The float `green_g1` on `q0_ball(5, 10)` peaks at most 4.29 MB over its inputs (3.43 MB
    measured, plus a quarter).  With a breadth-first pass of its own (order, parent and parent
    conductance lists) it peaked at 5.39 MB, and with separate child-sum and value lists at 7.42 MB."""
    region = q0_ball(5, 10)
    loads = [None] * len(region.units)
    for i, m in _lumped_masses(WeightVector(Fraction(1, 10), Fraction(2, 5)), region, operator.truediv).items():
        loads[i] = m
    green_g1(region, loads, mode="float")  # the region's caches are made before measuring
    _, _, peak = traced(lambda: green_g1(region, loads, mode="float"))
    assert peak <= 4.29 * 2**20, peak


def test_solve_on_ball_pins_everything_outside_the_ball():
    g = ball_graph(1, 4)
    region = ball(g, Q0, HALF)
    sol = solve_on_ball(region, {v: 1 for v in region.frontier}, mode="exact")
    outside = set(g.vertices) - region.interior - region.frontier
    assert outside and all(sol[v] == 0 for v in outside)
    assert all(sol[v] == 1 for v in region.interior | region.frontier)


def test_solve_on_ball_reads_boundary_labels_in_normal_form():
    region = q0_ball(2, 5)
    # ("00", 2) and ("02", 1) name one frontier vertex, stored as ("02", 1)
    apex = solve_on_ball(region, {("02", 1): 1}, mode="float").values
    assert max(apex) == 1
    assert [v.hex() for v in solve_on_ball(region, {("00", 2): 1}, mode="float").values] == [v.hex() for v in apex]
    assert Q3 not in region.graph.index
    with pytest.raises(KeyError):
        solve_on_ball(region, {Q3: 1})


def _hex(values):
    return [x.hex() for x in values]


def test_ball_solves_on_the_region_tree_match_the_breadth_first_solve():
    """Seeded: `solve_on_ball` and `green_g1` solve on the region's walk tree, and agree with
    `solve_dirichlet`'s own breadth-first pass given the same per-id pins (the boundary data
    off the ball, 0 elsewhere off it) and masses.  Signed Fraction data on frontier ids,
    on ids beyond the frontier and on ids inside the ball (which pin nothing), and signed
    Fraction masses inside.  The breadth-first solve reads the same pins as a sparse `ById`.
    Exact values are equal Fractions; float values are equal bit for
    bit at q0, whose id is the lowest inside the ball, so that both trees have one root and
    one order.  At other centres the breadth-first pass roots at the lowest id inside, so
    float sums run in another order and agree within 1e-12 of the largest exact value."""
    rng = random.Random(2026)
    cases = {True: 0, False: 0}
    for _ in range(12):
        n = rng.randint(1, 3)
        level = n + rng.randint(2, 3)
        g = ball_graph(n, level)
        centers = [(Q0, Fraction(1, 2**n))]
        centers.append((g.vertices[rng.randrange(len(g.vertices))], Fraction(rng.randint(1, 9), rng.randint(16, 64))))
        for center, radius in centers:
            region = ball(g, center, radius)
            if region.n_inside == len(g.vertices):
                continue
            cut, units = region.cut(), region.units
            frontier = list(region.frontier_ids)
            beyond = [j for j in region.order[region.n_inside:] if j not in region.frontier_ids]
            inside = list(region.order[: region.n_inside])
            data = {}
            for j in rng.sample(frontier, rng.randint(1, len(frontier))) + rng.sample(beyond, min(3, len(beyond))):
                data[j] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            boundary = {g.vertices[j]: v for j, v in data.items()}
            boundary[g.vertices[rng.choice(inside)]] = Fraction(5)  # on the ball: pins nothing
            pins = [data.get(i, 0) if d >= cut else None for i, d in enumerate(units)]
            masses = [None] * len(units)
            for i in rng.sample(inside, rng.randint(0, min(40, len(inside)))):
                masses[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 13))
            at_q0 = region.center == canonicalize(*Q0)
            if at_q0:
                assert g.vertex_id(Q0) == min(inside)
            for load in (None, masses):
                exact = solve_on_ball(region, boundary, load, mode="exact")
                want = solve_dirichlet(g, pins, load, mode="exact")
                assert exact.values == want.values and all(type(x) is Fraction for x in exact.values)
                sparse = ById({i: p for i, p in enumerate(pins) if p is not None})
                assert solve_dirichlet(g, sparse, load, mode="exact").values == want.values
                approx = solve_on_ball(region, boundary, load, mode="float")
                ref = solve_dirichlet(g, pins, load, mode="float")
                if at_q0:
                    assert _hex(approx.values) == _hex(ref.values)
                scale = float(max(abs(x) for x in exact.values)) or 1.0
                assert all(abs(f - float(e)) <= 1e-12 * scale for e, f in zip(exact.values, approx.values))
                cases[at_q0] += 1
            green = green_g1(region, masses, mode="float")
            zero = [0 if p is not None else None for p in pins]
            if at_q0:
                assert _hex(green.values) == _hex(solve_dirichlet(g, zero, masses, mode="float").values)
            assert green_g1(region, masses, mode="exact").values == solve_dirichlet(g, zero, masses).values
    assert cases[True] >= 24 and cases[False] >= 16, cases


def test_ball_solve_error_paths():
    """A boundary label off the graph raises KeyError, a ball without frontier raises
    ValueError (also for `equilibrium_on_ball`, in both modes), and a boundary entry on
    the ball pins nothing."""
    region = q0_ball(2, 5)
    assert Q3 not in region.graph.index
    with pytest.raises(KeyError):
        solve_on_ball(region, {Q3: 1})
    whole = ball(build_level_graph(2), Q1, Fraction(3))
    assert not whole.frontier_ids
    for mode in ("exact", "float"):
        with pytest.raises(ValueError, match="pin at least one vertex"):
            solve_on_ball(whole, {}, mode=mode)
    with pytest.raises(ValueError, match="empty frontier"):
        green_g1(whole, {Q1: 1})
    for mode in ("exact", "float"):
        with pytest.raises(ValueError, match="empty frontier"):
            equilibrium_on_ball(whole, Q0, mode=mode)
    free = solve_on_ball(region, {Q0: 7}, mode="exact")
    assert free.values == solve_on_ball(region, {}, mode="exact").values
    assert all(x == 0 for x in free.values)


def test_exact_ball_potential_matches_the_label_keyed_potential():
    """Exact `equilibrium_on_ball`, solved on the region's walk tree, against the breadth-first
    `equilibrium_potential(g, x, region.frontier)`: psi and R are equal Fractions.  Seeded
    (n, level) with n + 4 <= level <= n + 6, and sources at the center, next to the frontier
    (the parents of frontier ids) and at random inside the ball; and a ball that holds only
    its center, where no id is free."""
    g = build_level_graph(3)
    alone = ball(g, Q0, Fraction(1, 10**6))
    assert alone.n_inside == 1
    psi, r = equilibrium_on_ball(alone, Q0)
    want_psi, want_r = equilibrium_potential(g, Q0, alone.frontier)
    assert r == want_r == Fraction(1, 72) and psi.values == want_psi.values
    rng = random.Random(27)
    for _ in range(6):
        n = rng.randint(1, 3)
        level = n + rng.randint(4, 6)
        g = ball_graph(n, level)
        region = q0_ball(n, level, g)
        inside = list(region.order[: region.n_inside])
        edge = sorted({region.parent[j] for j in region.frontier_ids})
        sources = [region.order[0], *rng.sample(edge, 2), *rng.sample(inside, 2)]
        for i in sources:
            x = g.vertices[i]
            psi, r = equilibrium_on_ball(region, x)
            want_psi, want_r = equilibrium_potential(g, x, region.frontier)
            assert r == want_r and psi.values == want_psi.values
            assert all(type(v) is Fraction for v in psi.values)


def test_float_mode_matches_exact():
    g = build_level_graph(3)
    pins = {Q1: 1, Q2: Fraction(1, 3), Q3: 0}
    exact = solve_dirichlet(g, pins, mode="exact")
    approx = solve_dirichlet(g, pins, mode="float")
    worst = max(abs(float(exact[v]) - approx[v]) for v in g.vertices)
    assert worst < 1e-12


def test_maximum_principle_random():
    rng = random.Random(1)
    g = build_level_graph(2)
    for _ in range(8):
        pins = {rng.choice(g.vertices): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        sol = solve_dirichlet(g, pins)
        lo, hi = min(pins.values()), max(pins.values())
        assert all(lo <= val <= hi for val in sol.values)


def _random_pinned_tree(rng):
    """A seeded random tree (random parent, path-like or star-like) with 1-6 pinned labels."""
    size = rng.randint(2, 60)
    shape = rng.choice(["random", "path", "star"])
    conductances = [Fraction(3, 7), Fraction(5, 2), Fraction(1, 3), Fraction(2), Fraction(7, 5)]
    triples = []
    for k in range(1, size):
        parent = {"random": rng.randrange(k), "path": k - 1, "star": rng.randrange(min(k, 3))}[shape]
        triples.append((f"v{k}", f"v{parent}", rng.choice(conductances)))
    rng.shuffle(triples)
    tree = Network.from_edges(triples)
    labels = rng.sample(tree.vertices, rng.randint(1, min(6, size)))
    pins = {v: Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for v in labels}
    return tree, pins


def test_maximum_principle_on_random_pinned_trees():
    """With no masses, every exact value lies between the extreme pins, every free
    vertex is the conductance-weighted mean of its neighbours, and float mode
    agrees within 1e-12 of the largest pin.  With seeded Fraction masses on free
    vertices (conductance denominators up to 210, pin denominators up to 5), the net
    flow out of every free vertex equals its mass exactly, and float mode agrees
    within 1e-12 of the largest exact value."""
    rng, mass_rng = random.Random(18), random.Random(19)
    for _ in range(40):
        tree, pins = _random_pinned_tree(rng)
        exact = solve_dirichlet(tree, pins, mode="exact")
        approx = solve_dirichlet(tree, pins, mode="float")
        lo, hi = min(pins.values()), max(pins.values())
        assert all(lo <= x <= hi for x in exact.values)
        assert all(exact[v] == val for v, val in pins.items())
        for i, v in enumerate(tree.vertices):
            if v not in pins:
                assert sum(c * (exact.values[j] - exact.values[i]) for j, c in tree.adj[i]) == 0
        scale = float(max(abs(lo), abs(hi)))
        assert all(abs(f - float(e)) <= 1e-12 * scale for e, f in zip(exact.values, approx.values))

        free = [v for v in tree.vertices if v not in pins]
        picked = mass_rng.sample(free, mass_rng.randint(0, len(free)))
        masses = {v: Fraction(mass_rng.randint(-6, 6), mass_rng.randint(1, 7)) for v in picked}
        exact = solve_dirichlet(tree, pins, masses, mode="exact")
        approx = solve_dirichlet(tree, pins, masses, mode="float")
        assert all(type(x) is Fraction for x in exact.values)
        assert all(exact[v] == val for v, val in pins.items())
        for v in free:
            assert _net_flow(tree, exact.values, tree.vertex_id(v)) == masses.get(v, 0)
        scale = float(max(abs(x) for x in exact.values))
        assert all(abs(f - float(e)) <= 1e-12 * scale for e, f in zip(exact.values, approx.values))


def test_free_cycle_is_refused():
    g = Network.from_edges([("a", "b", 1), ("b", "c", 2), ("c", "a", 3), ("c", "p", 1)])
    with pytest.raises(RuntimeError, match="free subgraph contains a cycle"):
        solve_dirichlet(g, {"p": 0})


def test_floating_component_is_refused():
    g = Network.from_edges([("p", "a", 1), ("b", "c", 2), ("c", "d", 1)])
    for mode in ("exact", "float"):
        with pytest.raises(RuntimeError, match="floating component without pinned vertex"):
            solve_dirichlet(g, {"p": 1}, mode=mode)


def _assert_solves_to(g, pins, want, masses=None):
    exact = solve_dirichlet(g, pins, masses=masses, mode="exact")
    assert {v: exact[v] for v in g.vertices} == want
    assert all(type(x) is Fraction for x in exact.values)
    approx = solve_dirichlet(g, pins, masses=masses, mode="float")
    assert all(abs(approx[v] - float(x)) <= 1e-12 for v, x in want.items())


def test_cycle_closed_through_pinned_vertices_is_solved():
    """a - b - c - d - a with a and c pinned (and an a - c edge): b and d are two
    free one-vertex components, and e hangs off b without current."""
    g = Network.from_edges([
        ("a", "b", 1), ("b", "c", 2), ("c", "d", 1), ("d", "a", 3), ("a", "c", 5), ("b", "e", 4),
    ])
    third = Fraction(1, 3)
    want = {"a": 1, "b": third, "c": 0, "d": Fraction(3, 4), "e": third}
    _assert_solves_to(g, {"a": 1, "c": 0}, want)


def test_pins_that_cut_a_tree_into_components():
    """Pins p and q split the tree into a pendant pair at p, a bridge b (with a
    pendant) between p and q, and a loaded vertex c hanging off q."""
    g = Network.from_edges([
        ("a2", "a1", 1), ("a1", "p", 2), ("p", "b", 1), ("b", "q", 3), ("b", "b2", 5), ("q", "c", 2),
    ])
    quarter = Fraction(-1, 4)
    want = {"a2": 2, "a1": 2, "p": 2, "b": quarter, "b2": quarter, "q": -1, "c": Fraction(-1, 2)}
    _assert_solves_to(g, {"p": 2, "q": -1}, want, masses={"c": 1})
