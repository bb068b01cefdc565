from fractions import Fraction

import pytest

from dendrite.addressing import canonicalize
from dendrite.dirichlet import dirichlet_energy, equilibrium_potential, solve_dirichlet
from dendrite.harnack import on_cantor_piece
from dendrite.network import ball, ball_graph, build_level_graph
from dendrite.reduction import (
    ball_skeleton,
    bottom_grounded_conductance,
    psi_skeleton_values,
    q0_boundary_resistance,
    udown_value_q0,
    upward_grounded_conductance,
    uup_values,
)

HALF = Fraction(1, 2)
Q0, Q1, Q2 = ("2", 1), ("", 1), ("", 2)


def bottom_vertices(g):
    return [v for v in g.vertices if v[1] in (2, 3) and all(c in "23" for c in v[0])]


def test_bottom_grounded_conductance_vs_brute_force():
    for level in range(4):
        g = build_level_graph(level)
        _, r = equilibrium_potential(g, Q1, bottom_vertices(g))
        assert 1 / r == bottom_grounded_conductance(level)


def test_bottom_grounded_monotone_to_three():
    values = [bottom_grounded_conductance(j) for j in range(13)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[0] == 2
    assert abs(float(values[12]) / 3 - 1) < 1e-6


def test_general_s0_conductance():
    s0 = Fraction(1, 3)
    g = build_level_graph(3, s0)
    _, r = equilibrium_potential(g, Q1, bottom_vertices(g))
    assert 1 / r == bottom_grounded_conductance(3, s0)


def test_upward_conductance_vs_brute_force():
    for level in (1, 2, 3, 4):
        g = build_level_graph(level)
        pieces = ["0" * m + "23" for m in range(level)]
        ground = [Q1] + [
            v for v in g.vertices
            if v[1] in (2, 3) and any(on_cantor_piece(v, p) for p in pieces)
        ]
        sol = solve_dirichlet(g, {Q2: 1, **{v: 0 for v in ground}})
        assert dirichlet_energy(sol) == upward_grounded_conductance(level)
        chain = uup_values(level)
        for m, want in chain.items():
            assert sol[canonicalize("0" * m + "2", 1)] == want


def test_udown_value_decreases_to_quarter():
    vals = [udown_value_q0(level) for level in range(1, 13)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == Fraction(1, 3)
    assert abs(float(vals[-1]) * 4 - 1) < 1e-6


def test_uup_chain_values_decrease_to_limit():
    for m in range(5):
        vals = [uup_values(level)[m] for level in range(m + 2, 13, 2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > Fraction(1, 4 ** (m + 1))


def test_skeleton_equals_ball_graph_exactly():
    cases = [
        (1, 6, "x", 1, 1),
        (1, 6, "x", 0, 0),
        (2, 7, "x", 1, 2),
        (1, 6, "y", 0, 2),
        (2, 7, "y", 0, 1),
    ]
    for n, level, kind, m0, k0 in cases:
        g = ball_graph(n, level)
        region = ball(g, Q0, Fraction(1, 2**n))
        vals, r = psi_skeleton_values(n, level, kind, m0=m0, k0=k0)
        net, labels = ball_skeleton(n, level, kind, m0=m0, k0=k0)
        psi, r_direct = equilibrium_potential(g, labels["source"], region.frontier)
        assert r == r_direct
        probes = [labels["q0"]] + labels.get("chain", []) + labels.get("spine", [])[:4]
        for node in probes:
            if node == "GND":
                continue
            assert psi[node] == vals[node]


def test_q0_boundary_resistance_formula():
    # closed-form check at n = 1: lower 2 c_L / ... against the brute ball solve
    g = ball_graph(1, 6)
    region = ball(g, Q0, HALF)
    _, r = equilibrium_potential(g, Q0, region.frontier)
    assert r == q0_boundary_resistance(1, 6)


def test_skeleton_parameter_validation():
    with pytest.raises(ValueError):
        ball_skeleton(1, 5, "x", m0=4, k0=0)  # m0 beyond the spine
    with pytest.raises(ValueError):
        ball_skeleton(1, 4, "x", m0=1, k0=3)  # chain deeper than the level
    with pytest.raises(ValueError):
        ball_skeleton(1, 5, "y", k0=0)
