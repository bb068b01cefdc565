import random
from fractions import Fraction

import pytest

from dendrite.addressing import canonicalize, in_cell, words_of_length
from dendrite.metric import Metric
from dendrite.network import (
    CapacityError,
    Network,
    ball,
    ball_cell_words,
    ball_graph,
    build_level_graph,
    resistance_distance,
    schur_trace,
    word_conductance,
)

HALF = Fraction(1, 2)
Q0, Q1, Q2, Q3 = ("2", 1), ("", 1), ("", 2), ("", 3)


def test_level_zero_graph():
    g = build_level_graph(0)
    assert len(g.vertices) == 3 and len(g.edges) == 2
    assert all(c == 1 for _, _, c in g.edges)


def test_level_one_graph_counts_and_conductance():
    g = build_level_graph(1, HALF)
    assert len(g.vertices) == 9 and len(g.edges) == 8
    assert all(c == 2 for _, _, c in g.edges)


def test_vertex_count_formula():
    for level in range(5):
        g = build_level_graph(level)
        assert len(g.vertices) == 2 * 4**level + 1
        assert len(g.edges) == len(g.vertices) - 1


def test_capacity_error():
    # full level graphs stop at level 9, whatever the configured cap
    with pytest.raises(CapacityError):
        build_level_graph(10)


def test_renormalization_edge_for_edge():
    for s0 in (HALF, Fraction(1, 3), Fraction(2, 5)):
        for level in range(3):
            fine = build_level_graph(level + 1, s0)
            coarse = build_level_graph(level, s0)
            red = schur_trace(fine, coarse.vertices)
            got = {(a, b): c for a, b, c in red.edge_list()}
            want = {(coarse.vertices[i], coarse.vertices[j]): c for i, j, c in coarse.edges}
            assert got == want


def test_schur_keep_everything_is_identity():
    g = build_level_graph(1)
    red = schur_trace(g, g.vertices)
    got = {(a, b): c for a, b, c in red.edge_list()}
    want = {(g.vertices[i], g.vertices[j]): c for i, j, c in g.edges}
    assert got == want


def test_schur_requires_two_vertices():
    g = build_level_graph(1)
    with pytest.raises(ValueError):
        schur_trace(g, [Q1])


def test_resistance_distance_examples():
    g = build_level_graph(4)
    assert resistance_distance(g, Q1, Q2) == 1
    assert resistance_distance(g, Q2, Q3) == 2
    assert resistance_distance(g, Q0, Q1) == HALF


def test_distance_level_compatibility():
    metric = Metric(HALF)
    pairs = [(Q0, Q2), (("02", 1), Q3), (("23", 1), ("13", 1))]
    for u, v in pairs:
        expected = metric.dist(u, v)
        for level in (2, 3, 4):
            g = build_level_graph(level)
            assert resistance_distance(g, u, v) == expected


def test_ball_radius_beyond_diameter():
    g = build_level_graph(3)
    region = ball(g, Q1, Fraction(3))
    assert not region.frontier
    assert len(region.interior) == len(g.vertices)


def test_ball_b1_structure():
    g = build_level_graph(4)
    region = ball(g, Q0, HALF)
    # the lower cell's interior lattice lies inside B(q0, 1/2)
    for v in g.vertices:
        if in_cell(v, "2") and region.dist[g.vertex_id(v)] < HALF:
            assert v in region.interior
    assert canonicalize("0", 1) not in region.interior  # q1 sits at distance 1/2
    assert ("", 1) in region.frontier


def test_ball_frontier_contains_apex_n2():
    g = ball_graph(2, 5)
    region = ball(g, Q0, Fraction(1, 4))
    assert canonicalize("02", 1) in region.frontier
    assert region.upper_boundary and region.lower_boundary
    assert all(v[0].startswith("0") for v in region.upper_boundary)
    assert all(v[0].startswith("2") for v in region.lower_boundary)


def test_ball_monotone_in_radius():
    g = build_level_graph(4)
    small = ball(g, Q0, Fraction(1, 4))
    big = ball(g, Q0, HALF)
    assert small.interior <= big.interior


def test_ball_graph_matches_full_graph():
    """The trimmed ball subgraph reproduces full-graph distances and frontier."""
    full = build_level_graph(5)
    trimmed = ball_graph(1, 5)
    rf = ball(full, Q0, HALF)
    rt = ball(trimmed, Q0, HALF)
    assert rf.interior == rt.interior
    assert rf.frontier == rt.frontier
    for v in rt.interior:
        assert rf.dist[full.vertex_id(v)] == rt.dist[trimmed.vertex_id(v)]


def test_cut_edges_cross_the_radius():
    g = ball_graph(1, 5)
    region = ball(g, Q0, HALF)
    for u, v, frac in region.cut_edges:
        assert region.dist[g.vertex_id(u)] < HALF <= region.dist[g.vertex_id(v)]
        assert 0 < frac <= 1


def test_ball_cell_words_cover():
    words = ball_cell_words(2, 6)
    assert len(set(words)) == len(words)
    assert all(len(w) == 6 for w in words)
    assert all(w[0] == "2" or w.startswith("02") for w in words)


def test_export_json_round_trip():
    import json

    g = build_level_graph(1, Fraction(1, 3))
    data = json.loads(g.to_json())
    assert data["level"] == 1
    assert data["s0"] == "1/3"
    assert len(data["vertices"]) == 9
    assert len(data["edges"]) == 8


def _product_conductance(word, s0):
    """Oracle: 1/s_w multiplied out digit by digit."""
    c = Fraction(1)
    for d in word:
        c /= s0 if d in "01" else 1 - s0
    return c


@pytest.mark.parametrize("s0", [HALF, Fraction(1, 3), Fraction(2, 5)])
def test_word_conductance_matches_product(s0):
    for length in range(7):
        for word in words_of_length(length):
            assert word_conductance(word, s0) == _product_conductance(word, s0)


def test_recorded_corners_and_cell_conductances():
    graphs = [build_level_graph(level, s0) for level in range(6) for s0 in (HALF, Fraction(2, 5))]
    graphs += [ball_graph(n, n + 4) for n in (1, 2, 3)]
    for g in graphs:
        assert len(g.corners) == 3 * len(g.words) == 3 * len(g.s0_digits)
        conductance = {(i, j): c for i, j, c in g.edges}
        for k, word in enumerate(g.words):
            q1, q2, q3 = g.corners[3 * k : 3 * k + 3]
            assert [g.vertices[q] for q in (q1, q2, q3)] == [canonicalize(word, j) for j in (1, 2, 3)]
            assert g.s0_digits[k] == sum(d in "01" for d in word)
            c = _product_conductance(word, g.s0)
            assert conductance[min(q1, q2), max(q1, q2)] == c
            assert conductance[min(q1, q3), max(q1, q3)] == c


def _separates_three(g, keep, w):
    """Oracle: whether removing vertex id w leaves kept vertices in three components."""
    seen = {w}
    hit = 0
    for start, _ in g.adj[w]:
        found = False
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            found |= i in keep
            for j, _ in g.adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        hit += found
    return hit >= 3


def _random_kept_sets(g, count, seed):
    """Random kept id sets of 2-8 vertices; every other one closed under branch points."""
    rng = random.Random(seed)
    branchy = [w for w in range(len(g.vertices)) if len(g.adj[w]) >= 3]
    for t in range(count):
        keep = set(rng.sample(range(len(g.vertices)), rng.randint(2, 8)))
        while t % 2:
            extra = [w for w in branchy if w not in keep and _separates_three(g, keep, w)]
            if not extra:
                break
            keep.update(extra)
        yield keep


@pytest.mark.parametrize("s0", [HALF, Fraction(2, 5)])
def test_schur_trace_against_brute_force(s0):
    g = build_level_graph(3, s0)
    refused = kept_trees = 0
    for keep in _random_kept_sets(g, 200, seed=7):
        kept = [g.vertices[i] for i in sorted(keep)]
        star = any(
            _separates_three(g, keep, w)
            for w in range(len(g.vertices))
            if w not in keep and len(g.adj[w]) >= 3
        )
        if star:
            with pytest.raises(RuntimeError):
                schur_trace(g, kept)
            refused += 1
            continue
        red = schur_trace(g, kept)
        kept_trees += 1
        assert red.vertices == kept and len(red.edges) == len(kept) - 1
        assert red.edges == sorted(red.edges) and all(i < j for i, j, _ in red.edges)
        for a, b, c in red.edge_list():
            assert c == 1 / resistance_distance(g, a, b)
        # a trace keeps every effective resistance between kept vertices
        for a in kept:
            d_red, d_full = red.distances_from(a), g.distances_from(a)
            assert all(d_red[red.vertex_id(b)] == d_full[g.vertex_id(b)] for b in kept)
    assert refused > 20 and kept_trees > 20


def test_from_edges_sums_parallel_edges():
    net = Network.from_edges([("a", "b", Fraction(1)), ("b", "c", 2), ("b", "a", Fraction(1, 2))])
    assert net.vertices == ["a", "b", "c"]
    assert net.edge_list() == [("a", "b", Fraction(3, 2)), ("b", "c", Fraction(2))]
    assert net.adj[net.vertex_id("b")] == [(0, Fraction(3, 2)), (2, Fraction(2))]
    assert net.distances_from("a") == [0, Fraction(2, 3), Fraction(7, 6)]


@pytest.mark.parametrize(
    "edge, message",
    [(("a", "a", Fraction(1)), "self-loop"), (("a", "b", Fraction(0)), "positive"),
     (("a", "b", Fraction(-1)), "positive")],
)
def test_from_edges_rejects_bad_edges(edge, message):
    with pytest.raises(ValueError, match=message):
        Network.from_edges([("a", "c", Fraction(1)), edge])


def test_vertex_id_accepts_labels_and_raw_vertices():
    g = build_level_graph(2)
    assert g.vertex_id(("00", 2)) == g.vertex_id(canonicalize("00", 2))
    with pytest.raises(KeyError):
        g.vertex_id(("0000", 2))
    net = Network.from_edges([(Q0, "GND", Fraction(1))])
    assert (net.vertex_id(Q0), net.vertex_id("GND")) == (0, 1)
    with pytest.raises(KeyError):
        net.vertex_id("ground")
