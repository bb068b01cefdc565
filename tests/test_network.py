import gc
import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import lcm
from types import SimpleNamespace

import pytest

from dendrite import network
from dendrite.addressing import canonicalize, check_word, in_cell, words_of_length
from dendrite.dirichlet import VertexFunction
from dendrite.harnack import extrema_over_subball
from dendrite.measure import WeightVector, ball_measure, cell_measure, classify_region_cells
from dendrite.metric import Metric
from dendrite.network import (
    CapacityError,
    Network,
    ball,
    ball_cell_words,
    ball_graph,
    build_cells_graph,
    build_level_graph,
    radius_crossings,
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
        if in_cell(v, "2") and Fraction(region.units[g.vertex_id(v)], g.unit) < HALF:
            assert v in region.interior
    assert canonicalize("0", 1) not in region.interior  # q1 sits at distance 1/2
    assert ("", 1) in region.frontier


def test_ball_frontier_contains_apex_n2():
    g = ball_graph(2, 5)
    region = ball(g, Q0, Fraction(1, 4))
    assert canonicalize("02", 1) in region.frontier
    # the word-prefix rule of the `ball` report splits the frontier above and below q0
    upper = {v for v in region.frontier if v[0].startswith("0")}
    lower = {v for v in region.frontier if v[0].startswith("2")}
    assert upper and lower and upper | lower == region.frontier


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
    assert full.unit == trimmed.unit
    for v in rt.interior:
        assert rf.units[full.vertex_id(v)] == rt.units[trimmed.vertex_id(v)]


def test_cut_edges_cross_the_radius():
    g = ball_graph(1, 5)
    region = ball(g, Q0, HALF)
    dist = g.distances_from(Q0)
    for u, v, frac in region.cut_edges:
        assert dist[g.vertex_id(u)] < HALF <= dist[g.vertex_id(v)]
        assert 0 < frac <= 1


def _fraction_walk(g, s):
    """Oracle: tree distances from id s, summed edge by edge as Fractions."""
    dist = {s: Fraction(0)}
    stack = [s]
    while stack:
        i = stack.pop()
        for j, c in g.adj[i]:
            if j not in dist:
                dist[j] = dist[i] + 1 / c
                stack.append(j)
    return [dist[i] for i in range(len(g.vertices))]


def _random_tree(rng, size):
    """A seeded random tree on labels 0..size-1 with non-dyadic conductances, one edge doubled."""
    conductances = [Fraction(3, 7), Fraction(5, 2), Fraction(1, 3), Fraction(2), Fraction(7, 5)]
    triples = [(k, rng.randrange(k), rng.choice(conductances)) for k in range(1, size)]
    triples.append((*triples[-1][:2], rng.choice(conductances)))  # summed into one edge
    rng.shuffle(triples)
    return Network.from_edges(triples)


def test_integer_walk_matches_fraction_walk():
    graphs = [ball_graph(n, level) for n in range(1, 5) for level in range(n + 1, n + 6)]
    # s0 = 1/3 and 2/5 have units 3^L and 5^L, not powers of two
    graphs += [build_level_graph(level, s0) for level in range(6) for s0 in (HALF, Fraction(1, 3), Fraction(2, 5))]
    for g in graphs:
        assert g.unit == g.s0.denominator**g.level == lcm(*(c.numerator for _, _, c in g.edges))
    rng = random.Random(12)
    trees = [_random_tree(rng, rng.randint(8, 40)) for _ in range(12)]
    for t in trees:
        assert t.unit == lcm(*(c.numerator for _, _, c in t.edges))
    # a trace keeps its source's unit; the odd kept sets are closed under branch points
    sources = trees[:6] + [build_level_graph(3, Fraction(2, 5)), ball_graph(2, 5)]
    traces = [
        (source, schur_trace(source, [source.vertices[i] for i in keep]))
        for k, source in enumerate(sources)
        for keep in list(_random_kept_sets(source, 4, seed=k))[1::2]
    ]
    assert all(trace.unit == source.unit for source, trace in traces)
    graphs += trees + [trace for _, trace in traces]
    for g in graphs:
        for s in (0, rng.randrange(len(g.vertices))):
            units, want = g._walk(s)[0], _fraction_walk(g, s)
            assert all(type(d) is int for d in units)
            assert [Fraction(d, g.unit) for d in units] == want
        assert g.distances_from(g.vertices[s]) == want


def _reference_ball(g, center, radius):
    """Oracle: interior, frontier, cut edges with t, distances, and the crossings by id in edge order, in Fractions."""
    dist = _fraction_walk(g, g.vertex_id(center))
    interior = frozenset(v for v, d in zip(g.vertices, dist) if d < radius)
    crossings = []
    for i, j, c in g.edges:
        if (dist[i] < radius) != (dist[j] < radius):
            inner, outer = (i, j) if dist[i] < radius else (j, i)
            crossings.append((inner, outer, (radius - dist[inner]) * c))
    cut_edges = [(g.vertices[i], g.vertices[j], t) for i, j, t in sorted(crossings)]
    return interior, frozenset(v for _, v, _ in cut_edges), cut_edges, dist, crossings


def _reference_classify(g, dist, radius):
    """Oracle: the cell distance bound over each cell's corners, in Fractions."""
    scale = Fraction(1, 2**g.level)
    inside, straddle = [], []
    for k in range(len(g.words)):
        d1, d2, d3 = (dist[q] for q in g.corners[3 * k : 3 * k + 3])
        if d1 + scale < radius or d2 + 2 * scale < radius or d3 + 2 * scale < radius:
            inside.append(k)
        elif min(d1, d2, d3) < radius:
            straddle.append(k)
    return inside, straddle


def _reference_extrema(g, dist, values, radius):
    """Oracle: extrema over the vertices at distance < radius and the interpolated cut edges."""
    xs = [float(x) for x, d in zip(values, dist) if d < radius]
    for i, j, c in g.edges:
        if dist[i] > dist[j]:
            i, j = j, i
        if dist[i] < radius <= dist[j]:
            t = (radius - dist[i]) * c
            xs.append(float(values[i]) + float(t) * (float(values[j]) - float(values[i])))
    return min(xs), max(xs)


def test_ball_region_matches_fraction_reference():
    rng = random.Random(2026)
    graphs = [ball_graph(n, n + 3) for n in (1, 2, 3)]
    graphs += [build_level_graph(level, s0) for level in (2, 4) for s0 in (HALF, Fraction(1, 3), Fraction(2, 5))]
    on_vertex = 0
    for g in graphs:
        for center in (Q0, g.vertices[rng.randrange(len(g.vertices))]):
            dist = _fraction_walk(g, g.vertex_id(center))
            radii = [Fraction(1, 3), Fraction(3, 7), Fraction(1, 4)]
            radii += [d for d in rng.sample(dist, 3) if d > 0]  # where d < r flips
            radii += [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(3)]
            for r in radii:
                region = ball(g, center, r)
                interior, frontier, cut_edges, ref_dist, crossings = _reference_ball(g, center, r)
                assert region.radius == r and region.center == canonicalize(*center)
                assert region.interior == interior and region.frontier == frontier
                assert region.cut_edges == cut_edges
                assert radius_crossings(g, region.units, r) == crossings
                assert [Fraction(d, g.unit) for d in region.units] == ref_dist
                on_vertex += r in ref_dist
                values = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in g.vertices]
                sol = VertexFunction(g, values)
                for sub in (r, r / 2, r * Fraction(2, 3)):
                    if any(d < sub for d in ref_dist):
                        assert extrema_over_subball(region, sol, sub) == _reference_extrema(g, ref_dist, values, sub)
                    if g.s0 == HALF:
                        got = classify_region_cells(region, radius=None if sub == r else sub)
                        assert got == _reference_classify(g, ref_dist, sub)
    assert on_vertex >= 20


def test_ball_measure_matches_reference_cell_bounds():
    """`ball_measure` against the measures of the oracle's inside and straddling cells."""
    rng = random.Random(16)
    weights = [WeightVector.equal(), WeightVector(Fraction(1, 10), Fraction(2, 5)), WeightVector(Fraction(3, 10), Fraction(1, 5))]
    cases = 0
    for level in (3, 4, 5):
        g = build_level_graph(level)
        for _ in range(6):
            center = g.vertices[rng.randrange(len(g.vertices))]
            dist = _fraction_walk(g, g.vertex_id(center))
            radii = [Fraction(1, 2 ** rng.randint(1, level)), Fraction(rng.randint(1, 40), rng.randint(21, 97))]
            radii += [d for d in rng.sample(dist, 2) if d > 0]  # on a vertex
            for r in radii:
                region = ball(g, center, r)
                inside, straddle = _reference_classify(g, dist, r)
                for w in weights:
                    lo = sum(cell_measure(w, g.words[k]) for k in inside)
                    hi = lo + sum(cell_measure(w, g.words[k]) for k in straddle)
                    b = ball_measure(w, region)
                    assert (b.lower, b.upper) == (lo, min(hi, Fraction(1)))
                    cases += 1
    assert cases >= 200


def test_ball_measure_refuses_non_dyadic_graphs():
    region = ball(build_level_graph(2, Fraction(1, 3)), Q0, Fraction(1, 4))
    with pytest.raises(ValueError, match="s0 = 1/2"):
        ball_measure(WeightVector.equal(), region)


def _meeting_cells(g, center, radius):
    """Oracle: the level cells of a full graph with a corner at distance < radius."""
    dist = _fraction_walk(g, g.vertex_id(center))
    return {
        w for k, w in enumerate(g.words)
        if min(dist[q] for q in g.corners[3 * k : 3 * k + 3]) < radius
    }


def test_ball_cell_words_cover():
    words = ball_cell_words(Q0, Fraction(1, 4), 6)
    assert len(set(words)) == len(words)
    assert all(len(w) == 6 for w in words)
    assert all(w[0] == "2" or w.startswith("02") for w in words)
    assert set(words) == _meeting_cells(build_level_graph(6), Q0, Fraction(1, 4))
    # a ball past the diameter takes every cell
    assert sorted(ball_cell_words(Q1, Fraction(3), 3)) == list(words_of_length(3))


def _hand_q0_cover(n, level):
    """Reference: the cover of B(q0, 2^-n) derived by hand for q0 alone.

    The 2^(n-1) lower branches K_{2w} (w in {0,1}^(n-1)), the upper spine
    cells K_{0 2^(n-1) 0^m 2}, and the level cells around the apex.
    """
    words = []
    for bits in range(1 << (n - 1)):
        prefix = "2" + format(bits, f"0{n - 1}b") if n > 1 else "2"
        words += [prefix + tail for tail in words_of_length(level - n)]
    upper = "0" + "2" * (n - 1)
    for m in range(level - n):
        prefix = upper + "0" * m + "2"
        words += [prefix + tail for tail in words_of_length(level - len(prefix))]
    tip = upper + "0" * (level - n - 1)
    return words + [tip + d for d in "013"]


def _region_by_vertex(region):
    g = region.graph
    units = {v: d for v, d in zip(g.vertices, region.units)}
    inside, straddle = classify_region_cells(region)
    cells = ({g.words[k] for k in inside}, {g.words[k] for k in straddle})
    return units, cells, (region.interior, region.frontier, region.cut_edges, g.unit)


def test_q0_ball_graph_matches_hand_derived_cover():
    for n in range(1, 5):
        for level in range(n + 1, n + 6):
            radius = Fraction(1, 2**n)
            got = ball(ball_graph(n, level), Q0, radius)
            want = ball(build_cells_graph(_hand_q0_cover(n, level), HALF, level), Q0, radius)
            units, cells, shape = _region_by_vertex(got)
            want_units, want_cells, want_shape = _region_by_vertex(want)
            assert shape == want_shape and cells == want_cells
            assert all(want_units[v] == d for v, d in units.items())
            # the hand cover's extra apex cells lie outside the ball
            cut = got.cut()
            assert all(d >= cut for v, d in want_units.items() if v not in units)


def test_ball_cell_words_match_full_graphs_at_any_center():
    rng = random.Random(4)
    for level in range(3, 7):
        full = build_level_graph(level)
        for _ in range(4):
            center = full.vertices[rng.randrange(len(full.vertices))]
            for radius in (Fraction(1, 2 ** rng.randint(1, level)), Fraction(rng.randint(1, 40), rng.randint(2, 97))):
                words = ball_cell_words(center, radius, level)
                assert set(words) == _meeting_cells(full, center, radius)
                got = ball(build_cells_graph(words, HALF, level), center, radius)
                want = ball(full, center, radius)
                units, cells, shape = _region_by_vertex(got)
                want_units, want_cells, want_shape = _region_by_vertex(want)
                assert shape == want_shape and cells == want_cells
                assert all(want_units[v] == d for v, d in units.items())


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
    """The corners `build_cells_graph` works out inline are `canonicalize`'s normal forms."""
    graphs = [build_level_graph(level, s0) for level in range(7) for s0 in (HALF, Fraction(2, 5))]
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


@pytest.mark.parametrize("word", ["04", "2a", "3-"])
def test_build_refuses_a_word_off_the_alphabet(word):
    with pytest.raises(ValueError, match="digits must be in 0123"):
        build_cells_graph(["00", word], HALF, 2)


@pytest.mark.parametrize(
    "words, level, message",
    [([], 2, "empty"), ((w for w in ()), 0, "empty"), (["00", "012"], 2, "'012' is longer than level 2"),
     (["1"], 0, "'1' is longer than level 0"),
     (["0", "01"], 2, "'0' and '01' are nested"), (["", "3"], 1, "'' and '3' are nested"),
     (["01", "2", "013"], 3, "'01' and '013' are nested")],
)
def test_build_refuses_a_cell_set_that_is_empty_too_deep_or_nested(words, level, message):
    with pytest.raises(ValueError, match=message):
        build_cells_graph(words, HALF, level)


def test_build_merges_duplicates_and_sibling_cells_and_takes_words_in_any_order():
    want = build_cells_graph(["0", "21", "3"], HALF, 3)
    got = build_cells_graph(["3", "21", "0", "3", "21"], HALF, 3)
    assert got.words == want.words and list(got.vertices) == list(want.vertices) and got.nbrs == want.nbrs
    # a short word stands for all of its level subcells
    assert got.words == tuple(w for w in words_of_length(3) if w[0] in "03" or w[:2] == "21")
    siblings = build_cells_graph(["0", "210", "211", "212", "213", "3"], HALF, 3)
    _assert_same_build(siblings, want)
    _assert_same_build(build_cells_graph(words_of_length(3), Fraction(2, 5), 3), build_level_graph(3, Fraction(2, 5)))


def _neighbours(g):
    """Each id's neighbour ids, read off `g.adj` once: each `adj[i]` builds its list anew."""
    return [[j for j, _ in g.adj[i]] for i in range(len(g.vertices))]


def _separates_three(nbrs, keep, w):
    """Oracle: whether removing vertex id w leaves kept vertices in three components."""
    seen = {w}
    hit = 0
    for start in nbrs[w]:
        found = False
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            found |= i in keep
            for j in nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        hit += found
    return hit >= 3


def _random_kept_sets(g, count, seed):
    """Random kept id sets of 2-8 vertices; every other one closed under branch points."""
    rng = random.Random(seed)
    nbrs = _neighbours(g)
    branchy = [w for w in range(len(g.vertices)) if len(nbrs[w]) >= 3]
    for t in range(count):
        keep = set(rng.sample(range(len(g.vertices)), rng.randint(2, 8)))
        while t % 2:
            extra = [w for w in branchy if w not in keep and _separates_three(nbrs, keep, w)]
            if not extra:
                break
            keep.update(extra)
        yield keep


@pytest.mark.parametrize("s0", [HALF, Fraction(2, 5)])
def test_schur_trace_against_brute_force(s0):
    g = build_level_graph(3, s0)
    nbrs = _neighbours(g)
    refused = kept_trees = 0
    for keep in _random_kept_sets(g, 200, seed=7):
        kept = [g.vertices[i] for i in sorted(keep)]
        star = any(
            _separates_three(nbrs, keep, w)
            for w in range(len(g.vertices))
            if w not in keep and len(nbrs[w]) >= 3
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


def test_label_index_finds_labels_not_in_normal_form():
    for level in (2, 3):
        g = build_level_graph(level, Fraction(2, 5))
        for length in range(level + 1):
            for word in words_of_length(length):
                for c in (1, 2, 3):
                    v = (word, c)
                    assert g.vertex_id(v) == g.index[canonicalize(*v)]
                    assert (v in g.index) == (v == canonicalize(*v))


def _outcome(call):
    """A call's value, or its exception's type and message."""
    try:
        return "value", call()
    except Exception as exc:
        return type(exc), str(exc)


def test_label_index_answers_bad_labels_as_a_dict_does():
    """`in`, `get` and `vertex_id` give a dict's answers, or its exceptions, for labels that are not vertices."""
    for g in (build_level_graph(3), ball_graph(2, 6)):
        as_dict = Network(list(g.vertices), dict(g.index), g.offsets, g.nbrs, g.kind, g.conds, g.unit)
        for v in ("GND", ("2a", 1), ("2", 7), (2, 1), ("0" * (g.level + 1), 1), ["", 1], ("", 1.0), ("2", 1)):
            for ask in (lambda net: v in net.index, lambda net: net.index.get(v), lambda net: net.vertex_id(v)):
                assert _outcome(lambda: ask(g)) == _outcome(lambda: ask(as_dict)), v


def _reference_adjacency(n, edges):
    """Oracle: neighbour lists of ids 0..n-1 filled in sorted (i, j, c) edge order, as networks stored them unpacked."""
    adj = [[] for _ in range(n)]
    for i, j, c in sorted(edges):
        adj[i].append((j, c))
        adj[j].append((i, c))
    return adj


def _assert_packed_as(g, triples):
    """`g` stores exactly the (i, j, c) edges `triples`, i < j: its `adj` and `edges` views equal the reference's."""
    ref = _reference_adjacency(len(g.vertices), triples)
    assert len(g.adj) == len(ref) and [g.adj[i] for i in range(len(ref))] == ref
    assert g.edges == [(i, j, c) for i, pairs in enumerate(ref) for j, c in pairs if i < j]
    assert len(g.offsets) == len(g.vertices) + 1
    assert g.offsets[-1] == len(g.nbrs) == len(g.kind) == 2 * len(g.edges)


def _cell_triples(g):
    """Oracle: the two edges of each cell, from `canonicalize` and the digit product, by the graph's labels."""
    triples = []
    for word in g.words:
        q1, q2, q3 = (g.index[canonicalize(word, j)] for j in (1, 2, 3))
        c = _product_conductance(word, g.s0)
        triples += [(min(q1, q), max(q1, q), c) for q in (q2, q3)]
    return triples


def test_packed_level_graphs_match_the_reference_adjacency():
    rng = random.Random(21)
    graphs = [build_level_graph(level, s0) for level in range(5) for s0 in (HALF, Fraction(1, 3), Fraction(2, 5))]
    for _ in range(12):
        level, s0 = rng.randint(1, 4), rng.choice((HALF, Fraction(1, 3), Fraction(2, 5)))
        words = list(words_of_length(level))
        graphs.append(build_cells_graph(rng.sample(words, rng.randint(1, len(words))), s0, level))
    for g in graphs:
        assert g.conds == tuple(_product_conductance("0" * a + "2" * (g.level - a), g.s0) for a in range(g.level + 1))
        _assert_packed_as(g, _cell_triples(g))


def test_packed_networks_from_edges_match_the_reference_adjacency():
    """Random networks with parallel edges and a few cycles: the summed edges, by first-appearance ids."""
    rng = random.Random(22)
    conductances = [Fraction(3, 7), Fraction(5, 2), Fraction(1, 3), Fraction(2), Fraction(7, 5)]
    for _ in range(30):
        size = rng.randint(2, 40)
        labels = [("w" * k, 1 + k % 3) if k % 2 else f"v{k}" for k in range(size)]
        pairs = [(k, rng.randrange(k)) for k in range(1, size)]
        pairs += rng.sample(pairs, rng.randint(1, len(pairs)))  # parallel edges, summed
        pairs += [tuple(rng.sample(range(size), 2)) for _ in range(rng.randint(0, 3)) if size > 2]
        triples = [(labels[a], labels[b], rng.choice(conductances)) for a, b in pairs]
        rng.shuffle(triples)
        net = Network.from_edges(triples)
        first = list(dict.fromkeys(x for u, v, _ in triples for x in (u, v)))
        assert net.vertices == first
        summed = {}
        for u, v, c in triples:
            key = tuple(sorted((first.index(u), first.index(v))))
            summed[key] = summed.get(key, 0) + c
        _assert_packed_as(net, [(i, j, c) for (i, j), c in summed.items()])
        assert sorted(set(net.conds)) == sorted(set(summed.values())) and len(set(net.conds)) == len(net.conds)


def test_packed_schur_traces_match_the_reference_adjacency():
    """Kept sets closed under branch points: kept a, b are linked iff no other kept vertex lies between them."""
    sources = [build_level_graph(3, HALF), build_level_graph(3, Fraction(2, 5)), build_level_graph(2, Fraction(1, 3))]
    traces = 0
    for seed, g in enumerate(sources):
        for keep in list(_random_kept_sets(g, 12, seed=seed))[1::2]:
            kept = sorted(keep)
            red = schur_trace(g, [g.vertices[i] for i in kept])
            dist = {a: g.distances_from(g.vertices[a]) for a in kept}
            triples = [
                (x, y, 1 / dist[a][b])
                for x, a in enumerate(kept)
                for y, b in enumerate(kept)
                if x < y and not any(dist[a][c] + dist[c][b] == dist[a][b] for c in kept if c not in (a, b))
            ]
            _assert_packed_as(red, triples)
            traces += 1
    assert traces == 18


def test_ball_graph_memory(traced):
    """`ball_graph(5, 10)`, the largest graph of a ball-experiments pass, holds at most 3.125 MB
    (2.5 MB measured, plus a quarter) and adds fewer than 1,000 objects the garbage collector tracks."""
    ball_graph(5, 6)  # the module's caches are made before measuring
    gc.collect()
    objects = len(gc.get_objects())
    g, held, _ = traced(lambda: ball_graph(5, 10))
    assert len(g.vertices) == 33_453
    assert held <= 3.125 * 2**20, held
    assert len(gc.get_objects()) - objects < 1_000


def test_ball_region_memory(traced):
    """`ball(ball_graph(5, 10), q0, 1/32)` holds at most 0.68 MB (0.546 MB measured, plus a
    quarter): its distances and the walk's tree in arrays.  The distances alone held 0.26 MB;
    the tree's order and parents as lists of ints would add about 1.3 MB more."""
    g = ball_graph(5, 10)
    region, held, _ = traced(lambda: ball(g, Q0, Fraction(1, 32)))
    assert region.n_inside == 32_396
    assert held <= 0.68 * 2**20, held


def test_ball_region_tree_is_the_walk():
    """The region's tree: every id once, the ids inside first, each after its parent, which it
    joins by a half-edge of its `parent_kind`; the frontier ids are the ids off the ball whose
    parent is inside, and the crossing edges are the pairs (parent, frontier id)."""
    rng = random.Random(26)
    for g in [ball_graph(2, 6), build_level_graph(3, Fraction(1, 3))]:
        for center in (Q0, g.vertices[rng.randrange(len(g.vertices))]):
            for r in (Fraction(1, 4), Fraction(rng.randint(1, 40), rng.randint(20, 97))):
                region = ball(g, center, r)
                order, parent, kinds, cut = region.order, region.parent, region.parent_kind, region.cut()
                assert sorted(order) == list(range(len(g.vertices)))
                inside = set(order[: region.n_inside])
                assert inside == {i for i, d in enumerate(region.units) if d < cut}
                seen = set()
                for i in order:
                    if i == g.vertex_id(region.center):
                        assert parent[i] == -1
                    else:
                        assert parent[i] in seen
                        hs = range(g.offsets[parent[i]], g.offsets[parent[i] + 1])
                        assert any(g.nbrs[h] == i and g.kind[h] == kinds[i] for h in hs)
                    seen.add(i)
                frontier = [j for j in range(len(g.vertices)) if j not in inside and parent[j] in inside]
                assert list(region.frontier_ids) == frontier
                assert sorted((parent[j], j) for j in frontier) == [(i, j) for i, j, _ in sorted(radius_crossings(g, region.units, r))]


def _reference_pack(n, tails, heads, kind, kinds):
    """Oracle: the half-edge arrays of the per-word build, from one sort of integer edge keys."""
    keys = [(i * n + j) * kinds + k for i, j, k in zip(tails, heads, kind)]
    keys += [(j * n + i) * kinds + k for i, j, k in zip(tails, heads, kind)]
    keys.sort()
    degree = Counter(tails)
    degree.update(heads)
    offsets = array("i", accumulate(map(degree.__getitem__, range(n)), initial=0))
    return offsets, array("i", [key // kinds % n for key in keys]), array("i", [key % kinds for key in keys])


def _reference_sorted_ids(vertices, raw_corners, level):
    """Oracle: the vertices sorted by (word length, word, corner), and the corner ids renumbered."""
    shift = 2 * level + 2
    keys = [len(word) << shift | int(word or "0", 4) << 2 | corner for word, corner in vertices]
    order = sorted(range(len(vertices)), key=keys.__getitem__)
    remap = [0] * len(vertices)
    for new, old in enumerate(order):
        remap[old] = new
    return [vertices[old] for old in order], array("i", map(remap.__getitem__, raw_corners))


def _reference_build(words, s0, level):
    """Oracle: the per-word build that stamping replaced; every word has length `level`.

    Each word writes the normal forms of its three corners, ids come from
    sorting every vertex, and the half-edges from sorting every edge key.
    The labels are a list and a dict, as level graphs stored them.
    """
    s0 = Fraction(s0)
    words = tuple(sorted(set(words)))
    raw_index = {}
    raw_corners = array("i")
    s0_digits = bytearray()
    for w in words:
        assert len(w) == level
        check_word(w)
        s0_digits.append(w.count("0") + w.count("1"))
        t2, t3 = w.rstrip("2"), w.rstrip("3")
        raw_corners.extend((
            raw_index.setdefault((w.rstrip("01"), 1), len(raw_index)),
            raw_index.setdefault((t2[:-1] + "2", 1) if t2.endswith("0") else (t2, 2), len(raw_index)),
            raw_index.setdefault((t3[:-1] + "3", 1) if t3.endswith("1") else (t3, 3), len(raw_index)),
        ))
    vertices, corners = _reference_sorted_ids(list(raw_index), raw_corners, level)
    conds = tuple(word_conductance("0" * a + "2" * (level - a), s0) for a in range(level + 1))
    q1 = corners[0::3]
    offsets, nbrs, kind = _reference_pack(
        len(vertices), q1 + q1, corners[1::3] + corners[2::3], s0_digits + s0_digits, level + 1)
    index = {v: i for i, v in enumerate(vertices)}
    return SimpleNamespace(vertices=vertices, index=index, offsets=offsets, nbrs=nbrs, kind=kind, conds=conds,
                           unit=s0.denominator**level, level=level, s0=s0, words=words, corners=corners,
                           s0_digits=bytes(s0_digits))


_BUILD_FIELDS = ("vertices", "index", "offsets", "nbrs", "kind", "words", "corners", "s0_digits", "conds", "unit", "level", "s0")


def _assert_same_build(got, want):
    # a level graph's `vertices` and `index` are views: compared as the list and dict they stand for
    assert list(got.vertices) == list(want.vertices), "vertices"
    assert dict(got.index) == dict(want.index), "index"
    assert all(got.vertex_id(v) == i for i, v in enumerate(got.vertices)), "vertex_id"
    for field in _BUILD_FIELDS[2:]:
        assert getattr(got, field) == getattr(want, field), field


def _random_cover(rng, level):
    """Seeded disjoint words of mixed lengths <= level: the root split at random, a fifth of the parts dropped."""
    words, todo = [], [""]
    while todo:
        w = todo.pop()
        if len(w) == level or (w and rng.random() < 0.4):
            if rng.random() < 0.8:
                words.append(w)
        else:
            todo += [w + d for d in "0123"]
    return words or ["0" * level]


def test_stamped_builds_match_the_per_word_reference():
    """Every field of the stamped build equals the per-word build's, on full graphs, balls and covers."""
    rng = random.Random(2222)
    expand = network._expand
    for s0 in (HALF, Fraction(1, 3), Fraction(2, 5)):
        for level in range(7):
            _assert_same_build(build_level_graph(level, s0), _reference_build(words_of_length(level), s0, level))
    balls = [(n, n + k) for n in range(1, 6) for k in (4, 5)] + [(1, 8)]
    for n, level in balls:
        want = _reference_build(ball_cell_words(Q0, Fraction(1, 2**n), level), HALF, level)
        _assert_same_build(ball_graph(n, level), want)
    for _ in range(40):
        level = rng.randint(2, 6)
        full = build_level_graph(level)
        center = full.vertices[rng.randrange(len(full.vertices))]
        radius = Fraction(rng.randint(1, 40), rng.randint(2, 97))
        leaves = network._ball_leaves(center, radius, level)
        _assert_same_build(build_cells_graph(leaves, HALF, level), _reference_build(expand(leaves, level), HALF, level))
    for _ in range(100):
        level, s0 = rng.randint(0, 5), rng.choice((HALF, Fraction(1, 3), Fraction(2, 5)))
        cover = _random_cover(rng, level)
        _assert_same_build(build_cells_graph(cover, s0, level), _reference_build(expand(cover, level), s0, level))
    for _ in range(20):
        level = rng.randint(1, 4)
        words = list(words_of_length(level))
        subset = rng.sample(words, rng.randint(1, len(words)))
        _assert_same_build(build_cells_graph(subset, HALF, level), _reference_build(subset, HALF, level))


@pytest.mark.parametrize(
    "build, ceiling_mb",
    [(lambda: ball_graph(5, 10), 6.75), (lambda: ball_graph(1, 8), 9.1), (lambda: build_level_graph(7), 6.875)],
    ids=["ball_graph(5, 10)", "ball_graph(1, 8)", "build_level_graph(7)"],
)
def test_build_peak_memory(traced, build, ceiling_mb):
    """A cold build's tracemalloc peak stays under its measured peak plus a quarter (5.40, 7.28 and
    5.50 MB measured), below the peaks of the build that stored label tuples (7.13, 10.91 and 7.35 MB)."""
    ball_graph(5, 6)  # the module's caches are made before measuring
    network._template.cache_clear()  # but the templates are built inside the measured build
    gc.collect()
    _, _, peak = traced(build)
    assert peak <= ceiling_mb * 2**20, peak


def test_warm_template_builds_match_cold_builds():
    """A build that stamps templates kept from earlier builds, at another s0 and level, equals
    a build with no template kept, field for field, at s0 = 1/2, 1/3 and 2/5."""
    leaves = network._ball_leaves(Q0, Fraction(1, 4), 6)
    others = {HALF: Fraction(2, 5), Fraction(1, 3): HALF, Fraction(2, 5): Fraction(1, 3)}
    for s0, other in others.items():
        for build in (lambda: build_level_graph(5, s0), lambda: build_cells_graph(leaves, s0, 6)):
            network._template.cache_clear()
            cold = build()
            network._template.cache_clear()
            build_level_graph(6, other)  # keeps T_0 .. T_5
            assert network._template.cache_info().currsize == 6
            _assert_same_build(build(), cold)


def test_template_cache_memory(traced):
    """After a build of the full level-7 graph the process keeps T_0 .. T_6, one template per
    depth, and their bytes stay under the measured 0.735 MB plus a quarter (tracemalloc)."""
    ball_graph(5, 6)  # the module's other caches are made before measuring
    network._template.cache_clear()
    gc.collect()

    def build():
        build_level_graph(7)

    _, held, _ = traced(build)
    assert network._template.cache_info().currsize == 7
    assert held <= 0.92 * 2**20, held
