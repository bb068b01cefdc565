import hashlib
import math
import random
from itertools import combinations

import pytest

from dendrite.addressing import (
    CORNER_COORDS,
    apply_map,
    canonicalize,
    cell_intersection,
    coords,
    addresses,
    in_cell,
    meeting_cell_pairs,
    on_cantor_piece,
    parse_vertex,
    raw_points,
    vertex_str,
    words_of_length,
)

SQRT3 = math.sqrt(3.0)


def close(a, b, tol=1e-12):
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) < tol


def test_apply_map_empty_word_is_identity():
    assert apply_map("", (0.3, -0.7)) == (0.3, -0.7)


def test_apply_map_f2_at_origin():
    assert close(apply_map("2", (0.0, 0.0)), (-2.0 / 3.0, -1.0 / SQRT3))


def test_corner_fixed_points():
    for digit, corner in (("0", 1), ("1", 1), ("2", 2), ("3", 3)):
        assert close(apply_map(digit, CORNER_COORDS[corner]), CORNER_COORDS[corner])


def test_contact_identities_in_coordinates():
    # F0(q2) = F2(q1) and F1(q3) = F3(q1): the two single-point contacts
    assert close(apply_map("0", CORNER_COORDS[2]), apply_map("2", CORNER_COORDS[1]))
    assert close(apply_map("1", CORNER_COORDS[3]), apply_map("3", CORNER_COORDS[1]))


def test_canonical_examples():
    assert canonicalize("00", 1) == ("", 1)
    assert canonicalize("0", 2) == ("2", 1)
    assert canonicalize("1", 3) == canonicalize("3", 1) == ("3", 1)
    assert canonicalize("22", 2) == ("", 2)
    assert canonicalize("333", 3) == ("", 3)
    assert canonicalize("020", 1) == ("02", 1)


def test_canonicalize_idempotent_exhaustive():
    for w, c in raw_points(5):
        v = canonicalize(w, c)
        assert canonicalize(*v) == v


def test_canonical_identity_matches_geometry():
    groups = {}
    for w, c in raw_points(5):
        groups.setdefault(canonicalize(w, c), []).append((w, c))
    pts = []
    for v, raws in groups.items():
        base = coords(v)
        for w, c in raws:
            assert close(apply_map(w, CORNER_COORDS[c]), base), (w, c, v)
        pts.append((base, v))
    pts.sort()
    for (a, va), (b, vb) in zip(pts, pts[1:]):
        if abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9:
            assert va == vb


def test_canonicalize_long_random_words():
    # the exhaustive tests above stop at length 5; here words reach length 30,
    # half of them ending in a run that canonicalisation rewrites
    rng = random.Random(11)
    runs = ["01", "2", "3", "02", "13"]
    for _ in range(2000):
        length = rng.randint(0, 30)
        cut = rng.randint(0, length) if rng.random() < 0.5 else length
        word = "".join(rng.choice("0123") for _ in range(cut))
        tail = rng.choice(runs)
        word += "".join(rng.choice(tail) for _ in range(length - cut))
        c = rng.choice((1, 2, 3))
        v = canonicalize(word, c)
        assert canonicalize(*v) == v
        assert close(coords(v), apply_map(word, CORNER_COORDS[c])), (word, c, v)


def test_intersection_examples():
    assert cell_intersection("0", "01").kind == "nested"
    assert cell_intersection("0", "01").ancestor == "0"
    hit = cell_intersection("0", "1")
    assert hit.kind == "point" and hit.point == ("", 1)
    assert cell_intersection("2", "3").kind == "disjoint"
    hit = cell_intersection("20", "02")
    assert hit.kind == "point" and hit.point == ("2", 1)


def test_disjoint_cells_are_euclidean_separated():
    # independent geometric oracle for the "2","3" disjoint verdict
    best = min(
        abs(coords(("2" + a, j))[0] - coords(("3" + b, k))[0])
        + abs(coords(("2" + a, j))[1] - coords(("3" + b, k))[1])
        for a in words_of_length(2)
        for b in words_of_length(2)
        for j in (1, 2, 3)
        for k in (1, 2, 3)
    )
    assert best > 0.05


def test_intersection_swap_symmetry():
    words = [w for n in range(4) for w in words_of_length(n)]
    for a in words:
        for b in words:
            ab, ba = cell_intersection(a, b), cell_intersection(b, a)
            assert (ab.kind, ab.ancestor, ab.point) == (ba.kind, ba.ancestor, ba.point)


def test_vertex_serialisation_round_trip():
    for text in ("-:1", "-:2", "02:1", "2313:3"):
        assert vertex_str(parse_vertex(text)) == vertex_str(canonicalize(*parse_vertex(text)))
    assert parse_vertex("-:1") == ("", 1)
    assert vertex_str(("", 2)) == "-:2"
    with pytest.raises(ValueError):
        parse_vertex("04:5")
    with pytest.raises(ValueError):
        parse_vertex("nonsense")


def test_in_cell_membership():
    q0 = ("2", 1)
    assert in_cell(q0, "2") and in_cell(q0, "0")  # junction lives in both cells
    assert not in_cell(q0, "1") and not in_cell(q0, "3")
    assert in_cell(("", 1), "0101")
    assert not in_cell(("", 2), "0")


def test_addresses_list_the_junction_address():
    assert addresses(("2", 1)) == [("2", "01"), ("0", "2")]  # q0 = F_2(q1) = F_0(q2)
    assert addresses(("13", 1)) == [("13", "01"), ("11", "3")]
    assert addresses(("0", 2)) == [("2", "01"), ("0", "2")]  # given in raw form
    assert addresses(("", 1)) == [("", "01")]
    assert addresses(("02", 3)) == [("02", "3")]


def test_meeting_cell_pairs_match_brute_force():
    for d, pairs in enumerate(meeting_cell_pairs(3), 1):
        words = list(words_of_length(d))
        brute = set()
        for a, b in combinations(words, 2):
            hit = cell_intersection(a, b)
            if hit.kind != "disjoint":
                brute.add((min(a, b), max(a, b), hit.point))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == brute


# sha256 of the in_cell and on_cantor_piece truth tables over the normal
# forms of the raw points with |word| <= 4 against the words of length <= 4,
# recorded before the two predicates were made to read one address list
ADDRESS_TABLES_SHA256 = "ca8bee1eab680111f5cfd3cff90d07cc98ebf23f52fed79ade995c363c53912e"


def test_address_truth_tables_match_recorded_digest():
    points = sorted({canonicalize(w, c) for w, c in raw_points(4)})
    words = [w for n in range(5) for w in words_of_length(n)]
    digest = hashlib.sha256()
    for v in points:
        digest.update(bytes(in_cell(v, w) for w in words))
        digest.update(bytes(on_cantor_piece(v, w) for w in words))
    assert (len(points), len(words)) == (513, 341)
    assert digest.hexdigest() == ADDRESS_TABLES_SHA256
