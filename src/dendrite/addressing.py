"""Symbolic cell addressing on the tree-like self-affine fractal.

Cells are indexed by finite words over {0,1,2,3}; lattice points are
corner images F_w(q_j) with j in {1,2,3}.  Point identity is decided
purely symbolically via a first-address normal form; planar coordinates
exist only as a floating-point cross-check and for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Optional

ALPHABET = "0123"
CORNERS = (1, 2, 3)

# A vertex in normal form: (word, corner).  The empty word serialises as "-".
Vertex = tuple[str, int]

_SQRT3 = math.sqrt(3.0)

# Fixed points of the four maps: q1 of F0 and F1, q2 of F2, q3 of F3.
CORNER_COORDS = {
    1: (0.0, 0.0),
    2: (-1.0, -_SQRT3 / 2.0),
    3: (1.0, -_SQRT3 / 2.0),
}

Q1: Vertex = ("", 1)
Q2: Vertex = ("", 2)
Q3: Vertex = ("", 3)
# q0 = F_0(q2) = F_2(q1), the junction where the lower branches meet.
Q0: Vertex = ("2", 1)


def check_word(word: str) -> str:
    if not _all_in(word, ALPHABET):
        raise ValueError(f"invalid word {word!r}: digits must be in 0123")
    return word


def apply_map(word: str, point: tuple[float, float]) -> tuple[float, float]:
    """Apply the composed contraction F_w to a planar point (floats)."""
    check_word(word)
    x, y = point
    for digit in reversed(word):
        if digit == "0":
            x, y = 2.0 * x / 9.0 + 8.0 * y / (9.0 * _SQRT3), 2.0 * y / 3.0
        elif digit == "1":
            x, y = 2.0 * x / 9.0 - 8.0 * y / (9.0 * _SQRT3), 2.0 * y / 3.0
        elif digit == "2":
            x, y = x / 3.0 - 2.0 / 3.0, y / 3.0 - 1.0 / _SQRT3
        else:
            x, y = x / 3.0 + 2.0 / 3.0, y / 3.0 - 1.0 / _SQRT3
    return x, y


def coords(v: Vertex) -> tuple[float, float]:
    """Planar coordinates of the lattice point F_w(q_j) (floats)."""
    word, corner = v
    return apply_map(word, CORNER_COORDS[corner])


def canonicalize(word: str, corner: int) -> Vertex:
    """Normal form of a raw lattice point F_w(q_j).

    Trailing digits fixing the corner are stripped (F0/F1 fix q1, F2 fixes
    q2, F3 fixes q3); the single-point contact identities
    F_{k0}(q2) = F_{k2}(q1) and F_{k1}(q3) = F_{k3}(q1) then rewrite q2/q3
    representations into the preferred q1 form.  The result is the unique
    shortest representative, with corner 1 whenever the point admits a
    F_w(q1) expression.
    """
    check_word(word)
    if corner not in CORNERS:
        raise ValueError(f"corner must be 1, 2 or 3, got {corner}")
    while True:
        if corner == 1:
            word = word.rstrip("01")
            return (word, 1)
        if corner == 2:
            word = word.rstrip("2")
            if word.endswith("0"):
                word, corner = word[:-1] + "2", 1
                continue
            return (word, 2)
        word = word.rstrip("3")
        if word.endswith("1"):
            word, corner = word[:-1] + "3", 1
            continue
        return (word, 3)


def vertex_str(v: Vertex) -> str:
    word, corner = v
    return f"{word or '-'}:{corner}"


def parse_vertex(text: str) -> Vertex:
    """Parse "word:corner" syntax; "-" denotes the empty word."""
    try:
        word, corner_text = text.rsplit(":", 1)
        corner = int(corner_text)
    except ValueError as exc:
        raise ValueError(f"vertex must look like 'word:corner', got {text!r}") from exc
    if word == "-":
        word = ""
    check_word(word)
    if corner not in CORNERS:
        raise ValueError(f"corner must be 1, 2 or 3 in {text!r}")
    return canonicalize(word, corner)


# the tail digits of an address F_w(q_j), by corner j
_TAILS = {1: "01", 2: "2", 3: "3"}


def _junction_address(word: str, corner: int) -> Optional[tuple[str, str]]:
    # the extra address of a junction point in normal form: k2 q1 = k0 q2, k3 q1 = k1 q3
    if corner == 1 and word.endswith("2"):
        return (word[:-1] + "0", "2")
    if corner == 1 and word.endswith("3"):
        return (word[:-1] + "1", "3")
    return None


def addresses(v: Vertex) -> list[tuple[str, str]]:
    """The addresses of a lattice point, as (word, tails) pairs.

    A pair names the infinite words word t1 t2 ... with every t_i in
    tails: F_w(q1) is w{0,1}^inf, F_w(q2) is w2^inf and F_w(q3) is w3^inf.
    Junction points carry one extra address: k2 q1 = k0 q2, k3 q1 = k1 q3.
    """
    word, corner = canonicalize(*v)
    junction = _junction_address(word, corner)
    return [(word, _TAILS[corner])] + ([junction] if junction else [])


def _some_address(v: Vertex, test, cell: str) -> bool:
    # whether test(word, tails, cell) holds for an address of v; the
    # junction address is built only when the plain one fails
    word, corner = canonicalize(*v)
    if test(word, _TAILS[corner], cell):
        return True
    junction = _junction_address(word, corner)
    return junction is not None and test(*junction, cell)


def in_cell(v: Vertex, cell: str) -> bool:
    """Whether the lattice point lies in the closed cell K_cell."""
    return _some_address(v, _prefix_matches, cell)


def on_cantor_piece(v: Vertex, prefix: str) -> bool:
    """Whether a lattice point lies on F_prefix(Cantor set) = prefix{2,3}^inf.

    Some address must enter K_prefix and use only the digits 2 and 3
    after the prefix; the junction addresses are how the left endpoints
    of branch pieces show up.
    """
    return _some_address(v, _on_piece, prefix)


def _on_piece(word: str, tails: str, prefix: str) -> bool:
    return (
        _all_in(tails, "23") and _prefix_matches(word, tails, prefix)
        and _all_in(word[len(prefix):], "23")
    )


def _prefix_matches(word: str, tails: str, cell: str) -> bool:
    if len(cell) <= len(word):
        return word.startswith(cell)
    return cell.startswith(word) and _all_in(cell[len(word):], tails)


@dataclass(frozen=True)
class Intersection:
    """Outcome of intersecting two closed cells: disjoint, nested or a point."""

    kind: str  # "disjoint" | "nested" | "point"
    ancestor: Optional[str] = None
    point: Optional[Vertex] = None


def cell_intersection(a: str, b: str) -> Intersection:
    """Classify the intersection of the closed cells K_a and K_b.

    One word prefixing the other means containment; otherwise the cells
    meet in at most one point, through one of the three contact patterns
    (2|0 at F_{k2}(q1), 0|1 at F_k(q1), 1|3 at F_{k3}(q1)).
    """
    check_word(a)
    check_word(b)
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    if k == len(a):
        return Intersection("nested", ancestor=a)
    if k == len(b):
        return Intersection("nested", ancestor=b)
    prefix, ra, rb = a[:k], a[k:], b[k:]
    pair = {ra[0], rb[0]}
    if pair == {"2", "0"}:
        two, zero = (ra, rb) if ra[0] == "2" else (rb, ra)
        if _all_in(two[1:], "01") and _all_in(zero[1:], "2"):
            return Intersection("point", point=canonicalize(prefix + "2", 1))
    elif pair == {"0", "1"}:
        if _all_in(ra, "01") and _all_in(rb, "01"):
            return Intersection("point", point=canonicalize(prefix, 1))
    elif pair == {"1", "3"}:
        one, three = (ra, rb) if ra[0] == "1" else (rb, ra)
        if _all_in(one[1:], "3") and _all_in(three[1:], "01"):
            return Intersection("point", point=canonicalize(prefix + "3", 1))
    return Intersection("disjoint")


def _all_in(text: str, allowed: str) -> bool:
    return not text.strip(allowed)


def words_of_length(length: int) -> Iterable[str]:
    yield from map("".join, product(ALPHABET, repeat=length))


def raw_points(max_len: int) -> Iterable[tuple[str, int]]:
    """All raw (word, corner) pairs with |word| <= max_len."""
    for length in range(max_len + 1):
        for w in words_of_length(length):
            for c in CORNERS:
                yield w, c


def meeting_cell_pairs(depth: int):
    """Yield, for d = 1..depth, the pairs (a, b, point) of depth-d cells that meet.

    a < b, and `point` is the one point K_a and K_b share.  K_wi lies in
    K_w, so two depth-d cells can meet only if their parents are equal or
    meet: each depth tests, with `cell_intersection`, the sibling pairs and
    the child pairs of the previous depth's meeting pairs.
    """
    meeting = []
    for d in range(1, depth + 1):
        candidates = [
            (w + i, w + j)
            for w in words_of_length(d - 1)
            for i, j in combinations("0123", 2)
        ]
        candidates += [(a + i, b + j) for a, b, _ in meeting for i in "0123" for j in "0123"]
        meeting = []
        for a, b in candidates:
            hit = cell_intersection(a, b)
            if hit.kind == "point":
                meeting.append((a, b, hit.point))
        yield meeting
