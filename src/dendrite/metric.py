"""Exact resistance-metric distances between lattice points.

The resistance metric is geodesic on the fractal tree; distances between
lattice points are computed symbolically by descending the cell
hierarchy, so every value is an exact rational (for rational s0).
"""

from __future__ import annotations

from fractions import Fraction

from .addressing import Vertex, canonicalize

# Left-to-right order of the four level-1 cells along the tree:
# K2 - (q0) - K0 - (q1) - K1 - (J13) - K3.
_CELL_ORDER = "2013"
_JUNCTIONS = {("2", "0"): ("2", 1), ("0", "1"): ("", 1), ("1", "3"): ("3", 1)}


class Metric:
    """Tree (= effective-resistance) distance for a fixed contraction ratio s0."""

    def __init__(self, s0: Fraction = Fraction(1, 2)):
        s0 = Fraction(s0)
        if not 0 < s0 < 1:
            raise ValueError("s0 must lie strictly between 0 and 1")
        self.s0 = s0
        self.scale = {"0": s0, "1": s0, "2": 1 - s0, "3": 1 - s0}
        self._cache: dict[tuple[Vertex, Vertex], Fraction] = {}
        # distances within V0; diam = d(q2,q3) = 2 for every s0
        self._base = {
            frozenset({("", 1), ("", 2)}): Fraction(1),
            frozenset({("", 1), ("", 3)}): Fraction(1),
            frozenset({("", 2), ("", 3)}): Fraction(2),
        }

    def dist(self, u: Vertex, v: Vertex) -> Fraction:
        u = canonicalize(*u)
        v = canonicalize(*v)
        if u == v:
            return Fraction(0)
        key = (u, v) if u <= v else (v, u)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        base = self._base.get(frozenset(key))
        if base is not None:
            self._cache[key] = base
            return base
        d = self._dist(u, v)
        self._cache[key] = d
        return d

    def _dist(self, u: Vertex, v: Vertex) -> Fraction:
        ru = _owners(u)
        rv = _owners(v)
        common = set(ru) & set(rv)
        if common:
            cell = min(common)
            return self.scale[cell] * self.dist(ru[cell], rv[cell])
        # distinct level-1 cells: walk the junction chain between them
        best = None
        for cu in ru:
            for cv in rv:
                iu, iv = _CELL_ORDER.index(cu), _CELL_ORDER.index(cv)
                lo, hi = min(iu, iv), max(iu, iv)
                stops = [_junction(_CELL_ORDER[i], _CELL_ORDER[i + 1]) for i in range(lo, hi)]
                if iu > iv:
                    stops.reverse()
                total = self.dist(u, stops[0])
                for a, b in zip(stops, stops[1:]):
                    total += self.dist(a, b)
                total += self.dist(stops[-1], v)
                if best is None or total < best:
                    best = total
        assert best is not None
        return best


def _owners(v: Vertex) -> dict[str, Vertex]:
    """Level-1 cells containing v, with v's local normal form in each."""
    word, corner = v
    if word == "":
        if corner == 1:
            return {"0": ("", 1), "1": ("", 1)}
        return {str(corner): ("", corner)}
    out = {word[0]: canonicalize(word[1:], corner)}
    if corner == 1:
        if word == "2":
            out["0"] = ("", 2)
        elif word == "3":
            out["1"] = ("", 3)
    return out


def _junction(a: str, b: str) -> Vertex:
    key = (a, b) if (a, b) in _JUNCTIONS else (b, a)
    return _JUNCTIONS[key]
