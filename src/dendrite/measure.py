"""Self-similar measures, exact harmonic quadrature and doubling experiments.

A weight vector (w0, w1, w2, w3) with w0 = w1, w2 = w3 defines the unique
self-similar probability measure multiplying digit weights along words.
Integrals of piecewise-harmonic functions are computed two ways: exactly,
through the self-similar fixed-point identities, and as certified
interval bounds by adaptive cell refinement.  The refinement descends the
cell-state recursion of `closed_forms`, the one that `eval_closed` reads.

Both certified descents run in Python ints, and each converts its
rational input with `divmod`, exactly or with an `ArithmeticError`.  The
refinement's masses and values are integers in a unit that grows with the
deepest cell it has pushed, and its cell states stay integers
(`closed_forms`).  The ball-measure bounds weigh the cell counts of the
ball's cover (`network._BallCover`), whose distances are integers in one
unit; the counts are folded over the cover's distinct cell states, so
their cost grows with the depth, not with the number of cells.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Optional

from .addressing import Vertex, canonicalize, check_word
from .closed_forms import HarmonicSpec, _int_state, _int_step, _spec_state, _state_children
from .metric import Metric
from .network import _CORNER_REACH, BallRegion, _BallCover, _half_metric


@dataclass(frozen=True)
class WeightVector:
    """Symmetric self-similar weights: w1 = w0, w3 = w2, total mass 1."""

    w0: Fraction
    w2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w0", Fraction(self.w0))
        object.__setattr__(self, "w2", Fraction(self.w2))
        if self.w0 <= 0 or self.w2 <= 0:
            raise ValueError("weights must be positive")
        if 2 * self.w0 + 2 * self.w2 != 1:
            raise ValueError("weights must satisfy 2 w0 + 2 w2 = 1")

    @property
    def w1(self) -> Fraction:
        return self.w0

    @property
    def w3(self) -> Fraction:
        return self.w2

    def digit(self, d: str) -> Fraction:
        return self.w0 if d in "01" else self.w2

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w0, self.w0, self.w2, self.w2)

    @classmethod
    def equal(cls) -> "WeightVector":
        return cls(Fraction(1, 4), Fraction(1, 4))

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        try:
            a, b = text.split(",")
            w0, w2 = Fraction(a), Fraction(b)
        except ValueError as exc:
            raise ValueError(f"weights must look like 'w0,w2', got {text!r}") from exc
        return cls(w0, w2)

    def __str__(self) -> str:
        return f"{self.w0},{self.w2}"


def cell_measure(w: WeightVector, word: str) -> Fraction:
    """mu(K_w) = w0^a w2^(L-a), with a the number of digits of w in {0,1}."""
    check_word(word)
    a = word.count("0") + word.count("1")
    return w.w0**a * w.w2 ** (len(word) - a)


@cache
def cell_measure_units(w: WeightVector, level: int) -> tuple[tuple[int, ...], int]:
    """(n, d^level) with mu(K_w) = n[a] / d^level, a the digits of w in {0,1}, d = lcm(den w0, den w2)."""
    d = lcm(w.w0.denominator, w.w2.denominator)
    n0, n2 = (w.w0 * d).numerator, (w.w2 * d).numerator
    return tuple(n0**a * n2 ** (level - a) for a in range(level + 1)), d**level


@dataclass(frozen=True)
class IntegralBounds:
    lower: Fraction
    upper: Fraction
    exact: Optional[Fraction] = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")

    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


def extension_matrices(s0: Fraction):
    """V0 -> V1 harmonic extension maps, read off `_state_children` for unit corner data.

    Row j of A_i gives the value at F_i(q_j) from the values at q1, q2, q3.
    """
    step = _int_step(Fraction(s0))
    columns = [_state_children(("h", *(int(j == k) for j in range(3))), step) for k in range(3)]
    return tuple(
        tuple(tuple(Fraction(columns[k][i][1 + j], step[0]) for k in range(3)) for j in range(3))
        for i in range(4)
    )


def _row_times_matrix(row, matrix):
    return tuple(sum(row[k] * matrix[k][j] for k in range(3)) for j in range(3))


@cache
def harmonic_weights(w: WeightVector, s0: Fraction = Fraction(1, 2)):
    """Probability vector p with integral(h) = sum p_j h(q_j) for global harmonics.

    p is the unique fixed point of the transpose extension dynamics
    p = sum_i w_i A_i^T p; p2 = p3 by reflection symmetry.  Memoised by (w, s0).
    """
    mats = extension_matrices(s0)
    wt = w.as_tuple()
    m = [[sum(wt[i] * mats[i][k][j] for i in range(4)) for k in range(3)] for j in range(3)]
    # solve (M - I) p = 0 with sum p = 1 by Cramer's rule on two rows + normalisation
    rows = [
        [m[0][0] - 1, m[0][1], m[0][2], Fraction(0)],
        [m[1][0], m[1][1] - 1, m[1][2], Fraction(0)],
        [Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
    ]
    det3 = lambda a: (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    base = [r[:3] for r in rows]
    d = det3(base)
    if d == 0:
        raise ArithmeticError("degenerate extension dynamics")
    p = []
    for j in range(3):
        col = [r[:] for r in base]
        for i in range(3):
            col[i][j] = rows[i][3]
        p.append(det3(col) / d)
    return tuple(p)


def subdivision_quadrature_row(w: WeightVector, depth: int):
    """Corner-average subdivision quadrature of global harmonics at a given depth, s0 = 1/2.

    Independent oracle for harmonic_weights: integrates a harmonic h by
    averaging its three corner values over every depth-`depth` cell.
    """
    mats = extension_matrices(Fraction(1, 2))
    wt = w.as_tuple()
    row = (Fraction(1, 3),) * 3
    for _ in range(depth):
        new = [Fraction(0)] * 3
        for i in range(4):
            contrib = _row_times_matrix(row, mats[i])
            for j in range(3):
                new[j] += wt[i] * contrib[j]
        row = tuple(new)
    return row


# ---------------------------------------------------------------------------
# piecewise-harmonic cell states (their recursion lives in closed_forms)


# the certified refinement stops at this relative gap, or after this many cells
REL_GAP = Fraction(1, 10_000)
MAX_CELLS = 60_000


def _state_ranges(states):
    """(least, greatest) value of each cell state: its values, and 0 off "h".

    The refinement asks for every child it makes, so an "h" state's three
    values are compared inline, which costs a fifth of `min` and `max`.
    """
    out = []
    for state in states:
        if state[0] == "h":
            _, lo, hi, v = state
            if lo > hi:
                lo, hi = hi, lo
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
        else:
            vals = (*state[1:], 0)
            lo, hi = min(vals), max(vals)
        out.append((lo, hi))
    return out


class HarmonicIntegrator:
    """Exact and certified integration of the closed-form harmonics."""

    def __init__(self, w: WeightVector, s0: Fraction = Fraction(1, 2)):
        self.w = w
        self.s0 = Fraction(s0)
        self.p = harmonic_weights(w, self.s0)
        s2 = 1 - self.s0
        lam = s2 / 2
        p1, p2, p3 = self.p
        wt = w.as_tuple()
        self._i_down = (
            wt[0] * (p1 + lam * p2 + p3) + wt[1] * (p1 + p2 + lam * p3)
        ) / (1 - (wt[2] + wt[3]) * lam)

    def exact(self, state) -> Fraction:
        kind = state[0]
        p1, p2, p3 = self.p
        w0, w1, w2, w3 = self.w.as_tuple()
        if kind == "h":
            _, a1, a2, a3 = state
            return p1 * a1 + p2 * a2 + p3 * a3
        if kind == "down":
            return state[1] * self._i_down
        if kind == "plus":
            _, a, b, c = state
            s0, s2 = self.s0, 1 - self.s0
            mid = s0 * a + s2 * b
            return (
                w0 * (p1 * b + p2 * mid + p3 * b)
                + w1 * (p1 * b + p2 * b + p3 * c)
                + w2 * (p1 * mid + p2 * a + p3 * mid)
                + w3 * c * self._i_down
            )
        if kind == "up":
            if self.s0 != Fraction(1, 2):
                raise ValueError("the upward ladder needs s0 = 1/2")
            qa = self.exact(("plus", Fraction(1), Fraction(0), Fraction(0)))
            qb = self.exact(("plus", Fraction(0), Fraction(1), Fraction(0)))
            qc = self.exact(("plus", Fraction(0), Fraction(0), Fraction(1)))
            per = qa + qb / 4 + qc / 16
            return state[1] * w2 * per / (1 - w0 / 4)
        raise ValueError(f"unknown cell state {kind!r}")

    def bounds(self, state, max_depth: int = 12) -> IntegralBounds:
        """Adaptive certified bounds: refine the cells with the worst gap first.

        The refinement stops at relative gap `REL_GAP`, after `MAX_CELLS`
        pushed cells, or when the worst cell lies at `max_depth`.

        The loop runs in integers.  `_int_state` converts the root state to
        the unit M, the lcm of its denominators; with s0 = p/q and K =
        lcm(2q, 16), `_state_children` gives a depth-d state in the unit
        M K^d.  With ((n2, n0), D) = `cell_measure_units(w, 1)`, a depth-d
        cell with a digits in {0,1} has mass n0^a n2^(d-a) D^(E-d), and a
        child's mass is its parent's // D times n0 or n2.  Value ranges
        (scaled by K^(E-d)), heap keys -mu (b - a), `lo` and `hi` are integers
        in the unit 1/U, U = M (D K)^E, and the gap test reads 2 den (hi - lo)
        <= num |lo + hi| for `REL_GAP` = num/den.  E, the deepest depth pushed,
        grows by one at a time and multiplies U, `lo`, `hi` and every heap
        entry's mass and range by D, K or D K, which keeps the heap order.
        """
        (n2, n0), D = cell_measure_units(self.w, 1)
        factors = (n0, n0, n2, n2)
        step = _int_step(self.s0)
        K = step[0]
        root, U = _int_state(state)
        gap_num, gap_den = REL_GAP.numerator, REL_GAP.denominator
        lo = hi = 0
        E = 0
        heap = []
        counter = 0
        # the cells to push, their masses, depth and range scale: the root first
        kids, masses, depth, scale = (root,), (1,), 0, 1
        while True:
            for (a, b), kid, mu in zip(_state_ranges(kids), kids, masses):
                a, b = a * scale, b * scale
                lo += mu * a
                hi += mu * b
                if a != b:
                    heapq.heappush(heap, (-mu * (b - a), counter, kid, mu, a, b, depth))
                    counter += 1
            if not heap or counter >= MAX_CELLS:
                break
            total, gap = lo + hi, hi - lo
            if 2 * gap_den * gap <= gap_num * abs(total) or (
                total == 0 and gap_den * gap <= gap_num * U
            ):
                break
            _, _, st, mu, a, b, depth = heapq.heappop(heap)
            if depth >= max_depth:
                break
            if depth == E:
                E += 1
                dk = D * K
                U, lo, hi = U * dk, lo * dk, hi * dk
                mu, a, b = mu * D, a * K, b * K
                heap = [
                    (key * dk, c, s, m * D, x * K, y * K, d)
                    for key, c, s, m, x, y, d in heap
                ]
            lo -= mu * a
            hi -= mu * b
            mu //= D
            kids, masses = _state_children(st, step), [mu * f for f in factors]
            depth, scale = depth + 1, K ** (E - depth - 1)
        return IntegralBounds(Fraction(lo, U), Fraction(hi, U), exact=self.exact(state))


def integrate_closed(spec: HarmonicSpec, w: WeightVector) -> Fraction:
    """Exact integral of a closed-form harmonic against the self-similar measure."""
    return HarmonicIntegrator(w, spec.s0).exact(_spec_state(spec))


def integrate_pw_harmonic(
    spec: HarmonicSpec, w: WeightVector, max_depth: int = 12
) -> IntegralBounds:
    """Certified interval for the integral, refined cell-by-cell."""
    return HarmonicIntegrator(w, spec.s0).bounds(_spec_state(spec), max_depth=max_depth)


# ---------------------------------------------------------------------------
# measures of metric balls


def classify_region_cells(region: BallRegion, radius: Optional[Fraction] = None):
    """Split the region's level cells into inside / straddling the open ball.

    The ball has the region's center and radius, or `radius` if given.
    Returns two ascending lists of cell indices into the graph's words.
    """
    graph = region.graph
    if graph.s0 != Fraction(1, 2):
        raise ValueError("cell classification assumes s0 = 1/2")
    # a cell lies inside when some corner's distance plus its reach is below
    # the radius; at s0 = 1/2 a level cell's metric scale is one distance unit
    cut = region.cut(radius)
    c1, c2, c3 = (cut - reach for reach in _CORNER_REACH)
    units = region.units
    inside, straddle = [], []
    it = iter(graph.corners)
    for k, (q1, q2, q3) in enumerate(zip(it, it, it)):
        d1, d2, d3 = units[q1], units[q2], units[q3]
        if d1 < c1 or d2 < c2 or d3 < c3:
            inside.append(k)
        elif d1 < cut or d2 < cut or d3 < cut:
            straddle.append(k)
    return inside, straddle


def ball_measure(w: WeightVector, region: BallRegion) -> IntegralBounds:
    """Certified measure bounds of the region's open ball, by `measure_ball_bounds` down to its level."""
    if region.graph.s0 != Fraction(1, 2):
        raise ValueError("cell classification assumes s0 = 1/2")
    return measure_ball_bounds(region.center, region.radius, w, max_depth=region.graph.level)


def _shifted_sum(parts) -> dict:
    """Sum of (depth, a, inside) -> count tables, each part's a shifted by its da."""
    out: dict = {}
    for da, counts in parts:
        for (depth, a, inside), n in counts.items():
            key = depth, a + da, inside
            out[key] = out.get(key, 0) + n
    return out


def _ball_cover_counts(center: Vertex, radius: Fraction, max_depth: int, metric: Metric) -> dict:
    """(depth, a, inside) -> number of cells of `network._BallCover`, a the digits in {0,1}.

    Folded over the cover's distinct cell states: a leaf counts itself,
    and a cell that splits sums its children's tables, a shifted by the
    child's digit.
    """
    cells = _BallCover(center, radius, max_depth, metric).fold(
        lambda depth, inside: {(depth, 0, inside): 1},
        lambda kids: _shifted_sum((da, counts) for _, da, counts in kids),
    )
    return _shifted_sum((a, counts) for _, a, counts in cells)


def measure_ball_bounds(
    center: Vertex,
    radius: Fraction,
    w: WeightVector,
    max_depth: int = 12,
    metric: Optional[Metric] = None,
) -> IntegralBounds:
    """Certified mu-bounds of the open ball B(center, radius), any lattice center.

    Weighs the cell counts of the ball's cover down to `max_depth`
    (`_ball_cover_counts`, folded over the cover's distinct cell states,
    so the cost grows with the depth, not with the number of cells): the
    inside cells give the lower bound, and the straddling cells at
    `max_depth` count for the upper bound only.  With ((n2, n0), D) =
    `cell_measure_units(w, 1)`, a cell at depth k with a digits in {0,1}
    weighs n0^a n2^(k-a) D^(top-k) in the unit 1/D^top, top the depth.
    The metric defaults to the shared s0 = 1/2 one.
    """
    radius = Fraction(radius)
    metric = metric or _half_metric()
    center = canonicalize(*center)
    if radius >= 2:
        return IntegralBounds(Fraction(1), Fraction(1))
    top = max(max_depth, 0)
    (n2, n0), D = cell_measure_units(w, 1)
    sums = {True: 0, False: 0}
    for (depth, a, inside), n in _ball_cover_counts(center, radius, top, metric).items():
        sums[inside] += n * n0**a * n2 ** (depth - a) * D ** (top - depth)
    lo = Fraction(sums[True], D**top)
    return IntegralBounds(lo, min(Fraction(sums[True] + sums[False], D**top), Fraction(1)))


def doubling_ratio(
    w: WeightVector,
    x: Vertex,
    r: Fraction,
    max_depth: int = 12,
    metric: Optional[Metric] = None,
) -> tuple[IntegralBounds, IntegralBounds, IntegralBounds]:
    """Bounds for mu(B(x,2r)) / mu(B(x,r)): returns (ratio, big-ball, small-ball)."""
    metric = metric or _half_metric()
    big = measure_ball_bounds(x, 2 * Fraction(r), w, max_depth=max_depth, metric=metric)
    small = measure_ball_bounds(x, Fraction(r), w, max_depth=max_depth, metric=metric)
    if small.lower == 0:
        raise ArithmeticError("small-ball lower bound vanished; raise max_depth")
    ratio = IntegralBounds(big.lower / small.upper, big.upper / small.lower)
    return ratio, big, small
