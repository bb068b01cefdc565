"""Closed-form harmonic functions and explicit potential coefficients.

The basic harmonic extensions (the V0 extension, the top-to-bottom decay
function, the upward ladder and the four-piece extension) are
self-similar: on each cell such a function is fixed by a small cell
state, and the states of a cell's four children follow from its own
through the harmonic extension maps.  That one recursion,
`_state_children`, runs in integers: a depth-d state holds its values in
the unit u K^d, u from the root state (`_int_state`) and K = lcm(2q, 16)
for s0 = p/q.  It is how `eval_closed` evaluates the functions (descend
along the point's word), how `measure` refines them for certified
integrals, and where `measure.extension_matrices` reads the harmonic
extension maps.  The functions and the explicit spine/branch coefficient
tables act as exact oracles against the discrete solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .addressing import Vertex, canonicalize

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class HarmonicSpec:
    """One of the closed-form harmonic functions.

    kind: "uminus" (a2, a1, a3 boundary data on V0), "udown" (1 at q1,
    0 on the bottom Cantor set), "uup" (1 at q2, 0 at q1 and on the
    hanging Cantor pieces; needs s0 = 1/2), "uplus" (a at q2, b at q1,
    c at F_3(q1), 0 on F_3(Cantor)).
    """

    kind: str
    params: tuple[Fraction, ...] = ()
    s0: Fraction = HALF

    def __post_init__(self):
        if self.kind not in ("uminus", "udown", "uup", "uplus"):
            raise ValueError(f"unknown harmonic kind {self.kind!r}")
        if not 0 < self.s0 < 1:
            raise ValueError("s0 must lie strictly between 0 and 1")
        if self.kind == "uup" and self.s0 != HALF:
            raise ValueError("the upward ladder is only available at s0 = 1/2")
        want = {"uminus": 3, "udown": 0, "uup": 0, "uplus": 3}[self.kind]
        if len(self.params) != want:
            raise ValueError(f"{self.kind} takes {want} parameters")


def u_minus(s0: Fraction, a2, a1, a3) -> HarmonicSpec:
    return HarmonicSpec("uminus", (Fraction(a2), Fraction(a1), Fraction(a3)), Fraction(s0))


def u_down(s0: Fraction = HALF) -> HarmonicSpec:
    return HarmonicSpec("udown", (), Fraction(s0))


def u_up(s0: Fraction = HALF) -> HarmonicSpec:
    return HarmonicSpec("uup", (), Fraction(s0))


def u_plus(s0: Fraction, a, b, c) -> HarmonicSpec:
    return HarmonicSpec("uplus", (Fraction(a), Fraction(b), Fraction(c)), Fraction(s0))


def _spec_state(spec: HarmonicSpec):
    """The cell state of the whole space K for a closed-form harmonic.

    A state fixes the function on one cell: ("h", a1, a2, a3) is the
    harmonic extension of a1, a2, a3 at the corners q1, q2, q3; ("plus", a,
    b, c) is the four-piece extension, b at q1, a at q2 and 0 at q3;
    ("down", s) is s times the decay function, s at q1; ("up", s) is s
    times the upward ladder, s at q2.
    """
    if spec.kind == "uminus":
        a2, a1, a3 = spec.params
        return ("h", a1, a2, a3)
    if spec.kind == "udown":
        return ("down", Fraction(1))
    if spec.kind == "uup":
        return ("up", Fraction(1))
    a, b, c = spec.params
    return ("plus", a, b, c)


def _state_unit(state) -> int:
    """The least u with every value of a `Fraction` state a multiple of 1/u."""
    return lcm(*(v.denominator for v in state[1:]))


def _int_state(state):
    """(ints, u): a `Fraction` state's values v as integers v u, u = `_state_unit(state)`."""
    u = _state_unit(state)
    ints = [divmod(v.numerator * u, v.denominator) for v in state[1:]]
    if any(rem for _, rem in ints):
        raise ArithmeticError(f"a value of {state} is not a multiple of 1/{u}")
    return (state[0], *(n for n, _ in ints)), u


def _int_step(s0: Fraction):
    """(K, pK/q, (q-p)K/q, (q-p)K/2q, K/4, K/16) for s0 = p/q, K = lcm(2q, 16): all integers."""
    p, q = s0.numerator, s0.denominator
    K = lcm(2 * q, 16)
    return K, p * K // q, (q - p) * K // q, (q - p) * K // (2 * q), K // 4, K // 16


def _state_children(state, step):
    """The states of the four children F_0(K), ..., F_3(K) of a cell in `state`.

    Values are integers n in a unit u (the value n/u); with `step` = `_int_step(s0)`,
    the children's come back in the unit u K, as integer sums: no division.
    """
    K, c0, c2, lam, k4, k16 = step
    kind = state[0]
    if kind == "h":
        _, a1, a2, a3 = state
        mid = c0 * a2 + c2 * a1  # value at the junction q0 on the arc q2 -> q1
        jval = c2 * a1 + c0 * a3
        a1, a2, a3 = a1 * K, a2 * K, a3 * K
        return (
            ("h", a1, mid, a1),
            ("h", a1, a1, jval),
            ("h", mid, a2, mid),
            ("h", jval, jval, a3),
        )
    if kind == "down":
        s = state[1]
        t = s * lam
        s *= K
        return (("h", s, t, s), ("h", s, s, t), ("down", t), ("down", t))
    if kind == "plus":
        _, a, b, c = state
        mid = c0 * a + c2 * b
        b, c = b * K, c * K
        return (
            ("h", b, mid, b),
            ("h", b, b, c),
            ("h", mid, a * K, mid),
            ("down", c),
        )
    if kind == "up":
        s = state[1]
        t = s * k4
        zero = ("h", 0, 0, 0)
        return (("up", t), zero, ("plus", s * K, t, s * k16), zero)
    raise ValueError(f"unknown cell state {kind!r}")


def eval_closed(spec: HarmonicSpec, v: Vertex) -> Fraction:
    """Exact value of the closed-form harmonic at a lattice point.

    Descends the integer cell states along the word of v's normal form F_w(q_j),
    then reads the last state's value at its corner q_j, in the unit u K^|w|.
    """
    word, corner = canonicalize(*v)
    state, u = _int_state(_spec_state(spec))
    step = _int_step(spec.s0)
    for digit in word:
        state = _state_children(state, step)[int(digit)]
    kind = state[0]
    if kind == "h":
        n = state[corner]
    elif kind == "plus":
        n = (state[2], state[1], 0)[corner - 1]
    else:
        n = state[1] if corner == (1 if kind == "down" else 2) else 0
    return Fraction(n, u * step[0] ** len(word))


def energy_closed(spec: HarmonicSpec) -> Fraction:
    """Exact Dirichlet energy of the closed-form harmonic."""
    s0 = spec.s0
    s2 = 1 - s0
    if spec.kind == "uminus":
        a2, a1, a3 = spec.params
        return (a1 - a2) ** 2 + (a1 - a3) ** 2
    if spec.kind == "udown":
        return 1 / s0 + 1
    if spec.kind == "uup":
        return Fraction(3, 2)
    a, b, c = spec.params
    return (a - b) ** 2 + (b - c) ** 2 / s0 + (1 / s0 + 1) * c * c / s2


@dataclass(frozen=True)
class CoefficientCase:
    """Which explicit potential table is requested.

    kind "xmk": equilibrium potential of the spine point x_{m0,k0} in the
    ball B(q0, 2^-n), giving spine values a_{m,0} (m = -1..m0) and branch
    values a_{m0,k} (k = 0..k0).  kind "yk": potential of the branch point
    y_{k0}, giving b_k (k = 0..k0).
    """

    kind: str
    n: int
    m0: int = 0
    k0: int = 0

    def __post_init__(self):
        if self.kind not in ("xmk", "yk"):
            raise ValueError("case kind must be 'xmk' or 'yk'")
        if self.n < 1:
            raise ValueError("ball index n must be >= 1")
        if self.kind == "xmk" and (self.m0 < 0 or self.k0 < 0):
            raise ValueError("m0 and k0 must be non-negative")
        if self.kind == "yk" and self.k0 < 1:
            raise ValueError("yk needs k0 >= 1")


@dataclass
class PsiCoefficients:
    case: CoefficientCase
    spine: dict[int, Fraction] = field(default_factory=dict)  # a_{m,0} or b_k
    branch: dict[int, Fraction] = field(default_factory=dict)  # a_{m0,k}


def _ladder(alpha: Fraction, beta: Fraction, j: int) -> Fraction:
    # growing/decaying mode mix alpha 2^j + beta 4^-j of the spine recurrence
    # 4 a_{j+1} - 9 a_j + 2 a_{j-1} = 0
    if j >= 0:
        return alpha * 2**j + beta * Fraction(1, 4**j)
    return alpha * Fraction(1, 2**-j) + beta * 4**-j


def psi_coefficients(case: CoefficientCase) -> PsiCoefficients:
    """Exact coefficient tables for the typical-point equilibrium potentials.

    The potential values along the spine and down the turned branch obey
    one three-term recurrence, 4a_{j+1} - 9a_j + 2a_{j-1} = 0, whose mode
    mix is fixed by flux balance at the ball centre q0; values at the
    source normalise to 1.  The x_{m,k} table is the single family
    A_j = 24(1+2^-n) 2^j - (3-4 2^-n) 4^-j evaluated at j = m and
    j = m0+k, divided by A_{m0+k0}; the y_k table uses
    B_j = 3(1+2^-n) 2^j - (3-4 2^-n) 4^-j similarly.
    """
    n = case.n
    en = Fraction(1, 2**n)
    decay = 3 - 4 * en
    out = PsiCoefficients(case)
    if case.kind == "yk":
        k0 = case.k0
        grow = 3 * (1 + en)
        den = _ladder(grow, -decay, k0)
        for k in range(0, k0 + 1):
            out.spine[k] = _ladder(grow, -decay, k) / den
        return out

    m0, k0 = case.m0, case.k0
    grow = 24 * (1 + en)
    den = _ladder(grow, -decay, m0 + k0)
    for m in range(-1, m0 + 1):
        out.spine[m] = _ladder(grow, -decay, m) / den
    for k in range(0, k0 + 1):
        out.branch[k] = _ladder(grow, -decay, m0 + k) / den
    return out
