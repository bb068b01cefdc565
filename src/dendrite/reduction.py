"""Exact self-similar network reductions (s0 = 1/2).

The tree structure lets whole grounded subtrees collapse to single
conductances by series/parallel algebra, so discrete solves at any level
L reduce to small ladder networks.  Everything here is an exact Schur
complement of the level-L lattice problem, which makes deep-level checks
(L = 12 and beyond) cheap while staying bit-identical to the full solve.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .addressing import Vertex, canonicalize
from .network import Network

GROUND = "GND"


def _series(a: Fraction, b: Fraction) -> Fraction:
    return a * b / (a + b)


@lru_cache(maxsize=None)
def bottom_grounded_conductance(level: int, s0: Fraction = Fraction(1, 2)) -> Fraction:
    """Effective conductance q1 -> bottom Cantor lattice at the given level.

    This is the discrete energy of the top-to-bottom harmonic function; it
    increases to 1/s0 + 1 (= 3 at s0 = 1/2) as the level grows.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if level == 0:
        return Fraction(2)
    prev = bottom_grounded_conductance(level - 1, s0)
    return 2 * _series(1 / Fraction(s0), prev / (1 - Fraction(s0)))


@lru_cache(maxsize=None)
def upward_grounded_conductance(level: int) -> Fraction:
    """Effective conductance q2 -> ({q1} + hanging Cantor pieces), s0 = 1/2.

    Discrete energy of the upward ladder harmonic function; increases to 3/2.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if level == 0:
        return Fraction(1)
    c = bottom_grounded_conductance(level - 1)
    e = upward_grounded_conductance(level - 1)
    return _series(Fraction(2), c + 2 * e)


def udown_value_q0(level: int) -> Fraction:
    """Discrete value at q0 of the top-to-bottom solve (decreases to 1/4)."""
    if level < 1:
        raise ValueError("need level >= 1 to see q0")
    # q0 links to q1 with conductance 1/s0 = 2 and to the bottom with c/(1 - s0) = 2c
    return 1 / (1 + bottom_grounded_conductance(level - 1))


def uup_values(level: int) -> dict[int, Fraction]:
    """Discrete ladder values a_m(level) at B_m = F_{0^m 2}(q1) (converge to 4^-(m+1)).

    The upward harmonic solve reduces to a ladder: q2, then the spine
    junctions B_m, each with its hanging grounded subtree collapsed to
    its exact conductance, and the grounded limit q1 after the last.
    """
    from .dirichlet import solve_dirichlet

    if level < 1:
        raise ValueError("level must be >= 1")
    q2: Vertex = ("", 2)
    nodes = [canonicalize("0" * m + "2", 1) for m in range(level)]
    edges = []
    prev = q2
    for m, node in enumerate(nodes):
        sigma = Fraction(2 ** (m + 1))
        edges.append((prev, node, sigma))
        edges.append((node, GROUND, sigma * bottom_grounded_conductance(level - m - 1) / 2))
        prev = node
    edges.append((nodes[-1], GROUND, Fraction(2**level)))  # edge to the grounded limit q1
    sol = solve_dirichlet(Network.from_edges(edges), {q2: 1, GROUND: 0})
    return {m: sol[node] for m, node in enumerate(nodes)}


def x_point_word(n: int, m: int, k: int) -> str:
    return "0" + "2" * (n - 1) + "0" * m + "2" + "3" * k


def y_point_word(n: int, k: int) -> str:
    return "2" + "0" * (n - 1) + "2" * k


def ball_skeleton(
    n: int,
    level: int,
    kind: str = "x",
    m0: int = 0,
    k0: int = 0,
) -> tuple[Network, dict]:
    """Exact reduced network of the ball B(q0, 2^-n) at a given level.

    kind "x": keeps the upper-spine junctions x_{m,0} (all m up to the
    apex) and, when k0 >= 1, the turned-branch chain x_{m0,k}; every lower
    branch and every hanging grounded subtree collapses to its exact
    conductance.  kind "y": keeps q0 and the chain y_1..y_k0 inside the
    branch K_{2 0^(n-1)}.  Labels map symbolic names to network nodes.
    """
    if n < 1:
        raise ValueError("ball index n must be >= 1")
    c = bottom_grounded_conductance
    edges: list = []
    q0: Vertex = ("2", 1)
    labels: dict = {"q0": q0, "ground": GROUND}

    if kind == "x":
        if not 0 <= m0 <= level - n - 1:
            raise ValueError("m0 out of range for this level")
        if k0 and level < n + m0 + k0 + 1:
            raise ValueError("level too small for the requested chain")
        branches = Fraction(2 ** (2 * n - 1)) * c(level - n)
        edges.append((q0, GROUND, branches))
        spine = [q0]
        top = level - n - 1
        for m in range(top + 1):
            node = canonicalize(x_point_word(n, m, 0), 1)
            sigma = Fraction(2 ** (n + m + 1))
            edges.append((spine[-1], node, sigma))
            if not (k0 >= 1 and m == m0):
                j = level - n - m - 1
                edges.append((node, GROUND, sigma * c(j) / 2))
            spine.append(node)
        edges.append((spine[-1], GROUND, Fraction(2**level)))  # grounded apex
        labels["spine"] = spine  # [q0, x_{0,0}, x_{1,0}, ...]
        chain = []
        if k0 >= 1:
            prev = spine[m0 + 1]
            for k in range(1, k0 + 1):
                node = canonicalize(x_point_word(n, m0, k), 1)
                sigma = Fraction(2 ** (n + m0 + k + 1))
                edges.append((prev, node, sigma))
                if k < k0:
                    j = level - (n + m0 + k + 1)
                    edges.append((node, GROUND, sigma * c(j) / 2))
                chain.append(node)
                prev = node
            terminal = Fraction(2 ** (n + m0 + k0 + 1)) * c(level - (n + m0 + k0 + 1))
            edges.append((chain[-1], GROUND, terminal))
        labels["chain"] = chain
        labels["source"] = chain[-1] if k0 >= 1 else spine[m0 + 1]
        return Network.from_edges(edges), labels

    if kind != "y":
        raise ValueError("kind must be 'x' or 'y'")
    if k0 < 1:
        raise ValueError("y chains need k0 >= 1")
    if level < n + k0:
        raise ValueError("level too small for the requested chain")
    e = upward_grounded_conductance(level - n)
    others = Fraction(2 ** (n - 1) - 1) * Fraction(2**n) * c(level - n)
    entry_hang = Fraction(2**n) * c(level - n) / 2
    edges.append((q0, GROUND, Fraction(2**n) * e + others + entry_hang))
    chain = [q0]
    for k in range(1, k0 + 1):
        node = canonicalize(y_point_word(n, k), 1)
        edges.append((chain[-1], node, Fraction(2 ** (n + k))))
        if k < k0:
            edges.append((node, GROUND, Fraction(2 ** (n + k)) * c(level - n - k) / 2))
        chain.append(node)
    edges.append((chain[-1], GROUND, Fraction(2 ** (n + k0)) * c(level - n - k0)))
    labels["chain"] = chain[1:]
    labels["source"] = chain[-1]
    return Network.from_edges(edges), labels


def q0_boundary_resistance(n: int, level: int) -> Fraction:
    """Exact discrete R(q0, ball frontier) at the given level (s0 = 1/2).

    Decreases to 1 / (3 (2^(n-1) + 2^(2n-1))) as the level grows.
    """
    if level < n + 1:
        raise ValueError("level too small for this ball")
    lower = Fraction(2 ** (2 * n - 1)) * bottom_grounded_conductance(level - n)
    upper = Fraction(2**n) * upward_grounded_conductance(level - n)
    return 1 / (lower + upper)


def psi_skeleton_values(
    n: int, level: int, kind: str, m0: int = 0, k0: int = 0
) -> tuple[dict, Fraction]:
    """Exact discrete equilibrium potential at the kept skeleton nodes.

    Returns (values by node, resistance to the ball frontier).
    """
    from .dirichlet import _potential

    net, labels = ball_skeleton(n, level, kind, m0=m0, k0=k0)
    sol, r = _potential(net, [GROUND], [labels["source"]], "exact")
    return dict(zip(net.vertices, sol.values)), r
