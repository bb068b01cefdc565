"""Named invariant checks behind the `verify` command and the acceptance suite.

Each check returns (ok, detail).  Suites group them by module; `all` runs
everything.  Checks re-derive expected values from independent routes
(brute-force enumeration, geometry, direct solves) rather than trusting
the code paths they validate.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from fractions import Fraction

from . import addressing, closed_forms, dirichlet, exit_time, harnack, measure, reduction
from .addressing import Q0, Q1, Q2, Q3, canonicalize, cell_intersection, coords, raw_points, vertex_str
from .closed_forms import CoefficientCase, psi_coefficients, u_down, u_minus, u_plus, u_up
from .dirichlet import (
    dirichlet_energy,
    effective_resistance,
    equilibrium_potential,
    green_g1,
    solve_dirichlet,
)
from .exit_time import boundary_resistance, exit_ratio_experiment, fit_log2_slope, q0_ball
from .harnack import BoundaryProfile, boundary_harmonic, ehi_slope, weh_threshold_scan
from .measure import (
    WeightVector,
    cell_measure,
    doubling_ratio,
    harmonic_weights,
    integrate_closed,
    integrate_pw_harmonic,
    subdivision_quadrature_row,
)
from .metric import Metric
from .network import ball, ball_graph, build_level_graph, resistance_distance, schur_trace
from .reduction import psi_skeleton_values, q0_boundary_resistance

HALF = Fraction(1, 2)


def check_canonical_idempotent():
    max_len = 6
    for w, c in raw_points(max_len):
        v = canonicalize(w, c)
        if canonicalize(*v) != v:
            return False, f"canonicalisation not idempotent at ({w!r},{c})"
    return True, f"idempotent on all raw pairs up to length {max_len}"


def check_geometric_soundness():
    """Canonical equality must coincide with planar-coordinate equality."""
    tol = 1e-9
    groups: dict = {}
    for w, c in raw_points(6):
        groups.setdefault(canonicalize(w, c), []).append((w, c))
    pts = []
    for v, raws in groups.items():
        base = coords(v)
        for raw in raws:
            x, y = addressing.apply_map(raw[0], addressing.CORNER_COORDS[raw[1]])
            if abs(x - base[0]) + abs(y - base[1]) > 1e-12:
                return False, f"coords of {raw} disagree with canonical {vertex_str(v)}"
        pts.append((base[0], base[1], v))
    pts.sort()
    for a, b in zip(pts, pts[1:]):
        if abs(a[0] - b[0]) < tol and abs(a[1] - b[1]) < tol and a[2] != b[2]:
            return False, f"distinct canonicals {a[2]} / {b[2]} share coordinates"
    return True, f"{len(groups)} canonical points, identity matches geometry"


def check_intersection_symmetry():
    max_len = 4
    words = [w for n in range(max_len + 1) for w in addressing.words_of_length(n)]
    for a in words:
        for b in words:
            ab = cell_intersection(a, b)
            ba = cell_intersection(b, a)
            if ab.kind != ba.kind or ab.point != ba.point or ab.ancestor != ba.ancestor:
                return False, f"asymmetric intersection for ({a!r},{b!r})"
    return True, f"symmetric on all pairs up to length {max_len}"


def check_adjacency_degree():
    """Equal-depth cells touch a cell only at its three corners.

    Several cells may share one contact point (every {0,1}-word cell
    contains q1), so the bound is on distinct contact points: at most one
    per corner, hence at most three per cell.
    """
    depth = 5
    for d, pairs in enumerate(addressing.meeting_cell_pairs(depth), 1):
        points: dict[str, set] = {}
        for a, b, point in pairs:
            for w in (a, b):
                if point not in {canonicalize(w, j) for j in (1, 2, 3)}:
                    return False, f"cell {w!r} touched away from its corners at depth {d}"
                points.setdefault(w, set()).add(point)
        for w, contact in points.items():
            if len(contact) > 3:
                return False, f"cell {w!r} has {len(contact)} contact points"
    return True, f"contacts only at cell corners, exhaustive to depth {depth}"


def check_tree_property():
    max_level = 7
    for level in range(max_level + 1):
        g = build_level_graph(level)
        if len(g.vertices) != 2 * 4**level + 1:
            return False, f"level {level}: {len(g.vertices)} vertices"
        if len(g.edges) != len(g.vertices) - 1:
            return False, f"level {level}: Euler relation fails"
        g.distances_from(Q1)  # raises if disconnected
    return True, f"connected trees with 2*4^L+1 vertices up to level {max_level}"


def check_renormalization():
    max_level, s0_values = 5, (HALF, Fraction(1, 3), Fraction(2, 5))
    for s0 in s0_values:
        for level in range(max_level + 1):
            fine = build_level_graph(level + 1, s0)
            coarse = build_level_graph(level, s0)
            red = schur_trace(fine, coarse.vertices)
            got = {(a, b): c for a, b, c in red.edge_list()}
            want = {
                (coarse.vertices[i], coarse.vertices[j]): c for i, j, c in coarse.edges
            }
            if got != want:
                return False, f"trace mismatch at level {level}, s0={s0}"
    return True, f"exact edge-for-edge traces, levels 0..{max_level}, s0 in {tuple(map(str, s0_values))}"


def check_metric_axioms():
    samples = 60
    g = build_level_graph(4)
    rng = random.Random(5)
    verts = g.vertices
    metric = Metric(HALF)
    for _ in range(samples):
        u, v, w = (rng.choice(verts) for _ in range(3))
        duv, dvu = resistance_distance(g, u, v), resistance_distance(g, v, u)
        if duv != dvu or (duv == 0) != (u == v):
            return False, f"symmetry/identity fails at {u},{v}"
        duw, dvw = resistance_distance(g, u, w), resistance_distance(g, v, w)
        if duv > duw + dvw:
            return False, "triangle inequality fails"
        if metric.dist(u, v) != duv:
            return False, f"symbolic metric disagrees with graph path at {u},{v}"
    return True, f"metric axioms and symbolic agreement on {samples} sampled triples"


def check_resistance_values():
    for level in range(0, 7):
        g = build_level_graph(level)
        if effective_resistance(g, [Q2], [Q1]) != 1:
            return False, f"R(q2,q1) != 1 at level {level}"
        if effective_resistance(g, [Q3], [Q1]) != 1:
            return False, f"R(q3,q1) != 1 at level {level}"
    g = build_level_graph(3)
    if resistance_distance(g, Q2, Q3) != 2:
        return False, "diameter is not 2"
    if resistance_distance(g, Q0, Q1) != HALF:
        return False, "R(q0,q1) != 1/2"
    if effective_resistance(g, [Q2, Q3], [Q1]) != HALF:
        return False, "parallel bottom resistance != 1/2"
    if effective_resistance(g, [Q1, Q2, Q3], [Q0]) != Fraction(1, 4):
        return False, "R(V0, q0) != 1/4"
    return True, "R(q2,q1)=R(q3,q1)=1 (levels 0-6); diameter, parallel and V0 values exact"


def check_ball_regions():
    g = build_level_graph(4)
    region = ball(g, Q1, Fraction(3))
    if region.frontier or len(region.interior) != len(g.vertices):
        return False, "radius beyond the diameter should swallow the graph"
    region = ball(g, Q0, HALF)
    k2_interior = [v for v in region.interior if addressing.in_cell(v, "2")]
    if not k2_interior:
        return False, "lower cell missing from B(q0,1/2)"
    for r1, r2 in ((Fraction(1, 4), HALF), (HALF, Fraction(1))):
        small = ball(g, Q0, r1)
        big = ball(g, Q0, r2)
        if not small.interior <= big.interior:
            return False, "ball interiors not monotone in the radius"
    region = q0_ball(2, 5)
    apex = canonicalize("02", 1)
    if apex not in region.frontier:
        return False, "apex missing from the n=2 frontier"
    if apex not in {v for v in region.frontier if v[0].startswith("0")}:
        return False, "apex not classified as upper boundary"
    return True, "ball partitions, monotonicity and the n=2 apex are in order"


def check_maximum_principle():
    rng = random.Random(11)
    g = build_level_graph(3)
    verts = g.vertices
    for _ in range(12):
        pins = {rng.choice(verts): Fraction(rng.randint(-5, 5)) for _ in range(4)}
        sol = solve_dirichlet(g, pins)
        lo, hi = min(pins.values()), max(pins.values())
        for val in sol.values:
            if not lo <= val <= hi:
                return False, f"value {val} outside [{lo},{hi}]"
    return True, "solution range bounded by pinned range on 12 random problems"


def check_cell_maximum_principle():
    g = build_level_graph(4)
    sol = solve_dirichlet(g, {Q1: 1, Q2: Fraction(1, 3), Q3: 0})
    for word in ("0", "2", "31", "123"):
        cell_vals = [
            val for v, val in zip(g.vertices, sol.values) if addressing.in_cell(v, word)
        ]
        corners = [sol[(word, j)] for j in (1, 2, 3)]
        if max(cell_vals) != max(corners) or min(cell_vals) != min(corners):
            return False, f"cell {word!r} extremum not at a corner"
    return True, "harmonic cell extrema live on cell corners"


def check_energy_optimality():
    rng = random.Random(3)
    g = build_level_graph(2)
    sol = solve_dirichlet(g, {Q1: 1, Q2: 0, Q3: 0})
    base = dirichlet_energy(sol)
    free = [v for v in g.vertices if v not in ((Q1), (Q2), (Q3))]
    for _ in range(10):
        v = rng.choice(free)
        bumped = list(sol.values)
        bumped[g.vertex_id(v)] += Fraction(rng.randint(1, 9), 100)
        pert = dirichlet.VertexFunction(g, bumped, "exact")
        if dirichlet_energy(pert) <= base:
            return False, f"perturbation at {v} did not increase energy"
    return True, "single-vertex perturbations strictly increase energy"


def check_level_compatibility():
    pins = {Q1: 1, Q2: Fraction(1, 2), Q3: 0}
    base = None
    for level in (1, 2, 3):
        g = build_level_graph(level)
        sol = solve_dirichlet(g, pins)
        trace = {v: sol[v] for v in build_level_graph(1).vertices}
        if base is None:
            base = trace
        elif trace != base:
            return False, f"restriction changed at level {level}"
    return True, "minimiser restriction to V1 identical at levels 1..3"


def check_grounding_monotonicity():
    g = build_level_graph(3)
    region = ball(g, Q0, HALF)
    small = sorted(region.frontier)[: max(2, len(region.frontier) // 2)]
    _, r_small = equilibrium_potential(g, Q0, small)
    _, r_full = equilibrium_potential(g, Q0, region.frontier)
    if not r_full <= r_small:
        return False, "resistance grew when the grounded set grew"
    return True, "enlarging the grounded set weakly decreases the resistance"


def check_green_identity():
    w = WeightVector.equal()
    n, level, tol = 1, 8, 0.05
    g = ball_graph(n, level)
    region, g1 = exit_time.exit_time_profile(n, w, level, graph=g, mode="float")
    for x in (Q0, canonicalize("02", 1), canonicalize("22", 1)):
        bounds = exit_time.g1_via_identity(x, n, w, level, graph=g)
        direct = float(g1[x])
        lo, hi = float(bounds.lower), float(bounds.upper)
        if not (lo * (1 - tol) <= direct <= hi * (1 + tol)):
            return False, f"direct Green value escapes identity bounds at {vertex_str(x)}"
        if abs(float(bounds.exact) - direct) > tol * direct:
            return False, f"identity pairing differs from the direct solve at {vertex_str(x)}"
    return True, "Green solve sits inside the identity bounds (within 5%)"


def check_green_symmetry():
    region = q0_ball(1, 5)
    interior = sorted(region.interior)
    rng = random.Random(2)
    for _ in range(6):
        x, y = rng.choice(interior), rng.choice(interior)
        gx = green_g1(region, {x: 1}, mode="exact")
        gy = green_g1(region, {y: 1}, mode="exact")
        if gx[y] != gy[x]:
            return False, f"Green matrix asymmetric at {x},{y}"
    return True, "sampled Green matrix entries are symmetric"


def check_closed_form_values():
    checks = [
        (closed_forms.eval_closed(u_minus(HALF, 0, 1, 0), Q0), HALF),
        (closed_forms.eval_closed(u_down(), canonicalize("23", 1)), Fraction(1, 16)),
        (closed_forms.eval_closed(u_up(), canonicalize("002", 1)), Fraction(1, 64)),
        (closed_forms.energy_closed(u_down()), Fraction(3)),
        (closed_forms.energy_closed(u_up()), Fraction(3, 2)),
        (closed_forms.energy_closed(u_plus(HALF, 1, 1, 0)), Fraction(2)),
    ]
    for got, want in checks:
        if got != want:
            return False, f"closed form gave {got}, wanted {want}"
    return True, "ladder values and closed-form energies exact"


def check_closed_vs_discrete():
    g = build_level_graph(4)
    region_ground = [
        v for v in g.vertices if v[1] in (2, 3) and all(ch in "23" for ch in v[0])
    ]
    sol = solve_dirichlet(g, {Q1: 1, **{v: 0 for v in region_ground}})
    lam4 = sol[Q0]
    if not Fraction(1, 4) < lam4 <= Fraction(1, 3):
        return False, "discrete decay value out of its bracket"
    spec = u_minus(HALF, Fraction(1, 3), 1, Fraction(-2, 7))
    pins = {Q1: 1, Q2: Fraction(1, 3), Q3: Fraction(-2, 7)}
    sol2 = solve_dirichlet(g, pins)
    for v, val in zip(g.vertices, sol2.values):
        if closed_forms.eval_closed(spec, v) != val:
            return False, f"V0 extension disagrees with the solve at {vertex_str(v)}"
    if closed_forms.energy_closed(spec) != dirichlet_energy(sol2):
        return False, "V0 extension energy mismatch"
    return True, "discrete solves reproduce the closed forms exactly"


def check_reflection_symmetry():
    """Reflection-symmetric harmonics are invariant under the digit swap.

    The swap 0<->1, 2<->3 mirrors the fractal; the decay function and any
    V0 extension with equal bottom values must not see it.  (The upward
    ladder is anchored at q2 and is not symmetric.)
    """
    swap = str.maketrans("0123", "1032")
    rng = random.Random(9)
    pts = [canonicalize(w, c) for w, c in raw_points(4)]
    for spec in (u_down(), u_minus(HALF, Fraction(2, 7), 1, Fraction(2, 7))):
        for _ in range(60):
            w, c = rng.choice(pts)
            mirrored = canonicalize(w.translate(swap), {1: 1, 2: 3, 3: 2}[c])
            a = closed_forms.eval_closed(spec, (w, c))
            b = closed_forms.eval_closed(spec, mirrored)
            if a != b:
                return False, f"{spec.kind} breaks reflection at {(w, c)}"
    return True, "symmetric harmonics invariant under the reflection swap"


def check_coefficient_tables():
    tol = 0.05
    for n in (1, 2, 3):
        for m0 in range(0, 4):
            for k0 in range(0, 4):
                level = n + m0 + k0 + 4
                table = psi_coefficients(CoefficientCase("xmk", n, m0=m0, k0=k0))
                if table.branch[k0] != 1:
                    return False, f"normalisation fails at xmk({n},{m0},{k0})"
                vals, _ = psi_skeleton_values(n, level, "x", m0=m0, k0=k0)
                net, labels = reduction.ball_skeleton(n, level, "x", m0=m0, k0=k0)
                for m in range(-1, m0 + 1):
                    disc = vals[labels["spine"][m + 1]]
                    if abs(float(disc / table.spine[m]) - 1) > tol:
                        return False, f"xmk({n},{m0},{k0}) spine m={m} off by >5%"
                for k in range(1, k0 + 1):
                    disc = vals[labels["chain"][k - 1]]
                    if abs(float(disc / table.branch[k]) - 1) > tol:
                        return False, f"xmk({n},{m0},{k0}) branch k={k} off by >5%"
    for n in (1, 2, 3):
        for k0 in (1, 2, 3):
            level = n + k0 + 4
            table = psi_coefficients(CoefficientCase("yk", n, k0=k0))
            if table.spine[k0] != 1:
                return False, f"normalisation fails at yk({n},{k0})"
            vals, _ = psi_skeleton_values(n, level, "y", k0=k0)
            net, labels = reduction.ball_skeleton(n, level, "y", k0=k0)
            chain = [labels["q0"]] + labels["chain"]
            for k in range(0, k0 + 1):
                if abs(float(vals[chain[k]] / table.spine[k]) - 1) > tol:
                    return False, f"yk({n},{k0}) k={k} off by >5%"
    return True, "coefficient tables match discrete potentials within 5% on the full grid"


def check_coefficient_recurrence():
    for n in (1, 2, 3):
        t = psi_coefficients(CoefficientCase("xmk", n, m0=3, k0=3))
        seq = [t.spine[m] for m in range(-1, 4)] + [t.branch[k] for k in (1, 2, 3)]
        for i in range(1, len(seq) - 1):
            if 4 * seq[i + 1] - 9 * seq[i] + 2 * seq[i - 1] != 0:
                return False, f"recurrence residual nonzero at n={n}, index {i}"
        ty = psi_coefficients(CoefficientCase("yk", n, k0=3))
        bs = [ty.spine[k] for k in range(0, 4)]
        for i in range(1, 3):
            if 4 * bs[i + 1] - 9 * bs[i] + 2 * bs[i - 1] != 0:
                return False, f"branch recurrence residual nonzero at n={n}"
    return True, "three-term recurrence holds with zero residual"


def check_resistance_scaling():
    """log2 slope of the reduced-network resistances across (n, m0, k0)."""
    window = 0.15
    xs, ys = [], []
    for n in (1, 2, 3):
        for m0 in (0, 1, 2):
            for k0 in (0, 1, 2):
                _, r = psi_skeleton_values(n, n + m0 + k0 + 4, "x", m0=m0, k0=k0)
                xs.append(n + m0 + k0)
                ys.append(float(r))
    slope, _ = fit_log2_slope(xs, ys)
    if abs(slope + 1) > window:
        return False, f"x-family resistance slope {slope:.3f} not within {window} of -1"
    xs, ys = [], []
    for n in (1, 2, 3):
        for k0 in (1, 2, 3):
            _, r = psi_skeleton_values(n, n + k0 + 4, "y", k0=k0)
            xs.append(n + k0)
            ys.append(float(r))
    slope, _ = fit_log2_slope(xs, ys)
    if abs(slope + 1) > window:
        return False, f"y-family resistance slope {slope:.3f} not within {window} of -1"
    return True, "boundary resistances scale like 2^-(n+m+k) and 2^-(n+k)"


def check_measure_additivity():
    depth = 6
    w = WeightVector(Fraction(1, 6), Fraction(1, 3))
    for d in range(depth):
        for word in addressing.words_of_length(d):
            parent = cell_measure(w, word)
            kids = sum(cell_measure(w, word + i) for i in "0123")
            if parent != kids:
                return False, f"additivity fails under {word!r}"
    return True, f"cell measures additive to depth {depth}"


def check_harmonic_weights():
    for w in (WeightVector.equal(), WeightVector(Fraction(1, 6), Fraction(1, 3))):
        p = harmonic_weights(w)
        if sum(p) != 1 or p[1] != p[2]:
            return False, f"weights {w}: p malformed"
        mats = measure.extension_matrices(HALF)
        wt = w.as_tuple()
        fixed = [
            sum(wt[i] * sum(mats[i][k][j] * p[k] for k in range(3)) for i in range(4))
            for j in range(3)
        ]
        if tuple(fixed) != tuple(p):
            return False, f"weights {w}: fixed-point residual nonzero"
        row = subdivision_quadrature_row(w, 10)
        if any(abs(float(p[j] - row[j])) > 1e-6 for j in range(3)):
            return False, f"weights {w}: depth-10 subdivision oracle disagrees"
    return True, "harmonic weights: exact fixed point, p2=p3, subdivision oracle within 1e-6"


def check_integrals():
    w = WeightVector.equal()
    i_down = integrate_closed(u_down(), w)
    if i_down != HALF:
        return False, f"integral of the decay function is {i_down}, expected 1/2"
    if not Fraction(1, 7) <= i_down <= Fraction(4, 7):
        return False, "decay integral escapes [eps0, 4 eps0]"
    i_up = integrate_closed(u_up(), w)
    if i_up != Fraction(1, 12):
        return False, f"integral of the ladder function is {i_up}, expected 1/12"
    for spec, exact in ((u_down(), i_down), (u_up(), i_up)):
        b = integrate_pw_harmonic(spec, w)
        if not b.lower <= exact <= b.upper:
            return False, f"certified bounds exclude the exact {spec.kind} integral"
        if float(b.upper - b.lower) > 2e-4 * float(exact):
            return False, f"certified gap too wide for {spec.kind}"
    c = integrate_pw_harmonic(u_minus(HALF, 5, 5, 5), w)
    if not (c.lower <= 5 <= c.upper and c.exact == 5):
        return False, "constants do not integrate to themselves"
    return True, "exact self-similar integrals agree with certified quadrature"


def check_quadrature_sandwich():
    w = WeightVector.equal()
    integ = measure.HarmonicIntegrator(w)
    rng = random.Random(4)
    step = closed_forms._int_step(HALF)
    state = ("h", 1, 0, rng.randint(0, 3))
    stack = [state]
    for _ in range(200):
        st = stack.pop()
        (lo, hi), = measure._state_ranges([st])
        ex = integ.exact(st)
        if not lo <= ex <= hi:
            return False, f"exact value escapes the corner sandwich in {st[0]}"
        kids = closed_forms._state_children(st, step)
        if sum(integ.exact(k) * q for k, q in zip(kids, w.as_tuple())) != step[0] * ex:
            return False, "children integrals do not sum to the parent"
        stack.append(kids[rng.randrange(4)])
        if not stack:
            break
    return True, "per-cell sandwich and additivity hold down a random refinement path"


def check_doubling():
    w = WeightVector.equal()
    metric = Metric(HALF)
    ratios = []
    for n in range(2, 7):
        yn = canonicalize("2" + "0" * (n - 1), 2)
        ratio, _, _ = doubling_ratio(w, yn, Fraction(1, 2**n), max_depth=n + 6, metric=metric)
        bound = Fraction(3, 16) * 2**n
        if not ratio.lower >= bound:
            return False, f"n={n}: doubling lower bound {float(ratio.lower):.3f} < {float(bound):.3f}"
        ratios.append(float(ratio.midpoint()))
    for a, b in zip(ratios, ratios[1:]):
        if b < 1.5 * a:
            return False, "doubling ratio at y_n stopped growing geometrically"
    samples = [
        (canonicalize("02", 1), 2, Fraction(1, 8)),
        (canonicalize("2", 1), 1, Fraction(1, 4)),
        (canonicalize("202", 1), 3, Fraction(1, 16)),
        (canonicalize("0023", 1), 4, Fraction(1, 32)),
    ]
    for x, n, r in samples:
        ratio, _, _ = doubling_ratio(w, x, r, max_depth=n + 8, metric=metric)
        if ratio.lower < 1:
            return False, "doubling ratio below one"
        if ratio.upper > 64:
            return False, f"lattice doubling ratio {float(ratio.upper):.2f} exceeds 64 at {vertex_str(x)}"
    return True, "y_n blow-up certified above (3/16) 2^n; lattice ratios within [1, 64]"


def check_ball_measures():
    w = WeightVector.equal()
    b = measure.ball_measure(w, q0_ball(1, 8))
    third = Fraction(1, 3)
    if not b.lower <= third <= b.upper:
        return False, "B(q0,1/2) measure bounds exclude 1/3"
    if b.upper / b.lower > Fraction(11, 10):
        return False, "B(q0,1/2) bounds too loose at level 8"
    b2 = measure.ball_measure(w, q0_ball(2, 8))
    if b2.upper / b2.lower > Fraction(11, 10):
        return False, "B(q0,1/4) bounds ratio exceeds 1.1 at level 8"
    generic = measure.measure_ball_bounds(Q0, HALF, w, max_depth=9)
    if not (generic.lower <= third <= generic.upper):
        return False, "generic descent bounds exclude 1/3"
    return True, "ball measures bracket 1/3 and tighten within 10% at level 8"


def check_boundary_resistance_exact():
    for n in (1, 2, 3):
        level = n + 7
        want = Fraction(1, 3 * (2 ** (n - 1) + 2 ** (2 * n - 1)))
        got = q0_boundary_resistance(n, level)
        if not want <= got <= want * (1 + Fraction(1, 20)):
            return False, f"n={n}: R={float(got)} not within 5% above {float(want)}"
        if q0_boundary_resistance(n, level + 1) > got:
            return False, f"n={n}: resistance increased with the level"
    g = ball_graph(1, 8)
    _, _, r_direct = boundary_resistance(Q0, 1, 8, graph=g, mode="exact")
    if r_direct != q0_boundary_resistance(1, 8):
        return False, "ball-graph solve disagrees with the exact reduction"
    return True, "R(q0, frontier) within 5% of 1/9, 1/30, 1/108 and decreasing in L"


def check_typical_resistance_windows():
    ratios_x = []
    for n in (1, 2, 3):
        _, r = psi_skeleton_values(n, n + 6, "x", m0=1, k0=1)
        ratios_x.append(float(r) * 2 ** (n + 1 + 1))
    if max(ratios_x) / min(ratios_x) > 1.5:
        return False, f"x-window drifts: {ratios_x}"
    ratios_y = []
    for n in (1, 2, 3):
        _, r = psi_skeleton_values(n, n + 6, "y", k0=1)
        ratios_y.append(float(r) * 2 ** (n + 1))
    if max(ratios_y) / min(ratios_y) > 1.5:
        return False, f"y-window drifts: {ratios_y}"
    return True, "scaled typical-point resistances stay in fixed windows across n"


def check_dichotomy_window():
    metric = Metric(HALF)
    vals = []
    for n in (1, 2, 3, 4):
        level = n + 5
        region = q0_ball(n, level)
        rng = random.Random(n)
        interior = sorted(region.interior)
        picks = [interior[rng.randrange(len(interior))] for _ in range(8)]
        for x in picks:
            d0 = metric.dist(x, Q0)
            _, _, r = boundary_resistance(x, n, level, graph=region.graph, mode="float")
            model = min(
                Fraction(1, 2**n) - d0, d0 + Fraction(1, 4**n)
            )
            if model <= 0:
                continue
            vals.append(float(model) / r)
    if max(vals) / min(vals) > 12:
        return False, f"dichotomy window too wide: [{min(vals):.3f},{max(vals):.3f}]"
    return True, f"dichotomy ratio confined to [{min(vals):.2f},{max(vals):.2f}] over n=1..4"


def check_psi_spine_decay():
    for n in (1, 2):
        k0 = 3
        vals, _ = psi_skeleton_values(n, n + k0 + 4, "y", k0=k0)
        net, labels = reduction.ball_skeleton(n, n + k0 + 4, "y", k0=k0)
        chain = [labels["q0"]] + labels["chain"]
        scaled = [float(vals[chain[k]]) * 2 ** (k0 - k) for k in range(0, k0 + 1)]
        if max(scaled) / min(scaled) > 4:
            return False, f"branch potential decay window too wide at n={n}"
    return True, "branch potentials decay like 2^(k-k0) within a fixed window"


def check_exit_monotone():
    w = WeightVector(Fraction(1, 10), Fraction(2, 5))
    rows, slope, err = exit_ratio_experiment(range(2, 6), w, level_offset=5)
    ratios = [r.ratio for r in rows]
    if any(b >= a for a, b in zip(ratios, ratios[1:])):
        return False, f"exit ratio not strictly decreasing: {ratios}"
    if not 0 < ratios[0] <= 1:
        return False, "ratio left (0,1]"
    if not -1.25 <= slope <= -0.75:
        return False, f"bottom-heavy exit slope {slope:.3f} outside [-1.25,-0.75]"
    return True, f"exit ratio decreasing with slope {slope:.2f} for bottom-heavy weights"


def check_superposition():
    n, level = 2, 6
    g = ball_graph(n, level)
    p1 = BoundaryProfile("upper", m=0, k=1)
    p2 = BoundaryProfile("lower", k=1)
    mix = BoundaryProfile("mixture", parts=((p1, Fraction(2, 3)), (p2, Fraction(5, 1))))
    _, s1 = boundary_harmonic(n, p1, level, graph=g, mode="exact")
    _, s2 = boundary_harmonic(n, p2, level, graph=g, mode="exact")
    _, sm = boundary_harmonic(n, mix, level, graph=g, mode="exact")
    for v, a, b, mixed in zip(g.vertices, s1.values, s2.values, sm.values):
        if mixed != Fraction(2, 3) * a + 5 * b:
            return False, f"superposition fails at {vertex_str(v)}"
    return True, "mixture solve equals the coefficient combination exactly"


def check_decomposition():
    n, level = 2, 6
    region = q0_ball(n, level)
    g = region.graph
    upper_parts = [(BoundaryProfile("upper", m=m, k=1), 1) for m in range(level - n)]
    lower_parts = [
        (BoundaryProfile("lower", branch=format(b, f"0{n-1}b"), k=0), 1)
        for b in range(2 ** (n - 1))
    ]
    mix_up = BoundaryProfile("mixture", parts=tuple(upper_parts))
    mix_low = BoundaryProfile("mixture", parts=tuple(lower_parts))
    _, s_up = boundary_harmonic(n, mix_up, level, graph=g, mode="exact")
    _, s_low = boundary_harmonic(n, mix_low, level, graph=g, mode="exact")
    apex = canonicalize("0" + "2" * (n - 1), 1)
    psi_apex, _ = equilibrium_potential(g, apex, region.frontier - {apex}, mode="exact")
    for v in sorted(region.interior):
        total = s_up[v] + s_low[v] + psi_apex[v]
        if total != 1:
            return False, f"u' + u'' + apex part != 1 at {vertex_str(v)}"
    return True, "boundary split into upper/lower pieces plus apex sums to one inside"


def check_ehi():
    tol = 0.25
    rows, slope, err = ehi_slope(range(2, 6), k=1, epsilon=HALF, level_offset=4)
    if abs(slope + 1) > tol:
        return False, f"EHI slope {slope:.3f} outside -1 +- {tol}"
    r_half = rows[0]["ratio"]
    quarter = harnack.ehi_ratio(2, 1, Fraction(1, 4), 6)
    if quarter["ratio"] < r_half:
        return False, "inf/sup not monotone in epsilon"
    return True, f"EHI collapse slope {slope:.2f}; ratio monotone in epsilon"


def check_weh_threshold():
    rows = []
    for delta in (HALF, Fraction(1)):
        scan = weh_threshold_scan(
            delta, [HALF, Fraction(1), Fraction(3, 2), Fraction(2)], range(2, 6)
        )
        growths = [row["growth_range"] for row in scan]
        if any(b < a - 0.08 for a, b in zip(growths, growths[1:])):
            return False, f"growth not monotone in rho at delta={delta}: {growths}"
        rows += scan
    growth = "growth over n=2..5: " + ", ".join(
        f"d={row['delta']} rho={row['rho']}: x{row['growth_range']:.2f}" for row in rows
    )
    for row in rows:
        delta, rho = row["delta"], row["rho"]
        if rho <= 1 and row["growth_range"] > 1.15:
            return False, f"bounded side fails at delta={delta}, rho={rho}; {growth}"
        if rho > 1 and row["growth_range"] < 0.8 * rho:
            return False, f"growth side fails at delta={delta}, rho={rho}; {growth}"
    return True, "threshold scan: bounded for rho<=1, growing by >=0.8 rho for rho in {3/2,2}; " + growth


def check_weh_lower_piece():
    w = WeightVector(Fraction(1, 6), Fraction(1, 3))
    reports, per_n, total = harnack.weh_growth(
        range(2, 6), Fraction(1), w, BoundaryProfile("lower", k=1), level_offset=4
    )
    if total > 1.3:
        return False, f"lower-piece ratio grew by {total:.2f} across the range"
    for r in reports:
        if r.ratio_lower < 1 - 1e-9:
            return False, "mean fell below the infimum"
    return True, "lower-piece harmonics keep a bounded mean-to-infimum ratio"


SUITES = {
    "addressing": [
        ("canonical idempotence", check_canonical_idempotent),
        ("geometric soundness", check_geometric_soundness),
        ("intersection symmetry", check_intersection_symmetry),
        ("adjacency degree", check_adjacency_degree),
    ],
    "graph": [
        ("tree property", check_tree_property),
        ("renormalization", check_renormalization),
        ("metric axioms", check_metric_axioms),
        ("resistance values", check_resistance_values),
        ("ball regions", check_ball_regions),
    ],
    "solver": [
        ("maximum principle", check_maximum_principle),
        ("cell maximum principle", check_cell_maximum_principle),
        ("energy optimality", check_energy_optimality),
        ("level compatibility", check_level_compatibility),
        ("grounding monotonicity", check_grounding_monotonicity),
        ("green identity", check_green_identity),
        ("green symmetry", check_green_symmetry),
    ],
    "harmonics": [
        ("closed-form values", check_closed_form_values),
        ("closed vs discrete", check_closed_vs_discrete),
        ("reflection symmetry", check_reflection_symmetry),
        ("coefficient tables", check_coefficient_tables),
        ("coefficient recurrence", check_coefficient_recurrence),
        ("resistance scaling", check_resistance_scaling),
    ],
    "measure": [
        ("measure additivity", check_measure_additivity),
        ("harmonic weights", check_harmonic_weights),
        ("integrals", check_integrals),
        ("quadrature sandwich", check_quadrature_sandwich),
        ("doubling", check_doubling),
        ("ball measures", check_ball_measures),
    ],
    "exit": [
        ("boundary resistance", check_boundary_resistance_exact),
        ("typical windows", check_typical_resistance_windows),
        ("dichotomy window", check_dichotomy_window),
        ("spine decay", check_psi_spine_decay),
        ("exit monotone", check_exit_monotone),
    ],
    "harnack": [
        ("superposition", check_superposition),
        ("decomposition", check_decomposition),
        ("ehi collapse", check_ehi),
        ("weh threshold", check_weh_threshold),
        ("weh lower piece", check_weh_lower_piece),
    ],
}


def run_check(suite: str, label: str) -> tuple[bool, str, float]:
    """(ok, detail, seconds) of one named check; a crash fails it and prints its traceback to stderr."""
    fn = dict(SUITES[suite])[label]
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        ok, detail = False, f"exception: {exc!r}"
        print(f"{suite}/{label} crashed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    return ok, detail, time.perf_counter() - t0


def run_suite(name: str = "all") -> bool:
    """Run one suite's checks, or all of them, printing one line per check."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {['all'] + list(SUITES)}")
    ok_all = True
    for suite in names:
        for label, _ in SUITES[suite]:
            ok, detail, seconds = run_check(suite, label)
            ok_all &= ok
            print(f"[{'PASS' if ok else 'FAIL'}] {suite}/{label} ({seconds:.1f}s): {detail}")
    return ok_all
