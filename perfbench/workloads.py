"""The benchmark's workloads: inputs made from a seed, operations and their checks.

A workload is a list of operations.  `run_ops` runs them in order and
keeps each output, or the full traceback of a crash; `check_ops` then
checks every output against an identity that holds for every seed.  Seed
0 runs the paper's parameters; any other seed picks each parameter from
a fixed family whose members cost the same.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from dendrite import addressing, cli, closed_forms, dirichlet, exit_time, measure, network, reduction
from dendrite.metric import Metric

HALF = Fraction(1, 2)
Q0, Q1, Q2, Q3 = ("2", 1), ("", 1), ("", 2), ("", 3)


@functools.cache
def report_digests() -> dict[str, str]:
    """sha256 of the stdout of each CLI command, recorded when the benchmark was added."""
    return json.loads((Path(__file__).parent / "digests.json").read_text())


# Weights (w0, w2) of the exit-ratio experiment; the first is the paper's.
EXIT_WEIGHTS = ("1/10,2/5", "2/5,1/10", "1/5,3/10", "3/10,1/5")
# Boundary pairs of V0 with their exact resistance, the same at every level.
BOUNDARY_PAIRS = ((Q2, Q1, Fraction(1)), (Q3, Q1, Fraction(1)), (Q2, Q3, Fraction(2)))
# Interior points of B(q0, 1/2) for the Green identity.
IDENTITY_POINTS = (Q0, ("02", 1), ("22", 1))
# Measure weights of the quadrature workload; their refinements cost alike.
QUADRATURE_WEIGHTS = ("1/4,1/4", "1/10,2/5", "1/5,3/10", "1/8,3/8")


class WrongOutput(Exception):
    """An operation returned an output that fails its check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


@dataclass
class Op:
    """One operation: `run` does the work, `check` raises WrongOutput on a bad output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Crash:
    traceback: str


def run_ops(ops: list[Op]) -> list[object]:
    """Run every operation; a crash is kept as its traceback and does not stop the pass."""
    outputs = []
    for op in ops:
        try:
            outputs.append(op.run())
        except Exception:
            outputs.append(Crash(traceback.format_exc()))
    return outputs


def check_ops(ops: list[Op], outputs: list[object]) -> list[dict]:
    """The failed operations: crashed, or an output that fails its check."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Crash):
            failures.append({"op": op.name, "kind": "crash", "detail": out.traceback})
            continue
        try:
            op.check(out)
        except WrongOutput as exc:
            failures.append({"op": op.name, "kind": "wrong", "detail": str(exc)})
        except Exception:
            failures.append({"op": op.name, "kind": "check-crash", "detail": traceback.format_exc()})
    return failures


def _pick(family, rng: random.Random, seed: int):
    return family[0] if seed == 0 else rng.choice(family)


# ---------------------------------------------------------------------------
# ball-experiments: the CLI's exit-ratio, weak and strong Harnack runs


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _report(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Split CLI stdout into (CSV header, CSV rows, trailing summary lines)."""
    lines = text.splitlines()
    expect(bool(lines) and lines[0].startswith("# config: "), "report lacks its config line")
    header = lines[1].split(",")
    rows, rest = [], []
    for line in lines[2:]:
        (rest if rest or line[:1] in "[{" else rows).append(line)
    return header, [r.split(",") for r in rows], rest


def _check_cli(argv: list[str], check_rows: Callable) -> Callable:
    def check(out):
        code, text = out
        expect(code == 0, f"exit code {code}")
        digest = report_digests().get(" ".join(argv))
        if digest is not None:
            got = hashlib.sha256(text.encode()).hexdigest()
            expect(got == digest, f"report sha256 {got} differs from the recorded {digest}")
        header, rows, rest = _report(text)
        if "weights" in header:
            # the weights column prints as "w0,w2", so it spans two fields
            i = header.index("weights")
            rows = [r[:i] + [",".join(r[i:i + 2])] + r[i + 2:] for r in rows]
        expect(all(len(r) == len(header) for r in rows), "report rows and header differ in width")
        check_rows([dict(zip(header, r)) for r in rows], rest)

    return check


def _exit_ratio_rows(rows, rest):
    expect([int(r["n"]) for r in rows] == [2, 3, 4, 5], "exit-ratio rows are not n = 2..5")
    for r in rows:
        ratio = float(r["ratio"])
        expect(0 < ratio <= 1, f"exit ratio {ratio} outside (0, 1] at n={r['n']}")
        expect(float(r["inf_core"]) <= float(r["sup_ball"]), f"inf exceeds sup at n={r['n']}")
    expect("slope" in json.loads(rest[0]), "exit-ratio summary lacks its slope")


def _weh_rows(rows, rest):
    expect(len(rows) == 16, f"weh printed {len(rows)} rows, expected 16")
    for r in rows:
        lo, hi = float(r["mean_lower"]), float(r["mean_upper"])
        expect(0 < lo <= hi, f"weh mean bounds [{lo}, {hi}] out of order at n={r['n']}")
        expect(float(r["inf_power"]) > 0, f"weh infimum not positive at n={r['n']}")
        expect(float(r["ratio_lower"]) <= float(r["ratio_upper"]), "weh ratio bounds out of order")
    expect(len(json.loads(rest[0])) == 4, "weh summary lacks a rho")


def _ehi_rows(rows, rest):
    expect(len(rows) == 4, f"ehi printed {len(rows)} rows, expected 4")
    for r in rows:
        lo, hi, ratio = float(r["inf"]), float(r["sup"]), float(r["ratio"])
        expect(0 < lo <= hi, f"ehi extrema [{lo}, {hi}] out of order at n={r['n']}")
        expect(0 < ratio <= 1, f"ehi ratio {ratio} outside (0, 1] at n={r['n']}")


def ball_experiments(seed: int) -> list[Op]:
    rng = random.Random(seed)
    weights = _pick(EXIT_WEIGHTS, rng, seed)
    runs = (
        (["--weights", weights, "exit-ratio", "--n", "2..5"], _exit_ratio_rows),
        (["weh", "--delta", "1", "--rho", "1/2,1,3/2,2", "--n", "2..5"], _weh_rows),
        (["ehi", "--n", "2..5", "--k", "1", "--epsilon", "1/2"], _ehi_rows),
    )
    return [
        Op(" ".join(argv), lambda argv=argv: _cli(argv), _check_cli(argv, rows))
        for argv, rows in runs
    ]


# ---------------------------------------------------------------------------
# exact-networks: full level networks in Fraction arithmetic


def exact_networks(seed: int) -> list[Op]:
    rng = random.Random(seed)
    graphs: dict[tuple[Fraction, int], network.LevelGraph] = {}

    def level_graph(s0: Fraction, level: int) -> network.LevelGraph:
        # each (s0, level) is built once per pass: the trace ops reuse the
        # resistance ops' networks, so no build repeats in this workload
        key = (s0, level)
        if key not in graphs:
            graphs[key] = network.build_level_graph(level, s0)
        return graphs[key]

    ops = []
    for level in range(8):
        a, b, want = _pick(BOUNDARY_PAIRS, rng, seed)

        def resistance(level=level, a=a, b=b):
            return dirichlet.effective_resistance(level_graph(HALF, level), [a], [b])

        def check(r, want=want, level=level):
            expect(r == want, f"R = {r} at level {level}, exact value {want}")

        ops.append(Op(f"resistance L={level} {a}-{b}", resistance, check))

    for s0 in (HALF, Fraction(1, 3), Fraction(2, 5)):
        for level in range(6):

            def trace(s0=s0, level=level):
                fine = level_graph(s0, level + 1)
                coarse = level_graph(s0, level)
                return network.schur_trace(fine, coarse.vertices).edge_list(), coarse

            def check(out, s0=s0, level=level):
                got, coarse = out
                want = {(coarse.vertices[i], coarse.vertices[j]): c for i, j, c in coarse.edges}
                expect(
                    {(a, b): c for a, b, c in got} == want,
                    f"trace of level {level + 1} differs from level {level} edge for edge, s0={s0}",
                )

            ops.append(Op(f"schur_trace s0={s0} L={level}", trace, check))

    x = _pick(IDENTITY_POINTS, rng, seed)

    def identity():
        g = network.ball_graph(1, 8)
        return exit_time.g1_via_identity(x, 1, measure.WeightVector.equal(), 8, graph=g)

    def check_identity(b):
        expect(b.lower <= b.exact <= b.upper, f"Green identity {b.exact} escapes [{b.lower}, {b.upper}]")

    ops.append(Op(f"g1_via_identity x={x}", identity, check_identity))
    return ops


# ---------------------------------------------------------------------------
# quadrature: ball measures, certified integrals and the exact gadgets


def quadrature(seed: int) -> list[Op]:
    rng = random.Random(seed)
    w = measure.WeightVector.parse(_pick(QUADRATURE_WEIGHTS, rng, seed))
    metric = Metric(HALF)
    ops = []
    for n in range(2, 7):

        def doubling(n=n):
            yn = addressing.canonicalize("2" + "0" * (n - 1), 2)
            return measure.doubling_ratio(w, yn, Fraction(1, 2**n), max_depth=12, metric=metric)

        def check(out, n=n):
            ratio, big, small = out
            expect(0 < small.lower <= big.lower, f"n={n}: small-ball lower bound exceeds the big ball's")
            expect(small.upper <= big.upper, f"n={n}: small-ball upper bound exceeds the big ball's")
            expect(ratio.lower == big.lower / small.upper, f"n={n}: ratio lower bound inconsistent")
            expect(ratio.upper == big.upper / small.lower, f"n={n}: ratio upper bound inconsistent")

        ops.append(Op(f"doubling n={n}", doubling, check))

    specs = (
        ("udown", lambda: closed_forms.u_down()),
        ("uup", lambda: closed_forms.u_up()),
        ("uminus", lambda: closed_forms.u_minus(HALF, 0, 1, HALF)),
        ("uplus", lambda: closed_forms.u_plus(HALF, 1, HALF, Fraction(1, 4))),
    )
    for kind, make in specs:

        def integrate(make=make):
            spec = make()
            return measure.integrate_pw_harmonic(spec, w, max_depth=12), measure.integrate_closed(spec, w)

        def check(out, kind=kind):
            bounds, exact = out
            expect(bounds.lower <= exact <= bounds.upper, f"{kind}: certified interval excludes {exact}")

        ops.append(Op(f"integrate {kind}", integrate, check))

    def ladders():
        levels = range(13)
        return (
            [reduction.bottom_grounded_conductance(k) for k in levels],
            [reduction.upward_grounded_conductance(k) for k in levels],
            [reduction.udown_value_q0(k) for k in levels[1:]],
        )

    def check_ladders(out):
        down, up, q0_values = out
        # the discrete energies increase to their continuum limits 3 and
        # 3/2, and the value at q0 decreases to s2/2 = 1/4
        for seq, limit, name in ((down, 3, "bottom"), (up, Fraction(3, 2), "upward")):
            expect(all(a < b for a, b in zip(seq, seq[1:])), f"{name} conductances not increasing")
            expect(seq[-1] < limit, f"{name} conductance passes its limit {limit}")
        expect(all(a > b for a, b in zip(q0_values, q0_values[1:])), "u_down(q0) not decreasing")
        expect(q0_values[-1] > Fraction(1, 4), "u_down(q0) passes its limit 1/4")

    ops.append(Op("reduction ladders", ladders, check_ladders))

    for n in range(1, 5):

        def q0_resistance(n=n):
            return reduction.q0_boundary_resistance(n, n + 7)

        def check_q0(r, n=n):
            limit = Fraction(1, 3 * (2 ** (n - 1) + 2 ** (2 * n - 1)))
            expect(limit <= r <= limit * Fraction(21, 20), f"n={n}: R(q0, frontier) = {r}, limit {limit}")

        ops.append(Op(f"q0 resistance n={n}", q0_resistance, check_q0))

        def tables(n=n):
            xmk = closed_forms.psi_coefficients(closed_forms.CoefficientCase("xmk", n, m0=3, k0=3))
            yk = closed_forms.psi_coefficients(closed_forms.CoefficientCase("yk", n, k0=3))
            return xmk, yk

        def check_tables(out, n=n):
            xmk, yk = out
            seqs = (
                [xmk.spine[m] for m in range(-1, 4)] + [xmk.branch[k] for k in (1, 2, 3)],
                [yk.spine[k] for k in range(4)],
            )
            for seq in seqs:
                expect(seq[-1] == 1, f"n={n}: table not normalised at its source")
                for i in range(1, len(seq) - 1):
                    residual = 4 * seq[i + 1] - 9 * seq[i] + 2 * seq[i - 1]
                    expect(residual == 0, f"n={n}: recurrence residual {residual} at index {i}")

        ops.append(Op(f"psi tables n={n}", tables, check_tables))
    return ops


WORKLOADS = {
    "ball-experiments": ball_experiments,
    "exact-networks": exact_networks,
    "quadrature": quadrature,
}
