"""Command-line front end: experiments, reports and the verification suite.

Reports are CSV with a single leading config-echo comment line, so two
runs with the same configuration produce byte-identical files; summaries
are JSON.  Exit codes: 0 success, 1 verification failure, 2 usage,
3 validation, 4 capacity.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .addressing import canonicalize, parse_vertex, vertex_str
from .closed_forms import (
    CoefficientCase,
    energy_closed,
    eval_closed,
    psi_coefficients,
    u_down,
    u_minus,
    u_plus,
    u_up,
)
from .dirichlet import effective_resistance
from .exit_time import exit_ratio_experiment, q0_ball
from .harnack import ehi_slope, weh_threshold_scan
from .measure import (
    WeightVector,
    ball_measure,
    cell_measure,
    doubling_ratio,
    integrate_closed,
    integrate_pw_harmonic,
)
from .metric import Metric
from .network import CapacityError, build_level_graph


DEFAULT_MAX_LEVEL = 12


@dataclass
class RunConfig:
    """Resolved run parameters, echoed into every report."""

    s0: Fraction = Fraction(1, 2)
    weights: WeightVector = field(default_factory=WeightVector.equal)
    max_level: int = DEFAULT_MAX_LEVEL

    def as_dict(self) -> dict:
        # The last three keys name settings that no command ever read.  They
        # are echoed at their old constant values so that every report keeps
        # its bytes.
        return {
            "s0": str(self.s0),
            "weights": str(self.weights),
            "max_level": self.max_level,
            "tolerance_profile": "default",
            "outdir": ".",
            "seed": 0,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("a config file must hold a JSON object")
        cfg = cls()
        if "s0" in data:
            s0 = _config_value(data, "s0", (str, int, float), "a number or a string 'p/q'")
            cfg.s0 = _fraction_arg("config s0", s0)
        if "weights" in data:
            weights = _config_value(data, "weights", str, "a string 'w0,w2'")
            cfg.weights = _fraction_arg("config weights", weights, WeightVector.parse)
        if "max_level" in data:
            cfg.max_level = _config_value(data, "max_level", int, "an integer")
        return cfg


def _config_value(data: dict, key: str, types, expected: str):
    """data[key] if it is one of `types`; JSON true and false are no numbers."""
    if isinstance(data[key], bool) or not isinstance(data[key], types):
        raise ValueError(f"config {key} must be {expected}, got {json.dumps(data[key])}")
    return data[key]


def _fraction_arg(flag: str, text, parse=Fraction):
    """`parse(text)` for a fraction-valued argument; a failure is a ValueError naming the flag."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise ValueError(f"{flag} got {text!r}: {reason}") from None


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = RunConfig.from_dict(json.load(fh))
    if args.s0:
        cfg.s0 = _fraction_arg("--s0", args.s0)
    if args.weights:
        cfg.weights = _fraction_arg("--weights", args.weights, WeightVector.parse)
    env_max = os.environ.get("DENDRITE_MAX_LEVEL")
    if env_max is not None:
        try:
            cfg.max_level = int(env_max)
        except ValueError:
            raise ValueError(f"DENDRITE_MAX_LEVEL must be an integer, got {env_max!r}") from None
    if args.max_level is not None:
        cfg.max_level = args.max_level
    if not 0 < cfg.s0 < 1:
        raise ValueError("s0 must lie strictly between 0 and 1")
    if cfg.max_level < 1:
        raise ValueError("max_level must be at least 1")
    return cfg


def _check_level(level: int, cfg: RunConfig):
    """The one test of a level against the configured cap."""
    if level > cfg.max_level:
        raise CapacityError(f"level {level} exceeds the configured maximum {cfg.max_level}")


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        a, b = text.split("..")
        values = list(range(int(a), int(b) + 1))
    else:
        values = [int(x) for x in text.split(",")]
    if not values:
        raise ValueError(f"range {text!r} is empty")
    return values


def _require_dyadic(cfg: RunConfig):
    """Balls B(q0, 2^-n) are built on the dyadic lattice, s0 = 1/2."""
    if cfg.s0 != Fraction(1, 2):
        raise ValueError("ball subgraphs assume s0 = 1/2 (dyadic radii)")


def _checked_n_range(args, cfg: RunConfig) -> list[int]:
    """The --n values of a ball experiment, each checked at level n + offset.

    Ball experiments run on the dyadic balls B(q0, 2^-n), so they also need
    s0 = 1/2 and every n >= 1; all of it is checked before any ball is built.
    """
    _require_dyadic(cfg)
    n_values = _parse_range(args.n)
    for n in n_values:
        if n < 1:
            raise ValueError("ball index n must be >= 1")
        _check_level(n + args.level_offset, cfg)
    return n_values


def _write_report(path, cfg: RunConfig, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(cfg.as_dict(), sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(x) for x in row) + "\n")
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _summary_json(summary) -> str:
    """A summary as strict JSON: a float that is not finite (the slope of a single n) is null."""

    def strict(x):
        if isinstance(x, float) and not math.isfinite(x):
            return None
        if isinstance(x, dict):
            return {k: strict(v) for k, v in x.items()}
        if isinstance(x, list):
            return [strict(v) for v in x]
        return x

    return json.dumps(strict(summary), sort_keys=True, allow_nan=False)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def cmd_graph(args, cfg: RunConfig) -> int:
    _check_level(args.level, cfg)
    g = build_level_graph(args.level, cfg.s0)
    text = g.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def cmd_resistance(args, cfg: RunConfig) -> int:
    _check_level(args.level, cfg)
    u = parse_vertex(getattr(args, "from"))
    v = parse_vertex(args.to)
    g = build_level_graph(args.level, cfg.s0)
    r = effective_resistance(g, [u], [v], mode="float" if args.float else "exact")
    print(_fmt(r))
    return 0


def cmd_ball(args, cfg: RunConfig) -> int:
    _check_level(args.level, cfg)
    _require_dyadic(cfg)
    region = q0_ball(args.n, args.level)
    mu = ball_measure(cfg.weights, region)
    # the frontier above q0 lies in K_0, the one below in K_2
    rows = [
        ["interior", region.n_inside],
        ["frontier", len(region.frontier)],
        ["upper_boundary", sum(v[0].startswith("0") for v in region.frontier)],
        ["lower_boundary", sum(v[0].startswith("2") for v in region.frontier)],
        ["cut_edges", len(region.cut_edges)],
        ["measure_lower", _fmt(mu.lower)],
        ["measure_upper", _fmt(mu.upper)],
    ]
    _write_report(args.out, cfg, ["quantity", "value"], rows)
    return 0


def _harmonic_spec(kind: str, params: str | None, s0: Fraction):
    if kind == "udown":
        return u_down(s0)
    if kind == "uup":
        return u_up(s0)
    values = [_fraction_arg("--params", x) for x in (params or "").split(",") if x]
    if kind == "uminus":
        if len(values) != 3:
            raise ValueError("uminus needs --params a2,a1,a3")
        return u_minus(s0, *values)
    if kind == "uplus":
        if len(values) != 3:
            raise ValueError("uplus needs --params a,b,c")
        return u_plus(s0, *values)
    raise ValueError(f"unknown harmonic kind {kind!r}")


def cmd_harmonics(args, cfg: RunConfig) -> int:
    if args.coeffs:
        case = CoefficientCase(args.coeffs, args.n, m0=args.m0, k0=args.k0)
        table = psi_coefficients(case)
        rows = []
        for m in sorted(table.spine):
            rows.append([args.coeffs, args.n, args.m0, args.k0, f"spine[{m}]",
                         _fmt(table.spine[m]), float(table.spine[m])])
        for k in sorted(table.branch):
            rows.append([args.coeffs, args.n, args.m0, args.k0, f"branch[{k}]",
                         _fmt(table.branch[k]), float(table.branch[k])])
        _write_report(args.out, cfg, ["case", "n", "m0", "k0", "index", "value_exact", "value_float"], rows)
        return 0
    spec = _harmonic_spec(args.kind, args.params, cfg.s0)
    if args.at:
        v = parse_vertex(args.at)
        print(_fmt(eval_closed(spec, v)))
    else:
        print(_fmt(energy_closed(spec)))
    return 0


def cmd_measure(args, cfg: RunConfig) -> int:
    w = cfg.weights
    if args.cell is not None:
        word = "" if args.cell == "-" else args.cell
        print(_fmt(cell_measure(w, word)))
        return 0
    if args.integrate:
        spec = _harmonic_spec(args.integrate, args.params, cfg.s0)
        bounds = integrate_pw_harmonic(spec, w, max_depth=args.depth)
        exact = integrate_closed(spec, w)
        print(f"lower={_fmt(bounds.lower)} upper={_fmt(bounds.upper)} exact={_fmt(exact)}")
        return 0
    raise ValueError("measure needs --cell or --integrate")


def cmd_exit_ratio(args, cfg: RunConfig) -> int:
    n_values = _checked_n_range(args, cfg)
    rows, slope, stderr = exit_ratio_experiment(n_values, cfg.weights, level_offset=args.level_offset)
    table = [[r.n, r.level, _fmt(r.inf_core), _fmt(r.sup_ball), _fmt(r.ratio)] for r in rows]
    _write_report(args.out, cfg, ["n", "level", "inf_core", "sup_ball", "ratio"], table)
    text = _summary_json({"slope": slope, "stderr": stderr, "n_range": [min(n_values), max(n_values)]})
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_ehi(args, cfg: RunConfig) -> int:
    n_values = _checked_n_range(args, cfg)
    epsilon = _fraction_arg("--epsilon", args.epsilon)
    rows, slope, stderr = ehi_slope(n_values, args.k, epsilon, args.level_offset)
    table = [
        [r["n"], r["level"], r["k"], _fmt(epsilon), _fmt(r["inf"]),
         _fmt(r["sup"]), _fmt(r["ratio"]), _fmt(r["model"])]
        for r in rows
    ]
    _write_report(args.out, cfg, ["n", "level", "k", "epsilon", "inf", "sup", "ratio", "model"], table)
    print(_summary_json({"slope": slope, "stderr": stderr}))
    return 0


def cmd_weh(args, cfg: RunConfig) -> int:
    n_values = _checked_n_range(args, cfg)
    rho_values = [_fraction_arg("--rho", x) for x in args.rho.split(",")]
    delta = _fraction_arg("--delta", args.delta)
    scan = weh_threshold_scan(delta, rho_values, n_values, args.level_offset)
    table = []
    for row in scan:
        for rep in row["reports"]:
            table.append(
                [rep.n, _fmt(row["delta"]), _fmt(row["rho"]), row["weights"],
                 _fmt(rep.mean_lower), _fmt(rep.mean_upper), _fmt(rep.inf_power),
                 _fmt(rep.ratio_lower), _fmt(rep.ratio_upper)]
            )
    _write_report(
        args.out, cfg,
        ["n", "delta", "rho", "weights", "mean_lower", "mean_upper", "inf_power",
         "ratio_lower", "ratio_upper"],
        table,
    )
    summary = [
        {"delta": row["delta"], "rho": row["rho"], "growth_per_n": row["growth_per_n"],
         "growth_range": row["growth_range"]}
        for row in scan
    ]
    print(_summary_json(summary))
    return 0


def cmd_doubling(args, cfg: RunConfig) -> int:
    n_values = _parse_range(args.n)
    if min(n_values) < 0:
        raise ValueError("doubling index n must be >= 0")
    for n in n_values:
        _check_level(n + 6, cfg)  # index n needs a descent to depth n + 6; the descent runs to the cap
    metric = Metric(cfg.s0)
    table = []
    for n in n_values:
        x = parse_vertex(args.x) if args.x else canonicalize("2" + "0" * (n - 1), 2)
        r = _fraction_arg("--radius", args.radius) if args.radius else Fraction(1, 2**n)
        ratio, big, small = doubling_ratio(cfg.weights, x, r, max_depth=cfg.max_level, metric=metric)
        table.append(
            [n, vertex_str(x), _fmt(r),
             _fmt(ratio.lower), _fmt(ratio.upper), _fmt(big.lower), _fmt(big.upper),
             _fmt(small.lower), _fmt(small.upper)]
        )
    _write_report(
        args.out, cfg,
        ["n", "x", "r", "ratio_lower", "ratio_upper", "big_lower", "big_upper",
         "small_lower", "small_upper"],
        table,
    )
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    from . import checks  # imported here so that other commands do not compile the checks
    ok = checks.run_suite(args.suite)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")  # -1/2 is a value, as -1 and -0.5 are


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="dendrite",
        description="Dirichlet-form experiments on the tree-like self-affine fractal",
    )
    p.add_argument("--config", help="JSON config file (CLI flags override it)")
    p.add_argument("--s0", help="contraction ratio as p/q (default 1/2)")
    p.add_argument("--weights", help="measure weights 'w0,w2' (default 1/4,1/4)")
    p.add_argument("--max-level", type=int, dest="max_level", help="level capacity override")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="export a level network as JSON")
    g.add_argument("--level", type=int, required=True)
    g.add_argument("--out")

    r = sub.add_parser("resistance", help="effective resistance between two vertices")
    r.add_argument("--from", required=True, help="vertex as word:corner ('-' = empty word)")
    r.add_argument("--to", required=True)
    r.add_argument("--level", type=int, default=3)
    r.add_argument("--float", action="store_true")

    b = sub.add_parser("ball", help="ball region summary at B(q0, 2^-n)")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--level", type=int, required=True)
    b.add_argument("--out")

    h = sub.add_parser("harmonics", help="closed-form harmonics and coefficient tables")
    h.add_argument("--kind", choices=["udown", "uup", "uminus", "uplus"], default="udown")
    h.add_argument("--params", help="comma-separated boundary parameters")
    h.add_argument("--at", help="evaluate at vertex word:corner")
    h.add_argument("--coeffs", choices=["xmk", "yk"], help="emit a coefficient table instead")
    h.add_argument("--n", type=int, default=1)
    h.add_argument("--m0", type=int, default=0)
    h.add_argument("--k0", type=int, default=0)
    h.add_argument("--out")

    m = sub.add_parser("measure", help="cell measures and certified integrals")
    m.add_argument("--cell", help="cell word ('-' = whole space)")
    m.add_argument("--integrate", choices=["udown", "uup", "uminus", "uplus"])
    m.add_argument("--params")
    m.add_argument("--depth", type=int, default=12)

    e = sub.add_parser("exit-ratio", help="mean exit time ratio experiment")
    e.add_argument("--n", required=True, help="range a..b or list")
    e.add_argument("--level-offset", type=int, default=5, dest="level_offset")
    e.add_argument("--out")
    e.add_argument("--summary")

    eh = sub.add_parser("ehi", help="strong Harnack collapse experiment")
    eh.add_argument("--n", required=True)
    eh.add_argument("--k", type=int, default=1)
    eh.add_argument("--epsilon", default="1/2")
    eh.add_argument("--level-offset", type=int, default=4, dest="level_offset")
    eh.add_argument("--out")

    wh = sub.add_parser("weh", help="weak Harnack threshold scan")
    wh.add_argument("--delta", default="1")
    wh.add_argument("--rho", default="1/2,1,3/2,2")
    wh.add_argument("--n", required=True)
    wh.add_argument("--level-offset", type=int, default=4, dest="level_offset")
    wh.add_argument("--out")

    d = sub.add_parser("doubling", help="measure doubling bounds")
    d.add_argument("--n", required=True, help="ball indices a..b")
    d.add_argument("--x", help="center vertex (default y_n)")
    d.add_argument("--radius", help="radius as p/q (default 2^-n)")
    d.add_argument("--out")

    v = sub.add_parser("verify", help="run the invariant suite")
    v.add_argument("--suite", default="all")
    return p


_COMMANDS = {
    "graph": cmd_graph,
    "resistance": cmd_resistance,
    "ball": cmd_ball,
    "harmonics": cmd_harmonics,
    "measure": cmd_measure,
    "exit-ratio": cmd_exit_ratio,
    "ehi": cmd_ehi,
    "weh": cmd_weh,
    "doubling": cmd_doubling,
    "verify": cmd_verify,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing leaves a parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](args, cfg)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
