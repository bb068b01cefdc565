"""Byte-identity gate for CLI reports of the ball and doubling experiments.

Each command runs in process through `cli.main` with stdout captured,
and the report's sha256 must equal the digest recorded here.  The four
ball-experiment digests were recorded from commit be9b6fe, before
conductances and cell measures came from digit-count tables and before
cells kept their corner vertex ids.  The two `doubling` digests were
recorded from commit 8fcf9a2, before `measure_ball_bounds` descended in
integer arithmetic.  The two `graph` and two `resistance` digests were
recorded from commit 35622fa, before networks stored their adjacency as
packed half-edge arrays.  A refactor of those paths that moves one bit of a
report fails here.  Together the reports cover the float cell sums of
`weh_ratio`, the lumped masses of the exit-time solve, the extrema of
`ehi`, the exact ball-measure bounds of a level network, and the exact
doubling bounds of `measure_ball_bounds` at s0 = 1/2 and at s0 = 1/3
with a radius that is not dyadic, the JSON edge order of a level network,
and the net current of an exact and a float resistance.  The six reports of
the benchmark's ball-experiments workload (n = 2..5) are checked against
`perfbench/digests.json`, which this file only reads.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from dendrite import cli

# The benchmark's own report digests (n = 2..5), read here and never written: a float
# reordering at n = 4 or 5 fails this test, not only a benchmark run.
BENCHMARK_DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())

GOLDEN = {
    "--weights 1/10,2/5 exit-ratio --n 2..3 --level-offset 4":
        "441478dcdb59113864bc24002dbd3d6fae00de0e5b18dc9e28f16ab00a688b9a",
    "weh --rho 1/2,2 --n 2..3":
        "f5ada2d3aeb93277a7261d4dfbd6fc9a1bb44c222df0308ce8c9ff5c7322f9bb",
    "ehi --n 2..3":
        "6012710199fe98e27e99c9bbbf810c559acbe0f26d557641881caaa31c7984ef",
    "ball --n 2 --level 7":
        "e660a7fef4c1993bb28d54b8b83f6a9747053b49994c1ba5b7fd74578c63af6f",
    "doubling --n 2..4":
        "e4e36b8950ed27bdd6c79dca63f5a74dd517320d980c0a2a44274798b159634a",
    "--s0 1/3 doubling --n 2..3 --radius 3/7":
        "6b08452a6078c0c289649646f2d7dd540e18fe438d73bb78b9c9ac4f8af8043d",
    "graph --level 3":
        "be344e833af24dec531e33f59bf7b466012f8bce8ab2dd73f04ddfbf5096c35a",
    "--s0 1/3 graph --level 2":
        "fd3c9f45a0ce2b3686661850db1184401b4a48bf87b694f515b737bb0877e2f2",
    "resistance --from 2:1 --to=-:2 --level 6":
        "de7e55cd172f2065828bdd6c2015c5e92fdd6271ab1bd0f30a5e15104e64678d",
    "--s0 1/3 resistance --from 2:1 --to=-:2 --level 6 --float":
        "701ced92f37ad314a23adba147b0f04aaad7a6e5e58fb189482a3a7fc2500b5f",
}


def _report_sha256(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(command.split())
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_is_byte_identical(command):
    assert _report_sha256(command) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(BENCHMARK_DIGESTS))
def test_benchmark_report_is_byte_identical(command):
    assert _report_sha256(command) == BENCHMARK_DIGESTS[command]
