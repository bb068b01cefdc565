"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, spans, speed, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_pass(workload: str) -> tuple[dict, dict]:
    result = run.run_child(workload, 0, True, f"test-{workload}")
    assert "error" not in result, result.get("error")
    return result, spans.load_spans(run.HERE / "out" / f"spans-{workload}.bin")


@pytest.fixture(scope="module")
def ball_traced():
    return _traced_pass("ball-experiments")


def _calls(loaded: dict, name: str) -> int:
    nid = loaded["names"].index(name)
    return sum(1 for x in loaded["name_of"] if x == nid)


def test_ball_experiments_traced_counts(ball_traced):
    result, loaded = ball_traced
    layers = result["layers"]
    assert result["failures"] == []
    assert layers["network.builds"] == 24
    assert round(layers["network.build.distinct_ratio"] * 24) == 8
    assert _calls(loaded, "exit_time.exit_time_profile") == 4
    assert _calls(loaded, "harnack.weh_ratio") == 16
    assert loaded["run_id"] == "test-ball-experiments"


def _assert_decomposition(result: dict, loaded: dict) -> None:
    """Self times are non-negative, children lie inside parents, and spans cover the pass."""
    layers = result["layers"]
    own = spans.self_times(loaded)
    assert min(own) >= -1e-9
    start, end, parent = loaded["start"], loaded["end"], loaded["parent"]
    for i, p in enumerate(parent):
        assert start[i] <= end[i]
        if p >= 0:
            assert p < i and start[p] <= start[i] and end[i] <= end[p], (i, p)
    layer_total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_total == pytest.approx(sum(own), rel=1e-9)
    assert layers["trace.gap_s"] >= 0
    assert layers["trace.coverage_frac"] >= 0.9


def test_self_times_and_gaps_add_up_to_traced_wall(ball_traced):
    _assert_decomposition(*ball_traced)


def test_exact_networks_spans_cover_the_pass():
    result, loaded = _traced_pass("exact-networks")
    assert result["failures"] == []
    _assert_decomposition(result, loaded)
    assert result["layers"]["dirichlet.solves.exact"] > 0


def test_self_time_subtracts_child_spans():
    # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,6]; E [12,13]
    # is a second top-level span; the pass lasts 15 s.
    names = ["network.ball", "network.schur_trace", "addressing.canonicalize", "cli.main"]
    loaded = {
        "names": names,
        "name_of": array("i", [0, 1, 2, 2, 3]),
        "parent": array("i", [-1, 0, 1, 0, -1]),
        "start": array("d", [0, 1, 2, 5, 12]),
        "end": array("d", [10, 4, 3, 6, 13]),
    }
    assert spans.self_times(loaded) == [6, 2, 1, 1, 1]
    m = spans.layer_metrics(loaded, 15.0)
    assert m["network.self_s"] == 8 and m["addressing.self_s"] == 2 and m["cli.self_s"] == 1
    assert m["addressing.canonicalize.calls"] == 2
    assert m["trace.gap_s"] == 4 and m["trace.coverage_frac"] == pytest.approx(11 / 15)


def test_traced_wrappers_cover_every_alias():
    from dendrite import checks, cli, exit_time, network
    from dendrite.metric import Metric

    originals = (network.ball_graph, cli._COMMANDS["ehi"], Metric.dist)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert exit_time.ball_graph is network.ball_graph is checks.ball_graph
        assert network.ball_graph.__wrapped__ is originals[0]
        assert cli._COMMANDS["ehi"] is cli.cmd_ehi and cli.cmd_ehi.__wrapped__ is originals[1]
        assert Metric.dist.__wrapped__ is originals[2]
        Metric().dist(("", 2), ("", 3))
        assert tracer.names[tracer.name_of[0]] == "metric.Metric.dist"
    finally:
        tracer.uninstall()
    assert (network.ball_graph, cli._COMMANDS["ehi"], Metric.dist) == originals
    assert exit_time.ball_graph is originals[0]


def test_perturbed_output_is_counted_as_failed():
    ops = [op for op in workloads.exact_networks(0) if op.name.startswith("resistance L=")][:4]
    run_ok = ops[1].run
    ops[1].run = lambda: run_ok() + 1
    ops[2].run = lambda: 1 / 0
    failures = workloads.check_ops(ops, workloads.run_ops(ops))
    assert [f["kind"] for f in failures] == ["wrong", "crash"]
    assert "Traceback" in failures[1]["detail"] and "ZeroDivisionError" in failures[1]["detail"]

    ehi = [op for op in workloads.ball_experiments(0) if op.name.startswith("ehi")]
    code, text = ehi[0].run()
    ehi[0].check((code, text))
    with pytest.raises(workloads.WrongOutput, match="sha256"):
        ehi[0].check((code, text.replace("0.", "1.", 1)))

    times = {"wall_s": 1.0, "raw_wall_s": 1.5, "setup_s": 0.1, "raw_setup_s": 0.15, "peak_rss_mb": 20.0}
    passes = [{**times, "attempted": len(ops), "failures": failures}]
    result, lines = run.summarize("exact-networks", 0, {"plain": passes, "traced": [], "errors": []}, False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 2)
    assert "fail_frac 0.5 (2/4)" in lines[0]


def test_quadrature_touches_no_network_or_solver():
    result, loaded = _traced_pass("quadrature")
    layers = result["layers"]
    assert result["failures"] == []
    assert layers["network.builds"] == 0 and layers["network.calls"] == 0
    assert layers["dirichlet.solves.exact"] == 0 and layers["dirichlet.solves.float"] == 0
    _assert_decomposition(result, loaded)


def test_generator_spans_cover_each_resume_inside_the_consumer():
    from dendrite import addressing, network

    tracer = spans.Tracer()
    tracer.install()
    try:
        g = network.build_level_graph(2, Fraction(1, 2))
    finally:
        tracer.uninstall()
    loaded = tracer.spans()
    names = [loaded["names"][n] for n in loaded["name_of"]]
    resumes = [i for i, n in enumerate(names) if n == "addressing.words_of_length"]
    # 16 words of length 2, then the resume that ends the generator.
    assert len(resumes) == len(list(addressing.words_of_length(2))) + 1 == 17
    for i in resumes:
        assert names[loaded["parent"][i]] == "network.build_cells_graph"
    assert min(spans.self_times(loaded)) >= 0
    assert g.level == 2


def test_probe_leaves_collections_to_the_program():
    collected = []

    def note(phase, info):
        if phase == "start":
            collected.append(info["generation"])

    threshold = gc.get_threshold()
    gc.callbacks.append(note)
    gc.set_threshold(1)
    try:
        speed.probe()
        during = len(collected)
        assert gc.isenabled()
        [[] for _ in range(10)]
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(note)
    assert during == 0 and collected


def test_one_slow_probe_does_not_lower_the_pass_time():
    ref = speed.REFERENCE_S
    steady = [(k * (speed.PERIOD_S + ref), ref) for k in range(11)]
    raw, scaled = speed.scaled_time(steady)
    assert scaled == pytest.approx(raw) == pytest.approx(10 * speed.PERIOD_S)
    # A probe that paid for a full collection of the program's heap.
    slow = list(steady)
    slow[5] = (slow[5][0], 0.2)
    slow[6:] = [(t + 0.2 - ref, d) for t, d in slow[6:]]
    raw_slow, scaled_slow = speed.scaled_time(slow)
    assert raw_slow == pytest.approx(raw) and scaled_slow == pytest.approx(scaled)
    # A core at half speed throughout still halves the pass time.
    half = [(k * (2 * speed.PERIOD_S + 2 * ref), 2 * ref) for k in range(11)]
    assert speed.scaled_time(half)[1] == pytest.approx(10 * speed.PERIOD_S)


def test_metric_names_match_benchmark_json(ball_traced):
    result, _ = ball_traced
    produced = set(result["layers"]) | {"trace.overhead_frac"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == produced
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]:
        assert m["unit"] == run._unit(m["name"]), m["name"]
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "quadrature", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
