"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""
import json
import math
from pathlib import Path

import run
import tracing
import workloads
from tracing import Span, Tracer, layer_metrics, self_time

HERE = Path(__file__).resolve().parent


def _span(sid, name, start, end, parent=None, **attrs):
    return Span(sid, name, start, end, parent, "synthetic", attrs)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    parent = _span(0, "cli.run", 0.0, 10.0)
    kids = [_span(1, "a", 1.0, 3.0, 0), _span(2, "b", 2.0, 5.0, 0),
            _span(3, "c", 9.0, 12.0, 0)]
    # covered: [1, 5] and [9, 10]
    assert self_time(parent, kids) == 5.0
    assert self_time(parent, []) == 10.0


def test_layer_metrics_on_a_synthetic_span_tree():
    spans = [
        _span(0, "cli.run", 0.0, 10.0),
        _span(1, "census.poset_side", 1.0, 4.0, 0, family="tree", size=6),
        _span(2, "census.poset_side", 1.5, 3.5, 1, family="tree", size=6),
        _span(3, "census.count_dissections", 4.0, 7.0, 0),
        _span(4, tracing._ENUMERATE, 4.0, 7.0, 3,
              clazz="framed-quad-free", size=3),
        _span(5, "polygon.is_diagonally_framed", 5.0, 5.5, 4),
        _span(6, "polygon.empty_faces", 5.5, 6.0, 4),
        _span(7, "polygon.is_diagonally_framed", 6.0, 6.5, 4),
        _span(8, "polygon.is_diagonally_framed", 8.0, 8.5, 0),
    ]
    m = layer_metrics(spans)
    assert m["census.poset_side_s.tree"] == 3.0  # outermost call only
    assert m["census.poset_side_calls"] == 1
    assert m["census.families"] == 6
    assert m["census.dissection_side_s"] == 3.0
    assert m["polygon.search_s.framed-quad-free"] == 3.0
    assert m["polygon.dissections"] == 3
    assert m["polygon.leaf_check_s"] == 1.5  # span 8 is not under a search
    assert m["polygon.leaf_checks"] == 2
    assert m["polygon.leaf_checks_per_dissection"] == 2 / 3
    assert m["cli.self_s"] == 10.0 - 3.0 - 3.0 - 0.5
    assert m["census.realize_p99_ms"] == 0.0  # the layer did not run


def test_a_search_without_leaf_checks_reads_zero_checks_per_dissection():
    spans = [_span(0, tracing._ENUMERATE, 0.0, 2.0,
                   clazz="framed-quad-free", size=5795),
             _span(1, "polygon.is_diagonally_framed", 3.0, 3.5)]
    m = layer_metrics(spans)
    assert m["polygon.dissections"] == 5795
    assert m["polygon.leaf_checks"] == 0
    assert m["polygon.leaf_checks_per_dissection"] == 0.0


def test_hooks_see_intra_module_calls_and_are_removed_afterwards():
    census = workloads.census
    original = census.count_dissections
    tracer = Tracer()
    with tracing.installed(tracer):
        assert census.count_dissections(5, census.DissectionClass.FRAMED_QUAD_FREE) == 12
    assert census.count_dissections is original
    assert all(not math.isnan(s.end) for s in tracer.spans)
    m = layer_metrics(tracer.spans)
    assert m["census.dissection_side_calls"] == 1
    assert m["polygon.dissections"] == 12
    # the framed search's leaf checks call polygon's own predicates
    assert m["polygon.leaf_checks"] > 0


def test_a_wrong_expected_term_fails_its_row():
    rows = [{"n": n, "poset_count": c, "dissection_count": c, "match": True}
            for n, c in ((1, 1), (2, 1), (3, 3))]
    report = json.dumps({"rows": rows})
    good = {1: 1, 2: 1, 3: 3}
    assert workloads.check_census(0, report, good) == [True] * 3
    outcomes = workloads.check_census(0, report, {1: 1, 2: 1, 3: 4})
    attempted, failed = workloads.score(outcomes, 3)
    assert (attempted, failed) == (3, 1)
    # a failing exit code or a missing report fails every row
    assert workloads.check_census(2, report, good) == [False] * 3
    assert workloads.check_census(0, None, good) == [False] * 3
    # an unexpected row is a failure too
    assert workloads.check_census(0, report, {1: 1, 2: 1}) == [True, True, False]


def test_expected_census_terms_align_with_the_offsets():
    tree = workloads.CensusCommand("tree", 1, 8, "b054515.txt", 1).expected()
    assert tree[1] is None and tree[2] == 1 and tree[8] == 1198
    blockwise = workloads.CensusCommand("blockwise", 4, 10, "b054514.txt", 3)
    assert list(blockwise.expected().values()) == [1, 1, 1, 5, 10, 16, 45]


def test_verify_lines_are_checked_one_by_one():
    expected = workloads.verify_lines(2)
    assert len(expected) == 14
    stdout = "\n".join(expected) + "\n"
    assert workloads.check_verify(0, stdout, expected) == [True] * 14
    failing = stdout.replace("n=2 overlap-closure: pass",
                             "n=2 overlap-closure: FAIL (2413)")
    assert workloads.check_verify(2, failing, expected) == [False] * 14
    assert workloads.check_verify(0, failing, expected).count(False) == 1
    assert workloads.score(workloads.check_verify(0, "", expected), 14) == (14, 14)


def test_a_pass_that_attempts_no_ops_fails_every_expected_op():
    assert workloads.score([], 16) == (16, 16)
    assert workloads.score([True] * 6, 7) == (7, 7)
    assert workloads.score([True] * 7, 7) == (7, 0)


def test_setup_probes_run_under_a_launcher_of_their_own():
    prober = run.SetupProber("verify")
    try:
        times = prober.probe(2)
    finally:
        prober.close()
    assert len(times) == 2 and all(t > 0 for t in times)


def test_a_span_costs_a_positive_time():
    assert tracing.span_cost(calls=2000, rounds=3) > 0


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS.values())
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
