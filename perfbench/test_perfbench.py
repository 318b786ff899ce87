"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(sid, name, start, end, parent=None):
    return tracer.Span(sid, name, start, end, parent, item=0, d=2, n=3)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "operators.commutator_residual", 1.0, 4.0, parent=0),
        _span(2, "linalg.op_norm", 2.0, 3.0, parent=1),
        _span(3, "ed.build_chain", 5.0, 9.0, parent=0),
        # overlaps its sibling and runs past its parent: only [9, 10] is new cover
        _span(4, "ed.integer_spectrum", 8.0, 12.0, parent=0),
        _span(5, "linalg.op_norm", 2.25, 2.75, parent=2),
    ]
    assert tracer.self_times(spans) == [2.0, 2.0, 0.5, 4.0, 4.0, 0.5]
    prof = tracer.profile(spans)
    assert prof.self_s["ed"] == 8.0 and prof.self_s["cli.main"] == 2.0
    assert prof.inclusive_s["operators.commutator_residual"] == 3.0
    assert prof.inclusive_s["cli.main"] == 10.0
    # a span inside a span of the same function is not counted twice
    assert prof.inclusive_s["linalg.op_norm"] == 1.0
    assert prof.calls["linalg.op_norm"] == 2


def test_tail_is_highest_percentile_with_ten_items_beyond():
    xs = list(range(1, 101))
    random.Random(0).shuffle(xs)
    assert bench.tail(xs) == (90, 90.0)
    assert bench.tail(list(range(1, 12))) == (1, 100.0 / 11)
    # too few items for any percentile: the maximum
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_reference_census_matches_dense_ising_ring():
    ising = np.diag([0.0, 1.0, 1.0, 0.0])
    expected = {0: 2, 2: 6}
    assert reference.ring_spectrum(ising, 2, 3) == expected
    assert reference.census_poly([[1, 0], [0, 1]], [[0, 1], [1, 0]], 3) == expected
    assert reference.census_at([[1, 0], [0, 1]], [[0, 1], [1, 0]], 3, 1) == 2**3


def test_injected_wrong_answer_counts_in_fail_frac(tmp_path):
    import commchain.cli

    keep = ("ising-n400", "dense4-n120")
    items = [it for it in workloads.build_census(tmp_path, 3) if it.key in keep]

    def corrupting_main(argv):
        code = commchain.cli.main(argv)
        if argv[0] == "degeneracy" and "dense4-n120" in argv[2]:
            out = Path(argv[argv.index("--json") + 1])
            doc = json.loads(out.read_text())
            doc["degeneracy"]["120"] += 1
            out.write_text(json.dumps(doc))
        return code

    wl = workloads.WORKLOADS["census"]
    _, lines, attempted, failed = bench.timed(wl, 0.0, [0.1], corrupting_main, items)
    assert (attempted, failed) == (2, 1)
    assert any("FAILED dense4-n120" in line and "differs from degeneracy" in line for line in lines)
    assert any("fail_frac    0.5000" in line for line in lines)


def test_peak_rss_is_read_before_the_checks(tmp_path, monkeypatch):
    import commchain.cli

    items = [it for it in workloads.build_census(tmp_path, 3) if it.key == "ising-n400"]
    wl = workloads.WORKLOADS["census"]
    # A stand-in for ru_maxrss that the check phase raises, as its references can.
    rss = [100.0]
    monkeypatch.setattr(bench, "peak_rss_mb", lambda: rss[0])

    def check(item, docs, refs):
        rss[0] = 5000.0
        return wl.check(item, docs, refs)

    checked = dataclasses.replace(wl, check=check)
    values, _, _, failed = bench.timed(checked, 0.0, [0.1], commchain.cli.main, items)
    assert failed == 0 and rss[0] == 5000.0
    assert values["peak_rss_mb"] == 100.0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in bench.PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
