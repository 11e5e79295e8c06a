"""Checks of the traced run on short configurations.

    python -m pytest glitchbench/test_tracing.py

Spans must nest, the per-layer self times plus the unattributed time
must add up to the traced window's wall time, the glitcher's attempt
count must equal the scans' own totals, and BENCHMARK.json must name
exactly the metrics the benchmark reports.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from tracing import Tracer, layer_metrics, window  # noqa: E402
from workloads import HwShortGlitch, ImageRerun  # noqa: E402

#: a few hundred attempts instead of the benchmark's tens of thousands
SHORT_HW = {"cycles": 2, "copies": 1, "single_stride": 12, "single_faults": 1,
            "multi_stride": 24, "multi_faults": 0, "defense_stride": 33, "defense_faults": 0}
SHORT_IMAGE = {"sites": 4, "sampled": 1}


def traced(workload):
    workload.setup()
    tracer = Tracer()
    with window(tracer):
        raw = workload.repetition(0)
    return tracer, raw


@pytest.fixture(scope="module")
def hw_short(tmp_path_factory):
    return traced(HwShortGlitch(tmp_path_factory.mktemp("hw"), 0, SHORT_HW))


@pytest.fixture(scope="module")
def image_rerun(tmp_path_factory, monkeypatch_module):
    work = tmp_path_factory.mktemp("image")
    monkeypatch_module.setenv("REPRO_CACHE_DIR", str(work))
    workload = ImageRerun(work, 0, SHORT_IMAGE)
    tracer, raw = traced(workload)
    return workload, tracer, raw


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as patch:
        yield patch


def check_nesting(tracer):
    name, parent, start, end = tracer.arrays()
    begin, finish = tracer.window
    children = defaultdict(list)
    for sid in range(len(name)):
        assert start[sid] <= end[sid]
        p = int(parent[sid])
        assert p < sid
        if p >= 0:
            assert start[p] <= start[sid] and end[sid] <= end[p]
        else:
            assert begin <= start[sid] and end[sid] <= finish
        children[p].append(sid)
    for siblings in children.values():
        for left, right in zip(siblings, siblings[1:]):
            assert end[left] <= start[right]  # siblings never overlap


def check_accounting(tracer):
    """Self times from a plain loop; all layers plus unattributed == wall."""
    name, parent, start, end = tracer.arrays()
    own = [int(end[sid] - start[sid]) for sid in range(len(name))]
    for sid in range(len(name)):
        if parent[sid] >= 0:
            own[int(parent[sid])] -= int(end[sid] - start[sid])
    assert all(value >= 0 for value in own)
    assert sum(own) == int(tracer.self_ns().sum())
    metrics = layer_metrics(tracer, 1)
    attributed = sum(value for key, value in metrics.items()
                     if key.endswith(("self_s", "read_s", "write_s")))
    attributed += tracer.by_layer().get("setup", (0, 0))[1] / 1e9
    assert attributed + metrics["run.unattributed_s"] == pytest.approx(
        metrics["run.wall_s"], abs=1e-6)
    assert attributed == pytest.approx(sum(own) / 1e9, abs=1e-6)
    return metrics


def test_hw_spans_nest(hw_short):
    tracer, _ = hw_short
    assert len(tracer.name) > 1000
    check_nesting(tracer)


def test_hw_self_times_cover_wall(hw_short):
    tracer, _ = hw_short
    check_accounting(tracer)


def test_hw_attempts_match_scans(hw_short):
    tracer, (single, multi, defense) = hw_short
    metrics = layer_metrics(tracer, 1)
    total = (sum(scan.total_attempts for scan in single.values())
             + sum(scan.total_attempts for scan in multi.values())
             + sum(result.attempts for result in defense.values()))
    assert metrics["hw.glitcher.attempts"] == total
    assert metrics["hw.pipeline.cycles"] > 0
    assert metrics["emu.vector.calls"] == 0


def test_image_rerun_runs_no_emulation(image_rerun):
    workload, tracer, raw = image_rerun
    check_nesting(tracer)
    metrics = check_accounting(tracer)
    assert metrics["campaign.sites"] == SHORT_IMAGE["sites"]
    assert metrics["emu.vector.calls"] == 0
    assert metrics["glitchsim.harness.words_emulated"] == 0
    assert metrics["glitchsim.harness.words_requested"] > 0
    assert metrics["exec.cache.shards_read"] > 0
    assert workload.summarize(raw).errors == []
    assert workload.final_checks() == []


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
