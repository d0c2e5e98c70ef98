"""Tests of the benchmark itself: metric coverage, failure counting, seeded inputs.

    python3 -m pytest rfstbench -q

Workloads are shrunk to 64x64 images here, so every run is short.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bench
import layers

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _small(name: str) -> bench.Workload:
    return replace(bench.WORKLOADS[name], size=64)


def _units(record: dict) -> dict:
    return {name: m["unit"] for name, m in record["metrics"].items()}


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", ["cli_roundtrip", "blocks_small"])
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    record = bench.end_to_end(_small(name), seed=3, seconds=0.0, workdir=tmp_path)
    assert (record["attempted"], record["failed"]) == (2 * bench.MIN_PAIRS, 0)
    assert _units(record) == {name: unit for name, (unit, _) in bench.END_TO_END.items()}
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    record = layers.traced(_small("blocks_small"), 3, 0.0, tmp_path, tmp_path / "trace.json")
    assert record["failed"] == 0
    assert _units(record) == {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    values = {name: m["value"] for name, m in record["metrics"].items()}
    assert (values["opcount.cascade_mul"], values["opcount.cascade_add"]) == (12, 6)
    assert values["regularity.reflections"] == 3
    spans = {s["name"] for s in json.loads((tmp_path / "trace.json").read_text())}
    assert {"request.forward", "cli.main_forward", "transforms.core_apply", "rdst.dense_half_apply"} <= spans


def _pairs(tmp_path, forward, inverse) -> bench.Calls:
    rfst = bench.import_rfst()
    inputs = bench.prepare(_small("blocks_small"), 5, tmp_path)
    run = bench.pair_runner(rfst, inputs, getattr(rfst, forward)(8), getattr(rfst, inverse)(8))
    return bench.closed_loop(run, 0.0)[0]


def test_wrong_inverse_is_counted_as_failure(tmp_path):
    calls = _pairs(tmp_path, "rfst", "dst2")
    assert calls.attempted == 2 * bench.MIN_PAIRS
    assert calls.failed == len(calls.inverse)
    assert all(error.startswith("round-trip error") for error in calls.errors)


def test_transform_that_is_not_regular_is_counted_as_failure(tmp_path):
    calls = _pairs(tmp_path, "dst2", "dst2")
    assert calls.failed == len(calls.forward)
    assert calls.errors[0] == "flat tile leaked into AC"


def test_same_seed_regenerates_identical_inputs():
    for w in bench.WORKLOADS.values():
        pixels, tiles = bench.make_image(w.block, w.size, 7)
        again, tiles_again = bench.make_image(w.block, w.size, 7)
        assert bench.pgm_bytes(pixels) == bench.pgm_bytes(again)
        assert np.array_equal(tiles, tiles_again)
        blocks = pixels.reshape(w.size // w.block, w.block, -1, w.block)[tiles[:, 0], :, tiles[:, 1], :]
        assert np.all(blocks == blocks[:, :1, :1])
    other, _ = bench.make_image(8, 2048, 8)
    assert bench.pgm_bytes(other) != bench.pgm_bytes(bench.make_image(8, 2048, 7)[0])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench.tail(range(20, 0, -1)) == (10, 50.0)
    with pytest.raises(ValueError):
        bench.tail(range(10))


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "rfstbench", tmp_path / "rfstbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "rfstbench/run.py", "--workload", "blocks_small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
