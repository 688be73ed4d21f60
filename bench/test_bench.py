"""Tests of the benchmark itself, on one round of each workload.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from tracer import LAYER_NAMES  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Layers each workload must reach; a missed rebinding shows as zero calls.
USED_LAYERS = {
    "build": {"operator_basis.gell_mann_basis", "gsic.feasible_t",
              "gsic.construct_gsic", "gsic.validate_gsic", "gsic.write_gsic",
              "gsic.read_gsic", "cli.main"},
    "detect": {"states.isotropic", "states.bell_diagonal",
               "states.diagonal_mixture", "states.random_separable",
               "states.from_matrix", "states.read_state",
               "criteria.j_bipartite", "criteria.detect_bipartite",
               "oracle.ppt_test"},
    "scan": {"operator_basis.gell_mann_basis", "gsic.construct_gsic",
             "states.isotropic", "states.bell_diagonal",
             "states.diagonal_mixture", "criteria.j_bipartite", "cli.main"},
    "multiparty": {"states.random_separable", "criteria.j_multipartite"},
}


def _tiny(name: str, trace: bool, workdir: Path) -> dict:
    return run.measure(name, seed=3, seconds=0, trace=trace,
                       workdir=workdir, min_ops=1)


def test_every_layer_is_expected_somewhere():
    assert set().union(*USED_LAYERS.values()) == set(LAYER_NAMES)
    assert set(USED_LAYERS) == set(run.WORKLOAD_NAMES)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_printed_with_units(name, tmp_path, capsys):
    result = _tiny(name, False, tmp_path)
    assert result["failed"] == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    run._print_result(name, 3, result)
    out = capsys.readouterr().out
    for m in SPEC["end_to_end"]:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"] and metric["value"] > 0
        assert re.search(rf"^\s+{m['name']}\s+\S+ {re.escape(m['unit'])}$",
                         out, re.M)
    assert re.search(r"^\s+fail_ratio\s+0 ratio", out, re.M)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_layers_called_and_counts_repeat(name, tmp_path):
    first = _tiny(name, True, tmp_path / "a")
    second = _tiny(name, True, tmp_path / "b")
    assert first["failed"] == 0 and second["failed"] == 0
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    calls = {k: v["value"] for k, v in first["metrics"].items()
             if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items()
                     if k.endswith(".calls")}
    for layer in USED_LAYERS[name]:
        assert calls[f"{layer}.calls"] >= 1, layer


def test_traced_run_stops_after_its_seconds(tmp_path):
    start = time.perf_counter()
    result = run.measure("multiparty", seed=3, seconds=1, trace=True,
                         workdir=tmp_path)
    assert time.perf_counter() - start < 60
    assert result["failed"] == 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "multiparty",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
