"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import make_reference
import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "tiny-hh": run.Workload("hh", (run.Recipe("a_n", 3),)),
    "tiny-check": run.Workload("check", (
        run.Recipe("a_n", 3),
        *(run.Recipe("generate_dsl", s) for s in range(3)),
        # this one hits the documented chain-maps red
        run.Recipe("generate_dsl", 47),
    )),
}


@pytest.fixture(scope="module")
def reference():
    return make_reference.build(TINY)


def bench(monkeypatch, capsys, tmp_path, reference, workload, trace):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"inputs": reference}))
    monkeypatch.setattr(run, "REFERENCE", path)
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    assert run.main(["--workload", workload, "--seed", "7",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_prints(monkeypatch, capsys, tmp_path, reference,
                                   workload, trace):
    result = bench(monkeypatch, capsys, tmp_path, reference, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_corrupted_reference_entry_counts_as_failure(
        monkeypatch, capsys, tmp_path, reference):
    corrupted = json.loads(json.dumps(reference))
    corrupted["generate_dsl(1)"]["hh_dims"][0] += 1
    result = bench(monkeypatch, capsys, tmp_path, corrupted, "tiny-check", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // len(
        TINY["tiny-check"].recipes)


def test_chain_maps_red_is_counted_not_failed(monkeypatch, capsys, tmp_path,
                                              reference):
    assert reference["generate_dsl(47)"]["exit"] == 3
    result = bench(monkeypatch, capsys, tmp_path, reference, "tiny-check", 1)
    assert result["failed"] == 0
    assert result["metrics"]["checks.chain_maps_red"]["value"] == 1


def test_missing_entry_point_is_an_absent_metric(monkeypatch, capsys,
                                                 tmp_path, reference):
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + [
        ("resolution.renamed", "stringcoh.resolution", "Resolution.gone", None),
        ("cup.renamed", "stringcoh.cup", "gone", None),
    ])
    result = bench(monkeypatch, capsys, tmp_path, reference, "tiny-check", 1)
    assert result["correct"] is True
    assert not any("renamed" in name for name in result["metrics"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "check-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
