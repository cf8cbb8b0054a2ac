"""Smoke test of the benchmark harness (tier 1, a few seconds).

Runs every workload in both modes through the ``--quick`` profile —
tiny shapes, the service embedded in-process — which is never used for
reported numbers.  Checks the contract between ``run.py`` and
``BENCHMARK.json``, not performance.
"""

import json
import re

import pytest

import compare
import run
import suite_lib as lib

SPEC = lib.load_benchmark_json()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_cache = {}


def quick_run(tmp_path_factory, workload, seed, trace, repeat=0):
    """One ``--quick`` run's full record (cached per test session)."""
    key = (workload, seed, trace, repeat)
    if key not in _cache:
        out = tmp_path_factory.mktemp("suite") / "runs.json"
        code = run.main([
            "--workload", workload, "--seed", str(seed), "--seconds", "0.05",
            "--trace", str(trace), "--quick", "--out", str(out),
        ])
        (record,) = json.loads(out.read_text())
        record["exit_code"] = code
        record["out_file"] = str(out)
        _cache[key] = record
    return _cache[key]


def test_benchmark_json_names_what_the_harness_has():
    assert set(WORKLOADS) == set(run.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert NAME_RE.match(entry["name"]), entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(tmp_path_factory, workload, trace):
    record = quick_run(tmp_path_factory, workload, 0, trace)
    assert record["exit_code"] == 0 and record["correct"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = record["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and UNIT_RE.match(got["unit"])
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]  # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_counts(tmp_path_factory, workload):
    for trace in (0, 1):
        first = quick_run(tmp_path_factory, workload, 0, trace)
        again = quick_run(tmp_path_factory, workload, 0, trace, repeat=1)
        assert compare.fixed_values(first) == compare.fixed_values(again)
    base = quick_run(tmp_path_factory, workload, 0, 0)
    other = quick_run(tmp_path_factory, workload, 1, 0)
    assert other["input_digest"] != base["input_digest"]


def test_compare_a_against_itself(tmp_path_factory, capsys):
    record = quick_run(tmp_path_factory, WORKLOADS[0], 0, 0)
    assert compare.main([record["out_file"], record["out_file"]]) == 0
    assert "0 differ" in capsys.readouterr().out
