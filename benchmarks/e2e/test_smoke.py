"""Smoke test of the benchmark itself (not part of the tier-1 suite:
``pytest benchmarks/e2e/test_smoke.py``)."""

import json
import re
import subprocess
import sys

import pytest

import bootstrap
from estimators import geomean, spread, weighted_quantile
from metrics import END_TO_END, PER_LAYER, UNITS
from workloads import SPECS, WORKLOADS

RUN = [sys.executable, str(bootstrap.BENCH_DIR / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared():
    with open(bootstrap.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def smoke(workload: str, trace: int, seed: int = 7):
    done = subprocess.run(
        RUN + ["--smoke", "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)],
        capture_output=True, text=True, cwd=bootstrap.ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_the_registry(declared):
    assert set(declared) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert declared["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in END_TO_END]
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in PER_LAYER]
    assert declared["workloads"] == [
        {"name": name, "why": SPECS[name].why} for name in WORKLOADS]
    assert declared["paths"] == [
        str(bootstrap.BENCH_DIR.relative_to(bootstrap.ROOT))]


def test_names_units_and_limits(declared):
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(unit) for unit in UNITS.values())
    assert len(declared["end_to_end"]) <= 16
    assert len(declared["per_layer"]) <= 128
    assert 2 <= len(declared["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        declared["end_to_end"][0].items()


def test_weighted_quantile_two_classes():
    medians = {"page_read": 5.0, "order_write": 65.0}
    shares = {"page_read": 4, "order_write": 1}
    assert weighted_quantile(medians, shares, 0.5) == 5.0
    assert weighted_quantile(medians, shares, 0.9) == 65.0
    # exactly on the boundary between the classes: their mean
    assert weighted_quantile(medians, shares, 0.8) == 35.0


def test_weighted_quantile_22_equal_classes():
    medians = {f"q{n:02d}": float(n) for n in range(1, 23)}
    shares = dict.fromkeys(medians, 1)
    assert weighted_quantile(medians, shares, 0.5) == 11.5
    assert weighted_quantile(medians, shares, 0.9) == 20.0
    assert weighted_quantile(medians, shares, 1.0) == 22.0


def test_geomean_and_spread():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        report, result = smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [row[0] for row in table]
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == UNITS[name]
            assert isinstance(metric["value"], float)
        for name in result["metrics"]:  # printed by name, with its unit
            assert any(name in line and UNITS[name] in line
                       for line in report), name
    assert (bootstrap.OUT_DIR / f"{workload}.trace.json").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    counts = [name for name, unit, _, _ in PER_LAYER if unit == "count"]
    first, second = (smoke(workload, 1)[1]["metrics"] for _ in range(2))
    assert ([first[name]["value"] for name in counts]
            == [second[name]["value"] for name in counts])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_schedule(workload):
    digests = []
    for seed in (11, 11, 12):
        report, _ = smoke(workload, 0, seed)
        digests.append(next(line for line in report
                            if "schedule sha256" in line))
    assert digests[0] == digests[1]
    # tpch_power is Q1..Q22 in order whatever the seed
    assert (digests[0] == digests[2]) == (workload == "tpch_power")
