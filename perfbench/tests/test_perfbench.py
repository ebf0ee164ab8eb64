"""Tests of the benchmark itself, not of randlab.

    python3 -m pytest perfbench/tests

Run from the root of a randlab checkout.  They take about a minute: the
fireworks cases use only its two small bundled scenarios, the other
workloads run whole.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import randlab.cli  # noqa: E402,F401  (every module, before any snapshot)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Scenarios kept per workload; None keeps them all.
CASES = {"fireworks": ("fireworks_small", "fireworks_duet"),
         "steering": None, "seeded_mix": None}


def _bench(workload: str, tmp_path: Path) -> run.Bench:
    bench = run.Bench(workload, 1, tmp_path / workload)
    keep = CASES[workload]
    if keep is not None:
        bench.scenarios = [s for s in bench.scenarios if s.name in keep]
    return bench


def _attributes() -> dict:
    """Every attribute of every randlab module and of the classes they define."""
    import randlab.scenario

    snap = {}
    for mod in tracing._randlab_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    snap[(mod.__name__, name, attr)] = raw
    for kind, handler in randlab.scenario.HANDLERS.items():
        snap[("HANDLERS", kind)] = handler
    return snap


def test_same_seed_gives_same_scenarios_and_another_seed_other_ones():
    for name, (_, generate) in sorted(workloads.WORKLOADS.items()):
        assert json.dumps(generate(7)) == json.dumps(generate(7)), name
        assert generate(7) != generate(8), name


@pytest.mark.parametrize("workload", sorted(CASES))
def test_reports_identical_with_and_without_tracing(workload, tmp_path):
    bench = _bench(workload, tmp_path)
    before = _attributes()
    plain = bench.run_pass()
    traced, metrics = run.traced_pass(bench, tracing.Tracer())
    counted = run.counted_pass(bench)
    again = bench.run_pass()
    assert _attributes() == before, "tracing left a wrapper behind"
    assert bench.check(plain) == 0 and bench.check(again) == 0, bench.failures
    assert traced.files == plain.files == again.files
    assert metrics["self_sum_s"] <= traced.wall_s
    assert counted["bitstring.calls"] > 0


def test_check_counts_a_changed_report_and_a_false_check_column(tmp_path):
    bench = _bench("seeded_mix", tmp_path)
    bench.scenarios = [s for s in bench.scenarios if s.name == "kg_roundtrip"]
    golden = bench.scenarios[0].expected
    fname = sorted(golden)[0]
    golden[fname] = golden[fname] + b"\n"
    assert bench.check(bench.run_pass()) == 1
    assert bench.attempted == 2 and fname in bench.failures[0]
    assert run._own_check_failures(b"a,within_bound,failures\n1,yes,0\n2,no,3\n") == (
        2, ["within_bound=no", "failures=3"])


def test_control_build_runs_beside_the_program_and_matches_the_goldens(tmp_path):
    sys.path.insert(1, str(run.CONTROL))
    bench = _bench("seeded_mix", tmp_path)
    bench.scenarios = [s for s in bench.scenarios
                       if s.name in ("conversion_sweep", "kg_roundtrip")]
    p = bench.run_pass((run.CONTROL_BUILD, run.PROGRAM))
    assert bench.check(p) == 0 and bench.failures == []
    assert len(p.control_wall_s) == len(p.scenario_wall_s) == 2
    for scen in bench.scenarios:
        d = bench.out / f"reports_{run.CONTROL_BUILD}" / scen.name
        assert {f.name: f.read_bytes() for f in d.iterdir()} == scen.expected
    import randlab.cli
    import randlab_control.cli
    assert randlab_control.cli.main is not randlab.cli.main


def test_trace_reaches_names_bound_at_import(tmp_path):
    # fireworks_small has one adversary with 4 cap values: sweep runs all 4
    # twice, axes 4 through scenario's own binding of run_fireworks, extract
    # 4 twice, and the probe 1 through that binding too.
    bench = _bench("fireworks", tmp_path)
    bench.scenarios = [s for s in bench.scenarios if s.name == "fireworks_small"]
    metrics = run.traced_pass(bench, tracing.Tracer())[1]
    assert metrics["fireworks.runs"] == 21
    assert metrics["scenario.experiments"] == 4


@pytest.mark.parametrize("workload", sorted(CASES))
def test_counts_repeat_across_traced_passes(workload, tmp_path):
    bench = _bench(workload, tmp_path)
    tracer = tracing.Tracer()
    first = run.traced_pass(bench, tracer)[1]
    second = run.traced_pass(bench, tracer)[1]
    assert {k: first[k] for k in run.COUNT_METRICS} == {k: second[k] for k in run.COUNT_METRICS}
    assert run.counted_pass(bench) == run.counted_pass(bench)
    assert bench.failures == []


def _bench_json(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_run_prints_the_declared_metrics():
    done = _bench_json(["--workload", "seeded_mix", "--seed", "3", "--seconds", "1",
                        "--trace", "0"], ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")


def test_count_metrics_repeat_across_two_traced_runs():
    args = ["--workload", "seeded_mix", "--seed", "3", "--seconds", "0", "--trace", "1"]
    results = []
    for _ in range(2):
        done = _bench_json(args, ROOT)
        assert done.returncode == 0, done.stdout + done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert {k: v["unit"] for k, v in results[0]["metrics"].items()} == _declared("per_layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
              for r in results]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench_json(["--workload", "seeded_mix", "--seed", "0", "--seconds", "1",
                        "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
