"""Run one randlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fireworks --seed 0 --seconds 40 --trace 0

Run from the root of a randlab checkout; the program is imported from
`src/`.  One closed-loop client in one process, no threads: a pass runs
every scenario of the workload through `randlab run`, in process, with its
stdout captured, and the next pass starts when the last report is written.
Every pass's reports are checked after its clock stops.

--trace 0 prints the end-to-end metrics (see BENCHMARK.json), each time
taken against the control build in perfbench/control, which runs every
scenario right next to the program; --trace 1
prints the per-layer metrics from traced passes instead, together with
the tracing overhead.  The last line of stdout is one JSON object.  Exit
code 0 means every experiment of every pass ran and was checked correct.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import importlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
HASH_SEED = "0"

PROGRAM = "randlab"
CONTROL_BUILD = "randlab_control"  # randlab as of the commit that added this file
CONTROL = HERE / "control"         # where the control build's package lives
# The control build's seconds per workload at seed 0 on a quiet 2-vCPU Xeon
# VM (Python 3.11.7), rounded: set-up, and one pass's wall and CPU time.  A
# time metric is the program's time over the control's, measured side by
# side, times one of these, so that it reads in seconds; only its change
# across commits means anything.
CONTROL_S: Dict[str, Dict[str, float]] = {
    "fireworks": {"setup_s": 0.06, "wall_s": 2.7, "cpu_s": 2.7},
    "steering": {"setup_s": 0.06, "wall_s": 2.4, "cpu_s": 2.4},
    "seeded_mix": {"setup_s": 0.06, "wall_s": 0.47, "cpu_s": 0.47},
}
SETUP_PROBES = 10  # control and program set-up probes per run, after one untimed warm-up each
MIN_PASSES = 3     # timed passes per run, however long a pass takes

# Columns holding an experiment's own exact check, and the value each must read.
CHECK_COLUMNS = {"within_bound": "yes", "agree": "yes", "ok": "yes",
                 "decoded_inside": "yes", "stream_match": "yes", "failures": "0"}

Expected = Union[bytes, str]  # report bytes, or their SHA-256 hex digest


@dataclass
class ScenarioFile:
    name: str
    path: Path
    experiments: Tuple[str, ...]
    # Where expected report bytes come from: "golden" for bundled scenarios;
    # "digests" or "first_pass" (of the run) for the generated one.
    reference: str
    expected: Dict[str, Expected] = field(default_factory=dict)

    @property
    def generated(self) -> bool:
        return self.reference != "golden"


@dataclass
class Pass:
    scenario_wall_s: List[float]            # per scenario, in workload order
    scenario_cpu_s: List[float]
    runs: List[Tuple[Optional[int], str]]   # (exit code or None if it raised, stdout)
    files: List[Dict[str, bytes]]           # per scenario: report name -> bytes
    # The control build on the same scenarios, each run next to the program's.
    control_wall_s: List[float] = field(default_factory=list)
    control_cpu_s: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.scenario_wall_s)


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _run_cli(cli_main, scenario: Path, out: Path) -> Tuple[Optional[int], str, float, float]:
    """One `randlab run`, in process: (exit code or None, stdout, wall s, CPU s)."""
    # Each run starts from a collected heap, as in a fresh invocation; the
    # collection is outside the clock.
    gc.collect()
    buf = io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc: Optional[int] = cli_main(["run", str(scenario), "--out", str(out)])
        except Exception:
            traceback.print_exc()
            rc = None
    wall = time.perf_counter() - t0
    return rc, buf.getvalue(), wall, _cpu_s() - cpu0


def _owner(scenario: str, experiments: Tuple[str, ...], fname: str) -> Optional[str]:
    """The experiment a report file belongs to: files are '<scenario>_<exp><suffix>'."""
    best = None
    for exp in experiments:
        stem = f"{scenario}_{exp}"
        if fname.startswith(stem) and fname[len(stem):len(stem) + 1] in (".", "_"):
            if best is None or len(exp) > len(best):
                best = exp
    return best


def _own_check_failures(data: bytes) -> Tuple[int, List[str]]:
    """(number of checked columns, failing 'column=value' cells) of one CSV report."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows:
        return 0, []
    header, body = rows[0], rows[1:]
    cols = [(i, name) for i, name in enumerate(header) if name in CHECK_COLUMNS]
    bad = [f"{name}={row[i]}" for row in body for i, name in cols
           if row[i] != CHECK_COLUMNS[name]]
    return len(cols), bad


class Bench:
    """One workload at one seed: its scenario files, passes and checks."""

    def __init__(self, workload: str, seed: int, out: Path) -> None:
        from randlab.scenario import GOLDEN_DIR, SCENARIO_DIR

        self.workload = workload
        self.out = out
        if out.exists():
            shutil.rmtree(out)
        (out / "scenarios").mkdir(parents=True)
        bundled, generate = workloads.WORKLOADS[workload]
        self.scenarios: List[ScenarioFile] = []
        for name in bundled:
            path = SCENARIO_DIR / f"{name}.json"
            golden = {p.name: p.read_bytes() for p in sorted((GOLDEN_DIR / name).iterdir())}
            self.scenarios.append(ScenarioFile(name, path, self._experiment_names(path),
                                               "golden", golden))
        doc = generate(seed)
        path = out / "scenarios" / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        if seed == DEFAULT_SEED:
            digests = json.loads(DIGESTS.read_text()).get(workload, {})
            gen = ScenarioFile(doc["name"], path, self._experiment_names(path), "digests",
                               dict(digests))
        else:
            gen = ScenarioFile(doc["name"], path, self._experiment_names(path), "first_pass")
        self.scenarios.append(gen)
        self.attempted = 0
        self.failures: List[str] = []

    @staticmethod
    def _experiment_names(path: Path) -> Tuple[str, ...]:
        return tuple(e["name"] for e in json.loads(path.read_text())["experiments"])

    @property
    def experiments_per_pass(self) -> int:
        return sum(len(s.experiments) for s in self.scenarios)

    def setup_probe(self, control: bool = False) -> float:
        """Set-up seconds of one fresh interpreter; see setup_probe.py."""
        cmd = [sys.executable, str(HERE / "setup_probe.py")] + (["--control"] if control else [])
        cmd += [str(s.path) for s in self.scenarios]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def run_pass(self, builds: Tuple[str, ...] = (PROGRAM,)) -> Pass:
        """Every scenario through `randlab run`; timed, then nothing else.

        Each of `builds` (PROGRAM, CONTROL_BUILD) runs each scenario in turn:
        in the order given for the first scenario, reversed for the next,
        and so on, so that neither build always runs first.
        """
        main = {build: importlib.import_module(f"{build}.cli").main for build in builds}
        reports = {build: self.out / f"reports_{build}" for build in builds}
        for d in reports.values():
            if d.exists():
                shutil.rmtree(d)
        p = Pass([], [], [], [])
        for i, scen in enumerate(self.scenarios):
            for build in builds if i % 2 == 0 else builds[::-1]:
                rc, stdout, wall, cpu = _run_cli(main[build], scen.path, reports[build] / scen.name)
                if build == CONTROL_BUILD:
                    self._check_control(scen, rc, stdout)
                    p.control_wall_s.append(wall)
                    p.control_cpu_s.append(cpu)
                else:
                    p.runs.append((rc, stdout))
                    p.scenario_wall_s.append(wall)
                    p.scenario_cpu_s.append(cpu)
        for scen in self.scenarios if PROGRAM in builds else ():
            d = reports[PROGRAM] / scen.name
            p.files.append({f.name: f.read_bytes() for f in sorted(d.iterdir())} if d.is_dir() else {})
        return p

    def _check_control(self, scen: ScenarioFile, rc: Optional[int], stdout: str) -> None:
        """A control run that did not finish every experiment measured nothing."""
        done = sum(1 for line in stdout.splitlines()
                   if line.startswith("experiment ") and line.endswith(": ok"))
        if rc != 0 or done != len(scen.experiments):
            self.failures.append(f"control build on {scen.name}: exit {rc}, "
                                 f"{done} of {len(scen.experiments)} experiments ok")

    def check(self, p: Pass) -> int:
        """Check every experiment of a pass; record and return the failures.

        An experiment fails if the CLI exits with an error, its RunFact is
        not ok, a report differs from the reference (golden files for
        bundled scenarios; digests at the default seed, else the run's first
        pass, for generated ones), or a generated report's own exact check
        columns read false.
        """
        before = len(self.failures)
        for scen, (rc, stdout), files in zip(self.scenarios, p.runs, p.files):
            status = {}
            for line in stdout.splitlines():
                if line.startswith("experiment ") and ": " in line:
                    name, _, word = line[len("experiment "):].rpartition(": ")
                    status[name] = word
            mine: Dict[str, Dict[str, bytes]] = {e: {} for e in scen.experiments}
            for fname, data in files.items():
                owner = _owner(scen.name, scen.experiments, fname)
                if owner is not None:
                    mine[owner][fname] = data
            first_pass = scen.reference == "first_pass" and not scen.expected
            for exp in scen.experiments:
                self.attempted += 1
                why = self._why_failed(scen, exp, rc, status.get(exp), mine[exp])
                if why:
                    self.failures.append(f"{scen.name}/{exp}: {why}")
                elif first_pass:
                    scen.expected.update(mine[exp])
        return len(self.failures) - before

    @staticmethod
    def _why_failed(scen: ScenarioFile, exp: str, rc: Optional[int], status: Optional[str],
                    files: Dict[str, bytes]) -> str:
        if rc is None or rc not in (0, 1):
            return f"randlab run exited with {rc}"
        if status != "ok":
            return f"RunFact {status or 'missing'}"
        if not files:
            return "no report written"
        if scen.generated:
            checked = 0
            for fname, data in files.items():
                if fname.endswith(".csv"):
                    n, bad = _own_check_failures(data)
                    checked += n
                    if bad:
                        return f"{fname}: {', '.join(bad[:3])}"
            if not checked:
                return "no exact check column in its reports"
        expected = {f: v for f, v in scen.expected.items()
                    if _owner(scen.name, scen.experiments, f) == exp}
        if not expected and scen.reference == "digests":
            return "no digest kept for its reports"
        if expected:
            if sorted(expected) != sorted(files):
                return f"report files {sorted(files)} != {sorted(expected)}"
            for fname, data in files.items():
                want = expected[fname]
                got: Expected = data if isinstance(want, bytes) else hashlib.sha256(data).hexdigest()
                if got != want:
                    return f"{fname} differs from its reference"
        return ""

    def result(self, metrics: Dict[str, Tuple[float, str]]) -> dict:
        return {"correct": not self.failures and self.attempted > 0,
                "attempted": self.attempted, "failed": len(self.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def end_to_end(bench: Bench, seconds: float) -> Dict[str, Tuple[float, str]]:
    start = time.perf_counter()
    for control in (False, True):
        bench.setup_probe(control)  # untimed: brings the sources into the file cache
    # Both builds are imported before any run, so that neither's code and
    # module data sit among the leftovers of the other's runs.
    for build in (PROGRAM, CONTROL_BUILD):
        importlib.import_module(f"{build}.cli")
    first = bench.run_pass()
    # This process is fresh: it has done set-up and exactly one pass so far,
    # and has imported, but not run, the control build.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench.check(first)
    control = bench.run_pass((CONTROL_BUILD,))
    first.control_wall_s, first.control_cpu_s = control.control_wall_s, control.control_cpu_s
    passes: List[Pass] = [first]
    setups: List[Tuple[float, float]] = []   # (program, control) seconds
    # Set-up probes are spread evenly over the run, between passes.
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            setups.append(_setup_pair(bench, control_first=len(setups) % 2 == 1))
        elif len(passes) >= MIN_PASSES and elapsed + _pair_s(passes[-1]) > seconds:
            break
        else:
            builds = (PROGRAM, CONTROL_BUILD) if len(passes) % 2 else (CONTROL_BUILD, PROGRAM)
            p = bench.run_pass(builds)
            bench.check(p)
            passes.append(p)
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_pair(bench, control_first=len(setups) % 2 == 1))

    (bench.out / "times.json").write_text(json.dumps({
        "scenarios": [scen.name for scen in bench.scenarios],
        "setup_s": setups,
        "passes": [{k: getattr(p, k) for k in ("scenario_wall_s", "control_wall_s",
                                                "scenario_cpu_s", "control_cpu_s")}
                   for p in passes]}, indent=1) + "\n")
    # (program, control) seconds of each probe pair and each pass.  A pair's
    # two halves ran seconds apart at most, so their ratio cancels the
    # host's drift; the median over the run drops pairs split by a burst.
    pairs = {
        "setup_s": setups,
        "wall_s": [(p.wall_s, sum(p.control_wall_s)) for p in passes],
        "cpu_s": [(sum(p.scenario_cpu_s), sum(p.control_cpu_s)) for p in passes],
    }
    print(f"{len(passes)} passes of {bench.experiments_per_pass} experiments and "
          f"{len(setups)} set-up probes, each by the program and by the control build; medians:")
    ratios = {}
    for name, both in pairs.items():
        ratios[name] = statistics.median(a / b for a, b in both)
        print(f"{name:12} program {statistics.median(a for a, _ in both):.4f} s, control build "
              f"{statistics.median(b for _, b in both):.4f} s, ratio {ratios[name]:.4f}")
    control_s = CONTROL_S[bench.workload]
    return {
        **{name: (control_s[name] * ratio, "s") for name, ratio in ratios.items()},
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "ok_frac": (1 - len(bench.failures) / max(bench.attempted, 1), "ratio"),
    }


def _setup_pair(bench: Bench, control_first: bool) -> Tuple[float, float]:
    """(program, control) set-up seconds, probed one right after the other."""
    if control_first:
        control = bench.setup_probe(control=True)
        return bench.setup_probe(), control
    program = bench.setup_probe()
    return program, bench.setup_probe(control=True)


def _pair_s(p: Pass) -> float:
    return p.wall_s + sum(p.control_wall_s)


def _layer_metrics(tracer: tracing.Tracer, p: Pass) -> Dict[str, float]:
    """Counts and self times of one traced pass."""
    self_s = tracer.self_times()
    queries = tracer.count(*tracing.STAGED_QUERIES)
    runs = tracer.count("run_fireworks")
    attempts = tracer.scheme_attempts
    m = {
        "cylinders.ops": tracer.count(*tracing.CYLINDER_OPS),
        "cylinders.builds": tracer.count(*tracing.CYLINDER_BUILDS),
        "staged.queries": queries,
        "staged.repeat_ratio": tracer.query_repeats / queries if queries else 0.0,
        "fireworks.runs": runs,
        "fireworks.behaviours": len(tracer.behaviours),
        "fireworks.useful_ratio": len(tracer.behaviours) / runs if runs else 0.0,
        "coding.kucera_depth_calls": tracer.count("kucera_depth"),
        "coding.encodes": tracer.count("w2r_encode"),
        "demuth.calls": tracer.count_prefix("demuth."),
        "minpair.calls": tracer.count_prefix("minpair."),
        "generators.scheme_attempts": attempts,
        "generators.accept_ratio": tracer.schemes_accepted / attempts if attempts else 0.0,
        "scenario.experiments": tracer.count_prefix("scenario.handler."),
        "reports.bytes": sum(len(b) for files in p.files for b in files.values()),
    }
    for layer, t in self_s.items():
        m[f"{layer}.self_s"] = t
    m["self_sum_s"] = sum(self_s.values())
    return m


COUNT_METRICS = ("cylinders.ops", "cylinders.builds", "staged.queries", "staged.repeat_ratio",
                 "fireworks.runs", "fireworks.behaviours", "fireworks.useful_ratio",
                 "coding.kucera_depth_calls", "coding.encodes", "demuth.calls",
                 "minpair.calls", "generators.scheme_attempts", "generators.accept_ratio",
                 "scenario.experiments", "reports.bytes")


def traced_pass(bench: Bench, tracer: tracing.Tracer) -> Tuple[Pass, Dict[str, float]]:
    tracer.reset()
    tracer.install()
    try:
        p = bench.run_pass()
    finally:
        tracer.uninstall()
    bench.check(p)
    return p, _layer_metrics(tracer, p)


def counted_pass(bench: Bench) -> Dict[str, int]:
    counter = tracing.Counter()
    counter.install()
    try:
        p = bench.run_pass()
    finally:
        counter.uninstall()
    bench.check(p)
    return {"bitstring.calls": counter.layer_calls("bitstring"),
            "dyadic.calls": counter.layer_calls("dyadic")}


def per_layer(bench: Bench, seconds: float) -> Dict[str, Tuple[float, str]]:
    """Traced and untraced passes in turn, then one counting pass."""
    tracer = tracing.Tracer()
    start = time.perf_counter()
    plain: List[Pass] = []
    traced: List[Dict[str, float]] = []
    while not traced or time.perf_counter() - start + plain[-1].wall_s + traced[-1]["pass_s"] <= seconds:
        p = bench.run_pass()
        bench.check(p)
        plain.append(p)
        tp, m = traced_pass(bench, tracer)
        m["pass_s"] = tp.wall_s
        traced.append(m)
        if m["self_sum_s"] > tp.wall_s:
            bench.failures.append(f"layer self times sum to {m['self_sum_s']} s, "
                                  f"more than the traced pass's {tp.wall_s} s")
    for m in traced[1:]:
        for name in COUNT_METRICS:
            if m[name] != traced[0][name]:
                bench.failures.append(f"{name} read {traced[0][name]} then {m[name]}")
    tracer.write_spans(bench.out / "spans.tsv")
    counts = counted_pass(bench)
    print(f"{len(traced)} traced and {len(plain)} untraced passes of "
          f"{bench.experiments_per_pass} experiments; spans of the last traced pass "
          f"in {bench.out / 'spans.tsv'}")

    def med(name: str) -> float:
        return statistics.median(m[name] for m in traced)

    out: Dict[str, Tuple[float, str]] = {}
    for name in COUNT_METRICS:
        unit = "ratio" if name.endswith("_ratio") else ("bytes" if name == "reports.bytes"
                                                         else "count")
        out[name] = (traced[0][name], unit)
    for layer in tracing.SPAN_LAYERS:
        out[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    for name, value in counts.items():
        out[name] = (value, "count")
    out["trace.pass_s"] = (med("pass_s"), "s")
    # Each traced pass against the untraced pass just before it: the two
    # share the host's speed at that moment better than any other pair.
    out["trace.overhead_s"] = (statistics.median(m["pass_s"] - p.wall_s
                                                 for p, m in zip(plain, traced)), "s")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "randlab" / "cli.py").is_file():
        sys.stderr.write(f"error: no randlab sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(CONTROL))
    bench = Bench(args.workload, args.seed, OUT / args.workload)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(bench, args.seconds)
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:28} {shown} {unit}")
    print(f"{'failed_frac':28} {len(bench.failures) / max(bench.attempted, 1):>16.6g} ratio "
          f"({len(bench.failures)} of {bench.attempted} experiments)")
    for why in bench.failures[:20]:
        print(f"FAILED {why}")
    result = bench.result(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes order sets, and set order decides how many
        # comparisons a sort makes: counts repeat exactly only under one
        # fixed hash seed.  Report bytes do not depend on it.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
