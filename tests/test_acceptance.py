"""Acceptance gate: ten exact, quantitative checks, one line each.

Run with -s to see every line; without it pytest shows the lines of
failing criteria only.  Every comparison is exact (Dyadic, Fraction, or
byte equality); the stated runtime ceilings are asserted where given.
"""

import random
import time
from fractions import Fraction

from oracles import (axis_ok, brute_measure, cap_axes, criterion_7_run, kg_tree_ok, minpair_ok,
                     strings_up_to)

from randlab import BitString, CylinderSet, Dyadic, FireworksConfig, run_fireworks, sweep
from randlab.coding import gamma_decode, stabilization_stage
from randlab.demuth import demuth_to_diffunion, diffunion_to_demuth
from randlab.generators import (build_working_w2r, random_bits,
                                random_cylinder_set, random_demuth_test,
                                random_diffunion_test, random_functional_pair,
                                random_pi01_tree)
from randlab.scenario import (GOLDEN_DIR, ObjectTable, bundled_scenarios,
                              load_scenario, run_scenario)


def _report(n: int, ok: bool, detail: str = "") -> bool:
    tail = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def _fireworks_suites():
    """Distinct (adversaries, config params) pairs across bundled scenarios."""
    suites = {}
    for path in bundled_scenarios():
        scen = load_scenario(path)
        table = ObjectTable(scen.objects)
        for exp in scen.experiments:
            if not exp.kind.startswith("fireworks"):
                continue
            p = exp.params
            names = tuple(p["adversaries"])
            key = (scen.name, names, tuple(p.get("cap_bounds", ())))
            advs = tuple(table.get("enumerators", a, scen.name) for a in names)
            suites[key] = (scen.name, advs, p)
    return sorted(suites.values(), key=lambda t: (t[0], len(t[1])))


def test_criterion_01_failure_bound():
    start = time.perf_counter()
    sizes = []
    bound_ok = True
    for _, advs, p in _fireworks_suites():
        cfg = FireworksConfig.build(advs, 2, p["target_length"], p["stage_budget"])
        prob = sweep(cfg).probability
        residue = sum(Fraction(1, n) for n in cfg.cap_bounds)
        bound_ok = bound_ok and prob <= residue < Fraction(1, 4)
        sizes.append(len(advs))
    elapsed = time.perf_counter() - start
    ok = bound_ok and 3 in sizes and elapsed < 10.0
    assert _report(1, ok, f"suites={sizes} elapsed={elapsed:.2f}s")


def test_criterion_02_outcome_trichotomy():
    checked = 0
    violations = 0
    for _, advs, p in _fireworks_suites():
        bounds = tuple(p["cap_bounds"])
        if max(bounds) > 8:
            continue
        cfg = FireworksConfig.build(advs, p["k"], p["target_length"],
                                    p["stage_budget"], bounds)
        for e, vectors in cap_axes(bounds):
            checked += 1
            violations += not axis_ok([run_fireworks(cfg, caps).outcomes[e] for caps in vectors])
    ok = checked > 0 and violations == 0
    assert _report(2, ok, f"axes={checked} violations={violations}")


def test_criterion_03_forward_conversion_identity():
    start = time.perf_counter()
    mismatches = 0
    for i in range(100):
        rng = random.Random(f"acc3:{i}")
        test = random_demuth_test(rng, 1 + i % 5, 1 + i % 6, 5 + i % 6)
        out = demuth_to_diffunion(test)
        for n in range(len(test.levels)):
            if out.level_final(n) != test.levels[n].open_at(test.horizon):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    assert _report(3, ok, f"mismatches={mismatches} elapsed={elapsed:.2f}s")


def test_criterion_04_converse_conversion_bounds():
    start = time.perf_counter()
    bad = 0
    for i in range(100):
        rng = random.Random(f"acc4:{i}")
        test = random_diffunion_test(rng, 2 + i % 4, 1 + i % 4, 5 + i % 6)
        out = diffunion_to_demuth(test)
        for n, level in enumerate(out.levels):
            h = max(1, test.pair_bounds[n + 1])
            if level.version_count() > h * h * (1 << (n + 1)):
                bad += 1
            if level.open_at(out.horizon).measure() > Dyadic.half_pow(n):
                bad += 1
            tracked = test.level_final(n + 1)
            for _, version in level.versions:
                if not tracked.is_subset(version.open_at(out.horizon)):
                    bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 10.0
    assert _report(4, ok, f"violations={bad} elapsed={elapsed:.2f}s")


def test_criterion_05_kg_round_trip():
    start = time.perf_counter()
    stem = BitString("^")
    payloads = strings_up_to(5)
    failures = 0
    for i in range(50):
        rng = random.Random(f"acc5:{i}")
        tree = random_pi01_tree(rng, depth=24, horizon=8)
        if (tree.class_measure(tree.horizon) < Dyadic(1, 1)
                or not kg_tree_ok(tree, payloads, stem, tree.horizon)):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    assert _report(5, ok,
                   f"payloads={len(payloads)} failures={failures} "
                   f"elapsed={elapsed:.2f}s")


def test_criterion_06_gamma_error_confinement():
    bad = 0
    worst_early = 0
    for i in range(30):
        rng = random.Random(f"acc6:{i}")
        payloads = [random_bits(rng, 1 + rng.randrange(3))
                    for _ in range(1 + i % 3)]
        scheme, enc = build_working_w2r(1000 + i, payloads, depth=64)
        stab = stabilization_stage(enc)
        stream = BitString("^")
        for p in payloads:
            stream = stream + p
        res = gamma_decode(enc.codeword,
                           max(scheme.horizon, stab) + len(stream), scheme)
        early = 0
        for j in range(len(stream)):
            bit, _ = res.positions.get(j, (None, None))
            if j >= stab and bit != stream[j]:
                bad += 1
            if j < stab and bit != stream[j]:
                early += 1
        if early > stab:
            bad += 1
        worst_early = max(worst_early, early)
    ok = bad == 0
    assert _report(6, ok, f"tail_violations={bad} worst_early={worst_early}")


def test_criterion_07_dense_open_hitting():
    opens, scheme, codeword, t_max = criterion_7_run()
    decoded = gamma_decode(codeword, t_max, scheme).output_prefix()
    hits = sum(1 for u in opens if u.contains_prefix_of(decoded))
    ok = hits == len(opens)
    assert _report(7, ok, f"hits={hits}/4 decoded={decoded}")


def test_criterion_08_mind_change_bound():
    bad = 0
    for i in range(100):
        rng = random.Random(f"acc8:{i}")
        bad += not minpair_ok(*random_functional_pair(rng), 4, 8)
    ok = bad == 0
    assert _report(8, ok, f"violations={bad}")


def test_criterion_09_core_algebra():
    bad = 0
    for i in range(1000):
        rng = random.Random(f"acc9:{i}")
        a = random_cylinder_set(rng, 1 + rng.randrange(6), 1 + rng.randrange(8))
        b = random_cylinder_set(rng, 1 + rng.randrange(6), 1 + rng.randrange(8))
        if (a | b).measure() + (a & b).measure() != a.measure() + b.measure():
            bad += 1
        if CylinderSet.normalize(list(a.strings)) != a:
            bad += 1
        for x in (a, b, a | b, a & b, a - b):
            if brute_measure(x.strings, 8) != x.measure():
                bad += 1
    ok = bad == 0
    assert _report(9, ok, f"violations={bad}")


def test_criterion_10_determinism(tmp_path):
    diffs = []
    for path in bundled_scenarios():
        scen = load_scenario(path)
        out_dir = tmp_path / scen.name
        out_dir.mkdir()
        run_scenario(scen, out_dir)
        golden = GOLDEN_DIR / scen.name
        fresh_names = sorted(p.name for p in out_dir.iterdir())
        golden_names = sorted(p.name for p in golden.iterdir())
        if fresh_names != golden_names:
            diffs.append(f"{scen.name}: file sets differ")
            continue
        for name in fresh_names:
            if (out_dir / name).read_bytes() != (golden / name).read_bytes():
                diffs.append(f"{scen.name}/{name}")
    ok = not diffs
    assert _report(10, ok, f"scenarios={len(bundled_scenarios())} "
                           f"diffs={diffs if diffs else 'none'}")
