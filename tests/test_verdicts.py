"""Each experiment's verdict, read off its report rows, against the
hand-kept `ok = ok and ...` accumulators the handlers used to carry.

The oracles below are those accumulator expressions, copied verbatim apart
from reading their inputs off the experiment's parameters; the ones other
tests also check (`extract_ok`, `kg_tree_ok`, `minpair_ok`, and the walk
over cap axes) are in `tests/oracles.py`.  They recompute every engine
result, so they are independent of the report rows.
"""

import csv
import itertools
import random
from fractions import Fraction

import pytest
from oracles import cap_axes, extract_ok, kg_tree_ok, minpair_ok, strings_up_to

from randlab import scenario
from randlab.bitstring import BitString
from randlab.coding import gamma_decode, stabilization_stage
from randlab.cylinders import uniform_suffix_set
from randlab.demuth import (DemuthTest, demuth_to_diffunion, diffunion_to_demuth,
                            verify_demuth, verify_diffunion)
from randlab.fireworks import FireworksConfig, sweep
from randlab.generators import (build_working_w2r, hitting_run, random_demuth_test,
                                random_diffunion_test, random_functional_pair,
                                random_pi01_tree)
from randlab.scenario import (Experiment, ObjectTable, Scenario, _axis_pattern, _failed_cell,
                              bundled_scenarios, load_scenario, run_scenario)

MINPAIR_DEPTH = 6  # the depth of the functionals every minpair_sweep draws


def _d2u_ok(test):
    out = demuth_to_diffunion(test)
    ok = verify_demuth(test).ok and verify_diffunion(out).ok
    for n in range(len(test.levels)):
        identical = out.level_final(n).strings == test.levels[n].open_at(test.horizon).strings
        ok = ok and identical
    return ok


def _u2d_ok(test):
    back = diffunion_to_demuth(test)
    ok = verify_demuth(back).ok
    for n in range(len(back.levels)):
        target = test.level_final(n + 1)
        ok = ok and all(target.is_subset(v.open_at(back.horizon))
                        for _, v in back.levels[n].versions)
    return ok


def _config(objects, p):
    advs = [objects.get("enumerators", n, "oracle") for n in p["adversaries"]]
    return FireworksConfig.build(advs, p["k"], p["target_length"], p["stage_budget"],
                                 p.get("cap_bounds"))


def _sweep_ok(objects, p):
    cfg = _config(objects, p)
    return sweep(cfg).probability <= sum(Fraction(1, n) for n in cfg.cap_bounds)


def _trichotomy_ok(objects, p):
    cfg = _config(objects, p)
    table = {caps: leaf.run.outcomes
             for leaf in sweep(cfg).leaves for caps in itertools.product(*leaf.box)}
    return all(_axis_pattern([table[caps][e] for caps in vectors])[0]
               for e, vectors in cap_axes(cfg.cap_bounds))


def _convert_ok(objects, p):
    if p["direction"] == "d2u":
        return _d2u_ok(objects.get("demuth_tests", p["test"], "oracle"))
    return _u2d_ok(objects.get("diff_tests", p["test"], "oracle"))


def _convert_sweep_ok(objects, p):
    ok = True
    for i in range(p["count"]):
        rng = random.Random(f"{p['seed']}:{i}")
        args = (p.get("levels", 4), p.get("bound", 4), p.get("horizon", 8))
        if p["direction"] == "d2u":
            ok = ok and _d2u_ok(random_demuth_test(rng, *args))
        else:
            ok = ok and _u2d_ok(random_diffunion_test(rng, *args))
    return ok


def _kg_roundtrip_ok(objects, p):
    tree = objects.get("trees", p["tree"], "oracle")
    raw = p["payloads"]
    payloads = (strings_up_to(raw["all_up_to"]) if isinstance(raw, dict)
                else [BitString(x) for x in raw])
    return kg_tree_ok(tree, payloads, BitString(p.get("stem", "^")), tree.horizon)


def _kg_sweep_ok(objects, p):
    horizon = p.get("horizon", 8)
    payloads = strings_up_to(p.get("payload_len", 4))
    return all(kg_tree_ok(random_pi01_tree(random.Random(f"{p['seed']}:{i}"),
                                            depth=p.get("depth", 24), horizon=horizon),
                           payloads, BitString("^"), horizon)
               for i in range(p["count"]))


def _w2r_ok(objects, p):
    payloads = [BitString(x) for x in p["payloads"]]
    scheme, enc = build_working_w2r(p["seed"], payloads, p.get("depth", 24),
                                    p.get("horizon", 8))
    stab = stabilization_stage(enc)
    stream = BitString("".join(x.bits for x in payloads))
    res = gamma_decode(enc.codeword, max(scheme.horizon, stab) + len(stream), scheme)
    tail_ok = all(res.positions.get(i, (None, None))[0] == stream[i]
                  for i in range(stab, len(stream)))
    return res.output_prefix() == stream and tail_ok


def _w2r_hitting_ok(objects, p):
    horizon = p.get("horizon", 8)
    opens = [uniform_suffix_set(BitString(pat), pos)
             for pos, pat in zip(p["positions"], p["patterns"])]
    scheme, payloads, _, enc = hitting_run(p["seed"], opens, p.get("depth", 220), horizon)
    stream = BitString("".join(x.bits for x in payloads))
    decoded = gamma_decode(enc.codeword, max(scheme.horizon, len(stream)) + horizon,
                           scheme).output_prefix()
    ok = decoded == stream
    for u in opens:
        ok = ok and u.contains_prefix_of(decoded)
    return ok


def _minpair_sweep_ok(objects, p):
    horizon = p.get("horizon", 8)
    return all(minpair_ok(*random_functional_pair(random.Random(f"{p['seed']}:{i}"),
                                                   MINPAIR_DEPTH, p.get("axioms", 120),
                                                   horizon), p.get("nat_max", 3), horizon)
               for i in range(p["count"]))


ORACLES = {
    "fireworks_run": lambda objects, p: True,
    "fireworks_sweep": _sweep_ok,
    "fireworks_trichotomy": _trichotomy_ok,
    "fireworks_extract": lambda objects, p: extract_ok(_config(objects, p)),
    "convert": _convert_ok,
    "convert_sweep": _convert_sweep_ok,
    "kg_roundtrip": _kg_roundtrip_ok,
    "kg_sweep": _kg_sweep_ok,
    "w2r": _w2r_ok,
    "w2r_hitting": _w2r_hitting_ok,
    "minpair_sweep": _minpair_sweep_ok,
    "minpair_case": lambda objects, p: True,
    "interaction": lambda objects, p: True,
}


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_failed_cell_reads_row_by_row_then_column_by_column():
    header = ["a", "b", "c"]
    rows = [(1, True, 0), (2, True, 1), (3, False, 1)]
    assert _failed_cell(header, rows, {"b": True, "c": 0}) == "row 2 c"
    assert _failed_cell(header, rows, {"b": True}) == "row 3 b"
    assert _failed_cell(header, rows, {}) is None
    with pytest.raises(ValueError):  # a misspelt check column would never fail
        _failed_cell(header, rows, {"d": True})


def test_every_handler_has_an_oracle():
    assert sorted(ORACLES) == sorted(scenario.HANDLERS)


# The trichotomy that strands its second strategy (see test_scenario_cli).
STRANDED = {"objects": {"enumerators": {"a": {"events": [[1, ["1"]]], "horizon": 2},
                                        "b": {"events": [[2, ["01"]]], "horizon": 2}}},
            "params": {"adversaries": ["a", "b"], "k": 1, "cap_bounds": [2, 2],
                       "target_length": 4, "stage_budget": 12}}


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_verdicts_match_the_accumulators(tmp_path, path):
    scen = load_scenario(path)
    result = run_scenario(scen, tmp_path)
    objects = ObjectTable(scen.objects)
    for exp, fact in zip(scen.experiments, result.facts):
        assert fact.ok == ORACLES[exp.kind](objects, exp.params), exp.name
        assert (fact.failed_at is None) == fact.ok


def test_a_failing_trichotomy_matches_its_accumulator(tmp_path):
    objects = ObjectTable(STRANDED["objects"])
    assert not _trichotomy_ok(objects, STRANDED["params"])
    exp = Experiment("tri", "fireworks_trichotomy", STRANDED["params"])
    fact, = run_scenario(Scenario("strand", STRANDED["objects"], (exp,)), tmp_path).facts
    assert fact.failed_at == "strand_tri.csv row 3 pattern_ok"


def _overweight_demuth_test(rng, levels, bound, horizon):
    """A random test; every other one lifts each level one index up (so
    level n + 1 may outweigh 2^-(n+1)) or drops its version bounds to 1."""
    test = random_demuth_test(rng, levels, bound, horizon)
    how = rng.randrange(3)
    if how == 1:
        return DemuthTest(test.levels[:1] + test.levels[:-1], test.version_bounds, horizon)
    if how == 2:
        return DemuthTest(test.levels, (1,) * levels, horizon)
    return test


@pytest.mark.parametrize("direction, make, oracle", [
    ("d2u", _overweight_demuth_test, _d2u_ok),
    ("u2d", random_diffunion_test, _u2d_ok),
])
def test_convert_sweep_verdicts_match_the_accumulators(tmp_path, monkeypatch,
                                                       direction, make, oracle):
    made = []

    def recorded(*args):
        made.append(make(*args))
        return made[-1]

    generator = "random_demuth_test" if direction == "d2u" else "random_diffunion_test"
    monkeypatch.setattr(scenario, generator, recorded)
    exp = Experiment("e", "convert_sweep",
                     {"direction": direction, "count": 200, "seed": 41})
    fact, = run_scenario(Scenario("x", {}, (exp,)), tmp_path).facts
    want = [oracle(test) for test in made]
    got = [row["ok"] == "yes" for row in _csv_rows(tmp_path / "x_e.csv")]
    assert len(made) == 200 and got == want
    assert fact.ok == all(want) == (fact.failed_at is None)
    if not all(want):
        assert fact.failed_at == f"x_e.csv row {want.index(False) + 1} ok"
    if direction == "d2u":
        assert 0 < want.count(False) < 200


def test_kg_sweep_verdicts_match_the_accumulators(tmp_path):
    p = {"count": 12, "seed": 5, "depth": 12, "horizon": 4, "payload_len": 3}
    fact, = run_scenario(Scenario("x", {}, (Experiment("e", "kg_sweep", p),)),
                         tmp_path).facts
    rows = _csv_rows(tmp_path / "x_e.csv")
    assert len(rows) == p["count"]
    for i, row in enumerate(rows):
        tree = random_pi01_tree(random.Random(f"5:{i}"), depth=12, horizon=4)
        assert (row["failures"] == "0") == kg_tree_ok(tree, strings_up_to(3),
                                                       BitString("^"), 4), i
    assert fact.ok == _kg_sweep_ok(None, p)
    assert (fact.failed_at is None) == fact.ok


def test_minpair_sweep_verdicts_match_the_accumulators(tmp_path):
    p = {"count": 8, "seed": 3, "nat_max": 3, "axioms": 60}
    fact, = run_scenario(Scenario("x", {}, (Experiment("e", "minpair_sweep", p),)),
                         tmp_path).facts
    rows = _csv_rows(tmp_path / "x_e.csv")
    for i in range(p["count"]):
        pair = [row for row in rows if row["pair"] == str(i)]
        phi, psi = random_functional_pair(random.Random(f"3:{i}"), MINPAIR_DEPTH, 60, 8)
        assert all(row["ok"] == "yes" for row in pair) == minpair_ok(phi, psi, 3, 8)
    assert fact.ok == _minpair_sweep_ok(None, p)
    assert (fact.failed_at is None) == fact.ok
