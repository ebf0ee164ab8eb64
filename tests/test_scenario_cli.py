"""Scenario loading, the runner, and the command line front end."""

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import randlab
from randlab import cli, scenario
from randlab.cli import main
from randlab.errors import ScenarioError
from randlab.fireworks import Outcome
from randlab.scenario import (HANDLERS, Experiment, Scenario, bundled_scenarios,
                              GOLDEN_DIR, SCENARIO_DIR, _axis_pattern,
                              load_scenario, run_scenario)


def write_doc(tmp_path, doc, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return path


# A trichotomy fixture that genuinely fails: with both caps at 1, the
# first strategy commits at stage 2 and freezes the run before the
# second ever sees its refutation answered, so axis 1 reads Unresolved.
STRANDED = {
    "name": "strand",
    "objects": {"enumerators": {
        "a": {"events": [[1, ["1"]]], "horizon": 2},
        "b": {"events": [[2, ["01"]]], "horizon": 2},
    }},
    "experiments": [{"name": "tri", "kind": "fireworks_trichotomy",
                     "adversaries": ["a", "b"], "k": 1,
                     "cap_bounds": [2, 2],
                     "target_length": 4, "stage_budget": 12}],
}


def test_load_reports_json_position(tmp_path):
    path = write_doc(tmp_path, "{ bad")
    with pytest.raises(ScenarioError, match="line 1, column 3"):
        load_scenario(path)


def test_load_rejects_non_object_top_level(tmp_path):
    path = write_doc(tmp_path, "[1, 2]")
    with pytest.raises(ScenarioError, match="top level must be an object"):
        load_scenario(path)


def test_load_rejects_stray_top_level_key(tmp_path):
    path = write_doc(tmp_path, {"name": "x", "extra": 1})
    with pytest.raises(ScenarioError, match=r"unknown keys \['extra'\]"):
        load_scenario(path)


def test_load_rejects_duplicate_experiment_names(tmp_path):
    doc = {"name": "x", "experiments": [
        {"name": "a", "kind": "interaction"},
        {"name": "a", "kind": "interaction"},
    ]}
    with pytest.raises(ScenarioError, match="duplicate experiment name 'a'"):
        load_scenario(write_doc(tmp_path, doc))


def test_load_rejects_unknown_experiment_kind(tmp_path):
    doc = {"name": "x", "experiments": [{"name": "a", "kind": "nope"}]}
    with pytest.raises(ScenarioError, match="unknown experiment kind 'nope'"):
        load_scenario(write_doc(tmp_path, doc))


def test_runner_rejects_unknown_object_kind(tmp_path):
    scen = Scenario("x", {"widgets": {}}, ())
    with pytest.raises(ScenarioError, match="unknown object kind 'widgets'"):
        run_scenario(scen, tmp_path)


def test_runner_rejects_unknown_object_reference(tmp_path):
    exp = Experiment("r", "fireworks_run",
                     {"adversaries": ["ghost"], "k": 1, "target_length": 4,
                      "stage_budget": 8, "caps": [1]})
    with pytest.raises(ScenarioError, match="unknown enumerator 'ghost'"):
        run_scenario(Scenario("x", {}, (exp,)), tmp_path)


def test_runner_rejects_stray_experiment_key(tmp_path):
    exp = Experiment("c", "convert_sweep",
                     {"direction": "d2u", "count": 1, "seed": 0, "bogus": 1})
    with pytest.raises(ScenarioError, match=r"unknown keys \['bogus'\]"):
        run_scenario(Scenario("x", {}, (exp,)), tmp_path)


def test_runner_rejects_bad_object_spec(tmp_path):
    objects = {"enumerators": {"a": {"events": [[0, ["0"]]]}}}
    with pytest.raises(ScenarioError,
                       match="objects.enumerators.a: missing required key"):
        run_scenario(Scenario("x", objects, ()), tmp_path)


def test_report_names_carry_scenario_and_experiment(tmp_path):
    scen = load_scenario(SCENARIO_DIR / "fireworks_small.json")
    result = run_scenario(scen, tmp_path)
    assert result.ok
    names = sorted(p.name for p, _ in result.written)
    assert all(n.startswith("fireworks_small_") for n in names)
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_rerun_is_byte_identical(tmp_path):
    scen = load_scenario(SCENARIO_DIR / "fireworks_small.json")
    first = run_scenario(scen, tmp_path / "a")
    second = run_scenario(scen, tmp_path / "b")
    for (one, text), (two, _) in zip(first.written, second.written):
        assert one.name == two.name
        assert one.read_bytes() == two.read_bytes() == text.encode()


def test_bundled_scenarios_all_load_and_have_goldens():
    paths = bundled_scenarios()
    assert [p.stem for p in paths] == [
        "conversion_sweep", "fireworks_bank", "fireworks_duet",
        "fireworks_small", "interaction_report", "kg_roundtrip",
        "minpair_analyze", "w2r_claims"]
    for path in paths:
        scen = load_scenario(path)
        assert scen.name == path.stem
        assert (GOLDEN_DIR / scen.name).is_dir()


def test_cli_run_green_scenario(capsys):
    code = main(["run", str(SCENARIO_DIR / "fireworks_small.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "experiment sweep: ok" in out


def test_cli_run_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    code = main(["run", str(SCENARIO_DIR / "fireworks_small.json"),
                 "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out
    assert any(out_dir.iterdir())


def test_cli_failing_experiment_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, STRANDED)
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "experiment tri: FAILED" in out
    assert "experiment tri: FAILED at strand_tri.csv row 3 pattern_ok\n" in out
    assert "Unresolved" in out


def test_cli_overweight_d2u_input_names_its_level(tmp_path, capsys):
    # Level 1 owes measure <= 1/2 but holds {1, 00}, measure 3/4; the
    # conversion is still exact, so only the input's own audit fails.
    doc = {"name": "heavy", "objects": {
        "open_sets": {"a": {"events": [[0, ["0"]]], "horizon": 2},
                      "b": {"events": [[0, ["1", "00"]]], "horizon": 2}},
        "demuth_tests": {"t": {"horizon": 2, "version_bounds": [1, 1],
                               "levels": [[[0, "a"]], [[0, "b"]]]}}},
        "experiments": [{"name": "e", "kind": "convert", "direction": "d2u", "test": "t"}]}
    code = main(["run", str(write_doc(tmp_path, doc))])
    out = capsys.readouterr().out
    assert code == 1
    assert "experiment e: FAILED at input test level 1\n" in out
    assert "1,1,1,1,1,yes" in out  # final_identity holds


def test_cli_scenario_error_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "{ bad")
    code = main(["run", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


MIX = {"name": "mix", "kind": "interaction"}


@pytest.mark.parametrize("scen_name, exp_name, refused", [
    ("../escaped", "mix", "scenario name '../escaped'"),
    ("nosuchdir/x", "mix", "scenario name 'nosuchdir/x'"),
    ("back\\slash", "mix", "scenario name 'back\\\\slash'"),
    ("nul\0", "mix", "scenario name 'nul\\x00'"),
    ("s", "../escaped", "experiment name '../escaped'"),
    ("s", "a/b", "experiment name 'a/b'"),
])
def test_a_name_with_a_directory_component_is_refused_before_any_write(tmp_path, scen_name,
                                                                       exp_name, refused):
    doc = {"name": scen_name, "experiments": [dict(MIX, name=exp_name)]}
    # The file route and the in-memory route meet the same refusal.
    for scen in (load_scenario(write_doc(tmp_path, doc)),
                 Scenario(scen_name, {}, (Experiment(exp_name, "interaction", {}),))):
        with pytest.raises(ScenarioError) as info:
            run_scenario(scen, tmp_path / "runs" / "out")
        assert str(info.value).startswith(f"{refused} has a '/', '\\' or NUL")
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "scen.json"]


def test_a_report_that_cannot_be_written_names_its_path(tmp_path):
    (tmp_path / "s_mix.txt").mkdir()
    with pytest.raises(ScenarioError, match=r"s_mix\.txt: cannot write: "):
        run_scenario(Scenario("s", {}, (Experiment("mix", "interaction", {}),)), tmp_path)


def test_two_experiments_naming_one_report_file_exit_2_before_it_is_overwritten(tmp_path,
                                                                              capsys):
    # `sw` writes S_sw.csv and S_sw_failures.csv; the convert sweep `sw_failures`
    # would write S_sw_failures.csv again.
    doc = {"name": "S", "objects": {"enumerators": {"a": {"events": [[1, ["1"]]], "horizon": 1}}},
           "experiments": [
               {"name": "sw", "kind": "fireworks_sweep", "adversaries": ["a"], "k": 1,
                "target_length": 4, "stage_budget": 12, "cap_bounds": [4]},
               {"name": "sw_failures", "kind": "convert_sweep", "direction": "d2u",
                "count": 1, "seed": 1}]}
    out = tmp_path / "out"
    assert main(["run", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: sw_failures: report S_sw_failures.csv is "
                                       "already written by this run\n")
    assert sorted(p.name for p in out.iterdir()) == ["S_sw.csv", "S_sw_failures.csv"]
    assert (out / "S_sw_failures.csv").read_text().startswith("caps,outcomes,x_prefix\n")


@pytest.mark.parametrize("name, out, message", [
    ("../escaped", "out", "scenario name '../escaped' has a '/'"),
    ("nosuchdir/x", "out", "scenario name 'nosuchdir/x' has a '/'"),
    ("s", "taken", "taken: cannot create: "),
])
def test_cli_report_paths_stay_in_out_or_exit_2(tmp_path, name, out, message):
    write_doc(tmp_path, {"name": name, "experiments": [MIX]}, "S.json")
    (tmp_path / "taken").write_text("a file, not a directory\n")
    env = dict(os.environ, PYTHONPATH=str(Path(randlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "randlab.cli", "run", "S.json", "--out", out],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {message}") and "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["S.json", "taken"]


def test_cli_library_error_exits_3(capsys):
    code = main(["kg", "encode", "--seed", "3", "--depth", "10",
                 "--payload", "1" * 30])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_negative_class_horizon_exits_3(capsys):
    code = main(["kg", "encode", "--seed", "3", "--payload", "1", "--horizon", "-1"])
    assert code == 3
    assert "horizon -1 must be non-negative" in capsys.readouterr().err


def test_cli_fireworks_sweep_inline(capsys):
    code = main(["fireworks", "sweep", "--adversary", "1@1", "--k", "1",
                 "--target-length", "4", "--stage-budget", "12",
                 "--cap-bounds", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "within_bound" in out
    assert ",yes" in out


def test_cli_fireworks_run_needs_caps_or_seed(capsys):
    # The handler refuses, as it refuses a scenario experiment with neither key.
    code = main(["fireworks", "run", "--adversary", "1@1", "--k", "1",
                 "--target-length", "4", "--stage-budget", "12"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: run: need either caps or seed\n")


def test_cli_kg_round_trip(capsys):
    assert main(["kg", "encode", "--seed", "11", "--payload", "101"]) == 0
    out = capsys.readouterr().out
    assert "viable yes" in out
    word = out.splitlines()[0].split()[1]
    assert main(["kg", "decode", "--seed", "11", "--codeword", word]) == 0
    assert "payload 101" in capsys.readouterr().out


def test_cli_kg_empty_payload_and_codeword(capsys):
    # The empty string is a payload and a codeword, not a missing option.
    assert main(["kg", "encode", "--seed", "1", "--payload", "^"]) == 0
    word = capsys.readouterr().out.splitlines()[0].split()[1]
    assert word == "011"
    assert main(["kg", "decode", "--seed", "1", "--codeword", word]) == 0
    assert capsys.readouterr().out == "payload ^\n"
    assert main(["kg", "decode", "--seed", "1", "--codeword", "^"]) == 1
    assert capsys.readouterr().out == "decode failed\n"


@pytest.mark.parametrize("mode, option", [("encode", "--payload"), ("decode", "--codeword")])
def test_cli_kg_without_its_bits_exits_2(capsys, mode, option):
    with pytest.raises(SystemExit) as stop:
        main(["kg", mode, "--seed", "1"])
    assert stop.value.code == 2
    assert f"kg {mode} needs {option}" in capsys.readouterr().err


def test_cli_hit_requires_position_arguments(capsys):
    # The reader refuses a missing key of the mode's kind, as in a scenario file.
    assert main(["w2r", "hit", "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: hit: missing required key 'positions'\n")


def test_cli_version_runs():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


# 8192 * 4096 = 2^25 cap vectors, past the 2^24 sweep guard.
HUGE_TRICHOTOMY = ["fireworks", "trichotomy", "--adversary", "1@1;01@2#3",
                   "--adversary", "1@1#3", "--k", "1", "--cap-bounds", "8192,4096",
                   "--target-length", "64", "--stage-budget", "40"]


def test_cli_trichotomy_over_the_guard_exits_2_at_once():
    env = dict(os.environ, PYTHONPATH=str(Path(randlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "randlab.cli", *HUGE_TRICHOTOMY],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert "cap sweep over 33554432 vectors refused" in proc.stderr


@pytest.mark.parametrize("experiment", [
    {"kind": "kg_roundtrip", "tree": "crossbar", "payloads": {"all_up_to": 40}},
    {"kind": "kg_sweep", "count": 1, "seed": 0, "payload_len": 40},
])
def test_cli_payload_list_over_the_guard_exits_2_at_once(tmp_path, experiment):
    # A fresh interpreter, so a list made before the refusal would show as a timeout.
    tree = {"depth": 6, "events": [[0, ["00", "10"]]], "horizon": 2}
    scenario = {"name": "g", "objects": {"trees": {"crossbar": tree}},
                "experiments": [{"name": "big", **experiment}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(scenario))
    env = dict(os.environ, PYTHONPATH=str(Path(randlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "randlab.cli", "run", str(path), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert "big: payload list of all 2^41 - 1 strings up to length 40 refused (limit 65536)" in proc.stderr


def test_trichotomy_handler_refuses_a_sweep_over_the_guard(tmp_path):
    objects = {"enumerators": {"a": {"events": [[1, ["1"]]], "horizon": 3}}}
    exp = Experiment("tri", "fireworks_trichotomy",
                     {"adversaries": ["a", "a"], "k": 1, "cap_bounds": [8192, 4096],
                      "target_length": 64, "stage_budget": 40})
    with pytest.raises(ScenarioError, match="tri: cap sweep over 33554432 vectors refused"):
        run_scenario(Scenario("x", objects, (exp,)), tmp_path)


LADDER = {"events": [[1, ["1"]], [2, ["01"]]], "horizon": 3}
GOOD_SWEEP = {"name": "s", "kind": "fireworks_sweep", "adversaries": ["ladder"],
              "k": 1, "cap_bounds": [4], "target_length": 8, "stage_budget": 12}


@pytest.mark.parametrize("change, key", [
    ({"adversaries": "ladder"}, "adversaries"),
    ({"k": "1"}, "k"),
    ({"kind": "fireworks_run", "caps": ["a"]}, "caps"),
    ({"cap_bounds": ["4"]}, "cap_bounds"),
    ({"stage_budget": True}, "stage_budget"),
    ({"kind": "fireworks_run", "seed": [3]}, "seed"),
])
def test_cli_malformed_fireworks_parameters_exit_2(tmp_path, capsys, change, key):
    doc = {"name": "bad", "objects": {"enumerators": {"ladder": LADDER}},
           "experiments": [dict(GOOD_SWEEP, **change)]}
    code = main(["run", str(write_doc(tmp_path, doc))])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: s: '{key}' must be" in err


def test_cli_negative_k_with_default_cap_bounds_exits_2(capsys):
    code = main(["fireworks", "sweep", "--adversary", "1@1", "--k", "-1",
                 "--target-length", "4", "--stage-budget", "12"])
    assert code == 2
    assert "k -1 must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["0", "-4"])
def test_cli_non_positive_target_length_exits_2(capsys, target):
    code = main(["fireworks", "sweep", "--adversary", "1@1", "--k", "1",
                 "--target-length", target, "--stage-budget", "12", "--cap-bounds", "4"])
    assert code == 2
    assert f"target_length {target} must be positive" in capsys.readouterr().err


def _axis_pattern_reference(outcomes):
    # The state machine _axis_pattern replaced, kept as an oracle.
    fail_at = None
    state = 0  # 0 = successes, 1 = past the failure
    for i, o in enumerate(outcomes):
        if o is Outcome.ACTIVE_FAILURE:
            if state == 1:
                return False, None
            fail_at = i
            state = 1
        elif o is Outcome.ACTIVE_SUCCESS:
            if state == 1:
                return False, None
        elif o is Outcome.PASSIVE_SUCCESS:
            state = 1
        else:
            return False, None
    return True, fail_at


def test_axis_pattern_matches_the_state_machine_on_every_short_axis():
    for n in range(6):
        for axis in itertools.product(list(Outcome), repeat=n):
            assert _axis_pattern(list(axis)) == _axis_pattern_reference(axis), axis


# One object of each kind, for the experiments below to name.
OBJECTS = {
    "enumerators": {"w": {"events": [[1, ["1"]]], "horizon": 2}},
    "open_sets": {"a": {"events": [[0, ["0"]]], "horizon": 2}},
    "functionals": {"f": {"events": [[0, [["0", "1"]]]], "horizon": 2}},
    "trees": {"t": {"depth": 9, "horizon": 2}},
    "demuth_tests": {"d": {"horizon": 2, "version_bounds": [1], "levels": [[[0, "a"]]]}},
    "diff_tests": {"u": {"horizon": 2, "pair_bounds": [1], "levels": [[["a", "a"]]]}},
}


def _with_experiment(**entry):
    return {"name": "bad", "objects": OBJECTS, "experiments": [dict({"name": "e"}, **entry)]}


FIREWORKS = {"adversaries": ["w"], "k": 1, "cap_bounds": [2], "target_length": 4,
             "stage_budget": 4}


@pytest.mark.parametrize("doc, message", [
    ({"name": 5}, "scen.json: 'name' must be a string, got 5"),
    ({"name": "x", "objects": []}, "'objects' must be an object"),
    ({"name": "x", "experiments": {"e": 1}}, "'experiments' must be a list"),
    ({"name": "x", "experiments": [5]}, "experiments[0]: must be an object"),
    ({"name": "x", "experiments": [{"name": 5, "kind": "interaction"}]},
     "experiments[0]: 'name' must be a string"),
    ({"name": "x", "objects": {"families": {}}}, "objects: unknown object kind 'families'"),
    ({"name": "x", "objects": {"cylinder_sets": {"c": {"strings": ["0"]}}}},
     "objects: unknown object kind 'cylinder_sets'"),
    ({"name": "x", "objects": {"enumerators": {"a": [1]}}},
     "objects.enumerators.a: must be an object"),
    ({"name": "x", "objects": {"enumerators": {"a": {"events": [[True, ["1"]]], "horizon": 2}}}},
     "objects.enumerators.a: 'events' must be"),
    ({"name": "x", "objects": {"enumerators": {"a": {"events": [], "horizon": "2"}}}},
     "objects.enumerators.a: 'horizon' must be an integer"),
    ({"name": "x", "objects": {"open_sets": {"a": {"events": [[0, ["012"]]], "horizon": 2}}}},
     "objects.open_sets.a: 'events' must be"),
    ({"name": "x", "objects": {"functionals": {"f": {"events": [[0, [["0"]]]], "horizon": 2}}}},
     "objects.functionals.f: 'events' must be"),
    ({"name": "x", "objects": {"trees": {"t": {"depth": "8", "horizon": 2}}}},
     "objects.trees.t: 'depth' must be an integer"),
    ({"name": "x", "objects": {
        "open_sets": {"a": {"events": [], "horizon": 2}},
        "demuth_tests": {"d": {"horizon": 2, "version_bounds": [1], "levels": [[["0", "a"]]]}}}},
     "objects.demuth_tests.d: 'levels' must be"),
    ({"name": "x", "objects": {
        "open_sets": {"a": {"events": [], "horizon": 2}},
        "demuth_tests": {"d": {"horizon": 2, "version_bounds": [1], "levels": [[[0, "ghost"]]]}}}},
     "objects.demuth_tests.d: unknown open set 'ghost'"),
    ({"name": "x", "objects": {
        "open_sets": {"a": {"events": [], "horizon": 2}},
        "diff_tests": {"u": {"horizon": 2, "pair_bounds": [1], "levels": [["a"]]}}}},
     "objects.diff_tests.u: 'levels' must be"),
    ({"name": "x", "objects": {"enumerators": {"a": {"events": [[3, ["1"]]], "horizon": 2}}}},
     "objects.enumerators.a: horizon 2 precedes last event at 3"),
    (_with_experiment(kind="w2r", seed=5, payloads="01"),
     "e: 'payloads' must be a list of bit strings, got '01'"),
    (_with_experiment(kind="fireworks_run", caps=[1], trace="no", **FIREWORKS),
     "e: 'trace' must be a boolean, got 'no'"),
    (_with_experiment(kind="kg_sweep", count="2", seed=1), "e: 'count' must be a positive integer"),
    (_with_experiment(kind="convert_sweep", direction="sideways", count=1, seed=1),
     "e: 'direction' must be 'd2u' or 'u2d'"),
    (_with_experiment(kind="w2r_hitting", seed=9, positions=["8"], patterns=["1"]),
     "e: 'positions' must be a list of non-negative integers, got ['8']"),
    (_with_experiment(kind="minpair_case", phi="f", psi="f", g="012", x="0",
                      stem_length=1, horizon=2), "e: 'g' must be a bit string"),
    (_with_experiment(kind="kg_roundtrip", tree="t", payloads={"all_up_to": "2"}),
     "e: 'payloads' must be a list of bit strings or"),
    (_with_experiment(kind="fireworks_sweep", **dict(FIREWORKS, adversaries=["w", 3])),
     "e: 'adversaries' must be a list of names"),
    (_with_experiment(kind="w2r", seed=5, payloads=["1"], family_count=0),
     "e: unknown keys ['family_count']"),
    (_with_experiment(kind="kg_sweep", count=1, seed=1, horizon=-1),
     "e: 'horizon' must be a non-negative integer, got -1"),
    (_with_experiment(kind="convert_sweep", direction="d2u", count=1, seed=1, bound=0),
     "e: 'bound' must be a positive integer, got 0"),
    (_with_experiment(kind="w2r_hitting", seed=9, positions=[-3], patterns=["1"]),
     "e: 'positions' must be a list of non-negative integers"),
    (_with_experiment(kind="minpair_case", phi="f", psi="f", g="0", x="0",
                      stem_length=40, horizon=2), "e: stem length 40 outside 0..1"),
    (_with_experiment(kind="fireworks_run", caps=[2], seed=3, **FIREWORKS),
     "e: give 'caps' or 'seed', not both"),
    ({"name": "x", "objects": {
        "open_sets": {"a": {"events": [[0, ["0"]]], "horizon": 10},
                      "b": {"events": [[0, ["1", "00"]]], "horizon": 10}},
        "demuth_tests": {"d": {"horizon": 5, "version_bounds": [2],
                               "levels": [[[0, "a"], [10, "b"]]]}}}},
     "objects.demuth_tests.d: horizon 5 precedes last version of level 0 at 10"),
    (_with_experiment(kind="w2r_hitting", seed=9, positions=[8], patterns=["1"], family_levels=3),
     "e: unknown keys ['family_levels']"),
    # An empty seeded run would write a report without data rows.
    (_with_experiment(kind="kg_sweep", count=0, seed=1), "e: 'count' must be a positive integer, got 0"),
    (_with_experiment(kind="minpair_sweep", count=0, seed=1),
     "e: 'count' must be a positive integer, got 0"),
    (_with_experiment(kind="convert_sweep", direction="u2d", count=0, seed=1),
     "e: 'count' must be a positive integer, got 0"),
    (_with_experiment(kind="kg_roundtrip", tree="t", payloads={"all_up_to": -1}),
     "e: 'payloads' must be a list of bit strings or {\"all_up_to\": n} with n >= 0, "
     "got {'all_up_to': -1}"),
    (_with_experiment(kind="kg_roundtrip", tree="t", payloads=[]),
     "e: 'payloads' must not be an empty list"),
    (_with_experiment(kind="w2r", seed=5, payloads=[]), "e: 'payloads' must not be an empty list"),
    (_with_experiment(kind="w2r_hitting", seed=9, positions=[], patterns=[]),
     "e: 'positions' must not be an empty list"),
    (_with_experiment(kind="w2r_hitting", seed=9, positions=[8], patterns=[]),
     "e: 'patterns' must not be an empty list"),
    # Only the empty string: no bit to decode, yet the run would resolve a cell.
    (_with_experiment(kind="w2r", seed=5, payloads=["^", "^"]), "e: the payload stream has no bits"),
    (_with_experiment(kind="minpair_sweep", count=1, seed=1, depth=6), "e: unknown keys ['depth']"),
    (_with_experiment(kind="fireworks_sweep", **dict(FIREWORKS, cap_bounds=[2**65])),
     "e: cap bound 2^65 exceeds 2^64"),
])
def test_malformed_scenario_exits_2_naming_its_location(tmp_path, capsys, doc, message):
    code = main(["run", str(write_doc(tmp_path, doc))])
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err


# Parameters each handler runs on; a new handler needs an entry here.
MINIMAL_PARAMS = {
    "fireworks_run": dict(FIREWORKS, caps=[1]),
    "fireworks_sweep": FIREWORKS,
    "fireworks_trichotomy": FIREWORKS,
    "fireworks_extract": FIREWORKS,
    "convert": {"direction": "u2d", "test": "u"},
    "convert_sweep": {"direction": "d2u", "count": 1, "seed": 0},
    "kg_roundtrip": {"tree": "t", "payloads": ["0"]},
    "kg_sweep": {"count": 1, "seed": 0},
    "w2r": {"seed": 5, "payloads": ["1"]},
    "w2r_hitting": {"seed": 9, "positions": [8], "patterns": ["1"]},
    "minpair_sweep": {"count": 1, "seed": 0},
    "minpair_case": {"phi": "f", "psi": "f", "g": "0", "x": "0", "stem_length": 1,
                     "horizon": 2},
    "interaction": {},
}


@pytest.mark.parametrize("kind", sorted(HANDLERS))
def test_every_handler_refuses_a_stray_key(tmp_path, kind):
    ok = Experiment("e", kind, MINIMAL_PARAMS[kind])
    run_scenario(Scenario("x", OBJECTS, (ok,)), tmp_path / "ok")
    stray = Experiment("e", kind, dict(MINIMAL_PARAMS[kind], stray=1))
    with pytest.raises(ScenarioError, match=r"^e: unknown keys \['stray'\]$"):
        run_scenario(Scenario("x", OBJECTS, (stray,)), tmp_path / "stray")


FIREWORKS_ARGS = ["--k", "1", "--target-length", "4", "--stage-budget", "12"]


MALFORMED_ARGUMENTS = [
    (["fireworks", "sweep", "--adversary", "1@x", *FIREWORKS_ARGS], "bad adversary '1@x'"),
    (["fireworks", "sweep", "--adversary", "1@1#z", *FIREWORKS_ARGS], "bad adversary '1@1#z'"),
    (["fireworks", "sweep", "--adversary", "1", *FIREWORKS_ARGS], "bad adversary '1'"),
    (["fireworks", "sweep", "--adversary", "2@1", *FIREWORKS_ARGS],
     "objects.enumerators.w0: 'events' must be"),
    (["fireworks", "run", "--adversary", "1@1", "--caps", "a", *FIREWORKS_ARGS],
     "argument --caps: want comma-separated integers, got 'a'"),
    (["fireworks", "sweep", "--adversary", "1@1", "--cap-bounds", "4,q", *FIREWORKS_ARGS],
     "argument --cap-bounds"),
    (["w2r", "hit", "--seed", "1", "--positions", "8,x", "--patterns", "1,1"],
     "argument --positions"),
    (["w2r", "hit", "--seed", "1", "--positions", "8", "--patterns", "x"],
     "hit: 'patterns' must be a list of bit strings"),
    (["w2r", "encode", "--seed", "1", "--payloads", "1,2"],
     "encode: 'payloads' must be a list of bit strings"),
    (["kg", "encode", "--seed", "1", "--payload", "2"], "argument --payload"),
    (["kg", "decode", "--seed", "1", "--codeword", "x"], "argument --codeword"),
    (["kg", "encode", "--seed", "1", "--payload", "1", "--stem", "2"], "argument --stem"),
    (["run", "no/such/scenario.json"], "no/such/scenario.json: cannot read"),
    (["tests", "convert", "--direction", "d2u", "--seed", "1", "--count", "0"],
     "convert: 'count' must be a positive integer, got 0"),
    (["minpair", "analyze", "--seed", "1", "--count", "0"],
     "analyze: 'count' must be a positive integer, got 0"),
    (["w2r", "encode", "--seed", "5", "--payloads", "^"], "encode: the payload stream has no bits"),
    # Default cap bounds this large once crashed turning a cap to text.
    *((["fireworks", mode, *extra, "--adversary", "1@1;01@2", "--k", "100000",
        "--target-length", "8", "--stage-budget", "10"],
       f"{mode}: k 100000 gives default cap bounds up to 2^100001, over 2^64")
      for mode, extra in (("sweep", []), ("trichotomy", []), ("extract", []),
                          ("run", ["--seed", "1"]))),
    (["fireworks", "sweep", "--adversary", "1@1", "--cap-bounds", "36893488147419103232",
      *FIREWORKS_ARGS], "sweep: cap bound 2^65 exceeds 2^64"),
    (["w2r", "encode", "--seed", "1"], "encode: missing required key 'payloads'"),
]


@pytest.mark.parametrize("argv, message", MALFORMED_ARGUMENTS)
def test_cli_malformed_arguments_exit_2(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse refuses with exit status 2
        code = stop.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err


def _full_parser(argv=()):
    """The parser with all six subcommands, whatever `argv` names."""
    parser = argparse.ArgumentParser(prog="randlab",
                                     description="finite-stage randomness laboratory")
    parser.add_argument("--version", action="version", version=f"randlab {randlab.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options) in cli.SUBCOMMANDS.items():
        add_options(sub.add_parser(name, help=help_text))
    return parser


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    return (code, *capsys.readouterr())


PARITY_ARGV = [
    ["--help"], ["--version"], [], ["nosuch"], ["nosuch", "--help"], ["--out", "x", "run"],
    *([name, "--help"] for name in ("run", "fireworks", "tests", "kg", "w2r", "minpair")),
    ["tests", "convert", "--help"], ["tests"], ["run"],
    ["kg", "encode", "--seed", "1"], ["kg", "decode", "--seed", "1"],
    ["w2r", "hit", "--seed", "1"], ["w2r", "encode", "--seed", "1"],
    ["kg", "encode", "--seed", "1", "--payload", "01", "--depth", "12"],
    ["fireworks", "sweep", "--adversary", "1@1;01@2", *FIREWORKS_ARGS, "--cap-bounds", "4"],
    *(argv for argv, _ in MALFORMED_ARGUMENTS),
]


@pytest.mark.parametrize("argv", PARITY_ARGV)
def test_cli_output_matches_the_full_parser(monkeypatch, capsys, argv):
    # One subcommand's parser prints what the six-subcommand parser prints,
    # byte for byte, on stdout and stderr, with the same exit code.
    got = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "build_parser", _full_parser)
    assert got == _outcome(argv, capsys)


HELP_SCREENS = Path(__file__).parent / "help_screens"


@pytest.mark.parametrize("argv", [[], ["run"], ["fireworks"], ["tests"], ["tests", "convert"],
                                  ["kg"], ["w2r"], ["minpair"]])
def test_help_screens_keep_their_bytes(monkeypatch, capsys, argv):
    # Each screen as the CLI printed it when its options were written out
    # one add_argument call each; argparse wraps at COLUMNS - 2.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--help"])
    assert stop.value.code == 0
    name = "_".join(argv) or "randlab"
    assert capsys.readouterr() == ((HELP_SCREENS / f"{name}.txt").read_text(), "")


def test_the_parser_without_a_command_is_the_full_one():
    assert cli.build_parser().format_help() == _full_parser().format_help()
    assert cli.build_parser(["nosuch"]).format_usage() == _full_parser().format_usage()
    assert list(cli.SUBCOMMANDS) == ["run", "fireworks", "tests", "kg", "w2r", "minpair"]


def _subparsers_built(monkeypatch):
    built = []
    original = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return original(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return built


def test_a_run_builds_one_subparser_and_reads_no_report_back(monkeypatch, tmp_path, capsys):
    built = _subparsers_built(monkeypatch)
    reads = []
    original_read = Path.read_text

    def read_text(self, *args, **kwargs):
        reads.append(self)
        return original_read(self, *args, **kwargs)
    monkeypatch.setattr(Path, "read_text", read_text)
    assert main(["run", str(SCENARIO_DIR / "fireworks_small.json"), "--out", str(tmp_path)]) == 0
    assert built == ["run"]
    assert [p for p in reads if tmp_path in p.parents] == []
    # The echo is each written file, headed by its name.
    out = capsys.readouterr().out
    written = sorted(tmp_path.iterdir())
    assert out.count("\n== ") + out.startswith("== ") == len(written) == 7
    for path in written:
        assert f"== {path.name} ==\n{original_read(path)}" in out
    with pytest.raises(SystemExit):
        main(["--version"])
    assert built[1:] == ["run", "fireworks", "tests", "convert", "kg", "w2r", "minpair"]


def run_fresh(argv, timeout):
    """`randlab` in a fresh interpreter, with its exit code, output and time."""
    env = dict(os.environ, PYTHONPATH=str(Path(randlab.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "randlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc, time.perf_counter() - start


def test_cli_minpair_at_horizon_2_to_the_70_exits_0_at_once():
    # One list entry per stage once ended here in a MemoryError traceback.
    proc, _ = run_fresh(["minpair", "analyze", "--seed", "1", "--count", "1",
                         "--horizon", str(2 ** 70)], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "experiment analyze: ok" in proc.stdout


def test_cli_w2r_encode_at_horizon_2_to_the_70_refuses_the_trajectory_cell():
    # Everything but the per-stage `g_trajectory` cell follows change stages.
    proc, took = run_fresh(["w2r", "encode", "--seed", "5", "--payloads", "101",
                            "--horizon", str(2 ** 70)], timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: encode: g_trajectory cell over {2 ** 70 + 1} stages "
                           "refused (limit 1048576)\n")
    assert "Traceback" not in proc.stdout and took < 5


def test_cli_w2r_hit_at_horizon_2_to_the_70_exits_0():
    proc, took = run_fresh(["w2r", "hit", "--seed", "9", "--positions", "8,12",
                            "--patterns", "1,01", "--horizon", str(2 ** 70)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "experiment hit: ok" in proc.stdout
    summary = proc.stdout.split("== cli_hit_summary.csv ==\n")[1].splitlines()
    assert summary[:2] == ["codeword_length,decoded,stream_match", "41,00000000100001,yes"]
    assert took < 5


def test_cli_w2r_hit_past_the_depth_exits_2_at_once():
    # The open at 20,000,000 was once built first, and died in a MemoryError.
    proc, took = run_fresh(["w2r", "hit", "--seed", "1", "--positions", "8,20000000",
                            "--patterns", "1,1"], timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("error: hit: position 20000000 with pattern 1 needs 20000001 "
                           "decoded bits, more than the depth 220 allows\n")
    assert proc.stdout == "" and took < 5


class Steered(Exception):
    """Raised by a stand-in for `hitting_run`: the row got past its checks."""


def steered(*args):
    raise Steered


@pytest.mark.parametrize("position, pattern, refused", [
    (219, "1", False), (219, "11", True), (400, "1", True), (400, "^", False)])
def test_w2r_hitting_refuses_a_row_past_the_depth_before_any_report(tmp_path, monkeypatch, position, pattern,
                                                                    refused):
    # Each decoded bit costs a codeword bit, and a codeword holds at most
    # `depth` (220 by default) bits: a row needing more never succeeds.  An
    # empty pattern's open is the whole space, and stays allowed.
    monkeypatch.setattr(scenario, "hitting_run", steered)
    exp = Experiment("hit", "w2r_hitting", {"seed": 1, "positions": [8, position], "patterns": ["1", pattern]})
    with pytest.raises(ScenarioError if refused else Steered):
        run_scenario(Scenario("x", {}, (exp,)), tmp_path)
    assert list(tmp_path.iterdir()) == []


FIREWORKS_2_TO_THE_70 = ["--adversary", "1@1", "--k", "0", "--target-length", "3",
                         "--stage-budget", str(2 ** 70)]


@pytest.mark.parametrize("argv, code, message", [
    # A run waiting on a commitment once stepped one stage at a time to its budget.
    (["fireworks", "run", *FIREWORKS_2_TO_THE_70, "--caps", "1"], 0, ""),
    (["fireworks", "sweep", *FIREWORKS_2_TO_THE_70], 0, ""),
    # Padding every level to its version bound once built two sets per pair.
    (["tests", "convert", "--direction", "d2u", "--seed", "1", "--count", "1",
      "--bound", "100000000000"],
     2, "error: convert: level 0 padded to 100000000000 pairs refused (limit 65536)\n"),
    # Options the mode does not read were once dropped without a word.
    (["fireworks", "sweep", "--adversary", "1@1", "--k", "0", "--target-length", "3",
      "--stage-budget", "8", "--caps", "2", "--seed", "4", "--trace"],
     2, "error: sweep: unknown keys ['caps', 'trace']\n"),
    (["w2r", "encode", "--seed", "1", "--payloads", "1", "--positions", "3", "--patterns", "1"],
     2, "error: encode: unknown keys ['patterns', 'positions']\n"),
])
def test_cli_exits_at_once(argv, code, message):
    proc, took = run_fresh(argv, timeout=30)
    assert (proc.returncode, proc.stderr) == (code, message)
    assert "Traceback" not in proc.stdout and took < 5


@pytest.mark.parametrize("argv, params", [
    (["tests", "convert", "--direction", "u2d", "--seed", "1"],
     {"direction": "u2d", "count": 10, "seed": 1}),
    (["tests", "convert", "--direction", "d2u", "--seed", "1", "--levels", "2", "--bound", "3",
      "--horizon", "5"],
     {"direction": "d2u", "count": 10, "seed": 1, "levels": 2, "bound": 3, "horizon": 5}),
    (["w2r", "encode", "--seed", "1", "--payloads", "1,01"], {"seed": 1, "payloads": ["1", "01"]}),
    (["w2r", "hit", "--seed", "1", "--positions", "8", "--patterns", "1", "--depth", "30"],
     {"seed": 1, "depth": 30, "positions": [8], "patterns": ["1"]}),
    (["minpair", "analyze", "--seed", "1", "--horizon", "4"], {"count": 5, "seed": 1, "horizon": 4}),
    (["minpair", "analyze", "--seed", "1", "--nat-max", "2"], {"count": 5, "seed": 1, "nat_max": 2}),
    (["w2r", "hit", "--seed", "1", "--positions", "8,9", "--patterns", "1,01"],
     {"seed": 1, "positions": [8, 9], "patterns": ["1", "01"]}),
    (["tests", "convert", "--direction", "d2u", "--seed", "2"],
     {"direction": "d2u", "count": 10, "seed": 2}),
    # --caps wins over --seed, and an empty --cap-bounds is not given.
    (["fireworks", "run", "--adversary", "1@1", "--caps", "1", "--seed", "3", *FIREWORKS_ARGS],
     {"adversaries": ["w0"], "k": 1, "target_length": 4, "stage_budget": 12, "caps": [1]}),
    (["fireworks", "run", "--adversary", "1@1", "--seed", "3", "--trace", *FIREWORKS_ARGS],
     {"adversaries": ["w0"], "k": 1, "target_length": 4, "stage_budget": 12, "seed": 3,
      "trace": True}),
    (["fireworks", "sweep", "--adversary", "1@1", "--cap-bounds", ",", *FIREWORKS_ARGS],
     {"adversaries": ["w0"], "k": 1, "target_length": 4, "stage_budget": 12}),
])
def test_cli_passes_the_reader_only_the_options_given(monkeypatch, argv, params):
    # The scenario reader holds every default but count's.
    seen = []
    monkeypatch.setattr(cli, "_run_inline",
                        lambda name, objects, experiments, out: seen.extend(experiments) or 0)
    assert main(argv) == 0
    assert [exp.params for exp in seen] == [params]


def test_cli_tests_without_its_command_names_the_missing_argument(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["tests"])
    assert stop.value.code == 2
    assert capsys.readouterr() == ("", "usage: randlab tests [-h] {convert} ...\n"
                                       "randlab tests: error: the following arguments are "
                                       "required: tests_command\n")


def _reports(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_reports_do_not_depend_on_run_order_or_out_dir(tmp_path, capsys):
    # Objects keep per-snapshot tables that experiments sharing an object
    # table fill in turn.  A second run in the same process, scenarios in
    # reverse order and each one's experiments reversed, into another
    # directory, must write the same bytes.  An interaction grid reads the
    # facts of the experiments before it, so it stays last.
    paths = bundled_scenarios()
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    for path in paths:
        assert main(["run", str(path), "--out", str(first)]) == 0
    for path in reversed(paths):
        doc = json.loads(path.read_text())
        grids = [exp for exp in doc["experiments"] if exp["kind"] == "interaction"]
        doc["experiments"] = [exp for exp in doc["experiments"][::-1] if exp not in grids] + grids
        reversed_path = write_doc(tmp_path, doc, f"reversed_{path.name}")
        assert main(["run", str(reversed_path), "--out", str(second)]) == 0
    capsys.readouterr()
    reports = _reports(first)
    assert len(reports) >= len(paths)
    assert _reports(second) == reports
