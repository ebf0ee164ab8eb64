"""Scenario files: named objects plus a list of experiments, run to reports.

A scenario is one JSON document.  `objects` declares reusable staged
objects by name; `experiments` runs library operations over them (or over
seeded generator material) and writes one or two report files each.
Identical scenario plus seed gives byte-identical reports; every file name
is derived from the scenario and experiment names only.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bitstring import BitString, from_nat
from .cylinders import CylinderSet, EMPTY_SET, uniform_suffix_set
from .demuth import (DemuthTest, DiffPair, DiffUnionTest, VersionedOpenSet,
                     demuth_to_diffunion, diffunion_to_demuth, verify_demuth,
                     verify_diffunion)
from .dyadic import Dyadic
from .errors import RandlabError, ScenarioError
from .fireworks import (FireworksConfig, Outcome, caps_from_seed, run_fireworks,
                        sweep, sweep_runs)
from .coding import (gamma_decode, kg_decode, kg_encode, stabilization_stage,
                     w2r_encode)
from .generators import (build_working_w2r, hitting_run, random_demuth_test,
                         random_diffunion_test, random_functional_pair,
                         random_pi01_tree)
from .minpair import classify_case, induced_demuth_level
from .reports import RunFact, csv_text, emit_interaction_report, render_field
from .staged import Enumerator, Pi01Tree, StagedOpenSet, TuringFunctional


@dataclass(frozen=True)
class Experiment:
    name: str
    kind: str
    params: Dict[str, object]


@dataclass(frozen=True)
class Scenario:
    name: str
    objects: Dict[str, Dict[str, object]]
    experiments: Tuple[Experiment, ...]


@dataclass
class ScenarioResult:
    files: List[Path] = field(default_factory=list)
    facts: List[RunFact] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.facts)

    def failures(self) -> List[str]:
        return [f"{f.name} ({f.kind})" for f in self.facts if not f.ok]


def _err(where: str, msg: str) -> ScenarioError:
    return ScenarioError(f"{where}: {msg}")


def _take(params: Dict[str, object], where: str, key: str, default=_err):
    if key in params:
        return params.pop(key)
    if default is _err:
        raise _err(where, f"missing required key '{key}'")
    return default


def _done(params: Dict[str, object], where: str) -> None:
    if params:
        raise _err(where, f"unknown keys {sorted(params)}")


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _take_int(params: Dict[str, object], where: str, key: str, default=_err):
    v = _take(params, where, key, default)
    if v is not default and not _is_int(v):
        raise _err(where, f"'{key}' must be an integer, got {v!r}")
    return v


def _take_ints(params: Dict[str, object], where: str, key: str):
    """An optional list of integers, None when absent."""
    v = _take(params, where, key, None)
    if v is not None and not (isinstance(v, list) and all(map(_is_int, v))):
        raise _err(where, f"'{key}' must be a list of integers, got {v!r}")
    return v


def _events(raw: object, where: str) -> List[Tuple[int, List[str]]]:
    if not isinstance(raw, list):
        raise _err(where, "events must be a list of [stage, [strings]] pairs")
    out = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], int)):
            raise _err(where, f"bad event entry {item!r}")
        out.append((item[0], list(item[1])))
    return out


OBJECT_KINDS = ("enumerators", "open_sets", "cylinder_sets", "functionals",
                "trees", "families", "demuth_tests", "diff_tests")


class ObjectTable:
    """Named staged objects, built in dependency order."""

    def __init__(self, raw: Dict[str, Dict[str, object]]) -> None:
        for kind in raw:
            if kind not in OBJECT_KINDS:
                raise _err("objects", f"unknown object kind '{kind}'")
        self.enumerators: Dict[str, Enumerator] = {}
        self.open_sets: Dict[str, StagedOpenSet] = {}
        self.cylinder_sets: Dict[str, CylinderSet] = {}
        self.functionals: Dict[str, TuringFunctional] = {}
        self.trees: Dict[str, Pi01Tree] = {}
        self.demuth_tests: Dict[str, DemuthTest] = {}
        self.diff_tests: Dict[str, DiffUnionTest] = {}
        for name, spec in sorted(raw.get("enumerators", {}).items()):
            where = f"objects.enumerators.{name}"
            spec = dict(spec)
            events = _events(_take(spec, where, "events"), where)
            horizon = _take(spec, where, "horizon")
            _done(spec, where)
            self.enumerators[name] = self._wrap(where, Enumerator, events, horizon)
        for name, spec in sorted(raw.get("open_sets", {}).items()):
            where = f"objects.open_sets.{name}"
            spec = dict(spec)
            events = _events(_take(spec, where, "events"), where)
            horizon = _take(spec, where, "horizon")
            _done(spec, where)
            self.open_sets[name] = StagedOpenSet(self._wrap(where, Enumerator, events, horizon))
        for name, spec in sorted(raw.get("cylinder_sets", {}).items()):
            where = f"objects.cylinder_sets.{name}"
            spec = dict(spec)
            strings = _take(spec, where, "strings")
            _done(spec, where)
            self.cylinder_sets[name] = self._wrap(where, CylinderSet.normalize, strings)
        for name, spec in sorted(raw.get("functionals", {}).items()):
            where = f"objects.functionals.{name}"
            spec = dict(spec)
            raw_events = _take(spec, where, "events")
            horizon = _take(spec, where, "horizon")
            _done(spec, where)
            events = [(s, [tuple(ax) for ax in axs]) for s, axs in _events(raw_events, where)]
            self.functionals[name] = self._wrap(where, TuringFunctional, events, horizon)
        for name, spec in sorted(raw.get("trees", {}).items()):
            where = f"objects.trees.{name}"
            spec = dict(spec)
            depth = _take(spec, where, "depth")
            events = _events(_take(spec, where, "events", []), where)
            horizon = _take(spec, where, "horizon")
            _done(spec, where)
            self.trees[name] = self._wrap(where, Pi01Tree, depth, events, horizon)
        for name, spec in sorted(raw.get("demuth_tests", {}).items()):
            where = f"objects.demuth_tests.{name}"
            spec = dict(spec)
            horizon = _take(spec, where, "horizon")
            bounds = _take(spec, where, "version_bounds")
            levels_raw = _take(spec, where, "levels")
            _done(spec, where)
            levels = []
            for lvl in levels_raw:
                versions = [(stage, self.open_set(ref, where)) for stage, ref in lvl]
                levels.append(self._wrap(where, VersionedOpenSet, versions))
            self.demuth_tests[name] = self._wrap(
                where, DemuthTest, tuple(levels), tuple(bounds), horizon)
        for name, spec in sorted(raw.get("diff_tests", {}).items()):
            where = f"objects.diff_tests.{name}"
            spec = dict(spec)
            horizon = _take(spec, where, "horizon")
            bounds = _take(spec, where, "pair_bounds")
            levels_raw = _take(spec, where, "levels")
            _done(spec, where)
            levels = []
            for lvl in levels_raw:
                pairs = tuple(DiffPair(self.open_set(u, where), self.open_set(v, where))
                              for u, v in lvl)
                levels.append(pairs)
            self.diff_tests[name] = self._wrap(
                where, DiffUnionTest, tuple(levels), tuple(bounds), horizon)

    @staticmethod
    def _wrap(where: str, ctor, *args):
        try:
            return ctor(*args)
        except RandlabError as e:
            raise _err(where, str(e))
        except (TypeError, ValueError) as e:
            raise _err(where, str(e))

    def _lookup(self, table: Dict[str, object], name: object, where: str, kind: str):
        if not isinstance(name, str) or name not in table:
            raise _err(where, f"unknown {kind} '{name}'")
        return table[name]

    def enumerator(self, name, where):
        return self._lookup(self.enumerators, name, where, "enumerator")

    def open_set(self, name, where):
        return self._lookup(self.open_sets, name, where, "open set")

    def cylinder_set(self, name, where):
        return self._lookup(self.cylinder_sets, name, where, "cylinder set")

    def functional(self, name, where):
        return self._lookup(self.functionals, name, where, "functional")

    def tree(self, name, where):
        return self._lookup(self.trees, name, where, "tree")

    def demuth_test(self, name, where):
        return self._lookup(self.demuth_tests, name, where, "test")

    def diff_test(self, name, where):
        return self._lookup(self.diff_tests, name, where, "test")


SCENARIO_DIR = Path(__file__).parent / "scenarios"
GOLDEN_DIR = SCENARIO_DIR / "golden"


def bundled_scenarios() -> List[Path]:
    """Paths of the scenario files shipped with the package."""
    return sorted(SCENARIO_DIR.glob("*.json"))


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    doc = dict(raw)
    name = _take(doc, str(path), "name")
    objects = _take(doc, str(path), "objects", {})
    experiments_raw = _take(doc, str(path), "experiments", [])
    _done(doc, str(path))
    experiments = []
    seen = set()
    for i, item in enumerate(experiments_raw):
        where = f"experiments[{i}]"
        if not isinstance(item, dict):
            raise _err(where, "must be an object")
        item = dict(item)
        ename = _take(item, where, "name")
        kind = _take(item, where, "kind")
        if ename in seen:
            raise _err(where, f"duplicate experiment name '{ename}'")
        seen.add(ename)
        if kind not in HANDLERS:
            raise _err(where, f"unknown experiment kind '{kind}'")
        experiments.append(Experiment(ename, kind, item))
    return Scenario(name, objects, tuple(experiments))


class Context:
    def __init__(self, scenario: Scenario, out_dir: Path) -> None:
        self.scenario = scenario
        self.objects = ObjectTable(scenario.objects)
        self.out_dir = out_dir
        self.result = ScenarioResult()

    def write(self, exp: Experiment, suffix: str, text: str) -> str:
        fname = f"{self.scenario.name}_{exp.name}{suffix}"
        path = self.out_dir / fname
        path.write_text(text)
        self.result.files.append(path)
        return fname


def _fireworks_config(ctx: Context, exp: Experiment, params) -> FireworksConfig:
    """The config read off `params`, which must hold no other key."""
    where = exp.name
    names = _take(params, where, "adversaries")
    if not isinstance(names, list):
        raise _err(where, f"'adversaries' must be a list of enumerator names, got {names!r}")
    advs = [ctx.objects.enumerator(n, where) for n in names]
    k = _take_int(params, where, "k")
    target = _take_int(params, where, "target_length")
    budget = _take_int(params, where, "stage_budget")
    bounds = _take_ints(params, where, "cap_bounds")
    cfg = FireworksConfig.build(advs, k, target, budget, bounds)
    _done(params, where)
    return cfg


def _run_fireworks_run(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    caps = _take_ints(params, where, "caps")
    seed = _take_int(params, where, "seed", None)
    keep_trace = _take(params, where, "trace", False)
    cfg = _fireworks_config(ctx, exp, params)
    if caps is None:
        if seed is None:
            raise _err(where, "need either caps or seed")
        caps = caps_from_seed(seed, cfg.cap_bounds)
    run = run_fireworks(cfg, tuple(caps), keep_trace=bool(keep_trace))
    rows = [(r.index, r.cap, r.outcome.value, r.guesses_made, r.final_guess,
             r.active_stage, r.answer_stage, r.failure_proven)
            for r in run.records]
    text = csv_text(["strategy", "cap", "outcome", "guesses", "final_guess",
                     "active_stage", "answer_stage", "failure_proven"], rows)
    arts = [ctx.write(exp, ".csv", text)]
    if keep_trace:
        body = "\n".join(run.trace) + ("\n" if run.trace else "")
        head = f"caps={render_field(tuple(caps))} x={run.x_prefix} stages={run.stages_used}\n"
        arts.append(ctx.write(exp, ".txt", head + body))
    return RunFact(exp.name, exp.kind, True, tuple(arts),
                   {"outcomes": [o.value for o in run.outcomes]})


def _run_fireworks_sweep(ctx: Context, exp: Experiment) -> RunFact:
    cfg = _fireworks_config(ctx, exp, dict(exp.params))
    sw = sweep(cfg)
    residue_bound = sum(Fraction(1, n) for n in cfg.cap_bounds)
    within = sw.probability.as_fraction() <= residue_bound
    summary = csv_text(
        ["adversaries", "k", "cap_bounds", "total_vectors", "failing_vectors",
         "failure_probability", "residue_bound", "within_bound"],
        [(exp.params["adversaries"], cfg.k, cfg.cap_bounds, sw.total, len(sw.failures),
          sw.probability, residue_bound, within)])
    rows = [(run.caps, [o.value for o in run.outcomes], run.x_prefix)
            for run in sw.failures]
    fail_text = csv_text(["caps", "outcomes", "x_prefix"], rows)
    arts = (ctx.write(exp, ".csv", summary), ctx.write(exp, "_failures.csv", fail_text))
    return RunFact(exp.name, exp.kind, within, arts,
                   {"probability": sw.probability, "bound": residue_bound})


def _axis_pattern(outcomes: Sequence[Outcome]) -> Tuple[bool, Optional[int]]:
    """ActiveSuccess* ActiveFailure? PassiveSuccess*, else not a pattern."""
    i = 0
    while i < len(outcomes) and outcomes[i] is Outcome.ACTIVE_SUCCESS:
        i += 1
    fail_at = i if i < len(outcomes) and outcomes[i] is Outcome.ACTIVE_FAILURE else None
    if all(o is Outcome.PASSIVE_SUCCESS for o in outcomes[i + (fail_at is not None):]):
        return True, fail_at
    return False, None


def _run_fireworks_trichotomy(ctx: Context, exp: Experiment) -> RunFact:
    cfg = _fireworks_config(ctx, exp, dict(exp.params))
    table = {run.caps: run.outcomes for run in sweep_runs(cfg)}
    rows = []
    ok = True
    ranges = [range(1, n + 1) for n in cfg.cap_bounds]
    for e, axis_caps in enumerate(ranges):
        for fixed in itertools.product(*ranges[:e], *ranges[e + 1:]):
            axis = [table[fixed[:e] + (cap,) + fixed[e:]][e] for cap in axis_caps]
            good, fail_at = _axis_pattern(axis)
            ok = ok and good
            rows.append((e, fixed, [o.value for o in axis],
                         None if fail_at is None else fail_at + 1, good))
    text = csv_text(["axis", "fixed_caps", "outcomes", "failing_cap", "pattern_ok"], rows)
    arts = (ctx.write(exp, ".csv", text),)
    return RunFact(exp.name, exp.kind, ok, arts)


def _run_fireworks_extract(ctx: Context, exp: Experiment) -> RunFact:
    cfg = _fireworks_config(ctx, exp, dict(exp.params))
    sw = sweep(cfg)
    union = EMPTY_SET
    rows = []
    ok = True
    for e, fs in enumerate(sw.failure_sets()):
        residue = fs.residue()
        union = union | residue
        bound = Dyadic(1, cfg.cap_bounds[e].bit_length() - 1)
        fits = residue.measure() <= bound
        ok = ok and fits
        rows.append((e, fs.committed.final(), fs.answered.final(), residue,
                     residue.measure(), bound, fits))
    agrees = union.measure() == sw.probability
    ok = ok and agrees
    text = csv_text(["strategy", "committed", "answered", "residue",
                     "residue_measure", "measure_bound", "within_bound"], rows)
    tail = csv_text(["union_measure", "sweep_probability", "agree"],
                    [(union.measure(), sw.probability, agrees)])
    arts = (ctx.write(exp, ".csv", text), ctx.write(exp, "_union.csv", tail))
    return RunFact(exp.name, exp.kind, ok, arts)


def _convert_d2u_rows(test: DemuthTest):
    out = demuth_to_diffunion(test)
    rep_in = verify_demuth(test)
    rep_out = verify_diffunion(out)
    rows = []
    ok = rep_in.ok and rep_out.ok
    for n in range(len(test.levels)):
        identical = out.level_final(n).strings == test.levels[n].final_at(test.horizon).strings
        ok = ok and identical
        rows.append((n, test.levels[n].version_count(), test.version_bounds[n],
                     len(out.levels[n]), out.pair_bounds[n], identical))
    return rows, ok


def _convert_u2d_rows(test: DiffUnionTest):
    back = diffunion_to_demuth(test)
    rep = verify_demuth(back)
    rows = []
    ok = rep.ok
    for n in range(len(back.levels)):
        target = test.level_final(n + 1)
        covered = all(target.is_subset(v.open_at(back.horizon))
                      for _, v in back.levels[n].versions)
        ok = ok and covered
        row = rep.rows[n]
        rows.append((n, row.version_count, row.version_bound, row.measure,
                     row.measure_bound, covered, row.ok and covered))
    return rows, ok


def _run_convert(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    direction = _take(params, where, "direction")
    test_name = _take(params, where, "test")
    _done(params, where)
    if direction == "d2u":
        test = ctx.objects.demuth_test(test_name, where)
        rows, ok = _convert_d2u_rows(test)
        header = ["level", "versions", "version_bound", "pairs", "pair_bound",
                  "final_identity"]
    elif direction == "u2d":
        test = ctx.objects.diff_test(test_name, where)
        rows, ok = _convert_u2d_rows(test)
        header = ["level", "versions", "version_bound", "measure",
                  "measure_bound", "covers_final", "ok"]
    else:
        raise _err(where, f"direction must be d2u or u2d, not {direction!r}")
    arts = (ctx.write(exp, ".csv", csv_text(header, rows)),)
    return RunFact(exp.name, exp.kind, ok, arts)


def _run_convert_sweep(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    direction = _take(params, where, "direction")
    count = _take(params, where, "count")
    seed = _take(params, where, "seed")
    levels = _take(params, where, "levels", 4)
    bound = _take(params, where, "bound", 4)
    horizon = _take(params, where, "horizon", 8)
    _done(params, where)
    rows = []
    all_ok = True
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        if direction == "d2u":
            test = random_demuth_test(rng, levels, bound, horizon)
            _, ok = _convert_d2u_rows(test)
        elif direction == "u2d":
            test = random_diffunion_test(rng, levels, bound, horizon)
            _, ok = _convert_u2d_rows(test)
        else:
            raise _err(where, f"direction must be d2u or u2d, not {direction!r}")
        all_ok = all_ok and ok
        rows.append((i, f"{seed}:{i}", ok))
    text = csv_text(["instance", "seed", "ok"], rows)
    arts = (ctx.write(exp, ".csv", text),)
    return RunFact(exp.name, exp.kind, all_ok, arts)


def _payload_list(raw: object, where: str) -> List[BitString]:
    if isinstance(raw, dict):
        up_to = raw.get("all_up_to")
        if not isinstance(up_to, int) or set(raw) != {"all_up_to"}:
            raise _err(where, f"bad payload spec {raw!r}")
        out = []
        for length in range(up_to + 1):
            out.extend(BitString.all_strings(length))
        return out
    if isinstance(raw, list):
        return [BitString(p) for p in raw]
    raise _err(where, f"bad payload spec {raw!r}")


def _run_kg_roundtrip(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    tree = ctx.objects.tree(_take(params, where, "tree"), where)
    stem = BitString(_take(params, where, "stem", "^"))
    payloads = _payload_list(_take(params, where, "payloads"), where)
    _done(params, where)
    rows = []
    ok = True
    for p in payloads:
        code = kg_encode(p, stem, tree)
        back = kg_decode(code, stem, tree, tree.horizon)
        viable = tree.viable(code, tree.horizon)
        good = back == p and viable
        ok = ok and good
        rows.append((p, code, back, back == p, viable))
    text = csv_text(["payload", "codeword", "decoded", "roundtrip", "viable"], rows)
    arts = (ctx.write(exp, ".csv", text),)
    return RunFact(exp.name, exp.kind, ok, arts)


def _run_kg_sweep(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    count = _take(params, where, "count")
    seed = _take(params, where, "seed")
    depth = _take(params, where, "depth", 24)
    horizon = _take(params, where, "horizon", 8)
    payload_len = _take(params, where, "payload_len", 4)
    _done(params, where)
    payloads = _payload_list({"all_up_to": payload_len}, where)
    rows = []
    ok = True
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        tree = random_pi01_tree(rng, depth=depth, horizon=horizon)
        bad = 0
        for p in payloads:
            code = kg_encode(p, BitString("^"), tree)
            if kg_decode(code, BitString("^"), tree, horizon) != p or not tree.viable(code, horizon):
                bad += 1
        ok = ok and bad == 0
        rows.append((i, f"{seed}:{i}", tree.class_measure(horizon), len(payloads), bad))
    text = csv_text(["instance", "seed", "class_measure", "payloads", "failures"], rows)
    arts = (ctx.write(exp, ".csv", text),)
    return RunFact(exp.name, exp.kind, ok, arts)


def _run_w2r(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    seed = _take(params, where, "seed")
    payloads = [BitString(p) for p in _take(params, where, "payloads")]
    family_count = _take(params, where, "family_count", 3)
    family_levels = _take(params, where, "family_levels", 3)
    depth = _take(params, where, "depth", 24)
    horizon = _take(params, where, "horizon", 8)
    _done(params, where)
    scheme = build_working_w2r(seed, payloads, family_count, family_levels,
                               depth, horizon)
    enc = w2r_encode(payloads, scheme)
    stab = stabilization_stage(payloads, scheme)
    stream = BitString("^")
    for p in payloads:
        stream = stream + p
    t_max = max(scheme.horizon, stab) + len(stream)
    res = gamma_decode(enc.codeword, t_max, scheme)
    decoded = res.output_prefix()
    layer_rows = [(lay.family_index, lay.payload, lay.g_value, lay.g_trajectory)
                  for lay in enc.layers]
    pos_rows = []
    early_disagreements = 0
    for i in range(len(stream)):
        bit, t = res.positions.get(i, (None, None))
        agree = bit == stream[i]
        if not agree and i < stab:
            early_disagreements += 1
        pos_rows.append((i, stream[i], bit, t, agree))
    tail_ok = all(bit == stream[i]
                  for i in range(stab, len(stream))
                  for bit, _ in [res.positions.get(i, (None, None))])
    ok = decoded == stream and tail_ok
    head = csv_text(["codeword", "stabilization_stage", "decoded", "payload_stream",
                     "match", "early_disagreements"],
                    [(enc.codeword, stab, decoded, stream, decoded == stream,
                      early_disagreements)])
    layers = csv_text(["family", "payload", "g_final", "g_trajectory"], layer_rows)
    positions = csv_text(["position", "expected", "decoded", "claimed_at", "agree"],
                         pos_rows)
    arts = (ctx.write(exp, ".csv", head),
            ctx.write(exp, "_layers.csv", layers),
            ctx.write(exp, "_positions.csv", positions))
    return RunFact(exp.name, exp.kind, ok, arts,
                   {"stabilization": stab, "early_disagreements": early_disagreements})


def _run_w2r_hitting(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    seed = _take(params, where, "seed")
    positions = _take(params, where, "positions")
    patterns = _take(params, where, "patterns")
    depth = _take(params, where, "depth", 220)
    horizon = _take(params, where, "horizon", 8)
    family_count = _take(params, where, "family_count", 3)
    family_levels = _take(params, where, "family_levels", 3)
    _done(params, where)
    if len(positions) != len(patterns):
        raise _err(where, "positions and patterns must pair up")
    # Shared-subtree tries; materializing these opens as string lists would
    # cost 2^position generators each.
    opens = [uniform_suffix_set(BitString(p), pos)
             for pos, p in zip(positions, patterns)]
    scheme, payloads, steps, enc = hitting_run(
        seed, opens, family_count, family_levels, depth, horizon)
    stream = BitString("^")
    for p in payloads:
        stream = stream + p
    t_max = max(scheme.horizon, len(stream)) + horizon
    decoded = gamma_decode(enc.codeword, t_max, scheme).output_prefix()
    rows = []
    ok = decoded == stream
    for i, (pos, pat) in enumerate(zip(positions, patterns)):
        inside = opens[i].contains_prefix_of(decoded)
        ok = ok and inside
        n, zeta = steps[i]
        rows.append((i, pos, BitString(pat), n, zeta, payloads[i], inside))
    text = csv_text(["step", "position", "pattern", "n", "steering", "payload",
                     "decoded_inside"], rows)
    tail = csv_text(["codeword_length", "decoded", "stream_match"],
                    [(len(enc.codeword), decoded, decoded == stream)])
    arts = (ctx.write(exp, ".csv", text), ctx.write(exp, "_summary.csv", tail))
    return RunFact(exp.name, exp.kind, ok, arts, {"opens_hit": len(opens)})


def _minpair_rows(phi, psi, nat_max: int, horizon: int):
    rows = []
    ok = True
    levels = []
    for n in range(nat_max + 1):
        stem = from_nat(n)
        vos, trace = induced_demuth_level(phi, psi, stem, horizon)
        bound = 1 << n
        changes = trace.mind_changes()
        good = changes <= bound and vos.version_count() <= bound
        ok = ok and good
        levels.append(vos)
        rows.append((stem, n, trace.family is not None,
                     trace.family.found_stage if trace.family else None,
                     changes, bound, vos.version_count(),
                     vos.final_at(horizon).measure(), good))
    assembled = DemuthTest(tuple(levels), tuple(1 << n for n in range(nat_max + 1)), horizon)
    verified = verify_demuth(assembled).ok
    return rows, ok and verified, verified


def _run_minpair_sweep(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    count = _take(params, where, "count")
    seed = _take(params, where, "seed")
    nat_max = _take(params, where, "nat_max", 3)
    horizon = _take(params, where, "horizon", 8)
    depth = _take(params, where, "depth", 6)
    axioms = _take(params, where, "axioms", 120)
    _done(params, where)
    rows = []
    all_ok = True
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        phi, psi = random_functional_pair(rng, depth, axioms, horizon)
        pair_rows, ok, verified = _minpair_rows(phi, psi, nat_max, horizon)
        all_ok = all_ok and ok
        for row in pair_rows:
            rows.append((i,) + row)
        rows.append((i, "assembled", "-", "-", "-", "-", "-", "-", "-", verified))
    text = csv_text(["pair", "stem", "nat", "family_found", "found_stage",
                     "mind_changes", "change_bound", "versions",
                     "final_measure", "ok"], rows)
    arts = (ctx.write(exp, ".csv", text),)
    return RunFact(exp.name, exp.kind, all_ok, arts)


def _run_minpair_case(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    phi = ctx.objects.functional(_take(params, where, "phi"), where)
    psi = ctx.objects.functional(_take(params, where, "psi"), where)
    g_prefix = BitString(_take(params, where, "g"))
    x = BitString(_take(params, where, "x"))
    stem_length = _take(params, where, "stem_length")
    horizon = _take(params, where, "horizon")
    _done(params, where)
    rep = classify_case(phi, psi, g_prefix, x, stem_length, horizon)
    lines = [
        f"stem {rep.stem} (nat {rep.n}): case {rep.case}\n",
        f"phi on g: {rep.phi_on_g}\n",
        f"psi on x: {rep.psi_on_x}\n",
    ]
    if rep.case == "disagreement":
        lines.append(f"selected output: {rep.selected_output}\n")
        lines.append(f"x in selected preimage: {render_field(rep.x_in_preimage)}\n")
        if rep.disagreement_position is not None:
            lines.append(f"first disagreement at position {rep.disagreement_position}\n")
    elif rep.isolation is not None:
        iso = rep.isolation
        lines.append(f"output antichain width {iso.antichain_width} "
                     f"< bound {iso.width_bound}: "
                     f"{'yes' if iso.applicable else 'no'}\n")
        for b in iso.branches:
            lines.append(f"  branch {b.branch}: isolated from position {b.onset}\n")
    arts = (ctx.write(exp, ".txt", "".join(lines)),)
    return RunFact(exp.name, exp.kind, True, arts, {"case": rep.case})


def _run_interaction(ctx: Context, exp: Experiment) -> RunFact:
    where = exp.name
    params = dict(exp.params)
    _done(params, where)
    rep = emit_interaction_report(ctx.result.facts)
    arts = (ctx.write(exp, ".txt", rep.render()),)
    return RunFact(exp.name, exp.kind, True, arts)


HANDLERS: Dict[str, Callable[[Context, Experiment], RunFact]] = {
    "fireworks_run": _run_fireworks_run,
    "fireworks_sweep": _run_fireworks_sweep,
    "fireworks_trichotomy": _run_fireworks_trichotomy,
    "fireworks_extract": _run_fireworks_extract,
    "convert": _run_convert,
    "convert_sweep": _run_convert_sweep,
    "kg_roundtrip": _run_kg_roundtrip,
    "kg_sweep": _run_kg_sweep,
    "w2r": _run_w2r,
    "w2r_hitting": _run_w2r_hitting,
    "minpair_sweep": _run_minpair_sweep,
    "minpair_case": _run_minpair_case,
    "interaction": _run_interaction,
}


def run_scenario(scenario: Scenario, out_dir) -> ScenarioResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(scenario, out_dir)
    for exp in scenario.experiments:
        try:
            fact = HANDLERS[exp.kind](ctx, exp)
        except ScenarioError:
            raise
        except RandlabError as e:
            raise _err(exp.name, str(e))
        ctx.result.facts.append(fact)
    return ctx.result
