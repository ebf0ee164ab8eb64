"""Scenario files: named objects plus a list of experiments, run to reports.

A scenario is one JSON document.  `objects` declares reusable staged
objects by name; `experiments` runs library operations over them (or over
seeded generator material) and writes one or two report files each.
Identical scenario plus seed gives byte-identical reports; every file name
is derived from the scenario and experiment names only.

Every JSON object is read by one `_Keys` reader, which checks each value
against its kind; a missing, mistyped or unread key and a reference to an
unknown object are each a `ScenarioError` naming its location (exit 2).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bitstring import BitString, from_nat
from .cylinders import EMPTY_SET, uniform_suffix_set
from .demuth import (DemuthTest, DiffPair, DiffUnionTest, VersionedOpenSet,
                     demuth_to_diffunion, diffunion_to_demuth, verify_demuth)
from .dyadic import Dyadic
from .errors import RandlabError, ScenarioError
from .fireworks import FireworksConfig, Outcome, Sweep, caps_from_seed, run_fireworks, sweep
from .coding import gamma_decode, kg_decode, kg_encode, stabilization_stage
from .generators import (build_working_w2r, hitting_run, random_demuth_test,
                         random_diffunion_test, random_functional_pair,
                         random_pi01_tree)
from .minpair import classify_case, induced_demuth_level
from .reports import RunFact, csv_text, emit_interaction_report, render_field
from .staged import Enumerator, Pi01Tree, StagedOpenSet, TuringFunctional


class Experiment(NamedTuple):
    name: str
    kind: str
    params: Dict[str, object]


class Scenario(NamedTuple):
    name: str
    objects: Dict[str, Dict[str, object]]
    experiments: Tuple[Experiment, ...]


class ScenarioResult:
    def __init__(self) -> None:
        self.files: List[Path] = []
        self.facts: List[RunFact] = []

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.facts)


def _err(where: str, msg: str) -> ScenarioError:
    return ScenarioError(f"{where}: {msg}")


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v: object) -> bool:
    return isinstance(v, str)


def _is_bits(v: object) -> bool:
    return isinstance(v, str) and (v == "^" or not v.strip("01"))


def _list_of(check: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda v: isinstance(v, list) and all(map(check, v))


def _pair_of(first: Callable[[object], bool],
             second: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda v: isinstance(v, list) and len(v) == 2 and first(v[0]) and second(v[1])


# kind -> (check, what the value must be in errors)
_KINDS: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "int": (_is_int, "an integer"),
    "nat": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "positive": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (_is_str, "a string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "bits": (_is_bits, "a bit string"),
    "ints": (_list_of(_is_int), "a list of integers"),
    "nats": (_list_of(lambda v: _is_int(v) and v >= 0), "a list of non-negative integers"),
    "names": (_list_of(_is_str), "a list of names"),
    "bit_list": (_list_of(_is_bits), "a list of bit strings"),
    "payloads": (lambda v: _list_of(_is_bits)(v) or isinstance(v, dict) and list(v) == ["all_up_to"]
                 and _is_int(v["all_up_to"]), 'a list of bit strings or {"all_up_to": n}'),
    "direction": (lambda v: v in ("d2u", "u2d"), "'d2u' or 'u2d'"),
    "events": (_list_of(_pair_of(_is_int, _list_of(_is_bits))),
               "a list of [stage, [bit strings]] events"),
    "axiom_events": (_list_of(_pair_of(_is_int, _list_of(_pair_of(_is_bits, _is_bits)))),
                     "a list of [stage, [[sigma, tau]]] events"),
    "version_levels": (_list_of(_list_of(_pair_of(_is_int, _is_str))),
                       "a list of levels of [stage, open set] versions"),
    "pair_levels": (_list_of(_list_of(_pair_of(_is_str, _is_str))),
                    "a list of levels of [open set, open set] pairs"),
}

_REQUIRED = object()


class _Keys:
    """The keys of one JSON object, each taken once and checked by kind."""

    def __init__(self, raw: object, where: str) -> None:
        if not isinstance(raw, dict):
            raise _err(where, "must be an object")
        self.left = dict(raw)
        self.where = where

    def take(self, key: str, kind: str, default=_REQUIRED):
        if key not in self.left:
            if default is _REQUIRED:
                raise _err(self.where, f"missing required key '{key}'")
            return default
        value = self.left.pop(key)
        check, what = _KINDS[kind]
        if not check(value):
            raise _err(self.where, f"'{key}' must be {what}, got {value!r}")
        return value

    def done(self) -> None:
        if self.left:
            raise _err(self.where, f"unknown keys {sorted(self.left)}")


def _enumerator(keys: _Keys, table: "ObjectTable") -> Enumerator:
    return Enumerator(keys.take("events", "events"), keys.take("horizon", "int"))


def _functional(keys: _Keys, table: "ObjectTable") -> TuringFunctional:
    return TuringFunctional(keys.take("events", "axiom_events"), keys.take("horizon", "int"))


def _tree(keys: _Keys, table: "ObjectTable") -> Pi01Tree:
    return Pi01Tree(keys.take("depth", "int"), keys.take("events", "events", []),
                    keys.take("horizon", "int"))


def _demuth_test(keys: _Keys, table: "ObjectTable") -> DemuthTest:
    horizon = keys.take("horizon", "int")
    bounds = keys.take("version_bounds", "ints")
    levels = tuple(VersionedOpenSet([(stage, table.get("open_sets", ref, keys.where))
                                     for stage, ref in level])
                   for level in keys.take("levels", "version_levels"))
    return DemuthTest(levels, tuple(bounds), horizon)


def _diff_test(keys: _Keys, table: "ObjectTable") -> DiffUnionTest:
    horizon = keys.take("horizon", "int")
    bounds = keys.take("pair_bounds", "ints")
    levels = tuple(tuple(DiffPair(table.get("open_sets", u, keys.where),
                                  table.get("open_sets", v, keys.where))
                         for u, v in level)
                   for level in keys.take("levels", "pair_levels"))
    return DiffUnionTest(levels, tuple(bounds), horizon)


# kind -> (one object's name in errors, builder); built in this order, so a
# test can name the open sets built before it.
_OBJECTS: Dict[str, Tuple[str, Callable[[_Keys, "ObjectTable"], object]]] = {
    "enumerators": ("enumerator", _enumerator),
    "open_sets": ("open set", lambda keys, table: StagedOpenSet(_enumerator(keys, table))),
    "functionals": ("functional", _functional),
    "trees": ("tree", _tree),
    "demuth_tests": ("test", _demuth_test),
    "diff_tests": ("test", _diff_test),
}


class ObjectTable:
    """Named staged objects, built in dependency order."""

    def __init__(self, raw: object) -> None:
        keys = _Keys(raw, "objects")
        for kind in keys.left:
            if kind not in _OBJECTS:
                raise _err("objects", f"unknown object kind '{kind}'")
        self._built: Dict[str, Dict[str, object]] = {}
        for kind, (_, build) in _OBJECTS.items():
            built = self._built[kind] = {}
            for name, spec in sorted(keys.take(kind, "object", {}).items()):
                spec_keys = _Keys(spec, f"objects.{kind}.{name}")
                try:
                    built[name] = build(spec_keys, self)
                except ScenarioError:
                    raise
                except RandlabError as e:
                    raise _err(spec_keys.where, str(e))
                spec_keys.done()

    def get(self, kind: str, name: str, where: str):
        """The object of `kind` called `name`; `where` locates the reference."""
        if name not in self._built[kind]:
            raise _err(where, f"unknown {_OBJECTS[kind][0]} '{name}'")
        return self._built[kind][name]


SCENARIO_DIR = Path(__file__).parent / "scenarios"
GOLDEN_DIR = SCENARIO_DIR / "golden"


def bundled_scenarios() -> List[Path]:
    """Paths of the scenario files shipped with the package."""
    return sorted(SCENARIO_DIR.glob("*.json"))


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"{path}: cannot read: {e}")
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    doc = _Keys(raw, str(path))
    name = doc.take("name", "str")
    objects = doc.take("objects", "object", {})
    entries = doc.take("experiments", "list", [])
    doc.done()
    experiments: List[Experiment] = []
    for i, entry in enumerate(entries):
        keys = _Keys(entry, f"experiments[{i}]")
        ename = keys.take("name", "str")
        kind = keys.take("kind", "str")
        if any(e.name == ename for e in experiments):
            raise _err(keys.where, f"duplicate experiment name '{ename}'")
        if kind not in HANDLERS:
            raise _err(keys.where, f"unknown experiment kind '{kind}'")
        experiments.append(Experiment(ename, kind, keys.left))
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

    def report(self, exp: Experiment, suffix: str, header: Sequence[str],
               rows: Sequence[Sequence[object]], **want: object) -> Tuple[str, Optional[str]]:
        """Write one CSV report; return its file name and its first failed
        check, "<file> row <n> <column>", or None when every check holds."""
        fname = self.write(exp, suffix, csv_text(header, rows))
        failed = _failed_cell(header, rows, want)
        return fname, failed and f"{fname} {failed}"


def _failed_cell(header: Sequence[str], rows: Sequence[Sequence[object]],
                 want: Dict[str, object]) -> Optional[str]:
    """The first cell, row by row, of a `want` column that differs from its
    wanted value, as "row <n> <column>" (n counts data rows from 1)."""
    if not want.keys() <= set(header):
        raise ValueError(f"check columns {sorted(want)} not all in {header}")
    cols = [(i, name) for i, name in enumerate(header) if name in want]
    for n, row in enumerate(rows, 1):
        for i, name in cols:
            if row[i] != want[name]:
                return f"row {n} {name}"
    return None


def _fact(exp: Experiment, *reports: Tuple[str, Optional[str]]) -> RunFact:
    """An experiment's reports, failed at the first failure among them."""
    failed = next((where for _, where in reports if where), None)
    return RunFact(exp.name, exp.kind, failed, tuple(fname for fname, _ in reports))


def _fireworks_config(ctx: Context, keys: _Keys) -> FireworksConfig:
    """The config read off `keys`, which must hold no other key."""
    names = keys.take("adversaries", "names")
    k, target, budget = (keys.take(key, "int") for key in ("k", "target_length", "stage_budget"))
    bounds = keys.take("cap_bounds", "ints", None)
    keys.done()
    advs = [ctx.objects.get("enumerators", n, keys.where) for n in names]
    return FireworksConfig.build(advs, k, target, budget, bounds)


def _run_fireworks_run(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    caps = keys.take("caps", "ints", None)
    seed = keys.take("seed", "int", None)
    keep_trace = keys.take("trace", "bool", False)
    cfg = _fireworks_config(ctx, keys)
    if caps is not None and seed is not None:
        raise _err(exp.name, "give 'caps' or 'seed', not both")
    if caps is None:
        if seed is None:
            raise _err(exp.name, "need either caps or seed")
        caps = caps_from_seed(seed, cfg.cap_bounds)
    run = run_fireworks(cfg, tuple(caps), keep_trace=keep_trace)
    rows = [(r.index, r.cap, r.outcome.value, r.guesses_made, r.final_guess,
             r.active_stage, r.answer_stage, r.failure_proven)
            for r in run.records]
    reports = [ctx.report(exp, ".csv", ["strategy", "cap", "outcome", "guesses", "final_guess",
                                        "active_stage", "answer_stage", "failure_proven"], rows)]
    if keep_trace:
        body = "\n".join(run.trace) + ("\n" if run.trace else "")
        head = f"caps={render_field(tuple(caps))} x={run.x_prefix} stages={run.stages_used}\n"
        reports.append((ctx.write(exp, ".txt", head + body), None))
    return _fact(exp, *reports)


def _failing_vectors(sw: Sweep) -> List[tuple]:
    """(caps, outcomes, x prefix) of each failing vector, in cap order: the
    failing leaves spelt out; no two vectors share caps, so the sort
    compares nothing past them."""
    return sorted((caps, [o.value for o in leaf.run.outcomes], leaf.run.x_prefix)
                  for leaf in sw.leaves if leaf.run.failed for caps in itertools.product(*leaf.box))


def _run_fireworks_sweep(ctx: Context, exp: Experiment) -> RunFact:
    cfg = _fireworks_config(ctx, _Keys(exp.params, exp.name))
    sw = sweep(cfg)
    rows = _failing_vectors(sw)
    residue_bound = sum(Fraction(1, n) for n in cfg.cap_bounds)
    within = sw.probability.as_fraction() <= residue_bound
    summary = ctx.report(
        exp, ".csv", ["adversaries", "k", "cap_bounds", "total_vectors", "failing_vectors",
                      "failure_probability", "residue_bound", "within_bound"],
        [(exp.params["adversaries"], cfg.k, cfg.cap_bounds, sw.total, len(rows),
          sw.probability, residue_bound, within)], within_bound=True)
    return _fact(exp, summary,
                 ctx.report(exp, "_failures.csv", ["caps", "outcomes", "x_prefix"], rows))


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
    cfg = _fireworks_config(ctx, _Keys(exp.params, exp.name))
    table = {caps: leaf.run.outcomes
             for leaf in sweep(cfg).leaves for caps in itertools.product(*leaf.box)}
    rows = []
    ranges = [range(1, n + 1) for n in cfg.cap_bounds]
    for e, axis_caps in enumerate(ranges):
        for fixed in itertools.product(*ranges[:e], *ranges[e + 1:]):
            axis = [table[fixed[:e] + (cap,) + fixed[e:]][e] for cap in axis_caps]
            good, fail_at = _axis_pattern(axis)
            rows.append((e, fixed, [o.value for o in axis],
                         None if fail_at is None else fail_at + 1, good))
    return _fact(exp, ctx.report(exp, ".csv", ["axis", "fixed_caps", "outcomes", "failing_cap",
                                               "pattern_ok"], rows, pattern_ok=True))


def _run_fireworks_extract(ctx: Context, exp: Experiment) -> RunFact:
    cfg = _fireworks_config(ctx, _Keys(exp.params, exp.name))
    sw = sweep(cfg)
    union = EMPTY_SET
    rows = []
    for e, fs in enumerate(sw.failure_sets()):
        residue = fs.residue()
        union = union | residue
        bound = Dyadic(1, cfg.cap_bounds[e].bit_length() - 1)
        rows.append((e, fs.committed.final(), fs.answered.final(), residue,
                     residue.measure(), bound, residue.measure() <= bound))
    return _fact(exp, ctx.report(exp, ".csv", ["strategy", "committed", "answered", "residue",
                                               "residue_measure", "measure_bound", "within_bound"],
                                 rows, within_bound=True),
                 ctx.report(exp, "_union.csv", ["union_measure", "sweep_probability", "agree"],
                            [(union.measure(), sw.probability, union.measure() == sw.probability)],
                            agree=True))


def _convert_d2u_rows(test: DemuthTest) -> List[tuple]:
    out = demuth_to_diffunion(test)
    return [(n, test.levels[n].version_count(), test.version_bounds[n],
             len(out.levels[n]), out.pair_bounds[n],
             out.level_final(n).strings == test.level_final(n).strings)
            for n in range(len(test.levels))]


def _input_audit(test: DemuthTest) -> Optional[str]:
    # Implies the output's audit: pair counts equal bounds, final_identity carries measures.
    bad = [row.level for row in verify_demuth(test).rows if not row.ok]
    return f"input test level {bad[0]}" if bad else None


def _convert_u2d_rows(test: DiffUnionTest) -> List[tuple]:
    back = diffunion_to_demuth(test)
    rows = []
    for n, row in enumerate(verify_demuth(back).rows):
        target = test.level_final(n + 1)
        covered = all(target.is_subset(v.open_at(back.horizon))
                      for _, v in back.levels[n].versions)
        rows.append((n, row.version_count, row.version_bound, row.measure,
                     row.measure_bound, covered, row.ok and covered))
    return rows


# direction -> (object kind, report rows, header, check columns, the check no column shows)
_CONVERSIONS = {
    "d2u": ("demuth_tests", _convert_d2u_rows,
            ["level", "versions", "version_bound", "pairs", "pair_bound", "final_identity"],
            {"final_identity": True}, _input_audit),
    "u2d": ("diff_tests", _convert_u2d_rows,
            ["level", "versions", "version_bound", "measure", "measure_bound", "covers_final", "ok"],
            {"covers_final": True, "ok": True}, lambda test: None),
}


def _run_convert(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    kind, rows_of, header, want, audit = _CONVERSIONS[keys.take("direction", "direction")]
    test_name = keys.take("test", "str")
    keys.done()
    test = ctx.objects.get(kind, test_name, exp.name)
    fname, failed = ctx.report(exp, ".csv", header, rows_of(test), **want)
    return _fact(exp, (fname, failed or audit(test)))


def _run_convert_sweep(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    direction = keys.take("direction", "direction")
    count = keys.take("count", "nat")
    seed = keys.take("seed", "int")
    levels = keys.take("levels", "nat", 4)
    bound = keys.take("bound", "positive", 4)
    horizon = keys.take("horizon", "nat", 8)
    keys.done()
    _, rows_of, header, want, audit = _CONVERSIONS[direction]
    make = random_demuth_test if direction == "d2u" else random_diffunion_test
    rows = []
    for i in range(count):
        test = make(random.Random(f"{seed}:{i}"), levels, bound, horizon)
        failed = _failed_cell(header, rows_of(test), want) or audit(test)
        rows.append((i, f"{seed}:{i}", failed is None))
    return _fact(exp, ctx.report(exp, ".csv", ["instance", "seed", "ok"], rows, ok=True))


def _strings_up_to(length: int) -> List[BitString]:
    return [s for n in range(length + 1) for s in BitString.all_strings(n)]


def _run_kg_roundtrip(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    tree = ctx.objects.get("trees", keys.take("tree", "str"), exp.name)
    stem = BitString(keys.take("stem", "bits", "^"))
    raw = keys.take("payloads", "payloads")
    keys.done()
    payloads = (_strings_up_to(raw["all_up_to"]) if isinstance(raw, dict)
                else [BitString(p) for p in raw])
    rows = []
    for p in payloads:
        code = kg_encode(p, stem, tree)
        back = kg_decode(code, stem, tree, tree.horizon)
        rows.append((p, code, back, back == p, tree.viable(code, tree.horizon)))
    return _fact(exp, ctx.report(exp, ".csv", ["payload", "codeword", "decoded", "roundtrip",
                                               "viable"], rows, roundtrip=True, viable=True))


def _run_kg_sweep(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    count = keys.take("count", "nat")
    seed = keys.take("seed", "int")
    depth = keys.take("depth", "int", 24)
    horizon = keys.take("horizon", "nat", 8)
    payloads = _strings_up_to(keys.take("payload_len", "nat", 4))
    keys.done()
    rows = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        tree = random_pi01_tree(rng, depth=depth, horizon=horizon)
        bad = 0
        for p in payloads:
            code = kg_encode(p, BitString("^"), tree)
            if kg_decode(code, BitString("^"), tree, horizon) != p or not tree.viable(code, horizon):
                bad += 1
        rows.append((i, f"{seed}:{i}", tree.class_measure(horizon), len(payloads), bad))
    return _fact(exp, ctx.report(exp, ".csv", ["instance", "seed", "class_measure", "payloads",
                                               "failures"], rows, failures=0))


def _run_w2r(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    seed = keys.take("seed", "int")
    payloads = [BitString(p) for p in keys.take("payloads", "bit_list")]
    family_count = keys.take("family_count", "positive", 3)
    family_levels = keys.take("family_levels", "nat", 3)
    depth = keys.take("depth", "int", 24)
    horizon = keys.take("horizon", "nat", 8)
    keys.done()
    scheme, enc = build_working_w2r(seed, payloads, family_count, family_levels,
                                    depth, horizon)
    stab = stabilization_stage(enc)
    stream = BitString("".join(p.bits for p in payloads))
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
    # `match` alone: if decoded == stream, every position agrees, past stab too.
    return _fact(exp, ctx.report(exp, ".csv", ["codeword", "stabilization_stage", "decoded",
                                               "payload_stream", "match", "early_disagreements"],
                                 [(enc.codeword, stab, decoded, stream, decoded == stream,
                                   early_disagreements)], match=True),
                 ctx.report(exp, "_layers.csv", ["family", "payload", "g_final", "g_trajectory"],
                            layer_rows),
                 ctx.report(exp, "_positions.csv", ["position", "expected", "decoded",
                                                    "claimed_at", "agree"], pos_rows))


def _run_w2r_hitting(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    seed = keys.take("seed", "int")
    positions = keys.take("positions", "nats")
    patterns = keys.take("patterns", "bit_list")
    depth = keys.take("depth", "int", 220)
    horizon = keys.take("horizon", "nat", 8)
    family_count = keys.take("family_count", "positive", 3)
    family_levels = keys.take("family_levels", "nat", 3)
    keys.done()
    if len(positions) != len(patterns):
        raise _err(exp.name, "positions and patterns must pair up")
    # Shared-subtree tries; materializing these opens as string lists would
    # cost 2^position generators each.
    opens = [uniform_suffix_set(BitString(p), pos)
             for pos, p in zip(positions, patterns)]
    scheme, payloads, steps, enc = hitting_run(
        seed, opens, family_count, family_levels, depth, horizon)
    stream = BitString("".join(p.bits for p in payloads))
    t_max = max(scheme.horizon, len(stream)) + horizon
    decoded = gamma_decode(enc.codeword, t_max, scheme).output_prefix()
    rows = [(i, pos, BitString(pat), *steps[i], payloads[i], opens[i].contains_prefix_of(decoded))
            for i, (pos, pat) in enumerate(zip(positions, patterns))]
    return _fact(exp, ctx.report(exp, ".csv", ["step", "position", "pattern", "n", "steering",
                                               "payload", "decoded_inside"], rows,
                                 decoded_inside=True),
                 ctx.report(exp, "_summary.csv", ["codeword_length", "decoded", "stream_match"],
                            [(len(enc.codeword), decoded, decoded == stream)], stream_match=True))


def _minpair_rows(phi, psi, nat_max: int, horizon: int) -> List[tuple]:
    """One row per induced level, then the audit of the test they assemble."""
    rows = []
    levels = []
    for n in range(nat_max + 1):
        stem = from_nat(n)
        vos, trace = induced_demuth_level(phi, psi, stem, horizon)
        bound = 1 << n
        changes = trace.mind_changes()
        levels.append(vos)
        rows.append((stem, n, trace.family is not None,
                     trace.family.found_stage if trace.family else None,
                     changes, bound, vos.version_count(),
                     vos.open_at(horizon).measure(),
                     changes <= bound and vos.version_count() <= bound))
    assembled = DemuthTest(tuple(levels), tuple(1 << n for n in range(nat_max + 1)), horizon)
    rows.append(("assembled", "-", "-", "-", "-", "-", "-", "-", verify_demuth(assembled).ok))
    return rows


def _run_minpair_sweep(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    count = keys.take("count", "nat")
    seed = keys.take("seed", "int")
    nat_max = keys.take("nat_max", "nat", 3)
    horizon = keys.take("horizon", "nat", 8)
    depth = keys.take("depth", "int", 6)
    axioms = keys.take("axioms", "nat", 120)
    keys.done()
    rows = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        phi, psi = random_functional_pair(rng, depth, axioms, horizon)
        rows += [(i,) + row for row in _minpair_rows(phi, psi, nat_max, horizon)]
    return _fact(exp, ctx.report(exp, ".csv", ["pair", "stem", "nat", "family_found",
                                               "found_stage", "mind_changes", "change_bound",
                                               "versions", "final_measure", "ok"], rows, ok=True))


def _run_minpair_case(ctx: Context, exp: Experiment) -> RunFact:
    keys = _Keys(exp.params, exp.name)
    phi = ctx.objects.get("functionals", keys.take("phi", "str"), exp.name)
    psi = ctx.objects.get("functionals", keys.take("psi", "str"), exp.name)
    g_prefix = BitString(keys.take("g", "bits"))
    x = BitString(keys.take("x", "bits"))
    stem_length = keys.take("stem_length", "int")
    horizon = keys.take("horizon", "int")
    keys.done()
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
    return _fact(exp, (ctx.write(exp, ".txt", "".join(lines)), None))


def _run_interaction(ctx: Context, exp: Experiment) -> RunFact:
    _Keys(exp.params, exp.name).done()
    rep = emit_interaction_report(ctx.result.facts)
    return _fact(exp, (ctx.write(exp, ".txt", rep.render()), None))


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
