"""Scenario files: named objects plus a list of experiments, run to reports.

A scenario is one JSON document.  `objects` declares reusable staged
objects by name; `experiments` runs library operations over them (or over
seeded generator material) and writes one or two report files each.
Identical scenario plus seed gives byte-identical reports; every file name
is derived from the scenario and experiment names only.

The keys of each object kind (`_OBJECTS`) and of each experiment kind
(`EXPERIMENT_KEYS`) are stated once, `(key, kind)` if required and
`(key, kind, default)` if not.  One `_Keys` reader checks a whole JSON
object against its entry, in order, then refuses any other key; the
object's builder or the experiment's handler gets the checked values as
keyword arguments.  A missing, mistyped or unknown key and a reference to
an unknown object are each a `ScenarioError` naming its location (exit 2).
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bitstring import BitString, from_nat
from .cylinders import EMPTY_SET, uniform_suffix_set
from .demuth import (DemuthTest, DiffPair, DiffUnionTest, VersionedOpenSet,
                     demuth_to_diffunion, diffunion_to_demuth, verify_demuth)
from .dyadic import Dyadic
from .errors import GuardExceeded, RandlabError, ScenarioError
from .fireworks import FireworksConfig, Outcome, Sweep, caps_from_seed, run_fireworks, sweep
from .coding import (GammaResult, W2REncoding, W2RScheme, gamma_decode, kg_decode, kg_encode,
                     stabilization_stage)
from .generators import (build_working_w2r, hitting_run, random_demuth_test,
                         random_diffunion_test, random_functional_pair,
                         random_pi01_tree)
from .minpair import classify_case, induced_demuth_level
from .reports import RunFact, csv_text, interaction_text, render_field
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
    """The facts of one run and one (path, text) record per report it
    wrote.  The text of every report stays held until the result is
    dropped, so the CLI can echo it without reading the file back."""

    def __init__(self) -> None:
        self.written: List[Tuple[Path, str]] = []
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
                 and _is_int(v["all_up_to"]) and v["all_up_to"] >= 0,
                 'a list of bit strings or {"all_up_to": n} with n >= 0'),
    "direction": (lambda v: _is_str(v) and v in _CONVERSIONS, "'d2u' or 'u2d'"),
    "events": (_list_of(_pair_of(_is_int, _list_of(_is_bits))),
               "a list of [stage, [bit strings]] events"),
    "axiom_events": (_list_of(_pair_of(_is_int, _list_of(_pair_of(_is_bits, _is_bits)))),
                     "a list of [stage, [[sigma, tau]]] events"),
    "version_levels": (_list_of(_list_of(_pair_of(_is_int, _is_str))),
                       "a list of levels of [stage, open set] versions"),
    "pair_levels": (_list_of(_list_of(_pair_of(_is_str, _is_str))),
                    "a list of levels of [open set, open set] pairs"),
}

# Kinds whose lists hold a seeded run's instances: an empty one checks nothing.
_NON_EMPTY = {"nats", "bit_list", "payloads"}

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
        if kind in _NON_EMPTY and value == []:
            raise _err(self.where, f"'{key}' must not be an empty list")
        return value

    def read(self, entries: Sequence[tuple]) -> Dict[str, object]:
        """The value of each entry, (key, kind) if required or (key, kind,
        default) if not, checked in order; then no other key may be left."""
        values = {entry[0]: self.take(*entry) for entry in entries}
        self.done()
        return values

    def done(self) -> None:
        if self.left:
            raise _err(self.where, f"unknown keys {sorted(self.left)}")


def _plain(build: Callable) -> Callable[..., object]:
    """The builder of an object that names no other: `build(**values)`."""
    return lambda table, where, **values: build(**values)


def _demuth_test(table: "ObjectTable", where: str, horizon: int, version_bounds: List[int],
                 levels: list) -> DemuthTest:
    return DemuthTest(tuple(VersionedOpenSet([(stage, table.get("open_sets", ref, where))
                                              for stage, ref in level]) for level in levels),
                      tuple(version_bounds), horizon)


def _diff_test(table: "ObjectTable", where: str, horizon: int, pair_bounds: List[int],
               levels: list) -> DiffUnionTest:
    return DiffUnionTest(tuple(tuple(DiffPair(table.get("open_sets", u, where),
                                              table.get("open_sets", v, where))
                                     for u, v in level) for level in levels),
                         tuple(pair_bounds), horizon)


_SCHEDULE_KEYS = (("events", "events"), ("horizon", "int"))

# kind -> (one object's name in errors, its keys, builder); built in this
# order, so a test can name the open sets built before it.
_OBJECTS: Dict[str, Tuple[str, tuple, Callable[..., object]]] = {
    "enumerators": ("enumerator", _SCHEDULE_KEYS, _plain(Enumerator)),
    "open_sets": ("open set", _SCHEDULE_KEYS, _plain(StagedOpenSet)),
    "functionals": ("functional", (("events", "axiom_events"), ("horizon", "int")),
                    _plain(TuringFunctional)),
    "trees": ("tree", (("depth", "int"), ("events", "events", ()), ("horizon", "int")),
              _plain(Pi01Tree)),
    "demuth_tests": ("test", (("horizon", "int"), ("version_bounds", "ints"),
                              ("levels", "version_levels")), _demuth_test),
    "diff_tests": ("test", (("horizon", "int"), ("pair_bounds", "ints"),
                            ("levels", "pair_levels")), _diff_test),
}


class ObjectTable:
    """Named staged objects, built in dependency order."""

    def __init__(self, raw: object) -> None:
        keys = _Keys(raw, "objects")
        for kind in keys.left:
            if kind not in _OBJECTS:
                raise _err("objects", f"unknown object kind '{kind}'")
        self._built: Dict[str, Dict[str, object]] = {}
        for kind, (_, entries, build) in _OBJECTS.items():
            built = self._built[kind] = {}
            for name, spec in sorted(keys.take(kind, "object", {}).items()):
                where = f"objects.{kind}.{name}"
                values = _Keys(spec, where).read(entries)
                try:
                    built[name] = build(self, where, **values)
                except ScenarioError:
                    raise
                except RandlabError as e:
                    raise _err(where, str(e))

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
    doc = _Keys(raw, str(path)).read((("name", "str"), ("objects", "object", {}),
                                      ("experiments", "list", [])))
    experiments: List[Experiment] = []
    for i, entry in enumerate(doc["experiments"]):
        keys = _Keys(entry, f"experiments[{i}]")
        ename = keys.take("name", "str")
        kind = keys.take("kind", "str")
        if any(e.name == ename for e in experiments):
            raise _err(keys.where, f"duplicate experiment name '{ename}'")
        if kind not in HANDLERS:
            raise _err(keys.where, f"unknown experiment kind '{kind}'")
        experiments.append(Experiment(ename, kind, keys.left))
    return Scenario(doc["name"], doc["objects"], tuple(experiments))


class Context:
    """One `run_scenario`: its objects, its output directory, the facts so
    far, and one walk per fireworks config, which every fireworks report of
    the run reads and which dies with the run."""

    def __init__(self, scenario: Scenario, out_dir: Path) -> None:
        self.scenario = scenario
        self.objects = ObjectTable(scenario.objects)
        self.out_dir = out_dir
        self.result = ScenarioResult()
        self._sweeps: Dict[FireworksConfig, Sweep] = {}

    def swept(self, cfg: FireworksConfig) -> Sweep:
        """The walk over `cfg`'s cap space, made the first time a report
        asks, and refused past `SWEEP_GUARD` vectors before it is made.  A
        config's enumerators are the object table's, keyed by identity, so
        a config read twice is one key."""
        found = self._sweeps.get(cfg)
        if found is None:
            _cap_space(cfg)
            found = self._sweeps[cfg] = sweep(cfg)
        return found

    def write(self, exp: Experiment, suffix: str, text: str) -> str:
        fname = f"{self.scenario.name}_{exp.name}{suffix}"
        path = self.out_dir / fname
        # Experiment `sw` with suffix "_failures.csv" and `sw_failures` with ".csv" name one file.
        if any(p == path for p, _ in self.result.written):
            raise _err(exp.name, f"report {fname} is already written by this run")
        try:
            path.write_text(text)
        except OSError as e:
            raise ScenarioError(f"{path}: cannot write: {e}")
        self.result.written.append((path, text))
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


def _fireworks_config(ctx: Context, exp: Experiment, adversaries: List[str], k: int,
                      target_length: int, stage_budget: int,
                      cap_bounds: Optional[List[int]]) -> FireworksConfig:
    advs = [ctx.objects.get("enumerators", n, exp.name) for n in adversaries]
    return FireworksConfig.build(advs, k, target_length, stage_budget, cap_bounds)


def _run_fireworks_run(ctx: Context, exp: Experiment, caps: Optional[List[int]],
                       seed: Optional[int], trace: bool, **config) -> RunFact:
    cfg = _fireworks_config(ctx, exp, **config)
    if caps is not None and seed is not None:
        raise _err(exp.name, "give 'caps' or 'seed', not both")
    if caps is None:
        if seed is None:
            raise _err(exp.name, "need either caps or seed")
        caps = caps_from_seed(seed, cfg.cap_bounds)
    run = run_fireworks(cfg, tuple(caps), keep_trace=trace)
    rows = [(r.index, run.caps[r.index], r.outcome.value, r.guesses_made, r.final_guess,
             r.active_stage, r.answer_stage, r.failure_proven)
            for r in run.records]
    reports = [ctx.report(exp, ".csv", ["strategy", "cap", "outcome", "guesses", "final_guess",
                                        "active_stage", "answer_stage", "failure_proven"], rows)]
    if trace:
        body = "\n".join(run.trace) + ("\n" if run.trace else "")
        head = f"caps={render_field(tuple(caps))} x={run.x_prefix} stages={run.stages_used}\n"
        reports.append((ctx.write(exp, ".txt", head + body), None))
    return _fact(exp, *reports)


def _failing_vectors(sw: Sweep) -> List[tuple]:
    """(caps, outcomes cell, x prefix cell) of each failing vector, in cap
    order: each failing leaf's cells rendered once, then its vectors spelt
    out; no two vectors share caps, so the sort compares nothing past them."""
    cells = [(leaf.box, render_field([o.value for o in leaf.run.outcomes]),
              render_field(leaf.run.x_prefix)) for leaf in sw.leaves if leaf.run.failed]
    return sorted((caps, outcomes, x) for box, outcomes, x in cells
                  for caps in itertools.product(*box))


def _run_fireworks_sweep(ctx: Context, exp: Experiment, **config) -> RunFact:
    cfg = _fireworks_config(ctx, exp, **config)
    sw = ctx.swept(cfg)
    rows = _failing_vectors(sw)
    # Sum of 1/n_e: each cap bound n_e is 2^(its block length).
    bound = sum((Dyadic(1, b) for b in cfg.block_lengths), Dyadic(0))
    within = sw.probability <= bound
    residue_bound = f"{bound.num}/{1 << bound.exp}" if bound.exp else str(bound.num)
    summary = ctx.report(
        exp, ".csv", ["adversaries", "k", "cap_bounds", "total_vectors", "failing_vectors",
                      "failure_probability", "residue_bound", "within_bound"],
        [(config["adversaries"], cfg.k, cfg.cap_bounds, sw.total, len(rows),
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


def _run_fireworks_trichotomy(ctx: Context, exp: Experiment, **config) -> RunFact:
    cfg = _fireworks_config(ctx, exp, **config)
    table = {caps: leaf.run.outcomes
             for leaf in ctx.swept(cfg).leaves for caps in itertools.product(*leaf.box)}
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


def _run_fireworks_extract(ctx: Context, exp: Experiment, **config) -> RunFact:
    cfg = _fireworks_config(ctx, exp, **config)
    sw = ctx.swept(cfg)
    union = EMPTY_SET
    rows = []
    for e, fs in enumerate(sw.failure_sets):
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


def _run_convert(ctx: Context, exp: Experiment, direction: str, test: str) -> RunFact:
    kind, rows_of, header, want, audit = _CONVERSIONS[direction]
    test = ctx.objects.get(kind, test, exp.name)
    fname, failed = ctx.report(exp, ".csv", header, rows_of(test), **want)
    return _fact(exp, (fname, failed or audit(test)))


def _run_convert_sweep(ctx: Context, exp: Experiment, direction: str, count: int, seed: int,
                       levels: int, bound: int, horizon: int) -> RunFact:
    _, rows_of, header, want, audit = _CONVERSIONS[direction]
    make = random_demuth_test if direction == "d2u" else random_diffunion_test
    rows = []
    for i in range(count):
        test = make(random.Random(f"{seed}:{i}"), levels, bound, horizon)
        failed = _failed_cell(header, rows_of(test), want) or audit(test)
        rows.append((i, f"{seed}:{i}", failed is None))
    return _fact(exp, ctx.report(exp, ".csv", ["instance", "seed", "ok"], rows, ok=True))


# A payload list spells out every string up to its length, 2^(n+1) - 1 of
# them up to length n; a longer list is refused before it is made.
PAYLOAD_GUARD = 1 << 16


def _strings_up_to(length: int) -> List[BitString]:
    # 2^(length+1) - 1 <= PAYLOAD_GUARD, without making the power.
    if length + 1 >= PAYLOAD_GUARD.bit_length():
        raise GuardExceeded(f"payload list of all 2^{length + 1} - 1 strings up to length {length} "
                            f"refused (limit {PAYLOAD_GUARD})")
    return [s for n in range(length + 1) for s in BitString.all_strings(n)]


def _run_kg_roundtrip(ctx: Context, exp: Experiment, tree: str, stem: str,
                      payloads: object) -> RunFact:
    tree = ctx.objects.get("trees", tree, exp.name)
    stem = BitString(stem)
    payloads = (_strings_up_to(payloads["all_up_to"]) if isinstance(payloads, dict)
                else [BitString(p) for p in payloads])
    rows = []
    for p in payloads:
        code = kg_encode(p, stem, tree)
        back = kg_decode(code, stem, tree, tree.horizon)
        rows.append((p, code, back, back == p, tree.viable(code, tree.horizon)))
    return _fact(exp, ctx.report(exp, ".csv", ["payload", "codeword", "decoded", "roundtrip",
                                               "viable"], rows, roundtrip=True, viable=True))


def _run_kg_sweep(ctx: Context, exp: Experiment, count: int, seed: int, depth: int,
                  horizon: int, payload_len: int) -> RunFact:
    payloads = _strings_up_to(payload_len)
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


# The fireworks reports spell out each vector of a config's cap space (the
# failing vectors, the trichotomy's table, the failure sets' antichains);
# a config with more vectors is refused before it is walked.
SWEEP_GUARD = 1 << 24


def _cap_space(cfg: FireworksConfig) -> int:
    total = 1
    for n in cfg.cap_bounds:
        total *= n
        if total > SWEEP_GUARD:
            raise GuardExceeded(f"cap sweep over {total} vectors refused (limit {SWEEP_GUARD})")
    return total


# The `g_trajectory` cell spells each layer's index at every stage up to the
# settle stage, the one per-stage output left; a longer cell is refused.
TRAJECTORY_GUARD = 1 << 20


def _per_stage(changes: Sequence[Tuple[int, int]], settle: int) -> List[int]:
    """The index at each stage 0..settle, from its (stage, index) change points."""
    if settle + 1 > TRAJECTORY_GUARD:
        raise GuardExceeded(f"g_trajectory cell over {settle + 1} stages refused "
                            f"(limit {TRAJECTORY_GUARD})")
    cell: List[int] = []
    for (t, g), end in zip(changes, [t for t, _ in changes[1:]] + [settle + 1]):
        cell += [g] * (end - t)
    return cell


def _gamma(scheme: W2RScheme, enc: W2REncoding, stream: BitString) -> GammaResult:
    # Past the settle stage every replay of a true codeword parses its layers,
    # so by this stage every position of the payload stream is claimed.
    return gamma_decode(enc.codeword, scheme.settle_stage() + len(stream), scheme)


def _run_w2r(ctx: Context, exp: Experiment, seed: int, payloads: List[str], depth: int,
             horizon: int) -> RunFact:
    payloads = [BitString(p) for p in payloads]
    bits = "".join(p.bits for p in payloads)
    if not bits:
        # Nothing to decode: the run would check no bit, yet resolve its cell.
        raise _err(exp.name, "the payload stream has no bits")
    stream = BitString(bits)
    scheme, enc = build_working_w2r(seed, payloads, depth, horizon)
    stab = stabilization_stage(enc)
    res = _gamma(scheme, enc, stream)
    decoded = res.output_prefix()
    layer_rows = [(lay.family_index, lay.payload, lay.g_value,
                   _per_stage(lay.g_trajectory, scheme.settle_stage())) for lay in enc.layers]
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


def _run_w2r_hitting(ctx: Context, exp: Experiment, seed: int, positions: List[int],
                     patterns: List[str], depth: int, horizon: int) -> RunFact:
    if len(positions) != len(patterns):
        raise _err(exp.name, "positions and patterns must pair up")
    pats = [BitString(p) for p in patterns]
    for pos, pat in zip(positions, pats):
        # The decoded stream must reach past the pattern, each decoded bit
        # costs a codeword bit, and a codeword is at most `depth` bits: such
        # a row never succeeds, so it is refused before its open is built.
        if pat and pos + len(pat) > depth:
            raise _err(exp.name, f"position {pos} with pattern {pat} needs {pos + len(pat)} "
                                 f"decoded bits, more than the depth {depth} allows")
    # Shared-subtree tries; materializing these opens as string lists would
    # cost 2^position generators each.
    opens = [uniform_suffix_set(pat, pos) for pos, pat in zip(positions, pats)]
    scheme, payloads, steps, enc = hitting_run(seed, opens, depth, horizon)
    stream = BitString("".join(p.bits for p in payloads))
    decoded = _gamma(scheme, enc, stream).output_prefix()
    rows = [(i, pos, pat, *steps[i], payloads[i], opens[i].contains_prefix_of(decoded))
            for i, (pos, pat) in enumerate(zip(positions, pats))]
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


_MINPAIR_DEPTH = 6  # the depth of the labeled tree each drawn functional grows


def _run_minpair_sweep(ctx: Context, exp: Experiment, count: int, seed: int, nat_max: int,
                       horizon: int, axioms: int) -> RunFact:
    rows = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        phi, psi = random_functional_pair(rng, _MINPAIR_DEPTH, axioms, horizon)
        rows += [(i,) + row for row in _minpair_rows(phi, psi, nat_max, horizon)]
    return _fact(exp, ctx.report(exp, ".csv", ["pair", "stem", "nat", "family_found",
                                               "found_stage", "mind_changes", "change_bound",
                                               "versions", "final_measure", "ok"], rows, ok=True))


def _run_minpair_case(ctx: Context, exp: Experiment, phi: str, psi: str, g: str, x: str,
                      stem_length: int, horizon: int) -> RunFact:
    phi, psi = (ctx.objects.get("functionals", name, exp.name) for name in (phi, psi))
    rep = classify_case(phi, psi, BitString(g), BitString(x), stem_length, horizon)
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
    return _fact(exp, (ctx.write(exp, ".txt", interaction_text(ctx.result.facts)), None))


_FIREWORKS_KEYS = (("adversaries", "names"), ("k", "int"), ("target_length", "int"),
                   ("stage_budget", "int"), ("cap_bounds", "ints", None))

# kind -> the keys of its experiments, in the order they are checked; the
# handler of the kind gets their values as keyword arguments.
EXPERIMENT_KEYS: Dict[str, tuple] = {
    "fireworks_run": (("caps", "ints", None), ("seed", "int", None), ("trace", "bool", False),
                      *_FIREWORKS_KEYS),
    "fireworks_sweep": _FIREWORKS_KEYS,
    "fireworks_trichotomy": _FIREWORKS_KEYS,
    "fireworks_extract": _FIREWORKS_KEYS,
    "convert": (("direction", "direction"), ("test", "str")),
    "convert_sweep": (("direction", "direction"), ("count", "positive"), ("seed", "int"),
                      ("levels", "nat", 4), ("bound", "positive", 4), ("horizon", "nat", 8)),
    "kg_roundtrip": (("tree", "str"), ("stem", "bits", "^"), ("payloads", "payloads")),
    "kg_sweep": (("count", "positive"), ("seed", "int"), ("depth", "int", 24),
                 ("horizon", "nat", 8), ("payload_len", "nat", 4)),
    "w2r": (("seed", "int"), ("payloads", "bit_list"), ("depth", "int", 24),
            ("horizon", "nat", 8)),
    "w2r_hitting": (("seed", "int"), ("positions", "nats"), ("patterns", "bit_list"),
                    ("depth", "int", 220), ("horizon", "nat", 8)),
    "minpair_sweep": (("count", "positive"), ("seed", "int"), ("nat_max", "nat", 3),
                      ("horizon", "nat", 8), ("axioms", "nat", 120)),
    "minpair_case": (("phi", "str"), ("psi", "str"), ("g", "bits"), ("x", "bits"),
                     ("stem_length", "int"), ("horizon", "int")),
    "interaction": (),
}

HANDLERS: Dict[str, Callable[..., RunFact]] = {
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
    # Report file names are `{scenario}_{experiment}{suffix}`, inside out_dir.
    names = [("scenario", scenario.name), *(("experiment", e.name) for e in scenario.experiments)]
    for what, name in names:
        if any(c in name for c in "/\\\0"):
            raise ScenarioError(f"{what} name {name!r} has a '/', '\\' or NUL; "
                                "report file names have no directory component")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ScenarioError(f"{out_dir}: cannot create: {e}")
    ctx = Context(scenario, out_dir)
    for exp in scenario.experiments:
        values = _Keys(exp.params, exp.name).read(EXPERIMENT_KEYS[exp.kind])
        try:
            fact = HANDLERS[exp.kind](ctx, exp, **values)
        except ScenarioError:
            raise
        except RandlabError as e:
            raise _err(exp.name, str(e))
        ctx.result.facts.append(fact)
    return ctx.result
