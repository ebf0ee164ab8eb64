"""The package's records: immutable named tuples that compare, hash and
print as the frozen dataclasses they replaced did.  The four that check
their fields refuse what they refused before, also in `_replace` as in
`dataclasses.replace`, and the non-integer stages and horizons the scenario
reader refuses.  Importing the package loads neither `dataclasses` nor
`inspect`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randlab
from randlab import coding, demuth, fireworks, minpair, reports, scenario
from randlab.coding import OpenFamily, W2RScheme
from randlab.demuth import DemuthTest, DiffPair, DiffUnionTest, VersionedOpenSet
from randlab.errors import RandlabError, SchemeError
from randlab.staged import Pi01Tree, StagedOpenSet

SRC = Path(randlab.__file__).resolve().parent.parent

PURE = {
    coding: ("LayerRecord", "W2REncoding", "SubProcedureRecord", "GammaResult"),
    demuth: ("DiffPair", "LevelReport", "TestReport"),
    fireworks: ("FireworksConfig", "StrategyRecord", "FireworksRun", "Leaf", "FailureSets", "Sweep"),
    minpair: ("PairFamily", "FApprox", "BranchIsolation", "IsolationAnalysis", "CaseReport"),
    reports: ("Cell", "RunFact"),
    scenario: ("Experiment", "Scenario"),
}
VALIDATING = {coding: ("OpenFamily", "W2RScheme"), demuth: ("DemuthTest", "DiffUnionTest")}
RECORDS = [getattr(mod, name) for table in (PURE, VALIDATING)
           for mod, names in table.items() for name in names]


def staged(events, horizon=4):
    return StagedOpenSet.from_events(events, horizon)


def _valid(cls):
    """Field values the four checking records accept."""
    empty = staged([])
    family = OpenFamily((staged([(0, ["0"])]), staged([(1, ["00"])])))
    return {
        OpenFamily: (family.levels,),
        W2RScheme: (Pi01Tree(6, horizon=4), (family,), (0, 0), 4),
        DemuthTest: ((VersionedOpenSet([(0, empty), (2, empty)]),), (2,), 4),
        DiffUnionTest: (((DiffPair(empty, empty),),), (1,), 4),
    }[cls]


def _fields(cls):
    # The pure records check nothing, so distinct placeholders show each
    # field in its place.
    if cls in (OpenFamily, W2RScheme, DemuthTest, DiffUnionTest):
        return _valid(cls)
    return tuple(f"v{i}" for i in range(len(cls._fields)))


def test_every_record_of_the_package_is_listed():
    found = {cls for mod in sys.modules.values()
             if mod is not None and mod.__name__.startswith("randlab.")
             for cls in vars(mod).values()
             if isinstance(cls, type) and cls.__module__ == mod.__name__
             and issubclass(cls, tuple) and hasattr(cls, "_fields") and not cls.__name__.startswith("_")}
    assert found == set(RECORDS)
    assert len(RECORDS) == 26


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_compares_hashes_and_prints_by_its_fields(cls):
    values = _fields(cls)
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert repr(a) == cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(cls._fields, values)) + ")"
    assert a._replace(**{cls._fields[-1]: values[-1]}) == a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_refuses_assignment(cls):
    rec = cls(*_fields(cls))
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_open_family_length_and_truth_count_its_levels():
    family = OpenFamily(_valid(OpenFamily)[0])
    assert len(family) == 2 and family
    assert len(OpenFamily((staged([]),))) == 1


def _family(*levels):
    return lambda: OpenFamily(levels)


def _scheme(stars, horizon=4):
    return lambda: W2RScheme(Pi01Tree(6, horizon=4), (OpenFamily((staged([]),)),), stars, horizon)


def _demuth(levels, bounds, horizon=4):
    return lambda: DemuthTest(levels, bounds, horizon)


def _diffunion(levels, bounds, horizon=4):
    return lambda: DiffUnionTest(levels, bounds, horizon)


LATE = VersionedOpenSet([(0, staged([], 6)), (7, staged([], 6))])
PAIR = DiffPair(staged([]), staged([]))

REFUSED = {
    "family-empty": (_family(), SchemeError, "at least one level"),
    "family-not-nested": (_family(staged([(1, ["00"])]), staged([(0, ["0"])])), SchemeError,
                          "levels 0,1 not nested at stage 0"),
    "scheme-star-index": (_scheme((1,)), SchemeError, "star index 1 has no family"),
    "scheme-float-horizon": (_scheme((0,), 4.0), RandlabError, "horizon 4.0 must be an integer"),
    "scheme-bool-horizon": (_scheme((0,), True), RandlabError, "horizon True must be an integer"),
    "demuth-bounds": (_demuth((LATE,), ()), RandlabError, "one version bound per level"),
    "demuth-late-version": (_demuth((LATE,), (2,), 6), RandlabError,
                            "horizon 6 precedes last version of level 0 at 7"),
    "demuth-float-horizon": (_demuth((LATE,), (2,), 4.5), RandlabError, "horizon 4.5 must be an integer"),
    "demuth-str-horizon": (_demuth((), (), "4"), RandlabError, "horizon '4' must be an integer"),
    "diffunion-bounds": (_diffunion(((PAIR,),), (1, 1)), RandlabError, "one pair bound per level"),
    "diffunion-bool-horizon": (_diffunion(((PAIR,),), (1,), True), RandlabError,
                               "horizon True must be an integer"),
    "diffunion-float-horizon": (_diffunion((), (), 2.5), RandlabError, "horizon 2.5 must be an integer"),
    "family-replaced-empty": (lambda: OpenFamily(_valid(OpenFamily)[0])._replace(levels=()),
                              SchemeError, "at least one level"),
    "scheme-replaced-star-index": (lambda: _scheme((0,))()._replace(star_indices=(2,)), SchemeError,
                                   "star index 2 has no family"),
    "demuth-replaced-horizon": (lambda: DemuthTest(*_valid(DemuthTest))._replace(horizon=4.5),
                                RandlabError, "horizon 4.5 must be an integer"),
    "diffunion-replaced-bounds": (lambda: DiffUnionTest(*_valid(DiffUnionTest))._replace(pair_bounds=()),
                                  RandlabError, "one pair bound per level"),
    "version-float-stage": (lambda: VersionedOpenSet([(0.5, staged([]))]), RandlabError,
                            "version stage 0.5 must be an integer"),
    "version-bool-stage": (lambda: VersionedOpenSet([(0, staged([])), (True, staged([]))]),
                           RandlabError, "version stage True must be an integer"),
    "version-str-stage": (lambda: VersionedOpenSet([("1", staged([]))]), RandlabError,
                          "version stage '1' must be an integer"),
}


@pytest.mark.parametrize("build, error, message", REFUSED.values(), ids=REFUSED.keys())
def test_checking_records_refuse_with_a_typed_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("cls", [OpenFamily, W2RScheme, DemuthTest, DiffUnionTest],
                         ids=lambda c: c.__name__)
def test_checks_run_in_the_records_own_init(cls):
    # A caller that wraps `__init__` (perfbench's tracer counts scheme
    # attempts there) sees every record built.
    assert "__init__" in vars(cls)
    assert "__new__" not in vars(cls)
    values, calls = _valid(cls), []
    original = cls.__init__
    cls.__init__ = lambda self, *a, **k: calls.append(self) or original(self, *a, **k)
    try:
        rec = cls(*values)
    finally:
        cls.__init__ = original
    assert calls == [rec]


GATE = """
import json
import sys
import randlab.cli
from randlab import scenario
for path in scenario.bundled_scenarios():
    scenario.ObjectTable(scenario.load_scenario(path).objects)
classes = [f"{mod.__name__}.{name}" for mod in list(sys.modules.values())
           if mod is not None and mod.__name__.split(".")[0] == "randlab"
           for name, cls in vars(mod).items()
           if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")]
print(json.dumps({"dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules, "dataclass_classes": classes}))
"""


def test_import_loads_no_dataclass_machinery():
    # A fresh interpreter: this one already holds pytest's imports.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", GATE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"dataclasses": False, "inspect": False, "dataclass_classes": []}
