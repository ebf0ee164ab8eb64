"""No loop of the package visits every stage up to a horizon: no `range(...)`
call in a package module has a bound that names `horizon`, `settle_stage`,
`t_max` or `stage_budget`.  Stage queries answer alike between two change stages, so a
loop over stages steps from one change stage to the next instead, and its
cost follows the events, not the horizon."""

import ast
import pathlib

import randlab

PACKAGE = pathlib.Path(randlab.__file__).resolve().parent
STAGE_BOUNDS = {"horizon", "settle_stage", "t_max", "stage_budget"}


def _stage_ranges(tree: ast.AST):
    """(line, name) of each `range` call whose arguments name a stage bound."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "range"):
            continue
        for arg in node.args:
            for sub in ast.walk(arg):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in STAGE_BOUNDS:
                    yield node.lineno, name


def test_no_range_over_a_horizon_settle_stage_or_t_max():
    found = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _stage_ranges(ast.parse(path.read_text(), str(path)))]
    assert not found, f"range loops over a stage bound: {found}"


def test_the_guard_sees_the_per_stage_loops_it_replaced():
    # The index search per stage and the replay per stage of the layered
    # coder, and a fireworks run waiting stage by stage for an answer.
    src = ("trajectory = tuple(g(t) for t in range(scheme.settle_stage() + 1))\n"
           "for t in range(t_max + 1):\n    pass\n"
           "for t in range(0, tree.horizon):\n    pass\n"
           "for i in range(len(positions), min(b - 1, len(zeta) - 1) + 1):\n    pass\n"
           "stage = rng.randrange(horizon + 1)\n"
           "for stage in range(stage, cfg.stage_budget):\n    pass\n")
    assert sorted(_stage_ranges(ast.parse(src))) == [(1, "settle_stage"), (2, "t_max"),
                                                     (4, "horizon"), (9, "stage_budget")]
