"""No loop of the package visits every stage up to a horizon: no `range(...)`
call in a package module has a bound that names `horizon`, `settle_stage`,
`t_max` or `stage_budget`.  Stage queries answer alike between two change stages, so a
loop over stages steps from one change stage to the next instead, and its
cost follows the events, not the horizon."""

from source_index import PACKAGE, index

STAGE_BOUNDS = {"horizon", "settle_stage", "t_max", "stage_budget"}


def _stage_ranges(m):
    """(line, name) of each `range` call whose arguments name a stage bound."""
    return [(c.line, name) for c in m.calls if c.text == "range"
            for name in c.arg_names if name in STAGE_BOUNDS]


def test_no_range_over_a_horizon_settle_stage_or_t_max():
    found = [f"{name}:{line} {bound}" for name, m in PACKAGE.items() for line, bound in _stage_ranges(m)]
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
    want = [(1, "settle_stage"), (2, "t_max"), (4, "horizon"), (9, "stage_budget")]
    assert sorted(_stage_ranges(index(src))) == want
