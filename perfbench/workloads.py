"""The three benchmark workloads: bundled scenarios plus one generated scenario.

A generated scenario is a pure function of the workload seed.  The program
only ever sees the scenario JSON written from it, exactly as a user's
hand-written scenario would reach `randlab run`.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

Scenario = Dict[str, object]


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so inputs do not depend on PYTHONHASHSEED.
    return random.Random(f"perfbench:{workload}:{seed}")


def _ladder(rng: random.Random, horizon: int) -> Dict[str, object]:
    """One 0^m1 rung every one or two stages, m counting up from 0."""
    events: List[list] = []
    stage = 0
    while True:
        stage += rng.randint(1, 2)
        if stage > horizon:
            break
        events.append([stage, ["0" * len(events) + "1"]])
    return {"events": events, "horizon": horizon}


def fireworks_scenario(seed: int) -> Scenario:
    rng = _rng("fireworks", seed)
    names = ["ladder0", "ladder1", "ladder2"]
    params = {"adversaries": names, "k": 2, "cap_bounds": [8, 8, 8],
              "target_length": 64, "stage_budget": 40}
    return {
        "name": "gen_fireworks",
        "objects": {"enumerators": {n: _ladder(rng, 36) for n in names}},
        "experiments": [
            dict(name="sweep", kind="fireworks_sweep", **params),
            dict(name="extract", kind="fireworks_extract", **params),
        ],
    }


def steering_scenario(seed: int) -> Scenario:
    rng = _rng("steering", seed)
    # Offsets 8/12/16 take a 1- or 2-bit pattern.  The last offset always
    # takes 2 bits: its pattern length alone moves the pass by a large share
    # (at offset 20, 1.7 s for 1 bit and 2.8 s for 2), which would split
    # seeds into two clusters.  The last offset is 18, not 20: 0.7 s instead
    # of 2.9 s, so a run of the benchmark holds twice the passes.
    lengths = [rng.randint(1, 2) for _ in range(3)] + [2]
    patterns = ["".join(rng.choice("01") for _ in range(n)) for n in lengths]
    return {
        "name": "gen_steering",
        "objects": {},
        "experiments": [
            {"name": "hitting", "kind": "w2r_hitting", "seed": rng.randrange(1 << 20),
             "positions": [8, 12, 16, 18], "patterns": patterns,
             "depth": 220, "horizon": 8},
        ],
    }


def seeded_mix_scenario(seed: int) -> Scenario:
    rng = _rng("seeded_mix", seed)
    experiments: List[Dict[str, object]] = []

    def add(kind: str, count: int, **params: object) -> None:
        for i in range(count):
            experiments.append(dict(name=f"{kind}_{len(experiments)}", kind=kind,
                                    count=1, seed=rng.randrange(1 << 20), **params))

    add("convert_sweep", 8, direction="d2u", levels=4, bound=4, horizon=8)
    add("convert_sweep", 8, direction="u2d", levels=4, bound=3, horizon=8)
    add("kg_sweep", 4, depth=24, horizon=8, payload_len=4)
    add("minpair_sweep", 6, nat_max=3, horizon=8, axioms=160)
    return {"name": "gen_seeded_mix", "objects": {}, "experiments": experiments}


# name -> (bundled scenario names, generator of the extra scenario)
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], Callable[[int], Scenario]]] = {
    "fireworks": (("fireworks_small", "fireworks_duet", "fireworks_bank"),
                  fireworks_scenario),
    "steering": (("w2r_claims",), steering_scenario),
    "seeded_mix": (("conversion_sweep", "kg_roundtrip", "minpair_analyze",
                    "interaction_report"), seeded_mix_scenario),
}
