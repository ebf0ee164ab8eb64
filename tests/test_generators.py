"""Seeded builders against the bodies they replaced, and what they cost.

`random_bits` and `random_pi01_tree` must make the same draws as the bodies
in `tests/oracles.py` (the checked constructor, the trie-capped tree): the
same strings and trees, and the generator left in the same state, so
everything drawn after them stays aligned and every golden keeps its bytes.
"""

import random

import pytest
from oracles import checked_random_bits, counting, criterion_7_run, trie_capped_pi01_tree

from randlab import cylinders, generators
from randlab.cylinders import CylinderSet
from randlab.errors import RandlabError
from randlab.generators import nested_family, random_bits, random_pi01_tree
from randlab.staged import StagedOpenSet


@pytest.mark.parametrize("seed", range(40))
def test_random_bits_matches_the_checked_body(seed):
    new, old = random.Random(seed), random.Random(seed)
    for length in range(0, 70, 3):
        assert random_bits(new, length) == checked_random_bits(old, length)
    assert new.getstate() == old.getstate()


def _tree_and_state(build, seed, depth, horizon):
    rng = random.Random(f"{seed}:{depth}:{horizon}")
    tree = build(rng, depth=depth, horizon=horizon)
    return tree.depth, tree.events, tree.horizon, rng.getstate()


@pytest.mark.parametrize("depth", [9, 10, 16, 24, 64, 220])
def test_pi01_tree_matches_the_trie_capped_body(depth):
    for seed in range(40):
        for horizon in range(13):
            assert (_tree_and_state(random_pi01_tree, seed, depth, horizon)
                    == _tree_and_state(trie_capped_pi01_tree, seed, depth, horizon))


@pytest.mark.parametrize("depth, horizon", [(8, 4), (3, 4), (24, -1)])
def test_pi01_tree_refuses_what_the_trie_capped_body_refuses(depth, horizon):
    messages = []
    for build in (random_pi01_tree, trie_capped_pi01_tree):
        with pytest.raises(RandlabError) as refused:
            build(random.Random(0), depth=depth, horizon=horizon)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_pi01_tree_builds_no_trie(monkeypatch):
    # The trie-capped body made 500 normalisations and 3,193 trie nodes here.
    normalized = counting(monkeypatch, "normalize", CylinderSet)
    pairs = counting(monkeypatch, "_pair", cylinders)
    for i in range(20):
        random_pi01_tree(random.Random(f"0:{i}"), depth=220, horizon=8)
    assert (len(normalized), len(pairs)) == (0, 0)


def test_nested_family_reads_only_its_outer_levels(monkeypatch):
    # Building both levels' tries at every change stage of either made
    # 215 normalisations and 955 trie nodes here.
    normalized = counting(monkeypatch, "normalize", CylinderSet)
    pairs = counting(monkeypatch, "_pair", cylinders)
    read = counting(monkeypatch, "open_at", StagedOpenSet)
    for i in range(20):
        last = nested_family(random.Random(i), 3, 8).levels[-1]
        assert all(level is not last for level, _ in read)
    assert len(normalized) <= 80 and len(pairs) <= 400


def test_hitting_run_tries_four_schemes_on_criterion_7(monkeypatch):
    # The run of the `hitting` experiment of the bundled w2r_claims scenario.
    built = counting(monkeypatch, "W2RScheme", generators)
    criterion_7_run()
    assert len(built) == 4
