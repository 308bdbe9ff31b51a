"""Every strategy's matching and counters equal the committed corpus.

A change that moves any matching, tie-break or counter on these scenes
fails here; make_golden.py says when and how to regenerate.
"""

import json

import pytest

from make_golden import GOLDEN_PATH, SCENES, scene_entries

with open(GOLDEN_PATH, encoding="utf-8") as f:
    GOLDEN = json.load(f)


def test_corpus_covers_every_scene():
    assert sorted(GOLDEN) == sorted(SCENES)
    # 7 strategies, ea at two thresholds: 8 entries per step of the small
    # scenes; 6 on the 70x140 step (ea twice, da, bc, md, cs), 1 each at
    # 30x60, 50x100 and 24x120
    assert sum(len(entries) for entries in GOLDEN.values()) == 8 * (2 * 9 + 2) + 6 + 1 + 1 + 1


@pytest.mark.parametrize("label", SCENES)
def test_matchings_equal_golden(label):
    actual = scene_entries(label)
    assert actual.keys() == GOLDEN[label].keys()
    changed = {key: (GOLDEN[label][key], actual[key])
               for key in actual if actual[key] != GOLDEN[label][key]}
    assert not changed, f"{label}: (golden, now) of each changed entry: {changed}"
