"""The benchmark's workloads: which models each one runs, drawn from a seed.

Sizes are fixed so results stay comparable from one commit to the next;
the seed only permutes declaration order, and for the small corpus also
the order of the models.  The corpus members themselves are fixed, so
every seed does the same work and the spread between seeds is timing
noise; their outputs have recorded digests.
"""

from __future__ import annotations

import random

import families
import pipeline

NAMES = ("fanin-or", "and-common-cause", "deep-shared", "small-corpus")
CORPUS_SIZE = 200


def build(workload: str, seed: int):
    """The workload's cases and its depth probe (or None)."""
    rng = random.Random(seed)
    if workload == "fanin-or":
        return [families.wide(1000, "OR", rng)], None
    if workload == "and-common-cause":
        return [families.wide(8, "AND", rng)], None
    if workload == "deep-shared":
        cases = [families.chain(d, rng) for d in (25, 50, 75, 100)]
        cases += [families.lattice(w, rng) for w in (16, 18, 20)]
        return cases, families.chain(150, rng)
    cases = [pipeline.fixture_case(name) for name in pipeline.FIXTURES]
    cases += [families.small_model(i, rng) for i in range(CORPUS_SIZE)]
    rng.shuffle(cases)
    return cases, None
