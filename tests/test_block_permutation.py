"""``block_permutation``: the random scheduler's per-block schedule.

Block ``b`` of a randomly scheduled run is a Fisher–Yates shuffle of the
process ids driven by an integer mixer keyed on ``(seed, b)``. Four things
are pinned here:

- distinct ``(seed, block)`` pairs get distinct keys — the byte-string key
  this replaced had no separators, so seed 1 block 12 and seed 11 block 2
  ran the same schedule;
- the schedules are uniform: over the 24 permutations of four processes,
  over the slot each of sixteen processes lands in, and between
  consecutive blocks;
- the C body equals the Python body (the definition) bit for bit;
- the seed contract: an ``int`` seed, taken mod 2**64.

Every statistical test draws a fixed sample, so it passes or fails the same
way on every run; the thresholds are chi-square quantiles at p = 0.001.
"""

from __future__ import annotations

import math
import random
import types as pytypes
from collections import Counter

import pytest

from repro.sim import HAS_COMPILED, Process, Simulation
from repro.sim.errors import ConfigurationError
from repro.sim.types import _block_key, _block_permutation_python, block_permutation

from tests.helpers import chi2, chi2_upper

needs_extension = pytest.mark.skipif(
    not HAS_COMPILED, reason="C extension not built"
)


def random_sim(n: int, seed) -> Simulation:
    return Simulation([Process() for __ in range(n)], seed=seed, scheduling="random")


class TestKeys:
    def test_seed_1_block_12_and_seed_11_block_2_differ(self):
        # their old keys, FNV over "'block-permutation'112" and
        # "'block-permutation'112", were one and the same
        assert block_permutation(1, 12, 8) != block_permutation(11, 2, 8)
        assert (
            random_sim(8, 1)._permutation_for_block(12)
            != random_sim(8, 11)._permutation_for_block(2)
        )

    def test_keys_of_small_seeds_and_blocks_are_pairwise_distinct(self):
        keys = {_block_key(seed, block) for seed in range(100) for block in range(1000)}
        assert len(keys) == 100 * 1000


class TestUniformity:
    def test_all_24_permutations_of_four_are_equally_likely(self):
        blocks = 48_000
        counts = Counter(tuple(block_permutation(3, b, 4)) for b in range(blocks))
        assert len(counts) == 24
        assert chi2(counts.values(), blocks / 24) < chi2_upper(23)

    def test_every_process_lands_in_every_slot_equally_often(self):
        n, blocks = 16, 8_000
        table = Counter()
        for b in range(blocks):
            for slot, pid in enumerate(block_permutation(5, b, n)):
                table[slot, pid] += 1
        cells = [table[slot, pid] for slot in range(n) for pid in range(n)]
        # Rows and columns of a permutation table each sum to `blocks`, so
        # Pearson's statistic is n / (n - 1) times a chi-square with
        # (n - 1)**2 degrees of freedom (the centred cells span that
        # subspace, with equal variance in every direction by symmetry).
        statistic = chi2(cells, blocks / n) * (n - 1) / n
        assert statistic < chi2_upper((n - 1) ** 2)

    def test_consecutive_blocks_are_independent(self):
        blocks = 48_000
        perms = [block_permutation(7, b, 4) for b in range(blocks + 1)]
        repeats = sum(perms[b] == perms[b + 1] for b in range(blocks))
        expected = blocks / 24
        assert abs(repeats - expected) < 5 * math.sqrt(expected * 23 / 24)


class TestBodies:
    @needs_extension
    def test_the_c_body_is_bound(self):
        assert isinstance(block_permutation, pytypes.BuiltinFunctionType)
        from repro.sim import scheduler

        assert scheduler.block_permutation is block_permutation

    @needs_extension
    def test_c_equals_python_on_random_triples(self):
        rng = random.Random(2024)
        for __ in range(3_000):
            seed = rng.choice(
                [rng.randrange(100), -rng.randrange(1, 2**70), rng.randrange(2**70)]
            )
            block = rng.choice([rng.randrange(10**6), rng.randrange(2**66)])
            n = rng.randrange(300)
            assert block_permutation(seed, block, n) == _block_permutation_python(
                seed, block, n
            ), (seed, block, n)

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(_block_permutation_python, id="python"),
            pytest.param(block_permutation, id="bound", marks=needs_extension),
        ],
    )
    def test_edges(self, body):
        assert body(1, 0, 0) == [] and body(1, 0, 1) == [0]
        assert body(1, 0, -3) == []
        for bad in ((1.0, 0, 4), ("1", 0, 4), (1, 0.0, 4), (1, 0, 4.0)):
            with pytest.raises(TypeError):
                body(*bad)


class TestSeedContract:
    @pytest.mark.parametrize("seed", ["7", 7.0, None, True, (7,)])
    def test_random_scheduling_refuses_a_seed_that_is_not_an_int(self, seed):
        with pytest.raises(ConfigurationError, match="int seed"):
            random_sim(3, seed)

    def test_seeds_are_taken_mod_2_to_the_64(self):
        for seed in (-1, 5, 2**63):
            same = [random_sim(6, seed + k * 2**64) for k in (-1, 0, 1)]
            schedules = {
                tuple(tuple(sim._permutation_for_block(b)) for b in range(20))
                for sim in same
            }
            assert len(schedules) == 1
