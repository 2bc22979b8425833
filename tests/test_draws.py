"""Counter-based draws: ``draw_unit`` / ``draw_below`` and the delays,
schedules and histories built on them.

A draw is ``key = mix64(tag)``, then ``key = mix64(key ^ w)`` for each word
of ``(seed, *coordinates)`` (:mod:`repro.sim.types`). Pinned here:

- the statistics a delay model needs from it: per-link delays that change
  from message to message (no long equal runs, no lag-1 correlation),
  uniform top and bottom key bits, distinct links drawing apart, and a
  ``HeavyTailDist`` whose survival function is its Pareto tail;
- the C bodies equal the Python bodies (the definitions) bit for bit, on
  every arity, on negative words and on words of 2**64 and beyond, and
  raise the same exceptions;
- the seed contract: every seeded model refuses a non-``int`` seed at
  construction, and seeds are taken mod 2**64.

Every statistical test draws a fixed sample, so it passes or fails the same
way on every run; thresholds are p = 0.001 quantiles or five standard
errors.
"""

from __future__ import annotations

import math
import random
import types as pytypes
from collections import Counter

import pytest

from repro.sim import HAS_COMPILED
from repro.sim.envs import (
    AgeGstDist,
    EventuallyStableLinks,
    HeavyTailDist,
    UniformDist,
    link_uniform,
    link_unit,
)
from repro.sim.errors import ConfigurationError
from repro.sim.types import (
    _draw_below_python,
    _draw_key,
    _draw_unit_python,
    _mix64,
    draw_below,
    draw_unit,
    stable_hash,
    tag_word,
)
from repro.workload import WorkloadSpec, arrival_gap, op_command

from tests.helpers import chi2, chi2_upper

needs_extension = pytest.mark.skipif(
    not HAS_COMPILED, reason="C extension not built"
)

TAG = tag_word("uniform-dist")
MASK64 = (1 << 64) - 1


def longest_equal_run(values: list) -> int:
    longest = run = 1
    for previous, value in zip(values, values[1:]):
        run = run + 1 if value == previous else 1
        longest = max(longest, run)
    return longest


def lag1_autocorrelation(xs: list[float]) -> float:
    mean = sum(xs) / len(xs)
    centred = [x - mean for x in xs]
    return sum(a * b for a, b in zip(centred, centred[1:])) / sum(
        c * c for c in centred
    )


class TestDelayStatistics:
    LINKS = ((0, 1), (1, 0), (3, 7))

    def test_heavy_tail_delays_change_from_message_to_message(self):
        model = HeavyTailDist(lo=2, seed=1)
        for link in self.LINKS:
            delays = [model.delay(*link, t) for t in range(10_000)]
            assert longest_equal_run(delays) <= 20, link

    def test_link_unit_has_no_lag_1_autocorrelation(self):
        for link in self.LINKS:
            units = [link_unit("heavy-tail", 1, *link, t) for t in range(10_000)]
            assert abs(lag1_autocorrelation(units)) <= 0.05, link

    @pytest.mark.parametrize("shift", [56, 0], ids=["top", "bottom"])
    def test_eight_key_bits_are_uniform(self, shift):
        draws = 65_536
        counts = [0] * 256
        for t in range(draws):
            key = _draw_key(TAG, 1, (t % 5, t % 7, t))
            counts[(key >> shift) & 255] += 1
        assert chi2(counts, draws / 256) < chi2_upper(255)

    def test_links_that_shared_a_byte_string_draw_apart(self):
        # "uniform-dist" 1 1 12 3 and "uniform-dist" 1 11 2 3 concatenate to
        # the same bytes, so an FNV key over reprs gave both one delay
        model = UniformDist(1, 10**6, seed=1)
        assert model.delay(1, 12, 3) != model.delay(11, 2, 3)
        assert link_unit("heavy-tail", 1, 1, 12, 3) != link_unit(
            "heavy-tail", 1, 11, 2, 3
        )

    def test_uniform_delays_are_uniform_over_lo_hi(self):
        # EXP-6's reordering model: every delay in [2, 60] equally likely.
        model = UniformDist(2, 60, seed=1)
        counts = Counter(
            model.delay(*link, t) for link in self.LINKS for t in range(5_000)
        )
        assert sorted(counts) == list(range(2, 61))
        expected = sum(counts.values()) / 59
        assert chi2(counts.values(), expected) < chi2_upper(58)

    def test_age_gst_is_uniform_on_each_side_of_gst(self):
        gst, pre_max, post = 6_000, 40, 3
        model = AgeGstDist(gst=gst, pre_max=pre_max, post_delay=post, seed=1)
        # Sent at least pre_max - post ticks before GST, nothing is clamped.
        early = Counter(model.delay(0, 1, t) for t in range(gst - pre_max))
        assert sorted(early) == list(range(1, pre_max + 1))
        expected = (gst - pre_max) / pre_max
        assert chi2(early.values(), expected) < chi2_upper(pre_max - 1)
        late = Counter(model.delay(0, 1, t) for t in range(gst, 2 * gst))
        assert sorted(late) == list(range(1, post + 1))
        assert chi2(late.values(), gst / post) < chi2_upper(post - 1)
        # Closer to GST the clamp lands every message by gst + post.
        assert max(
            t + model.delay(0, 1, t) for t in range(gst - pre_max, gst)
        ) == gst + post

    def test_heavy_tail_survival_is_its_pareto_tail(self):
        lo, alpha, cap = 2, 1.5, 64
        model = HeavyTailDist(lo=lo, alpha=alpha, cap=cap, seed=1)
        receivers = list(range(8))
        counts = Counter(
            delay
            for sender in range(8)
            for t in range(2_500)
            for delay in model.delay_profile(sender, t, receivers)
        )
        samples = sum(counts.values())
        assert min(counts) == lo and max(counts) == cap
        at_least = samples
        for x in range(lo, cap):
            expected = (lo / x) ** alpha
            error = math.sqrt(expected * (1 - expected) / samples)
            assert abs(at_least / samples - expected) <= 5 * error + 1e-12, x
            at_least -= counts[x]


class TestDefinition:
    def test_mix64_is_splitmix64(self):
        # splitmix64's first three outputs from state 0
        gamma = 0x9E3779B97F4A7C15
        assert [_mix64(k * gamma) for k in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]

    @pytest.mark.parametrize(
        "unit, below",
        [
            pytest.param(_draw_unit_python, _draw_below_python, id="python"),
            pytest.param(draw_unit, draw_below, id="bound", marks=needs_extension),
        ],
    )
    def test_the_key_chains_one_mix64_round_per_word(self, unit, below):
        tag, seed, a, b = 11, -3, 2**64 + 5, 7
        key = _mix64(_mix64(_mix64(_mix64(tag) ^ (seed & MASK64)) ^ 5) ^ b)
        assert unit(tag, seed, a, b) == ((key >> 11) + 1) / 2**53
        assert below(1000, tag, seed, a, b) == (key * 1000) >> 64
        assert below(1, tag, seed, a, b) == 0

    def test_tag_words_are_the_stable_hash_of_the_name(self):
        assert tag_word("heavy-tail") == stable_hash("heavy-tail")
        assert link_unit("heavy-tail", 4, 1, 2, 9) == draw_unit(
            tag_word("heavy-tail"), 4, 1, 2, 9
        )
        assert link_uniform("uniform-dist", 4, 1, 2, 9, 3, 8) == 3 + draw_below(
            6, TAG, 4, 1, 2, 9
        )


def _random_word(rng: random.Random) -> int:
    return rng.choice([
        rng.randrange(100),
        -rng.randrange(1, 2**70),
        rng.randrange(2**64, 2**70),
        rng.randrange(2**64),
        MASK64,
        -(2**63),
    ])


class TestBodies:
    @needs_extension
    def test_the_c_bodies_are_bound(self):
        assert isinstance(draw_unit, pytypes.BuiltinFunctionType)
        assert isinstance(draw_below, pytypes.BuiltinFunctionType)

    @needs_extension
    def test_c_equals_python_on_random_tags_words_and_bounds(self):
        rng = random.Random(2029)
        for __ in range(5_000):
            words = [_random_word(rng) for __ in range(rng.randrange(2, 6))]
            bound = rng.choice([1, 2, 3, rng.randrange(1, 2**64), MASK64])
            assert draw_unit(*words) == _draw_unit_python(*words), words
            assert draw_below(bound, *words) == _draw_below_python(
                bound, *words
            ), (bound, words)

    @pytest.mark.parametrize(
        "unit, below",
        [
            pytest.param(_draw_unit_python, _draw_below_python, id="python"),
            pytest.param(draw_unit, draw_below, id="bound", marks=needs_extension),
        ],
    )
    def test_errors(self, unit, below):
        for bad in (1.0, "1", None, (1,)):
            for position in range(4):
                words = [5, 6, 7, 8]
                words[position] = bad
                with pytest.raises(TypeError):
                    unit(*words)
                with pytest.raises(TypeError):
                    below(3, *words)
        for arguments in ((), (5,)):
            with pytest.raises(TypeError):
                unit(*arguments)
            with pytest.raises(TypeError):
                below(3, *arguments)
        for bound in (1.0, "3", None):
            with pytest.raises(TypeError):
                below(bound, 5, 6)
        for bound in (0, -1, 2**64, 2**70):
            with pytest.raises(ValueError):
                below(bound, 5, 6)
        with pytest.raises(TypeError):
            unit(5, seed=6)


DELAY_MODELS = {
    "UniformDist": lambda seed: UniformDist(1, 9, seed=seed),
    "HeavyTailDist": lambda seed: HeavyTailDist(seed=seed),
    "AgeGstDist": lambda seed: AgeGstDist(seed=seed),
    "EventuallyStableLinks": lambda seed: EventuallyStableLinks(
        UniformDist(1, 9), default_stable_at=50, seed=seed
    ),
}
SEEDED = {**DELAY_MODELS, "WorkloadSpec": lambda seed: WorkloadSpec(seed=seed)}


class TestSeedContract:
    @pytest.mark.parametrize("name", SEEDED)
    @pytest.mark.parametrize("seed", ["7", 7.0, None, True, (7,)])
    def test_a_seed_that_is_not_an_int_is_refused_at_construction(self, name, seed):
        with pytest.raises(ConfigurationError, match="int seed"):
            SEEDED[name](seed)

    @pytest.mark.parametrize("name", DELAY_MODELS)
    def test_delay_seeds_are_taken_mod_2_to_the_64(self, name):
        for seed in (-1, 5, 2**63):
            profiles = {
                tuple(
                    tuple(DELAY_MODELS[name](seed + k * 2**64).delay_profile(
                        sender, t, range(6)
                    ))
                    for sender in range(3) for t in range(0, 120, 7)
                )
                for k in (-1, 0, 1)
            }
            assert len(profiles) == 1

    def test_workload_seeds_are_taken_mod_2_to_the_64(self):
        for seed in (-1, 5, 2**63):
            schedules = {
                tuple(
                    (arrival_gap(spec, client, k), op_command(spec, client, k))
                    for client in range(3) for k in range(40)
                )
                for spec in (WorkloadSpec(seed=seed + k * 2**64) for k in (-1, 0, 1))
            }
            assert len(schedules) == 1
