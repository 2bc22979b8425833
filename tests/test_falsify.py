"""Property tests for the falsifier (`repro.search`).

The searcher's soundness rests on two pillars, each pinned here:

- **Containment** — :meth:`Envelope.random_point`, :meth:`Envelope.neighbor`,
  and whole perturbation walks can never name a point outside the declared
  adversary region: delays stay >= their lower bounds, link stabilization
  times respect the declared GST-style windows, and crash counts stay below
  ``n/2`` whenever the target's experiment assumes a correct majority.
- **Purity** — every draw, nudge, and trial evaluation is a pure function of
  its integer key/point, so a recorded search (and every pinned witness)
  replays identically on any machine, kernel, and worker count.

Runs under the ``ci`` Hypothesis profile (derandomized) in CI.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import (
    Envelope,
    FalsifyTarget,
    IntParam,
    evaluate,
    falsify,
    get_target,
    normalize_point,
    point_key,
    register_target,
    registered_targets,
)
from repro.search import targets
from repro.sim.errors import ConfigurationError
from repro.sim.types import stable_hash

keys = st.integers(min_value=0, max_value=2**63 - 1)

#: every registered experiment-backed envelope, plus a majority-assuming one
#: (none of the shipped targets assumes a majority, so build one here).
MAJORITY_ENVELOPE = Envelope(
    n=5,
    params=(
        IntParam("sched_seed", 0, (1 << 31) - 1, kind="key"),
        IntParam("delay_hi", 1, 9),
        IntParam("gst", 0, 400),
    ),
    crash_candidates=(0, 1, 2, 3, 4),
    crash_window=(10, 500),
    max_crashes=5,
    majority=True,
)
DEMO_ENVELOPE = Envelope(
    n=3,
    params=(
        IntParam("x", 0, 64),
        IntParam("y", 0, 64),
        IntParam("k", 0, (1 << 20) - 1, kind="key"),
    ),
)


def demo_value(point: dict) -> tuple[float, int]:
    """A rugged two-hill landscape: smooth ridges plus hash noise."""
    x, y, k = point["x"], point["y"], point["k"]
    smooth = 80 - abs(x - 23) - abs(y - 41)
    noise = stable_hash("demo-noise", x, y) % 7
    bonus = stable_hash("demo-key", k) % 5
    value = float(smooth + noise + bonus)
    return value, stable_hash("demo-digest", x, y, k)


#: a pure-arithmetic target (no simulation behind it; its digest folds the
#: point only), so the searcher's own determinism is tested in milliseconds
DEMO_TARGET = FalsifyTarget(
    name="demo-rugged",
    experiment="DEMO",
    description="pure-arithmetic rugged landscape (no simulation)",
    objective="raw",
    envelope=DEMO_ENVELOPE,
    axes={"landscape": "two-hill"},
    evaluate_point=demo_value,
    cost=0.001,
)


@contextmanager
def demo_registered():
    """``demo-rugged`` in the target registry until the block ends. Search
    workers are forked from this process, so they see it too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(targets, "TARGETS", dict(targets.TARGETS))
        register_target(DEMO_TARGET)
        yield


@pytest.fixture
def demo_target():
    with demo_registered():
        yield


ENVELOPES = {name: get_target(name).envelope for name in registered_targets()}
ENVELOPES["demo-rugged"] = DEMO_ENVELOPE
ENVELOPES["majority"] = MAJORITY_ENVELOPE
envelope_names = st.sampled_from(sorted(ENVELOPES))


class TestContainment:
    @settings(max_examples=80)
    @given(name=envelope_names, key=keys)
    def test_random_point_is_admissible(self, name, key):
        envelope = ENVELOPES[name]
        point = envelope.random_point(key)
        envelope.validate(point)
        assert envelope.contains(point)

    @settings(max_examples=80)
    @given(name=envelope_names, key=keys, nkey=keys)
    def test_neighbor_never_escapes(self, name, key, nkey):
        envelope = ENVELOPES[name]
        point = envelope.random_point(key)
        neighbor = envelope.neighbor(point, nkey)
        envelope.validate(neighbor)

    @settings(max_examples=25)
    @given(name=envelope_names, key=keys)
    def test_whole_walks_stay_inside(self, name, key):
        envelope = ENVELOPES[name]
        for point in envelope.walk(key, steps=12):
            envelope.validate(point)

    @settings(max_examples=60)
    @given(key=keys, nkey=keys)
    def test_majority_crash_cap_is_strictly_under_half(self, key, nkey):
        # The declared cap: max_crashes=5 over n=5 candidates, but the
        # majority assumption must clamp every generated pattern to
        # (n - 1) // 2 = 2 crashes.
        assert MAJORITY_ENVELOPE.crash_cap == 2
        point = MAJORITY_ENVELOPE.random_point(key)
        assert len(point["crashes"]) <= 2
        assert len(MAJORITY_ENVELOPE.neighbor(point, nkey)["crashes"]) <= 2

    @settings(max_examples=60)
    @given(name=envelope_names, key=keys)
    def test_bounds_mean_what_they_say(self, name, key):
        # Delay-style params can never go below their declared lower bound
        # (>= 0 everywhere, >= 1 for delay widths), and crash times respect
        # the declared window — the GST-style constraints live in the
        # envelope, so admissible == physically meaningful.
        envelope = ENVELOPES[name]
        point = envelope.random_point(key)
        by_name = {p.name: p for p in envelope.params}
        for pname, value in point.items():
            if pname == "crashes":
                continue
            assert value >= by_name[pname].lo >= 0
        lo, hi = envelope.crash_window
        for __, t in point["crashes"]:
            assert lo <= t < hi

    def test_validate_rejects_out_of_envelope_points(self):
        envelope = ENVELOPES["majority"]
        good = envelope.random_point(7)
        with pytest.raises(ConfigurationError):
            envelope.validate({**good, "delay_hi": 0})  # below lo
        with pytest.raises(ConfigurationError):
            envelope.validate({**good, "gst": 401})  # above hi
        with pytest.raises(ConfigurationError):
            envelope.validate(
                {**good, "crashes": ((0, 10), (1, 10), (2, 10))}  # over cap
            )
        with pytest.raises(ConfigurationError):
            envelope.validate({**good, "crashes": ((0, 500),)})  # past window
        bad_dims = dict(good)
        del bad_dims["gst"]
        with pytest.raises(ConfigurationError):
            envelope.validate(bad_dims)


class TestPurity:
    @settings(max_examples=60)
    @given(name=envelope_names, key=keys, nkey=keys)
    def test_generation_is_pure_in_the_key(self, name, key, nkey):
        envelope = ENVELOPES[name]
        assert envelope.random_point(key) == envelope.random_point(key)
        point = envelope.random_point(key)
        assert envelope.neighbor(point, nkey) == envelope.neighbor(point, nkey)
        assert list(envelope.walk(key, steps=6)) == list(
            envelope.walk(key, steps=6)
        )

    @settings(max_examples=40)
    @given(key=keys)
    def test_demo_trials_are_pure_in_the_point(self, key):
        point = DEMO_ENVELOPE.random_point(key)
        with demo_registered():
            assert evaluate("demo-rugged", point) == evaluate("demo-rugged", point)

    def test_experiment_trial_is_kernel_independent(self):
        # One real EXP-4 trial: the objective and the run digest must not
        # depend on which kernel reconstructed the run.
        point = ENVELOPES["exp4-tau"].random_point(99)
        packed = evaluate("exp4-tau", point, kernel="packed")
        legacy = evaluate("exp4-tau", point, kernel="legacy")
        assert packed == legacy

    def test_normalize_and_point_key_are_stable(self):
        raw = {"a": 3, "crashes": [[1, 20], [0, 10]]}
        normalized = normalize_point(raw)
        assert normalized["crashes"] == ((0, 10), (1, 20))
        assert normalize_point(normalized) == normalized
        assert point_key(normalized) == point_key(normalize_point(raw))


@pytest.mark.usefixtures("demo_target")
class TestSearchDeterminism:
    def _search(self, **kwargs):
        return falsify("demo-rugged", budget=48, seed=5, batch=6, **kwargs)

    def test_worker_count_never_changes_the_search(self):
        reference = self._search(workers=0)
        other = self._search(workers=2)
        assert other.witness.value == reference.witness.value
        assert other.witness.digest == reference.witness.digest
        assert other.witness.point == reference.witness.point
        assert other.history == reference.history

    def test_search_is_pure_in_its_seed(self):
        assert self._search().history == self._search().history
        # ... and the seed is an input: two seeds search differently.
        assert (
            falsify("demo-rugged", budget=30, seed=1).history
            != falsify("demo-rugged", budget=30, seed=2).history
        )

    def test_budget_is_respected(self):
        result = falsify("demo-rugged", budget=17, seed=0, batch=8)
        assert result.evaluations == 17
        assert result.history[-1][0] == 17
