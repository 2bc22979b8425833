"""Every delay model, composable and picklable (``repro.sim.envs``).

The paper's links are reliable with finite but unbounded delays; a delay
model is the function ``(sender, receiver, send time) -> delay`` that
renders one such environment (the :class:`DelayModel` protocol). This
module owns every model — :class:`~repro.sim.network.Network` is only the
buffer and takes whichever model it is given (:class:`FixedDelay` by
default):

- **delay distributions** — :class:`FixedDelay`, :class:`UniformDist`,
  :class:`HeavyTailDist` (Pareto tail), :class:`AgeGstDist`
  (message-age-dependent partial synchrony: how late a pre-GST message may
  linger depends on how long before GST it was sent);
- **link policies** — wrappers over any base model:
  :class:`OneWayPartition` (asymmetric, directed blackouts; a grouped
  split is every ordered cross-group pair, and ``end=None`` makes it
  permanent),
  :class:`FlappingLinks` (periodic up/down links),
  :class:`EventuallyStableLinks` (per-pair stabilization times),
  :class:`NodeOutage` (a process unreachable during windows — the
  link-layer rendering of a crash/recovery wave, which the paper's
  permanent-crash model cannot express directly);
- **churn** — :class:`~repro.sim.failures.ChurnSchedule` crash waves,
  bundled with a delay model into an :class:`EnvModel`;
- **a registry** — named, seedable environment builders
  (:func:`register_env` / :func:`make_env`) whose names are plain strings,
  so an environment is sweepable as an :class:`~repro.suite.Axis` exactly
  like ``seed`` or ``n`` (:func:`env_axis`).

RNG discipline
==============

Every random draw here is *counter-based*: a pure function of
``(tag, model seed, sender, receiver, send time)`` via
:func:`~repro.sim.types.draw_unit` / :func:`~repro.sim.types.draw_below`,
never a stateful RNG stream. Each coordinate is mixed as a 64-bit word in a
splitmix64 round of its own, so link 1→12 and link 11→2 draw apart, and
consecutive send times give independent draws: a :class:`HeavyTailDist`
tail is a slow *message*, not a slow stretch of a link. Tags are words
computed once per name (:func:`~repro.sim.types.tag_word`); seeds must be
``int`` (checked at construction) and are taken mod 2**64. The
consequences are load-bearing:

- one draw per receiver, in receiver order, whether messages go through
  ``n`` point-to-point :meth:`~repro.sim.network.Network.send` calls, one
  batched :meth:`~repro.sim.network.Network.send_all`, or the vectorized
  :meth:`delay_profile` hook — the draws cannot diverge because there is no
  stream to perturb;
- wrapping a model in a policy (which may consult or ignore the base draw)
  never shifts any other message's delay;
- a pickle round-trip is behaviour-preserving by construction (the models
  are frozen dataclasses of plain values), so environment-swept cells are
  byte-identical across suite worker counts.

``tests/test_envs.py`` pins all three properties.

Composition
===========

Policies wrap a ``base`` model and compose by nesting::

    env = OneWayPartition(
        FlappingLinks(HeavyTailDist(cap=24, seed=7), pairs=((0, 1),),
                      period=32, down=8),
        edges=((2, 0),), start=100, end=400,
    )

Each policy maps the base delay of a message to its effective delay
(holding it until a partition heals, a link comes back up, a node
recovers); a permanent one-way partition returns a ``>= NEVER`` delivery
time, which the network excludes from its live-pending counter so
quiescence still terminates. The :meth:`delay_profile` hook computes a
whole broadcast's delays in one pass per layer instead of one nested call
chain per receiver — the batched path
:meth:`~repro.sim.network.Network.send_all` takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from repro.sim.errors import ConfigurationError
from repro.sim.failures import ChurnSchedule, FailurePattern
from repro.sim.types import (
    NEVER,
    ProcessId,
    Time,
    check_seed,
    draw_below,
    draw_unit,
    tag_word,
)

__all__ = [
    "AgeGstDist",
    "DelayModel",
    "ENV_REGISTRY",
    "EnvBounds",
    "EnvModel",
    "EnvSpec",
    "EventuallyStableLinks",
    "FixedDelay",
    "FlappingLinks",
    "HeavyTailDist",
    "LinkPolicy",
    "NodeOutage",
    "OneWayPartition",
    "UniformDist",
    "delay_profile_of",
    "env_axis",
    "env_links",
    "link_uniform",
    "link_unit",
    "make_env",
    "register_env",
    "registered_envs",
]


class DelayModel(Protocol):
    """Maps a (sender, receiver, send-time) to a strictly positive delay.

    A model may additionally expose a *vectorized* hook::

        def delay_profile(self, sender, t, receivers) -> list[Time]: ...

    returning one delay per receiver, in receiver order. The batched
    broadcast path (:meth:`~repro.sim.network.Network.send_all`) uses it
    when present, so a composed model pays one pass per policy layer
    instead of one nested call chain per receiver. The profile equals one
    :meth:`delay` call per receiver, in order: every model here is a frozen
    value whose draws are pure in ``(seed, link, send time)``, so there is
    no state for the two paths to disagree on.
    """

    def delay(self, sender: ProcessId, receiver: ProcessId, t: Time) -> Time:
        """Return the link delay, in ticks, for a message sent at time ``t``."""
        ...


# ---------------------------------------------------------------------------
# counter-based draws
# ---------------------------------------------------------------------------


class _TagWords(dict):
    """Tag name → tag word, each computed on first use."""

    def __missing__(self, tag: str) -> int:
        word = self[tag] = tag_word(tag)
        return word


_TAG_WORDS = _TagWords()

#: the tag words of this module's own draws.
_UNIFORM = _TAG_WORDS["uniform-dist"]
_HEAVY_TAIL = _TAG_WORDS["heavy-tail"]
_AGE_GST_PRE = _TAG_WORDS["age-gst-pre"]
_AGE_GST_POST = _TAG_WORDS["age-gst-post"]
_STABLE_LINK = _TAG_WORDS["stable-link"]


def link_uniform(
    tag: str, seed: int, sender: ProcessId, receiver: ProcessId, t: Time,
    lo: Time, hi: Time,
) -> Time:
    """A uniform integer in ``[lo, hi]``, pure in ``(tag, seed, link, t)``."""
    return lo + draw_below(hi - lo + 1, _TAG_WORDS[tag], seed, sender, receiver, t)


def link_unit(
    tag: str, seed: int, sender: ProcessId, receiver: ProcessId, t: Time
) -> float:
    """A float in ``(0, 1]``, pure in ``(tag, seed, link, t)``."""
    return draw_unit(_TAG_WORDS[tag], seed, sender, receiver, t)


def delay_profile_of(
    model: DelayModel, sender: ProcessId, t: Time, receivers: Sequence[ProcessId]
) -> list[Time]:
    """The model's delays for one broadcast, one entry per receiver in order.

    Uses the model's vectorized :meth:`delay_profile` when it has one (every
    model in this module does), falling back to one ``delay()`` call per
    receiver; the two give the same values (see :class:`DelayModel`).
    """
    profile = getattr(model, "delay_profile", None)
    if profile is not None:
        return profile(sender, t, receivers)
    delay = model.delay
    return [delay(sender, receiver, t) for receiver in receivers]


# ---------------------------------------------------------------------------
# delay distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedDelay:
    """Every message takes exactly ``ticks`` ticks."""

    ticks: Time = 1

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ConfigurationError(f"delay must be >= 1 tick, got {self.ticks}")

    def delay(self, sender: ProcessId, receiver: ProcessId, t: Time) -> Time:
        return self.ticks

    def delay_profile(
        self, sender: ProcessId, t: Time, receivers: Sequence[ProcessId]
    ) -> list[Time]:
        return [self.ticks] * len(receivers)


@dataclass(frozen=True)
class UniformDist:
    """Delays uniform in ``[lo, hi]``; pure in ``(seed, link, send time)``.

    The same message gets the same delay no matter how many other messages
    were sent before it, or in which order the network asked.
    """

    lo: Time = 1
    hi: Time = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ConfigurationError(
                f"need 1 <= lo <= hi, got lo={self.lo}, hi={self.hi}"
            )
        check_seed(self.seed, "UniformDist")

    def delay(self, sender: ProcessId, receiver: ProcessId, t: Time) -> Time:
        return self.lo + draw_below(
            self.hi - self.lo + 1, _UNIFORM, self.seed, sender, receiver, t
        )

    def delay_profile(
        self, sender: ProcessId, t: Time, receivers: Sequence[ProcessId]
    ) -> list[Time]:
        seed, lo = self.seed, self.lo
        span = self.hi - lo + 1
        # A loop, not a comprehension: one would make these locals closure
        # cells, and Python 3.11 leaks a frame's arguments when allocating
        # one fails.
        profile = []
        for receiver in receivers:
            profile.append(lo + draw_below(span, _UNIFORM, seed, sender, receiver, t))
        return profile


@dataclass(frozen=True)
class HeavyTailDist:
    """Pareto-tailed delays: mostly ``lo``, occasionally near ``cap``.

    ``P(delay >= x) = (lo / x) ** alpha`` for integers ``lo <= x <= cap``,
    drawn independently per message — the classic heavy-tail regime where
    the *mean* delay says nothing about the worst message. ``cap`` keeps
    delays finite (the paper's links are reliable with finite but unbounded
    delays; a truncated tail is the simulable rendering).
    """

    lo: Time = 1
    alpha: float = 1.5
    cap: Time = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lo < 1 or self.cap < self.lo:
            raise ConfigurationError(
                f"need 1 <= lo <= cap, got lo={self.lo}, cap={self.cap}"
            )
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        check_seed(self.seed, "HeavyTailDist")

    def delay(self, sender: ProcessId, receiver: ProcessId, t: Time) -> Time:
        u = draw_unit(_HEAVY_TAIL, self.seed, sender, receiver, t)
        raw = int(self.lo * u ** (-1.0 / self.alpha))
        if raw < self.lo:
            return self.lo
        return raw if raw < self.cap else self.cap

    def delay_profile(
        self, sender: ProcessId, t: Time, receivers: Sequence[ProcessId]
    ) -> list[Time]:
        delay = self.delay
        return [delay(sender, receiver, t) for receiver in receivers]


@dataclass(frozen=True)
class AgeGstDist:
    """Message-age-dependent partial synchrony (GST-style), counter-based.

    Before ``gst`` a message's delay is chaotic (up to ``pre_max``) but
    clamped so it lands by ``gst + post_delay`` — how long a message may
    linger depends on its age relative to GST, which is what makes the
    model *message-age-dependent* rather than a per-tick coin flip. At and
    after ``gst`` every delay is at most ``post_delay``.
    """

    gst: Time = 100
    pre_max: Time = 50
    post_delay: Time = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pre_max < 1 or self.post_delay < 1:
            raise ConfigurationError("delays must be >= 1 tick")
        if self.gst < 0:
            raise ConfigurationError(f"gst must be >= 0, got {self.gst}")
        check_seed(self.seed, "AgeGstDist")

    def delay(self, sender: ProcessId, receiver: ProcessId, t: Time) -> Time:
        if t >= self.gst:
            return 1 + draw_below(
                self.post_delay, _AGE_GST_POST, self.seed, sender, receiver, t
            )
        raw = 1 + draw_below(
            self.pre_max, _AGE_GST_PRE, self.seed, sender, receiver, t
        )
        limit = (self.gst - t) + self.post_delay
        return raw if raw < limit else limit

    def delay_profile(
        self, sender: ProcessId, t: Time, receivers: Sequence[ProcessId]
    ) -> list[Time]:
        delay = self.delay
        return [delay(sender, receiver, t) for receiver in receivers]


# ---------------------------------------------------------------------------
# link policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkPolicy:
    """A composable wrapper mapping base delays to effective delays.

    Subclasses implement :meth:`_adjust`; ``delay`` and ``delay_profile``
    both route through it, so the point-to-point and the batched broadcast
    path cannot diverge. A subclass whose window holds nothing at a send
    time may hand that broadcast the base profile without the per-receiver
    calls (:class:`OneWayPartition`, :class:`FlappingLinks`). The base model's draw for a held message is still
    *taken* (and used for the post-hold delay), but because all draws are
    counter-based, policies that ignore it perturb nothing.
    """

    base: DelayModel

    def _adjust(
        self, sender: ProcessId, receiver: ProcessId, t: Time, delay: Time
    ) -> Time:
        raise NotImplementedError

    def delay(self, sender: ProcessId, receiver: ProcessId, t: Time) -> Time:
        return self._adjust(
            sender, receiver, t, self.base.delay(sender, receiver, t)
        )

    def delay_profile(
        self, sender: ProcessId, t: Time, receivers: Sequence[ProcessId]
    ) -> list[Time]:
        adjust = self._adjust
        return [
            adjust(sender, receiver, t, delay)
            for receiver, delay in zip(
                receivers, delay_profile_of(self.base, sender, t, receivers)
            )
        ]


@dataclass(frozen=True)
class OneWayPartition(LinkPolicy):
    """Asymmetric blackout: directed ``edges`` blocked during ``[start, end)``.

    Messages along a blocked edge sent during the window are held until it
    closes (then take their base delay on top), or forever when ``end`` is
    None. Directed edges express routing asymmetries (p hears q, q never
    hears p); a symmetric split between groups lists every ordered
    cross-group pair.
    """

    edges: tuple[tuple[ProcessId, ProcessId], ...] = ()
    start: Time = 0
    end: Time | None = None
    _edge_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        if not edges:
            raise ConfigurationError("OneWayPartition needs at least one edge")
        for a, b in edges:
            if a == b:
                raise ConfigurationError(f"self-edge ({a}, {b}) cannot be blocked")
        if self.end is not None and self.end <= self.start:
            raise ConfigurationError(
                f"window must end after it starts: [{self.start}, {self.end})"
            )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_edge_set", frozenset(edges))

    def _adjust(
        self, sender: ProcessId, receiver: ProcessId, t: Time, delay: Time
    ) -> Time:
        if (
            t >= self.start
            and (self.end is None or t < self.end)
            and (sender, receiver) in self._edge_set
        ):
            if self.end is None:
                return NEVER - t  # never delivered
            return (self.end - t) + delay
        return delay

    def delay_profile(
        self, sender: ProcessId, t: Time, receivers: Sequence[ProcessId]
    ) -> list[Time]:
        # The window is one test per broadcast; outside it nothing is held.
        if t < self.start or (self.end is not None and t >= self.end):
            return delay_profile_of(self.base, sender, t, receivers)
        return super().delay_profile(sender, t, receivers)


@dataclass(frozen=True)
class FlappingLinks(LinkPolicy):
    """Undirected ``pairs`` whose link is down ``down`` of every ``period`` ticks.

    A message sent while its link is down is held until the link next comes
    up, then takes its base delay — reliable but with periodic latency
    spikes. ``down < period`` keeps every link eventually up, preserving the
    paper's reliable-link assumption.
    """

    pairs: tuple[tuple[ProcessId, ProcessId], ...] = ()
    period: Time = 32
    down: Time = 8
    phase: Time = 0
    _pair_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = tuple(
            (min(int(a), int(b)), max(int(a), int(b))) for a, b in self.pairs
        )
        if not pairs:
            raise ConfigurationError("FlappingLinks needs at least one pair")
        if not 0 < self.down < self.period:
            raise ConfigurationError(
                f"need 0 < down < period, got down={self.down}, "
                f"period={self.period}"
            )
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_pair_set", frozenset(pairs))

    def _adjust(
        self, sender: ProcessId, receiver: ProcessId, t: Time, delay: Time
    ) -> Time:
        pair = (sender, receiver) if sender < receiver else (receiver, sender)
        if pair not in self._pair_set:
            return delay
        position = (t - self.phase) % self.period
        if position < self.down:
            return (self.down - position) + delay
        return delay

    def delay_profile(
        self, sender: ProcessId, t: Time, receivers: Sequence[ProcessId]
    ) -> list[Time]:
        # The down window is one test per broadcast; while every link is
        # up nothing is held.
        if (t - self.phase) % self.period >= self.down:
            return delay_profile_of(self.base, sender, t, receivers)
        return super().delay_profile(sender, t, receivers)


@dataclass(frozen=True)
class EventuallyStableLinks(LinkPolicy):
    """Links that each stabilize at their own time (eventually-stable-but-late).

    A message on link ``(sender, receiver)`` sent at or after the link's
    stabilization time takes a small bounded delay (uniform in
    ``[1, post_delay]``); before that it takes the base model's delay,
    clamped so it still lands within ``post_delay`` of stabilization —
    chaotic early, reliable always. Per-(directed-)pair stabilization times
    come from ``stable_at``; unlisted pairs use ``default_stable_at``.
    """

    post_delay: Time = 2
    default_stable_at: Time = 0
    stable_at: tuple[tuple[tuple[ProcessId, ProcessId], Time], ...] = ()
    seed: int = 0
    _stable: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.post_delay < 1:
            raise ConfigurationError("post_delay must be >= 1 tick")
        if self.default_stable_at < 0:
            raise ConfigurationError("default_stable_at must be >= 0")
        check_seed(self.seed, "EventuallyStableLinks")
        stable_at = tuple(
            ((int(a), int(b)), int(at)) for (a, b), at in self.stable_at
        )
        object.__setattr__(self, "stable_at", stable_at)
        object.__setattr__(self, "_stable", dict(stable_at))

    def _adjust(
        self, sender: ProcessId, receiver: ProcessId, t: Time, delay: Time
    ) -> Time:
        stable_from = self._stable.get((sender, receiver), self.default_stable_at)
        if t >= stable_from:
            return 1 + draw_below(
                self.post_delay, _STABLE_LINK, self.seed, sender, receiver, t
            )
        limit = (stable_from - t) + self.post_delay
        return delay if delay < limit else limit


@dataclass(frozen=True)
class NodeOutage(LinkPolicy):
    """Processes unreachable during recovery-bounded windows.

    While a window is open, every message to or from a listed process is
    held until the window closes (then takes its base delay) — the
    link-layer rendering of a crash/*recovery* wave. The paper's crashes are
    permanent (:class:`~repro.sim.failures.FailurePattern` is monotone), so
    transient downtime lives here, in the environment, where it belongs:
    the process never misses a step, it just goes dark. Windows must close
    (``end`` required); a node that never recovers is a crash — use a
    failure pattern or :class:`~repro.sim.failures.ChurnSchedule`.
    """

    pids: tuple[ProcessId, ...] = ()
    windows: tuple[tuple[Time, Time], ...] = ()
    _pid_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pids = tuple(int(p) for p in self.pids)
        windows = tuple((int(a), int(b)) for a, b in self.windows)
        if not pids or not windows:
            raise ConfigurationError(
                "NodeOutage needs at least one pid and one window"
            )
        for start, end in windows:
            if end <= start:
                raise ConfigurationError(
                    f"outage window must end after it starts: [{start}, {end})"
                )
        object.__setattr__(self, "pids", pids)
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "_pid_set", frozenset(pids))

    def _adjust(
        self, sender: ProcessId, receiver: ProcessId, t: Time, delay: Time
    ) -> Time:
        if sender not in self._pid_set and receiver not in self._pid_set:
            return delay
        held_until = t
        for start, end in self.windows:
            if start <= t < end and end > held_until:
                held_until = end
        if held_until > t:
            return (held_until - t) + delay
        return delay


# ---------------------------------------------------------------------------
# environments: bounds, the bundled model, and the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvBounds:
    """What an environment promises, for experiments that compute bounds.

    ``stabilizes_at`` is the time by which every link delivers within
    ``post_bound`` ticks *and* every earlier chaotic message has landed
    (for a GST-style model that is ``gst + post_delay``, not ``gst``);
    0 means the environment is bounded from the start. ``post_bound`` is
    the worst-case delay after stabilization. EXP-4 turns Lemma 3's
    ``tau_Omega + Delta_t + Delta_c`` into
    ``max(tau_Omega, stabilizes_at) + Delta_t + post_bound``.
    """

    stabilizes_at: Time = 0
    post_bound: Time = 1


@dataclass(frozen=True)
class EnvModel:
    """A first-class environment: named link behaviour plus optional churn."""

    name: str
    delay: DelayModel
    bounds: EnvBounds = EnvBounds()
    churn: ChurnSchedule | None = None

    def pattern(self, n: int, seed: int = 0) -> FailurePattern:
        """The failure pattern this environment's churn induces over ``n``."""
        if self.churn is None:
            return FailurePattern.no_failures(n)
        return self.churn.pattern(n, seed=seed)


@dataclass(frozen=True)
class EnvSpec:
    """One registry entry: a named, seedable environment builder.

    ``builder(seed, base_delay)`` returns the concrete :class:`EnvModel`;
    ``base_delay`` is the experiment's canonical link delay, so one named
    environment adapts to experiments calibrated at different delays.
    """

    name: str
    description: str
    builder: Callable[[int, Time], EnvModel]


#: name → spec, in registration order (the order :func:`env_axis` sweeps).
ENV_REGISTRY: dict[str, EnvSpec] = {}


def register_env(name: str, description: str = "") -> Callable:
    """Register ``builder(seed, base_delay) -> EnvModel`` under ``name``."""

    def decorate(builder: Callable[[int, Time], EnvModel]) -> Callable:
        if name in ENV_REGISTRY:
            raise ConfigurationError(f"environment {name!r} already registered")
        ENV_REGISTRY[name] = EnvSpec(name, description, builder)
        return builder

    return decorate


def registered_envs() -> list[str]:
    """All registered environment names, in registration order."""
    return list(ENV_REGISTRY)


def make_env(name: str, *, seed: int = 0, base_delay: Time = 2) -> EnvModel:
    """Build the named environment for one ``(seed, base_delay)`` point."""
    try:
        spec = ENV_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown environment {name!r}; registered: {registered_envs()}"
        ) from None
    if base_delay < 1:
        raise ConfigurationError(f"base_delay must be >= 1, got {base_delay}")
    return spec.builder(seed, base_delay)


def env_links(name: str, *, seed: int = 0, base_delay: Time = 2) -> DelayModel:
    """The named environment's links, for a run that fixes its own crashes.

    An environment with churn is refused: keeping only its links would run
    a crash-free baseline and label it with the churn environment's name.
    """
    env = make_env(name, seed=seed, base_delay=base_delay)
    if env.churn is not None:
        raise ConfigurationError(
            f"environment {name!r} has churn, and this run takes only an "
            "environment's links; its crashes are fixed by the run itself"
        )
    return env.delay


def env_axis(*names: str) -> "Axis":  # noqa: F821 - lazy import below
    """An ``Axis("env", names)`` over registered environments (default: all).

    The axis values are the *names* — plain strings, trivially picklable and
    readable in pivoted report columns; cells resolve them back to models
    via :func:`make_env` with their own seed.
    """
    from repro.suite import Axis  # local: repro.suite must not be a hard dep

    chosen = names or tuple(ENV_REGISTRY)
    for name in chosen:
        if name not in ENV_REGISTRY:
            raise ConfigurationError(
                f"unknown environment {name!r}; registered: {registered_envs()}"
            )
    return Axis("env", chosen)


# ---------------------------------------------------------------------------
# built-in environments
# ---------------------------------------------------------------------------


@register_env("baseline", "fixed links at the experiment's base delay")
def _env_baseline(seed: int, base_delay: Time) -> EnvModel:
    return EnvModel(
        "baseline", FixedDelay(base_delay), EnvBounds(0, base_delay)
    )


@register_env("uniform", "jittered links: uniform in [1, 2*base]")
def _env_uniform(seed: int, base_delay: Time) -> EnvModel:
    hi = 2 * base_delay
    return EnvModel(
        "uniform", UniformDist(1, hi, seed=seed), EnvBounds(0, hi)
    )


@register_env("heavy-tail", "Pareto-tailed delays truncated at 12*base")
def _env_heavy_tail(seed: int, base_delay: Time) -> EnvModel:
    cap = 12 * base_delay
    return EnvModel(
        "heavy-tail",
        HeavyTailDist(lo=1, alpha=1.4, cap=cap, seed=seed),
        EnvBounds(0, cap),
    )


@register_env("age-gst", "chaotic until GST=150, bounded by base after")
def _env_age_gst(seed: int, base_delay: Time) -> EnvModel:
    gst = 150
    return EnvModel(
        "age-gst",
        AgeGstDist(gst=gst, pre_max=8 * base_delay, post_delay=base_delay,
                   seed=seed),
        # Settled once the last clamped pre-GST message has landed.
        EnvBounds(gst + base_delay, base_delay),
    )


@register_env("one-way", "asymmetric blackout: 0->1 blocked during [40, 260)")
def _env_one_way(seed: int, base_delay: Time) -> EnvModel:
    end = 260
    return EnvModel(
        "one-way",
        OneWayPartition(FixedDelay(base_delay), edges=((0, 1),), start=40,
                        end=end),
        EnvBounds(end + base_delay, base_delay),
    )


@register_env("flaky", "links 0-1 and 1-2 down 8 of every 32 ticks")
def _env_flaky(seed: int, base_delay: Time) -> EnvModel:
    down = 8
    return EnvModel(
        "flaky",
        FlappingLinks(FixedDelay(base_delay), pairs=((0, 1), (1, 2)),
                      period=32, down=down),
        EnvBounds(0, base_delay + down),
    )


@register_env("late-links", "per-pair stabilization: 0<->1 at 140, 1<->2 at 220")
def _env_late_links(seed: int, base_delay: Time) -> EnvModel:
    last = 220
    return EnvModel(
        "late-links",
        EventuallyStableLinks(
            UniformDist(1, 6 * base_delay, seed=seed),
            post_delay=base_delay,
            stable_at=(
                ((0, 1), 140), ((1, 0), 140), ((1, 2), last), ((2, 1), last),
            ),
            seed=seed,
        ),
        EnvBounds(last + base_delay, base_delay),
    )


@register_env("outage", "process 2 dark during [80, 160) and [240, 300)")
def _env_outage(seed: int, base_delay: Time) -> EnvModel:
    last = 300
    return EnvModel(
        "outage",
        NodeOutage(FixedDelay(base_delay), pids=(2,),
                   windows=((80, 160), (240, last))),
        EnvBounds(last + base_delay, base_delay),
    )


@register_env("churn-waves", "fixed links, two one-process crash waves")
def _env_churn_waves(seed: int, base_delay: Time) -> EnvModel:
    return EnvModel(
        "churn-waves",
        FixedDelay(base_delay),
        EnvBounds(0, base_delay),
        churn=ChurnSchedule(waves=((60, 1), (180, 1))),
    )
