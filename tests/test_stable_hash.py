"""``stable_hash``: one function, two bodies, bit for bit.

Every suite seed, run and prefix digest, search-envelope point and churn
victim in the repo is a :func:`repro.sim.types.stable_hash` of its key, so
the C body in ``_ckernel.c`` must *be* the Python body, not resemble it.
Four pillars:

- golden vectors computed with the Python body as it stood before the C
  one existed, pinned as literals and asserted against both bodies;
- a Hypothesis differential C ≡ Python over recursive values of the shapes
  callers pass (skipped without the extension);
- the error paths — a ``__repr__`` that raises, returns a non-``str`` or
  yields a lone surrogate — raise the same exception types and leak no
  reference;
- whole runs: a fresh interpreter in which the extension cannot be imported
  reproduces the digests of this (compiled) interpreter exactly — every
  bound function at once: ``stable_hash``, the counter draws
  (``draw_unit`` / ``draw_below``, held to their bodies in
  ``tests/test_draws.py``) and ``block_permutation``.
"""

from __future__ import annotations

import enum
import gc
import importlib
import json
import subprocess
import sys
import types as pytypes
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import MessageId
from repro.sim import HAS_COMPILED, HAS_COMPILED_LOOP
from repro.sim.types import _stable_hash_python, draw_below, draw_unit, stable_hash

needs_extension = pytest.mark.skipif(
    not HAS_COMPILED, reason="C extension not built"
)

#: both bodies when the extension is built, else the one there is.
BODIES = [
    pytest.param(_stable_hash_python, id="python"),
    pytest.param(stable_hash, id="bound", marks=needs_extension),
]


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Shouty:
    def __repr__(self) -> str:
        return "Shouty<é '\"\\>"


#: ``(parts, value)`` — values computed at the parent commit, whose only
#: body was the Python loop. Never regenerate these from the code under
#: test; a change to any of them is a change to every schedule.
GOLDEN = [
    ((), 1469598103934665603),
    # the shapes the draws used (tag, seed, coordinates)
    (("workload-gap", 1000001, 3, 0, 7), 4469640780460145957),
    (("workload-gap", 1000001, 3, 1, 7), 4470625942878833788),
    (("workload-gap", 1000005, 3, 99999, 7), 1666607491422860964),
    (("uniform-dist", 7, 1, 12, 3), 876192084224901768),
    (("block-permutation", 0, 0), 2512302106206370329),
    (("omega", 3, 2, 17), 1718880320787650461),
    (("suite-cell-seed", 42, 5), 414554940190638913),
    (("prefix-chain",), 2070379700444075721),
    # ints: the stack-formatted range and both sides of its edges
    ((0,), 4953216133211441449),
    ((1,), 4953215033699813238),
    ((-1,), 1944189448900364129),
    ((10,), 1947979465482050546),
    ((-10,), 2128201856405384867),
    ((1234567890123456789,), 4371941144307309689),
    ((2**31,), 2296124027370115522),
    ((2**62,), 4563210755572389754),
    ((2**63 - 1,), 5388453762857902177),
    ((-(2**63),), 8438881283588990391),
    ((-(2**63) + 1,), 8438869188961080070),
    ((2**63,), 5388446066276504700),
    ((-(2**63) - 1,), 8438880184077362180),
    ((2**64,), 7407930851264606407),
    ((1234567890123456789012345,), 7025466951793414946),
    ((-1234567890123456789012345,), 7840942178221061241),
    # int-likes that are not exact ints hash their own repr
    ((True,), 2367105992930907983),
    ((False,), 864669945919481714),
    ((True, 1), 3039133933986687770),
    ((Colour.RED,), 4240006851023752717),
    ((Colour.BLUE, 2), 3050913010425654095),
    # other scalars and containers
    ((1.5,), 4610590149482630951),
    ((-0.0,), 376991779605738256),
    ((1e300,), 3515697330329186087),
    ((float("inf"),), 2777406302959591490),
    ((None,), 7181470130447638677),
    ((None, None), 8393232518923036747),
    (((),), 1941379097179224488),
    (((1,),), 3614505861753712023),
    (((1, "a", (2.5, None)),), 4921175696364386478),
    (([1, [2, [3]]],), 5205350187657924165),
    (({"k": (1, 2)},), 474773396555220166),
    ((frozenset(),), 1070816347126319272),
    ((b"bytes\x00",), 7980161601155507556),
    # replication.commit's prefix digests: MessageId reprs as mS.K
    ((MessageId(3, 14),), 6374431824790707594),
    (("prefix", (MessageId(0, 1), MessageId(2, 7))), 675877624692525274),
    ((4611686018427387904, MessageId(1, 1)), 8356950615314253269),
    # strings: the quoted-ASCII shape, then everything repr escapes or
    # requotes, then non-ASCII
    (("",), 1934603906527512881),
    (("plain tag",), 5932620460340336845),
    (("~ printable !#$%&()*+,-./:;<=>?@[]^_`{|}",), 7686697324101952627),
    (("it's",), 4644551270748679006),
    (('say "hi"',), 7397248808044203613),
    (("both ' and \" here",), 7356310785742049552),
    (("line\nbreak",), 858274099304740192),
    (("tab\there",), 2709862067294975678),
    (("back\\slash",), 4266823223525206237),
    (("nul\x00",), 6235136791207070276),
    (("del\x7f",), 7413890594969900765),
    (("é",), 4529897413474310657),
    (("naïve café",), 2727379825775043897),
    (("日本語",), 5482292128716325209),
    (("\U0001f600",), 2269735608933324930),
    (("\ud800",), 7206765123675043292),
    (("a\ud800b",), 4304122643410436979),
    (("\xa0nbsp",), 4574670505532301419),
    ((Shouty(),), 6995010376316486936),
    # parts are concatenated without a separator
    (("a", "b"), 7296513333033759030),
    (("ab",), 7929110186262090488),
]


class TestGoldenVectors:
    @pytest.mark.parametrize("body", BODIES)
    def test_every_vector(self, body):
        wrong = [
            (parts, body(*parts), value)
            for parts, value in GOLDEN
            if body(*parts) != value
        ]
        assert not wrong

    @pytest.mark.parametrize("body", BODIES)
    def test_known_stream_collisions_are_preserved(self, body):
        """Parts are concatenated without separators, so these keys meet.
        Part of the pinned function; no counter draw keys on it any more
        (``tests/test_draws.py`` holds the draws apart)."""
        assert (
            body("uniform-dist", 7, 1, 12, 3)
            == body("uniform-dist", 7, 11, 2, 3)
            == body("uniform-dist", 7, 1, 1, 23)
            == 876192084224901768
        )

    @pytest.mark.parametrize("body", BODIES)
    def test_result_is_a_63_bit_int(self, body):
        for parts, __ in GOLDEN:
            value = body(*parts)
            assert type(value) is int and 0 <= value < 2**63


# -- C ≡ Python --------------------------------------------------------------

_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from("'\"\\\n\t\x00\x1f\x7f\x80\xa0é\ud800\udfff"),
    ),
    max_size=12,
)
_INTS = st.one_of(
    st.integers(),
    st.integers(-(2**63) - 2, -(2**63) + 2),
    st.integers(2**63 - 2, 2**63 + 2),
    st.integers(-(10**30), 10**30),
)
_LEAVES = st.one_of(
    _INTS,
    _TEXT,
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True),
    st.binary(max_size=6),
    st.sampled_from(list(Colour)),
    st.builds(MessageId, st.integers(0, 9), st.integers(0, 10**6)),
    st.just(frozenset()),
    st.just(Shouty()),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=3),
    ),
    max_leaves=8,
)


@needs_extension
class TestDifferential:
    @given(parts=st.lists(_VALUES, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_c_equals_python_on_recursive_values(self, parts):
        assert stable_hash(*parts) == _stable_hash_python(*parts)

    @given(tag=_TEXT, seed=_INTS, a=_INTS, b=_INTS, c=_INTS)
    @settings(max_examples=150, deadline=None)
    def test_c_equals_python_on_draw_shaped_calls(self, tag, seed, a, b, c):
        assert stable_hash(tag, seed, a, b, c) == _stable_hash_python(
            tag, seed, a, b, c
        )

    def test_every_printable_ascii_character_alone_and_embedded(self):
        for code in range(0x100):
            for text in (chr(code), f"a{chr(code)}b"):
                assert stable_hash(text) == _stable_hash_python(text), text

    def test_every_int64_digit_count_and_sign(self):
        for digits in range(1, 21):
            for value in (10**digits - 1, 10 ** (digits - 1), -(10**digits) + 1):
                assert stable_hash(value) == _stable_hash_python(value), value

    def test_str_and_int_subclasses_use_their_own_repr(self):
        class Tag(str):
            def __repr__(self):
                return "Tag!"

        class Count(int):
            def __repr__(self):
                return "Count!"

        for value, plain in ((Tag("x"), "x"), (Count(3), 3)):
            assert stable_hash(value) == _stable_hash_python(value)
            assert stable_hash(value) != stable_hash(plain)


# -- errors and references ---------------------------------------------------


class Raises:
    def __repr__(self) -> str:
        raise LookupError("no repr today")


class ReprIsNotStr:
    def __repr__(self):
        return 7


class ReprHasLoneSurrogate:
    def __repr__(self) -> str:
        return "half \ud800 pair"


class FixedRepr:
    """Hands out one ``str`` object, so a leaked repr shows on it."""

    def __init__(self) -> None:
        self.text = "fixed-" + "é" * 3

    def __repr__(self) -> str:
        return self.text


class TestErrorsAndReferences:
    @pytest.mark.parametrize("body", BODIES)
    @pytest.mark.parametrize(
        "bad, error",
        [
            (Raises(), LookupError),
            (ReprIsNotStr(), TypeError),
            (ReprHasLoneSurrogate(), UnicodeEncodeError),
        ],
    )
    def test_bad_repr_raises_the_same_type_from_any_position(self, body, bad, error):
        for parts in ((bad,), ("tag", 1, bad), (bad, 2), ((1, [bad]),)):
            with pytest.raises(error):
                body(*parts)

    @pytest.mark.parametrize("body", BODIES)
    def test_keyword_arguments_are_rejected(self, body):
        with pytest.raises(TypeError):
            body("tag", seed=1)

    @needs_extension
    def test_no_reference_is_leaked_on_any_path(self):
        body = stable_hash
        fixed = FixedRepr()
        arguments = [
            "workload-gap", "it's", "é", 1234567, 2**70, -(2**63), 1.5, None,
            True, Colour.RED, (1, "a"), MessageId(1, 2), fixed, fixed.text,
        ]
        failing = [Raises(), ReprIsNotStr(), ReprHasLoneSurrogate()]
        watched = arguments + failing

        def hammer() -> None:  # its own frame: no loop variable outlives it
            for __ in range(100_000 // len(failing)):
                body(*arguments)
                for bad in failing:
                    try:
                        body(*arguments, bad, 5)
                    except (LookupError, TypeError, UnicodeEncodeError):
                        pass

        # A first pass fills the interpreter's type attribute cache: a slot
        # it fills lets go of a reference to None, whose count is watched.
        hammer()
        gc.collect()
        before = [sys.getrefcount(value) for value in watched]
        hammer()
        assert [sys.getrefcount(value) for value in watched] == before


# -- selection ---------------------------------------------------------------


class TestSelection:
    def test_the_c_body_is_bound_exactly_when_the_extension_loaded(self):
        """A build that lost the symbol, or an import path that skipped the
        binding, must be a red test and not a 20x slower draw."""
        is_builtin = isinstance(stable_hash, pytypes.BuiltinFunctionType)
        assert is_builtin == HAS_COMPILED == HAS_COMPILED_LOOP
        if not HAS_COMPILED:
            assert stable_hash is _stable_hash_python

    def test_every_caller_imported_the_bound_function(self):
        callers = {
            stable_hash: (
                "repro.replication.commit", "repro.search.envelope",
                "repro.search.falsify", "repro.sim.failures", "repro.suite",
            ),
            draw_unit: (
                "repro.search.falsify", "repro.sim.envs",
                "repro.workload.population",
            ),
            draw_below: (
                "repro.detectors.omega", "repro.detectors.perfect",
                "repro.detectors.sigma", "repro.detectors.strong",
                "repro.sim.envs",
            ),
        }
        for function, modules in callers.items():
            for name in modules:
                module = importlib.import_module(name)
                assert getattr(module, function.__name__) is function, name


# -- whole runs across bodies ------------------------------------------------


def whole_run_digests() -> dict:
    """Digests of small runs and samples that between them draw link
    delays under every registered environment, client arrivals/keys/coins,
    block permutations and every seeded detector history. Imported by name
    in the extension-less child of the test below."""
    import hashlib

    from repro.core import EtobLayer
    from repro.detectors import (
        EventuallyPerfectDetector,
        EventuallyStrongDetector,
        OmegaDetector,
        SigmaDetector,
        StrongDetector,
    )
    from repro.sim import (
        FailurePattern,
        ProtocolStack,
        Simulation,
        make_env,
        registered_envs,
        run_digest,
    )
    from repro.workload import WorkloadSpec, workload_sim

    def sha(value) -> str:
        return hashlib.sha256(repr(value).encode()).hexdigest()

    spec = WorkloadSpec(clients=3, ops_per_client=8, mean_gap=12, seed=5)
    sim, observer, horizon = workload_sim(
        spec, stack="etob", env="uniform", record="outputs"
    )
    sim.run_until(horizon)
    workload = [run_digest(sim), repr(observer.summary())]

    n = 5
    pattern = FailurePattern(n, {n - 1: 900})
    omega = OmegaDetector(stabilization_time=300, pre_behavior="random")
    sim = Simulation(
        [ProtocolStack([EtobLayer()]) for __ in range(n)],
        failure_pattern=pattern,
        detector=omega.history(pattern, seed=11),
        delay_model=make_env("flaky", seed=11).delay,
        seed=11,
        timeout_interval=16,
        scheduling="random",
        record="outputs",
    )
    for i in range(12):
        sim.add_input(i % (n - 1), 40 + 25 * i, ("broadcast", f"m{i}"))
    sim.run_until(1500)

    detectors = {
        "omega_random": omega,
        "sigma_anchor": SigmaDetector(stabilization_time=200),
        "sigma_majority": SigmaDetector(stabilization_time=200, mode="majority"),
        "diamond_p": EventuallyPerfectDetector(stabilization_time=200),
        "s": StrongDetector(),
        "diamond_s": EventuallyStrongDetector(stabilization_time=200),
    }
    histories = {}
    for name, detector in detectors.items():
        history = detector.history(pattern, seed=9)
        histories[name] = sha(
            [history.query(pid, t) for pid in range(n) for t in range(320)]
        )

    receivers = list(range(n))
    delays = {
        env: sha([
            make_env(env, seed=3).delay.delay_profile(sender, t, receivers)
            for sender in range(n) for t in range(0, 400, 3)
        ])
        for env in registered_envs()
    }
    return {
        "workload": workload,
        "random_flaky_etob": run_digest(sim),
        "histories": histories,
        "delays": delays,
    }


_CHILD = """
import json, sys, warnings
sys.modules["repro.sim._ckernel"] = {ckernel}
sys.path[:0] = {paths!r}
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro
    from repro.sim import HAS_COMPILED, HAS_COMPILED_LOOP
    from repro.sim.types import _stable_hash_python, stable_hash
    from test_stable_hash import whole_run_digests
    digests = whole_run_digests()
print(json.dumps({{
    "python_body": stable_hash is _stable_hash_python,
    "has_compiled": [HAS_COMPILED, HAS_COMPILED_LOOP],
    "warnings": [
        str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
    ],
    "digests": digests,
}}))
"""


def _child_report(ckernel: str) -> dict:
    """Run :func:`whole_run_digests` in a fresh interpreter whose
    ``repro.sim._ckernel`` is the given expression."""
    import repro

    paths = [str(Path(repro.__file__).parents[1]), str(Path(__file__).parent)]
    result = subprocess.run(
        [sys.executable, "-c", _CHILD.format(ckernel=ckernel, paths=paths)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestWholeRunsAcrossBodies:
    @needs_extension
    def test_an_interpreter_without_the_extension_reproduces_every_digest(self):
        report = _child_report("None")
        assert report["python_body"] and report["has_compiled"] == [False, False]
        assert report["warnings"] == []
        assert report["digests"] == whole_run_digests()

    def test_a_mismatched_extension_degrades_with_one_warning(self):
        """A stale build present on the path: one warning naming the
        rebuild command, every rung and the hash back on pure Python, and
        the runs come out the same."""
        report = _child_report(
            '__import__("types").SimpleNamespace('
            '__name__="repro.sim._ckernel", SOURCE_DIGEST="0" * 64)'
        )
        assert report["python_body"] and report["has_compiled"] == [False, False]
        (message,) = report["warnings"]
        assert "python setup.py build_ext --inplace" in message
        assert report["digests"] == whole_run_digests()
