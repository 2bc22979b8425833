"""One run spec: every protocol run is a :class:`RunSpec` of plain values
that :func:`build_simulation` builds, naming its protocol in
:data:`repro.protocols.PROTOCOLS`.

Every registered protocol builds, runs and digests the same on every rung;
a spec is a value (it pickles, hashes and compares equal to its copy);
``dataclasses.replace`` flips one knob of an otherwise identical run; the
detector follows the protocol's entry; the falsify targets derive from
the experiment cells whose scenarios they search; and each stack, written
as a spec, meets its property checker end to end.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import pytest

from repro.core import EtobLayer
from repro.core.messages import payloads
from repro.properties import (
    check_ec,
    check_eic,
    check_etob,
    check_tob,
    extract_timeline,
)
from repro.protocols import PROTOCOLS, protocol_processes
from repro.replication import CommittedPrefixLayer, Counter, ReplicaLayer
from repro.sim import (
    DEFAULT_KERNEL,
    AgeGstDist,
    FixedDelay,
    Layer,
    ProtocolStack,
    RunSpec,
    UniformDist,
    build_simulation,
    run_digest,
    run_plan,
)
from repro.sim.errors import ConfigurationError


def short_spec(protocol: str) -> RunSpec:
    """A 400-tick run of ``protocol`` at n=3 with one crash; a protocol whose
    top layer takes application inputs gets three broadcasts."""
    spec = RunSpec(
        n=3, duration=400, protocol=protocol, crashes=((2, 250),), seed=5,
        tau=60, links=FixedDelay(3), timeout_interval=4, message_batch=4,
    )
    top = protocol_processes(replace(spec, n=1))[0].layers[-1]
    if type(top).on_input is Layer.on_input:
        return spec
    return replace(
        spec, inputs=tuple((p, 20 + 30 * p, ("broadcast", f"m{p}")) for p in range(3))
    )


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_every_registered_protocol_runs_alike_on_every_rung(protocol):
    spec = short_spec(protocol)
    default = run_plan(spec)
    packed = run_plan(replace(spec, kernel="packed"))
    assert default.kernel == DEFAULT_KERNEL and packed.kernel == "packed"
    assert all(type(p) is ProtocolStack for p in default.processes)
    assert any(default.run.output_history.values()), "the run emitted nothing"
    assert run_digest(default) == run_digest(packed)


def late_links_spec() -> RunSpec:
    from repro.analysis.experiments.stabilization import etob_stabilization_spec

    return etob_stabilization_spec(100, n=4, seed=7, env="late-links")


def test_a_spec_is_a_value():
    spec = replace(
        late_links_spec(), protocol="tob-consensus",
        protocol_args=(("quorum_mode", "sigma"),), timeout_interval=(4, 5, 6, 7),
    )
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec and twin is not spec
        assert hash(twin) == hash(spec)
    assert len({spec, copy.deepcopy(spec), replace(spec, seed=8)}) == 2


def test_replace_flips_engine_kernel_and_record():
    spec = replace(late_links_spec(), duration=600)
    flipped = replace(spec, engine="naive", kernel="legacy", record="full")
    sim = build_simulation(flipped)
    assert (sim.engine, sim.kernel, sim.record_level) == ("naive", "legacy", "full")
    assert build_simulation(replace(spec, record="metrics")).record_level == "metrics"
    reference = run_plan(spec)
    sim.run_until(spec.duration)
    assert run_digest(sim) == run_digest(reference)
    assert sim.run.steps and not reference.run.steps


def sample(spec: RunSpec):
    return build_simulation(spec).detector.query(0, 0)


def test_the_detector_follows_the_protocol_entry():
    spec = RunSpec(n=4, duration=0, tau=50, leader=2)
    assert sample(replace(spec, protocol="etob")) == 0  # rotating before tau
    sigma = replace(
        spec, protocol="tob-consensus", protocol_args=(("quorum_mode", "sigma"),)
    )
    assert sorted(sample(sigma)) == ["omega", "sigma"]
    assert not isinstance(sample(replace(spec, protocol="tob-consensus")), dict)
    assert sorted(sample(replace(spec, protocol="tob-ct"))) == ["omega", "suspects"]
    assert build_simulation(replace(spec, protocol="etob", tau=None)).detector is None
    stable = build_simulation(replace(spec, protocol="etob", tau=0))
    assert stable.detector.query(3, 9) == 2


def test_object_arguments_stand_in_for_spec_values():
    spec = RunSpec(n=2, duration=0, protocol="no-such-protocol")
    with pytest.raises(ConfigurationError, match="no-such-protocol"):
        build_simulation(spec)
    processes = [ProtocolStack([PROTOCOLS["etob"].layers()[0]]) for _ in range(2)]
    history = object()
    sim = build_simulation(spec, processes=processes, detector=history)
    assert sim.processes == processes and sim.detector is history
    # Without a detector argument the spec's own history stands: none
    # unless the spec sets tau.
    assert build_simulation(spec, processes=processes).detector is None
    stable = build_simulation(
        replace(spec, protocol=None, tau=0), processes=processes
    )
    assert stable.detector.query(1, 0) == 0


def test_the_falsify_targets_derive_from_their_experiment_cells():
    from repro.analysis.experiments.environments import partition_gap_spec
    from repro.analysis.experiments.stabilization import exp_etob_stabilization
    from repro.search import get_target, iid_baseline
    from repro.suite import derive_seed

    exp4 = get_target("exp4-tau")
    point = exp4.envelope.random_point(3)
    spec = exp4.build(point)
    cell = late_links_spec()
    assert replace(spec, seed=cell.seed, crashes=(), scheduling=cell.scheduling,
                   links=cell.links) == cell
    row = exp_etob_stabilization(
        taus=(100,), n=4, seed=derive_seed(0, 0), env="late-links"
    )[0]
    assert iid_baseline("exp4-tau", seeds=1)["values"] == [row["tau"]]

    exp8 = get_target("exp8-tau")
    spec = exp8.build(exp8.envelope.random_point(3))
    cell = partition_gap_spec("etob", seed=spec.seed, env="uniform")
    assert replace(spec, crashes=cell.crashes, inputs=cell.inputs,
                   scheduling=cell.scheduling, links=cell.links) == cell


@pytest.mark.parametrize("name", ["exp4-tau", "exp8-tau"])
def test_a_targets_axes_are_what_its_build_runs(name):
    # rebuild_simulation checks a witness's axes against target.axes, so
    # they must name the scenario build(point) actually runs.
    from repro.search import get_target

    target = get_target(name)
    for key in range(3):
        spec = target.build(target.envelope.random_point(key))
        assert (spec.n, spec.tau, spec.scheduling) == (
            target.axes["n"], target.axes["tau_omega"], target.axes["scheduling"]
        )
        assert target.envelope.n == spec.n


# End to end: each stack as a spec, checked by its property checker.

def broadcasts(*items: tuple[int, int, str]) -> tuple:
    return tuple((pid, t, ("broadcast", payload)) for pid, t, payload in items)


def test_etob_under_a_crash_and_late_stabilization():
    sim = run_plan(RunSpec(
        n=4, duration=900, protocol="etob", crashes=((3, 300),), seed=3,
        tau=150, links=FixedDelay(2), timeout_interval=4,
        inputs=broadcasts((0, 20, "a"), (1, 60, "b")),
    ))
    report = check_etob(sim.run)
    assert report.ok, report.violations


@pytest.mark.parametrize(
    "protocol,check,duration", [("ec", check_ec, 700), ("eic", check_eic, 900)]
)
def test_consensus_stacks_meet_their_spec(protocol, check, duration):
    sim = run_plan(RunSpec(
        n=3, duration=duration, protocol=protocol,
        protocol_args=(("instances", 5),),
        tau=0, links=FixedDelay(2),
    ))
    report = check(sim.run, expected_instances=5)
    assert report.ok, report.violations


def test_strong_tob_with_majority_quorums():
    sim = run_plan(RunSpec(
        n=4, duration=2500, protocol="tob-consensus", tau=0,
        links=FixedDelay(2), message_batch=4,
        inputs=broadcasts((0, 10, "x"), (1, 80, "y")),
    ))
    report = check_tob(sim.run)
    assert report.ok, report.violations


def test_sigma_quorums_serve_a_minority_after_a_majority_crash():
    sim = run_plan(RunSpec(
        n=5, duration=5000, protocol="tob-consensus",
        protocol_args=(("quorum_mode", "sigma"),),
        crashes=tuple((pid, 100) for pid in range(3)), seed=1, tau=150,
        leader=4, links=FixedDelay(2), message_batch=4,
        inputs=broadcasts((3, 250, "minority-write")),
    ))
    assert "minority-write" in payloads(extract_timeline(sim.run).final_sequence(4))


def test_a_replicated_counter_converges_and_commits():
    def replica():
        return ProtocolStack(
            [EtobLayer(), CommittedPrefixLayer(), ReplicaLayer(Counter())]
        )

    spec = RunSpec(
        n=3, duration=700, tau=0, links=FixedDelay(2), message_batch=8,
        record="full",
        inputs=((0, 10, ("invoke", ("add", 2))), (1, 60, ("invoke", ("add", 3)))),
    )
    sim = build_simulation(spec, processes=[replica() for _ in range(3)])
    sim.run_until(spec.duration)
    assert [sim.processes[p].layer("replica").state for p in range(3)] == [5] * 3
    assert sim.run.tagged_outputs(0, "committed")


def test_etob_under_gst_links_and_random_scheduling():
    sim = run_plan(RunSpec(
        n=3, duration=600, protocol="etob", seed=9, tau=0,
        links=AgeGstDist(gst=100, pre_max=20, post_delay=2, seed=9),
        scheduling="random", inputs=broadcasts((0, 30, "m")),
    ))
    report = check_etob(sim.run)
    assert report.ok, report.violations


def test_a_spec_runs_the_same_twice():
    spec = RunSpec(
        n=3, duration=400, protocol="etob", seed=42, tau=80,
        links=UniformDist(2, 20, seed=42), record="full",
        inputs=broadcasts((0, 10, "m")),
    )
    steps = [
        [(s.time, s.pid, s.sent) for s in run_plan(spec).run.steps]
        for __ in range(2)
    ]
    assert steps[0] == steps[1] and steps[0]
