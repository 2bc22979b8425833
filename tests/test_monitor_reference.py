"""The property monitors against the plain definitions, on adversarial runs.

The monitors of :mod:`repro.properties` fold a run's outputs incrementally:
an extension is checked on its new suffix, a conflict between two
sequences is carried across extensions, a snapshot whose causal past is
not yet known waits. The reference checkers here are the same properties
written the direct way, over a :class:`DeliveryTimeline` and the plain
sequence algebra of :mod:`sequences`: every snapshot in full, every pair
of current sequences after every event. Hypothesis draws small runs rich
in what the shortcuts skip (rewrites, repeated messages, ties, conflicts,
dependencies delivered after their dependents, processes outside the
correct set); the reports must be equal field for field.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import divergence_windows
from repro.core.messages import AppMessage, MessageId
from repro.properties import check_causal_order, check_etob, extract_timeline
from repro.properties.causal_checker import CausalReport
from repro.properties.etob_checker import EtobReport
from repro.sim.failures import FailurePattern
from repro.sim.runs import RunRecord

from sequences import has_duplicates, is_prefix, order_consistent


def _merged(tl, correct):
    events = [
        (t, pid, seq) for pid in correct for t, seq in tl.snapshots.get(pid, [])
    ]
    return sorted(events, key=lambda e: (e[0], e[1]))


def _stable_time(tl, pid, uid):
    stable_from = None
    for t, seq in tl.snapshots.get(pid, []):
        present = any(m.uid == uid for m in seq)
        if present and stable_from is None:
            stable_from = t
        elif not present:
            stable_from = None
    return stable_from


def reference_etob(run, correct):
    tl = extract_timeline(run)
    correct = sorted(correct)
    violations = []
    delivered = {m.uid for s in tl.snapshots.values() for __, seq in s for m in seq}
    phantom = delivered - set(tl.broadcasts)
    if phantom:
        violations.append(f"no-creation: delivered but never broadcast: {sorted(phantom)}")
    duplicates = [
        f"no-duplication: p{pid}@t{t} has duplicates"
        for pid in sorted(tl.snapshots)
        for t, seq in tl.snapshots[pid]
        if has_duplicates([m.uid for m in seq])
    ]
    violations += duplicates
    validity_ok = agreement_ok = True
    for uid, (broadcaster, __, ___) in sorted(tl.broadcasts.items()):
        if broadcaster in correct and _stable_time(tl, broadcaster, uid) is None:
            violations.append(f"validity: p{broadcaster} never stably delivered its own {uid}")
            validity_ok = False
    stably = {m.uid for pid in correct for m in tl.final_sequence(pid)}
    for uid in sorted(stably):
        for pid in correct:
            if _stable_time(tl, pid, uid) is None:
                violations.append(f"agreement: {uid} stably delivered somewhere but not by p{pid}")
                agreement_ok = False
    rewrites = [
        t
        for pid in correct
        for (__, before), (t, seq) in zip(
            [(-1, ())] + tl.snapshots.get(pid, []), tl.snapshots.get(pid, [])
        )
        if not is_prefix(before, seq)
    ]
    current = {pid: () for pid in correct}
    conflicts = []
    for t, pid, seq in _merged(tl, correct):
        current[pid] = seq
        conflicts += [
            t for other in correct
            if other != pid and not order_consistent(seq, current[other])
        ]
    unordered = [
        f"total-order: p{a} and p{b} still order common messages "
        "differently at the end of the run"
        for i, a in enumerate(correct)
        for b in correct[i + 1:]
        if not order_consistent(current[a], current[b])
    ]
    violations += unordered
    return EtobReport(
        validity_ok=validity_ok,
        no_creation_ok=not phantom,
        no_duplication_ok=not duplicates,
        agreement_ok=agreement_ok,
        tau_stability=max(rewrites, default=-1) + 1,
        tau_total_order=max(conflicts, default=-1) + 1,
        violations=violations,
        stability_violations=len(rewrites),
        order_violations=len(conflicts),
        total_order_ok=not unordered,
    )


def reference_causal(run, correct):
    tl = extract_timeline(run)
    universe = {}
    for pid in sorted(tl.snapshots):
        for __, seq in tl.snapshots[pid]:
            for message in seq:
                universe.setdefault(message.uid, message)

    def ancestors(uid):
        acc = set()
        for dep in universe[uid].deps if uid in universe else ():
            acc.add(dep)
            acc |= ancestors(dep)
        return frozenset(acc)

    violations, pairs = [], 0
    for pid in sorted(correct):
        for t, seq in tl.snapshots.get(pid, []):
            position = {m.uid: i for i, m in enumerate(seq)}
            for message in seq:
                for ancestor in ancestors(message.uid):
                    if ancestor in position:
                        pairs += 1
                        if position[ancestor] >= position[message.uid]:
                            violations.append(
                                f"causal: p{pid}@t{t}: {ancestor} after {message.uid}"
                            )
    return CausalReport(ok=not violations, violations=violations, pairs_checked=pairs)


def reference_divergence(run, correct):
    tl = extract_timeline(run)
    correct = sorted(correct)
    current = {pid: () for pid in correct}
    raw, open_start = [], None
    for t, pid, seq in _merged(tl, correct):
        if not is_prefix(current[pid], seq):
            raw.append((t, t + 1))
        current[pid] = seq
        conflicted = any(
            not order_consistent(current[a], current[b])
            for i, a in enumerate(correct) for b in correct[i + 1:]
        )
        if conflicted and open_start is None:
            open_start = t
        elif not conflicted and open_start is not None:
            raw.append((open_start, t))
            open_start = None
    if open_start is not None:
        raw.append((open_start, run.end_time + 1))
    merged = []
    for start, end in sorted(raw):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@st.composite
def delivery_runs(draw):
    """A small run of deliver/broadcast outputs and a correct set."""
    n = draw(st.integers(2, 4))
    messages = []
    for i in range(draw(st.integers(1, 6))):
        # Dependencies on earlier messages only (a run's causality is
        # acyclic), but they may be delivered after their dependents.
        deps = draw(st.sets(st.integers(0, i - 1), max_size=2)) if i else set()
        messages.append(
            AppMessage(
                MessageId(i % n, i), f"m{i}",
                frozenset(MessageId(d % n, d) for d in deps),
            )
        )
    run = RunRecord(n, FailurePattern.no_failures(n))
    for pid in range(n):
        events = [
            (draw(st.integers(0, 30)), ("broadcast-uid", m.uid, m.payload))
            for m in messages
            if m.uid.sender == pid and draw(st.booleans())
        ]
        seq, t = (), 0
        for __ in range(draw(st.integers(0, 6))):
            t += draw(st.integers(0, 4))
            if not seq or draw(st.booleans()):
                # Mostly fresh messages; now and then one repeats.
                pool = [m for m in messages if m not in seq]
                if not pool or draw(st.integers(0, 3)) == 0:
                    pool = messages
                seq += tuple(draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)))
            else:
                seq = tuple(draw(st.permutations(seq)))[: draw(st.integers(0, len(seq)))]
            events.append((t, ("deliver", seq)))
        run.output_history[pid] = sorted(events, key=lambda e: e[0])
        run.end_time = max([run.end_time] + [t for t, __ in events])
    return run, draw(st.sets(st.integers(0, n - 1)))


@settings(max_examples=300, deadline=None)
@given(delivery_runs())
def test_monitors_equal_the_plain_definitions(drawn):
    run, correct = drawn
    assert check_etob(run, correct=correct) == reference_etob(run, correct)
    assert check_causal_order(run, correct=correct) == reference_causal(run, correct)
    assert divergence_windows(run, correct=correct) == reference_divergence(run, correct)
