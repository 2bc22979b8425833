#!/usr/bin/env python3
"""Causal chat: replies never precede the messages they answer.

Property (3) of Algorithm 5: causal order holds *at all times*, even while
different processes trust different leaders. This demo runs a chat room over
ETOB during a long leader-churn window with heavy network reordering. Every
reply causally depends on the message it answers (the causal graph records
the dependency); despite divergence, no replica ever displays a reply above
its antecedent.

For contrast, the same workload runs over the ablated variant that promotes
messages in arrival order (no causal graph): reordering makes replies
overtake their antecedents and causal violations appear.

Run:  python examples/causal_chat.py
"""

from repro import FailurePattern, OmegaDetector, ProtocolStack, Simulation
from repro.core import EtobLayer
from repro.core.etob_variants import ArrivalOrderEtobLayer
from repro.core.messages import payloads
from repro.properties import check_causal_order, extract_timeline
from repro.sim import UniformDist

# Replies follow their antecedents closely, so with delays up to 60 ticks a
# reply regularly overtakes its antecedent on some links — the situation the
# causal graph exists to survive.
CHAT = [
    (0, 15, "alice: shall we ship on friday?"),
    (1, 40, "bob: re alice -> only if tests pass"),
    (2, 65, "carol: re bob -> CI is green"),
    (3, 90, "dave: re carol -> then friday it is"),
    (0, 115, "alice: re dave -> booking the release train"),
    (1, 140, "bob: re alice -> :shipit:"),
    (2, 165, "carol: separate thread: lunch?"),
    (3, 190, "dave: re carol -> tacos"),
]


def run(layer_factory, label):
    n = 4
    pattern = FailurePattern.no_failures(n)
    detector = OmegaDetector(stabilization_time=400, pre_behavior="rotate").history(
        pattern
    )
    sim = Simulation(
        [ProtocolStack([layer_factory()]) for _ in range(n)],
        failure_pattern=pattern,
        detector=detector,
        delay_model=UniformDist(2, 60, seed=0),
        timeout_interval=2,
        message_batch=4,
    )
    for pid, t, text in CHAT:
        sim.add_input(pid, t, ("broadcast", text))
    sim.run_until(1800)

    timeline = extract_timeline(sim.run)
    causal = check_causal_order(sim.run)
    print(f"{label}")
    print(f"  causal-order violations: {len(causal.violations)} "
          f"(checked {causal.pairs_checked} ordered pairs)")
    print("  p0's final view:")
    for line in payloads(timeline.final_sequence(0)):
        print(f"      {line}")
    if causal.violations:
        print("  example violation:")
        print(f"      {causal.violations[0]}")
    print()


def main() -> None:
    print("Leader churn until t=400; message delays random in [2, 60].\n")
    run(EtobLayer, "Algorithm 5 (causal graph ordering):")
    run(ArrivalOrderEtobLayer, "Ablation (arrival-order promotion, no causal graph):")


if __name__ == "__main__":
    main()
