#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md and BENCH_report.json from one campaign.

Every registered experiment flattens into a single
:class:`repro.analysis.experiments.Campaign` cell pool — a seeded experiment
(its function takes a ``seed`` keyword) as ``--seeds`` cells (default 3), a
deterministic one as one cell — ordered cost-descending so the expensive
tails overlap the cheap cells, and executed through exactly **one**
streaming worker pool — a live progress line per completed cell, prefixed
by its experiment key. Each cell's value is the rows its experiment
returned. The pooled results are demultiplexed per experiment and folded
through the report spec every experiment declares (see
:class:`repro.analysis.experiments.ReportSpec`) into one mean ± spread
table — no number in EXPERIMENTS.md is hand-edited. Usage::

    python -m benchmarks.generate_report [output.md] [--seeds N] [--workers N]
                                         [--json BENCH_report.json]
                                         [--spread stdev|iqr] [--smoke]
                                         [--resume] [--cache-dir DIR]

Each experiment's claim (its registry ``claim=``) is evaluated on every
completed cell after the campaign; a seed *holds* when every flag of its rows
and every claim verdict of its cells is true, and the summary table counts
those seeds and the distinct outcomes among them (a deterministic
experiment's one run holds or fails). A row that lacks a declared flag
fails its cell, which the summary reports as partial. ``--smoke`` is the CI
gate: one seed, serial-friendly. The exit code is non-zero on any cell failure, false flag
or false verdict in every mode, so neither a broken experiment nor a broken
claim can silently regenerate the report.

``--resume`` threads a content-addressed result cache
(:mod:`repro.analysis.cache`, on disk at ``--cache-dir``) through the
campaign: completed cells are checkpointed to a crash-safe journal as they
stream in, so a killed or timed-out run reruns with ``--resume`` and
continues where it died instead of restarting; a fully warm rerun executes
zero cells. The emitted artifacts are deterministic functions of the cell
results alone (wall-clock timing goes to stderr, never into the files), so
cache temperature — cold, warm, or resumed mid-way — cannot change a byte
of EXPERIMENTS.md or BENCH_report.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

# Make `python benchmarks/generate_report.py` and `python -m
# benchmarks.generate_report` work without an exported PYTHONPATH. The
# checkout's src/ is inserted ahead of any installed `repro`, so the report
# always reflects the working tree it sits in.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.experiments import (  # noqa: E402
    ALL_EXPERIMENTS,
    EXPERIMENT_REGISTRY,
    Campaign,
    aggregate_sweep,
    claim_verdicts,
    sweep_rows,
)
from repro.suite import SuiteProgress, SuiteResult  # noqa: E402

COMMENTARY = {
    "EXP-1": (
        "Paper (Sections 1, 5, 7): an invocation completes after the optimal "
        "two communication steps under a stable leader, vs. three for strong "
        "consistency [22]. Measured: ~2 vs ~3 steps at every system size — "
        "the gap is exactly one message delay."
    ),
    "EXP-2": (
        "Theorem 1: Algorithms 1 and 2 turn any EC into ETOB and vice versa. "
        "Measured: every stack passes the full target-specification checker; "
        "the transformation costs extra traffic relative to "
        "the native Algorithm 5 (it funnels every batch through consensus "
        "instances)."
    ),
    "EXP-3": (
        "Lemma 2: Algorithm 4 implements EC with Omega in any environment. "
        "Measured: termination/integrity/validity always hold; the agreement "
        "index k is 1 under a stable detector and moves to the first "
        "instance decided after stabilization under churn — including with "
        "only a minority (or a single) correct process, and under "
        "heavy-tailed, flapping, and one-way-partitioned links alike (the "
        "per-environment column blocks)."
    ),
    "EXP-4": (
        "Lemma 3's proof constructs tau = tau_Omega + Delta_t + Delta_c. "
        "Measured tau (discovered by the checker as the last stability or "
        "order violation, plus one) stays within that bound for every "
        "tau_Omega swept, on every seed — with the environment-generalized "
        "bound max(tau_Omega, T_env) + Delta_t + Delta_c(env) under "
        "GST-style and per-pair-late link stabilization."
    ),
    "EXP-5": (
        "Property (2) of Algorithm 5: if Omega is stable from the very "
        "beginning the algorithm implements *strong* TOB. Measured: the "
        "strong checker (tau = 0) passes, with crashes and even without a "
        "correct majority."
    ),
    "EXP-6": (
        "Property (3): TOB-Causal-Order holds unconditionally in time. "
        "Measured: zero violations across about a thousand ordered pairs "
        "per seed under churn and network reordering. The arrival-order "
        "ablation (no causal graph) *can* break causal order on the same "
        "workload: it did on 11 of the first 31 derived seeds, the third of "
        "the default three among them. So the guarantee is earned by "
        "UpdateCG/UnionCG/UpdatePromote, though not every schedule exposes "
        "the difference."
    ),
    "EXP-7": (
        "Lemma 1 (the generalized CHT proof): Omega is extractable from any "
        "EC implementation. Measured: the distributed reduction (sample DAG "
        "gossip + simulation trees + k-tags + decision gadgets) stabilizes "
        "on the same correct leader at all correct processes. Bounded "
        "exploration; see DESIGN.md for the finite-prefix caveats."
    ),
    "EXP-8": (
        "The headline gap (Sections 1 and 7): consistency needs Omega+Sigma, "
        "eventual consistency only Omega. Measured after crashing 3 of 5 "
        "processes: ETOB keeps delivering, majority-quorum consensus blocks "
        "forever, Sigma-quorum consensus keeps deciding — under fixed, "
        "jittered, and flapping links alike."
    ),
    "EXP-9": (
        "Theorem 3 / Appendix A: relaxing integrity (revocable decisions) "
        "instead of agreement gives an equivalent abstraction. Measured: "
        "zero revisions under a stable detector; finitely many, all below "
        "the integrity index, under churn; final responses agree."
    ),
    "EXP-10a": (
        "Ablation: the divergence window (total ticks where correct "
        "processes' sequences conflict) grows with the churn duration and is "
        "absent without churn; final agreement always holds."
    ),
    "EXP-10b": (
        "Ablation: stretching the leader's promote period cuts message "
        "volume roughly proportionally while adding at most a period to "
        "delivery latency — the paper's two *communication steps* are "
        "unaffected."
    ),
    "EXP-10c": (
        "The oracle is realizable: a heartbeat-based Omega with adaptive "
        "timeouts stabilizes on the smallest correct process shortly after "
        "the network's global stabilization time (GST)."
    ),
    "EXP-11": (
        "Not a theorem but the paper's premise (Section 1): coordination "
        "costs client latency. An open-loop client population "
        "(`repro.workload`) drives four serving stacks; tail latency climbs "
        "from coordination-free `direct` (the floor) through the paper's "
        "ETOB and the EC->ETOB transformation to Paxos-backed strong TOB, "
        "while all stacks serve every operation. Percentiles are streamed "
        "through a bucketed histogram on the fused simulation loop — the "
        "same observer the performance ruler's `kv_direct` workload runs "
        "at 50 000 operations per repeat."
    ),
}

PREAMBLE = """\
# EXPERIMENTS — paper claims vs. measured outcomes

Paper: *The Weakest Failure Detector for Eventual Consistency*
(Dubois, Guerraoui, Kuznetsov, Petit, Sens; PODC 2015).

The paper is a theory paper with no tables or figures; its evaluation is a
set of theorems and quantitative claims. Each experiment below regenerates
one claim on the simulator substrate (see DESIGN.md for the substitutions).
Absolute numbers are simulator ticks — only *shapes* (who wins, by what
factor, where behaviour changes) carry over, which is exactly what the paper
asserts. No number below is hand-edited. Where a claim quantifies over
link delays or client arrivals, its table is a multi-seed sweep quoting
mean ± spread; the deterministic experiments draw nothing from a seed, so
each runs once and its table quotes that run:
{deterministic}.
"""

METHODOLOGY = """\
## Methodology

- **One campaign, one pool.** Every seeded experiment function runs once
  per seed, and every deterministic one once, as one `Cell` of a single
  cross-experiment `Campaign` (`repro.analysis.experiments`): all cells
  flatten into one global cell list, ordered cost-descending (per-experiment
  cost hints, so the expensive EXP-7 cell overlaps the cheap ones) and
  executed through one `repro.suite.run_cells` call — one worker pool,
  consumed in completion order. Results are demultiplexed per experiment by
  each cell's provenance tags and reassembled in canonical grid order, so
  they are independent of worker count, completion order, and pool
  ordering.
- **Seeds.** An experiment whose function takes a `seed` keyword is seeded:
  its seed draws link delays or client arrivals, and it runs {seeds} seeds,
  derived from base seed 0 via `repro.suite.derive_seed` (a stable FNV-1a
  hash of `(base_seed, index)`) — never from `hash()` or global RNG state,
  so every rerun and every machine sees the same seeds. An experiment whose
  function takes none is deterministic and runs one cell:
  {deterministic}.
  Each uses round-robin scheduling, `FixedDelay` links, and a detector that
  is stable from time 0 or churns by the unseeded `"rotate"` rule, so no
  seed could change its rows.
- **Spread metric.** `mean ± {spread_name}` per numeric column
  ({spread_detail}). Boolean verdicts are quoted as `true/total` seed
  (or run) counts; discrete outcomes (elected leaders, paper constants) as
  the set of distinct values observed.
- **Aggregation.** Each experiment declares which row columns are scenario
  identity, measurements, verdicts, and discrete outcomes
  (`ReportSpec`); `aggregate_sweep` folds the per-seed rows through that
  spec (two-axis sweeps can pivot an axis into columns). Each experiment
  also declares its *claim*: named verdicts over one cell's rows (the
  cross-row shape no single flag sees), evaluated after the campaign on
  every seed and environment cell. A seed holds when every flag and every
  verdict of its cells is true; the summary column counts those seeds and
  the distinct outcomes among them (the distinct row sets among the seeds
  of one environment), so "3/3 seeds over 1 distinct outcome" is one run
  checked three times. Each section lists its verdict counts, and any false
  flag or verdict fails the run. `BENCH_report.json` holds the same
  aggregates, every raw per-seed row, and every cell's verdicts.
- **Environments.** EXP-3, EXP-4, EXP-8, and EXP-11 additionally sweep their
  declared `env` axis over registered adversarial network environments
  (`repro.sim.envs`: heavy-tailed delays, flapping links, asymmetric
  one-way partitions, GST-style and per-pair-late stabilization), rendered
  as per-environment column blocks. Environment delay draws are
  counter-based (pure in `(seed, link, send time)`), so the swept cells are
  byte-identical across worker counts.
- **Reproduce.** `python -m benchmarks.generate_report` rewrites this file
  and `BENCH_report.json`; `--seeds`/`--spread` change the sweep width and
  dispersion metric; `--smoke` (1 seed per seeded experiment) is the CI
  gate and fails on any cell error. `--resume` memoizes every cell through
  the content-addressed result cache (`repro.analysis.cache`): a killed run
  continues from its crash-safe journal and a warm rerun executes zero
  cells, emitting these files byte-identically — which is why timing lives
  on stderr, not here.
  The performance ruler's `report_campaign` workload times this campaign
  cold and warm.
"""


def false_checks(
    key: str, rows: list[dict], claims: list[dict]
) -> dict[int | None, set[str]]:
    """Per observed seed, the names of its false checks: every ``flags``
    column of its rows and every claim verdict of its cells. A
    deterministic experiment's cells carry no seed; they share key ``None``.

    A seed holds when its set is empty. Failed cells contribute neither rows
    nor verdicts, so only observed seeds appear.
    """
    flags = EXPERIMENT_REGISTRY[key].report.flags
    false: dict[int | None, set[str]] = {}
    for row in rows:
        false.setdefault(row.get("seed"), set()).update(
            flag for flag in flags if not row[flag]
        )
    for cell in claims:
        false.setdefault(cell.get("seed"), set()).update(
            name for name, ok in cell["verdicts"].items() if not ok
        )
    return false


def distinct_outcomes(result: SuiteResult) -> dict[tuple, int]:
    """Per point of the extra axes (an environment, say), how many distinct
    row sets its seeds produced: the rows the claim reads."""
    outcomes: dict[tuple, set[str]] = {}
    for cell in result.cells:
        if cell.ok:
            point = tuple(item for item in cell.params.items() if item[0] != "seed")
            outcomes.setdefault(point, set()).add(repr(cell.value))
    return {point: len(rows) for point, rows in outcomes.items()}


def reproduced_label(
    false: dict[int | None, set[str]],
    failed_cells: int,
    outcomes: dict[tuple, int],
    *,
    seeded: bool,
) -> str:
    """The summary-table verdict, naming every flag or verdict that did not
    hold somewhere: for a seeded experiment, on how many seeds the claim
    held over how many distinct outcomes (see :func:`distinct_outcomes`);
    for a deterministic one, whether its runs held.

    Any failed cell forces a partial verdict regardless of what the
    surviving seeds report.
    """
    if failed_cells:
        return f"partial — {failed_cells} cell(s) failed"
    broken = sorted(set().union(*false.values()))
    if seeded:
        held = sum(not names for names in false.values())
        label = f"claim holds on {held}/{len(false)} seeds {_over(outcomes)}"
    else:
        runs = len(outcomes)
        verdict = "fails" if broken else "holds"
        label = f"claim {verdict} (deterministic: {runs} run{'s' if runs != 1 else ''})"
    return f"{label} — false: {', '.join(broken)}" if broken else label


def _over(outcomes: dict[tuple, int]) -> str:
    """``over d distinct outcomes``, per axis point when there are several
    (``1–3`` when they differ)."""
    counts = sorted(outcomes.values())
    low, high = counts[0], counts[-1]
    d = f"{low}" if low == high else f"{low}–{high}"
    phrase = f"over {d} distinct outcome{'s' if high != 1 else ''}"
    if len(outcomes) == 1:
        return phrase
    axes = sorted({name for point in outcomes for name, __ in point})
    return f"{phrase} per {' × '.join(axes)}"


def verdict_line(claims: list[dict]) -> str:
    """One section line: each claim verdict's true count over the cells."""
    counts: dict[str, list[int]] = {}
    for cell in claims:
        for name, ok in cell["verdicts"].items():
            count = counts.setdefault(name, [0, 0])
            count[0] += ok
            count[1] += 1
    if not counts:
        return "*Claim verdicts: none beyond the table's flags.*"
    return "*Claim verdicts (true/cells): " + ", ".join(
        f"`{name}` {true}/{total}" for name, (true, total) in counts.items()
    ) + "*"


def falsification_section() -> tuple[list[str], dict]:
    """Render the witness-corpus section: adversarial worst cases beside the
    i.i.d. tables above, each replayed in-process right now.

    Returns the markdown lines plus the machine-readable payload for
    ``BENCH_report.json``. Replay mismatches are reported in the table (and
    in the payload's ``ok`` flags) rather than aborting the report — the
    dedicated gate ``benchmarks/check_witness_corpus.py`` is what fails CI.
    """
    from repro.search import load_corpus, replay_witness

    corpus = load_corpus()
    lines = ["\n## Falsification — adversarial worst cases\n"]
    lines.append(
        "The mean ± spread tables above sample schedules i.i.d.; the "
        "falsifier (`repro.search`) instead *searches* the declared "
        "adversary envelope — scheduler permutation keys, environment "
        "parameters, crash patterns, input timing — for the schedules that "
        "hurt. Each row is a pinned witness from `tests/witnesses/`, "
        "replayed just now from nothing but its JSON; `exceeds i.i.d.?` "
        "compares it against the canonical 3-seed maximum of the same "
        "scenario. Reproduce or extend with "
        "`python -m repro.search --experiment exp4 --budget 200`.\n"
    )
    payload: dict = {"witnesses": [], "ok": True}
    if not corpus:
        lines.append("*(no witnesses pinned — corpus is empty)*")
        payload["ok"] = False
        return lines, payload
    lines.append(
        "| target | experiment | objective | witness value | "
        "i.i.d. max | exceeds i.i.d.? | replay |"
    )
    lines.append("|--------|------------|-----------|---------------|"
                 "------------|-----------------|--------|")
    for witness in corpus:
        value, digest = replay_witness(witness)
        replay_ok = value == witness.value and digest == witness.digest
        baseline_max = (
            witness.baseline["max"] if witness.baseline is not None else None
        )
        exceeds = witness.exceeds_baseline
        lines.append(
            f"| {witness.target} | {witness.experiment} | "
            f"{witness.objective} | {witness.value} | "
            f"{'-' if baseline_max is None else baseline_max} | "
            f"{'-' if exceeds is None else ('yes' if exceeds else 'NO')} | "
            f"{'ok' if replay_ok else 'MISMATCH'} |"
        )
        payload["witnesses"].append(
            {
                "target": witness.target,
                "experiment": witness.experiment,
                "objective": witness.objective,
                "value": witness.value,
                "digest": witness.digest,
                "point": {
                    **{k: v for k, v in witness.point.items() if k != "crashes"},
                    "crashes": [list(c) for c in witness.point["crashes"]],
                },
                "baseline_max": baseline_max,
                "exceeds_baseline": exceeds,
                "replay_ok": replay_ok,
            }
        )
        payload["ok"] = payload["ok"] and replay_ok and exceeds is not False
    return lines, payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--json", default="BENCH_report.json", dest="json_path")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--spread", choices=("stdev", "iqr"), default="stdev")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: 1 seed per seeded experiment; fails on any cell error, "
        "false flag or false claim verdict",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="memoize cells through the on-disk result cache and resume any "
        "interrupted run of the same campaign from its journal",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: .repro_cache, or "
        "$REPRO_RESULT_CACHE); implies --resume when given",
    )
    args = parser.parse_args(argv)
    seeds = 1 if args.smoke else args.seeds
    if seeds < 1:
        parser.error("--seeds must be >= 1")

    spread_name = "sample stdev" if args.spread == "stdev" else "IQR"
    spread_detail = (
        "sample standard deviation over seeds, 0 for a single seed"
        if args.spread == "stdev"
        else "interquartile range over seeds, 0 for a single seed"
    )

    summary_rows: list[str] = []
    sections: list[str] = []
    report: dict = {
        "paper": "The Weakest Failure Detector for Eventual Consistency (PODC 2015)",
        "generator": "benchmarks/generate_report.py",
        "python": platform.python_version(),
        "seeds": seeds,
        "spread": args.spread,
        "smoke": args.smoke,
        "experiments": {},
    }
    failures: list[str] = []
    total_started = time.perf_counter()
    # The tentpole of the pipeline: one campaign flattens every experiment's
    # cells into a single cost-ordered pool and runs them through exactly one
    # worker pool; each progress line is prefixed by the cell's experiment.
    campaign = Campaign(list(ALL_EXPERIMENTS), seeds=seeds, name="report")
    # Every experiment declaring an `env` axis (registered network
    # environments, repro.sim.envs) is swept over it and pivoted into
    # per-environment column blocks — derived from the registry, so a new
    # env-capable experiment joins the sweep without touching this driver.
    env_swept = {
        key
        for key in campaign.keys
        if any(axis.name == "env" for axis in campaign.definition(key).axes)
    }
    for key in sorted(env_swept):
        campaign.extend(key, "env")  # the experiment's declared value set
    cache = None
    if args.resume or args.cache_dir is not None:
        from repro.analysis.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    outcome = campaign.run(
        workers=args.workers, progress=SuiteProgress(),
        cache=cache,
    )
    report["campaign"] = {
        "cells": len(outcome.suite.cells),
        "workers": outcome.workers,
        "order": "cost",
    }
    for key in ALL_EXPERIMENTS:
        definition = EXPERIMENT_REGISTRY[key]
        result = outcome.experiment(key)
        elapsed = result.wall_time  # summed cell time within the shared pool
        for failure in result.failures():
            failures.append(f"{key} {failure.params!r}: {failure.error}")
        rows = sweep_rows(result)
        # Claims run here, on the demultiplexed cells, never inside a cell.
        claims = claim_verdicts(key, result)
        false = false_checks(key, rows, claims)
        failures.extend(
            f"{key} seed={seed}: false {', '.join(sorted(names))}"
            for seed, names in false.items()
            if names
        )
        statement = definition.claim.__doc__.strip().splitlines()[0]
        table, aggregated = aggregate_sweep(
            key, result, spread=args.spread,
            pivot="env" if key in env_swept else None,
        )
        label = reproduced_label(
            false, len(result.failures()), distinct_outcomes(result),
            seeded=definition.seeded,
        )
        summary_rows.append(f"| {key} | {statement} | {label} |")
        sections.append(f"\n## {key} — {definition.title}\n")
        sections.append("```")
        sections.append(table.render())
        sections.append("```")
        sections.append(f"\n{verdict_line(claims)}")
        sections.append(f"\n{COMMENTARY.get(key, '')}")
        # Deliberately no timing here: the artifacts must be byte-identical
        # across reruns (cold, warm-cache, or journal-resumed), so wall-clock
        # numbers go to stderr only.
        count = len(result.cells)
        sections.append(
            f"\n*({count} cell{'s' if count != 1 else ''} in the shared "
            f"campaign pool)*"
        )
        report["experiments"][key] = {
            "title": definition.title,
            "claim": statement,
            "spec": {
                "group_by": definition.report.group_by,
                "metrics": definition.report.metrics,
                "flags": definition.report.flags,
                "values": definition.report.values,
            },
            "aggregated": aggregated,
            "rows": rows,
            "claims": claims,
            "cells": len(result.cells),
            "cells_failed": len(result.failures()),
        }
        runs = f"{seeds} seed(s)" if definition.seeded else "deterministic"
        print(
            f"{key}: {runs}, {len(result.cells)} cell(s), "
            f"{elapsed:.1f}s of cell time",
            file=sys.stderr,
        )

    falsify_lines, falsify_payload = falsification_section()
    sections.extend(falsify_lines)
    report["falsification"] = falsify_payload

    # Wall-clock and cache temperature are stderr-only: the JSON must be a
    # pure function of the cell results so reruns are byte-identical.
    report["ok"] = not failures
    print(
        f"report wall time: {time.perf_counter() - total_started:.1f}s",
        file=sys.stderr,
    )
    if cache is not None:
        print(f"cache: {cache.stats.describe()}", file=sys.stderr)

    deterministic = ", ".join(
        key for key in ALL_EXPERIMENTS if not EXPERIMENT_REGISTRY[key].seeded
    )
    document = [PREAMBLE.format(deterministic=deterministic)]
    document.append(
        f"Regenerate with `python -m benchmarks.generate_report` "
        f"(this run: {seeds} seed{'s' if seeds != 1 else ''} per seeded "
        f"experiment, "
        f"spread = {spread_name}); every experiment's claim is checked on "
        f"every cell, and the run fails on any false flag or verdict.\n"
    )
    document.append("| Exp | Paper claim | Reproduced? |")
    document.append("|-----|-------------|-------------|")
    document.extend(summary_rows)
    document.append("")
    document.append(METHODOLOGY.format(
        seeds=seeds, spread_name=spread_name, spread_detail=spread_detail,
        deterministic=deterministic,
    ))
    document.extend(sections)

    Path(args.output).write_text("\n".join(document) + "\n")
    Path(args.json_path).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output} and {args.json_path}", file=sys.stderr)

    if failures:
        print("FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
