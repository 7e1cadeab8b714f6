#!/usr/bin/env python3
"""Validate committed/regenerated bench artifacts (BENCH_*.json).

Dispatches on the artifact's "bench" tag:

* scale — assert the O(changed) payload invariants: for every pair of
  cells that differ only in job count, the per-round replication payload
  must stay flat (within 2x, floor 4 KiB).  The sweep is collected-heavy —
  clients collect every result and the harness GCs — so a regression that
  re-sends collected knowledge (or any table) per round makes the longer
  run's rounds fatter and trips this.  The per-beat result-catalog payload
  is held the same way across the same pairs (within 2x, floor 64 B): it
  tracks the completion rate, not the backlog, and a regression to
  full-catalog replies makes it grow with the job count.

  Schema v3 adds the bounded-memory gate: every cell reports
  resident_rows, the post-settle change-index residency of the busiest
  coordinator, and for the same jobs-only cell pairs residency must not
  grow with lifetime job count (within 2x, floor 256 rows).  Residency
  tracks LIVE jobs plus per-client watermarks; a retention regression
  that keeps collected history resident makes the 10x-jobs cell hold
  ~10x the rows and trips this.

  Schema v4 adds the sharded coordinator plane: every cell reports its
  shards count, payload/residency metrics are measured per BUSIEST
  shard (so the flatness gates above keep asserting per-group
  invariants — jobs-only pairs are now also matched on shards), and the
  scale-out headline is gated on sim_events_per_sec, the grid's event
  throughput in SIMULATED time: for cell pairs matched on
  servers×jobs×clients where only the shard count differs from 1, the
  S-shard cell must process >= 0.7·S× the 1-shard cell's events per
  sim-second.  Simulated time carries the scale-out claim
  because the kernel is serial — it interleaves every shard on one host
  thread, so S shards can never cut the host's per-event wall cost;
  what they cut is the simulated seconds the same workload occupies.

  Schema v5 adds the telemetry plane's latency columns: every cell
  reports job_p50_ms / job_p99_ms, the end-to-end job latency quantiles
  in VIRTUAL time (submission requested -> result held) read from the
  per-client log2 histograms.  Both must be present, positive, and
  ordered (p99 >= p50).

  Schema v6 drops the host-clock columns (wall_seconds, events_per_sec,
  the totals line): every remaining column is a virtual-time or counting
  quantity, so the file regenerates byte for byte and CI diffs the full
  sweep.  Host-clock cost is measured by benchmark/, never gated here.
  v5 artifacts are rejected — regenerate.

* ckpt — validate the checkpoint-policy sweep's schema and its headline:
  every cell completed, checkpointing policies report the bytes they paid,
  and within each volatility group the adaptive policy wastes less work
  than the from-scratch baseline — and, where churn is frequent enough to
  learn from (>= 4 faults/min), no more than the budget-matched fixed
  interval (equal checkpoint bytes within 1.3x, spent where the crashes are
  instead of uniformly; below that rate adaptation is dominated by the
  one-off cost of learning each node's regime).

* chaos — validate the seeded fault-schedule sweep: every plan survived
  (all safety-oracle invariants held), every plan actually mixed all four
  fault families (crash-restart storms, disk wipes, partition churn, wire
  bursts), the sweep as a whole exercised the wire-fault plane
  (corrupted and duplicated frames > 0, with corrupt frames accounted as
  typed `bad_frames` drops), and the cell's explicit-GC user ran and
  retention retired delivered work: the per-plan `gc_freed_bytes` and
  `retired_jobs` each sum to a nonzero total.  A sweep whose cell stops
  calling GC reclaims nothing (retirement alone would not show it: a
  replica that never held an archive retires without any GC).

* paper — hold the regenerated evaluation of the paper (Figs. 4-11, long
  format: one `{figure, series, x, y}` row per cell, schema 1) to the shapes
  the PAPER reports, in tolerant bands — not to the values this repository
  happens to read (docs/REPRODUCTION.md sets the two side by side).  Fig. 4:
  optimistic <= non-blocking <= blocking pessimistic everywhere, blocking
  +15..45 % at 100 MB and >= +50 % at 100 B.  Fig. 5: flat up to 10 KB, then
  >= x5 per decade from 1 MB; the Internet never faster than the cluster;
  linear-ish in calls with the real-life database ahead at 1000.  Fig. 6:
  client-side logs never slower, >= 3x faster at the small end, within 10 %
  at 100 MB.  Fig. 7: fault-free in 69-71 s, server faults never cheaper
  than coordinator faults, both above fault-free at 10 faults/min (no
  monotonicity: a median of five seeds still wobbles).  Fig. 8: durations
  span >= 20x.  Fig. 9: the replica exactly one 60 s period behind.  Fig. 10:
  the scripted faults in order, the client's count never dips, every result
  held, the run ends on Lille.  Fig. 11: the partitioned run delivers every
  result at >= half the reference's pace.  The ablation_* figures in the same
  file are ours, not the paper's, and carry no gate.

All four files hold virtual-time readings only: CI regenerates each and
requires no diff.  A file named BENCH_<tag>.json must carry that bench tag —
a harness writing to the wrong path cannot pass as the artifact it overwrote.

This script is the only place a gate on the four artifacts is written: the
benches assert nothing about their own numbers — `rpcv_bench::Artifact::finish`
runs this file on the JSON it just wrote and exits with its status — and CI
runs it on the committed files.  crates/bench/tests/gate_selftest.rs shows
every gate family failing on a mutated copy.

Usage: check_bench_flatness.py BENCH_{scale,ckpt,chaos,paper}.json
"""

import json
import os
import re
import sys


def check_scale(doc: dict, path: str) -> None:
    assert doc["schema_version"] == 6, \
        f"{path}: scale schema is {doc['schema_version']}, expected 6 — " \
        f"regenerate the artifact (v6 dropped the host-clock columns)"
    grid = doc["grid"]
    for cell in grid:
        label = (f'{cell.get("servers")}x{cell.get("jobs")}'
                 f'x{cell.get("clients")}x{cell.get("shards")}')
        for col in ("sim_events_per_sec", "resident_rows", "shards",
                    "job_p50_ms", "job_p99_ms"):
            assert col in cell, \
                f"{path}: cell {label} lacks the {col} column — " \
                f"regenerate the artifact; its gate cannot be checked"
        assert cell["shards"] >= 1, f"{path}: cell {label} has a bad shards count"
        assert cell["clients"] >= 1, f"{path}: cell {label} has a bad clients count"
        assert cell["completed"] is True and cell["jobs_completed"] == cell["jobs"], \
            f"{path}: cell {label} did not complete"
        assert cell["sim_events_per_sec"] > 0, f"{path}: cell {label} has no sim-time throughput"
        assert cell["repl_rounds"] > 0, f"{path}: cell {label} ran no replication rounds"
        assert cell["delta_bytes_per_round"] > 0, f"{path}: cell {label} replicated nothing"
        assert cell["resident_rows"] >= 1, f"{path}: cell {label} has bad residency"
        assert cell["job_p50_ms"] > 0, \
            f"{path}: cell {label} reports no job latency — the telemetry " \
            f"plane's histograms are empty on a completed cell"
        assert cell["job_p99_ms"] >= cell["job_p50_ms"], \
            f"{path}: cell {label} has p99 {cell['job_p99_ms']} ms below " \
            f"p50 {cell['job_p50_ms']} ms — quantiles are broken"
    assert len(grid) >= 3, f"{path}: need at least three grid cells"
    assert len({c["clients"] for c in grid}) >= 2, \
        f"{path}: sweep must exercise the clients axis"
    pairs = 0
    for a in grid:
        for b in grid:
            if (a["servers"], a["clients"], a["shards"]) \
                    == (b["servers"], b["clients"], b["shards"]) \
                    and a["jobs"] < b["jobs"]:
                pairs += 1
                lo, hi = a["delta_bytes_per_round"], b["delta_bytes_per_round"]
                assert hi <= max(lo * 2.0, 4096.0), \
                    f"delta bytes/round grew with run length: {a} -> {b}"
                lo_c, hi_c = a["catalog_bytes_per_beat"], b["catalog_bytes_per_beat"]
                assert hi_c <= max(lo_c * 2.0, 64.0), \
                    f"catalog bytes/beat grew with the job count — the " \
                    f"result catalog is not incremental: {a} -> {b}"
                lo_r, hi_r = a["resident_rows"], b["resident_rows"]
                assert hi_r <= max(lo_r * 2.0, 256.0), \
                    f"resident rows grew with lifetime job count — " \
                    f"coordinator memory is not bounded: {a} -> {b}"
    assert pairs >= 1, "sweep must include a cell pair differing only in job count"
    # The scale-out headline: S shards must buy near-linear throughput
    # in simulated time at a fixed servers×jobs×clients cell.
    ladder = 0
    for a in grid:
        for b in grid:
            if (a["servers"], a["jobs"], a["clients"]) \
                    == (b["servers"], b["jobs"], b["clients"]) \
                    and a["shards"] == 1 and b["shards"] > 1:
                ladder += 1
                need = a["sim_events_per_sec"] * 0.7 * b["shards"]
                assert b["sim_events_per_sec"] >= need, \
                    f"{path}: shard scale-out below the near-linear floor: " \
                    f'{a["servers"]}x{a["jobs"]}x{a["clients"]} runs ' \
                    f'{a["sim_events_per_sec"]:.0f} ev/sim-s at 1 shard but ' \
                    f'{b["sim_events_per_sec"]:.0f} ev/sim-s at {b["shards"]} ' \
                    f"shards (need >= {need:.0f})"
    assert ladder >= 1, \
        "sweep must include a shards ladder over a fixed servers×jobs×clients cell"
    peak = max(c["resident_rows"] for c in grid)
    widest = max(c["shards"] for c in grid)
    worst_p99 = max(c["job_p99_ms"] for c in grid)
    print(f"{path}: delta + catalog + residency flatness OK across {pairs} jobs-only "
          f"cell pair(s); {ladder} shard-ladder pair(s) hold the scale-out "
          f"floor (widest {widest} shards); peak residency {peak} rows; "
          f"worst job p99 {worst_p99:.1f} ms")


def check_ckpt(doc: dict, path: str) -> None:
    assert doc["schema_version"] == 1, "unknown ckpt schema version"
    cells = doc["cells"]
    assert len(cells) >= 3, "need baseline, adaptive and budget-matched cells"
    groups = sorted({c["faults_per_min"] for c in cells})
    for cell in cells:
        assert cell["completed"] is True, f"cell did not complete: {cell}"
        assert cell["spent_units"] >= cell["required_units"], f"bad accounting: {cell}"
        if cell["policy"] == "off":
            assert cell["ckpt_bytes"] == 0, f"baseline must pay no checkpoint bytes: {cell}"
        else:
            assert cell["ckpt_bytes"] > 0, f"checkpointing cell paid no bytes: {cell}"
    checked = 0
    for g in groups:
        by = {c["policy"]: c for c in cells if c["faults_per_min"] == g}
        off, adaptive = by["off"], by["adaptive"]
        assert adaptive["wasted_units"] < off["wasted_units"], \
            f"@{g}/min: adaptive must beat from-scratch re-execution: {adaptive} vs {off}"
        if g >= 4.0:
            matched = by["fixed-matched"]
            assert adaptive["wasted_units"] <= matched["wasted_units"], \
                f"@{g}/min: adaptive must beat the budget-matched fixed interval: " \
                f"{adaptive} vs {matched}"
            assert adaptive["ckpt_bytes"] <= matched["ckpt_bytes"] * 1.3, \
                f"@{g}/min: comparison not budget-matched: {adaptive} vs {matched}"
            checked += 1
    assert checked >= 1, "sweep must include a >= 4 faults/min group for the headline"
    print(f"{path}: ckpt sweep OK ({len(cells)} cells, "
          f"adaptive wins the budget-matched comparison in {checked} group(s))")


def check_chaos(doc: dict, path: str) -> None:
    assert doc["schema_version"] == 2, \
        f"{path}: chaos schema is {doc['schema_version']}, expected 2 — " \
        f"regenerate the artifact (v2 embeds the per-plan recovery-gap histogram)"
    plans = doc["plans"]
    totals = doc["totals"]
    assert len(plans) >= 64, \
        f"{path} holds {len(plans)} plans — the full sweep runs >= 64"
    for p in plans:
        tag = f'seed {p["seed"]:#x} @ {p["intensity"]}'
        assert p["survived"] is True, \
            f"{path}: plan {tag} violated a safety invariant — {p}"
        for family in ("crashes", "wipes", "partitions", "bursts"):
            assert p[family] >= 1, \
                f"{path}: plan {tag} scheduled no {family} — every plan mixes all families"
        assert p["bad_frames"] <= p["corrupt_frames"], \
            f"{path}: plan {tag} counted more bad frames than corruptions — {p}"
        assert p["results"] == p["jobs"], \
            f"{path}: plan {tag} delivered {p['results']}/{p['jobs']} results"
        hist = p["recovery_gap_hist"]
        assert hist["p99_ms"] >= hist["p50_ms"] >= 0, \
            f"{path}: plan {tag} has broken recovery-gap quantiles — {hist}"
        assert hist["count"] == sum(n for _, n in hist["buckets"]), \
            f"{path}: plan {tag} recovery-gap bucket occupancy disagrees " \
            f"with its count — {hist}"
    assert totals["survived"] == totals["plans"] == len(plans), \
        f"{path}: totals disagree with the plan list: {totals}"
    assert totals["corrupt_frames"] > 0 and totals["dup_frames"] > 0, \
        f"{path}: the sweep never exercised the wire-fault plane: {totals}"
    for key, what in (("gc_freed_bytes", "reclaimed no archive — its cell never ran GC"),
                      ("retired_jobs", "retired no job")):
        assert totals.get(key, 0) > 0, f"{path}: the sweep {what}: {totals}"
        assert totals[key] == sum(p[key] for p in plans), \
            f"{path}: {key} total disagrees with the plan list: {totals}"
    recovered = sum(1 for p in plans if p["recovery_makespan_s"] > 0)
    print(f"{path}: chaos sweep OK ({len(plans)} plans, 100% survival, "
          f"{totals['corrupt_frames']} corrupt / {totals['dup_frames']} dup frames absorbed, "
          f"{totals['gc_freed_bytes']} B reclaimed by GC, {totals['retired_jobs']} jobs retired, "
          f"{recovered} plan(s) measured a post-heal recovery makespan)")


def check_paper(doc: dict, path: str) -> None:
    assert doc["schema_version"] == 1, f"{path}: unknown paper schema version"
    cells = {(r["figure"], r["series"], r["x"]): r["y"] for r in doc["rows"]}
    assert len(cells) == len(doc["rows"]), f"{path}: a (figure, series, x) cell appears twice"

    def curve(figure: str, series: str) -> dict:
        points = {x: y for (f, s, x), y in sorted(cells.items()) if (f, s) == (figure, series)}
        assert points, f"{path}: {figure}/{series} is missing — its band cannot be checked"
        return points

    def ordered(figure: str, *names: str) -> list:
        """The named curves of a figure, each no higher than the next at every x."""
        curves = [curve(figure, name) for name in names]
        for i, (lo, hi) in enumerate(zip(curves, curves[1:])):
            for x in lo:
                assert lo[x] <= hi[x], f"{path}: {figure}: {names[i]} ({lo[x]}) is above " \
                                       f"{names[i + 1]} ({hi[x]}) at x={x}"
        return curves

    small, large = 100, 100_000_000
    strategies = ("optimistic", "nonblocking_pessimistic", "blocking_pessimistic")
    optimistic, _, blocking = ordered("fig4_size", *strategies)
    ordered("fig4_calls", *strategies)
    overhead = blocking[large] / optimistic[large] - 1
    assert 0.15 <= overhead <= 0.45, \
        f"{path}: Fig. 4: blocking pessimistic costs {overhead:+.1%} at 100 MB, " \
        f"outside the paper's ~+30 % (band +15..45 %)"
    assert blocking[small] >= 1.5 * optimistic[small], \
        f"{path}: Fig. 4: blocking pessimistic costs under +50 % at 100 B (paper: up to +100 %)"

    confined, internet = ordered("fig5_size", "confined", "real_life")
    assert confined[10_000] <= 1.5 * confined[small], \
        f"{path}: Fig. 5: replication time is not flat below 10 KB: {confined}"
    for series in (confined, internet):
        for size in (1_000_000, 10_000_000):
            assert series[size * 10] >= 5 * series[size], \
                f"{path}: Fig. 5: replication time is not linear in size from 1 MB: {series}"
    for name in ("confined", "real_life"):
        times = list(curve("fig5_calls", name).values())
        assert times == sorted(times), \
            f"{path}: Fig. 5: {name} replication time is not monotone in calls: {times}"
    assert cells["fig5_calls", "real_life", 1000] < cells["fig5_calls", "confined", 1000], \
        f"{path}: Fig. 5: the real-life database is not ahead at 1000 calls"

    for figure, x in (("fig6_size", small), ("fig6_calls", 1000)):
        client, coordinator = ordered(figure, "client_logs", "coordinator_logs")
        assert coordinator[x] >= 3 * client[x], \
            f"{path}: Fig. 6: client-side logs are under 3x faster at the small end " \
            f"({client[x]} vs {coordinator[x]} s at x={x} of {figure}; paper: up to 6x)"
    client, coordinator = curve("fig6_size", "client_logs"), curve("fig6_size", "coordinator_logs")
    assert coordinator[large] <= 1.1 * client[large], \
        f"{path}: Fig. 6: the asymmetry does not vanish at 100 MB: " \
        f"{client[large]} vs {coordinator[large]} s"

    coordinators, servers = curve("fig7", "faulty_coordinators"), curve("fig7", "faulty_servers")
    for series in (coordinators, servers):
        assert 69 <= series[0] <= 71, \
            f"{path}: Fig. 7: the fault-free run takes {series[0]} s, outside the paper's 69-71 s"
        assert series[10] > series[0], f"{path}: Fig. 7: 10 faults/min/node cost nothing: {series}"
    for rate in range(1, 11):
        assert servers[rate] >= coordinators[rate], \
            f"{path}: Fig. 7: at {rate} faults/min/node coordinator faults " \
            f"({coordinators[rate]} s) hurt more than server faults ({servers[rate]} s)"

    tasks = cells["fig8_summary", "tasks", 0]
    assert sum(curve("fig8", "tasks").values()) == tasks, \
        f"{path}: Fig. 8: the histogram does not hold all {tasks:.0f} tasks"
    spread = cells["fig8_summary", "max_s", 0] / cells["fig8_summary", "min_s", 0]
    assert spread >= 20, \
        f"{path}: Fig. 8: task durations span only {spread:.1f}x (paper: 'a wide range')"

    lille, replica = curve("fig9", "lille"), curve("fig9", "lri_replica")
    for minute in range(1, len(replica)):
        assert replica[minute] == lille[minute - 1], \
            f"{path}: Fig. 9: at minute {minute} the replica holds {replica[minute]:.0f}, " \
            f"not Lille's {lille[minute - 1]:.0f} of one replication period earlier"
    held = cells["fig9_summary", "client_results", 0]
    assert held == tasks, f"{path}: Fig. 9: the client holds {held:.0f}/{tasks:.0f} results"

    events = {label: minute for (f, _, minute), label in cells.items() if f == "fig10_events"}
    assert events[2] < events[6] < events[8] < events[10], \
        f"{path}: Fig. 10: the scripted faults are out of order: {events}"
    seen = list(curve("fig10", "client").values())
    assert seen == sorted(seen), \
        f"{path}: Fig. 10: the client's completion count dips across a failover: {seen}"
    assert seen[-1] == tasks, \
        f"{path}: Fig. 10: the client holds {seen[-1]:.0f}/{tasks:.0f} results"
    end = events[10]
    assert (cells["fig10", "lille", end], cells["fig10", "lri", end]) == (tasks, 0), \
        f"{path}: Fig. 10: the run does not end on Lille with LRI down"

    reference, partitioned = curve("fig11", "reference"), curve("fig11", "partitioned")
    final = partitioned[max(partitioned)]
    assert final == tasks, \
        f"{path}: Fig. 11: the partitioned run delivered {final:.0f}/{tasks:.0f} results"
    half = min(m for m, n in reference.items() if n == tasks) // 2
    assert partitioned[half] >= 0.5 * reference[half], \
        f"{path}: Fig. 11: at minute {half} the partitioned run holds {partitioned[half]:.0f} " \
        f"results, under half the reference's {reference[half]:.0f}"
    print(f"{path}: paper figures OK ({len(cells)} cells; Fig. 4 blocking {overhead:+.1%} at "
          f"100 MB; Fig. 7 fault-free {servers[0]} s, {servers[10]} vs {coordinators[10]} s at "
          f"10 faults/min/node; Fig. 10 ends on Lille at minute {end}; Fig. 11 partitioned "
          f"{partitioned[half] / reference[half]:.2f} of the reference at minute {half})")


def main() -> None:
    (path,) = sys.argv[1:]
    with open(path) as f:
        doc = json.load(f)
    named = re.fullmatch(r"BENCH_(\w+)\.json", os.path.basename(path))
    if named:
        assert doc["bench"] == named.group(1), \
            f"{path} carries the bench tag {doc['bench']!r}"
    if doc["bench"] == "scale":
        check_scale(doc, path)
    elif doc["bench"] == "ckpt":
        check_ckpt(doc, path)
    elif doc["bench"] == "chaos":
        check_chaos(doc, path)
    elif doc["bench"] == "paper":
        check_paper(doc, path)
    else:
        raise AssertionError(f"unknown bench tag {doc['bench']!r} in {path}")


if __name__ == "__main__":
    main()
