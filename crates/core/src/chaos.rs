//! End-to-end chaos harness: wire corruption for real protocol frames and
//! a safety oracle that runs a full grid under a seeded [`FaultPlan`].
//!
//! The simulator's chaos plane ([`rpcv_simnet::chaos`]) decides *when* a
//! frame is corrupted or duplicated; this module decides *what that means
//! for the RPC-V wire format*.  Every frame crosses the modelled wire as
//! a digest-sealed datagram (`body ‖ crc64(body)` — the same
//! [`rpcv_wire::seal_frame`] envelope archives and checkpoints already
//! use).  [`MsgChaos`] re-encodes the victim frame into its sealed form,
//! flips one seeded bit anywhere in it — body or digest tail — and
//! reopens the damaged datagram:
//!
//! * the envelope rejects it (CRC-64 detects *every* single-bit error,
//!   so for this fault model that is always) → the receiver gets the
//!   [`Msg::Corrupt`] poison frame, which every actor counts in its
//!   `bad_frames` metric and drops without touching any other state;
//! * the flip somehow survives both envelope and decoder → the receiver
//!   gets a **garbled but well-formed** message; the `garbled` counter
//!   exists to *prove this never happens* (a garbled frame is a
//!   Byzantine lie — e.g. a forged catalog entry — that no protocol
//!   defense downstream can be expected to absorb).
//!
//! [`ChaosOracle`] then asserts the safety invariants the paper's
//! volatile-node story rests on: every submitted job's result reaches its
//! owning client exactly once, the grid goes quiescent after the plan
//! heals (no ghost re-executions), every dip in a coordinator's finished
//! count is a counted at-least-once re-execution, replication deltas drain
//! to empty, and every corruption event is accounted for —
//! `garbled + poisoned == corrupted` exactly, with `garbled == 0`.
//!
//! [`FaultPlan`]: rpcv_simnet::chaos::FaultPlan

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rpcv_obs::{Histogram, TelemetrySnapshot};
use rpcv_simnet::chaos::{ChaosProfile, ChaosTargets, FaultCounts, FaultPlan};
use rpcv_simnet::{DetRng, FrameOps, NetStats, SimDuration, SimTime};
use rpcv_wire::{from_bytes, open_frame, seal_frame, to_bytes, Blob};
use rpcv_xw::{result_seed, JobKey};

use crate::config::ProtocolConfig;
use crate::coordinator::CoordinatorActor;
use crate::grid::{GridSpec, SimGrid};
use crate::msg::Msg;
use crate::util::CallSpec;

/// Shared read side of [`MsgChaos`]'s corruption accounting.
#[derive(Debug, Clone)]
pub struct ChaosCounters {
    garbled: Arc<AtomicU64>,
    poisoned: Arc<AtomicU64>,
}

impl ChaosCounters {
    /// Corrupted frames that slipped past the digest envelope *and* the
    /// decoder — a Byzantine forgery.  CRC-64 detects every single-bit
    /// error, so under this fault model the count is provably zero; the
    /// oracle asserts it stays that way.
    pub fn garbled(&self) -> u64 {
        self.garbled.load(Ordering::Relaxed)
    }

    /// Corrupted frames the envelope (or decoder) rejected, delivered as
    /// [`Msg::Corrupt`] poison.
    pub fn poisoned(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }
}

/// [`FrameOps`] for real protocol frames: corruption flips one seeded bit
/// of the digest-sealed encoding, duplication clones the frame.
#[derive(Debug, Default)]
pub struct MsgChaos {
    garbled: Arc<AtomicU64>,
    poisoned: Arc<AtomicU64>,
}

impl MsgChaos {
    /// The hook plus its shared counters (install the hook with
    /// [`rpcv_simnet::World::set_frame_ops`], keep the counters).
    pub fn new() -> (MsgChaos, ChaosCounters) {
        let ops = MsgChaos::default();
        let counters = ChaosCounters {
            garbled: Arc::clone(&ops.garbled),
            poisoned: Arc::clone(&ops.poisoned),
        };
        (ops, counters)
    }
}

impl FrameOps<Msg> for MsgChaos {
    fn duplicate(&mut self, msg: &Msg) -> Option<Msg> {
        // Poison is never duplicated: each poisoned delivery then maps to
        // exactly one corruption event, which keeps the `bad_frames`
        // accounting exact.
        if matches!(msg, Msg::Corrupt { .. }) {
            return None;
        }
        Some(msg.clone())
    }

    fn corrupt(&mut self, msg: Msg, rng: &mut DetRng) -> Msg {
        // The modelled wire carries digest-sealed datagrams
        // (`body ‖ crc64(body)`), so the flip lands on the sealed bytes —
        // body or digest tail alike — and the receiver's envelope check
        // runs before the decoder ever sees the payload.  A lone
        // bit-flip that decodes to a *different* well-formed frame would
        // be a forgery the protocol cannot defend against (it once
        // manufactured a catalog removal and wedged a client); CRC-64
        // closes that door for every single-bit error.
        let mut bytes = seal_frame(to_bytes(&msg));
        let bit = rng.below(bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        match open_frame(&bytes).and_then(from_bytes::<Msg>) {
            Ok(m) => {
                self.garbled.fetch_add(1, Ordering::Relaxed);
                m
            }
            Err(_) => {
                self.poisoned.fetch_add(1, Ordering::Relaxed);
                Msg::Corrupt { len: bytes.len() as u64 }
            }
        }
    }
}

// The standard oracle cell.  The fault window is sized to the workload's
// fault-free makespan (~40 s), so completion happens *under* active chaos —
// not after it — and the post-heal recovery makespan is a real
// measurement, not zero.

/// Coordinators per shard by default (≥ 2 so partitions can split the
/// group; see [`ChaosOracle::with_coordinators`]).
const COORDINATORS: usize = 3;
/// Servers.
const SERVERS: usize = 8;
/// Jobs submitted in total, split round-robin across the clients.
const JOBS: usize = 24;
/// Per-job execution cost in seconds.
const EXEC_COST: f64 = 12.0;
/// Fault window start.
const FAULT_FROM: SimTime = SimTime::from_secs(2);
/// Fault window end: every episode is healed by this instant.
const FAULT_UNTIL: SimTime = SimTime::from_secs(60);
/// Give-up horizon for the whole run.
const HORIZON: SimTime = SimTime::from_secs(3600);
/// The cell's explicit-GC user (paper §4.2: GC "triggered ... explicitly
/// by the user"): until the plan completes, every live coordinator reclaims
/// the archives its clients confirmed collecting once per this much virtual
/// time, so retention retires delivered work while the faults play out.
const GC_EVERY: SimDuration = SimDuration::from_millis(500);

/// What one oracle run observed.  `violations` is empty iff every safety
/// invariant held.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed the run replays from.
    pub seed: u64,
    /// Intensity the profile was scaled by.
    pub intensity: f64,
    /// Invariant violations, human-readable; empty means survival.
    pub violations: Vec<String>,
    /// Faults the plan scheduled, by family.
    pub counts: FaultCounts,
    /// Final network statistics.
    pub stats: NetStats,
    /// Jobs planned.
    pub jobs: u64,
    /// Results the client ended with.
    pub results: u64,
    /// Corrupted frames that stayed decodable.
    pub garbled: u64,
    /// Corrupted frames that became poison.
    pub poisoned: u64,
    /// Poison frames counted by actors (`Σ bad_frames`).
    pub bad_frames: u64,
    /// Jobs retired (delivered, then pruned by retention) summed over the
    /// live coordinators at the end.
    pub retired: u64,
    /// Archive bytes the cell's GC user reclaimed: zero says it never ran.
    /// (Retirement alone does not say so: a replica that never held an
    /// archive retires what it learned delivered without any GC.)
    pub gc_freed: u64,
    /// When the plan finished, if it did.
    pub done_at: Option<SimTime>,
    /// Virtual time from full heal to completion (zero when the workload
    /// outran the chaos).
    pub recovery_makespan: SimDuration,
    /// Grid-wide telemetry at the end of the run (every live coordinator's
    /// snapshot aggregated with server/client/net counters and span
    /// histograms).
    pub telemetry: TelemetrySnapshot,
    /// Suspicion → re-dispatch gaps of every resolved failover annotation
    /// across the run — the per-plan post-heal recovery-gap histogram the
    /// chaos bench embeds.
    pub recovery_gaps: Histogram,
}

impl ChaosReport {
    /// True iff every safety invariant held.
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the standard cell under a seeded fault plan and checks the
/// post-heal safety invariants.
#[derive(Debug, Clone)]
pub struct ChaosOracle {
    /// Master seed: drives the grid, the fault plan and every chaos draw.
    seed: u64,
    /// Fault intensity in `[0, 1]` (see [`ChaosProfile::from_intensity`]).
    intensity: f64,
    /// Coordinator shards (1 = the flat plane; the chaos invariants are
    /// shard-count independent).
    shards: usize,
    /// Client count (> 1 exercises cross-shard traffic: each client hashes
    /// to one shard, so a sharded oracle needs several).
    clients: usize,
    /// Coordinators per shard: the ring size every recovery path runs on.
    coordinators: usize,
}

impl ChaosOracle {
    /// The standard cell, flat and with one client, at `(seed, intensity)`.
    pub fn seeded(seed: u64, intensity: f64) -> Self {
        ChaosOracle { seed, intensity, shards: 1, clients: 1, coordinators: COORDINATORS }
    }

    /// Builder: a sharded oracle cell — `shards` coordinator groups and
    /// enough clients that several shards see traffic (both floor at 1).
    pub fn with_shards(mut self, shards: usize, clients: usize) -> Self {
        self.shards = shards.max(1);
        self.clients = clients.max(1);
        self
    }

    /// Builder: `coordinators` per shard instead of the standard cell's
    /// three (floors at 2, so a partition can split the group).  A ring of
    /// four or more has members that never hear a given coordinator's
    /// rounds directly — recovery that leans on who suspects whom shows
    /// there, and nowhere on a ring of three.
    pub fn with_coordinators(mut self, coordinators: usize) -> Self {
        self.coordinators = coordinators.max(2);
        self
    }

    /// Builds the grid, applies the plan, runs to completion plus a
    /// settle window, and audits every invariant.
    pub fn run(&self) -> ChaosReport {
        // The workload splits round-robin across the clients; each client
        // submits its own contiguous seq space.  One client is exactly the
        // historical single-plan oracle.
        let mut plans: Vec<Vec<CallSpec>> = vec![Vec::new(); self.clients];
        for i in 0..JOBS {
            plans[i % self.clients].push(CallSpec::new(
                "chaos",
                Blob::synthetic(2048, i as u64),
                EXEC_COST,
                256,
            ));
        }
        // Tight failure detection: the fault window is minutes, so the
        // confined defaults (30 s suspicion) would spend the whole run
        // waiting instead of failing over.
        let proto = ProtocolConfig::confined()
            .with_heartbeat(SimDuration::from_secs(1))
            .with_suspicion(SimDuration::from_secs(5))
            .with_replication_period(SimDuration::from_secs(2));
        let spec = GridSpec::confined(self.coordinators, SERVERS)
            .with_seed(self.seed)
            .with_cfg(proto)
            .with_shards(self.shards)
            .with_client_plans(plans.clone());
        let base_link = spec.link;
        let mut g = SimGrid::build(spec);
        let (ops, counters) = MsgChaos::new();
        g.world.set_frame_ops(ops);

        let targets = ChaosTargets {
            coordinators: g.coords.iter().map(|&(_, n)| n).collect(),
            servers: g.servers.iter().map(|&(_, n)| n).collect(),
            clients: g.clients.iter().map(|&(_, n)| n).collect(),
        };
        let profile = ChaosProfile::from_intensity(self.intensity);
        let plan =
            FaultPlan::generate(self.seed, profile, &targets, base_link, FAULT_FROM, FAULT_UNTIL);
        plan.apply(&mut g.world);

        let mut violations = Vec::new();
        let mut gc_freed = 0;
        let done = run_until_done_with_gc(&mut g, &mut gc_freed);
        if done.is_none() {
            violations.push(format!(
                "plan did not complete within {}s of virtual time",
                HORIZON.as_secs_f64()
            ));
        }
        // Settle window: lets a client that crashed inside the disk
        // write-back window re-pull its last results, collected marks
        // propagate, and replication deltas drain.  A fast grid can
        // finish before the tail of the fault window, so the settle is
        // anchored at whichever comes later — completion or the plan's
        // own heal horizon (post-heal invariants only hold post-heal).
        let settle = SimDuration::from_secs(120);
        let healed = plan.heal_by().max(g.world.now());
        g.world.run_until(healed + settle);

        // Exactly-once delivery: every owning client holds exactly its own
        // planned seqs, each exactly once (`results_received` is keyed by
        // seq, so a duplicate delivery could only ever overwrite — the
        // dedup guard in `ingest_results` is what this audits end to end),
        // and each seq holds its own call's result: a server's bytes derive
        // from the job key, whichever instance ran.  On a sharded plane
        // this is also the cross-shard leak check: a result delivered to
        // the wrong shard's client would surface as a count or seq
        // mismatch on both sides.
        let mut results = 0;
        for (i, plan) in plans.iter().enumerate() {
            match g.client_at(i) {
                Some(c) => {
                    let held = c.results_count() as u64;
                    results += held;
                    if held != plan.len() as u64 {
                        violations.push(format!(
                            "client {i} holds {held} results, planned {}",
                            plan.len()
                        ));
                    }
                    let seqs: Vec<u64> = c.metrics.results_received.keys().copied().collect();
                    let want: Vec<u64> = (1..=plan.len() as u64).collect();
                    if seqs != want {
                        violations
                            .push(format!("client {i} result seqs {seqs:?} != 1..={}", plan.len()));
                    }
                    let client = g.clients[i].0;
                    for (seq, call) in (1..).zip(plan) {
                        let want = result_seed(JobKey::new(client, seq));
                        let want = Blob::synthetic(call.result_size, want);
                        if c.result_archive(seq).is_some_and(|held| !held.content_eq(&want)) {
                            violations.push(format!("client {i} seq {seq} holds another result"));
                        }
                    }
                }
                None => violations.push(format!("client {i} is down after the plan healed")),
            }
        }

        // Post-heal quiescence: with everything delivered and collected,
        // another settle window must execute nothing new anywhere —
        // collected jobs are never re-executed.
        let executed_before = self.total_executed(&g, &mut violations);
        g.world.run_for(settle);
        let executed_after = self.total_executed(&g, &mut violations);
        if executed_after != executed_before {
            violations.push(format!(
                "grid not quiescent after heal: executions {executed_before} -> {executed_after}"
            ));
        }

        let mut retired = 0;
        for (i, _) in g.coords.iter().enumerate() {
            let Some(c) = g.coordinator(i) else {
                violations.push(format!("coordinator {i} is down after the plan healed"));
                continue;
            };
            retired += c.db().retired_count();
            // The finished count may dip — a disk wipe can destroy the
            // only copy of an uncollected result archive, and the
            // coordinator then reverts the job for at-least-once
            // re-execution — but every dip must be accounted for by a
            // counted re-execution.  An unaccounted dip is silent loss.
            let dips = c.metrics.completion_dips;
            if dips > c.metrics.reexecutions {
                violations.push(format!(
                    "coordinator {i} finished count lost {dips} jobs but only {} \
                     re-executions account for it",
                    c.metrics.reexecutions
                ));
            }
            // Replication deltas are O(changed): once the grid drained,
            // the latest acknowledged round carries zero records.
            if let Some(last) = c.metrics.repl_rounds.iter().rev().find(|r| r.acked_at.is_some()) {
                if last.records != 0 {
                    violations.push(format!(
                        "coordinator {i} still replicates {} records after quiescence",
                        last.records
                    ));
                }
            }
        }

        // Corruption accounting: every corruption event is either garbled
        // or poisoned; every poison an actor saw was counted.  (Poison
        // sent to a node that died before delivery lands in
        // `dropped_down`; wipes may discard a victim's counter with its
        // disk — hence ≤, with exact equality pinned by the crash-free
        // fuzz tests.)
        let stats = *g.world.stats();
        let garbled = counters.garbled();
        let poisoned = counters.poisoned();
        if garbled + poisoned != stats.corrupted {
            violations.push(format!(
                "corruption accounting leak: {garbled} garbled + {poisoned} poisoned != {} corrupted",
                stats.corrupted
            ));
        }
        // Every frame is digest-sealed and CRC-64 detects all single-bit
        // errors, so a garbled frame would mean the envelope let a
        // forgery through.
        if garbled > 0 {
            violations.push(format!("{garbled} corrupted frames slipped past the digest envelope"));
        }
        let telemetry = g.telemetry();
        let bad_frames = telemetry.counter("client.bad_frames")
            + telemetry.counter("coord.bad_frames")
            + telemetry.counter("server.bad_frames");
        if bad_frames > poisoned {
            violations.push(format!(
                "actors counted {bad_frames} bad frames but only {poisoned} were poisoned"
            ));
        }

        let recovery_makespan = match done {
            Some(d) if d > plan.heal_by() => d.since(plan.heal_by()),
            _ => SimDuration::ZERO,
        };
        let mut recovery_gaps = Histogram::new();
        for (i, _) in g.coords.iter().enumerate() {
            if let Some(c) = g.coordinator(i) {
                for (_, span) in c.spans().iter() {
                    for f in &span.failovers {
                        if let Some(gap) = f.recovery_gap() {
                            recovery_gaps.record_gap(gap);
                        }
                    }
                }
            }
        }
        ChaosReport {
            seed: self.seed,
            intensity: self.intensity,
            violations,
            counts: plan.counts(),
            stats,
            jobs: JOBS as u64,
            results,
            garbled,
            poisoned,
            bad_frames,
            retired,
            gc_freed,
            done_at: done,
            recovery_makespan,
            telemetry,
            recovery_gaps,
        }
    }

    fn total_executed(&self, g: &SimGrid, violations: &mut Vec<String>) -> u64 {
        let mut total = 0;
        for (i, _) in g.servers.iter().enumerate() {
            match g.server(i) {
                Some(s) => total += s.metrics.executed,
                None => violations.push(format!("server {i} is down after the plan healed")),
            }
        }
        total
    }
}

/// [`SimGrid::run_until_done`] with the cell's user in the loop: a GC on
/// every live coordinator after every [`GC_EVERY`] of virtual time, until
/// every client's plan completed (`Some(instant)`) or [`HORIZON`] passed
/// (`None`).  The archive bytes reclaimed add up in `freed`.
fn run_until_done_with_gc(g: &mut SimGrid, freed: &mut u64) -> Option<SimTime> {
    loop {
        if let Some(done) = g.all_plans_done() {
            return Some(done);
        }
        if g.world.now() >= HORIZON {
            return None;
        }
        g.world.run_for(GC_EVERY);
        for &(_, node) in &g.coords {
            if let Some(c) = g.world.actor_mut::<CoordinatorActor>(node) {
                *freed += c.gc_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_xw::{ClientKey, JobKey, TaskId};

    #[test]
    fn corrupt_always_produces_a_frame() {
        let (mut ops, counters) = MsgChaos::new();
        let mut rng = DetRng::new(7);
        for i in 0..200u64 {
            let msg =
                Msg::TaskDoneAck { task: TaskId(i), job: JobKey::new(ClientKey::new(1, 2), i) };
            let out = ops.corrupt(msg, &mut rng);
            // Whatever came out is either poison or a decodable frame.
            let bytes = to_bytes(&out);
            assert!(from_bytes::<Msg>(&bytes).is_ok());
        }
        assert_eq!(counters.garbled() + counters.poisoned(), 200);
        // CRC-64 detects every single-bit error, so the sealed envelope
        // rejects every mutant: corruption is always poison, never a
        // garbled-but-decodable forgery.
        assert_eq!(counters.poisoned(), 200);
        assert_eq!(counters.garbled(), 0);
    }

    #[test]
    fn poison_is_never_duplicated() {
        let (mut ops, _) = MsgChaos::new();
        assert!(ops.duplicate(&Msg::Corrupt { len: 9 }).is_none());
        assert!(ops.duplicate(&Msg::NoWork).is_some());
    }

    #[test]
    fn oracle_survives_a_seeded_plan() {
        let report = ChaosOracle::seeded(0xD15EA5E, 0.5).run();
        assert!(report.survived(), "violations: {:?}", report.violations);
        assert_eq!(report.results, report.jobs);
        assert!(report.counts.crashes >= 1);
        assert!(report.counts.wipes >= 1);
        assert!(report.counts.partitions >= 1);
        assert!(report.counts.bursts >= 1);
        assert!(report.stats.corrupted > 0, "bursts must actually corrupt frames");
        assert!(report.stats.duplicated > 0, "bursts must actually duplicate frames");
    }

    #[test]
    fn oracle_is_deterministic() {
        let a = ChaosOracle::seeded(42, 0.7).run();
        let b = ChaosOracle::seeded(42, 0.7).run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.done_at, b.done_at);
        assert_eq!((a.garbled, a.poisoned, a.bad_frames), (b.garbled, b.poisoned, b.bad_frames));
        // The full telemetry plane is part of the determinism contract:
        // byte-identical sealed snapshots across same-seed runs.
        assert_eq!(a.telemetry.seal(), b.telemetry.seal());
        assert_eq!(a.recovery_gaps, b.recovery_gaps);
    }
}
