//! The chaos plane: seeded, replayable fault schedules — the one
//! [`FaultPlan`] every harness, bench and oracle in the workspace uses.
//!
//! The paper's fault generator (§5.1) "kills abruptly the RPC-V component
//! of the hosting machine ... upon order, or from its own initiative",
//! independently across nodes; Fig. 11 adds partition scenarios.  A plan
//! is a timed list of [`Control`] actions built one of two ways:
//!
//! * **scripted / Poisson** — [`FaultPlan::new`] then
//!   [`crash_at`](FaultPlan::crash_at) / [`restart_at`](FaultPlan::restart_at)
//!   ("upon order") and [`poisson`](FaultPlan::poisson) ("from its own
//!   initiative": independent crash/restart churn at an aggregate rate, the
//!   Fig. 7 x-axis);
//! * **generated** — from a single `u64` seed, [`FaultPlan::generate`] emits
//!   crash-restart storms, partition churn (including splits through the
//!   coordinator group), disk wipes and link-degradation bursts
//!   (loss/dup/corrupt/reorder), and guarantees the schedule fully *heals*
//!   before its end, so safety oracles can assert invariants over the
//!   quiesced system.
//!
//! Schedule grammar (every episode is open/close paired):
//!
//! * **storm**   — `Crash(n)ᵏ … Restart(n)ᵏ`: `k` victims go down together
//!   and come back after per-victim downtimes.
//! * **wipe**    — `Crash(n) WipeDurable(n) Restart(n)`: a server loses its
//!   disk and restarts from scratch (never aimed at clients, whose durable
//!   log is the protocol's exactly-once anchor, by §4.1's own model).
//! * **partition** — `Block(a,b)* … Unblock(a,b)*`: a node cut through the
//!   grid (sometimes through the coordinator group, leaving the primary on
//!   the minority side) that heals after a hold.
//! * **burst**   — `SetDefaultLink(degraded) … SetDefaultLink(base)`: the
//!   whole fabric degrades (loss/dup/corrupt/reorder), then restores.

use crate::net::LinkParams;
use crate::node::NodeId;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::world::{Control, World};
use crate::WireSized;

/// Intensity knobs for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosProfile {
    /// Crash-restart storms to schedule.
    pub storms: u32,
    /// Victims per storm (capped by the target population).
    pub crashes_per_storm: u32,
    /// Partition episodes.
    pub partitions: u32,
    /// Link-degradation bursts.
    pub bursts: u32,
    /// Server disk wipes.
    pub wipes: u32,
    /// Upper bound for sampled burst loss probability.
    pub max_loss: f64,
    /// Upper bound for sampled burst duplication probability.
    pub max_dup: f64,
    /// Upper bound for sampled burst corruption probability.
    pub max_corrupt: f64,
    /// Upper bound for sampled burst reorder probability.
    pub max_reorder: f64,
    /// Reorder holding window used by bursts.
    pub reorder_window: SimDuration,
    /// Shortest downtime for a storm victim.
    pub min_downtime: SimDuration,
    /// Longest downtime for a storm victim (also bounds partition holds
    /// and burst lengths).
    pub max_downtime: SimDuration,
}

impl ChaosProfile {
    /// A profile scaled by `intensity` in `[0, 1]`: 0 is a gentle single
    /// storm, 1 is the full mixed adversary.  Every fault family stays
    /// represented at least once at any intensity, so every generated plan
    /// mixes crash storms, partition churn, bursts and wipes.
    pub fn from_intensity(intensity: f64) -> Self {
        let x = intensity.clamp(0.0, 1.0);
        let scale = |lo: u32, hi: u32| lo + ((hi - lo) as f64 * x).round() as u32;
        ChaosProfile {
            storms: scale(1, 4),
            crashes_per_storm: scale(1, 3),
            partitions: scale(1, 3),
            bursts: scale(1, 4),
            wipes: scale(1, 2),
            max_loss: 0.05 + 0.25 * x,
            max_dup: 0.02 + 0.18 * x,
            max_corrupt: 0.02 + 0.13 * x,
            max_reorder: 0.05 + 0.25 * x,
            reorder_window: SimDuration::from_millis(50 + (450.0 * x) as u64),
            min_downtime: SimDuration::from_secs(2),
            max_downtime: SimDuration::from_secs(8 + (10.0 * x) as u64),
        }
    }
}

/// The node population a plan aims its faults at, by protocol role.
#[derive(Debug, Clone, Default)]
pub struct ChaosTargets {
    /// Coordinator nodes (index 0 is the boot-time primary).
    pub coordinators: Vec<NodeId>,
    /// Server nodes (storm and wipe victims).
    pub servers: Vec<NodeId>,
    /// Client nodes (storm victims only — their durable log is the
    /// protocol's exactly-once anchor, so wipes never target them).
    pub clients: Vec<NodeId>,
}

impl ChaosTargets {
    /// All targetable nodes.
    fn all(&self) -> Vec<NodeId> {
        let mut v = self.coordinators.clone();
        v.extend_from_slice(&self.servers);
        v.extend_from_slice(&self.clients);
        v
    }
}

/// Scheduled fault events by family (for reports and validators).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounts {
    /// Crashes scheduled (storms + wipes).
    pub crashes: u32,
    /// Restarts scheduled (always equal to `crashes` in a healed plan).
    pub restarts: u32,
    /// Disk wipes scheduled.
    pub wipes: u32,
    /// Partition episodes scheduled.
    pub partitions: u32,
    /// Heals scheduled (always equal to `partitions`).
    pub heals: u32,
    /// Link-degradation bursts scheduled.
    pub bursts: u32,
}

/// A timed schedule of [`Control`] actions, replayable from its seed(s).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    schedule: Vec<(SimTime, Control)>,
    counts: FaultCounts,
    heal_by: SimTime,
}

impl FaultPlan {
    /// Empty plan, to be scripted or filled by [`Self::poisson`].
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, at: SimTime, ctl: Control) {
        match ctl {
            Control::Crash(_) => self.counts.crashes += 1,
            Control::Restart(_) => self.counts.restarts += 1,
            _ => {}
        }
        self.heal_by = self.heal_by.max(at);
        self.schedule.push((at, ctl));
    }

    /// Scripted crash at `at`.
    pub fn crash_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.push(at, Control::Crash(node));
        self
    }

    /// Scripted restart at `at`.
    pub fn restart_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.push(at, Control::Restart(node));
        self
    }

    /// Poisson fault storm: across `targets`, faults arrive independently
    /// with an *aggregate* rate of `faults_per_minute`, each followed by a
    /// restart after `downtime`.  Runs from `from` to `until`.
    ///
    /// This is the Fig. 7 x-axis: "A consequence of this fault generation
    /// is the increase of the number of faults in a system for a given
    /// time with the number of nodes subject to failure."
    pub fn poisson(
        mut self,
        targets: &[NodeId],
        faults_per_minute: f64,
        downtime: SimDuration,
        from: SimTime,
        until: SimTime,
        seed: u64,
    ) -> Self {
        if targets.is_empty() || faults_per_minute <= 0.0 {
            return self;
        }
        let mut rng = DetRng::new(seed ^ 0xFA017);
        let mean_gap_secs = 60.0 / faults_per_minute;
        let mut t = from;
        loop {
            let gap = SimDuration::from_secs_f64(rng.exp(mean_gap_secs));
            t += gap;
            if t >= until {
                break;
            }
            let victim = targets[rng.below(targets.len() as u64) as usize];
            self.push(t, Control::Crash(victim));
            self.push(t + downtime, Control::Restart(victim));
        }
        self
    }

    /// Generates a plan from `seed` over the window `[from, until]`.
    ///
    /// Every episode opened is closed strictly before `until`: crashed
    /// nodes restart, partitions heal, and the last burst restores
    /// `base_link` as the network default — [`Self::heal_by`] is the
    /// instant the system is whole again.
    pub fn generate(
        seed: u64,
        profile: ChaosProfile,
        targets: &ChaosTargets,
        base_link: LinkParams,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        let mut rng = DetRng::new(seed ^ 0xFA17_5EED_0C4A_0500);
        let mut plan = FaultPlan { heal_by: from, ..FaultPlan::default() };
        let span = until.since(from);
        debug_assert!(span > profile.max_downtime * 2, "window too small for the profile");
        // Episodes must close before `until`: sample opens from a window
        // that leaves room for the longest possible hold.
        let open_span = SimDuration(span.0.saturating_sub(profile.max_downtime.0 + 1).max(1));
        let open_at = |rng: &mut DetRng| from + SimDuration(rng.below(open_span.0));
        let hold = |rng: &mut DetRng, profile: &ChaosProfile| {
            SimDuration(rng.range(
                profile.min_downtime.0,
                profile.max_downtime.0.max(profile.min_downtime.0 + 1),
            ))
        };

        // Per-node downtime reservations: a node is never crashed again
        // while a previous episode still holds it down, so every `Crash`
        // pairs with exactly one later `Restart` (clean plan semantics the
        // oracles lean on).
        let mut reserved: Vec<(NodeId, SimTime, SimTime)> = Vec::new();
        let reserve = |reserved: &mut Vec<(NodeId, SimTime, SimTime)>,
                       node: NodeId,
                       start: SimTime,
                       end: SimTime| {
            let clash = reserved.iter().any(|&(n, s, e)| n == node && start <= e && s <= end);
            if !clash {
                reserved.push((node, start, end));
            }
            !clash
        };

        // Disk wipes first (servers only): the first wipe reserves against
        // an empty table, so every plan carries at least one.
        for _ in 0..profile.wipes {
            for _attempt in 0..16 {
                let Some(idx) = rng.pick(targets.servers.len()) else { break };
                let node = targets.servers[idx];
                let at = open_at(&mut rng);
                let down = hold(&mut rng, &profile);
                if !reserve(&mut reserved, node, at, at + down) {
                    continue;
                }
                plan.push(at, Control::Crash(node));
                plan.push(at + SimDuration::from_millis(1), Control::WipeDurable(node));
                plan.push(at + down, Control::Restart(node));
                plan.counts.wipes += 1;
                break;
            }
        }

        // Crash-restart storms over the whole population; victims whose
        // storm window overlaps an existing reservation sit this one out.
        let population = targets.all();
        for _ in 0..profile.storms {
            if population.is_empty() {
                break;
            }
            let at = open_at(&mut rng);
            let k = (profile.crashes_per_storm as usize).clamp(1, population.len());
            let mut victims = population.clone();
            rng.shuffle(&mut victims);
            for &node in victims.iter().take(k) {
                let stagger = SimDuration::from_millis(rng.below(500));
                let down = hold(&mut rng, &profile);
                let start = at + stagger;
                if !reserve(&mut reserved, node, start, start + down) {
                    continue;
                }
                plan.push(start, Control::Crash(node));
                plan.push(start + down, Control::Restart(node));
            }
        }

        // Partition churn: a node cut, sometimes straight through the
        // coordinator group with the primary on the minority side.
        for i in 0..profile.partitions {
            let all = targets.all();
            if all.len() < 2 {
                break;
            }
            let at = open_at(&mut rng);
            let dur = hold(&mut rng, &profile);
            let minority: Vec<NodeId> =
                if i == 0 && targets.coordinators.len() >= 2 && all.len() >= 3 {
                    // Guaranteed coordinator split: the boot-time primary is
                    // isolated on the minority side (Fig. 11's hard case).
                    vec![targets.coordinators[0]]
                } else {
                    let mut pool = all.clone();
                    rng.shuffle(&mut pool);
                    let cut = 1 + rng.below((pool.len() / 2).max(1) as u64) as usize;
                    pool.truncate(cut);
                    pool
                };
            let majority: Vec<NodeId> =
                all.iter().copied().filter(|n| !minority.contains(n)).collect();
            for &a in &minority {
                for &b in &majority {
                    plan.push(at, Control::Block { from: a, to: b, bidir: true });
                    plan.push(at + dur, Control::Unblock { from: a, to: b, bidir: true });
                }
            }
            plan.counts.partitions += 1;
            plan.counts.heals += 1;
        }

        // Link-degradation bursts: the fabric-wide default degrades, pair
        // overrides stay.  Bursts restore `base_link` when they end; since
        // bursts may overlap, order the restores so the *last* control on
        // the default link always re-establishes the base parameters.
        for _ in 0..profile.bursts {
            let at = open_at(&mut rng);
            let dur = hold(&mut rng, &profile);
            let degraded = LinkParams {
                loss: rng.range_f64(0.0, profile.max_loss.max(1e-9)),
                dup: rng.range_f64(0.0, profile.max_dup.max(1e-9)),
                corrupt: rng.range_f64(0.0, profile.max_corrupt.max(1e-9)),
                reorder: rng.range_f64(0.0, profile.max_reorder.max(1e-9)),
                reorder_window: profile.reorder_window,
                ..base_link
            };
            plan.push(at, Control::SetDefaultLink { params: degraded });
            plan.push(at + dur, Control::SetDefaultLink { params: base_link });
            plan.counts.bursts += 1;
        }

        // Deterministic total order; ties break by insertion order, which
        // is itself seed-deterministic.
        plan.schedule.sort_by_key(|&(at, _)| at);
        plan
    }

    /// The schedule: time-sorted for a generated plan, in push order for
    /// a scripted one ([`Self::apply`] keeps that order, which breaks ties
    /// between controls due at the same instant).
    pub fn schedule(&self) -> &[(SimTime, Control)] {
        &self.schedule
    }

    /// Number of scheduled controls.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Number of crashes scheduled (the paper's fault count).
    pub fn crash_count(&self) -> usize {
        self.counts.crashes as usize
    }

    /// Scheduled fault events by family.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Instant of the last scheduled control: in a generated plan every
    /// crash has restarted, every partition healed and the default link is
    /// `base_link` again.
    pub fn heal_by(&self) -> SimTime {
        self.heal_by
    }

    /// Schedules every control action onto `world`.
    pub fn apply<M: WireSized + 'static>(&self, world: &mut World<M>) {
        for &(at, ctl) in &self.schedule {
            world.schedule_control(at, ctl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> ChaosTargets {
        ChaosTargets {
            coordinators: vec![NodeId(0), NodeId(1)],
            servers: (2..8).map(NodeId).collect(),
            clients: vec![NodeId(8)],
        }
    }

    fn plan(seed: u64, intensity: f64) -> FaultPlan {
        FaultPlan::generate(
            seed,
            ChaosProfile::from_intensity(intensity),
            &targets(),
            LinkParams::lan(),
            SimTime::from_secs(2),
            SimTime::from_secs(90),
        )
    }

    #[test]
    fn same_seed_same_plan() {
        let a = plan(7, 0.5);
        let b = plan(7, 0.5);
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.counts(), b.counts());
        let c = plan(8, 0.5);
        assert_ne!(a.schedule(), c.schedule());
    }

    #[test]
    fn every_plan_mixes_all_fault_families() {
        for seed in 0..32 {
            for &intensity in &[0.0, 0.3, 0.7, 1.0] {
                let p = plan(seed, intensity);
                let c = p.counts();
                assert!(c.crashes >= 1, "seed {seed}: no crashes");
                assert!(c.wipes >= 1, "seed {seed}: no wipes");
                assert!(c.partitions >= 1, "seed {seed}: no partitions");
                assert!(c.bursts >= 1, "seed {seed}: no bursts");
            }
        }
    }

    #[test]
    fn plans_fully_heal() {
        for seed in 0..32 {
            let p = plan(seed, 1.0);
            assert!(p.heal_by() <= SimTime::from_secs(90));
            // Crash/restart and block/unblock pair up exactly.
            let c = p.counts();
            assert_eq!(c.crashes, c.restarts);
            assert_eq!(c.partitions, c.heals);
            let mut crashed: std::collections::BTreeSet<u32> = Default::default();
            let mut blocked: std::collections::BTreeSet<(u32, u32)> = Default::default();
            let mut default = LinkParams::lan();
            for &(_, ctl) in p.schedule() {
                match ctl {
                    Control::Crash(n) => {
                        // No double-crash of a still-down node within a plan.
                        assert!(crashed.insert(n.0), "seed {seed}: {n:?} crashed twice");
                    }
                    Control::Restart(n) => {
                        assert!(crashed.remove(&n.0), "seed {seed}: restart of up node");
                    }
                    Control::WipeDurable(n) => {
                        assert!(crashed.contains(&n.0), "wipe must target a down node");
                    }
                    Control::Block { from, to, .. } => {
                        blocked.insert((from.0, to.0));
                    }
                    Control::Unblock { from, to, .. } => {
                        blocked.remove(&(from.0, to.0));
                    }
                    Control::SetDefaultLink { params } => default = params,
                    Control::SetLink { .. } => {}
                }
            }
            assert!(crashed.is_empty(), "seed {seed}: {crashed:?} left down");
            assert!(blocked.is_empty(), "seed {seed}: partitions left open");
            assert_eq!(default, LinkParams::lan(), "seed {seed}: burst not restored");
        }
    }

    #[test]
    fn first_partition_splits_the_coordinator_group() {
        let p = plan(3, 0.8);
        // The boot-time primary (coordinator 0) must get cut off from its
        // peer coordinator in at least one partition episode.
        let primary = targets().coordinators[0];
        let peer = targets().coordinators[1];
        let split = p.schedule().iter().any(|&(_, ctl)| {
            matches!(ctl, Control::Block { from, to, .. }
                if (from == primary && to == peer) || (from == peer && to == primary))
        });
        assert!(split, "no coordinator-group split scheduled");
    }

    const S: fn(u64) -> SimTime = SimTime::from_secs;

    #[test]
    fn scripted_plan_counts_and_heals() {
        let plan = FaultPlan::new().crash_at(S(10), NodeId(1)).restart_at(S(20), NodeId(1));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.crash_count(), 1);
        assert_eq!(plan.counts(), FaultCounts { crashes: 1, restarts: 1, ..Default::default() });
        assert_eq!(plan.heal_by(), S(20));
    }

    #[test]
    fn poisson_rate_is_respected() {
        let targets: Vec<NodeId> = (0..16).map(NodeId).collect();
        let plan = FaultPlan::new().poisson(
            &targets,
            6.0, // 6 faults/minute
            SimDuration::from_secs(10),
            SimTime::ZERO,
            S(600), // 10 minutes ⇒ ~60 faults expected
            42,
        );
        let crashes = plan.crash_count();
        assert!((35..=90).contains(&crashes), "got {crashes}");
        // Every crash has a matching restart.
        assert_eq!(plan.len(), crashes * 2);
        assert_eq!(plan.counts().restarts as usize, crashes);
    }

    #[test]
    fn poisson_is_deterministic() {
        let targets: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mk = || {
            FaultPlan::new().poisson(
                &targets,
                2.0,
                SimDuration::from_secs(5),
                SimTime::ZERO,
                S(300),
                7,
            )
        };
        assert_eq!(mk().schedule(), mk().schedule());
    }

    #[test]
    fn zero_rate_or_no_targets_is_empty() {
        assert!(FaultPlan::new()
            .poisson(&[], 5.0, SimDuration::ZERO, SimTime::ZERO, S(100), 1)
            .is_empty());
        assert!(FaultPlan::new()
            .poisson(&[NodeId(0)], 0.0, SimDuration::ZERO, SimTime::ZERO, S(100), 1)
            .is_empty());
    }

    #[test]
    fn apply_schedules_everything() {
        #[derive(Debug)]
        struct B(u64);
        impl WireSized for B {
            fn wire_size(&self) -> u64 {
                self.0
            }
        }
        let p = plan(5, 0.5);
        let mut w = World::<B>::new(1);
        for _ in 0..9 {
            w.add_host(crate::HostSpec::named("n"));
        }
        p.apply(&mut w);
        assert_eq!(w.queue_len(), p.schedule().len());
        // Controls against empty nodes execute without effect or panic.
        w.run_until(SimTime::from_secs(120));
        assert_eq!(w.queue_len(), 0);
    }
}
