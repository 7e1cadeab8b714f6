//! The four workloads: grid shape, load, fault model, and the seeded
//! generators that turn `--seed` into every input the grid receives.
//!
//! | workload | loop | loads mostly |
//! |---|---|---|
//! | `steady_sharded` | open, below the knee | client plane, catalog deltas, shard interleaving |
//! | `batch_wide` | closed, one plan at t = 0 | deep FCFS queue, 1000-server beat fan-in |
//! | `overload_flat` | open, past the knee | store write side, dispatch backlog |
//! | `churn_mixed` | open, under faults | detect, log replay, ckpt, replication, failover |
//!
//! Sizes are cut so one repetition costs 2–3 s of host time on the reference
//! box (2 cores): the driver's whole protocol — 92 runs of `run_seconds` each
//! plus two builds — has to fit its cap with at least five repetitions a run.

use rpcv_ckpt::{AdaptiveCheckpoint, CheckpointPolicy};
use rpcv_core::chaos::MsgChaos;
use rpcv_core::config::ProtocolConfig;
use rpcv_core::grid::{GridSpec, SimGrid};
use rpcv_core::msg::Msg;
use rpcv_simnet::chaos::{ChaosProfile, ChaosTargets};
use rpcv_simnet::{Control, DetRng, LinkParams, NodeId, SimDuration, SimTime};
use rpcv_wire::{mix64, Blob};
use rpcv_workload::SyntheticBench;

/// Service name every synthetic call invokes (execution is simulated).
const SERVICE: &str = "synthetic/bench";

/// Open-loop arrivals start here, after the grid's first beats, and run
/// through warm-up and window: the window opens on a grid that is already
/// in its steady state, so goodput inside it is not diluted by a cold ramp.
pub const ARRIVALS_FROM: SimTime = SimTime(2_000_000_000);

/// Give-up horizon of the closed-loop plan.
pub const CLOSED_HORIZON: SimTime = SimTime(20_000_000_000_000);

/// How jobs reach the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Seeded Poisson arrivals on a schedule, whatever the grid's state.
    Open {
        /// Offered jobs per simulated second.
        rate: f64,
        /// Simulated seconds before the measured window opens.
        warmup_s: u64,
        /// Length of the measured window, simulated seconds.
        window_s: u64,
        /// Longest drain after the window, simulated seconds.
        drain_s: u64,
    },
    /// One plan per client handed over at t = 0; each client submits its
    /// next call when the previous submission interaction completed.
    Closed {
        /// Calls in total, split round-robin across the clients.
        calls: usize,
    },
}

/// The paper's fault model at benchmark scale (both schedules run over
/// `[10 s, window end]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Aggregate Poisson crash rate over the first half of the servers.
    pub poisson_per_min: f64,
    /// Crash storms, partition episodes and dup/reorder bursts (each) over
    /// the coordinators and the other half of the servers.
    pub episodes: u32,
}

/// One benchmark workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Coordinator replicas per shard.
    pub coords_per_shard: usize,
    /// Servers.
    pub servers: usize,
    /// Coordinator shards.
    pub shards: usize,
    /// Clients.
    pub clients: usize,
    /// Parameter bytes per call.
    pub param_bytes: u64,
    /// Declared execution seconds per call.
    pub exec_secs: f64,
    /// Result bytes per call.
    pub result_bytes: u64,
    /// Checkpointable work units per call.
    pub work_units: u32,
    /// Loop shape and size.
    pub load: Load,
    /// Fault model, when the workload has one.
    pub churn: Option<Churn>,
}

/// The four workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "steady_sharded",
            why: "open loop below the knee on 4 shards x 192 clients: service latency, not queue \
                  wait; many small catalog deltas and client beats; shards interleave on one kernel",
            coords_per_shard: 2,
            servers: 200,
            shards: 4,
            clients: 192,
            param_bytes: 256,
            exec_secs: 0.2,
            result_bytes: 64,
            work_units: 1,
            load: Load::Open { rate: 480.0, warmup_s: 20, window_s: 100, drain_s: 60 },
            churn: None,
        },
        Workload {
            name: "batch_wide",
            why: "closed loop, a 60k-call plan dumped at t=0 on 1000 servers x 4 clients: the paper's \
                  makespan shape; deep FCFS queue, giant catalogs, 1000-server beat fan-in",
            coords_per_shard: 2,
            servers: 1000,
            shards: 1,
            clients: 4,
            param_bytes: 256,
            exec_secs: 0.05,
            result_bytes: 64,
            work_units: 1,
            load: Load::Closed { calls: 60_000 },
            churn: None,
        },
        Workload {
            name: "overload_flat",
            why: "open loop at 1.3x the 1-shard knee: goodput is the coordinator group's capacity \
                  and shows congestion collapse; a growing backlog on the store's write side",
            coords_per_shard: 2,
            servers: 200,
            shards: 1,
            clients: 48,
            param_bytes: 256,
            exec_secs: 0.2,
            result_bytes: 64,
            work_units: 1,
            load: Load::Open { rate: 260.0, warmup_s: 20, window_s: 180, drain_s: 300 },
            churn: None,
        },
        Workload {
            name: "churn_mixed",
            why: "open loop under the paper's fault model (Poisson server churn, coordinator \
                  crashes, partitions, dup/reorder): detect, log replay, ckpt, failover do real work",
            coords_per_shard: 3,
            servers: 256,
            shards: 1,
            clients: 32,
            param_bytes: 2048,
            exec_secs: 20.0,
            result_bytes: 256,
            work_units: 10,
            load: Load::Open { rate: 6.0, warmup_s: 20, window_s: 2400, drain_s: 900 },
            churn: Some(Churn { poisson_per_min: 48.0, episodes: 30 }),
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The self-test size: about 1/50 of the jobs on a smaller fleet.  Its
    /// numbers exercise every code path and are never reported.
    pub fn quick(mut self) -> Self {
        self.servers = (self.servers / 4).max(8);
        self.clients = (self.clients / 4).max(1);
        self.load = match self.load {
            Load::Open { rate, warmup_s, window_s, drain_s } => Load::Open {
                rate: rate / 10.0,
                warmup_s,
                window_s: (window_s / 5).max(20),
                drain_s,
            },
            Load::Closed { calls } => Load::Closed { calls: calls / 50 },
        };
        if let Some(c) = &mut self.churn {
            c.episodes = (c.episodes / 5).max(2);
            c.poisson_per_min /= 4.0;
        }
        self
    }

    /// The measured window's bounds for an open loop.
    pub fn open_window(&self) -> Option<(SimTime, SimTime)> {
        match self.load {
            Load::Open { warmup_s, window_s, .. } => {
                Some((SimTime::from_secs(warmup_s), SimTime::from_secs(warmup_s + window_s)))
            }
            Load::Closed { .. } => None,
        }
    }

    /// Offered jobs per simulated second (closed loop: the ideal rate of a
    /// perfectly parallel fleet, `SyntheticBench::ideal_secs`).
    pub fn reference_rate(&self) -> f64 {
        match self.load {
            Load::Open { rate, .. } => rate,
            Load::Closed { calls } => calls as f64 / self.bench(calls, 0).ideal_secs(self.servers),
        }
    }

    fn bench(&self, calls: usize, seed: u64) -> SyntheticBench {
        SyntheticBench {
            calls,
            param_bytes: self.param_bytes,
            exec_secs: self.exec_secs,
            result_bytes: self.result_bytes,
            replication: 1,
            work_units: self.work_units,
            seed,
        }
    }

    fn protocol(&self) -> ProtocolConfig {
        match self.churn {
            None => ProtocolConfig::confined(),
            // Fast detection and replication, as the checkpoint bench runs
            // its volatile grid: faults must be noticed within a job's life.
            Some(_) => ProtocolConfig::confined()
                .with_heartbeat(SimDuration::from_secs(1))
                .with_suspicion(SimDuration::from_secs(5))
                .with_replication_period(SimDuration::from_secs(2))
                .with_checkpoint_policy(CheckpointPolicy::Adaptive(
                    AdaptiveCheckpoint::default_grid(),
                )),
        }
    }
}

/// Every input seed, derived from the one `--seed` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The world's master seed (link jitter, disk jitter, boot epochs).
    pub grid: u64,
    /// Parameter payload seeds.
    pub payload: u64,
    /// The arrival schedule.
    pub arrivals: u64,
    /// The Poisson server-churn plan.
    pub poisson: u64,
}

impl Seeds {
    /// Derives independent streams from `seed`.
    pub fn derive(seed: u64) -> Self {
        let s = |salt: u64| mix64(seed ^ mix64(salt));
        Seeds { grid: s(1), payload: s(2), arrivals: s(3), poisson: s(4) }
    }
}

/// The jobs a run offers: per client, the instant each call is due, in
/// submission order (the client's seq is the 1-based index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// `due[c][k]` is when client `c`'s call with seq `k + 1` is due.
    pub due: Vec<Vec<SimTime>>,
}

impl Plan {
    /// Jobs offered in total.
    pub fn offered(&self) -> u64 {
        self.due.iter().map(|d| d.len() as u64).sum()
    }
}

/// Seeded Poisson arrivals at `rate` per second over `[from, until)`, each
/// assigned to a uniformly drawn client.
pub fn poisson_arrivals(
    seed: u64,
    rate: f64,
    clients: usize,
    from: SimTime,
    until: SimTime,
) -> Plan {
    let mut rng = DetRng::new(seed);
    let mut due = vec![Vec::new(); clients];
    let mut t = from;
    loop {
        t += SimDuration::from_secs_f64(rng.exp(1.0 / rate));
        if t >= until {
            break;
        }
        due[rng.below(clients as u64) as usize].push(t);
    }
    Plan { due }
}

/// A built grid with its inputs in place, ready to run.
pub struct Rig {
    /// The grid.
    pub grid: SimGrid,
    /// What it was offered.
    pub plan: Plan,
    /// Host seconds spent generating the schedule or plan (part of set-up).
    pub schedule_gen_s: f64,
}

/// Generates the inputs from `seeds`, builds the grid and schedules every
/// arrival and fault.  Nothing has run yet.
pub fn build(w: &Workload, seeds: &Seeds) -> Rig {
    let mut spec = GridSpec::confined(w.coords_per_shard, w.servers)
        .with_shards(w.shards)
        .with_cfg(w.protocol())
        .with_seed(seeds.grid);
    // The 2004 testbed's 3 ms/op database would make the modelled MySQL the
    // only thing measured (same override as the scale bench).
    spec.coord_host = spec.coord_host.with_db_per_op(SimDuration::from_micros(100));
    let link = spec.link;

    let gen_started = std::time::Instant::now();
    let plan = match w.load {
        Load::Open { rate, warmup_s, window_s, .. } => {
            spec = spec.with_clients(w.clients);
            let until = SimTime::from_secs(warmup_s + window_s);
            poisson_arrivals(seeds.arrivals, rate, w.clients, ARRIVALS_FROM, until)
        }
        Load::Closed { calls } => {
            let plans = w.bench(calls, seeds.payload).split_across(w.clients);
            let due = plans.iter().map(|p| vec![SimTime::ZERO; p.len()]).collect();
            spec = spec.with_client_plans(plans);
            Plan { due }
        }
    };
    let schedule_gen_s = gen_started.elapsed().as_secs_f64();

    let mut grid = SimGrid::build(spec);
    if matches!(w.load, Load::Open { .. }) {
        for (c, due) in plan.due.iter().enumerate() {
            let node = grid.clients[c].1;
            for (k, &at) in due.iter().enumerate() {
                let payload = seeds.payload.wrapping_add(((c as u64) << 32) | k as u64);
                grid.world.inject(
                    at,
                    node,
                    Msg::ApiSubmit {
                        service: SERVICE.into(),
                        params: Blob::synthetic(w.param_bytes, payload),
                        exec_cost: w.exec_secs,
                        result_size: w.result_bytes,
                        replication: 1,
                        work_units: w.work_units,
                    },
                );
            }
        }
    }
    if let (Some(churn), Some((_, window_end))) = (w.churn, w.open_window()) {
        apply_churn(&mut grid, churn, seeds, link, window_end);
    }
    Rig { grid, plan, schedule_gen_s }
}

/// Seed of the storm/partition/burst schedule — a constant of the workload,
/// not an input drawn from `--seed`.  Whether a storm happens to hit the
/// *serving* coordinator moves every fault metric by tens of percent (p99
/// 45 s ↔ 95 s, amplification 1.25 ↔ 1.45), so a schedule drawn per seed
/// makes two runs incomparable.  This one was picked because it crashes a
/// coordinator three times (twice the serving one: t ≈ 665 s, 841 s, 1108 s)
/// and cuts coordinators off servers in most of its partitions.
const CHAOS_PLAN_SEED: u64 = 6;

/// Independent per-node churn at heterogeneous rates (Ni & Harwood): the
/// first half of the servers crash and restart as a seeded Poisson process;
/// the coordinators and the other half live through a fixed schedule of
/// crash storms, partitions and dup/reorder bursts.  Clients are never
/// targets, so a client's seq → due mapping is exact.
fn apply_churn(grid: &mut SimGrid, churn: Churn, seeds: &Seeds, link: LinkParams, until: SimTime) {
    let from = SimTime::from_secs(10);
    let half = grid.servers.len() / 2;
    let volatile: Vec<NodeId> = grid.servers[..half].iter().map(|&(_, n)| n).collect();
    rpcv_workload::FaultPlan::new()
        .poisson(
            &volatile,
            churn.poisson_per_min,
            SimDuration::from_secs(10),
            from,
            until,
            seeds.poisson,
        )
        .apply(&mut grid.world);

    // Wipes are out because a wiped server loses its `units_spent` counter
    // (waste accounting would go negative).  Loss and corruption are out,
    // and downtimes stay above the 5 s suspicion timeout plus a beat,
    // because a frame lost between a client and a coordinator that keeps
    // serving it strands the job for good (README, "Findings while
    // sizing") — a failure share that depends on which frame was hit.
    let profile = ChaosProfile {
        storms: churn.episodes,
        partitions: churn.episodes,
        bursts: churn.episodes,
        wipes: 0,
        max_loss: 0.0,
        max_corrupt: 0.0,
        min_downtime: SimDuration::from_secs(8),
        max_downtime: SimDuration::from_secs(16),
        ..ChaosProfile::from_intensity(0.5)
    };
    let targets = ChaosTargets {
        coordinators: grid.coords.iter().map(|&(_, n)| n).collect(),
        servers: grid.servers[half..].iter().map(|&(_, n)| n).collect(),
        clients: Vec::new(),
    };
    let plan =
        rpcv_simnet::FaultPlan::generate(CHAOS_PLAN_SEED, profile, &targets, link, from, until);
    for &(at, ctl) in plan.schedule() {
        // The generator floors a zero probability at 1e-9; make it exact.
        let ctl = match ctl {
            Control::SetDefaultLink { params } => {
                Control::SetDefaultLink { params: LinkParams { loss: 0.0, corrupt: 0.0, ..params } }
            }
            other => other,
        };
        grid.world.schedule_control(at, ctl);
    }
    grid.world.set_frame_ops(MsgChaos::new().0);
}
