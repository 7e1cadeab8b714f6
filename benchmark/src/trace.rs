//! The traced runs: host time per layer, from outside the program.
//!
//! The kernel has no host-time attribution, and this benchmark may not add
//! any inside the program.  So a traced repetition replaces `run_until`
//! with a `peek_next_time()`/`step()` loop and wraps chosen steps in spans:
//! trace recording goes on for that one step, the step is timed, and the
//! tail of `World::trace()` it left behind names the handler that ran — the
//! first `Deliver`/`Timer` event carries the node, a node → role table gives
//! the class, and a step that dispatched no handler is kernel-only
//! (`simnet.nic`: NIC serialisation, stale timers, controls).
//!
//! Which steps?  Every K-th one would do if step times were well-behaved,
//! but they are not: a few dozen coordinator timer steps of 10–25 ms each
//! carry a fifth of a run, and 1-in-K sampling of such a tail swings the
//! total by tens of percent.  The simulation is deterministic, so the i-th
//! step is the same event in every repetition — and that buys a stratified
//! estimate from two passes:
//!
//! 1. the **scout** times every step (two clock reads, nothing recorded)
//!    and keeps the indices of the steps longer than [`LONG_STEP`];
//! 2. the **sampler** wraps every K-th step *and every long step the scout
//!    found* in a recorded, classified span.
//!
//! Class host time is `K × Σ sampled short steps + Σ long steps`, each span
//! less the calibrated cost of an empty one (two clock reads, plus storing
//! the events the step recorded).  Recording only chosen steps bounds
//! memory, and because the trace hash folds whether or not events are
//! stored both passes' hashes equal the untraced one's — which the
//! benchmark asserts.  Kernel profiling stays off: its per-event class
//! lookup alone costs 25 % of a run, so queue depth is sampled here
//! (`World::queue_len`) and per-class step counts are estimates too.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use rpcv_core::grid::SimGrid;
use rpcv_core::msg::Msg;
use rpcv_simnet::{NodeId, SimTime, Trace, TraceEvent, TraceKind, World};

use crate::json;

/// Every K-th step is sampled; prime, so the sample cannot lock onto a
/// periodic event pattern.
pub const SAMPLE_EVERY: u64 = 31;

/// Steps the scout times longer than this are traced one by one.
pub const LONG_STEP: Duration = Duration::from_micros(50);

/// Protocol role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A coordinator.
    Coordinator,
    /// A server.
    Server,
    /// A client.
    Client,
}

/// What one kernel step spent its time in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// An actor's `on_message`.
    Msg(Role),
    /// An actor's `on_timer`.
    Timer(Role),
    /// No handler ran: the step stayed inside the kernel.
    Nic,
}

impl Class {
    /// Every class, in span-name-table order.
    pub const ALL: [Class; 7] = [
        Class::Msg(Role::Coordinator),
        Class::Timer(Role::Coordinator),
        Class::Msg(Role::Server),
        Class::Timer(Role::Server),
        Class::Msg(Role::Client),
        Class::Timer(Role::Client),
        Class::Nic,
    ];

    /// The span name: layer, then handler kind.
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Msg(Role::Coordinator) => "core.coordinator.msg",
            Class::Timer(Role::Coordinator) => "core.coordinator.timer",
            Class::Msg(Role::Server) => "core.server.msg",
            Class::Timer(Role::Server) => "core.server.timer",
            Class::Msg(Role::Client) => "core.client.msg",
            Class::Timer(Role::Client) => "core.client.timer",
            Class::Nic => "simnet.nic",
        }
    }

    /// Position in [`Class::ALL`].
    pub fn index(self) -> usize {
        Class::ALL.iter().position(|&c| c == self).expect("ALL lists every class")
    }
}

/// The node → role table of a grid, indexed by `NodeId.0`.
pub fn roles_of(grid: &SimGrid) -> Vec<Role> {
    let n = grid.coords.len() + grid.servers.len() + grid.clients.len();
    let mut roles = vec![Role::Server; n];
    for &(_, node) in &grid.coords {
        roles[node.0 as usize] = Role::Coordinator;
    }
    for &(_, node) in &grid.clients {
        roles[node.0 as usize] = Role::Client;
    }
    roles
}

/// Classifies one step from the trace events it recorded.
pub fn classify(tail: &[TraceEvent], roles: &[Role]) -> Class {
    tail.iter()
        .find_map(|ev| {
            let role = *roles.get(ev.node.0 as usize)?;
            match ev.kind {
                TraceKind::Deliver => Some(Class::Msg(role)),
                TraceKind::Timer => Some(Class::Timer(role)),
                _ => None,
            }
        })
        .unwrap_or(Class::Nic)
}

/// Estimated host time of one class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassTime {
    /// Steps of the class (`K ×` sampled short steps `+` long steps).
    pub steps: f64,
    /// Their host time, empty-span cost removed, nanoseconds.
    pub sum_ns: f64,
}

impl ClassTime {
    /// Mean host nanoseconds per step.
    pub fn mean_ns(&self) -> f64 {
        if self.steps == 0.0 {
            0.0
        } else {
            self.sum_ns / self.steps
        }
    }
}

struct Span {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    /// Trace events the step stored (their cost is not the step's).
    recorded: u32,
    /// Steps this span stands for: K for a sampled step, 1 for a long step
    /// or a driver call.
    weight: u32,
}

/// What a tracer does with the steps it takes.
enum Pass {
    /// Time every step; remember the long ones' indices.
    Scout { long: Vec<u64> },
    /// Span every K-th step and every step the scout found long.
    Sample { long: Vec<u64>, next_long: usize, countdown: u64 },
}

/// Span recorder for the traced repetitions and the layer drivers.
pub struct Tracer {
    epoch: Instant,
    pass: Pass,
    /// Steps taken inside the root span so far.
    step: u64,
    roles: Vec<Role>,
    names: Vec<String>,
    spans: Vec<Span>,
    root: (u64, u64),
    /// Event-queue depth before each sampled step.
    depths: Vec<u32>,
    empty_span_ns: f64,
    record_event_ns: f64,
}

/// Host cost of a span around nothing: two clock reads back to back.
fn calibrate_empty_span() -> f64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let s = Instant::now();
            let e = Instant::now();
            (e - s).as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Host cost of storing one trace event: a recording push less a
/// hash-only push.
fn calibrate_record_event() -> f64 {
    const N: u32 = 200_000;
    let pushes = |record: bool| {
        let mut trace = Trace::new();
        trace.set_recording(record);
        let started = Instant::now();
        for i in 0..N {
            trace.push(SimTime(i as u64), NodeId(i % 64), TraceKind::Send, "");
        }
        std::hint::black_box(trace.hash());
        started.elapsed().as_nanos() as f64 / N as f64
    };
    let (on, off) = ((0..3).map(|_| pushes(true)), (0..3).map(|_| pushes(false)));
    (on.fold(f64::INFINITY, f64::min) - off.fold(f64::INFINITY, f64::min)).max(0.0)
}

impl Tracer {
    fn new(pass: Pass) -> Self {
        Tracer {
            epoch: Instant::now(),
            pass,
            step: 0,
            roles: Vec::new(),
            names: Class::ALL.iter().map(|c| c.span_name().to_owned()).collect(),
            spans: Vec::new(),
            root: (0, 0),
            depths: Vec::new(),
            empty_span_ns: calibrate_empty_span(),
            record_event_ns: calibrate_record_event(),
        }
    }

    /// The first pass: times every step, records nothing.
    pub fn scout() -> Self {
        Tracer::new(Pass::Scout { long: Vec::new() })
    }

    /// The second pass, told which steps `scout` found long.
    pub fn sampler(scout: Tracer) -> Self {
        let (Pass::Scout { long } | Pass::Sample { long, .. }) = scout.pass;
        Tracer::new(Pass::Sample { long, next_long: 0, countdown: SAMPLE_EVERY })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the workload root span (the measured window) over `grid`.
    pub fn open_root(&mut self, grid: &SimGrid) {
        self.roles = roles_of(grid);
        self.root.0 = self.now_ns();
    }

    /// Closes the root span.
    pub fn close_root(&mut self) {
        self.root.1 = self.now_ns();
    }

    /// Host seconds the root span lasted.
    pub fn root_s(&self) -> f64 {
        (self.root.1 - self.root.0) as f64 / 1e9
    }

    /// `World::run_until` as a step loop.
    pub fn run_until(&mut self, world: &mut World<Msg>, until: SimTime) {
        while world.peek_next_time().is_some_and(|t| t <= until) {
            let index = self.step;
            self.step += 1;
            let weight = match &mut self.pass {
                Pass::Scout { long } => {
                    let start = Instant::now();
                    world.step();
                    if start.elapsed() > LONG_STEP {
                        long.push(index);
                    }
                    continue;
                }
                Pass::Sample { long, next_long, countdown } => {
                    *countdown -= 1;
                    let sampled = *countdown == 0;
                    if sampled {
                        *countdown = SAMPLE_EVERY;
                    }
                    if long.get(*next_long) == Some(&index) {
                        *next_long += 1;
                        1
                    } else if sampled {
                        self.depths.push(world.queue_len() as u32);
                        SAMPLE_EVERY as u32
                    } else {
                        world.step();
                        continue;
                    }
                }
            };
            world.set_trace_recording(true);
            let before = world.trace().events().len();
            let start = Instant::now();
            world.step();
            let end = Instant::now();
            world.set_trace_recording(false);
            let tail = &world.trace().events()[before..];
            self.spans.push(Span {
                name: classify(tail, &self.roles).index() as u32,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                recorded: tail.len() as u32,
                weight,
            });
        }
    }

    /// Runs `f` inside a named span (a layer-driver call).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_owned());
                self.names.len() - 1
            }
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name: idx as u32, start_ns, end_ns, recorded: 0, weight: 1 });
        out
    }

    /// Estimated host time per step class, in [`Class::ALL`] order.
    pub fn class_times(&self) -> [ClassTime; 7] {
        let mut out = [ClassTime::default(); 7];
        for s in &self.spans {
            // Names past the step classes are layer-driver spans.
            let Some(t) = out.get_mut(s.name as usize) else { continue };
            let overhead = self.empty_span_ns + s.recorded as f64 * self.record_event_ns;
            t.steps += s.weight as f64;
            t.sum_ns += s.weight as f64 * ((s.end_ns - s.start_ns) as f64 - overhead).max(0.0);
        }
        out
    }

    /// Event-queue depths seen before the sampled steps, ascending.
    pub fn sorted_depths(&self) -> Vec<u64> {
        let mut depths: Vec<u64> = self.depths.iter().map(|&d| d as u64).collect();
        depths.sort_unstable();
        depths
    }

    /// Writes every span: `spans[i] = [name index, start_ns, end_ns,
    /// weight]`, all children of the one root span (the measured window);
    /// `weight` is the number of steps the span stands for.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 36 + 1024);
        let _ = write!(
            out,
            "{{\"workload\": {}, \"sample_every\": {SAMPLE_EVERY}, \"long_step_ns\": {}, \
             \"empty_span_ns\": {}, \"record_event_ns\": {}, \
             \"root\": {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}, \"parent\": \"root\", \
             \"names\": [",
            json::string(workload),
            LONG_STEP.as_nanos(),
            self.empty_span_ns,
            self.record_event_ns,
            json::string(&format!("workload.{workload}")),
            self.root.0,
            self.root.1,
        );
        for (i, n) in self.names.iter().enumerate() {
            let _ = write!(out, "{}{}", if i == 0 { "" } else { ", " }, json::string(n));
        }
        out.push_str("], \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}[{}, {}, {}, {}]", s.name, s.start_ns, s.end_ns, s.weight);
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
