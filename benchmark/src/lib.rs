//! The repo's performance benchmark (see `README.md` next to this crate and
//! `BENCHMARK.json` at the repo root): four workloads on two clocks, with
//! per-layer attribution measured from outside the program.
//!
//! One process runs one workload in one mode:
//!
//! * `--trace 0` — identical untraced repetitions (fresh grid, same seed,
//!   kernel profiling and trace recording off) for `--seconds` of host time;
//!   prints the end-to-end metrics.  Virtual-clock metrics come from the
//!   first repetition and every repetition must reproduce its event count
//!   and trace hash; host-clock metrics are the minimum (`wall_s`) or the
//!   median (`setup_s`) over repetitions.
//! * `--trace 1` — a few untraced repetitions for the baseline, the two
//!   traced passes (see [`trace`]), then the layer drivers; prints the
//!   per-layer metrics.

pub mod drivers;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod observe;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::time::Instant;

use metrics::{Metric, Values};

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// The seed every input derives from.
    pub seed: u64,
    /// Host seconds the untraced repetitions may fill.
    pub seconds: f64,
    /// Traced mode (per-layer metrics) instead of end-to-end mode.
    pub trace: bool,
    /// Self-test size: small grid, one repetition.
    pub quick: bool,
    /// Where to write `<workload>.json` / `.layers.json` / `.trace.json`.
    pub out: Option<PathBuf>,
}

/// What one process measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Jobs offered.
    pub attempted: u64,
    /// Jobs not held by their client at the drain horizon.
    pub failed: u64,
    /// The checks that failed.
    pub violations: Vec<String>,
    /// The mode's metrics, in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// The untraced repetitions behind the host-clock numbers.
    pub baseline: Baseline,
}

/// The untraced repetitions of one process, summed up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Minimum over repetitions of the measured window's host time.
    pub wall_s: f64,
    /// `(second fastest − fastest) / fastest` of the same: how well another
    /// repetition confirms the minimum.
    pub wall_spread: f64,
    /// Repetitions run.
    pub reps: usize,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics::metrics_json(&self.metrics)
        )
    }
}

/// At least this many untraced repetitions stand behind `wall_s`.
const MIN_REPS: usize = 5;
/// Untraced repetitions before the traced one in `--trace 1` mode.
const TRACE_MODE_REPS: usize = 3;

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// utime + stime of this process, seconds (`/proc/self/stat`, 100 Hz ticks).
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command; utime and stime are the 14th
    // and 15th of the line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<f64>().ok()).sum();
    ticks / 100.0
}

/// What two runs of one seed must agree on: events processed, trace hash.
fn fingerprint_of(run: &harness::Run) -> (u64, u64) {
    (run.grid.world.events_processed(), run.grid.world.trace().hash())
}

/// Runs one workload in one mode.
pub fn execute(opts: &Options) -> Result<Outcome, String> {
    let w = workload::by_name(&opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let w = if opts.quick { w.quick() } else { w };
    let started = Instant::now();
    let mut violations = Vec::new();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut first: Option<(observe::Virtual, (u64, u64))> = None;
    // Every run of one seed must reproduce the first one's fingerprint.
    let agree = |what: &str, got: (u64, u64), want: (u64, u64)| {
        (got != want).then(|| {
            format!(
                "{what} is not deterministic: {} events, hash {:x} (first repetition: {}, {:x})",
                got.0, got.1, want.0, want.1
            )
        })
    };

    // Untraced repetitions.
    loop {
        let run = harness::run(&w, opts.seed, None);
        walls.push(run.wall_s);
        setups.push(run.setup_s);
        eprintln!("# rep {}: set-up {:.3} s, window {:.3} s", walls.len(), run.setup_s, run.wall_s);
        match &first {
            None => {
                let virt = observe::virtual_metrics(&run, &w);
                violations.extend(observe::violations(&run, &w, &virt));
                first = Some((virt, fingerprint_of(&run)));
            }
            Some((_, want)) => violations.extend(agree(
                &format!("repetition {}", walls.len()),
                fingerprint_of(&run),
                *want,
            )),
        }
        drop(run);
        let reps = walls.len();
        let per_rep = started.elapsed().as_secs_f64() / reps as f64;
        let done = if opts.quick {
            true
        } else if opts.trace {
            reps >= TRACE_MODE_REPS
        } else {
            reps >= MIN_REPS && started.elapsed().as_secs_f64() + per_rep > opts.seconds
        };
        if done {
            break;
        }
    }
    let (virt, fingerprint) = first.expect("one repetition ran");
    let mut fastest = walls.clone();
    fastest.sort_by(f64::total_cmp);
    let wall_s = fastest[0];
    let baseline = Baseline {
        wall_s,
        wall_spread: (fastest.get(1).unwrap_or(&wall_s) - wall_s) / wall_s,
        reps: walls.len(),
    };

    let mut values = Values::new();
    let catalogue = if opts.trace {
        // Two traced passes over the same deterministic run: the scout
        // finds the long steps, the sampler spans them and every K-th other.
        let mut scout = trace::Tracer::scout();
        let scouted = harness::run(&w, opts.seed, Some(&mut scout));
        violations.extend(agree("the scout pass", fingerprint_of(&scouted), fingerprint));
        drop(scouted);
        let mut tracer = trace::Tracer::sampler(scout);
        let run = harness::run(&w, opts.seed, Some(&mut tracer));
        violations.extend(agree("the sampler pass", fingerprint_of(&run), fingerprint));
        let shape = layers::observe(&run, &w, &virt, &tracer, &baseline, &mut values);
        drop(run);
        drivers::run_all(&mut tracer, &shape, wall_s, &mut values);
        values.set("bench.cpu_s", cpu_s());
        if let Some(dir) = &opts.out {
            let path = dir.join(format!("{}.trace.json", w.name));
            tracer.write_json(&path, w.name).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        metrics::PER_LAYER
    } else {
        values.set("wall_s", wall_s);
        values.set("setup_s", stats::median(&setups));
        values.set("peak_rss_mb", peak_rss_mb());
        values.set("job_latency_p50_ms", virt.latency_p50_ms);
        values.set("job_latency_p99_ms", virt.latency_p99_ms);
        values.set("goodput_jobs_per_sim_s", virt.goodput);
        values.set("delivered_job_ratio", virt.delivered_ratio);
        values.set("wire_bytes_per_job", virt.wire_bytes_per_job);
        values.set("work_amplification", virt.work_amplification);
        values.set("delivery_gap_top3_s", virt.delivery_gap_s);
        values.set("capacity_headroom", virt.capacity_headroom);
        metrics::END_TO_END
    };

    let outcome = Outcome {
        correct: violations.is_empty(),
        attempted: virt.attempted,
        failed: virt.failed,
        violations,
        metrics: values.resolve(catalogue)?,
        baseline,
    };
    if let Some(dir) = &opts.out {
        let suffix = if opts.trace { "layers.json" } else { "json" };
        let path = dir.join(format!("{}.{suffix}", w.name));
        let text = format!(
            "{{\"workload\": {}, \"seed\": {}, \"quick\": {}, \"reps\": {}, \
             \"wall_spread_ratio\": {}, \"result\": {}}}\n",
            json::string(w.name),
            opts.seed,
            opts.quick,
            baseline.reps,
            json::number(baseline.wall_spread).unwrap_or_else(|| "0".into()),
            outcome.result_json()
        );
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}
