//! The commutation-network validation application (Alcatel stand-in).
//!
//! The paper's real-life workload "computes the signal lost and the
//! bandwidth for network configurations" (§5.2), running 1000 parallel
//! tasks whose durations "var\[y\] in a wide range" (Fig. 8).  The original
//! tool is proprietary, so this module implements the closest synthetic
//! equivalent exercising the same code path: every task
//!
//! 1. decodes a randomly generated switch-network configuration
//!    (marshalled with `rpcv-wire`, like any RPC parameter),
//! 2. computes, for every terminal pair, the minimum-attenuation route
//!    (Dijkstra over link attenuations in dB) and the maximum bottleneck
//!    bandwidth (widest-path), and
//! 3. returns a marshalled evaluation report.
//!
//! Configuration sizes are drawn from a log-normal distribution, giving
//! the wide task-duration spread of Fig. 8; the declared simulator cost is
//! derived from the same size parameters, so the simulated experiments and
//! the really-computing examples use identical workloads.

use rpcv_core::util::CallSpec;
use rpcv_simnet::DetRng;
use rpcv_wire::{from_bytes, to_bytes, wire_record, Blob};
use rpcv_xw::{ServiceCtx, ServiceError, ServiceName, ServiceRegistry};

/// The registered service name.
pub const SERVICE: &str = "alcatel/netsim";

/// One link of the commutation network.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Endpoint switch indices.
    pub a: u32,
    /// Endpoint switch indices.
    pub b: u32,
    /// Signal attenuation across this link, in dB (positive).
    pub attenuation_db: f64,
    /// Usable bandwidth on this link, Mbit/s.
    pub bandwidth_mbps: f64,
}

wire_record!(Link { a, b, attenuation_db, bandwidth_mbps });

/// A commutation-network configuration to validate.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Number of switches.
    pub switches: u32,
    /// Links between switches.
    pub links: Vec<Link>,
    /// Terminal pairs to evaluate (indices into the switch set).
    pub pairs: Vec<(u32, u32)>,
}

wire_record!(NetworkConfig { switches, links, pairs });

impl NetworkConfig {
    /// Generates a random configuration: a connected switch mesh with
    /// `switches` nodes and roughly `2.2 × switches` links.
    pub fn generate(rng: &mut DetRng, switches: u32) -> Self {
        let switches = switches.max(2);
        let mut links = Vec::new();
        // Spanning chain for connectivity, then random chords.
        for i in 1..switches {
            links.push(Link {
                a: i - 1,
                b: i,
                attenuation_db: rng.range_f64(0.1, 3.0),
                bandwidth_mbps: rng.range_f64(34.0, 2500.0),
            });
        }
        let chords = (switches as f64 * 1.2) as u32;
        for _ in 0..chords {
            let a = rng.below(switches as u64) as u32;
            let b = rng.below(switches as u64) as u32;
            if a != b {
                links.push(Link {
                    a,
                    b,
                    attenuation_db: rng.range_f64(0.1, 3.0),
                    bandwidth_mbps: rng.range_f64(34.0, 2500.0),
                });
            }
        }
        let n_pairs = (switches / 2).max(1);
        let pairs = (0..n_pairs)
            .map(|_| (rng.below(switches as u64) as u32, rng.below(switches as u64) as u32))
            .collect();
        NetworkConfig { switches, links, pairs }
    }

    /// Work-units (≈ seconds on the paper's desktop nodes) this validation
    /// needs: Dijkstra per terminal pair over the switch graph, twice
    /// (attenuation + bandwidth), with the constant calibrated so that the
    /// generated 1000-task mix spans Fig. 8's duration range.
    pub fn work_units(&self) -> f64 {
        let v = self.switches as f64;
        let e = self.links.len() as f64;
        let p = self.pairs.len() as f64;
        // 2 sweeps × pairs × (E + V log V), scaled to land the generated
        // size mix in a wide minutes-long band (median ≈ 9–10 min,
        // matching the shape of Fig. 8's spread).
        2.0 * p * (e + v * v.log2().max(1.0)) / 160.0
    }
}

/// Result of validating one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Per-pair minimal attenuation, dB (`f64::INFINITY` = unreachable).
    pub signal_loss_db: Vec<f64>,
    /// Per-pair maximal bottleneck bandwidth, Mbit/s (0 = unreachable).
    pub bandwidth_mbps: Vec<f64>,
}

wire_record!(EvalReport { signal_loss_db, bandwidth_mbps });

/// Really evaluates a configuration (the service body).
pub fn evaluate(config: &NetworkConfig) -> EvalReport {
    let n = config.switches as usize;
    let mut adj: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); n];
    for l in &config.links {
        let (a, b) = (l.a as usize, l.b as usize);
        if a < n && b < n {
            adj[a].push((b, l.attenuation_db, l.bandwidth_mbps));
            adj[b].push((a, l.attenuation_db, l.bandwidth_mbps));
        }
    }
    let mut signal_loss_db = Vec::with_capacity(config.pairs.len());
    let mut bandwidth_mbps = Vec::with_capacity(config.pairs.len());
    for &(s, t) in &config.pairs {
        signal_loss_db.push(min_attenuation(&adj, s as usize, t as usize));
        bandwidth_mbps.push(widest_path(&adj, s as usize, t as usize));
    }
    EvalReport { signal_loss_db, bandwidth_mbps }
}

/// Dijkstra over attenuation (additive, dB).
fn min_attenuation(adj: &[Vec<(usize, f64, f64)>], s: usize, t: usize) -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = adj.len();
    if s >= n || t >= n {
        return f64::INFINITY;
    }
    let mut dist = vec![f64::INFINITY; n];
    dist[s] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((OrdF64(0.0), s)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if u == t {
            return d;
        }
        if d > dist[u] {
            continue;
        }
        for &(v, att, _) in &adj[u] {
            let nd = d + att;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
    dist[t]
}

/// Widest-path (max-min bandwidth) via a max-heap Dijkstra variant.
fn widest_path(adj: &[Vec<(usize, f64, f64)>], s: usize, t: usize) -> f64 {
    use std::collections::BinaryHeap;
    let n = adj.len();
    if s >= n || t >= n {
        return 0.0;
    }
    if s == t {
        return f64::INFINITY;
    }
    let mut best = vec![0.0f64; n];
    best[s] = f64::INFINITY;
    let mut heap = BinaryHeap::new();
    heap.push((OrdF64(f64::INFINITY), s));
    while let Some((OrdF64(w), u)) = heap.pop() {
        if u == t {
            return w;
        }
        if w < best[u] {
            continue;
        }
        for &(v, _, bw) in &adj[u] {
            let nw = w.min(bw);
            if nw > best[v] {
                best[v] = nw;
                heap.push((OrdF64(nw), v));
            }
        }
    }
    best[t]
}

/// Total order for non-NaN floats in heaps.
#[derive(PartialEq, PartialOrd)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("attenuations/bandwidths are never NaN")
    }
}

/// The full application: plan generation + service registration.
#[derive(Debug, Clone)]
pub struct AlcatelApp {
    /// Number of parallel tasks ("We run this application with 1000
    /// tasks").
    pub tasks: usize,
    /// Master seed.
    pub seed: u64,
}

impl AlcatelApp {
    /// The paper's configuration: 1000 tasks.
    pub fn paper() -> Self {
        AlcatelApp { tasks: 1000, seed: 2004 }
    }

    /// Smaller run (tests, examples).
    pub fn with_tasks(tasks: usize) -> Self {
        AlcatelApp { tasks, seed: 2004 }
    }

    /// Generates the per-task configurations.
    pub fn configs(&self) -> Vec<NetworkConfig> {
        let rng = DetRng::new(self.seed);
        (0..self.tasks)
            .map(|i| {
                let mut trng = rng.derive(i as u64);
                // Log-normal size mix ⇒ wide duration range (Fig. 8).
                let switches = trng.lognormal(4.6, 0.5).clamp(12.0, 250.0) as u32;
                NetworkConfig::generate(&mut trng, switches)
            })
            .collect()
    }

    /// Builds the client plan: one call per configuration, parameters
    /// really marshalled, costs derived from the configuration itself,
    /// one service name shared by every call.
    pub fn plan(&self) -> Vec<CallSpec> {
        let service = ServiceName::from(SERVICE);
        self.configs()
            .into_iter()
            .map(|cfg| {
                let work = cfg.work_units();
                let params = Blob::from_vec(to_bytes(&cfg));
                let result_size = 16 + 16 * cfg.pairs.len() as u64;
                CallSpec::new(service.clone(), params, work, result_size)
            })
            .collect()
    }

    /// Work-unit durations of the generated mix (Fig. 8's variable).
    pub fn durations(&self) -> Vec<f64> {
        self.configs().iter().map(|c| c.work_units()).collect()
    }

    /// Histogram of durations with the given bucket width (seconds).
    pub fn duration_histogram(&self, bucket_secs: f64) -> Vec<(f64, usize)> {
        let durations = self.durations();
        let max = durations.iter().cloned().fold(0.0, f64::max);
        let buckets = (max / bucket_secs).ceil() as usize + 1;
        let mut hist = vec![0usize; buckets];
        for d in durations {
            hist[(d / bucket_secs) as usize] += 1;
        }
        hist.into_iter().enumerate().map(|(i, c)| (i as f64 * bucket_secs, c)).collect()
    }

    /// Registers the service.
    pub fn register(registry: &mut ServiceRegistry) {
        registry.register(SERVICE, |params: &Blob, _ctx: &ServiceCtx| {
            let bytes = params.materialize();
            let config: NetworkConfig = from_bytes(&bytes)
                .map_err(|e| ServiceError::ExecutionFailed(format!("bad config: {e}")))?;
            let report = evaluate(&config);
            Ok(Blob::from_vec(to_bytes(&report)))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrips() {
        let mut rng = DetRng::new(1);
        let cfg = NetworkConfig::generate(&mut rng, 30);
        let bytes = to_bytes(&cfg);
        let back: NetworkConfig = from_bytes(&bytes).unwrap();
        assert_eq!(back, cfg);
        let report = evaluate(&cfg);
        let report_bytes = to_bytes(&report);
        assert_eq!(from_bytes::<EvalReport>(&report_bytes).unwrap(), report);
        // Golden bytes: a field swapped in both directions still round-trips.
        assert_eq!((bytes.len(), rpcv_wire::crc64(&bytes)), (1203, 0xe7e2_a12b_f615_4f19));
        assert_eq!(
            (report_bytes.len(), rpcv_wire::crc64(&report_bytes)),
            (242, 0x1f0e_033d_a0b2_2b61)
        );
    }

    #[test]
    fn evaluation_is_sane() {
        let mut rng = DetRng::new(2);
        let cfg = NetworkConfig::generate(&mut rng, 40);
        let report = evaluate(&cfg);
        assert_eq!(report.signal_loss_db.len(), cfg.pairs.len());
        assert_eq!(report.bandwidth_mbps.len(), cfg.pairs.len());
        // The chain guarantees connectivity: finite loss, positive bw.
        for (i, &(a, b)) in cfg.pairs.iter().enumerate() {
            if a == b {
                continue;
            }
            assert!(report.signal_loss_db[i].is_finite(), "pair {i} unreachable");
            assert!(report.bandwidth_mbps[i] > 0.0);
        }
    }

    #[test]
    fn attenuation_is_shortest_additive_path() {
        // Triangle: direct 5 dB vs two-hop 1+1 dB.
        let cfg = NetworkConfig {
            switches: 3,
            links: vec![
                Link { a: 0, b: 2, attenuation_db: 5.0, bandwidth_mbps: 100.0 },
                Link { a: 0, b: 1, attenuation_db: 1.0, bandwidth_mbps: 100.0 },
                Link { a: 1, b: 2, attenuation_db: 1.0, bandwidth_mbps: 100.0 },
            ],
            pairs: vec![(0, 2)],
        };
        let report = evaluate(&cfg);
        assert!((report.signal_loss_db[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_is_widest_bottleneck() {
        // Direct narrow (10) vs two-hop wide (min(80, 60) = 60).
        let cfg = NetworkConfig {
            switches: 3,
            links: vec![
                Link { a: 0, b: 2, attenuation_db: 1.0, bandwidth_mbps: 10.0 },
                Link { a: 0, b: 1, attenuation_db: 1.0, bandwidth_mbps: 80.0 },
                Link { a: 1, b: 2, attenuation_db: 1.0, bandwidth_mbps: 60.0 },
            ],
            pairs: vec![(0, 2)],
        };
        let report = evaluate(&cfg);
        assert!((report.bandwidth_mbps[0] - 60.0).abs() < 1e-12);
    }

    #[test]
    fn durations_span_wide_range() {
        let app = AlcatelApp::with_tasks(300);
        let mut d = app.durations();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let min = d[0];
        let med = d[d.len() / 2];
        let max = d[d.len() - 1];
        // "the tasks duration varies in a wide range": at least 20×
        // spread, median in the minutes.
        assert!(max / min > 20.0, "spread {min}..{max}");
        assert!((60.0..3600.0).contains(&med), "median {med}");
    }

    #[test]
    fn histogram_counts_everything() {
        let app = AlcatelApp::with_tasks(100);
        let hist = app.duration_histogram(120.0);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn service_registration_executes() {
        let mut registry = ServiceRegistry::new();
        AlcatelApp::register(&mut registry);
        let mut rng = DetRng::new(3);
        let cfg = NetworkConfig::generate(&mut rng, 20);
        let params = Blob::from_vec(to_bytes(&cfg));
        let ctx = ServiceCtx { seed: 0, limits: Default::default() };
        let out = registry.invoke(SERVICE, &params, &ctx).unwrap();
        let report: EvalReport = from_bytes(&out.materialize()).unwrap();
        assert_eq!(report.signal_loss_db.len(), cfg.pairs.len());
    }

    #[test]
    fn plans_are_deterministic() {
        let a = AlcatelApp::with_tasks(20).plan();
        let b = AlcatelApp::with_tasks(20).plan();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.exec_cost, y.exec_cost);
            assert!(x.params.content_eq(&y.params));
        }
    }
}
