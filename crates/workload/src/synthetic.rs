//! The configurable synthetic benchmark of §5.1.

use rpcv_core::util::CallSpec;
use rpcv_wire::Blob;
use rpcv_xw::ServiceName;

/// Builder for uniform synthetic call plans.
#[derive(Debug, Clone)]
pub struct SyntheticBench {
    /// Number of RPC calls.
    pub calls: usize,
    /// Parameter size per call, bytes.
    pub param_bytes: u64,
    /// Declared execution time, seconds (work-units at speed 1.0).
    pub exec_secs: f64,
    /// Result size per call, bytes.
    pub result_bytes: u64,
    /// Redundancy factor (extension; 1 = paper baseline).
    pub replication: u32,
    /// Checkpointable work units per call (extension; 1 = atomic, the
    /// paper baseline).  With N units a call snapshots progress at unit
    /// boundaries, so a crashed server's successor resumes mid-task.
    pub work_units: u32,
    /// Seed for the parameter payloads.
    pub seed: u64,
}

impl SyntheticBench {
    /// The Fig. 7 configuration: "1 client submits 96 RPCs ... Each RPC
    /// spends 10 seconds and produces few output bytes."
    pub fn fig7() -> Self {
        SyntheticBench {
            calls: 96,
            param_bytes: 300,
            exec_secs: 10.0,
            result_bytes: 64,
            replication: 1,
            work_units: 1,
            seed: 7,
        }
    }

    /// The Fig. 4 configuration: 16 calls of a given parameter size.
    pub fn fig4(param_bytes: u64) -> Self {
        SyntheticBench {
            calls: 16,
            param_bytes,
            exec_secs: 1.0,
            result_bytes: 64,
            replication: 1,
            work_units: 1,
            seed: 4,
        }
    }

    /// Small-call sweep (right parts of Figs. 4–6): `n` calls of ~300 B.
    pub fn small_calls(n: usize) -> Self {
        SyntheticBench {
            calls: n,
            param_bytes: 300,
            exec_secs: 1.0,
            result_bytes: 64,
            replication: 1,
            work_units: 1,
            seed: 6,
        }
    }

    /// Builder: execution time.
    pub fn with_exec_secs(mut self, secs: f64) -> Self {
        self.exec_secs = secs;
        self
    }

    /// Builder: replication factor.
    pub fn with_replication(mut self, n: u32) -> Self {
        self.replication = n;
        self
    }

    /// Builder: checkpointable work units per call.
    pub fn with_work_units(mut self, n: u32) -> Self {
        self.work_units = n.max(1);
        self
    }

    /// Materializes the plan: every call shares one service name.
    pub fn plan(&self) -> Vec<CallSpec> {
        let service = ServiceName::from("synthetic/bench");
        (0..self.calls)
            .map(|i| {
                CallSpec::new(
                    service.clone(),
                    Blob::synthetic(self.param_bytes, self.seed.wrapping_add(i as u64)),
                    self.exec_secs,
                    self.result_bytes,
                )
                .with_replication(self.replication)
                .with_work_units(self.work_units)
            })
            .collect()
    }

    /// Ideal makespan on `servers` perfectly parallel servers (the paper's
    /// "Ideally, total execution would last 60 seconds (6 rounds of 16
    /// parallel RPCs)").
    pub fn ideal_secs(&self, servers: usize) -> f64 {
        let rounds = self.calls.div_ceil(servers.max(1));
        rounds as f64 * self.exec_secs
    }

    /// Splits the single-client workload across `clients` concurrent
    /// submitters (round-robin, so total offered load stays equal to
    /// [`Self::plan`] — the shape the scale bench sweeps to isolate the
    /// cost of *having* more clients from the cost of more work).
    pub fn split_across(&self, clients: usize) -> Vec<Vec<CallSpec>> {
        let clients = clients.max(1);
        let mut plans: Vec<Vec<CallSpec>> = vec![Vec::new(); clients];
        for (i, call) in self.plan().into_iter().enumerate() {
            plans[i % clients].push(call);
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_matches_paper() {
        let b = SyntheticBench::fig7();
        assert_eq!(b.calls, 96);
        assert_eq!(b.exec_secs, 10.0);
        assert!((b.ideal_secs(16) - 60.0).abs() < 1e-9, "6 rounds of 16 = 60 s");
    }

    #[test]
    fn plan_has_distinct_payloads() {
        let plan = SyntheticBench::fig4(1024).plan();
        assert_eq!(plan.len(), 16);
        assert!(plan.iter().all(|c| c.params.len() == 1024));
        // Payload seeds differ call to call.
        assert!(!plan[0].params.content_eq(&plan[1].params));
    }

    #[test]
    fn split_across_conserves_total_calls() {
        let b = SyntheticBench::small_calls(10);
        let plans = b.split_across(3);
        assert_eq!(plans.iter().map(|p| p.len()).sum::<usize>(), 10);
        assert_eq!(plans[0].len(), 4, "round-robin: client 0 gets the remainder");
        assert_eq!(b.split_across(1).len(), 1);
        assert_eq!(b.split_across(0).len(), 1, "floors at one client");
    }

    #[test]
    fn work_units_flow_into_the_plan() {
        let plan = SyntheticBench::fig7().with_work_units(10).plan();
        assert!(plan.iter().all(|c| c.work_units == 10));
        let atomic = SyntheticBench::fig7().plan();
        assert!(atomic.iter().all(|c| c.work_units == 1), "default stays atomic");
    }

    #[test]
    fn ideal_rounds_up() {
        let b = SyntheticBench { calls: 17, ..SyntheticBench::fig4(10) };
        assert_eq!(b.ideal_secs(16), 2.0 * b.exec_secs);
        assert_eq!(b.ideal_secs(0), 17.0 * b.exec_secs);
    }
}
