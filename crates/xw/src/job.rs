//! Client jobs: the unit a client submits to a coordinator.
//!
//! "Jobs in XtremWeb are very close to remote execution calls and encompass
//! command line and an optional directory archive (the called executable is
//! transferred automatically on the server side if necessary)" (§4.2).

use rpcv_wire::{wire_record, Blob};

use crate::ids::{JobKey, ServiceName};

/// A submitted RPC call / remote execution job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Full identity: `(user, session, seq)`.
    pub key: JobKey,
    /// Stateless service to invoke (function identifier).
    pub service: ServiceName,
    /// XtremWeb-style command line for remote-execution jobs.
    pub cmdline: String,
    /// Marshalled parameters, or a compressed directory archive.
    pub params: Blob,
    /// Declared execution cost in CPU work-units (drives the simulated
    /// execution time; the threaded runtime runs the real service instead).
    pub exec_cost: f64,
    /// Expected result size in bytes (workload model; the real service's
    /// output wins in the threaded runtime).
    pub result_size_hint: u64,
    /// Extension: number of *redundant* task instances to schedule ahead of
    /// any suspicion.  `1` = the paper's baseline ("This simple
    /// implementation does not schedule RPC redundantly in order to
    /// anticipate potential failures.  However, this could be added easily
    /// with a replication flag associated with the task state").
    pub replication: u32,
    /// Extension (checkpointing, paper §6 future work): how many
    /// checkpointable *work units* the execution divides into.  `1` = an
    /// atomic task (the paper baseline: progress is all-or-nothing); a
    /// task of N units can snapshot at unit boundaries and a successor
    /// instance resumes from the highest durable unit instead of zero.
    pub work_units: u32,
}

impl JobSpec {
    /// A plain single-instance job.
    pub fn new(key: JobKey, service: impl Into<ServiceName>, params: Blob) -> Self {
        JobSpec {
            key,
            service: service.into(),
            cmdline: String::new(),
            params,
            exec_cost: 0.0,
            result_size_hint: 0,
            replication: 1,
            work_units: 1,
        }
    }

    /// Builder: declared execution cost (work-units).
    pub fn with_exec_cost(mut self, cost: f64) -> Self {
        self.exec_cost = cost;
        self
    }

    /// Builder: expected result size.
    pub fn with_result_size(mut self, bytes: u64) -> Self {
        self.result_size_hint = bytes;
        self
    }

    /// Builder: command line.
    pub fn with_cmdline(mut self, cmdline: impl Into<String>) -> Self {
        self.cmdline = cmdline.into();
        self
    }

    /// Builder: redundant-replication factor (extension).
    pub fn with_replication(mut self, n: u32) -> Self {
        self.replication = n.max(1);
        self
    }

    /// Builder: checkpointable work-unit count (extension; floors at 1).
    pub fn with_work_units(mut self, n: u32) -> Self {
        self.work_units = n.max(1);
        self
    }
}

wire_record!(JobSpec {
    key,
    service,
    cmdline,
    params,
    exec_cost,
    result_size_hint,
    replication,
    work_units
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientKey;
    use rpcv_wire::{from_bytes, to_bytes, WireEncode};

    fn job() -> JobSpec {
        JobSpec::new(JobKey::new(ClientKey::new(1, 2), 3), "netsim/eval", Blob::synthetic(1024, 9))
            .with_exec_cost(10.0)
            .with_result_size(256)
            .with_cmdline("eval --config net.cfg")
            .with_replication(2)
            .with_work_units(8)
    }

    #[test]
    fn roundtrip() {
        let j = job();
        let back: JobSpec = from_bytes(&to_bytes(&j)).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn builders() {
        let j = job();
        assert_eq!(j.exec_cost, 10.0);
        assert_eq!(j.result_size_hint, 256);
        assert_eq!(j.replication, 2);
        assert_eq!(j.work_units, 8);
        assert_eq!(j.params.len(), 1024);
    }

    #[test]
    fn replication_is_at_least_one() {
        let j = JobSpec::new(JobKey::default(), "s", Blob::empty()).with_replication(0);
        assert_eq!(j.replication, 1);
    }

    #[test]
    fn work_units_floor_at_one() {
        let j = JobSpec::new(JobKey::default(), "s", Blob::empty()).with_work_units(0);
        assert_eq!(j.work_units, 1);
        assert_eq!(JobSpec::new(JobKey::default(), "s", Blob::empty()).work_units, 1);
    }

    #[test]
    fn wire_size_tracks_params() {
        let small = JobSpec::new(JobKey::default(), "s", Blob::synthetic(10, 0));
        let big = JobSpec::new(JobKey::default(), "s", Blob::synthetic(1_000_000, 0));
        // Synthetic blobs keep the *frame* small; the modelled payload is
        // what the transfer is charged on top of it.
        assert!(big.encoded_len() < 100);
        assert_eq!(big.transfer_len(), big.encoded_len() + 1_000_000);
        assert!(small.encoded_len() <= big.encoded_len());
    }
}
