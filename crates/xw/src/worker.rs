//! The server-side executor (the XtremWeb *worker*).
//!
//! Executes task descriptions against the stateless service registry,
//! under sandbox limits, and wraps outputs into result archives.  Also
//! exposes the simulated-execution cost used by the discrete-event world.

use rpcv_wire::Blob;

use crate::archive::Archive;
use crate::ids::JobKey;
use crate::service::{SandboxLimits, ServiceCtx, ServiceError, ServiceRegistry};
use crate::task::TaskDesc;

/// The seed a call's result derives from: its job key's, so every instance
/// of one job — an at-least-once re-execution included — returns the same
/// bytes, and two calls return different ones.  Bit 63 is set, so every
/// seed is a 10-byte varint: a synthetic result's frame is as long whichever
/// call it answers.
pub fn result_seed(job: JobKey) -> u64 {
    Blob::derive_seed(job.client.as_peer(), job.seq) | 1 << 63
}

/// Executes tasks on a server.
#[derive(Debug, Clone)]
pub struct WorkerExecutor {
    registry: ServiceRegistry,
    limits: SandboxLimits,
}

impl WorkerExecutor {
    /// Executor over `registry` with `limits`.
    pub fn new(registry: ServiceRegistry, limits: SandboxLimits) -> Self {
        WorkerExecutor { registry, limits }
    }

    /// Really executes the task (threaded runtime): invokes the service and
    /// packs its output into a result archive.
    pub fn execute(&self, task: &TaskDesc) -> Result<Archive, ServiceError> {
        let ctx = ServiceCtx { seed: result_seed(task.job), limits: self.limits };
        let out = self.registry.invoke(&task.service, &task.params, &ctx)?;
        let mut archive = Archive::new();
        archive.push("result.bin", out);
        Ok(archive)
    }

    /// Simulated execution: returns `(cpu work-units, result size)` for the
    /// discrete-event world.  The declared `exec_cost`/`result_size_hint`
    /// from the job drive the model; a zero cost means "trivial service"
    /// (a minimal epsilon keeps event ordering sane).
    pub fn simulate(&self, task: &TaskDesc) -> (f64, u64) {
        let work = if task.exec_cost > 0.0 { task.exec_cost } else { 1e-6 };
        let result_size = task.result_size_hint.max(1);
        (work, result_size)
    }

    /// Produces the modelled result payload for simulated execution:
    /// deterministic bytes derived from the call ([`result_seed`]), of the
    /// declared size.
    pub fn simulate_result(&self, task: &TaskDesc) -> Blob {
        let (_, size) = self.simulate(task);
        Blob::synthetic(size, result_seed(task.job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientKey, CoordId, JobKey, TaskId};

    fn task(service: &str) -> TaskDesc {
        TaskDesc {
            id: TaskId::compose(CoordId(0), 1),
            job: JobKey::new(ClientKey::new(1, 1), 1),
            attempt: 0,
            service: service.into(),
            cmdline: String::new(),
            params: Blob::from_vec(vec![5u8; 16]),
            exec_cost: 3.0,
            result_size_hint: 128,
            work_units: 1,
        }
    }

    fn executor() -> WorkerExecutor {
        let mut reg = ServiceRegistry::new();
        reg.register("double", |p, _| {
            let bytes = p.materialize();
            Ok(Blob::from_vec(bytes.iter().map(|b| b.wrapping_mul(2)).collect()))
        });
        WorkerExecutor::new(reg, SandboxLimits::default())
    }

    #[test]
    fn execute_runs_service_and_archives() {
        let ex = executor();
        let archive = ex.execute(&task("double")).unwrap();
        assert_eq!(archive.len(), 1);
        assert_eq!(archive.entries[0].path, "result.bin");
        assert_eq!(archive.entries[0].data.materialize()[0], 10);
    }

    #[test]
    fn execute_unknown_service_fails() {
        let ex = executor();
        assert!(matches!(ex.execute(&task("missing")), Err(ServiceError::UnknownService(_))));
    }

    #[test]
    fn simulate_uses_declared_cost() {
        let ex = executor();
        let (work, size) = ex.simulate(&task("double"));
        assert_eq!(work, 3.0);
        assert_eq!(size, 128);
    }

    #[test]
    fn simulate_zero_cost_gets_epsilon() {
        let ex = executor();
        let mut t = task("double");
        t.exec_cost = 0.0;
        t.result_size_hint = 0;
        let (work, size) = ex.simulate(&t);
        assert!(work > 0.0);
        assert!(size > 0);
    }

    #[test]
    fn simulated_result_is_deterministic_per_task() {
        // Two instances of one job return the same bytes; two jobs do not.
        let ex = executor();
        let t = task("double");
        let a = ex.simulate_result(&t);
        let mut again = t.clone();
        again.id = TaskId::compose(CoordId(1), 7);
        again.attempt = 1;
        assert!(ex.simulate_result(&again).content_eq(&a));
        for other in [JobKey::new(ClientKey::new(1, 1), 2), JobKey::new(ClientKey::new(2, 1), 1)] {
            let mut t2 = t.clone();
            t2.job = other;
            assert!(!ex.simulate_result(&t2).content_eq(&a), "{other:?}");
        }
    }

    #[test]
    fn execution_is_stateless_rerun_identical() {
        // At-least-once safety: re-executing produces identical output.
        let ex = executor();
        let t = task("double");
        let a = ex.execute(&t).unwrap();
        let b = ex.execute(&t).unwrap();
        assert_eq!(a, b);
    }
}
