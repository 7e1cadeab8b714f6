//! The stateless service registry.
//!
//! §2.3 of the paper concludes that Internet desktop grids "should be
//! conservatively restricted to applications calling stateless services
//! and at-least-once semantics".  The registry enforces statelessness *by
//! construction*: a service is a `Fn(&Blob, &ServiceCtx) -> Result<Blob>`
//! — it receives parameters, returns a result, and has no other channel to
//! the system.  Re-executing it with the same parameters is always safe,
//! which is what makes the coordinator's "on suspicion" re-scheduling
//! correct.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rpcv_wire::Blob;

/// Sandbox limits enforced around every service invocation.
///
/// XtremWeb ensures integrity "by Sandboxing executions at the server
/// side"; our executor enforces resource bounds and rejects violations the
/// same way a sandbox kill would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SandboxLimits {
    /// Maximum accepted parameter size.
    pub max_input_bytes: u64,
    /// Maximum produced result size.
    pub max_output_bytes: u64,
}

impl Default for SandboxLimits {
    fn default() -> Self {
        SandboxLimits { max_input_bytes: 1 << 30, max_output_bytes: 1 << 30 }
    }
}

/// Per-invocation context handed to services.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCtx {
    /// Deterministic seed derived from the call's job key
    /// ([`crate::worker::result_seed`]); lets services generate
    /// reproducible synthetic output, the same for every instance of a job.
    pub seed: u64,
    /// Active sandbox limits.
    pub limits: SandboxLimits,
}

/// Service invocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No service registered under the requested name.
    UnknownService(String),
    /// The service itself reported failure.
    ExecutionFailed(String),
    /// Parameters exceeded the sandbox input limit.
    InputTooLarge {
        /// Actual size.
        got: u64,
        /// Configured limit.
        limit: u64,
    },
    /// Result exceeded the sandbox output limit.
    OutputTooLarge {
        /// Actual size.
        got: u64,
        /// Configured limit.
        limit: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownService(name) => write!(f, "unknown service {name:?}"),
            ServiceError::ExecutionFailed(msg) => write!(f, "service execution failed: {msg}"),
            ServiceError::InputTooLarge { got, limit } => {
                write!(f, "input of {got} bytes exceeds sandbox limit {limit}")
            }
            ServiceError::OutputTooLarge { got, limit } => {
                write!(f, "output of {got} bytes exceeds sandbox limit {limit}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// A stateless service function.
pub type ServiceFn = dyn Fn(&Blob, &ServiceCtx) -> Result<Blob, ServiceError> + Send + Sync;

/// Name → service mapping shared by workers.
#[derive(Clone, Default)]
pub struct ServiceRegistry {
    services: BTreeMap<String, Arc<ServiceFn>>,
}

impl ServiceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a service.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&Blob, &ServiceCtx) -> Result<Blob, ServiceError> + Send + Sync + 'static,
    {
        self.services.insert(name.into(), Arc::new(f));
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.services.contains_key(name)
    }

    /// Registered service names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.services.keys().cloned().collect()
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Invokes `name` under the sandbox in `ctx`.
    pub fn invoke(
        &self,
        name: &str,
        params: &Blob,
        ctx: &ServiceCtx,
    ) -> Result<Blob, ServiceError> {
        let f =
            self.services.get(name).ok_or_else(|| ServiceError::UnknownService(name.to_owned()))?;
        if params.len() > ctx.limits.max_input_bytes {
            return Err(ServiceError::InputTooLarge {
                got: params.len(),
                limit: ctx.limits.max_input_bytes,
            });
        }
        let out = f(params, ctx)?;
        if out.len() > ctx.limits.max_output_bytes {
            return Err(ServiceError::OutputTooLarge {
                got: out.len(),
                limit: ctx.limits.max_output_bytes,
            });
        }
        Ok(out)
    }
}

impl fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceRegistry").field("services", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ServiceCtx {
        ServiceCtx { seed: 7, limits: SandboxLimits::default() }
    }

    #[test]
    fn register_and_invoke() {
        let mut reg = ServiceRegistry::new();
        reg.register("echo", |p, _| Ok(p.clone()));
        assert!(reg.contains("echo"));
        assert_eq!(reg.names(), vec!["echo"]);
        let out = reg.invoke("echo", &Blob::from_vec(vec![1, 2, 3]), &ctx()).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn unknown_service() {
        let reg = ServiceRegistry::new();
        assert!(matches!(
            reg.invoke("nope", &Blob::empty(), &ctx()),
            Err(ServiceError::UnknownService(_))
        ));
    }

    #[test]
    fn execution_failure_propagates() {
        let mut reg = ServiceRegistry::new();
        reg.register("boom", |_, _| Err(ServiceError::ExecutionFailed("kaput".into())));
        let err = reg.invoke("boom", &Blob::empty(), &ctx()).unwrap_err();
        assert!(err.to_string().contains("kaput"));
    }

    #[test]
    fn sandbox_limits_enforced() {
        let mut reg = ServiceRegistry::new();
        reg.register("blowup", |_, _| Ok(Blob::synthetic(10_000, 0)));
        let tight = ServiceCtx {
            seed: 0,
            limits: SandboxLimits { max_input_bytes: 100, max_output_bytes: 100 },
        };
        // Input too large.
        assert!(matches!(
            reg.invoke("blowup", &Blob::synthetic(200, 0), &tight),
            Err(ServiceError::InputTooLarge { got: 200, limit: 100 })
        ));
        // Output too large.
        assert!(matches!(
            reg.invoke("blowup", &Blob::empty(), &tight),
            Err(ServiceError::OutputTooLarge { got: 10_000, limit: 100 })
        ));
    }

    #[test]
    fn replace_service() {
        let mut reg = ServiceRegistry::new();
        reg.register("f", |_, _| Ok(Blob::from_vec(vec![1])));
        reg.register("f", |_, _| Ok(Blob::from_vec(vec![2])));
        let out = reg.invoke("f", &Blob::empty(), &ctx()).unwrap();
        assert_eq!(out.materialize()[0], 2);
        assert_eq!(reg.len(), 1);
    }
}
