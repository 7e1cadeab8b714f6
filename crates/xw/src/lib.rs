//! # rpcv-xw — the desktop-grid middleware substrate
//!
//! RPC-V was implemented "on top of the XtremWeb Desktop Grid middleware as
//! a proof of concept" (paper §4.2).  XtremWeb supplies the job/task
//! vocabulary and the worker execution machinery; this crate is our
//! from-scratch equivalent:
//!
//! * [`ids`] — the identifier scheme: "Any client RPC call execution in
//!   the system is identified by: the user unique ID, a session unique ID
//!   and a RPC unique ID" (§4.2);
//! * [`job`] — client *jobs* ("very close to remote execution calls and
//!   encompass command line and an optional directory archive");
//! * [`task`] — *tasks*, the coordinator-side instances of jobs ("the
//!   client submits jobs on the coordinator, which are translated as tasks
//!   (instances of jobs) and forwarded to the server (known as the worker
//!   in XtremWeb)");
//! * [`service`] — the stateless service registry (§2.3 restricts desktop
//!   grids to stateless services; the registry enforces it by shape: a
//!   service is a pure function of its parameters);
//! * [`worker`] — the server-side executor with sandbox limits
//!   ("integrity is ensured by Sandboxing executions at the server side");
//! * [`archive`] — result archives ("the server builds an archive of new
//!   or modified files (including application outputs) and sends it to
//!   the coordinator"), integrity-checked with CRC-64 frames.

pub mod archive;
pub mod ids;
pub mod job;
pub mod service;
pub mod task;
pub mod worker;

pub use archive::{Archive, ArchiveEntry};
pub use ids::{ClientKey, CoordId, JobKey, ServerId, ServiceName, SessionId, TaskId, UserId};
pub use job::JobSpec;
pub use service::{SandboxLimits, ServiceCtx, ServiceError, ServiceRegistry};
pub use task::{TaskDesc, TaskState};
pub use worker::{result_seed, WorkerExecutor};
