//! The GridRPC-style client API.
//!
//! Paper §4.2: "The RPC-V API is compliant with GridRPC except the
//! functions for Remote Function Handle Management that are absent of the
//! RPC-V API.  The coordinator virtualization and forwarding avoid the
//! need of function handle management at the client side (the client never
//! connects to the server directly)."
//!
//! Mapping to the GridRPC specification:
//!
//! | GridRPC             | here                         |
//! |---------------------|------------------------------|
//! | `grpc_call`         | [`GridClient::call`]         |
//! | `grpc_call_async`   | [`GridClient::call_async`]   |
//! | `grpc_probe`        | [`GridClient::probe`]        |
//! | `grpc_wait`         | [`GridClient::wait`]         |
//! | `grpc_wait_all`     | [`GridClient::wait_all`]     |
//! | `grpc_cancel`       | [`GridClient::cancel`]       |
//! | function handles    | *absent by design*           |

use std::time::{Duration as StdDuration, Instant};

use rpcv_obs::TelemetrySnapshot;
use rpcv_simnet::NodeId;
use rpcv_wire::Blob;
use rpcv_xw::{ClientKey, CoordId};

use crate::runtime::LiveGrid;
use crate::util::CallSpec;

/// Handle to an asynchronous RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcHandle {
    /// The submission timestamp (unique per client session).
    pub seq: u64,
}

/// API-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// The wait deadline passed before the result arrived.
    Timeout,
    /// The grid runtime has shut down.
    Disconnected,
    /// The handle was cancelled locally.
    Cancelled,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Timeout => write!(f, "timed out waiting for result"),
            GridError::Disconnected => write!(f, "grid runtime disconnected"),
            GridError::Cancelled => write!(f, "call cancelled"),
        }
    }
}

impl std::error::Error for GridError {}

/// GridRPC-style client over a [`LiveGrid`].
///
/// A grid can host many client actors ([`crate::grid::GridSpec::clients`]);
/// each API handle binds to exactly one of them via [`GridClient::at`], so
/// N tenants drive the same coordinators through N independent sessions.
pub struct GridClient<'g> {
    grid: &'g LiveGrid,
    client_idx: usize,
    client_node: NodeId,
    /// The client's plan length: API call `k` is logged at `plan_len + k`.
    plan_len: u64,
    submitted: u64,
    cancelled: Vec<u64>,
    status_nonce: u64,
    poll_interval: StdDuration,
}

impl<'g> GridClient<'g> {
    /// Client bound to the grid's first client actor (the paper's
    /// single-tenant shape) — shorthand for `GridClient::at(grid, 0)`.
    pub fn new(grid: &'g LiveGrid) -> Self {
        Self::at(grid, 0)
    }

    /// Client bound to the grid's client actor `i`.
    ///
    /// Assumes this is the only submitter for that client actor (the
    /// sequential timestamp mapping requires it — one `GridClient` per
    /// client session, exactly like one GridRPC session per client).
    /// Handles number after the client's plan, which the actor logs first.
    ///
    /// # Panics
    ///
    /// Panics when the grid has no client `i`.
    pub fn at(grid: &'g LiveGrid, i: usize) -> Self {
        assert!(i < grid.clients.len(), "grid has {} clients, no index {i}", grid.clients.len());
        GridClient {
            grid,
            client_idx: i,
            client_node: grid.clients[i].1,
            plan_len: grid.plan_lens.get(i).copied().unwrap_or(0),
            submitted: 0,
            cancelled: Vec::new(),
            status_nonce: 0,
            poll_interval: StdDuration::from_millis(10),
        }
    }

    /// The identity of the client actor this handle drives.
    pub fn client_key(&self) -> ClientKey {
        self.grid.clients[self.client_idx].0
    }

    /// Non-blocking call (GridRPC `grpc_call_async`): submits and returns a
    /// handle immediately.
    pub fn call_async(&mut self, call: CallSpec) -> RpcHandle {
        self.submitted += 1;
        let seq = self.plan_len + self.submitted;
        self.grid.handle().inject(
            self.client_node,
            crate::msg::Msg::ApiSubmit {
                service: call.service,
                params: call.params,
                exec_cost: call.exec_cost,
                result_size: call.result_size,
                replication: call.replication,
                work_units: call.work_units,
            },
        );
        RpcHandle { seq }
    }

    /// Blocking call (GridRPC `grpc_call`).
    pub fn call(&mut self, call: CallSpec, timeout: StdDuration) -> Result<Blob, GridError> {
        let h = self.call_async(call);
        self.wait(h, timeout)
    }

    /// Non-blocking completion test (GridRPC `grpc_probe`).
    pub fn probe(&self, h: RpcHandle) -> bool {
        let seq = h.seq;
        self.grid
            .with_client_at(self.client_idx, move |c| c.result_archive(seq).is_some())
            .unwrap_or(false)
    }

    /// Blocks until the result arrives (GridRPC `grpc_wait`).
    pub fn wait(&self, h: RpcHandle, timeout: StdDuration) -> Result<Blob, GridError> {
        if self.cancelled.contains(&h.seq) {
            return Err(GridError::Cancelled);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let seq = h.seq;
            match self.grid.with_client_at(self.client_idx, move |c| c.result_archive(seq).cloned())
            {
                Some(Some(blob)) => return Ok(blob),
                Some(None) => {}
                None => {
                    // Client node currently down (crash window) — keep
                    // polling: it may restart and recover its results.
                }
            }
            if Instant::now() >= deadline {
                return Err(GridError::Timeout);
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// Blocks until every outstanding call completed (GridRPC
    /// `grpc_wait_all`).
    pub fn wait_all(&self, timeout: StdDuration) -> Result<(), GridError> {
        let deadline = Instant::now() + timeout;
        // The handles themselves, not a count: a cancelled call's result
        // still arrives (at-least-once) and must not stand in for a live one.
        let calls = self.plan_len + 1..=self.plan_len + self.submitted;
        let live: Vec<u64> = calls.filter(|seq| !self.cancelled.contains(seq)).collect();
        loop {
            let waited = live.clone();
            let done = self.grid.with_client_at(self.client_idx, move |c| {
                waited.iter().all(|&seq| c.result_archive(seq).is_some())
            });
            if done == Some(true) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(GridError::Timeout);
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// Cancels a call locally (GridRPC `grpc_cancel`).
    ///
    /// At-least-once semantics mean the execution may still happen on some
    /// server; cancellation only stops this client from waiting on it.
    /// This mirrors the paper's client-disconnection policy: "we let the
    /// execution continue on the server side" (§2.2).
    pub fn cancel(&mut self, h: RpcHandle) {
        if !self.cancelled.contains(&h.seq) {
            self.cancelled.push(h.seq);
        }
    }

    /// Live grid introspection: asks the client's preferred coordinator
    /// for its sealed [`TelemetrySnapshot`] and blocks until a *fresh*
    /// reply lands (nonce-matched — a cached snapshot from an earlier pull
    /// is never returned).  Returns the answering coordinator's id with
    /// the decoded snapshot.
    pub fn pull_status(
        &mut self,
        timeout: StdDuration,
    ) -> Result<(CoordId, TelemetrySnapshot), GridError> {
        self.status_nonce += 1;
        let nonce = self.status_nonce;
        self.grid.handle().inject(self.client_node, crate::msg::Msg::StatusRequest { nonce });
        let deadline = Instant::now() + timeout;
        loop {
            let fresh = self
                .grid
                .with_client_at(self.client_idx, move |c| {
                    let (got, coord, snap) = c.status()?;
                    (*got >= nonce).then(|| (*coord, snap.clone()))
                })
                .flatten();
            if let Some(got) = fresh {
                return Ok(got);
            }
            if Instant::now() >= deadline {
                return Err(GridError::Timeout);
            }
            std::thread::sleep(self.poll_interval);
        }
    }
}
