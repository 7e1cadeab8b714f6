//! The live (wall-clock) runtime: the same protocol, real time, live
//! fault injection.
//!
//! [`LiveGrid`] launches a fully wired deployment on a background driver
//! thread (see `rpcv_simnet::realtime`).  Examples and integration tests
//! use it to run grids interactively: submit calls through the GridRPC
//! API ([`crate::api::GridClient`]), kill coordinators mid-run, partition
//! the network, and watch the system keep going — the live analogue of the
//! paper's real-life experiments (§5.2).

use std::thread::JoinHandle;

use rpcv_simnet::{spawn_realtime, Control, NodeId, RealtimeHandle, World};
use rpcv_xw::{ClientKey, CoordId, ServerId};

use crate::client::ClientActor;
use crate::coordinator::CoordinatorActor;
use crate::grid::{GridSpec, SimGrid};
use crate::msg::Msg;

/// A deployment running against the wall clock.
pub struct LiveGrid {
    handle: RealtimeHandle<Msg>,
    join: Option<JoinHandle<World<Msg>>>,
    /// Clients in id order.
    pub clients: Vec<(ClientKey, NodeId)>,
    /// The first client's node (single-client shorthand).
    pub client_node: NodeId,
    /// The first client's identity (single-client shorthand).
    pub client_key: ClientKey,
    /// Coordinators in id order.
    pub coords: Vec<(CoordId, NodeId)>,
    /// Servers in id order.
    pub servers: Vec<(ServerId, NodeId)>,
    /// Each client's plan length: its API calls are logged after its plan.
    pub(crate) plan_lens: Vec<u64>,
}

impl LiveGrid {
    /// Builds the grid from `spec` and launches the driver.
    ///
    /// `time_scale` compresses time: `60.0` runs one virtual minute per
    /// wall-clock second.
    pub fn launch(spec: GridSpec, time_scale: f64) -> LiveGrid {
        let plan_lens = spec.plans.iter().map(|p| p.len() as u64).collect();
        let sim = SimGrid::build(spec);
        let SimGrid { world, clients, client_node, client_key, coords, servers, .. } = sim;
        let (handle, join) = spawn_realtime(world, time_scale);
        LiveGrid {
            handle,
            join: Some(join),
            clients,
            client_node,
            client_key,
            coords,
            servers,
            plan_lens,
        }
    }

    /// The raw command handle.
    pub fn handle(&self) -> &RealtimeHandle<Msg> {
        &self.handle
    }

    /// Number of client actors wired into the grid (one
    /// [`crate::api::GridClient`] handle each, via `GridClient::at`).
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Reads the first client actor (single-client shorthand).
    pub fn with_client<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&ClientActor) -> R + Send + 'static,
    {
        self.with_client_at(0, f)
    }

    /// Reads client `i` (None when crashed).
    pub fn with_client_at<R, F>(&self, i: usize, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&ClientActor) -> R + Send + 'static,
    {
        let node = self.clients[i].1;
        self.handle.with(move |w| w.actor::<ClientActor>(node).map(f)).flatten()
    }

    /// Reads coordinator `i` (None when crashed).
    pub fn with_coordinator<R, F>(&self, i: usize, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&CoordinatorActor) -> R + Send + 'static,
    {
        let node = self.coords[i].1;
        self.handle.with(move |w| w.actor::<CoordinatorActor>(node).map(f)).flatten()
    }

    /// Kills coordinator `i` abruptly (the paper's fault generator).
    pub fn crash_coordinator(&self, i: usize) {
        self.handle.control(Control::Crash(self.coords[i].1));
    }

    /// Restarts coordinator `i` from its durable state.
    pub fn restart_coordinator(&self, i: usize) {
        self.handle.control(Control::Restart(self.coords[i].1));
    }

    /// Stops the driver and returns the final world for inspection.
    pub fn shutdown(mut self) -> Option<World<Msg>> {
        self.handle.shutdown();
        self.join.take().and_then(|j| j.join().ok())
    }
}

impl Drop for LiveGrid {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}
