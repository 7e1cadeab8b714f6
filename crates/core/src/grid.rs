//! Grid assembly: build a complete simulated RPC-V deployment in one call.
//!
//! Reproduces the paper's two testbeds as presets: the confined cluster
//! (§5.1: 16 servers, 4 coordinators, 1 client on switched 100 Mbit/s
//! Ethernet) and the real-life Internet deployment (§5.2: ~280 desktop
//! servers in three universities, two coordinators 300 km apart).
//!
//! Beyond the paper's single-client testbeds, a grid can host any number
//! of concurrently submitting clients ([`GridSpec::clients`] /
//! [`GridSpec::with_client_plans`]) — the BOINC-style multi-tenant shape
//! where many submitters share one coordinator set.  Client `i` gets
//! identity `ClientKey::new(i + 1, 1)` and plan `i`; the single-client
//! accessors ([`SimGrid::client`], [`SimGrid::client_results`]) keep
//! working as aliases for client 0.  On a live grid each tenant gets its
//! own API handle (`GridClient::at(&grid, i)`), bound to client actor `i`.

use rpcv_obs::TelemetrySnapshot;
use rpcv_simnet::{HostSpec, LinkParams, NodeId, SimDuration, SimTime, World};
use rpcv_xw::{ClientKey, CoordId, SandboxLimits, ServerId, ServiceRegistry};

use crate::calibration;
use crate::client::{ClientActor, ClientParams};
use crate::config::ProtocolConfig;
use crate::coordinator::{CoordParams, CoordinatorActor};
use crate::msg::Msg;
use crate::server::{ServerActor, ServerParams};
use crate::util::{CallSpec, Directory};

/// Everything needed to assemble a grid.
#[derive(Clone)]
pub struct GridSpec {
    /// Experiment master seed.
    pub seed: u64,
    /// Protocol configuration.
    pub cfg: ProtocolConfig,
    /// Number of coordinators *per shard* (each shard is a full
    /// replicated group).
    pub n_coordinators: usize,
    /// Number of coordinator shards the job space is hash-partitioned
    /// across (1 = the paper's unsharded plane; the degenerate case is
    /// bit-compatible with a pre-shard grid).
    pub shards: usize,
    /// Number of servers.
    pub n_servers: usize,
    /// Host model for coordinators.
    pub coord_host: HostSpec,
    /// Host model for servers.
    pub server_host: HostSpec,
    /// Host model for the client.
    pub client_host: HostSpec,
    /// Default link parameters.
    pub link: LinkParams,
    /// Services available on every server (none ⇒ simulated execution, see
    /// [`ServerParams::registry`]).
    pub registry: ServiceRegistry,
    /// Sandbox limits on every server.
    pub limits: SandboxLimits,
    /// Number of client actors (≥ 1; the paper's testbeds wire exactly 1).
    pub clients: usize,
    /// Per-client workload plans: plan `i` drives client `i`.  Clients
    /// beyond the list length start with an empty plan (API-driven).
    pub plans: Vec<Vec<CallSpec>>,
}

impl GridSpec {
    /// The confined-cluster topology of §5.1 (defaults to 4 coordinators,
    /// 16 servers; pass the plan separately).
    pub fn confined(n_coordinators: usize, n_servers: usize) -> Self {
        GridSpec {
            seed: 0xC0FFEE,
            cfg: ProtocolConfig::confined(),
            n_coordinators,
            shards: 1,
            n_servers,
            coord_host: calibration::confined_coordinator(),
            server_host: calibration::confined_server(),
            client_host: calibration::confined_client(),
            link: LinkParams::lan(),
            registry: ServiceRegistry::new(),
            limits: SandboxLimits::default(),
            clients: 1,
            plans: Vec::new(),
        }
    }

    /// The real-life Internet topology of §5.2 (2 coordinators by default).
    pub fn real_life(n_coordinators: usize, n_servers: usize) -> Self {
        GridSpec {
            cfg: ProtocolConfig::real_life(),
            coord_host: calibration::reallife_coordinator(),
            server_host: calibration::internet_desktop(),
            client_host: calibration::internet_desktop(),
            link: LinkParams::wan(),
            ..Self::confined(n_coordinators, n_servers)
        }
    }

    /// Builder: seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: protocol config.
    pub fn with_cfg(mut self, cfg: ProtocolConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Builder: number of coordinator shards (floors at 1).  Each shard
    /// gets its own group of [`GridSpec::n_coordinators`] replicas.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder: single-client workload plan (the paper's testbed shape —
    /// equivalent to `with_client_plans(vec![plan])`).
    pub fn with_plan(mut self, plan: Vec<CallSpec>) -> Self {
        self.plans = vec![plan];
        self
    }

    /// Builder: number of clients (plans assigned separately; extra
    /// clients start with empty plans).
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients.max(1);
        self
    }

    /// Builder: one plan per client; sets the client count to match.
    pub fn with_client_plans(mut self, plans: Vec<Vec<CallSpec>>) -> Self {
        self.clients = plans.len().max(1);
        self.plans = plans;
        self
    }

    /// Builder: service registry.
    pub fn with_registry(mut self, registry: ServiceRegistry) -> Self {
        self.registry = registry;
        self
    }
}

/// A fully wired simulated deployment.
pub struct SimGrid {
    /// The world; run it with `run_until`/`run_for` or step scenarios.
    pub world: World<Msg>,
    /// Clients in id order (client `i` is `ClientKey::new(i + 1, 1)`).
    pub clients: Vec<(ClientKey, NodeId)>,
    /// The first client's node (single-client shorthand).
    pub client_node: NodeId,
    /// The first client's identity (single-client shorthand).
    pub client_key: ClientKey,
    /// Coordinators in id order.
    pub coords: Vec<(CoordId, NodeId)>,
    /// Servers in id order.
    pub servers: Vec<(ServerId, NodeId)>,
    /// Clients whose initial plan is non-empty — the set
    /// [`Self::run_until_done`] waits for.
    planned: Vec<usize>,
}

impl SimGrid {
    /// Assembles and installs every actor.
    pub fn build(mut spec: GridSpec) -> SimGrid {
        let mut world = World::<Msg>::new(spec.seed);
        *world.net_mut() = rpcv_simnet::NetModel::new(spec.link);

        // Shard-major coordinator layout: shard `s` owns members
        // `s * n_coordinators .. (s + 1) * n_coordinators`, numbered so a
        // 1-shard grid gets exactly the historical ids 1..=n.
        let shards = spec.shards.max(1);
        let mut coords = Vec::new();
        let mut groups: Vec<Vec<(CoordId, NodeId)>> = Vec::with_capacity(shards);
        for s in 0..shards {
            let mut group = Vec::with_capacity(spec.n_coordinators);
            for m in 0..spec.n_coordinators {
                let i = s * spec.n_coordinators + m;
                let mut host = spec.coord_host.clone();
                host.name = format!("coord{i}");
                let node = world.add_host(host);
                coords.push((CoordId(i as u64 + 1), node));
                group.push((CoordId(i as u64 + 1), node));
            }
            groups.push(group);
        }
        let directory = Directory::sharded(groups);

        let mut servers = Vec::new();
        for i in 0..spec.n_servers {
            let mut host = spec.server_host.clone();
            host.name = format!("server{i}");
            let node = world.add_host(host);
            servers.push((ServerId(i as u64 + 1), node));
        }

        let n_clients = spec.clients.max(spec.plans.len()).max(1);
        let mut clients = Vec::new();
        let mut planned = Vec::new();
        for i in 0..n_clients {
            let mut client_host = spec.client_host.clone();
            client_host.name = if i == 0 { "client".into() } else { format!("client{i}") };
            let node = world.add_host(client_host);
            clients.push((ClientKey::new(i as u64 + 1, 1), node));
            if spec.plans.get(i).is_some_and(|p| !p.is_empty()) {
                planned.push(i);
            }
        }

        for &(id, node) in &coords {
            let params =
                CoordParams { me: id, cfg: spec.cfg.clone(), directory: directory.clone() };
            world.install(node, CoordinatorActor::factory(params));
        }
        for &(id, node) in &servers {
            let params = ServerParams {
                id,
                cfg: spec.cfg.clone(),
                directory: directory.clone(),
                registry: spec.registry.clone(),
                limits: spec.limits,
            };
            world.install(node, ServerActor::factory(params));
        }
        for (i, &(key, node)) in clients.iter().enumerate() {
            let client_params = ClientParams {
                key,
                cfg: spec.cfg.clone(),
                directory: directory.clone(),
                plan: spec.plans.get_mut(i).map(std::mem::take).unwrap_or_default().into(),
            };
            world.install(node, ClientActor::factory(client_params));
        }

        let (client_key, client_node) = clients[0];
        SimGrid { world, clients, client_node, client_key, coords, servers, planned }
    }

    /// Number of clients wired into the grid.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Client actor `i` (when its node is up).
    pub fn client_at(&self, i: usize) -> Option<&ClientActor> {
        self.world.actor::<ClientActor>(self.clients[i].1)
    }

    /// The first client actor (single-client shorthand, when up).
    pub fn client(&self) -> Option<&ClientActor> {
        self.client_at(0)
    }

    /// Coordinator actor `i` (when up).
    pub fn coordinator(&self, i: usize) -> Option<&CoordinatorActor> {
        self.world.actor::<CoordinatorActor>(self.coords[i].1)
    }

    /// Server actor `i` (when up).
    pub fn server(&self, i: usize) -> Option<&ServerActor> {
        self.world.actor::<ServerActor>(self.servers[i].1)
    }

    /// When every planned client finished (the latest `done_at`), or
    /// `None` while any is still working (or down).
    pub(crate) fn all_plans_done(&self) -> Option<SimTime> {
        if self.planned.is_empty() {
            return None;
        }
        let mut latest = SimTime::ZERO;
        for &i in &self.planned {
            latest = latest.max(self.client_at(i)?.metrics.done_at?);
        }
        Some(latest)
    }

    /// Runs until every client's plan completed or `max` elapses; returns
    /// the completion instant (the last client's `done_at`) if reached.
    pub fn run_until_done(&mut self, max: SimTime) -> Option<SimTime> {
        let chunk = SimDuration::from_millis(500);
        loop {
            if let Some(done) = self.all_plans_done() {
                return Some(done);
            }
            if self.world.now() >= max {
                return None;
            }
            self.world.run_for(chunk);
        }
    }

    /// Total results client `i` has received.
    pub fn client_results_at(&self, i: usize) -> usize {
        self.client_at(i).map(|c| c.results_count()).unwrap_or(0)
    }

    /// Total results the first client has received (single-client
    /// shorthand).
    pub fn client_results(&self) -> usize {
        self.client_results_at(0)
    }

    /// Grid-wide telemetry: every live coordinator's snapshot aggregated
    /// (counters add, histograms merge), each live server's and client's
    /// metrics folded in under the `server.` / `client.` prefixes, and the
    /// network counters under `net.`.
    ///
    /// Deterministic: two same-seed runs produce byte-identical snapshots
    /// (and therefore byte-identical [`TelemetrySnapshot::seal`] frames).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut reg = TelemetrySnapshot::new();
        for i in 0..self.coords.len() {
            if let Some(c) = self.coordinator(i) {
                reg.merge(&c.telemetry_snapshot());
            }
        }
        for i in 0..self.servers.len() {
            if let Some(s) = self.server(i) {
                reg.add_counters("server", s.metrics.counters());
            }
        }
        for i in 0..self.clients.len() {
            if let Some(c) = self.client_at(i) {
                c.metrics.fold_into(&mut reg);
            }
        }
        reg.add_counters("net", self.world.stats().counters());
        reg
    }
}
