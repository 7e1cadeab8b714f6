//! Identifier scheme for every entity in the grid.
//!
//! Paper §4.2: "Any client RPC call execution in the system is identified
//! by: the user unique ID, a session unique ID and a RPC unique ID.  A
//! session corresponds to the logging of the user into the system ...
//! Any instance of the client program may connect the Coordinator with
//! different IP and retrieve results and RPC status using the unique IDs."
//!
//! Task ids additionally embed the allocating coordinator so that task
//! instances created independently by different coordinator replicas never
//! collide.

use rpcv_wire::{wire_record, Reader, WireDecode, WireEncode, WireError, WireWrite};

macro_rules! id_u64 {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        wire_record!($name { 0 });
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

id_u64! {
    /// A registered grid user.
    UserId
}
id_u64! {
    /// One login of a user ("the session ends on logout").
    SessionId
}
id_u64! {
    /// A computing server (XtremWeb worker).
    ServerId
}
id_u64! {
    /// A coordinator replica.
    CoordId
}

/// Name of a stateless service (the function identifier of an RPC).
///
/// An immutable, reference-counted string: one job's life copies its
/// service name into the job row, every task instance, every `Assign` and
/// every replication row, and a grid typically runs a handful of distinct
/// services — so a clone is a refcount bump, never a heap copy.  Building
/// one from `&str`/`String` (or decoding one off the wire) allocates, so a
/// producer of many calls builds each name once and clones it per call.
/// Derefs to `str`, and travels on the wire as a plain length-prefixed
/// string.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceName(std::sync::Arc<str>);

impl ServiceName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for ServiceName {
    fn default() -> Self {
        ServiceName::from("")
    }
}

impl From<&str> for ServiceName {
    fn from(s: &str) -> Self {
        ServiceName(s.into())
    }
}

impl From<String> for ServiceName {
    fn from(s: String) -> Self {
        ServiceName(s.into())
    }
}

impl std::ops::Deref for ServiceName {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for ServiceName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for ServiceName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl std::fmt::Debug for ServiceName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for ServiceName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self)
    }
}

impl WireEncode for ServiceName {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_str(self);
    }
}

impl WireDecode for ServiceName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.get_str()?.into())
    }
}

/// A client instance: `(user, session)`.
///
/// Different client program instances (possibly on different IPs) with the
/// same key are the *same* logical client and may resume each other's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientKey {
    /// Owning user.
    pub user: UserId,
    /// Login session.
    pub session: SessionId,
}

impl ClientKey {
    /// Convenience constructor.
    pub fn new(user: u64, session: u64) -> Self {
        ClientKey { user: UserId(user), session: SessionId(session) }
    }

    /// Packs into the `u64` peer key used by `rpcv-log`'s `PeerLog`
    /// (32-bit user / 32-bit session — desktop-grid populations are far
    /// below either bound).
    pub fn as_peer(&self) -> u64 {
        (self.user.0 << 32) | (self.session.0 & 0xffff_ffff)
    }

    /// The coordinator shard owning this client's job space:
    /// `hash(ClientKey) % shards`.
    ///
    /// Every party (clients, servers, coordinators, the store-level routing
    /// proptest) must agree on this function, so it lives next to the key it
    /// hashes.  The mixer is the splitmix64 finalizer
    /// ([`rpcv_wire::mix64`]) — deterministic, stable across platforms, and
    /// unbiased enough that sequentially numbered users spread across shards
    /// instead of striping.
    pub fn shard_of(&self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        (rpcv_wire::mix64(self.as_peer()) % shards as u64) as usize
    }
}

wire_record!(ClientKey { user, session });

impl std::fmt::Display for ClientKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}s{}", self.user.0, self.session.0)
    }
}

/// The paper's full RPC identity: `(user, session, rpc-sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobKey {
    /// Submitting client.
    pub client: ClientKey,
    /// The client's unique submission counter value (its "timestamp").
    pub seq: u64,
}

impl JobKey {
    /// Convenience constructor.
    pub fn new(client: ClientKey, seq: u64) -> Self {
        JobKey { client, seq }
    }
}

wire_record!(JobKey { client, seq });

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.client, self.seq)
    }
}

/// A task instance id: allocating coordinator in the top 16 bits, local
/// counter below, so replicas allocate disjoint id spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub u64);

impl TaskId {
    /// Composes a task id from the allocating coordinator and its counter.
    pub fn compose(coord: CoordId, counter: u64) -> Self {
        debug_assert!(coord.0 < (1 << 16), "coordinator id must fit 16 bits");
        debug_assert!(counter < (1 << 48), "task counter must fit 48 bits");
        TaskId((coord.0 << 48) | (counter & 0x0000_ffff_ffff_ffff))
    }

    /// The allocating coordinator.
    pub fn coord(&self) -> CoordId {
        CoordId(self.0 >> 48)
    }

    /// The allocator-local counter.
    pub fn counter(&self) -> u64 {
        self.0 & 0x0000_ffff_ffff_ffff
    }
}

wire_record!(TaskId { 0 });

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}.{}", self.coord().0, self.counter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_wire::{from_bytes, to_bytes};

    #[test]
    fn ids_roundtrip() {
        let k = JobKey::new(ClientKey::new(7, 3), 42);
        let back: JobKey = from_bytes(&to_bytes(&k)).unwrap();
        assert_eq!(back, k);
        let t = TaskId::compose(CoordId(5), 1234);
        let back: TaskId = from_bytes(&to_bytes(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn service_name_is_a_shared_string() {
        let a = ServiceName::from("netsim/eval");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "clone shares the allocation");
        assert_eq!(a, ServiceName::from(String::from("netsim/eval")));
        assert_eq!(a, "netsim/eval");
        assert_eq!(format!("{a} {a:?}"), "netsim/eval \"netsim/eval\"");
        assert!(ServiceName::default().is_empty());
        // On the wire it is a plain length-prefixed string.
        assert_eq!(to_bytes(&a), to_bytes(&String::from("netsim/eval")));
        let back: ServiceName = from_bytes(&to_bytes(&a)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn task_id_compose_decompose() {
        let t = TaskId::compose(CoordId(3), 999);
        assert_eq!(t.coord(), CoordId(3));
        assert_eq!(t.counter(), 999);
        // Different coordinators allocate disjoint spaces.
        let a = TaskId::compose(CoordId(1), 5);
        let b = TaskId::compose(CoordId(2), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn client_key_peer_packing_is_injective_for_small_ids() {
        let a = ClientKey::new(1, 2).as_peer();
        let b = ClientKey::new(2, 1).as_peer();
        assert_ne!(a, b);
    }

    #[test]
    fn shard_assignment_is_pinned() {
        // Every party routes by this function: a client must never move.
        const TWO: [usize; 16] = [1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 1];
        const FOUR: [usize; 16] = [3, 1, 2, 3, 2, 2, 0, 0, 3, 3, 1, 1, 0, 1, 3, 1];
        for (shards, table) in [(2, TWO), (4, FOUR)] {
            let got: Vec<usize> = (1..=16).map(|u| ClientKey::new(u, 1).shard_of(shards)).collect();
            assert_eq!(got, table, "{shards} shards");
        }
    }

    #[test]
    fn jobkey_orders_by_client_then_seq() {
        let a = JobKey::new(ClientKey::new(1, 1), 9);
        let b = JobKey::new(ClientKey::new(1, 2), 1);
        let c = JobKey::new(ClientKey::new(1, 2), 2);
        assert!(a < b && b < c);
    }

    #[test]
    fn displays() {
        assert_eq!(ClientKey::new(1, 2).to_string(), "u1s2");
        assert_eq!(JobKey::new(ClientKey::new(1, 2), 3).to_string(), "u1s2:3");
        assert_eq!(TaskId::compose(CoordId(1), 7).to_string(), "t1.7");
    }
}
