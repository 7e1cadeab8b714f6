//! The kernel event queue's memory gate: arena slots and live heap while an
//! open-loop arrival schedule drains.
//!
//! An open-loop run hands the kernel its whole arrival schedule up front,
//! client by client, so the arena's chunks fill in injection order, not
//! time order: every chunk holds arrivals from across the whole schedule,
//! and without compaction a chunk is released only when its latest event
//! leaves.  This test injects 200 clients × 250 arrivals, client-major,
//! spread evenly over 120 s of virtual time (past the calendar ring's
//! ≈ 4.1 s horizon, so they are far events), into a bare world of idle
//! actors, then runs it in 10 s steps.  At every step it holds:
//!
//! - the arena within the compaction bound: allocated slots ≤ 1.25 × the
//!   queued events + 2 chunks (without compaction, every chunk stays
//!   allocated until the last 2 % of the schedule: at t = 65 s, half the
//!   arrivals gone, 50 % of the slots are free, and at t = 115 s, 92 %);
//! - the live heap — blocks allocated, minus blocks freed, plus every
//!   `realloc`'s size delta, counted on this thread — never above its
//!   reading after the injection, nor above its reading at the previous
//!   step, by more than one chunk: at its peak between steps, not only at
//!   the step, so a compaction that held a second arena would fail it.
//!
//! The world is deterministic and the counts are requested sizes, so the
//! readings repeat exactly on any machine.  One test only: the counter is
//! per-thread.

use rpcv_simnet::*;

#[path = "../../../tests/support/meter.rs"]
mod meter;

#[global_allocator]
static ALLOCATOR: meter::Meter = meter::Meter;

const CLIENTS: u64 = 200;
const ARRIVALS: u64 = 250;
const HOSTS: u64 = 8;

/// A call as a client's plan carries it.
struct Call(#[allow(dead_code)] [u64; 8]);
impl WireSized for Call {
    fn wire_size(&self) -> u64 {
        64
    }
}

/// A host that takes every call and does nothing with it.
struct Idle;
impl Actor<Call> for Idle {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Call>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Call>, _from: NodeId, _msg: Call) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Call>, _id: TimerId, _kind: u64) {}
}

/// Arrival `k` of `client`: evenly spaced over 5 s..125 s, each client a
/// little out of phase with the last.
fn arrival(client: u64, k: u64) -> SimTime {
    SimTime::from_millis(5_000 + k * 480) + SimDuration::from_micros(client * 2_399)
}

#[test]
fn queue_memory_follows_the_backlog() {
    meter::start();
    let mut w = World::<Call>::new(7);
    let hosts: Vec<NodeId> =
        (0..HOSTS).map(|i| w.add_host(HostSpec::named(format!("h{i}")))).collect();
    for &h in &hosts {
        w.install(h, |_| Box::new(Idle));
    }
    // Client-major, as an open-loop plan is injected.
    for client in 0..CLIENTS {
        for k in 0..ARRIVALS {
            w.inject(arrival(client, k), hosts[(client % HOSTS) as usize], Call([k; 8]));
        }
    }
    let injected = meter::mark_peak();
    let a = w.queue_audit().expect("the calendar kernel");
    let chunk_bytes = (a.chunk_slots * a.slot_bytes) as i64;
    println!(
        "queue budget: {} events in {} chunks of {} × {} B; {} heap bytes after injection",
        w.queue_len(),
        a.chunks,
        a.chunk_slots,
        a.slot_bytes,
        injected
    );
    for step in 1..=13 {
        let before = meter::mark_peak();
        w.run_until(SimTime::from_secs(10 * step));
        let a = w.queue_audit().expect("the calendar kernel");
        let (live, slots) = (w.queue_len(), a.chunks * a.chunk_slots);
        let peak = meter::peak();
        println!(
            "t = {:>3} s: {live:>5} queued, {slots:>5} slots ({:>3.0} % free), heap {:>8}, \
             peak {peak:>8}, {} compactions",
            10 * step,
            100.0 * a.free_slots as f64 / slots as f64,
            meter::live(),
            a.compactions
        );
        assert_eq!(a.live_slots + a.free_slots, slots, "{a:?}");
        assert!(
            slots <= live + live / 4 + 2 * a.chunk_slots,
            "t = {} s: {slots} arena slots for {live} queued events exceed 1.25 × + 2 chunks",
            10 * step
        );
        assert!(
            peak <= before.min(injected) + chunk_bytes,
            "t = {} s: the live heap peaked at {peak} B, above {} B ten seconds before \
             ({injected} B after injection) plus one {chunk_bytes} B chunk",
            10 * step,
            before
        );
    }
    meter::stop();
    assert_eq!(w.queue_len(), 0, "the schedule drained");
    assert!(w.queue_audit().expect("the calendar kernel").compactions > 0);
}
