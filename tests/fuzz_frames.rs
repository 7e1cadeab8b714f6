//! Frame-corruption fuzzing: every byte of a small frame corpus is
//! flipped and the damaged bytes are pushed through the digest envelope,
//! the decoder, and into live actors.  On the modelled wire every frame
//! travels digest-sealed (`body ‖ crc64(body)`), so corruption must
//! surface as the typed [`Msg::Corrupt`] poison — counted by every
//! actor's `bad_frames` metric, never a panic, never a partial state
//! change, and never a garbled-but-decodable forgery.

use proptest::prelude::*;
use rpcv::core::grid::{GridSpec, SimGrid};
use rpcv::core::msg::{Msg, RpcResult};
use rpcv::obs::TelemetrySnapshot;
use rpcv::simnet::{SimDuration, SimTime};
use rpcv::store::{DeltaRow, ReplicationDelta, TaskRecord};
use rpcv::wire::{from_bytes, open_frame, seal_frame, to_bytes, Blob, WireError};
use rpcv::xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId, TaskId, TaskState};

/// Small representative frames (no `Corrupt`: that is the poison the
/// flips below must produce, so the poison accounting stays exact).
fn corpus() -> Vec<Msg> {
    let key = ClientKey::new(1, 2);
    vec![
        Msg::ClientBeat { client: key, max_seq: 9, collected: vec![1, 2], catalog_seq: 17 },
        Msg::SubmitAck { job: JobKey::new(key, 3), coord_max: 3, epoch: 9 },
        Msg::ClientSyncReply {
            coord_max: 5,
            epoch: 9,
            catalog_base: 17,
            catalog_head: 41,
            available: vec![(1, 100), (2, 5000)],
            removed: vec![3],
        },
        Msg::ResultsReply {
            results: vec![RpcResult { job: JobKey::new(key, 1), archive: Blob::synthetic(64, 5) }],
        },
        Msg::ServerBeat {
            server: ServerId(3),
            want_work: 1,
            running: vec![TaskId(7)],
            offered: vec![JobKey::new(key, 1)],
        },
        Msg::TaskDone {
            server: ServerId(3),
            task: TaskId(7),
            job: JobKey::new(key, 1),
            archive: Blob::synthetic(5000, 2),
        },
        Msg::NoWork,
        Msg::TaskDoneAck { task: TaskId(7), job: JobKey::new(key, 1) },
        Msg::NeedArchives { jobs: vec![JobKey::new(key, 1)] },
        Msg::ArchivesSettled { jobs: vec![JobKey::new(key, 2)] },
        Msg::CkptAck { task: TaskId(7), job: JobKey::new(key, 1), unit_hw: 24 },
        // The coordinator ↔ coordinator frame, as a bootstrap sends it: a
        // from-zero feed with one row of every `DeltaRow` tag.
        Msg::ReplDelta {
            delta: ReplicationDelta {
                from: CoordId(2),
                base_version: 0,
                head_version: 9,
                rows: vec![
                    DeltaRow::Retired { client: key, through: 2 },
                    DeltaRow::Job(JobSpec::new(
                        JobKey::new(key, 3),
                        "svc",
                        Blob::synthetic(700, 6),
                    )),
                    DeltaRow::Task(TaskRecord {
                        id: TaskId(7),
                        job: JobKey::new(key, 3),
                        attempt: 0,
                        state: TaskState::Finished { result_size: 64 },
                        origin: CoordId(2),
                    }),
                    DeltaRow::Mark { client: key, mark: 3 },
                    DeltaRow::Collected { job: JobKey::new(key, 3) },
                    DeltaRow::Ckpt {
                        job: JobKey::new(key, 3),
                        unit_hw: 24,
                        blob: Blob::synthetic(2000, 4),
                    },
                ],
            },
            want_archives: vec![JobKey::new(key, 3)],
        },
        // An incremental round on a ring of three: it names its receiver's
        // incarnation (coordinator 3 lost its disk once), relays a row
        // coordinator 1 wrote, and marks the switch back to its own rows.
        Msg::ReplDelta {
            delta: ReplicationDelta {
                from: CoordId(2),
                base_version: 9,
                head_version: 12,
                rows: vec![
                    DeltaRow::Writer { coord: CoordId(3), incarnation: 35_000_000_000 },
                    DeltaRow::Writer { coord: CoordId(1), incarnation: 0 },
                    DeltaRow::Task(TaskRecord {
                        id: TaskId(8),
                        job: JobKey::new(key, 4),
                        attempt: 1,
                        state: TaskState::Ongoing { server: ServerId(3), since: SimTime(9) },
                        origin: CoordId(1),
                    }),
                    DeltaRow::Writer { coord: CoordId(2), incarnation: 0 },
                    DeltaRow::Mark { client: key, mark: 4 },
                ],
            },
            want_archives: vec![],
        },
        Msg::SnapshotRequest { from: CoordId(3), incarnation: 35_000_000_000 },
    ]
}

/// Bare decoder robustness (no envelope): every byte-flipped mutant
/// either decodes to a well-formed frame or fails with a typed error —
/// the decoder itself never panics.  Some flips *do* survive decoding,
/// which is exactly why the wire wraps frames in the digest envelope.
#[test]
fn every_byte_flip_decodes_or_fails_typed() {
    let mut ok = 0u64;
    let mut err = 0u64;
    for msg in corpus() {
        let bytes = to_bytes(&msg);
        for i in 0..bytes.len() {
            let mut mutant = bytes.clone();
            mutant[i] ^= 0xFF;
            match from_bytes::<Msg>(&mutant) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
    }
    assert!(err > 0, "some flips must break the encoding");
    assert!(ok > 0, "some flips must survive decoding");
}

/// The digest envelope closes the gap the decoder leaves open: every
/// byte-flipped mutant of a *sealed* frame — body or digest tail — is
/// rejected before the decoder ever runs.  CRC-64 detects all burst
/// errors up to 64 bits, so a single damaged byte can never forge a
/// well-formed frame.
#[test]
fn every_sealed_byte_flip_is_rejected() {
    let mut rejected = 0u64;
    for msg in corpus() {
        let sealed = seal_frame(to_bytes(&msg));
        for i in 0..sealed.len() {
            let mut mutant = sealed.clone();
            mutant[i] ^= 0xFF;
            match open_frame(&mutant).and_then(from_bytes::<Msg>) {
                Ok(m) => panic!("flip of sealed byte {i} forged a frame: {m:?}"),
                Err(_) => rejected += 1,
            }
        }
        // The pristine sealed frame still round-trips.
        assert_eq!(open_frame(&sealed).and_then(from_bytes::<Msg>).as_ref(), Ok(&msg));
    }
    assert!(rejected > 0);
}

/// Every sealed-frame mutant is delivered to a live client, coordinator
/// and server.  Because the envelope rejects every single-byte flip,
/// *every* mutant arrives as poison — so the `bad_frames` accounting is
/// exact: one count per delivery, `mutants × targets` in total, no actor
/// ever panics, and the coordinator's database — what a mutant of the
/// replication feed would have written to — does not move.
#[test]
fn actors_absorb_every_mutant_without_panicking() {
    let spec = GridSpec::confined(1, 2);
    let mut g = SimGrid::build(spec);

    let mut poison = 0u64;
    let mut at = SimTime::from_millis(1);
    let targets = [g.client_node, g.coords[0].1, g.servers[0].1];
    for msg in corpus() {
        let sealed = seal_frame(to_bytes(&msg));
        for i in 0..sealed.len() {
            let mut mutant = sealed.clone();
            mutant[i] ^= 0xFF;
            let delivered = match open_frame(&mutant).and_then(from_bytes::<Msg>) {
                Ok(m) => panic!("flip of sealed byte {i} forged a frame: {m:?}"),
                Err(_) => {
                    poison += 1;
                    Msg::Corrupt { len: mutant.len() as u64 }
                }
            };
            for &node in &targets {
                g.world.inject(at, node, delivered.clone());
            }
            at += SimDuration::from_millis(1);
        }
    }
    g.world.run_until(at + SimDuration::from_secs(30));

    let coord = g.coordinator(0).expect("coordinator up");
    assert_eq!((coord.db().version(), coord.db().retired_count()), (0, 0), "state untouched");
    let counted = g.client().expect("client up").metrics.bad_frames
        + coord.metrics.bad_frames
        + g.server(0).expect("server up").metrics.bad_frames
        + g.server(1).expect("server up").metrics.bad_frames;
    assert!(poison > 0, "the corpus must produce some poison");
    assert_eq!(
        counted,
        poison * targets.len() as u64,
        "every poison delivery is counted exactly once, nothing else is"
    );
}

/// The tag-25/26 introspection frames obey the same envelope discipline
/// as every other frame: a sealed `StatusReply` carries a payload that is
/// *itself* a CRC-64-sealed telemetry snapshot, and a single damaged byte
/// at either layer must surface as a typed rejection — never a forged
/// snapshot, never a panic.
#[test]
fn sealed_status_frames_absorb_every_byte_flip() {
    let mut snap = TelemetrySnapshot::new();
    snap.add_counter("coord.jobs", 7);
    snap.set_gauge("coord.shard", 3);
    snap.hist_mut("span.submit_to_collect").record_gap(SimDuration::from_millis(1234));
    let sealed_snap = snap.seal();

    // Inner envelope: every flip of the sealed snapshot fails typed.
    for i in 0..sealed_snap.len() {
        let mut mutant = sealed_snap.clone();
        mutant[i] ^= 0xFF;
        assert!(
            TelemetrySnapshot::open(&mutant).is_err(),
            "flip of sealed snapshot byte {i} must not forge a snapshot"
        );
    }
    assert_eq!(TelemetrySnapshot::open(&sealed_snap).as_ref(), Ok(&snap));

    // Outer envelope: every flip of the sealed status frames is rejected
    // before the decoder ever runs — request and reply alike.
    let frames = vec![
        Msg::StatusRequest { nonce: 41 },
        Msg::StatusReply { coord: CoordId(2), nonce: 41, sealed: Blob::from_vec(sealed_snap) },
    ];
    let mut rejected = 0u64;
    for msg in frames {
        let sealed = seal_frame(to_bytes(&msg));
        for i in 0..sealed.len() {
            let mut mutant = sealed.clone();
            mutant[i] ^= 0xFF;
            match open_frame(&mutant).and_then(from_bytes::<Msg>) {
                Ok(m) => panic!("flip of sealed byte {i} forged a status frame: {m:?}"),
                Err(_) => rejected += 1,
            }
        }
        // The pristine frame still round-trips.
        assert_eq!(open_frame(&sealed).and_then(from_bytes::<Msg>).as_ref(), Ok(&msg));
    }
    assert!(rejected > 0);
}

/// Tags that named a message once and are never reused.
const RETIRED_TAGS: [u8; 3] = [20, 23, 24];

proptest! {
    /// Garbage after any tag byte — every live tag and every retired one —
    /// decodes to a frame of that tag or fails with a typed error, and never
    /// panics.  No `Msg` holds a `Msg`, so the types bound the decoder's
    /// recursion depth: no tail can choose it.  CI runs this deep
    /// (`PROPTEST_CASES=4096`).
    #[test]
    fn garbage_after_any_tag_decodes_or_fails_typed(
        tail in proptest::collection::vec(any::<u8>(), 0..257),
    ) {
        let live = Msg::KINDS.iter().map(|&(tag, _)| tag);
        for tag in live.chain(RETIRED_TAGS) {
            let frame: Vec<u8> = std::iter::once(tag).chain(tail.iter().copied()).collect();
            let retired = RETIRED_TAGS.contains(&tag);
            match from_bytes::<Msg>(&frame) {
                Ok(msg) => prop_assert!(!retired && msg.tag() == tag, "tag {tag} read as {msg:?}"),
                Err(e) => {
                    let unknown = e == WireError::InvalidTag { ty: "Msg", tag: tag as u64 };
                    prop_assert!(unknown == retired, "tag {tag}: {e}");
                }
            }
        }
    }
}
