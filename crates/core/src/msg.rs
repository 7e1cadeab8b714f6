//! Protocol messages.
//!
//! All interactions are connection-less datagrams (paper §2.2): "for any
//! interaction with other system components, a connection is opened before
//! the communication and closed immediately after".  Clients and servers
//! always initiate; coordinators only reply (§4.2: "The coordinators only
//! reply to clients and servers requests").  Heartbeats double as sync
//! handshakes and work requests to keep traffic down.

use rpcv_ckpt::CheckpointFrame;
use rpcv_simnet::WireSized;
use rpcv_store::ReplicationDelta;
use rpcv_wire::{wire_enum, wire_record, Blob, Reader, WireDecode, WireEncode, WireError};
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId, ServiceName, TaskDesc, TaskId};

/// A finished RPC's result as shipped to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcResult {
    /// The finished job.
    pub job: JobKey,
    /// Result archive payload.
    pub archive: Blob,
}

wire_record!(RpcResult { job, archive });

/// Resume directive riding an [`Msg::Assign`]: the assigned instance
/// starts from `unit_hw` with `blob` as its restored state, instead of
/// from unit zero.  Carried inline with the assignment (not as a separate
/// datagram) so a successor can never observe the task without its resume
/// point on an asynchronous, reordering network.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeFrom {
    /// Units already completed and durable at the coordinator.
    pub unit_hw: u32,
    /// The checkpointed state to restore.
    pub blob: Blob,
}

wire_record!(ResumeFrom { unit_hw, blob });

/// Every RPC-V protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ----- client → coordinator ------------------------------------------------
    /// Client heartbeat; doubles as the synchronization handshake and the
    /// result-collection acknowledgement.
    ClientBeat {
        /// Sender identity.
        client: ClientKey,
        /// Client's highest submission timestamp (its log high-water mark).
        max_seq: u64,
        /// Result seqs durably collected since the last beat (coordinator
        /// marks them GC-eligible).
        collected: Vec<u64>,
        /// Catalog high-water mark: the coordinator catalog version this
        /// client already merged (0 = send everything).  Lets the reply
        /// carry only the catalog entries that changed since the last
        /// beat instead of re-shipping the full catalog every period.
        catalog_seq: u64,
    },
    /// One RPC submission (possibly a resend during synchronization).
    Submit {
        /// The job.
        spec: JobSpec,
    },
    /// Bulk resend during synchronization (client log replay).
    SubmitBatch {
        /// Jobs in timestamp order.
        specs: Vec<JobSpec>,
    },
    /// Client lost its state and asks for uncollected results explicitly.
    ResultsRequest {
        /// Requesting client.
        client: ClientKey,
        /// Seqs wanted.
        want: Vec<u64>,
    },

    // ----- coordinator → client (replies only) --------------------------------
    /// Acknowledges a registration (carries the coordinator's high-water
    /// mark so the client can GC/ack its log).
    SubmitAck {
        /// Registered job.
        job: JobKey,
        /// Coordinator's max registered seq for this client.
        coord_max: u64,
        /// Coordinator boot epoch: lets clients distinguish a reordered
        /// stale reply (same epoch, lower `coord_max`) from a coordinator
        /// that really lost state (new epoch).
        epoch: u64,
    },
    /// Reply to [`Msg::ClientBeat`]: sync info plus the list of available
    /// (uncollected) results.  Result *payloads* are pulled separately via
    /// [`Msg::ResultsRequest`] — "The client collects the RPC results by
    /// pulling the coordinator periodically" (§4.2); this two-phase shape
    /// is also what makes coordinator-side synchronization slower than
    /// client-side synchronization in Fig. 6.
    ClientSyncReply {
        /// Coordinator's max registered seq for this client.
        coord_max: u64,
        /// Coordinator boot epoch (see [`Msg::SubmitAck::epoch`]).
        epoch: u64,
        /// Catalog version this delta was computed *since* — the
        /// `catalog_seq` of the beat being answered.  The client applies
        /// the delta only if `catalog_base <=` its current high-water
        /// mark: a reply whose base is ahead of the mark has a gap below
        /// it (the mark was reset by a coordinator rebase while this
        /// reply — possibly a chaos-duplicated copy — was in flight),
        /// and merging it would skip catalog history forever.
        catalog_base: u64,
        /// Catalog version after this delta; the client echoes it as
        /// [`Msg::ClientBeat::catalog_seq`] on its next beat.
        catalog_head: u64,
        /// Result `(seq, size)` pairs that became available since the
        /// client's `catalog_seq` — a delta, not the full catalog; the
        /// client *merges* instead of rescanning.
        available: Vec<(u64, u64)>,
        /// Result seqs reclaimed (garbage-collected) since `catalog_seq`.
        removed: Vec<u64>,
    },
    /// Reply to [`Msg::ResultsRequest`].
    ResultsReply {
        /// The requested results that were available.
        results: Vec<RpcResult>,
    },

    // ----- server → coordinator -------------------------------------------------
    /// Server heartbeat; doubles as work request and archive offer.
    ServerBeat {
        /// Sender identity.
        server: ServerId,
        /// How many additional tasks the server can take now.
        want_work: u32,
        /// Tasks currently executing (liveness detail for the coordinator).
        running: Vec<TaskId>,
        /// Locally retained result archives not yet acknowledged by any
        /// coordinator — the server's half of the peer-wise log comparison.
        offered: Vec<JobKey>,
    },
    /// A finished task's result archive.
    TaskDone {
        /// Executing server.
        server: ServerId,
        /// Task instance.
        task: TaskId,
        /// Owning job.
        job: JobKey,
        /// Result archive.
        archive: Blob,
    },
    /// A running task's checkpoint, shipped as a CRC-64-verified frame
    /// (extension): the coordinator records the unit high-water mark so a
    /// successor instance on *any* server resumes there instead of at
    /// unit zero.
    CkptOffer {
        /// Uploading server.
        server: ServerId,
        /// The sealed checkpoint.
        frame: CheckpointFrame,
    },

    // ----- coordinator → server (replies only) ----------------------------------
    /// Work assignment; [`ResumeFrom`] rides along when the coordinator
    /// holds a durable checkpoint for the job.
    Assign {
        /// The task to execute.
        task: TaskDesc,
        /// Resume point, when one exists.
        resume: Option<ResumeFrom>,
    },
    /// Acknowledges a recorded checkpoint: the server may stop re-offering
    /// marks at or below `unit_hw` for this task.
    CkptAck {
        /// The checkpointed instance.
        task: TaskId,
        /// Owning job.
        job: JobKey,
        /// Unit high-water mark now durable at the coordinator.
        unit_hw: u32,
    },
    /// Nothing to do right now.
    NoWork,
    /// Result stored (the server may GC its archive copy).
    TaskDoneAck {
        /// Acknowledged task.
        task: TaskId,
        /// Owning job.
        job: JobKey,
    },
    /// Of the archives the server offered, these are needed here (missing
    /// archives after a failover — "servers to re-execute RPCs if their
    /// results are not accessible anymore on coordinators", §4.1; resending
    /// the retained archive avoids the re-execution).
    NeedArchives {
        /// Jobs whose archives should be re-sent.
        jobs: Vec<JobKey>,
    },
    /// Of the archives the server offered, these are settled: the result
    /// is already stored here or was durably delivered to the client
    /// (`Collected`), so the server's retained copy will never be
    /// requested.  Acknowledges the offer exactly like a `TaskDoneAck`
    /// would, letting the server's pessimistic log reclaim the archive —
    /// without this, a server whose original ack was lost to a
    /// coordinator crash would re-offer a delivered result forever.
    ArchivesSettled {
        /// Jobs the server may mark acknowledged.
        jobs: Vec<JobKey>,
    },

    // ----- coordinator ↔ coordinator ---------------------------------------------
    /// Passive-replication push to the ring successor.
    ReplDelta {
        /// The state delta.
        delta: ReplicationDelta,
        /// Jobs the *sender* knows finished but lacks archives for; the
        /// receiver answers with [`Msg::ReplArchives`] for those it holds.
        /// Archives are never replicated proactively (§4.2), but Fig. 11
        /// shows "the tasks and results flow from the client to the
        /// servers" through the coordinator pair — this is the pull side
        /// of that path.
        want_archives: Vec<JobKey>,
    },
    /// Acknowledgement of a received delta.
    ReplAck {
        /// Acknowledging coordinator.
        from: CoordId,
        /// Version now held.
        head_version: u64,
    },
    /// Result archives requested by a peer coordinator's `want_archives`.
    ReplArchives {
        /// Sending coordinator.
        from: CoordId,
        /// The archives.
        results: Vec<RpcResult>,
    },
    /// "My delta feed has a gap I cannot apply — reseed me from zero."
    /// Sent when a received delta's `base_version` is ahead of what the
    /// receiver has applied from this peer (the sender pruned rows the
    /// receiver never saw, or the receiver lost its disk).  The sender
    /// answers by clearing its ack record for the requester, which makes
    /// its next replication round a from-zero [`Msg::ReplDelta`].
    SnapshotRequest {
        /// Requesting coordinator.
        from: CoordId,
    },

    // ----- external (API / workload) ----------------------------------------------
    /// Injected by the GridRPC API layer or a workload driver: submit this
    /// job through the client actor.
    ApiSubmit {
        /// Service name.
        service: ServiceName,
        /// Parameters.
        params: Blob,
        /// Declared execution cost (work-units).
        exec_cost: f64,
        /// Expected result size.
        result_size: u64,
        /// Redundant-replication factor.
        replication: u32,
        /// Checkpointable work-unit count (1 = atomic).
        work_units: u32,
    },

    // ----- introspection -----------------------------------------------------------
    /// Pull a coordinator's live telemetry.  Injected by an external
    /// observer (bench harness, `LiveGrid` console) at a client, which
    /// forwards it to its current coordinator; the coordinator answers
    /// with a [`Msg::StatusReply`].  Replaces ad-hoc debug dumps with a
    /// queryable surface.
    StatusRequest {
        /// Correlates the reply with the request.
        nonce: u64,
    },
    /// Reply to [`Msg::StatusRequest`]: the coordinator's
    /// `TelemetrySnapshot`, wire-encoded and CRC-64 sealed (the same
    /// `seal_frame` discipline as checkpoints), so a corrupted snapshot
    /// can never masquerade as telemetry.
    StatusReply {
        /// Answering coordinator.
        coord: CoordId,
        /// Echo of the request nonce.
        nonce: u64,
        /// Sealed `rpcv_obs::TelemetrySnapshot` frame.
        sealed: Blob,
    },

    // ----- framing ----------------------------------------------------------------
    /// Several messages for the same destination sealed into one frame:
    /// one datagram (one header, one transfer) where the protocol would
    /// otherwise emit back-to-back sends from a single handler — e.g. a
    /// beat reply carrying both the needed and the settled half of an
    /// archive-offer verdict.  Receivers process parts in order exactly as
    /// if they had arrived as separate messages.  Parts are never nested
    /// batches.
    Batch {
        /// The bundled messages, in send order.
        parts: Vec<Msg>,
    },

    /// A frame whose bytes failed to decode at the receiver.  The chaos
    /// plane's bit-flipper substitutes this poison value when corruption
    /// breaks the encoding entirely; every actor counts it in its
    /// `bad_frames` metric and drops it without touching any other state.
    Corrupt {
        /// Byte length of the original (now unreadable) frame.
        len: u64,
    },
}

wire_enum!(Msg {
    0 => ClientBeat { client, max_seq, collected, catalog_seq },
    1 => Submit { spec },
    2 => SubmitBatch { specs },
    3 => ResultsRequest { client, want },
    4 => SubmitAck { job, coord_max, epoch },
    5 => ClientSyncReply { coord_max, epoch, catalog_base, catalog_head, available, removed },
    6 => ResultsReply { results },
    7 => ServerBeat { server, want_work, running, offered },
    8 => TaskDone { server, task, job, archive },
    9 => Assign { task, resume },
    10 => NoWork {},
    11 => TaskDoneAck { task, job },
    12 => NeedArchives { jobs },
    13 => ReplDelta { delta, want_archives },
    14 => ReplAck { from, head_version },
    15 => ApiSubmit { service, params, exec_cost, result_size, replication, work_units },
    16 => ReplArchives { from, results },
    17 => ArchivesSettled { jobs },
    18 => CkptOffer { server, frame },
    19 => CkptAck { task, job, unit_hw },
    20 => Batch { parts = decode_flat_parts },
    21 => Corrupt { len },
    22 => SnapshotRequest { from },
    25 => StatusRequest { nonce },
    26 => StatusReply { coord, nonce, sealed },
});

/// A batch's parts, refusing a nested batch *before* descending into it:
/// a batch inside a batch would let corrupted or hostile bytes choose the
/// decoder's recursion depth, and the protocol never produces one.
fn decode_flat_parts(r: &mut Reader<'_>) -> Result<Vec<Msg>, WireError> {
    let len = r.get_seq_len()?;
    let mut parts = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        // 20 is `Batch`'s row in the table above.
        if r.clone().get_u8()? == 20 {
            return Err(WireError::Nested { ty: "Msg::Batch" });
        }
        parts.push(Msg::decode(r)?);
    }
    Ok(parts)
}

impl WireSized for Msg {
    /// The bytes a send is charged: the frame plus the modelled payloads
    /// it stands for, from one counting pass.
    fn wire_size(&self) -> u64 {
        self.transfer_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_simnet::SimTime;
    use rpcv_store::{DeltaRow, TaskRecord};
    use rpcv_wire::{crc64, from_bytes, to_bytes};
    use rpcv_xw::TaskState;

    /// One row of every `DeltaRow` tag, with a task in every `TaskState`.
    fn delta_rows() -> Vec<DeltaRow> {
        let job = JobKey::new(ClientKey::new(1, 2), 1);
        let task = |n, state| {
            DeltaRow::Task(TaskRecord { id: TaskId(n), job, attempt: 1, state, origin: CoordId(1) })
        };
        vec![
            DeltaRow::Retired { client: ClientKey::new(2, 2), through: 5 },
            DeltaRow::Job(JobSpec::new(job, "svc", Blob::synthetic(700, 6)).with_work_units(60)),
            task(7, TaskState::Pending),
            task(8, TaskState::Ongoing { server: ServerId(3), since: SimTime::from_secs(9) }),
            task(9, TaskState::Finished { result_size: 64 }),
            DeltaRow::Mark { client: job.client, mark: 1 },
            DeltaRow::Collected { job },
            DeltaRow::Ckpt { job, unit_hw: 24, blob: Blob::synthetic(2000, 4) },
        ]
    }

    fn samples() -> Vec<Msg> {
        vec![
            Msg::ClientBeat {
                client: ClientKey::new(1, 2),
                max_seq: 9,
                collected: vec![1, 2],
                catalog_seq: 17,
            },
            Msg::Submit {
                spec: JobSpec::new(
                    JobKey::new(ClientKey::new(1, 2), 3),
                    "svc",
                    Blob::synthetic(100, 1),
                ),
            },
            Msg::SubmitBatch { specs: vec![] },
            Msg::ResultsRequest { client: ClientKey::new(1, 2), want: vec![4, 5] },
            Msg::SubmitAck { job: JobKey::new(ClientKey::new(1, 2), 3), coord_max: 3, epoch: 9 },
            Msg::ClientSyncReply {
                coord_max: 5,
                epoch: 9,
                catalog_base: 17,
                catalog_head: 41,
                available: vec![(1, 100), (2, 5000)],
                removed: vec![3],
            },
            Msg::ResultsReply {
                results: vec![RpcResult {
                    job: JobKey::new(ClientKey::new(1, 2), 1),
                    archive: Blob::from_vec(vec![1, 2, 3]),
                }],
            },
            Msg::ServerBeat {
                server: ServerId(3),
                want_work: 1,
                running: vec![TaskId(7)],
                offered: vec![JobKey::new(ClientKey::new(1, 2), 1)],
            },
            Msg::TaskDone {
                server: ServerId(3),
                task: TaskId(7),
                job: JobKey::new(ClientKey::new(1, 2), 1),
                archive: Blob::synthetic(5000, 2),
            },
            Msg::Assign {
                task: rpcv_xw::TaskDesc {
                    id: TaskId(7),
                    job: JobKey::new(ClientKey::new(1, 2), 1),
                    attempt: 1,
                    service: "svc".into(),
                    cmdline: String::new(),
                    params: Blob::synthetic(300, 3),
                    exec_cost: 60.0,
                    result_size_hint: 64,
                    work_units: 60,
                },
                resume: Some(ResumeFrom { unit_hw: 24, blob: Blob::synthetic(2000, 4) }),
            },
            Msg::CkptOffer {
                server: ServerId(3),
                frame: CheckpointFrame::seal(
                    JobKey::new(ClientKey::new(1, 2), 1),
                    TaskId(7),
                    0,
                    24,
                    60,
                    Blob::synthetic(2000, 4),
                ),
            },
            Msg::CkptAck {
                task: TaskId(7),
                job: JobKey::new(ClientKey::new(1, 2), 1),
                unit_hw: 24,
            },
            Msg::NoWork,
            Msg::TaskDoneAck { task: TaskId(7), job: JobKey::new(ClientKey::new(1, 2), 1) },
            Msg::NeedArchives { jobs: vec![JobKey::new(ClientKey::new(1, 2), 1)] },
            Msg::ArchivesSettled { jobs: vec![JobKey::new(ClientKey::new(1, 2), 2)] },
            Msg::ReplDelta {
                delta: ReplicationDelta {
                    from: CoordId(1),
                    base_version: 0,
                    head_version: 4,
                    rows: delta_rows(),
                },
                want_archives: vec![JobKey::new(ClientKey::new(1, 2), 1)],
            },
            Msg::ReplAck { from: CoordId(1), head_version: 42 },
            Msg::ReplArchives {
                from: CoordId(2),
                results: vec![RpcResult {
                    job: JobKey::new(ClientKey::new(1, 2), 2),
                    archive: Blob::synthetic(64, 5),
                }],
            },
            Msg::ApiSubmit {
                service: "svc".into(),
                params: Blob::empty(),
                exec_cost: 1.0,
                result_size: 10,
                replication: 1,
                work_units: 4,
            },
            Msg::Batch {
                parts: vec![
                    Msg::NeedArchives { jobs: vec![JobKey::new(ClientKey::new(1, 2), 1)] },
                    Msg::ArchivesSettled { jobs: vec![JobKey::new(ClientKey::new(1, 2), 2)] },
                ],
            },
            Msg::Corrupt { len: 77 },
            Msg::SnapshotRequest { from: CoordId(2) },
            Msg::StatusRequest { nonce: 7 },
            Msg::StatusReply {
                coord: CoordId(2),
                nonce: 7,
                sealed: Blob::from_vec(vec![0xAB; 40]),
            },
        ]
    }

    /// Tags that named a message once and are never reused (the notes under
    /// "Message tags" in `docs/ARCHITECTURE.md` say what they were).
    const RETIRED_TAGS: &[u8] = &[23, 24];

    #[test]
    fn samples_cover_every_tag() {
        let mut tags: Vec<u8> = samples().iter().map(|m| m.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        let table: Vec<u8> = Msg::KINDS.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(tags, table, "every tag needs a roundtrip sample");
        let last = *table.last().unwrap();
        let dense: Vec<u8> = (0..=last).filter(|tag| !RETIRED_TAGS.contains(tag)).collect();
        assert_eq!(table, dense, "tags are dense but for the retired ones, which stay retired");
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in samples() {
            let bytes = to_bytes(&msg);
            let back: Msg = from_bytes(&bytes).unwrap();
            assert_eq!(back, msg, "roundtrip failed for {}", msg.kind());
        }
    }

    /// `(kind, frame bytes, CRC-64 of the frame, wire_size)` per sample.
    /// A round-trip passes when a field moves in *both* directions; these
    /// constants do not.  A deliberate format change re-captures the table
    /// the failure prints.
    const GOLDEN: &[(&str, usize, u64, u64)] = &[
        ("ClientBeat", 8, 0x3e12_02cb_f0ae_95ce, 8),
        ("Submit", 23, 0x574b_8f12_69f6_51d3, 123),
        ("SubmitBatch", 2, 0xebc2_beb3_e8eb_b89d, 2),
        ("ResultsRequest", 6, 0xe3dd_3123_57ee_1ce9, 6),
        ("SubmitAck", 6, 0xdaa7_d287_0e58_7306, 6),
        ("ClientSyncReply", 13, 0x37ea_dbed_4dca_277e, 13),
        ("ResultsReply", 10, 0xea44_39c5_62e1_5606, 10),
        ("ServerBeat", 9, 0x9d6d_04b0_d20d_5b1d, 9),
        ("TaskDone", 10, 0x6a45_e3e8_aeda_24fe, 5010),
        ("Assign", 31, 0x15a4_df4d_e443_eefb, 2331),
        ("CkptOffer", 22, 0xf1d4_80b3_e088_89e9, 2022),
        ("CkptAck", 6, 0x1ba6_4308_798b_d777, 6),
        ("NoWork", 1, 0x1c88_102d_3339_2364, 1),
        ("TaskDoneAck", 5, 0x0def_e848_1097_1402, 5),
        ("NeedArchives", 5, 0x4792_3e87_e82e_2fd5, 5),
        ("ArchivesSettled", 5, 0x447e_9f22_a146_0cc3, 5),
        ("ReplDelta", 85, 0x4d45_dbc9_b744_6c2d, 2785),
        ("ReplAck", 3, 0xaebd_37ba_9a11_e683, 3),
        ("ReplArchives", 9, 0x2ec7_790b_55cc_d300, 73),
        ("ApiSubmit", 18, 0xd241_925c_163e_9284, 18),
        ("Batch", 12, 0x2be7_e468_3078_7c73, 12),
        ("Corrupt", 2, 0xac29_2542_1609_1c6e, 2),
        ("SnapshotRequest", 2, 0xfe7f_ba5a_b3cd_95b9, 2),
        ("StatusRequest", 2, 0x1ae5_cb5a_614c_f6a4, 2),
        ("StatusReply", 45, 0x3a41_e998_690d_f553, 45),
    ];

    #[test]
    fn sample_frames_are_byte_pinned() {
        let got: Vec<(&str, usize, u64, u64)> = samples()
            .iter()
            .map(|m| {
                let bytes = to_bytes(m);
                (m.kind(), bytes.len(), crc64(&bytes), m.wire_size())
            })
            .collect();
        assert_eq!(got, GOLDEN, "captured now: {got:?}");
    }

    #[test]
    fn wire_size_charges_synthetic_payloads() {
        let m = Msg::TaskDone {
            server: ServerId(1),
            task: TaskId(1),
            job: JobKey::default(),
            archive: Blob::synthetic(1_000_000, 0),
        };
        assert!(m.wire_size() >= 1_000_000, "payload must be charged");
        assert!(m.encoded_len() < 100, "frame itself stays small");
        // Inline payloads are charged exactly once.
        let m = Msg::TaskDone {
            server: ServerId(1),
            task: TaskId(1),
            job: JobKey::default(),
            archive: Blob::from_vec(vec![0; 1000]),
        };
        assert!(m.wire_size() >= 1000 && m.wire_size() < 1100);
    }

    #[test]
    fn heartbeat_is_small() {
        let m = Msg::ClientBeat {
            client: ClientKey::new(1, 1),
            max_seq: 1000,
            collected: vec![],
            catalog_seq: 1_000_000,
        };
        assert!(m.wire_size() < 32, "beats must stay cheap, got {}", m.wire_size());
    }

    #[test]
    fn nested_batch_rejected() {
        let inner = Msg::Batch { parts: vec![Msg::NoWork] };
        let outer = Msg::Batch { parts: vec![Msg::NoWork, inner] };
        let bytes = to_bytes(&outer);
        assert_eq!(
            from_bytes::<Msg>(&bytes),
            Err(WireError::Nested { ty: "Msg::Batch" }),
            "a batch containing a batch must be a typed decode error"
        );
        // A flat batch still roundtrips.
        let flat = Msg::Batch { parts: vec![Msg::NoWork, Msg::Corrupt { len: 3 }] };
        let back: Msg = from_bytes(&to_bytes(&flat)).unwrap();
        assert_eq!(back, flat);
    }

    #[test]
    fn invalid_tag_rejected() {
        for tag in [200].into_iter().chain(RETIRED_TAGS.iter().copied()) {
            assert_eq!(
                from_bytes::<Msg>(&[tag, 0]),
                Err(WireError::InvalidTag { ty: "Msg", tag: tag as u64 })
            );
        }
    }

    #[test]
    fn assign_and_offer_charge_checkpoint_state() {
        let samples = samples();
        let assign = samples.iter().find(|m| matches!(m, Msg::Assign { .. })).unwrap();
        // 300 B params + 2000 B resume state, both synthetic.
        assert!(assign.wire_size() >= 2300, "resume blob must be charged");
        let offer = samples.iter().find(|m| matches!(m, Msg::CkptOffer { .. })).unwrap();
        assert!(offer.wire_size() >= 2000, "checkpoint state must be charged");
        assert!(offer.encoded_len() < 100, "the frame itself stays small");
        // And the shipped frame still verifies after a wire roundtrip.
        let back: Msg = from_bytes(&to_bytes(offer)).unwrap();
        if let Msg::CkptOffer { frame, .. } = back {
            assert!(frame.verify().is_ok());
        } else {
            panic!("roundtrip changed the variant");
        }
    }

    /// `(tag, name)` of every row of the table under `heading` in
    /// `docs/ARCHITECTURE.md`.
    fn documented(heading: &str) -> Vec<(u8, &'static str)> {
        let doc: &'static str = include_str!("../../../docs/ARCHITECTURE.md");
        let section = doc.split(heading).nth(1).expect("the heading is there");
        let table = section.split("\n#").next().expect("split yields a first piece");
        (table.lines())
            .filter_map(|line| {
                let mut cells = line.split('|').map(str::trim);
                let tag = cells.nth(1)?.parse().ok()?;
                Some((tag, cells.next()?.trim_matches('`')))
            })
            .collect()
    }

    #[test]
    fn documented_tag_tables_match_the_code() {
        assert_eq!(documented("\n### Message tags\n"), Msg::KINDS);
        assert_eq!(documented("\n### Replication rows\n"), DeltaRow::KINDS);
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<&str> = Msg::KINDS.iter().map(|&(_, name)| name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
