//! Replication deltas: the "abstract of its state" a coordinator sends to
//! its ring successor.
//!
//! Paper §4.2: "Regularly (with the 'heart beat' signal), a coordinator
//! sends an abstract of its state to the successor in the list" and
//! "tasks are replicated among coordinators with their state (finished,
//! ongoing, pending) ... there is no replication of file archives".
//! Client timestamp marks ride along: "Between two coordinators, the
//! synchronization exchanges maximum timestamps for all known clients."
//!
//! The delta is a *complete* description of coordinator knowledge: besides
//! job descriptions and task states it carries collection
//! acknowledgements ([`DeltaRow::Collected`]) — a client's durable "I hold
//! this result" — so a successor promoted after a primary failure neither
//! re-executes nor re-acquires archives for work that was already
//! delivered.  Rows are typed ([`DeltaRow`]) and emitted in the sender's
//! version order, which guarantees a job row always precedes the task and
//! collected rows that reference it.
//!
//! A feed from base 0 is the bootstrap of a peer that holds nothing (a
//! joiner, a wiped disk, a base that fell below the retention floor), so
//! it is *complete*: it leads with one [`DeltaRow::Retired`] row per
//! client — the summary of everything retention pruned — ahead of every
//! live row.  A feed from a base above 0 carries none.

use rpcv_wire::{wire_enum, wire_record, Blob};
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, TaskId, TaskState};

/// Replicated view of one task row.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Instance id.
    pub id: TaskId,
    /// Owning job.
    pub job: JobKey,
    /// Attempt number.
    pub attempt: u32,
    /// Scheduling state.
    pub state: TaskState,
    /// Coordinator that created the instance.
    pub origin: CoordId,
}

wire_record!(TaskRecord { id, job, attempt, state, origin });

/// One typed row of a replication delta, in the sender's version order.
///
/// Wire shape: a one-byte tag followed by the row payload — the
/// `wire_enum!` table below is the format.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaRow {
    /// A job description created since the base version — carries the RPC
    /// parameter payload, which is why Fig. 5's replication time grows
    /// with RPC data size.
    Job(JobSpec),
    /// A task row created or state-changed since the base version.
    Task(TaskRecord),
    /// A client's maximum registered submission timestamp that moved since
    /// the base version (marks are versioned rows in the sender's change
    /// index, like jobs and tasks).
    Mark {
        /// The client.
        client: ClientKey,
        /// Its registration high-water mark.
        mark: u64,
    },
    /// The client durably acknowledged collecting `job`'s result (archive
    /// flagged for GC, or already reclaimed).  Delivered is not missing:
    /// a receiver must never re-execute or re-acquire this job.
    Collected {
        /// The delivered job.
        job: JobKey,
    },
    /// `job`'s checkpoint moved since the base version: the unit
    /// high-water mark a successor instance may resume from, with the
    /// resume state.  Checkpoint knowledge is a versioned row like any
    /// other — a steady-state round carries only the checkpoints that
    /// moved — and merges monotonically (a lower mark never wins), so a
    /// promoted successor inherits every resume point O(changed).
    Ckpt {
        /// The checkpointed job.
        job: JobKey,
        /// Units completed and durable.
        unit_hw: u32,
        /// Opaque resume state.
        blob: Blob,
    },
    /// Every seq `1..=through` of `client` was delivered and had its rows
    /// pruned at the sender.  Only a from-zero feed carries these, before
    /// any other row: the receiver treats the prefix as collected knowledge
    /// without ever holding a row for it, and prunes any row of it that it
    /// still holds, so nothing the sender retired lingers as a zombie.
    Retired {
        /// The client.
        client: ClientKey,
        /// Its retired watermark at the sender.
        through: u64,
    },
}

wire_enum!(DeltaRow {
    0 => Job { 0: spec },
    1 => Task { 0: rec },
    2 => Mark { client, mark },
    3 => Collected { job },
    4 => Ckpt { job, unit_hw, blob },
    5 => Retired { client, through },
});

/// A versioned state delta from one coordinator to another.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplicationDelta {
    /// Sender.
    pub from: CoordId,
    /// Sender's version the receiver is assumed to hold.
    pub base_version: u64,
    /// Sender's version after this delta.
    pub head_version: u64,
    /// Everything that changed since `base_version`, as typed rows in the
    /// sender's version order (a job row precedes its task/collected rows).
    pub rows: Vec<DeltaRow>,
}

impl ReplicationDelta {
    /// True when the delta carries no changes.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows carried.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Job descriptions carried.
    pub fn jobs(&self) -> impl Iterator<Item = &JobSpec> {
        self.rows.iter().filter_map(|r| match r {
            DeltaRow::Job(spec) => Some(spec),
            _ => None,
        })
    }

    /// Task records carried.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskRecord> {
        self.rows.iter().filter_map(|r| match r {
            DeltaRow::Task(rec) => Some(rec),
            _ => None,
        })
    }

    /// Client timestamp marks carried.
    pub fn marks(&self) -> impl Iterator<Item = (ClientKey, u64)> + '_ {
        self.rows.iter().filter_map(|r| match r {
            DeltaRow::Mark { client, mark } => Some((*client, *mark)),
            _ => None,
        })
    }

    /// Collection acknowledgements carried.
    pub fn collected(&self) -> impl Iterator<Item = JobKey> + '_ {
        self.rows.iter().filter_map(|r| match r {
            DeltaRow::Collected { job } => Some(*job),
            _ => None,
        })
    }

    /// Checkpoint rows carried: `(job, unit high-water mark, state)`.
    pub fn ckpts(&self) -> impl Iterator<Item = (JobKey, u32, &Blob)> + '_ {
        self.rows.iter().filter_map(|r| match r {
            DeltaRow::Ckpt { job, unit_hw, blob } => Some((*job, *unit_hw, blob)),
            _ => None,
        })
    }

    /// Retired watermarks carried: `(client, through)`.
    pub fn retired(&self) -> impl Iterator<Item = (ClientKey, u64)> + '_ {
        self.rows.iter().filter_map(|r| match r {
            DeltaRow::Retired { client, through } => Some((*client, *through)),
            _ => None,
        })
    }
}

wire_record!(ReplicationDelta { from, base_version, head_version, rows });

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_wire::{from_bytes, to_bytes, WireEncode, WireError};

    fn delta() -> ReplicationDelta {
        ReplicationDelta {
            from: CoordId(1),
            base_version: 0,
            head_version: 25,
            rows: vec![
                DeltaRow::Retired { client: ClientKey::new(2, 1), through: 3 },
                DeltaRow::Job(JobSpec::new(
                    JobKey::new(ClientKey::new(1, 1), 4),
                    "svc",
                    Blob::synthetic(5000, 2),
                )),
                DeltaRow::Task(TaskRecord {
                    id: TaskId::compose(CoordId(1), 9),
                    job: JobKey::new(ClientKey::new(1, 1), 4),
                    attempt: 0,
                    state: TaskState::Pending,
                    origin: CoordId(1),
                }),
                DeltaRow::Mark { client: ClientKey::new(1, 1), mark: 4 },
                DeltaRow::Collected { job: JobKey::new(ClientKey::new(1, 1), 3) },
                DeltaRow::Ckpt {
                    job: JobKey::new(ClientKey::new(1, 1), 4),
                    unit_hw: 12,
                    blob: Blob::synthetic(2000, 8),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let d = delta();
        let bytes = to_bytes(&d);
        let back: ReplicationDelta = from_bytes(&bytes).unwrap();
        assert_eq!(back, d);
        // Golden bytes: a field swapped in both directions still round-trips.
        assert_eq!(
            (bytes.len(), rpcv_wire::crc64(&bytes), d.transfer_len()),
            (63, 0xddd7_7185_18a2_afc5, 7063),
            "one row of every tag, in a from-zero feed: 63 B + 5000 B params + 2000 B ckpt state"
        );
    }

    #[test]
    fn typed_accessors_partition_the_rows() {
        let d = delta();
        assert_eq!(d.len(), 6);
        assert_eq!(d.retired().collect::<Vec<_>>(), vec![(ClientKey::new(2, 1), 3)]);
        assert_eq!(d.jobs().count(), 1);
        assert_eq!(d.tasks().count(), 1);
        assert_eq!(d.marks().collect::<Vec<_>>(), vec![(ClientKey::new(1, 1), 4)]);
        assert_eq!(d.collected().collect::<Vec<_>>(), vec![JobKey::new(ClientKey::new(1, 1), 3)]);
        let ckpts: Vec<(JobKey, u32, u64)> = d.ckpts().map(|(j, hw, b)| (j, hw, b.len())).collect();
        assert_eq!(ckpts, vec![(JobKey::new(ClientKey::new(1, 1), 4), 12, 2000)]);
    }

    #[test]
    fn transfer_counts_params_and_ckpt_state() {
        let d = delta();
        assert_eq!(
            d.transfer_len(),
            d.encoded_len() + 5000 + 2000,
            "the frame, the params payload and the checkpoint state"
        );
        assert!(d.encoded_len() < 200, "frame overhead should stay small");
    }

    #[test]
    fn empty_delta() {
        let d = ReplicationDelta { from: CoordId(0), ..Default::default() };
        assert!(d.is_empty());
        assert!(!delta().is_empty());
    }

    #[test]
    fn collected_rows_are_cheap_on_the_wire() {
        let d = ReplicationDelta {
            from: CoordId(1),
            base_version: 0,
            head_version: 100,
            rows: (1..=64u64)
                .map(|seq| DeltaRow::Collected { job: JobKey::new(ClientKey::new(1, 1), seq) })
                .collect(),
        };
        // A collection ack is a tag plus a job key: a steady-state round
        // acknowledging a whole collection window stays well under 1 KB.
        assert!(d.transfer_len() < 1024, "got {}", d.transfer_len());
    }

    #[test]
    fn invalid_row_tag_rejected() {
        // from(1) + base(10) + head(25) + rows len 1 + bad tag 9.
        let bytes = [1u8, 10, 25, 1, 9];
        assert!(matches!(
            from_bytes::<ReplicationDelta>(&bytes),
            Err(WireError::InvalidTag { ty: "DeltaRow", tag: 9 })
        ));
    }
}
