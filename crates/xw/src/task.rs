//! Tasks: coordinator-side instances of jobs.
//!
//! "the client submits jobs on the coordinator, which are translated as
//! tasks (instances of jobs) and forwarded to the server" (§4.2).  A job
//! may have several task instances over its lifetime: re-executions after
//! server suspicion, redundant replicas (extension), or duplicated
//! executions caused by system asynchrony — at-least-once semantics make
//! all of these safe.

use rpcv_simnet::SimTime;
use rpcv_wire::{wire_record, Blob, Reader, WireDecode, WireEncode, WireError, WireWrite};

use crate::ids::{JobKey, ServerId, ServiceName, TaskId};

/// Scheduling state of a task instance.
///
/// "tasks are replicated among coordinators with their state (finished,
/// ongoing, pending)" (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskState {
    /// Awaiting dispatch.
    #[default]
    Pending,
    /// Dispatched to a server.
    Ongoing {
        /// Executing server.
        server: ServerId,
        /// Dispatch instant.
        since: SimTime,
    },
    /// Result registered.
    Finished {
        /// Result archive size in bytes.
        result_size: u64,
    },
}

impl TaskState {
    /// Short name for traces and experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            TaskState::Pending => "pending",
            TaskState::Ongoing { .. } => "ongoing",
            TaskState::Finished { .. } => "finished",
        }
    }

    /// True for `Finished`.
    pub fn is_finished(&self) -> bool {
        matches!(self, TaskState::Finished { .. })
    }
}

impl WireEncode for TaskState {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            TaskState::Pending => w.put_u8(0),
            TaskState::Ongoing { server, since } => {
                w.put_u8(1);
                server.encode(w);
                w.put_uvarint(since.0);
            }
            TaskState::Finished { result_size } => {
                w.put_u8(2);
                w.put_uvarint(*result_size);
            }
        }
    }
}

impl WireDecode for TaskState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(TaskState::Pending),
            1 => Ok(TaskState::Ongoing {
                server: ServerId::decode(r)?,
                since: SimTime(r.get_uvarint()?),
            }),
            2 => Ok(TaskState::Finished { result_size: r.get_uvarint()? }),
            tag => Err(WireError::InvalidTag { ty: "TaskState", tag: tag as u64 }),
        }
    }
}

/// What a server needs to execute one task instance.
///
/// "The server receives the task description along with the command line
/// and file archive and launches the execution of the corresponding
/// executable" (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDesc {
    /// Instance id (embeds the allocating coordinator).
    pub id: TaskId,
    /// The job this instance executes.
    pub job: JobKey,
    /// Instance number for this job (0 = first attempt).
    pub attempt: u32,
    /// Service to invoke.
    pub service: ServiceName,
    /// Command line.
    pub cmdline: String,
    /// Parameters / input archive.
    pub params: Blob,
    /// Declared execution cost (work-units) for the simulator.
    pub exec_cost: f64,
    /// Expected result size (workload model).
    pub result_size_hint: u64,
    /// Checkpointable work-unit count (extension; `1` = atomic task).  A
    /// server executing an N-unit task can snapshot progress at unit
    /// boundaries; a successor instance resumes from the job's highest
    /// durable unit instead of unit zero.
    pub work_units: u32,
}

impl TaskDesc {
    /// Work-unit count with the ≥ 1 floor applied (a descriptor decoded
    /// from an old peer may carry 0).
    pub fn units(&self) -> u32 {
        self.work_units.max(1)
    }
}

wire_record!(TaskDesc {
    id,
    job,
    attempt,
    service,
    cmdline,
    params,
    exec_cost,
    result_size_hint,
    work_units
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientKey, CoordId};
    use rpcv_wire::{from_bytes, to_bytes};

    #[test]
    fn state_roundtrips() {
        for s in [
            TaskState::Pending,
            TaskState::Ongoing { server: ServerId(4), since: SimTime::from_secs(9) },
            TaskState::Finished { result_size: 777 },
        ] {
            let back: TaskState = from_bytes(&to_bytes(&s)).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn state_names() {
        assert_eq!(TaskState::Pending.name(), "pending");
        assert!(!TaskState::Pending.is_finished());
        assert!(TaskState::Finished { result_size: 0 }.is_finished());
    }

    #[test]
    fn desc_roundtrips() {
        let d = TaskDesc {
            id: TaskId::compose(CoordId(1), 5),
            job: JobKey::new(ClientKey::new(1, 1), 9),
            attempt: 2,
            service: "svc".into(),
            cmdline: "run".into(),
            params: Blob::synthetic(2048, 3),
            exec_cost: 12.5,
            result_size_hint: 100,
            work_units: 16,
        };
        let back: TaskDesc = from_bytes(&to_bytes(&d)).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.units(), 16);
    }

    #[test]
    fn units_floor_at_one() {
        let mut d = TaskDesc {
            id: TaskId::compose(CoordId(1), 1),
            job: JobKey::new(ClientKey::new(1, 1), 1),
            attempt: 0,
            service: "svc".into(),
            cmdline: String::new(),
            params: Blob::empty(),
            exec_cost: 1.0,
            result_size_hint: 1,
            work_units: 0,
        };
        assert_eq!(d.units(), 1);
        d.work_units = 7;
        assert_eq!(d.units(), 7);
    }

    #[test]
    fn invalid_state_tag_rejected() {
        assert!(matches!(
            from_bytes::<TaskState>(&[9]),
            Err(WireError::InvalidTag { ty: "TaskState", .. })
        ));
    }
}
