//! Epoch barriers and checkpoints: the runtime half of the compiler's
//! [`epochs`](mscclang::passes::epochs) pass.
//!
//! The pass proves per-block watermark vectors at which no message is in
//! flight and no semaphore wait spans the frontier; [`schedule`]
//! (`mscclang::passes::epochs::schedule`) turns them into monotonic
//! per-block completed-instruction *targets*. Tasks count completed
//! instruction instances anyway (it is the semaphore encoding), so hitting
//! a boundary costs one comparison per instruction.
//!
//! The barrier is **non-blocking** so it composes with the work-stealing
//! scheduler: a task whose position reaches a boundary target calls
//! [`EpochState::arrive`] and, unless it was the last arriver, suspends on
//! the boundary's gate key in the scheduler's wait table — the worker
//! thread moves on to other runnable tasks instead of parking. The **last
//! arriver** is the designated snapshotter: with every task suspended at a
//! verifier-checked consistent cut, rank memory alone is the complete
//! distributed state, and one [`RankMemory::snapshot_into`] pass per rank
//! captures it into recycled staging buffers. Publication is guarded
//! against tearing by *invalidate-then-write*: the previous checkpoint is
//! unpublished before the first byte of the new one is copied, so a fault
//! mid-snapshot degrades recovery to a full retry but can never surface a
//! half-written snapshot as resumable. Cancellation observed at the gate
//! skips the snapshot entirely (the gate still releases, so suspended
//! tasks wake, observe the cancellation, and unwind).
//!
//! On failure the latest published checkpoint travels out in
//! [`EpochStatus`]; the recovery ladder feeds it back as a *resume*: rank
//! memory is restored, each task starts at its watermark, FIFO sequence
//! numbers and semaphore values are re-derived from the watermarks, and
//! FIFOs restart empty because nothing crossed the cut.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::cancel::CancelToken;
use crate::memory::{RankMemory, SpaceBuffers};
use crate::semaphore::Semaphore;

/// A published epoch checkpoint: everything needed to resume a failed run
/// from its last consistent cut instead of from scratch. Produced by
/// [`run`](crate::run) on transient failure (in
/// [`RunReport::epochs`](crate::RunReport::epochs)) and consumed by the
/// next attempt's [`Run::resume`](crate::Run::resume) — which is what the
/// recovery ladder's *resume* decision does.
pub struct EpochCheckpoint {
    /// Index of the boundary this checkpoint was taken at, within the
    /// run's boundary schedule.
    pub(crate) boundary: usize,
    /// The boundary's per-block completed-instruction targets
    /// `[rank][tb]` — the watermarks workers restart at.
    pub(crate) targets: Vec<Vec<u64>>,
    /// Each rank's snapshotted spaces, in rank order.
    pub(crate) memories: Vec<SpaceBuffers>,
    /// Total instruction instances the checkpoint covers (the sum of
    /// `targets`) — what a resume skips.
    pub(crate) instructions: u64,
}

impl EpochCheckpoint {
    /// Index of the boundary the checkpoint was taken at.
    #[must_use]
    pub fn boundary(&self) -> usize {
        self.boundary
    }

    /// Instruction instances the checkpoint covers — the work a resume
    /// does not redo.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }
}

impl std::fmt::Debug for EpochCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCheckpoint")
            .field("boundary", &self.boundary)
            .field("instructions", &self.instructions)
            .field("ranks", &self.memories.len())
            .finish()
    }
}

/// What the epoch subsystem observed during one execution attempt.
#[derive(Debug, Default)]
pub struct EpochStatus {
    /// Boundaries the run's schedule placed (0 when epochs are off or the
    /// Auto cost model declined to checkpoint).
    pub boundaries: usize,
    /// Checkpoints published during this attempt (excluding a re-seeded
    /// resume checkpoint).
    pub epochs_completed: u64,
    /// Instruction instances skipped by resuming (0 on a fresh start).
    pub steps_resumed: u64,
    /// Instruction instances actually executed by this attempt, partial
    /// progress of a failed attempt included.
    pub executed: u64,
    /// The latest published checkpoint, present only when the attempt
    /// failed transiently with a checkpoint to resume from.
    pub checkpoint: Option<EpochCheckpoint>,
}

/// One boundary's barrier: an arrival counter and a release latch, both
/// built on the runtime's monotonic [`Semaphore`]. Neither side blocks:
/// the scheduler suspends non-last arrivers on the gate's wait key and
/// probes [`released`](Gate::released) on wakeup.
struct Gate {
    arrived: Semaphore,
    released: Semaphore,
}

/// The staging slot checkpoints are written into. One set of buffers
/// serves the whole run: a newer checkpoint overwrites the older one
/// (invalidate-then-write, see the module docs).
struct CheckpointSlot {
    buffers: Vec<SpaceBuffers>,
    /// Boundary index of the checkpoint currently held, if any.
    published: Option<usize>,
    /// Instruction instances that checkpoint covers.
    instructions: u64,
    /// Checkpoints published during this run (resume re-seeding excluded).
    fresh: u64,
}

/// Shared state of one epoch-enabled execution: the schedule, the gates,
/// the staging slot, and per-task progress counters that survive a
/// task's death (the error path reads them for `steps_redone`
/// accounting).
pub(crate) struct EpochState {
    /// Per-boundary targets `[boundary][rank][tb]`.
    boundaries: Vec<Vec<Vec<u64>>>,
    num_workers: u64,
    gates: Vec<Gate>,
    /// Every rank's memory, for the designated snapshotter.
    memories: Vec<Arc<RankMemory>>,
    slot: Mutex<CheckpointSlot>,
    /// Absolute completed-instruction position per task, updated with a
    /// relaxed store each instruction. Seeded with the resume watermarks
    /// so `sum - start_total` is executed work even for tasks that die
    /// before their first store.
    progress: Vec<AtomicU64>,
}

impl EpochState {
    /// Builds the state for a run with `boundaries` scheduled over
    /// `memories.len()` ranks and `num_workers` thread blocks. `staging`
    /// provides one [`SpaceBuffers`] per rank (recycled from an arena or
    /// a consumed resume checkpoint; grown on first use otherwise).
    pub(crate) fn new(
        boundaries: Vec<Vec<Vec<u64>>>,
        num_workers: usize,
        memories: Vec<Arc<RankMemory>>,
        staging: Vec<SpaceBuffers>,
        starts: &[Vec<u64>],
    ) -> Self {
        let gates = (0..boundaries.len())
            .map(|_| Gate {
                arrived: Semaphore::new(),
                released: Semaphore::new(),
            })
            .collect();
        let progress = starts
            .iter()
            .flat_map(|g| g.iter().map(|&s| AtomicU64::new(s)))
            .collect();
        Self {
            boundaries,
            num_workers: num_workers as u64,
            gates,
            memories,
            slot: Mutex::new(CheckpointSlot {
                buffers: staging,
                published: None,
                instructions: 0,
                fresh: 0,
            }),
            progress,
        }
    }

    /// Re-seeds the slot with a consumed resume checkpoint so that an
    /// attempt failing before any *new* boundary still hands the same
    /// checkpoint back out. Call before the workers start.
    pub(crate) fn seed_resume(&self, boundary: usize, instructions: u64) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.published = Some(boundary);
        slot.instructions = instructions;
    }

    /// This task's per-boundary targets, cloned out for the hot loop.
    pub(crate) fn targets_for(&self, rank: usize, tb: usize) -> Vec<u64> {
        self.boundaries.iter().map(|b| b[rank][tb]).collect()
    }

    /// Records `completed` as task `worker`'s absolute position.
    pub(crate) fn note_progress(&self, worker: usize, completed: u64) {
        self.progress[worker].store(completed, Ordering::Relaxed);
    }

    /// Registers the calling task's arrival at boundary `b` without
    /// blocking. Returns `true` iff this was the **last** arrival: the
    /// snapshot has been taken (unless cancellation already tripped) and
    /// the gate released — the caller must then wake every task suspended
    /// on the boundary's gate key. On `false` the caller suspends until
    /// [`is_released`](Self::is_released) holds.
    pub(crate) fn arrive(&self, b: usize, cancel: &CancelToken) -> bool {
        let gate = &self.gates[b];
        if gate.arrived.increment() < self.num_workers {
            return false;
        }
        // Every task is suspended at a verifier-checked consistent cut:
        // FIFOs drained, inboxes empty, semaphores quiesced — rank memory
        // is the complete state. Snapshot it — unless a failure tripped
        // cancellation, in which case the memories may be mid-epoch
        // somewhere and must not be published.
        if !cancel.is_cancelled() {
            let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
            // Invalidate-then-write: no torn snapshot can ever be
            // published, at worst the previous checkpoint is lost.
            slot.published = None;
            for (mem, snap) in self.memories.iter().zip(slot.buffers.iter_mut()) {
                mem.snapshot_into(snap);
            }
            slot.published = Some(b);
            slot.instructions = self.boundaries[b].iter().flatten().sum();
            slot.fresh += 1;
        }
        gate.released.set(1);
        true
    }

    /// Whether boundary `b`'s gate has been released — the readiness
    /// probe for tasks suspended at the gate.
    pub(crate) fn is_released(&self, b: usize) -> bool {
        self.gates[b].released.current() >= 1
    }

    /// Tears the state down after the workers have joined, producing the
    /// attempt's [`EpochStatus`] plus any staging buffers to recycle.
    ///
    /// `start_total` is the resume watermark sum (0 fresh); `failed`
    /// selects whether the held checkpoint should travel out (failure)
    /// or its buffers be recycled (success — there is nothing to resume).
    pub(crate) fn finish(self, start_total: u64, failed: bool) -> (EpochStatus, Vec<SpaceBuffers>) {
        let executed: u64 = self
            .progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .sum::<u64>()
            .saturating_sub(start_total);
        let slot = self
            .slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let mut status = EpochStatus {
            boundaries: self.boundaries.len(),
            epochs_completed: slot.fresh,
            steps_resumed: start_total,
            executed,
            checkpoint: None,
        };
        if failed {
            if let Some(b) = slot.published {
                status.checkpoint = Some(EpochCheckpoint {
                    boundary: b,
                    targets: self.boundaries[b].clone(),
                    memories: slot.buffers,
                    instructions: slot.instructions,
                });
                return (status, Vec::new());
            }
        }
        (status, slot.buffers)
    }
}

/// A task's epoch context: the shared state plus this task's slice of
/// the schedule, carried through the interpreter loop. Boundary targets
/// are indexed by the task's *flat spawn order*, which is stable however
/// the scheduler migrates the task between worker threads — watermark
/// accounting is scheduler-invariant.
pub(crate) struct WorkerEpoch {
    pub(crate) state: Arc<EpochState>,
    /// This task's target per boundary (monotonic).
    pub(crate) targets: Vec<u64>,
    /// Next boundary to arrive at.
    pub(crate) next: usize,
    /// Flat task index (spawn order) for progress notes.
    pub(crate) worker: usize,
}

impl WorkerEpoch {
    /// Called after every completed instruction (and once at start, for
    /// resumed tasks already sitting on a boundary): records progress and
    /// reports the boundary this position lands on, if any. The caller
    /// then runs the arrive/suspend protocol and acknowledges with
    /// [`passed`](Self::passed) once through the gate.
    pub(crate) fn boundary_due(&mut self, completed: u64) -> Option<usize> {
        self.state.note_progress(self.worker, completed);
        if self.next < self.targets.len() && self.targets[self.next] <= completed {
            debug_assert_eq!(
                self.targets[self.next], completed,
                "task overshot an epoch boundary"
            );
            return Some(self.next);
        }
        None
    }

    /// Marks the current boundary as passed. Call exactly once per
    /// boundary reported by [`boundary_due`](Self::boundary_due), after
    /// the gate released. The next `boundary_due` probe (at the same
    /// `completed` position) then reports the following boundary if its
    /// target coincides.
    pub(crate) fn passed(&mut self) {
        self.next += 1;
    }
}
