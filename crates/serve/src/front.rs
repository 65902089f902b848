//! The serving front's admission rule and lifecycle, in one state machine.
//!
//! [`FrontState`] holds all the front decides by — the queue of lone misses
//! waiting for the worker, the pipeline runs in flight (a worker batch or
//! an inline lone miss) and the lifecycle phase — and its transitions are
//! pure: no lock, condvar, clock or thread. Each answers what the calling
//! thread does next. The threads of [`crate::batch`] call them under the
//! front's mutex and touch the state no other way; the explorer below
//! drives the same transitions through seeded interleavings.
//!
//! The rule: a submission's misses run on the calling thread, except a
//! lone miss that meets a busy front (something queued or in flight),
//! which rides the queue so concurrent single-graph clients share stacked
//! forwards. The lifecycle: open, then closing at shutdown (the worker
//! answers what is queued, then exits) or failed when the worker dies
//! (what is queued is refused); neither admits anything.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::ServeConfig;
use autoce::AdvisorError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A lone miss's claim: on an idle front, now busy with it, run `Inline`
/// on the calling thread, then [`FrontState::release`]; on a busy one,
/// [`FrontState::enqueue`] it to `Queue` for the worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Claim {
    Inline,
    Queue,
}

/// Where the worker stands in filling a batch, the input of
/// [`FrontState::drain`]: nothing taken yet; drained once, then yielded so
/// clients just answered can enqueue; or straggling under a nonzero
/// `batch_deadline`, which may have `passed` (one too far to represent
/// never does).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fill {
    Empty,
    Yielded,
    Straggling { passed: bool },
}

/// The worker's next move: `Sleep` until a request comes (or, straggling,
/// the deadline passes), then drain again; `Exit` (closed, nothing
/// queued); `Yield`, then drain as [`Fill::Yielded`]; `Straggle`: drain as
/// [`Fill::Straggling`]; `Run` the closed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Work {
    Sleep,
    Exit,
    Yield,
    Straggle,
    Run,
}

pub(crate) struct FrontState<T> {
    items: VecDeque<T>,
    in_flight: usize,
    /// The lifecycle phase, as what a submission meets: `None` while open,
    /// then `ShuttingDown` (closing) or `WorkerFailed` (failed).
    refusal: Option<AdvisorError>,
    /// Mirrors `refusal.is_none()` so a cache hit never takes the front's
    /// lock; only [`Self::close`] and [`Self::fail`] write it.
    open: Arc<AtomicBool>,
    max_batch: usize,
    capacity: usize,
    /// A nonzero `batch_deadline`: batches wait for stragglers.
    straggle: bool,
}

impl<T> FrontState<T> {
    pub(crate) fn new(cfg: &ServeConfig) -> Self {
        FrontState {
            items: VecDeque::new(),
            in_flight: 0,
            refusal: None,
            open: Arc::new(AtomicBool::new(true)),
            max_batch: cfg.max_batch,
            capacity: cfg.queue_capacity,
            straggle: !cfg.batch_deadline.is_zero(),
        }
    }

    pub(crate) fn open(&self) -> Arc<AtomicBool> {
        self.open.clone()
    }

    fn refuse(&mut self, refusal: AdvisorError) {
        self.refusal = Some(refusal);
        self.open.store(false, Ordering::Release);
    }

    /// The submit transition: a submission — hit or miss, lone or burst —
    /// is admitted only while the front is open (read lock-free through
    /// [`Self::open`] first). A lone miss goes on to [`Self::claim`];
    /// nothing else asks more of the front.
    pub(crate) fn submit(&self) -> Result<(), AdvisorError> {
        self.refusal.clone().map_or(Ok(()), Err)
    }

    /// A lone miss claims the front: inline if idle, else the queue.
    pub(crate) fn claim(&mut self) -> Result<Claim, AdvisorError> {
        self.submit()?;
        if self.items.is_empty() && self.in_flight == 0 {
            self.in_flight += 1;
            return Ok(Claim::Inline);
        }
        Ok(Claim::Queue)
    }

    /// A run leaves the front: an inline lone miss answered (or unwound),
    /// or a worker batch voted, before its first reply.
    pub(crate) fn release(&mut self) {
        self.in_flight -= 1;
    }

    /// Queues `make()` (made only now: its queue wait starts here) and
    /// answers `None`: wake the worker once unlocked, await the reply. A full
    /// queue hands `make` back: wake the worker, park on space, retry.
    pub(crate) fn enqueue<F: FnOnce() -> T>(&mut self, make: F) -> Result<Option<F>, AdvisorError> {
        self.submit()?;
        if self.items.len() >= self.capacity {
            return Ok(Some(make));
        }
        self.items.push_back(make());
        Ok(None)
    }

    /// Moves queued items into `batch`, up to `max_batch`; the worker's
    /// first take holds the front busy until [`Self::release`]. The batch
    /// closes when full, after the yield's re-drain under a zero deadline,
    /// or — straggling — once the deadline passed or the front closed.
    /// Answers the worker's next move, and whether space was freed: then
    /// it wakes the submitters parked on a full queue, once unlocked.
    pub(crate) fn drain(&mut self, batch: &mut Vec<T>, fill: Fill) -> (Work, bool) {
        let take = (self.max_batch - batch.len()).min(self.items.len());
        if take > 0 && matches!(fill, Fill::Empty) {
            self.in_flight += 1;
        }
        batch.extend(self.items.drain(..take));
        let open = self.refusal.is_none();
        let next = match fill {
            _ if batch.len() == self.max_batch => Work::Run,
            Fill::Empty if take > 0 => Work::Yield,
            Fill::Empty if open => Work::Sleep,
            Fill::Empty => Work::Exit,
            Fill::Yielded if self.straggle => Work::Straggle,
            Fill::Straggling { .. } if take > 0 => Work::Straggle,
            Fill::Straggling { passed: false } if open => Work::Sleep,
            Fill::Yielded | Fill::Straggling { .. } => Work::Run,
        };
        (next, take > 0)
    }

    /// Shutdown; a failed front stays failed. The caller wakes everyone.
    pub(crate) fn close(&mut self) {
        if self.refusal.is_none() {
            self.refuse(AdvisorError::ShuttingDown);
        }
    }

    /// The worker died: hands back what was queued, for the caller to drop
    /// (their submitters read `WorkerFailed`) before it wakes everyone.
    pub(crate) fn fail(&mut self) -> VecDeque<T> {
        self.refuse(AdvisorError::WorkerFailed);
        std::mem::take(&mut self.items)
    }
}

#[cfg(test)]
mod explore;
