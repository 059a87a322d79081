//! The one checkpointed run loop: step, maybe write, report progress,
//! repeat — shared by the library runners, the `fleet` CLI, and the
//! daemon's jobs.
//!
//! A run implements [`Steppable`]; a checkpoint writer implements
//! [`CheckpointSink`]. [`drive`] owns everything between them: the
//! write-index counter (fault plans key corruption and disk faults on
//! it), the write cadence, the final write, and the rule that disk
//! incidents are held back until after the last write — so no
//! checkpoint ever embeds this process's own disk-fault history, and a
//! resume cannot double-count replayed writes. Opening the run (fresh,
//! strict resume, or fall back over corrupt generations) stays the
//! caller's choice. [`BackgroundSink`] moves any sink onto a writer
//! thread of its own, so writes overlap the steps that follow them.

use std::ops::ControlFlow;

use dh_fault::{DegradedReport, FaultPlan};

use crate::supervise::RetryPolicy;

/// How a step is supervised: faults from `plan` are injected, and
/// panicking shards are retried per `retry` and quarantined on
/// exhaustion.
#[derive(Debug, Clone, Copy)]
pub struct Supervision<'a> {
    /// The fault plan (`None` injects nothing).
    pub plan: Option<&'a FaultPlan>,
    /// Attempts per shard before quarantine.
    pub retry: &'a RetryPolicy,
}

/// A run [`drive`] can step and checkpoint.
pub trait Steppable {
    /// What a checkpoint write carries: encoded bytes, or a snapshot a
    /// writer thread encodes.
    type Checkpoint;
    /// The run's error type.
    type Error;

    /// Advances by up to `units` work units — strict without
    /// `supervision`, fault-tolerant with it — and returns whether the
    /// run is complete.
    ///
    /// # Errors
    ///
    /// Whatever aborts a strict step.
    fn step_units(
        &mut self,
        units: u64,
        supervision: Option<Supervision<'_>>,
    ) -> Result<bool, Self::Error>;

    /// The current state as a checkpoint.
    fn checkpoint(&self) -> Self::Checkpoint;

    /// The run's degraded report, where [`drive`] folds disk incidents.
    fn degraded_mut(&mut self) -> &mut DegradedReport;
}

/// Where [`drive`] sends checkpoints.
pub trait CheckpointSink<C, E> {
    /// Writes checkpoint number `write_index` and returns the disk
    /// incidents it survived (empty when the write is deferred to a
    /// writer thread).
    ///
    /// # Errors
    ///
    /// A genuine I/O failure; injected faults are incidents, not errors.
    fn write(&mut self, checkpoint: C, write_index: u64) -> Result<DegradedReport, E>;

    /// Waits for deferred writes and returns the incidents they
    /// survived.
    ///
    /// # Errors
    ///
    /// A deferred write's I/O failure.
    fn finish(&mut self) -> Result<DegradedReport, E> {
        Ok(DegradedReport::default())
    }
}

/// A checkpoint sink and its cadence: write after every `n`-th step.
pub type Checkpoints<'a, C, E> = (&'a mut dyn CheckpointSink<C, E>, u64);

/// What a [`BackgroundSink`] thread hands back when it exits.
type WriterResult<E> = Result<DegradedReport, E>;

/// A [`BackgroundSink`] writer thread panicked; the checkpoint it was
/// writing, and any queued behind it, are lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriterPanicked {
    /// The panic message.
    pub message: String,
}

/// Runs any [`CheckpointSink`] on a writer thread of its own, so the
/// stepping thread hands a checkpoint over and moves on while the
/// thread writes it.
///
/// Checkpoints travel over a bounded channel with `queued` slots: one
/// is being written and at most `queued` wait behind it (`0` is a
/// rendezvous hand-over). A further write blocks until the thread
/// catches up, which bounds the memory in flight. The thread writes in
/// hand-over order with the caller's write indices, so the files it
/// leaves are the ones the wrapped sink would leave inline.
///
/// Disk incidents come back from [`CheckpointSink::finish`], which
/// drains the queue and joins the thread. A write's I/O error stops the
/// thread; it surfaces at the next [`CheckpointSink::write`] or at
/// `finish`, and the checkpoint that discovers it is lost with it.
/// Dropping the sink drains it too, discarding the result. A panic on
/// the writer thread ends it like an I/O error does: it surfaces as the
/// sink's error type, through `E: From<`[`WriterPanicked`]`>`.
#[derive(Debug)]
pub struct BackgroundSink<C, E> {
    tx: Option<std::sync::mpsc::SyncSender<(C, u64)>>,
    handle: Option<std::thread::JoinHandle<WriterResult<E>>>,
}

impl<C: Send + 'static, E: Send + 'static> BackgroundSink<C, E> {
    /// Moves `sink` onto a writer thread named `name` with `queued`
    /// waiting slots.
    ///
    /// # Panics
    ///
    /// If the OS refuses to spawn the thread.
    pub fn spawn(
        name: &str,
        queued: usize,
        mut sink: impl CheckpointSink<C, E> + Send + 'static,
    ) -> Self {
        let (tx, rx) = std::sync::mpsc::sync_channel::<(C, u64)>(queued);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let mut disk = DegradedReport::default();
                for (checkpoint, write_index) in rx {
                    disk.absorb(sink.write(checkpoint, write_index)?);
                }
                disk.absorb(sink.finish()?);
                Ok(disk)
            })
            .expect("failed to spawn checkpoint writer thread");
        Self {
            tx: Some(tx),
            handle: Some(handle),
        }
    }
}

impl<C, E> BackgroundSink<C, E> {
    /// Closes the queue and joins the thread (a no-op once joined).
    fn drain(&mut self) -> Option<std::thread::Result<WriterResult<E>>> {
        self.tx = None;
        self.handle.take().map(std::thread::JoinHandle::join)
    }
}

impl<C, E: From<WriterPanicked>> CheckpointSink<C, E> for BackgroundSink<C, E> {
    /// Hands `checkpoint` to the thread; blocks only while every slot is
    /// full.
    ///
    /// # Panics
    ///
    /// After [`CheckpointSink::finish`].
    fn write(&mut self, checkpoint: C, write_index: u64) -> Result<DegradedReport, E> {
        let tx = self.tx.as_ref().expect("checkpoint write after finish");
        if tx.send((checkpoint, write_index)).is_ok() {
            return Ok(DegradedReport::default());
        }
        // The thread only hangs up early when a write failed or panicked.
        Err(self
            .finish()
            .expect_err("the checkpoint writer exited with its queue open"))
    }

    fn finish(&mut self) -> Result<DegradedReport, E> {
        match self.drain() {
            Some(Ok(result)) => result,
            Some(Err(payload)) => Err(WriterPanicked {
                message: crate::supervise::panic_message(payload),
            }
            .into()),
            None => Ok(DegradedReport::default()),
        }
    }
}

impl<C, E> Drop for BackgroundSink<C, E> {
    fn drop(&mut self) {
        // Let in-flight writes land so the files stay consistent; the
        // result has nowhere to go.
        let _ = self.drain();
    }
}

/// How a [`drive`] call ended.
#[derive(Debug, Clone, Default)]
pub struct Driven {
    /// The step hook stopped the run before it completed.
    pub cancelled: bool,
    /// Disk incidents the checkpoint writes survived. On completion they
    /// are also folded into the run's degraded report.
    pub disk: DegradedReport,
}

/// Steps `run` by `units` until it completes or `on_step` breaks.
///
/// With `checkpoints = Some((sink, every))`, a checkpoint is written
/// after every `every`-th step (`0`: none in between) and after the
/// final one. `on_step` runs after each step and its write; a
/// [`ControlFlow::Break`] stops the run there (ignored on the final
/// step, which has nothing left to cancel). The sink is drained either
/// way; on completion its disk incidents join `run`'s degraded report.
///
/// # Errors
///
/// The first step or write error; the sink is left to its `Drop`.
pub fn drive<R: Steppable>(
    run: &mut R,
    units: u64,
    supervision: Option<Supervision<'_>>,
    mut checkpoints: Option<Checkpoints<'_, R::Checkpoint, R::Error>>,
    mut on_step: impl FnMut(&R) -> ControlFlow<()>,
) -> Result<Driven, R::Error> {
    let mut driven = Driven::default();
    let mut write_index = 0u64;
    let mut steps = 0u64;
    loop {
        let done = run.step_units(units, supervision)?;
        steps += 1;
        if let Some((sink, every)) = &mut checkpoints {
            if done || (*every > 0 && steps.is_multiple_of(*every)) {
                driven
                    .disk
                    .absorb(sink.write(run.checkpoint(), write_index)?);
                write_index += 1;
            }
        }
        let flow = on_step(run);
        if done {
            break;
        }
        if flow.is_break() {
            driven.cancelled = true;
            break;
        }
    }
    if let Some((sink, _)) = checkpoints {
        driven.disk.absorb(sink.finish()?);
    }
    if !driven.cancelled {
        run.degraded_mut().absorb(driven.disk.clone());
    }
    Ok(driven)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts to `total`; checkpoints are the count.
    #[derive(Default)]
    struct Counter {
        at: u64,
        total: u64,
        degraded: DegradedReport,
    }

    impl Steppable for Counter {
        type Checkpoint = u64;
        type Error = String;
        fn step_units(&mut self, units: u64, _: Option<Supervision<'_>>) -> Result<bool, String> {
            self.at = (self.at + units).min(self.total);
            Ok(self.at == self.total)
        }
        fn checkpoint(&self) -> u64 {
            self.at
        }
        fn degraded_mut(&mut self) -> &mut DegradedReport {
            &mut self.degraded
        }
    }

    /// Records `(write_index, checkpoint)` and reports one disk incident
    /// per write.
    #[derive(Default)]
    struct Log(Vec<(u64, u64)>);

    impl CheckpointSink<u64, String> for Log {
        fn write(&mut self, at: u64, write_index: u64) -> Result<DegradedReport, String> {
            self.0.push((write_index, at));
            Ok(DegradedReport {
                retention_trims: 1,
                ..DegradedReport::default()
            })
        }
    }

    fn counter(total: u64) -> Counter {
        Counter {
            total,
            ..Counter::default()
        }
    }

    #[test]
    fn writes_every_nth_step_plus_the_final_one() {
        let mut run = counter(7);
        let mut log = Log::default();
        let driven = drive(&mut run, 1, None, Some((&mut log, 3)), |_| {
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(log.0, vec![(0, 3), (1, 6), (2, 7)]);
        assert!(!driven.cancelled);
        assert_eq!(driven.disk.retention_trims, 3);
        assert_eq!(run.degraded.retention_trims, 3, "absorbed on completion");
    }

    #[test]
    fn a_break_stops_after_the_step_and_keeps_incidents_out_of_the_run() {
        let mut run = counter(10);
        let mut log = Log::default();
        let mut seen = Vec::new();
        let driven = drive(&mut run, 2, None, Some((&mut log, 1)), |r| {
            seen.push(r.at);
            if r.at >= 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(seen, vec![2, 4]);
        assert_eq!(log.0, vec![(0, 2), (1, 4)]);
        assert!(driven.cancelled);
        assert_eq!(driven.disk.retention_trims, 2);
        assert!(!run.degraded.is_degraded());
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Panicked(String);

    impl From<WriterPanicked> for Panicked {
        fn from(e: WriterPanicked) -> Self {
            Self(e.message)
        }
    }

    /// Panics on any checkpoint past 1.
    struct Fragile;

    impl CheckpointSink<u64, Panicked> for Fragile {
        fn write(&mut self, at: u64, _: u64) -> Result<DegradedReport, Panicked> {
            assert!(at < 2, "disk on fire at {at}");
            Ok(DegradedReport::default())
        }
    }

    #[test]
    fn a_writer_thread_panic_surfaces_as_the_sink_error() {
        let mut sink = BackgroundSink::spawn("test-ckpt", 0, Fragile);
        for at in 0..3 {
            // A rendezvous hand-over succeeds once the thread takes it.
            assert_eq!(sink.write(at, at), Ok(DegradedReport::default()));
        }
        let fired = Panicked("disk on fire at 2".into());
        assert_eq!(sink.write(3, 3), Err(fired.clone()), "the next write");
        assert_eq!(sink.finish(), Ok(DegradedReport::default()), "joined");

        let mut sink = BackgroundSink::spawn("test-ckpt", 1, Fragile);
        assert_eq!(sink.write(2, 0), Ok(DegradedReport::default()));
        assert_eq!(sink.finish(), Err(fired), "the final drain");
    }

    #[test]
    fn the_final_step_completes_even_when_the_hook_breaks() {
        let mut run = counter(2);
        let driven = drive(&mut run, 5, None, None, |_| ControlFlow::Break(())).unwrap();
        assert!(!driven.cancelled);
        assert_eq!(run.at, 2);
    }
}
