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
//! caller's choice.

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

    #[test]
    fn the_final_step_completes_even_when_the_hook_breaks() {
        let mut run = counter(2);
        let driven = drive(&mut run, 5, None, None, |_| ControlFlow::Break(())).unwrap();
        assert!(!driven.cancelled);
        assert_eq!(run.at, 2);
    }
}
