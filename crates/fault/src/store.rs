//! The one checkpoint-generation store: a payload-agnostic file plus its
//! last `keep - 1` predecessors, written durably and injectable by a
//! [`FaultPlan`].
//!
//! `base` is the newest generation, `base.1` the one before it, and so
//! on. A write rotates `base ← base.1 ← base.2 …` and lands the new bytes
//! through a temp file, fsync, and atomic rename, so a kill mid-write
//! leaves the previous generation intact. A read walks the generations
//! newest-first and skips (and records) any that fail the caller's
//! decoder, so one corrupted write costs a replay window, never the run.
//!
//! Formats wrap this store with their own encode/decode; the store only
//! sees bytes. Its `obs` counters carry the wrapper's prefix
//! (`fleet.checkpoint_bytes`, `scenario.disk_fault_torn`, …).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::plan::FaultPlan;
use crate::report::{CheckpointFallback, DegradedReport, DiskFaultKind, DiskIncident};

/// The most generations a store keeps. Every write renames and every
/// resume probes each generation, so an unbounded `keep` from outside
/// the process would pin a thread in a syscall loop.
pub const MAX_KEEP: usize = 64;

/// How long an injected slow write stalls the writing thread — long
/// enough for heartbeat watchdogs to notice a pattern of them, short
/// enough not to dominate a chaos campaign.
const SLOW_WRITE_STALL: Duration = Duration::from_millis(100);

/// A filesystem operation that failed, with the path it failed on.
#[derive(Debug)]
pub struct StoreError {
    /// The file involved.
    pub path: PathBuf,
    /// The OS error.
    pub error: std::io::Error,
}

impl StoreError {
    fn new(path: &Path, error: std::io::Error) -> Self {
        Self {
            path: path.to_path_buf(),
            error,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for StoreError {}

/// What one injected write did: how many bytes landed (0 when the write
/// was suppressed), the content-corruption note, and the disk incidents
/// (plus retention trims) the write survived.
#[derive(Debug, Clone, Default)]
pub struct WriteOutcome {
    /// Bytes that reached the disk (0 for ENOSPC / failed fsync).
    pub bytes: u64,
    /// Human-readable description of injected content corruption.
    pub corruption: Option<String>,
    /// Disk incidents and retention trims, ready to absorb into the
    /// run's [`DegradedReport`]. Empty when the disk behaved.
    pub disk: DegradedReport,
}

/// The path a write to `path` is staged at: the full file name plus
/// `.tmp`, so `x.dhfl` and `x.dhsp` never share a temp file and no
/// unrelated `x.tmp` is touched.
fn temp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Writes `bytes` to `path` atomically *and durably*: temp file, fsync,
/// rename, then fsync of the parent directory. Without the two fsyncs
/// the rename can be persisted before the data (a torn write) or the new
/// directory entry lost entirely on power failure — "atomic" would only
/// hold against process death, not against the crashes checkpoints
/// exist for.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = temp_path(path);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Persist the directory entry itself. Directories cannot be
            // fsynced on some platforms (e.g. Windows); treat that as
            // best-effort there, but surface real failures on unix.
            match std::fs::File::open(dir).and_then(|d| d.sync_all()) {
                Err(e) if cfg!(unix) => return Err(e),
                _ => {}
            }
        }
        Ok(())
    })();
    result.map_err(|e| StoreError::new(path, e))
}

/// A checkpoint file plus its last `keep - 1` predecessor generations.
#[derive(Debug, Clone)]
pub struct GenerationStore {
    base: PathBuf,
    keep: usize,
    metrics: &'static str,
}

impl GenerationStore {
    /// A store at `base` keeping `keep` generations (clamped to
    /// `1..=`[`MAX_KEEP`]; 1 is the plain single-file behavior). Its
    /// `obs` counters are named `{metrics}.…`.
    pub fn new(base: impl Into<PathBuf>, keep: usize, metrics: &'static str) -> Self {
        Self {
            base: base.into(),
            keep: keep.clamp(1, MAX_KEEP),
            metrics,
        }
    }

    /// The newest generation's path.
    pub fn base_path(&self) -> &Path {
        &self.base
    }

    /// The path of generation `generation` (0 = newest).
    pub fn generation_path(&self, generation: usize) -> PathBuf {
        if generation == 0 {
            self.base.clone()
        } else {
            PathBuf::from(format!("{}.{generation}", self.base.display()))
        }
    }

    fn count(&self, name: &str, n: u64) {
        if dh_obs::ENABLED && n > 0 {
            dh_obs::counter(&format!("{}.{name}", self.metrics)).add(n);
        }
    }

    /// Shifts every generation one slot older (the oldest falls off),
    /// making room for a fresh newest write. Missing generations are
    /// skipped.
    fn rotate(&self) -> Result<(), StoreError> {
        for generation in (0..self.keep - 1).rev() {
            let from = self.generation_path(generation);
            match std::fs::rename(&from, self.generation_path(generation + 1)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(StoreError::new(&from, e));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Deletes the oldest on-disk generation (never the newest) to
    /// relieve disk pressure. Returns whether anything was removed.
    fn trim_oldest(&self) -> bool {
        (1..self.keep)
            .rev()
            .any(|generation| std::fs::remove_file(self.generation_path(generation)).is_ok())
    }

    /// Rotates the generations and writes `bytes` as the newest,
    /// returning the byte count.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any filesystem failure.
    pub fn write(&self, bytes: &[u8]) -> Result<u64, StoreError> {
        self.rotate()?;
        write_atomic(&self.base, bytes)?;
        self.count("checkpoint_bytes", bytes.len() as u64);
        self.count("checkpoints_written", 1);
        Ok(bytes.len() as u64)
    }

    /// [`GenerationStore::write`] with fault injection for write number
    /// `write_index`. The plan may first flip a bit in or truncate
    /// `bytes` (in place), then inject a *disk* fault, each contained
    /// rather than fatal:
    ///
    /// - **ENOSPC**: nothing lands; the previous generation stays newest
    ///   and the oldest generation is trimmed to relieve pressure.
    /// - **Torn write**: only a seeded prefix of the file reaches the
    ///   disk (resume-time generation fallback absorbs it).
    /// - **Failed fsync**: the write is abandoned before rename; the
    ///   previous generation stays newest.
    /// - **Slow write**: the write stalls briefly, then lands intact.
    ///
    /// Every injected fault is recorded in [`WriteOutcome::disk`] instead
    /// of surfacing as an error; only *real* filesystem failures abort.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any genuine filesystem failure.
    pub fn write_injected(
        &self,
        bytes: &mut Vec<u8>,
        plan: Option<&FaultPlan>,
        write_index: u64,
    ) -> Result<WriteOutcome, StoreError> {
        let mut outcome = WriteOutcome {
            corruption: plan.and_then(|p| p.corrupt_checkpoint(write_index, bytes)),
            ..WriteOutcome::default()
        };
        let fault = plan.and_then(|p| Some((p, p.disk_fault(write_index)?)));
        if let Some((plan, kind)) = fault {
            outcome
                .disk
                .disk_incidents
                .push(DiskIncident { kind, write_index });
            self.count(
                match kind {
                    DiskFaultKind::Enospc => "disk_fault_enospc",
                    DiskFaultKind::TornWrite => "disk_fault_torn",
                    DiskFaultKind::FsyncFail => "disk_fault_fsync",
                    DiskFaultKind::SlowWrite => "disk_fault_slow",
                },
                1,
            );
            match kind {
                DiskFaultKind::Enospc => {
                    if self.trim_oldest() {
                        outcome.disk.retention_trims += 1;
                        self.count("retention_trims", 1);
                    }
                    return Ok(outcome);
                }
                DiskFaultKind::FsyncFail => return Ok(outcome),
                DiskFaultKind::TornWrite => {
                    bytes.truncate(plan.torn_length(write_index, bytes.len()));
                }
                DiskFaultKind::SlowWrite => std::thread::sleep(SLOW_WRITE_STALL),
            }
        }
        outcome.bytes = self.write(bytes)?;
        Ok(outcome)
    }

    /// Walks the generations newest-first and returns the first one
    /// `decode` accepts, together with a [`CheckpointFallback`] record
    /// for every newer generation that had to be skipped.
    ///
    /// `decode` returns `Ok(Err(reason))` to skip a generation and
    /// `Err(e)` to abort the walk (a checkpoint that belongs to another
    /// run is worse than no checkpoint). All generations missing (a fresh
    /// start) or all skipped both return `Ok(None)` — the latter with
    /// the fallback records that say why the run is starting over.
    ///
    /// # Errors
    ///
    /// Whatever `decode` aborts with.
    pub fn read_newest_valid<T, E>(
        &self,
        mut decode: impl FnMut(&[u8]) -> Result<Result<T, String>, E>,
    ) -> Result<(Option<T>, Vec<CheckpointFallback>), E> {
        let mut fallbacks = Vec::new();
        let mut found = None;
        for generation in 0..self.keep {
            let reason = match std::fs::read(self.generation_path(generation)) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => format!("unreadable: {e}"),
                Ok(bytes) => match decode(&bytes)? {
                    Ok(value) => {
                        found = Some(value);
                        break;
                    }
                    Err(reason) => reason,
                },
            };
            fallbacks.push(CheckpointFallback {
                generation: generation as u64,
                reason,
            });
        }
        self.count("checkpoint_fallbacks", fallbacks.len() as u64);
        Ok((found, fallbacks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dh-fault-store-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn utf8(bytes: &[u8]) -> Result<Result<String, String>, std::convert::Infallible> {
        Ok(String::from_utf8(bytes.to_vec()).map_err(|e| e.to_string()))
    }

    #[test]
    fn writes_stage_next_to_the_full_file_name() {
        let dir = temp_dir("temp-name");
        let unrelated = dir.join("x.tmp");
        std::fs::write(&unrelated, b"someone else's file").unwrap();
        let store = GenerationStore::new(dir.join("x.dhfl"), 2, "test");
        store.write(b"one").unwrap();
        store.write(b"two").unwrap();
        assert_eq!(std::fs::read(&unrelated).unwrap(), b"someone else's file");
        assert_eq!(std::fs::read(dir.join("x.dhfl")).unwrap(), b"two");
        assert_eq!(std::fs::read(dir.join("x.dhfl.1")).unwrap(), b"one");
        assert!(!dir.join("x.dhfl.tmp").exists());
    }

    #[test]
    fn keep_is_bounded() {
        let dir = temp_dir("keep");
        let single = GenerationStore::new(dir.join("one"), 0, "test");
        single.write(b"a").unwrap();
        single.write(b"b").unwrap();
        assert!(!single.generation_path(1).exists());
        let huge = GenerationStore::new(dir.join("many"), usize::MAX, "test");
        for _ in 0..=MAX_KEEP {
            huge.write(b"x").unwrap();
        }
        assert!(huge.generation_path(MAX_KEEP - 1).exists());
        assert!(!huge.generation_path(MAX_KEEP).exists());
    }

    #[test]
    fn reads_fall_back_over_rejected_generations_and_abort_on_request() {
        let dir = temp_dir("read");
        let store = GenerationStore::new(dir.join("x"), 3, "test");
        store.write(b"old").unwrap();
        store.write(&[0xff]).unwrap();
        let (found, fallbacks) = store.read_newest_valid(utf8).unwrap();
        assert_eq!(found.as_deref(), Some("old"));
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].generation, 0);
        let aborted = store.read_newest_valid(|_| Err::<Result<(), String>, _>("foreign"));
        assert_eq!(aborted.unwrap_err(), "foreign");
    }

    #[test]
    fn injected_disk_faults_are_contained() {
        let dir = temp_dir("inject");
        let store = GenerationStore::new(dir.join("x"), 3, "test");
        for bytes in [b"a", b"b", b"c"] {
            store.write(bytes).unwrap();
        }
        let plan = FaultPlan::parse("disk-full=1", 7).unwrap();
        let outcome = store
            .write_injected(&mut b"d".to_vec(), Some(&plan), 0)
            .unwrap();
        assert_eq!(outcome.bytes, 0);
        assert_eq!(outcome.disk.disk_incidents[0].kind, DiskFaultKind::Enospc);
        assert_eq!(outcome.disk.retention_trims, 1);
        assert_eq!(std::fs::read(store.generation_path(0)).unwrap(), b"c");
        assert!(!store.generation_path(2).exists());

        let plan = FaultPlan::parse("disk-torn=1", 7).unwrap();
        let outcome = store
            .write_injected(&mut b"longer payload".to_vec(), Some(&plan), 0)
            .unwrap();
        assert!(outcome.bytes < 14);
        assert_eq!(std::fs::read(store.generation_path(1)).unwrap(), b"c");
    }
}
