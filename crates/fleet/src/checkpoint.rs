//! Versioned, hand-rolled checkpointing for fleet runs (the build has no
//! serde; the format is a few dozen lines of explicit little-endian
//! fields, which is also what makes it auditable).
//!
//! Layout, all integers little-endian:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `"DHFL"` |
//! | 4      | 1    | format version (currently 3) |
//! | 5      | 8    | config fingerprint ([`crate::FleetConfig::fingerprint`]) |
//! | 13     | 8    | shard cursor (shards fully folded) |
//! | 21     | 8    | payload length `L` |
//! | 29     | `L`  | payload (see below) |
//! | 29+L   | 8    | FNV-1a checksum of bytes `0..29+L` |
//!
//! The **version 3** payload is a sequence of independently checksummed
//! slabs — each a contiguous little-endian dump appended with one
//! `extend_from_slice`-class memcpy, no per-field framing:
//!
//! | field | size | |
//! |-------|------|---|
//! | slab count | 8 | currently 2 |
//! | per slab: tag | 8 | [`SLAB_ACC`] / [`SLAB_DEGRADED`] |
//! | per slab: body length `B` | 8 | |
//! | per slab: body | `B` | the slab's linear state dump |
//! | per slab: checksum | 8 | FNV-1a of the body alone |
//!
//! The per-slab checksums localize corruption (a flipped bit names the
//! slab it hit, under the whole-file checksum that already rejects the
//! file) and let the writer assemble the payload as straight memcpys of
//! pre-encoded state through the [`AsyncCheckpointer`] double buffer.
//!
//! **Version 2** (the legacy format this build still resumes from) holds
//! the same two sections bare: [`FleetAccumulator`] state immediately
//! followed by the degraded-state section, no slab framing. The
//! degraded-state section carries retry and rejected-sample counts,
//! quarantined shards (with their panic messages), sensor incidents, and
//! checkpoint fallbacks, so a kill/resume cycle cannot launder a
//! degraded run into a clean one — the quarantine record survives the
//! process.
//!
//! [`CheckpointStore`] is the DHFL face of [`dh_fault::GenerationStore`]:
//! writes go through a temp file + atomic rename (so a kill mid-write
//! leaves the previous checkpoint intact — the property the
//! kill-and-resume acceptance test leans on) and rotate
//! `base ← base.1 ← base.2 …`, and [`CheckpointStore::read_newest_valid`]
//! walks the generations newest-first, skipping (and recording) any that
//! fail validation, so one corrupted write costs a replay window, never
//! the run.

use std::path::{Path, PathBuf};

use dh_exec::{BackgroundSink, CheckpointSink};
use dh_fault::wire::{fnv1a, put_u64, take_u64, FNV_OFFSET};
use dh_fault::{CheckpointFallback, DegradedReport, FaultPlan, GenerationStore, WriteOutcome};

use crate::error::FleetError;
use crate::sim::FleetAccumulator;

/// File magic.
pub const MAGIC: [u8; 4] = *b"DHFL";
/// Format version this build writes.
pub const VERSION: u8 = 3;
/// Oldest format version this build still resumes from.
pub const LEGACY_VERSION: u8 = 2;

/// Slab tag: the [`FleetAccumulator`] linear dump.
const SLAB_ACC: u64 = 1;
/// Slab tag: the degraded-state section.
const SLAB_DEGRADED: u64 = 2;

/// A point-in-time image of a fleet run: everything needed to continue
/// folding shards as if the process had never died.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Fingerprint of the config that produced this state.
    pub config_fingerprint: u64,
    /// Shards fully folded into the aggregates.
    pub cursor: u64,
    /// The streaming aggregate state.
    pub(crate) acc: FleetAccumulator,
    /// Everything the run has survived so far (empty for a clean run).
    pub degraded: DegradedReport,
}

/// Appends one v3 slab to `buf`: tag, body length (patched after the
/// fill), the body itself, and the FNV-1a checksum of the body alone.
fn encode_slab(buf: &mut Vec<u8>, tag: u64, fill: impl FnOnce(&mut Vec<u8>)) {
    put_u64(buf, tag);
    let len_at = buf.len();
    put_u64(buf, 0); // body length, patched below
    let start = buf.len();
    fill(buf);
    let body_len = (buf.len() - start) as u64;
    buf[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
    let checksum = fnv1a(FNV_OFFSET, &buf[start..]);
    put_u64(buf, checksum);
}

/// Splits the next v3 slab off the front of `bytes`, verifying its body
/// checksum, and returns `(tag, body)`.
fn take_slab<'a>(bytes: &mut &'a [u8]) -> Result<(u64, &'a [u8]), FleetError> {
    let tag = take_u64(bytes, "slab.tag")?;
    let body_len = take_u64(bytes, "slab.len")? as usize;
    if bytes.len() < body_len + 8 {
        return Err(FleetError::Corrupt(format!(
            "slab {tag} claims {body_len} bytes but only {} remain",
            bytes.len().saturating_sub(8)
        )));
    }
    let (body, rest) = bytes.split_at(body_len);
    *bytes = rest;
    let stored = take_u64(bytes, "slab.checksum")?;
    let computed = fnv1a(FNV_OFFSET, body);
    if stored != computed {
        return Err(FleetError::Corrupt(format!(
            "slab {tag} checksum {stored:#018x} does not match body {computed:#018x}"
        )));
    }
    Ok((tag, body))
}

impl Snapshot {
    /// Serializes to the wire format described in the module docs.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// [`Snapshot::encode`] into a caller-owned buffer (cleared first),
    /// so a long run's checkpoint cadence reuses one allocation. The
    /// payload is encoded in place and the length field patched
    /// afterwards — no temporary payload vector either.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        put_u64(buf, self.config_fingerprint);
        put_u64(buf, self.cursor);
        let len_at = buf.len();
        put_u64(buf, 0); // payload length, patched below
        let payload_start = buf.len();
        put_u64(buf, 2); // slab count
        encode_slab(buf, SLAB_ACC, |b| self.acc.encode(b));
        encode_slab(buf, SLAB_DEGRADED, |b| self.degraded.encode(b));
        let payload_len = (buf.len() - payload_start) as u64;
        buf[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a(FNV_OFFSET, buf);
        put_u64(buf, checksum);
    }

    /// Parses and fully validates the wire format.
    ///
    /// # Errors
    ///
    /// [`FleetError::Corrupt`] on bad magic, truncation, or checksum
    /// mismatch; [`FleetError::Version`] on a format this build cannot
    /// read.
    pub fn decode(bytes: &[u8]) -> Result<Self, FleetError> {
        if bytes.len() < 37 {
            return Err(FleetError::Corrupt(format!(
                "{} bytes is shorter than the fixed header",
                bytes.len()
            )));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut tail = tail;
        let stored = take_u64(&mut tail, "checksum")?;
        let computed = fnv1a(FNV_OFFSET, body);
        if stored != computed {
            return Err(FleetError::Corrupt(format!(
                "checksum {stored:#018x} does not match contents {computed:#018x}"
            )));
        }
        if body[..4] != MAGIC {
            return Err(FleetError::Corrupt(format!(
                "bad magic {:02x?}",
                &body[..4]
            )));
        }
        let version = body[4];
        if version != VERSION && version != LEGACY_VERSION {
            return Err(FleetError::Version {
                found: version,
                expected: VERSION,
            });
        }
        let mut view = &body[5..];
        let config_fingerprint = take_u64(&mut view, "config fingerprint")?;
        let cursor = take_u64(&mut view, "cursor")?;
        let payload_len = take_u64(&mut view, "payload length")? as usize;
        if view.len() != payload_len {
            return Err(FleetError::Corrupt(format!(
                "payload length {payload_len} but {} bytes present",
                view.len()
            )));
        }
        let (acc, degraded) = if version == LEGACY_VERSION {
            // v2: the two sections bare, back to back, no slab framing.
            (
                FleetAccumulator::decode(&mut view)?,
                // Files written before disk-fault tracking end the
                // degraded section right before the disk fields.
                DegradedReport::decode(&mut view, true)?,
            )
        } else {
            let count = take_u64(&mut view, "slab count")?;
            let mut acc = None;
            let mut degraded = None;
            for _ in 0..count {
                let (tag, mut slab) = take_slab(&mut view)?;
                let taken = match tag {
                    SLAB_ACC if acc.is_none() => {
                        acc = Some(FleetAccumulator::decode(&mut slab)?);
                        true
                    }
                    SLAB_DEGRADED if degraded.is_none() => {
                        degraded = Some(DegradedReport::decode(&mut slab, true)?);
                        true
                    }
                    _ => false,
                };
                if !taken {
                    return Err(FleetError::Corrupt(format!(
                        "unexpected or duplicate slab tag {tag}"
                    )));
                }
                if !slab.is_empty() {
                    return Err(FleetError::Corrupt(format!(
                        "{} trailing bytes in slab {tag}",
                        slab.len()
                    )));
                }
            }
            match (acc, degraded) {
                (Some(a), Some(d)) => (a, d),
                _ => {
                    return Err(FleetError::Corrupt(
                        "v3 payload is missing a required slab".into(),
                    ));
                }
            }
        };
        if !view.is_empty() {
            return Err(FleetError::Corrupt(format!(
                "{} trailing payload bytes",
                view.len()
            )));
        }
        Ok(Self {
            config_fingerprint,
            cursor,
            acc,
            degraded,
        })
    }

    /// Writes atomically (temp file + rename) and returns the byte count.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] on any filesystem failure.
    pub fn write(&self, path: &Path) -> Result<u64, FleetError> {
        CheckpointStore::new(path, 1).write(self)
    }

    /// Reads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the file cannot be read; decode errors as
    /// in [`Snapshot::decode`].
    pub fn read(path: &Path) -> Result<Self, FleetError> {
        let bytes =
            std::fs::read(path).map_err(|e| FleetError::Io(format!("{}: {e}", path.display())))?;
        Self::decode(&bytes)
    }

    /// [`Snapshot::read`], but a missing file is `Ok(None)` (fresh start)
    /// while an unreadable or corrupt file stays an error — silently
    /// restarting over a damaged checkpoint would discard real work.
    pub fn read_if_exists(path: &Path) -> Result<Option<Self>, FleetError> {
        match std::fs::read(path) {
            Ok(bytes) => Self::decode(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(FleetError::Io(format!("{}: {e}", path.display()))),
        }
    }
}

/// A DHFL checkpoint file plus its last `keep - 1` predecessor
/// generations (see [`GenerationStore`]).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    inner: GenerationStore,
}

impl CheckpointStore {
    /// A store at `base` keeping `keep` generations (clamped to
    /// `1..=`[`dh_fault::MAX_KEEP`]; `keep == 1` is the plain
    /// single-file behavior).
    pub fn new(base: impl Into<PathBuf>, keep: usize) -> Self {
        Self {
            inner: GenerationStore::new(base, keep, "fleet"),
        }
    }

    /// The newest generation's path.
    pub fn base_path(&self) -> &Path {
        self.inner.base_path()
    }

    /// The path of generation `generation` (0 = newest).
    pub fn generation_path(&self, generation: usize) -> PathBuf {
        self.inner.generation_path(generation)
    }

    /// Rotates the generations and writes `snapshot` as the newest.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] on any filesystem failure.
    pub fn write(&self, snapshot: &Snapshot) -> Result<u64, FleetError> {
        Ok(self.inner.write(&snapshot.encode())?)
    }

    /// [`CheckpointStore::write`] with fault injection (see
    /// [`GenerationStore::write_injected`]), encoding into a caller-owned
    /// scratch buffer so a checkpoint cadence (in particular the
    /// [`AsyncCheckpointer`] writer thread) reuses one allocation across
    /// every write of the run.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] on any genuine filesystem failure.
    pub fn write_injected_with(
        &self,
        snapshot: &Snapshot,
        plan: Option<&FaultPlan>,
        write_index: u64,
        scratch: &mut Vec<u8>,
    ) -> Result<WriteOutcome, FleetError> {
        snapshot.encode_into(scratch);
        Ok(self.inner.write_injected(scratch, plan, write_index)?)
    }

    /// Walks the generations newest-first and returns the first snapshot
    /// that fully validates, together with a [`CheckpointFallback`]
    /// record for every newer generation that had to be skipped.
    ///
    /// All generations missing (a fresh start) or all invalid both
    /// return `Ok(None)` — the latter with the fallback records that say
    /// why the run is starting over. A snapshot for a *different* config
    /// still validates here; [`crate::FleetRun::resume`] rejects it.
    pub fn read_newest_valid(
        &self,
    ) -> Result<(Option<Snapshot>, Vec<CheckpointFallback>), FleetError> {
        self.inner
            .read_newest_valid(|bytes| Ok(Snapshot::decode(bytes).map_err(|e| e.to_string())))
    }
}

/// Encodes into one reused buffer and writes through the store: inline
/// behind [`CheckpointMode::Sync`], on the writer thread behind
/// [`AsyncCheckpointer`].
pub(crate) struct StoreWriter {
    store: CheckpointStore,
    plan: Option<FaultPlan>,
    scratch: Vec<u8>,
}

impl StoreWriter {
    pub(crate) fn new(store: CheckpointStore, plan: Option<FaultPlan>) -> Self {
        Self {
            store,
            plan,
            scratch: Vec::new(),
        }
    }
}

impl CheckpointSink<Snapshot, FleetError> for StoreWriter {
    fn write(
        &mut self,
        snapshot: Snapshot,
        write_index: u64,
    ) -> Result<DegradedReport, FleetError> {
        let outcome = self.store.write_injected_with(
            &snapshot,
            self.plan.as_ref(),
            write_index,
            &mut self.scratch,
        )?;
        Ok(outcome.disk)
    }
}

/// How checkpoint writes are scheduled relative to the shard-folding
/// loop.
///
/// Both modes produce the same sequence of `(snapshot, write index)`
/// pairs through the same rotate-then-atomic-write path, so the on-disk
/// generations — and therefore every kill/resume trajectory — are
/// byte-identical; the only difference is *which thread* pays for the
/// encode, checksum, and I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointMode {
    /// Encode, checksum, and write on the folding thread between shard
    /// batches (the pre-async behavior).
    Sync,
    /// Hand each snapshot to a dedicated writer thread over a bounded
    /// double-buffer channel: the folding loop never blocks on disk
    /// unless it laps the writer by two checkpoints.
    #[default]
    Async,
}

impl CheckpointMode {
    /// Parses `"sync"` / `"async"` (CLI flag value).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sync" => Some(Self::Sync),
            "async" => Some(Self::Async),
            _ => None,
        }
    }
}

/// A dedicated checkpoint writer thread: [`AsyncCheckpointer::submit`]
/// hands over a cheap O(aggregate-state) snapshot clone and returns
/// immediately; the thread does the encode, checksum, generation
/// rotation, and atomic write off the folding hot path, reusing one
/// encode buffer for the whole run.
///
/// The thread is a [`BackgroundSink`] with one queued slot — a double
/// buffer: one checkpoint in flight on the writer plus one queued.
/// Submitting a third before the first lands blocks (backpressure), so
/// a crashed process has lost at most the last two submitted
/// checkpoints, exactly like a sync writer that was two batches behind.
/// Writes happen strictly in submission order with the same write
/// indices a sync loop would use, so the on-disk generation history is
/// byte-identical to [`CheckpointMode::Sync`].
///
/// I/O errors surface at the next [`AsyncCheckpointer::submit`] or at
/// [`AsyncCheckpointer::finish`], which must be called to guarantee the
/// final snapshot is durable before the run's report is trusted.
#[derive(Debug)]
pub struct AsyncCheckpointer {
    writer: BackgroundSink<Snapshot, FleetError>,
    next_index: u64,
}

impl AsyncCheckpointer {
    /// Spawns the writer thread for `store`, threading an optional fault
    /// plan through to [`CheckpointStore::write_injected_with`] so
    /// injected corruption hits the same write indices as in sync mode.
    pub fn spawn(store: CheckpointStore, plan: Option<FaultPlan>) -> Self {
        Self {
            writer: BackgroundSink::spawn("dh-fleet-ckpt", 1, StoreWriter::new(store, plan)),
            next_index: 0,
        }
    }

    /// Enqueues `snapshot` as the next write. Blocks only when both
    /// double-buffer slots are full.
    ///
    /// # Errors
    ///
    /// The writer thread's [`FleetError::Io`] if it has already died; the
    /// snapshot that triggered the discovery is lost with it (the run
    /// should abort — its durability guarantee is gone).
    pub fn submit(&mut self, snapshot: Snapshot) -> Result<(), FleetError> {
        self.writer.write(snapshot, self.next_index)?;
        self.next_index += 1;
        Ok(())
    }

    /// Closes the queue, waits for every submitted write to land, and
    /// returns the disk incidents the writer survived (empty without an
    /// injecting plan).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] from any submitted write, or
    /// `"checkpoint writer panicked"` if the writer thread panicked.
    pub fn finish(mut self) -> Result<DegradedReport, FleetError> {
        self.writer.finish()
    }
}

impl CheckpointSink<Snapshot, FleetError> for AsyncCheckpointer {
    fn write(
        &mut self,
        snapshot: Snapshot,
        write_index: u64,
    ) -> Result<DegradedReport, FleetError> {
        self.next_index = write_index;
        self.submit(snapshot)?;
        Ok(DegradedReport::default())
    }

    fn finish(&mut self) -> Result<DegradedReport, FleetError> {
        self.writer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FleetConfig, FleetRun};
    use dh_fault::{DiskFaultKind, DiskIncident, SensorFaultKind};

    fn snapshot_after_one_step() -> (FleetConfig, Snapshot) {
        let config = FleetConfig {
            devices: 64,
            years: 0.2,
            shard_size: 32,
            group_size: 16,
            ..FleetConfig::default()
        };
        let mut run = FleetRun::new(config.clone()).unwrap();
        run.step(1).unwrap();
        (config, run.snapshot())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dh-fleet-ckpt-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshots_round_trip_bit_exactly() {
        let (_config, mut snap) = snapshot_after_one_step();
        // Populate the degraded section so the round trip covers it.
        snap.degraded.retries = 3;
        snap.degraded.quarantined.push(dh_fault::ShardFailure {
            shard: 1,
            attempts: 3,
            error: "injected fault".to_string(),
        });
        snap.degraded
            .sensor_incidents
            .push(dh_fault::SensorIncident {
                chip: 9,
                kind: SensorFaultKind::Noisy(8.0),
                epoch: 4,
            });
        snap.degraded
            .checkpoint_fallbacks
            .push(dh_fault::CheckpointFallback {
                generation: 0,
                reason: "checksum mismatch".to_string(),
            });
        snap.degraded.disk_incidents.push(DiskIncident {
            kind: DiskFaultKind::TornWrite,
            write_index: 4,
        });
        snap.degraded.retention_trims = 2;
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.cursor, snap.cursor);
        assert_eq!(back.config_fingerprint, snap.config_fingerprint);
        assert_eq!(back.acc, snap.acc);
        assert_eq!(back.degraded, snap.degraded);
        // Re-encoding is byte-identical: the format is canonical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let (_config, snap) = snapshot_after_one_step();
        let bytes = snap.encode();

        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            Snapshot::decode(&flipped),
            Err(FleetError::Corrupt(_))
        ));

        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 5);
        assert!(Snapshot::decode(&truncated).is_err());

        let mut wrong_version = bytes.clone();
        wrong_version[4] = VERSION + 1;
        // Fix the checksum so only the version differs.
        let body_len = wrong_version.len() - 8;
        let sum = fnv1a(FNV_OFFSET, &wrong_version[..body_len]);
        wrong_version[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&wrong_version),
            Err(FleetError::Version { found, expected })
                if found == VERSION + 1 && expected == VERSION
        ));
    }

    /// Encodes `snap` in the legacy v2 layout (bare sections, no slabs).
    fn encode_v2(snap: &Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(LEGACY_VERSION);
        put_u64(&mut buf, snap.config_fingerprint);
        put_u64(&mut buf, snap.cursor);
        let len_at = buf.len();
        put_u64(&mut buf, 0);
        let start = buf.len();
        snap.acc.encode(&mut buf);
        snap.degraded.encode(&mut buf);
        let payload_len = (buf.len() - start) as u64;
        buf[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
        let sum = fnv1a(FNV_OFFSET, &buf);
        put_u64(&mut buf, sum);
        buf
    }

    #[test]
    fn legacy_v2_snapshots_still_decode() {
        let (_config, mut snap) = snapshot_after_one_step();
        snap.degraded.retries = 2;
        snap.degraded
            .sensor_incidents
            .push(dh_fault::SensorIncident {
                chip: 3,
                kind: SensorFaultKind::Dropped,
                epoch: 7,
            });
        let bytes = encode_v2(&snap);
        assert_eq!(bytes[4], LEGACY_VERSION);
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.cursor, snap.cursor);
        assert_eq!(back.config_fingerprint, snap.config_fingerprint);
        assert_eq!(back.acc, snap.acc);
        assert_eq!(back.degraded, snap.degraded);
        // Re-encoding upgrades to the current version.
        assert_eq!(back.encode()[4], VERSION);
        assert_eq!(back.encode(), snap.encode());
    }

    #[test]
    fn slab_corruption_is_detected_under_a_fixed_file_checksum() {
        let (_config, snap) = snapshot_after_one_step();
        let mut bytes = snap.encode();
        // Flip one bit inside the first slab body (header is 29 bytes,
        // then slab count, tag, and body length precede the body), then
        // re-fix the *file* checksum so only the slab checksum can catch
        // it.
        bytes[29 + 24 + 4] ^= 0x10;
        let body_len = bytes.len() - 8;
        let sum = fnv1a(FNV_OFFSET, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(
            matches!(&err, FleetError::Corrupt(m) if m.contains("slab")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn files_round_trip_and_missing_files_are_none() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("single");
        let path = dir.join("snap.dhfl");
        let bytes = snap.write(&path).unwrap();
        assert_eq!(bytes, snap.encode().len() as u64);
        let back = Snapshot::read(&path).unwrap();
        assert_eq!(back.acc, snap.acc);
        assert!(Snapshot::read_if_exists(&path).unwrap().is_some());
        std::fs::remove_file(&path).unwrap();
        assert!(Snapshot::read_if_exists(&path).unwrap().is_none());
    }

    #[test]
    fn resume_rejects_a_foreign_config() {
        let (config, snap) = snapshot_after_one_step();
        let mut other = config;
        other.seed += 1;
        assert!(matches!(
            FleetRun::resume(other, snap),
            Err(FleetError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn store_rotates_generations_oldest_off_the_end() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("rotate");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 3);
        // Three writes with distinct cursors: 5, 6, 7.
        for cursor in 5..8 {
            let mut s = snap.clone();
            s.cursor = cursor;
            store.write(&s).unwrap();
        }
        assert_eq!(Snapshot::read(&store.generation_path(0)).unwrap().cursor, 7);
        assert_eq!(Snapshot::read(&store.generation_path(1)).unwrap().cursor, 6);
        assert_eq!(Snapshot::read(&store.generation_path(2)).unwrap().cursor, 5);
        // A fourth write drops cursor 5 off the end.
        let mut s = snap.clone();
        s.cursor = 8;
        store.write(&s).unwrap();
        assert_eq!(Snapshot::read(&store.generation_path(2)).unwrap().cursor, 6);
        assert!(!store.generation_path(3).exists());
    }

    #[test]
    fn async_rotation_retains_exactly_keep_generations() {
        // The `--keep k` contract, across the async writer: after any
        // number of writes, exactly k generations exist — `base` plus
        // `base.1 ..= base.{k-1}` — holding the k newest snapshots in
        // order, and `base.k` never appears (the off-by-one this test
        // pins down).
        let (_config, snap) = snapshot_after_one_step();
        let keep = 3;
        let dir = temp_dir("async-retention");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), keep);
        let mut writer = AsyncCheckpointer::spawn(store.clone(), None);
        for cursor in 1..=7 {
            let mut s = snap.clone();
            s.cursor = cursor;
            writer.submit(s).unwrap();
        }
        writer.finish().unwrap();
        for generation in 0..keep {
            let snap = Snapshot::read(&store.generation_path(generation)).unwrap();
            assert_eq!(
                snap.cursor,
                7 - generation as u64,
                "generation {generation} holds the wrong write"
            );
        }
        assert!(
            !store.generation_path(keep).exists(),
            "a {keep}-generation store must never leave a generation {keep} file"
        );
        assert!(!store.generation_path(keep + 1).exists());
    }

    #[test]
    fn truncated_newest_generation_falls_back_to_the_previous() {
        // A torn write that truncates the newest generation (as opposed
        // to flipping a bit inside it) must cost one replay window, not
        // the run.
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("truncated-newest");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 3);
        for cursor in 1..3 {
            let mut s = snap.clone();
            s.cursor = cursor;
            store.write(&s).unwrap();
        }
        let newest = store.generation_path(0);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let (found, fallbacks) = store.read_newest_valid().unwrap();
        assert_eq!(found.unwrap().cursor, 1, "fell back to generation 1");
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].generation, 0);
    }

    #[test]
    fn read_newest_valid_falls_back_over_corruption() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("fallback");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 3);
        for cursor in 1..4 {
            let mut s = snap.clone();
            s.cursor = cursor;
            store.write(&s).unwrap();
        }
        // Corrupt the newest generation on disk.
        let newest = store.generation_path(0);
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes[10] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();

        let (found, fallbacks) = store.read_newest_valid().unwrap();
        assert_eq!(found.unwrap().cursor, 2, "fell back to generation 1");
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].generation, 0);
        assert!(fallbacks[0].reason.contains("checksum"));
    }

    #[test]
    fn all_generations_invalid_restarts_with_the_record() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("all-bad");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 2);
        store.write(&snap).unwrap();
        store.write(&snap).unwrap();
        for generation in 0..2 {
            std::fs::write(store.generation_path(generation), b"garbage").unwrap();
        }
        let (found, fallbacks) = store.read_newest_valid().unwrap();
        assert!(found.is_none());
        assert_eq!(fallbacks.len(), 2);
    }

    #[test]
    fn missing_generations_are_not_fallbacks() {
        let dir = temp_dir("fresh");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 3);
        let (found, fallbacks) = store.read_newest_valid().unwrap();
        assert!(found.is_none());
        assert!(fallbacks.is_empty(), "a fresh start is not a fallback");
    }

    #[test]
    fn async_and_sync_checkpointing_are_byte_identical_on_disk() {
        let config = FleetConfig {
            devices: 96,
            years: 0.3,
            shard_size: 16,
            group_size: 16,
            ..FleetConfig::default()
        };
        let dir = temp_dir("mode-parity");
        let sync_path = dir.join("sync.dhfl");
        let async_path = dir.join("async.dhfl");
        let sync_report =
            crate::sim::run_fleet_checkpointed_with(&config, &sync_path, 1, CheckpointMode::Sync)
                .unwrap();
        let async_report =
            crate::sim::run_fleet_checkpointed_with(&config, &async_path, 1, CheckpointMode::Async)
                .unwrap();
        assert_eq!(sync_report.fingerprint(), async_report.fingerprint());
        assert_eq!(
            std::fs::read(&sync_path).unwrap(),
            std::fs::read(&async_path).unwrap(),
            "final checkpoints must match byte for byte"
        );
    }

    #[test]
    fn async_supervised_matches_sync_under_injected_corruption() {
        let config = FleetConfig {
            devices: 96,
            years: 0.3,
            shard_size: 16,
            group_size: 16,
            ..FleetConfig::default()
        };
        let dir = temp_dir("mode-parity-injected");
        let retry = dh_exec::RetryPolicy::immediate(2);
        let run = |tag: &str, mode: CheckpointMode| {
            let store = CheckpointStore::new(dir.join(format!("{tag}.dhfl")), 3);
            let plan = dh_fault::FaultPlan::parse("ckpt-flip=2", 23).unwrap();
            let out = crate::sim::run_fleet_supervised_with(
                &config,
                Some(&plan),
                &retry,
                Some((&store, 1)),
                mode,
            )
            .unwrap();
            (store, out)
        };
        let (sync_store, (sync_report, sync_degraded)) = run("sync", CheckpointMode::Sync);
        let (async_store, (async_report, async_degraded)) = run("async", CheckpointMode::Async);
        assert_eq!(sync_report.fingerprint(), async_report.fingerprint());
        assert_eq!(sync_degraded, async_degraded);
        for generation in 0..3 {
            assert_eq!(
                std::fs::read(sync_store.generation_path(generation)).unwrap(),
                std::fs::read(async_store.generation_path(generation)).unwrap(),
                "generation {generation} diverged between modes"
            );
        }
        // The plan flipped a bit in write 2 of both histories; the
        // fallback walk lands on the same snapshot either way.
        let (sync_snap, sync_fb) = sync_store.read_newest_valid().unwrap();
        let (async_snap, async_fb) = async_store.read_newest_valid().unwrap();
        assert_eq!(sync_snap.unwrap().cursor, async_snap.unwrap().cursor);
        assert_eq!(sync_fb.len(), async_fb.len());
    }

    #[test]
    fn async_writer_surfaces_io_errors() {
        let dir = temp_dir("async-io-error");
        let missing = dir.join("no-such-subdir").join("snap.dhfl");
        let (_config, snap) = snapshot_after_one_step();
        let mut writer = AsyncCheckpointer::spawn(CheckpointStore::new(&missing, 2), None);
        // The first submit is accepted into the queue; the failure lands
        // on a later submit or on the final drain.
        let mut saw_error = writer.submit(snap.clone()).is_err();
        for _ in 0..4 {
            if writer.submit(snap.clone()).is_err() {
                saw_error = true;
                break;
            }
        }
        let finish = writer.finish();
        assert!(
            saw_error || finish.is_err(),
            "a doomed write path must produce an error before the run is declared durable"
        );
        if let Err(e) = finish {
            assert!(matches!(e, FleetError::Io(_)), "unexpected error: {e}");
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let (_config, mut snap) = snapshot_after_one_step();
        let mut buf = Vec::new();
        snap.encode_into(&mut buf);
        assert_eq!(buf, snap.encode());
        let capacity = buf.capacity();
        // A second encode of a slightly-advanced snapshot reuses the
        // allocation (same payload size → no growth).
        snap.cursor += 1;
        snap.encode_into(&mut buf);
        assert_eq!(buf.capacity(), capacity);
        assert_eq!(buf, snap.encode());
    }

    #[test]
    fn injected_writes_corrupt_exactly_the_planned_generations() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("inject");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 2);
        let plan = dh_fault::FaultPlan::parse("ckpt-flip=2", 5).unwrap();
        let mut scratch = Vec::new();
        let first = store
            .write_injected_with(&snap, Some(&plan), 0, &mut scratch)
            .unwrap();
        assert!(first.corruption.is_none());
        assert!(Snapshot::read(&store.generation_path(0)).is_ok());
        let second = store
            .write_injected_with(&snap, Some(&plan), 1, &mut scratch)
            .unwrap();
        assert!(second.corruption.unwrap().contains("flipped bit"));
        assert!(Snapshot::read(&store.generation_path(0)).is_err());
        // The previous (clean) generation still resumes the run.
        let (found, fallbacks) = store.read_newest_valid().unwrap();
        assert!(found.is_some());
        assert_eq!(fallbacks.len(), 1);
    }

    #[test]
    fn degraded_sections_without_disk_fields_still_decode() {
        // Checkpoints written before disk-fault tracking end their
        // degraded section at the fallback list.
        let mut buf = Vec::new();
        put_u64(&mut buf, 2); // retries
        put_u64(&mut buf, 1); // rejected samples
        put_u64(&mut buf, 0); // quarantined
        put_u64(&mut buf, 0); // sensor incidents
        put_u64(&mut buf, 0); // checkpoint fallbacks
        let mut view = buf.as_slice();
        let d = DegradedReport::decode(&mut view, true).unwrap();
        assert!(view.is_empty());
        assert_eq!(d.retries, 2);
        assert_eq!(d.rejected_samples, 1);
        assert!(d.disk_incidents.is_empty());
        assert_eq!(d.retention_trims, 0);
    }

    #[test]
    fn enospc_keeps_the_previous_generation_and_trims_the_oldest() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("enospc");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 3);
        for cursor in 1..4 {
            let mut s = snap.clone();
            s.cursor = cursor;
            store.write(&s).unwrap();
        }
        let plan = dh_fault::FaultPlan::parse("disk-full=1", 7).unwrap();
        let mut failed = snap.clone();
        failed.cursor = 99;
        let outcome = store
            .write_injected_with(&failed, Some(&plan), 0, &mut Vec::new())
            .unwrap();
        assert_eq!(outcome.bytes, 0, "nothing must land under ENOSPC");
        assert_eq!(outcome.disk.disk_incidents.len(), 1);
        assert_eq!(outcome.disk.disk_incidents[0].kind, DiskFaultKind::Enospc);
        assert_eq!(outcome.disk.retention_trims, 1);
        // Newest generation untouched; the oldest was trimmed away.
        assert_eq!(Snapshot::read(&store.generation_path(0)).unwrap().cursor, 3);
        assert_eq!(Snapshot::read(&store.generation_path(1)).unwrap().cursor, 2);
        assert!(!store.generation_path(2).exists());
    }

    #[test]
    fn failed_fsync_abandons_the_write_cleanly() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("fsync-fail");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 2);
        let mut first = snap.clone();
        first.cursor = 1;
        store.write(&first).unwrap();
        let plan = dh_fault::FaultPlan::parse("disk-fsync=1", 7).unwrap();
        let outcome = store
            .write_injected_with(&snap, Some(&plan), 0, &mut Vec::new())
            .unwrap();
        assert_eq!(outcome.bytes, 0);
        assert_eq!(
            outcome.disk.disk_incidents[0].kind,
            DiskFaultKind::FsyncFail
        );
        // No rotation happened: the previous write is still newest and
        // generation 1 never appeared.
        assert_eq!(Snapshot::read(&store.generation_path(0)).unwrap().cursor, 1);
        assert!(!store.generation_path(1).exists());
    }

    #[test]
    fn torn_write_costs_one_generation_not_the_run() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("torn");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 2);
        let mut first = snap.clone();
        first.cursor = 1;
        store.write(&first).unwrap();
        let plan = dh_fault::FaultPlan::parse("disk-torn=1", 7).unwrap();
        let outcome = store
            .write_injected_with(&snap, Some(&plan), 0, &mut Vec::new())
            .unwrap();
        assert_eq!(
            outcome.disk.disk_incidents[0].kind,
            DiskFaultKind::TornWrite
        );
        assert!(outcome.bytes < snap.encode().len() as u64);
        // The torn newest generation fails validation; resume falls back
        // to the intact previous write.
        let (found, fallbacks) = store.read_newest_valid().unwrap();
        assert_eq!(found.unwrap().cursor, 1);
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].generation, 0);
    }

    #[test]
    fn async_writer_reports_disk_incidents_at_finish() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = temp_dir("async-disk");
        let store = CheckpointStore::new(dir.join("snap.dhfl"), 2);
        let plan = dh_fault::FaultPlan::parse("disk-fsync=1", 7).unwrap();
        let mut writer = AsyncCheckpointer::spawn(store, Some(plan));
        for _ in 0..3 {
            writer.submit(snap.clone()).unwrap();
        }
        let disk = writer.finish().unwrap();
        assert_eq!(disk.disk_incidents.len(), 3);
        assert!(disk
            .disk_incidents
            .iter()
            .all(|i| i.kind == DiskFaultKind::FsyncFail));
    }
}
