//! Fleet-layer errors.

use core::fmt;

/// Everything that can go wrong building, running, checkpointing, or
/// resuming a fleet simulation.
#[derive(Debug)]
pub enum FleetError {
    /// A configuration field is out of range or inconsistent.
    InvalidConfig(String),
    /// A report was requested before every shard was folded.
    NotFinished {
        /// Shards folded so far.
        done: u64,
        /// Total shards in the run.
        total: u64,
    },
    /// Reading or writing a checkpoint file failed.
    Io(String),
    /// A checkpoint's bytes do not parse (bad magic, truncation, or a
    /// checksum mismatch).
    Corrupt(String),
    /// A checkpoint was written by an incompatible snapshot format.
    Version {
        /// The version byte found in the file.
        found: u8,
        /// The version this build writes and reads.
        expected: u8,
    },
    /// A checkpoint belongs to a different [`crate::FleetConfig`] (the
    /// config fingerprint does not match), so resuming from it would
    /// silently mix two different simulations.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        found: u64,
        /// Fingerprint of the config attempting to resume.
        expected: u64,
    },
    /// A chip produced a NaN/Inf sample that would silently poison the
    /// streaming quantile estimators. Strict runs abort with this error;
    /// supervised runs reject the sample and record it in the
    /// [`dh_fault::DegradedReport`].
    NonFiniteSample {
        /// The shard that produced the sample.
        shard: u64,
        /// The global chip index of the offending outcome.
        chip: u64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(why) => write!(f, "invalid fleet config: {why}"),
            Self::NotFinished { done, total } => {
                write!(f, "fleet run not finished: {done}/{total} shards folded")
            }
            Self::Io(why) => write!(f, "checkpoint I/O failed: {why}"),
            Self::Corrupt(why) => write!(f, "checkpoint is corrupt: {why}"),
            Self::Version { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} (this build reads {expected})"
                )
            }
            Self::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match config {expected:#018x}"
            ),
            Self::NonFiniteSample { shard, chip } => write!(
                f,
                "chip {chip} (shard {shard}) produced a non-finite sample"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<dh_fault::wire::WireError> for FleetError {
    fn from(e: dh_fault::wire::WireError) -> Self {
        Self::Corrupt(e.to_string())
    }
}

impl From<dh_fault::StoreError> for FleetError {
    fn from(e: dh_fault::StoreError) -> Self {
        Self::Io(e.to_string())
    }
}

impl From<dh_exec::WriterPanicked> for FleetError {
    fn from(_: dh_exec::WriterPanicked) -> Self {
        Self::Io("checkpoint writer panicked".into())
    }
}
