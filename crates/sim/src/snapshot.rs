//! The checkpoint container format: a versioned, checksummed framing
//! around the machine-state payload produced by
//! [`Gpu::snapshot`](crate::Gpu::snapshot) and consumed by
//! [`Gpu::restore`](crate::Gpu::restore).
//!
//! # Container layout (format version 4)
//!
//! | field        | encoding                 | purpose                      |
//! |--------------|--------------------------|------------------------------|
//! | magic        | 8 raw bytes `"CABASNAP"` | file-type identification     |
//! | version      | `u32`                    | format evolution gate        |
//! | config hash  | `u64`                    | machine-shape compatibility  |
//! | design label | length-prefixed string   | design-point compatibility   |
//! | kernel hash  | `u64`                    | program compatibility        |
//! | payload      | machine state            | see `Gpu::payload_save`      |
//! | checksum     | trailing `u64` (LE)      | FNV-1a over everything above |
//!
//! Each SM's record in the payload ends with its CABA controller's state
//! on a CABA design, and with nothing on the others.
//!
//! The checksum is verified **before** any field is decoded, so corrupt
//! bytes are rejected with [`RestoreError::ChecksumMismatch`] and never
//! partially loaded into a live machine.
//!
//! # Config-hash tolerance
//!
//! The config hash covers every [`GpuConfig`] knob that shapes machine
//! state or its evolution. These knobs are deliberately excluded, so
//! a snapshot can be restored under a *different* setting of each:
//!
//! * `observability` — tracing and metrics are record-only, so a quiet
//!   run's snapshot restores into a traced machine.
//! * `intra_jobs` — an inert field nothing reads ([`GpuConfig::intra_jobs`]).
//! * `watchdog_window` — detection-only; it never mutates machine state.
//! * `time_skip` — the next-event and the naive engine give identical runs.

use crate::config::GpuConfig;
use crate::observe::ObservabilityConfig;
use caba_stats::checksum::{self, checksum64};
use caba_stats::snap::{SnapError, SnapshotWriter};
use std::fmt;

/// First bytes of every snapshot container.
pub const MAGIC: &[u8; 8] = b"CABASNAP";

/// Current container format version. Bump on any payload layout change.
pub const FORMAT_VERSION: u32 = 4;

/// Why a snapshot container was rejected by
/// [`Gpu::restore`](crate::Gpu::restore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The container was written by a different format version.
    VersionMismatch {
        /// Version recorded in the container.
        found: u32,
    },
    /// The trailing checksum does not match the container contents — the
    /// bytes were corrupted (or truncated) after the snapshot was taken.
    ChecksumMismatch,
    /// The restoring GPU's configuration hash differs from the snapshot's
    /// (ignoring observability, `intra_jobs`, `watchdog_window` and
    /// `time_skip`).
    ConfigHashMismatch,
    /// The restoring GPU models a different design point.
    DesignMismatch {
        /// Design label recorded in the container.
        found: String,
    },
    /// The kernel handed to `restore` is not the one the snapshot ran.
    KernelMismatch,
    /// The payload failed to decode — version-skew or an internal bug, as
    /// the checksum already proved the bytes intact.
    Malformed(SnapError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "not a CABA snapshot (bad magic)"),
            RestoreError::VersionMismatch { found } => write!(
                f,
                "snapshot format version {found} is not the supported version {FORMAT_VERSION}"
            ),
            RestoreError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch: the bytes are corrupt")
            }
            RestoreError::ConfigHashMismatch => write!(
                f,
                "snapshot was taken under an incompatible GPU configuration"
            ),
            RestoreError::DesignMismatch { found } => {
                write!(f, "snapshot was taken on design {found:?}, not this design")
            }
            RestoreError::KernelMismatch => {
                write!(f, "snapshot was taken running a different kernel")
            }
            RestoreError::Malformed(e) => write!(f, "snapshot payload is malformed: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SnapError> for RestoreError {
    fn from(e: SnapError) -> Self {
        RestoreError::Malformed(e)
    }
}

/// The configuration compatibility hash stored in every container: a
/// checksum of the canonicalized [`GpuConfig`] with the tolerated knobs
/// (see the module docs) reset to fixed values.
pub fn config_hash(cfg: &GpuConfig) -> u64 {
    let mut canon = *cfg;
    canon.observability = ObservabilityConfig::default();
    canon.intra_jobs = 1;
    canon.watchdog_window = 0;
    canon.time_skip = true;
    checksum64(format!("{canon:?}").as_bytes())
}

/// Appends the trailing checksum and returns the finished container
/// (the shared [`caba_stats::checksum::seal`] framing).
pub(crate) fn seal(w: SnapshotWriter) -> Vec<u8> {
    checksum::seal(w.into_bytes())
}

/// Verifies the trailing checksum and returns the container body (header
/// plus payload) it covers. Runs before any decoding, so corrupt bytes
/// never reach a live machine — the workspace-wide checksum-before-decode
/// contract of [`caba_stats::checksum::verify_sealed`].
pub(crate) fn verify_sealed(bytes: &[u8]) -> Result<&[u8], RestoreError> {
    checksum::verify_sealed(bytes).ok_or(RestoreError::ChecksumMismatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_verify_round_trip() {
        let mut w = SnapshotWriter::new();
        w.raw(MAGIC);
        w.u64(0xDEAD_BEEF);
        let sealed = seal(w);
        let body = verify_sealed(&sealed).expect("fresh container verifies");
        assert_eq!(&body[..8], MAGIC);
    }

    #[test]
    fn any_flipped_bit_is_caught() {
        let mut w = SnapshotWriter::new();
        w.raw(MAGIC);
        w.str("payload payload payload");
        let sealed = seal(w);
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    verify_sealed(&bad),
                    Err(RestoreError::ChecksumMismatch),
                    "flip at byte {byte} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_caught() {
        let mut w = SnapshotWriter::new();
        w.raw(MAGIC);
        w.u64(7);
        let sealed = seal(w);
        for len in 0..sealed.len() {
            assert!(verify_sealed(&sealed[..len]).is_err(), "truncated to {len}");
        }
    }

    #[test]
    fn config_hash_tolerates_observability_knobs() {
        use crate::observe::TraceConfig;
        let base = GpuConfig::small();
        let h = config_hash(&base);

        let mut traced = base;
        traced.observability.trace = Some(TraceConfig::full(1));
        traced.intra_jobs = 4;
        traced.watchdog_window = 0;
        traced.time_skip = !base.time_skip;
        assert_eq!(
            config_hash(&traced),
            h,
            "tolerated knobs must not change the hash"
        );

        let mut resized = base;
        resized.num_sms += 1;
        assert_ne!(
            config_hash(&resized),
            h,
            "machine shape must change the hash"
        );
    }
}
