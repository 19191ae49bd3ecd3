//! Deterministic, seeded fault injection for the simulation integrity layer.
//!
//! A simulator that silently loses a request or decompresses a line wrong
//! produces plausible-looking but incorrect results. To prove the invariant
//! audits (see [`crate::integrity`]) actually catch such corruption, this
//! module injects three fault classes at configurable rates:
//!
//! * **dropped crossbar packets** — a request or response vanishes at a
//!   crossbar port;
//! * **delayed DRAM responses** — a DRAM request is held for a configurable
//!   number of cycles before entering the channel;
//! * **corrupted compressed lines** — payload/metadata bits of a compressed
//!   line are flipped.
//!
//! Injection is deterministic: every component derives its own
//! [`Rng64`] stream from the single [`FaultConfig::seed`], so the same
//! seed produces bit-identical fault schedules regardless of wall-clock or
//! host, and distinct components never share a stream.
//!
//! [`FaultMode`] picks what the simulated hardware does about a fault:
//! `Recover` models the recovery path (retransmit, wait, detect-and-refetch)
//! so runs still complete with correct results and [`crate::RunStats`]
//! counts every event; `Silent` models broken hardware that genuinely loses
//! or corrupts state, which the audits must then surface as structured
//! errors naming the faulting component.

use caba_compress::CompressedLine;
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use caba_stats::Rng64;

/// What the simulated machine does when an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Model the recovery hardware: dropped packets are retransmitted,
    /// delayed DRAM requests simply take longer, corrupted fills are
    /// detected by round-trip verification and refetched. Runs complete
    /// correctly; `RunStats` counts every event.
    #[default]
    Recover,
    /// Model broken hardware: faults genuinely lose or corrupt state. The
    /// structural invariant audits must catch each class and fail the run
    /// with a violation naming the component.
    Silent,
}

/// Fault-injection configuration, carried inside
/// [`GpuConfig`](crate::GpuConfig). All rates are per-opportunity
/// probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master switch; when false no fault path is ever consulted.
    pub enabled: bool,
    /// Seed for every derived fault stream.
    pub seed: u64,
    /// Recovery vs. silent-corruption behavior.
    pub mode: FaultMode,
    /// Probability that a packet entering a crossbar port is dropped.
    pub drop_flit_rate: f64,
    /// Probability that a DRAM request is held before entering the channel.
    pub dram_delay_rate: f64,
    /// Cycles a delayed DRAM request is held. Keep well below the watchdog
    /// window or a delay burst can masquerade as a hang.
    pub dram_delay_cycles: u64,
    /// Probability that a compressed line arriving at an SM is corrupted.
    pub corrupt_line_rate: f64,
}

impl FaultConfig {
    /// No fault injection (the default for every stock configuration).
    pub fn disabled() -> Self {
        FaultConfig {
            enabled: false,
            seed: 0,
            mode: FaultMode::Recover,
            drop_flit_rate: 0.0,
            dram_delay_rate: 0.0,
            dram_delay_cycles: 200,
            corrupt_line_rate: 0.0,
        }
    }

    /// All three fault classes at `rate`, with the recovery paths active.
    pub fn recover(seed: u64, rate: f64) -> Self {
        FaultConfig {
            enabled: true,
            seed,
            mode: FaultMode::Recover,
            drop_flit_rate: rate,
            dram_delay_rate: rate,
            dram_delay_cycles: 200,
            corrupt_line_rate: rate,
        }
    }

    /// All three fault classes at `rate`, silently corrupting state so the
    /// audits must catch them.
    pub fn silent(seed: u64, rate: f64) -> Self {
        FaultConfig {
            mode: FaultMode::Silent,
            ..Self::recover(seed, rate)
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Stream ids keeping per-component fault randomness disjoint.
pub mod stream {
    /// The GPU-level crossbar injector.
    pub const CROSSBAR: u64 = 0x10;
    /// Per-partition DRAM injectors start here (`+ partition id`).
    pub const PARTITION_BASE: u64 = 0x100;
    /// Per-SM fill injectors start here (`+ SM id`).
    pub const SM_BASE: u64 = 0x1000;
}

/// A per-component deterministic fault source.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: Rng64,
}

impl FaultInjector {
    /// Builds the injector for stream `stream` of `cfg` (see [`stream`]).
    pub fn for_stream(cfg: FaultConfig, stream: u64) -> Self {
        FaultInjector {
            cfg,
            rng: Rng64::for_stream(cfg.seed, stream),
        }
    }

    /// True when injection is enabled at all.
    pub fn active(&self) -> bool {
        self.cfg.enabled
    }

    /// The configured fault mode.
    pub fn mode(&self) -> FaultMode {
        self.cfg.mode
    }

    /// Should the packet about to enter a crossbar port be dropped?
    pub fn drop_packet(&mut self) -> bool {
        self.cfg.enabled && self.rng.chance(self.cfg.drop_flit_rate)
    }

    /// Cycles to hold the DRAM request about to be pushed, if faulted.
    pub fn delay_dram(&mut self) -> Option<u64> {
        (self.cfg.enabled && self.rng.chance(self.cfg.dram_delay_rate))
            .then_some(self.cfg.dram_delay_cycles)
    }

    /// Should the compressed fill arriving now be corrupted?
    pub fn corrupt_fill(&mut self) -> bool {
        self.cfg.enabled && self.rng.chance(self.cfg.corrupt_line_rate)
    }

    /// Serializes the injector's RNG position (the config is part of
    /// [`GpuConfig`](crate::GpuConfig) and is re-supplied at restore).
    pub fn snap_save(&self, w: &mut SnapshotWriter) {
        self.rng.save(w);
    }

    /// Restores the RNG position in place, so the fault schedule continues
    /// exactly where the snapshot left off.
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes.
    pub fn snap_load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapError> {
        self.rng = Rng64::load(r)?;
        Ok(())
    }

    /// Flips payload bits of `line` until it no longer round-trips to
    /// `truth`, returning true on success.
    ///
    /// Only payload (and, for empty payloads, encoding) bits are touched —
    /// never the algorithm tag — so decompression of the corrupted line can
    /// fail gracefully but cannot crash. Some payload bits are dead padding
    /// (FPC/C-Pack word alignment), so single flips are retried on
    /// successive bits until the round trip actually breaks.
    pub fn corrupt_line(&mut self, line: &mut CompressedLine, truth: &[u8]) -> bool {
        if line.payload.is_empty() {
            // Zero-payload encodings (e.g. BDI all-zero lines) have no data
            // bits; corrupt the out-of-band encoding id instead.
            line.encoding ^= 0x80;
            return !line.round_trips_to(truth);
        }
        let nbits = line.payload.len() * 8;
        let start = self.rng.range_u64(nbits as u64) as usize;
        for i in 0..nbits {
            let bit = (start + i) % nbits;
            line.payload[bit / 8] ^= 1 << (bit % 8);
            if !line.round_trips_to(truth) {
                return true;
            }
        }
        false
    }
}

/// Dedicated stream id for [`corrupt_snapshot`] (disjoint from the
/// component streams in [`stream`]).
const SNAPSHOT_STREAM: u64 = 0x5A5A;

/// Flips one deterministically chosen bit of a serialized snapshot,
/// modeling storage/transfer corruption of a checkpoint file. Returns the
/// `(byte, bit)` flipped, or `None` when the buffer is empty.
///
/// The position derives from `seed` alone, so a given corruption is
/// reproducible — the integrity tests use this to prove that *any* flipped
/// bit makes [`Gpu::restore`](crate::Gpu::restore) reject the snapshot with
/// a checksum error instead of loading corrupt machine state.
pub fn corrupt_snapshot(bytes: &mut [u8], seed: u64) -> Option<(usize, u8)> {
    if bytes.is_empty() {
        return None;
    }
    let mut rng = Rng64::for_stream(seed, SNAPSHOT_STREAM);
    let bit_index = rng.range_u64(bytes.len() as u64 * 8);
    let byte = (bit_index / 8) as usize;
    let bit = (bit_index % 8) as u8;
    bytes[byte] ^= 1 << bit;
    Some((byte, bit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_compress::Algorithm;

    fn injector(cfg: FaultConfig) -> FaultInjector {
        FaultInjector::for_stream(cfg, stream::CROSSBAR)
    }

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = injector(FaultConfig::disabled());
        for _ in 0..1000 {
            assert!(!inj.drop_packet());
            assert!(inj.delay_dram().is_none());
            assert!(!inj.corrupt_fill());
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = FaultConfig::recover(42, 0.25);
        let mut a = injector(cfg);
        let mut b = injector(cfg);
        let sa: Vec<bool> = (0..500).map(|_| a.drop_packet()).collect();
        let sb: Vec<bool> = (0..500).map(|_| b.drop_packet()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&d| d), "25% rate must fire in 500 draws");
        assert!(!sa.iter().all(|&d| d));

        // A different seed gives a different schedule.
        let mut c = injector(FaultConfig::recover(43, 0.25));
        let sc: Vec<bool> = (0..500).map(|_| c.drop_packet()).collect();
        assert_ne!(sa, sc);
    }

    #[test]
    fn streams_are_independent() {
        let cfg = FaultConfig::recover(7, 0.5);
        let mut a = FaultInjector::for_stream(cfg, stream::SM_BASE);
        let mut b = FaultInjector::for_stream(cfg, stream::SM_BASE + 1);
        let sa: Vec<bool> = (0..200).map(|_| a.corrupt_fill()).collect();
        let sb: Vec<bool> = (0..200).map(|_| b.corrupt_fill()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn corrupt_line_breaks_round_trip() {
        // A BDI-compressible line with a real payload.
        let mut line_bytes = Vec::new();
        for i in 0..32u32 {
            line_bytes.extend_from_slice(&(0x1000 + i).to_le_bytes());
        }
        let c = Algorithm::Bdi.compress_line(&line_bytes).unwrap();
        let mut inj = injector(FaultConfig::silent(1, 1.0));
        for trial in 0..32 {
            let mut victim = c.clone();
            assert!(
                inj.corrupt_line(&mut victim, &line_bytes),
                "trial {trial} failed to corrupt"
            );
            assert!(!victim.round_trips_to(&line_bytes));
        }
    }

    #[test]
    fn corrupt_snapshot_is_deterministic_and_flips_one_bit() {
        let original: Vec<u8> = (0..251u32).map(|i| (i * 7) as u8).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        let pa = corrupt_snapshot(&mut a, 99).expect("non-empty");
        let pb = corrupt_snapshot(&mut b, 99).expect("non-empty");
        assert_eq!(pa, pb, "same seed, same flipped bit");
        assert_eq!(a, b);
        let diffs: Vec<usize> = (0..original.len())
            .filter(|&i| a[i] != original[i])
            .collect();
        assert_eq!(diffs, vec![pa.0], "exactly one byte differs");
        assert_eq!(
            a[pa.0] ^ original[pa.0],
            1 << pa.1,
            "exactly one bit flipped"
        );
        // A different seed (eventually) picks a different bit.
        let mut c = original.clone();
        let pc = corrupt_snapshot(&mut c, 100).expect("non-empty");
        assert_ne!(pa, pc);
        assert_eq!(corrupt_snapshot(&mut [], 1), None);
    }

    #[test]
    fn injector_snapshot_resumes_rng_stream() {
        let cfg = FaultConfig::recover(42, 0.25);
        let mut live = injector(cfg);
        for _ in 0..123 {
            live.drop_packet();
        }
        let mut w = SnapshotWriter::new();
        live.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = injector(cfg);
        let mut r = SnapshotReader::new(&bytes);
        restored.snap_load(&mut r).expect("round trip");
        r.finish().expect("no trailing bytes");
        let a: Vec<bool> = (0..200).map(|_| live.drop_packet()).collect();
        let b: Vec<bool> = (0..200).map(|_| restored.drop_packet()).collect();
        assert_eq!(a, b, "restored stream must continue identically");
    }

    #[test]
    fn corrupt_line_handles_empty_payload() {
        // An all-zero line compresses to a zero-byte payload under BDI.
        let zeros = vec![0u8; 128];
        let c = Algorithm::Bdi.compress_line(&zeros).unwrap();
        assert!(c.payload.is_empty(), "zero line should have empty payload");
        let mut inj = injector(FaultConfig::silent(2, 1.0));
        let mut victim = c.clone();
        assert!(inj.corrupt_line(&mut victim, &zeros));
        assert!(!victim.round_trips_to(&zeros));
    }
}
