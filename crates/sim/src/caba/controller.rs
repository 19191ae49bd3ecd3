//! The CABA Assist Warp Controller (§3.3–3.4, §4.2).
//!
//! One [`CabaController`] per SM decides which subroutine to trigger for
//! each fill/store event, manages staging slots (the compressed line
//! resident at the core plus live-in/live-out registers), and interprets
//! assist-warp completions. Decompression assist warps run at high priority
//! ("stalls the progress of its parent warp until it completes", §4.2.1);
//! compression assist warps run at low priority through the AWB partition
//! ("off the critical path", §4.2.2). What varies between design points is
//! the [`CabaMode`], plain data inside [`crate::Design::Caba`].

use super::subroutines::{
    active_mask_for, lanes_for, AssistWarpStore, SubroutineKey, CABA_COMPRESS_ENCODINGS, HDR_OFF,
    PAYLOAD_OFF, SLOT_SIZE,
};
use crate::assist::{
    AssistLaunch, AssistOutcome, AssistPriority, FillAction, FillInfo, SmServices, StoreAction,
    StoreInfo,
};
use caba_compress::bdi::{self, BdiEncoding};
use caba_compress::{Algorithm, CompressedLine, LineCompressor};
use caba_isa::{Program, Reg};
use caba_mem::LINE_SIZE;
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotWriter};
use std::collections::HashMap;
use std::sync::Arc;

/// Which compression algorithm(s) the controller drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CabaMode {
    /// CABA-BDI: genuine assist-warp subroutines.
    Bdi,
    /// CABA-FPC: timing-representative subroutines, reference functional
    /// results.
    Fpc,
    /// CABA-C-Pack.
    CPack,
    /// CABA-BestOfAll (§6.3): per-line best algorithm, no selection
    /// overhead.
    BestOfAll,
    /// The engine differential's stand-in: one fixed program deployed for
    /// every compressed fill (at low priority when `low_fills`) and every
    /// store line, tagged by the line address (bit 0 set for a store). Its
    /// SFU op before the exit reaches a scheduler memo class no real
    /// subroutine does.
    #[cfg(test)]
    StandIn {
        /// Deploy fill assists at low priority.
        low_fills: bool,
    },
}

impl CabaMode {
    /// The compression algorithm(s) this mode drives: the selector of the
    /// reference compression map and of each store's subroutine.
    pub fn selector(self) -> LineCompressor {
        match self {
            CabaMode::Bdi => LineCompressor::Fixed(Algorithm::Bdi),
            CabaMode::Fpc => LineCompressor::Fixed(Algorithm::Fpc),
            CabaMode::CPack => LineCompressor::Fixed(Algorithm::CPack),
            CabaMode::BestOfAll => LineCompressor::BestOfAll,
            #[cfg(test)]
            CabaMode::StandIn { .. } => LineCompressor::Fixed(Algorithm::Bdi),
        }
    }

    /// Short name for reports, snapshot headers and hang-trace files.
    pub fn label(self) -> &'static str {
        match self {
            CabaMode::Bdi => "CABA-BDI",
            CabaMode::Fpc => "CABA-FPC",
            CabaMode::CPack => "CABA-CPack",
            CabaMode::BestOfAll => "CABA-BestOfAll",
            #[cfg(test)]
            CabaMode::StandIn { .. } => "CABA-StandIn",
        }
    }

    /// Registers the enabled helper routines add to the per-block
    /// requirement (§3.2.2), charged per thread at CTA launch.
    pub fn extra_regs_per_thread(self) -> u32 {
        match self {
            #[cfg(test)]
            CabaMode::StandIn { .. } => 8,
            // The widest subroutine uses registers r0..r8.
            _ => 9,
        }
    }
}

/// Counters the controller keeps. Snapshots carry them; no report reads
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CabaStats {
    /// Decompression assist warps launched.
    decompressions: u64,
    /// Compression assist warps launched.
    compressions: u64,
    /// Compression subroutines that reported "encoding does not fit".
    compression_failures: u64,
    /// Events handled without an assist warp because no staging slot was
    /// free (throttling fallback).
    slot_fallbacks: u64,
    /// Compression results discarded because the line changed underneath
    /// the assist warp (recompressed from current contents).
    stale_recompressions: u64,
}

#[derive(Debug)]
enum Inflight {
    BdiDecompress {
        addr: u64,
        slot: u64,
        expected: Vec<u8>,
    },
    SerialDecompress {
        addr: u64,
        slot: u64,
    },
    BdiCompress {
        addr: u64,
        slot: u64,
        enc: BdiEncoding,
        snapshot: Vec<u8>,
    },
    SerialCompress {
        addr: u64,
        slot: u64,
        alg: Algorithm,
        snapshot: Vec<u8>,
    },
}

/// Staging slots per SM.
const SLOTS_PER_SM: u64 = 128;
/// Offset of the first slot inside an SM's staging region.
const SLOTS_BASE_OFF: u64 = 4096;

/// One SM's Assist Warp Controller. [`crate::Gpu`] builds one per SM from
/// the design's [`CabaMode`]: tags and staging slots are per-SM
/// namespaces.
#[derive(Debug)]
pub struct CabaController {
    mode: CabaMode,
    /// Check every BDI assist-warp result against the reference compressor
    /// (panicking on a mismatch). On in debug builds; `Gpu::set_paranoid`
    /// switches it.
    pub(crate) paranoid: bool,
    aws: AssistWarpStore,
    inflight: HashMap<u64, Inflight>,
    free_slots: HashMap<usize, Vec<u64>>,
    next_tag: u64,
    stats: CabaStats,
}

impl CabaController {
    /// A controller with no per-run state, paranoid in debug builds.
    pub fn new(mode: CabaMode) -> Self {
        CabaController {
            mode,
            paranoid: cfg!(debug_assertions),
            aws: AssistWarpStore::new(),
            inflight: HashMap::new(),
            free_slots: HashMap::new(),
            next_tag: 0,
            stats: CabaStats::default(),
        }
    }

    fn alloc_slot(&mut self, sm: usize, staging_base: u64) -> Option<u64> {
        let slots = self.free_slots.entry(sm).or_insert_with(|| {
            (0..SLOTS_PER_SM)
                .map(|i| staging_base + SLOTS_BASE_OFF + i * SLOT_SIZE)
                .collect()
        });
        slots.pop()
    }

    fn free_slot(&mut self, sm: usize, slot: u64) {
        self.free_slots.entry(sm).or_default().push(slot);
    }

    fn take_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Picks the BDI encoding the compression assist warp will *test* for
    /// this line. The AWC profiles recent lines; here the profile oracle is
    /// the reference compressor restricted to the single-pass encodings
    /// (§4.1.2: often a single encoding suffices per application).
    fn pick_encoding(line: &[u8]) -> BdiEncoding {
        CABA_COMPRESS_ENCODINGS
            .into_iter()
            .filter(|&e| bdi::fits(line, e))
            .min_by_key(|e| e.compressed_size(line.len()))
            // Nothing fits: still run one test (it will report failure and
            // the line is released uncompressed) — the paper's overhead for
            // incompressible data.
            .unwrap_or(BdiEncoding::B4D1)
    }

    /// The stand-in's launch: its one program, the staging base and the
    /// line address live in.
    #[cfg(test)]
    fn stand_in_launch(
        &mut self,
        parent_warp: usize,
        low: bool,
        staging: u64,
        tag: u64,
    ) -> AssistLaunch {
        AssistLaunch {
            program: self.aws.get(SubroutineKey::StandIn),
            parent_warp,
            priority: if low {
                AssistPriority::Low
            } else {
                AssistPriority::High
            },
            live_in: [(Reg(0), staging), (Reg(1), tag & !1)],
            active_mask: u32::MAX,
            tag,
        }
    }

    /// A compressed fill reached the L1 boundary.
    pub fn on_fill(&mut self, info: &FillInfo, svc: &mut SmServices<'_, '_>) -> FillAction {
        #[cfg(test)]
        if let CabaMode::StandIn { low_fills } = self.mode {
            let launch =
                self.stand_in_launch(info.parent_warp, low_fills, svc.staging_base, info.addr);
            return FillAction::Assist(launch);
        }
        let Some(stored) =
            svc.line_store
                .stored_compressed(svc.mem, svc.cmap.as_deref_mut(), info.addr)
        else {
            return FillAction::Complete { extra_latency: 0 };
        };
        let Some(slot) = self.alloc_slot(info.sm, svc.staging_base) else {
            // Staging exhausted: throttle by falling back to a serialized
            // fixed-latency path.
            self.stats.slot_fallbacks += 1;
            return FillAction::Complete { extra_latency: 16 };
        };
        // Materialize the compressed payload at the core ("the compressed
        // cache line is inserted into the L1 cache", §4.2.1).
        let payload_addr = (slot as i64 + PAYLOAD_OFF) as u64;
        svc.mem.load_image(payload_addr, &stored.payload);

        let tag = self.take_tag();
        let (program, active_mask) = match stored.algorithm {
            Algorithm::Bdi => {
                let enc = BdiEncoding::from_id(stored.encoding)
                    .expect("stored BDI lines carry valid encodings");
                (
                    self.aws.get(SubroutineKey::BdiDecompress(enc)),
                    active_mask_for(lanes_for(enc)),
                )
            }
            alg => (self.aws.get(SubroutineKey::SerialDecompress(alg)), u32::MAX),
        };
        let expected = match stored.algorithm {
            Algorithm::Bdi => stored.decompress().expect("stored BDI lines decompress"),
            _ => svc.mem.read_line(info.addr),
        };
        self.inflight.insert(
            tag,
            match stored.algorithm {
                Algorithm::Bdi => Inflight::BdiDecompress {
                    addr: info.addr,
                    slot,
                    expected,
                },
                _ => Inflight::SerialDecompress {
                    addr: info.addr,
                    slot,
                },
            },
        );
        self.stats.decompressions += 1;
        FillAction::Assist(AssistLaunch {
            program,
            parent_warp: info.parent_warp,
            priority: AssistPriority::High,
            live_in: [(Reg(0), payload_addr), (Reg(1), info.addr)],
            active_mask,
            tag,
        })
    }

    /// A dirty line is ready to leave the core.
    pub fn on_store(&mut self, info: &StoreInfo, svc: &mut SmServices<'_, '_>) -> StoreAction {
        #[cfg(test)]
        if let CabaMode::StandIn { .. } = self.mode {
            let launch =
                self.stand_in_launch(info.parent_warp, true, svc.staging_base, info.addr | 1);
            return StoreAction::Assist(launch);
        }
        let Some(slot) = self.alloc_slot(info.sm, svc.staging_base) else {
            self.stats.slot_fallbacks += 1;
            return StoreAction::PassThrough;
        };
        let line = svc.mem.read_line(info.addr);
        let tag = self.take_tag();
        // BestOfAll drives the subroutine of the best algorithm for this
        // line, which its scans decide.
        let alg = self.mode.selector().winner(&line);
        let (program, active_mask, entry) = match alg {
            Some(Algorithm::Bdi) | None => {
                let enc = Self::pick_encoding(&line);
                (
                    self.aws.get(SubroutineKey::BdiCompress(enc)),
                    active_mask_for(lanes_for(enc)),
                    Inflight::BdiCompress {
                        addr: info.addr,
                        slot,
                        enc,
                        snapshot: line,
                    },
                )
            }
            Some(alg) => (
                self.aws.get(SubroutineKey::SerialCompress(alg)),
                u32::MAX,
                Inflight::SerialCompress {
                    addr: info.addr,
                    slot,
                    alg,
                    snapshot: line,
                },
            ),
        };
        self.inflight.insert(tag, entry);
        self.stats.compressions += 1;
        StoreAction::Assist(AssistLaunch {
            program,
            parent_warp: info.parent_warp,
            priority: AssistPriority::Low,
            live_in: [(Reg(0), info.addr), (Reg(1), slot)],
            active_mask,
            tag,
        })
    }

    /// An assist warp with `tag` ran to completion.
    pub fn on_assist_complete(&mut self, tag: u64, svc: &mut SmServices<'_, '_>) -> AssistOutcome {
        #[cfg(test)]
        if let CabaMode::StandIn { .. } = self.mode {
            return if tag & 1 == 1 {
                AssistOutcome::StoreRelease { addr: tag & !1 }
            } else {
                AssistOutcome::FillComplete { addr: tag }
            };
        }
        let Some(entry) = self.inflight.remove(&tag) else {
            return AssistOutcome::Nothing;
        };
        match entry {
            Inflight::BdiDecompress {
                addr,
                slot,
                expected,
            } => {
                if self.paranoid {
                    let got = svc.mem.read_line(addr);
                    assert_eq!(
                        got, expected,
                        "BDI decompression assist warp produced wrong bytes at {addr:#x}"
                    );
                }
                self.free_slot(svc.sm_id, slot);
                AssistOutcome::FillComplete { addr }
            }
            Inflight::SerialDecompress { addr, slot } => {
                self.free_slot(svc.sm_id, slot);
                AssistOutcome::FillComplete { addr }
            }
            Inflight::BdiCompress {
                addr,
                slot,
                enc,
                snapshot,
            } => {
                let current = svc.mem.read_line(addr);
                if current != snapshot {
                    // The line changed while the assist warp ran (a newer
                    // coalesced store): discard the stale result and
                    // recompress the current contents.
                    self.stats.stale_recompressions += 1;
                    match bdi::compress(&current) {
                        Some(c) => svc.line_store.set_compressed(addr, c),
                        None => svc.line_store.set_raw(addr),
                    }
                } else {
                    let header = svc.mem.read_u32((slot as i64 + HDR_OFF) as u64);
                    if header == 1 {
                        let len = enc.compressed_size(LINE_SIZE);
                        let payload = svc.mem.read_bytes((slot as i64 + PAYLOAD_OFF) as u64, len);
                        let line = CompressedLine {
                            algorithm: Algorithm::Bdi,
                            encoding: enc.id(),
                            payload,
                            original_len: LINE_SIZE,
                        };
                        if self.paranoid {
                            let reference = bdi::compress_with(&snapshot, enc)
                                .expect("subroutine succeeded, reference must too");
                            assert_eq!(
                                line, reference,
                                "BDI compression assist warp payload diverges from \
                                 the reference at {addr:#x} ({enc:?})"
                            );
                        }
                        svc.line_store.set_compressed(addr, line);
                    } else {
                        self.stats.compression_failures += 1;
                        svc.line_store.set_raw(addr);
                    }
                }
                self.free_slot(svc.sm_id, slot);
                AssistOutcome::StoreRelease { addr }
            }
            Inflight::SerialCompress {
                addr,
                slot,
                alg,
                snapshot,
            } => {
                let current = svc.mem.read_line(addr);
                if current != snapshot {
                    self.stats.stale_recompressions += 1;
                }
                match alg.compress_line(&current) {
                    Some(c) => svc.line_store.set_compressed(addr, c),
                    None => {
                        self.stats.compression_failures += 1;
                        svc.line_store.set_raw(addr);
                    }
                }
                self.free_slot(svc.sm_id, slot);
                AssistOutcome::StoreRelease { addr }
            }
        }
    }

    /// Serializes the per-run state (in-flight operations, slot free
    /// lists, the tag counter, the counters) for [`crate::Gpu::snapshot`].
    pub fn snap_save(&self, w: &mut SnapshotWriter) {
        // The mode comes from the design the restoring GPU was built
        // with, and the assist-warp store is a pure program memoization —
        // only per-run state is serialized, with both maps in sorted key
        // order for byte-stable output.
        let mut tags: Vec<u64> = self.inflight.keys().copied().collect();
        tags.sort_unstable();
        w.usize(tags.len());
        for tag in tags {
            w.u64(tag);
            save_inflight(&self.inflight[&tag], w);
        }
        // A pool absent from `free_slots` is *not* an empty pool: the lazy
        // `alloc_slot` initializer refills an absent entry, so presence is
        // state. Vec order is preserved (slots are popped from the end).
        let mut sms: Vec<usize> = self.free_slots.keys().copied().collect();
        sms.sort_unstable();
        w.usize(sms.len());
        for sm in sms {
            let pool = &self.free_slots[&sm];
            w.usize(sm);
            w.usize(pool.len());
            for &slot in pool {
                w.u64(slot);
            }
        }
        w.u64(self.next_tag);
        w.u64(self.stats.decompressions);
        w.u64(self.stats.compressions);
        w.u64(self.stats.compression_failures);
        w.u64(self.stats.slot_fallbacks);
        w.u64(self.stats.stale_recompressions);
    }

    /// Restores state written by [`CabaController::snap_save`].
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes.
    pub fn snap_load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapError> {
        self.inflight.clear();
        let n = r.seq_len("CABA in-flight operations", 17)?;
        for _ in 0..n {
            let tag = r.u64()?;
            self.inflight.insert(tag, load_inflight(r)?);
        }
        self.free_slots.clear();
        let pools = r.seq_len("CABA slot pools", 16)?;
        for _ in 0..pools {
            let sm = r.usize()?;
            let len = r.seq_len("CABA slot pool", 8)?;
            if len > SLOTS_PER_SM as usize {
                return Err(SnapError::Invariant {
                    what: "slot pool exceeds SLOTS_PER_SM",
                });
            }
            let mut pool = Vec::with_capacity(len);
            for _ in 0..len {
                pool.push(r.u64()?);
            }
            self.free_slots.insert(sm, pool);
        }
        self.next_tag = r.u64()?;
        self.stats = CabaStats {
            decompressions: r.u64()?,
            compressions: r.u64()?,
            compression_failures: r.u64()?,
            slot_fallbacks: r.u64()?,
            stale_recompressions: r.u64()?,
        };
        Ok(())
    }

    /// Every subroutine program a controller can launch. Snapshots store
    /// in-flight assist programs by content hash
    /// ([`Program::content_hash`]); restore resolves the hashes against
    /// this enumeration. The key space is finite, and a fresh store
    /// generates the identical (content-hash-equal) programs the live
    /// per-SM stores memoized.
    pub fn subroutine_programs() -> Vec<Arc<Program>> {
        let mut aws = AssistWarpStore::new();
        let mut out = Vec::new();
        for enc in BdiEncoding::ALL {
            out.push(aws.get(SubroutineKey::BdiDecompress(enc)));
        }
        for enc in CABA_COMPRESS_ENCODINGS {
            out.push(aws.get(SubroutineKey::BdiCompress(enc)));
        }
        for alg in [Algorithm::Fpc, Algorithm::CPack] {
            out.push(aws.get(SubroutineKey::SerialDecompress(alg)));
            out.push(aws.get(SubroutineKey::SerialCompress(alg)));
        }
        out
    }
}

fn alg_tag(a: Algorithm) -> u8 {
    match a {
        Algorithm::Bdi => 0,
        Algorithm::Fpc => 1,
        Algorithm::CPack => 2,
    }
}

fn alg_from_tag(tag: u8) -> Result<Algorithm, SnapError> {
    match tag {
        0 => Ok(Algorithm::Bdi),
        1 => Ok(Algorithm::Fpc),
        2 => Ok(Algorithm::CPack),
        tag => Err(SnapError::BadTag {
            what: "compression algorithm",
            tag: tag.into(),
        }),
    }
}

fn save_inflight(e: &Inflight, w: &mut SnapshotWriter) {
    match e {
        Inflight::BdiDecompress {
            addr,
            slot,
            expected,
        } => {
            w.u8(0);
            w.u64(*addr);
            w.u64(*slot);
            w.bytes(expected);
        }
        Inflight::SerialDecompress { addr, slot } => {
            w.u8(1);
            w.u64(*addr);
            w.u64(*slot);
        }
        Inflight::BdiCompress {
            addr,
            slot,
            enc,
            snapshot,
        } => {
            w.u8(2);
            w.u64(*addr);
            w.u64(*slot);
            w.u8(enc.id());
            w.bytes(snapshot);
        }
        Inflight::SerialCompress {
            addr,
            slot,
            alg,
            snapshot,
        } => {
            w.u8(3);
            w.u64(*addr);
            w.u64(*slot);
            w.u8(alg_tag(*alg));
            w.bytes(snapshot);
        }
    }
}

fn load_inflight(r: &mut SnapshotReader<'_>) -> Result<Inflight, SnapError> {
    Ok(match r.u8()? {
        0 => Inflight::BdiDecompress {
            addr: r.u64()?,
            slot: r.u64()?,
            expected: r.bytes()?.to_vec(),
        },
        1 => Inflight::SerialDecompress {
            addr: r.u64()?,
            slot: r.u64()?,
        },
        2 => Inflight::BdiCompress {
            addr: r.u64()?,
            slot: r.u64()?,
            enc: {
                let id = r.u8()?;
                BdiEncoding::from_id(id).ok_or(SnapError::BadTag {
                    what: "BDI encoding",
                    tag: id.into(),
                })?
            },
            snapshot: r.bytes()?.to_vec(),
        },
        3 => Inflight::SerialCompress {
            addr: r.u64()?,
            slot: r.u64()?,
            alg: alg_from_tag(r.u8()?)?,
            snapshot: r.bytes()?.to_vec(),
        },
        tag => {
            return Err(SnapError::BadTag {
                what: "in-flight CABA operation",
                tag: tag.into(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bdi() -> CabaController {
        CabaController::new(CabaMode::Bdi)
    }

    #[test]
    fn modes_name_their_algorithms() {
        for (mode, selector) in [
            (CabaMode::Bdi, LineCompressor::Fixed(Algorithm::Bdi)),
            (CabaMode::Fpc, LineCompressor::Fixed(Algorithm::Fpc)),
            (CabaMode::CPack, LineCompressor::Fixed(Algorithm::CPack)),
            (CabaMode::BestOfAll, LineCompressor::BestOfAll),
        ] {
            assert_eq!(mode.selector(), selector, "{mode:?}");
        }
        assert!(CabaMode::Bdi.extra_regs_per_thread() > 0);
    }

    #[test]
    fn pick_encoding_prefers_smallest() {
        // All zeros: Zeros encoding.
        let zeros = vec![0u8; LINE_SIZE];
        assert_eq!(CabaController::pick_encoding(&zeros), BdiEncoding::Zeros);
        // Small 4-byte values: B4D1 beats B8 variants.
        let mut line = Vec::new();
        for i in 0..32u32 {
            line.extend_from_slice(&(0x40 + i).to_le_bytes());
        }
        let enc = CabaController::pick_encoding(&line);
        let chosen = bdi::compress_with(&line, enc).unwrap().size_bytes();
        for e in CABA_COMPRESS_ENCODINGS {
            if let Some(c) = bdi::compress_with(&line, e) {
                assert!(chosen <= c.size_bytes());
            }
        }
        // Incompressible: falls back to a test that will fail.
        let mut junk = Vec::new();
        let mut x = 3u64;
        while junk.len() < LINE_SIZE {
            x = x.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(0x14);
            junk.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(CabaController::pick_encoding(&junk), BdiEncoding::B4D1);
    }

    #[test]
    fn slot_allocation_is_per_sm() {
        let mut c = bdi();
        let a = c.alloc_slot(0, 0x1000).unwrap();
        let b = c.alloc_slot(1, 0x2000).unwrap();
        assert_ne!(a, b);
        c.free_slot(0, a);
        // Exhausting SM 0's slots succeeds exactly SLOTS_PER_SM times.
        let mut n = 0;
        while c.alloc_slot(0, 0x1000).is_some() {
            n += 1;
            if n > 1000 {
                break;
            }
        }
        assert_eq!(n, SLOTS_PER_SM);
    }

    #[test]
    fn controller_snapshot_round_trips_byte_identically() {
        let mut c = bdi();
        // Drive real allocator/tag state plus one of each in-flight shape.
        let s0 = c.alloc_slot(0, 0x1000).unwrap();
        let s1 = c.alloc_slot(2, 0x3000).unwrap();
        let t0 = c.take_tag();
        let t1 = c.take_tag();
        c.inflight.insert(
            t0,
            Inflight::BdiDecompress {
                addr: 0x8000,
                slot: s0,
                expected: vec![7u8; LINE_SIZE],
            },
        );
        c.inflight.insert(
            t1,
            Inflight::BdiCompress {
                addr: 0x8040,
                slot: s1,
                enc: BdiEncoding::B8D2,
                snapshot: vec![3u8; LINE_SIZE],
            },
        );
        let t2 = c.take_tag();
        c.inflight.insert(
            t2,
            Inflight::SerialCompress {
                addr: 0x8080,
                slot: 0x42,
                alg: Algorithm::CPack,
                snapshot: vec![9u8; LINE_SIZE],
            },
        );
        let t3 = c.take_tag();
        c.inflight.insert(
            t3,
            Inflight::SerialDecompress {
                addr: 0x80C0,
                slot: 0x43,
            },
        );
        c.stats.compressions = 11;
        c.stats.slot_fallbacks = 2;

        let mut w = SnapshotWriter::new();
        c.snap_save(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = bdi();
        let mut r = SnapshotReader::new(&bytes);
        fresh.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.next_tag, c.next_tag);
        assert_eq!(fresh.stats, c.stats);
        assert_eq!(fresh.free_slots, c.free_slots);

        let mut w2 = SnapshotWriter::new();
        fresh.snap_save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "re-save must be byte-identical");
    }

    #[test]
    fn subroutine_table_covers_every_launchable_program() {
        let programs = CabaController::subroutine_programs();
        // 8 BDI decompressors + 7 BDI compressors + 2 serial pairs.
        assert_eq!(programs.len(), 8 + 7 + 4);
        // A hash either names one program or several content-identical
        // ones — restore-by-hash can never resolve to the wrong bytes.
        let mut by_hash: HashMap<u64, String> = HashMap::new();
        for p in &programs {
            let rendered = format!("{p:?}");
            match by_hash.entry(p.content_hash()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert_eq!(e.get(), &rendered, "hash collision on distinct programs")
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rendered);
                }
            }
        }
    }

    #[test]
    fn corrupt_controller_snapshot_is_rejected() {
        let mut w = SnapshotWriter::new();
        bdi().snap_save(&mut w);
        let mut bytes = w.into_bytes();
        bytes[0] ^= 0x40; // absurd in-flight count
        let mut fresh = bdi();
        let mut r = SnapshotReader::new(&bytes);
        assert!(fresh.snap_load(&mut r).is_err());
    }
}
