//! The CABA Assist Warp Controller (§3.3–3.4, §4.2).
//!
//! Each SM owns one [`CabaController`], which decides which subroutine to
//! trigger for each fill/store event, manages the SM's staging slots (the
//! compressed line resident at the core plus live-in/live-out registers),
//! and interprets assist-warp completions. Decompression assist warps run at high priority
//! ("stalls the progress of its parent warp until it completes", §4.2.1);
//! compression assist warps run at low priority through the AWB partition
//! ("off the critical path", §4.2.2). What varies between design points is
//! the [`CabaMode`], plain data inside [`crate::Design::Caba`].

use super::subroutines::{
    active_mask_for, lanes_for, AssistWarpStore, SubroutineKey, CABA_COMPRESS_ENCODINGS, HDR_OFF,
    PAYLOAD_OFF, SLOT_SIZE,
};
use crate::assist::{AssistLaunch, AssistOutcome, AssistPriority, FillAction, StoreAction};
use crate::sm::SharedState;
use caba_compress::bdi::{self, BdiEncoding};
use caba_compress::{Algorithm, CompressedLine, LineCompressor};
use caba_isa::{Program, Reg};
use caba_mem::{SharedMem, LINE_SIZE};
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotWriter};
use caba_stats::FxHashMap;
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

/// One uncompressed line, held inline.
type Line = [u8; LINE_SIZE];

#[derive(Debug)]
enum Inflight {
    BdiDecompress {
        addr: u64,
        slot: u64,
        /// The reference decompression, kept only while paranoid.
        expected: Option<Line>,
    },
    SerialDecompress {
        addr: u64,
        slot: u64,
    },
    BdiCompress {
        addr: u64,
        slot: u64,
        enc: BdiEncoding,
        snapshot: Line,
    },
    SerialCompress {
        addr: u64,
        slot: u64,
        alg: Algorithm,
    },
}

/// Staging slots per SM.
const SLOTS_PER_SM: u64 = 128;
/// Offset of the first slot inside an SM's staging region.
const SLOTS_BASE_OFF: u64 = 4096;

/// One SM's Assist Warp Controller, owned by its [`crate::Sm`] on a CABA
/// design: tags and staging slots are per-SM namespaces.
#[derive(Debug)]
pub struct CabaController {
    mode: CabaMode,
    /// Check every BDI assist-warp result against the reference compressor
    /// (panicking on a mismatch). On in debug builds; `Gpu::set_paranoid`
    /// switches it.
    pub(crate) paranoid: bool,
    /// The SM's staging region, which the stand-in's program writes.
    #[cfg(test)]
    staging_base: u64,
    aws: AssistWarpStore,
    // FxHash: probed at every launch and retire; snapshots sort the tags.
    inflight: FxHashMap<u64, Inflight>,
    /// Free staging slots; the next one is popped from the end.
    free_slots: Vec<u64>,
    next_tag: u64,
}

impl CabaController {
    /// A controller with no per-run state for the SM whose staging region
    /// starts at `staging_base`, paranoid in debug builds.
    pub fn new(mode: CabaMode, staging_base: u64) -> Self {
        CabaController {
            mode,
            paranoid: cfg!(debug_assertions),
            #[cfg(test)]
            staging_base,
            aws: AssistWarpStore::new(),
            inflight: FxHashMap::default(),
            free_slots: (0..SLOTS_PER_SM)
                .map(|i| staging_base + SLOTS_BASE_OFF + i * SLOT_SIZE)
                .collect(),
            next_tag: 0,
        }
    }

    fn alloc_slot(&mut self) -> Option<u64> {
        self.free_slots.pop()
    }

    fn free_slot(&mut self, slot: u64) {
        self.free_slots.push(slot);
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
    fn stand_in_launch(&mut self, parent_warp: usize, low: bool, tag: u64) -> AssistLaunch {
        AssistLaunch {
            program: self.aws.get(SubroutineKey::StandIn),
            parent_warp,
            priority: if low {
                AssistPriority::Low
            } else {
                AssistPriority::High
            },
            live_in: [(Reg(0), self.staging_base), (Reg(1), tag & !1)],
            active_mask: u32::MAX,
            tag,
        }
    }

    /// The line at `addr`, stored compressed as `stored`, reached the L1
    /// boundary; `parent_warp` waits on it.
    pub fn on_fill(
        &mut self,
        parent_warp: usize,
        addr: u64,
        stored: &CompressedLine,
        mem: &mut SharedMem<'_>,
    ) -> FillAction {
        #[cfg(test)]
        if let CabaMode::StandIn { low_fills } = self.mode {
            return FillAction::Assist(self.stand_in_launch(parent_warp, low_fills, addr));
        }
        let Some(slot) = self.alloc_slot() else {
            // Staging exhausted: throttle by falling back to a serialized
            // fixed-latency path.
            return FillAction::Complete { extra_latency: 16 };
        };
        // Materialize the compressed payload at the core ("the compressed
        // cache line is inserted into the L1 cache", §4.2.1).
        let payload_addr = (slot as i64 + PAYLOAD_OFF) as u64;
        mem.load_image(payload_addr, &stored.payload);

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
        let entry = match stored.algorithm {
            Algorithm::Bdi => Inflight::BdiDecompress {
                addr,
                slot,
                expected: self.paranoid.then(|| {
                    let line = stored.decompress().expect("stored BDI lines decompress");
                    line.try_into()
                        .expect("a BDI line decompresses to LINE_SIZE")
                }),
            },
            _ => Inflight::SerialDecompress { addr, slot },
        };
        self.inflight.insert(tag, entry);
        FillAction::Assist(AssistLaunch {
            program,
            parent_warp,
            priority: AssistPriority::High,
            live_in: [(Reg(0), payload_addr), (Reg(1), addr)],
            active_mask,
            tag,
        })
    }

    /// The dirty line at `addr`, stored by `parent_warp`, is ready to leave
    /// the core.
    pub fn on_store(
        &mut self,
        parent_warp: usize,
        addr: u64,
        shared: &mut SharedState<'_>,
    ) -> StoreAction {
        #[cfg(test)]
        if let CabaMode::StandIn { .. } = self.mode {
            return StoreAction::Assist(self.stand_in_launch(parent_warp, true, addr | 1));
        }
        let Some(slot) = self.alloc_slot() else {
            return StoreAction::PassThrough;
        };
        let mut line = [0; LINE_SIZE];
        shared.mem.read_line_into(addr, &mut line);
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
                        addr,
                        slot,
                        enc,
                        snapshot: line,
                    },
                )
            }
            Some(alg) => (
                self.aws.get(SubroutineKey::SerialCompress(alg)),
                u32::MAX,
                Inflight::SerialCompress { addr, slot, alg },
            ),
        };
        self.inflight.insert(tag, entry);
        StoreAction::Assist(AssistLaunch {
            program,
            parent_warp,
            priority: AssistPriority::Low,
            live_in: [(Reg(0), addr), (Reg(1), slot)],
            active_mask,
            tag,
        })
    }

    /// An assist warp with `tag` ran to completion.
    ///
    /// # Panics
    ///
    /// On a tag this controller did not launch.
    pub fn on_assist_complete(&mut self, tag: u64, shared: &mut SharedState<'_>) -> AssistOutcome {
        #[cfg(test)]
        if let CabaMode::StandIn { .. } = self.mode {
            return if tag & 1 == 1 {
                AssistOutcome::StoreRelease { addr: tag & !1 }
            } else {
                AssistOutcome::FillComplete { addr: tag }
            };
        }
        let entry = self
            .inflight
            .remove(&tag)
            .expect("every launched assist warp is in flight");
        match entry {
            Inflight::BdiDecompress {
                addr,
                slot,
                expected,
            } => {
                // A fill launched while paranoid was off has no reference.
                if let Some(expected) = expected.filter(|_| self.paranoid) {
                    let mut got = [0; LINE_SIZE];
                    shared.mem.read_line_into(addr, &mut got);
                    assert_eq!(
                        got, expected,
                        "BDI decompression assist warp produced wrong bytes at {addr:#x}"
                    );
                }
                self.free_slot(slot);
                AssistOutcome::FillComplete { addr }
            }
            Inflight::SerialDecompress { addr, slot } => {
                self.free_slot(slot);
                AssistOutcome::FillComplete { addr }
            }
            Inflight::BdiCompress {
                addr,
                slot,
                enc,
                snapshot,
            } => {
                let mut current = [0; LINE_SIZE];
                shared.mem.read_line_into(addr, &mut current);
                if current != snapshot {
                    // The line changed while the assist warp ran (a newer
                    // coalesced store): discard the stale result and
                    // recompress the current contents.
                    match bdi::compress(&current) {
                        Some(c) => shared.line_store.set_compressed(addr, c),
                        None => shared.line_store.set_raw(addr),
                    }
                } else {
                    let header = shared.mem.read_u32((slot as i64 + HDR_OFF) as u64);
                    if header == 1 {
                        let len = enc.compressed_size(LINE_SIZE);
                        let payload = shared
                            .mem
                            .read_bytes((slot as i64 + PAYLOAD_OFF) as u64, len);
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
                        shared.line_store.set_compressed(addr, line);
                    } else {
                        shared.line_store.set_raw(addr);
                    }
                }
                self.free_slot(slot);
                AssistOutcome::StoreRelease { addr }
            }
            Inflight::SerialCompress { addr, slot, alg } => {
                // The functional result is the reference compressor's over
                // the line as it is now, newer coalesced stores included.
                let mut current = [0; LINE_SIZE];
                shared.mem.read_line_into(addr, &mut current);
                match alg.compress_line(&current) {
                    Some(c) => shared.line_store.set_compressed(addr, c),
                    None => shared.line_store.set_raw(addr),
                }
                self.free_slot(slot);
                AssistOutcome::StoreRelease { addr }
            }
        }
    }

    /// Serializes the per-run state (in-flight operations, the free slot
    /// pool, the tag counter) for [`crate::Gpu::snapshot`].
    pub fn snap_save(&self, w: &mut SnapshotWriter) {
        // The mode comes from the design the restoring GPU was built
        // with, the staging region from the SM, and the assist-warp store
        // is a pure program memoization — only per-run state is
        // serialized, the in-flight map in sorted tag order for byte-stable
        // output.
        let mut tags: Vec<u64> = self.inflight.keys().copied().collect();
        tags.sort_unstable();
        w.usize(tags.len());
        for tag in tags {
            w.u64(tag);
            save_inflight(&self.inflight[&tag], w);
        }
        // Pool order is state: slots are popped from the end.
        w.usize(self.free_slots.len());
        for &slot in &self.free_slots {
            w.u64(slot);
        }
        w.u64(self.next_tag);
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
        let len = r.seq_len("CABA slot pool", 8)?;
        if len > SLOTS_PER_SM as usize {
            return Err(SnapError::Invariant {
                what: "slot pool exceeds SLOTS_PER_SM",
            });
        }
        self.free_slots.clear();
        for _ in 0..len {
            self.free_slots.push(r.u64()?);
        }
        self.next_tag = r.u64()?;
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

fn line_of(bytes: &[u8]) -> Result<Line, SnapError> {
    bytes.try_into().map_err(|_| SnapError::Invariant {
        what: "an in-flight line is not LINE_SIZE bytes",
    })
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
            // No reference (paranoid off) is an empty byte string.
            w.bytes(expected.as_ref().map_or(&[], |l| &l[..]));
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
        Inflight::SerialCompress { addr, slot, alg } => {
            w.u8(3);
            w.u64(*addr);
            w.u64(*slot);
            w.u8(alg_tag(*alg));
        }
    }
}

fn load_inflight(r: &mut SnapshotReader<'_>) -> Result<Inflight, SnapError> {
    Ok(match r.u8()? {
        0 => Inflight::BdiDecompress {
            addr: r.u64()?,
            slot: r.u64()?,
            expected: match r.bytes()? {
                [] => None,
                bytes => Some(line_of(bytes)?),
            },
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
            snapshot: line_of(r.bytes()?)?,
        },
        3 => Inflight::SerialCompress {
            addr: r.u64()?,
            slot: r.u64()?,
            alg: alg_from_tag(r.u8()?)?,
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
    use crate::assist::{LineStore, SharedLineStore};
    use crate::sm::{STAGING_BASE, STAGING_SIZE};
    use crate::GpuConfig;
    use caba_mem::FuncMem;
    use std::collections::HashMap;

    fn bdi() -> CabaController {
        CabaController::new(CabaMode::Bdi, STAGING_BASE)
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
    }

    /// The occupancy charge covers the widest subroutine a controller can
    /// launch, so a wider program fails here instead of being under-charged.
    #[test]
    fn the_register_charge_covers_every_subroutine() {
        let widest = CabaController::subroutine_programs()
            .iter()
            .map(|p| u32::from(p.max_reg()))
            .max()
            .expect("subroutines exist");
        for mode in [
            CabaMode::Bdi,
            CabaMode::Fpc,
            CabaMode::CPack,
            CabaMode::BestOfAll,
        ] {
            assert!(
                mode.extra_regs_per_thread() >= widest,
                "{mode:?} charges {} registers, a subroutine uses {widest}",
                mode.extra_regs_per_thread()
            );
        }
    }

    /// Tests build with debug assertions, so every controller checks its
    /// assist warps' results against the reference compressor. A profile
    /// edit that drops them fails here.
    #[test]
    // Constant within one build, which is the point: it reads the profile.
    #[allow(clippy::assertions_on_constants)]
    fn test_builds_keep_the_paranoid_checks() {
        assert!(
            cfg!(debug_assertions),
            "tests must build with debug assertions"
        );
        assert!(bdi().paranoid);
    }

    /// Low-dynamic-range words: BDI compresses them.
    fn compressible_line() -> Vec<u8> {
        (0..32u32).flat_map(|i| (0x400 + i).to_le_bytes()).collect()
    }

    /// Fills `addr` through a controller that is `paranoid` or not, stands
    /// in for the decompression subroutine by storing `bytes` at `addr`,
    /// and retires the assist warp.
    fn fill_and_retire(paranoid: bool, addr: u64, bytes: &[u8]) -> AssistOutcome {
        let stored = bdi::compress(&compressible_line()).expect("compresses");
        let mut c = bdi();
        c.paranoid = paranoid;
        let (mut mem, mut store) = (FuncMem::new(), LineStore::new());
        let mut shared = SharedState {
            mem: SharedMem::Direct(&mut mem),
            cmap: None,
            line_store: SharedLineStore::Direct(&mut store),
        };
        let FillAction::Assist(launch) = c.on_fill(0, addr, &stored, &mut shared.mem) else {
            panic!("a free slot deploys");
        };
        assert!(
            matches!(
                c.inflight[&launch.tag],
                Inflight::BdiDecompress { expected, .. } if expected.is_some() == paranoid
            ),
            "the reference is kept only when paranoid ({paranoid})"
        );
        shared.mem.load_image(addr, bytes);
        c.on_assist_complete(launch.tag, &mut shared)
    }

    #[test]
    fn only_a_paranoid_controller_checks_decompressions() {
        let line = compressible_line();
        let mut wrong = line.clone();
        wrong[5] ^= 1;
        for (paranoid, bytes) in [(false, &line), (false, &wrong), (true, &line)] {
            let out = fill_and_retire(paranoid, 0x8_0000, bytes);
            assert!(matches!(
                out,
                AssistOutcome::FillComplete { addr: 0x8_0000 }
            ));
        }
    }

    /// What `Gpu::set_paranoid(true)` turns on: a decompression assist warp
    /// that leaves the wrong bytes panics when it retires.
    #[test]
    #[should_panic(expected = "BDI decompression assist warp produced wrong bytes")]
    fn a_wrong_decompression_panics_when_paranoid() {
        let mut wrong = compressible_line();
        wrong[5] ^= 1;
        fill_and_retire(true, 0x8_0000, &wrong);
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
        let sms = GpuConfig::isca2015().num_sms as u64;
        let mut seen = std::collections::HashSet::new();
        for sm in 0..sms {
            let base = STAGING_BASE + sm * STAGING_SIZE;
            let mut c = CabaController::new(CabaMode::Bdi, base);
            let mut n = 0;
            while let Some(slot) = c.alloc_slot() {
                n += 1;
                assert!(slot >= base + SLOTS_BASE_OFF, "SM {sm}: {slot:#x}");
                assert!(
                    slot + SLOT_SIZE <= base + STAGING_SIZE,
                    "SM {sm}: {slot:#x}"
                );
                assert!(seen.insert(slot), "SM {sm} shares slot {slot:#x}");
            }
            assert_eq!(n, SLOTS_PER_SM, "SM {sm}");
        }
    }

    /// A controller whose every staging slot holds an in-flight compression
    /// assist, and the memory those assists read.
    fn exhausted() -> (CabaController, FuncMem) {
        let mut c = bdi();
        let mut mem = FuncMem::new();
        let mut store = LineStore::new();
        let mut shared = SharedState {
            mem: SharedMem::Direct(&mut mem),
            cmap: None,
            line_store: SharedLineStore::Direct(&mut store),
        };
        for i in 0..SLOTS_PER_SM {
            let act = c.on_store(0, 0x1_0000 + i * LINE_SIZE as u64, &mut shared);
            assert!(matches!(act, StoreAction::Assist(_)), "slot {i}");
        }
        assert!(c.free_slots.is_empty());
        (c, mem)
    }

    #[test]
    fn a_fill_without_a_free_slot_takes_the_fixed_latency_path() {
        let (mut c, mut mem) = exhausted();
        let mut store = LineStore::new();
        let mut shared = SharedState {
            mem: SharedMem::Direct(&mut mem),
            cmap: None,
            line_store: SharedLineStore::Direct(&mut store),
        };
        let stored = bdi::compress(&[0u8; LINE_SIZE]).expect("zeros compress");
        let act = c.on_fill(0, 0x8_0000, &stored, &mut shared.mem);
        assert!(matches!(act, FillAction::Complete { extra_latency: 16 }));
        // One retired assist frees a slot, and the next fill deploys.
        let tag = *c.inflight.keys().min().expect("in flight");
        c.on_assist_complete(tag, &mut shared);
        let act = c.on_fill(0, 0x8_0000, &stored, &mut shared.mem);
        assert!(matches!(act, FillAction::Assist(_)));
    }

    #[test]
    fn a_store_without_a_free_slot_passes_through() {
        let (mut c, mut mem) = exhausted();
        let mut store = LineStore::new();
        let mut shared = SharedState {
            mem: SharedMem::Direct(&mut mem),
            cmap: None,
            line_store: SharedLineStore::Direct(&mut store),
        };
        let tags = c.next_tag;
        let act = c.on_store(0, 0x8_0000, &mut shared);
        assert!(matches!(act, StoreAction::PassThrough));
        assert_eq!(c.next_tag, tags, "a pass-through launches nothing");
    }

    #[test]
    fn controller_snapshot_round_trips_byte_identically() {
        let mut c = bdi();
        // Drive real allocator/tag state plus one of each in-flight shape.
        let s0 = c.alloc_slot().unwrap();
        let s1 = c.alloc_slot().unwrap();
        let t0 = c.take_tag();
        let t1 = c.take_tag();
        c.inflight.insert(
            t0,
            Inflight::BdiDecompress {
                addr: 0x8000,
                slot: s0,
                expected: Some([7u8; LINE_SIZE]),
            },
        );
        c.inflight.insert(
            t1,
            Inflight::BdiCompress {
                addr: 0x8040,
                slot: s1,
                enc: BdiEncoding::B8D2,
                snapshot: [3u8; LINE_SIZE],
            },
        );
        let t2 = c.take_tag();
        c.inflight.insert(
            t2,
            Inflight::SerialCompress {
                addr: 0x8080,
                slot: 0x42,
                alg: Algorithm::CPack,
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
        // A fill launched with paranoid off carries no reference.
        let t4 = c.take_tag();
        c.inflight.insert(
            t4,
            Inflight::BdiDecompress {
                addr: 0x8100,
                slot: 0x44,
                expected: None,
            },
        );

        let mut w = SnapshotWriter::new();
        c.snap_save(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = bdi();
        let mut r = SnapshotReader::new(&bytes);
        fresh.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.next_tag, c.next_tag);
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
