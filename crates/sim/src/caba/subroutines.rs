//! Assist-warp subroutine generators and the Assist Warp Store (§3.3, §4.1).
//!
//! # Staging-slot layout
//!
//! Each in-flight assist warp owns one 512-byte staging slot inside its SM's
//! staging region (modelling the compressed line resident in L1 plus the
//! live-in/live-out communication area):
//!
//! ```text
//! +0    header word   (compression: 1 = success, 0 = encoding failed)
//! +8    payload       (mask bytes, base, deltas — same layout as
//!                      `caba_compress::bdi`)
//! +256  scratch       (base-election slot for compression)
//! ```
//!
//! Decompression live-ins: `r0` = payload address, `r1` = line address.
//! Compression live-ins: `r0` = line address, `r1` = slot address.

use caba_compress::bdi::BdiEncoding;
use caba_compress::Algorithm;
use caba_isa::{
    AluOp, CmpOp, PBoolOp, Pred, Program, ProgramBuilder, Reg, Space, Special, Src, Width,
};
use caba_mem::LINE_SIZE;
use caba_stats::FxHashMap;
use std::sync::Arc;

/// Byte offset of the header word within a staging slot.
pub const HDR_OFF: i64 = 0;
/// Byte offset of the payload within a staging slot.
pub const PAYLOAD_OFF: i64 = 8;
/// Byte offset of the scratch area within a staging slot.
pub const SCRATCH_OFF: i64 = 256;
/// Size of one staging slot.
pub const SLOT_SIZE: u64 = 512;

const R0: Reg = Reg(0);
const R1: Reg = Reg(1);

fn width_for(bytes: usize) -> Width {
    Width::from_bytes(bytes as u64).expect("mask/base widths are 1/2/4/8")
}

fn mask_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// Active mask for a subroutine that needs `lanes` lanes.
pub fn active_mask_for(lanes: usize) -> u32 {
    if lanes >= 32 {
        u32::MAX
    } else {
        (1u32 << lanes) - 1
    }
}

/// Emits `dst = sign_extend(dst, bits)` (shift-left then arithmetic
/// shift-right).
fn sign_extend(b: &mut ProgramBuilder, dst: Reg, bits: usize) {
    if bits >= 64 {
        return;
    }
    let sh = 64 - bits as u64;
    b.alu(AluOp::Shl, dst, Src::Reg(dst), Src::Imm(sh));
    b.alu(AluOp::Sar, dst, Src::Reg(dst), Src::Imm(sh));
}

/// Number of lanes the decompression/compression subroutine for `enc`
/// activates.
pub fn lanes_for(enc: BdiEncoding) -> usize {
    match enc.sizes() {
        Some((vs, _)) => (LINE_SIZE / vs).min(32),
        None => match enc {
            BdiEncoding::Zeros => 32,
            BdiEncoding::Rep8 => LINE_SIZE / 8,
            _ => 32,
        },
    }
}

/// Generates the BDI **decompression** subroutine for `enc` (§4.1.2): load
/// the payload words, add deltas to the appropriate base in parallel on the
/// wide ALU pipeline, and write the uncompressed line back — "decompression
/// is simply a masked vector addition of the deltas to the appropriate
/// bases".
pub fn bdi_decompress(enc: BdiEncoding) -> Program {
    let mut b = ProgramBuilder::new();
    let (rm, rb, rd, rt, rv, ra) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6), Reg(7));
    match enc {
        BdiEncoding::Zeros => {
            b.movi(rv, 0);
            b.st_packed(4, Src::Reg(rv), Src::Reg(R1));
            b.exit();
        }
        BdiEncoding::Rep8 => {
            // 16 lanes; each stores the 8-byte repeated value.
            b.ld(Space::Global, Width::B8, rb, Src::Reg(R0), 0);
            b.st_packed(8, Src::Reg(rb), Src::Reg(R1));
            b.exit();
        }
        _ => {
            let (vs, ds) = enc.sizes().expect("base-delta encoding");
            let n = LINE_SIZE / vs;
            let ml = mask_len(n);
            // Whole base-select mask broadcast to every lane.
            b.ld(Space::Global, width_for(ml), rm, Src::Reg(R0), 0);
            // Explicit base.
            b.ld(Space::Global, width_for(vs), rb, Src::Reg(R0), ml as i64);
            let passes = n.div_ceil(32);
            for pass in 0..passes {
                let lane0_value = pass * 32;
                // Deltas for this pass.
                b.alu(
                    AluOp::Add,
                    ra,
                    Src::Reg(R0),
                    Src::Imm((ml + vs + lane0_value * ds) as u64),
                );
                b.ld_packed(ds as u8, rd, Src::Reg(ra));
                sign_extend(&mut b, rd, ds * 8);
                // Mask bit for value index `lane0_value + lane`.
                if lane0_value > 0 {
                    b.alu(AluOp::Shr, rt, Src::Reg(rm), Src::Imm(lane0_value as u64));
                    b.alu(AluOp::Shr, rt, Src::Reg(rt), Src::Sp(Special::Lane));
                } else {
                    b.alu(AluOp::Shr, rt, Src::Reg(rm), Src::Sp(Special::Lane));
                }
                b.alu(AluOp::And, rt, Src::Reg(rt), Src::Imm(1));
                b.setp(Pred(0), CmpOp::Eq, Src::Reg(rt), Src::Imm(1));
                // value = bit ? delta : base + delta (implicit-zero lanes
                // skip the addition via the select — the "active lane mask
                // update" of §4.1.2).
                b.alu(AluOp::Add, rv, Src::Reg(rb), Src::Reg(rd));
                b.selp(rv, Src::Reg(rd), Src::Reg(rv), Pred(0));
                b.alu(
                    AluOp::Add,
                    ra,
                    Src::Reg(R1),
                    Src::Imm((lane0_value * vs) as u64),
                );
                b.st_packed(vs as u8, Src::Reg(rv), Src::Reg(ra));
            }
            b.exit();
        }
    }
    b.build()
}

/// BDI encodings whose **compression** subroutine is generated (§4.1.3: "we
/// exploit this to reduce the number of supported encodings"; one-pass
/// encodings keep the subroutine at warp width).
pub const CABA_COMPRESS_ENCODINGS: [BdiEncoding; 7] = [
    BdiEncoding::Zeros,
    BdiEncoding::Rep8,
    BdiEncoding::B8D1,
    BdiEncoding::B4D1,
    BdiEncoding::B8D2,
    BdiEncoding::B4D2,
    BdiEncoding::B8D4,
];

/// Generates the BDI **compression** subroutine for `enc` (§4.1.2): test the
/// encoding against every value in parallel, AND the per-lane success
/// predicates through the warp-wide vote (the "global predicate register"),
/// and emit the payload on success.
pub fn bdi_compress(enc: BdiEncoding) -> Program {
    let mut b = ProgramBuilder::new();
    let (rv, rs, rt, rb, rdb, rmask, ra) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6), Reg(7), Reg(8));
    let (p_fit0, p_fitb, p_ok, p_sel) = (Pred(0), Pred(1), Pred(2), Pred(3));

    let store_header = |b: &mut ProgramBuilder, rt: Reg| {
        b.setp(p_sel, CmpOp::Eq, Src::Sp(Special::Lane), Src::Imm(0));
        b.push(caba_isa::Instr::guarded(
            caba_isa::Op::St {
                space: Space::Global,
                width: Width::B4,
                src: Src::Reg(rt),
                addr: Src::Reg(R1),
                offset: HDR_OFF,
            },
            p_sel,
            true,
        ));
    };

    match enc {
        BdiEncoding::Zeros => {
            b.ld_packed(4, rv, Src::Reg(R0));
            b.setp(p_ok, CmpOp::Eq, Src::Reg(rv), Src::Imm(0));
            b.vote_all(p_ok, p_ok);
            b.selp(rt, Src::Imm(1), Src::Imm(0), p_ok);
            store_header(&mut b, rt);
            b.exit();
        }
        BdiEncoding::Rep8 => {
            b.ld_packed(8, rv, Src::Reg(R0));
            // Broadcast lane 0's value through the scratch slot.
            b.setp(p_sel, CmpOp::Eq, Src::Sp(Special::Lane), Src::Imm(0));
            b.push(caba_isa::Instr::guarded(
                caba_isa::Op::St {
                    space: Space::Global,
                    width: Width::B8,
                    src: Src::Reg(rv),
                    addr: Src::Reg(R1),
                    offset: SCRATCH_OFF,
                },
                p_sel,
                true,
            ));
            b.ld(Space::Global, Width::B8, rb, Src::Reg(R1), SCRATCH_OFF);
            b.setp(p_ok, CmpOp::Eq, Src::Reg(rv), Src::Reg(rb));
            b.vote_all(p_ok, p_ok);
            b.selp(rt, Src::Imm(1), Src::Imm(0), p_ok);
            store_header(&mut b, rt);
            // Payload: the repeated value.
            b.setp(p_sel, CmpOp::Eq, Src::Sp(Special::Lane), Src::Imm(0));
            b.push(caba_isa::Instr::guarded(
                caba_isa::Op::St {
                    space: Space::Global,
                    width: Width::B8,
                    src: Src::Reg(rb),
                    addr: Src::Reg(R1),
                    offset: PAYLOAD_OFF,
                },
                p_sel,
                true,
            ));
            b.exit();
        }
        _ => {
            let (vs, ds) = enc.sizes().expect("base-delta encoding");
            let n = LINE_SIZE / vs;
            assert!(n <= 32, "compression subroutines are single-pass");
            let ml = mask_len(n);
            let half = 1u64 << (ds * 8 - 1);
            let full = 1u64 << (ds * 8);

            // Load and sign-extend the values.
            b.ld_packed(vs as u8, rv, Src::Reg(R0));
            b.mov(rs, Src::Reg(rv));
            sign_extend(&mut b, rs, vs * 8);
            // fits-zero-base test: -2^(8d-1) <= s < 2^(8d-1).
            b.alu(AluOp::Add, rt, Src::Reg(rs), Src::Imm(half));
            b.setp(p_fit0, CmpOp::LtU, Src::Reg(rt), Src::Imm(full));
            // Elect the first lane that does NOT fit the zero base; its
            // value becomes the explicit base ("the first few bytes are
            // used as the base").
            b.pbool(p_ok, PBoolOp::Not, p_fit0, p_fit0);
            b.setp(p_sel, CmpOp::Eq, Src::Sp(Special::Lane), Src::Imm(0));
            b.push(caba_isa::Instr::guarded(
                caba_isa::Op::St {
                    space: Space::Global,
                    width: Width::B8,
                    src: Src::Imm(0),
                    addr: Src::Reg(R1),
                    offset: SCRATCH_OFF,
                },
                p_sel,
                true,
            ));
            b.find_first(p_sel, p_ok);
            b.push(caba_isa::Instr::guarded(
                caba_isa::Op::St {
                    space: Space::Global,
                    width: Width::B8,
                    src: Src::Reg(rv),
                    addr: Src::Reg(R1),
                    offset: SCRATCH_OFF,
                },
                p_sel,
                true,
            ));
            b.ld(Space::Global, Width::B8, rb, Src::Reg(R1), SCRATCH_OFF);
            // Delta against the explicit base (wrapped to vs bytes, then
            // sign-extended).
            b.alu(AluOp::Sub, rdb, Src::Reg(rv), Src::Reg(rb));
            sign_extend(&mut b, rdb, vs * 8);
            b.alu(AluOp::Add, rt, Src::Reg(rdb), Src::Imm(half));
            b.setp(p_fitb, CmpOp::LtU, Src::Reg(rt), Src::Imm(full));
            // Global predicate: every lane fits one of the bases.
            b.pbool(p_ok, PBoolOp::Or, p_fit0, p_fitb);
            b.vote_all(p_ok, p_ok);
            // Header.
            b.selp(rt, Src::Imm(1), Src::Imm(0), p_ok);
            store_header(&mut b, rt);
            // Payload: ballot mask, base, packed deltas.
            b.ballot(rmask, p_fit0);
            b.setp(p_sel, CmpOp::Eq, Src::Sp(Special::Lane), Src::Imm(0));
            b.push(caba_isa::Instr::guarded(
                caba_isa::Op::St {
                    space: Space::Global,
                    width: width_for(ml),
                    src: Src::Reg(rmask),
                    addr: Src::Reg(R1),
                    offset: PAYLOAD_OFF,
                },
                p_sel,
                true,
            ));
            b.push(caba_isa::Instr::guarded(
                caba_isa::Op::St {
                    space: Space::Global,
                    width: width_for(vs),
                    src: Src::Reg(rb),
                    addr: Src::Reg(R1),
                    offset: PAYLOAD_OFF + ml as i64,
                },
                p_sel,
                true,
            ));
            b.selp(rt, Src::Reg(rs), Src::Reg(rdb), p_fit0);
            b.alu(
                AluOp::Add,
                ra,
                Src::Reg(R1),
                Src::Imm((PAYLOAD_OFF + ml as i64 + vs as i64) as u64),
            );
            b.st_packed(ds as u8, Src::Reg(rt), Src::Reg(ra));
            b.exit();
        }
    }
    b.build()
}

/// Generates a timing-representative subroutine for the serial FPC/C-Pack
/// algorithms (§4.1.3): a packed load of the line words followed by a
/// dependence chain whose length models the partially-serial pattern
/// matching. The functional result is supplied by the reference
/// implementation; only the pipeline/issue footprint is exercised.
pub fn serial_subroutine(alg: Algorithm, decompress: bool) -> Program {
    // Chain lengths calibrated against §6.3: C-Pack's dictionary probes
    // parallelize better than FPC's per-word prefix decode (the paper's
    // C-Pack gains exceed FPC's despite C-Pack's higher dedicated-logic
    // latency), and both stay costlier than BDI's masked vector add.
    let chain = match (alg, decompress) {
        (Algorithm::Fpc, true) => 7,
        (Algorithm::Fpc, false) => 9,
        (Algorithm::CPack, true) => 5,
        (Algorithm::CPack, false) => 7,
        (Algorithm::Bdi, _) => 4,
    };
    let mut b = ProgramBuilder::new();
    let (rv, ra) = (Reg(2), Reg(3));
    b.ld_packed(4, rv, Src::Reg(R0));
    b.movi(ra, 0);
    for _ in 0..chain {
        // Dependent chain: each op waits for the previous writeback,
        // modelling the serial prefix/dictionary scan.
        b.alu(AluOp::Add, ra, Src::Reg(ra), Src::Reg(rv));
        b.alu(AluOp::Xor, ra, Src::Reg(ra), Src::Imm(0x9E37_79B9));
    }
    b.exit();
    b.build()
}

/// The stand-in's program: a load, an SFU op, both consumed, a predicate
/// and a store, every memo class a real subroutine meets. The SFU op before
/// the exit keeps the exited warp listed, memoized `Done`, until it lands.
#[cfg(test)]
fn stand_in() -> Program {
    use caba_isa::SfuOp;
    let mut b = ProgramBuilder::new();
    b.alu(AluOp::Add, Reg(2), Src::Reg(R0), Src::Imm(64));
    b.ld_packed(4, Reg(3), Src::Reg(R1));
    b.sfu(SfuOp::Rcp, Reg(4), Src::Reg(Reg(2)));
    b.alu(AluOp::Add, Reg(5), Src::Reg(Reg(3)), Src::Reg(Reg(4)));
    b.setp(Pred(0), CmpOp::LtU, Src::Reg(Reg(5)), Src::Imm(7));
    b.st_packed(4, Src::Reg(Reg(5)), Src::Reg(R0));
    b.sfu(SfuOp::Ex2, Reg(4), Src::Reg(Reg(5)));
    b.exit();
    b.build()
}

/// Keys identifying subroutines in the [`AssistWarpStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubroutineKey {
    /// BDI decompression for one encoding.
    BdiDecompress(BdiEncoding),
    /// BDI compression test/emit for one encoding.
    BdiCompress(BdiEncoding),
    /// Serial-algorithm decompression (timing representative).
    SerialDecompress(Algorithm),
    /// Serial-algorithm compression (timing representative).
    SerialCompress(Algorithm),
    /// The engine differential's stand-in program.
    #[cfg(test)]
    StandIn,
}

/// The Assist Warp Store: subroutines are generated once ("preloaded before
/// application execution", §3.3) and indexed by subroutine id — here a
/// typed key instead of a raw SR.ID.
#[derive(Debug, Default)]
pub struct AssistWarpStore {
    // FxHash: probed at every launch.
    programs: FxHashMap<SubroutineKey, Arc<Program>>,
}

impl AssistWarpStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches (generating on first use) the subroutine for `key`.
    pub fn get(&mut self, key: SubroutineKey) -> Arc<Program> {
        self.programs
            .entry(key)
            .or_insert_with(|| {
                Arc::new(match key {
                    SubroutineKey::BdiDecompress(e) => bdi_decompress(e),
                    SubroutineKey::BdiCompress(e) => bdi_compress(e),
                    SubroutineKey::SerialDecompress(a) => serial_subroutine(a, true),
                    SubroutineKey::SerialCompress(a) => serial_subroutine(a, false),
                    #[cfg(test)]
                    SubroutineKey::StandIn => stand_in(),
                })
            })
            .clone()
    }

    /// Number of distinct subroutines resident.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when no subroutine has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompress_programs_are_small() {
        // The paper's premise: decompression maps to a handful of
        // instructions on the wide pipeline.
        for enc in BdiEncoding::ALL {
            let p = bdi_decompress(enc);
            assert!(p.len() >= 2, "{enc:?}");
            assert!(p.len() <= 30, "{enc:?}: {} instructions", p.len());
        }
    }

    #[test]
    fn compress_programs_generate() {
        for enc in CABA_COMPRESS_ENCODINGS {
            let p = bdi_compress(enc);
            assert!(p.len() >= 4, "{enc:?}");
            assert!(p.len() <= 40, "{enc:?}");
        }
    }

    #[test]
    #[should_panic(expected = "single-pass")]
    fn b2d1_compression_is_rejected() {
        let _ = bdi_compress(BdiEncoding::B2D1);
    }

    #[test]
    fn lanes_and_masks() {
        assert_eq!(lanes_for(BdiEncoding::B8D1), 16);
        assert_eq!(lanes_for(BdiEncoding::B4D1), 32);
        assert_eq!(lanes_for(BdiEncoding::B2D1), 32);
        assert_eq!(lanes_for(BdiEncoding::Zeros), 32);
        assert_eq!(lanes_for(BdiEncoding::Rep8), 16);
        assert_eq!(active_mask_for(16), 0xFFFF);
        assert_eq!(active_mask_for(32), u32::MAX);
    }

    #[test]
    fn store_caches_programs() {
        let mut aws = AssistWarpStore::new();
        assert!(aws.is_empty());
        let a = aws.get(SubroutineKey::BdiDecompress(BdiEncoding::B8D1));
        let b = aws.get(SubroutineKey::BdiDecompress(BdiEncoding::B8D1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(aws.len(), 1);
        let _ = aws.get(SubroutineKey::SerialCompress(Algorithm::CPack));
        assert_eq!(aws.len(), 2);
    }

    #[test]
    fn serial_subroutines_scale_with_algorithm() {
        let fpc_d = serial_subroutine(Algorithm::Fpc, true);
        let fpc_c = serial_subroutine(Algorithm::Fpc, false);
        let cp_d = serial_subroutine(Algorithm::CPack, true);
        let cp_c = serial_subroutine(Algorithm::CPack, false);
        // Compression always costs more than decompression, and FPC's
        // serial prefix decode costs more than C-Pack's dictionary probe.
        assert!(fpc_c.len() > fpc_d.len());
        assert!(cp_c.len() > cp_d.len());
        assert!(fpc_d.len() > cp_d.len());
    }
}
