//! Cross-crate property tests: the CABA assist-warp subroutines (ISA
//! programs from `caba_sim::caba`) must be *bit-equivalent* to the reference
//! compressor (`caba-compress`) when executed under the functional ISA
//! semantics (`caba-sim`) — for every BDI encoding, on arbitrary data.
//!
//! This is the load-bearing guarantee behind the simulator's CABA results:
//! the bandwidth savings measured in the figures come from payloads the
//! assist warps themselves produced and consumed.

use caba::compress::bdi::{self, BdiEncoding};
use caba::compress::{CompressedLine, LINE_SIZE};
use caba::isa::{Program, Reg};
use caba::mem::{FuncMem, SharedMem};
use caba::sim::caba::subroutines::{
    active_mask_for, bdi_compress, bdi_decompress, lanes_for, CABA_COMPRESS_ENCODINGS, HDR_OFF,
    PAYLOAD_OFF,
};
use caba::sim::exec::{execute, ThreadCtx};
use caba::sim::Warp;
use caba::stats::{prop, Rng64};

const LINE_ADDR: u64 = 0x2_0000;
const SLOT_ADDR: u64 = 0x9_0000;

/// Interprets `program` to completion on one warp (functional semantics
/// only — no timing), with broadcast live-in registers.
fn run_subroutine(program: &Program, live_in: &[(Reg, u64)], mask: u32, mem: &mut FuncMem) {
    let mut warp = Warp::new(program.max_reg().max(1) as usize, mask);
    for &(r, v) in live_in {
        for lane in 0..32 {
            warp.set_reg(r, lane, v);
        }
    }
    let ctx = ThreadCtx {
        block_dim: 32,
        grid_dim: 1,
        params: &[],
        ctaid: 0,
        warp_in_block: 0,
        shared_base: 0x8000_0000,
    };
    let mut steps = 0;
    let mut mem = SharedMem::Direct(mem);
    while !warp.done {
        let instr = *program
            .fetch(warp.pc())
            .expect("subroutines terminate with Exit");
        execute(&mut warp, &instr, &ctx, &mut mem);
        steps += 1;
        assert!(steps < 10_000, "subroutine did not terminate");
    }
}

/// Runs the compression subroutine for `enc` over `line`; returns the
/// header flag and (on success) the payload it wrote.
fn compress_via_assist(line: &[u8], enc: BdiEncoding) -> Option<Vec<u8>> {
    let mut mem = FuncMem::new();
    mem.load_image(LINE_ADDR, line);
    let program = bdi_compress(enc);
    run_subroutine(
        &program,
        &[(Reg(0), LINE_ADDR), (Reg(1), SLOT_ADDR)],
        active_mask_for(lanes_for(enc)),
        &mut mem,
    );
    let ok = mem.read_u32((SLOT_ADDR as i64 + HDR_OFF) as u64) == 1;
    ok.then(|| {
        mem.read_bytes(
            (SLOT_ADDR as i64 + PAYLOAD_OFF) as u64,
            enc.compressed_size(LINE_SIZE),
        )
    })
}

/// Runs the decompression subroutine over a compressed line's payload and
/// returns the bytes it wrote at the line address.
fn decompress_via_assist(c: &CompressedLine) -> Vec<u8> {
    let enc = BdiEncoding::from_id(c.encoding).expect("valid encoding");
    let mut mem = FuncMem::new();
    mem.load_image(SLOT_ADDR, &c.payload);
    let program = bdi_decompress(enc);
    run_subroutine(
        &program,
        &[(Reg(0), SLOT_ADDR), (Reg(1), LINE_ADDR)],
        active_mask_for(lanes_for(enc)),
        &mut mem,
    );
    mem.read_bytes(LINE_ADDR, LINE_SIZE)
}

/// Produces lines across four regimes: narrow 4-byte deltas, narrow signed
/// 8-byte deltas, sparse small values, and arbitrary bytes (the last
/// usually fails compression — the subroutine must report failure, never
/// emit a wrong payload).
fn random_compressible_line(rng: &mut Rng64) -> Vec<u8> {
    match rng.range_u64(4) {
        0 => {
            let base = rng.next_u64() as u32;
            let mut line = Vec::new();
            for _ in 0..LINE_SIZE / 4 {
                let d = rng.range_u64(100) as u32;
                line.extend_from_slice(&base.wrapping_add(d).to_le_bytes());
            }
            line
        }
        1 => {
            let base = rng.next_u64();
            let mut line = Vec::new();
            for _ in 0..LINE_SIZE / 8 {
                let d = rng.range_u64(200) as i64 - 100;
                line.extend_from_slice(&base.wrapping_add_signed(d).to_le_bytes());
            }
            line
        }
        2 => {
            let mut line = Vec::new();
            for _ in 0..LINE_SIZE / 4 {
                let w = if rng.chance(0.2) {
                    rng.range_u64(64) as u32
                } else {
                    0u32
                };
                line.extend_from_slice(&w.to_le_bytes());
            }
            line
        }
        _ => prop::bytes(rng, LINE_SIZE),
    }
}

/// The compression assist warp's verdict and payload match the reference
/// compressor exactly, for every single-pass encoding.
#[test]
fn compression_subroutine_matches_reference() {
    prop::check(0xC0395, 64, |rng| {
        let line = random_compressible_line(rng);
        for enc in CABA_COMPRESS_ENCODINGS {
            let reference = bdi::compress_with(&line, enc);
            let assist = compress_via_assist(&line, enc);
            match (reference, assist) {
                (Some(r), Some(a)) => assert_eq!(r.payload, a, "{enc:?}"),
                (None, None) => {}
                (r, a) => panic!(
                    "verdict mismatch for {:?}: reference={:?} assist={:?}",
                    enc,
                    r.map(|c| c.size_bytes()),
                    a.map(|p| p.len())
                ),
            }
        }
    });
}

/// The decompression assist warp reconstructs the original line exactly,
/// for every encoding the reference compressor may choose.
#[test]
fn decompression_subroutine_reconstructs_line() {
    prop::check(0xDEC0395, 64, |rng| {
        let line = random_compressible_line(rng);
        if let Some(c) = bdi::compress(&line) {
            let out = decompress_via_assist(&c);
            assert_eq!(out, line);
        }
    });
}

/// The paper's Figure 5 line, end to end through the assist warps: compress
/// with the subroutine, decompress with the subroutine, recover the line.
#[test]
fn figure5_line_round_trips_through_assist_warps() {
    // The figure uses a 64-byte line; the simulator's lines are 128 bytes,
    // so tile the pattern twice (preserving the B8D1 structure).
    let values: [u64; 8] = [
        0x00,
        0x8_0001_d000,
        0x10,
        0x8_0001_d008,
        0x20,
        0x8_0001_d010,
        0x30,
        0x8_0001_d018,
    ];
    let mut line = Vec::new();
    for _ in 0..2 {
        for v in values {
            line.extend_from_slice(&v.to_le_bytes());
        }
    }
    let payload = compress_via_assist(&line, BdiEncoding::B8D1).expect("compresses");
    let reference = bdi::compress_with(&line, BdiEncoding::B8D1).expect("reference compresses");
    assert_eq!(payload, reference.payload);
    let out = decompress_via_assist(&reference);
    assert_eq!(out, line);
}

/// Deterministic smoke check across many random compressible lines (beyond
/// proptest's sampled cases).
#[test]
fn thousand_line_sweep() {
    let mut rng = Rng64::new(0xCABA);
    let mut compressed = 0;
    for _ in 0..1000 {
        let base = rng.next_u32();
        let range = [4u64, 50, 120, 4000][rng.range_u64(4) as usize];
        let mut line = Vec::new();
        for _ in 0..LINE_SIZE / 4 {
            line.extend_from_slice(&base.wrapping_add(rng.range_u64(range) as u32).to_le_bytes());
        }
        if let Some(c) = bdi::compress(&line) {
            compressed += 1;
            assert_eq!(decompress_via_assist(&c), line);
        }
    }
    assert!(compressed > 500, "most lines should compress: {compressed}");
}
