//! The next-event engine against the naive one.
//!
//! `GpuConfig::time_skip = false` runs the naive reference engine: every SM
//! and partition is cycled every cycle, nothing sleeps, nothing is settled
//! and the clock never jumps. Every test here demands that the next-event
//! engine produce the same [`RunStats`], counter for counter, on fixed and
//! random kernels and random machine shapes. The CABA controllers and a
//! stand-in that deploys and retires an assist warp on every compressed
//! fill and every store put assist residency, the memo wipe it triggers
//! and the assist-side list updates under the same comparison.

use crate::{CabaMode, Design, Gpu, GpuConfig, RunStats};
use caba_isa::{
    AluOp, CmpOp, Kernel, LaunchDims, Pred, ProgramBuilder, Reg, SfuOp, Space, Special, Src, Width,
};
use caba_stats::prop;
use caba_stats::rng::Rng64;

#[path = "../../tests/kernels/mod.rs"]
mod kernels;

const IN: u64 = 0x1_0000;
const OUT: u64 = 0x10_0000;
/// 8-byte words of input every kernel here may read.
const WORDS: u64 = 4096;
const MAX: u64 = 2_000_000;

/// The stand-in controller ([`CabaMode::StandIn`]): an assist warp for
/// every compressed fill, at high (or, `low_fills`, low) priority, and a
/// low-priority one for every store line.
fn stand_in(low_fills: bool) -> Design {
    Design::Caba(CabaMode::StandIn { low_fills })
}

fn designs() -> Vec<Design> {
    vec![
        Design::Base,
        Design::HwMemOnly,
        Design::HwFull { ideal: false },
        Design::HwFull { ideal: true },
        stand_in(false),
        stand_in(true),
        Design::Caba(CabaMode::Bdi),
        Design::Caba(CabaMode::Fpc),
        Design::Caba(CabaMode::CPack),
        Design::Caba(CabaMode::BestOfAll),
    ]
}

/// One run to completion.
fn run(cfg: GpuConfig, design: Design, kernel: &Kernel, noise: bool) -> RunStats {
    let mut gpu = Gpu::new(cfg, design);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..WORDS {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0xB);
        // Low dynamic range compresses (so fills deploy assists); noise
        // does not.
        let v = if noise { x } else { 0x4000_0000 + i % 50 };
        gpu.mem_mut().write_u64(IN + i * 8, v);
    }
    gpu.run(kernel, MAX)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
}

/// Runs `kernel` on the next-event engine and on the naive one, and
/// returns the next-event engine's stats once the two agree.
fn assert_engines_agree(cfg: GpuConfig, design: Design, kernel: &Kernel, noise: bool) -> RunStats {
    let [event, naive] =
        [true, false].map(|time_skip| run(GpuConfig { time_skip, ..cfg }, design, kernel, noise));
    assert_eq!(event, naive, "{} on {}", kernel.name(), design.label());
    event
}

#[test]
fn the_test_kernels_run_the_same_on_both_engines() {
    let kernels = [
        kernels::scale_kernel(1024, IN, OUT),
        kernels::loop_kernel(16, IN, OUT),
        kernels::divergent_kernel(OUT),
        kernels::barrier_kernel(OUT),
    ];
    let (mut stand_in_assists, mut caba_assists) = (0, 0);
    for kernel in &kernels {
        for design in designs() {
            let assists =
                assert_engines_agree(GpuConfig::small(), design, kernel, false).assist_launches;
            match design {
                Design::Caba(CabaMode::StandIn { .. }) => stand_in_assists += assists,
                _ => caba_assists += assists,
            }
        }
    }
    assert!(
        stand_in_assists > 100,
        "the stand-in controller deployed {stand_in_assists}"
    );
    assert!(caba_assists > 0, "the CABA controllers deployed none");
}

fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
    items[rng.range_u64(items.len() as u64) as usize]
}

const GID: Reg = Reg(0);
const ADDR: Reg = Reg(1);
const V: Reg = Reg(2);
const ACC: Reg = Reg(3);
const T: Reg = Reg(4);
const F: Reg = Reg(5);

/// One random straight-line piece of a kernel body. `top` pieces may also
/// be a block barrier, a divergent branch or a loop around nested pieces.
fn piece(rng: &mut Rng64, b: &mut ProgramBuilder, block: u64, top: bool) {
    let width = pick(rng, &[Width::B1, Width::B2, Width::B4, Width::B8]);
    let offset = (width.bytes() * rng.range_u64(4)) as i64;
    match rng.range_u64(if top { 7 } else { 4 }) {
        0 => {
            // acc += in[(gid * stride + k) % WORDS], some width of it.
            let stride = pick(rng, &[1, 1, 2, 16, 33]);
            b.alu(AluOp::Mul, ADDR, Src::Reg(GID), Src::Imm(stride));
            b.alu(
                AluOp::Add,
                ADDR,
                Src::Reg(ADDR),
                Src::Imm(rng.range_u64(64)),
            );
            b.alu(AluOp::Rem, ADDR, Src::Reg(ADDR), Src::Imm(WORDS - 4));
            b.alu(AluOp::Shl, ADDR, Src::Reg(ADDR), Src::Imm(3));
            b.alu(AluOp::Add, ADDR, Src::Reg(ADDR), Src::Sp(Special::Param(0)));
            b.ld(Space::Global, width, V, Src::Reg(ADDR), offset);
            b.alu(AluOp::Add, ACC, Src::Reg(ACC), Src::Reg(V));
        }
        1 => {
            b.alu(AluOp::Shl, ADDR, Src::Reg(GID), Src::Imm(3));
            b.alu(AluOp::Add, ADDR, Src::Reg(ADDR), Src::Sp(Special::Param(1)));
            b.st(Space::Global, width, Src::Reg(ACC), Src::Reg(ADDR), offset);
        }
        2 => {
            for _ in 0..1 + rng.range_u64(4) {
                let op = pick(rng, &[SfuOp::Rcp, SfuOp::Rsqrt, SfuOp::Sin, SfuOp::Ex2]);
                b.sfu(op, F, Src::Reg(ACC));
                if rng.chance(0.5) {
                    b.alu(AluOp::Xor, ACC, Src::Reg(ACC), Src::Reg(F));
                }
            }
        }
        3 => {
            for _ in 0..1 + rng.range_u64(3) {
                let op = pick(rng, &[AluOp::Add, AluOp::Mul, AluOp::Xor, AluOp::Shr]);
                b.alu(op, ACC, Src::Reg(ACC), Src::Imm(1 + rng.range_u64(5)));
            }
        }
        4 => {
            // Every thread of the block reaches a top-level barrier once.
            b.mov(T, Src::Sp(Special::Tid));
            b.alu(AluOp::Shl, ADDR, Src::Reg(T), Src::Imm(3));
            b.st(Space::Shared, Width::B8, Src::Reg(ACC), Src::Reg(ADDR), 0);
            b.bar();
            b.alu(AluOp::Add, T, Src::Reg(T), Src::Imm(1));
            b.alu(AluOp::Rem, T, Src::Reg(T), Src::Imm(block));
            b.alu(AluOp::Shl, ADDR, Src::Reg(T), Src::Imm(3));
            b.ld(Space::Shared, width, V, Src::Reg(ADDR), 0);
            b.alu(AluOp::Add, ACC, Src::Reg(ACC), Src::Reg(V));
        }
        5 => {
            let mask = pick(rng, &[1, 3, 5, 32, 63]);
            b.alu(AluOp::And, T, Src::Reg(GID), Src::Imm(mask));
            b.setp(Pred(0), CmpOp::Eq, Src::Reg(T), Src::Imm(0));
            let polarity = rng.chance(0.5);
            let n = 1 + rng.range_u64(3);
            b.if_then(Pred(0), polarity, |b| {
                for _ in 0..n {
                    piece(rng, b, block, false);
                }
            });
        }
        _ => {
            // A loop whose trip count differs across lanes.
            let n = 1 + rng.range_u64(2);
            b.alu(AluOp::And, T, Src::Reg(GID), Src::Imm(3));
            b.do_while(|b| {
                for _ in 0..n {
                    piece(rng, b, block, false);
                }
                b.alu(AluOp::Sub, T, Src::Reg(T), Src::Imm(1));
                b.setp(Pred(1), CmpOp::LtS, Src::Imm(0), Src::Reg(T));
                Pred(1)
            });
        }
    }
}

fn random_kernel(rng: &mut Rng64) -> Kernel {
    let block = pick(rng, &[32, 40, 64, 96, 128]);
    let grid = 1 + rng.range_u64(6) as u32;
    let mut b = ProgramBuilder::new();
    b.global_thread_id(GID);
    b.movi(ACC, 1);
    for _ in 0..2 + rng.range_u64(6) {
        piece(rng, &mut b, block, true);
    }
    b.alu(AluOp::Shl, ADDR, Src::Reg(GID), Src::Imm(3));
    b.alu(AluOp::Add, ADDR, Src::Reg(ADDR), Src::Sp(Special::Param(1)));
    b.st(Space::Global, Width::B8, Src::Reg(ACC), Src::Reg(ADDR), 0);
    b.exit();
    Kernel::new("random", b.build(), LaunchDims::new(grid, block as u32))
        .with_params(vec![IN, OUT])
        .with_shared_bytes(block as u32 * 8)
}

#[test]
fn random_kernels_run_the_same_on_both_engines() {
    let designs = designs();
    prop::check(0xCABA_0023, 320, |rng| {
        let kernel = random_kernel(rng);
        let mut cfg = GpuConfig::small();
        cfg.schedulers_per_sm = pick(rng, &[1, 2]);
        cfg.num_sms = pick(rng, &[1, 2, 5]);
        cfg.max_assist_warps = pick(rng, &[2, 5, 48]);
        cfg.mshrs = pick(rng, &[2, 32]);
        cfg.lsu_queue = pick(rng, &[4, 64]);
        cfg.store_buffer = pick(rng, &[1, 16]);
        let design = designs[rng.range_u64(designs.len() as u64) as usize];
        assert_engines_agree(cfg, design, &kernel, rng.chance(0.25));
    });
}

/// 8 blocks x 16 warps on one scheduler: each SM scans one 128-entry
/// parent list.
#[test]
fn an_oversize_configuration_runs_the_same_on_both_engines() {
    let mut cfg = GpuConfig::small();
    cfg.warps_per_sm = 160;
    cfg.schedulers_per_sm = 1;
    cfg.audit_interval = 64;
    assert_eq!(cfg.validate(), Ok(()));
    // 80 blocks of 16 warps over 5 SMs; the register file holds 5 a time.
    let kernel = {
        let k = kernels::scale_kernel(80 * 512, IN, OUT);
        Kernel::new("oversize", k.program().clone(), LaunchDims::new(80, 512))
            .with_params(vec![IN, OUT])
    };
    let stats = assert_engines_agree(cfg, stand_in(false), &kernel, false);
    assert_eq!(stats.threads_retired, 80 * 512);
    assert!(stats.assist_launches > 0);
}
