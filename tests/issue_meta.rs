//! `IssueMeta` is the instruction: what `Program::new` decodes for the
//! scheduler answers exactly what the `Instr` accessors answer, for every
//! instruction the repo ships — all application kernels at two scales, every
//! assist-warp subroutine — and for random instructions over registers on
//! both sides of the 64-register word the scoreboard fast path covers.

use caba::isa::{
    AluOp, CmpOp, FAluOp, Instr, Op, PBoolOp, Pred, Program, Reg, SfuOp, Space, Special, Src, Width,
};
use caba::sim::{CabaController, Warp};
use caba::stats::prop;
use caba::stats::rng::Rng64;
use caba::workloads::all_apps;

const NREGS: u16 = 131;

/// The scheduler's scoreboard check, from public parts: the meta against
/// the warp's first pending word, the instruction itself only where the
/// meta declines.
fn hazard_from_meta(warp: &Warp, program: &Program, pc: usize) -> bool {
    let low = warp
        .pending_regs()
        .filter(|r| r.0 < 64)
        .fold(0u64, |bits, r| bits | 1 << r.0);
    let meta = program.fetch_meta(pc).expect("pc in range");
    meta.hazard(low)
        .unwrap_or_else(|| warp.hazard(program.fetch(pc).expect("pc in range")))
}

/// Every instruction of `program`: static fields against the accessors,
/// then the scoreboard answer under `rounds` random pending sets.
fn check_program(program: &Program, rng: &mut Rng64, rounds: u32) {
    assert!(program.fetch_meta(program.len()).is_none());
    for (pc, instr) in program.instrs().iter().enumerate() {
        let meta = program.fetch_meta(pc).expect("one meta per instruction");
        assert_eq!(meta.fu, instr.fu_class(), "{instr:?}");
        assert_eq!(meta.steers, instr.steers_control(), "{instr:?}");
        let shared = matches!(
            instr.op,
            Op::Ld {
                space: Space::Shared,
                ..
            } | Op::St {
                space: Space::Shared,
                ..
            }
        );
        assert_eq!(meta.shared_space, shared, "{instr:?}");
        let mut warp = Warp::new(NREGS as usize, u32::MAX);
        assert!(!hazard_from_meta(&warp, program, pc));
        for _ in 0..rounds {
            // Mostly sparse sets, so that "no hazard" is as common as one.
            for _ in 0..rng.range_u64(4) {
                warp.mark_pending(Reg(rng.range_u64(NREGS as u64) as u16));
            }
            if rng.chance(0.3) {
                let used = instr.src_regs_fixed().into_iter().flatten();
                if let Some(r) = used.chain(instr.dst_reg()).last() {
                    warp.mark_pending(r);
                }
            }
            assert_eq!(
                hazard_from_meta(&warp, program, pc),
                warp.hazard(instr),
                "{instr:?} with {:?} pending",
                warp.pending_regs().collect::<Vec<_>>()
            );
            if rng.chance(0.5) {
                warp = Warp::new(NREGS as usize, u32::MAX);
            }
        }
    }
}

#[test]
fn every_shipped_program_decodes_to_its_instructions() {
    let mut rng = Rng64::new(0xCABA_0023);
    let mut instrs = 0;
    for app in all_apps() {
        for scale in [0.05, 1.0] {
            let kernel = app.kernel(scale);
            check_program(kernel.program(), &mut rng, 8);
            instrs += kernel.program().len();
        }
    }
    let subroutines = CabaController::subroutine_programs();
    assert_eq!(subroutines.len(), 19);
    for program in &subroutines {
        check_program(program, &mut rng, 8);
        instrs += program.len();
    }
    assert!(instrs > 1000, "{instrs} instructions checked");
}

fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
    items[rng.range_u64(items.len() as u64) as usize]
}

fn reg(rng: &mut Rng64) -> Reg {
    // Half the draws sit on the word boundary, where the two paths part.
    if rng.chance(0.5) {
        Reg(pick(rng, &[0, 1, 62, 63, 64, 65, 127, 128, 130]))
    } else {
        Reg(rng.range_u64(NREGS as u64) as u16)
    }
}

fn src(rng: &mut Rng64) -> Src {
    match rng.range_u64(4) {
        0 => Src::Imm(rng.next_u64()),
        1 => Src::Sp(pick(rng, &[Special::Tid, Special::Lane, Special::Param(1)])),
        _ => Src::Reg(reg(rng)),
    }
}

fn random_instr(rng: &mut Rng64) -> Instr {
    let space = pick(rng, &[Space::Global, Space::Shared]);
    let width = pick(rng, &[Width::B1, Width::B2, Width::B4, Width::B8]);
    let (dst, a, b) = (reg(rng), src(rng), src(rng));
    let (p, q) = (Pred(rng.range_u64(4) as u8), Pred(rng.range_u64(4) as u8));
    let op = match rng.range_u64(19) {
        0 => Op::Alu {
            op: pick(rng, &[AluOp::Add, AluOp::Mov, AluOp::Rem]),
            dst,
            a,
            b,
        },
        1 => Op::FAlu {
            op: pick(rng, &[FAluOp::FAdd, FAluOp::I2F]),
            dst,
            a,
            b,
        },
        2 => Op::Sfu {
            op: pick(rng, &[SfuOp::Rcp, SfuOp::Sin]),
            dst,
            a,
        },
        3 => Op::SetP {
            pred: p,
            cmp: pick(rng, &[CmpOp::Eq, CmpOp::LtU]),
            a,
            b,
        },
        4 => Op::PBool {
            dst: p,
            op: pick(rng, &[PBoolOp::And, PBoolOp::Not]),
            a: q,
            b: p,
        },
        5 => Op::VoteAll { dst: p, src: q },
        6 => Op::VoteAny { dst: p, src: q },
        7 => Op::Ballot { dst, src: q },
        8 => Op::FindFirst { dst: p, src: q },
        9 => Op::Selp { dst, a, b, pred: p },
        10 | 11 => Op::Ld {
            space,
            width,
            dst,
            addr: a,
            offset: 8,
        },
        12 | 13 => Op::St {
            space,
            width,
            src: a,
            addr: b,
            offset: -8,
        },
        14 => Op::LdPacked { k: 4, dst, base: a },
        15 => Op::StPacked {
            k: 2,
            src: a,
            base: b,
        },
        16 => Op::Bra {
            target: 0,
            reconv: 1,
        },
        17 => pick(rng, &[Op::Bar, Op::Nop]),
        _ => Op::Exit,
    };
    if rng.chance(0.3) {
        Instr::guarded(op, q, rng.chance(0.5))
    } else {
        Instr::new(op)
    }
}

#[test]
fn random_instructions_decode_to_themselves() {
    prop::check(0x155E_0023, 1200, |rng| {
        let program = Program::new(vec![random_instr(rng)]);
        check_program(&program, rng, 12);
    });
}
