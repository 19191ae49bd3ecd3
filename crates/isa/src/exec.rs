//! Functional (value) semantics of the ISA, evaluated per lane or per
//! warp-wide row.
//!
//! The timing simulator in `caba-sim` decides *when* an instruction executes;
//! the functions here decide *what* it computes. Keeping the two separate
//! lets the compression subroutines be unit-tested functionally without a
//! pipeline model.
//!
//! The `*_row` forms apply one operation to all [`WARP_SIZE`] lanes. They
//! match on the opcode once and run a straight lane loop per arm, each arm
//! calling the per-lane function with a constant opcode, so the per-lane
//! functions stay the single definition of the semantics.

use crate::{AluOp, CmpOp, FAluOp, SfuOp, WARP_SIZE};

/// One 64-bit value per lane of a warp.
pub type Row = [u64; WARP_SIZE];

/// Expands to `match $op { E::V => <$body with OP = E::V constant>, ... }`.
macro_rules! per_variant {
    ($op:expr, $e:ident, [$($v:ident),*], |$c:ident| $body:expr) => {
        match $op { $($e::$v => { const $c: $e = $e::$v; $body })* }
    };
}

/// [`eval_alu`] over a whole warp.
pub fn alu_row(op: AluOp, a: &Row, b: &Row) -> Row {
    per_variant!(
        op,
        AluOp,
        [Add, Sub, Mul, Min, Max, And, Or, Xor, Shl, Shr, Sar, Mov, Rem, Div],
        |OP| std::array::from_fn(|l| eval_alu(OP, a[l], b[l]))
    )
}

/// [`eval_falu`] over a whole warp.
pub fn falu_row(op: FAluOp, a: &Row, b: &Row) -> Row {
    per_variant!(op, FAluOp, [FAdd, FSub, FMul, F2I, I2F], |OP| {
        std::array::from_fn(|l| eval_falu(OP, a[l], b[l]))
    })
}

/// [`eval_sfu`] over a whole warp.
pub fn sfu_row(op: SfuOp, a: &Row) -> Row {
    per_variant!(op, SfuOp, [Rcp, Rsqrt, Sin, Ex2, Lg2], |OP| {
        std::array::from_fn(|l| eval_sfu(OP, a[l]))
    })
}

/// [`eval_cmp`] over a whole warp; bit `l` of the result is lane `l`'s
/// predicate.
pub fn cmp_mask(op: CmpOp, a: &Row, b: &Row) -> u32 {
    per_variant!(op, CmpOp, [Eq, Ne, LtS, LeS, GtS, GeS, LtU, GeU], |OP| {
        (0..WARP_SIZE).fold(0, |m, l| m | (eval_cmp(OP, a[l], b[l]) as u32) << l)
    })
}

/// Evaluates an integer ALU operation on 64-bit values.
#[inline]
pub fn eval_alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Min => (a as i64).min(b as i64) as u64,
        AluOp::Max => (a as i64).max(b as i64) as u64,
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a << (b & 63),
        AluOp::Shr => a >> (b & 63),
        AluOp::Sar => ((a as i64) >> (b & 63)) as u64,
        AluOp::Mov => a,
        AluOp::Rem => a.checked_rem(b).unwrap_or(a),
        AluOp::Div => a.checked_div(b).unwrap_or(0),
    }
}

/// Evaluates a comparison, returning the predicate value.
#[inline]
pub fn eval_cmp(op: CmpOp, a: u64, b: u64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::LtS => (a as i64) < (b as i64),
        CmpOp::LeS => (a as i64) <= (b as i64),
        CmpOp::GtS => (a as i64) > (b as i64),
        CmpOp::GeS => (a as i64) >= (b as i64),
        CmpOp::LtU => a < b,
        CmpOp::GeU => a >= b,
    }
}

/// Evaluates a float operation. Operands are the low 32 bits of the
/// registers, interpreted as `f32`; the result is zero-extended bits.
#[inline]
pub fn eval_falu(op: FAluOp, a: u64, b: u64) -> u64 {
    let fa = f32::from_bits(a as u32);
    let fb = f32::from_bits(b as u32);
    match op {
        FAluOp::FAdd => (fa + fb).to_bits() as u64,
        FAluOp::FSub => (fa - fb).to_bits() as u64,
        FAluOp::FMul => (fa * fb).to_bits() as u64,
        FAluOp::F2I => {
            // Saturating conversion, NaN -> 0, like PTX cvt.rzi.
            let v = if fa.is_nan() {
                0i64
            } else {
                fa.clamp(i32::MIN as f32, i32::MAX as f32) as i64
            };
            v as u64
        }
        FAluOp::I2F => ((a as i64) as f32).to_bits() as u64,
    }
}

/// Evaluates an SFU operation on the low 32 bits as `f32`.
#[inline]
pub fn eval_sfu(op: SfuOp, a: u64) -> u64 {
    let fa = f32::from_bits(a as u32);
    let r = match op {
        SfuOp::Rcp => 1.0 / fa,
        SfuOp::Rsqrt => 1.0 / fa.sqrt(),
        SfuOp::Sin => fa.sin(),
        SfuOp::Ex2 => fa.exp2(),
        SfuOp::Lg2 => fa.log2(),
    };
    r.to_bits() as u64
}

/// Zero-extends the low `width` bytes of `v` (identity for width 8).
#[inline]
pub fn truncate(v: u64, width_bytes: u64) -> u64 {
    debug_assert!(matches!(width_bytes, 1 | 2 | 4 | 8));
    if width_bytes >= 8 {
        v
    } else {
        v & ((1u64 << (width_bytes * 8)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_wrapping_and_logic() {
        assert_eq!(eval_alu(AluOp::Add, u64::MAX, 1), 0);
        assert_eq!(eval_alu(AluOp::Sub, 0, 1), u64::MAX);
        assert_eq!(eval_alu(AluOp::Mul, 3, 5), 15);
        assert_eq!(eval_alu(AluOp::And, 0b1100, 0b1010), 0b1000);
        assert_eq!(eval_alu(AluOp::Or, 0b1100, 0b1010), 0b1110);
        assert_eq!(eval_alu(AluOp::Xor, 0b1100, 0b1010), 0b0110);
        assert_eq!(eval_alu(AluOp::Mov, 42, 99), 42);
    }

    #[test]
    fn alu_shifts_mask_amount() {
        assert_eq!(eval_alu(AluOp::Shl, 1, 64), 1); // 64 & 63 == 0
        assert_eq!(eval_alu(AluOp::Shr, 0x8000_0000_0000_0000, 63), 1);
        assert_eq!(eval_alu(AluOp::Sar, (-8i64) as u64, 2), (-2i64) as u64);
    }

    #[test]
    fn alu_min_max_signed() {
        assert_eq!(eval_alu(AluOp::Min, (-1i64) as u64, 1), (-1i64) as u64);
        assert_eq!(eval_alu(AluOp::Max, (-1i64) as u64, 1), 1);
    }

    #[test]
    fn alu_div_rem_by_zero_are_defined() {
        assert_eq!(eval_alu(AluOp::Div, 7, 0), 0);
        assert_eq!(eval_alu(AluOp::Rem, 7, 0), 7);
        assert_eq!(eval_alu(AluOp::Div, 7, 2), 3);
        assert_eq!(eval_alu(AluOp::Rem, 7, 2), 1);
    }

    #[test]
    fn comparisons_signedness() {
        let neg1 = (-1i64) as u64;
        assert!(eval_cmp(CmpOp::LtS, neg1, 0));
        assert!(!eval_cmp(CmpOp::LtU, neg1, 0));
        assert!(eval_cmp(CmpOp::GeU, neg1, 0));
        assert!(eval_cmp(CmpOp::Eq, 5, 5));
        assert!(eval_cmp(CmpOp::Ne, 5, 6));
        assert!(eval_cmp(CmpOp::LeS, 5, 5));
        assert!(eval_cmp(CmpOp::GtS, 6, 5));
        assert!(eval_cmp(CmpOp::GeS, 5, 5));
    }

    #[test]
    fn float_ops() {
        let a = 2.5f32.to_bits() as u64;
        let b = 0.5f32.to_bits() as u64;
        assert_eq!(f32::from_bits(eval_falu(FAluOp::FAdd, a, b) as u32), 3.0);
        assert_eq!(f32::from_bits(eval_falu(FAluOp::FSub, a, b) as u32), 2.0);
        assert_eq!(f32::from_bits(eval_falu(FAluOp::FMul, a, b) as u32), 1.25);
        assert_eq!(eval_falu(FAluOp::F2I, a, 0), 2);
        let nan = f32::NAN.to_bits() as u64;
        assert_eq!(eval_falu(FAluOp::F2I, nan, 0), 0);
        let i2f = eval_falu(FAluOp::I2F, (-3i64) as u64, 0);
        assert_eq!(f32::from_bits(i2f as u32), -3.0);
    }

    #[test]
    fn sfu_ops() {
        let four = 4.0f32.to_bits() as u64;
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Rcp, four) as u32), 0.25);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Rsqrt, four) as u32), 0.5);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Ex2, four) as u32), 16.0);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Lg2, four) as u32), 2.0);
        let s = f32::from_bits(eval_sfu(SfuOp::Sin, 0) as u32);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn rows_agree_with_the_per_lane_functions() {
        let a: Row =
            std::array::from_fn(|l| (l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (l % 7));
        let b: Row = std::array::from_fn(|l| if l % 5 == 0 { 0 } else { 100 - 3 * l as u64 });
        for op in [AluOp::Add, AluOp::Min, AluOp::Sar, AluOp::Rem, AluOp::Div] {
            assert_eq!(
                alu_row(op, &a, &b),
                std::array::from_fn(|l| eval_alu(op, a[l], b[l]))
            );
        }
        for op in [FAluOp::FMul, FAluOp::F2I, FAluOp::I2F] {
            assert_eq!(
                falu_row(op, &a, &b),
                std::array::from_fn(|l| eval_falu(op, a[l], b[l]))
            );
        }
        for op in [SfuOp::Rcp, SfuOp::Lg2] {
            assert_eq!(sfu_row(op, &b), std::array::from_fn(|l| eval_sfu(op, b[l])));
        }
        for op in [CmpOp::Eq, CmpOp::LtS, CmpOp::GeU] {
            for l in 0..WARP_SIZE {
                assert_eq!(cmp_mask(op, &a, &b) >> l & 1 == 1, eval_cmp(op, a[l], b[l]));
            }
        }
    }

    #[test]
    fn truncate_widths() {
        assert_eq!(truncate(0x1122_3344_5566_7788, 1), 0x88);
        assert_eq!(truncate(0x1122_3344_5566_7788, 2), 0x7788);
        assert_eq!(truncate(0x1122_3344_5566_7788, 4), 0x5566_7788);
        assert_eq!(truncate(0x1122_3344_5566_7788, 8), 0x1122_3344_5566_7788);
    }
}
