//! The clocked end-of-cycle commit.
//!
//! The cycle loop advances the SMs one after another, but the machine it
//! models is clocked: in cycle *t* every SM observes the start-of-cycle
//! memory **plus its own writes** (assist-warp controllers read back lines
//! they stored in the same cycle), and nothing from its neighbours before
//! *t + 1*. The types here give each SM that view without copying the
//! multi-megabyte functional memory:
//!
//! * [`MemDelta`] — the cycle's write set over [`FuncMem`]. Every line an
//!   SM writes gets a shadow copy (start-of-cycle bytes patched with the
//!   writes, plus a written-byte mask) on an ordered commit list. Ending the
//!   SM's turn hides its lines from the next SM; after the last turn the
//!   list is applied once, masked, in SM index order — so two SMs writing
//!   different bytes of one line both land, and the later SM wins a byte
//!   both wrote.
//! * [`SharedMem`] — the read/write facade the execution engine uses:
//!   `Direct` (the fill phase, unit tests) or `Overlay` (the SM phase).
//! * The [`CompressionMap`] is shared directly under one rule: a line in the
//!   viewing SM's own shadow is compressed from the view and never cached;
//!   every other line goes through the map
//!   ([`CompressionMap::compressed_in`]); the commit invalidates every line
//!   written that cycle ([`MemDelta::dirty_lines`]). The map is pure
//!   memoization, so the rule is all it takes for every SM to get the
//!   compressed form of exactly the bytes it sees.

use crate::func::{lanes, le_get, le_put, pieces, CompressionMap, FuncMem};
use crate::{line_base, LINE_SIZE};
use caba_compress::CompressedLine;
use caba_stats::FxHashMap;
use std::borrow::Cow;

/// One line an SM wrote this cycle: the start-of-cycle bytes patched with
/// its writes, and which bytes those are.
#[derive(Debug)]
struct ShadowLine {
    base: u64,
    bytes: [u8; LINE_SIZE],
    written: u128,
}

const _: () = assert!(LINE_SIZE == 128, "one `written` bit per line byte");

/// Bits `off..off + n` of a written-byte mask (`n` ≥ 1, inside the line).
fn span(off: usize, n: usize) -> u128 {
    (u128::MAX >> (LINE_SIZE - n)) << off
}

/// One cycle's write set over a start-of-cycle [`FuncMem`].
#[derive(Debug, Default)]
pub struct MemDelta {
    /// The commit list: every (SM, line) written this cycle, in turn order.
    lines: Vec<ShadowLine>,
    /// Where in `lines` the current SM's shadow of a line is.
    // FxHash: consulted on the load path only while non-empty; never iterated.
    own: FxHashMap<u64, usize>,
}

impl MemDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ends the current SM's turn: its lines stay on the commit list, where
    /// the next SM cannot see them.
    pub fn end_turn(&mut self) {
        self.own.clear();
    }

    /// The current SM's shadow of `line`, if it wrote the line this cycle.
    fn own_line(&self, line: u64) -> Option<&[u8; LINE_SIZE]> {
        self.own.get(&line).map(|&i| &self.lines[i].bytes)
    }

    fn shadow_line(&mut self, base: &FuncMem, line: u64) -> &mut ShadowLine {
        let i = *self.own.entry(line).or_insert_with(|| {
            let mut bytes = [0u8; LINE_SIZE];
            base.read_line_into(line, &mut bytes);
            self.lines.push(ShadowLine {
                base: line,
                bytes,
                written: 0,
            });
            self.lines.len() - 1
        });
        &mut self.lines[i]
    }

    fn write_le(&mut self, base: &FuncMem, addr: u64, n: usize, v: u64) {
        // One shadow-line lookup per touched line (a ≤8-byte write touches
        // at most two), not one per byte; a zero-width write touches none.
        for (a, i, run) in pieces(addr, n, LINE_SIZE) {
            let off = (a - line_base(a)) as usize;
            let line = self.shadow_line(base, line_base(a));
            le_put(&mut line.bytes, off, run, v >> (8 * i));
            line.written |= span(off, run);
        }
    }

    /// Per-lane [`MemDelta::write_le`] in lane order, with one shadow-line
    /// lookup per run of lanes on one line.
    fn write_lanes(&mut self, base: &FuncMem, n: usize, mask: u32, addrs: &[u64], vals: &[u64]) {
        let within = |a: u64| n != 0 && (a - line_base(a)) as usize + n <= LINE_SIZE;
        let mut rest = lanes(mask).peekable();
        while let Some(first) = rest.next() {
            if !within(addrs[first]) {
                self.write_le(base, addrs[first], n, vals[first]);
                continue;
            }
            let lb = line_base(addrs[first]);
            let line = self.shadow_line(base, lb);
            let mut lane = Some(first);
            while let Some(l) = lane {
                let off = (addrs[l] - lb) as usize;
                le_put(&mut line.bytes, off, n, vals[l]);
                line.written |= span(off, n);
                lane = rest.next_if(|&l| within(addrs[l]) && line_base(addrs[l]) == lb);
            }
        }
    }

    fn load_image(&mut self, base: &FuncMem, addr: u64, bytes: &[u8]) {
        for (a, i, run) in pieces(addr, bytes.len(), LINE_SIZE) {
            let off = (a - line_base(a)) as usize;
            let line = self.shadow_line(base, line_base(a));
            line.bytes[off..off + run].copy_from_slice(&bytes[i..i + run]);
            line.written |= span(off, run);
        }
    }

    /// Base address of every line on the commit list (one per writing SM, so
    /// a line two SMs wrote appears twice). The engine invalidates these in
    /// the compression map when it commits.
    pub fn dirty_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines.iter().map(|l| l.base)
    }

    /// Lands the written bytes of every line on the commit list in `mem`, in
    /// list order, and clears the delta.
    pub fn commit(&mut self, mem: &mut FuncMem) {
        for l in self.lines.drain(..) {
            let mut rest = l.written;
            while rest != 0 {
                let off = rest.trailing_zeros() as usize;
                let run = (rest >> off).trailing_ones() as usize;
                mem.load_image(l.base + off as u64, &l.bytes[off..off + run]);
                rest &= !span(off, run);
            }
        }
        self.own.clear();
    }
}

/// A view of the functional memory, by execution phase.
#[derive(Debug)]
pub enum SharedMem<'a> {
    /// Exclusive access (the fill phase, unit tests): reads and writes go
    /// straight to the underlying memory.
    Direct(&'a mut FuncMem),
    /// Start-of-cycle memory plus this SM's own writes (SM phase).
    Overlay {
        /// The start-of-cycle memory.
        base: &'a FuncMem,
        /// The cycle's write set; this SM sees its own lines in it.
        delta: &'a mut MemDelta,
    },
}

impl SharedMem<'_> {
    /// The memory every read falls through to.
    fn base(&self) -> &FuncMem {
        match self {
            SharedMem::Direct(m) => m,
            SharedMem::Overlay { base, .. } => base,
        }
    }

    /// This SM's writes of the cycle so far, if it made any.
    fn shadow(&self) -> Option<&MemDelta> {
        match self {
            SharedMem::Overlay { delta, .. } if !delta.own.is_empty() => Some(delta),
            _ => None,
        }
    }

    /// The shadow copy of the line containing `addr`: one lookup.
    fn shadowed(&self, addr: u64) -> Option<&[u8; LINE_SIZE]> {
        self.shadow()?.own_line(line_base(addr))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.shadowed(addr) {
            Some(l) => l[(addr - line_base(addr)) as usize],
            None => self.base().read_u8(addr),
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write_le(addr, 1, v as u64);
    }

    /// Reads `n` (≤ 8) bytes little-endian, zero-extended: one shadow-line
    /// or page lookup, unless the access straddles shadowed lines.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn read_le(&self, addr: u64, n: usize) -> u64 {
        assert!(n <= 8, "read width {n} exceeds 8 bytes");
        let off = (addr - line_base(addr)) as usize;
        if off + n > LINE_SIZE && self.shadow().is_some() {
            return (0..n).fold(0, |v, i| {
                v | (self.read_u8(addr + i as u64) as u64) << (8 * i)
            });
        }
        match self.shadowed(addr) {
            Some(l) => le_get(l, off, n),
            None => self.base().read_le(addr, n),
        }
    }

    /// Writes the low `n` (≤ 8) bytes of `v` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn write_le(&mut self, addr: u64, n: usize, v: u64) {
        assert!(n <= 8, "write width {n} exceeds 8 bytes");
        match self {
            SharedMem::Direct(m) => m.write_le(addr, n, v),
            SharedMem::Overlay { base, delta } => delta.write_le(base, addr, n, v),
        }
    }

    /// The warp-wide load: `out[l] = read_le(addrs[l], n)` for each lane `l`
    /// set in `mask`, with one page (or shadow-line) lookup per run of
    /// consecutive lanes on it. Panics as [`SharedMem::read_le`] does.
    pub fn read_lanes(&self, n: usize, mask: u32, addrs: &[u64], out: &mut [u64]) {
        assert!(n <= 8, "read width {n} exceeds 8 bytes");
        if self.shadow().is_none() {
            return self.base().read_lanes(n, mask, addrs, out);
        }
        let (mut cur_lb, mut cur) = (u64::MAX, None);
        for l in lanes(mask) {
            let lb = line_base(addrs[l]);
            let off = (addrs[l] - lb) as usize;
            if lb != cur_lb {
                (cur_lb, cur) = (lb, self.shadowed(lb));
            }
            out[l] = match cur {
                _ if off + n > LINE_SIZE => self.read_le(addrs[l], n),
                Some(line) => le_get(line, off, n),
                None => self.base().read_le(addrs[l], n),
            };
        }
    }

    /// The warp-wide store: `write_le(addrs[l], n, vals[l])` for each lane
    /// `l` set in `mask`, in lane order. Panics as [`SharedMem::write_le`]
    /// does.
    pub fn write_lanes(&mut self, n: usize, mask: u32, addrs: &[u64], vals: &[u64]) {
        assert!(n <= 8, "write width {n} exceeds 8 bytes");
        match self {
            SharedMem::Overlay { base, delta } => delta.write_lanes(base, n, mask, addrs, vals),
            _ => lanes(mask).for_each(|l| self.write_le(addrs[l], n, vals[l])),
        }
    }

    /// Reads a 64-bit value.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a 64-bit value.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_le(addr, 8, v)
    }

    /// Reads a 32-bit value.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Writes a 32-bit value.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_le(addr, 4, v as u64)
    }

    /// Copies a byte slice into memory ("cudaMemcpy host→device").
    pub fn load_image(&mut self, addr: u64, bytes: &[u8]) {
        match self {
            SharedMem::Direct(m) => m.load_image(addr, bytes),
            SharedMem::Overlay { base, delta } => delta.load_image(base, addr, bytes),
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = self.base().read_bytes(addr, len);
        if let Some(shadow) = self.shadow() {
            // Patch this SM's shadowed lines over the snapshot bytes.
            for (a, i, run) in pieces(addr, len, LINE_SIZE) {
                if let Some(l) = shadow.own_line(line_base(a)) {
                    let off = (a - line_base(a)) as usize;
                    out[i..i + run].copy_from_slice(&l[off..off + run]);
                }
            }
        }
        out
    }

    /// Reads the full cache line containing `addr`.
    pub fn read_line(&self, addr: u64) -> Vec<u8> {
        match self.shadowed(addr) {
            Some(l) => l.to_vec(),
            None => self.base().read_line(addr),
        }
    }

    /// Reads the full cache line containing `addr` without allocating.
    pub fn read_line_into(&self, addr: u64, out: &mut [u8; LINE_SIZE]) {
        match self.shadowed(addr) {
            Some(l) => out.copy_from_slice(l),
            None => self.base().read_line_into(addr, out),
        }
    }
}

impl CompressionMap {
    /// The compressed form of the line containing `addr` as `view` sees it
    /// (`None` when incompressible). A line in the view's own shadow is
    /// compressed from the view and never cached; every other line goes
    /// through the map.
    pub fn compressed_in(
        &mut self,
        view: &SharedMem<'_>,
        addr: u64,
    ) -> Option<Cow<'_, CompressedLine>> {
        match view.shadowed(addr) {
            Some(bytes) => self.compressor().compress_line(bytes).map(Cow::Owned),
            None => self.compressed(view.base(), addr).map(Cow::Borrowed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_compress::{Algorithm, LineCompressor};

    fn seeded_mem() -> FuncMem {
        let mut m = FuncMem::new();
        for i in 0..64u64 {
            m.write_u32(i * 4, 0x100 + i as u32);
        }
        m
    }

    #[test]
    fn overlay_reads_own_writes_without_touching_base() {
        let base = seeded_mem();
        let mut delta = MemDelta::new();
        let mut view = SharedMem::Overlay {
            base: &base,
            delta: &mut delta,
        };
        assert_eq!(view.read_u32(0), 0x100);
        view.write_u32(0, 0xDEAD_BEEF);
        view.write_u8(130, 0x7F);
        assert_eq!(view.read_u32(0), 0xDEAD_BEEF, "read-your-own-writes");
        assert_eq!(view.read_u8(130), 0x7F);
        // Unwritten bytes of a shadowed line still show snapshot values.
        assert_eq!(view.read_u32(4), 0x101);
        // The base memory is untouched until commit.
        assert_eq!(base.read_u32(0), 0x100);
        assert_eq!(base.read_u8(130), 0);
    }

    #[test]
    fn commit_lands_writes_and_reports_dirty_lines() {
        let mut mem = seeded_mem();
        let mut delta = MemDelta::new();
        {
            let mut view = SharedMem::Overlay {
                base: &mem,
                delta: &mut delta,
            };
            view.write_u32(8, 42);
            view.load_image(256, &[1, 2, 3, 4]);
            // A write spanning a line boundary dirties both lines.
            view.write_u64(124, u64::MAX);
            // A zero-width write dirties nothing and materialises no page:
            // not its own line, not the line before, not the line below 0.
            for addr in [0, 0x100, 0x400, 0x2000] {
                view.write_le(addr, 0, u64::MAX);
            }
            view.write_lanes(0, 1, &[0x2000], &[u64::MAX]);
            view.load_image(0x2000, &[]);
        }
        let mut dirty: Vec<u64> = delta.dirty_lines().collect();
        delta.commit(&mut mem);
        assert_eq!(delta.dirty_lines().next(), None);
        assert_eq!(mem.read_u32(8), 42);
        assert_eq!(mem.read_bytes(256, 4), vec![1, 2, 3, 4]);
        assert_eq!(mem.read_u64(124), u64::MAX);
        dirty.sort_unstable();
        dirty.dedup();
        assert_eq!(dirty, vec![0, 128, 256]);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn lane_batched_writes_commit_like_per_lane_writes() {
        // Lanes that share a line, change line, and straddle a line and a
        // page: same memory, same read-back, same dirty list in order.
        let addrs: Vec<u64> = (0..32).map(|l| 4096 - 70 + l * 6).collect();
        let vals: Vec<u64> = (0..32)
            .map(|l| 0x1111_1111_1111_1111 * (l % 15 + 1))
            .collect();
        for mask in [u32::MAX, 0x0F0F_3355, 0] {
            let (mut m_batched, mut m_lane) = (seeded_mem(), seeded_mem());
            let (mut d_batched, mut d_lane) = (MemDelta::new(), MemDelta::new());
            let mut batched = SharedMem::Overlay {
                base: &m_batched,
                delta: &mut d_batched,
            };
            let mut per_lane = SharedMem::Overlay {
                base: &m_lane,
                delta: &mut d_lane,
            };
            batched.write_lanes(8, mask, &addrs, &vals);
            for l in lanes(mask) {
                per_lane.write_le(addrs[l], 8, vals[l]);
            }
            let (mut got, mut want) = ([0; 32], [0; 32]);
            batched.read_lanes(8, u32::MAX, &addrs, &mut got);
            for l in 0..32 {
                want[l] = per_lane.read_le(addrs[l], 8);
            }
            assert_eq!(got, want, "read-your-own-writes, mask {mask:#x}");
            assert_eq!(
                batched.read_bytes(4096 - 80, 300),
                per_lane.read_bytes(4096 - 80, 300)
            );
            assert!(
                d_batched.dirty_lines().eq(d_lane.dirty_lines()),
                "mask {mask:#x}"
            );
            d_batched.commit(&mut m_batched);
            d_lane.commit(&mut m_lane);
            assert_eq!(
                m_batched.read_bytes(4096 - 80, 300),
                m_lane.read_bytes(4096 - 80, 300)
            );
            assert_eq!(m_batched.resident_pages(), m_lane.resident_pages());
        }
    }

    #[test]
    fn turns_hide_writes_until_the_commit_merges_them_bytewise() {
        // Two SMs write different bytes of one line and the same byte of
        // another. Neither sees the other's write; the commit keeps both
        // bytes of the first line (a whole-line copy would clobber one) and
        // the later SM's byte of the second.
        let mut mem = FuncMem::new();
        let mut delta = MemDelta::new();
        let mut sm0 = SharedMem::Overlay {
            base: &mem,
            delta: &mut delta,
        };
        sm0.write_u8(0, 0xAA);
        sm0.write_u8(128, 0x01);
        delta.end_turn();
        let mut sm1 = SharedMem::Overlay {
            base: &mem,
            delta: &mut delta,
        };
        assert_eq!(sm1.read_u8(0), 0, "another SM's same-cycle write leaked");
        assert_eq!(sm1.read_line(128), vec![0; LINE_SIZE]);
        sm1.write_u8(1, 0xBB);
        sm1.write_u8(128, 0x02);
        assert_eq!(sm1.read_u32(0), 0xBB00);
        delta.end_turn();
        delta.commit(&mut mem);
        assert_eq!(mem.read_u32(0), 0xBBAA);
        assert_eq!(mem.read_u8(128), 0x02);
    }

    #[test]
    fn own_shadow_lines_bypass_the_compression_map() {
        let mut mem = seeded_mem();
        let mut map = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));
        let mut delta = MemDelta::new();
        let mut view = SharedMem::Overlay {
            base: &mem,
            delta: &mut delta,
        };
        // Look-up, own write, look-up: the second sees the write.
        let form = |map: &mut CompressionMap, view: &SharedMem<'_>, addr| {
            map.compressed_in(view, addr).map(Cow::into_owned)
        };
        let before = form(&mut map, &view, 0);
        assert!(before.is_some(), "seeded line compresses");
        view.write_u64(64, 0x0123_4567_89AB_CDEF);
        let line = view.read_line(0);
        let after = form(&mut map, &view, 0);
        assert_ne!(after, before, "the look-up ignored this SM's own store");
        assert_eq!(after, Algorithm::Bdi.compress_line(&line));
        // Nothing is cached for a shadowed line, whether the map had the
        // line (0) or not (512: a one, then zeros).
        view.write_u8(512, 1);
        assert!(form(&mut map, &view, 512).is_some());
        assert_eq!(map.cached_lines().collect::<Vec<_>>(), vec![0]);
        // The next SM still gets the start-of-cycle form.
        delta.end_turn();
        let other = SharedMem::Overlay {
            base: &mem,
            delta: &mut delta,
        };
        assert_eq!(form(&mut map, &other, 0), before);
        // The commit invalidates what was written, so from the next cycle
        // every view gets the new form.
        delta.dirty_lines().for_each(|l| map.invalidate(l));
        delta.commit(&mut mem);
        assert_eq!(form(&mut map, &SharedMem::Direct(&mut mem), 0), after);
    }
}
