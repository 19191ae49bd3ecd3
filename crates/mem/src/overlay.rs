//! Deferred-visibility overlays for the barrier-phased parallel engine.
//!
//! When the cycle loop shards SMs across workers, every SM in cycle *t* must
//! observe the same shared state: the start-of-cycle snapshot **plus its own
//! writes** (assist-warp controllers read back lines they stored in the same
//! cycle), and nothing from its neighbours. The overlay types here give each
//! worker that view without copying the multi-megabyte functional memory:
//!
//! * [`MemDelta`] — a per-SM write set over [`FuncMem`]: a line-granular
//!   shadow for read-your-own-writes plus an ordered op log that the
//!   coordinator replays into the real memory at the cycle barrier, in SM
//!   index order. Replaying *ops* (not shadow lines) means two SMs writing
//!   different bytes of the same line both land, in deterministic order.
//! * [`SharedMem`] — the read/write facade the execution engine uses:
//!   `Direct` (serial phases, unit tests), `Frozen` (read-only snapshot for
//!   the partition phase) or `Overlay` (SM phase).
//! * [`CmapDelta`] / [`SharedCmap`] — same idea for the [`CompressionMap`].
//!   The map is pure memoization (entries are recomputed lazily from line
//!   bytes), so the commit rule is simple: replay each SM's invalidate/cache
//!   ops in order, then blanket-invalidate every line written this cycle.
//!
//! The engine uses the overlay view for **every** `intra_jobs` setting,
//! including 1, so `RunStats` are bit-identical across worker counts by
//! construction rather than by a racy argument.

use crate::func::{lanes, le_get, le_put, pieces, CompressionMap, FuncMem, LineCompressor};
use crate::{line_base, LINE_SIZE};
use caba_compress::CompressedLine;
use caba_stats::FxHashMap;

/// One logged write against the functional memory.
#[derive(Debug, Clone)]
enum MemOp {
    /// `write_le(addr, n, val)` — covers all scalar widths.
    Le { addr: u64, n: u8, val: u64 },
    /// `load_image(addr, bytes)` — bulk copies (assist-warp payload moves).
    Image { addr: u64, bytes: Vec<u8> },
}

/// A per-SM, per-cycle write set over a frozen [`FuncMem`] snapshot.
#[derive(Debug, Default)]
pub struct MemDelta {
    // Line-granular shadow: snapshot bytes patched with this SM's writes.
    // FxHash: consulted on the load path only while non-empty; never iterated.
    shadow: FxHashMap<u64, [u8; LINE_SIZE]>,
    log: Vec<MemOp>,
}

impl MemDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no write has been logged this cycle.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    fn shadow_line<'a>(
        shadow: &'a mut FxHashMap<u64, [u8; LINE_SIZE]>,
        base: &FuncMem,
        line: u64,
    ) -> &'a mut [u8; LINE_SIZE] {
        shadow.entry(line).or_insert_with(|| {
            let mut buf = [0u8; LINE_SIZE];
            base.read_line_into(line, &mut buf);
            buf
        })
    }

    fn write_le(&mut self, base: &FuncMem, addr: u64, n: usize, v: u64) {
        // One shadow-line lookup per touched line (a ≤8-byte write touches
        // at most two), not one per byte.
        for (a, i, run) in pieces(addr, n, LINE_SIZE) {
            let line = Self::shadow_line(&mut self.shadow, base, line_base(a));
            le_put(line, (a - line_base(a)) as usize, run, v >> (8 * i));
        }
        let n = n as u8;
        self.log.push(MemOp::Le { addr, n, val: v });
    }

    /// Per-lane [`MemDelta::write_le`] in lane order, with one shadow-line
    /// lookup per run of lanes on one line. Logs one op per lane, exactly as
    /// the per-lane form does.
    fn write_lanes(&mut self, base: &FuncMem, n: usize, mask: u32, addrs: &[u64], vals: &[u64]) {
        let within = |a: u64| n != 0 && (a - line_base(a)) as usize + n <= LINE_SIZE;
        let mut rest = lanes(mask).peekable();
        while let Some(first) = rest.next() {
            if !within(addrs[first]) {
                self.write_le(base, addrs[first], n, vals[first]);
                continue;
            }
            let lb = line_base(addrs[first]);
            let line = Self::shadow_line(&mut self.shadow, base, lb);
            let mut lane = Some(first);
            while let Some(l) = lane {
                le_put(line, (addrs[l] - lb) as usize, n, vals[l]);
                let (addr, n, val) = (addrs[l], n as u8, vals[l]);
                self.log.push(MemOp::Le { addr, n, val });
                lane = rest.next_if(|&l| within(addrs[l]) && line_base(addrs[l]) == lb);
            }
        }
    }

    fn load_image(&mut self, base: &FuncMem, addr: u64, bytes: &[u8]) {
        // Copy line-sized runs into the shadow, one lookup per line.
        for (a, i, run) in pieces(addr, bytes.len(), LINE_SIZE) {
            let off = (a - line_base(a)) as usize;
            let line = Self::shadow_line(&mut self.shadow, base, line_base(a));
            line[off..off + run].copy_from_slice(&bytes[i..i + run]);
        }
        let bytes = bytes.to_vec();
        self.log.push(MemOp::Image { addr, bytes });
    }

    /// Replays the logged writes into `mem` and clears the delta. When
    /// `dirty` is given, the base address of every written line is appended
    /// (the engine blanket-invalidates those in the compression map).
    pub fn commit(&mut self, mem: &mut FuncMem, mut dirty: Option<&mut Vec<u64>>) {
        for op in self.log.drain(..) {
            match op {
                MemOp::Le { addr, n, val } => {
                    mem.write_le(addr, n as usize, val);
                    if let Some(d) = dirty.as_deref_mut() {
                        d.push(line_base(addr));
                        d.push(line_base(addr + n as u64 - 1));
                    }
                }
                MemOp::Image { addr, bytes } => {
                    if let Some(d) = dirty.as_deref_mut() {
                        let mut l = line_base(addr);
                        let end = addr + bytes.len() as u64;
                        while l < end {
                            d.push(l);
                            l += LINE_SIZE as u64;
                        }
                    }
                    mem.load_image(addr, &bytes);
                }
            }
        }
        self.shadow.clear();
    }
}

/// A view of the functional memory, parameterized by execution phase.
#[derive(Debug)]
pub enum SharedMem<'a> {
    /// Exclusive access (serial phases, unit tests): reads and writes go
    /// straight to the underlying memory.
    Direct(&'a mut FuncMem),
    /// Shared read-only snapshot (partition phase). Writes panic.
    Frozen(&'a FuncMem),
    /// Start-of-cycle snapshot plus this SM's own writes (SM phase).
    Overlay {
        /// The frozen start-of-cycle memory.
        base: &'a FuncMem,
        /// This SM's private write set.
        delta: &'a mut MemDelta,
    },
}

impl SharedMem<'_> {
    /// The memory every read falls through to.
    fn base(&self) -> &FuncMem {
        match self {
            SharedMem::Direct(m) => m,
            SharedMem::Frozen(m) => m,
            SharedMem::Overlay { base, .. } => base,
        }
    }

    /// This SM's writes of the cycle so far, if it made any.
    fn shadow(&self) -> Option<&FxHashMap<u64, [u8; LINE_SIZE]>> {
        match self {
            SharedMem::Overlay { delta, .. } if !delta.shadow.is_empty() => Some(&delta.shadow),
            _ => None,
        }
    }

    /// The shadow copy of the line containing `addr`: one lookup.
    fn shadowed(&self, addr: u64) -> Option<&[u8; LINE_SIZE]> {
        self.shadow()?.get(&line_base(addr))
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
    /// Panics if `n > 8`, or on a [`SharedMem::Frozen`] view.
    pub fn write_le(&mut self, addr: u64, n: usize, v: u64) {
        assert!(n <= 8, "write width {n} exceeds 8 bytes");
        match self {
            SharedMem::Direct(m) => m.write_le(addr, n, v),
            SharedMem::Frozen(_) => panic!("write through a frozen memory view"),
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
    ///
    /// # Panics
    ///
    /// Panics on a [`SharedMem::Frozen`] view.
    pub fn load_image(&mut self, addr: u64, bytes: &[u8]) {
        match self {
            SharedMem::Direct(m) => m.load_image(addr, bytes),
            SharedMem::Frozen(_) => panic!("write through a frozen memory view"),
            SharedMem::Overlay { base, delta } => delta.load_image(base, addr, bytes),
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = self.base().read_bytes(addr, len);
        if let Some(shadow) = self.shadow() {
            // Patch this SM's shadowed lines over the snapshot bytes.
            for (a, i, run) in pieces(addr, len, LINE_SIZE) {
                if let Some(l) = shadow.get(&line_base(a)) {
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

/// One logged operation against the compression map.
#[derive(Debug, Clone)]
enum CmapOp {
    /// A store invalidated the cached form of this line base.
    Invalidate(u64),
    /// A lazy compute cached this form for this line base.
    Cache(u64, Option<CompressedLine>),
}

/// Local (per-view) knowledge about one line's cached form.
#[derive(Debug, Clone)]
enum CmapLocal {
    /// Invalidated this cycle; recompute on next query.
    Invalid,
    /// Computed this cycle from the view's bytes.
    Cached(Option<CompressedLine>),
}

/// A per-worker, per-cycle delta over a frozen [`CompressionMap`].
#[derive(Debug, Default)]
pub struct CmapDelta {
    // FxHash: per-cycle scratch, never iterated.
    local: FxHashMap<u64, CmapLocal>,
    log: Vec<CmapOp>,
}

impl CmapDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays the logged operations into `map` in order and clears the
    /// delta. The compression map is pure memoization, so replaying each
    /// worker's ops in worker-index order (then blanket-invalidating lines
    /// written this cycle) reproduces the serial map exactly.
    pub fn commit(&mut self, map: &mut CompressionMap) {
        for op in self.log.drain(..) {
            match op {
                CmapOp::Invalidate(b) => map.invalidate(b),
                CmapOp::Cache(b, c) => map.insert_cached(b, c),
            }
        }
        self.local.clear();
    }
}

/// A view of the compression map, parameterized by execution phase.
#[derive(Debug)]
pub enum SharedCmap<'a> {
    /// Exclusive access (serial phases, unit tests).
    Direct(&'a mut CompressionMap),
    /// Frozen start-of-cycle map plus this worker's private delta.
    Overlay {
        /// The frozen start-of-cycle map.
        base: &'a CompressionMap,
        /// This worker's private delta.
        delta: &'a mut CmapDelta,
    },
}

impl SharedCmap<'_> {
    /// The configured compressor choice.
    pub fn compressor(&self) -> LineCompressor {
        match self {
            SharedCmap::Direct(m) => m.compressor(),
            SharedCmap::Overlay { base, .. } => base.compressor(),
        }
    }

    /// Applies `f` to the compressed form of the line containing `addr`,
    /// computing and caching it (in the map or the delta) on first use.
    /// Returns `None` when the line is incompressible.
    fn with_compressed<R>(
        &mut self,
        mem: &SharedMem<'_>,
        addr: u64,
        f: impl FnOnce(&CompressedLine) -> R,
    ) -> Option<R> {
        let b = line_base(addr);
        match self {
            SharedCmap::Direct(map) => {
                if map.peek(b).is_none() {
                    let mut bytes = [0u8; LINE_SIZE];
                    mem.read_line_into(b, &mut bytes);
                    let c = map.compressor().compress_line(&bytes);
                    map.insert_cached(b, c);
                }
                map.peek(b).and_then(|o| o.as_ref()).map(f)
            }
            SharedCmap::Overlay { base, delta } => {
                if delta.local.is_empty() {
                    // Fast path: nothing local this cycle, consult the
                    // frozen base directly.
                    if let Some(o) = base.peek(b) {
                        return o.as_ref().map(f);
                    }
                } else {
                    match delta.local.get(&b) {
                        Some(CmapLocal::Cached(o)) => return o.as_ref().map(f),
                        Some(CmapLocal::Invalid) => {}
                        None => {
                            if let Some(o) = base.peek(b) {
                                return o.as_ref().map(f);
                            }
                        }
                    }
                }
                let mut bytes = [0u8; LINE_SIZE];
                mem.read_line_into(b, &mut bytes);
                let c = base.compressor().compress_line(&bytes);
                let r = c.as_ref().map(f);
                delta.log.push(CmapOp::Cache(b, c.clone()));
                delta.local.insert(b, CmapLocal::Cached(c));
                r
            }
        }
    }

    /// Compressed size in bytes of the line containing `addr`, or `None`
    /// when incompressible. Never clones the payload.
    pub fn compressed_size(&mut self, mem: &SharedMem<'_>, addr: u64) -> Option<usize> {
        self.with_compressed(mem, addr, |c| c.size_bytes())
    }

    /// A clone of the compressed form of the line containing `addr`.
    pub fn compressed_clone(&mut self, mem: &SharedMem<'_>, addr: u64) -> Option<CompressedLine> {
        self.with_compressed(mem, addr, |c| c.clone())
    }

    /// DRAM bursts to transfer the line containing `addr` in compressed form.
    pub fn line_bursts(&mut self, mem: &SharedMem<'_>, addr: u64) -> u32 {
        match self.with_compressed(mem, addr, |c| c.bursts() as u32) {
            Some(b) => b,
            None => (LINE_SIZE / caba_compress::BURST_BYTES) as u32,
        }
    }

    /// Invalidates the cached form of the line containing `addr` (call on
    /// every store to the line).
    pub fn invalidate(&mut self, addr: u64) {
        match self {
            SharedCmap::Direct(map) => map.invalidate(addr),
            SharedCmap::Overlay { delta, .. } => {
                let b = line_base(addr);
                delta.log.push(CmapOp::Invalidate(b));
                delta.local.insert(b, CmapLocal::Invalid);
            }
        }
    }

    /// Mutable access to a cached compressed form (fault-injection only).
    ///
    /// # Panics
    ///
    /// Panics on an overlay view: corruption happens in the serial fill
    /// phase, which always runs with direct access.
    pub fn cached_mut(&mut self, addr: u64) -> Option<&mut CompressedLine> {
        match self {
            SharedCmap::Direct(map) => map.cached_mut(addr),
            SharedCmap::Overlay { .. } => {
                panic!("fault injection must not corrupt through an overlay view")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_compress::Algorithm;

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
    fn commit_replays_ops_and_reports_dirty_lines() {
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
        }
        let mut dirty = Vec::new();
        delta.commit(&mut mem, Some(&mut dirty));
        assert!(delta.is_empty());
        assert_eq!(mem.read_u32(8), 42);
        assert_eq!(mem.read_bytes(256, 4), vec![1, 2, 3, 4]);
        assert_eq!(mem.read_u64(124), u64::MAX);
        dirty.sort_unstable();
        dirty.dedup();
        assert_eq!(dirty, vec![0, 128, 256]);
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
            let (mut dirty_batched, mut dirty_lane) = (Vec::new(), Vec::new());
            d_batched.commit(&mut m_batched, Some(&mut dirty_batched));
            d_lane.commit(&mut m_lane, Some(&mut dirty_lane));
            assert_eq!(dirty_batched, dirty_lane, "mask {mask:#x}");
            assert_eq!(
                m_batched.read_bytes(4096 - 80, 300),
                m_lane.read_bytes(4096 - 80, 300)
            );
            assert_eq!(m_batched.resident_pages(), m_lane.resident_pages());
        }
    }

    #[test]
    fn interleaved_commits_merge_byte_writes_to_one_line() {
        // Two deltas write different bytes of the same line; op replay must
        // preserve both (a line-copy commit would clobber one).
        let mut mem = FuncMem::new();
        let mut d0 = MemDelta::new();
        let mut d1 = MemDelta::new();
        SharedMem::Overlay {
            base: &mem,
            delta: &mut d0,
        }
        .write_u8(0, 0xAA);
        SharedMem::Overlay {
            base: &mem,
            delta: &mut d1,
        }
        .write_u8(1, 0xBB);
        d0.commit(&mut mem, None);
        d1.commit(&mut mem, None);
        assert_eq!(mem.read_u8(0), 0xAA);
        assert_eq!(mem.read_u8(1), 0xBB);
    }

    #[test]
    fn frozen_view_reads_and_rejects_writes() {
        let mem = seeded_mem();
        let view = SharedMem::Frozen(&mem);
        assert_eq!(view.read_u32(0), 0x100);
        assert_eq!(view.read_line(0).len(), LINE_SIZE);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut v = SharedMem::Frozen(&mem);
            v.write_u8(0, 1);
        }));
        assert!(r.is_err(), "frozen writes must panic");
    }

    #[test]
    fn cmap_overlay_matches_direct_semantics() {
        let mem = seeded_mem();
        let mut map = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));
        let mut direct_map = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));

        let mut delta = CmapDelta::new();
        let frozen = SharedMem::Frozen(&mem);
        let mut view = SharedCmap::Overlay {
            base: &map,
            delta: &mut delta,
        };
        let via_overlay = view.compressed_size(&frozen, 0);
        view.invalidate(0);
        let recomputed = view.compressed_size(&frozen, 0);
        delta.commit(&mut map);

        let mut direct = SharedCmap::Direct(&mut direct_map);
        let via_direct = direct.compressed_size(&frozen, 0);
        assert_eq!(via_overlay, via_direct);
        assert_eq!(recomputed, via_direct);
        // After commit the real map holds the computed entry.
        assert_eq!(
            map.peek(0).and_then(|o| o.as_ref()).map(|c| c.size_bytes()),
            via_direct
        );
    }

    #[test]
    fn cmap_overlay_sees_base_entries_without_logging() {
        let mem = seeded_mem();
        let mut map = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));
        let direct_size = map.compressed(&mem, 0).map(|c| c.size_bytes());
        let mut delta = CmapDelta::new();
        let frozen = SharedMem::Frozen(&mem);
        let mut view = SharedCmap::Overlay {
            base: &map,
            delta: &mut delta,
        };
        assert_eq!(view.compressed_size(&frozen, 0), direct_size);
        assert!(delta.log.is_empty(), "base hits must not be re-logged");
    }
}
