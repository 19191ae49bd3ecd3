//! Functional backing memory and the per-line compression map.

use crate::{line_base, LINE_SIZE};
use caba_compress::{CompressedLine, LineCompressor};
use caba_stats::FxHashMap;

const PAGE_SIZE: usize = 4096;

/// Lanes set in `mask`, ascending.
pub(crate) fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |l| mask >> l & 1 == 1)
}

/// Splits `[addr, addr + len)` at multiples of `granule` (a page or a line: a
/// power of two), yielding each piece's address, its offset into the range
/// and its length.
pub(crate) fn pieces(
    addr: u64,
    len: usize,
    granule: usize,
) -> impl Iterator<Item = (u64, usize, usize)> {
    let mut i = 0;
    std::iter::from_fn(move || {
        let a = addr + i as u64;
        let run = (granule - (a as usize & (granule - 1))).min(len - i);
        i += run;
        (run != 0).then_some((a, i - run, run))
    })
}

fn low_bytes(n: usize) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1 << (8 * n)) - 1
    }
}

/// Little-endian value of `buf[off..off + n]` (`n` ≤ 8), zero-extended.
#[inline]
pub(crate) fn le_get(buf: &[u8], off: usize, n: usize) -> u64 {
    match buf.get(off..off + 8) {
        // One 8-byte load masked to `n` bytes; only the tail of the buffer
        // takes the byte loop.
        Some(w) => u64::from_le_bytes(w.try_into().expect("8 bytes")) & low_bytes(n),
        None => buf[off..off + n]
            .iter()
            .rev()
            .fold(0, |v, &b| v << 8 | b as u64),
    }
}

/// Stores the low `n` (≤ 8) bytes of `v` little-endian at `buf[off..]`.
#[inline]
pub(crate) fn le_put(buf: &mut [u8], off: usize, n: usize, v: u64) {
    match buf.get_mut(off..off + 8) {
        Some(w) => {
            let keep = !low_bytes(n);
            let old = u64::from_le_bytes((&*w).try_into().expect("8 bytes"));
            w.copy_from_slice(&(old & keep | v & !keep).to_le_bytes());
        }
        None => buf[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]),
    }
}

/// Sparse byte-addressable memory holding the functional contents of global
/// memory. Unwritten bytes read as zero.
///
/// # Examples
///
/// ```
/// use caba_mem::FuncMem;
/// let mut m = FuncMem::new();
/// m.write_u64(0x1000, 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x1000), 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x2000), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct FuncMem {
    // FxHash: page lookups are on every load/store path of the functional
    // model; iteration order never reaches architectural state.
    pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl FuncMem {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_of(addr: u64) -> (u64, usize) {
        (addr / PAGE_SIZE as u64, (addr % PAGE_SIZE as u64) as usize)
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (page, off) = Self::page_of(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let (page, off) = Self::page_of(addr);
        self.page_mut(page)[off] = v;
    }

    /// Reads `n` (≤ 8) bytes little-endian, zero-extended: one page lookup
    /// unless the access straddles a page.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn read_le(&self, addr: u64, n: usize) -> u64 {
        assert!(n <= 8, "read width {n} exceeds 8 bytes");
        let (page, off) = Self::page_of(addr);
        if off + n <= PAGE_SIZE {
            return self.pages.get(&page).map_or(0, |p| le_get(&p[..], off, n));
        }
        (0..n).fold(0, |v, i| {
            v | (self.read_u8(addr + i as u64) as u64) << (8 * i)
        })
    }

    /// Writes the low `n` (≤ 8) bytes of `v` little-endian: one page lookup
    /// unless the access straddles a page.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn write_le(&mut self, addr: u64, n: usize, v: u64) {
        assert!(n <= 8, "write width {n} exceeds 8 bytes");
        let (page, off) = Self::page_of(addr);
        if off + n > PAGE_SIZE {
            for i in 0..n {
                self.write_u8(addr + i as u64, (v >> (8 * i)) as u8);
            }
        } else if n != 0 {
            // (A zero-length write touches no byte, so materialises no page.)
            le_put(&mut self.page_mut(page)[..], off, n, v);
        }
    }

    /// `out[l] = read_le(addrs[l], n)` for each lane `l` set in `mask`,
    /// reusing the page across consecutive lanes that stay on it. Panics as
    /// [`FuncMem::read_le`] does.
    pub fn read_lanes(&self, n: usize, mask: u32, addrs: &[u64], out: &mut [u64]) {
        assert!(n <= 8, "read width {n} exceeds 8 bytes");
        let (mut cur_no, mut cur) = (u64::MAX, None);
        for l in lanes(mask) {
            let (page, off) = Self::page_of(addrs[l]);
            if off + n > PAGE_SIZE {
                out[l] = self.read_le(addrs[l], n);
                continue;
            }
            if page != cur_no {
                (cur_no, cur) = (page, self.pages.get(&page));
            }
            out[l] = cur.map_or(0, |p| le_get(&p[..], off, n));
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

    /// Copies a byte slice into memory ("cudaMemcpy host→device"), one page
    /// lookup per page touched.
    pub fn load_image(&mut self, addr: u64, bytes: &[u8]) {
        for (a, i, run) in pieces(addr, bytes.len(), PAGE_SIZE) {
            let (page, off) = Self::page_of(a);
            self.page_mut(page)[off..off + run].copy_from_slice(&bytes[i..i + run]);
        }
    }

    /// Reads `len` bytes starting at `addr`, one page lookup per page touched.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (a, i, run) in pieces(addr, len, PAGE_SIZE) {
            let (page, off) = Self::page_of(a);
            if let Some(p) = self.pages.get(&page) {
                out[i..i + run].copy_from_slice(&p[off..off + run]);
            }
        }
        out
    }

    /// Reads the full cache line containing `addr`.
    pub fn read_line(&self, addr: u64) -> Vec<u8> {
        let mut out = vec![0u8; LINE_SIZE];
        self.read_line_into(addr, (&mut out[..]).try_into().expect("LINE_SIZE"));
        out
    }

    /// Reads the full cache line containing `addr` into a caller-provided
    /// buffer (no allocation). Pages are line-aligned, so this is a single
    /// page lookup plus a copy.
    pub fn read_line_into(&self, addr: u64, out: &mut [u8; LINE_SIZE]) {
        const _: () = assert!(
            PAGE_SIZE.is_multiple_of(LINE_SIZE),
            "lines never span pages"
        );
        let base = line_base(addr);
        let (page, off) = Self::page_of(base);
        match self.pages.get(&page) {
            Some(p) => out.copy_from_slice(&p[off..off + LINE_SIZE]),
            None => out.fill(0),
        }
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl caba_stats::snap::SnapshotState for FuncMem {
    /// Pages are serialized in ascending page order so the encoding is
    /// hasher-independent.
    fn save(&self, w: &mut caba_stats::snap::SnapshotWriter) {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            w.u64(k);
            w.raw(&self.pages[&k][..]);
        }
    }

    fn load(
        r: &mut caba_stats::snap::SnapshotReader<'_>,
    ) -> Result<Self, caba_stats::snap::SnapError> {
        let n = r.seq_len("func pages", 8 + PAGE_SIZE)?;
        let mut mem = FuncMem::new();
        for _ in 0..n {
            let k = r.u64()?;
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page.copy_from_slice(r.raw(PAGE_SIZE)?);
            mem.pages.insert(k, page);
        }
        Ok(mem)
    }
}

/// Caches the compressed representation of each line of a [`FuncMem`].
///
/// The timing model asks this map how many DRAM bursts / interconnect flits
/// a line transfer needs; the answer comes from genuinely compressing the
/// line's current bytes. Stores invalidate the affected line so stale sizes
/// are never used.
pub struct CompressionMap {
    compressor: LineCompressor,
    // FxHash: consulted on every size-oracle query; `audit_round_trips`
    // sorts its result, so iteration order stays invisible.
    lines: FxHashMap<u64, Option<CompressedLine>>,
}

impl std::fmt::Debug for CompressionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressionMap")
            .field("compressor", &self.compressor)
            .field("cached_lines", &self.lines.len())
            .finish()
    }
}

impl CompressionMap {
    /// Creates a map using `compressor` for every line.
    pub fn new(compressor: LineCompressor) -> Self {
        CompressionMap {
            compressor,
            lines: FxHashMap::default(),
        }
    }

    /// The configured compressor choice.
    pub fn compressor(&self) -> LineCompressor {
        self.compressor
    }

    /// The compressed form of the line containing `addr` (computed on first
    /// use, then cached). `None` when the line is incompressible.
    pub fn compressed(&mut self, mem: &FuncMem, addr: u64) -> Option<&CompressedLine> {
        let base = line_base(addr);
        let compressor = self.compressor;
        self.lines
            .entry(base)
            .or_insert_with(|| {
                let mut bytes = [0u8; LINE_SIZE];
                mem.read_line_into(base, &mut bytes);
                compressor.compress_line(&bytes)
            })
            .as_ref()
    }

    /// DRAM bursts to transfer the line containing `addr` in compressed form.
    pub fn line_bursts(&mut self, mem: &FuncMem, addr: u64) -> u32 {
        match self.compressed(mem, addr) {
            Some(c) => c.bursts() as u32,
            None => (LINE_SIZE / caba_compress::BURST_BYTES) as u32,
        }
    }

    /// Invalidates the cached form of the line containing `addr`. The
    /// engine calls this from the end-of-cycle commit, for every line written
    /// that cycle (see [`crate::overlay`]); code that stores to a [`FuncMem`]
    /// directly calls it itself.
    pub fn invalidate(&mut self, addr: u64) {
        self.lines.remove(&line_base(addr));
    }

    /// Base addresses of lines with a cached *compressible* form.
    pub fn cached_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines
            .iter()
            .filter_map(|(a, c)| c.is_some().then_some(*a))
    }

    /// Mutable access to a cached compressed form, if present. Exists for
    /// the fault-injection harness, which flips payload bits in place to
    /// model metadata corruption; normal timing code never mutates entries.
    pub fn cached_mut(&mut self, addr: u64) -> Option<&mut CompressedLine> {
        self.lines
            .get_mut(&line_base(addr))
            .and_then(|o| o.as_mut())
    }

    /// Round-trip-verifies up to `limit` cached compressed forms against the
    /// functional memory (0 means all), returning the base addresses whose
    /// cached form no longer decompresses to the line's current bytes —
    /// i.e. stale entries (a store raced past [`CompressionMap::invalidate`])
    /// or corrupted payloads.
    pub fn audit_round_trips(&self, mem: &FuncMem, limit: usize) -> Vec<u64> {
        let mut bad = Vec::new();
        for (i, (base, cached)) in self.lines.iter().enumerate() {
            if limit != 0 && i >= limit {
                break;
            }
            if let Some(c) = cached {
                if !c.round_trips_to(&mem.read_line(*base)) {
                    bad.push(*base);
                }
            }
        }
        bad.sort_unstable();
        bad
    }

    /// Drops every cached form.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_compress::Algorithm;

    #[test]
    fn zero_filled_by_default() {
        let m = FuncMem::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u64(0xFFFF_0000), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_write_round_trip_all_widths() {
        let mut m = FuncMem::new();
        m.write_le(100, 1, 0xAB);
        m.write_le(101, 2, 0x1234);
        m.write_le(103, 4, 0xDEAD_BEEF);
        assert_eq!(m.read_le(100, 1), 0xAB);
        assert_eq!(m.read_le(101, 2), 0x1234);
        assert_eq!(m.read_le(103, 4), 0xDEAD_BEEF);
    }

    #[test]
    fn cross_page_access() {
        let mut m = FuncMem::new();
        let addr = PAGE_SIZE as u64 - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn page_straddling_accesses_match_bytewise() {
        // Every width at every offset around a page boundary, against the
        // one-byte primitives.
        for n in 0..=8usize {
            for back in 0..10u64 {
                let addr = 3 * PAGE_SIZE as u64 - back;
                let v = 0x8877_6655_4433_2211u64;
                let mut m = FuncMem::new();
                m.write_le(addr, n, v);
                let mut bytewise = FuncMem::new();
                for i in 0..n {
                    bytewise.write_u8(addr + i as u64, (v >> (8 * i)) as u8);
                }
                for a in addr - 8..addr + 16 {
                    assert_eq!(m.read_u8(a), bytewise.read_u8(a), "n={n} back={back}");
                }
                assert_eq!(m.resident_pages(), bytewise.resident_pages());
                let want = if n == 8 { v } else { v & ((1 << (8 * n)) - 1) };
                assert_eq!(m.read_le(addr, n), want, "n={n} back={back}");
            }
        }
    }

    #[test]
    fn image_spanning_pages_round_trips() {
        let mut m = FuncMem::new();
        let img: Vec<u8> = (0..2 * PAGE_SIZE + 77).map(|i| (i * 7 + 1) as u8).collect();
        let addr = PAGE_SIZE as u64 - 5;
        m.load_image(addr, &img);
        assert_eq!(m.resident_pages(), 4);
        assert_eq!(m.read_bytes(addr, img.len()), img);
        for (i, &b) in img.iter().enumerate().step_by(97) {
            assert_eq!(m.read_u8(addr + i as u64), b);
        }
        // Unwritten neighbours and absent pages read as zero.
        assert_eq!(m.read_bytes(addr - 3, 3), vec![0; 3]);
        assert_eq!(m.read_bytes(100 * PAGE_SIZE as u64 - 2, 4), vec![0; 4]);
    }

    #[test]
    fn writing_zeros_materialises_the_page_but_zero_length_does_not() {
        // Snapshot size follows resident pages, so both must stay as the
        // per-byte code had them.
        let mut m = FuncMem::new();
        m.write_le(0x5000, 0, u64::MAX);
        m.load_image(0x5000, &[]);
        assert_eq!(m.resident_pages(), 0);
        m.write_le(0x5000, 4, 0);
        m.load_image(0x7000, &[0, 0]);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_u64(0x5000), 0);
    }

    #[test]
    fn lane_batched_reads_match_per_lane() {
        // Unit stride, a stride that changes page every lane, a stride that
        // straddles pages, one address for all; full, sparse and empty masks.
        let mut m = FuncMem::new();
        let img: Vec<u8> = (0..9 * PAGE_SIZE).map(|i| (i * 13 + 5) as u8).collect();
        m.load_image(0x3_0000, &img);
        for (stride, n) in [(4u64, 4usize), (4096, 8), (1023, 8), (0, 2)] {
            for mask in [u32::MAX, 0x8421_8421, 0] {
                let addrs: Vec<u64> = (0..32).map(|l| 0x3_0FF0 + l * stride).collect();
                let mut got = [u64::MAX; 32];
                m.read_lanes(n, mask, &addrs, &mut got);
                for l in 0..32 {
                    let want = if mask >> l & 1 == 1 {
                        m.read_le(addrs[l], n)
                    } else {
                        u64::MAX
                    };
                    assert_eq!(got[l], want, "stride {stride} mask {mask:#x} lane {l}");
                }
            }
        }
    }

    #[test]
    fn image_and_line_read() {
        let mut m = FuncMem::new();
        let img: Vec<u8> = (0..=255).collect();
        m.load_image(256, &img);
        assert_eq!(m.read_bytes(256, 256), img);
        let line = m.read_line(300);
        assert_eq!(line.len(), LINE_SIZE);
        assert_eq!(line[0], m.read_u8(line_base(300)));
    }

    #[test]
    #[should_panic(expected = "exceeds 8")]
    fn oversized_read_panics() {
        FuncMem::new().read_le(0, 9);
    }

    #[test]
    fn compression_map_caches_and_invalidates() {
        let mut mem = FuncMem::new();
        // Compressible line: small deltas.
        for i in 0..32u32 {
            mem.write_u32(i as u64 * 4, 0x100 + i);
        }
        let mut map = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));
        let b1 = map.line_bursts(&mem, 0);
        assert!(b1 < 4, "compressible line should need < 4 bursts");
        // Mutate the line: without invalidation the stale size persists...
        mem.write_u32(0, 0xDEAD_BEEF);
        assert_eq!(map.line_bursts(&mem, 0), b1);
        // ...after invalidation the size is recomputed.
        map.invalidate(0);
        let b2 = map.line_bursts(&mem, 0);
        assert!(b2 >= b1);
    }

    #[test]
    fn incompressible_line_is_four_bursts() {
        let mut mem = FuncMem::new();
        let mut x = 1u64;
        for i in 0..16 {
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(999);
            mem.write_u64(i * 8, x);
        }
        let mut map = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));
        assert_eq!(map.line_bursts(&mem, 0), 4);
    }

    #[test]
    fn round_trip_audit_flags_stale_entries() {
        let mut mem = FuncMem::new();
        for i in 0..32u32 {
            mem.write_u32(i as u64 * 4, 0x100 + i);
        }
        let mut map = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));
        let _ = map.compressed(&mem, 0);
        assert!(map.audit_round_trips(&mem, 0).is_empty());
        assert_eq!(map.cached_lines().collect::<Vec<_>>(), vec![0]);
        // A store that forgets to invalidate leaves a stale cached form the
        // audit must flag...
        mem.write_u32(0, 0xDEAD_BEEF);
        assert_eq!(map.audit_round_trips(&mem, 0), vec![0]);
        // ...and invalidation clears the violation.
        map.invalidate(0);
        assert!(map.audit_round_trips(&mem, 0).is_empty());
    }

    #[test]
    fn best_of_all_map() {
        let mut mem = FuncMem::new();
        // Zero line: 1 burst under best-of-all.
        let mut map = CompressionMap::new(LineCompressor::BestOfAll);
        assert_eq!(map.line_bursts(&mem, 4096), 1);
        assert_eq!(map.compressor(), LineCompressor::BestOfAll);
        mem.write_u8(4096, 1);
        map.clear();
        let _ = map.line_bursts(&mem, 4096);
    }
}
