//! Set-associative caches with LRU replacement, dirty bits, the tag-doubled
//! compressed-cache mode of §6.5 / Figure 13, and MSHRs.

use crate::{line_base, LINE_SIZE};
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use caba_stats::FxHashMap;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total data capacity in bytes.
    pub capacity: usize,
    /// Associativity (data ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_size: usize,
    /// Tag multiplication factor for compressed caches: a `tag_factor` of 2
    /// doubles the tags per set, letting compressed lines share a set's data
    /// budget ("2x the number of tags of the baseline", Fig. 13). 1 =
    /// conventional cache.
    pub tag_factor: usize,
}

impl CacheGeometry {
    /// Conventional cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless capacity is divisible by `ways * line_size` and the set
    /// count and line size are powers of two.
    pub fn new(capacity: usize, ways: usize, line_size: usize) -> Self {
        let g = CacheGeometry {
            capacity,
            ways,
            line_size,
            tag_factor: 1,
        };
        assert!(g.is_valid(), "bad geometry");
        g
    }

    /// Whether [`Cache`] can index this geometry with shifts: a power-of-two
    /// line size and set count.
    fn is_valid(&self) -> bool {
        self.line_size.is_power_of_two()
            && self.ways > 0
            && self.sets() > 0
            && self.sets().is_power_of_two()
    }

    /// Compressed-cache geometry with multiplied tags.
    pub fn with_tag_factor(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "tag factor must be at least 1");
        self.tag_factor = factor;
        self
    }

    /// The paper's L1D: 16 KB, 4-way, 128 B lines.
    pub fn l1_isca2015() -> Self {
        CacheGeometry::new(16 * 1024, 4, LINE_SIZE)
    }

    /// One L2 partition slice of the paper's 768 KB 16-way L2 over 6 MCs.
    pub fn l2_slice_isca2015() -> Self {
        CacheGeometry::new(768 * 1024 / 6, 16, LINE_SIZE)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * self.line_size)
    }

    /// Maximum tags per set.
    pub fn tags_per_set(&self) -> usize {
        self.ways * self.tag_factor
    }

    /// Per-set data budget in bytes.
    pub fn set_bytes(&self) -> usize {
        self.ways * self.line_size
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    tag: u64,
    last_use: u64,
    /// Resident size in bytes (= line_size unless the cache stores the line
    /// compressed).
    size: u32,
    dirty: bool,
}

/// A line evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line base address of the victim.
    pub addr: u64,
    /// Whether the victim was dirty (must be written back).
    pub dirty: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; no fill was performed (probe-only access).
    Miss,
}

/// A set-associative, write-back, LRU cache (tags only — functional data
/// lives in [`crate::FuncMem`]).
///
/// The tags live in one flat array, `tags_per_set` slots per set, of which
/// the first `lens[set]` are resident in the order a per-set list would hold
/// them (removal swaps the last resident slot in), so LRU ties, eviction
/// order and the snapshot bytes are those of a `Vec` per set. Set and tag
/// come from shifts precomputed from the power-of-two geometry.
///
/// # Examples
///
/// ```
/// use caba_mem::{Cache, CacheGeometry};
/// let mut c = Cache::new(CacheGeometry::l1_isca2015());
/// assert!(!c.probe(0x1000));
/// c.fill(0x1000, false, 128);
/// assert!(c.probe(0x1000));
/// ```
#[derive(Debug)]
pub struct Cache {
    geo: CacheGeometry,
    /// `log2(line_size)`: address bits below the set index.
    line_shift: u32,
    /// `log2(sets)`: set-index bits above the line offset.
    set_bits: u32,
    /// Slots per set in `lines` (`tags_per_set`).
    ways: usize,
    lines: Vec<LineState>,
    /// Resident lines per set: the prefix of its slots in `lines`.
    lens: Vec<usize>,
    use_clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless the set count and line size are powers of two.
    pub fn new(geo: CacheGeometry) -> Self {
        assert!(geo.is_valid(), "bad geometry");
        let ways = geo.tags_per_set();
        Cache {
            geo,
            line_shift: geo.line_size.trailing_zeros(),
            set_bits: geo.sets().trailing_zeros(),
            ways,
            lines: vec![LineState::default(); geo.sets() * ways],
            lens: vec![0; geo.sets()],
            use_clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The set `addr` maps to and its tag within that set.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & ((1u64 << self.set_bits) - 1)) as usize;
        (set, line >> self.set_bits)
    }

    /// The resident lines of `set`, in list order.
    fn set_lines(&self, set: usize) -> &[LineState] {
        let base = set * self.ways;
        &self.lines[base..base + self.lens[set]]
    }

    fn set_lines_mut(&mut self, set: usize) -> &mut [LineState] {
        let base = set * self.ways;
        &mut self.lines[base..base + self.lens[set]]
    }

    /// Removes the line at `idx` of `set` the way `Vec::swap_remove` would.
    fn swap_remove(&mut self, set: usize, idx: usize) -> LineState {
        let base = set * self.ways;
        let last = base + self.lens[set] - 1;
        let line = self.lines[base + idx];
        self.lines[base + idx] = self.lines[last];
        self.lens[set] -= 1;
        line
    }

    /// Looks up `addr`, updating LRU and hit/miss stats. Does not allocate.
    pub fn access(&mut self, addr: u64, mark_dirty: bool) -> AccessOutcome {
        let (set, tag) = self.locate(addr);
        self.use_clock += 1;
        let clock = self.use_clock;
        if let Some(line) = self.set_lines_mut(set).iter_mut().find(|l| l.tag == tag) {
            line.last_use = clock;
            line.dirty |= mark_dirty;
            self.hits += 1;
            AccessOutcome::Hit
        } else {
            self.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// Accounts for `n` [`Cache::access`] calls that all miss. A miss moves
    /// only the replacement clock and the miss counter, so this leaves the
    /// cache exactly as those calls would: same counters, same later LRU
    /// victims, same snapshot bytes. The next-event clock uses it to skip
    /// cycles in which a stalled load re-probes for a line that cannot
    /// arrive before the skip ends.
    pub fn credit_misses(&mut self, n: u64) {
        self.use_clock += n;
        self.misses += n;
    }

    /// True if the line containing `addr` is resident (no stat/LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.set_lines(set).iter().any(|l| l.tag == tag)
    }

    /// Inserts the line containing `addr` with resident `size` bytes,
    /// evicting LRU lines until both the tag budget and the set byte budget
    /// are satisfied. Returns the evicted lines (possibly several when a
    /// full-size line displaces compressed ones).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds the line size.
    pub fn fill(&mut self, addr: u64, dirty: bool, size: usize) -> Vec<Eviction> {
        assert!(
            size > 0 && size <= self.geo.line_size,
            "fill size {size} out of range"
        );
        let (set, tag) = self.locate(addr);
        self.use_clock += 1;
        let clock = self.use_clock;
        let size32 = size as u32;

        // Refill of a resident line just updates state.
        if let Some(line) = self.set_lines_mut(set).iter_mut().find(|l| l.tag == tag) {
            line.dirty |= dirty;
            line.size = size32;
            line.last_use = clock;
            return Vec::new();
        }

        let mut evictions = Vec::new();
        loop {
            let lines = self.set_lines(set);
            let used: usize = lines.iter().map(|l| l.size as usize).sum();
            let tags_ok = lines.len() < self.ways;
            let bytes_ok = used + size <= self.geo.set_bytes();
            if tags_ok && bytes_ok {
                break;
            }
            // Evict LRU.
            let victim_idx = lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("set cannot be empty while over budget");
            let victim = self.swap_remove(set, victim_idx);
            evictions.push(Eviction {
                addr: self.reconstruct_addr(victim.tag, set),
                dirty: victim.dirty,
            });
        }
        self.lines[set * self.ways + self.lens[set]] = LineState {
            tag,
            last_use: clock,
            size: size32,
            dirty,
        };
        self.lens[set] += 1;
        evictions
    }

    fn reconstruct_addr(&self, tag: u64, set: usize) -> u64 {
        ((tag << self.set_bits) | set as u64) << self.line_shift
    }

    /// Removes the line containing `addr`, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, tag) = self.locate(addr);
        let idx = self.set_lines(set).iter().position(|l| l.tag == tag)?;
        Some(self.swap_remove(set, idx).dirty)
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Serializes tag state and counters. Geometry is not serialized: it is
    /// derived from the config, which the snapshot container pins by hash.
    pub fn snap_save(&self, w: &mut SnapshotWriter) {
        w.u64(self.use_clock);
        w.u64(self.hits);
        w.u64(self.misses);
        w.usize(self.lens.len());
        for set in 0..self.lens.len() {
            let lines = self.set_lines(set);
            w.usize(lines.len());
            for l in lines {
                w.u64(l.tag);
                w.bool(l.dirty);
                w.usize(l.size as usize);
                w.u64(l.last_use);
            }
        }
    }

    /// Restores tag state in place into a cache built with the same geometry.
    ///
    /// # Errors
    ///
    /// Fails with [`SnapError::Invariant`] when the serialized set count
    /// disagrees with this cache's geometry, a set holds more lines than it
    /// has tags or a line is larger than a line, or with a decode error for
    /// malformed bytes. On error the cache contents are unspecified but the
    /// call never panics.
    pub fn snap_load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapError> {
        self.use_clock = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        let n_sets = r.usize()?;
        if n_sets != self.lens.len() {
            return Err(SnapError::Invariant {
                what: "cache set count mismatch",
            });
        }
        for set in 0..n_sets {
            let n = r.seq_len("cache set", 8)?;
            if n > self.ways {
                return Err(SnapError::Invariant {
                    what: "cache set exceeds tag budget",
                });
            }
            self.lens[set] = 0;
            for i in 0..n {
                let tag = r.u64()?;
                let dirty = r.bool()?;
                let size = r.usize()?;
                if size > self.geo.line_size {
                    return Err(SnapError::Invariant {
                        what: "cached line larger than a line",
                    });
                }
                self.lines[set * self.ways + i] = LineState {
                    tag,
                    last_use: r.u64()?,
                    size: size as u32,
                    dirty,
                };
                self.lens[set] = i + 1;
            }
        }
        Ok(())
    }
}

/// Miss-status holding registers: track outstanding line fills and merge
/// requests to the same line so only one memory request is in flight per
/// line (Table 1's MSHR behaviour; the walkthrough in Fig. 6 buffers load
/// replay information the same way).
#[derive(Debug)]
pub struct Mshr<T> {
    capacity: usize,
    // FxHash: probed on every load; waiter order within an entry is
    // insertion order (a Vec), so response ordering is hasher-independent.
    entries: FxHashMap<u64, Vec<T>>,
    merged: u64,
    // Drained waiter lists handed back through `recycle`, emptied, for the
    // next allocations; at most `capacity` of them. Not serialized.
    spare: Vec<Vec<T>>,
}

impl<T> Mshr<T> {
    /// Creates an MSHR file with room for `capacity` distinct lines.
    pub fn new(capacity: usize) -> Self {
        Mshr {
            capacity,
            entries: FxHashMap::default(),
            merged: 0,
            spare: Vec::new(),
        }
    }

    /// True when no new line entry can be allocated.
    pub fn full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// True if a fill for `addr`'s line is already outstanding.
    pub fn pending(&self, addr: u64) -> bool {
        self.entries.contains_key(&line_base(addr))
    }

    /// Registers `waiter` for the line containing `addr`.
    ///
    /// Returns `true` if this allocated a *new* entry (the caller must send
    /// a memory request), `false` if it merged into an existing one.
    /// Returns `Err(waiter)` when the file is full and the line is not
    /// already pending.
    pub fn allocate(&mut self, addr: u64, waiter: T) -> Result<bool, T> {
        let base = line_base(addr);
        if let Some(ws) = self.entries.get_mut(&base) {
            ws.push(waiter);
            self.merged += 1;
            return Ok(false);
        }
        if self.entries.len() >= self.capacity {
            return Err(waiter);
        }
        let mut ws = self.spare.pop().unwrap_or_default();
        ws.push(waiter);
        self.entries.insert(base, ws);
        Ok(true)
    }

    /// Completes the fill for `addr`'s line, returning all waiters. Hand the
    /// list back with [`Mshr::recycle`] once it has been read.
    pub fn complete(&mut self, addr: u64) -> Vec<T> {
        self.entries.remove(&line_base(addr)).unwrap_or_default()
    }

    /// Takes back a waiter list [`Mshr::complete`] returned, so that a later
    /// [`Mshr::allocate`] reuses its storage.
    pub fn recycle(&mut self, mut waiters: Vec<T>) {
        if waiters.capacity() > 0 && self.spare.len() < self.capacity {
            waiters.clear();
            self.spare.push(waiters);
        }
    }

    /// Outstanding line count.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Number of merged (secondary) requests since construction.
    pub fn merged(&self) -> u64 {
        self.merged
    }

    /// Configured capacity (distinct outstanding lines).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over every outstanding line and its waiters (for occupancy
    /// and conservation audits).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[T])> {
        self.entries.iter().map(|(addr, ws)| (*addr, ws.as_slice()))
    }
}

impl<T: SnapshotState> Mshr<T> {
    /// Serializes outstanding entries (in sorted line order, so the encoding
    /// is hasher-independent; waiter order within a line is preserved
    /// exactly) plus the merge counter. Capacity is config-derived and not
    /// serialized.
    pub fn snap_save(&self, w: &mut SnapshotWriter) {
        w.u64(self.merged);
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            w.u64(k);
            self.entries[&k].save(w);
        }
    }

    /// Restores outstanding entries in place.
    ///
    /// # Errors
    ///
    /// Fails when the bytes are malformed or the entry count exceeds this
    /// MSHR file's capacity.
    pub fn snap_load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapError> {
        self.merged = r.u64()?;
        let n = r.seq_len("mshr entries", 8)?;
        if n > self.capacity {
            return Err(SnapError::Invariant {
                what: "mshr entries exceed capacity",
            });
        }
        self.entries.clear();
        for _ in 0..n {
            let k = r.u64()?;
            let ws = Vec::<T>::load(r)?;
            self.entries.insert(k, ws);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 2 sets x 2 ways x 128B lines.
        Cache::new(CacheGeometry::new(512, 2, LINE_SIZE))
    }

    fn addr_for(set: u64, tag: u64) -> u64 {
        (tag * 2 + set) * LINE_SIZE as u64
    }

    #[test]
    fn geometry_of_paper_caches() {
        let l1 = CacheGeometry::l1_isca2015();
        assert_eq!(l1.sets(), 32);
        assert_eq!(l1.tags_per_set(), 4);
        let l2 = CacheGeometry::l2_slice_isca2015();
        assert_eq!(l2.sets(), 64);
        assert_eq!(l2.ways, 16);
    }

    #[test]
    fn hit_after_fill_and_miss_before() {
        let mut c = small_cache();
        assert_eq!(c.access(0, false), AccessOutcome::Miss);
        c.fill(0, false, LINE_SIZE);
        assert_eq!(c.access(0, false), AccessOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache();
        c.fill(addr_for(0, 1), false, LINE_SIZE);
        c.fill(addr_for(0, 2), false, LINE_SIZE);
        // Touch tag 1 so tag 2 becomes LRU.
        c.access(addr_for(0, 1), false);
        let ev = c.fill(addr_for(0, 3), false, LINE_SIZE);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, addr_for(0, 2));
        assert!(c.probe(addr_for(0, 1)));
        assert!(!c.probe(addr_for(0, 2)));
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut c = small_cache();
        c.fill(addr_for(0, 1), true, LINE_SIZE);
        c.fill(addr_for(0, 2), false, LINE_SIZE);
        let ev = c.fill(addr_for(0, 3), false, LINE_SIZE);
        assert_eq!(
            ev,
            vec![Eviction {
                addr: addr_for(0, 1),
                dirty: true
            }]
        );
    }

    #[test]
    fn access_marks_dirty() {
        let mut c = small_cache();
        c.fill(addr_for(1, 1), false, LINE_SIZE);
        c.access(addr_for(1, 1), true);
        c.fill(addr_for(1, 2), false, LINE_SIZE);
        let ev = c.fill(addr_for(1, 3), false, LINE_SIZE);
        assert!(ev[0].dirty);
    }

    #[test]
    fn compressed_mode_packs_more_lines() {
        // 1 set, 2 ways, tag factor 2: four tags, 256B budget.
        let geo = CacheGeometry::new(256, 2, LINE_SIZE).with_tag_factor(2);
        let mut c = Cache::new(geo);
        // Four half-size lines fit simultaneously.
        for t in 0..4u64 {
            let ev = c.fill(t * LINE_SIZE as u64, false, LINE_SIZE / 2);
            assert!(ev.is_empty(), "tag {t}");
        }
        assert_eq!(c.resident_lines(), 4);
        // A fifth (even compressed) line must evict.
        let ev = c.fill(4 * LINE_SIZE as u64, false, LINE_SIZE / 2);
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn full_size_line_can_displace_multiple_compressed() {
        let geo = CacheGeometry::new(256, 2, LINE_SIZE).with_tag_factor(4);
        let mut c = Cache::new(geo);
        for t in 0..4u64 {
            c.fill(t * LINE_SIZE as u64, false, 64);
        }
        // 256B budget full; a 128B line needs two 64B victims.
        let ev = c.fill(10 * LINE_SIZE as u64, false, LINE_SIZE);
        assert_eq!(ev.len(), 2);
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    fn refill_updates_size_without_eviction() {
        let mut c = small_cache();
        c.fill(0, false, 64);
        let ev = c.fill(0, true, LINE_SIZE);
        assert!(ev.is_empty());
        let inv = c.invalidate(0);
        assert_eq!(inv, Some(true));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_size_fill_panics() {
        small_cache().fill(0, false, 0);
    }

    fn saved(c: &Cache) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        c.snap_save(&mut w);
        w.into_bytes()
    }

    /// `credit_misses(n)` stands in for `n` missing `access` calls: same
    /// counters and bytes at once, and the same victims from then on.
    #[test]
    fn credited_misses_equal_real_misses() {
        let geo = CacheGeometry::new(512, 2, LINE_SIZE).with_tag_factor(2);
        let (mut real, mut credited) = (Cache::new(geo), Cache::new(geo));
        let mut rng = caba_stats::rng::Rng64::new(0xC4ED);
        for step in 0..2000u64 {
            let addr = rng.range_u64(24) * LINE_SIZE as u64;
            if rng.chance(0.1) && !real.probe(addr) {
                let n = 1 + rng.range_u64(40);
                for _ in 0..n {
                    assert_eq!(real.access(addr, false), AccessOutcome::Miss);
                }
                credited.credit_misses(n);
            } else if rng.chance(0.5) {
                let size = 1 + rng.range_u64(LINE_SIZE as u64) as usize;
                let dirty = rng.chance(0.3);
                let ev = real.fill(addr, dirty, size);
                assert_eq!(ev, credited.fill(addr, dirty, size), "step {step}");
            } else {
                let dirty = rng.chance(0.3);
                assert_eq!(real.access(addr, dirty), credited.access(addr, dirty));
            }
            assert_eq!(
                (real.hits(), real.misses()),
                (credited.hits(), credited.misses())
            );
            assert_eq!(saved(&real), saved(&credited), "step {step}");
        }
    }

    /// The per-set `Vec` layout the flat tag array replaced, kept as the
    /// reference its bytes and victims are compared against.
    struct VecCache {
        geo: CacheGeometry,
        sets: Vec<Vec<LineState>>,
        use_clock: u64,
    }

    impl VecCache {
        fn locate(&self, addr: u64) -> (usize, u64) {
            let line = addr / self.geo.line_size as u64;
            let sets = self.geo.sets() as u64;
            ((line % sets) as usize, line / sets)
        }

        fn access(&mut self, addr: u64, dirty: bool) {
            let (set, tag) = self.locate(addr);
            self.use_clock += 1;
            if let Some(l) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
                l.last_use = self.use_clock;
                l.dirty |= dirty;
            }
        }

        fn fill(&mut self, addr: u64, dirty: bool, size: usize) -> Vec<Eviction> {
            let (set, tag) = self.locate(addr);
            self.use_clock += 1;
            let clock = self.use_clock;
            if let Some(l) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
                l.dirty |= dirty;
                l.size = size as u32;
                l.last_use = clock;
                return Vec::new();
            }
            let mut ev = Vec::new();
            loop {
                let used: usize = self.sets[set].iter().map(|l| l.size as usize).sum();
                if self.sets[set].len() < self.geo.tags_per_set()
                    && used + size <= self.geo.set_bytes()
                {
                    break;
                }
                let (i, _) = self.sets[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.last_use)
                    .unwrap();
                let v = self.sets[set].swap_remove(i);
                let sets = self.geo.sets() as u64;
                ev.push(Eviction {
                    addr: (v.tag * sets + set as u64) * self.geo.line_size as u64,
                    dirty: v.dirty,
                });
            }
            self.sets[set].push(LineState {
                tag,
                last_use: clock,
                size: size as u32,
                dirty,
            });
            ev
        }

        fn invalidate(&mut self, addr: u64) -> Option<bool> {
            let (set, tag) = self.locate(addr);
            let i = self.sets[set].iter().position(|l| l.tag == tag)?;
            Some(self.sets[set].swap_remove(i).dirty)
        }

        /// The tag part of `Cache::snap_save` (after the three counters).
        fn saved_sets(&self) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            w.usize(self.sets.len());
            for set in &self.sets {
                w.usize(set.len());
                for l in set {
                    w.u64(l.tag);
                    w.bool(l.dirty);
                    w.usize(l.size as usize);
                    w.u64(l.last_use);
                }
            }
            w.into_bytes()
        }
    }

    /// On random fill/access/invalidate sequences the flat tag array evicts
    /// the same victims and saves the same bytes as one `Vec` per set, in
    /// conventional and tag-multiplied (compressed) geometries.
    #[test]
    fn flat_tags_match_per_set_vectors() {
        for tag_factor in [1, 2, 4] {
            let geo = CacheGeometry::new(1024, 2, LINE_SIZE).with_tag_factor(tag_factor);
            let mut flat = Cache::new(geo);
            let mut reference = VecCache {
                geo,
                sets: vec![Vec::new(); geo.sets()],
                use_clock: 0,
            };
            let mut rng = caba_stats::rng::Rng64::new(0xF1A7 + tag_factor as u64);
            for step in 0..5000 {
                let addr = rng.range_u64(48) * LINE_SIZE as u64 + rng.range_u64(LINE_SIZE as u64);
                let dirty = rng.chance(0.3);
                match rng.range_u64(10) {
                    0..=3 => {
                        let size = 1 + rng.range_u64(LINE_SIZE as u64) as usize;
                        let want = reference.fill(addr, dirty, size);
                        assert_eq!(flat.fill(addr, dirty, size), want, "step {step}");
                    }
                    4 => assert_eq!(flat.invalidate(addr), reference.invalidate(addr)),
                    _ => {
                        flat.access(addr, dirty);
                        reference.access(addr, dirty);
                    }
                }
                assert_eq!(
                    saved(&flat)[24..],
                    reference.saved_sets()[..],
                    "step {step}"
                );
            }
            let mut restored = Cache::new(geo);
            let bytes = saved(&flat);
            restored
                .snap_load(&mut SnapshotReader::new(&bytes))
                .expect("own bytes restore");
            assert_eq!(saved(&restored), bytes);
        }
    }

    #[test]
    fn mshr_merge_and_complete() {
        let mut m: Mshr<u32> = Mshr::new(2);
        assert_eq!(m.allocate(0, 1), Ok(true));
        assert_eq!(m.allocate(64, 2), Ok(false)); // same 128B line
        assert!(m.pending(100));
        assert_eq!(m.merged(), 1);
        assert_eq!(m.allocate(128, 3), Ok(true));
        assert!(m.full());
        // Full + new line -> rejected, waiter returned.
        assert_eq!(m.allocate(4096, 9), Err(9));
        // Full + existing line -> still merges.
        assert_eq!(m.allocate(130, 4), Ok(false));
        let mut ws = m.complete(5);
        ws.sort_unstable();
        assert_eq!(ws, vec![1, 2]);
        assert_eq!(m.outstanding(), 1);
        assert!(m.complete(0).is_empty());
    }

    /// Recycled waiter lists are storage only: a file that hands every
    /// drained list back behaves, and serializes, exactly like a twin that
    /// never does.
    #[test]
    fn mshr_recycling_is_invisible() {
        let saved = |m: &Mshr<u32>| {
            let mut w = SnapshotWriter::new();
            m.snap_save(&mut w);
            w.into_bytes()
        };
        let (mut pooled, mut plain): (Mshr<u32>, Mshr<u32>) = (Mshr::new(4), Mshr::new(4));
        let mut rng = caba_stats::rng::Rng64::new(0xCABA_0023);
        for waiter in 0..4000u32 {
            let addr = rng.range_u64(6) * LINE_SIZE as u64 + rng.range_u64(LINE_SIZE as u64);
            if rng.chance(0.6) {
                assert_eq!(pooled.allocate(addr, waiter), plain.allocate(addr, waiter));
            } else {
                let ws = pooled.complete(addr);
                assert_eq!(ws, plain.complete(addr), "waiter order");
                pooled.recycle(ws);
            }
            assert_eq!(pooled.merged(), plain.merged());
            assert_eq!(pooled.outstanding(), plain.outstanding());
            assert_eq!(saved(&pooled), saved(&plain));
            assert!(pooled.spare.len() <= pooled.capacity());
            assert!(pooled.spare.iter().all(|ws| ws.is_empty()));
        }
        assert!(pooled.merged() > 100 && !pooled.spare.is_empty());
    }
}
