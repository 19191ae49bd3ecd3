//! The assist-warp mechanism (§3.3): launch descriptors, the actions the
//! SM's Assist Warp Controller answers its three hooks with, and the
//! per-line stored-form tracking that ties assist-warp compression results
//! to the memory system.
//!
//! The split of responsibilities mirrors the paper's hardware/software
//! co-design: the *mechanism* (deploying assist warps into the assist slots
//! of the SM's one warp table — the Assist Warp Table —, staging
//! instructions through the Assist Warp Buffer, priority scheduling,
//! killing) lives in the SM ([`crate::Sm`]), which issues an assist warp
//! down the same path as an application warp; which
//! subroutine runs for which trigger, with which live-in values, and what
//! its completion means is the controller's
//! ([`crate::caba::CabaController`]), which the SM owns and calls directly
//! with the state the SMs share ([`crate::sm::SharedState`]).

use caba_compress::CompressedLine;
use caba_isa::{Program, Reg};
use caba_mem::{line_base, CompressionMap, FuncMem, SharedMem, LINE_SIZE};
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use caba_stats::FxHashMap;
use std::borrow::Cow;
use std::sync::Arc;

/// Scheduling priority of an assist warp (§3.2.3): high-priority warps are
/// required for correctness (decompression) and take precedence over parent
/// warps; low-priority warps (compression) are staged through the dedicated
/// two-entry Assist Warp Buffer partition and issue only in idle cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssistPriority {
    /// Blocks the parent; scheduled ahead of parent warps.
    High,
    /// Issues only in otherwise-idle issue slots.
    Low,
}

/// A request to deploy one assist warp.
#[derive(Debug, Clone)]
pub struct AssistLaunch {
    /// The subroutine (an Assist Warp Store entry).
    pub program: Arc<Program>,
    /// Parent warp slot this assist is coupled to.
    pub parent_warp: usize,
    /// Scheduling priority.
    pub priority: AssistPriority,
    /// Live-in register values, broadcast to all lanes (the MOVE-in step of
    /// §3.4 "Communication and Control").
    pub live_in: [(Reg, u64); 2],
    /// Initial active mask (the AWT active-mask field of §3.3).
    pub active_mask: u32,
    /// Controller-chosen tag returned on completion.
    pub tag: u64,
}

/// What to do with an arriving fill.
#[derive(Debug, Clone)]
pub enum FillAction {
    /// Insert and complete waiters after `extra_latency` cycles (dedicated
    /// hardware decompression, or an uncompressed line).
    Complete {
        /// Additional decompression latency.
        extra_latency: u64,
    },
    /// Run an assist warp; waiters complete when it exits.
    Assist(AssistLaunch),
}

/// What to do with an outgoing store line.
#[derive(Debug, Clone)]
pub enum StoreAction {
    /// Send uncompressed immediately.
    PassThrough,
    /// Buffer the line and run a (low-priority) compression assist warp;
    /// the line is released when [`crate::caba::CabaController::on_assist_complete`]
    /// returns [`AssistOutcome::StoreRelease`].
    Assist(AssistLaunch),
}

/// Result of an assist warp finishing, as interpreted by the controller.
#[derive(Debug, Clone)]
pub enum AssistOutcome {
    /// A decompression finished: complete the load waiters for `addr`.
    FillComplete {
        /// Line base address whose waiters may now complete.
        addr: u64,
    },
    /// A compression finished: release the buffered store for `addr`. The
    /// stored form (and hence flit/burst counts) was already recorded in the
    /// [`LineStore`] by the controller.
    StoreRelease {
        /// Line base address to release from the store buffer.
        addr: u64,
    },
}

/// How a line is currently stored in L2/DRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredForm {
    /// Raw (uncompressed) — e.g. released through the store-buffer overflow
    /// path (§4.2.2 Ï).
    Raw,
    /// Compressed with the given in-line payload.
    Compressed(CompressedLine),
}

impl StoredForm {
    /// Bytes the line occupies in this form.
    pub fn size_bytes(&self) -> usize {
        match self {
            StoredForm::Raw => LINE_SIZE,
            StoredForm::Compressed(c) => c.size_bytes(),
        }
    }
}

/// Tracks the stored form of every line that deviates from the lazily
/// computed reference form (initial data is software-pre-compressed per
/// §4.3.1; CABA writebacks override with whatever the assist warp produced).
#[derive(Debug, Default)]
pub struct LineStore {
    // FxHash: probed on every fill, store and write-back; snapshots sort
    // the keys.
    overrides: FxHashMap<u64, StoredForm>,
}

impl LineStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (`Some`) or forgets (`None`) the override for line base `line`.
    /// Callers go through a [`SharedLineStore`] view.
    fn set(&mut self, line: u64, form: Option<StoredForm>) {
        match form {
            Some(f) => self.overrides.insert(line, f),
            None => self.overrides.remove(&line),
        };
    }

    /// The explicit override for `addr`'s line, if any.
    pub fn override_for(&self, addr: u64) -> Option<&StoredForm> {
        self.overrides.get(&line_base(addr))
    }

    /// Number of explicit overrides (diagnostics).
    pub fn overrides(&self) -> usize {
        self.overrides.len()
    }

    /// Size in bytes of `addr`'s line as stored (consulting the override,
    /// then the reference map over `mem`).
    pub fn stored_size(
        &self,
        mem: &FuncMem,
        cmap: Option<&mut CompressionMap>,
        addr: u64,
    ) -> usize {
        match self.override_for(addr) {
            Some(form) => form.size_bytes(),
            None => cmap
                .and_then(|map| map.compressed(mem, addr))
                .map_or(LINE_SIZE, |c| c.size_bytes()),
        }
    }
}

impl SnapshotState for AssistPriority {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(match self {
            AssistPriority::High => 0,
            AssistPriority::Low => 1,
        });
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(AssistPriority::High),
            1 => Ok(AssistPriority::Low),
            t => Err(SnapError::BadTag {
                what: "AssistPriority",
                tag: t as u64,
            }),
        }
    }
}

impl SnapshotState for StoredForm {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            StoredForm::Raw => w.u8(0),
            StoredForm::Compressed(c) => {
                w.u8(1);
                c.save(w);
            }
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(StoredForm::Raw),
            1 => Ok(StoredForm::Compressed(CompressedLine::load(r)?)),
            t => Err(SnapError::BadTag {
                what: "StoredForm",
                tag: t as u64,
            }),
        }
    }
}

impl SnapshotState for LineStore {
    /// Overrides are serialized in ascending line order (hasher-independent).
    fn save(&self, w: &mut SnapshotWriter) {
        let mut keys: Vec<u64> = self.overrides.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            w.u64(k);
            self.overrides[&k].save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq_len("line-store overrides", 9)?;
        let mut ls = LineStore::new();
        for _ in 0..n {
            let k = r.u64()?;
            ls.overrides.insert(k, StoredForm::load(r)?);
        }
        Ok(ls)
    }
}

/// One cycle's changes to a [`LineStore`]: the same clocked commit as
/// [`caba_mem::MemDelta`]. Each SM sees the start-of-cycle store plus its own
/// changes; ending its turn hides them from the next SM; after the last turn
/// the list is applied once, in SM index order.
#[derive(Debug, Default)]
pub struct LineStoreDelta {
    /// The commit list: `(line base, override)` per (SM, line) touched this
    /// cycle, in turn order; `None` = cleared.
    pending: Vec<(u64, Option<StoredForm>)>,
    /// Where in `pending` the current SM's entry for a line is.
    // FxHash: per-cycle scratch, never iterated.
    own: FxHashMap<u64, usize>,
}

impl LineStoreDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ends the current SM's turn: its changes stay on the commit list,
    /// where the next SM cannot see them.
    pub fn end_turn(&mut self) {
        self.own.clear();
    }

    fn set(&mut self, line: u64, form: Option<StoredForm>) {
        match self.own.get(&line) {
            Some(&i) => self.pending[i].1 = form,
            None => {
                self.own.insert(line, self.pending.len());
                self.pending.push((line, form));
            }
        }
    }

    /// Applies the commit list to `store` in order and clears the delta.
    pub fn commit(&mut self, store: &mut LineStore) {
        for (line, form) in self.pending.drain(..) {
            store.set(line, form);
        }
        self.own.clear();
    }
}

/// A view of the line store, by execution phase.
#[derive(Debug)]
pub enum SharedLineStore<'a> {
    /// Exclusive access (the fill phase, unit tests).
    Direct(&'a mut LineStore),
    /// Start-of-cycle store plus this SM's own changes (SM phase).
    Overlay {
        /// The start-of-cycle store.
        base: &'a LineStore,
        /// The cycle's changes; this SM sees its own in it.
        delta: &'a mut LineStoreDelta,
    },
}

impl SharedLineStore<'_> {
    /// The effective override for `addr`'s line, if any.
    pub fn override_for(&self, addr: u64) -> Option<&StoredForm> {
        match self {
            SharedLineStore::Direct(ls) => ls.override_for(addr),
            SharedLineStore::Overlay { base, delta } => match delta.own.get(&line_base(addr)) {
                Some(&i) => delta.pending[i].1.as_ref(),
                None => base.override_for(addr),
            },
        }
    }

    fn set(&mut self, addr: u64, form: Option<StoredForm>) {
        match self {
            SharedLineStore::Direct(ls) => ls.set(line_base(addr), form),
            SharedLineStore::Overlay { delta, .. } => delta.set(line_base(addr), form),
        }
    }

    /// Records that `addr`'s line is stored raw.
    pub fn set_raw(&mut self, addr: u64) {
        self.set(addr, Some(StoredForm::Raw));
    }

    /// Records an explicit compressed form for `addr`'s line.
    pub fn set_compressed(&mut self, addr: u64, line: CompressedLine) {
        self.set(addr, Some(StoredForm::Compressed(line)));
    }

    /// Forgets any override for `addr`'s line (falls back to the reference
    /// map).
    pub fn clear(&mut self, addr: u64) {
        self.set(addr, None);
    }

    /// Size in bytes of `addr`'s line as stored (consulting the override,
    /// then the reference map as `mem` sees the line).
    pub fn stored_size(
        &self,
        mem: &SharedMem<'_>,
        cmap: Option<&mut CompressionMap>,
        addr: u64,
    ) -> usize {
        match self.override_for(addr) {
            Some(form) => form.size_bytes(),
            None => cmap
                .and_then(|map| map.compressed_in(mem, addr))
                .map_or(LINE_SIZE, |c| c.size_bytes()),
        }
    }

    /// Whether [`SharedLineStore::stored_compressed`] would return a line,
    /// without copying one out of the override or the map.
    pub fn is_stored_compressed(
        &self,
        mem: &SharedMem<'_>,
        cmap: Option<&mut CompressionMap>,
        addr: u64,
    ) -> bool {
        match self.override_for(addr) {
            Some(form) => matches!(form, StoredForm::Compressed(_)),
            None => cmap.is_some_and(|map| map.compressed_in(mem, addr).is_some()),
        }
    }

    /// The compressed form of `addr`'s line as stored, or `None` when raw /
    /// incompressible: borrowed from the override or the map unless the
    /// line is in this view's own shadow.
    pub fn stored_compressed<'s>(
        &'s self,
        mem: &SharedMem<'_>,
        cmap: Option<&'s mut CompressionMap>,
        addr: u64,
    ) -> Option<Cow<'s, CompressedLine>> {
        match self.override_for(addr) {
            Some(StoredForm::Raw) => None,
            Some(StoredForm::Compressed(c)) => Some(Cow::Borrowed(c)),
            None => cmap.and_then(|map| map.compressed_in(mem, addr)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_compress::{Algorithm, LineCompressor};

    #[test]
    fn line_store_override_precedence() {
        let mut mem = FuncMem::new();
        // Compressible content at line 0.
        for i in 0..32u32 {
            mem.write_u32(i as u64 * 4, 0x400 + i);
        }
        let mut cmap = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));
        let mut store = LineStore::new();
        let mem_view = SharedMem::Direct(&mut mem);
        let mut view = SharedLineStore::Direct(&mut store);

        // No override: reference size (< 128).
        let s = view.stored_size(&mem_view, Some(&mut cmap), 0);
        assert!(s < LINE_SIZE);
        assert!(view
            .stored_compressed(&mem_view, Some(&mut cmap), 0)
            .is_some());
        assert_flag_agrees(&view, &mem_view, &mut cmap, 0);

        // Raw override wins.
        view.set_raw(5); // same line
        assert_eq!(view.stored_size(&mem_view, Some(&mut cmap), 0), LINE_SIZE);
        assert!(view
            .stored_compressed(&mem_view, Some(&mut cmap), 0)
            .is_none());
        assert_flag_agrees(&view, &mem_view, &mut cmap, 0);

        // Explicit compressed override wins over both.
        let c = CompressedLine {
            algorithm: Algorithm::Bdi,
            encoding: 2,
            payload: vec![0u8; 40],
            original_len: LINE_SIZE,
        };
        view.set_compressed(0, c.clone());
        assert_eq!(view.stored_size(&mem_view, Some(&mut cmap), 0), 40);
        assert_eq!(
            view.stored_compressed(&mem_view, Some(&mut cmap), 0)
                .as_deref(),
            Some(&c)
        );
        assert_flag_agrees(&view, &mem_view, &mut cmap, 0);
        // A line nothing has touched: all zeros, not yet in the map.
        assert_flag_agrees(&view, &mem_view, &mut cmap, 4096);

        // The partition's read-only path agrees, with and without override.
        assert_eq!(store.stored_size(&mem, Some(&mut cmap), 0), 40);
        SharedLineStore::Direct(&mut store).clear(0);
        assert_eq!(store.overrides(), 0);
        assert!(store.override_for(0).is_none());
        assert_eq!(store.stored_size(&mem, Some(&mut cmap), 0), s);
    }

    /// `is_stored_compressed` is `stored_compressed(..).is_some()`, with a
    /// map and without one.
    fn assert_flag_agrees(
        view: &SharedLineStore<'_>,
        mem: &SharedMem<'_>,
        cmap: &mut CompressionMap,
        addr: u64,
    ) {
        assert_eq!(
            view.is_stored_compressed(mem, Some(cmap), addr),
            view.stored_compressed(mem, Some(cmap), addr).is_some()
        );
        assert_eq!(
            view.is_stored_compressed(mem, None, addr),
            view.stored_compressed(mem, None, addr).is_some()
        );
    }

    /// Under an overlay a line in this SM's own shadow is compressed from
    /// the view, not the map; the flag follows, both ways.
    #[test]
    fn stored_flag_sees_the_own_shadow() {
        let mut mem = FuncMem::new();
        for i in 0..32u32 {
            mem.write_u32(i as u64 * 4, 0x400 + i);
        }
        let mut cmap = CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi));
        let store = LineStore::new();
        let (mut mem_delta, mut ls_delta) = (caba_mem::MemDelta::new(), LineStoreDelta::new());
        let mut mem_view = SharedMem::Overlay {
            base: &mem,
            delta: &mut mem_delta,
        };
        let mut view = SharedLineStore::Overlay {
            base: &store,
            delta: &mut ls_delta,
        };
        assert!(view.is_stored_compressed(&mem_view, Some(&mut cmap), 0));
        // Own stores of noise: the map still holds the compressible form.
        let mut x = 17u64;
        for i in 0..16 {
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x33);
            mem_view.write_u64(i * 8, x);
        }
        assert!(!view.is_stored_compressed(&mem_view, Some(&mut cmap), 0));
        assert_flag_agrees(&view, &mem_view, &mut cmap, 0);
        // An all-zero line made compressible-but-different by an own store.
        mem_view.write_u8(512, 1);
        assert!(view.is_stored_compressed(&mem_view, Some(&mut cmap), 512));
        assert_flag_agrees(&view, &mem_view, &mut cmap, 512);
        // Own overrides in the overlay win over both.
        view.set_raw(512);
        assert_flag_agrees(&view, &mem_view, &mut cmap, 512);
        view.set_compressed(
            0,
            CompressedLine {
                algorithm: Algorithm::Bdi,
                encoding: 2,
                payload: vec![0u8; 40],
                original_len: LINE_SIZE,
            },
        );
        assert!(view.is_stored_compressed(&mem_view, Some(&mut cmap), 0));
        assert_flag_agrees(&view, &mem_view, &mut cmap, 0);
    }

    #[test]
    fn no_cmap_means_raw() {
        let mut mem = FuncMem::new();
        let mut store = LineStore::new();
        assert_eq!(store.stored_size(&mem, None, 0), LINE_SIZE);
        let mem_view = SharedMem::Direct(&mut mem);
        let view = SharedLineStore::Direct(&mut store);
        assert_eq!(view.stored_size(&mem_view, None, 0), LINE_SIZE);
        assert!(view.stored_compressed(&mem_view, None, 0).is_none());
    }

    #[test]
    fn line_store_overlay_defers_until_commit() {
        let mut store = LineStore::new();
        SharedLineStore::Direct(&mut store).set_raw(0);
        let mut delta = LineStoreDelta::new();
        {
            let mut view = SharedLineStore::Overlay {
                base: &store,
                delta: &mut delta,
            };
            // Own writes visible immediately; base override still visible.
            assert_eq!(view.override_for(0), Some(&StoredForm::Raw));
            view.clear(0);
            assert_eq!(view.override_for(0), None, "own clear visible in view");
            view.set_raw(128);
            assert_eq!(view.override_for(128), Some(&StoredForm::Raw));
        }
        // The next SM sees neither change; the later SM wins line 128.
        delta.end_turn();
        let mut next = SharedLineStore::Overlay {
            base: &store,
            delta: &mut delta,
        };
        assert_eq!(next.override_for(0), Some(&StoredForm::Raw));
        assert_eq!(next.override_for(128), None);
        next.set_raw(128);
        next.clear(128);
        // Base untouched until commit.
        assert_eq!(store.override_for(0), Some(&StoredForm::Raw));
        assert_eq!(store.override_for(128), None);
        delta.commit(&mut store);
        assert_eq!(store.overrides(), 0);
    }
}
