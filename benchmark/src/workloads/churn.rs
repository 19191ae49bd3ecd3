//! `persist_churn`: the `store` and `sweep` layers used the other way
//! round from `serve_warm`: writes beside reads, single thread, a fresh
//! store root every pass. Puts, hits and misses of real result payloads,
//! snapshot put and get-then-restore, warm `Sweep` re-runs with a journal,
//! then scrub, GC to half the bytes and a re-open of the populated root.
//! The median op is a read and the p90 op is a write, so a read-path gain
//! bought with write-path cost (or the reverse) shows.

use super::{apps_of, best_of};
use crate::estimate::mean;
use crate::fsshim::{FsCounts, MemFs};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::run::{Ctx, Passes, Steps, Workload};
use crate::trace::Tracer;
use caba_sim::{Gpu, Kernel, RunError, RunStats};
use caba_stats::checksum::checksum64;
use caba_store::{SnapKey, Store};
use caba_sweep::{
    decode_result_payload, encode_result_payload, figure_table_line, run_cell, CellResult,
    CellSpec, Figure, Sweep, SweepCell, SweepConfig,
};
use caba_workloads::{prepare_app, DEFAULT_MAX_CYCLES};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const SCALE: f64 = 0.05;
/// The store's root inside the in-memory filesystem.
const ROOT: &str = "/mem/churn-store";
/// Apps of fig07 that set-up simulates for real payloads and the warm
/// sweeps re-run (5 designs each). A quarter of the figure, so that a
/// set-up is cheap enough to repeat 15 times.
const FIGURE_APPS: usize = 5;

/// Op counts of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub puts: usize,
    pub hits: usize,
    pub misses: usize,
    pub snapshots: usize,
    pub sweeps: usize,
}

pub const FULL: Counts = Counts {
    puts: 2000,
    hits: 6000,
    misses: 2000,
    snapshots: 8,
    sweeps: 4,
};

pub const SMOKE: Counts = Counts {
    puts: 200,
    hits: 600,
    misses: 200,
    snapshots: 2,
    sweeps: 1,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `put_result` of key index `.0`.
    Put(usize),
    /// `get_result` of a key already put.
    Hit(usize),
    /// `get_result` of a key never put.
    Miss(u64),
    PutSnapshot(usize),
    /// `get_snapshot`, then `Gpu::restore` of the bytes.
    Restore(usize),
    /// A warm `Sweep` over the set-up's cells with store and a fresh journal.
    Sweep(usize),
    Scrub,
    Gc,
    Open,
}

impl Op {
    fn kind(self) -> &'static str {
        match self {
            Op::Put(_) => "put",
            Op::Hit(_) => "hit",
            Op::Miss(_) => "miss",
            Op::PutSnapshot(_) => "put_snapshot",
            Op::Restore(_) => "restore",
            Op::Sweep(_) => "sweep",
            Op::Scrub => "scrub",
            Op::Gc => "gc",
            Op::Open => "open",
        }
    }
}

/// The op list of a pass. Every seed has the same counts; the seed orders
/// puts, hits and misses and picks what each hit reads. The first `cells`
/// puts are the figure's real cells (the sweeps need them), so they lead.
pub fn op_list(seed: u64, n: Counts, cells: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut mixed = Vec::new();
    mixed.extend((cells..n.puts).map(|_| 0u8));
    mixed.extend((0..n.hits).map(|_| 1u8));
    mixed.extend((0..n.misses).map(|_| 2u8));
    rng.shuffle(&mut mixed);

    let mut ops: Vec<Op> = (0..cells).map(Op::Put).collect();
    let mut put = cells;
    for kind in mixed {
        ops.push(match kind {
            0 => {
                put += 1;
                Op::Put(put - 1)
            }
            1 => Op::Hit(rng.below(put)),
            _ => Op::Miss(rng.next_u64() | 1 << 63),
        });
    }
    ops.extend((0..n.snapshots).map(Op::PutSnapshot));
    ops.extend((0..n.snapshots).map(Op::Restore));
    ops.extend((0..n.sweeps).map(Op::Sweep));
    ops.extend([Op::Scrub, Op::Gc, Op::Open]);
    ops
}

pub struct Churn {
    scratch: PathBuf,
    sc: SweepConfig,
    cells: Vec<SweepCell>,
    /// The cells' results, simulated in set-up: the real payloads.
    results: Vec<CellResult>,
    table: String,
    /// Result keys: the figure's content hashes first, then seeded ones
    /// (top bit clear, so no miss key collides).
    keys: Vec<u64>,
    payloads: Vec<Vec<u8>>,
    ops: Vec<Op>,
    /// A mid-run machine: its bytes, and a GPU of the same configuration
    /// that every restore op overwrites.
    snapshot: Vec<u8>,
    snap_keys: Vec<SnapKey>,
    gpu: Gpu,
    kernel: Kernel,
    /// I/O calls by op kind in the first pass; later passes must repeat them.
    io: Option<BTreeMap<&'static str, FsCounts>>,
    io_repeats: bool,
    scrubbed: u64,
}

fn machine(spec: &CellSpec) -> (Gpu, Kernel) {
    let app = caba_workloads::app(spec.app).expect("registry app");
    prepare_app(
        &app,
        spec.cfg.with_bandwidth_scale(spec.bw_scale),
        spec.design.make(),
        spec.scale,
    )
}

impl Churn {
    fn payload(&self, key_index: usize) -> &[u8] {
        &self.payloads[key_index % self.payloads.len()]
    }

    /// Runs `op` against `store`, timing the public calls only. Returns
    /// the seconds and whether the output check passed.
    fn run_op(&mut self, op: Op, store: &Store, fs: &MemFs, tr: &mut Tracer) -> (f64, bool) {
        match op {
            Op::Put(i) => {
                let (key, payload) = (self.keys[i], self.payload(i));
                let t0 = Instant::now();
                let r = tr.span("store.put_result", |_| {
                    store.put_result(key, "churn", payload)
                });
                (t0.elapsed().as_secs_f64(), r.is_ok())
            }
            Op::Hit(i) => {
                let t0 = Instant::now();
                let r = tr.span("store.get_result", |_| store.get_result(self.keys[i]));
                let t = t0.elapsed().as_secs_f64();
                (t, matches!(r, Ok(Some(p)) if p == self.payload(i)))
            }
            Op::Miss(key) => {
                let t0 = Instant::now();
                let r = tr.span("store.get_result", |_| store.get_result(key));
                (t0.elapsed().as_secs_f64(), matches!(r, Ok(None)))
            }
            Op::PutSnapshot(i) => {
                let t0 = Instant::now();
                let r = tr.span("store.put_snapshot", |_| {
                    store.put_snapshot(&self.snap_keys[i], &self.snapshot)
                });
                (t0.elapsed().as_secs_f64(), r.is_ok())
            }
            Op::Restore(i) => {
                let t0 = Instant::now();
                let ok = tr.span("churn.restore", |tr| {
                    let bytes = tr.span("store.get_snapshot", |_| {
                        store.get_snapshot(&self.snap_keys[i])
                    });
                    let Ok(Some(bytes)) = bytes else { return false };
                    let restored =
                        tr.span("sim.restore", |_| self.gpu.restore(&self.kernel, &bytes));
                    restored.is_ok() && bytes == self.snapshot
                });
                (t0.elapsed().as_secs_f64(), ok)
            }
            Op::Sweep(i) => {
                // The journal is the one real file: the builder writes it
                // through `std::fs`. Fresh every time, or nothing is backfilled.
                let journal = self.scratch.join(format!("sweep-{i}.journal"));
                let _ = std::fs::remove_file(&journal);
                let t0 = Instant::now();
                let run = tr.span("sweep.run", |_| {
                    Sweep::new(&self.sc, self.cells.clone())
                        .jobs(1)
                        .store(store)
                        .journal(&journal)
                        .run()
                });
                let t = t0.elapsed().as_secs_f64();
                let lines = std::fs::read_to_string(&journal).map_or(0, |j| j.lines().count());
                let ok = matches!(&run, Ok(r) if r.store_hits == self.cells.len() && r.table() == self.table);
                // A header and one line per backfilled cell.
                (t, ok && lines == self.cells.len() + 1)
            }
            Op::Scrub => {
                let t0 = Instant::now();
                let report = tr.span("store.scrub", |_| store.scrub());
                let t = t0.elapsed().as_secs_f64();
                self.scrubbed = report.as_ref().map_or(0, |r| r.ok);
                (t, matches!(report, Ok(r) if r.is_clean()))
            }
            Op::Gc => {
                // Untimed: the cap, and a newest entry that GC must keep.
                let Ok(stats) = store.stats() else {
                    return (0.0, false);
                };
                let cap = stats.entry_bytes / 2;
                let newest = u64::MAX >> 1;
                if store.put_result(newest, "newest", self.payload(0)).is_err() {
                    return (0.0, false);
                }
                let t0 = Instant::now();
                let report = tr.span("store.gc", |_| store.gc(cap));
                let t = t0.elapsed().as_secs_f64();
                let kept = matches!(store.get_result(newest), Ok(Some(_)));
                let ok = matches!(report, Ok(r) if r.after_bytes <= cap && r.failed == 0 && !r.evicted.is_empty());
                (t, ok && kept)
            }
            Op::Open => {
                let t0 = Instant::now();
                let opened = tr.span("store.open", |_| Store::open_with_fs(ROOT, fs.boxed()));
                (t0.elapsed().as_secs_f64(), opened.is_ok())
            }
        }
    }
}

impl Workload for Churn {
    const SETUPS: usize = 15;

    fn setup(ctx: &Ctx, steps: &mut Steps) -> Result<Self, String> {
        let n = if ctx.smoke { SMOKE } else { FULL };
        let sc = SweepConfig {
            scale: SCALE,
            ..SweepConfig::default()
        };
        // The cell list is app-major: keep the first apps' cells.
        let mut cells = Figure::Fig07.cells();
        let apps = apps_of(&cells);
        cells.retain(|c| apps[..FIGURE_APPS].contains(&c.app));
        // Real payloads: those cells simulated once, on both cores, one app
        // (a step) at a time.
        let mut results = Vec::new();
        for app_cells in cells.chunk_by(|a, b| a.app == b.app) {
            let run = steps.time(|| Sweep::new(&sc, app_cells.to_vec()).jobs(2).run());
            results.extend(run.map_err(|e| format!("set-up sweep: {e}"))?.results);
        }
        let (table, payloads, keys, ops) = steps.time(|| {
            let table: String = results
                .iter()
                .map(|r| figure_table_line(&r.cell, &r.stats))
                .collect();
            let payloads: Vec<Vec<u8>> = results
                .iter()
                .map(|r| encode_result_payload(&r.stats, r.wall_s))
                .collect();
            let mut rng = Rng::new(ctx.seed ^ 0xC0FF_EE00_D15C_0000);
            let mut keys: Vec<u64> = cells
                .iter()
                .map(|c| CellSpec::new(&sc, *c).content_hash())
                .collect();
            let mut taken: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
            while keys.len() < n.puts {
                let k = rng.next_u64() >> 1;
                if taken.insert(k) {
                    keys.push(k);
                }
            }
            (table, payloads, keys, op_list(ctx.seed, n, cells.len()))
        });

        // The snapshot: the first app's Base machine stopped half way, which
        // a restored machine must finish exactly as the unbroken run did.
        let base = cells
            .iter()
            .position(|c| c.design == caba_sweep::DesignId::Base)
            .ok_or("the figure has no Base cell")?;
        let spec = CellSpec::new(&sc, cells[base]);
        let half = results[base].stats.cycles / 2;
        let (snapshot, gpu, kernel) = steps.time(|| {
            let (mut gpu, kernel) = machine(&spec);
            if !matches!(gpu.run(&kernel, half), Err(RunError::Timeout { .. })) {
                return Err("the snapshot machine did not stop half way".to_string());
            }
            let snapshot = gpu.snapshot(&kernel);
            let (mut gpu, kernel) = machine(&spec);
            gpu.restore(&kernel, &snapshot)
                .map_err(|e| format!("restore: {e}"))?;
            let resumed: Result<RunStats, _> = gpu.resume(&kernel, DEFAULT_MAX_CYCLES);
            if resumed.ok().as_ref() != Some(&results[base].stats) {
                return Err("a restored machine finished differently from the unbroken run".into());
            }
            Ok((snapshot, gpu, kernel))
        })?;
        let snap_keys = (0..n.snapshots)
            .map(|i| SnapKey {
                config_hash: spec.sweep_hash(),
                kernel_hash: kernel.program().content_hash(),
                design: "Base".into(),
                cycle: half + i as u64,
            })
            .collect();

        Ok(Churn {
            scratch: ctx.scratch.clone(),
            sc,
            ops,
            cells,
            results,
            table,
            keys,
            payloads,
            snapshot,
            snap_keys,
            gpu,
            kernel,
            io: None,
            io_repeats: true,
            scrubbed: 0,
        })
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn work_per_pass(&self) -> f64 {
        self.ops.len() as f64
    }

    fn pass(&mut self, pass: u64, t: &mut [f64], tracer: &mut Tracer) -> usize {
        // A fresh, empty store every pass.
        let fs = MemFs::new();
        let Ok(store) = Store::open_with_fs(ROOT, fs.boxed()) else {
            return self.ops.len();
        };
        let mut failed = 0;
        let mut io: BTreeMap<&'static str, FsCounts> = BTreeMap::new();
        let n = self.ops.len() as u64;
        for (i, slot) in t.iter_mut().enumerate() {
            let op = self.ops[i];
            tracer.set_op(pass * n + i as u64);
            let before = fs.counts();
            let (secs, ok) = self.run_op(op, &store, &fs, tracer);
            io.entry(op.kind())
                .or_default()
                .add(&fs.counts().since(&before));
            *slot = secs;
            failed += usize::from(!ok);
        }
        match &self.io {
            None => self.io = Some(io),
            Some(first) => self.io_repeats &= *first == io,
        }
        failed
    }

    fn check(&mut self) -> Result<(), String> {
        if !self.io_repeats {
            return Err("I/O call counts differ between passes".into());
        }
        let io = self.io.as_ref().ok_or("no pass ran")?;
        if io["put"].write_syncs == 0 {
            return Err("puts wrote no object file".into());
        }
        Ok(())
    }

    fn layers(&mut self, run: &Passes, m: &mut Metrics) -> Result<(), String> {
        let of = |kind: &str| -> Vec<f64> {
            self.ops
                .iter()
                .zip(&run.t_op)
                .filter(|(o, _)| o.kind() == kind)
                .map(|(_, &t)| t)
                .collect()
        };
        let (put, hit, sweep) = (of("put"), of("hit"), of("sweep"));
        m.set("store.put_result_us", mean(&put) * 1e6);
        m.set("store.get_hit_us", mean(&hit) * 1e6);
        m.set("store.get_miss_us", mean(&of("miss")) * 1e6);
        m.set("store.put_snapshot_ms", mean(&of("put_snapshot")) * 1e3);
        m.set(
            "store.scrub_us_per_entry",
            mean(&of("scrub")) * 1e6 / self.scrubbed.max(1) as f64,
        );
        m.set("store.gc_ms", mean(&of("gc")) * 1e3);
        m.set("store.open_ms", mean(&of("open")) * 1e3);

        // Restore ops are two layer calls; the spans split them.
        let mut split: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &run.spans {
            split.entry(s.name).or_default().push(s.ns() as f64);
        }
        let best_ms = |name: &str| {
            split.get(name).map_or(0.0, |v| {
                v.iter().copied().fold(f64::INFINITY, f64::min) / 1e6
            })
        };
        m.set("store.get_snapshot_ms", best_ms("store.get_snapshot"));
        m.set("sim.restore_ms", best_ms("sim.restore"));
        m.set("sim.snapshot_bytes", self.snapshot.len() as f64);
        let (snap_s, _) = best_of(3, || black_box(self.gpu.snapshot(&self.kernel)));
        m.set("sim.snapshot_ms", snap_s * 1e3);
        let (sum_s, _) = best_of(5, || black_box(checksum64(black_box(&self.snapshot))));
        m.set(
            "stats.checksum_mb_per_s",
            self.snapshot.len() as f64 / 1e6 / sum_s,
        );

        let io = self.io.as_ref().ok_or("no pass ran")?;
        let per =
            |kind: &str, f: &dyn Fn(&FsCounts) -> u64, n: usize| f(&io[kind]) as f64 / n as f64;
        m.set(
            "store.syncs_per_put",
            per("put", &FsCounts::syncs, put.len()),
        );
        m.set(
            "store.renames_per_put",
            per("put", &|s| s.renames, put.len()),
        );
        m.set(
            "store.bytes_per_put",
            per("put", &|s| s.bytes_written, put.len()),
        );
        m.set(
            "store.syncs_per_get_hit",
            per("hit", &FsCounts::syncs, hit.len()),
        );
        m.set(
            "store.reads_per_get_hit",
            per("hit", &|s| s.reads, hit.len()),
        );
        m.set(
            "store.object_writes_timed",
            io.values().map(|s| s.write_syncs).sum::<u64>() as f64,
        );

        // The sweep codecs over the figure's real results.
        let n = self.results.len() as f64;
        let (enc_s, _) = best_of(5, || {
            for r in &self.results {
                black_box(encode_result_payload(&r.stats, r.wall_s));
            }
        });
        let (dec_s, _) = best_of(5, || {
            for p in &self.payloads {
                black_box(decode_result_payload(black_box(p)));
            }
        });
        let (line_s, _) = best_of(5, || {
            for r in &self.results {
                black_box(figure_table_line(&r.cell, &r.stats));
            }
        });
        let (hash_s, _) = best_of(5, || {
            for c in &self.cells {
                black_box(CellSpec::new(&self.sc, *c).content_hash());
            }
        });
        m.set("sweep.encode_payload_us", enc_s * 1e6 / n);
        m.set("sweep.decode_payload_us", dec_s * 1e6 / n);
        m.set("sweep.table_line_us", line_s * 1e6 / n);
        m.set("sweep.content_hash_us", hash_s * 1e6 / n);
        let warm_cell_us = mean(&sweep) * 1e6 / n;
        m.set("sweep.warm_cell_us", warm_cell_us);
        m.set(
            "sweep.journal_line_us",
            warm_cell_us - m.get("store.get_hit_us") - m.get("sweep.decode_payload_us"),
        );
        self.cold_glue(m)
    }
}

impl Churn {
    /// What the builder adds to a cold run: the set-up's cells through
    /// `Sweep` with store and journal against the bare `run_cell` calls of
    /// the same cells, once, and the same run on two workers.
    fn cold_glue(&self, m: &mut Metrics) -> Result<(), String> {
        let t0 = Instant::now();
        for c in &self.cells {
            run_cell(&CellSpec::new(&self.sc, *c)).map_err(|e| e.to_string())?;
        }
        let bare = t0.elapsed().as_secs_f64();
        let mut walls = [0.0; 2];
        for (slot, jobs) in walls.iter_mut().zip([1, 2]) {
            let journal = self.scratch.join(format!("cold-{jobs}.journal"));
            let _ = std::fs::remove_file(&journal);
            let store =
                Store::open_with_fs(ROOT, MemFs::new().boxed()).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let run = Sweep::new(&self.sc, self.cells.clone())
                .jobs(jobs)
                .store(&store)
                .journal(&journal)
                .run()
                .map_err(|e| e.to_string())?;
            *slot = t0.elapsed().as_secs_f64();
            if run.store_hits != 0 || run.table() != self.table {
                return Err("cold builder run differs from the set-up run".into());
            }
        }
        m.set(
            "sweep.cold_glue_share",
            ((walls[0] - bare) / walls[0]).max(0.0),
        );
        m.set("sweep.jobs2_ratio", walls[1] / walls[0]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_orders_the_ops_and_keeps_the_counts_and_dependencies() {
        let a = op_list(3, FULL, 100);
        assert_eq!(a, op_list(3, FULL, 100), "same seed, same list");
        let b = op_list(4, FULL, 100);
        assert_ne!(a, b, "another seed, another order");
        for ops in [&a, &b] {
            let count = |k: &str| ops.iter().filter(|o| o.kind() == k).count();
            assert_eq!(count("put"), FULL.puts);
            assert_eq!(count("hit"), FULL.hits);
            assert_eq!(count("miss"), FULL.misses);
            assert_eq!(count("put_snapshot"), FULL.snapshots);
            assert_eq!(count("restore"), FULL.snapshots);
            assert_eq!(count("sweep"), FULL.sweeps);
            assert_eq!(&ops[ops.len() - 3..], &[Op::Scrub, Op::Gc, Op::Open]);
            // A hit only ever reads a key that an earlier op put.
            let mut put = 0;
            for op in ops.iter() {
                match *op {
                    Op::Put(i) => {
                        assert_eq!(i, put, "puts go in key order");
                        put += 1;
                    }
                    Op::Hit(i) => assert!(i < put, "hit before its put"),
                    _ => {}
                }
            }
        }
        assert!(
            op_list(1, SMOKE, 100).len() >= 100,
            "p90 needs ten samples beyond it"
        );
    }
}
