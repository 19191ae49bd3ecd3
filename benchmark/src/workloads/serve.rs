//! `serve_warm`: an in-process `Server` over a store that set-up fills
//! through the server's own cold `/figure/fig07` request, then two
//! closed-loop clients with a fixed request mix. `serve`, the store's read
//! path and the sweep codecs do the work; `sim` does none after set-up
//! (`/stats` `cells_computed` must not move during the timed passes).

use super::{apps_of, best_of};
use crate::estimate::{mean, per_op_median, percentile};
use crate::fsshim::{FsCounts, MemFs};
use crate::json::{self, Value};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::run::{Ctx, Passes, Steps, Workload};
use crate::trace::{ledger_gap, Tracer};
use caba_serve::http::{fetch, Request};
use caba_serve::{ServeOptions, Server};
use caba_store::Store;
use caba_sweep::{
    decode_result_payload, figure_table_line, CellSpec, Figure, Sweep, SweepCell, SweepConfig,
};
use std::hint::black_box;
use std::time::Instant;

const SCALE: f64 = 0.05;
/// The store's root inside the in-memory filesystem.
const ROOT: &str = "/mem/serve-store";
const CLIENTS: usize = 2;
/// Requests per client and pass by class: 20 % figure, 50 % cell, 15 %
/// result, 10 % healthz, 5 % typed errors. Fixed counts, so every seed
/// sends the same work and only order and targets change.
const MIX: [(Class, usize); 5] = [
    (Class::Figure, 30),
    (Class::Cell, 75),
    (Class::Result, 23),
    (Class::Healthz, 15),
    (Class::Error, 7),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Figure,
    Cell,
    Result,
    Healthz,
    Error,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub class: Class,
    pub target: String,
    pub status: u16,
    /// The cell key the body must name (cell and result requests).
    pub key: Option<u64>,
}

/// One client's requests for a pass, in seed order.
pub fn op_list(seed: u64, client: usize, smoke: bool, sc: &SweepConfig) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA5A5_5A5A_1234_5678));
    let cells = Figure::Fig07.cells();
    let mut ops = Vec::new();
    for (class, count) in MIX {
        let count = if smoke { count.div_ceil(10) } else { count };
        for _ in 0..count {
            let cell = cells[rng.below(cells.len())];
            let key = CellSpec::new(sc, cell).content_hash();
            ops.push(match class {
                Class::Figure => Req {
                    class,
                    target: "/figure/fig07".into(),
                    status: 200,
                    key: None,
                },
                Class::Cell => Req {
                    class,
                    target: format!(
                        "/cell/{}/{}/{}",
                        cell.app,
                        cell.design.label(),
                        cell.bw_scale
                    ),
                    status: 200,
                    key: Some(key),
                },
                Class::Result => Req {
                    class,
                    target: format!("/result/{key:016x}"),
                    status: 200,
                    key: Some(key),
                },
                Class::Healthz => Req {
                    class,
                    target: "/healthz".into(),
                    status: 200,
                    key: None,
                },
                Class::Error if rng.below(2) == 0 => Req {
                    class,
                    target: format!("/cell/NO-SUCH-APP/{}/1", cell.design.label()),
                    status: 404,
                    key: None,
                },
                Class::Error => Req {
                    class,
                    target: "/figure/fig99".into(),
                    status: 400,
                    key: None,
                },
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

pub struct Serve {
    server: Server,
    addr: String,
    sc: SweepConfig,
    cells: Vec<SweepCell>,
    /// The library's table for the figure: what `/figure/fig07` must stream.
    table: String,
    clients: Vec<Vec<Req>>,
    cold_figure_s: f64,
    fs: MemFs,
    /// Counters when set-up ended; the timed passes must not move some.
    fs_at_setup: FsCounts,
    computed_at_setup: Option<f64>,
}

impl Serve {
    /// One request, checked. Returns whether status and body were right.
    fn request(&self, req: &Req) -> bool {
        let Ok(resp) = fetch(&self.addr, "GET", &req.target) else {
            return false;
        };
        if resp.status != req.status {
            return false;
        }
        match req.class {
            Class::Figure => resp.body == self.table.as_bytes(),
            Class::Healthz => resp.body == b"{\"ok\": true}\n",
            Class::Error => caba_stats::json::validate(&resp.text()).is_ok(),
            Class::Cell | Class::Result => {
                let text = resp.text();
                let key = format!("\"key\": \"{:016x}\"", req.key.expect("keyed request"));
                caba_stats::json::validate(&text).is_ok()
                    && text.contains(&key)
                    && (req.class == Class::Result || text.contains("\"cached\": true"))
            }
        }
    }

    fn server_stat(&self, name: &str) -> Result<f64, String> {
        let resp = fetch(&self.addr, "GET", "/stats").map_err(|e| format!("/stats: {e}"))?;
        json::parse(&resp.text())?
            .get(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("/stats has no {name}"))
    }

    fn class_times<'a>(&'a self, t: &'a [f64], class: Class) -> Vec<f64> {
        self.clients
            .iter()
            .flatten()
            .zip(t)
            .filter(|(r, _)| r.class == class)
            .map(|(_, &s)| s)
            .collect()
    }
}

impl Workload for Serve {
    const SETUPS: usize = 5;

    fn setup(ctx: &Ctx, steps: &mut Steps) -> Result<Self, String> {
        let sc = SweepConfig {
            scale: SCALE,
            ..SweepConfig::default()
        };
        let fs = MemFs::new();
        let server = steps.time(|| {
            let store = Store::open_with_fs(ROOT, fs.boxed()).map_err(|e| e.to_string())?;
            let opts = ServeOptions {
                sc,
                jobs: 1,
                store: Some(store),
                bench_out: None,
            };
            Server::start("127.0.0.1:0", opts).map_err(|e| format!("server start: {e}"))
        })?;
        let addr = server.addr().to_string();

        // The cold requests: every cell misses, simulates and is persisted,
        // so that path's cost lands in `setup_s`. One request per app (a
        // step each) and not one for the whole figure, because a short step
        // has a steadier minimum than a long one.
        let cells = Figure::Fig07.cells();
        let before_cold = steps.total();
        let mut cold = Vec::new();
        for app in apps_of(&cells) {
            let target = format!("/figure/fig07?apps={app}");
            let resp = steps
                .time(|| fetch(&addr, "GET", &target))
                .map_err(|e| format!("{target}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("{target}: status {}", resp.status));
            }
            cold.extend(resp.body);
        }
        let cold_figure_s = steps.total() - before_cold;

        // The expected bytes come from the library, not from the server: a
        // second handle on the same store, through the `Sweep` builder.
        let run = steps.time(|| {
            let reader = Store::open_with_fs(ROOT, fs.boxed()).map_err(|e| e.to_string())?;
            Sweep::new(&sc, cells.clone())
                .jobs(1)
                .store(&reader)
                .run()
                .map_err(|e| format!("library sweep: {e}"))
        })?;
        if run.store_hits != cells.len() || cold != run.table().as_bytes() {
            return Err("the cold figure differs from the library table".into());
        }

        let clients = (0..CLIENTS)
            .map(|c| op_list(ctx.seed, c, ctx.smoke, &sc))
            .collect();
        Ok(Serve {
            server,
            addr,
            sc,
            cells,
            table: run.table(),
            clients,
            cold_figure_s,
            fs,
            fs_at_setup: FsCounts::default(),
            computed_at_setup: None,
        })
    }

    /// A request waits for the accept loop's next 5 ms poll, so its
    /// latency depends on the phase it arrives in. The minimum over passes
    /// would measure the luckiest phase and sink as passes are added; the
    /// median does neither.
    fn per_op(passes: &[Vec<f64>]) -> Vec<f64> {
        per_op_median(passes)
    }

    fn ops(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn work_per_pass(&self) -> f64 {
        self.ops() as f64
    }

    fn pass(&mut self, pass: u64, t: &mut [f64], tracer: &mut Tracer) -> usize {
        let total = self.ops() as u64;
        let this = &*self;
        let mut rest = t;
        let mut base = 0u64;
        let mut failed = 0;
        let mut traces = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for ops in &this.clients {
                let (mine, tail) = rest.split_at_mut(ops.len());
                rest = tail;
                let first = pass * total + base;
                base += ops.len() as u64;
                let mut tr = if tracer.is_on() {
                    Tracer::on(tracer.epoch())
                } else {
                    Tracer::off()
                };
                handles.push(s.spawn(move || {
                    let mut failed = 0;
                    for (i, req) in ops.iter().enumerate() {
                        tr.set_op(first + i as u64);
                        let t0 = Instant::now();
                        let ok = tr.span("serve.request", |_| this.request(req));
                        mine[i] = t0.elapsed().as_secs_f64();
                        failed += usize::from(!ok);
                    }
                    (failed, tr)
                }));
            }
            for h in handles {
                let (f, tr) = h.join().expect("client thread");
                failed += f;
                traces.push(tr);
            }
        });
        for tr in traces {
            tracer.absorb(tr);
        }
        // The warm-up pass ends set-up: remember where the counters stood.
        if self.computed_at_setup.is_none() {
            self.fs_at_setup = self.fs.counts();
            self.computed_at_setup = self.server_stat("cells_computed").ok();
        }
        failed
    }

    fn check(&mut self) -> Result<(), String> {
        let before = self.computed_at_setup.ok_or("no /stats at set-up")?;
        let after = self.server_stat("cells_computed")?;
        if after != before {
            return Err(format!(
                "cells_computed moved {before} -> {after} in the timed passes"
            ));
        }
        let io = self.fs.counts().since(&self.fs_at_setup);
        if io.write_syncs != 0 {
            return Err(format!(
                "{} object writes in the timed passes",
                io.write_syncs
            ));
        }
        Ok(())
    }

    fn layers(&mut self, run: &Passes, m: &mut Metrics) -> Result<(), String> {
        let p50_ms = |class| percentile(&self.class_times(&run.t_op, class), 0.5) * 1e3;
        let (healthz, figure) = (p50_ms(Class::Healthz), p50_ms(Class::Figure));
        m.set("serve.healthz_p50_ms", healthz);
        m.set("serve.cell_p50_ms", p50_ms(Class::Cell));
        m.set("serve.result_p50_ms", p50_ms(Class::Result));
        m.set("serve.figure_p50_ms", figure);
        m.set("serve.error_p50_ms", p50_ms(Class::Error));
        m.set("serve.cold_figure_s", self.cold_figure_s);
        m.set(
            "serve.coalesced_waits",
            self.server_stat("coalesced_waits")?,
        );
        m.set(
            "serve.store_warm_hits",
            self.server_stat("store_warm_hits")?,
        );
        let computed = self.server_stat("cells_computed")?;
        m.set(
            "serve.cells_computed_timed",
            computed - self.computed_at_setup.unwrap_or(computed),
        );
        let io = self.fs.counts().since(&self.fs_at_setup);
        m.set("store.object_writes_timed", io.write_syncs as f64);

        // A figure request's server-side stages cannot be nested from out
        // here, so the layer calls it makes are replayed directly: per cell
        // one store read, one payload decode, one table line.
        let reader = Store::open_with_fs(ROOT, self.fs.boxed()).map_err(|e| e.to_string())?;
        let keys: Vec<u64> = self
            .cells
            .iter()
            .map(|c| CellSpec::new(&self.sc, *c).content_hash())
            .collect();
        let mut get = vec![f64::INFINITY; keys.len()];
        let mut payloads = Vec::new();
        for _ in 0..5 {
            payloads.clear();
            for (slot, &k) in get.iter_mut().zip(&keys) {
                let t0 = Instant::now();
                let p = reader.get_result(k);
                *slot = slot.min(t0.elapsed().as_secs_f64());
                payloads.push(p.ok().flatten().ok_or("replay: store miss")?);
            }
        }
        let (decode_s, decoded) = best_of(5, || {
            payloads
                .iter()
                .map(|p| decode_result_payload(black_box(p)))
                .collect::<Vec<_>>()
        });
        let stats: Vec<_> = decoded.into_iter().flatten().collect();
        let (line_s, _) = best_of(5, || {
            for (c, (s, _)) in self.cells.iter().zip(&stats) {
                black_box(figure_table_line(c, s));
            }
        });
        let n = keys.len() as f64;
        let (get_us, decode_us, line_us) = (mean(&get) * 1e6, decode_s * 1e6 / n, line_s * 1e6 / n);
        m.set("store.get_hit_us", get_us);
        m.set("sweep.decode_payload_us", decode_us);
        m.set("sweep.table_line_us", line_us);

        let wire = b"GET /figure/fig07?scale=0.05 HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
        let (parse_s, parsed) = best_of(5, || {
            let mut last = None;
            for _ in 0..1000 {
                last = Request::parse(&mut &wire[..]).ok().flatten();
            }
            last
        });
        if parsed.map(|r| r.path) != Some("/figure/fig07".to_string()) {
            return Err("Request::parse rejected the benchmark's own request".into());
        }
        m.set("serve.parse_us", parse_s * 1e6 / 1000.0);

        // The ledger: transport floor plus the replayed calls must fit in
        // the figure request they are part of; what is left is the residual
        // (thread hand-off, chunked writes, coalescer).
        let replay_ms = n * (get_us + decode_us + line_us) / 1e3;
        m.set("serve.figure_residual_ms", figure - healthz - replay_ms);
        let gap = ledger_gap(figure, &[healthz, replay_ms]);
        m.set("ledger_gap", gap.max(m.get("ledger_gap")));
        Ok(())
    }

    fn shutdown(self) {
        self.server.shutdown();
        self.server.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_order_and_targets_but_not_the_mix() {
        let sc = SweepConfig {
            scale: SCALE,
            ..SweepConfig::default()
        };
        let a = op_list(5, 0, false, &sc);
        assert_eq!(a, op_list(5, 0, false, &sc), "same seed, same list");
        assert_ne!(a, op_list(6, 0, false, &sc), "another seed, another list");
        assert_ne!(a, op_list(5, 1, false, &sc), "clients differ");
        assert!(a.len() >= 100, "p90 needs ten samples beyond it");
        for seed in [5, 6] {
            for (class, count) in MIX {
                let got = op_list(seed, 0, false, &sc)
                    .iter()
                    .filter(|r| r.class == class)
                    .count();
                assert_eq!(got, count, "{class:?}");
            }
        }
    }
}
