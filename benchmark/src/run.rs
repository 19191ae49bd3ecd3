//! The measurement protocol, shared by every workload: timed passes over a
//! fixed op list until `--seconds` have been measured, every op timed on its
//! own, `t_i = min over passes`; and several complete set-ups spread over
//! the run, every set-up step at its minimum.

use crate::estimate::{iqr_share, per_op_min, percentile};
use crate::host::{peak_rss_mb, Host};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::trace::{self, Span, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a workload is built from. The program under test sees only what
/// the workload generates from `seed`.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Scale 0.05, about a tenth of the ops, two passes.
    pub smoke: bool,
    /// An empty directory of this process, inside the checkout.
    pub scratch: PathBuf,
}

/// The timed steps of one set-up, in order. A workload wraps each piece of
/// set-up work in [`Steps::time`]; the same steps in the same order every
/// time, so that a step's samples from several set-ups line up.
#[derive(Default)]
pub struct Steps(Vec<f64>);

impl Steps {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.0.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Seconds of the steps timed so far.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

pub trait Workload: Sized {
    /// Complete set-ups per untraced run (see `drive`). A constant of the
    /// workload, like its op counts: the cheaper a set-up, the more of them
    /// fit, and a step needs about a dozen samples before its minimum is
    /// the host's fast state rather than luck.
    const SETUPS: usize;
    /// Input generation, store prefill, server start, each as a timed
    /// step. The caller adds one warm-up pass over the op list; steps and
    /// warm-up ops together are `setup_s`.
    fn setup(ctx: &Ctx, steps: &mut Steps) -> Result<Self, String>;
    /// Ops in one pass, over all clients.
    fn ops(&self) -> usize;
    /// Closed-loop clients that run the op list concurrently.
    fn clients(&self) -> usize {
        1
    }
    /// `t_i` from op `i`'s samples over the passes: the minimum, unless the
    /// workload has a reason to differ.
    fn per_op(passes: &[Vec<f64>]) -> Vec<f64> {
        per_op_min(passes)
    }
    /// Work units in one pass: simulated cycles, requests or operations.
    fn work_per_pass(&self) -> f64;
    /// Runs every op once, writes op `i`'s seconds to `t[i]`, checks each
    /// output, and returns how many ops failed.
    fn pass(&mut self, pass: u64, t: &mut [f64], tracer: &mut Tracer) -> usize;
    /// Conditions over the whole run (exact counts repeat, the bypassed
    /// layer did no work). Checked once, after the last pass.
    fn check(&mut self) -> Result<(), String>;
    /// Per-layer metrics, from the traced run's samples and spans plus the
    /// workload's own probes of the layers it exercises.
    fn layers(&mut self, run: &Passes, m: &mut Metrics) -> Result<(), String>;
    /// Stops whatever `setup` started and waits for it.
    fn shutdown(self) {}
}

/// The samples of one run.
pub struct Passes {
    /// `untraced[p][i]`: seconds of op `i` in pass `p`, tracing off.
    pub untraced: Vec<Vec<f64>>,
    /// `t_i`: [`Workload::per_op`] of `untraced`.
    pub t_op: Vec<f64>,
    /// The same with tracing on (traced run only).
    pub traced: Vec<Vec<f64>>,
    pub spans: Vec<Span>,
}

pub struct Options {
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub commit: String,
}

/// Children may exceed their parent span by this share before the run fails.
const LEDGER_TOLERANCE: f64 = 0.05;

/// The samples of one set-up: its steps, and the ops of its warm-up pass.
struct SetupSample {
    steps: Vec<f64>,
    warm: Vec<f64>,
}

/// One complete set-up: the workload's own steps, then the warm-up pass.
fn set_up<W: Workload>(ctx: &Ctx, nth: usize) -> Result<(W, SetupSample), String> {
    let ctx = Ctx {
        scratch: ctx.scratch.join(format!("setup-{nth}")),
        ..*ctx
    };
    std::fs::create_dir_all(&ctx.scratch).map_err(|e| format!("{}: {e}", ctx.scratch.display()))?;
    let mut steps = Steps::default();
    let mut w = W::setup(&ctx, &mut steps)?;
    let mut warm = vec![0.0; w.ops()];
    let failed = w.pass(0, &mut warm, &mut Tracer::off());
    if failed > 0 {
        return Err(format!("{failed} ops failed in the warm-up pass"));
    }
    Ok((
        w,
        SetupSample {
            steps: steps.0,
            warm,
        },
    ))
}

/// `setup_s`, built from the set-ups the way `best_pass_s` is built from
/// passes: each step at its minimum over the set-ups, plus the warm-up pass
/// at each op's minimum, shared between the clients as a timed pass is.
fn setup_seconds(samples: Vec<SetupSample>, clients: usize) -> Result<f64, String> {
    let (steps, warm): (Vec<_>, Vec<_>) = samples.into_iter().map(|s| (s.steps, s.warm)).unzip();
    if steps.iter().any(|s| s.len() != steps[0].len()) {
        return Err("set-ups timed different steps".into());
    }
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    Ok(sum(per_op_min(&steps)) + sum(per_op_min(&warm)) / clients as f64)
}

/// Runs one workload and returns the result line for standard output.
pub fn drive<W: Workload>(ctx: &Ctx, opt: &Options) -> Result<String, String> {
    let host = Host::probe(&ctx.scratch, &opt.commit);
    // The first set-up comes before the timed passes and is the instance
    // they run on; the others are complete throw-away set-ups spaced evenly
    // between passes, so that their samples span the run.
    let setups = if opt.trace || ctx.smoke { 1 } else { W::SETUPS };
    let (mut w, first) = set_up::<W>(ctx, 0)?;
    let mut setup_samples = vec![first];
    let (ops, clients) = (w.ops(), w.clients());

    // Timed passes, pass-major: each op's samples are spread over the run.
    // A traced run alternates untraced and traced passes in half the time
    // and leaves the other half to the layer probes.
    let budget = if opt.trace {
        opt.seconds / 2.0
    } else {
        opt.seconds
    };
    let mut run = Passes {
        untraced: Vec::new(),
        t_op: Vec::new(),
        traced: Vec::new(),
        spans: Vec::new(),
    };
    let mut tracer = Tracer::on(Instant::now());
    let mut failed = 0;
    let mut measured = 0.0;
    loop {
        let pass = run.untraced.len() as u64;
        let start = Instant::now();
        let mut t = vec![0.0; ops];
        failed += w.pass(pass, &mut t, &mut Tracer::off());
        run.untraced.push(t);
        if opt.trace {
            let mut t = vec![0.0; ops];
            failed += w.pass(pass, &mut t, &mut tracer);
            run.traced.push(t);
        }
        measured += start.elapsed().as_secs_f64();
        // The clock of the timed passes stops while a set-up runs.
        let done = setup_samples.len();
        if done < setups && measured >= budget * done as f64 / setups as f64 {
            let (extra, sample) = set_up::<W>(ctx, done)?;
            extra.shutdown();
            setup_samples.push(sample);
        }
        let enough = if ctx.smoke {
            run.untraced.len() >= 2
        } else {
            run.untraced.len() >= 2 && measured >= budget && setup_samples.len() == setups
        };
        if enough {
            break;
        }
    }
    run.spans = std::mem::take(&mut tracer.spans);
    run.t_op = W::per_op(&run.untraced);
    let attempted = ops * (run.untraced.len() + run.traced.len());

    let mut notes = Vec::new();
    if let Err(e) = w.check() {
        notes.push(format!("check: {e}"));
    }

    let mut m = Metrics::default();
    let best_pass_s = run.t_op.iter().sum::<f64>() / clients as f64;
    m.set("setup_s", setup_seconds(setup_samples, clients)?);
    m.set("work_per_s", w.work_per_pass() / best_pass_s);
    m.set("op_p50_ms", percentile(&run.t_op, 0.5) * 1e3);
    m.set("op_p90_ms", percentile(&run.t_op, 0.9) * 1e3);

    if opt.trace {
        let raw: Vec<f64> = run.untraced.concat();
        m.set("raw_p50_ms", percentile(&raw, 0.5) * 1e3);
        m.set("raw_p99_ms", percentile(&raw, 0.99) * 1e3);
        let pass_s: Vec<f64> = run.untraced.iter().map(|p| p.iter().sum()).collect();
        m.set("raw_pass_iqr", iqr_share(&pass_s));
        let traced_s: f64 = W::per_op(&run.traced).iter().sum();
        m.set("trace_overhead", traced_s / run.t_op.iter().sum::<f64>());
        m.set("ledger_gap", trace::nested_gap(&run.spans));
        if let Err(e) = w.layers(&run, &mut m) {
            notes.push(format!("layers: {e}"));
        }
        let gap = m.get("ledger_gap");
        if gap > LEDGER_TOLERANCE {
            notes.push(format!(
                "ledger_gap {gap:.4}: measured children exceed their parent"
            ));
        }
        write_file(
            &out_dir().join(format!("trace-{}.json", ctx.workload)),
            &trace::to_json(ctx.workload, &run.spans),
        )?;
    }
    w.shutdown();
    m.set("peak_rss_mb", peak_rss_mb());

    if failed > 0 {
        notes.push(format!("{failed} of {attempted} ops failed"));
    }
    let correct = notes.is_empty();
    let defs = if opt.trace { PER_LAYER } else { END_TO_END };
    let result_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.to_json(defs)
    );

    // Every metric by name with its unit, then the host it was measured on.
    println!(
        "caba-benchmark workload={} seed={} trace={} smoke={} passes={} ops_per_pass={} clients={} setups={}",
        ctx.workload,
        ctx.seed,
        opt.trace as u8,
        ctx.smoke,
        run.untraced.len(),
        ops,
        clients,
        setups
    );
    println!("host {}", host.to_json());
    for d in defs {
        println!("{:<34} {:>18.6} {}", d.name, m.get(d.name), d.unit);
    }
    for n in &notes {
        println!("FAILED {n}");
    }

    if let Some(path) = &opt.out {
        let notes_json: Vec<String> = notes
            .iter()
            .map(|n| format!("\"{}\"", caba_stats::json::escape(n)))
            .collect();
        let record = format!(
            "{{\"schema\": \"caba-benchmark-v1\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
             \"seconds\": {}, \"passes\": {}, \"ops_per_pass\": {ops}, \"clients\": {clients}, \"setups\": {setups}, \
             \"host\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"notes\": [{}], \"metrics\": {}}}\n",
            ctx.workload,
            ctx.seed,
            opt.trace,
            ctx.smoke,
            opt.seconds,
            run.untraced.len(),
            host.to_json(),
            notes_json.join(", "),
            m.to_json(defs)
        );
        write_file(path, &record)?;
    }
    Ok(result_line)
}

/// `benchmark/out/`, git-ignored: traces, run records and scratch.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
