//! `caba-sweep` — parallel deterministic figure-sweep runner.
//!
//! Default mode runs the union of the selected figure sweeps (fig07, fig10,
//! fig12 unless `--figures` says otherwise) in parallel and emits the
//! deterministic figure table: to `--table PATH`, else to stdout.
//! `--selftest` proves determinism first: the same cells are run one at a
//! time and `--jobs` at once, and the two `RunStats` vectors must be
//! bit-identical (exit code 1 otherwise).
//!
//! `caba-sweep paper NAME` prints one of the paper's eleven tables (or
//! `all` of them) from cells that run through the same sweep path, so
//! `--jobs`, `--scale` and `--store-dir` apply to it too.
//!
//! `--store-dir DIR` makes a sweep resumable: every finished cell is
//! persisted at once, and re-running the same invocation over the same
//! store simulates only the cells it does not hold. Because each cell is
//! bit-deterministic, the resumed sweep's figure table is byte-identical
//! to an uninterrupted run's. `caba-sweep store gc` collects the store.

use caba_store::{write_file_atomic, FaultFlags, Store};
use caba_sweep::paper::cache_configs;
use caba_sweep::{
    dedup_cells, figure_table, host_cores, parse_positive, Figure, Sweep, SweepCell, SweepConfig,
};
use std::collections::HashMap;
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    jobs: usize,
    selftest: bool,
    scale: Option<f64>,
    table: Option<String>,
    checkpoint_every: u64,
    store_dir: Option<PathBuf>,
    faults: FaultFlags,
    figures: Option<Vec<Figure>>,
    apps: Option<Vec<&'static str>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: caba-sweep [--jobs N] [--scale F] [--selftest] [--table PATH]\n\
         \x20                 [--checkpoint-every N] [--figures LIST] [--apps LIST]\n\
         \x20                 [--store-dir DIR] [--store-fault-seed N] [--store-fault-rate F]\n\
         \x20      caba-sweep paper (fig01|fig02|fig05|fig07|fig08|fig09|fig10|fig11|fig12|fig13|tab_md|all)\n\
         \x20                 [--jobs N] [--scale F] [--store-dir DIR] [--table PATH]\n\
         \x20      caba-sweep store (scrub|gc|stats) --store-dir DIR [--store-cap BYTES] [--out PATH]\n\
         \n\
         --jobs N       cells simulated at once, one thread each (default:\n\
                        available parallelism). Results are bit-identical\n\
                        for any value.\n\
         --scale F      workload scale, finite and > 0 (default 0.5;\n\
                        selftest: 0.05)\n\
         --checkpoint-every N\n\
                        take a periodic in-memory machine snapshot every N\n\
                        cycles; enables time-travel hang forensics.\n\
                        N must be > 0 (omit the flag to disable)\n\
         --store-dir DIR\n\
                        durable content-addressed store: finished cells are\n\
                        persisted and looked up by content key, so a fresh\n\
                        process warm-starts bit-identically from an earlier\n\
                        (even killed) run's work: a killed sweep resumes by\n\
                        running again with the same --store-dir, and only\n\
                        the cells it had not stored simulate. A cell that\n\
                        fails (simulator error or caught panic) fails once:\n\
                        it is deterministic, so nothing retries it\n\
         --store-fault-seed N / --store-fault-rate F\n\
                        inject deterministic seeded I/O faults (torn writes,\n\
                        short reads, ENOSPC, failed renames/cleanups) under\n\
                        the store at per-op rate F — chaos testing; the\n\
                        sweep's results must be unaffected. Either flag\n\
                        turns injection on (defaults: seed 0, rate 0.05);\n\
                        F lies in 0..=1; both need --store-dir\n\
         --figures LIST comma-separated figures, by the names paper takes\n\
                        (default: fig07,fig10,fig12); the table is their\n\
                        cells' raw rows on the stock machine, so fig08 and\n\
                        fig09 give fig07's, fig13 and tab_md the CABA-BDI\n\
                        cells, and fig02, fig05 and fig11 have none\n\
         --apps LIST    comma-separated app-name filter applied to the cells\n\
         --selftest     first verify that the cells' RunStats are bit-identical\n\
                        one at a time and --jobs at once\n\
         --table PATH   write the deterministic figure table (the exact bytes\n\
                        caba-serve streams for the same cells) to PATH\n\
                        instead of stdout\n\
         \n\
         paper NAME     print one of the paper's tables, or all eleven, from\n\
                        cells run through the same sweep path; with\n\
                        --store-dir, tables that share runs (fig07, fig08,\n\
                        fig09, tab_md) simulate them once across invocations.\n\
                        Takes no --figures, --apps or --selftest\n\
         store scrub    verify every store entry's checksum; quarantine (never\n\
                        delete) corrupt entries and stale temps; write a JSON\n\
                        report to --out if given; exit 1 if anything was found\n\
         store gc       LRU-evict entries until the store fits --store-cap;\n\
                        the one way a store is collected\n\
         store stats    print store inventory as JSON"
    );
    std::process::exit(2);
}

/// The `caba-sweep store (scrub|gc|stats)` maintenance subcommand.
fn store_command(verb: &str, rest: &[String]) -> ExitCode {
    let mut store_dir: Option<PathBuf> = None;
    let mut store_cap: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store-dir" => {
                store_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| missing_value(a))))
            }
            "--store-cap" => store_cap = Some(parse_flag(a, it.next().cloned())),
            "--out" => out = Some(it.next().cloned().unwrap_or_else(|| missing_value(a))),
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("caba-sweep store: unknown flag {a}\n");
                usage();
            }
        }
    }
    let Some(dir) = store_dir else {
        eprintln!("caba-sweep store {verb}: --store-dir is required\n");
        usage();
    };
    let store = match Store::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("caba-sweep store {verb}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (json, ok) = match verb {
        "scrub" => match store.scrub() {
            Ok(report) => {
                eprintln!(
                    "scrub: {} ok, {} quarantined, {} skipped",
                    report.ok,
                    report.quarantined.len(),
                    report.skipped.len()
                );
                let clean = report.is_clean();
                (report.to_json(), clean)
            }
            Err(e) => {
                eprintln!("caba-sweep store scrub: {e}");
                return ExitCode::FAILURE;
            }
        },
        "gc" => {
            let Some(cap) = store_cap else {
                eprintln!("caba-sweep store gc: --store-cap is required\n");
                usage();
            };
            match store.gc(cap) {
                Ok(report) => {
                    eprintln!(
                        "gc: {} -> {} bytes, {} evicted, {} failed",
                        report.before_bytes,
                        report.after_bytes,
                        report.evicted.len(),
                        report.failed
                    );
                    (report.to_json(), report.failed == 0)
                }
                Err(e) => {
                    eprintln!("caba-sweep store gc: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "stats" => match store.stats() {
            Ok(stats) => (stats.to_json(), true),
            Err(e) => {
                eprintln!("caba-sweep store stats: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("caba-sweep store: unknown verb {verb:?} (scrub|gc|stats)\n");
            usage();
        }
    };
    if let Err(e) = emit(out.as_deref(), &json) {
        eprintln!("caba-sweep store {verb}: {e}");
        return ExitCode::FAILURE;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        jobs: host_cores(),
        selftest: false,
        scale: None,
        table: None,
        checkpoint_every: 0,
        store_dir: None,
        faults: FaultFlags::default(),
        figures: None,
        apps: None,
    };
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => args.jobs = parse_flag(&a, it.next()),
            "--scale" => args.scale = Some(positive_or_usage(&a, it.next())),
            "--table" => args.table = Some(it.next().unwrap_or_else(|| missing_value("--table"))),
            "--checkpoint-every" => {
                args.checkpoint_every = parse_flag(&a, it.next());
                if args.checkpoint_every == 0 {
                    // An explicit 0 would silently never checkpoint —
                    // reject it rather than guess the intent.
                    eprintln!(
                        "caba-sweep: --checkpoint-every 0 would never take a checkpoint; \
                         omit the flag to disable checkpointing\n"
                    );
                    usage();
                }
            }
            "--store-dir" => {
                args.store_dir = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| missing_value("--store-dir")),
                ));
            }
            "--store-fault-seed" | "--store-fault-rate" => {
                if let Err(msg) = args.faults.take(&a, it.next().as_deref()) {
                    eprintln!("caba-sweep: {msg}\n");
                    usage();
                }
            }
            "--figures" => {
                let list: String = it.next().unwrap_or_else(|| missing_value("--figures"));
                args.figures = Some(list.split(',').map(|s| figure_or_usage(s.trim())).collect());
            }
            "--apps" => {
                let list: String = it.next().unwrap_or_else(|| missing_value("--apps"));
                args.apps = Some(list.split(',').map(|s| app_or_usage(s.trim())).collect());
            }
            "--selftest" => args.selftest = true,
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("caba-sweep: unknown flag {a}\n");
                usage();
            }
        }
    }
    if args.jobs == 0 {
        eprintln!("caba-sweep: --jobs must be nonzero\n");
        usage();
    }
    // A store option with no store to apply to would be dropped silently.
    if let Err(msg) = args.faults.check_store_dir(args.store_dir.is_some()) {
        eprintln!("caba-sweep: {msg}\n");
        usage();
    }
    if args.selftest && args.store_dir.is_some() {
        // A store would answer for a cell the proof has to compute twice.
        eprintln!("caba-sweep: --selftest takes no --store-dir\n");
        usage();
    }
    let cores = host_cores();
    if args.jobs > cores {
        eprintln!(
            "caba-sweep: --jobs {} exceeds available parallelism ({cores}); \
             clamping to {cores} (oversubscribed workers only add contention)",
            args.jobs
        );
        args.jobs = cores;
    }
    args
}

/// Parses a flag value, exiting with usage (code 2) on a missing or
/// malformed value rather than panicking.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let v = value.unwrap_or_else(|| missing_value(flag));
    v.parse().unwrap_or_else(|_| {
        eprintln!("caba-sweep: invalid value {v:?} for {flag}\n");
        usage();
    })
}

fn missing_value(flag: &str) -> ! {
    eprintln!("caba-sweep: {flag} requires a value\n");
    usage();
}

/// A workload scale from the command line, or usage (code 2) naming the
/// value that is missing or not a finite number above zero.
fn positive_or_usage(flag: &str, value: Option<String>) -> f64 {
    let v = value.unwrap_or_else(|| missing_value(flag));
    parse_positive(&v).unwrap_or_else(|| {
        eprintln!("caba-sweep: {flag} must be a finite number > 0, got {v:?}\n");
        usage();
    })
}

/// The registry's name for an `--apps` entry, or usage (code 2) listing the
/// names there are: a misspelt app must not silently thin the sweep out.
fn app_or_usage(name: &str) -> &'static str {
    let apps = caba_workloads::all_apps();
    let Some(app) = apps.iter().find(|a| a.name == name) else {
        let known: Vec<_> = apps.iter().map(|a| a.name).collect();
        let known = known.join(", ");
        eprintln!("caba-sweep: unknown app {name:?} (expected one of: {known})\n");
        usage();
    };
    app.name
}

/// The tables `caba-sweep paper NAME` asks for, or usage (code 2), which
/// lists the names there are.
fn tables_or_usage(name: Option<&String>) -> Vec<Figure> {
    match name.map(String::as_str) {
        Some("all") => Figure::ALL.to_vec(),
        Some(name) if !name.starts_with('-') => vec![figure_or_usage(name)],
        _ => {
            eprintln!("caba-sweep paper: missing table name\n");
            usage();
        }
    }
}

/// The figure called `name`, or usage (code 2) naming every figure.
fn figure_or_usage(name: &str) -> Figure {
    name.parse().unwrap_or_else(|e| {
        eprintln!("caba-sweep: {e}\n");
        usage();
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, text) = match argv.first().map(String::as_str) {
        // `caba-sweep store (scrub|gc|stats)` is a separate maintenance mode.
        Some("store") => {
            let Some(verb) = argv.get(1) else {
                eprintln!("caba-sweep store: missing verb (scrub|gc|stats)\n");
                usage();
            };
            return store_command(verb, &argv[2..]);
        }
        Some("paper") => {
            let tables = tables_or_usage(argv.get(1));
            let args = parse_args(argv.get(2..).unwrap_or_default());
            // A table is defined over its own apps and cells.
            if args.figures.is_some() || args.apps.is_some() || args.selftest {
                eprintln!("caba-sweep paper: takes no --figures, --apps or --selftest\n");
                usage();
            }
            let text = paper(&args, &tables);
            (args, text)
        }
        _ => {
            let args = parse_args(&argv);
            let text = sweep(&args);
            (args, text)
        }
    };
    let emitted = text.and_then(|text| Ok(emit(args.table.as_deref(), &text)?));
    match emitted {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("caba-sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes what a mode produced to `path` (`--table`, `store … --out`), else
/// to stdout.
fn emit(path: Option<&str>, text: &str) -> Result<(), String> {
    match path {
        Some(path) => {
            write_file_atomic(path, text.as_bytes()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("written to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn base_config(args: &Args, default_scale: f64) -> SweepConfig {
    let mut sc = SweepConfig {
        scale: args.scale.unwrap_or(default_scale),
        ..SweepConfig::default()
    };
    sc.cfg.checkpoint_interval = args.checkpoint_every;
    sc
}

/// Opens the durable store per the CLI flags: plain, or under fault
/// injection when a `--store-fault-*` flag asks for it.
fn open_store(args: &Args) -> Result<Option<Store>, Box<dyn Error>> {
    let Some(dir) = &args.store_dir else {
        return Ok(None);
    };
    let store = args.faults.open(dir)?;
    match args.faults.injection() {
        Some((seed, rate)) => eprintln!(
            "  store: {} (fault injection: seed {seed}, rate {rate})",
            dir.display()
        ),
        None => eprintln!("  store: {}", dir.display()),
    }
    Ok(Some(store))
}

/// What the store answered and missed.
fn close_store(store: &Store) {
    eprintln!(
        "  store: {} hits, {} misses",
        store.hit_count(),
        store.miss_count()
    );
}

/// The selected figures, and their cells deduplicated and app-filtered.
fn selected_cells(args: &Args) -> (String, Vec<SweepCell>) {
    let figures = args.figures.as_deref().unwrap_or(&Figure::DEFAULT_SWEEP);
    let groups: Vec<_> = figures.iter().map(|f| f.cells()).collect();
    let mut cells = dedup_cells(&groups);
    if let Some(apps) = &args.apps {
        cells.retain(|c| apps.contains(&c.app));
    }
    if cells.is_empty() {
        eprintln!("caba-sweep: --figures and --apps select no cells\n");
        usage();
    }
    let names: Vec<_> = figures.iter().map(|f| f.name()).collect();
    (names.join("+"), cells)
}

/// The figure sweep, after the `--selftest` determinism proof if asked for;
/// returns the figure table.
fn sweep(args: &Args) -> Result<String, Box<dyn Error>> {
    let sc = base_config(args, if args.selftest { 0.05 } else { 0.5 });
    let (figures, cells) = selected_cells(args);
    let mode = if args.selftest { "selftest" } else { "sweep" };
    eprintln!(
        "{mode} {figures}: {} cells at scale {} with {} jobs",
        cells.len(),
        sc.scale,
        args.jobs
    );
    let serial = if args.selftest {
        Some(Sweep::new(&sc, cells.clone()).jobs(1).run()?.results)
    } else {
        None
    };
    let store = open_store(args)?;
    let mut sweep = Sweep::new(&sc, cells).jobs(args.jobs);
    if let Some(store) = &store {
        sweep = sweep.store(store);
    }
    let results = sweep.run()?.results;
    if let Some(store) = &store {
        close_store(store);
    }
    if let Some(serial) = serial {
        let differ = serial
            .iter()
            .zip(&results)
            .filter(|(s, p)| s.cell != p.cell || s.stats != p.stats)
            .inspect(|(s, _)| eprintln!("  MISMATCH {:?}", s.cell))
            .count();
        if differ > 0 {
            return Err(format!(
                "selftest FAILED: {differ} cells are not bit-identical to the serial run"
            )
            .into());
        }
        eprintln!(
            "selftest OK: {figures} bit-identical at 1 and {} jobs",
            args.jobs
        );
    }
    Ok(figure_table(&results))
}

/// The paper tables `tables`: every cell they need runs once, in one sweep
/// per machine configuration over the union of the tables' cells, and each
/// table is rendered from its own cells' results. With more than one table
/// each goes under its title.
fn paper(args: &Args, tables: &[Figure]) -> Result<String, Box<dyn Error>> {
    let sc = base_config(args, 0.5);
    let store = open_store(args)?;
    let mut done = HashMap::new();
    for (v, cfg) in cache_configs(sc.cfg).into_iter().enumerate() {
        let needed = tables.iter().filter(|t| v < t.configs());
        let groups: Vec<_> = needed.map(|t| t.cells()).collect();
        let cells = dedup_cells(&groups);
        if cells.is_empty() {
            continue;
        }
        eprintln!(
            "paper: {} cells at scale {} with {} jobs (machine configuration {v})",
            cells.len(),
            sc.scale,
            args.jobs
        );
        let mut sweep = Sweep::new(&SweepConfig { cfg, ..sc }, cells).jobs(args.jobs);
        if let Some(store) = &store {
            sweep = sweep.store(store);
        }
        for r in sweep.run()?.results {
            done.insert((v, r.cell.key()), r);
        }
    }
    if let Some(store) = &store {
        close_store(store);
    }
    let mut out = String::new();
    for t in tables {
        let cells = t.cells();
        let results: Vec<_> = (0..t.configs())
            .flat_map(|v| cells.iter().map(move |c| (v, c)))
            .map(|(v, c)| done[&(v, c.key())].clone())
            .collect();
        let table = t.render(&sc, &results)?;
        if tables.len() > 1 {
            let rule = "=".repeat(64);
            out.push_str(&format!("\n{rule}\n{}\n{rule}\n", t.title()));
        }
        out.push_str(&table.to_string());
    }
    Ok(out)
}
