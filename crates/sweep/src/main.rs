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
use caba_sweep::{
    dedup_cells, figure_table, host_cores, parse_positive, Figure, Sweep, SweepCell, SweepConfig,
};
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    jobs: usize,
    selftest: bool,
    scale: Option<f64>,
    table: Option<String>,
    store_dir: Option<PathBuf>,
    faults: FaultFlags,
    figures: Option<Vec<Figure>>,
    apps: Option<Vec<&'static str>>,
}

const USAGE: &str = "usage: caba-sweep [--jobs N] [--scale F] [--selftest] [--table PATH]\n\
         \x20                 [--figures LIST] [--apps LIST] [--store-dir DIR]\n\
         \x20                 [--store-fault-seed N] [--store-fault-rate F]\n\
         \x20      caba-sweep paper (fig01|fig02|fig05|fig07|fig08|fig09|fig10|fig11|fig12|fig13|tab_md|all)\n\
         \x20                 [--jobs N] [--scale F] [--store-dir DIR] [--table PATH]\n\
         \x20      caba-sweep store (scrub|gc|stats) --store-dir DIR [--store-cap BYTES] [--out PATH]\n\
         \n\
         --jobs N       cells simulated at once, one thread each (default:\n\
         \x20              available parallelism). Results are bit-identical\n\
         \x20              for any value.\n\
         --scale F      workload scale, finite and > 0 (default 0.5;\n\
         \x20              selftest: 0.05)\n\
         --store-dir DIR\n\
         \x20              durable content-addressed store: finished cells are\n\
         \x20              persisted and looked up by content key, so a fresh\n\
         \x20              process warm-starts bit-identically from an earlier\n\
         \x20              (even killed) run's work: a killed sweep resumes by\n\
         \x20              running again with the same --store-dir, and only\n\
         \x20              the cells it had not stored simulate. A cell that\n\
         \x20              fails (simulator error or caught panic) fails once:\n\
         \x20              it is deterministic, so nothing retries it\n\
         --store-fault-seed N / --store-fault-rate F\n\
         \x20              inject deterministic seeded I/O faults (torn writes,\n\
         \x20              short reads, ENOSPC, failed renames/cleanups) under\n\
         \x20              the store at per-op rate F — chaos testing; the\n\
         \x20              sweep's results must be unaffected. Either flag\n\
         \x20              turns injection on (defaults: seed 0, rate 0.05);\n\
         \x20              F lies in 0..=1; both need --store-dir\n\
         --figures LIST comma-separated figures, by the names paper takes\n\
         \x20              (default: fig07,fig10,fig12); the table is their\n\
         \x20              cells' raw rows on the stock machine, so fig08 and\n\
         \x20              fig09 give fig07's, fig13 and tab_md the CABA-BDI\n\
         \x20              cells, and fig02, fig05 and fig11 have none\n\
         --apps LIST    comma-separated app-name filter applied to the cells\n\
         --selftest     first verify that the cells' RunStats are bit-identical\n\
         \x20              one at a time and --jobs at once\n\
         --table PATH   write the deterministic figure table (the exact bytes\n\
         \x20              caba-serve streams for the same cells) to PATH\n\
         \x20              instead of stdout\n\
         \n\
         paper NAME     print one of the paper's tables, or all eleven, from\n\
         \x20              cells run through the same sweep path; with\n\
         \x20              --store-dir, tables that share runs (fig07, fig08,\n\
         \x20              fig09, tab_md) simulate them once across invocations.\n\
         \x20              Takes no --figures, --apps or --selftest\n\
         store scrub    verify every store entry's checksum; quarantine (never\n\
         \x20              delete) corrupt entries and stale temps; write a JSON\n\
         \x20              report to --out if given; exit 1 if anything was found\n\
         store gc       LRU-evict entries until the store fits --store-cap;\n\
         \x20              the one way a store is collected\n\
         store stats    print store inventory as JSON";

/// A usage error: the usage text on stderr, exit 2.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// `--help` / `-h`: the usage text on stdout, exit 0.
fn help() -> ! {
    println!("{USAGE}");
    std::process::exit(0);
}

/// The `caba-sweep store (scrub|gc|stats)` maintenance subcommand. The
/// verb and flags are checked before anything touches the disk, and it
/// maintains only a store that exists: it never creates one.
fn store_command(verb: &str, rest: &[String]) -> ExitCode {
    if matches!(verb, "--help" | "-h") {
        help();
    }
    if !matches!(verb, "scrub" | "gc" | "stats") {
        eprintln!("caba-sweep store: unknown verb {verb:?} (scrub|gc|stats)\n");
        usage();
    }
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
            "--help" | "-h" => help(),
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
    if verb == "gc" && store_cap.is_none() {
        eprintln!("caba-sweep store gc: --store-cap is required\n");
        usage();
    }
    if !dir.is_dir() {
        eprintln!("caba-sweep store {verb}: no store at {}", dir.display());
        return ExitCode::FAILURE;
    }
    let done = Store::open(&dir).and_then(|store| match verb {
        "scrub" => store.scrub().map(|report| {
            eprintln!(
                "scrub: {} ok, {} quarantined, {} skipped",
                report.ok,
                report.quarantined.len(),
                report.skipped.len()
            );
            (report.to_json(), report.is_clean())
        }),
        "gc" => store
            .gc(store_cap.expect("gc's cap was checked first"))
            .map(|report| {
                eprintln!(
                    "gc: {} -> {} bytes, {} evicted, {} failed",
                    report.before_bytes,
                    report.after_bytes,
                    report.evicted.len(),
                    report.failed
                );
                (report.to_json(), report.failed == 0)
            }),
        "stats" => store.stats().map(|stats| (stats.to_json(), true)),
        _ => unreachable!("the verb was checked first"),
    });
    let (json, ok) = match done {
        Ok(done) => done,
        Err(e) => {
            eprintln!("caba-sweep store {verb}: {e}");
            return ExitCode::FAILURE;
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
            "--help" | "-h" => help(),
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
        Some("--help" | "-h") => help(),
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
    SweepConfig {
        scale: args.scale.unwrap_or(default_scale),
        ..SweepConfig::default()
    }
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

/// The paper tables `tables` ([`caba_sweep::paper::text`]), through the
/// store if `--store-dir` names one.
fn paper(args: &Args, tables: &[Figure]) -> Result<String, Box<dyn Error>> {
    let sc = base_config(args, 0.5);
    let store = open_store(args)?;
    let text = caba_sweep::paper::text(&sc, tables, args.jobs, store.as_ref());
    if let Some(store) = &store {
        close_store(store);
    }
    text
}
