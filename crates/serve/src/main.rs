//! `caba-serve` CLI: bind the sweep service and run until shutdown.

use caba_serve::{ServeOptions, Server};
use caba_store::FaultFlags;
use caba_sweep::{host_cores, parse_positive, SweepConfig};
use std::path::PathBuf;
use std::process::exit;

struct Args {
    addr: String,
    store_dir: Option<PathBuf>,
    jobs: usize,
    scale: f64,
    faults: FaultFlags,
}

fn usage() -> ! {
    eprintln!(
        "usage: caba-serve [--addr HOST:PORT] [--store-dir DIR] [--jobs N] [--scale F]\n\
         \x20                 [--store-fault-seed N] [--store-fault-rate F]\n\
         \n\
         Serve sweep/figure/cell simulations over HTTP. Cells are keyed by content\n\
         hash of the canonicalized config + workload; with --store-dir, results are\n\
         memoized durably and only cache misses simulate. Identical concurrent\n\
         requests coalesce onto one in-flight computation.\n\
         \n\
         --addr HOST:PORT   bind address (default 127.0.0.1:7199; use :0 for an\n\
         \x20                  ephemeral port — the actual address is printed)\n\
         --store-dir DIR    durable content-addressed result store (shared with\n\
         \x20                  caba-sweep --store-dir)\n\
         --jobs N           cells simulated at once per figure request\n\
         --scale F          default workload scale when a request omits ?scale=\n\
         \x20                  (finite and > 0; default 0.25)\n\
         --store-fault-seed N / --store-fault-rate F\n\
         \x20                  wrap the store in the deterministic fault injector\n\
         \x20                  (testing). Either flag turns it on (defaults: seed 0,\n\
         \x20                  rate 0.05); F lies in 0..=1; both need --store-dir\n\
         \n\
         endpoints: GET /healthz /stats /figure/{{fig}} /cell/{{app}}/{{design}}/{{bw}}\n\
         \x20          /result/{{key}}   POST /shutdown"
    );
    exit(2);
}

fn parse_flag<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("caba-serve: {flag} needs a valid value\n");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7199".to_string(),
        store_dir: None,
        jobs: host_cores(),
        scale: 0.25,
        faults: FaultFlags::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = parse_flag(&a, it.next()),
            "--store-dir" => args.store_dir = Some(parse_flag(&a, it.next())),
            "--jobs" => args.jobs = parse_flag(&a, it.next()),
            "--scale" => {
                let v: String = parse_flag(&a, it.next());
                args.scale = parse_positive(&v).unwrap_or_else(|| {
                    eprintln!("caba-serve: --scale must be a finite number > 0, got {v:?}\n");
                    usage()
                });
            }
            "--store-fault-seed" | "--store-fault-rate" => {
                if let Err(msg) = args.faults.take(&a, it.next().as_deref()) {
                    eprintln!("caba-serve: {msg}\n");
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("caba-serve: unknown flag {other:?}\n");
                usage()
            }
        }
    }
    if args.jobs == 0 {
        eprintln!("caba-serve: --jobs must be nonzero\n");
        usage();
    }
    if let Err(msg) = args.faults.check_store_dir(args.store_dir.is_some()) {
        eprintln!("caba-serve: {msg}\n");
        usage();
    }
    args
}

fn main() {
    let args = parse_args();

    let store = args.store_dir.as_ref().map(|dir| {
        args.faults.open(dir).unwrap_or_else(|e| {
            eprintln!("caba-serve: opening store {}: {e}", dir.display());
            exit(1);
        })
    });

    let sc = SweepConfig {
        scale: args.scale,
        ..SweepConfig::default()
    };

    let server = Server::start(
        &args.addr,
        ServeOptions {
            sc,
            jobs: args.jobs,
            store,
            bench_out: None,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("caba-serve: binding {}: {e}", args.addr);
        exit(1);
    });

    println!("caba-serve listening on http://{}", server.addr());
    if let Some(dir) = &args.store_dir {
        eprintln!("  store: {}", dir.display());
    }
    server.join();
    eprintln!("caba-serve: shutdown complete");
}
