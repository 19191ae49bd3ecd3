//! Pins the bytes of the snapshot container. Round-trip tests prove that a
//! snapshot restores into the machine it came from; they cannot see a
//! change of layout that both halves make together. This test holds the
//! `checksum64` of `Gpu::snapshot` at one mid-run cycle of one app on the
//! Table 1 machine, on Base, HW-BDI and CABA-BDI, to fixed values: a change
//! that moves them changes the container format, and owes
//! `snapshot::FORMAT_VERSION` a bump and these pins a new value.

use caba_sim::{CabaMode, Design, GpuConfig, RunError};
use caba_stats::checksum64;
use caba_workloads::{app, prepare_app};

const APP: &str = "PVC";
const SCALE: f64 = 0.05;
/// Mid-run on all three designs, with assist warps live on CABA-BDI.
const CUT: u64 = 400;

/// `(design, container length, checksum64 of the container)`.
const PINS: [(Design, usize, u64); 3] = [
    (Design::Base, 821_706, 0xc9fb_b87a_bf88_0776),
    (
        Design::HwFull { ideal: false },
        834_243,
        0x8302_76ef_ee16_5cdb,
    ),
    (
        Design::Caba(CabaMode::Bdi),
        2_940_805,
        0x6311_dbb4_1938_9f6b,
    ),
];

#[test]
fn snapshot_container_bytes_are_pinned() {
    let spec = app(APP).expect("known app");
    let cfg = GpuConfig::isca2015();
    for (design, len, sum) in PINS {
        let label = design.label();
        let (mut gpu, kernel) = prepare_app(&spec, cfg, design, SCALE);
        // A paranoid controller carries reference lines in its snapshot, and
        // only debug builds default to one: fix it so both profiles pin
        // the same bytes.
        gpu.set_paranoid(false);
        let Err(RunError::Timeout { cycles, report }) = gpu.run(&kernel, CUT) else {
            panic!("{label}: {APP} must still be running at cycle {CUT}");
        };
        assert_eq!(cycles, CUT);
        if matches!(design, Design::Caba(_)) {
            let live: usize = report.sms.iter().map(|s| s.assists_active).sum();
            assert!(live > 0, "{label}: the cut must hold live assist warps");
        }
        let bytes = gpu.snapshot(&kernel);
        let got = (bytes.len(), checksum64(&bytes));
        assert_eq!(got, (len, sum), "{label}: snapshot container bytes moved");
    }
}
