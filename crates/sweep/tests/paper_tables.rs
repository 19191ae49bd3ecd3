//! The paper's tables, committed: `caba-sweep paper all --scale 0.05` on
//! the Table 1 machine, rendered here through the same library call the
//! CLI makes (`Figure::cells`, one `Sweep` per machine configuration,
//! `Figure::render`) and compared byte for byte with the committed text.
//! A change that moves a figure fails here; a model change re-pins the
//! file in its own commit with the command the failure prints, and its
//! diff is the record of what moved.

use caba_sweep::{paper, Figure, SweepConfig};

const PINNED: &str = include_str!("paper/table1_scale0.05.txt");
const REPIN: &str = "cargo run --release -p caba-sweep -- paper all --scale 0.05 \
                     --table crates/sweep/tests/paper/table1_scale0.05.txt";

#[test]
fn paper_tables_at_scale_0_05_match_the_committed_text() {
    let sc = SweepConfig {
        scale: 0.05,
        ..SweepConfig::default()
    };
    let text = paper::text(&sc, &Figure::ALL, 2, None).expect("every table renders");
    if text == PINNED {
        return;
    }
    let mut got = text.lines();
    let mut want = PINNED.lines();
    for row in 1.. {
        let (g, w) = (got.next(), want.next());
        if g != w {
            panic!(
                "the paper tables moved at row {row}:\n  committed: {}\n  rendered:  {}\n\
                 if the change is meant, re-pin with\n  {REPIN}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>"),
            );
        }
        if g.is_none() {
            break;
        }
    }
    panic!(
        "the paper tables differ only in line endings or the last newline; re-pin with\n  {REPIN}"
    );
}
