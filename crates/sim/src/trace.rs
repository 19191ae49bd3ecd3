//! Activity tracing: periodic samples of per-SM issue activity, Fig. 1
//! stall-breakdown deltas, and DRAM bus utilization, plus optional instant
//! events (assist-warp spawn/retire, fault injections) — exportable as
//! Chrome trace-event JSON (`chrome://tracing` / Perfetto).
//!
//! Enable by building the GPU with
//! [`GpuConfig::with_trace`](crate::GpuConfig::with_trace), then write
//! [`ActivityTrace::write_chrome_json`] to a file after `run`.

use crate::observe::TraceConfig;
use caba_stats::{json, IssueBreakdown, StallKind};
use std::io::{self, Write};

/// One sampling interval's activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Cycle at the end of the interval.
    pub cycle: u64,
    /// Application instructions issued per SM during the interval.
    pub app_issued: Vec<u64>,
    /// Assist-warp instructions issued per SM during the interval.
    pub assist_issued: Vec<u64>,
    /// Per-SM issue-slot taxonomy deltas (Figure 1 buckets) for the
    /// interval, indexed by SM.
    pub stalls: Vec<IssueBreakdown>,
    /// DRAM data-bus busy cycles (all channels) during the interval.
    pub dram_busy: u64,
    /// Channel-cycles elapsed during the interval.
    pub dram_total: u64,
}

impl Sample {
    /// DRAM utilization within this interval.
    pub fn bw_utilization(&self) -> f64 {
        if self.dram_total == 0 {
            0.0
        } else {
            self.dram_busy as f64 / self.dram_total as f64
        }
    }
}

/// An instant event recorded while tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The event taxonomy for [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An assist warp was deployed into an AWC slot (§3.4).
    AssistSpawn {
        /// Hosting SM.
        sm: usize,
        /// Deployed at high (decompression) priority.
        high_priority: bool,
    },
    /// An assist warp ran to completion and its slot was reclaimed.
    AssistRetire {
        /// Hosting SM.
        sm: usize,
    },
    /// A corrupted compressed fill was detected (and refetched) at the SM
    /// fill boundary (`FaultMode::Recover`).
    FillCorrupt {
        /// Detecting SM.
        sm: usize,
        /// Line base address.
        addr: u64,
    },
    /// The crossbar fault injector dropped a packet.
    XbarDrop {
        /// Recovered by link-level retransmission (`FaultMode::Recover`).
        retransmitted: bool,
    },
    /// The DRAM fault injector held a request back (`dram_delay_rate`).
    DramDelay {
        /// Affected memory partition.
        partition: usize,
    },
}

impl TraceEventKind {
    /// Track name in the Chrome trace.
    fn name(&self) -> &'static str {
        match self {
            TraceEventKind::AssistSpawn { .. } => "assist spawn",
            TraceEventKind::AssistRetire { .. } => "assist retire",
            TraceEventKind::FillCorrupt { .. } => "fill corrupt",
            TraceEventKind::XbarDrop { .. } => "xbar drop",
            TraceEventKind::DramDelay { .. } => "dram delay",
        }
    }

    /// JSON `args` object body (no surrounding braces).
    fn args(&self) -> String {
        match self {
            TraceEventKind::AssistSpawn { sm, high_priority } => {
                format!("\"sm\":{sm},\"high_priority\":{high_priority}")
            }
            TraceEventKind::AssistRetire { sm } => format!("\"sm\":{sm}"),
            TraceEventKind::FillCorrupt { sm, addr } => {
                format!("\"sm\":{sm},\"addr\":\"{addr:#x}\"")
            }
            TraceEventKind::XbarDrop { retransmitted } => {
                format!("\"retransmitted\":{retransmitted}")
            }
            TraceEventKind::DramDelay { partition } => format!("\"partition\":{partition}"),
        }
    }
}

/// A recorded activity trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivityTrace {
    /// Sampling interval in cycles.
    pub interval: u64,
    /// Samples in cycle order.
    pub samples: Vec<Sample>,
    /// Instant events. SM and partition buffers are drained in index order
    /// at each sample tick, so the sequence is deterministic; it is not
    /// globally cycle-sorted (trace viewers sort by timestamp).
    pub events: Vec<TraceEvent>,
}

impl ActivityTrace {
    /// Streams the trace in Chrome trace-event format: per-SM issue and
    /// stall-breakdown counter tracks, a DRAM bandwidth track, and instant
    /// events. Cycle numbers are reported as microsecond timestamps for
    /// viewer convenience.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"[\n")?;
        let mut first = true;
        let sep = |w: &mut W, first: &mut bool| -> io::Result<()> {
            if !*first {
                w.write_all(b",\n")?;
            }
            *first = false;
            Ok(())
        };
        for s in &self.samples {
            for (sm, (&app, &asst)) in s.app_issued.iter().zip(&s.assist_issued).enumerate() {
                sep(w, &mut first)?;
                write!(
                    w,
                    "{{\"name\":\"SM{sm} issue\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                     \"args\":{{\"app\":{app},\"assist\":{asst}}}}}",
                    s.cycle
                )?;
            }
            for (sm, b) in s.stalls.iter().enumerate() {
                sep(w, &mut first)?;
                write!(
                    w,
                    "{{\"name\":\"SM{sm} stalls\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{",
                    s.cycle
                )?;
                for (i, k) in StallKind::ALL.iter().enumerate() {
                    if i > 0 {
                        w.write_all(b",")?;
                    }
                    write!(w, "\"{}\":{}", json::escape(k.slug()), b.count(*k))?;
                }
                w.write_all(b"}}")?;
            }
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"name\":\"DRAM BW\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                 \"args\":{{\"utilization\":{}}}}}",
                s.cycle,
                json::fmt_f64(s.bw_utilization())
            )?;
        }
        for e in &self.events {
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":1,\
                 \"args\":{{{}}}}}",
                json::escape(e.kind.name()),
                e.cycle,
                e.kind.args()
            )?;
        }
        w.write_all(b"\n]\n")
    }

    /// [`ActivityTrace::write_chrome_json`] into a `String` (convenience for
    /// small traces; prefer streaming to a file for long runs).
    pub fn to_chrome_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome_json(&mut buf)
            .expect("Vec<u8> writes are infallible");
        String::from_utf8(buf).expect("trace JSON is UTF-8")
    }

    /// Average DRAM utilization across samples (0 when empty).
    pub fn avg_bw_utilization(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.bw_utilization()).sum::<f64>() / self.samples.len() as f64
    }
}

/// Internal recorder attached to a running GPU.
#[derive(Debug)]
pub(crate) struct Tracer {
    pub(crate) interval: u64,
    pub(crate) trace: ActivityTrace,
    pub(crate) last_cycle: u64,
    pub(crate) last_app: Vec<u64>,
    pub(crate) last_assist: Vec<u64>,
    pub(crate) last_stalls: Vec<IssueBreakdown>,
    pub(crate) last_dram_busy: u64,
    pub(crate) last_dram_total: u64,
}

impl Tracer {
    pub(crate) fn new(cfg: TraceConfig, num_sms: usize) -> Self {
        let interval = cfg.interval.max(1);
        Tracer {
            interval,
            trace: ActivityTrace {
                interval,
                samples: Vec::new(),
                events: Vec::new(),
            },
            last_cycle: 0,
            last_app: vec![0; num_sms],
            last_assist: vec![0; num_sms],
            last_stalls: vec![IssueBreakdown::new(); num_sms],
            last_dram_busy: 0,
            last_dram_total: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ActivityTrace {
        let mut b0 = IssueBreakdown::new();
        b0.record(StallKind::IssuedApp);
        b0.record(StallKind::MemoryData);
        let mut b1 = IssueBreakdown::new();
        b1.record(StallKind::Idle);
        b1.record(StallKind::IssuedAssist);
        ActivityTrace {
            interval: 100,
            samples: vec![Sample {
                cycle: 100,
                app_issued: vec![5, 7],
                assist_issued: vec![1, 0],
                stalls: vec![b0, b1],
                dram_busy: 40,
                dram_total: 200,
            }],
            events: vec![
                TraceEvent {
                    cycle: 42,
                    kind: TraceEventKind::AssistSpawn {
                        sm: 1,
                        high_priority: true,
                    },
                },
                TraceEvent {
                    cycle: 60,
                    kind: TraceEventKind::FillCorrupt { sm: 0, addr: 0x1c0 },
                },
            ],
        }
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let t = sample_trace();
        let json_text = t.to_chrome_json();
        caba_stats::json::validate(&json_text).expect("trace JSON parses");
        assert!(json_text.contains("\"SM0 issue\""));
        assert!(json_text.contains("\"SM1 stalls\""));
        assert!(json_text.contains("\"memory-data\":1"));
        assert!(json_text.contains("\"DRAM BW\""));
        assert!(json_text.contains("\"utilization\":0.2"));
        assert!(json_text.contains("\"assist spawn\""));
        assert!(json_text.contains("\"ph\":\"i\""));
        assert!(json_text.contains("\"addr\":\"0x1c0\""));
        assert!((t.avg_bw_utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn writer_and_string_paths_agree() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_chrome_json(&mut buf).expect("write succeeds");
        assert_eq!(String::from_utf8(buf).expect("utf-8"), t.to_chrome_json());
    }

    #[test]
    fn empty_trace() {
        let t = ActivityTrace::default();
        assert_eq!(t.avg_bw_utilization(), 0.0);
        caba_stats::json::validate(&t.to_chrome_json()).expect("empty trace is valid JSON");
    }
}
