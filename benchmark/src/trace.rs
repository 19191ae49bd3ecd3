//! Spans recorded from the benchmark's own files, around each call into a
//! layer's public function: `{name, start_ns, end_ns, parent, op}`, kept in
//! memory and written out when the run ends. A layer's self time is its
//! span minus the child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`; the part before the dot is the crate.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// `pass * ops_per_pass + op index`: spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, `span` only calls through, so the
/// untraced passes that give the end-to-end metrics run no tracing code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<usize>,
    op: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            open: Vec::new(),
            op: 0,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    /// A recording tracer; tracers that share `epoch` can be merged.
    pub fn on(epoch: Instant) -> Self {
        Tracer::new(true, epoch)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the op id that following spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

/// The share by which separately measured children exceed their parent:
/// `max(0, sum(children) / parent - 1)`. Zero when they fit.
pub fn ledger_gap(parent: f64, children: &[f64]) -> f64 {
    (children.iter().sum::<f64>() / parent - 1.0).max(0.0)
}

/// The worst [`ledger_gap`] over every span that has children.
pub fn nested_gap(spans: &[Span]) -> f64 {
    let mut kids = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p] += s.ns() as f64;
        }
    }
    spans
        .iter()
        .zip(&kids)
        .filter(|(_, &k)| k > 0.0)
        .map(|(s, &k)| ledger_gap(s.ns() as f64, &[k]))
        .fold(0.0, f64::max)
}

/// Per span name, milliseconds of self time in one pass: for every op the
/// minimum over traced passes (the same estimator the end-to-end metrics
/// use), summed over ops.
pub fn self_ms_per_pass(spans: &[Span], ops_per_pass: usize) -> BTreeMap<&'static str, f64> {
    let own = self_ns(spans);
    // (name, op index) -> pass -> self ns
    let mut cells: BTreeMap<(&'static str, u64), BTreeMap<u64, u64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let (pass, idx) = (s.op / ops_per_pass as u64, s.op % ops_per_pass as u64);
        *cells
            .entry((s.name, idx))
            .or_default()
            .entry(pass)
            .or_default() += ns;
    }
    let mut out = BTreeMap::new();
    for ((name, _), by_pass) in cells {
        let best = by_pass.values().copied().min().unwrap_or(0);
        *out.entry(name).or_default() += best as f64 / 1e6;
    }
    out
}

pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut s = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            sp.name, sp.start_ns, sp.end_ns, sp.op
        );
        s.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("sweep.cell", 0, 100, None, 0),
            span("workloads.prepare", 5, 25, Some(0), 0),
            span("sim.run", 30, 95, Some(0), 0),
            span("sim.inner", 40, 50, Some(2), 0),
        ];
        assert_eq!(self_ns(&spans), vec![15, 20, 55, 10]);
        assert_eq!(nested_gap(&spans), 0.0);
    }

    #[test]
    fn ledger_gap_is_the_excess_share_and_zero_when_children_fit() {
        assert_eq!(ledger_gap(100.0, &[40.0, 50.0]), 0.0);
        assert!((ledger_gap(100.0, &[60.0, 50.0]) - 0.10).abs() < 1e-12);
        // A child that claims more than its parent shows up in the nested check.
        let spans = vec![
            span("a.parent", 0, 100, None, 0),
            span("b.child", 0, 120, Some(0), 0),
        ];
        assert!((nested_gap(&spans) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn per_pass_self_time_takes_each_ops_best_pass() {
        // Two ops per pass, two passes; op ids are pass * 2 + index.
        let spans = vec![
            span("sim.run", 0, 10_000_000, None, 0),
            span("sim.run", 0, 4_000_000, None, 1),
            span("sim.run", 0, 6_000_000, None, 2),
            span("sim.run", 0, 5_000_000, None, 3),
        ];
        let ms = self_ms_per_pass(&spans, 2);
        assert_eq!(ms["sim.run"], 6.0 + 4.0);
    }

    #[test]
    fn tracer_nests_merges_and_is_inert_when_off() {
        let mut off = Tracer::off();
        assert_eq!(off.span("x.y", |t| t.span("x.z", |_| 7)), 7);
        assert!(off.spans.is_empty());

        let epoch = Instant::now();
        let mut a = Tracer::on(epoch);
        a.set_op(3);
        a.span("serve.request", |t| t.span("store.get_result", |_| ()));
        let mut b = Tracer::on(epoch);
        b.span("serve.request", |t| t.span("store.get_result", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[0].op, 3);
        assert!(a.spans[0].end_ns >= a.spans[1].end_ns);
        caba_stats::json::validate(&to_json("t", &a.spans)).expect("trace file is JSON");
    }
}
