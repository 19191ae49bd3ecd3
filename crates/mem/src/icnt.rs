//! The SM↔MC crossbar interconnect (Table 1: one crossbar per direction,
//! 15 SMs × 6 MCs, 32 B flits).
//!
//! Each output port delivers one flit per cycle, so a packet of `f` flits
//! occupies its destination port for `f` cycles. Compressing interconnect
//! traffic (the `HW-BDI` and `CABA-BDI` designs, in contrast to
//! `HW-BDI-Mem`) reduces a line transfer from 4 flits to as little as 1 —
//! this is why those designs win on the interconnect-bound applications the
//! paper calls out (bfs, mst; §6.1).

use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use std::collections::VecDeque;
use std::fmt;

/// Flit size in bytes.
pub const FLIT_BYTES: usize = 32;

/// Number of flits for a payload of `bytes` (at least 1).
pub fn flits_for(bytes: usize) -> u32 {
    bytes.div_ceil(FLIT_BYTES).max(1) as u32
}

/// A packet traversing the crossbar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flit<T> {
    payload: T,
    flits_left: u32,
    min_deliver_at: u64,
}

/// Why a crossbar push was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushErrorKind {
    /// The source port does not exist.
    BadSourcePort {
        /// Offending port.
        port: usize,
        /// Number of input ports.
        inputs: usize,
    },
    /// The destination port does not exist.
    BadDestPort {
        /// Offending port.
        port: usize,
        /// Number of output ports.
        outputs: usize,
    },
    /// A packet must carry at least one flit.
    ZeroFlits,
    /// The destination queue is full (back-pressure; retry later).
    QueueFull {
        /// Destination whose queue is full.
        dst: usize,
    },
}

impl fmt::Display for PushErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushErrorKind::BadSourcePort { port, inputs } => {
                write!(
                    f,
                    "source port {port} out of range (crossbar has {inputs} inputs)"
                )
            }
            PushErrorKind::BadDestPort { port, outputs } => {
                write!(
                    f,
                    "destination port {port} out of range (crossbar has {outputs} outputs)"
                )
            }
            PushErrorKind::ZeroFlits => write!(f, "packets need at least one flit"),
            PushErrorKind::QueueFull { dst } => write!(f, "queue for destination {dst} is full"),
        }
    }
}

/// A rejected [`Crossbar::try_push`], returning the payload to the caller so
/// it can be retried or reported. Routing mistakes are surfaced as values the
/// integrity layer can attribute to a component instead of aborting the
/// whole simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushError<T> {
    /// Why the push was rejected.
    pub kind: PushErrorKind,
    /// The packet that was not enqueued.
    pub payload: T,
}

impl<T> PushError<T> {
    /// True when the rejection is ordinary back-pressure (retryable) rather
    /// than a routing bug.
    pub fn is_back_pressure(&self) -> bool {
        matches!(self.kind, PushErrorKind::QueueFull { .. })
    }
}

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)
    }
}

impl<T: fmt::Debug> std::error::Error for PushError<T> {}

/// One direction of the crossbar.
///
/// # Examples
///
/// ```
/// use caba_mem::Crossbar;
/// let mut x: Crossbar<&str> = Crossbar::new(2, 2, 1);
/// x.try_push(0, 1, "hello", 4).unwrap();
/// let mut got = None;
/// for _ in 0..10 {
///     x.cycle();
///     if let Some(p) = x.pop(1) { got = Some(p); break; }
/// }
/// assert_eq!(got, Some("hello"));
/// ```
#[derive(Debug)]
pub struct Crossbar<T> {
    n_in: usize,
    latency: u64,
    now: u64,
    queues: Vec<VecDeque<Flit<T>>>,
    delivered: Vec<VecDeque<T>>,
    queue_capacity: usize,
    total_flits: u64,
    /// Packets currently in output queues (not yet delivered), maintained
    /// so [`Crossbar::cycle`] can skip the all-ports scan when empty.
    queued_pkts: usize,
    /// Packets delivered but not yet popped, so [`Crossbar::idle`] is O(1).
    delivered_pkts: usize,
}

impl<T> Crossbar<T> {
    /// Creates a crossbar with `n_in` inputs, `n_out` outputs and a fixed
    /// traversal `latency` in cycles.
    pub fn new(n_in: usize, n_out: usize, latency: u64) -> Self {
        Crossbar {
            n_in,
            latency,
            now: 0,
            queues: (0..n_out).map(|_| VecDeque::new()).collect(),
            delivered: (0..n_out).map(|_| VecDeque::new()).collect(),
            queue_capacity: 16,
            total_flits: 0,
            queued_pkts: 0,
            delivered_pkts: 0,
        }
    }

    /// Enqueues a packet of `flits` flits from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns a [`PushError`] carrying the payload back when the
    /// destination queue is full (back-pressure), when either port is out of
    /// range, or when `flits` is zero. Routing errors never panic: the
    /// caller (the integrity layer) decides whether to retry, report, or
    /// abort the run with a structured error.
    pub fn try_push(
        &mut self,
        src: usize,
        dst: usize,
        payload: T,
        flits: u32,
    ) -> Result<(), PushError<T>> {
        if src >= self.n_in {
            return Err(PushError {
                kind: PushErrorKind::BadSourcePort {
                    port: src,
                    inputs: self.n_in,
                },
                payload,
            });
        }
        if dst >= self.queues.len() {
            return Err(PushError {
                kind: PushErrorKind::BadDestPort {
                    port: dst,
                    outputs: self.queues.len(),
                },
                payload,
            });
        }
        if flits == 0 {
            return Err(PushError {
                kind: PushErrorKind::ZeroFlits,
                payload,
            });
        }
        if self.queues[dst].len() >= self.queue_capacity {
            return Err(PushError {
                kind: PushErrorKind::QueueFull { dst },
                payload,
            });
        }
        self.queues[dst].push_back(Flit {
            payload,
            flits_left: flits,
            min_deliver_at: self.now + self.latency,
        });
        self.total_flits += flits as u64;
        self.queued_pkts += 1;
        Ok(())
    }

    /// True when a packet to `dst` would currently be accepted. Out-of-range
    /// destinations are simply not acceptable (no panic).
    pub fn can_accept(&self, dst: usize) -> bool {
        self.queues
            .get(dst)
            .is_some_and(|q| q.len() < self.queue_capacity)
    }

    /// Advances one cycle: every output port drains one flit of its head
    /// packet; finished packets become poppable (after the fixed latency).
    pub fn cycle(&mut self) {
        self.now += 1;
        if self.queued_pkts == 0 {
            // Nothing queued at any port: only the clock advances.
            return;
        }
        let now = self.now;
        for (q, d) in self.queues.iter_mut().zip(self.delivered.iter_mut()) {
            if let Some(head) = q.front_mut() {
                if head.flits_left > 0 {
                    head.flits_left -= 1;
                }
                if head.flits_left == 0 && head.min_deliver_at <= now {
                    if let Some(pkt) = q.pop_front() {
                        d.push_back(pkt.payload);
                        self.queued_pkts -= 1;
                        self.delivered_pkts += 1;
                    }
                }
            }
        }
    }

    /// Advances the clock `n` cycles without scanning the ports. An idle
    /// crossbar's [`Crossbar::cycle`] only increments `now`, so this is
    /// bit-identical to `n` cycle calls — the next-event clock uses it to
    /// jump over spans in which nothing is queued anywhere.
    ///
    /// Must only be called while [`Crossbar::idle`] is true.
    pub fn skip(&mut self, n: u64) {
        debug_assert!(self.idle(), "skip on a non-idle crossbar");
        self.now += n;
    }

    /// Pops a delivered packet at output `dst`.
    pub fn pop(&mut self, dst: usize) -> Option<T> {
        let p = self.delivered[dst].pop_front();
        if p.is_some() {
            self.delivered_pkts -= 1;
        }
        p
    }

    /// True when nothing is queued or waiting to be popped. O(1): packet
    /// counts are maintained at push/deliver/pop.
    pub fn idle(&self) -> bool {
        debug_assert_eq!(
            self.queued_pkts == 0 && self.delivered_pkts == 0,
            self.queues.iter().all(|q| q.is_empty()) && self.delivered.iter().all(|d| d.is_empty())
        );
        self.queued_pkts == 0 && self.delivered_pkts == 0
    }

    /// Packets delivered and awaiting [`Crossbar::pop`] across all ports.
    pub fn delivered_pending(&self) -> usize {
        self.delivered_pkts
    }

    /// Total flits pushed since construction.
    pub fn total_flits(&self) -> u64 {
        self.total_flits
    }

    /// Every payload currently inside the crossbar (queued or delivered but
    /// not yet popped), for conservation audits.
    pub fn in_flight(&self) -> impl Iterator<Item = &T> {
        self.queues
            .iter()
            .flat_map(|q| q.iter().map(|f| &f.payload))
            .chain(self.delivered.iter().flat_map(|d| d.iter()))
    }

    /// Packets queued toward output `dst` (0 for out-of-range ports).
    pub fn queued_len(&self, dst: usize) -> usize {
        self.queues.get(dst).map_or(0, |q| q.len())
    }

    /// Per-output queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }
}

impl<T: SnapshotState> Crossbar<T> {
    /// Serializes the clock, every queued/delivered packet (with remaining
    /// flits and delivery deadlines) and the traffic counters. Port counts
    /// and latency are config-derived and not serialized.
    pub fn snap_save(&self, w: &mut SnapshotWriter) {
        w.u64(self.now);
        w.usize(self.queues.len());
        for q in &self.queues {
            w.usize(q.len());
            for f in q {
                f.payload.save(w);
                w.u32(f.flits_left);
                w.u64(f.min_deliver_at);
            }
        }
        for d in &self.delivered {
            d.save(w);
        }
        w.u64(self.total_flits);
    }

    /// Restores crossbar state in place into a crossbar with the same shape.
    /// The derived `queued_pkts` / `delivered_pkts` counts are recomputed.
    ///
    /// # Errors
    ///
    /// Fails when the serialized output-port count disagrees with this
    /// crossbar or the bytes are malformed.
    pub fn snap_load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapError> {
        self.now = r.u64()?;
        let n_out = r.usize()?;
        if n_out != self.queues.len() {
            return Err(SnapError::Invariant {
                what: "crossbar output count mismatch",
            });
        }
        for q in &mut self.queues {
            let n = r.seq_len("crossbar queue", 8)?;
            if n > self.queue_capacity {
                return Err(SnapError::Invariant {
                    what: "crossbar queue exceeds capacity",
                });
            }
            q.clear();
            for _ in 0..n {
                q.push_back(Flit {
                    payload: T::load(r)?,
                    flits_left: r.u32()?,
                    min_deliver_at: r.u64()?,
                });
            }
        }
        for d in &mut self.delivered {
            *d = VecDeque::<T>::load(r)?;
        }
        self.total_flits = r.u64()?;
        self.queued_pkts = self.queues.iter().map(|q| q.len()).sum();
        self.delivered_pkts = self.delivered.iter().map(|d| d.len()).sum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_count_rounds_up() {
        assert_eq!(flits_for(0), 1);
        assert_eq!(flits_for(1), 1);
        assert_eq!(flits_for(32), 1);
        assert_eq!(flits_for(33), 2);
        assert_eq!(flits_for(128), 4);
    }

    #[test]
    fn packet_takes_flits_cycles() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 0);
        x.try_push(0, 0, 42, 4).unwrap();
        for _ in 0..3 {
            x.cycle();
            assert_eq!(x.pop(0), None);
        }
        x.cycle();
        assert_eq!(x.pop(0), Some(42));
    }

    #[test]
    fn latency_adds_delay() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 5);
        x.try_push(0, 0, 1, 1).unwrap();
        let mut at = None;
        for c in 1..=10 {
            x.cycle();
            if x.pop(0).is_some() {
                at = Some(c);
                break;
            }
        }
        assert_eq!(at, Some(5));
    }

    #[test]
    fn output_ports_progress_independently() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 2, 0);
        x.try_push(0, 0, 10, 1).unwrap();
        x.try_push(1, 1, 11, 1).unwrap();
        x.cycle();
        assert_eq!(x.pop(0), Some(10));
        assert_eq!(x.pop(1), Some(11));
        assert!(x.idle());
    }

    #[test]
    fn same_port_serializes() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 1, 0);
        x.try_push(0, 0, 1, 2).unwrap();
        x.try_push(1, 0, 2, 2).unwrap();
        let mut order = Vec::new();
        for _ in 0..6 {
            x.cycle();
            if let Some(p) = x.pop(0) {
                order.push(p);
            }
        }
        assert_eq!(order, vec![1, 2]);
        assert_eq!(x.total_flits(), 4);
    }

    #[test]
    fn back_pressure_on_full_queue() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 0);
        for i in 0..16 {
            assert!(x.try_push(0, 0, i, 1).is_ok());
        }
        assert!(!x.can_accept(0));
        let err = x.try_push(0, 0, 99, 1).unwrap_err();
        assert_eq!(err.kind, PushErrorKind::QueueFull { dst: 0 });
        assert_eq!(err.payload, 99);
        assert!(err.is_back_pressure());
        assert_eq!(x.queued_len(0), x.queue_capacity());
    }

    #[test]
    fn bad_ports_return_typed_errors() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 0);
        let err = x.try_push(5, 0, 7, 1).unwrap_err();
        assert_eq!(
            err.kind,
            PushErrorKind::BadSourcePort { port: 5, inputs: 1 }
        );
        assert_eq!(err.payload, 7);
        assert!(!err.is_back_pressure());
        assert!(err.to_string().contains("source port 5"));

        let err = x.try_push(0, 9, 8, 1).unwrap_err();
        assert_eq!(
            err.kind,
            PushErrorKind::BadDestPort {
                port: 9,
                outputs: 1
            }
        );
        assert!(err.to_string().contains("destination port 9"));
        // Probing a bad port is not a panic either.
        assert!(!x.can_accept(9));
        assert_eq!(x.queued_len(9), 0);
    }

    #[test]
    fn zero_flits_returns_typed_error() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 0);
        let err = x.try_push(0, 0, 1, 0).unwrap_err();
        assert_eq!(err.kind, PushErrorKind::ZeroFlits);
        assert!(err.to_string().contains("at least one flit"));
    }

    #[test]
    fn in_flight_sees_queued_and_delivered() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 2, 0);
        x.try_push(0, 0, 10, 1).unwrap();
        x.try_push(1, 1, 11, 2).unwrap();
        assert_eq!(x.in_flight().count(), 2);
        x.cycle(); // 10 delivered, 11 still has a flit left
        let mut seen: Vec<u32> = x.in_flight().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![10, 11]);
        assert_eq!(x.pop(0), Some(10));
        assert_eq!(x.in_flight().count(), 1);
    }
}
