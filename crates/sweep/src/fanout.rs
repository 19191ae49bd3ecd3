//! The one ordered fan-out: workers claim item indices from a shared
//! counter, and each result reaches the caller's sink **in input order, as
//! soon as its prefix is complete**. [`stream_cells`](crate::stream_cells)
//! runs a list's store misses through it, for `Sweep::run` and
//! `caba-serve`'s `/figure` alike, so neither can reorder cells whatever
//! the worker count or completion order.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Finished items waiting for their turn, plus whether a worker died.
struct Pending<T> {
    slots: Vec<Option<T>>,
    worker_panicked: bool,
}

/// Wakes the consumer when a worker unwinds, so the scope can join the
/// workers and re-raise instead of waiting for a slot that never fills.
struct WakeOnPanic<'a, T> {
    pending: &'a Mutex<Pending<T>>,
    ready: &'a Condvar,
    stop: &'a AtomicBool,
}

impl<T> Drop for WakeOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.stop.store(true, Ordering::Relaxed);
            if let Ok(mut p) = self.pending.lock() {
                p.worker_panicked = true;
            }
            self.ready.notify_all();
        }
    }
}

/// Runs `work(0..n)` on up to `jobs` worker threads and hands each value
/// to `sink(i, value)` on the calling thread, for `i` ascending. `work(i)`
/// does everything that must happen when item `i` *finishes* (journal,
/// persist); `sink` does what must happen *in order* (collect, stream).
/// One worker (or one item) needs no thread: the caller alternates `work`
/// and `sink` itself.
///
/// # Errors
///
/// The first `sink` error: delivery stops, workers finish the item they
/// hold and claim no more.
///
/// # Panics
///
/// A panic in `work` propagates once the remaining workers have stopped.
pub(crate) fn fan_out<T: Send, E>(
    n: usize,
    jobs: usize,
    work: impl Fn(usize) -> T + Sync,
    mut sink: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E> {
    if jobs <= 1 || n <= 1 {
        return (0..n).try_for_each(|i| sink(i, work(i)));
    }
    let pending = Mutex::new(Pending {
        slots: (0..n).map(|_| None).collect(),
        worker_panicked: false,
    });
    let ready = Condvar::new();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| {
                let _wake = WakeOnPanic {
                    pending: &pending,
                    ready: &ready,
                    stop: &stop,
                };
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = work(i);
                    pending.lock().expect("pending lock").slots[i] = Some(value);
                    ready.notify_all();
                }
            });
        }
        for i in 0..n {
            let value = {
                let mut p = pending.lock().expect("pending lock");
                loop {
                    if let Some(v) = p.slots[i].take() {
                        break v;
                    }
                    if p.worker_panicked {
                        // The scope re-raises after joining the workers.
                        return Ok(());
                    }
                    p = ready.wait(p).expect("pending wait");
                }
            };
            if let Err(e) = sink(i, value) {
                stop.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::Barrier;

    #[test]
    fn reverse_completion_still_delivers_in_input_order() {
        const N: usize = 4;
        // Item i may only finish after item i + 1 has passed its last
        // gate, so slots fill from the back; one worker per item.
        let gates: Vec<Barrier> = (0..N).map(|_| Barrier::new(2)).collect();
        let mut seen = Vec::new();
        fan_out(
            N,
            N,
            |i| {
                if i + 1 < N {
                    gates[i + 1].wait();
                }
                if i > 0 {
                    gates[i].wait();
                }
                i * 10
            },
            |i, v| {
                seen.push((i, v));
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        assert_eq!(seen, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn a_finished_prefix_streams_while_later_items_still_run() {
        // Item 1 cannot finish until the sink has received item 0, so a
        // collect-then-deliver executor would deadlock here.
        let delivered_0 = Barrier::new(2);
        let mut seen = Vec::new();
        fan_out(
            2,
            2,
            |i| {
                if i == 1 {
                    delivered_0.wait();
                }
                i
            },
            |i, _| {
                seen.push(i);
                if i == 0 {
                    delivered_0.wait();
                }
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn a_sink_error_stops_delivery_and_releases_the_workers() {
        // Items past the failing one are held in flight until the sink has
        // erred, so the error arrives while both workers are busy; fan_out
        // returning at all proves they were joined, not left parked.
        let erred = AtomicBool::new(false);
        let mut delivered = Vec::new();
        let err = fan_out(
            64,
            2,
            |i| {
                while i > 1 && !erred.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                i
            },
            |i, _| {
                delivered.push(i);
                if i == 1 {
                    erred.store(true, Ordering::Release);
                    return Err("sink full");
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, "sink full");
        assert_eq!(
            delivered,
            vec![0, 1],
            "nothing is delivered after the error"
        );
    }

    #[test]
    #[should_panic]
    fn a_panicking_work_item_propagates() {
        let _ = fan_out(
            3,
            2,
            |i| {
                if i == 1 {
                    panic!("work item {i} blew up");
                }
                i
            },
            |_, _| Ok::<(), Infallible>(()),
        );
    }

    #[test]
    fn one_job_alternates_work_and_sink_on_the_caller_in_input_order() {
        let caller = std::thread::current().id();
        let calls = Mutex::new(Vec::new());
        fan_out(
            3,
            1,
            |i| {
                assert_eq!(std::thread::current().id(), caller);
                calls.lock().unwrap().push(("work", i));
                i * 10
            },
            |i, v| {
                calls.lock().unwrap().push(("sink", v / 10));
                assert_eq!(v, i * 10);
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        let order = [0, 1, 2].map(|i| [("work", i), ("sink", i)]).concat();
        assert_eq!(*calls.lock().unwrap(), order);
    }

    #[test]
    fn one_job_never_starts_an_item_after_a_sink_error() {
        let started = AtomicUsize::new(0);
        let err = fan_out(
            8,
            1,
            |i| started.fetch_add(1, Ordering::Relaxed) + i,
            |i, _| if i == 2 { Err("sink full") } else { Ok(()) },
        )
        .unwrap_err();
        assert_eq!(err, "sink full");
        assert_eq!(started.load(Ordering::Relaxed), 3, "items 0..=2 only");
    }

    #[test]
    #[should_panic(expected = "work item 1 blew up")]
    fn one_job_propagates_a_work_panic() {
        let _ = fan_out(
            3,
            1,
            |i| {
                if i == 1 {
                    panic!("work item {i} blew up");
                }
                i
            },
            |_, _| Ok::<(), Infallible>(()),
        );
    }

    #[test]
    fn empty_input_and_oversized_job_counts_are_fine() {
        let mut seen = Vec::new();
        fan_out(
            0,
            8,
            |i| i,
            |i, _| {
                seen.push(i);
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        assert!(seen.is_empty());
        fan_out(
            2,
            0,
            |i| i,
            |i, _| {
                seen.push(i);
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1]);
    }
}
