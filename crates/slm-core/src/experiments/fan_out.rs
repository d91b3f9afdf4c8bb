//! The one observed fan-out behind every per-cell matrix and every
//! sharded campaign: `defense.cell`, `fault.cell`, `fault.shard` and
//! `cpa.shard` all run through [`fan_out`].

use slm_fabric::FabricError;
use slm_obs::Obs;

/// Maps `run` over `items` on `workers` threads (0 = machine
/// parallelism) under the four rules that keep results and merged
/// metrics bit-identical at any worker count:
///
/// - **fork**: each item records into its own `obs.fork()`, which
///   `run` receives;
/// - **span**: the item runs inside one `span` on that fork, and the
///   fork is snapshotted after the span closes;
/// - **in-order fold**: the snapshots are absorbed into `obs` in item
///   order, never in completion order;
/// - **first error**: the first `Err` in item order is returned, even
///   when a later item failed earlier on another worker. The frames of
///   the items before it are absorbed; nothing after it is.
pub(crate) fn fan_out<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    span: &'static str,
    obs: &Obs,
    run: impl Fn(&T, &Obs) -> Result<R, FabricError> + Sync,
) -> Result<Vec<R>, FabricError> {
    slm_par::par_map(workers, items, |item| {
        let fork = obs.fork();
        let outcome = {
            let _span = fork.span(span);
            run(item, &fork)
        };
        (outcome, fork.snapshot())
    })
    .into_iter()
    .map(|(outcome, frame)| {
        let value = outcome?;
        obs.absorb(&frame);
        Ok(value)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Waits (bounded, so a serial pool cannot hang) until a later item
    /// signals that it has finished; says whether it did.
    fn later_item_finished(signal: &Mutex<Receiver<()>>) -> bool {
        let signal = signal.lock().expect("signal receiver poisoned");
        signal.recv_timeout(Duration::from_secs(10)).is_ok()
    }

    #[test]
    fn an_items_own_spans_nest_inside_its_span() {
        let obs = Obs::manual();
        let out = fan_out(2, &[0u32, 1, 2], "item", &obs, |&i, fork| {
            let _inner = fork.span("inner");
            Ok(i * 10)
        })
        .unwrap();
        assert_eq!(out, [0, 10, 20]);
        let frame = obs.snapshot();
        let (item, inner) = (frame.spans["item"], frame.spans["inner"]);
        assert_eq!((item.count, inner.count), (3, 3));
        // Each fork's logical clock ticks once per read: the item span
        // reads it at open (0) and close (3), around the inner span's
        // two reads (1, 2). An inner span outside it would leave the
        // item span one tick long.
        assert_eq!((item.total_ns, item.max_ns), (9, 3));
        assert_eq!((inner.total_ns, inner.max_ns), (3, 1));
    }

    #[test]
    fn the_first_error_in_item_order_wins() {
        let (done, signal) = channel();
        let signal = Mutex::new(signal);
        let obs = Obs::manual();
        let items: Vec<usize> = (0..8).collect();
        let fail = |depth| Err(FabricError::CaptureOverflow { depth });
        let out = fan_out(2, &items, "item", &obs, |&i, fork| {
            fork.incr("ran");
            match i {
                // Item 1 fails only after item 5 has failed on the
                // other worker.
                1 => {
                    assert!(later_item_finished(&signal), "item 5 never ran");
                    fail(1)
                }
                5 => {
                    done.send(()).expect("item 1 is waiting");
                    fail(5)
                }
                _ => Ok(i),
            }
        });
        assert_eq!(out, Err(FabricError::CaptureOverflow { depth: 1 }));
        // Only item 0's frame precedes the first error.
        assert_eq!(obs.snapshot().counter("ran"), 1);
    }

    #[test]
    fn a_gauge_every_item_sets_ends_at_the_last_items_value() {
        let (done, signal) = channel();
        let signal = Mutex::new(signal);
        let obs = Obs::manual();
        fan_out(2, &[0u32, 1, 2], "item", &obs, |&i, fork| {
            fork.gauge("g", f64::from(i));
            // Item 0 finishes last, after item 2 on the other worker.
            match i {
                0 => assert!(later_item_finished(&signal), "item 2 never ran"),
                2 => done.send(()).expect("item 0 is waiting"),
                _ => {}
            }
            Ok(())
        })
        .unwrap();
        let g = *obs.snapshot().gauge("g").unwrap();
        assert_eq!((g.last, g.count), (2.0, 3));
    }
}
