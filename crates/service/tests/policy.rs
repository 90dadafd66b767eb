//! Deterministic flush-policy battery: every trigger path driven by
//! hand under a `MockClock`, with manual [`BatchedService::step`] calls
//! and [`exec::poll_now`] observations — no flusher thread, no sleeps,
//! no timing races. "The deadline fires exactly at `max_delay`" is an
//! assertable schedule here, down to the nanosecond.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::ModelMap;
use service::exec::poll_now;
use service::{BatchedService, FlushPolicy, FlushTrigger, MockClock, Op, ServiceConfig, Step};
use sharded::ConcurrentMap;

const HOUR: Duration = Duration::from_secs(3600);

fn manual(policy: FlushPolicy) -> (BatchedService<ModelMap>, Arc<MockClock>) {
    let clock = Arc::new(MockClock::new());
    let svc =
        BatchedService::with_clock(ModelMap::new(), ServiceConfig::new(policy), clock.clone());
    (svc, clock)
}

#[test]
fn size_trigger_fires_without_time_advancing() {
    let (mut svc, _clock) = manual(FlushPolicy::new(4, HOUR));
    let mut futs: Vec<_> = (0..3)
        .map(|i| svc.submit(Op::Insert(i, i * 10)).unwrap())
        .collect();
    // Three of four queued, nothing aged: idle, deadline a full hour out.
    assert_eq!(
        svc.step(),
        Step::Idle {
            until_deadline_ns: Some(HOUR.as_nanos() as u64)
        }
    );
    for f in &mut futs {
        assert!(poll_now(f).is_pending(), "no flush yet, future pending");
    }
    // The fourth submission fills the batch; the very next step flushes
    // by size with the clock never having moved off t=0.
    futs.push(svc.submit(Op::Insert(3, 30)).unwrap());
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 4,
            trigger: FlushTrigger::Size
        }
    );
    for (i, f) in futs.iter_mut().enumerate() {
        assert_eq!(
            poll_now(f),
            std::task::Poll::Ready(None),
            "fresh insert {i}"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.size_flushes, 1);
    assert_eq!(stats.deadline_flushes, 0);
    let inserts: Vec<_> = (0..4).map(|i| Op::Insert(i, i * 10)).collect();
    assert_eq!(svc.map().calls(), inserts, "four point inserts");
    svc.shutdown();
}

#[test]
fn deadline_fires_partial_batch_exactly_at_max_delay() {
    let delay = Duration::from_micros(100);
    let (mut svc, clock) = manual(FlushPolicy::new(100, delay));
    let a = svc.submit(Op::Insert(1, 10)).unwrap();
    let b = svc.submit(Op::Get(1)).unwrap();
    // One nanosecond shy of the deadline: still idle.
    clock.advance_ns(delay.as_nanos() as u64 - 1);
    assert_eq!(
        svc.step(),
        Step::Idle {
            until_deadline_ns: Some(1)
        }
    );
    // The final nanosecond lands the oldest request exactly on
    // `max_delay`: the partial batch (2 of 100) flushes.
    clock.advance_ns(1);
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 2,
            trigger: FlushTrigger::Deadline
        }
    );
    assert_eq!(a.wait(), None);
    assert_eq!(b.wait(), Some(10), "get sees the insert ahead of it");
    assert_eq!(svc.stats().deadline_flushes, 1);
    svc.shutdown();
}

#[test]
fn deadline_only_policy_builds_and_flushes_by_deadline() {
    // `usize::MAX` switches the size trigger off. The default capacity,
    // four batches deep, saturates instead of overflowing.
    let delay = Duration::from_micros(100);
    let (mut svc, clock) = manual(FlushPolicy::new(usize::MAX, delay));
    let a = svc.submit(Op::Insert(1, 10)).unwrap();
    let b = svc.submit(Op::Get(1)).unwrap();
    clock.advance(delay);
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 2,
            trigger: FlushTrigger::Deadline
        }
    );
    assert_eq!(a.wait(), None);
    assert_eq!(b.wait(), Some(10));
    assert_eq!(svc.stats().size_flushes, 0);
    svc.shutdown();
}

#[test]
fn deadline_rearms_from_next_enqueue_not_from_flush() {
    let delay_ns = 100_000; // 100 µs
    let (mut svc, clock) = manual(FlushPolicy::new(100, Duration::from_nanos(delay_ns)));
    // First request at t=0 flushes at t=delay.
    let a = svc.submit(Op::Insert(1, 1)).unwrap();
    clock.advance_ns(delay_ns);
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 1,
            trigger: FlushTrigger::Deadline
        }
    );
    assert_eq!(a.wait(), None);
    // Second request enqueued at t = delay + 50µs. If the deadline
    // re-armed from the *flush* (t=delay), it would fire at t=2·delay,
    // i.e. 50µs from now. It must instead track this request's enqueue:
    // a full `delay` from now.
    clock.advance_ns(50_000);
    let b = svc.submit(Op::Insert(2, 2)).unwrap();
    assert_eq!(
        svc.step(),
        Step::Idle {
            until_deadline_ns: Some(delay_ns)
        }
    );
    clock.advance_ns(delay_ns - 1);
    assert_eq!(
        svc.step(),
        Step::Idle {
            until_deadline_ns: Some(1)
        }
    );
    clock.advance_ns(1);
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 1,
            trigger: FlushTrigger::Deadline
        }
    );
    assert_eq!(b.wait(), None);
    svc.shutdown();
}

#[test]
fn passthrough_policy_degenerates_to_per_op_flushes() {
    // max_batch = 1: every queued request satisfies the size trigger on
    // its own; max_delay = 0 never even gets consulted (size wins the
    // precedence order).
    let (mut svc, _clock) = manual(FlushPolicy::new(1, Duration::ZERO));
    let ops = [Op::Insert(7, 70), Op::Get(7), Op::Remove(7), Op::Get(7)];
    let expected = [None, Some(70), Some(70), None];
    for (op, want) in ops.into_iter().zip(expected) {
        let f = svc.submit(op).unwrap();
        assert_eq!(
            svc.step(),
            Step::Flushed {
                len: 1,
                trigger: FlushTrigger::Size
            }
        );
        assert_eq!(f.wait(), want);
    }
    let stats = svc.stats();
    assert_eq!(stats.flushes, 4, "one flush per op");
    assert_eq!(stats.batched_ops, 4);
    assert_eq!(stats.size_flushes, 4);
    svc.shutdown();
}

#[test]
fn zero_delay_with_large_batch_flushes_whatever_is_queued() {
    // max_delay = 0 with a roomy max_batch: any queued request is
    // instantly "aged", so each step drains the queue via the deadline
    // trigger — the other passthrough-like corner.
    let (mut svc, _clock) = manual(FlushPolicy::new(100, Duration::ZERO));
    let a = svc.submit(Op::Insert(1, 1)).unwrap();
    let b = svc.submit(Op::Insert(2, 2)).unwrap();
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 2,
            trigger: FlushTrigger::Deadline
        }
    );
    assert_eq!(a.wait(), None);
    assert_eq!(b.wait(), None);
    assert_eq!(
        svc.step(),
        Step::Idle {
            until_deadline_ns: None
        }
    );
    svc.shutdown();
}

#[test]
fn size_flushes_exactly_max_batch_and_leaves_the_rest_queued() {
    let (mut svc, clock) = manual(FlushPolicy::new(4, HOUR));
    let mut futs: Vec<_> = (0..10)
        .map(|i| svc.submit(Op::Insert(i, i)).unwrap())
        .collect();
    // Ten queued, max_batch 4: two full size-triggered batches...
    for _ in 0..2 {
        assert_eq!(
            svc.step(),
            Step::Flushed {
                len: 4,
                trigger: FlushTrigger::Size
            }
        );
    }
    // ...then two stragglers, short of the size trigger, that wait for
    // the deadline of the *seventh* submission (the oldest remaining).
    assert!(matches!(svc.step(), Step::Idle { .. }));
    for f in futs.iter_mut().take(8) {
        assert!(poll_now(f).is_ready());
    }
    for f in futs.iter_mut().skip(8) {
        assert!(poll_now(f).is_pending());
    }
    clock.advance(HOUR);
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 2,
            trigger: FlushTrigger::Deadline
        }
    );
    for f in futs.iter_mut().skip(8) {
        assert!(poll_now(f).is_ready());
    }
    let stats = svc.stats();
    assert_eq!(stats.size_flushes, 2);
    assert_eq!(stats.deadline_flushes, 1);
    assert_eq!(stats.batched_ops, 10);
    assert_eq!(svc.map().len(), 10);
    svc.shutdown();
}

/// Requests land in per-flush slabs: after a deadline flush empties the
/// queue, `3 × max_batch + 1` submissions open four slabs, flush as
/// 8, 8, 8, 1, and every future reads its own index — each insert
/// answers with the distinct value its key held before.
#[test]
fn responses_keep_their_index_across_slab_boundaries() {
    let delay = Duration::from_micros(100);
    let (mut svc, clock) = manual(FlushPolicy::new(8, delay));
    for k in 0..25 {
        svc.map().insert(k, 1000 + k);
    }
    let partial: Vec<_> = (0..3).map(|k| svc.submit(Op::Get(k)).unwrap()).collect();
    clock.advance(delay);
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 3,
            trigger: FlushTrigger::Deadline
        }
    );
    for (k, f) in (0..).zip(partial) {
        assert_eq!(f.wait(), Some(1000 + k));
    }
    let mut futs: Vec<_> = (0..25)
        .map(|k| svc.submit(Op::Insert(k, 2000 + k)).unwrap())
        .collect();
    let mut lens = Vec::new();
    while let Step::Flushed { len, trigger } = svc.step() {
        assert_eq!(trigger, FlushTrigger::Size);
        lens.push(len);
        let flushed: usize = lens.iter().sum();
        for (i, f) in futs.iter_mut().enumerate() {
            assert_eq!(poll_now(f).is_ready(), i < flushed, "future {i}");
        }
    }
    clock.advance(delay);
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 1,
            trigger: FlushTrigger::Deadline
        }
    );
    lens.push(1);
    assert_eq!(lens, [8, 8, 8, 1]);
    for (k, f) in (0..).zip(futs) {
        assert_eq!(f.wait(), Some(1000 + k), "insert {k}");
    }
    svc.shutdown();
}

#[test]
fn shutdown_drains_pending_requests_with_drain_trigger() {
    let (mut svc, _clock) = manual(FlushPolicy::new(100, HOUR));
    let futs: Vec<_> = (0..3)
        .map(|i| svc.submit(Op::Insert(i, i + 100)).unwrap())
        .collect();
    assert!(matches!(svc.step(), Step::Idle { .. }));
    // Shutdown must not strand accepted requests: they drain (ignoring
    // the hour-long deadline) and complete.
    svc.shutdown();
    for (i, f) in futs.into_iter().enumerate() {
        assert_eq!(f.wait(), None, "draining insert {i}");
    }
    let stats = svc.stats();
    assert_eq!(stats.drain_flushes, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(svc.map().len(), 3);
}

#[test]
fn mixed_kinds_run_as_point_calls_in_queue_order() {
    let (mut svc, _clock) = manual(FlushPolicy::new(8, HOUR));
    let ops = [
        Op::Insert(1, 10),
        Op::Insert(2, 20),
        Op::Get(1),
        Op::Get(3),
        Op::Insert(1, 11),
        Op::Remove(2),
        Op::Get(1),
        Op::Get(2),
    ];
    let [f0, f1, f2, f3, f4, f5, f6, f7] = ops.map(|op| svc.submit(op).unwrap());
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 8,
            trigger: FlushTrigger::Size
        }
    );
    assert_eq!(f0.wait(), None);
    assert_eq!(f1.wait(), None);
    assert_eq!(f2.wait(), Some(10));
    assert_eq!(f3.wait(), None);
    assert_eq!(f4.wait(), Some(10), "second insert displaces the first");
    assert_eq!(f5.wait(), Some(20));
    assert_eq!(f6.wait(), Some(11));
    assert_eq!(f7.wait(), None, "get after the remove in queue order");
    assert_eq!(
        svc.map().calls(),
        ops,
        "one point call per op, in queue order"
    );
    svc.shutdown();
}

/// A `max_delay` of 2^64 ns (about 584.5 years) does not fit the
/// flusher's u64 nanoseconds: it must saturate to "never", not wrap to a
/// deadline that fires at once.
#[test]
fn a_deadline_beyond_u64_nanoseconds_never_fires() {
    let (mut svc, _clock) = manual(FlushPolicy::new(
        8,
        Duration::new(18_446_744_073, 709_551_616),
    ));
    let f = svc.submit(Op::Insert(1, 1)).unwrap();
    assert_eq!(
        svc.step(),
        Step::Idle {
            until_deadline_ns: Some(u64::MAX)
        }
    );
    svc.shutdown();
    assert_eq!(f.wait(), None);
}

#[test]
fn a_saturated_deadline_still_lets_the_size_trigger_fire() {
    let (mut svc, clock) = manual(FlushPolicy::new(
        2,
        Duration::new(18_446_744_073, 709_551_616),
    ));
    let hour_ns = HOUR.as_nanos() as u64;
    clock.advance(HOUR);
    let mut first = svc.submit(Op::Insert(1, 10)).unwrap();
    // Opened at one hour, the deadline saturates at u64::MAX instead of
    // wrapping round to just under an hour, which would fire at once.
    assert_eq!(
        svc.step(),
        Step::Idle {
            until_deadline_ns: Some(u64::MAX - hour_ns)
        }
    );
    clock.advance(HOUR);
    assert_eq!(
        svc.step(),
        Step::Idle {
            until_deadline_ns: Some(u64::MAX - 2 * hour_ns)
        }
    );
    let mut second = svc.submit(Op::Get(1)).unwrap();
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 2,
            trigger: FlushTrigger::Size
        }
    );
    assert_eq!(poll_now(&mut first), std::task::Poll::Ready(None));
    assert_eq!(poll_now(&mut second), std::task::Poll::Ready(Some(10)));
    svc.shutdown();
}
