//! Backpressure battery: full-queue behavior under both overflow
//! policies, exact stats accounting against hand-written schedules, and
//! a property test driving random submit/step/advance interleavings
//! against a sequential model. Synchronization is by observable state
//! (counters, futures), never by sleeping.

mod common;

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use common::ModelMap;
use proptest::prelude::*;
use service::exec::poll_now;
use service::{
    BatchedService, FlushPolicy, MockClock, Op, OverflowPolicy, ServiceConfig, ServiceStats, Step,
    SubmitError,
};
use sharded::ConcurrentMap;

const HOUR: Duration = Duration::from_secs(3600);

fn manual_cfg(config: ServiceConfig) -> (BatchedService<ModelMap>, Arc<MockClock>) {
    let clock = Arc::new(MockClock::new());
    let svc = BatchedService::with_clock(ModelMap::new(), config, clock.clone());
    (svc, clock)
}

/// The parked-then-flushed regression: a `Block` submitter parked on a
/// full queue must make progress once a flush frees space — i.e. the
/// flush path must wake `not_full` waiters. (An early draft that only
/// notified on shutdown deadlocks exactly here.)
#[test]
fn blocked_submitter_progresses_after_a_flush_drains_space() {
    let (svc, clock) = manual_cfg(
        ServiceConfig::new(FlushPolicy::new(2, HOUR))
            .with_capacity(2)
            .with_overflow(OverflowPolicy::Block),
    );
    let f0 = svc.submit(Op::Insert(1, 10)).unwrap();
    let f1 = svc.submit(Op::Insert(2, 20)).unwrap();
    assert_eq!(svc.stats().occupancy, 2, "queue full");

    // A real thread submits into the full queue and parks.
    let svc = Arc::new(svc);
    let submitter = {
        let svc = svc.clone();
        std::thread::spawn(move || svc.submit(Op::Insert(3, 30)).unwrap().wait())
    };
    // Wait for it to actually park — observable as the `blocked`
    // counter, which is incremented before the condvar wait. A yield
    // loop on a counter is state-based waiting, not a timing guess.
    while svc.stats().blocked < 1 {
        std::thread::yield_now();
    }

    // One size-triggered flush frees both slots; the parked submitter
    // must enqueue and (after the next flushes) complete.
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 2,
            trigger: service::FlushTrigger::Size
        }
    );
    assert_eq!(f0.wait(), None);
    assert_eq!(f1.wait(), None);
    // Wait (again on observable state) for the unparked submitter to
    // actually enqueue its op, then fire it via the deadline trigger —
    // one op is short of the size trigger.
    while svc.stats().submitted < 3 {
        std::thread::yield_now();
    }
    clock.advance(HOUR);
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 1,
            trigger: service::FlushTrigger::Deadline
        }
    );
    assert_eq!(submitter.join().unwrap(), None);
    let mut svc = Arc::into_inner(svc).expect("submitter thread joined");
    assert_eq!(svc.stats().blocked, 1);
    assert_eq!(svc.map().len(), 3);
    svc.shutdown();
}

#[test]
fn shed_returns_overloaded_without_corrupting_the_queue() {
    let (mut svc, _clock) = manual_cfg(
        ServiceConfig::new(FlushPolicy::new(2, HOUR))
            .with_capacity(2)
            .with_overflow(OverflowPolicy::Shed),
    );
    let mut f0 = svc.submit(Op::Insert(1, 10)).unwrap();
    let mut f1 = svc.submit(Op::Insert(2, 20)).unwrap();
    // Queue full: the next two submits shed, immediately, and the
    // queued requests are untouched.
    assert_eq!(
        svc.submit(Op::Insert(3, 30)).unwrap_err(),
        SubmitError::Overloaded
    );
    assert_eq!(svc.submit(Op::Get(1)).unwrap_err(), SubmitError::Overloaded);
    let stats = svc.stats();
    assert_eq!(stats.shed, 2);
    assert_eq!(stats.occupancy, 2, "shedding did not consume queue slots");
    assert!(poll_now(&mut f0).is_pending());
    assert!(poll_now(&mut f1).is_pending());

    // After a flush the queue accepts again, and the flushed responses
    // are exactly the two that were accepted — the shed ops left no
    // trace in the map.
    assert!(matches!(svc.step(), Step::Flushed { len: 2, .. }));
    assert_eq!(poll_now(&mut f0), std::task::Poll::Ready(None));
    assert_eq!(poll_now(&mut f1), std::task::Poll::Ready(None));
    let f2 = svc.submit(Op::Get(1)).unwrap();
    svc.shutdown();
    assert_eq!(f2.wait(), Some(10), "accepted-after-shed op sees the map");
    assert_eq!(svc.stats().shed, 2, "no further sheds");
}

/// Exact stats accounting for a hand-written schedule: every counter in
/// [`ServiceStats`] matches the arithmetic of the script.
#[test]
fn stats_match_the_schedule_exactly() {
    let (mut svc, clock) = manual_cfg(
        ServiceConfig::new(FlushPolicy::new(3, Duration::from_micros(10)))
            .with_capacity(4)
            .with_overflow(OverflowPolicy::Shed),
    );
    // 3 submits -> size flush of 3.
    let mut futs = Vec::new();
    for i in 0..3 {
        futs.push(svc.submit(Op::Insert(i, i)).unwrap());
    }
    assert!(matches!(svc.step(), Step::Flushed { len: 3, .. }));
    // 2 submits, deadline passes -> deadline flush of 2.
    for i in 0..2 {
        futs.push(svc.submit(Op::Get(i)).unwrap());
    }
    clock.advance(Duration::from_micros(10));
    assert!(matches!(svc.step(), Step::Flushed { len: 2, .. }));
    // Fill to capacity (4), shed one, then shut down: the drain first
    // satisfies the size trigger (3 of the 4), and only the last
    // straggler goes out as a drain flush — size keeps precedence even
    // on a closed queue.
    for i in 0..4 {
        futs.push(svc.submit(Op::Remove(i)).unwrap());
    }
    assert_eq!(svc.submit(Op::Get(0)).unwrap_err(), SubmitError::Overloaded);
    svc.shutdown();
    for f in futs {
        f.wait();
    }
    assert_eq!(
        svc.stats(),
        ServiceStats {
            submitted: 9,
            completed: 9,
            shed: 1,
            blocked: 0,
            flushes: 4,
            size_flushes: 2,
            deadline_flushes: 1,
            drain_flushes: 1,
            batched_ops: 9,
            flusher_wakeups: 0,
            occupancy: 0,
            capacity: 4,
        }
    );
}

#[derive(Debug, Clone)]
enum Action {
    Submit(Op),
    Step,
    Advance(u64),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Action::Submit(Op::Insert(k % 16, v % 256))),
        any::<u64>().prop_map(|k| Action::Submit(Op::Remove(k % 16))),
        any::<u64>().prop_map(|k| Action::Submit(Op::Get(k % 16))),
        Just(Action::Step),
        any::<u64>().prop_map(|ns| Action::Advance(ns % 200_000)),
    ]
}

const CAPACITY: usize = 4;
const MAX_BATCH: usize = 3;
const DELAY_NS: u64 = 50_000;

fn apply_model(model: &mut BTreeMap<u64, u64>, op: Op) -> Option<u64> {
    match op {
        Op::Get(k) => model.get(&k).copied(),
        Op::Insert(k, v) => model.insert(k, v),
        Op::Remove(k) => model.remove(&k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random submit/step/advance interleavings under the `Shed` policy
    /// match a sequential model that does NOT re-implement the trigger
    /// logic: it only mirrors the queue discipline. Whatever the service
    /// reports flushed is replayed in order against a `BTreeMap`, and
    /// every flushed future must be ready with the model's answer;
    /// whatever sheds must shed exactly when the model queue is full.
    #[test]
    fn random_interleavings_match_sequential_model(actions in proptest::collection::vec(action_strategy(), 1..250)) {
        let clock = Arc::new(MockClock::new());
        let mut svc = BatchedService::with_clock(
            ModelMap::new(),
            ServiceConfig::new(FlushPolicy::new(MAX_BATCH, Duration::from_nanos(DELAY_NS)))
                .with_capacity(CAPACITY)
                .with_overflow(OverflowPolicy::Shed),
            clock.clone(),
        );
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut queued: VecDeque<(Op, service::ResponseFuture)> = VecDeque::new();
        let mut expect_shed = 0u64;
        for action in actions {
            match action {
                Action::Submit(op) => {
                    let res = svc.submit(op);
                    if queued.len() == CAPACITY {
                        prop_assert!(res.is_err());
                        prop_assert_eq!(res.unwrap_err(), SubmitError::Overloaded);
                        expect_shed += 1;
                    } else {
                        prop_assert!(res.is_ok());
                        queued.push_back((op, res.unwrap()));
                    }
                }
                Action::Advance(ns) => clock.advance_ns(ns),
                Action::Step => {
                    match svc.step() {
                        Step::Flushed { len, trigger: _ } => {
                            // Replay exactly what the service claims it
                            // flushed; each future must already hold the
                            // model's answer.
                            prop_assert!(len <= queued.len());
                            for _ in 0..len {
                                let (op, mut fut) = queued.pop_front().expect("len checked");
                                let want = apply_model(&mut model, op);
                                let got = poll_now(&mut fut);
                                prop_assert_eq!(got, std::task::Poll::Ready(want));
                            }
                        }
                        Step::Idle { .. } => {
                            // Idle with a full-size batch queued would be
                            // a trigger bug.
                            prop_assert!(queued.len() < MAX_BATCH);
                        }
                    }
                }
            }
        }
        // Shutdown drains the remainder in order.
        svc.shutdown();
        for (op, mut fut) in queued {
            let want = apply_model(&mut model, op);
            prop_assert_eq!(poll_now(&mut fut), std::task::Poll::Ready(want));
        }
        prop_assert_eq!(svc.stats().shed, expect_shed);
        let settled: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(svc.map().contents(), settled);
    }
}
