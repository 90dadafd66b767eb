//! Readers never wait for a writer: the progress of `HopMap::get` as a
//! test.
//!
//! `Table::edit` calls [`pause`] between its slot stores and its word
//! store. A thread that armed a bucket with [`arm`] parks there on its
//! next edit of that bucket until the test releases it; every other
//! thread passes through. For each edit kind (a new-key insert, an
//! in-place update, a remove and a displacement move) a writer is parked
//! mid-edit, and another thread's gets of the bucket's keys must all
//! finish within a watchdog, each returning the value from before the
//! edit (an update may also show its new value).

use std::cell::RefCell;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use super::IdentityBuild;
use crate::{HopMap, HOP_RANGE};

/// How long any one wait may take before the test fails (longer when
/// interpreted).
const WATCHDOG: Duration = Duration::from_secs(if cfg!(miri) { 600 } else { 20 });

/// Gets a reader makes while the writer is parked.
const GETS: usize = if cfg!(miri) { 100 } else { 10_000 };

/// A parked writer and the test that holds it.
#[derive(Default)]
struct Gate {
    /// `(parked, released)`.
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn park(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = true;
        self.cv.notify_all();
        // Outwaits the reader's watchdog, after which the test releases it.
        let (s, _) = self
            .cv
            .wait_timeout_while(s, 2 * WATCHDOG, |s| !s.1)
            .unwrap();
        assert!(s.1, "parked writer never released");
    }

    /// Waits until the armed thread parks.
    fn wait_parked(&self) {
        let s = self.state.lock().unwrap();
        let (s, _) = self.cv.wait_timeout_while(s, WATCHDOG, |s| !s.0).unwrap();
        assert!(s.0, "the writer never reached its pause point");
    }

    /// Lets the parked thread go on.
    fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

thread_local! {
    static ARMED: RefCell<Option<(usize, Arc<Gate>)>> = const { RefCell::new(None) };
}

/// Parks the calling thread in its next edit of bucket `h`, until `gate`
/// is released.
fn arm(h: usize, gate: Arc<Gate>) {
    ARMED.with(|a| *a.borrow_mut() = Some((h, gate)));
}

/// The pause point itself (see the `pause!` macro in `map`).
pub(crate) fn pause(h: usize) {
    let gate = ARMED
        .try_with(|a| {
            let mut a = a.borrow_mut();
            match &*a {
                Some((armed, _)) if *armed == h => a.take().map(|(_, g)| g),
                _ => None,
            }
        })
        .ok()
        .flatten();
    if let Some(gate) = gate {
        gate.park();
    }
}

type Map = HopMap<u64, u64, IdentityBuild>;

/// The value every prefilled key `k` holds.
fn value(k: u64) -> u64 {
    k + 1
}

/// One parked edit.
struct Case {
    kind: &'static str,
    /// Keys inserted, each with [`value`], before the writer starts. The
    /// identity hash homes key `k` at bucket `k % 64`.
    prefill: Vec<u64>,
    /// The bucket whose edit the writer parks in.
    bucket: usize,
    /// The writer's operation, which checks its own result.
    write: fn(&Map),
    /// Keys the reader gets while the writer is parked, each with the
    /// results it may see.
    during: Vec<(u64, Vec<Option<u64>>)>,
    /// Keys and their values once the writer has finished.
    after: Vec<(u64, Option<u64>)>,
}

/// Parks a writer in `case`'s edit, runs [`GETS`] gets from another
/// thread under the watchdog, then releases the writer. Returns whether
/// the gets finished in time.
fn parked(case: Case) -> bool {
    let Case {
        kind,
        prefill,
        bucket,
        write,
        during,
        after,
    } = case;
    let map = Arc::new(Map::with_hasher(IdentityBuild));
    for k in prefill {
        assert_eq!(map.insert(k, value(k)), None);
    }
    let gate = Arc::new(Gate::default());
    let writer = {
        let (map, gate) = (Arc::clone(&map), Arc::clone(&gate));
        thread::spawn(move || {
            arm(bucket, gate);
            write(&map);
        })
    };
    gate.wait_parked();
    let (done_tx, done_rx) = mpsc::channel();
    let reader = {
        let map = Arc::clone(&map);
        thread::spawn(move || {
            let wrong = during.iter().cycle().take(GETS).find_map(|(key, allowed)| {
                let got = map.get(key);
                (!allowed.contains(&got)).then(|| {
                    format!("{kind}: get({key}) = {got:?} mid-edit, expected one of {allowed:?}")
                })
            });
            // The test has given up on a reader that outlived the watchdog.
            let _ = done_tx.send(wrong);
        })
    };
    let done = done_rx.recv_timeout(WATCHDOG);
    gate.release();
    writer.join().unwrap();
    reader.join().unwrap();
    if let Ok(Some(wrong)) = done {
        panic!("{wrong}");
    }
    for (key, expected) in after {
        assert_eq!(map.get(&key), expected, "{kind}: get({key}) after the edit");
    }
    let report = map.audit();
    assert!(report.is_valid(), "{kind}: {:?}", report.errors);
    done.is_ok()
}

#[test]
fn gets_finish_while_a_writer_is_parked_mid_edit() {
    // Keys 0 and 64 share home bucket 0; 128 is a third key of it.
    let cases = [
        Case {
            kind: "new-key insert",
            prefill: vec![0, 64],
            bucket: 0,
            write: |m| assert_eq!(m.insert(128, 129), None),
            during: vec![(0, vec![Some(1)]), (64, vec![Some(65)]), (128, vec![None])],
            after: vec![(0, Some(1)), (64, Some(65)), (128, Some(129))],
        },
        Case {
            kind: "in-place update",
            prefill: vec![0, 64],
            bucket: 0,
            write: |m| assert_eq!(m.insert(64, 66), Some(65)),
            during: vec![(0, vec![Some(1)]), (64, vec![Some(65), Some(66)])],
            after: vec![(0, Some(1)), (64, Some(66))],
        },
        Case {
            kind: "remove",
            prefill: vec![0, 64],
            bucket: 0,
            write: |m| assert_eq!(m.remove(&64), Some(65)),
            during: vec![(0, vec![Some(1)]), (64, vec![Some(65)])],
            after: vec![(0, Some(1)), (64, None)],
        },
        // Keys 0..32 fill slots 0..32, each in its home slot, so inserting
        // 64 (home 0) finds slot 32 free and must first move key 1 from
        // slot 1 up into it, in an edit of bucket 1.
        Case {
            kind: "displacement move",
            prefill: (0..HOP_RANGE as u64).collect(),
            bucket: 1,
            write: |m| assert_eq!(m.insert(64, 65), None),
            during: vec![(1, vec![Some(2)]), (64, vec![None])],
            after: vec![(1, Some(2)), (64, Some(65))],
        },
    ];
    let stalled = cases
        .into_iter()
        .filter_map(|case| {
            let kind = case.kind;
            (!parked(case)).then_some(kind)
        })
        .collect::<Vec<_>>();
    assert!(
        stalled.is_empty(),
        "{GETS} gets did not finish within {WATCHDOG:?} with a writer parked mid-edit in: {stalled:?}"
    );
}
