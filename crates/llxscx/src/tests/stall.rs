//! The stall adversary: the paper's progress claim as a test.
//!
//! `run` in `ops` calls [`pause`] at five places (after each freezing CAS,
//! after `all_frozen`, after marking, after the update CAS, before the
//! commit CAS). A thread that armed a point with [`arm`] parks there on
//! its next SCX until the test releases it; every other thread passes
//! through. For each point, the owner of an SCX over `V = [root, a]`
//! (finalize `a`, swing `root.kids[0]` to `fresh`) is parked there, and a
//! rival's `llx`, `vlx` or LLX-then-`scx` on `root` must finish by helping:
//! the tree is then in the committed shape, and the owner, once resumed,
//! still reports success. Every wait has a watchdog, so a rival that
//! cannot make progress fails the test instead of hanging it.

use std::cell::RefCell;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use super::{at, dispose, info, kid, node, shared};
use crate::descriptor::{state_of, COMMITTED};
use crate::ops::{llx, scx, vlx, Llx, ScxArgs};
use crate::with_guard;

/// Where in `run` an SCX's owner can be parked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Point {
    /// After the freezing CAS on `V[i]`.
    Froze(usize),
    /// After `all_frozen` is set.
    AllFrozen,
    /// After the records in `R` are marked.
    Marked,
    /// After the update CAS.
    Updated,
    /// Just before the commit CAS.
    BeforeCommit,
}

/// Every point an SCX over a two-record `V` passes.
const POINTS: [Point; 6] = [
    Point::Froze(0),
    Point::Froze(1),
    Point::AllFrozen,
    Point::Marked,
    Point::Updated,
    Point::BeforeCommit,
];

/// How long any one wait may take before the test fails (longer when
/// interpreted).
pub(crate) const WATCHDOG: Duration = Duration::from_secs(if cfg!(miri) { 600 } else { 20 });

/// A parked owner and the test that holds it.
#[derive(Default)]
pub(crate) struct Gate {
    /// `(parked, released)`.
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn park(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = true;
        self.cv.notify_all();
        let (s, timeout) = self.cv.wait_timeout_while(s, WATCHDOG, |s| !s.1).unwrap();
        assert!(!timeout.timed_out() && s.1, "parked owner never released");
    }

    /// Waits until the armed thread parks.
    pub(crate) fn wait_parked(&self) {
        let s = self.state.lock().unwrap();
        let (s, _) = self.cv.wait_timeout_while(s, WATCHDOG, |s| !s.0).unwrap();
        assert!(s.0, "the SCX owner never reached its pause point");
    }

    /// Lets the parked thread go on.
    pub(crate) fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

thread_local! {
    static ARMED: RefCell<Option<(Point, Arc<Gate>)>> = const { RefCell::new(None) };
}

/// Parks the calling thread at `point` of its next SCX that reaches it,
/// until `gate` is released.
pub(crate) fn arm(point: Point, gate: Arc<Gate>) {
    ARMED.with(|a| *a.borrow_mut() = Some((point, gate)));
}

/// The pause point itself (see the `pause!` macro in `ops`).
pub(crate) fn pause(point: Point) {
    let gate = ARMED
        .try_with(|a| {
            let mut a = a.borrow_mut();
            match &*a {
                Some((p, _)) if *p == point => a.take().map(|(_, g)| g),
                _ => None,
            }
        })
        .ok()
        .flatten();
    if let Some(gate) = gate {
        gate.park();
    }
}

/// Receives from `rx` within the watchdog, or fails the test with `what`.
pub(crate) fn recv<T>(rx: &mpsc::Receiver<T>, what: &str) -> T {
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{what} did not finish within {WATCHDOG:?}"))
}

/// What the rival does while the owner is parked.
#[derive(Clone, Copy, Debug)]
enum Rival {
    /// `llx(root)` must help and fail; the next one sees the new child.
    Llx,
    /// `vlx` over a pre-SCX handle on `root` must help and fail.
    Vlx,
    /// An LLX-then-SCX retry loop on `root.kids[1]` must commit.
    Scx,
}

/// One stall scenario: park the owner at `point`, run `rival`, check the
/// shape, resume the owner.
fn stall(point: Point, rival: Rival) {
    let (root, a, fresh, mine) = (node(), node(), node(), node());
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    at(root).kids[0].store(shared(a), std::sync::atomic::Ordering::SeqCst);

    // The rival takes its handle on `root` before the owner's SCX starts.
    let (ready_tx, ready_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel();
    let rival_thread = thread::spawn(move || {
        with_guard(|g| {
            let before = llx(shared(root), g).unwrap();
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            let helped = match rival {
                Rival::Llx => !matches!(llx(shared(root), g), Llx::Snapshot(_)),
                Rival::Vlx => !vlx(&[before], g),
                Rival::Scx => (0..4).any(|_| {
                    let Llx::Snapshot(h) = llx(shared(root), g) else {
                        return false;
                    };
                    let args = ScxArgs {
                        v: &[h],
                        finalize: 0,
                        fld_record: 0,
                        fld_idx: 1,
                        new: shared(mine),
                    };
                    scx(&args, g)
                }),
            };
            // After helping, `root` is quiescent again with the new child.
            let after = llx(shared(root), g).unwrap();
            done_tx
                .send((helped, after.left().as_raw() as usize))
                .unwrap();
        })
    });
    recv(&ready_rx, "the rival's first LLX");

    let gate = Arc::new(Gate::default());
    let (owner_tx, owner_rx) = mpsc::channel();
    let armed = gate.clone();
    let owner = thread::spawn(move || {
        arm(point, armed);
        let ok = with_guard(|g| {
            let hr = llx(shared(root), g).unwrap();
            let ha = llx(shared(a), g).unwrap();
            let args = ScxArgs {
                v: &[hr, ha],
                finalize: 0b10,
                fld_record: 0,
                fld_idx: 0,
                new: shared(fresh),
            };
            scx(&args, g)
        });
        owner_tx.send(ok).unwrap();
    });
    gate.wait_parked();

    // Pinned before the commit, so `a` (retired by it) stays readable.
    with_guard(|g| {
        go_tx.send(()).unwrap();
        let (helped, left) = recv(&done_rx, &format!("{rival:?} rival at {point:?}"));
        assert!(
            helped,
            "{rival:?} at {point:?}: the rival did not see the SCX"
        );
        assert_eq!(
            left, fresh,
            "{rival:?} at {point:?}: not in the committed shape"
        );
        assert!(
            at(a).header.is_marked(),
            "{rival:?} at {point:?}: `a` not finalized"
        );
        assert!(matches!(llx(shared(a), g), Llx::Finalized));
        assert_eq!(state_of(info(root)), COMMITTED);
        if let Rival::Scx = rival {
            assert_eq!(kid(root, 1, g), mine, "the rival's SCX was lost");
        }
    });
    rival_thread.join().unwrap();

    gate.release();
    let ok = recv(&owner_rx, "the resumed owner");
    assert!(ok, "{rival:?} at {point:?}: the resumed owner lost its SCX");
    owner.join().unwrap();
    // `a` was retired by whichever thread committed.
    dispose(&[root, fresh, mine]);
}

#[test]
fn a_parked_scx_is_finished_by_a_rival_llx() {
    for point in POINTS {
        stall(point, Rival::Llx);
    }
}

#[test]
fn a_parked_scx_is_finished_by_a_rival_vlx() {
    for point in POINTS {
        stall(point, Rival::Vlx);
    }
}

#[test]
fn a_parked_scx_is_finished_by_a_rival_scx() {
    for point in POINTS {
        stall(point, Rival::Scx);
    }
}
