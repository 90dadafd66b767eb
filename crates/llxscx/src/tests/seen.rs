//! The seen-sequence cache in `state_of`: whatever the owner's SCXs and
//! its slot go through, the cached answer is the one a fresh load of the
//! descriptor's word gives.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use super::slots::commit_under;
use super::stall::{arm, recv, Gate, Point};
use super::{dispose, info, node, node_under, shared};
use crate::descriptor::{gauge, state_of, state_uncached, ABORTED, COMMITTED, IN_PROGRESS};
use crate::ops::{llx, scx, ScxArgs};
use crate::with_guard;

/// One owner's SCXs, each reported as `(info word, state)` and then held
/// still until the querier acknowledges: `COMMITS` committed SCXs on
/// `rec`, one aborted SCX whose frozen record `a` keeps the aborted word,
/// and one SCX on `rec` parked at its first freezing CAS until `gate`
/// opens. Returns the owner's slot id; the slot goes back when the
/// thread exits.
fn owner(
    (rec, a, b): (usize, usize, usize),
    gate: Arc<Gate>,
    tx: mpsc::Sender<(u64, u8)>,
    ack: mpsc::Receiver<()>,
) -> usize {
    let report = |word, state| {
        tx.send((word, state)).unwrap();
        recv(&ack, "the querier's acknowledgement");
    };
    for _ in 0..COMMITS {
        report(with_guard(|g| commit_under(rec, g)), COMMITTED);
    }
    let aborted = with_guard(|g| {
        let (ha, stale) = (llx(shared(a), g).unwrap(), llx(shared(b), g).unwrap());
        commit_under(b, g);
        let fresh = node_under(0, g);
        let args = ScxArgs {
            v: &[ha, stale],
            finalize: 0,
            fld_record: 0,
            fld_idx: 0,
            new: shared(fresh),
        };
        assert!(!scx(&args, g), "an SCX over a stale handle committed");
        dispose(&[fresh]);
        info(a)
    });
    report(aborted, ABORTED);
    arm(Point::Froze(0), gate);
    report(with_guard(|g| commit_under(rec, g)), COMMITTED);
    gauge::own_id().expect("the owner holds a slot")
}

/// SCXs per owner that commit without a pause.
const COMMITS: usize = if cfg!(miri) { 2 } else { 16 };

/// Checks the cache against the uncached reference for every word in
/// `words`, twice each: the second lookup is the one a cache entry
/// filled by the first can answer.
fn agree(words: &[u64]) {
    for &w in words {
        for _ in 0..2 {
            assert_eq!(
                state_of(w),
                state_uncached(w),
                "the cached state of {w:#x} differs from its descriptor's"
            );
        }
    }
}

/// Owner threads, one after another, run committed, aborted and parked
/// SCXs while this thread looks up every `info` word seen so far: old
/// incarnations, the owner's current one (committed or aborted) and one
/// in progress. An owner's exit gives its slot back and the next owner
/// usually takes it again, so the cache also meets sequence numbers that
/// carry on across threads. An answer that treats the current incarnation
/// as over (`seq <= seen` in place of `seq < seen`) fails the aborted and
/// the in-progress checks.
#[test]
fn cached_state_matches_the_descriptor_across_scxs_and_slot_reuse() {
    const MIN_ROUNDS: usize = if cfg!(miri) { 2 } else { 4 };
    const MAX_ROUNDS: usize = if cfg!(miri) { 2 } else { 64 };
    let recs = (node(), node(), node());
    let mut words = Vec::new();
    let (mut last, mut retaken, mut rounds) = (None, 0, 0);
    while rounds < MIN_ROUNDS || (retaken == 0 && rounds < MAX_ROUNDS) {
        rounds += 1;
        let gate = Arc::new(Gate::default());
        let (tx, rx) = mpsc::channel();
        let (ack_tx, ack_rx) = mpsc::channel();
        let parked = gate.clone();
        let t = thread::spawn(move || owner(recs, parked, tx, ack_rx));
        for step in 0..COMMITS + 2 {
            if step == COMMITS + 1 {
                gate.wait_parked();
                let live = info(recs.0);
                assert_eq!(state_uncached(live), IN_PROGRESS);
                words.push(live);
                agree(&words);
                gate.release();
            }
            let (word, state) = recv(&rx, "the owner's SCX");
            assert_eq!(state_uncached(word), state);
            words.push(word);
            agree(&words);
            ack_tx.send(()).unwrap();
        }
        let id = t.join().unwrap();
        retaken += usize::from(last == Some(id));
        last = Some(id);
    }
    // Other tests take and give slots concurrently, so a re-take is likely
    // over many rounds but not certain in Miri's few.
    if !cfg!(miri) {
        assert!(retaken > 0, "no owner took its predecessor's slot again");
    }
    agree(&words);
}
