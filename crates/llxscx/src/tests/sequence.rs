//! Sequence-number mismatches: an `info` word or a descriptor read from an
//! earlier incarnation must never act on a later one.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use super::stall::{arm, recv, Gate, Point};
use super::{dispose, info, kid, node, shared, Node};
use crate::descriptor::{lookup, state_of, IN_PROGRESS};
use crate::ops::{help, llx, scx, vlx, LlxHandle, ScxArgs};
use crate::with_guard;

/// One uncontended SCX swinging `rec.kids[idx]` to `new` through a handle
/// whose `info` word may have been tampered with.
fn swing(h: LlxHandle<'_, Node>, idx: usize, new: usize, g: &crate::epoch::Guard) -> bool {
    let args = ScxArgs {
        v: &[h],
        finalize: 0,
        fld_record: 0,
        fld_idx: idx,
        new: shared(new),
    };
    scx(&args, g)
}

/// A handle naming the previous or the next incarnation of the descriptor
/// that really froze the record last can neither freeze nor validate it;
/// the genuine handle still does both, even after that descriptor moved on
/// to SCXs elsewhere.
#[test]
fn an_info_word_from_another_incarnation_can_neither_freeze_nor_validate() {
    let (root, other) = (node(), node());
    let (n1, n2, n3, n4) = (node(), node(), node(), node());
    with_guard(|g| {
        assert!(swing(llx(shared(root), g).unwrap(), 0, n1, g));
        let genuine = llx(shared(root), g).unwrap();
        assert_ne!(genuine.info, 0, "root must name a descriptor");
        // The same thread's descriptor moves on to another record.
        assert!(swing(llx(shared(other), g).unwrap(), 0, n2, g));
        assert_eq!(
            info(other),
            genuine.info + 1,
            "one descriptor, next incarnation"
        );

        for forged in [genuine.info - 1, genuine.info + 1] {
            let stale = LlxHandle {
                info: forged,
                ..genuine
            };
            assert!(!vlx(&[stale], g), "incarnation {forged:#x} validated");
            assert!(!vlx(&[genuine, stale], g));
            assert!(
                !swing(stale, 1, n3, g),
                "incarnation {forged:#x} froze root"
            );
            assert_eq!(
                info(root),
                genuine.info,
                "a failed freeze moved root's info"
            );
            assert_eq!(kid(root, 1, g), 0);
        }
        // Root is untouched: the genuine handle still validates and wins.
        assert!(vlx(&[genuine], g));
        assert!(swing(genuine, 1, n4, g));
        assert_eq!(kid(root, 1, g), n4);
    });
    dispose(&[n1, n2, n3, n4, root, other]);
}

/// A helper that read incarnation `s`'s arguments while `s` was in
/// progress, and validates only after the owner started `s + 1`, must
/// abandon: the validation fails, helping with `s`'s word does nothing, and
/// CASes naming `s` leave the new incarnation's state word alone.
#[test]
fn a_helper_whose_reads_straddle_the_next_scx_abandons() {
    let (r1, r2, f1, f2) = (node(), node(), node(), node());
    let (first, second) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
    let (done_tx, done_rx) = mpsc::channel();
    let gates = (first.clone(), second.clone());
    let owner = thread::spawn(move || {
        with_guard(|g| {
            arm(Point::Froze(0), gates.0);
            let ok1 = swing(llx(shared(r1), g).unwrap(), 0, f1, g);
            arm(Point::Froze(0), gates.1);
            let ok2 = swing(llx(shared(r2), g).unwrap(), 0, f2, g);
            done_tx.send((ok1, ok2)).unwrap();
        })
    });

    // Incarnation s is frozen on r1 and in progress: read its arguments.
    first.wait_parked();
    let s = info(r1);
    let desc = lookup(s);
    assert_eq!(state_of(s), IN_PROGRESS);
    let op = desc.fields(s);
    assert_eq!((op.len, op.v[0], op.new), (1, r1, f1), "read s's arguments");

    // The owner finishes s by itself and parks inside s + 1 on r2.
    first.release();
    second.wait_parked();
    let next = info(r2);
    assert_eq!(next, s + 1);
    let word = desc.raw_word();

    assert!(!desc.unchanged(s), "validation missed the new incarnation");
    with_guard(|g| {
        // SAFETY: `s` was read from a `Node`'s header; `g` is pinned.
        let helped = unsafe { help::<Node>(s, g) };
        assert!(!helped, "helped a finished incarnation");
    });
    assert!(!desc.abort(s) && !desc.set_all_frozen(s) && !desc.commit(s));
    assert_eq!(
        desc.raw_word(),
        word,
        "a stale CAS moved the new state word"
    );
    assert_eq!(state_of(next), IN_PROGRESS);
    assert_eq!(info(r2), next);
    assert!(!super::at(r2).header.is_marked());
    with_guard(|g| assert_eq!(kid(r2, 0, g), 0, "r2 changed before s + 1 committed"));

    second.release();
    assert_eq!(recv(&done_rx, "the owner's two SCXs"), (true, true));
    owner.join().unwrap();
    with_guard(|g| assert_eq!((kid(r1, 0, g), kid(r2, 0, g)), (f1, f2)));
    dispose(&[r1, r2, f1, f2]);
}
