//! The LLX, SCX and VLX operations.

use std::sync::atomic::Ordering;

use crossbeam_epoch::{Guard, Shared};

use crate::descriptor::{self, state_of, Scx, ScxRecord, COMMITTED, IN_PROGRESS};
use crate::reclaim::defer_dispose_record;
use crate::record::{load_info, quiescent, Record, MAX_ARITY, MAX_V};

/// A stall-adversary pause point in [`run`]: parks the SCX's owner there
/// when a test asks it to. Expands to nothing outside `cfg(test)`.
macro_rules! pause {
    ($point:expr) => {
        #[cfg(test)]
        crate::tests::stall::pause($point);
    };
}

/// Result of an [`llx`].
pub enum Llx<'g, N: Record> {
    /// The record was quiescent; its mutable fields were snapshotted.
    Snapshot(LlxHandle<'g, N>),
    /// A concurrent SCX interfered; the caller should retry its update.
    Fail,
    /// The record has been finalized (removed from the structure).
    Finalized,
}

impl<'g, N: Record> Llx<'g, N> {
    /// Unwraps the snapshot, panicking on `Fail`/`Finalized`. Test helper.
    pub fn unwrap(self) -> LlxHandle<'g, N> {
        match self {
            Llx::Snapshot(h) => h,
            Llx::Fail => panic!("LLX failed"),
            Llx::Finalized => panic!("LLX returned Finalized"),
        }
    }

    /// `Some(handle)` for a snapshot, `None` otherwise.
    pub fn ok(self) -> Option<LlxHandle<'g, N>> {
        match self {
            Llx::Snapshot(h) => Some(h),
            _ => None,
        }
    }
}

/// A successful LLX: the record, the `info` word observed in its header,
/// and a snapshot of its mutable fields.
///
/// The handle borrows the epoch [`Guard`] it was created under, which
/// enforces the paper's *linking* discipline: an SCX/VLX can only consume
/// handles produced under the same pin, so the snapshotted records are
/// still allocated when the freezing CASes run.
pub struct LlxHandle<'g, N: Record> {
    /// The record that was snapshotted.
    pub node: Shared<'g, N>,
    pub(crate) info: u64,
    pub(crate) children: [Shared<'g, N>; MAX_ARITY],
}

impl<'g, N: Record> Clone for LlxHandle<'g, N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'g, N: Record> Copy for LlxHandle<'g, N> {}

impl<'g, N: Record> LlxHandle<'g, N> {
    /// The snapshotted value of mutable field `i`.
    pub fn child(&self, i: usize) -> Shared<'g, N> {
        debug_assert!(i < N::ARITY);
        self.children[i]
    }

    /// Convenience for binary trees: snapshot of field 0.
    pub fn left(&self) -> Shared<'g, N> {
        self.children[0]
    }

    /// Convenience for binary trees: snapshot of field 1.
    pub fn right(&self) -> Shared<'g, N> {
        self.children[1]
    }

    /// The snapshotted record, dereferenced.
    pub fn node_ref(&self) -> &'g N {
        // SAFETY: a snapshot is only produced for a record that was in the
        // structure at the LLX's linearization point; it stays allocated for
        // the guard's lifetime (frees are epoch-deferred).
        unsafe { self.node.deref() }
    }
}

/// Load-link extended (PODC'13, Figure 1).
///
/// Attempts to snapshot the mutable fields of `node`. Helps any in-progress
/// SCX it encounters before reporting `Fail`/`Finalized`, which is what
/// makes the ensemble lock-free.
pub fn llx<'g, N: Record>(node: Shared<'g, N>, guard: &'g Guard) -> Llx<'g, N> {
    // SAFETY: caller obtained `node` from the structure under `guard`.
    let n = unsafe { node.deref() };
    let header = n.header();
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let marked1 = header.marked.load(Ordering::SeqCst);
    let (rinfo, state) = load_info(n);
    // Second `marked` read, *after* the info load (PODC'13 Fig. 1 lines
    // 2–5). The quiescence test must use this one: finalization sets
    // `marked` before the descriptor's state becomes `Committed`, so a
    // terminal state combined with a `marked` read that *follows* it
    // proves the record was not in that SCX's removed set. Testing the
    // pre-info read instead admits a torn interleaving — `marked` read
    // false, the SCX commits (marking the record), `info` then reads the
    // terminal descriptor — that snapshots an already-finalized record.
    // A later SCX linked to such a snapshot freezes and mutates a record
    // that is no longer in the structure: its update lands in a detached
    // subtree and the records it finalizes there may still be reachable
    // through the replacing copy, wedging every future LLX on them.
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let marked2 = header.marked.load(Ordering::SeqCst);

    if quiescent(state, marked2) {
        // Read the mutable fields, then confirm `info` is unchanged: any SCX
        // that modifies a field must first freeze the record by installing
        // its own `info` word, and no word is ever installed twice, so an
        // unchanged `info` certifies the snapshot.
        let mut children = [Shared::null(); MAX_ARITY];
        for (i, slot) in children.iter_mut().enumerate().take(N::ARITY) {
            // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
            *slot = n.child(i).load(Ordering::SeqCst, guard);
        }
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        if header.info.load(Ordering::SeqCst) == rinfo {
            return Llx::Snapshot(LlxHandle {
                node,
                info: rinfo,
                children,
            });
        }
    }

    // The record is frozen or finalized. Re-read the SCX's state (it may
    // have advanced) and help if it is still in progress.
    let state_now = state_of(rinfo);
    let done = state_now == COMMITTED
        || (state_now == IN_PROGRESS && {
            // SAFETY: `rinfo` was read from an `N`'s header under `guard`.
            unsafe { help::<N>(rinfo, guard) }
        });
    if done && marked1 {
        return Llx::Finalized;
    }
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let cur = header.info.load(Ordering::SeqCst);
    if state_of(cur) == IN_PROGRESS {
        // SAFETY: `cur` was read from an `N`'s header under `guard`.
        unsafe { help::<N>(cur, guard) };
    }
    Llx::Fail
}

/// Arguments for [`scx`], mirroring `SCX(V, R, fld, new)` from the paper.
pub struct ScxArgs<'a, 'g, N: Record> {
    /// The `V` sequence: handles from linked LLXs, ordered per template
    /// postcondition PC8 (a fixed tree-traversal order).
    pub v: &'a [LlxHandle<'g, N>],
    /// Bitmask over `v` selecting `R`, the records to finalize (PC2).
    pub finalize: u8,
    /// Index into `v` of the record whose field is modified (PC3).
    pub fld_record: usize,
    /// Which mutable field of that record is modified.
    pub fld_idx: usize,
    /// The new value. Must never have been stored in the field before
    /// (constraint 1; use a freshly allocated record — PC7).
    pub new: Shared<'g, N>,
}

/// Store-conditional extended (PODC'13, Figure 1).
///
/// Returns `true` if the SCX took effect: atomically, each record in `V` was
/// unchanged since its linked LLX, the designated field was updated to
/// `new`, and every record in `R` was finalized (and retired through the
/// epoch collector). Returns `false` if some record changed first.
///
/// The SCX runs on the calling thread's own descriptor, which it reuses
/// for every SCX (see [`crate::descriptor`]): nothing is allocated, and
/// nothing but `R` is left for the epoch collector.
pub fn scx<'g, N: Record>(args: &ScxArgs<'_, 'g, N>, guard: &'g Guard) -> bool {
    let len = args.v.len();
    assert!(
        len > 0 && len <= MAX_V,
        "SCX V-sequence length {len} out of range"
    );
    assert!(args.fld_record < len, "fld_record out of range");
    assert!(args.fld_idx < N::ARITY, "fld_idx out of range");
    debug_assert!(
        (args.finalize as usize) < (1usize << len),
        "finalize mask selects records outside V"
    );

    let mut op = Scx {
        info: 0,
        len,
        v: [0; MAX_V],
        expect: [0; MAX_V],
        finalize: args.finalize,
        fld_record: args.fld_record,
        fld_idx: args.fld_idx,
        old: args.v[args.fld_record].children[args.fld_idx].as_raw() as usize,
        new: args.new.as_raw() as usize,
    };
    for (i, h) in args.v.iter().enumerate() {
        debug_assert!(!h.node.is_null(), "V contains a null record");
        op.v[i] = h.node.as_raw() as usize;
        op.expect[i] = h.info;
    }
    descriptor::with_own(|desc, id| {
        desc.open(id, &mut op);
        // SAFETY: `op` was built from handles on `N`s linked under `guard`.
        unsafe { run::<N>(desc, &op, guard) }
    })
}

/// Validate extended: `true` iff no record in `handles` has changed since
/// its linked LLX. Helps conflicting in-progress SCXs before failing.
///
/// This is the read-side counterpart of [`scx`]: it establishes that the
/// whole set of snapshots was simultaneously valid at one instant (the last
/// `info` load of the loop below) *without freezing anything*, which is what
/// makes multi-node reads — successor/predecessor walks and whole-subtree
/// range scans — linearizable at zero cost to writers.
///
/// The comparison is on the whole `info` word, descriptor id and sequence
/// number together. Every SCX installs a word no record ever held before,
/// so a record that an SCX touched between the LLX and this VLX can never
/// look unchanged, even if the same thread's descriptor froze it both
/// times.
///
/// # Example
///
/// An atomic two-record read: LLX both records, then one VLX certifies
/// that the pair of snapshots was simultaneously valid. An SCX on either
/// record in between invalidates the set as a whole.
///
/// ```
/// use llxscx::{llx, scx, vlx, pin, Atomic, Owned, Record, RecordHeader, ScxArgs};
///
/// struct N { header: RecordHeader<N>, kids: [Atomic<N>; 2] }
/// impl Record for N {
///     const ARITY: usize = 2;
///     fn header(&self) -> &RecordHeader<Self> { &self.header }
///     fn child(&self, i: usize) -> &Atomic<Self> { &self.kids[i] }
/// }
/// fn node() -> Owned<N> {
///     Owned::new(N { header: RecordHeader::new(), kids: [Atomic::null(), Atomic::null()] })
/// }
///
/// let guard = &pin();
/// let a = node().into_shared(guard);
/// let b = node().into_shared(guard);
/// let (ha, hb) = (llx(a, guard).unwrap(), llx(b, guard).unwrap());
/// // Nothing changed since the LLXs: the snapshot pair is atomic.
/// assert!(vlx(&[ha, hb], guard));
///
/// // A committed SCX on `a` fails any V-sequence containing `ha` ...
/// let fresh = node().into_shared(guard);
/// assert!(scx(&ScxArgs { v: &[ha], finalize: 0, fld_record: 0, fld_idx: 0, new: fresh }, guard));
/// assert!(!vlx(&[ha, hb], guard));
/// // ... while `b`'s untouched snapshot alone still validates.
/// assert!(vlx(&[hb], guard));
/// # unsafe {
/// #     llxscx::reclaim::dispose_record(fresh.as_raw());
/// #     llxscx::reclaim::dispose_record(b.as_raw());
/// #     llxscx::reclaim::dispose_record(a.as_raw());
/// # }
/// ```
pub fn vlx<'g, N: Record>(handles: &[LlxHandle<'g, N>], guard: &'g Guard) -> bool {
    for h in handles {
        // SAFETY: handle's record is protected by `guard`.
        let n = unsafe { h.node.deref() };
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        let cur = n.header().info.load(Ordering::SeqCst);
        if cur != h.info {
            if state_of(cur) == IN_PROGRESS {
                // SAFETY: `cur` was read from an `N`'s header under `guard`.
                unsafe { help::<N>(cur, guard) };
            }
            return false;
        }
    }
    true
}

/// Helps the SCX that `info` names, on behalf of any thread. Returns
/// `true` iff it committed; `false` if it aborted, or if its incarnation
/// is over before this helper read its arguments (then the helper writes
/// nothing).
///
/// # Safety
/// `info` must have been read from the header of an `N` under `guard`.
pub(crate) unsafe fn help<N: Record>(info: u64, guard: &Guard) -> bool {
    let desc = descriptor::lookup(info);
    match desc.snapshot(info) {
        Ok(op) => run::<N>(desc, &op, guard),
        Err(committed) => committed,
    }
}

/// Completes (or aborts) the SCX `op` of `desc`, for its owner or for a
/// helper holding a validated snapshot. Returns `true` iff it committed.
///
/// A helper can still be here after the SCX finished and the owner moved
/// on: its writes are then harmless. Freezing CASes expect `info` words
/// that were replaced for good, CASes on the state word name the old
/// sequence number, marks repeat marks the SCX made, and the update CAS
/// expects a child that no field will hold again (constraint 1). The epoch
/// keeps every record it touches allocated: it saw the SCX in progress
/// under its pin, and those records are retired only after the commit.
///
/// # Safety
/// `op` must describe records of type `N` that the caller's `guard`
/// protects: built by [`scx`], or a validated snapshot.
unsafe fn run<N: Record>(desc: &ScxRecord, op: &Scx, guard: &Guard) -> bool {
    // Freezing phase: install `op.info` into each V-record's info field, in
    // order, expecting the word its linked LLX observed.
    for i in 0..op.len {
        let node = &*(op.v[i] as *const N);
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        let froze = node.header().info.compare_exchange(
            op.expect[i],
            op.info,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if froze.is_err_and(|cur| cur != op.info) {
            // Frozen for someone else, or already past us. If every record
            // was frozen at some point, the SCX already succeeded (another
            // helper finished); otherwise it can never complete and must
            // abort. `all_frozen` is set before any record in V can be
            // re-frozen (a record is only released by a terminal state,
            // which comes after `all_frozen` on the commit path), and it
            // shares the state word with the abort, so one CAS decides.
            return desc.abort(op.info);
        }
        pause!(crate::tests::stall::Point::Froze(i));
    }
    if !desc.set_all_frozen(op.info) {
        return false;
    }
    pause!(crate::tests::stall::Point::AllFrozen);
    // Mark (finalize) every record in R. Idempotent across helpers.
    for i in 0..op.len {
        if op.finalize & (1 << i) != 0 {
            let marked = &(*(op.v[i] as *const N)).header().marked;
            // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
            marked.store(true, Ordering::SeqCst);
        }
    }
    pause!(crate::tests::stall::Point::Marked);
    // The update CAS. Only the first helper's CAS succeeds: `old` was a
    // fresh allocation when installed and is never re-stored (constraint 1).
    let parent = &*(op.v[op.fld_record] as *const N);
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let _ = parent.child(op.fld_idx).compare_exchange(
        Shared::from(op.old as *const N),
        Shared::from(op.new as *const N),
        Ordering::SeqCst,
        Ordering::SeqCst,
        guard,
    );
    pause!(crate::tests::stall::Point::Updated);
    pause!(crate::tests::stall::Point::BeforeCommit);
    // Commit. Exactly one helper wins the transition and retires R: the
    // finalized records are now unreachable from the entry point (the update
    // CAS happened before the state CAS), so epoch deferral makes the frees
    // safe for concurrent traversals still holding pre-commit guards.
    if desc.commit(op.info) {
        for i in 0..op.len {
            if op.finalize & (1 << i) != 0 {
                defer_dispose_record(op.v[i] as *const N, guard);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordHeader;
    use crossbeam_epoch::{pin, Atomic, Owned};

    struct TestNode {
        header: RecordHeader<TestNode>,
        children: [Atomic<TestNode>; 2],
        key: u64,
    }

    impl TestNode {
        fn new(key: u64) -> Owned<TestNode> {
            Owned::new(TestNode {
                header: RecordHeader::new(),
                children: [Atomic::null(), Atomic::null()],
                key,
            })
        }
    }

    impl Record for TestNode {
        const ARITY: usize = 2;
        fn header(&self) -> &RecordHeader<Self> {
            &self.header
        }
        fn child(&self, i: usize) -> &Atomic<Self> {
            &self.children[i]
        }
    }

    #[test]
    fn llx_snapshot_of_quiescent_record() {
        let guard = &pin();
        let root = TestNode::new(1).into_shared(guard);
        let h = llx(root, guard).unwrap();
        assert!(h.left().is_null());
        assert!(h.right().is_null());
        assert_eq!(h.node_ref().key, 1);
        // SAFETY: `root` was never published to another thread; test-local teardown.
        unsafe { crate::reclaim::dispose_record(root.as_raw()) };
    }

    #[test]
    fn scx_swings_pointer_and_finalizes() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let a = TestNode::new(1).into_shared(guard);
        // SAFETY: `root` is a live test-local allocation under `guard`.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        unsafe { root.deref() }.children[0].store(a, Ordering::SeqCst);

        let hr = llx(root, guard).unwrap();
        let ha = llx(a, guard).unwrap();
        let fresh = TestNode::new(2).into_shared(guard);
        let ok = scx(
            &ScxArgs {
                v: &[hr, ha],
                finalize: 0b10, // finalize `a`
                fld_record: 0,
                fld_idx: 0,
                new: fresh,
            },
            guard,
        );
        assert!(ok);
        // SAFETY: `root` stays allocated for the whole test under `guard`.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        let now = unsafe { root.deref() }.children[0].load(Ordering::SeqCst, guard);
        assert_eq!(now, fresh);
        // `a` is finalized: LLX reports it.
        assert!(matches!(llx(a, guard), Llx::Finalized));
        // Stale handle on root no longer validates.
        assert!(!vlx(&[hr], guard));
        // SAFETY: test-local nodes; nothing else references them after the asserts.
        unsafe {
            crate::reclaim::dispose_record(fresh.as_raw());
            crate::reclaim::dispose_record(root.as_raw());
        }
    }

    #[test]
    fn scx_fails_on_stale_handle() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let h1 = llx(root, guard).unwrap();
        // A first SCX consumes the handle's expected info value.
        let n1 = TestNode::new(1).into_shared(guard);
        assert!(scx(
            &ScxArgs {
                v: &[h1],
                finalize: 0,
                fld_record: 0,
                fld_idx: 0,
                new: n1
            },
            guard
        ));
        // Re-using the stale handle must fail.
        let n2 = TestNode::new(2).into_shared(guard);
        assert!(!scx(
            &ScxArgs {
                v: &[h1],
                finalize: 0,
                fld_record: 0,
                fld_idx: 0,
                new: n2
            },
            guard
        ));
        // SAFETY: `root` stays allocated for the whole test under `guard`.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        let now = unsafe { root.deref() }.children[0].load(Ordering::SeqCst, guard);
        assert_eq!(now, n1);
        // SAFETY: test-local teardown; the losing SCX's nodes are unreachable.
        unsafe {
            crate::reclaim::dispose_record(n2.as_raw());
            crate::reclaim::dispose_record(n1.as_raw());
            crate::reclaim::dispose_record(root.as_raw());
        }
    }

    #[test]
    fn vlx_validates_unchanged_records() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let h = llx(root, guard).unwrap();
        assert!(vlx(&[h], guard));
        // SAFETY: `root` was never shared; test-local teardown.
        unsafe { crate::reclaim::dispose_record(root.as_raw()) };
    }

    #[test]
    fn llx_after_scx_sees_new_value() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let h = llx(root, guard).unwrap();
        let n1 = TestNode::new(7).into_shared(guard);
        assert!(scx(
            &ScxArgs {
                v: &[h],
                finalize: 0,
                fld_record: 0,
                fld_idx: 1,
                new: n1
            },
            guard
        ));
        let h2 = llx(root, guard).unwrap();
        assert_eq!(h2.right(), n1);
        assert!(h2.left().is_null());
        // SAFETY: test-local teardown of nodes this test allocated.
        unsafe {
            crate::reclaim::dispose_record(n1.as_raw());
            crate::reclaim::dispose_record(root.as_raw());
        }
    }
}
