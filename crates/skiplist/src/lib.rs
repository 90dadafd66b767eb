//! # Lock-free skip list
//!
//! A Harris–Michael style lock-free skip list ordered map, the stand-in for
//! the Java Class Library's `ConcurrentSkipListMap` ("SkipList" in the
//! paper's Figure 8). Deleted nodes are *marked* by tagging their `next`
//! pointers (bit 0 of the pointer word) and then physically unlinked by
//! subsequent `find` traversals; memory is reclaimed through `llxscx::epoch`
//! once no level links the node (see `SkipListMap::vote_retire`).
//!
//! Updates are simple single-CAS events at the bottom level (towers above
//! are best-effort), which is why skip lists scale so well on update-heavy
//! workloads — the effect the paper observes under high contention.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

use llxscx::epoch::with_guard;
use llxscx::epoch::{Atomic, Guard, Owned, Shared};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::cell::RefCell;

const MAX_LEVEL: usize = 20;

struct SkipNode<K, V> {
    key: Option<K>, // None = head sentinel (−∞)
    value: Option<V>,
    next: Vec<Atomic<SkipNode<K, V>>>,
    /// Retirement votes cast so far (see `SkipListMap::vote_retire`).
    votes: AtomicU8,
    /// Test builds only: the [`audit`] tick of the node's retirement, 0
    /// while it is live.
    #[cfg(test)]
    retired_at: std::sync::atomic::AtomicU64,
}

impl<K, V> SkipNode<K, V> {
    /// A node with `height` null links.
    fn new(key: Option<K>, value: Option<V>, height: usize) -> Self {
        SkipNode {
            key,
            value,
            next: (0..height).map(|_| Atomic::null()).collect(),
            votes: AtomicU8::new(0),
            #[cfg(test)]
            retired_at: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn height(&self) -> usize {
        self.next.len()
    }
}

/// Test builds only: checks that no walk reaches a node retired before
/// the walk started. Epoch reclamation frees a retired node once every
/// thread pinned at its retirement has unpinned, so a `find` or `get`
/// that starts later and still reaches it would read freed memory. Test
/// builds never free retired nodes; they stamp each with a tick of one
/// global clock instead, and every walk panics on reaching a node
/// stamped before it started.
#[cfg(test)]
mod audit {
    use std::sync::atomic::{AtomicU64, Ordering};

    static CLOCK: AtomicU64 = AtomicU64::new(1);

    /// The tick a walk starting now compares stamps against.
    pub(crate) fn now() -> u64 {
        // SEQCST: a stamp below this tick must come before this load in
        // the one total order of the clock's accesses.
        CLOCK.load(Ordering::SeqCst)
    }

    /// Stamps a node at its retirement.
    pub(crate) fn retire(stamp: &AtomicU64) {
        // SEQCST: orders the tick against `now` in other threads.
        let tick = CLOCK.fetch_add(1, Ordering::SeqCst);
        stamp.store(tick, Ordering::Release);
    }

    /// Panics if a walk that started at `started` reached a node retired
    /// before then.
    pub(crate) fn visit(stamp: &AtomicU64, started: u64) {
        let retired = stamp.load(Ordering::Acquire);
        assert!(
            retired == 0 || retired >= started,
            "a walk that started at tick {started} reached a node retired at tick {retired}"
        );
    }
}

/// A concurrent lock-free ordered map backed by a skip list.
///
/// ```
/// let m = nbskiplist::SkipListMap::new();
/// m.insert(1, "one");
/// assert_eq!(m.get(&1), Some("one"));
/// ```
pub struct SkipListMap<K, V> {
    head: Atomic<SkipNode<K, V>>,
}

// SAFETY: shared state behind epoch-managed atomics.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipListMap<K, V> {}
// SAFETY: same argument as `Send` — all shared mutation goes through the
// epoch-managed atomic links.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipListMap<K, V> {}

thread_local! {
    static LEVEL_RNG: RefCell<SmallRng> = RefCell::new(SmallRng::from_entropy());
}

fn random_height() -> usize {
    LEVEL_RNG.with(|r| {
        let mut h = 1;
        let mut rng = r.borrow_mut();
        while h < MAX_LEVEL && rng.gen_bool(0.5) {
            h += 1;
        }
        h
    })
}

/// The result of a `find`: predecessor and successor at every level, with
/// marked nodes physically unlinked along the way.
struct FindResult<'g, K, V> {
    preds: [Shared<'g, SkipNode<K, V>>; MAX_LEVEL],
    succs: [Shared<'g, SkipNode<K, V>>; MAX_LEVEL],
    /// The bottom-level successor if it carries exactly `key`.
    found: Option<Shared<'g, SkipNode<K, V>>>,
}

impl<K, V> SkipListMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty map.
    pub fn new() -> Self {
        SkipListMap {
            head: Atomic::from(Owned::new(SkipNode::new(None, None, MAX_LEVEL))),
        }
    }

    fn head<'g>(&self, guard: &'g Guard) -> Shared<'g, SkipNode<K, V>> {
        // SEQCST: pairs with the marking CASes' total order.
        self.head.load(Ordering::SeqCst, guard)
    }

    /// Harris–Michael find with physical unlinking of marked nodes.
    /// Restarts internally when a CAS to unlink fails.
    ///
    /// A find for `key` that starts after a marked node keyed `key` was
    /// last linked leaves it linked at no level. Every node the walk steps
    /// from was unmarked, so linked at each level of its tower, at some
    /// instant after the walk started (levels are marked top-down), and
    /// its links from then on, even frozen by a later mark, still lead to
    /// every node linked after it then. So the walk cannot step past the
    /// node at a level that links it, and it stops only at an unmarked
    /// node with a key ≥ `key`, which `insert` never links in front of a
    /// dying node with its key: it unlinks the node wherever it is
    /// linked. `vote_retire` relies on this.
    fn find<'g>(&self, key: &K, guard: &'g Guard) -> FindResult<'g, K, V> {
        #[cfg(test)]
        let started = audit::now();
        'retry: loop {
            let mut preds = [Shared::null(); MAX_LEVEL];
            let mut succs = [Shared::null(); MAX_LEVEL];
            let head = self.head(guard);
            let mut pred = head;
            for level in (0..MAX_LEVEL).rev() {
                // SAFETY: nodes reached via the list under `guard`.
                let mut curr = unsafe { pred.deref() }.next[level]
                    // SEQCST: pairs with the marking CASes' total order.
                    .load(Ordering::SeqCst, guard)
                    .with_tag(0);
                loop {
                    if curr.is_null() {
                        break;
                    }
                    // SAFETY: `curr` is non-null (loop condition) and was read from a live link
                    // under `guard`; unlinked nodes are epoch-retired, not freed.
                    let curr_ref = unsafe { curr.deref() };
                    #[cfg(test)]
                    audit::visit(&curr_ref.retired_at, started);
                    // SEQCST: pairs with the marking CASes' total order.
                    let succ = curr_ref.next[level].load(Ordering::SeqCst, guard);
                    if succ.tag() == 1 {
                        // curr is marked: unlink it at this level.
                        // SAFETY: `pred` was either the head sentinel or a node reached under
                        // `guard` this traversal; both stay allocated while pinned.
                        let unlinked = unsafe { pred.deref() }.next[level]
                            // SEQCST: mark/link CASes must totally order across levels (Harris–Michael).
                            .compare_exchange(
                                curr.with_tag(0),
                                succ.with_tag(0),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                                guard,
                            )
                            .is_ok();
                        if !unlinked {
                            continue 'retry;
                        }
                        // Not retired here: an insert still building the
                        // tower may link `curr` at a level this walk has
                        // already passed (see `vote_retire`).
                        curr = succ.with_tag(0);
                        continue;
                    }
                    // Unmarked: check ordering.
                    match curr_ref.key.as_ref() {
                        Some(k) if k < key => {
                            pred = curr;
                            curr = succ.with_tag(0);
                        }
                        _ => break,
                    }
                }
                preds[level] = pred;
                succs[level] = curr;
            }
            let found = (!succs[0].is_null()
                // SAFETY: `succs[0]` is non-null (checked) and was reached under `guard`.
                && unsafe { succs[0].deref() }.key.as_ref() == Some(key))
            .then_some(succs[0]);
            return FindResult {
                preds,
                succs,
                found,
            };
        }
    }

    /// Looks up `key`, unlinking nothing while the walk meets no marked node.
    ///
    /// The walk never follows a marked node's link: a link frozen by the
    /// mark may name a successor deleted and retired since, even before
    /// the walk started. On meeting a marked node, `get` hands the lookup
    /// to the internal `find`, which unlinks it and steps only from
    /// unmarked nodes.
    pub fn get(&self, key: &K) -> Option<V> {
        with_guard(|guard| {
            #[cfg(test)]
            let started = audit::now();
            let mut pred = self.head(guard);
            for level in (0..MAX_LEVEL).rev() {
                // SAFETY: list nodes under `guard`.
                let mut curr = unsafe { pred.deref() }.next[level]
                    // SEQCST: pairs with the marking CASes' total order.
                    .load(Ordering::SeqCst, guard)
                    .with_tag(0);
                while !curr.is_null() {
                    // SAFETY: `curr` is non-null (loop condition) and alive under `guard`.
                    let curr_ref = unsafe { curr.deref() };
                    #[cfg(test)]
                    audit::visit(&curr_ref.retired_at, started);
                    // SEQCST: pairs with the marking CASes' total order.
                    let succ = curr_ref.next[level].load(Ordering::SeqCst, guard);
                    if succ.tag() == 1 {
                        let found = self.find(key, guard).found;
                        // SAFETY: `find` returned `found` under `guard`.
                        return found.and_then(|n| unsafe { n.deref() }.value.clone());
                    }
                    match curr_ref.key.as_ref() {
                        Some(k) if k < key => {
                            pred = curr;
                            curr = succ.with_tag(0);
                        }
                        Some(k) if k == key => return curr_ref.value.clone(),
                        _ => break,
                    }
                }
            }
            None
        })
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`. If the key is present, the *node is replaced*
    /// (marked and re-inserted), returning the old value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        with_guard(|guard| {
            // The value displaced by this insert: set when we win the mark race
            // on an existing node for the key (delete + insert = replace).
            let mut previous: Option<V> = None;
            loop {
                let f = self.find(&key, guard);
                if let Some(existing) = f.found {
                    // Presence: replace by delete + retry-insert, which keeps
                    // the node immutable (values never change in place).
                    // SAFETY: `existing` came from `find` under `guard`; marked-but-unlinked
                    // nodes remain allocated until every guard drops.
                    let old = unsafe { existing.deref() }.value.clone();
                    if self.mark_node(existing, guard) {
                        previous = old;
                        // Physically unlink before inserting the replacement.
                        let _ = self.find(&key, guard);
                        Self::vote_retire(existing, guard);
                    }
                    // (On a lost race the key may reappear; re-find either way.)
                    continue;
                }
                // An upper level may still show a node with this key that
                // the bottom level, read later, no longer has: it is being
                // deleted. A tower linked in front of it would hide it from
                // its deleter's `find`, so find again until it is gone.
                let dying = f.succs[1..].iter().any(|s| {
                    // SAFETY: `find` returned `s` under `guard`; null is skipped.
                    unsafe { s.as_ref() }.is_some_and(|n| n.key.as_ref() == Some(&key))
                });
                if dying {
                    continue;
                }
                let height = random_height();
                let node = Owned::new(SkipNode::new(
                    Some(key.clone()),
                    Some(value.clone()),
                    height,
                ));
                for (level, nxt) in node.next.iter().enumerate().take(height) {
                    nxt.store(f.succs[level], Ordering::Relaxed);
                }
                let node = node.into_shared(guard);
                // Linearization: CAS at the bottom level.
                // SAFETY: preds are list nodes under `guard`.
                let bottom = unsafe { f.preds[0].deref() };
                if bottom.next[0]
                    // SEQCST: mark/link CASes must totally order across levels (Harris–Michael).
                    .compare_exchange(f.succs[0], node, Ordering::SeqCst, Ordering::SeqCst, guard)
                    .is_err()
                {
                    // SAFETY: never published.
                    unsafe { drop(node.into_owned()) };
                    continue;
                }
                // Best-effort tower construction.
                'tower: for level in 1..height {
                    loop {
                        let succ =
                            // SAFETY: `node` is this insert's own allocation, published under `guard`.
                            // SEQCST: pairs with the marking CASes' total order.
                            unsafe { node.deref() }.next[level].load(Ordering::SeqCst, guard);
                        if succ.tag() == 1 {
                            break 'tower; // concurrently deleted; done
                        }
                        let pred = f.preds[level];
                        // SAFETY: `preds[level]` was reached by `find` under `guard`.
                        if unsafe { pred.deref() }.next[level]
                            // SEQCST: mark/link CASes must totally order across levels (Harris–Michael).
                            .compare_exchange(
                                succ.with_tag(0),
                                node,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                                guard,
                            )
                            .is_ok()
                        {
                            break;
                        }
                        // Re-find to refresh preds/succs for this level.
                        let f2 = self.find(&key, guard);
                        if f2.found != Some(node) {
                            break 'tower; // deleted meanwhile
                        }
                        let expected = f2.succs[level];
                        // SAFETY: `node` is this insert's own allocation, alive under `guard`.
                        if unsafe { node.deref() }.next[level]
                            // SEQCST: mark/link CASes must totally order across levels (Harris–Michael).
                            .compare_exchange(
                                succ.with_tag(0),
                                expected,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                                guard,
                            )
                            .is_err()
                        {
                            break 'tower; // marked underneath us
                        }
                        // SAFETY: fresh predecessor from the re-run `find`, reached under `guard`.
                        if unsafe { f2.preds[level].deref() }.next[level]
                            // SEQCST: mark/link CASes must totally order across levels (Harris–Michael).
                            .compare_exchange(
                                expected,
                                node,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                                guard,
                            )
                            .is_ok()
                        {
                            break;
                        }
                    }
                }
                // A delete that won the mark before the last tower link
                // may have run its unlinking `find` too early to see it.
                // SAFETY: `node` is this insert's own allocation, alive under `guard`.
                let next = &unsafe { node.deref() }.next[0];
                // SEQCST: pairs with the marking CASes' total order.
                if next.load(Ordering::SeqCst, guard).tag() == 1 {
                    let _ = self.find(&key, guard);
                }
                Self::vote_retire(node, guard);
                return previous;
            }
        })
    }

    /// Casts one of a node's two retirement votes; the second retires it.
    ///
    /// A node may not be retired at its bottom-level unlink: a `find` for
    /// another key unlinks it there without passing its upper levels, and
    /// the insert that published it may still be linking its tower. So two
    /// parties vote: the delete that won the bottom-level mark, after a
    /// `find` for the node's key, and the insert once its tower is
    /// finished, after a `find` too if the node was deleted by then. One
    /// of those finds starts after the node's last link, and a `find` for
    /// a key leaves no marked node with that key linked at any level (see
    /// [`find`](Self::find)). So at the second vote no level links the
    /// node, and only traversals already pinned can still reach it.
    fn vote_retire<'g>(node: Shared<'g, SkipNode<K, V>>, guard: &'g Guard) {
        // SAFETY: both voters reached `node` under `guard`, and it is not
        // retired before the second vote.
        let node_ref = unsafe { node.deref() };
        if node_ref.votes.fetch_add(1, Ordering::AcqRel) == 1 {
            // Test builds keep the node for the audit instead.
            #[cfg(test)]
            {
                let _ = guard;
                audit::retire(&node_ref.retired_at);
            }
            #[cfg(not(test))]
            // SAFETY: the second vote: no level links the node any more
            // (see above), so only threads pinned now can reach it.
            unsafe {
                guard.defer_destroy(node);
            }
        }
    }

    /// Marks every level of `node`, bottom last. Returns `true` iff this
    /// call won the bottom-level mark (the linearization of the delete).
    fn mark_node<'g>(&self, node: Shared<'g, SkipNode<K, V>>, guard: &'g Guard) -> bool {
        // SAFETY: `node` reached via the list under `guard`.
        let node_ref = unsafe { node.deref() };
        let h = node_ref.height();
        for level in (1..h).rev() {
            loop {
                // SEQCST: pairs with the marking CASes' total order.
                let succ = node_ref.next[level].load(Ordering::SeqCst, guard);
                if succ.tag() == 1 {
                    break;
                }
                if node_ref.next[level]
                    // SEQCST: mark/link CASes must totally order across levels (Harris–Michael).
                    .compare_exchange(
                        succ,
                        succ.with_tag(1),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
        loop {
            // SEQCST: pairs with the marking CASes' total order.
            let succ = node_ref.next[0].load(Ordering::SeqCst, guard);
            if succ.tag() == 1 {
                return false; // someone else's delete linearized first
            }
            if node_ref.next[0]
                // SEQCST: mark/link CASes must totally order across levels (Harris–Michael).
                .compare_exchange(
                    succ,
                    succ.with_tag(1),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                    guard,
                )
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Removes `key`; returns its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        with_guard(|guard| {
            loop {
                let f = self.find(key, guard);
                let node = f.found?;
                // SAFETY: `find` returned `node` non-null under `guard`.
                let value = unsafe { node.deref() }.value.clone();
                if self.mark_node(node, guard) {
                    // Physically unlink, then vote to retire.
                    let _ = self.find(key, guard);
                    Self::vote_retire(node, guard);
                    return value;
                }
                // Lost the race; the key may have been re-inserted — retry.
            }
        })
    }

    /// Smallest key strictly greater than `key` (with its value).
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        with_guard(|guard| {
            let f = self.find(key, guard);
            let mut cur = f.succs[0];
            loop {
                if cur.is_null() {
                    return None;
                }
                // SAFETY: list node under `guard`.
                let n = unsafe { cur.deref() };
                // SEQCST: pairs with the marking CASes' total order.
                let succ = n.next[0].load(Ordering::SeqCst, guard);
                let k = n.key.as_ref().expect("non-head node has a key");
                if succ.tag() == 0 && k > key {
                    return Some((k.clone(), n.value.clone().unwrap()));
                }
                cur = succ.with_tag(0);
            }
        })
    }

    /// Largest key strictly smaller than `key` (with its value).
    ///
    /// Skip lists do not support backwards traversal; like
    /// `ConcurrentSkipListMap`, this re-descends from the head.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        with_guard(|guard| {
            let f = self.find(key, guard);
            let pred = f.preds[0];
            // SAFETY: list node under `guard`.
            let n = unsafe { pred.deref() };
            n.key
                .as_ref()
                .map(|k| (k.clone(), n.value.clone().unwrap()))
        })
    }

    /// All pairs with keys in `bounds`, sorted: descend to the first
    /// candidate with `find`, then walk the bottom level, skipping marked
    /// nodes, until the end bound is passed.
    ///
    /// Like `ConcurrentSkipListMap`'s submap iteration this is **not** an
    /// atomic snapshot: each key's presence is individually linearizable
    /// (the bottom-level `next` read), but the scan as a whole has no single
    /// linearization point. It is still sorted and duplicate-free, never
    /// reports a key that was never present, and never misses a key that
    /// was present for the scan's whole duration.
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        use std::ops::Bound;
        with_guard(|guard| {
            let mut out = Vec::new();
            // Position at the first node with key >= the start bound; an
            // unbounded start walks from the head sentinel.
            let mut cur = match bounds.start_bound() {
                // SAFETY: the head sentinel is allocated in `new` and never reclaimed.
                Bound::Unbounded => unsafe { self.head(guard).deref() }.next[0]
                    // SEQCST: pairs with the marking CASes' total order.
                    .load(Ordering::SeqCst, guard)
                    .with_tag(0),
                Bound::Included(lo) | Bound::Excluded(lo) => self.find(lo, guard).succs[0],
            };
            while !cur.is_null() {
                // SAFETY: list node under `guard`.
                let n = unsafe { cur.deref() };
                // SEQCST: pairs with the marking CASes' total order.
                let succ = n.next[0].load(Ordering::SeqCst, guard);
                let k = n.key.as_ref().expect("non-head node has a key");
                match bounds.end_bound() {
                    Bound::Included(hi) if k > hi => break,
                    Bound::Excluded(hi) if k >= hi => break,
                    _ => {}
                }
                // tag == 1 means logically deleted; skip. An Excluded start
                // bound also skips the exact boundary key `find` may return.
                if succ.tag() == 0 && bounds.contains(k) {
                    out.push((k.clone(), n.value.clone().expect("data node has a value")));
                }
                cur = succ.with_tag(0);
            }
            out
        })
    }

    /// Number of keys (O(n) snapshot).
    pub fn len(&self) -> usize {
        with_guard(|guard| {
            let mut count = 0;
            // SAFETY: the head sentinel is allocated in `new` and never reclaimed.
            let mut cur = unsafe { self.head(guard).deref() }.next[0]
                // SEQCST: pairs with the marking CASes' total order.
                .load(Ordering::SeqCst, guard)
                .with_tag(0);
            while !cur.is_null() {
                // SAFETY: `cur` is non-null (loop condition) and alive under `guard`.
                let n = unsafe { cur.deref() };
                // SEQCST: pairs with the marking CASes' total order.
                let succ = n.next[0].load(Ordering::SeqCst, guard);
                if succ.tag() == 0 {
                    count += 1;
                }
                cur = succ.with_tag(0);
            }
            count
        })
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted snapshot of the contents.
    pub fn collect(&self) -> Vec<(K, V)> {
        with_guard(|guard| {
            let mut out = Vec::new();
            // SAFETY: the head sentinel is allocated in `new` and never reclaimed.
            let mut cur = unsafe { self.head(guard).deref() }.next[0]
                // SEQCST: pairs with the marking CASes' total order.
                .load(Ordering::SeqCst, guard)
                .with_tag(0);
            while !cur.is_null() {
                // SAFETY: `cur` is non-null (loop condition) and alive under `guard`.
                let n = unsafe { cur.deref() };
                // SEQCST: pairs with the marking CASes' total order.
                let succ = n.next[0].load(Ordering::SeqCst, guard);
                if succ.tag() == 0 {
                    out.push((n.key.clone().unwrap(), n.value.clone().unwrap()));
                }
                cur = succ.with_tag(0);
            }
            out
        })
    }
}

impl<K, V> Default for SkipListMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for SkipListMap<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive `&mut self` in Drop — no concurrent threads, so the
        // unprotected guard cannot race with a reader.
        let guard = unsafe { llxscx::epoch::unprotected() };
        // SEQCST: teardown/cold path; kept uniform with the entry's accesses.
        let mut cur = self.head.load(Ordering::SeqCst, guard);
        while !cur.is_null() {
            // SAFETY: exclusive access; bottom level links every node.
            // SEQCST: teardown/cold path; kept uniform with the entry's accesses.
            let next = unsafe { cur.deref() }.next[0].load(Ordering::SeqCst, guard);
            // SAFETY: every node is owned by the list and dropped exactly once here.
            unsafe { drop(cur.into_owned()) };
            cur = next.with_tag(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn basics() {
        let m = SkipListMap::new();
        assert_eq!(m.get(&3), None);
        assert_eq!(m.insert(3, 30), None);
        assert_eq!(m.get(&3), Some(30));
        assert_eq!(m.insert(3, 31), Some(30));
        assert_eq!(m.get(&3), Some(31));
        assert_eq!(m.remove(&3), Some(31));
        assert_eq!(m.remove(&3), None);
        assert!(m.is_empty());
    }

    #[test]
    fn random_against_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let m = SkipListMap::new();
        let mut model = BTreeMap::new();
        for step in 0..10_000u64 {
            let k = rng.gen_range(0..400u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(m.insert(k, step), model.insert(k, step)),
                1 => assert_eq!(m.remove(&k), model.remove(&k)),
                _ => assert_eq!(m.get(&k), model.get(&k).copied()),
            }
        }
        assert_eq!(m.collect(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn successor_matches_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let m = SkipListMap::new();
        let mut model = BTreeMap::new();
        for _ in 0..2000 {
            let k = rng.gen_range(0..256u64);
            if rng.gen_bool(0.7) {
                m.insert(k, k);
                model.insert(k, k);
            } else {
                m.remove(&k);
                model.remove(&k);
            }
            let probe = rng.gen_range(0..256u64);
            let expect = model.range(probe + 1..).next().map(|(k, v)| (*k, *v));
            assert_eq!(m.successor(&probe), expect);
        }
    }

    #[test]
    fn range_matches_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let m = SkipListMap::new();
        let mut model = BTreeMap::new();
        for step in 0..2000u64 {
            let k = rng.gen_range(0..256u64);
            if rng.gen_bool(0.7) {
                m.insert(k, step);
                model.insert(k, step);
            } else {
                m.remove(&k);
                model.remove(&k);
            }
            let lo = rng.gen_range(0..256u64);
            let hi = lo + rng.gen_range(0..64u64);
            let expect: Vec<_> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(m.range(lo..=hi), expect, "[{lo}, {hi}]");
            // Exclusive and half-open flavors.
            let expect_ex: Vec<_> = model.range(lo..hi.max(lo)).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(m.range(lo..hi.max(lo)), expect_ex);
        }
        assert_eq!(m.range(..), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_stripes() {
        let m = Arc::new(SkipListMap::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let base = tid * 2000;
                    for i in 0..2000 {
                        assert_eq!(m.insert(base + i, i), None);
                    }
                    for i in (0..2000).step_by(2) {
                        assert_eq!(m.remove(&(base + i)), Some(i));
                    }
                });
            }
        });
        assert_eq!(m.len(), 4 * 1000);
    }

    #[test]
    fn concurrent_shared_contention() {
        let m = Arc::new(SkipListMap::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(tid);
                    for i in 0..30_000u64 {
                        let k = rng.gen_range(0..64u64);
                        if i % 2 == 0 {
                            m.insert(k, i);
                        } else {
                            m.remove(&k);
                        }
                    }
                });
            }
        });
        // Sorted, unique keys within range.
        let snap = m.collect();
        for w in snap.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(snap.iter().all(|(k, _)| *k < 64));
    }

    /// Replaces and removes race on four keys, so deletes keep meeting
    /// nodes whose inserts are still linking their towers, and finds for
    /// neighbouring keys unlink those nodes at the bottom level without
    /// passing their upper levels. The [`audit`] makes every walk panic
    /// if it reaches a node retired before the walk started, i.e. a node
    /// retired while some level still linked it.
    #[test]
    fn no_walk_reaches_a_node_retired_before_it_started() {
        let m = SkipListMap::new();
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(tid);
                    for i in 0..100_000u64 {
                        let k = rng.gen_range(0..4u64);
                        let _ = match rng.gen_range(0..3) {
                            0 => m.insert(k, i),
                            1 => m.remove(&k),
                            _ => m.get(&k),
                        };
                    }
                });
            }
        });
        assert!(m.collect().iter().all(|(k, _)| *k < 4));
    }
}
