//! The concurrent hopscotch table itself. See the crate docs for the
//! layout and the full safety argument; `docs/HASHING.md` in the
//! repository root is the narrative version.

use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use llxscx::epoch::{unprotected, Atomic, Guard, Owned, Shared};
use llxscx::guard_cache;

use crate::hash::FxBuildHasher;

/// Neighborhood width `H`: every key rests within `H` slots of its home
/// bucket, so a lookup probes at most the `H` slots named by one hop
/// bitmap (one `u32`). 32 slots sustain load factors past 0.9 before
/// displacement starts failing (the classic hopscotch trade-off).
pub const HOP_RANGE: usize = 32;

/// How far past the home bucket an insert may scan for a free slot
/// before giving up and resizing. A failed scan within `ADD_RANGE`
/// means the table is effectively full in that region.
pub const ADD_RANGE: usize = 256;

/// Slots covered by one write-lock stripe.
const STRIPE: usize = 64;

/// Smallest home-bucket count a table is created with.
const MIN_CAP: usize = 64;

/// A key/value pair, heap-allocated once and immutable afterwards;
/// value updates swap the whole entry pointer, so readers never observe
/// a torn pair.
struct Entry<K, V> {
    key: K,
    value: V,
}

/// One immutable-shape table generation. The arrays never move or grow;
/// a resize builds a whole new `Table` and publishes it through
/// [`HopMap::table`].
struct Table<K, V> {
    /// Home-bucket count; a power of two.
    cap: usize,
    /// `cap - 1`, the home-bucket index mask.
    mask: u64,
    /// `cap + ADD_RANGE` physical slots. The overflow tail (instead of
    /// wraparound) keeps every neighborhood a contiguous, ascending slot
    /// interval — which is what makes the ordered-stripe lock protocol
    /// below deadlock-free.
    slots: Box<[Atomic<Entry<K, V>>]>,
    /// Per home bucket: bit `i` set ⇔ slot `home + i` holds an entry
    /// whose home is this bucket.
    hops: Box<[AtomicU32]>,
    /// Per home bucket: seqlock version. Odd ⇔ a displacement involving
    /// an entry of this bucket is in flight. Writers acquire it with a
    /// CAS (even → odd), so two displacers moving *different* entries of
    /// the same bucket serialize instead of interleaving their bumps.
    vers: Box<[AtomicU32]>,
    /// Write locks, one per [`STRIPE`] physical slots. All slot stores
    /// happen under the owning stripe's lock; stripes are only ever
    /// acquired in increasing index order.
    locks: Box<[Mutex<()>]>,
}

impl<K, V> Table<K, V> {
    fn new(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        let slot_count = cap + ADD_RANGE;
        Table {
            cap,
            mask: (cap - 1) as u64,
            slots: (0..slot_count).map(|_| Atomic::null()).collect(),
            hops: (0..cap).map(|_| AtomicU32::new(0)).collect(),
            vers: (0..cap).map(|_| AtomicU32::new(0)).collect(),
            locks: (0..slot_count.div_ceil(STRIPE))
                .map(|_| Mutex::new(()))
                .collect(),
        }
    }
}

// A retired `Table`'s drop frees only its arrays: the `Atomic` slots
// have no drop glue (entry pointers were migrated into the successor
// table and are owned there), so sharing entry pointers across
// generations during a resize cannot double-free.

/// Spin budget before a seqlock waiter starts yielding its timeslice.
/// Spinning is right when the writer holding the odd version is running
/// on another core (the critical section is a handful of stores), but on
/// an oversubscribed host the writer may be preempted mid-section — a
/// pure spin then burns the waiter's whole quantum without ever letting
/// the writer finish. Past the budget, `yield_now` hands the CPU back.
const SPIN_LIMIT: u32 = 64;

/// One step of bounded spin-then-yield backoff; see [`SPIN_LIMIT`].
#[inline]
fn backoff(spins: &mut u32) {
    if *spins < SPIN_LIMIT {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Takes a stripe lock. Stripes guard no data, so a panicked holder
/// leaves nothing to repair and poisoning is ignored.
fn stripe(m: &Mutex<()>) -> MutexGuard<'_, ()> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires bucket `v`'s seqlock for writing: spins until the version is
/// even and the CAS to odd succeeds. The critical section is a handful
/// of stores with no blocking inside, so contention resolves in nanoseconds.
fn lock_version(v: &AtomicU32) {
    let mut spins = 0;
    loop {
        let cur = v.load(Ordering::Relaxed);
        if cur & 1 == 0
            && v.compare_exchange_weak(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
        backoff(&mut spins);
    }
}

/// Audit outcome of [`HopMap::audit`]: structural errors found (empty ⇔
/// valid) plus occupancy statistics.
#[derive(Debug)]
pub struct AuditReport {
    /// Human-readable descriptions of every invariant violation found.
    pub errors: Vec<String>,
    /// Entries present in the table.
    pub occupied: usize,
    /// Home-bucket count of the current table generation.
    pub capacity: usize,
    /// Largest observed distance from an entry's slot to its home bucket
    /// (the bounded-probe invariant requires `< HOP_RANGE`).
    pub max_probe: usize,
}

impl AuditReport {
    /// Whether the audit found no invariant violations.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A concurrent hopscotch-style hash map.
///
/// See the crate-level docs for the design and the safety argument.
/// `len` is a maintained counter (exact when the map is quiescent);
/// ordered scans ([`sorted_range`](Self::sorted_range)) are per-key
/// linearizable, **not** atomic snapshots — same scope as the suite's
/// skip list.
pub struct HopMap<K, V, S = FxBuildHasher> {
    table: Atomic<Table<K, V>>,
    hasher: S,
    len: AtomicUsize,
    resizes: AtomicUsize,
}

impl<K, V> HopMap<K, V, FxBuildHasher> {
    /// An empty map with the default (deterministic) hasher and the
    /// minimum capacity.
    pub fn new() -> Self {
        Self::with_capacity_and_hasher(MIN_CAP, FxBuildHasher)
    }

    /// An empty map sized for `cap` home buckets (rounded up to a power
    /// of two, at least the minimum capacity).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_hasher(cap, FxBuildHasher)
    }
}

impl<K, V> Default for HopMap<K, V, FxBuildHasher> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: BuildHasher> HopMap<K, V, S> {
    /// An empty map with a caller-provided [`BuildHasher`] (tests use
    /// degenerate hashers to force same-neighborhood collisions).
    pub fn with_hasher(hasher: S) -> Self {
        Self::with_capacity_and_hasher(MIN_CAP, hasher)
    }

    /// An empty map with both an initial capacity and a hasher.
    pub fn with_capacity_and_hasher(cap: usize, hasher: S) -> Self {
        let cap = cap.next_power_of_two().max(MIN_CAP);
        HopMap {
            table: Atomic::new(Table::new(cap)),
            hasher,
            len: AtomicUsize::new(0),
            resizes: AtomicUsize::new(0),
        }
    }

    /// Number of keys present. Maintained as a counter: exact when the
    /// map is quiescent, momentarily off by in-flight operations
    /// otherwise.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the map holds no keys (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Home-bucket count of the current table generation.
    pub fn capacity(&self) -> usize {
        // SAFETY: `table` is never null after construction and is loaded under `g`,
        // so the current generation stays allocated while we read `cap`.
        guard_cache::with_guard(|g| unsafe { self.table.load(Ordering::Acquire, g).deref().cap })
    }

    /// How many times the table has grown since construction.
    pub fn resizes(&self) -> usize {
        self.resizes.load(Ordering::Relaxed)
    }
}

impl<K, V, S> HopMap<K, V, S>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BuildHasher,
{
    fn hash_of(&self, k: &K) -> u64 {
        self.hasher.hash_one(k)
    }

    fn home(&self, k: &K, t: &Table<K, V>) -> usize {
        (self.hash_of(k) & t.mask) as usize
    }

    // ---------------------------------------------------------------
    // Point operations. Each pins through the shared
    // `llxscx::guard_cache`, exactly like the trees, and runs its `*_in`
    // body under that guard.
    // ---------------------------------------------------------------

    /// [`get`](Self::get) under a caller-provided epoch guard.
    fn get_in(&self, k: &K, g: &Guard) -> Option<V> {
        // SAFETY: `table` is never null; loaded under `g`, the generation cannot be
        // freed before the guard drops.
        let t = unsafe { self.table.load(Ordering::Acquire, g).deref() };
        let h = self.home(k, t);
        let mut spins = 0;
        loop {
            let v1 = t.vers[h].load(Ordering::Acquire);
            if v1 & 1 == 1 {
                // A displacement involving this bucket is in flight.
                backoff(&mut spins);
                continue;
            }
            let mut hop = t.hops[h].load(Ordering::Acquire);
            while hop != 0 {
                let bit = hop.trailing_zeros() as usize;
                hop &= hop - 1;
                let e = t.slots[h + bit].load(Ordering::Acquire, g);
                // SAFETY: non-null slot entries are live: removal retires them through the
                // epoch, and `g` pins the current epoch.
                if let Some(er) = unsafe { e.as_ref() } {
                    if er.key == *k {
                        return Some(er.value.clone());
                    }
                }
            }
            // Miss. Only valid if no displacement raced us: a concurrent
            // displacement can make a *present* key invisible (bit for
            // the old slot cleared, bit for the new slot not yet seen).
            // Insert and remove never need this — they publish/retract a
            // key with a single hop-bit edit, which the snapshot above
            // either sees or doesn't (both orders linearizable).
            if t.vers[h].load(Ordering::Acquire) == v1 {
                return None;
            }
        }
    }

    /// Lock-free lookup. Linearizes at the hop-bitmap read (hit) or the
    /// version re-check (miss).
    pub fn get(&self, k: &K) -> Option<V> {
        guard_cache::with_guard(|g| self.get_in(k, g))
    }

    /// [`insert`](Self::insert) under a caller-provided epoch guard.
    fn insert_in(&self, k: K, v: V, g: &Guard) -> Option<V> {
        'restart: loop {
            let t_shared = self.table.load(Ordering::Acquire, g);
            // SAFETY: `table` is never null; the generation is alive under `g`.
            let t = unsafe { t_shared.deref() };
            let h = self.home(&k, t);
            // Lock the neighborhood's stripes (in increasing order), then
            // re-check the table pointer: a resize holds ALL stripes, so
            // an unchanged pointer under ≥ 1 held stripe means no resize
            // can complete until we release. Stripes acquired later in
            // this operation are strictly higher-indexed, which a blocked
            // resizer (parked on our lowest stripe, holding only lower
            // ones) can never contend — hence no deadlock and no further
            // pointer re-checks.
            let first_stripe = h / STRIPE;
            let mut last_stripe = (h + HOP_RANGE - 1) / STRIPE;
            let mut stripes: Vec<_> = (first_stripe..=last_stripe)
                .map(|i| stripe(&t.locks[i]))
                .collect();
            if self.table.load(Ordering::Acquire, g) != t_shared {
                drop(stripes);
                continue 'restart;
            }
            // 1) Key already present in the neighborhood: replace the
            //    entry wholesale (readers see old or new, never a torn
            //    pair). The hop word is frozen while we hold the
            //    neighborhood's stripes — any writer that could edit one
            //    of its bits must hold the corresponding slot's stripe.
            let mut hop = t.hops[h].load(Ordering::Acquire);
            while hop != 0 {
                let bit = hop.trailing_zeros() as usize;
                hop &= hop - 1;
                let s = h + bit;
                let e = t.slots[s].load(Ordering::Acquire, g);
                // SAFETY: non-null slot entries are epoch-retired, hence alive under `g`.
                if let Some(er) = unsafe { e.as_ref() } {
                    if er.key == k {
                        let old = er.value.clone();
                        t.slots[s].store(Owned::new(Entry { key: k, value: v }), Ordering::Release);
                        // SAFETY: the store above unlinked `e` from its slot while holding the
                        // segment lock; no new reader can reach it, existing readers are pinned.
                        unsafe { g.defer_destroy(e) };
                        return Some(old);
                    }
                }
            }
            // 2) Find a free slot within ADD_RANGE of home, extending the
            //    held stripe run upward as the scan crosses boundaries.
            let mut free = None;
            for s in h..h + ADD_RANGE {
                while s / STRIPE > last_stripe {
                    last_stripe += 1;
                    stripes.push(stripe(&t.locks[last_stripe]));
                }
                if t.slots[s].load(Ordering::Acquire, g).is_null() {
                    free = Some(s);
                    break;
                }
            }
            let Some(mut f) = free else {
                drop(stripes);
                self.grow(t_shared, g);
                continue 'restart;
            };
            // 3) Hopscotch: walk the free slot home-ward. Each step picks
            //    an entry below `f` that may legally rest at `f` (its own
            //    home is within HOP_RANGE of `f`) and moves it up,
            //    freeing its old slot. Both slots are under our stripes;
            //    the entry's home bucket `hb` may be outside them, but
            //    its hop word is only edited at bits owned by slots we
            //    hold (atomic RMWs keep other bits intact), and its
            //    seqlock serializes us against both readers and other
            //    displacers of that bucket.
            while f >= h + HOP_RANGE {
                let mut victim = None;
                for j in (f + 1 - HOP_RANGE)..f {
                    let cand = t.slots[j].load(Ordering::Acquire, g);
                    // SAFETY: candidate slot entry; non-null entries are alive under `g`.
                    let Some(cr) = (unsafe { cand.as_ref() }) else {
                        continue;
                    };
                    let hb = self.home(&cr.key, t);
                    debug_assert!(
                        hb <= j && j - hb < HOP_RANGE,
                        "entry out of its neighborhood"
                    );
                    if hb + HOP_RANGE <= f {
                        continue; // would land outside its neighborhood
                    }
                    victim = Some((j, cand, hb));
                    break;
                }
                let Some((j, cand, hb)) = victim else {
                    drop(stripes);
                    self.grow(t_shared, g);
                    continue 'restart;
                };
                lock_version(&t.vers[hb]);
                t.slots[f].store(cand, Ordering::Release);
                t.hops[hb].fetch_or(1 << (f - hb), Ordering::AcqRel);
                t.hops[hb].fetch_and(!(1u32 << (j - hb)), Ordering::AcqRel);
                t.slots[j].store(Shared::null(), Ordering::Release);
                t.vers[hb].fetch_add(1, Ordering::Release);
                f = j;
            }
            // 4) Publish: slot first, hop bit second. The fetch_or is the
            //    linearization point — before it the key is absent to
            //    every reader, after it present.
            t.slots[f].store(Owned::new(Entry { key: k, value: v }), Ordering::Release);
            t.hops[h].fetch_or(1 << (f - h), Ordering::AcqRel);
            self.len.fetch_add(1, Ordering::Relaxed);
            return None;
        }
    }

    /// Inserts, returning the displaced value.
    pub fn insert(&self, k: K, v: V) -> Option<V> {
        guard_cache::with_guard(|g| self.insert_in(k, v, g))
    }

    /// [`remove`](Self::remove) under a caller-provided epoch guard.
    fn remove_in(&self, k: &K, g: &Guard) -> Option<V> {
        loop {
            let t_shared = self.table.load(Ordering::Acquire, g);
            // SAFETY: `table` is never null; the generation is alive under `g`.
            let t = unsafe { t_shared.deref() };
            let h = self.home(k, t);
            let stripes: Vec<_> = (h / STRIPE..=(h + HOP_RANGE - 1) / STRIPE)
                .map(|i| stripe(&t.locks[i]))
                .collect();
            if self.table.load(Ordering::Acquire, g) != t_shared {
                drop(stripes);
                continue;
            }
            let mut hop = t.hops[h].load(Ordering::Acquire);
            while hop != 0 {
                let bit = hop.trailing_zeros() as usize;
                hop &= hop - 1;
                let s = h + bit;
                let e = t.slots[s].load(Ordering::Acquire, g);
                // SAFETY: non-null slot entries are epoch-retired, hence alive under `g`.
                if let Some(er) = unsafe { e.as_ref() } {
                    if er.key == *k {
                        // Bit first (the linearization point: the key
                        // becomes invisible), then the slot. A reader
                        // holding the old bitmap that still probes the
                        // slot either finds the entry (linearizes before
                        // us) or a null (skips it).
                        t.hops[h].fetch_and(!(1u32 << bit), Ordering::AcqRel);
                        t.slots[s].store(Shared::null(), Ordering::Release);
                        let v = er.value.clone();
                        // SAFETY: the null store above unlinked `e` under the segment lock; readers
                        // still traversing hold guards, so destruction is epoch-deferred.
                        unsafe { g.defer_destroy(e) };
                        self.len.fetch_sub(1, Ordering::Relaxed);
                        return Some(v);
                    }
                }
            }
            return None;
        }
    }

    /// Removes, returning the removed value.
    pub fn remove(&self, k: &K) -> Option<V> {
        guard_cache::with_guard(|g| self.remove_in(k, g))
    }

    // ---------------------------------------------------------------
    // Ordered scans: a sorted drain, per-key linearizable.
    // ---------------------------------------------------------------

    /// Every entry whose key `keep` accepts, sorted by key.
    ///
    /// **Consistency scope:** per-key linearizable, like the suite's
    /// skip-list scans — each bucket is read as a seqlock-consistent
    /// snapshot (so a scan is sorted, duplicate-free, never shows a
    /// phantom and never misses a key that was present for the whole
    /// scan), but different buckets may reflect different instants.
    /// Callers needing an atomic snapshot use a tree.
    fn scan(&self, keep: impl Fn(&K) -> bool) -> Vec<(K, V)>
    where
        K: Ord,
    {
        guard_cache::with_guard(|g| {
            // SAFETY: `table` is never null; the generation is alive under `g`.
            let t = unsafe { self.table.load(Ordering::Acquire, g).deref() };
            let mut out = Vec::new();
            for h in 0..t.cap {
                let mut spins = 0;
                loop {
                    let v1 = t.vers[h].load(Ordering::Acquire);
                    if v1 & 1 == 1 {
                        backoff(&mut spins);
                        continue;
                    }
                    let start = out.len();
                    let mut hop = t.hops[h].load(Ordering::Acquire);
                    while hop != 0 {
                        let bit = hop.trailing_zeros() as usize;
                        hop &= hop - 1;
                        let e = t.slots[h + bit].load(Ordering::Acquire, g);
                        // SAFETY: non-null slot entries are epoch-retired, hence alive under `g`.
                        if let Some(er) = unsafe { e.as_ref() } {
                            // The home filter drops entries a *stale* hop
                            // bit points at: after remove-then-reinsert of
                            // the slot by another bucket's insert, the
                            // slot can hold a foreign entry — which its
                            // own bucket's pass will report instead.
                            if self.home(&er.key, t) == h && keep(&er.key) {
                                out.push((er.key.clone(), er.value.clone()));
                            }
                        }
                    }
                    if t.vers[h].load(Ordering::Acquire) == v1 {
                        break;
                    }
                    out.truncate(start); // displacement raced us: redo bucket
                }
            }
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            out
        })
    }

    /// Entries with keys in `[lo, hi]`, sorted by key. See
    /// [`sorted_items`](Self::sorted_items) for the consistency scope.
    pub fn sorted_range(&self, lo: &K, hi: &K) -> Vec<(K, V)>
    where
        K: Ord,
    {
        self.scan(|k| lo <= k && k <= hi)
    }

    /// All entries, sorted by key — a per-key-linearizable sorted drain
    /// (each per-bucket snapshot is consistent; buckets may reflect
    /// different instants).
    pub fn sorted_items(&self) -> Vec<(K, V)>
    where
        K: Ord,
    {
        self.scan(|_| true)
    }

    // ---------------------------------------------------------------
    // Resize.
    // ---------------------------------------------------------------

    /// Grows the table (called after a placement failure). Takes every
    /// stripe in increasing order — excluding all writers — then
    /// re-checks that `expected` is still current (a racing grow may
    /// have already replaced it). Entry *pointers* migrate into a table
    /// of twice the capacity; the old table is never modified (readers
    /// that loaded it mid-operation finish against a frozen, complete
    /// generation and linearize at their table load), then retired
    /// through the epoch — its drop frees only the arrays.
    fn grow(&self, expected: Shared<'_, Table<K, V>>, g: &Guard) {
        // SAFETY: `expected` is the table the caller just loaded under `g` and is
        // never null.
        let t = unsafe { expected.deref() };
        let _all: Vec<_> = t.locks.iter().map(stripe).collect();
        if self.table.load(Ordering::Acquire, g) != expected {
            return; // someone else already grew this generation
        }
        let mut new_cap = t.cap << 1;
        loop {
            let new_t = Table::new(new_cap);
            let mut ok = true;
            for slot in t.slots.iter() {
                let e = slot.load(Ordering::Acquire, g);
                if e.is_null() {
                    continue;
                }
                if !self.place_unsynced(&new_t, e, g) {
                    ok = false;
                    break;
                }
            }
            if ok {
                // SEQCST: resize publish; totally ordered with every slot store it must precede.
                self.table.store(Owned::new(new_t), Ordering::SeqCst);
                // SAFETY: the store above replaced `expected` as the published table with
                // every segment lock held; its Drop frees only the arrays (entries were
                // transplanted), and pinned readers defer that free.
                unsafe { g.defer_destroy(expected) };
                self.resizes.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Pathological hash distribution: even 2x couldn't place an
            // entry within its neighborhood. Double again and rebuild.
            new_cap <<= 1;
        }
    }

    /// Sequential hopscotch placement into a table no other thread can
    /// see yet (resize migration): same displacement walk as
    /// [`insert_in`] without locks or version traffic. Returns false if
    /// the entry cannot be placed (caller doubles and retries).
    fn place_unsynced(&self, t: &Table<K, V>, e: Shared<'_, Entry<K, V>>, g: &Guard) -> bool {
        // SAFETY: `e` is the caller's freshly allocated, non-null entry.
        let h = self.home(&unsafe { e.deref() }.key, t);
        let mut free = None;
        for s in h..h + ADD_RANGE {
            if t.slots[s].load(Ordering::Relaxed, g).is_null() {
                free = Some(s);
                break;
            }
        }
        let Some(mut f) = free else { return false };
        while f >= h + HOP_RANGE {
            let mut victim = None;
            for j in (f + 1 - HOP_RANGE)..f {
                let cand = t.slots[j].load(Ordering::Relaxed, g);
                // SAFETY: resize path: every segment lock is held, entries cannot be freed.
                let Some(cr) = (unsafe { cand.as_ref() }) else {
                    continue;
                };
                let hb = self.home(&cr.key, t);
                if hb + HOP_RANGE <= f {
                    continue;
                }
                victim = Some((j, cand, hb));
                break;
            }
            let Some((j, cand, hb)) = victim else {
                return false;
            };
            t.slots[f].store(cand, Ordering::Relaxed);
            t.hops[hb].fetch_or(1 << (f - hb), Ordering::Relaxed);
            t.hops[hb].fetch_and(!(1u32 << (j - hb)), Ordering::Relaxed);
            t.slots[j].store(Shared::null(), Ordering::Relaxed);
            f = j;
        }
        t.slots[f].store(e, Ordering::Relaxed);
        t.hops[h].fetch_or(1 << (f - h), Ordering::Relaxed);
        true
    }

    // ---------------------------------------------------------------
    // Structural audit (for the stress tests).
    // ---------------------------------------------------------------

    /// Checks every structural invariant of the current table
    /// generation: bounded probes (every entry within `HOP_RANGE` of its
    /// home), exact hop-bitmap/slot agreement, no duplicate keys, and a
    /// `len` counter matching the occupancy. Only meaningful on a
    /// quiescent map (concurrent writers make the snapshot torn).
    pub fn audit(&self) -> AuditReport
    where
        K: Ord,
    {
        guard_cache::with_guard(|g| {
            // SAFETY: `table` is never null; the generation is alive under `g`.
            let t = unsafe { self.table.load(Ordering::Acquire, g).deref() };
            let mut errors = Vec::new();
            let mut occupied = 0usize;
            let mut max_probe = 0usize;
            let mut keys: Vec<&K> = Vec::new();
            for (s, slot) in t.slots.iter().enumerate() {
                let e = slot.load(Ordering::Acquire, g);
                // SAFETY: non-null slot entries are epoch-retired, hence alive under `g`.
                let Some(er) = (unsafe { e.as_ref() }) else {
                    continue;
                };
                occupied += 1;
                keys.push(&er.key);
                let hb = self.home(&er.key, t);
                if hb > s || s - hb >= HOP_RANGE {
                    errors.push(format!(
                        "slot {s}: entry outside its neighborhood (home {hb})"
                    ));
                    continue;
                }
                max_probe = max_probe.max(s - hb);
                if t.hops[hb].load(Ordering::Acquire) & (1 << (s - hb)) == 0 {
                    errors.push(format!("slot {s}: home {hb} hop bit not set"));
                }
            }
            for (h, hops) in t.hops.iter().enumerate() {
                let mut hop = hops.load(Ordering::Acquire);
                while hop != 0 {
                    let bit = hop.trailing_zeros() as usize;
                    hop &= hop - 1;
                    let e = t.slots[h + bit].load(Ordering::Acquire, g);
                    // SAFETY: hop-bit target slot; non-null entries are alive under `g`.
                    match unsafe { e.as_ref() } {
                        None => errors.push(format!("bucket {h}: bit {bit} points at empty slot")),
                        Some(er) if self.home(&er.key, t) != h => errors.push(format!(
                            "bucket {h}: bit {bit} points at foreign entry (home {})",
                            self.home(&er.key, t)
                        )),
                        Some(_) => {}
                    }
                }
            }
            keys.sort_unstable();
            for w in keys.windows(2) {
                if w[0] == w[1] {
                    errors.push("duplicate key present".to_string());
                }
            }
            if self.len() != occupied {
                errors.push(format!(
                    "len counter {} != occupancy {occupied}",
                    self.len()
                ));
            }
            AuditReport {
                errors,
                occupied,
                capacity: t.cap,
                max_probe,
            }
        })
    }
}

impl<K, V, S> Drop for HopMap<K, V, S> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`: no other thread holds a reference, so the unprotected
        // guard is sound and the current generation owns every live entry.
        let g = unsafe { unprotected() };
        let t_shared = self.table.load(Ordering::Relaxed, g);
        // SAFETY: exclusive `&mut self` in Drop — no concurrent readers.
        if let Some(t) = unsafe { t_shared.as_ref() } {
            for slot in t.slots.iter() {
                let e = slot.load(Ordering::Relaxed, g);
                if !e.is_null() {
                    // SAFETY: each live entry is owned solely by this table generation.
                    drop(unsafe { e.into_owned() });
                }
            }
        }
        if !t_shared.is_null() {
            // SAFETY: the table itself is exclusively owned here.
            drop(unsafe { t_shared.into_owned() });
        }
    }
}
