//! The concurrent hopscotch table itself. See the crate docs for the
//! layout and the full safety argument; `docs/HASHING.md` in the
//! repository root is the narrative version.

use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use llxscx::epoch::{self, unprotected, Atomic, Guard, Owned, Shared};

use crate::hash::FxBuildHasher;

/// Neighborhood width `H`: every key rests within `H` slots of its home
/// bucket, so a lookup probes at most the `H` slots named by one hop
/// bitmap (the low 32 bits of the bucket word). 32 slots sustain load
/// factors past 0.9 before displacement starts failing (the classic
/// hopscotch trade-off).
pub const HOP_RANGE: usize = 32;

/// How far past the home bucket an insert may scan for a free slot
/// before giving up and resizing. A failed scan within `ADD_RANGE`
/// means the table is effectively full in that region.
pub const ADD_RANGE: usize = 256;

/// Slots covered by one write-lock stripe: one bit each in the stripe's
/// `u64` occupancy bitmap.
const STRIPE: usize = 64;

/// Smallest home-bucket count a table is created with.
const MIN_CAP: usize = 64;

/// One step of a bucket word's version, which is the word's high 32 bits.
/// Each edit of the bucket publishes the next version, together with its
/// new hop bitmap, in one store.
const VERSION: u64 = 1 << 32;

/// The largest home-bucket count whose bucket array fits in `isize::MAX`
/// bytes (2^58 on 64-bit targets): no table indexes a key by hash bit
/// `MAX_CAP.ilog2()` or any bit above it.
const MAX_CAP: usize =
    1 << (isize::MAX as usize / std::mem::size_of::<Bucket>() - ADD_RANGE).ilog2();

/// A pause point in [`Table::edit`], between the slot stores and the
/// word store: parks the writer there when a test asks it to. Expands to
/// nothing outside `cfg(test)`.
macro_rules! pause {
    ($h:expr) => {
        #[cfg(test)]
        crate::tests::stall::pause($h);
    };
}

/// A key or value type the table stores inline, as one 64-bit word.
///
/// Readers copy a slot's words without a lock and keep the copy only if
/// the bucket's word did not move meanwhile, so the stored form must
/// itself be atomic: a type converts to and from the `u64` kept in an
/// `AtomicU64`. Keys compare by their words, so the
/// conversion must round-trip: `from_bits(x.to_bits()) == x`. The table
/// calls `from_bits` only on words `to_bits` produced.
pub trait Word: Copy + Eq + Send + Sync + 'static {
    /// This value as a table word.
    fn to_bits(self) -> u64;
    /// The value `to_bits` turned into `bits`.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_word {
    ($($t:ty)*) => {$(
        impl Word for $t {
            #[inline]
            fn to_bits(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_word!(u32 u64 i64);

/// One physical slot, and for the first `cap` slots of a table also one
/// home bucket: 24 bytes, so a hit on a key in its home slot reads one
/// bucket.
#[derive(Default)]
struct Bucket {
    /// The home bucket's state: the version in the high 32 bits and the
    /// hop bitmap in the low 32 (bit `i` set ⇔ slot `home + i` holds one
    /// of this bucket's keys). Every edit of a slot this bitmap names
    /// goes through this word. Zero in the overflow slots.
    word: AtomicU64,
    /// The slot's key, as [`Word::to_bits`] made it.
    key: AtomicU64,
    /// The slot's value, as [`Word::to_bits`] made it.
    value: AtomicU64,
}

impl Bucket {
    /// The slot's key and value words. Consistent only under the owning
    /// bucket's stripes, or once that bucket's word re-check passes.
    #[inline]
    fn words(&self) -> (u64, u64) {
        (
            // RELAXED: lock-free read data (Bucket::words): a slot's key word; kept only by a
            // writer holding its stripe or a reader whose word re-check passes, which the fence
            // pair makes fail if the load saw a reuse of the slot
            self.key.load(Ordering::Relaxed),
            // RELAXED: lock-free read data (Bucket::words): a slot's value word; kept only by a
            // writer holding its stripe or a reader whose word re-check passes, which the fence
            // pair makes fail if the load saw a reuse of the slot
            self.value.load(Ordering::Relaxed),
        )
    }

    /// Stores a key and value into the slot; only inside
    /// [`Table::edit`] of the bucket whose hop bit names the slot.
    #[inline]
    fn set(&self, (key, value): (u64, u64)) {
        // RELAXED: slot key store (Bucket::set): inside Table::edit after its Release fence, into a
        // slot no current hop bitmap names; a reader that loads it, then Acquire-fences, re-loads
        // the word that vacated the slot or a later one and fails its re-check
        self.key.store(key, Ordering::Relaxed);
        // RELAXED: slot value store (Bucket::set): inside Table::edit after its Release fence, into
        // a slot no current hop bitmap names; a reader that loads it, then Acquire-fences, re-loads
        // the word that vacated the slot or a later one and fails its re-check
        self.value.store(value, Ordering::Relaxed);
    }
}

/// The slots a bitmap names, lowest first: `h + i` for each set bit `i`.
/// Walks hop bitmaps (from home bucket `h`) and occupancy bitmaps (from
/// a stripe's first slot); the one bit walk of the crate.
#[inline]
fn slots(h: usize, bits: impl Into<u64>) -> impl Iterator<Item = usize> {
    let mut bits = bits.into();
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            h + bit
        })
    })
}

/// One immutable-shape table generation. The arrays never move or grow;
/// a resize builds a whole new `Table` and publishes it through
/// [`HopMap::table`].
struct Table {
    /// Home-bucket count; a power of two.
    cap: usize,
    /// `cap - 1`, the home-bucket index mask.
    mask: u64,
    /// `cap + ADD_RANGE` buckets. The overflow tail (instead of
    /// wraparound) keeps every neighborhood a contiguous, ascending slot
    /// interval — which is what makes the ordered-stripe lock protocol
    /// below deadlock-free.
    buckets: Box<[Bucket]>,
    /// Write locks, one per [`STRIPE`] slots, each guarding its slots'
    /// occupancy bitmap (bit `i` ⇔ slot `STRIPE * stripe + i` holds a
    /// key). All slot stores happen under the owning stripe's lock;
    /// stripes are only ever acquired in increasing index order.
    stripes: Box<[Mutex<u64>]>,
}

impl Table {
    fn new(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        let slot_count = cap + ADD_RANGE;
        Table {
            cap,
            mask: (cap - 1) as u64,
            buckets: (0..slot_count).map(|_| Bucket::default()).collect(),
            stripes: (0..slot_count.div_ceil(STRIPE))
                .map(|_| Mutex::new(0))
                .collect(),
        }
    }

    /// The home bucket of a key with full hash `hash`.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    /// Bucket `h`'s hop bitmap, for a writer: the bits naming slots under
    /// the caller's stripes cannot change while it holds them.
    #[inline]
    fn hop(&self, h: usize) -> u32 {
        // RELAXED: writer's hop-bitmap read (Table::hop): the bits of slots under the caller's
        // stripes are only edited under those stripes, so the mutex orders them; other bits are not
        // used
        self.buckets[h].word.load(Ordering::Relaxed) as u32
    }

    /// The slot among those `hop` names for bucket `h` whose key word is `key`.
    #[inline]
    fn find(&self, h: usize, hop: u32, key: u64) -> Option<usize> {
        // RELAXED: key-word compare (Table::find): inside a lock-free read, validated by the word
        // re-check; or under the neighborhood's stripes, which freeze the slots it reads
        slots(h, hop).find(|&s| self.buckets[s].key.load(Ordering::Relaxed) == key)
    }

    /// The lock-free read of bucket `h`: runs `read` on its hop bitmap
    /// until no edit of the bucket completed during a run, and returns
    /// that run's result. `read` may load the words of the slots the
    /// bitmap names; a run whose re-check fails is discarded and retried.
    /// A run fails only if an edit of the bucket completed during it, so
    /// some writer made progress each time: readers never wait for one.
    #[inline]
    fn read<R>(&self, h: usize, mut read: impl FnMut(u32) -> R) -> R {
        let word = &self.buckets[h].word;
        loop {
            // ACQUIRE: lock-free read begin: pairs with the Release word store that publishes an
            // edit, so the hop bits read are the ones that edit published, with its slot stores
            let w = word.load(Ordering::Acquire);
            let r = read(w as u32);
            // ACQUIRE: lock-free read fence: orders the Relaxed slot loads before the re-check; if
            // a slot load saw a store made after an edit's Release fence, every edit before it (the
            // one that vacated the slot among them) happens before the re-load, which then sees a
            // later word
            fence(Ordering::Acquire);
            // RELAXED: lock-free read re-check: ordered after the slot loads by the Acquire fence
            // above; equal to the begin load means no edit of the bucket completed during the read
            if word.load(Ordering::Relaxed) == w {
                return r;
            }
        }
    }

    /// The one-store edit of bucket `h`: runs `edit` on its hop bitmap,
    /// then publishes the next version with the bitmap `edit` returns in
    /// one Release store, the edit's linearization point (an in-place
    /// value update linearizes at its value store). `edit` makes the slot
    /// stores, only into slots the current bitmap does not name or, for
    /// an update, into a named slot's value word alone. The caller holds
    /// the stripes of every slot it touches, `h`'s among them, so that
    /// stripe's lock orders every edit of the word.
    #[inline]
    fn edit(&self, h: usize, edit: impl FnOnce(u32) -> u32) {
        let word = &self.buckets[h].word;
        // RELAXED: writer's word read (Table::edit): every writer of the word holds the stripe of
        // slot h, so that mutex orders this load after the previous edit's word store
        let w = word.load(Ordering::Relaxed);
        // RELEASE: edit fence: orders every earlier edit, including the one that vacated a slot
        // this edit reuses (seen through the slot's stripe mutex), before the Relaxed slot stores,
        // pairing with readers' Acquire fence after their slot loads
        fence(Ordering::Release);
        let hop = edit(w as u32);
        pause!(h);
        let next = (w & !u64::from(u32::MAX)).wrapping_add(VERSION) | u64::from(hop);
        // RELEASE: edit publish, the one store of an edit (next version, new hop bits): its
        // linearization point; readers that Acquire it see every slot store of the edit
        word.store(next, Ordering::Release);
    }
}

/// Stripes an insert or a remove holds at most: its neighborhood and its
/// free-slot scan lie within `ADD_RANGE` slots of home, which span at
/// most this many stripes.
const RUN: usize = ADD_RANGE / STRIPE + 1;

/// A held stripe's guard; `None` above the top of the run.
type Held<'t> = Option<MutexGuard<'t, u64>>;

/// Where a [`Stripes`] run keeps its guards: inline for a point write
/// ([`Run`]), which therefore allocates nothing, and in a boxed slice for
/// a whole table ([`All`]).
trait Holder<'t>: AsRef<[Held<'t>]> + AsMut<[Held<'t>]> {}

impl<'t, H: AsRef<[Held<'t>]> + AsMut<[Held<'t>]>> Holder<'t> for H {}

/// A run of one table's consecutive stripes, held from stripe `first` up.
/// A run only grows at its top, so every holder acquires stripes in
/// increasing index order. The held guards give the holder the run's
/// occupancy bitmaps.
struct Stripes<'t, H> {
    locks: &'t [Mutex<u64>],
    first: usize,
    /// Stripes held: `held[..len]`.
    len: usize,
    held: H,
}

/// The run of an insert or a remove, at most [`RUN`] stripes.
type Run<'t> = Stripes<'t, [Held<'t>; RUN]>;

/// Every stripe of a table: growth and the audit.
type All<'t> = Stripes<'t, Box<[Held<'t>]>>;

impl<'t> Run<'t> {
    /// Takes the stripes covering slots `lo..=hi`, in increasing order.
    fn lock(locks: &'t [Mutex<u64>], lo: usize, hi: usize) -> Self {
        let mut run = Stripes {
            locks,
            first: lo / STRIPE,
            len: 0,
            held: [const { None }; RUN],
        };
        run.cover(hi);
        run
    }
}

impl<'t> All<'t> {
    /// Takes every stripe of `locks`, in increasing order.
    fn lock(locks: &'t [Mutex<u64>]) -> Self {
        let mut all = Stripes {
            locks,
            first: 0,
            len: 0,
            held: locks.iter().map(|_| None).collect(),
        };
        all.cover(locks.len() * STRIPE - 1);
        all
    }
}

impl<'t, H: Holder<'t>> Stripes<'t, H> {
    /// Extends the run upward until it covers slot `s`. Each bitmap is
    /// updated right next to the slot edit it records, with nothing that
    /// can panic in between, so a poisoned stripe's bitmap is still
    /// accurate and poisoning is ignored.
    fn cover(&mut self, s: usize) {
        while self.first + self.len <= s / STRIPE {
            let m = &self.locks[self.first + self.len];
            self.held.as_mut()[self.len] = Some(m.lock().unwrap_or_else(PoisonError::into_inner));
            self.len += 1;
        }
    }

    /// The held guards, lowest stripe first.
    fn guards(&self) -> impl Iterator<Item = &u64> {
        self.held.as_ref()[..self.len]
            .iter()
            .flatten()
            .map(|g| &**g)
    }

    /// The held occupancy bitmap of slot `s`'s stripe.
    fn bits(&mut self, s: usize) -> &mut u64 {
        self.held.as_mut()[s / STRIPE - self.first]
            .as_deref_mut()
            .expect("slot under a held stripe")
    }

    /// Whether slot `s`, under a held stripe, holds a key.
    fn occupied(&self, s: usize) -> bool {
        let bits = self.held.as_ref()[s / STRIPE - self.first].as_deref();
        *bits.expect("slot under a held stripe") >> (s % STRIPE) & 1 == 1
    }

    /// Records that slot `s` now holds a key.
    fn fill(&mut self, s: usize) {
        *self.bits(s) |= 1 << (s % STRIPE);
    }

    /// Records that slot `s` is now free.
    fn vacate(&mut self, s: usize) {
        *self.bits(s) &= !(1 << (s % STRIPE));
    }

    /// The held slots that hold a key, lowest first.
    fn filled(&self) -> impl Iterator<Item = usize> + '_ {
        (self.first..)
            .zip(self.guards())
            .flat_map(|(i, &bits)| slots(i * STRIPE, bits))
    }

    /// The lowest free slot in `lo..hi`, extending the run upward as the
    /// scan crosses stripe boundaries.
    fn free_slot(&mut self, lo: usize, hi: usize) -> Option<usize> {
        let mut s = lo;
        while s < hi {
            self.cover(s);
            let free = !*self.bits(s) >> (s % STRIPE);
            if free != 0 {
                let f = s + free.trailing_zeros() as usize;
                return (f < hi).then_some(f);
            }
            s = (s / STRIPE + 1) * STRIPE;
        }
        None
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

/// A value on a cache line of its own.
#[repr(align(64))]
struct CacheLine<T>(T);

/// A concurrent hopscotch-style hash map over [`Word`] keys and values.
///
/// See the crate-level docs for the design and the safety argument.
/// `len` is a maintained counter (exact when the map is quiescent);
/// ordered scans ([`sorted_range`](Self::sorted_range)) are per-key
/// linearizable, **not** atomic snapshots — same scope as the suite's
/// skip list.
pub struct HopMap<K, V, S = FxBuildHasher> {
    /// The current generation. Every operation loads it, so it sits on a
    /// line of its own: the `len` bump of every insert and remove would
    /// otherwise invalidate it in every reader's cache.
    table: CacheLine<Atomic<Table>>,
    len: AtomicUsize,
    resizes: AtomicUsize,
    hasher: S,
    _words: PhantomData<(K, V)>,
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
            table: CacheLine(Atomic::new(Table::new(cap))),
            len: AtomicUsize::new(0),
            resizes: AtomicUsize::new(0),
            hasher,
            _words: PhantomData,
        }
    }

    /// Number of keys present. Maintained as a counter: exact when the
    /// map is quiescent, momentarily off by in-flight operations
    /// otherwise.
    pub fn len(&self) -> usize {
        // RELAXED: size counter; approximate reads are documented behavior
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the map holds no keys (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Home-bucket count of the current table generation.
    pub fn capacity(&self) -> usize {
        epoch::with_guard(|g| self.current(g).cap)
    }

    /// How many times the table has grown since construction.
    pub fn resizes(&self) -> usize {
        // RELAXED: resize statistic; reporting only
        self.resizes.load(Ordering::Relaxed)
    }

    /// The current table generation.
    fn current<'g>(&self, g: &'g Guard) -> &'g Table {
        // SAFETY: `table` is never null after construction, and a replaced
        // generation is retired through the epoch, so it stays allocated while
        // `g` is held.
        // ACQUIRE: the one table-pointer read (HopMap::current): pairs with grow's SeqCst publish,
        // so the new generation's buckets and migrated words are visible before they are probed
        unsafe { self.table.0.load(Ordering::Acquire, g).deref() }
    }
}

impl<K, V, S> HopMap<K, V, S>
where
    K: Word + Hash,
    V: Word,
    S: BuildHasher,
{
    fn hash_of(&self, k: &K) -> u64 {
        self.hasher.hash_one(k)
    }

    /// Home bucket in `t` of the key stored as `key`.
    fn home_of(&self, key: u64, t: &Table) -> usize {
        t.home(self.hash_of(&K::from_bits(key)))
    }

    // ---------------------------------------------------------------
    // Point operations. Each pins through the shared
    // `llxscx::epoch`, exactly like the trees.
    // ---------------------------------------------------------------

    /// Lookup; lock-free, takes no lock and writes nothing. Linearizes at
    /// the word re-check of the key's home bucket.
    pub fn get(&self, k: &K) -> Option<V> {
        let (hash, key) = (self.hash_of(k), k.to_bits());
        epoch::with_guard(|g| {
            let t = self.current(g);
            let h = t.home(hash);
            t.read(h, |hop| {
                // RELAXED: get's value-word read: inside the lock-free read of the home bucket,
                // kept only if the word re-check passes
                t.find(h, hop, key)
                    .map(|s| t.buckets[s].value.load(Ordering::Relaxed))
            })
        })
        .map(V::from_bits)
    }

    /// Locks the stripes of the neighborhood of a key with full hash
    /// `hash` in the current table (in increasing order), then re-checks
    /// the table pointer: a resize holds ALL stripes, so an unchanged
    /// pointer under ≥ 1 held stripe means no resize can complete until
    /// the caller releases. Stripes the caller acquires later are strictly
    /// higher-indexed, which a blocked resizer (parked on our lowest
    /// stripe, holding only lower ones) can never contend — hence no
    /// deadlock and no further pointer re-checks. Returns the table, the
    /// key's home bucket in it and the held run.
    ///
    /// While the run is held, the home bucket's word is frozen: every
    /// writer that edits it touches a slot of the neighborhood and so
    /// holds one of the run's stripes.
    #[inline]
    fn lock_neighborhood<'g>(&self, hash: u64, g: &'g Guard) -> (&'g Table, usize, Run<'g>) {
        loop {
            let t = self.current(g);
            let h = t.home(hash);
            let stripes = Run::lock(&t.stripes, h, h + HOP_RANGE - 1);
            if ptr::eq(self.current(g), t) {
                return (t, h, stripes);
            }
        }
    }

    /// Inserts, returning the displaced value.
    ///
    /// # Panics
    ///
    /// If `k` cannot be placed and no capacity ever could: keys near its
    /// home whose hashes agree with `k`'s in every bit that the table
    /// does not index but a larger one could, `k` included, outnumber the
    /// slots their homes' neighborhoods span. Growth keeps
    /// such keys' homes equally spaced, so it would double until
    /// allocation fails. [`HOP_RANGE`] keys already sharing `k`'s
    /// full hash are one such case.
    pub fn insert(&self, k: K, v: V) -> Option<V> {
        let (hash, key, value) = (self.hash_of(&k), k.to_bits(), v.to_bits());
        epoch::with_guard(|g| loop {
            let (t, h, mut stripes) = self.lock_neighborhood(hash, g);
            if let Some(s) = t.find(h, t.hop(h), key) {
                let slot = &t.buckets[s];
                // RELAXED: in-place update reads the old value under the neighborhood's stripes,
                // which order it after the slot's last store
                let prev = slot.value.load(Ordering::Relaxed);
                t.edit(h, |hop| {
                    // RELAXED: in-place value store inside Table::edit of the home bucket, after
                    // its Release fence: the update's linearization point, into a named slot whose
                    // key it leaves unchanged, so a reader pairs the key with the old value or the
                    // new one
                    slot.value.store(value, Ordering::Relaxed);
                    hop
                });
                return Some(V::from_bits(prev));
            }
            if self.place(t, h, (key, value), &mut stripes) {
                // RELAXED: size counter; approximate reads are documented behavior
                self.len.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            drop(stripes);
            self.grow(t, hash, g);
        })
    }

    /// Removes, returning the removed value.
    pub fn remove(&self, k: &K) -> Option<V> {
        let (hash, key) = (self.hash_of(k), k.to_bits());
        epoch::with_guard(|g| {
            let (t, h, mut stripes) = self.lock_neighborhood(hash, g);
            let s = t.find(h, t.hop(h), key)?;
            // RELAXED: remove reads the value under the neighborhood's stripes, which order it
            // after the slot's last store
            let prev = t.buckets[s].value.load(Ordering::Relaxed);
            // Clearing the bit is the whole removal: the slot's words stay
            // until a later edit, of whichever bucket claims it, overwrites them.
            t.edit(h, |hop| hop & !(1 << (s - h)));
            stripes.vacate(s);
            // RELAXED: size counter; approximate reads are documented behavior
            self.len.fetch_sub(1, Ordering::Relaxed);
            Some(V::from_bits(prev))
        })
    }

    /// Whether a key of full hash `hash`, whose placement in `t` just
    /// failed, can never join the keys of `t`, whose every stripe the
    /// caller holds. Keys whose hashes agree in every bit that `t` does
    /// not index but a table of [`MAX_CAP`] buckets would keep their
    /// homes' spacing at every capacity that can be allocated (a doubling
    /// adds the same multiple of `cap` to each), and the keys homed in
    /// buckets `a..=b` can rest only in the `b - a + HOP_RANGE` slots from
    /// `a`. So if such keys, the new one included, outnumber those slots
    /// for some `a..=b`, no growth places them all. The high-bit filter
    /// keeps the collected set small: a key of a well-spread hash passes
    /// it with probability `cap / MAX_CAP`.
    fn never_fits(&self, t: &Table, hash: u64, stripes: &All<'_>) -> bool {
        let high = |x: u64| (x & (MAX_CAP as u64 - 1)) >> t.cap.trailing_zeros();
        let mut homes: Vec<usize> = stripes
            .filled()
            .map(|s| self.hash_of(&K::from_bits(t.buckets[s].words().0)))
            .filter(|&x| high(x) == high(hash))
            .chain([hash])
            .map(|x| t.home(x))
            .collect();
        homes.sort_unstable();
        // The keys homes[i..=j] are j - i + 1 against homes[j] - homes[i]
        // + HOP_RANGE slots: too many once (j - homes[j]) - (i - homes[i])
        // reaches HOP_RANGE.
        let mut least = isize::MAX;
        homes.iter().enumerate().any(|(j, &x)| {
            let d = j as isize - x as isize;
            least = least.min(d);
            d - least >= HOP_RANGE as isize
        })
    }

    /// Hopscotch placement, the one displacement walk: puts the key and
    /// value words `kv` into `t` within `HOP_RANGE` of their home bucket
    /// `h`. Both [`insert`](Self::insert) and resize migration
    /// ([`grow`](Self::grow)) place through it. `stripes` is the caller's
    /// run of `t`'s stripes, starting at or below `h`'s and covering its
    /// neighborhood.
    ///
    /// Returns false — having published nothing — when no free slot lies
    /// within `ADD_RANGE` of home or no key can move into the hole; the
    /// caller grows the table. Displacements made before that are legal
    /// moves and stay.
    #[inline]
    fn place<'t>(
        &self,
        t: &Table,
        h: usize,
        kv: (u64, u64),
        stripes: &mut Stripes<'t, impl Holder<'t>>,
    ) -> bool {
        // 1) Find a free slot within ADD_RANGE of home, extending the held
        //    stripe run upward as the scan crosses boundaries.
        let Some(mut f) = stripes.free_slot(h, h + ADD_RANGE) else {
            return false;
        };
        // 2) Hopscotch: walk the free slot home-ward. Each step takes the
        //    lowest bucket `hb` in (f - HOP_RANGE, f) with a key below `f`
        //    and moves that key up into `f` (still within hb's
        //    neighborhood), freeing its old slot. Every slot from `h` to
        //    `f` is under our stripes, so hb's bits for them are frozen;
        //    the one store of hb's word names `f` and drops `j` at once,
        //    so hb's readers find the key in exactly one of them.
        while f >= h + HOP_RANGE {
            let victim = (f + 1 - HOP_RANGE..f).find_map(|hb| {
                let below = t.hop(hb) & ((1 << (f - hb)) - 1);
                (below != 0).then(|| (hb, hb + below.trailing_zeros() as usize))
            });
            let Some((hb, j)) = victim else {
                return false;
            };
            t.edit(hb, |hop| {
                t.buckets[f].set(t.buckets[j].words());
                (hop | 1 << (f - hb)) & !(1 << (j - hb))
            });
            stripes.fill(f);
            stripes.vacate(j);
            f = j;
        }
        // 3) Publish: the key and value words, then the hop bit, in one
        //    edit of the home bucket. Its word store is the linearization
        //    point.
        t.edit(h, |hop| {
            t.buckets[f].set(kv);
            hop | 1 << (f - h)
        });
        stripes.fill(f);
        true
    }

    // ---------------------------------------------------------------
    // Ordered scans: a sorted drain, per-key linearizable.
    // ---------------------------------------------------------------

    /// Every entry whose key `keep` accepts, sorted by key.
    ///
    /// **Consistency scope:** per-key linearizable, like the suite's
    /// skip-list scans — each bucket is read, lock-free, as a consistent
    /// snapshot (so a scan is sorted, duplicate-free, never shows a
    /// phantom and never misses a key that was present for the whole
    /// scan), but different buckets may reflect different instants.
    /// Callers needing an atomic snapshot use a tree.
    fn scan(&self, keep: impl Fn(&K) -> bool) -> Vec<(K, V)>
    where
        K: Ord,
    {
        epoch::with_guard(|g| {
            let t = self.current(g);
            let mut out = Vec::new();
            let mut words = Vec::with_capacity(HOP_RANGE);
            for h in 0..t.cap {
                t.read(h, |hop| {
                    words.clear();
                    words.extend(slots(h, hop).map(|s| t.buckets[s].words()));
                });
                out.extend(
                    words
                        .iter()
                        .map(|&(k, v)| (K::from_bits(k), V::from_bits(v)))
                        .filter(|(k, _)| keep(k)),
                );
            }
            out.sort_unstable_by_key(|a| a.0);
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
    /// re-checks that `t` is still current (a racing grow may have
    /// already replaced it). Key and value words migrate into a table of
    /// twice the capacity through [`place`](Self::place), the walk an
    /// insert makes. The new table is private until published, so
    /// migration takes all of its stripes once per attempt and no one
    /// contends for them or for its versions. The old table is never
    /// modified (readers that loaded it mid-operation finish against a
    /// frozen, complete generation and linearize at their table load),
    /// then retired through the epoch.
    ///
    /// # Panics
    ///
    /// After releasing the stripes, if the key of full hash `hash`, whose
    /// placement in `t` failed, [never fits](Self::never_fits) beside the
    /// keys already there: no capacity would place them all.
    fn grow(&self, t: &Table, hash: u64, g: &Guard) {
        let all = All::lock(&t.stripes);
        if !ptr::eq(self.current(g), t) {
            return; // someone else already grew this generation
        }
        if self.never_fits(t, hash, &all) {
            drop(all);
            panic!(
                "HopMap::insert: this key and the keys near its home outnumber the slots \
                 their HOP_RANGE ({HOP_RANGE})-slot neighborhoods span, at every capacity; \
                 the hash does not separate them"
            );
        }
        let mut new_cap = t.cap << 1;
        loop {
            let new_t = Table::new(new_cap);
            let mut held = All::lock(&new_t.stripes);
            let placed = (0..t.cap).all(|h| {
                slots(h, t.hop(h)).all(|s| {
                    let kv = t.buckets[s].words();
                    self.place(&new_t, self.home_of(kv.0, &new_t), kv, &mut held)
                })
            });
            drop(held);
            if placed {
                // SEQCST: resize publish; totally ordered with every slot store it must precede.
                self.table.0.store(Owned::new(new_t), Ordering::SeqCst);
                // SAFETY: the store above replaced `t` as the published table with
                // every stripe held; pinned readers defer the free of its arrays.
                unsafe { g.defer_destroy(Shared::from(t as *const Table)) };
                // RELAXED: resize statistic; reporting only
                self.resizes.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Pathological hash distribution: even 2x couldn't place a
            // key within its neighborhood. Double again and rebuild.
            new_cap <<= 1;
        }
    }

    // ---------------------------------------------------------------
    // Structural audit (for the stress tests).
    // ---------------------------------------------------------------

    /// Checks every structural invariant of the current table
    /// generation: bounded probes (every key within `HOP_RANGE` of its
    /// home), exact agreement of hop bitmaps and occupancy bitmaps, no
    /// duplicate keys, and a `len` counter matching the occupancy. Takes
    /// every stripe, but is only meaningful on a quiescent map.
    pub fn audit(&self) -> AuditReport
    where
        K: Ord,
    {
        epoch::with_guard(|g| {
            let t = self.current(g);
            let stripes = All::lock(&t.stripes);
            let mut errors = Vec::new();
            for (h, b) in t.buckets.iter().enumerate() {
                // RELAXED: audit reads bucket words with every stripe held on a quiescent map
                let w = b.word.load(Ordering::Relaxed);
                if h >= t.cap {
                    if w as u32 != 0 {
                        errors.push(format!("overflow slot {h}: hop bits set"));
                    }
                    continue;
                }
                for s in slots(h, w as u32) {
                    let bit = s - h;
                    if !stripes.occupied(s) {
                        errors.push(format!("bucket {h}: bit {bit} points at empty slot"));
                        continue;
                    }
                    let home = self.home_of(t.buckets[s].words().0, t);
                    if home != h {
                        errors.push(format!(
                            "bucket {h}: bit {bit} points at foreign key (home {home})"
                        ));
                    }
                }
            }
            let mut occupied = 0usize;
            let mut max_probe = 0usize;
            let mut keys = Vec::new();
            for s in (0..t.buckets.len()).filter(|&s| stripes.occupied(s)) {
                occupied += 1;
                let key = K::from_bits(t.buckets[s].words().0);
                keys.push(key);
                let hb = t.home(self.hash_of(&key));
                if hb > s || s - hb >= HOP_RANGE {
                    errors.push(format!(
                        "slot {s}: key outside its neighborhood (home {hb})"
                    ));
                    continue;
                }
                max_probe = max_probe.max(s - hb);
                if t.hop(hb) >> (s - hb) & 1 == 0 {
                    errors.push(format!("slot {s}: home {hb} hop bit not set"));
                }
            }
            keys.sort_unstable();
            if keys.windows(2).any(|w| w[0] == w[1]) {
                errors.push("duplicate key present".to_string());
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
        // SAFETY: `&mut self`: no other thread holds a reference, so the
        // unprotected guard is sound, and the current generation, never null
        // after construction, is owned by the map alone.
        let table = unsafe {
            // RELAXED: Drop: exclusive access through &mut self; no other thread can observe
            // the table
            self.table
                .0
                .load(Ordering::Relaxed, unprotected())
                .into_owned()
        };
        drop(table);
    }
}
