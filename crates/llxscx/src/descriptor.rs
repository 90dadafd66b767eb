//! SCX-records: one descriptor per thread, reused by every SCX it performs.
//!
//! The PODC'13 algorithm allocates a fresh SCX-record per SCX and leaves
//! the old ones to a garbage collector. Here each thread owns exactly one
//! [`ScxRecord`] for its whole life and rewrites it for every SCX, after
//! the *weak descriptors* of Arbel-Raviv and Brown, "Reuse, Don't Recycle"
//! (DISC 2017). Nothing about a descriptor is ever freed, so there is no
//! descriptor reclamation at all: no reference counts, no deferred frees,
//! no pool.
//!
//! # Incarnations and the `info` word
//!
//! Each SCX a thread performs is a new *incarnation* of its descriptor,
//! numbered by a 48-bit sequence number that only the owner advances. A
//! record's `info` field holds the packed word `id << 48 | seq`, where
//! `id` is the descriptor's slot plus one; 0 means "never frozen". Because
//! the sequence number never goes back, no `info` value is ever installed
//! twice, which is the property the freezing CAS and [`vlx`](crate::vlx)
//! need: a stale expectation can never compare equal again. (Wrapping
//! would take 2^48 SCXs on one slot.)
//!
//! The descriptor's `state` and `all_frozen` share one word with the
//! sequence number (`seq << 3 | all_frozen << 2 | state`). Every CAS on it
//! names the whole word, so a helper that still holds an old incarnation
//! cannot move the state of the next one.
//!
//! # Reading another thread's descriptor
//!
//! The owner may start its next SCX, and overwrite the arguments, while a
//! slow helper is still reading them. Every field is therefore an atomic,
//! and helpers read them as a seqlock: load the
//! state word (acquire), load the fields (relaxed), `fence(Acquire)`, and
//! re-check the sequence number. If it moved, that SCX is over, and the
//! helper abandons it without writing anything: whoever finished it
//! already did the writes. A record whose `info` names a finished
//! incarnation is quiescent unless `marked` is set, in which case it is
//! finalized (the state lookup reports such an incarnation as committed,
//! and `marked` decides).
//!
//! The state lookup of an LLX or a VLX reads only the state word, and
//! mostly does not need that either. Each thread keeps a small
//! direct-mapped table (64 entries of `id << 48 | seq`, in a
//! thread-local) of the newest sequence number it has loaded from each
//! descriptor's word. An `info` word whose sequence number is *below* the
//! cached one names an incarnation that is over for good, since a slot's
//! sequence number never goes back, not even when the slot passes to
//! another thread; the lookup answers committed without touching the
//! descriptor, whose line its owner rewrites on every SCX. The answer is
//! the one a load would give, with the same ordering: the acquire load
//! that filled the entry read the newer incarnation's word, so it already
//! synchronized with that incarnation's `open`, and everything the caller
//! reads afterwards, `marked` included, follows it in program order. An
//! *equal* sequence number proves nothing (that incarnation may still be
//! in progress, or have aborted), so it takes the load, which refreshes
//! the entry. The cache rests on the same premise as the uniqueness of
//! `info` words: the 48-bit sequence number never wraps. After a wrap a
//! small number would read as long over.
//!
//! # The slot table
//!
//! Descriptors live in a process-wide table of 16 chunks; chunk `c` holds
//! the `2^c` slots with ids `2^c ..= 2^(c+1) - 1`, so the table grows by
//! doubling up to the 65 535 ids the 16 id bits can name, and a lookup is a
//! leading-zero count and an index. The table is the crate's one thread
//! registry: each slot also holds, on a cache line of its own, the epoch
//! its thread announces, which the [`epoch`] collector scans without a
//! lock. A thread's epoch state takes a slot when it is built and gives it
//! back when the thread exits; the next thread to take it continues from
//! the slot's sequence number instead of resetting it. The table
//! therefore holds as many slots as the largest number of threads that
//! ever held one at once.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::epoch::{self, UNPINNED};
use crate::record::MAX_V;

/// SCX in progress: the records in `V` whose `info` names it are frozen.
pub const IN_PROGRESS: u8 = 0;
/// SCX took effect: the update CAS happened and `R` is finalized.
pub const COMMITTED: u8 = 1;
/// SCX failed: records whose `info` names it are unfrozen.
pub const ABORTED: u8 = 2;

const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
const ALL_FROZEN: u64 = 1 << 2;
/// Ids are slot + 1 and fit the 16 bits above the sequence number.
const MAX_ID: usize = (1 << (64 - SEQ_BITS)) - 1;
const CHUNKS: usize = 64 - SEQ_BITS as usize;

/// The sequence number of an `info` word.
#[inline]
fn seq_of(info: u64) -> u64 {
    info & SEQ_MASK
}

/// A state word: `seq << 3 | all_frozen << 2 | state`.
#[inline]
fn word(seq: u64, state: u8, all_frozen: bool) -> u64 {
    seq << 3 | (all_frozen as u64) << 2 | state as u64
}

/// The sequence number of a state word.
#[inline]
fn word_seq(w: u64) -> u64 {
    w >> 3
}

/// The state of a state word.
#[inline]
fn word_state(w: u64) -> u8 {
    (w & 0b11) as u8
}

/// The arguments of one SCX, as its owner wrote them or a helper read
/// them. Record pointers are plain addresses; `run` in `ops` gives them
/// their record type back.
#[derive(Clone, Copy)]
pub(crate) struct Scx {
    /// The `info` word this SCX installs: `id << 48 | seq`.
    pub info: u64,
    /// Number of live entries in `v` / `expect`.
    pub len: usize,
    /// The records to freeze, in `V`-sequence order.
    pub v: [usize; MAX_V],
    /// For each record in `v`, the `info` word its linked LLX observed:
    /// the expected value of the freezing CAS.
    pub expect: [u64; MAX_V],
    /// Bitmask over `v` selecting `R`, the records to finalize.
    pub finalize: u8,
    /// Index into `v` of the record whose field is modified.
    pub fld_record: usize,
    /// Which child of that record is modified.
    pub fld_idx: usize,
    /// Expected value of the field (read by the linked LLX).
    pub old: usize,
    /// New value to store.
    pub new: usize,
}

/// A thread's reusable SCX descriptor (the paper's SCX-record).
///
/// A successful freezing CAS installs the current incarnation's `info`
/// word into each record in `V`, in order. While that incarnation is
/// [`IN_PROGRESS`] those records are *frozen*: concurrent LLXs fail (after
/// helping) and concurrent SCXs cannot freeze them. The descriptor holds
/// everything any thread needs to *help* the SCX finish, which is what
/// makes the construction lock-free. See the [module docs](self) for how
/// one descriptor serves every SCX of its thread.
///
/// `repr(align(64))`: a descriptor starts on its own cache line, so the
/// state word one thread CASes never shares a line with a neighbouring
/// slot's.
#[repr(align(64))]
pub struct ScxRecord {
    /// `seq << 3 | all_frozen << 2 | state`.
    word: AtomicU64,
    /// `len | finalize << 8 | fld_record << 16 | fld_idx << 24`.
    shape: AtomicU64,
    v: [AtomicUsize; MAX_V],
    expect: [AtomicU64; MAX_V],
    old: AtomicUsize,
    new: AtomicUsize,
}

impl ScxRecord {
    fn new() -> Self {
        ScxRecord {
            // Sequence 0 is never installed: the first SCX is incarnation 1.
            word: AtomicU64::new(word(0, ABORTED, false)),
            shape: AtomicU64::new(0),
            v: [const { AtomicUsize::new(0) }; MAX_V],
            expect: [const { AtomicU64::new(0) }; MAX_V],
            old: AtomicUsize::new(0),
            new: AtomicUsize::new(0),
        }
    }

    /// Owner only: opens the next incarnation for `op` and publishes its
    /// arguments, setting `op.info` to the word the freezing CASes install.
    pub(crate) fn open(&self, id: usize, op: &mut Scx) {
        // RELAXED: only the owner changes the sequence number, and helpers'
        // CASes keep it, so the owner's own latest value is what it reads.
        let seq = (word_seq(self.word.load(Ordering::Relaxed)) + 1) & SEQ_MASK;
        // RELEASE: a helper that acquires this word and finds the sequence
        // moved on must see the last incarnation's marks (they happened
        // before its commit, which the owner observed before getting here).
        self.word
            .store(word(seq, IN_PROGRESS, false), Ordering::Release);
        // RELEASE: seqlock writer fence: orders the new sequence number before the field stores
        // that follow, pairing with the reader's fence(Acquire) in `unchanged`
        fence(Ordering::Release);
        let shape = op.len as u64
            | (op.finalize as u64) << 8
            | (op.fld_record as u64) << 16
            | (op.fld_idx as u64) << 24;
        // RELAXED: seqlock field write: ordered after the new sequence number by the Release fence
        // before it, and published to helpers by the SeqCst freezing CAS that follows
        self.shape.store(shape, Ordering::Relaxed);
        for i in 0..op.len {
            // RELAXED: seqlock field write: ordered after the new sequence number by the Release
            // fence before it, and published to helpers by the SeqCst freezing CAS that follows
            self.v[i].store(op.v[i], Ordering::Relaxed);
            // RELAXED: seqlock field write: ordered after the new sequence number by the Release
            // fence before it, and published to helpers by the SeqCst freezing CAS that follows
            self.expect[i].store(op.expect[i], Ordering::Relaxed);
        }
        // RELAXED: seqlock field write: ordered after the new sequence number by the Release fence
        // before it, and published to helpers by the SeqCst freezing CAS that follows
        self.old.store(op.old, Ordering::Relaxed);
        // RELAXED: seqlock field write: ordered after the new sequence number by the Release fence
        // before it, and published to helpers by the SeqCst freezing CAS that follows
        self.new.store(op.new, Ordering::Relaxed);
        op.info = (id as u64) << SEQ_BITS | seq;
    }

    /// Helper: the arguments of the SCX `info` names, read as a seqlock.
    /// `Err(committed)` if that SCX is no longer in progress: `true` if it
    /// committed, `false` if it aborted or its incarnation is over (then
    /// whoever finished it did all its writes, and the helper must do
    /// none).
    pub(crate) fn snapshot(&self, info: u64) -> Result<Scx, bool> {
        let seq = seq_of(info);
        // ACQUIRE: pairs with `open`'s release store, and with the
        // release half of the state CASes.
        let w = self.word.load(Ordering::Acquire);
        if word_seq(w) != seq {
            return Err(false);
        }
        if word_state(w) != IN_PROGRESS {
            return Err(word_state(w) == COMMITTED);
        }
        let op = self.fields(info);
        if self.unchanged(seq) {
            Ok(op)
        } else {
            Err(false)
        }
    }

    /// The seqlock's body: the fields as they are now, which may mix two
    /// incarnations until [`unchanged`](Self::unchanged) says otherwise.
    pub(crate) fn fields(&self, info: u64) -> Scx {
        // RELAXED: seqlock field read: a torn mix of two incarnations is possible and harmless,
        // because nothing read is used unless `unchanged` re-validates the sequence number after
        // its fence(Acquire)
        let shape = self.shape.load(Ordering::Relaxed);
        let len = shape as usize & 0xff;
        let mut op = Scx {
            info,
            len,
            v: [0; MAX_V],
            expect: [0; MAX_V],
            finalize: (shape >> 8) as u8,
            fld_record: (shape >> 16) as usize & 0xff,
            fld_idx: (shape >> 24) as usize & 0xff,
            // RELAXED: seqlock field read: a torn mix of two incarnations is possible and harmless,
            // because nothing read is used unless `unchanged` re-validates the sequence number
            // after its fence(Acquire)
            old: self.old.load(Ordering::Relaxed),
            // RELAXED: seqlock field read: a torn mix of two incarnations is possible and harmless,
            // because nothing read is used unless `unchanged` re-validates the sequence number
            // after its fence(Acquire)
            new: self.new.load(Ordering::Relaxed),
        };
        for i in 0..len {
            // RELAXED: seqlock field read: a torn mix of two incarnations is possible and harmless,
            // because nothing read is used unless `unchanged` re-validates the sequence number
            // after its fence(Acquire)
            op.v[i] = self.v[i].load(Ordering::Relaxed);
            // RELAXED: seqlock field read: a torn mix of two incarnations is possible and harmless,
            // because nothing read is used unless `unchanged` re-validates the sequence number
            // after its fence(Acquire)
            op.expect[i] = self.expect[i].load(Ordering::Relaxed);
        }
        op
    }

    /// The seqlock's validation: whether incarnation `seq` is still the
    /// current one after the field loads that precede this call.
    pub(crate) fn unchanged(&self, seq: u64) -> bool {
        // ACQUIRE: seqlock reader fence: if a field load before it read a newer incarnation's
        // store, it synchronizes with `open`'s Release fence, so the reload after it sees the newer
        // sequence number
        fence(Ordering::Acquire);
        // RELAXED: ordered after the field loads by the fence above.
        word_seq(self.word.load(Ordering::Relaxed)) == seq
    }

    /// Aborts the SCX `info` names unless all its records were frozen.
    /// Returns `true` iff they were, i.e. the SCX commits.
    pub(crate) fn abort(&self, info: u64) -> bool {
        let seq = seq_of(info);
        // SEQCST: abort transition; the whole word, sequence number included, is compared. LLX/SCX
        // helping protocol: one total order over info/mark/child updates (paper §4)
        match self.word.compare_exchange(
            word(seq, IN_PROGRESS, false),
            word(seq, ABORTED, false),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => false,
            Err(w) => word_seq(w) == seq && w & ALL_FROZEN != 0,
        }
    }

    /// Records that every record of the SCX `info` names is frozen.
    /// Returns `false` if that SCX is over or aborted: the caller stops.
    pub(crate) fn set_all_frozen(&self, info: u64) -> bool {
        let seq = seq_of(info);
        // SEQCST: all_frozen transition; the whole word, sequence number included, is compared.
        // LLX/SCX helping protocol: one total order over info/mark/child updates (paper §4)
        match self.word.compare_exchange(
            word(seq, IN_PROGRESS, false),
            word(seq, IN_PROGRESS, true),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => true,
            Err(w) => word_seq(w) == seq && w & ALL_FROZEN != 0,
        }
    }

    /// Commits the SCX `info` names. Returns `true` for the one caller
    /// whose CAS made the transition.
    pub(crate) fn commit(&self, info: u64) -> bool {
        let seq = seq_of(info);
        // SEQCST: commit transition; the whole word, sequence number included, is compared. LLX/SCX
        // helping protocol: one total order over info/mark/child updates (paper §4)
        let won = self.word.compare_exchange(
            word(seq, IN_PROGRESS, true),
            word(seq, COMMITTED, true),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        won.is_ok()
    }

    /// The raw state word (tests only).
    #[cfg(test)]
    pub(crate) fn raw_word(&self) -> u64 {
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        self.word.load(Ordering::SeqCst)
    }
}

/// Per thread, the newest sequence number loaded from each descriptor's
/// state word, as `id << 48 | seq`, direct-mapped by `id % SEEN`.
const SEEN: usize = 64;

thread_local! {
    static SEEN_SEQ: [Cell<u64>; SEEN] = const { [const { Cell::new(0) }; SEEN] };
}

/// The state presented by an `info` word. A record that was never frozen
/// behaves as if its last SCX aborted, and one whose incarnation is over
/// as if it committed: the record is then quiescent unless `marked` is
/// set, and finalized if it is. An incarnation older than one this thread
/// already saw its descriptor at is over without a load (see the [module
/// docs](self#reading-another-threads-descriptor)).
#[inline]
pub(crate) fn state_of(info: u64) -> u8 {
    if info == 0 {
        return ABORTED;
    }
    let (id, seq) = (info >> SEQ_BITS, seq_of(info));
    SEEN_SEQ.with(|seen| {
        let entry = &seen[id as usize % SEEN];
        let cached = entry.get();
        if cached >> SEQ_BITS == id && seq < seq_of(cached) {
            return COMMITTED;
        }
        // ACQUIRE: a COMMITTED (or newer) word orders the SCX's marks before
        // the caller's next `marked` read, and every later read of this
        // thread's that the cached entry answers.
        let w = lookup(info).word.load(Ordering::Acquire);
        entry.set(id << SEQ_BITS | word_seq(w));
        if word_seq(w) == seq {
            word_state(w)
        } else {
            COMMITTED
        }
    })
}

/// [`state_of`] without the seen-sequence cache: the reference the cache
/// is tested against.
#[cfg(test)]
pub(crate) fn state_uncached(info: u64) -> u8 {
    if info == 0 {
        return ABORTED;
    }
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    let w = lookup(info).word.load(Ordering::SeqCst);
    if word_seq(w) == seq_of(info) {
        word_state(w)
    } else {
        COMMITTED
    }
}

/// One slot of the table: a thread's descriptor and, on a cache line of its
/// own, the epoch the thread announces ([`epoch`] scans these).
struct Slot {
    desc: ScxRecord,
    announce: Announce,
}

/// An announced epoch, on a cache line of its own so pins do not slow helpers.
#[repr(align(64))]
struct Announce(AtomicUsize);

/// The chunk pointers of the slot table; chunk `c` holds ids `2^c ..`.
static CHUNK: [AtomicPtr<Slot>; CHUNKS] = [const { AtomicPtr::new(std::ptr::null_mut()) }; CHUNKS];

/// Ids handed out so far; stored under `FREE`, read by scans without it.
static LEN: AtomicUsize = AtomicUsize::new(0);

/// Ids of slots whose thread exited, reused last-in first-out.
static FREE: Mutex<Vec<usize>> = Mutex::new(Vec::new());

/// The slot with id `id`.
#[inline]
fn slot(id: usize) -> &'static Slot {
    let c = (usize::BITS - 1 - id.leading_zeros()) as usize;
    // RELAXED: the chunk pointer was stored before its first id was
    // published, and every id reaches a reader after that store: through
    // the `FREE` mutex, an `info` word installed later, or a load of `LEN`,
    // stored SeqCst after the pointer. Coherence then forbids the old null.
    let base = CHUNK[c].load(Ordering::Relaxed);
    // SAFETY: `id` was handed out by `take_slot`, which allocated chunk
    // `c` first; chunks are never freed, and `id - 2^c < 2^c` is in range.
    unsafe { &*base.add(id - (1 << c)) }
}

/// The descriptor an `info` word names.
#[inline]
pub(crate) fn lookup(info: u64) -> &'static ScxRecord {
    &slot((info >> SEQ_BITS) as usize).desc
}

/// The epoch announced in slot `id`, or [`UNPINNED`].
pub(crate) fn announce(id: usize) -> &'static AtomicUsize {
    &slot(id).announce.0
}

/// The number of slots: every id in `1..=table_len()` names one.
pub(crate) fn table_len() -> usize {
    // SEQCST: between a scan's epoch and announce loads; see `try_advance`.
    LEN.load(Ordering::SeqCst)
}

/// Takes a free slot, growing the table if there is none. A new slot
/// announces [`UNPINNED`]; a reused one was given back unpinned.
pub(crate) fn take_slot() -> usize {
    let mut free = FREE.lock().unwrap_or_else(PoisonError::into_inner);
    let id = match free.pop() {
        Some(id) => id,
        None => {
            // RELAXED: `LEN` is only stored under the `FREE` lock we hold.
            let id = LEN.load(Ordering::Relaxed) + 1;
            assert!(
                id <= MAX_ID,
                "more than {MAX_ID} threads hold an SCX descriptor"
            );
            let c = (usize::BITS - 1 - id.leading_zeros()) as usize;
            if id == 1 << c {
                let chunk: Box<[Slot]> = (0..1usize << c)
                    .map(|_| Slot {
                        desc: ScxRecord::new(),
                        announce: Announce(AtomicUsize::new(UNPINNED)),
                    })
                    .collect();
                // RELAXED: published by the `LEN` store below (see `slot`).
                CHUNK[c].store(Box::leak(chunk).as_mut_ptr(), Ordering::Relaxed);
            }
            // SEQCST: publishes the chunk to scans, and orders the new id
            // before this thread's first pin (see `epoch::try_advance`).
            LEN.store(id, Ordering::SeqCst);
            id
        }
    };
    #[cfg(test)]
    gauge::held(1);
    id
}

/// Returns slot `id`, which must announce [`UNPINNED`], to the free list.
pub(crate) fn give_slot(id: usize) {
    #[cfg(test)]
    gauge::held(-1);
    FREE.lock().unwrap_or_else(PoisonError::into_inner).push(id);
}

/// Runs `f` with the calling thread's descriptor and its id. An SCX issued
/// after the thread's epoch state is gone, which only `unprotected` allows,
/// borrows a free slot for the length of the call instead.
#[inline]
pub(crate) fn with_own<R>(f: impl FnOnce(&'static ScxRecord, usize) -> R) -> R {
    if let Some(id) = epoch::own_slot() {
        return f(&slot(id).desc, id);
    }
    let id = take_slot();
    let r = f(&slot(id).desc, id);
    give_slot(id);
    r
}

/// Test-only view of the slot table, and a count of slot holders kept
/// apart from the free list so tests can check one against the other.
#[cfg(test)]
pub(crate) mod gauge {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static HELD: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// Counts a slot taken (`+1`) or given back (`-1`).
    pub(crate) fn held(delta: isize) {
        // RELAXED: test-only gauge; only its peak is read, after the fact.
        let now = HELD.fetch_add(delta as usize, Ordering::Relaxed);
        // RELAXED: test-only gauge, as above.
        PEAK.fetch_max(now.wrapping_add(delta as usize), Ordering::Relaxed);
    }

    /// The largest number of slots held at once so far.
    pub(crate) fn peak_held() -> usize {
        // RELAXED: test-only gauge, read after the holders joined.
        PEAK.load(Ordering::Relaxed)
    }

    /// The id of the calling thread's slot, if its epoch state holds one.
    pub(crate) fn own_id() -> Option<usize> {
        crate::epoch::own_slot()
    }
}
