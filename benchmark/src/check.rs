//! Output checks. A run with any failure here exits non-zero.
//!
//! Every value a map holds equals its key, so each result can be checked
//! as it arrives; the rest is bookkeeping the timed loop can afford: a
//! signed count of keys added and a rolling checksum of results. At the
//! end of a round, with every worker joined, the map's size and full
//! contents are checked against that bookkeeping, and rounds with one
//! worker or one service client are replayed op for op against a
//! `BTreeMap`.

use std::collections::BTreeMap;

use workload::ConcurrentMap;

use crate::spec::{Entry, Inputs, GET, INSERT, RANGE_WIDTH, REMOVE};

/// Per-worker accounting, updated once per op.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    /// Inserts that found the key absent minus removes that found it
    /// present: what the ops added to `len()`.
    pub net: i64,
    /// Results that cannot be right whatever the interleaving: a value
    /// that is not its key, a scan out of order or out of bounds.
    pub bad: u64,
    /// Order-sensitive fold of every result; comparable with the model's
    /// on one thread, and what keeps the results observed on two.
    pub checksum: u64,
}

impl Tally {
    /// Accounts for one point op's result.
    #[inline]
    pub fn point(&mut self, kind: u32, key: u64, result: Option<u64>) {
        match kind {
            INSERT => self.net += result.is_none() as i64,
            REMOVE => self.net -= result.is_some() as i64,
            _ => {}
        }
        self.bad += result.is_some_and(|v| v != key) as u64;
        self.checksum = self.checksum.rotate_left(7) ^ result.unwrap_or(u64::MAX);
    }

    /// Accounts for one scan of `[lo, hi]`.
    pub fn scan(&mut self, lo: u64, hi: u64, found: &[(u64, u64)]) {
        let ordered = found.windows(2).all(|w| w[0].0 < w[1].0);
        let in_bounds = found.iter().all(|&(k, v)| k == v && (lo..=hi).contains(&k));
        self.bad += !(ordered && in_bounds) as u64;
        self.checksum = self.checksum.rotate_left(7) ^ found.len() as u64;
    }

    /// The size the map must have once every op is accounted for.
    pub fn expected_len(&self, inputs: &Inputs) -> usize {
        (inputs.prefill.len() as i64 + self.net) as usize
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.net += other.net;
        self.bad += other.bad;
    }
}

/// Executes one stream entry against `map` and accounts for its result.
/// The one place an op kind becomes a map call, shared by the timed
/// loops and the ladder's top rung.
#[inline]
pub fn apply(map: &dyn ConcurrentMap, e: Entry, tally: &mut Tally) {
    let key = e.key();
    match e.kind() {
        INSERT => tally.point(INSERT, key, map.insert(key, key)),
        REMOVE => tally.point(REMOVE, key, map.remove(&key)),
        GET => tally.point(GET, key, map.get(&key)),
        _ => {
            let hi = key + RANGE_WIDTH - 1;
            tally.scan(key, hi, &map.range(key, hi));
        }
    }
}

/// Checks a quiescent map against the bookkeeping: `len()` is the
/// expected size, and a full scan is strictly sorted, has `len()`
/// entries, and every value equals its key. Returns the number of
/// discrepancies, described on stderr as found in `what`.
pub fn quiescent(what: &str, map: &dyn ConcurrentMap, expected_len: usize) -> u64 {
    let mut failures = 0;
    let len = map.len();
    if len != expected_len {
        eprintln!("check: {what}: len() is {len}, the ops account for {expected_len}");
        failures += len.abs_diff(expected_len) as u64;
    }
    let all = map.range(0, u64::MAX);
    if all.len() != len {
        eprintln!(
            "check: {what}: a full scan returned {} entries, len() is {len}",
            all.len()
        );
        failures += all.len().abs_diff(len) as u64;
    }
    let unsorted = all.windows(2).filter(|w| w[0].0 >= w[1].0).count();
    let wrong_value = all.iter().filter(|&&(k, v)| k != v).count();
    if unsorted + wrong_value > 0 {
        eprintln!(
            "check: {what}: full scan has {unsorted} order breaks, {wrong_value} wrong values"
        );
        failures += (unsorted + wrong_value) as u64;
    }
    failures
}

/// Replays what a lone worker `executed`, in order, against a `BTreeMap`
/// that starts as the prefill, and compares the result checksum and the
/// final contents with the map's. Returns the number of discrepancies.
pub fn against_model(
    map: &dyn ConcurrentMap,
    inputs: &Inputs,
    executed: impl Iterator<Item = Entry>,
    observed: &Tally,
) -> u64 {
    let mut model: BTreeMap<u64, u64> = inputs.prefill.iter().map(|&k| (k, k)).collect();
    let mut expect = Tally::default();
    let mut ops = 0u64;
    for e in executed {
        ops += 1;
        let key = e.key();
        match e.kind() {
            INSERT => expect.point(INSERT, key, model.insert(key, key)),
            REMOVE => expect.point(REMOVE, key, model.remove(&key)),
            GET => expect.point(GET, key, model.get(&key).copied()),
            _ => {
                let hi = key + RANGE_WIDTH - 1;
                let found: Vec<(u64, u64)> = model.range(key..=hi).map(|(&k, &v)| (k, v)).collect();
                expect.scan(key, hi, &found);
            }
        }
    }
    let mut failures = 0;
    if expect.checksum != observed.checksum {
        eprintln!("check: results differ from the BTreeMap model's over {ops} ops");
        failures += 1;
    }
    let contents = map.range(0, u64::MAX);
    if !contents
        .iter()
        .copied()
        .eq(model.iter().map(|(&k, &v)| (k, v)))
    {
        eprintln!("check: final contents differ from the BTreeMap model's");
        failures += 1;
    }
    failures
}
