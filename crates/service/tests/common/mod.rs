//! Shared fixture for the service batteries: a sequential model map
//! behind a mutex, instrumented to log every point call it receives (a
//! flush applies its ops as point calls in queue order).

use std::collections::BTreeMap;
use std::sync::Mutex;

use service::Op;
use sharded::ConcurrentMap;

/// A `BTreeMap` under a mutex, with a point-call log. The
/// batteries test the *service* (queueing, triggers, backpressure), so
/// the map below it is deliberately the simplest correct thing; the
/// cross-crate oracle in the workspace root runs the real structures.
#[derive(Default)]
pub struct ModelMap {
    inner: Mutex<BTreeMap<u64, u64>>,
    calls: Mutex<Vec<Op>>,
}

#[allow(dead_code)] // ALLOW: shared test helpers; not every battery uses every one
impl ModelMap {
    pub fn new() -> ModelMap {
        ModelMap::default()
    }

    /// Every `get` / `insert` / `remove` call so far, in call order.
    pub fn calls(&self) -> Vec<Op> {
        self.calls.lock().unwrap().clone()
    }

    fn log(&self, op: Op) {
        self.calls.lock().unwrap().push(op);
    }

    /// Snapshot of the settled contents.
    pub fn contents(&self) -> Vec<(u64, u64)> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }
}

impl ConcurrentMap for ModelMap {
    fn name(&self) -> &'static str {
        "model"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.log(Op::Insert(k, v));
        self.inner.lock().unwrap().insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.log(Op::Remove(*k));
        self.inner.lock().unwrap().remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.log(Op::Get(*k));
        self.inner.lock().unwrap().get(k).copied()
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner
            .lock()
            .unwrap()
            .range(lo..=hi)
            .map(|(k, v)| (*k, *v))
            .collect()
    }
    fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }
}
