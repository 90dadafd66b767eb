//! An update attempt that unwinds partway through building its nodes must
//! free the nodes it has built so far: they were never published, so
//! nothing else ever frees them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nbtree::ChromaticTree;

/// A value whose `clone` panics once its fuse is armed. `token` counts the
/// copies alive: every node holding this value holds one clone of it.
struct Fused {
    token: Arc<()>,
    armed: Arc<AtomicBool>,
}

impl Clone for Fused {
    fn clone(&self) -> Self {
        // RELAXED: one test thread arms and reads the fuse
        if self.armed.load(Ordering::Relaxed) {
            panic!("armed value cloned");
        }
        Fused {
            token: Arc::clone(&self.token),
            armed: Arc::clone(&self.armed),
        }
    }
}

fn fused() -> Fused {
    Fused {
        token: Arc::new(()),
        armed: Arc::new(AtomicBool::new(false)),
    }
}

#[test]
fn an_attempt_that_unwinds_frees_the_nodes_it_built() {
    let t = ChromaticTree::<u64, Fused>::new();
    let five = fused();
    let fuse = Arc::clone(&five.armed);
    t.insert(5, five);
    // RELAXED: one test thread arms and reads the fuse
    fuse.store(true, Ordering::Relaxed);

    let three = fused();
    let token = Arc::clone(&three.token);
    // Insert1 at leaf 5 builds the leaf for 3 (one clone of `three`), then
    // copies leaf 5, whose value's clone panics.
    let unwound = catch_unwind(AssertUnwindSafe(|| t.insert(3, three)));
    assert!(unwound.is_err(), "copying the armed leaf panics");
    llxscx::epoch::flush();
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "the leaf built for 3 before the panic was freed"
    );
}
