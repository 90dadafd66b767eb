//! Fixture: epoch-discipline violations at known lines (tested under a
//! synthetic path outside every allowlist). It names the epoch pointers
//! only through `llxscx::`, so the `into_owned` scan must key on that path.

use llxscx::{Atomic, Guard};

fn frees_directly(a: &Atomic<u8>, g: &Guard) {
    let s = a.load(std::sync::atomic::Ordering::Acquire, g);
    unsafe { g.defer_destroy(s) }; // line 9
    let _owned = unsafe { a.load_consume(g).into_owned() }; // line 10
}

struct HoldsGuard {
    guard: Guard, // line 14
}
