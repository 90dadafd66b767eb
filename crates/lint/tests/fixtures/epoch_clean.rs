//! Fixture: epoch-discipline clean shapes — none of these is a
//! violation.

struct NoGuardHere {
    value: usize,
}

fn borrowed_guard_is_fine(g: &llxscx::Guard) {
    let _ = g;
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_tests_may_free_directly() {
        llxscx::with_guard(|g| {
            let a = llxscx::Atomic::new(1u8);
            let _owned = unsafe { a.load_consume(g).into_owned() };
        });
    }
}
