//! The paper's claims as plain checks over measured numbers. The
//! `figures` binary measures and calls these; it exits 1 when a checked
//! claim fails. Keeping the checks free of measurement lets the tests
//! below feed each one an input that violates it.
//!
//! Two bounds are always checked: the §5.3 height bound and the
//! amortized rebalancing cost of Boyar, Fagerberg and Larsen. Figure 8's
//! orderings are throughput comparisons, and only an ordering that held
//! in every run on the reference host at the CI budget is checked
//! ([`Order::checked`]); the others are printed, not asserted.

use workload::Mix;

/// ⌈log2 x⌉ for `x ≥ 1`.
fn ceil_log2(x: usize) -> usize {
    x.next_power_of_two().trailing_zeros() as usize
}

/// §5.3: at quiescence, a chromatic tree holding `keys` keys that allows
/// `k` violations per path is at most `2⌈log2(keys + 1)⌉ + 2 + k` nodes
/// tall. The first term bounds a red-black tree, the 2 covers the leaf
/// level and a chromatic root that may be red, and `k` the violations
/// rebalancing may leave on a path.
pub fn max_height(keys: usize, k: u32) -> usize {
    2 * ceil_log2(keys + 1) + 2 + k as usize
}

/// Checks a quiescent tree's `height` against [`max_height`].
pub fn check_height(keys: usize, k: u32, height: usize) -> Result<(), String> {
    let bound = max_height(keys, k);
    if height <= bound {
        Ok(())
    } else {
        Err(format!(
            "height {height} exceeds the §5.3 bound {bound} (n = {keys}, k = {k})"
        ))
    }
}

/// The amortized rebalancing bound the chromatic tree relies on (Boyar,
/// Fagerberg and Larsen; §5.4 and §6): from an empty tree, at most three
/// rebalancing steps per insertion plus one per deletion.
pub fn check_amortized_steps(inserts: u64, deletes: u64, steps: u64) -> Result<(), String> {
    let bound = 3 * inserts + deletes;
    if steps <= bound {
        Ok(())
    } else {
        Err(format!(
            "{steps} rebalancing steps exceed 3/insert + 1/delete = {bound} \
             ({inserts} inserts, {deletes} deletes)"
        ))
    }
}

/// One measured Figure 8 cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Registry name of the structure.
    pub structure: &'static str,
    /// The operation mix.
    pub mix: Mix,
    /// Key range `[0, range)`.
    pub range: u64,
    /// Worker threads.
    pub threads: usize,
    /// Mean throughput over the trials.
    pub mops: f64,
}

/// A Figure 8 ordering: under `mix`, `faster` is at least as fast as
/// `slower` in every cell (key range × threads, at least `min_threads`)
/// that measured both.
#[derive(Clone, Copy, Debug)]
pub struct Order {
    /// The mix the ordering is claimed under.
    pub mix: Mix,
    /// The structure claimed to be at least as fast.
    pub faster: &'static str,
    /// The structure it is compared against.
    pub slower: &'static str,
    /// The fewest worker threads a compared cell has.
    pub min_threads: usize,
    /// Whether a failure fails the run. Only orderings that held in every
    /// run on the reference host at the CI budget are checked; the rest
    /// are printed.
    pub checked: bool,
}

/// The Figure 8 orderings `figures fig8` reports: chromatic against the
/// lock-based and STM trees (checked), and two the paper shows that do
/// not hold on a two-core host (printed): the global-lock tree wins
/// uncontended at one thread, and Chromatic6 ≥ Chromatic is within noise.
/// Against the lock-based AVL tree only contended cells count: with one
/// thread its locks are uncontended and it comes within noise of
/// chromatic (chromatic fell to 0.92× of it in one 0.05 s run on a
/// 2-vCPU host).
pub const FIG8_ORDERS: [Order; 4] = [
    Order {
        mix: Mix::updates(50, 50),
        faster: "chromatic",
        slower: "lockavl",
        min_threads: 2,
        checked: true,
    },
    Order {
        mix: Mix::updates(50, 50),
        faster: "chromatic",
        slower: "rbstm",
        min_threads: 1,
        checked: true,
    },
    Order {
        mix: Mix::updates(50, 50),
        faster: "chromatic",
        slower: "rbglobal",
        min_threads: 1,
        checked: false,
    },
    Order {
        mix: Mix::updates(50, 50),
        faster: "chromatic6",
        slower: "chromatic",
        min_threads: 1,
        checked: false,
    },
];

/// Compares `order` in every cell that measured both structures. Returns
/// how many cells were compared and one message per cell where the
/// ordering failed.
pub fn order_failures(order: &Order, cells: &[Cell]) -> (usize, Vec<String>) {
    let find = |name: &str, like: &Cell| {
        cells.iter().find(|c| {
            c.structure == name
                && c.mix == like.mix
                && c.range == like.range
                && c.threads == like.threads
        })
    };
    let mut compared = 0;
    let mut failures = Vec::new();
    for fast in cells.iter().filter(|c| {
        c.structure == order.faster && c.mix == order.mix && c.threads >= order.min_threads
    }) {
        let Some(slow) = find(order.slower, fast) else {
            continue;
        };
        compared += 1;
        if fast.mops < slow.mops {
            failures.push(format!(
                "{} {:.3} < {} {:.3} Mops/s at {} range {} {}T",
                order.faster,
                fast.mops,
                order.slower,
                slow.mops,
                order.mix,
                fast.range,
                fast.threads
            ));
        }
    }
    (compared, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_height_matches_the_red_black_formula() {
        // n = 1024: ⌈log2 1025⌉ = 11, so 2·11 + 2 = 24, plus k.
        assert_eq!(max_height(1024, 0), 24);
        assert_eq!(max_height(1024, 6), 30);
        assert_eq!(max_height(1023, 0), 22);
        assert_eq!(max_height(0, 0), 2);
    }

    #[test]
    fn height_check_rejects_a_tree_one_node_too_tall() {
        assert!(check_height(1024, 0, 24).is_ok());
        let e = check_height(1024, 0, 25).unwrap_err();
        assert!(e.contains("25") && e.contains("24"), "{e}");
        // The violation allowance buys exactly k more levels.
        assert!(check_height(1024, 6, 30).is_ok());
        assert!(check_height(1024, 6, 31).is_err());
    }

    #[test]
    fn amortized_check_rejects_one_step_too_many() {
        assert!(check_amortized_steps(10, 4, 34).is_ok());
        assert!(check_amortized_steps(10, 4, 35).is_err());
        assert!(check_amortized_steps(0, 0, 1).is_err());
    }

    fn cell(structure: &'static str, threads: usize, mops: f64) -> Cell {
        Cell {
            structure,
            mix: Mix::updates(50, 50),
            range: 100,
            threads,
            mops,
        }
    }

    #[test]
    fn order_check_rejects_a_slower_winner_in_any_cell() {
        let order = FIG8_ORDERS[1]; // chromatic ≥ rbstm
        let held = [
            cell("chromatic", 1, 2.0),
            cell("rbstm", 1, 1.0),
            cell("chromatic", 2, 2.0),
            cell("rbstm", 2, 2.0),
        ];
        assert_eq!(order_failures(&order, &held), (2, vec![]));
        let mut broken = held.to_vec();
        broken[2].mops = 1.5;
        let (compared, failures) = order_failures(&order, &broken);
        assert_eq!(compared, 2);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("2T"), "{failures:?}");
    }

    #[test]
    fn the_lockavl_order_compares_only_contended_cells() {
        let order = FIG8_ORDERS[0]; // chromatic ≥ lockavl, 2+ threads
        let cells = [
            cell("chromatic", 1, 1.0),
            cell("lockavl", 1, 2.0), // uncontended: not compared
            cell("chromatic", 2, 3.0),
            cell("lockavl", 2, 1.0),
        ];
        assert_eq!(order_failures(&order, &cells), (1, vec![]));
        let mut broken = cells.to_vec();
        broken[3].mops = 4.0;
        let (compared, failures) = order_failures(&order, &broken);
        assert_eq!(compared, 1);
        assert!(failures[0].contains("2T"), "{failures:?}");
    }

    #[test]
    fn order_check_compares_only_cells_with_both_structures_and_its_mix() {
        let order = FIG8_ORDERS[1]; // chromatic ≥ rbstm
        let mut other_mix = cell("rbstm", 1, 9.0);
        other_mix.mix = Mix::updates(0, 0);
        let mut other_range = cell("rbstm", 1, 9.0);
        other_range.range = 10_000;
        let cells = [
            cell("chromatic", 1, 1.0),
            other_mix,
            other_range,
            // No rbstm cell at 2T: not compared, so not a failure.
            cell("chromatic", 2, 1.0),
        ];
        assert_eq!(order_failures(&order, &cells), (0, vec![]));
    }
}
