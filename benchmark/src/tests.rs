//! The `--quick` self-test: every workload and the ladder at tiny sizes,
//! checked against `BENCHMARK.json`, plus the checker's own test.

use std::sync::Mutex;

use workload::{make_map, ConcurrentMap, SuiteConfig};

use crate::check;
use crate::contract;
use crate::ladder;
use crate::run::{self, drive, picked, Metric, Probe};
use crate::span::Tracer;
use crate::spec::{Inputs, Pick, Spec, Stop, WORKLOADS};

/// A map that silently loses every 1000th insert: it reports the key as
/// newly added and stores nothing.
struct Lossy {
    inner: Box<dyn ConcurrentMap>,
    inserts: Mutex<u64>,
}

impl ConcurrentMap for Lossy {
    fn name(&self) -> &'static str {
        "lossy"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        let mut inserts = self.inserts.lock().unwrap();
        *inserts += 1;
        if inserts.is_multiple_of(1000) {
            return None;
        }
        drop(inserts);
        self.inner.insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.inner.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.inner.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner.range(lo, hi)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Replays 20 000 ops of quick `tree-update` on one thread and returns
/// the failures of the two end-of-round checks.
fn failures_on(map: &dyn ConcurrentMap) -> (u64, u64) {
    let spec = WORKLOADS[0].quick();
    let inputs = Inputs::generate(&spec, 7);
    for &k in &inputs.prefill {
        map.insert(k, k);
    }
    let mut probe = Probe::new(Tracer::off());
    let ops = drive(
        map,
        &inputs.streams[0],
        &mut 0,
        Stop::Ops(20_000),
        &mut probe,
    );
    (
        probe.tally.bad + check::quiescent(map.name(), map, probe.tally.expected_len(&inputs)),
        check::against_model(
            map,
            &inputs,
            inputs.streams[0].iter().copied().cycle().take(ops as usize),
            &probe.tally,
        ),
    )
}

#[test]
fn the_checker_passes_a_sound_map_and_catches_a_lossy_one() {
    let cfg = SuiteConfig::default();
    let sound = make_map("chromatic", &cfg).unwrap();
    assert_eq!(failures_on(&*sound), (0, 0));
    let lossy = Lossy {
        inner: make_map("chromatic", &cfg).unwrap(),
        inserts: Mutex::new(0),
    };
    let (accounting, model) = failures_on(&lossy);
    assert!(
        accounting > 0,
        "len() accounting missed the dropped inserts"
    );
    assert!(model > 0, "the BTreeMap replay missed the dropped inserts");
}

#[test]
fn equal_seeds_give_equal_streams_and_different_seeds_do_not() {
    for spec in WORKLOADS.map(Spec::quick) {
        let hash = |seed| Inputs::generate(&spec, seed).hash();
        assert_eq!(hash(11), hash(11), "{}", spec.name);
        assert_ne!(hash(11), hash(12), "{}", spec.name);
    }
}

#[test]
fn the_good_quartile_is_a_quarter_in_from_the_good_end() {
    let nine = || (1..=9).map(f64::from);
    assert_eq!(picked(Pick::GoodQuartile, true, nine()), 7.0);
    assert_eq!(picked(Pick::GoodQuartile, false, nine()), 3.0);
    assert_eq!(picked(Pick::Median, true, nine()), 5.0);
    // Three rounds (`--quick`): the best one.
    assert_eq!(
        picked(Pick::GoodQuartile, false, [2.0, 3.0, 1.0].into_iter()),
        1.0
    );
}

fn assert_covers(section: &str, printed: &[Metric]) {
    let mut declared: Vec<(String, String)> = contract::declared(section)
        .expect("BENCHMARK.json next to benchmark/")
        .into_iter()
        .map(|d| (d.name, d.unit))
        .collect();
    let mut got: Vec<(String, String)> = printed
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert!(!declared.is_empty(), "no {section} metrics declared");
    declared.sort();
    got.sort();
    assert_eq!(
        got, declared,
        "{section}: printed metrics against BENCHMARK.json"
    );
}

/// One test, so the timed rounds are not disturbed by each other.
#[test]
fn quick_runs_print_every_declared_metric_and_fail_no_op() {
    for spec in WORKLOADS.map(Spec::quick) {
        let mut inputs = Inputs::generate(&spec, 3);
        let out = run::run(&spec, &mut inputs, 0.15);
        assert_eq!(out.failed, 0, "{}", spec.name);
        assert!(out.attempted > 0, "{}", spec.name);
        assert_covers("end_to_end", &out.metrics);
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{}: a metric is 0",
            spec.name
        );
        // A harness thread that idles on a warm guard stalls reclamation,
        // and every later round's set-up pays for it (0.5 s grew to 3.3 s
        // at full size). 10 ms of slack for a descheduled test thread.
        let (first, second) = (out.rounds[0].setup_s, out.rounds[1].setup_s);
        assert!(
            second <= 2.0 * first + 0.010,
            "{}: set-up grew from {first} s to {second} s",
            spec.name
        );

        let path = ladder::out_path(&format!("test-trace-{}.json", spec.name));
        let traced = ladder::trace(&spec, &inputs, 0.1, &path);
        assert_eq!(traced.failed, 0, "{}", spec.name);
        assert_covers("per_layer", &traced.metrics);
        assert!(traced.spans > 0 && path.exists(), "{}", spec.name);
    }
}
