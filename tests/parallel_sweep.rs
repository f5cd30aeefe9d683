//! Determinism tests for the parallel sweep: every experiment fans its
//! case loop out over N worker threads and must render reports
//! **byte-identical** to the one-thread run, and the harness result cache
//! must stay coherent when hammered from many threads at once.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use data_staging::sim::experiments::{self, ExperimentReport};
use data_staging::sim::runner::{Harness, SchedulerKind, Weighting};
use data_staging::sim::sweep::EuRatioPoint;
use data_staging::workload::GeneratorConfig;

use data_staging::core::cost::CostCriterion;
use data_staging::core::heuristic::Heuristic;

/// Every rendered byte of a report set: text blocks plus CSV payloads.
///
/// The one deliberately environment-dependent output — the measured
/// wall-clock column of the `exec_time` companion table — is masked first:
/// it differs even between two sequential runs, so it is excluded from
/// the byte-identity guarantee (which covers every scheduling outcome).
fn render(reports: &[ExperimentReport]) -> String {
    let mut out = String::new();
    for report in reports {
        let mut report = report.clone();
        for table in &mut report.tables {
            if let Some(col) = table.columns.iter().position(|c| c == "mean time [ms]") {
                for row in &mut table.rows {
                    row[col] = "<wall-clock>".into();
                }
            }
        }
        out.push_str(&report.to_text());
        for (name, csv) in report.csv_files() {
            out.push_str(&name);
            out.push('\n');
            out.push_str(&csv);
        }
    }
    out
}

fn assert_byte_identical(parallel: &str, sequential: &str, threads: usize) {
    if parallel != sequential {
        let at = parallel
            .bytes()
            .zip(sequential.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| parallel.len().min(sequential.len()));
        panic!(
            "{threads}-thread sweep diverges from sequential at byte {at} \
             (parallel {} bytes, sequential {} bytes):\n  parallel:   {:?}\n  sequential: {:?}",
            parallel.len(),
            sequential.len(),
            &parallel[at.saturating_sub(40)..(at + 40).min(parallel.len())],
            &sequential[at.saturating_sub(40)..(at + 40).min(sequential.len())],
        );
    }
}

/// Debug-speed smoke suite: 2, 4, and 8 worker threads must all
/// reproduce the one-thread report byte for byte. (The paper-scale
/// 40-case version of this loop is the `#[ignore]`d release test
/// below.)
#[test]
fn parallel_sweep_is_byte_identical_across_thread_counts() {
    let all = |threads| {
        render(&experiments::all(&Harness::new(&GeneratorConfig::small(), 6).with_threads(threads)))
    };
    let sequential = all(1);
    assert!(!sequential.is_empty());
    for threads in [2usize, 4, 8] {
        assert_byte_identical(&all(threads), &sequential, threads);
    }
}

/// The full paper-scale 40-case suite (the slow one — run explicitly or
/// in CI release mode). Thread count comes from `DSTAGE_THREADS` (CI
/// pins 2); when `DSTAGE_SWEEP_BUDGET_SECS` is set, the parallel sweep
/// must also finish within that wall-clock budget.
#[test]
#[ignore = "paper-scale suite; run with: cargo test --release --test parallel_sweep -- --ignored"]
fn full_sweep_parallel_matches_sequential_on_the_paper_suite() {
    let started = Instant::now();
    let sequential = render(&experiments::all(&Harness::paper()));
    let sequential_elapsed = started.elapsed();

    // The resolved count (CI pins DSTAGE_THREADS=2) plus the canonical
    // 2/4/8 ladder, deduped.
    let mut thread_counts = vec![data_staging::sim::resolve_threads(None)];
    for t in [2usize, 4, 8] {
        if !thread_counts.contains(&t) {
            thread_counts.push(t);
        }
    }
    for threads in thread_counts {
        let started = Instant::now();
        let parallel = render(&experiments::all(&Harness::paper().with_threads(threads)));
        let parallel_elapsed = started.elapsed();

        eprintln!(
            "[full-sweep] sequential {sequential_elapsed:.1?}, \
             {threads} threads {parallel_elapsed:.1?} \
             ({:.2}x)",
            sequential_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9),
        );
        assert_byte_identical(&parallel, &sequential, threads);

        if let Ok(budget) = std::env::var("DSTAGE_SWEEP_BUDGET_SECS") {
            let budget: u64 = budget.parse().expect("DSTAGE_SWEEP_BUDGET_SECS must be seconds");
            assert!(
                parallel_elapsed <= Duration::from_secs(budget),
                "parallel sweep took {parallel_elapsed:.1?}, over the {budget}s budget"
            );
        }
    }
}

/// The six experiments outside `all` — the extended scheduler matrix
/// (`alap` included), the extension criterion, and the four
/// that run their own generators — ride the same guarantee.
#[test]
fn experiments_outside_all_are_byte_identical_across_thread_counts() {
    const CASES: usize = 3;
    let small = GeneratorConfig::small();
    let rendered = |threads| {
        let harness = Harness::new(&small, CASES).with_threads(threads);
        render(&[
            experiments::schedulers(&harness),
            experiments::extensions(&harness),
            experiments::optimizer(&small, CASES, 4, threads),
            experiments::fault_tolerance(&small, CASES, threads),
            experiments::congestion(&small, CASES, threads),
            experiments::families(CASES, true, threads),
        ])
    };
    let sequential = rendered(1);
    for threads in [2usize, 4, 8] {
        assert_byte_identical(&rendered(threads), &sequential, threads);
    }
}

/// An own-generator experiment really goes through the executor: with the
/// tap on, the work-unit counter grows by at least one unit per case
/// while `families` renders on two threads. (Other tests of this binary
/// only ever add to the counter, so the bound holds under `cargo test`'s
/// own parallelism.)
#[test]
fn families_fans_its_cases_out_through_the_executor() {
    const CASES: usize = 3;
    if !data_staging::obs::enabled() {
        return;
    }
    let before = data_staging::obs::metrics::SIM_WORK_UNITS.get();
    let _ = experiments::families(CASES, true, 2);
    let grown = data_staging::obs::metrics::SIM_WORK_UNITS.get() - before;
    assert!(grown >= CASES as u64, "families ran {grown} work units for {CASES} cases");
}

/// A harness computing its series on four threads must hold exactly
/// what a one-thread harness computes.
#[test]
fn harness_series_at_four_threads_equal_one_thread() {
    let kinds = [
        (
            SchedulerKind::Pairing(
                Heuristic::PartialPath,
                CostCriterion::C4,
                EuRatioPoint::Log10(2),
            ),
            Weighting::W1_10_100,
        ),
        (
            SchedulerKind::Pairing(Heuristic::PartialPath, CostCriterion::C3, EuRatioPoint::NegInf),
            Weighting::W1_10_100,
        ),
        (SchedulerKind::RandomDijkstra, Weighting::W1_10_100),
        (SchedulerKind::PriorityFirst, Weighting::W1_5_10),
    ];
    let parallel = Harness::new(&GeneratorConfig::small(), 6).with_threads(4);
    let sequential = Harness::new(&GeneratorConfig::small(), 6);
    for &(kind, weighting) in &kinds {
        let p = parallel.results(kind, weighting);
        let s = sequential.results(kind, weighting);
        assert_eq!(p.len(), s.len());
        for (a, b) in p.iter().zip(s.iter()) {
            assert_eq!(a.evaluation, b.evaluation, "{kind:?} under {weighting:?}");
        }
    }
    let pb = parallel.bounds(Weighting::W1_10_100);
    let sb = sequential.bounds(Weighting::W1_10_100);
    for (a, b) in pb.iter().zip(sb.iter()) {
        assert_eq!(a.upper_bound, b.upper_bound);
        assert_eq!(a.possible_satisfy, b.possible_satisfy);
    }
}

/// Interleaving smoke test for the result cache: many threads released
/// at once against overlapping work units must all observe coherent,
/// identical series (no torn inserts, no duplicated divergent runs).
#[test]
fn result_cache_stays_coherent_under_concurrent_hammering() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    let kinds = [
        SchedulerKind::PriorityFirst,
        SchedulerKind::RandomDijkstra,
        SchedulerKind::Pairing(Heuristic::PartialPath, CostCriterion::C4, EuRatioPoint::Log10(0)),
    ];
    for round in 0..ROUNDS {
        let harness = Arc::new(Harness::new(&GeneratorConfig::small(), 2));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let harness = Arc::clone(&harness);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Stagger who asks for what first to vary interleavings.
                    let mut seen = Vec::new();
                    for step in 0..kinds.len() {
                        let kind = kinds[(worker + step) % kinds.len()];
                        seen.push((kind, harness.results(kind, Weighting::W1_10_100)));
                    }
                    seen
                })
            })
            .collect();
        let reference = Harness::new(&GeneratorConfig::small(), 2);
        for handle in handles {
            for (kind, series) in handle.join().expect("worker panicked") {
                let expected = reference.results(kind, Weighting::W1_10_100);
                assert_eq!(series.len(), expected.len());
                for (a, b) in series.iter().zip(expected.iter()) {
                    assert_eq!(a.evaluation, b.evaluation, "round {round}, {kind:?}");
                }
                // Later calls must be served by the same cached allocation.
                assert!(Arc::ptr_eq(&series, &harness.results(kind, Weighting::W1_10_100)));
            }
        }
    }
}
