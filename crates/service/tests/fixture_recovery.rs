//! A data dir written by an earlier build recovers byte for byte: the
//! checkpoint and WAL tail under `tests/fixtures/small-11/data` (every
//! record shape in the tail) must rebuild the snapshot recorded beside them
//! in `snapshot.json`. The files were written by the hand-written codecs
//! the derived ones replaced, so a change to the wire format shows up here
//! as a refused file or a different snapshot.

use std::fs;
use std::path::{Path, PathBuf};

use dstage_core::cost::{CostCriterion, EuWeights};
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;
use dstage_service::durability::{Durability, RecoveryReport};
use dstage_service::engine::AdmissionEngine;
use dstage_service::protocol::{InjectArgs, InjectKind, SubmitArgs};
use dstage_service::wal::FsyncPolicy;
use dstage_workload::{generate, GeneratorConfig};

/// The configuration the pinned bytes were written under, and their v1
/// fingerprint names: full path/one destination, `Cost₄` at E-U ratio 10⁰,
/// the 1/10/100 weighting.
fn written_under() -> HeuristicConfig {
    HeuristicConfig { eu: EuWeights::from_log10_ratio(0.0), ..HeuristicConfig::paper_best() }
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/small-11")
}

fn catalog() -> Scenario {
    generate(&GeneratorConfig::small(), 11)
}

fn recover_under(
    dir: &Path,
    heuristic: Heuristic,
    config: HeuristicConfig,
) -> Result<(Durability, AdmissionEngine, RecoveryReport), String> {
    Durability::recover(dir, FsyncPolicy::Always, u64::MAX, &catalog(), heuristic, config)
}

fn recover(dir: &Path) -> (Durability, AdmissionEngine, RecoveryReport) {
    recover_under(dir, Heuristic::FullPathOneDestination, written_under()).expect("recover")
}

/// A fresh copy of the fixture's data dir, named for `name`.
fn copy_of_the_fixture(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dstage-fixture-{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    for entry in fs::read_dir(fixture().join("data")).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    dir
}

/// The data dir recovers to its snapshot under every scheduler that
/// commits a request's earliest path, whatever the criterion and the E-U
/// ratio: its v1 fingerprint is accepted once its catalog, the commit rule
/// of the scheduler it names and its weighting match, and each decision of
/// its WAL tail is made again, alone, exactly as recorded.
#[test]
fn a_data_dir_written_by_an_earlier_build_recovers_to_its_recorded_snapshot() {
    let recorded = fs::read_to_string(fixture().join("snapshot.json")).unwrap();
    for heuristic in Heuristic::ALL {
        for criterion in [CostCriterion::C1, CostCriterion::C4] {
            for x in [0.0, 2.0] {
                let config = HeuristicConfig {
                    criterion,
                    eu: EuWeights::from_log10_ratio(x),
                    ..written_under()
                };
                let dir = copy_of_the_fixture("snapshot");
                let (_, engine, report) = recover_under(&dir, heuristic, config).expect("recover");
                let under = format!("{heuristic} under {criterion} at 10^{x}");
                assert!(
                    report.checkpoint_records > 0 && report.replayed > 0,
                    "{under}: {report:?}"
                );
                assert!(!report.truncated, "{under}: {report:?}");
                let snapshot = serde_json::to_string(&engine.snapshot()).unwrap() + "\n";
                assert!(snapshot == recorded, "{under}: the snapshot differs");
                fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// The same data dir under the other commit rule (`alap`), or under the
/// other weighting, is refused instead of re-deciding its WAL tail under a
/// configuration it was not written with.
#[test]
fn the_data_dir_under_another_rule_or_weighting_is_refused() {
    let other_weighting =
        HeuristicConfig { priority_weights: PriorityWeights::paper_1_5_10(), ..written_under() };
    for (heuristic, config) in
        [(Heuristic::Alap, written_under()), (Heuristic::FullPathOneDestination, other_weighting)]
    {
        let dir = copy_of_the_fixture("foreign");
        let refused = recover_under(&dir, heuristic, config).map(|_| ()).unwrap_err();
        assert!(refused.contains("fingerprint mismatch"), "{heuristic}: {refused}");
        fs::remove_dir_all(&dir).ok();
    }
}

/// Writes the fixture: the catalog's first half of requests, a checkpoint,
/// then in the WAL tail the second half (keyed and unkeyed, admitted and
/// refused), a copy loss, a link outage and an optimize pass.
#[test]
#[ignore = "rewrites the committed fixture"]
fn write_the_fixture() {
    let data = fixture().join("data");
    fs::remove_dir_all(&data).ok();
    let (durability, mut engine, _) = recover(&data);
    let catalog = catalog();
    let asks: Vec<SubmitArgs> = (catalog.requests().enumerate())
        .map(|(i, (_, r))| SubmitArgs {
            item: catalog.item(r.item()).name().to_string(),
            destination: r.destination().index() as u32,
            deadline_ms: r.deadline().as_millis(),
            priority: r.priority().level(),
            idempotency_key: (i % 3 == 0).then(|| format!("fx-{i}")),
        })
        .collect();
    let (head, tail) = asks.split_at(asks.len() / 2);
    for ask in head {
        engine.submit(ask).unwrap();
        durability.stage(&engine);
    }
    durability.checkpoint(&engine).unwrap();
    for ask in tail {
        engine.submit(ask).unwrap();
        durability.stage(&engine);
    }
    let copy = tail.iter().find(|a| a.idempotency_key.is_some()).unwrap();
    let loss = InjectKind::CopyLoss { item: copy.item.clone(), machine: copy.destination };
    engine.inject(&InjectArgs { kind: loss, at_ms: 60_000 }).unwrap();
    durability.stage(&engine);
    engine
        .inject(&InjectArgs { kind: InjectKind::LinkOutage { link: 0 }, at_ms: 120_000 })
        .unwrap();
    durability.stage(&engine);
    let pass = engine.optimize(64);
    durability.stage(&engine);
    durability.finalize();
    let counters = engine.counters();
    println!("{counters:?}; swapped {}", pass.swapped);
    let snapshot = serde_json::to_string(&engine.snapshot()).unwrap();
    fs::write(fixture().join("snapshot.json"), snapshot + "\n").unwrap();
}
