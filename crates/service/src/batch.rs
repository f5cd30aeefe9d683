//! Epoch-batched admission past the single write lock.
//!
//! The single `RwLock<AdmissionEngine>` write lock serialized every
//! `submit`; this module moves the expensive half of a decision — the
//! scheduling evaluation — *outside* that lock. Concurrent submissions
//! are collected into an **epoch**, speculated in parallel under the
//! engine's read lock (a consistent snapshot — writers are excluded
//! while speculation runs, no clone is taken), and then
//! committed sequentially, in arrival order, under a single write-lock
//! acquisition. The decision log therefore records exactly the commit
//! order, and the byte-identity guarantee — sequential replay of the
//! log reproduces the snapshot — survives untouched.
//!
//! # Why a speculated decision may be committed verbatim
//!
//! The ledger's mutation surface is consumption-only (see
//! [`dstage_resources::journal`]), so an earlier commit can invalidate a
//! later epoch member's speculation only by (a) staging new copies of
//! the *same data item* (which can improve the later candidate's route),
//! (b) consuming a link window or machine the candidate's own route
//! uses, or (c) moving the planning horizon the candidate was evaluated
//! under. The committer guards all three:
//!
//! * **same-item guard** — a member whose item was admitted earlier in
//!   the epoch is re-decided;
//! * **machine guard** — the machines a member's route touches (both
//!   ends of every transfer, plus the destination) must be disjoint from
//!   the machines of everything the epoch committed so far; a shared
//!   machine sends the member to sequential re-decision. Two routes that
//!   share a link share its end machines, so the one test covers link
//!   windows and storage alike. Disjoint machine sets leave the
//!   candidate's own route timings untouched and can only *worsen* the
//!   alternatives the earliest-arrival search rejected deterministically,
//!   so the speculated route stays the argmin;
//! * **horizon guard** — the member's
//!   [`AdmissionEngine::effective_horizon`] fingerprint must match
//!   between snapshot and live state.
//!
//! Rejections commit no state, and refusal reasons are functions of the
//! arguments plus resources that only shrink, so a speculated rejection
//! outside the guards is a live rejection too. An `inject`/`optimize`
//! that slipped between snapshot and commit bumps the engine version
//! and demotes the whole epoch to the sequential path.
//!
//! Setting `DSTAGE_BATCH_VERIFY=1` (or calling [`set_verify`]) makes
//! every guard-passing commit re-evaluate against the live state and
//! panic on divergence — the equivalence tests run with this on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use parking_lot::RwLock;

use crate::durability::Durability;
use crate::engine::{AdmissionEngine, Evaluation};
use crate::protocol::{SubmitArgs, SubmitResponse};
use dstage_model::ids::MachineId;

/// Process-wide switch for paranoid re-verification of speculative
/// commits (defaults to the `DSTAGE_BATCH_VERIFY` environment variable).
static VERIFY: OnceLock<AtomicBool> = OnceLock::new();

fn verify_flag() -> &'static AtomicBool {
    VERIFY.get_or_init(|| {
        let on = std::env::var("DSTAGE_BATCH_VERIFY").is_ok_and(|v| !v.is_empty() && v != "0");
        AtomicBool::new(on)
    })
}

/// Whether speculative commits are re-checked against the live state.
#[must_use]
pub fn verify_enabled() -> bool {
    verify_flag().load(Ordering::Relaxed)
}

/// Forces batch verification on or off (testing hook; the default
/// follows `DSTAGE_BATCH_VERIFY`).
pub fn set_verify(on: bool) {
    verify_flag().store(on, Ordering::Relaxed);
}

/// Admits one epoch of submissions: parallel speculation against a read
/// snapshot, then sequential commit in arrival order under one write
/// lock. Returns one response per submission, in input order — exactly
/// what `engine.write().submit(..)` would have returned one at a time,
/// byte for byte.
///
/// Single-element epochs skip speculation entirely and take the plain
/// sequential path.
pub fn run_epoch(
    engine: &RwLock<AdmissionEngine>,
    batch: &[SubmitArgs],
) -> Vec<Result<SubmitResponse, String>> {
    run_epoch_durable(engine, batch, None)
}

/// [`run_epoch`] with write-ahead logging: before the write lock is
/// released at any exit (speculative commit, sequential fallback, or
/// the singleton path), every record the epoch appended to the decision
/// log is staged into the WAL — in commit order, under the same lock
/// that ordered the decisions — and the epoch's responses are released
/// only after [`Durability::commit`] has applied the fsync policy. The
/// leader commits for its followers: a follower's reply cannot overtake
/// the WAL.
pub fn run_epoch_durable(
    engine: &RwLock<AdmissionEngine>,
    batch: &[SubmitArgs],
    durability: Option<&Durability>,
) -> Vec<Result<SubmitResponse, String>> {
    if batch.is_empty() {
        return Vec::new();
    }
    dstage_obs::metrics::SERVICE_BATCHES.inc();
    dstage_obs::metrics::SERVICE_BATCH_SIZE.record(batch.len() as u64);
    if batch.len() == 1 {
        let mut guard = engine.write();
        let result = guard.submit(&batch[0]);
        let staged = durability.map(|d| d.stage(&guard));
        drop(guard);
        if let (Some(d), Some(seq)) = (durability, staged) {
            d.commit(seq);
        }
        return vec![result];
    }

    // Parallel speculation under the *read* lock: every member evaluates
    // against the same live state, which stays immutable because writers
    // are excluded for the duration. This avoids cloning the engine per
    // epoch; the only writers a spin of speculation can delay are
    // inject/optimize and other leaders (already serialized by the
    // leader mutex). Speculation threads are capped at the machine's
    // parallelism — on a single core the members are evaluated inline,
    // spawning nothing.
    let mut evaluations: Vec<Option<Evaluation>> = Vec::new();
    evaluations.resize_with(batch.len(), || None);
    let (base_version, pre_horizons) = {
        let snapshot = engine.read();
        let base_version = snapshot.version();
        // Horizon fingerprints from before any of the epoch commits, so
        // the commit loop can detect a member whose planning horizon an
        // earlier commit moved.
        let pre_horizons: Vec<_> =
            batch.iter().map(|args| snapshot.effective_horizon(args.deadline_ms)).collect();
        let threads = std::thread::available_parallelism().map_or(1, usize::from).min(batch.len());
        if threads <= 1 {
            for (slot, args) in evaluations.iter_mut().zip(batch) {
                *slot = Some(snapshot.evaluate(args));
            }
        } else {
            let chunk = batch.len().div_ceil(threads);
            let snapshot_ref = &*snapshot;
            crossbeam::thread::scope(|scope| {
                for (slots, members) in evaluations.chunks_mut(chunk).zip(batch.chunks(chunk)) {
                    scope.spawn(move || {
                        for (slot, args) in slots.iter_mut().zip(members) {
                            *slot = Some(snapshot_ref.evaluate(args));
                        }
                    });
                }
            })
            .expect("speculation threads do not panic");
        }
        (base_version, pre_horizons)
    };

    let mut guard = engine.write();
    if guard.version() != base_version {
        // An exclusive operation (inject/optimize, or another leader's
        // epoch) interleaved: every speculation is suspect. Fall back to
        // deciding the whole epoch sequentially, still in arrival order.
        dstage_obs::metrics::SERVICE_BATCH_FALLBACKS.inc();
        let results: Vec<_> = batch.iter().map(|args| guard.submit(args)).collect();
        let staged = durability.map(|d| d.stage(&guard));
        drop(guard);
        if let (Some(d), Some(seq)) = (durability, staged) {
            d.commit(seq);
        }
        return results;
    }

    // Sequential commit in arrival order. `epoch_machines` holds every
    // machine a route committed so far this epoch touches; `epoch_items`
    // the data items admitted so far. A member clashing with either (or
    // whose horizon fingerprint moved) is re-decided against the live
    // state — the "deterministic retry of losers": retries happen in the
    // same arrival order and land in the same log positions on every run.
    let mut epoch_machines: Vec<MachineId> = Vec::new();
    let mut epoch_items: Vec<u32> = Vec::new();
    let mut results = Vec::with_capacity(batch.len());
    for ((args, evaluation), pre_horizon) in batch.iter().zip(evaluations).zip(pre_horizons) {
        let evaluation = evaluation.expect("every member was speculated");
        let item_clash = guard.item_id(&args.item).is_some_and(|item| epoch_items.contains(&item));
        let machine_clash = AdmissionEngine::evaluation_machines(&evaluation)
            .iter()
            .any(|m| epoch_machines.contains(m));
        let horizon_moved = guard.effective_horizon(args.deadline_ms) != pre_horizon;
        let result = if item_clash || machine_clash || horizon_moved {
            dstage_obs::metrics::SERVICE_CONFLICT_RETRIES.inc();
            guard.submit(args)
        } else {
            guard.submit_with(args, Some(evaluation))
        };
        // Whatever path decided the member, fold an admission's residue
        // into the guards so later members stay checkable. (A replayed
        // idempotent admission re-adds machines the epoch may already
        // hold — a harmless union.)
        if let Ok(response) = &result {
            if let Some(request) = response.request {
                epoch_machines.extend(guard.request_machines(request as u32));
                if let Some(item) = guard.item_id(&args.item) {
                    epoch_items.push(item);
                }
            }
        }
        results.push(result);
    }
    let staged = durability.map(|d| d.stage(&guard));
    drop(guard);
    if let (Some(d), Some(seq)) = (durability, staged) {
        d.commit(seq);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_core::heuristic::{Heuristic, HeuristicConfig};
    use dstage_workload::{generate, GeneratorConfig};

    fn engine() -> AdmissionEngine {
        let scenario = generate(&GeneratorConfig::small(), 5);
        AdmissionEngine::new(&scenario, Heuristic::FullPathOneDestination, {
            HeuristicConfig::paper_best()
        })
    }

    fn args(engine: &AdmissionEngine, pick: usize, deadline_ms: u64) -> SubmitArgs {
        let items: Vec<String> = engine.item_names().map(str::to_string).collect();
        SubmitArgs {
            item: items[pick % items.len()].clone(),
            destination: (pick % engine.machine_count()) as u32,
            deadline_ms,
            priority: (pick % 3) as u8,
            idempotency_key: None,
        }
    }

    /// A batched epoch must produce byte-identical responses and state
    /// to feeding the same submissions one at a time.
    #[test]
    fn epoch_commits_match_sequential_submission() {
        set_verify(true);
        let concurrent = RwLock::new(engine());
        let mut sequential = engine();
        let batch: Vec<SubmitArgs> =
            (0..12).map(|i| args(&sequential, i * 7 + 1, 600_000 + i as u64 * 90_000)).collect();
        let batched = run_epoch(&concurrent, &batch);
        for (args, batched) in batch.iter().zip(batched) {
            let expected = sequential.submit(args);
            assert_eq!(
                serde_json::to_string(&batched.clone().unwrap()).unwrap(),
                serde_json::to_string(&expected.unwrap()).unwrap()
            );
        }
        assert_eq!(
            serde_json::to_string(&concurrent.read().snapshot()).unwrap(),
            serde_json::to_string(&sequential.snapshot()).unwrap()
        );
    }

    /// The same equivalence where speculation is what gets committed: on
    /// a 10×10 grid, distinct items each requested one cell away from
    /// their source have short routes that rarely share a machine, so
    /// most members pass the machine guard and commit verbatim (re-checked
    /// against the live state by `set_verify`).
    #[test]
    fn disjoint_grid_routes_commit_from_speculation() {
        use dstage_workload::grid::{generate_grid, GridConfig};

        set_verify(true);
        let cols = 10;
        let config = GridConfig { rows: 10, cols, items: 16, requests: 0, ..GridConfig::default() };
        let scenario = generate_grid(&config, 11);
        let fresh = || {
            let best = HeuristicConfig::paper_best();
            AdmissionEngine::new(&scenario, Heuristic::FullPathOneDestination, best)
        };
        let batch: Vec<SubmitArgs> = scenario
            .items()
            .map(|(_, item)| {
                let source = item.sources()[0];
                let cell = source.machine.index();
                let neighbour = if cell % cols + 1 < cols { cell + 1 } else { cell - 1 };
                SubmitArgs {
                    item: item.name().to_string(),
                    destination: neighbour as u32,
                    deadline_ms: source.available_at.as_millis() + 3_600_000,
                    priority: (cell % 3) as u8,
                    idempotency_key: None,
                }
            })
            .collect();

        // The branch under test is really taken: most members' speculated
        // routes are machine-disjoint from every earlier member's.
        let mut sequential = fresh();
        let mut seen: Vec<MachineId> = Vec::new();
        let mut disjoint = 0;
        for args in &batch {
            let machines = AdmissionEngine::evaluation_machines(&sequential.evaluate(args));
            assert!(!machines.is_empty(), "every member is admissible on an empty ledger");
            disjoint += usize::from(!machines.iter().any(|m| seen.contains(m)));
            seen.extend(machines);
        }
        assert!(disjoint >= 10, "only {disjoint} of {} members are disjoint", batch.len());

        let concurrent = RwLock::new(fresh());
        let batched = run_epoch(&concurrent, &batch);
        for (args, batched) in batch.iter().zip(batched) {
            assert_eq!(
                serde_json::to_string(&batched.unwrap()).unwrap(),
                serde_json::to_string(&sequential.submit(args).unwrap()).unwrap()
            );
        }
        assert_eq!(
            serde_json::to_string(&concurrent.read().snapshot()).unwrap(),
            serde_json::to_string(&sequential.snapshot()).unwrap()
        );
    }

    /// Empty epochs are a no-op; singleton epochs use the plain path.
    #[test]
    fn degenerate_epochs() {
        let concurrent = RwLock::new(engine());
        assert!(run_epoch(&concurrent, &[]).is_empty());
        let one = args(&concurrent.read(), 1, 900_000);
        let results = run_epoch(&concurrent, std::slice::from_ref(&one));
        assert_eq!(results.len(), 1);
        assert_eq!(concurrent.read().submission_count(), 1);
    }
}
