//! The one encoder and the one decoder, held against each other on every
//! wire and record type: the text sink writes what the tree sink's tree
//! writes, a record reads back as itself, and the text source reads what
//! the tree source reads from the same text — or refuses it with the same
//! message — also after the text is mutated.

use dstage_core::schedule::{Delivery, Transfer};
use dstage_dynamic::{Loss, Outage};
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::time::SimTime;
use dstage_workload::Family;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use crate::protocol::{
    AdmittedArgs, Checkpoint, CheckpointView, ClientRequest, Decision, InjectArgs, InjectKind,
    InjectionRecord, LogRecord, MetricsFormat, OptimizationRecord, P2mpSubmitArgs, RequestInfo,
    RequestStatus, SubmissionRecord, SubmitArgs, SubmitResponse, SwapRecord,
};

/// Characters strings are drawn from: quotes, backslashes, control
/// characters and non-BMP ones among them.
const PALETTE: [char; 14] =
    ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '€', '\u{1F600}'];

fn text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..6usize)).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect()
}

/// A `u64` that is often an edge: 0, `u64::MAX`, or one past `i64::MAX`.
fn wide(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..5u8) {
        0 => 0,
        1 => u64::MAX,
        2 => i64::MAX as u64 + 1,
        3 => rng.gen_range(0..1_000u64),
        _ => rng.next_u64(),
    }
}

fn small(rng: &mut StdRng) -> u32 {
    rng.gen_range(0..50u32)
}

fn maybe<T>(rng: &mut StdRng, make: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| make(rng))
}

fn many<T>(rng: &mut StdRng, mut make: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..rng.gen_range(0..4usize)).map(|_| make(rng)).collect()
}

fn time(rng: &mut StdRng) -> SimTime {
    SimTime::from_millis(wide(rng))
}

fn submit_args(rng: &mut StdRng) -> SubmitArgs {
    SubmitArgs {
        item: text(rng),
        destination: rng.next_u64() as u32,
        deadline_ms: wide(rng),
        priority: rng.next_u64() as u8,
        idempotency_key: maybe(rng, text),
    }
}

fn inject_args(rng: &mut StdRng) -> InjectArgs {
    let kind = if rng.gen_bool(0.5) {
        InjectKind::LinkOutage { link: small(rng) }
    } else {
        InjectKind::CopyLoss { item: text(rng), machine: small(rng) }
    };
    InjectArgs { kind, at_ms: wide(rng) }
}

fn client_request(rng: &mut StdRng) -> ClientRequest {
    match rng.gen_range(0..11u8) {
        0 => ClientRequest::Submit(submit_args(rng)),
        1 => ClientRequest::SubmitP2mp(P2mpSubmitArgs {
            item: text(rng),
            destinations: (0..rng.gen_range(1..4usize)).map(|_| small(rng)).collect(),
            deadline_ms: wide(rng),
            priority: rng.next_u64() as u8,
            idempotency_key: maybe(rng, text),
        }),
        2 => ClientRequest::Query { request: rng.next_u64() as u32 },
        3 => ClientRequest::Inject(inject_args(rng)),
        4 => ClientRequest::Optimize { budget: maybe(rng, wide) },
        5 => ClientRequest::Snapshot,
        6 => ClientRequest::Metrics {
            format: if rng.gen_bool(0.5) { MetricsFormat::Json } else { MetricsFormat::Prometheus },
        },
        7 => ClientRequest::Trace { limit: maybe(rng, wide) },
        8 => ClientRequest::Checkpoint,
        _ => ClientRequest::Shutdown,
    }
}

fn log_record(rng: &mut StdRng) -> LogRecord {
    match rng.gen_range(0..3u8) {
        0 => LogRecord::Submission(SubmissionRecord {
            args: submit_args(rng),
            decision: if rng.gen_bool(0.5) {
                Decision::Admitted {
                    request: RequestId::new(small(rng)),
                    eta: time(rng),
                    hops: small(rng),
                    new_transfers: rng.gen_range(0..9usize),
                }
            } else {
                Decision::Rejected { reason: text(rng) }
            },
        }),
        1 => LogRecord::Injection(InjectionRecord {
            args: inject_args(rng),
            cancelled_transfers: rng.gen_range(0..9usize),
            repaired: many(rng, small),
            evicted: many(rng, small),
        }),
        _ => LogRecord::Optimization(OptimizationRecord {
            budget: wide(rng),
            attempted: wide(rng),
            swaps: many(rng, |rng| SwapRecord {
                submission: wide(rng),
                evicted: small(rng),
                admitted: small(rng),
            }),
        }),
    }
}

fn transfer(rng: &mut StdRng) -> Transfer {
    Transfer {
        item: DataItemId::new(small(rng)),
        from: MachineId::new(small(rng)),
        to: MachineId::new(small(rng)),
        link: VirtualLinkId::new(small(rng)),
        start: time(rng),
        arrival: time(rng),
    }
}

fn checkpoint(rng: &mut StdRng) -> Checkpoint {
    let statuses = [RequestStatus::Admitted, RequestStatus::Repaired, RequestStatus::Evicted];
    Checkpoint {
        format: wide(rng),
        fingerprint: text(rng),
        now_ms: time(rng),
        idempotency_capacity: rng.gen_range(0..100usize),
        admitted: many(rng, |rng| SubmitArgs { idempotency_key: None, ..submit_args(rng) }),
        info: many(rng, |rng| RequestInfo {
            status: statuses[rng.gen_range(0..3usize)],
            delivery: maybe(rng, |rng| Delivery {
                request: RequestId::new(small(rng)),
                at: time(rng),
                hops: small(rng),
            }),
            route: many(rng, transfer),
        }),
        committed: many(rng, transfer),
        outages: many(rng, |rng| -> Outage { (VirtualLinkId::new(small(rng)), time(rng)) }),
        losses: many(rng, |rng| -> Loss {
            (DataItemId::new(small(rng)), MachineId::new(small(rng)), time(rng))
        }),
        log: many(rng, log_record),
    }
}

/// `checkpoint` borrowed as the engine writes one.
fn view(checkpoint: &Checkpoint) -> CheckpointView<'_> {
    CheckpointView {
        format: checkpoint.format,
        fingerprint: &checkpoint.fingerprint,
        now_ms: checkpoint.now_ms,
        idempotency_capacity: checkpoint.idempotency_capacity,
        admitted: (checkpoint.admitted.iter())
            .map(|args| AdmittedArgs {
                item: &args.item,
                destination: args.destination,
                deadline_ms: args.deadline_ms,
                priority: args.priority,
            })
            .collect(),
        info: &checkpoint.info,
        committed: &checkpoint.committed,
        outages: &checkpoint.outages,
        losses: &checkpoint.losses,
        log: &checkpoint.log,
    }
}

fn submit_response(rng: &mut StdRng) -> SubmitResponse {
    SubmitResponse {
        ok: rng.gen_bool(0.5),
        submission: wide(rng),
        decision: text(rng),
        request: maybe(rng, wide),
        eta_ms: maybe(rng, wide),
        hops: maybe(rng, wide),
        new_transfers: maybe(rng, wide),
        reason: maybe(rng, text),
    }
}

/// A small tree holding the numbers no record type carries.
fn value(rng: &mut StdRng, depth: u8) -> Value {
    let pick = rng.gen_range(0..if depth == 0 { 9u8 } else { 11 });
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(i64::MIN),
        3 => Value::UInt(wide(rng)),
        4 => Value::Float(-0.0),
        5 => Value::Float(1e15),
        6 => Value::Float(1e-7),
        7 => Value::Float(-1.5e300),
        8 => Value::String(text(rng)),
        9 => Value::Array(many(rng, |rng| value(rng, depth - 1))),
        _ => Value::Object(many(rng, |rng| (text(rng), value(rng, depth - 1)))),
    }
}

/// Both sinks write the same text, compact and pretty; returns it.
fn sinks_agree<T: Serialize>(x: &T) -> Result<String, TestCaseError> {
    let tree = serde::to_value(x).expect("a tree always builds");
    let compact = serde_json::to_string(x).expect("text always writes");
    prop_assert_eq!(&compact, &serde::write_compact(&tree));
    prop_assert_eq!(serde_json::to_string_pretty(x).expect("text"), serde::write_pretty(&tree));
    Ok(compact)
}

/// What one source made of a text: the value, re-encoded, or the error.
fn read_back<T: Serialize>(read: Result<T, String>) -> Result<String, String> {
    read.map(|v| serde_json::to_string(&v).expect("text always writes"))
}

/// The text source and the tree source agree on `text`, error text
/// included.
fn sources_agree<T: Serialize + for<'de> Deserialize<'de>>(
    text: &str,
) -> Result<(), TestCaseError> {
    let direct = read_back(serde_json::from_str::<T>(text).map_err(|e| e.to_string()));
    let tree: Value = serde_json::from_str(text).expect("mutations stay JSON");
    let via_tree = read_back(serde::from_value::<T>(tree).map_err(|e| e.to_string()));
    prop_assert_eq!(direct, via_tree, "{}", text);
    Ok(())
}

/// The text of `x`'s object with one entry dropped, retyped, duplicated
/// with another value (the first must win), or an unknown key added; with
/// the first entry (a tag, where there is one) moved last; and with both
/// an entry duplicated and the first entry moved last.
fn mutations<T: Serialize>(x: &T, rng: &mut StdRng) -> Vec<String> {
    let Value::Object(entries) = serde::to_value(x).expect("a tree") else { return Vec::new() };
    if entries.is_empty() {
        return Vec::new();
    }
    let retypes = [
        Value::String("x".to_string()),
        Value::UInt(7),
        Value::Int(-1),
        Value::Float(1.5),
        Value::Null,
        Value::Bool(true),
        Value::Array(vec![Value::UInt(1)]),
        Value::Object(vec![("k".to_string(), Value::Array(Vec::new()))]),
    ];
    let at = rng.gen_range(0..entries.len());
    let retype = retypes[rng.gen_range(0..retypes.len())].clone();
    let mut variants = vec![entries.clone(); 4];
    variants[0].remove(at);
    variants[1][at].1 = retype.clone();
    variants[2].push((entries[at].0.clone(), retype));
    variants[3].insert(at, ("zz_unknown".to_string(), value(rng, 2)));
    for mut moved in [entries, variants[2].clone()] {
        let first = moved.remove(0);
        moved.push(first);
        variants.push(moved);
    }
    variants.into_iter().map(|e| serde::write_compact(&Value::Object(e))).collect()
}

/// Every check but the round trip: the sinks agree on `x`, and the
/// sources agree on its text and on each mutation of it.
fn both_ways_agree<T: Serialize + for<'de> Deserialize<'de>>(
    x: &T,
    rng: &mut StdRng,
) -> Result<String, TestCaseError> {
    let text = sinks_agree(x)?;
    sources_agree::<T>(&text)?;
    for mutated in mutations(x, rng) {
        sources_agree::<T>(&mutated)?;
    }
    Ok(text)
}

/// [`both_ways_agree`], and `x` reads back from its text as itself.
fn round_trips<T>(x: &T, rng: &mut StdRng) -> Result<(), TestCaseError>
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let text = both_ways_agree(x, rng)?;
    prop_assert_eq!(&serde_json::from_str::<T>(&text).expect("reads back"), x);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_two_sinks_and_the_two_sources_agree(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);

        // A request line reads back through the daemon's own parser (a
        // point-to-multipoint submit is not a derived shape).
        let request = client_request(rng);
        let line = both_ways_agree(&request, rng)?;
        prop_assert_eq!(ClientRequest::parse(&line), Ok(request), "{}", line);

        round_trips(&log_record(rng), rng)?;
        round_trips(&submit_args(rng), rng)?;
        sinks_agree(&submit_response(rng))?;

        // The checkpoint reads back as the same text, and the borrowed
        // view the engine writes is that text too.
        let checkpoint = checkpoint(rng);
        let text = both_ways_agree(&checkpoint, rng)?;
        prop_assert_eq!(&sinks_agree(&view(&checkpoint))?, &text);
        let back: Checkpoint = serde_json::from_str(&text).expect("a checkpoint reads back");
        prop_assert_eq!(serde_json::to_string(&back).expect("text"), text);

        let tree = value(rng, 3);
        let text = sinks_agree(&tree)?;
        sources_agree::<Value>(&text)?;
    }

    #[test]
    fn a_catalog_reads_back_as_the_same_text(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let family = Family::ALL[rng.gen_range(0..Family::ALL.len())];
        let scenario = family.generate_small(seed);
        let text = both_ways_agree(&scenario, rng)?;
        let back: dstage_model::scenario::Scenario =
            serde_json::from_str(&text).expect("a catalog reads back");
        prop_assert_eq!(serde_json::to_string(&back).expect("text"), text);
    }
}
