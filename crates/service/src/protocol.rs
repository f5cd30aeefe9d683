//! The wire protocol: newline-delimited JSON over TCP, and the one
//! declared format of everything the daemon stores or sends.
//!
//! Every request is one JSON object per line carrying a `verb` field;
//! every response is one JSON object per line carrying `ok`. The nine
//! verbs are `submit`, `query`, `inject`, `optimize`, `snapshot`,
//! `metrics`, `trace`, `checkpoint`, and `shutdown`.
//!
//! `submit` may carry an `idempotency_key`: resubmitting the same key
//! with the same arguments returns the original decision instead of
//! deciding again, so a client that lost a response can retry safely.
//! A `submit` with a `destinations` array instead of a single
//! `destination` is a point-to-multipoint submission: every destination
//! is decided in order through the ordinary admission path (so each
//! lands in the decision log as its own per-destination outcome) and
//! the response aggregates the per-destination decisions.
//! `inject` feeds a live disturbance (a link outage or a copy loss,
//! mirroring `dstage_dynamic::EventKind`) into the daemon, which cancels
//! invalidated reservations and repairs displaced requests.
//!
//! A decision-log record ([`LogRecord`]) repeats the request it answers
//! field for field and adds the outcome; the same record is a line of the
//! write-ahead log, an entry of the snapshot's `log` array and of a
//! checkpoint's. Every type here derives its JSON, so this file is the
//! format: field order is declaration order, and nothing else encodes or
//! decodes these objects.

use dstage_core::schedule::{Delivery, Schedule, Transfer};
use dstage_dynamic::{Loss, Outage};
use dstage_model::ids::RequestId;
use dstage_model::time::SimTime;
use serde::{Deserialize, Serialize, Value};

use crate::engine::AdmissionCounters;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "verb", rename_all = "snake_case")]
pub enum ClientRequest {
    /// Ask for admission of a new data request.
    Submit(SubmitArgs),
    /// Ask for admission of a point-to-multipoint request: one item,
    /// several destinations decided in order, sharing staged copies.
    /// Its verb is `submit` too; [`ClientRequest::parse`] tells the two
    /// apart by the `destinations` array.
    #[serde(rename = "submit", skip_deserializing)]
    SubmitP2mp(P2mpSubmitArgs),
    /// Ask for the status/route/ETA of an admitted request.
    Query {
        /// The request id returned by an earlier `submit`.
        request: u32,
    },
    /// Inject a disturbance: invalidate affected reservations, then
    /// repair displaced requests against the surviving ledger.
    Inject(InjectArgs),
    /// Run an anytime evict-and-readmit optimization pass over the live
    /// schedule: trade admitted low-weight requests for previously
    /// refused higher-weight ones when that strictly improves `E[S]`.
    Optimize {
        /// Maximum swap trials to spend; absent means the server
        /// default.
        #[serde(skip_serializing_if = "Option::is_none")]
        budget: Option<u64>,
    },
    /// Ask for the full schedule and per-link ledger.
    Snapshot,
    /// Ask for admission counters and the service-latency histogram.
    Metrics {
        /// Exposition format: the default [`MetricsFormat::Json`]
        /// structured object, or [`MetricsFormat::Prometheus`] text
        /// (carried inside the JSON response line as a `text` field —
        /// the framing stays one line per request).
        #[serde(default)]
        format: MetricsFormat,
    },
    /// Ask for the recent flight-recorder window (the newest events
    /// recorded by the observability tap).
    Trace {
        /// Maximum events to return; the server caps it at the recorder
        /// ring size. Absent means the whole ring.
        #[serde(skip_serializing_if = "Option::is_none")]
        limit: Option<u64>,
    },
    /// Ask the daemon to checkpoint the engine to its data directory
    /// and compact the write-ahead log it covers (an error when the
    /// daemon runs without durability).
    Checkpoint,
    /// Ask the daemon to stop accepting connections and drain.
    Shutdown,
}

/// How a `metrics` response is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum MetricsFormat {
    /// The structured JSON object (the default).
    #[default]
    Json,
    /// Prometheus text exposition format 0.0.4.
    Prometheus,
}

/// Arguments of a `submit` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitArgs {
    /// Name of the data item in the catalog.
    pub item: String,
    /// Destination machine id.
    pub destination: u32,
    /// Absolute deadline in simulation milliseconds.
    pub deadline_ms: u64,
    /// Priority level (0 = low).
    pub priority: u8,
    /// Client-chosen retry token: a resubmission with the same key and
    /// the same arguments returns the original decision; the same key
    /// with *different* arguments is an error.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub idempotency_key: Option<String>,
}

/// Arguments of a point-to-multipoint `submit` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2mpSubmitArgs {
    /// Name of the data item in the catalog.
    pub item: String,
    /// Destination machine ids, decided in order.
    pub destinations: Vec<u32>,
    /// Absolute deadline in simulation milliseconds, shared by the group.
    pub deadline_ms: u64,
    /// Priority level (0 = low), shared by the group.
    pub priority: u8,
    /// Client-chosen retry token for the whole group; each destination
    /// derives its own key from it (`key#0`, `key#1`, ...), so a retried
    /// group replays every per-destination decision.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub idempotency_key: Option<String>,
}

/// What kind of disturbance an `inject` request carries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum InjectKind {
    /// A virtual link goes down for the remainder of its window.
    LinkOutage {
        /// The failing link id.
        link: u32,
    },
    /// The copy of an item held at a machine is lost.
    CopyLoss {
        /// Name of the item whose copy vanishes.
        item: String,
        /// The machine losing it.
        machine: u32,
    },
}

impl InjectKind {
    /// The wire name of the kind (`"link_outage"` / `"copy_loss"`).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            InjectKind::LinkOutage { .. } => "link_outage",
            InjectKind::CopyLoss { .. } => "copy_loss",
        }
    }
}

/// Arguments of an `inject` request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectArgs {
    /// What fails.
    #[serde(flatten)]
    pub kind: InjectKind,
    /// When the disturbance takes effect (simulation milliseconds).
    /// Reservations completed strictly before this instant survive.
    pub at_ms: u64,
}

impl ClientRequest {
    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON (nesting deeper
    /// than 128 levels included), a missing or unknown `verb`, or
    /// missing/ill-typed arguments; a type error names its field.
    pub fn parse(line: &str) -> Result<ClientRequest, String> {
        let describe = |e: serde_json::Error| {
            if e.is_data() {
                e.to_string()
            } else {
                format!("malformed JSON: {e}")
            }
        };
        // The one shape a derive cannot tell apart: a `submit` carries
        // exactly one of `destination` and a non-empty `destinations`.
        // Only a line that spells `destinations`, or escapes a character
        // (a key could spell it so), can carry that key: every other line
        // decodes straight from its text.
        if !line.contains("destinations") && !line.contains('\\') {
            return serde_json::from_str(line).map_err(describe);
        }
        let value: Value = serde_json::from_str(line).map_err(describe)?;
        let is_submit = value.get("verb").and_then(Value::as_str) == Some("submit");
        if is_submit && value.get("destinations").is_some() {
            if value.get("destination").is_some() {
                return Err("give either `destination` or `destinations`, not both".to_string());
            }
            let args: P2mpSubmitArgs = serde::from_value(value).map_err(|e| e.0)?;
            if args.destinations.is_empty() {
                return Err("field `destinations` must not be empty".to_string());
            }
            return Ok(ClientRequest::SubmitP2mp(args));
        }
        serde::from_value(value).map_err(|e| e.0)
    }
}

/// The admission decision recorded for one submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "decision", rename_all = "snake_case")]
pub enum Decision {
    /// The request was admitted and its path reserved.
    Admitted {
        /// Id assigned to the admitted request.
        request: RequestId,
        /// When the item reaches the destination.
        #[serde(rename = "eta_ms")]
        eta: SimTime,
        /// Hops on the delivery path.
        hops: u32,
        /// Link reservations added to the ledger by this admission.
        new_transfers: usize,
    },
    /// The request was refused; the ledger is unchanged.
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
}

/// One processed submission: the arguments and the decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmissionRecord {
    /// What the client asked for.
    #[serde(flatten)]
    pub args: SubmitArgs,
    /// What the engine decided.
    #[serde(flatten)]
    pub decision: Decision,
}

/// One processed injection: the disturbance and what repair did about it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectionRecord {
    /// The injected disturbance.
    #[serde(flatten)]
    pub args: InjectArgs,
    /// Committed reservations the disturbance invalidated (cascades
    /// through staged copies included).
    pub cancelled_transfers: usize,
    /// Displaced request ids re-admitted on surviving routes, in repair
    /// order (descending weight, then id).
    pub repaired: Vec<u32>,
    /// Displaced request ids no surviving route could satisfy.
    pub evicted: Vec<u32>,
}

/// One kept evict-and-readmit swap of an optimization pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapRecord {
    /// Log index of the rejected submission that was readmitted.
    pub submission: u64,
    /// Request id evicted to free the capacity.
    pub evicted: u32,
    /// Request id assigned to the readmitted submission.
    pub admitted: u32,
}

/// One processed `optimize` pass: the budget it ran under and the swaps
/// it kept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationRecord {
    /// Swap budget the pass ran under.
    pub budget: u64,
    /// Evict-and-readmit trials actually spent.
    pub attempted: u64,
    /// Swaps that improved `E[S]` and were kept, in adoption order.
    pub swaps: Vec<SwapRecord>,
}

/// One entry of the decision log: the engine's complete, replayable
/// operation history, tagged by the verb it answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "verb")]
pub enum LogRecord {
    /// A `submit` and its decision.
    #[serde(rename = "submit")]
    Submission(SubmissionRecord),
    /// An `inject` and its repair outcome.
    #[serde(rename = "inject")]
    Injection(InjectionRecord),
    /// An `optimize` pass and the swaps it kept.
    #[serde(rename = "optimize")]
    Optimization(OptimizationRecord),
}

/// Lifecycle of an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RequestStatus {
    /// Admitted and never displaced.
    Admitted,
    /// Displaced by a disturbance and re-admitted on a new route.
    Repaired,
    /// Displaced with no surviving route; terminal — a later injection
    /// never resurrects it.
    Evicted,
}

impl RequestStatus {
    /// The wire name of the status.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RequestStatus::Admitted => "admitted",
            RequestStatus::Repaired => "repaired",
            RequestStatus::Evicted => "evicted",
        }
    }
}

/// Bookkeeping for one admitted request, as the engine keeps it and a
/// checkpoint's `info` array carries it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RequestInfo {
    pub status: RequestStatus,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub delivery: Option<Delivery>,
    pub route: Vec<Transfer>,
}

/// The `snapshot` reply: counters, decision log, per-request statuses,
/// committed schedule and per-link ledger.
#[derive(Serialize)]
pub(crate) struct Snapshot<'a> {
    pub ok: bool,
    pub submissions: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub injections: u64,
    pub optimizations: u64,
    pub swapped: u64,
    pub repaired: u64,
    pub evicted: u64,
    pub satisfied: u64,
    pub weighted_sum: u64,
    pub log: &'a [LogRecord],
    pub requests: Vec<SnapshotRequest<'a>>,
    pub schedule: Schedule,
    pub ledger: Vec<LinkLedger>,
}

/// One admitted request in a snapshot.
#[derive(Serialize)]
pub(crate) struct SnapshotRequest<'a> {
    pub request: u32,
    pub item: &'a str,
    pub destination: u32,
    pub priority: u8,
    pub status: RequestStatus,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eta_ms: Option<SimTime>,
}

/// One link's committed windows in a snapshot, `[start, arrival]` sorted.
#[derive(Serialize)]
pub(crate) struct LinkLedger {
    pub link: u32,
    pub busy_ms: Vec<(SimTime, SimTime)>,
}

/// A durability checkpoint as recovery reads it: the engine's complete
/// dynamic state. The engine writes it as a [`CheckpointView`]; the
/// owned encoding exists only as the tests' reference for that view's
/// bytes.
#[derive(Deserialize)]
#[cfg_attr(test, derive(Serialize))]
pub(crate) struct Checkpoint {
    pub format: u64,
    pub fingerprint: String,
    pub now_ms: SimTime,
    pub idempotency_capacity: usize,
    /// The admitted requests, in id order (no idempotency keys).
    pub admitted: Vec<SubmitArgs>,
    pub info: Vec<RequestInfo>,
    pub committed: Vec<Transfer>,
    pub outages: Vec<Outage>,
    pub losses: Vec<Loss>,
    pub log: Vec<LogRecord>,
}

/// A [`Checkpoint`] borrowed from the state it records, field for field in
/// the same order, so it encodes to the same bytes without copying that
/// state first.
#[derive(Serialize)]
pub(crate) struct CheckpointView<'a> {
    pub format: u64,
    pub fingerprint: &'a str,
    pub now_ms: SimTime,
    pub idempotency_capacity: usize,
    pub admitted: Vec<AdmittedArgs<'a>>,
    pub info: &'a [RequestInfo],
    pub committed: &'a [Transfer],
    pub outages: &'a [Outage],
    pub losses: &'a [Loss],
    pub log: &'a [LogRecord],
}

/// An admitted request in a [`CheckpointView`]: the [`SubmitArgs`] fields
/// a checkpoint carries (no idempotency key), the item name borrowed.
#[derive(Serialize)]
pub(crate) struct AdmittedArgs<'a> {
    pub item: &'a str,
    pub destination: u32,
    pub deadline_ms: u64,
    pub priority: u8,
}

/// The JSON `metrics` reply.
#[derive(Serialize)]
pub(crate) struct MetricsReply {
    pub ok: bool,
    #[serde(flatten)]
    pub counters: AdmissionCounters,
    pub latency: Latency,
}

/// The `latency` object of the `metrics` reply: the wall time of every
/// `submit` dispatch (turn and lock wait included), as the tap counts it.
#[derive(Serialize)]
pub(crate) struct Latency {
    pub count: u64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub buckets: Vec<LatencyBucket>,
}

/// One bucket of [`Latency`]; the last, unbounded one has `le_us: null`.
#[derive(Serialize)]
pub(crate) struct LatencyBucket {
    pub le_us: Option<u64>,
    pub count: u64,
}

/// The Prometheus `metrics` reply: the exposition text rides inside the
/// JSON line, so the framing stays one line per request.
#[derive(Serialize)]
pub(crate) struct PrometheusReply {
    pub ok: bool,
    pub format: MetricsFormat,
    pub text: String,
}

/// The `trace` reply.
#[derive(Serialize)]
pub(crate) struct TraceReply {
    pub ok: bool,
    pub enabled: bool,
    pub total_recorded: u64,
    pub events: Vec<TraceEvent>,
}

/// One flight-recorder event of the `trace` reply.
#[derive(Serialize)]
pub(crate) struct TraceEvent {
    pub seq: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub value: u64,
    pub wall_us: u64,
}

/// The `shutdown` reply.
#[derive(Serialize)]
pub(crate) struct ShutdownReply {
    pub ok: bool,
    pub draining: bool,
}

/// Serializes a response value as one NDJSON line (no trailing newline).
///
/// Falls back to a generic error object if serialization itself fails —
/// the connection must always receive exactly one line per request.
pub fn response_line<T: Serialize>(response: &T) -> String {
    serde_json::to_string(response)
        .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"serialize: {e}\"}}"))
}

/// Response to a `submit` request.
#[derive(Debug, Clone, Serialize)]
pub struct SubmitResponse {
    /// Whether the request was understood (admission *rejections* still
    /// carry `ok: true` — they are successful decisions).
    pub ok: bool,
    /// Index of this submission in the daemon's decision log. A deduped
    /// retry repeats the original submission's index.
    pub submission: u64,
    /// `"admitted"` or `"rejected"`.
    pub decision: String,
    /// Id of the admitted request (for `query`); absent on rejection.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub request: Option<u64>,
    /// Delivery ETA in simulation milliseconds; absent on rejection.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eta_ms: Option<u64>,
    /// Hop count of the delivery path; absent on rejection.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub hops: Option<u64>,
    /// Link reservations added to the ledger; absent on rejection.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub new_transfers: Option<u64>,
    /// Why admission was refused; absent on admission.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub reason: Option<String>,
}

/// Response to a point-to-multipoint `submit` request.
#[derive(Debug, Clone, Serialize)]
pub struct P2mpSubmitResponse {
    /// Whether the group was understood (per-destination *rejections*
    /// still carry `ok: true` — they are successful decisions).
    pub ok: bool,
    /// Destinations admitted onto a route.
    pub admitted: u64,
    /// Destinations refused admission.
    pub rejected: u64,
    /// The per-destination decisions, in submission order.
    pub group: Vec<SubmitResponse>,
}

/// Response to an `inject` request.
#[derive(Debug, Clone, Serialize)]
pub struct InjectResponse {
    /// Always `true` (invalid injections get an [`ErrorResponse`]).
    pub ok: bool,
    /// Index of this injection in the daemon's decision log.
    pub injection: u64,
    /// `"link_outage"` or `"copy_loss"`.
    pub kind: String,
    /// Committed reservations invalidated by the disturbance (including
    /// cascades through staged copies).
    pub cancelled_transfers: u64,
    /// Requests whose promised delivery the disturbance destroyed.
    pub displaced: u64,
    /// Displaced requests re-admitted on a surviving route.
    pub repaired: u64,
    /// Displaced requests that no surviving route can satisfy — dropped
    /// lowest `W[p]` first.
    pub evicted: u64,
}

/// Response to an `optimize` request.
#[derive(Debug, Clone, Serialize)]
pub struct OptimizeResponse {
    /// Always `true` (the pass may keep zero swaps and still succeed).
    pub ok: bool,
    /// Index of this pass in the daemon's decision log.
    pub optimization: u64,
    /// The swap budget the pass ran under.
    pub budget: u64,
    /// Evict-and-readmit trials actually spent.
    pub attempted: u64,
    /// Swaps that improved `E[S]` and were kept.
    pub swapped: u64,
    /// The weighted satisfied sum after the pass.
    pub weighted_sum: u64,
}

/// One hop of an admitted request's route, as reported by `query`.
#[derive(Debug, Clone, Serialize)]
pub struct RouteHop {
    /// Sending machine id.
    pub from: u64,
    /// Receiving machine id.
    pub to: u64,
    /// Virtual link id.
    pub link: u64,
    /// Reservation start (simulation ms).
    pub start_ms: u64,
    /// Arrival at `to` (simulation ms).
    pub arrival_ms: u64,
}

/// Response to a `query` request.
#[derive(Debug, Clone, Serialize)]
pub struct QueryResponse {
    /// Always `true` (unknown ids get an [`ErrorResponse`]).
    pub ok: bool,
    /// The queried request id.
    pub request: u64,
    /// Status — `"admitted"`, `"repaired"` (displaced by a disturbance
    /// and re-admitted on a new route), or `"evicted"` (displaced with no
    /// surviving route; rejected submissions have no request id to
    /// query).
    pub status: String,
    /// Name of the requested data item.
    pub item: String,
    /// Destination machine id.
    pub destination: u64,
    /// Absolute deadline (simulation ms).
    pub deadline_ms: u64,
    /// Priority level.
    pub priority: u64,
    /// Delivery ETA (simulation ms); absent once evicted.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eta_ms: Option<u64>,
    /// Hop count of the delivery path; absent once evicted.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub hops: Option<u64>,
    /// The surviving link reservations staged for this request, in
    /// commit order (an evicted request may retain staged partial
    /// copies — the paper's §4.5 rationale).
    pub route: Vec<RouteHop>,
}

/// Response to a `checkpoint` request.
#[derive(Debug, Clone, Serialize)]
pub struct CheckpointResponse {
    /// Always `true` (failures get an [`ErrorResponse`]).
    pub ok: bool,
    /// Decision-log records the checkpoint covers.
    pub covered: u64,
    /// Checkpoint file size in bytes.
    pub bytes: u64,
    /// Fully-covered WAL segments deleted by compaction.
    pub segments_removed: u64,
    /// Superseded checkpoint files deleted by compaction.
    pub checkpoints_removed: u64,
}

/// An error response.
#[derive(Debug, Clone, Serialize)]
pub struct ErrorResponse {
    /// Always `false`.
    pub ok: bool,
    /// What went wrong.
    pub error: String,
}

impl ErrorResponse {
    /// Builds the single error line for `message`.
    #[must_use]
    pub fn line(message: impl Into<String>) -> String {
        response_line(&ErrorResponse { ok: false, error: message.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        let submit = ClientRequest::parse(
            r#"{"verb":"submit","item":"map","destination":3,"deadline_ms":60000,"priority":2}"#,
        )
        .unwrap();
        assert_eq!(
            submit,
            ClientRequest::Submit(SubmitArgs {
                item: "map".to_string(),
                destination: 3,
                deadline_ms: 60_000,
                priority: 2,
                idempotency_key: None,
            })
        );
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"query","request":7}"#).unwrap(),
            ClientRequest::Query { request: 7 }
        );
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"snapshot"}"#).unwrap(),
            ClientRequest::Snapshot
        );
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"metrics"}"#).unwrap(),
            ClientRequest::Metrics { format: MetricsFormat::Json }
        );
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"trace"}"#).unwrap(),
            ClientRequest::Trace { limit: None }
        );
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"optimize"}"#).unwrap(),
            ClientRequest::Optimize { budget: None }
        );
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"checkpoint"}"#).unwrap(),
            ClientRequest::Checkpoint
        );
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"shutdown"}"#).unwrap(),
            ClientRequest::Shutdown
        );
    }

    #[test]
    fn parses_metrics_formats() {
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"metrics","format":"json"}"#).unwrap(),
            ClientRequest::Metrics { format: MetricsFormat::Json }
        );
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"metrics","format":"prometheus"}"#).unwrap(),
            ClientRequest::Metrics { format: MetricsFormat::Prometheus }
        );
        assert!(ClientRequest::parse(r#"{"verb":"metrics","format":"xml"}"#).is_err());
        assert!(ClientRequest::parse(r#"{"verb":"metrics","format":7}"#).is_err());
    }

    #[test]
    fn parses_trace_limits() {
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"trace","limit":16}"#).unwrap(),
            ClientRequest::Trace { limit: Some(16) }
        );
        assert!(ClientRequest::parse(r#"{"verb":"trace","limit":"lots"}"#).is_err());
    }

    #[test]
    fn parses_optimize_budgets() {
        assert_eq!(
            ClientRequest::parse(r#"{"verb":"optimize","budget":3}"#).unwrap(),
            ClientRequest::Optimize { budget: Some(3) }
        );
        assert!(ClientRequest::parse(r#"{"verb":"optimize","budget":"lots"}"#).is_err());
    }

    #[test]
    fn parses_idempotency_key() {
        let submit = ClientRequest::parse(
            r#"{"verb":"submit","item":"map","destination":3,"deadline_ms":60000,"priority":2,"idempotency_key":"k-1"}"#,
        )
        .unwrap();
        let ClientRequest::Submit(args) = submit else { panic!("expected submit") };
        assert_eq!(args.idempotency_key.as_deref(), Some("k-1"));
        // Present but ill-typed is an error, not a silent None.
        assert!(ClientRequest::parse(
            r#"{"verb":"submit","item":"m","destination":0,"deadline_ms":1,"priority":0,"idempotency_key":7}"#
        )
        .is_err());
    }

    #[test]
    fn parses_p2mp_submissions() {
        let submit = ClientRequest::parse(
            r#"{"verb":"submit","item":"map","destinations":[3,5,2],"deadline_ms":60000,"priority":2,"idempotency_key":"g-1"}"#,
        )
        .unwrap();
        assert_eq!(
            submit,
            ClientRequest::SubmitP2mp(P2mpSubmitArgs {
                item: "map".to_string(),
                destinations: vec![3, 5, 2],
                deadline_ms: 60_000,
                priority: 2,
                idempotency_key: Some("g-1".to_string()),
            })
        );
        // Empty and ill-typed destination lists are errors.
        assert!(ClientRequest::parse(
            r#"{"verb":"submit","item":"m","destinations":[],"deadline_ms":1,"priority":0}"#
        )
        .is_err());
        assert!(ClientRequest::parse(
            r#"{"verb":"submit","item":"m","destinations":["a"],"deadline_ms":1,"priority":0}"#
        )
        .is_err());
        assert!(ClientRequest::parse(
            r#"{"verb":"submit","item":"m","destinations":7,"deadline_ms":1,"priority":0}"#
        )
        .is_err());
        // Mixing the singular and plural forms is ambiguous.
        assert!(ClientRequest::parse(
            r#"{"verb":"submit","item":"m","destination":1,"destinations":[2],"deadline_ms":1,"priority":0}"#
        )
        .is_err());
    }

    #[test]
    fn parses_inject_variants() {
        assert_eq!(
            ClientRequest::parse(
                r#"{"verb":"inject","kind":"link_outage","link":4,"at_ms":60000}"#
            )
            .unwrap(),
            ClientRequest::Inject(InjectArgs {
                kind: InjectKind::LinkOutage { link: 4 },
                at_ms: 60_000
            })
        );
        assert_eq!(
            ClientRequest::parse(
                r#"{"verb":"inject","kind":"copy_loss","item":"map","machine":2,"at_ms":1}"#
            )
            .unwrap(),
            ClientRequest::Inject(InjectArgs {
                kind: InjectKind::CopyLoss { item: "map".to_string(), machine: 2 },
                at_ms: 1
            })
        );
        // Missing pieces are errors.
        assert!(ClientRequest::parse(r#"{"verb":"inject","kind":"link_outage","link":4}"#).is_err());
        assert!(ClientRequest::parse(r#"{"verb":"inject","kind":"meteor","at_ms":1}"#).is_err());
        assert!(ClientRequest::parse(
            r#"{"verb":"inject","kind":"copy_loss","item":"m","at_ms":1}"#
        )
        .is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(ClientRequest::parse("not json").is_err());
        assert!(ClientRequest::parse(r#"{"item":"map"}"#).is_err());
        assert!(ClientRequest::parse(r#"{"verb":"submit","item":"map"}"#).is_err());
        assert!(ClientRequest::parse(r#"{"verb":"destroy"}"#).is_err());
        assert!(ClientRequest::parse(
            r#"{"verb":"submit","item":"m","destination":-1,"deadline_ms":1,"priority":0}"#
        )
        .is_err());
    }

    #[test]
    fn every_request_round_trips_through_its_line() {
        let submit = SubmitArgs {
            item: "map \"v2\"".to_string(),
            destination: 3,
            deadline_ms: 60_000,
            priority: 2,
            idempotency_key: Some("k-1".to_string()),
        };
        let requests = [
            ClientRequest::Submit(submit.clone()),
            ClientRequest::Submit(SubmitArgs { idempotency_key: None, ..submit }),
            ClientRequest::SubmitP2mp(P2mpSubmitArgs {
                item: "map".to_string(),
                destinations: vec![3, 5],
                deadline_ms: 1,
                priority: 0,
                idempotency_key: None,
            }),
            ClientRequest::Query { request: 7 },
            ClientRequest::Inject(InjectArgs {
                kind: InjectKind::CopyLoss { item: "map".to_string(), machine: 2 },
                at_ms: 1,
            }),
            ClientRequest::Optimize { budget: Some(3) },
            ClientRequest::Optimize { budget: None },
            ClientRequest::Snapshot,
            ClientRequest::Metrics { format: MetricsFormat::Prometheus },
            ClientRequest::Trace { limit: None },
            ClientRequest::Checkpoint,
            ClientRequest::Shutdown,
        ];
        for request in requests {
            let line = serde_json::to_string(&request).unwrap();
            assert!(line.starts_with(r#"{"verb":"#), "{line}");
            assert_eq!(ClientRequest::parse(&line), Ok(request), "{line}");
        }
        assert_eq!(
            serde_json::to_string(&ClientRequest::Inject(InjectArgs {
                kind: InjectKind::LinkOutage { link: 4 },
                at_ms: 60_000
            }))
            .unwrap(),
            r#"{"verb":"inject","kind":"link_outage","link":4,"at_ms":60000}"#
        );
    }

    #[test]
    fn errors_name_the_field_and_the_bad_value() {
        let error = |line: &str| ClientRequest::parse(line).unwrap_err();
        assert_eq!(error(r#"{"item":"map"}"#), "missing field `verb`");
        assert!(error(r#"{"verb":"destroy"}"#).starts_with("unknown verb `destroy` (expected"));
        assert_eq!(
            error(r#"{"verb":"inject","kind":"meteor","at_ms":1}"#),
            "unknown kind `meteor` (expected `link_outage` or `copy_loss`)"
        );
        assert_eq!(
            error(r#"{"verb":"submit","item":"m","deadline_ms":1,"priority":0}"#),
            "missing field `destination`"
        );
        assert_eq!(
            error(r#"{"verb":"submit","item":"m","destination":1,"deadline_ms":1,"priority":256}"#),
            "field `priority`: integer 256 out of range"
        );
        assert_eq!(
            error(r#"{"verb":"submit","item":"m","destinations":[],"deadline_ms":1,"priority":0}"#),
            "field `destinations` must not be empty"
        );
        assert!(error("[").starts_with("malformed JSON: "));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A line nested 100,000 levels deep, parsed on a small stack: the
        // parser must give up at its recursion limit long before the stack.
        let line = "[".repeat(100_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || ClientRequest::parse(&line))
            .unwrap()
            .join()
            .expect("the parser must not overflow the stack");
        assert!(parsed.unwrap_err().contains("recursion limit exceeded"));
    }

    #[test]
    fn error_lines_are_single_json_objects() {
        let line = ErrorResponse::line("boom");
        assert_eq!(line, r#"{"ok":false,"error":"boom"}"#);
        assert!(!line.contains('\n'));
    }
}
