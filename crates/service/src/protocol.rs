//! The wire protocol: newline-delimited JSON over TCP.
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

use serde::{Serialize, Value};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// Ask for admission of a new data request.
    Submit(SubmitArgs),
    /// Ask for admission of a point-to-multipoint request: one item,
    /// several destinations decided in order, sharing staged copies.
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
        format: MetricsFormat,
    },
    /// Ask for the recent flight-recorder window (the newest events
    /// recorded by the observability tap).
    Trace {
        /// Maximum events to return; the server caps it at the recorder
        /// ring size. Absent means the whole ring.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The structured JSON object (the default).
    #[default]
    Json,
    /// Prometheus text exposition format 0.0.4.
    Prometheus,
}

/// Arguments of a `submit` request.
#[derive(Debug, Clone, PartialEq)]
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
    pub idempotency_key: Option<String>,
}

/// Arguments of a point-to-multipoint `submit` request.
#[derive(Debug, Clone, PartialEq)]
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
    pub idempotency_key: Option<String>,
}

/// What kind of disturbance an `inject` request carries.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectArgs {
    /// What fails.
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
    /// Returns a human-readable message for malformed JSON, a missing or
    /// unknown `verb`, or missing/ill-typed arguments.
    pub fn parse(line: &str) -> Result<ClientRequest, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
        ClientRequest::from_value(&value)
    }

    /// Reads a request from an already-parsed JSON object — a request
    /// line, or a decision-log record, which repeats the request it
    /// answers field for field.
    ///
    /// # Errors
    ///
    /// As [`ClientRequest::parse`], malformed JSON aside.
    pub fn from_value(value: &Value) -> Result<ClientRequest, String> {
        let verb = value
            .get("verb")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing string field `verb`".to_string())?;
        match verb {
            "submit" if value.get("destinations").is_some() => {
                if value.get("destination").is_some() {
                    return Err("give either `destination` or `destinations`, not both".to_string());
                }
                Ok(ClientRequest::SubmitP2mp(P2mpSubmitArgs {
                    item: require_str(value, "item")?.to_string(),
                    destinations: require_u32_array(value, "destinations")?,
                    deadline_ms: require_u64(value, "deadline_ms")?,
                    priority: u8::try_from(require_u64(value, "priority")?)
                        .map_err(|_| "field `priority` out of range".to_string())?,
                    idempotency_key: optional_str(value, "idempotency_key")?,
                }))
            }
            "submit" => Ok(ClientRequest::Submit(submit_args(value)?)),
            "query" => Ok(ClientRequest::Query {
                request: u32::try_from(require_u64(value, "request")?)
                    .map_err(|_| "field `request` out of range".to_string())?,
            }),
            "inject" => {
                let kind = match require_str(value, "kind")? {
                    "link_outage" => InjectKind::LinkOutage {
                        link: u32::try_from(require_u64(value, "link")?)
                            .map_err(|_| "field `link` out of range".to_string())?,
                    },
                    "copy_loss" => InjectKind::CopyLoss {
                        item: require_str(value, "item")?.to_string(),
                        machine: u32::try_from(require_u64(value, "machine")?)
                            .map_err(|_| "field `machine` out of range".to_string())?,
                    },
                    other => {
                        return Err(format!(
                            "unknown inject kind `{other}` (expected `link_outage` or `copy_loss`)"
                        ))
                    }
                };
                Ok(ClientRequest::Inject(InjectArgs { kind, at_ms: require_u64(value, "at_ms")? }))
            }
            "optimize" => {
                let budget =
                    match value.get("budget") {
                        None => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            "field `budget` must be an unsigned integer".to_string()
                        })?),
                    };
                Ok(ClientRequest::Optimize { budget })
            }
            "snapshot" => Ok(ClientRequest::Snapshot),
            "metrics" => {
                let format = match optional_str(value, "format")?.as_deref() {
                    None | Some("json") => MetricsFormat::Json,
                    Some("prometheus") => MetricsFormat::Prometheus,
                    Some(other) => {
                        return Err(format!(
                            "unknown metrics format `{other}` (expected `json` or `prometheus`)"
                        ))
                    }
                };
                Ok(ClientRequest::Metrics { format })
            }
            "trace" => {
                let limit =
                    match value.get("limit") {
                        None => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            "field `limit` must be an unsigned integer".to_string()
                        })?),
                    };
                Ok(ClientRequest::Trace { limit })
            }
            "checkpoint" => Ok(ClientRequest::Checkpoint),
            "shutdown" => Ok(ClientRequest::Shutdown),
            other => Err(format!("unknown verb `{other}`")),
        }
    }
}

fn require_str<'a>(value: &'a Value, field: &str) -> Result<&'a str, String> {
    value
        .get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{field}`"))
}

/// The arguments of a `submit`, as a request line, a decision-log record
/// and a checkpoint's `admitted` entry all carry them.
pub(crate) fn submit_args(value: &Value) -> Result<SubmitArgs, String> {
    Ok(SubmitArgs {
        item: require_str(value, "item")?.to_string(),
        destination: u32::try_from(require_u64(value, "destination")?)
            .map_err(|_| "field `destination` out of range".to_string())?,
        deadline_ms: require_u64(value, "deadline_ms")?,
        priority: u8::try_from(require_u64(value, "priority")?)
            .map_err(|_| "field `priority` out of range".to_string())?,
        idempotency_key: optional_str(value, "idempotency_key")?,
    })
}

fn optional_str(value: &Value, field: &str) -> Result<Option<String>, String> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("field `{field}` must be a string")),
    }
}

fn require_u64(value: &Value, field: &str) -> Result<u64, String> {
    value
        .get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing unsigned integer field `{field}`"))
}

fn require_u32_array(value: &Value, field: &str) -> Result<Vec<u32>, String> {
    let items = value
        .get(field)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("field `{field}` must be an array"))?;
    if items.is_empty() {
        return Err(format!("field `{field}` must not be empty"));
    }
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("field `{field}` must hold machine ids"))
        })
        .collect()
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
    fn error_lines_are_single_json_objects() {
        let line = ErrorResponse::line("boom");
        assert_eq!(line, r#"{"ok":false,"error":"boom"}"#);
        assert!(!line.contains('\n'));
    }
}
