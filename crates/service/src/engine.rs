//! Incremental admission control on top of the offline heuristics.
//!
//! The [`AdmissionEngine`] drives one [`LiveSchedule`] — the repair loop
//! the offline simulator drives too — over a scenario that holds the
//! catalog (network + data items) and every admitted request, beside the
//! per-request bookkeeping and the decision log. The live schedule keeps
//! bookings and no planner. Each `submit` appends the candidate to that
//! scenario and settles it alone on the live bookings
//! ([`LiveSchedule::settle`]), where the configured scheduler is only its
//! commit rule: admitted, its path is booked; refused, what it touched is
//! rolled back and it leaves no residue. A decision costs what its own
//! route costs, however many were admitted before: one search of its own
//! item, steered to its destination and kept no longer than the decision,
//! and no selection round — with one request to route there is no step to
//! pick among (DESIGN.md §3, "The online decision").
//!
//! `inject` applies a live disturbance (link outage / copy loss) to the
//! live schedule, whose repair unbooks the reservations it invalidates;
//! the displaced requests are re-admitted in weighted-priority order, so
//! forced degradation drops the lowest `W[p]` first. A displaced request
//! that can be re-routed becomes `repaired`; one that cannot is `evicted`
//! (terminal). Only `restore` builds a state from a history
//! ([`LiveSchedule::replayed`]).
//!
//! Every method is a deterministic function of the operation history
//! (submissions and injections interleaved), which is what makes
//! concurrent serving testable: serializing the same history in the same
//! order through a fresh engine must produce a byte-identical snapshot.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};

use dstage_core::bookings::{AddRequestError, Bookings, HoldRefused};
use dstage_core::heuristic::{CommitRule, Heuristic, HeuristicConfig};
use dstage_core::schedule::{Delivery, Schedule, Transfer};
use dstage_dynamic::{Event, EventKind, LiveSchedule, Standing};
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::request::{Priority, PriorityWeights, Request};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use serde::{Deserialize, Value, ValueDeserializer, ValueError};

use crate::protocol::{
    AdmittedArgs, Checkpoint, CheckpointView, InjectArgs, InjectKind, InjectResponse, LinkLedger,
    OptimizeResponse, P2mpSubmitArgs, P2mpSubmitResponse, QueryResponse, RequestInfo, RouteHop,
    Snapshot, SnapshotRequest, SubmitArgs, SubmitResponse,
};
pub use crate::protocol::{
    Decision, InjectionRecord, LogRecord, OptimizationRecord, RequestStatus, SubmissionRecord,
    SwapRecord,
};

/// Swap budget used when an `optimize` request does not name one.
pub const DEFAULT_OPTIMIZE_BUDGET: u64 = 8;

/// Idempotency keys the engine remembers before forgetting the oldest.
pub const IDEMPOTENCY_CAPACITY: usize = 4096;

impl Standing for RequestInfo {
    fn route(&self) -> Option<&[Transfer]> {
        (self.status != RequestStatus::Evicted).then_some(&self.route)
    }

    fn promised(delivery: Delivery, route: Vec<Transfer>) -> Self {
        RequestInfo { status: RequestStatus::Admitted, delivery: Some(delivery), route }
    }

    fn evicted() -> Self {
        RequestInfo { status: RequestStatus::Evicted, delivery: None, route: Vec::new() }
    }

    fn set_delivery(&mut self, delivery: Option<Delivery>) {
        self.delivery = delivery;
    }
}

/// Bounded idempotency-key index with FIFO (insertion-order) eviction.
///
/// The unbounded map was a memory leak under sustained keyed traffic.
/// Bounding it must not break replay of recorded responses, so the
/// eviction rule is a pure function of the insertion sequence: when a
/// new key would exceed the capacity, the oldest *inserted* key is
/// forgotten. Replaying a decision log re-inserts the same keys in the
/// same order with the same capacity, so the replayed cache matches the
/// live one at every log index. A client that retries a key after it
/// aged out of the window is re-decided (and re-logged) instead of
/// replayed — the same outcome as a retry that never carried a key.
#[derive(Debug, Clone)]
struct IdempotencyCache {
    index: HashMap<String, usize>,
    order: VecDeque<String>,
    capacity: usize,
}

impl IdempotencyCache {
    fn new(capacity: usize) -> Self {
        IdempotencyCache { index: HashMap::new(), order: VecDeque::new(), capacity }
    }

    fn get(&self, key: &str) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// Remembers `key -> submission`, evicting the oldest remembered key
    /// when full. Callers never insert a key that is already present
    /// (they replay it instead), so `order` stays duplicate-free.
    fn insert(&mut self, key: String, submission: usize) {
        if self.capacity == 0 {
            return;
        }
        while self.index.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else { break };
            self.index.remove(&oldest);
        }
        self.order.push_back(key.clone());
        self.index.insert(key, submission);
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.index.len() > capacity {
            let Some(oldest) = self.order.pop_front() else { break };
            self.index.remove(&oldest);
        }
    }
}

/// What [`AdmissionCounters`] reads off the decision log, kept as it grows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LogTallies {
    submissions: u64,
    injections: u64,
    optimizations: u64,
    swapped: u64,
    admitted_by_priority: Vec<u64>,
    rejected_by_priority: Vec<u64>,
}

impl LogTallies {
    fn new(levels: u8) -> Self {
        let none = vec![0; levels as usize];
        LogTallies {
            admitted_by_priority: none.clone(),
            rejected_by_priority: none,
            ..LogTallies::default()
        }
    }

    /// Counts `record`, the next entry of `log`.
    fn count(&mut self, record: &LogRecord, log: &[LogRecord]) {
        let levels = self.admitted_by_priority.len();
        let level = |args: &SubmitArgs| (args.priority as usize).min(levels.saturating_sub(1));
        match record {
            LogRecord::Submission(s) => {
                self.submissions += 1;
                match &s.decision {
                    Decision::Admitted { .. } => self.admitted_by_priority[level(&s.args)] += 1,
                    Decision::Rejected { .. } => self.rejected_by_priority[level(&s.args)] += 1,
                }
            }
            LogRecord::Injection(_) => self.injections += 1,
            LogRecord::Optimization(o) => {
                self.optimizations += 1;
                self.swapped += o.swaps.len() as u64;
                // A kept swap converts a refusal into an admission; move its
                // submission between the per-priority tallies.
                for swap in &o.swaps {
                    let LogRecord::Submission(s) = &log[swap.submission as usize] else { continue };
                    self.rejected_by_priority[level(&s.args)] -= 1;
                    self.admitted_by_priority[level(&s.args)] += 1;
                }
            }
        }
    }
}

/// Thread-safe-by-construction admission-control state (owned data only,
/// no interior mutability — wrap it in a lock to share).
#[derive(Debug, Clone)]
pub struct AdmissionEngine {
    /// The live schedule. Its scenario is the catalog plus every admitted
    /// request (evicted ones included), in admission order.
    live: LiveSchedule<'static>,
    item_ids: HashMap<String, u32>,
    fingerprint: String,
    /// All a scheduler decides online, where a request is routed alone.
    rule: CommitRule,
    weights: PriorityWeights,
    info: Vec<RequestInfo>,
    idempotency: IdempotencyCache,
    log: Vec<LogRecord>,
    tallies: LogTallies,
    /// The rejected submissions a pass may readmit — an ask that passes
    /// [`AdmissionEngine::candidate`], not readmitted yet — as `(log index,
    /// request)`.
    open_rejections: Vec<(u64, Request)>,
}

impl AdmissionEngine {
    /// Creates an engine serving `catalog`'s network and data items.
    ///
    /// Requests present in the catalog scenario are ignored: admission
    /// state starts empty and grows one `submit` at a time.
    ///
    /// Of `heuristic` only its commit rule is read, of `config` only the
    /// priority weighting: a request routed alone has no step to score.
    #[must_use]
    pub fn new(catalog: &Scenario, heuristic: Heuristic, config: HeuristicConfig) -> Self {
        let (rule, weights) = (heuristic.commit_rule(), config.priority_weights);
        let mut builder = Scenario::builder(catalog.network().clone())
            .gc_delay(catalog.gc_delay())
            .horizon(catalog.horizon());
        for (_, item) in catalog.items() {
            builder = builder.add_item(item.clone());
        }
        let served = builder.build().expect("the catalog validated its network and items");
        let names: Vec<&str> = catalog.items().map(|(_, item)| item.name()).collect();
        let fingerprint = format!(
            "v2|machines={}|links={}|gc_ms={}|horizon_ms={}|rule={}|weights={}|items={}",
            catalog.network().machine_count(),
            catalog.network().link_count(),
            catalog.gc_delay().as_millis(),
            catalog.horizon().as_millis(),
            rule.label(),
            weights,
            names.join(",")
        );
        AdmissionEngine {
            item_ids: names.iter().enumerate().map(|(i, n)| (n.to_string(), i as u32)).collect(),
            fingerprint,
            tallies: LogTallies::new(weights.levels()),
            live: LiveSchedule::new(Bookings::owning(served)),
            rule,
            weights,
            info: Vec::new(),
            idempotency: IdempotencyCache::new(IDEMPOTENCY_CAPACITY),
            log: Vec::new(),
            open_rejections: Vec::new(),
        }
    }

    /// The served scenario: the catalog plus every admitted request.
    fn scenario(&self) -> &Scenario {
        self.live.bookings().scenario()
    }

    /// Overrides the idempotency window, trimming oldest keys if needed.
    /// Testing hook: replay equality requires the replaying engine to
    /// use the same capacity as the recording one.
    pub fn set_idempotency_capacity(&mut self, capacity: usize) {
        self.idempotency.set_capacity(capacity);
    }

    /// Names of the data items in the catalog, in id order.
    pub fn item_names(&self) -> impl Iterator<Item = &str> {
        self.scenario().items().map(|(_, item)| item.name())
    }

    /// Number of machines in the served network.
    #[must_use]
    pub fn machine_count(&self) -> usize {
        self.scenario().network().machine_count()
    }

    /// Number of processed submissions (admitted + rejected); injections
    /// are not counted.
    #[must_use]
    pub fn submission_count(&self) -> usize {
        self.tallies.submissions as usize
    }

    /// Number of admitted requests (including later-evicted ones).
    #[must_use]
    pub fn admitted_count(&self) -> usize {
        self.scenario().request_count()
    }

    /// The processed operations, in decision order.
    #[must_use]
    pub fn log(&self) -> &[LogRecord] {
        &self.log
    }

    /// Decides admission for one request and, on success, reserves its
    /// path in the ledger. Malformed asks become recorded rejections so
    /// the log stays a complete history.
    ///
    /// A resubmission carrying an already-seen `idempotency_key` with the
    /// *same* arguments replays the original response without deciding
    /// (or logging) again — a client retry after a lost response never
    /// double-admits.
    ///
    /// # Errors
    ///
    /// Returns a message when the `idempotency_key` was already used with
    /// *different* arguments; nothing is logged.
    pub fn submit(&mut self, args: &SubmitArgs) -> Result<SubmitResponse, String> {
        if let Some(key) = &args.idempotency_key {
            if let Some(index) = self.idempotency.get(key) {
                let LogRecord::Submission(record) = &self.log[index] else {
                    unreachable!("idempotency keys only index submissions");
                };
                if record.args == *args {
                    return Ok(Self::response_for(index as u64, &record.decision));
                }
                return Err(format!(
                    "idempotency key `{key}` was already used with different arguments"
                ));
            }
        }
        let submission = self.log.len() as u64;
        dstage_obs::metrics::SERVICE_DECISIONS.inc();
        let decision = match self.decide(args) {
            Err(reason) => {
                dstage_obs::metrics::SERVICE_REFUSED.inc();
                Decision::Rejected { reason }
            }
            Ok((delivery, route)) => {
                dstage_obs::metrics::SERVICE_ADMIT_SLACK_MS
                    .record(args.deadline_ms.saturating_sub(delivery.at.as_millis()));
                dstage_obs::metrics::SERVICE_ADMITTED.inc();
                let new_transfers = route.len();
                self.live.commit(&route);
                self.info.push(RequestInfo::promised(delivery, route));
                Decision::Admitted {
                    request: delivery.request,
                    eta: delivery.at,
                    hops: delivery.hops,
                    new_transfers,
                }
            }
        };
        let response = Self::response_for(submission, &decision);
        if let Some(key) = &args.idempotency_key {
            self.idempotency.insert(key.clone(), submission as usize);
        }
        self.push_record(LogRecord::Submission(SubmissionRecord { args: args.clone(), decision }));
        Ok(response)
    }

    /// Appends `record` to the decision log, tallied; a well-formed refusal
    /// (a malformed ask can never be admitted, whatever capacity frees up)
    /// joins the open rejections.
    fn push_record(&mut self, record: LogRecord) {
        self.tallies.count(&record, &self.log);
        if let LogRecord::Submission(SubmissionRecord {
            args,
            decision: Decision::Rejected { .. },
        }) = &record
        {
            if let Ok(request) = self.candidate(args) {
                if (args.destination as usize) < self.machine_count() {
                    self.open_rejections.push((self.log.len() as u64, request));
                }
            }
        }
        self.log.push(record);
    }

    /// Decides admission for a point-to-multipoint group: one item, many
    /// destinations, each decided in order through the ordinary admission
    /// path. Every member after the first plans against the ledger the
    /// earlier members committed, so upstream staged copies are shared —
    /// a destination behind an already-fed hub reserves only its own
    /// final leg (smaller `new_transfers`), while still earning its own
    /// per-destination decision and `W[p]` credit.
    ///
    /// Each destination is logged as its own submission, so snapshots,
    /// replay, and the decision-log schema are unchanged: per-destination
    /// outcomes, byte-identical replays. A group `idempotency_key` fans
    /// out to derived member keys (`key#0`, `key#1`, ...), so a group
    /// retry replays every member's recorded decision.
    ///
    /// # Errors
    ///
    /// Returns a message for an empty or duplicated destination list
    /// (nothing logged), and propagates a derived-key conflict —
    /// members decided before the conflicting one stay logged, exactly
    /// as if they had been submitted individually.
    pub fn submit_p2mp(&mut self, args: &P2mpSubmitArgs) -> Result<P2mpSubmitResponse, String> {
        if args.destinations.is_empty() {
            return Err("point-to-multipoint submit needs at least one destination".to_string());
        }
        for (i, d) in args.destinations.iter().enumerate() {
            if args.destinations[..i].contains(d) {
                return Err(format!("duplicate destination {d} in point-to-multipoint submit"));
            }
        }
        dstage_obs::metrics::SERVICE_P2MP_GROUPS.inc();
        let mut group = Vec::with_capacity(args.destinations.len());
        for (i, &destination) in args.destinations.iter().enumerate() {
            let member = SubmitArgs {
                item: args.item.clone(),
                destination,
                deadline_ms: args.deadline_ms,
                priority: args.priority,
                idempotency_key: args.idempotency_key.as_ref().map(|k| format!("{k}#{i}")),
            };
            group.push(self.submit(&member)?);
        }
        let admitted = group.iter().filter(|r| r.decision == "admitted").count() as u64;
        Ok(P2mpSubmitResponse {
            ok: true,
            admitted,
            rejected: group.len() as u64 - admitted,
            group,
        })
    }

    fn response_for(submission: u64, decision: &Decision) -> SubmitResponse {
        match decision {
            Decision::Admitted { request, eta, hops, new_transfers } => SubmitResponse {
                ok: true,
                submission,
                decision: "admitted".to_string(),
                request: Some(request.index() as u64),
                eta_ms: Some(eta.as_millis()),
                hops: Some(u64::from(*hops)),
                new_transfers: Some(*new_transfers as u64),
                reason: None,
            },
            Decision::Rejected { reason } => SubmitResponse {
                ok: true,
                submission,
                decision: "rejected".to_string(),
                request: None,
                eta_ms: None,
                hops: None,
                new_transfers: None,
                reason: Some(reason.clone()),
            },
        }
    }

    /// Decides one submission on the live state: appends the candidate,
    /// settles it under the commit rule, and either keeps what was booked
    /// (returning the delivery and the new reservations, which the caller
    /// records) or rolls everything back. `Err` carries the refusal reason.
    fn decide(&mut self, args: &SubmitArgs) -> Result<(Delivery, Vec<Transfer>), String> {
        let candidate = self.candidate(args)?;
        let savepoint = self.live.bookings().savepoint(candidate.item());
        let id = match append(self.live.bookings_mut(), candidate) {
            Ok(id) => id,
            // Validation errors name the candidate by its positional id,
            // `R{admitted count}`; recorded logs and snapshots carry the
            // reason with that token rewritten to a stable label, so the
            // rewrite is part of the wire format. Ids of earlier requests
            // are smaller and never contain it as a substring.
            Err(AddRequestError::Invalid(e)) => {
                let token = format!("R{}", self.admitted_count());
                return Err(e.to_string().replace(&token, "the candidate"));
            }
            Err(AddRequestError::Hold(refused)) => {
                self.live.bookings_mut().rollback(savepoint);
                return Err(self.hold_reason(refused));
            }
        };
        self.live.settle(id, savepoint, self.rule).ok_or_else(|| {
            format!(
                "deadline {} ms unreachable for `{}` to M{} under the current ledger",
                args.deadline_ms, args.item, args.destination
            )
        })
    }

    /// Checks an ask against the catalog and the weighting, and returns the
    /// request it makes.
    fn candidate(&self, args: &SubmitArgs) -> Result<Request, String> {
        let Some(&item) = self.item_ids.get(args.item.as_str()) else {
            return Err(format!("unknown data item `{}`", args.item));
        };
        let levels = self.weights.levels();
        if args.priority >= levels {
            return Err(format!(
                "priority {} out of range (weighting has {levels} levels)",
                args.priority
            ));
        }
        let deadline = SimTime::from_millis(args.deadline_ms);
        if deadline.checked_add(self.scenario().gc_delay()).is_none() {
            return Err(format!("deadline {} ms is past the end of time", args.deadline_ms));
        }
        Ok(Request::new(
            DataItemId::new(item),
            MachineId::new(args.destination),
            deadline,
            Priority::new(args.priority),
        ))
    }

    /// The refusal reason for a hold that cannot be lengthened: a later
    /// deadline (or a new destination) for an item keeps its staged copies
    /// longer, and one of the machines holding them is full by then.
    fn hold_reason(&self, refused: HoldRefused) -> String {
        format!(
            "storage on M{} cannot hold `{}` until {} ms",
            refused.machine.index(),
            self.scenario().item(refused.item).name(),
            refused.until.as_millis()
        )
    }

    /// How the live state differs from a full replay of the history
    /// ([`LiveSchedule::divergence`]), or a promised request's recorded
    /// delivery from the live state's, if either does.
    #[must_use]
    pub fn live_state_divergence(&self) -> Option<String> {
        self.live.divergence().or_else(|| {
            let state = self.live.bookings();
            (state.scenario().request_ids().zip(&self.info))
                .filter(|(_, info)| info.route().is_some())
                .find_map(|(id, info)| {
                    let live = state.delivery_of(id);
                    (info.delivery != live).then(|| {
                        format!("delivery of {id}: {:?} recorded, {live:?} live", info.delivery)
                    })
                })
        })
    }

    /// Injects a disturbance and repairs the schedule around it.
    ///
    /// Invalidated reservations are cancelled (cascading through staged
    /// copies), then every displaced, non-evicted request is re-routed
    /// against the surviving ledger in descending-weight order; requests
    /// that cannot be re-routed are evicted — degradation sheds the
    /// lowest `W[p]` first.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown link, item, or machine id;
    /// nothing is logged or changed.
    pub fn inject(&mut self, args: &InjectArgs) -> Result<InjectResponse, String> {
        let at = SimTime::from_millis(args.at_ms);
        let kind = match &args.kind {
            InjectKind::LinkOutage { link } => {
                let links = self.scenario().network().link_count();
                if *link as usize >= links {
                    return Err(format!("unknown link id {link} (network has {links} links)"));
                }
                EventKind::LinkOutage(VirtualLinkId::new(*link))
            }
            InjectKind::CopyLoss { item, machine } => {
                let Some(&id) = self.item_ids.get(item.as_str()) else {
                    return Err(format!("unknown data item `{item}`"));
                };
                let n = self.machine_count();
                if *machine as usize >= n {
                    return Err(format!("unknown machine id {machine} (network has {n} machines)"));
                }
                EventKind::CopyLoss { item: DataItemId::new(id), machine: MachineId::new(*machine) }
            }
        };
        self.live.apply(Event::new(at, kind));
        self.live.advance(at);
        dstage_obs::metrics::SERVICE_INJECTIONS.inc();
        let (cancelled, repaired, evicted) = self.repair();
        dstage_obs::metrics::SERVICE_REPAIRS.add(repaired.len() as u64);
        dstage_obs::metrics::SERVICE_EVICTIONS.add(evicted.len() as u64);
        let injection = self.log.len() as u64;
        let response = InjectResponse {
            ok: true,
            injection,
            kind: args.kind.as_str().to_string(),
            cancelled_transfers: cancelled as u64,
            displaced: (repaired.len() + evicted.len()) as u64,
            repaired: repaired.len() as u64,
            evicted: evicted.len() as u64,
        };
        self.push_record(LogRecord::Injection(InjectionRecord {
            args: args.clone(),
            cancelled_transfers: cancelled,
            repaired,
            evicted,
        }));
        Ok(response)
    }

    /// Repairs the live schedule after a disturbance it already knows of,
    /// then re-routes the displaced best-first. Returns `(cancelled,
    /// repaired, evicted)`.
    fn repair(&mut self) -> (usize, Vec<u32>, Vec<u32>) {
        let promised: Vec<bool> = self.info.iter().map(|info| info.route().is_some()).collect();
        let (cancelled, normalised) = self.live.repair(&promised);
        dstage_obs::metrics::SERVICE_TRANSFERS_RELEASED.add(cancelled.len() as u64);
        dstage_obs::metrics::SERVICE_ITEMS_REDERIVED.add(normalised.rederived as u64);
        for info in &mut self.info {
            info.route.retain(|t| !cancelled.contains(t));
        }
        // The surviving reservations are the authority on who is still
        // promised a delivery (survival-to-deadline semantics, §4.4).
        let mut displaced = Vec::new();
        for (id, delivery) in normalised.deliveries {
            self.info[id.index()].delivery = delivery;
            displaced.extend(delivery.is_none().then_some(id.index() as u32));
        }
        let weights = &self.weights;
        let scenario = self.scenario();
        displaced.sort_by_key(|&id| {
            (Reverse(weights.weight(scenario.request(RequestId::new(id)).priority())), id)
        });
        dstage_obs::metrics::SERVICE_DISPLACED.add(displaced.len() as u64);
        dstage_obs::metrics::SERVICE_DISPLACED_DEPTH
            .set(i64::try_from(displaced.len()).unwrap_or(i64::MAX));

        let mut repaired = Vec::new();
        let mut evicted = Vec::new();
        for id in displaced {
            let request = RequestId::new(id);
            let savepoint = self.live.bookings().savepoint(self.scenario().request(request).item());
            let settled = self.live.settle(request, savepoint, self.rule);
            let info = &mut self.info[id as usize];
            info.delivery = settled.as_ref().map(|&(delivery, _)| delivery);
            if let Some((_, route)) = settled {
                self.live.commit(&route);
                info.status = RequestStatus::Repaired;
                info.route.extend(route);
                repaired.push(id);
            } else {
                info.status = RequestStatus::Evicted;
                evicted.push(id);
            }
        }
        debug_assert_eq!(self.live_state_divergence(), None);
        (cancelled.len(), repaired, evicted)
    }

    /// Anytime evict-and-readmit hill climb over the live schedule
    /// ([`LiveSchedule::climb`]): the open rejections are the candidates,
    /// in submission order among equal weights, and a kept swap evicts the
    /// victim and admits the candidate as a new request. The pass always
    /// leaves a valid schedule, so it is safe to interrupt between arrivals.
    ///
    /// The pass is appended to the decision log, so replaying the log
    /// through a fresh engine re-executes it deterministically.
    pub fn optimize(&mut self, budget: u64) -> OptimizeResponse {
        let candidates = self.open_rejections.clone();
        let admit = |state: &mut Bookings<'static>, _, request| append(state, request).ok();
        let climbed =
            self.live.climb(self.rule, &self.weights, &mut self.info, candidates, budget, admit);
        dstage_obs::metrics::SERVICE_OPT_SWAP_ATTEMPTS.add(climbed.attempted);
        dstage_obs::metrics::SERVICE_OPT_SWAPS_ACCEPTED.add(climbed.swaps.len() as u64);
        dstage_obs::metrics::SERVICE_OPT_TRIALS_ROLLED_BACK.add(climbed.rolled_back);
        dstage_obs::metrics::SERVICE_TRANSFERS_RELEASED.add(climbed.released);
        dstage_obs::metrics::SERVICE_ITEMS_REDERIVED.add(climbed.rederived);
        let swaps: Vec<SwapRecord> = (climbed.swaps.iter())
            .map(|s| SwapRecord {
                submission: s.key,
                evicted: s.evicted.index() as u32,
                admitted: s.admitted.index() as u32,
            })
            .collect();
        // A readmitted refusal is spent: it is an admission now.
        self.open_rejections.retain(|&(key, _)| swaps.iter().all(|s| s.submission != key));
        let record = OptimizationRecord { budget, attempted: climbed.attempted, swaps };
        let response = OptimizeResponse {
            ok: true,
            optimization: self.log.len() as u64,
            budget,
            attempted: record.attempted,
            swapped: record.swaps.len() as u64,
            weighted_sum: self.weighted_sum(),
        };
        self.push_record(LogRecord::Optimization(record));
        response
    }

    /// Σ weight(priority) over the requests still promised a delivery.
    fn weighted_sum(&self) -> u64 {
        let weights = &self.weights;
        (self.scenario().requests().zip(&self.info))
            .filter(|(_, info)| info.status != RequestStatus::Evicted)
            .map(|((_, req), _)| weights.weight(req.priority()))
            .sum()
    }

    /// Replays one snapshot-log record (an entry of the snapshot's
    /// `log` array) through this engine.
    ///
    /// Feeding a fresh engine every record of a daemon's snapshot log,
    /// in order, must rebuild a byte-identical snapshot — the
    /// determinism invariant the loopback and chaos tests check.
    ///
    /// # Errors
    ///
    /// Returns a message for a record that does not decode as a
    /// [`LogRecord`], and propagates `submit`/`inject` errors.
    pub fn replay_record(&mut self, entry: &Value) -> Result<(), String> {
        let record = LogRecord::deserialize(ValueDeserializer::new(entry))
            .map_err(|e: ValueError| format!("log record: {e}"))?;
        self.replay(record).map_err(ReplayError::into_message)
    }

    /// [`AdmissionEngine::replay_record`] of a decoded record: runs its
    /// verb and insists that the record it logs is the one recorded, so a
    /// build that decides differently never rewrites an acknowledged
    /// decision. Re-running a verb is deterministic, so an intact record
    /// always replays to itself (an optimization pass rediscovers its
    /// swaps).
    pub(crate) fn replay(&mut self, record: LogRecord) -> Result<(), ReplayError> {
        let index = self.log.len();
        match &record {
            LogRecord::Submission(recorded) => {
                self.submit(&recorded.args).map_err(ReplayError::Refused)?;
            }
            LogRecord::Injection(recorded) => {
                self.inject(&recorded.args).map_err(ReplayError::Refused)?;
            }
            LogRecord::Optimization(recorded) => {
                self.optimize(recorded.budget);
            }
        }
        if self.log.len() == index + 1 && self.log[index] == record {
            Ok(())
        } else {
            Err(ReplayError::Diverged(format!(
                "log record {index} replays to a different decision than the one recorded"
            )))
        }
    }

    /// Status, route, and ETA of an admitted request.
    ///
    /// # Errors
    ///
    /// Returns a message when `request` names no admitted request.
    pub fn query(&self, request: u32) -> Result<QueryResponse, String> {
        let Some(info) = self.info.get(request as usize) else {
            return Err(format!("unknown request id {request}"));
        };
        let req = self.scenario().request(RequestId::new(request));
        Ok(QueryResponse {
            ok: true,
            request: u64::from(request),
            status: info.status.as_str().to_string(),
            item: self.scenario().item(req.item()).name().to_string(),
            destination: req.destination().index() as u64,
            deadline_ms: req.deadline().as_millis(),
            priority: u64::from(req.priority().level()),
            eta_ms: info.delivery.map(|d| d.at.as_millis()),
            hops: info.delivery.map(|d| u64::from(d.hops)),
            route: info
                .route
                .iter()
                .map(|t| RouteHop {
                    from: t.from.index() as u64,
                    to: t.to.index() as u64,
                    link: t.link.index() as u64,
                    start_ms: t.start.as_millis(),
                    arrival_ms: t.arrival.as_millis(),
                })
                .collect(),
        })
    }

    /// Admission counters: per-priority admitted/rejected tallies, the
    /// fault-tolerance tallies, and the weighted sum of *currently
    /// satisfied* requests (the paper's objective — an evicted request no
    /// longer counts).
    #[must_use]
    pub fn counters(&self) -> AdmissionCounters {
        let levels = self.weights.levels();
        debug_assert_eq!(
            self.tallies,
            (0..self.log.len()).fold(LogTallies::new(levels), |mut scan, i| {
                scan.count(&self.log[i], &self.log[..i]);
                scan
            })
        );
        let status = |status: RequestStatus| {
            self.info.iter().filter(|info| info.status == status).count() as u64
        };
        let admitted = self.admitted_count() as u64;
        let evicted = status(RequestStatus::Evicted);
        let tallies = self.tallies.clone();
        AdmissionCounters {
            submissions: tallies.submissions,
            admitted,
            // Each optimizer swap consumes one unique rejected
            // submission, so the difference stays the refusal count.
            rejected: tallies.submissions - admitted,
            injections: tallies.injections,
            optimizations: tallies.optimizations,
            swapped: tallies.swapped,
            repaired: status(RequestStatus::Repaired),
            evicted,
            satisfied: admitted - evicted,
            admitted_by_priority: tallies.admitted_by_priority,
            rejected_by_priority: tallies.rejected_by_priority,
            weighted_sum: self.weighted_sum(),
        }
    }

    /// The full service state as one deterministic JSON value: decision
    /// log (submissions and injections interleaved), per-request
    /// statuses, committed schedule, and per-link ledger. Equal operation
    /// histories produce byte-identical serializations.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        serde::to_value(&self.snapshot_view()).expect("a snapshot serializes")
    }

    /// What [`AdmissionEngine::snapshot`] serializes; the `snapshot` verb
    /// writes it straight to its reply line.
    pub(crate) fn snapshot_view(&self) -> Snapshot<'_> {
        let deliveries: Vec<Delivery> = self.info.iter().filter_map(|i| i.delivery).collect();
        let mut busy: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
        for t in self.live.committed() {
            busy.entry(t.link.index() as u32).or_default().push((t.start, t.arrival));
        }
        let scenario = self.scenario();
        let requests = (scenario.requests().zip(&self.info))
            .map(|((id, req), info)| SnapshotRequest {
                request: id.index() as u32,
                item: scenario.item(req.item()).name(),
                destination: req.destination().index() as u32,
                priority: req.priority().level(),
                status: info.status,
                eta_ms: info.delivery.map(|d| d.at),
            })
            .collect();
        let counters = self.counters();
        Snapshot {
            ok: true,
            submissions: counters.submissions,
            admitted: counters.admitted,
            rejected: counters.rejected,
            injections: counters.injections,
            optimizations: counters.optimizations,
            swapped: counters.swapped,
            repaired: counters.repaired,
            evicted: counters.evicted,
            satisfied: counters.satisfied,
            weighted_sum: counters.weighted_sum,
            log: &self.log,
            requests,
            schedule: Schedule::from_parts(self.live.committed().to_vec(), deliveries),
            ledger: (busy.into_iter())
                .map(|(link, mut busy_ms)| {
                    busy_ms.sort_unstable();
                    LinkLedger { link, busy_ms }
                })
                .collect(),
        }
    }

    /// A stable identity of everything [`AdmissionEngine::new`] reads
    /// (`v2|machines=…|links=…|gc_ms=…|horizon_ms=…|rule=…|weights=…|items=…`):
    /// a checkpoint may only be restored into an engine with the same one —
    /// replaying the WAL tail re-decides operations, which is only
    /// deterministic against identical static state.
    #[must_use]
    pub fn catalog_fingerprint(&self) -> String {
        self.fingerprint.clone()
    }

    /// Serializes the complete dynamic state — admitted set, per-request
    /// bookkeeping, committed reservations, disturbances, decision log,
    /// clock, and idempotency window — for a durability
    /// checkpoint. [`AdmissionEngine::restore`] is the exact inverse.
    #[must_use]
    pub fn checkpoint_value(&self) -> Value {
        serde::to_value(&self.checkpoint()).expect("a checkpoint serializes")
    }

    /// The checkpoint [`AdmissionEngine::checkpoint_value`] serializes,
    /// borrowed from the engine's state.
    pub(crate) fn checkpoint(&self) -> CheckpointView<'_> {
        let scenario = self.scenario();
        let admitted = (scenario.requests())
            .map(|(_, req)| AdmittedArgs {
                item: scenario.item(req.item()).name(),
                destination: req.destination().index() as u32,
                deadline_ms: req.deadline().as_millis(),
                priority: req.priority().level(),
            })
            .collect();
        CheckpointView {
            format: CHECKPOINT_FORMAT,
            fingerprint: &self.fingerprint,
            now_ms: self.live.now(),
            idempotency_capacity: self.idempotency.capacity,
            admitted,
            info: &self.info,
            committed: self.live.committed(),
            outages: self.live.outages(),
            losses: self.live.losses(),
            log: &self.log,
        }
    }

    /// Rebuilds an engine from a [`AdmissionEngine::checkpoint_value`]
    /// taken by an engine with the same fingerprint
    /// ([`AdmissionEngine::catalog_fingerprint`]), `heuristic` and `config`
    /// read as `new` reads them; a `v1` fingerprint is accepted when its
    /// catalog, its scheduler's commit rule and its weighting match. The
    /// idempotency window is rebuilt from the
    /// restored log (first use of each key wins, FIFO eviction at the
    /// recorded capacity), so a client retrying a keyed submit across a
    /// restart still gets the recorded response.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown format, a fingerprint mismatch
    /// (different catalog, commit rule or weighting), missing/ill-typed fields,
    /// or a log whose optimization swaps or admission count contradict
    /// the rest of the checkpoint.
    pub fn restore(
        catalog: &Scenario,
        heuristic: Heuristic,
        config: HeuristicConfig,
        checkpoint: &Value,
    ) -> Result<AdmissionEngine, String> {
        let checkpoint = Checkpoint::deserialize(ValueDeserializer::new(checkpoint))
            .map_err(|e: ValueError| format!("checkpoint: {e}"))?;
        Self::restored(catalog, heuristic, config, checkpoint)
    }

    /// [`AdmissionEngine::restore`] of a decoded checkpoint.
    pub(crate) fn restored(
        catalog: &Scenario,
        heuristic: Heuristic,
        config: HeuristicConfig,
        checkpoint: Checkpoint,
    ) -> Result<AdmissionEngine, String> {
        let Checkpoint { format, fingerprint, now_ms, idempotency_capacity, .. } = checkpoint;
        if format != CHECKPOINT_FORMAT {
            return Err(format!(
                "checkpoint: unsupported format {format} (this build reads {CHECKPOINT_FORMAT})"
            ));
        }
        let mut engine = AdmissionEngine::new(catalog, heuristic, config);
        if v2_of_v1(&fingerprint).unwrap_or(fingerprint) != engine.fingerprint {
            return Err("checkpoint: fingerprint mismatch (taken against a different catalog, \
                 commit rule, or priority weighting)"
                .to_string());
        }
        for args in &checkpoint.admitted {
            // Nothing is booked yet, so only validation can refuse here;
            // the reservations are replayed once everything is loaded.
            let request = engine.candidate(args);
            let request = request
                .and_then(|r| append(engine.live.bookings_mut(), r).map_err(|e| e.to_string()));
            request.map_err(|e| format!("checkpoint: bad admitted request: {e}"))?;
        }
        engine.info = checkpoint.info;
        if engine.info.len() != engine.admitted_count() {
            return Err(format!(
                "checkpoint: {} admitted requests but {} info entries",
                engine.admitted_count(),
                engine.info.len()
            ));
        }

        // One pass over the restored log rebuilds what is derived from it
        // (`push_record`) and checks what `counters()` relies on. The
        // idempotency window is a pure function of the key-insertion
        // sequence: first use of a key inserts it, FIFO eviction forgets
        // the oldest. (A key at two log indexes means the first aged out
        // before the second was decided; the same eviction happens here.)
        // `counters()` moves a swap's submission from the rejected to the
        // admitted tally, so a swap must name an open rejection, once.
        let mut idempotency = IdempotencyCache::new(idempotency_capacity);
        for (index, record) in checkpoint.log.into_iter().enumerate() {
            match &record {
                LogRecord::Submission(s) => {
                    if let Some(key) = &s.args.idempotency_key {
                        if idempotency.get(key).is_none() {
                            idempotency.insert(key.clone(), index);
                        }
                    }
                }
                LogRecord::Injection(_) => {}
                LogRecord::Optimization(o) => {
                    for swap in &o.swaps {
                        let open = &mut engine.open_rejections;
                        let Some(at) = open.iter().position(|&(key, _)| key == swap.submission)
                        else {
                            return Err(format!(
                                "checkpoint: log record {index} swaps in submission {}, which is \
                                 not an earlier rejected submission still open for readmission",
                                swap.submission
                            ));
                        };
                        open.remove(at);
                    }
                }
            }
            engine.push_record(record);
        }
        let admitted_by_log: u64 = engine.tallies.admitted_by_priority.iter().sum();
        if admitted_by_log != engine.admitted_count() as u64 {
            return Err(format!(
                "checkpoint: {} admitted requests but the log admits {admitted_by_log}",
                engine.admitted_count()
            ));
        }
        engine.idempotency = idempotency;
        // The one place a state is still built from a history.
        let state = Bookings::owning(engine.scenario().clone());
        let (committed, outages, losses) =
            (checkpoint.committed, checkpoint.outages, checkpoint.losses);
        engine.live =
            LiveSchedule::replayed(state, &committed, outages, losses, now_ms).map_err(|t| {
                format!("checkpoint: committed reservation {t:?} does not book (overlaps another)")
            })?;
        Ok(engine)
    }
}

/// Appends `request` to `state` and moves the horizon out to when its
/// item's copies are collected, `γ` after the deadline — the horizon never
/// ends before. [`AdmissionEngine::candidate`] has checked that instant
/// exists.
fn append(state: &mut Bookings<'_>, request: Request) -> Result<RequestId, AddRequestError> {
    let id = state.add_request(request)?;
    let collected = request.deadline() + state.scenario().gc_delay();
    if collected > state.scenario().horizon() {
        state.set_horizon(collected).map_err(AddRequestError::Hold)?;
    }
    Ok(id)
}

/// The v2 form of a v1 fingerprint: its catalog, its scheduler's commit
/// rule and its weighting, without the criterion, E-U weights and cache
/// toggle, which decide nothing online. `None` for any other text, or an
/// unknown scheduler.
fn v2_of_v1(v1: &str) -> Option<String> {
    let (catalog, rest) = v1.strip_prefix("v1|")?.split_once("|heuristic=")?;
    let (label, rest) = rest.split_once("|config=")?;
    let (config, items) = rest.split_once("|items=")?;
    let rule = Heuristic::from_label(label)?.commit_rule().label();
    // `PriorityWeights { weights: [1, 10, 100] }`, the one `weights: [`.
    let weights = config.split_once("weights: [")?.1.split_once(']')?.0.replace(", ", ",");
    Some(format!("v2|{catalog}|rule={rule}|weights={weights}|items={items}"))
}

/// Version tag of [`AdmissionEngine::checkpoint_value`]'s layout.
pub const CHECKPOINT_FORMAT: u64 = 1;

/// Admission counters reported by the `metrics` verb.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct AdmissionCounters {
    /// Processed submissions (admitted + rejected).
    pub submissions: u64,
    /// Admitted requests (including later-evicted ones).
    pub admitted: u64,
    /// Rejected submissions.
    pub rejected: u64,
    /// Processed injections.
    pub injections: u64,
    /// Processed `optimize` passes.
    pub optimizations: u64,
    /// Optimizer swaps kept across all passes.
    pub swapped: u64,
    /// Requests currently in `repaired` status.
    pub repaired: u64,
    /// Requests evicted by repair (terminal).
    pub evicted: u64,
    /// Admitted requests still promised a delivery (admitted − evicted).
    pub satisfied: u64,
    /// Admitted count per priority level (index = level).
    pub admitted_by_priority: Vec<u64>,
    /// Rejected count per priority level (index = level).
    pub rejected_by_priority: Vec<u64>,
    /// Σ weight(priority) over currently satisfied requests — the
    /// paper's objective restricted to the promises the daemon still
    /// keeps.
    pub weighted_sum: u64,
}

/// Why a decision-log record did not replay.
#[derive(Debug)]
pub(crate) enum ReplayError {
    /// The engine refused the record's verb: the record is not one this
    /// engine could have logged.
    Refused(String),
    /// The verb ran but logged a different record.
    Diverged(String),
}

impl ReplayError {
    /// The message, whichever the cause.
    pub(crate) fn into_message(self) -> String {
        match self {
            ReplayError::Refused(message) | ReplayError::Diverged(message) => message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_model::prelude::*;
    use dstage_workload::small::{fan_out, two_hop_chain};

    fn config() -> HeuristicConfig {
        HeuristicConfig::paper_best()
    }

    fn engine() -> AdmissionEngine {
        AdmissionEngine::new(&two_hop_chain(), Heuristic::FullPathOneDestination, config())
    }

    fn args(item: &str, dest: u32, deadline_ms: u64) -> SubmitArgs {
        SubmitArgs {
            item: item.to_string(),
            destination: dest,
            deadline_ms,
            priority: 2,
            idempotency_key: None,
        }
    }

    fn submit(
        engine: &mut AdmissionEngine,
        item: &str,
        dest: u32,
        deadline_ms: u64,
    ) -> SubmitResponse {
        engine.submit(&args(item, dest, deadline_ms)).expect("no idempotency conflict")
    }

    #[test]
    fn admits_feasible_and_rejects_unknown() {
        let mut e = engine();
        let item = e.item_names().next().unwrap().to_string();
        let dest = (e.machine_count() - 1) as u32;
        let first = submit(&mut e, &item, dest, 7_200_000);
        assert_eq!(first.decision, "admitted");
        assert_eq!(first.request, Some(0));
        assert!(first.eta_ms.unwrap() <= 7_200_000);

        let unknown = submit(&mut e, "no-such-item", dest, 7_200_000);
        assert_eq!(unknown.decision, "rejected");
        assert!(unknown.reason.unwrap().contains("unknown data item"));
        assert_eq!(e.admitted_count(), 1);
        assert_eq!(e.submission_count(), 2);
    }

    #[test]
    fn slack_of_far_deadlines_saturates_the_histogram_sum() {
        // Four admissions with slack near `u64::MAX` each: a wrapping sum
        // would read below its own max. Other tests record into the same
        // static concurrently; saturation keeps `sum >= max` regardless.
        let mut e = engine();
        let gc_ms = e.scenario().gc_delay().as_millis();
        let deadline_ms = u64::MAX - gc_ms - 1;
        for (item, dest) in [("alpha", 1), ("alpha", 2), ("bravo", 1), ("bravo", 2)] {
            assert_eq!(submit(&mut e, item, dest, deadline_ms).decision, "admitted");
        }
        let slack = dstage_obs::metrics::SERVICE_ADMIT_SLACK_MS.snapshot();
        assert!(slack.sum >= slack.max, "sum {} below max {}", slack.sum, slack.max);
    }

    #[test]
    fn duplicate_pair_and_impossible_deadline_reject_without_residue() {
        let mut e = engine();
        let item = e.item_names().next().unwrap().to_string();
        let dest = (e.machine_count() - 1) as u32;
        assert_eq!(submit(&mut e, &item, dest, 7_200_000).decision, "admitted");
        let ledger_before = serde_json::to_string(&e.snapshot()).unwrap();
        let dup = submit(&mut e, &item, dest, 7_200_000);
        assert_eq!(dup.decision, "rejected");
        let hopeless = submit(&mut e, &item, 0, 1);
        assert_eq!(hopeless.decision, "rejected");
        // Rejections append to the log but leave schedule + ledger alone.
        let after = e.snapshot();
        let schedule_before: Value = serde_json::from_str(&ledger_before).unwrap();
        assert_eq!(schedule_before.get("schedule"), after.get("schedule"));
        assert_eq!(schedule_before.get("ledger"), after.get("ledger"));
    }

    #[test]
    fn query_reports_route_and_counters_add_up() {
        let mut e = engine();
        let item = e.item_names().next().unwrap().to_string();
        let dest = (e.machine_count() - 1) as u32;
        let r = submit(&mut e, &item, dest, 7_200_000);
        let q = e.query(r.request.unwrap() as u32).unwrap();
        assert_eq!(q.item, item);
        assert_eq!(q.status, "admitted");
        assert_eq!(q.eta_ms, r.eta_ms);
        assert_eq!(q.route.len() as u64, r.new_transfers.unwrap());
        assert!(e.query(99).is_err());

        submit(&mut e, "no-such-item", dest, 1);
        let c = e.counters();
        assert_eq!(c.submissions, 2);
        assert_eq!(c.admitted, 1);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.injections, 0);
        assert_eq!(c.satisfied, 1);
        assert_eq!(c.admitted_by_priority.iter().sum::<u64>(), 1);
        assert_eq!(c.weighted_sum, 100);
    }

    #[test]
    fn snapshot_is_deterministic_for_equal_histories() {
        let run = || {
            let mut e = engine();
            let item = e.item_names().next().unwrap().to_string();
            let dest = (e.machine_count() - 1) as u32;
            submit(&mut e, &item, dest, 7_200_000);
            submit(&mut e, "ghost", dest, 5);
            e.inject(&InjectArgs { kind: InjectKind::LinkOutage { link: 0 }, at_ms: 1_000 })
                .unwrap();
            serde_json::to_string(&e.snapshot()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn idempotent_resubmit_replays_and_conflicting_reuse_errors() {
        let mut e = engine();
        let item = e.item_names().next().unwrap().to_string();
        let dest = (e.machine_count() - 1) as u32;
        let mut keyed = args(&item, dest, 7_200_000);
        keyed.idempotency_key = Some("retry-1".to_string());
        let first = e.submit(&keyed).unwrap();
        assert_eq!(first.decision, "admitted");
        // Same key, same args: the original decision replays, nothing is
        // re-admitted, and the log does not grow.
        let replay = e.submit(&keyed).unwrap();
        assert_eq!(serde_json::to_string(&replay).unwrap(), serde_json::to_string(&first).unwrap());
        assert_eq!(e.submission_count(), 1);
        assert_eq!(e.admitted_count(), 1);
        // Same key, different args: hard error, not a silent dedupe.
        let mut conflicting = keyed.clone();
        conflicting.deadline_ms += 1;
        let err = e.submit(&conflicting).unwrap_err();
        assert!(err.contains("different arguments"), "got: {err}");
        assert_eq!(e.submission_count(), 1);
    }

    #[test]
    fn idempotency_window_evicts_oldest_and_replay_stays_identical() {
        let mut e = engine();
        e.set_idempotency_capacity(2);
        let item = e.item_names().next().unwrap().to_string();
        let dest = (e.machine_count() - 1) as u32;
        let keyed = |key: &str, deadline_ms: u64| {
            let mut a = args(&item, dest, deadline_ms);
            a.idempotency_key = Some(key.to_string());
            a
        };
        e.submit(&keyed("k1", 7_200_000)).unwrap();
        e.submit(&keyed("k2", 7_100_000)).unwrap();
        // Inserting k3 evicts k1 (oldest inserted).
        e.submit(&keyed("k3", 7_000_000)).unwrap();
        assert_eq!(e.submission_count(), 3);
        // k3 is still remembered: the retry replays without logging.
        e.submit(&keyed("k3", 7_000_000)).unwrap();
        assert_eq!(e.submission_count(), 3);
        // k1 aged out: the retry is re-decided and re-logged — same
        // outcome as a keyless retry, never a wrong replay.
        e.submit(&keyed("k1", 7_200_000)).unwrap();
        assert_eq!(e.submission_count(), 4);
        // Reusing an evicted key with different arguments is no longer a
        // conflict (the window forgot it) — it decides fresh.
        e.submit(&keyed("k2", 6_900_000)).unwrap();
        assert_eq!(e.submission_count(), 5);
        // ... while the still-remembered k1 does conflict.
        e.submit(&keyed("k1", 1)).unwrap_err();

        // Replay through a fresh engine with the same capacity rebuilds
        // a byte-identical snapshot, eviction sequence included.
        let snapshot = e.snapshot();
        let Some(Value::Array(log)) = snapshot.get("log") else { panic!("no log") };
        let mut replayed = engine();
        replayed.set_idempotency_capacity(2);
        for entry in log {
            replayed.replay_record(entry).unwrap();
        }
        assert_eq!(
            serde_json::to_string(&snapshot).unwrap(),
            serde_json::to_string(&replayed.snapshot()).unwrap()
        );
    }

    #[test]
    fn inject_rejects_unknown_ids_without_logging() {
        let mut e = engine();
        let bad_link =
            e.inject(&InjectArgs { kind: InjectKind::LinkOutage { link: 99 }, at_ms: 0 });
        assert!(bad_link.unwrap_err().contains("unknown link"));
        let bad_item = e.inject(&InjectArgs {
            kind: InjectKind::CopyLoss { item: "ghost".to_string(), machine: 0 },
            at_ms: 0,
        });
        assert!(bad_item.unwrap_err().contains("unknown data item"));
        let known_item = e.item_names().next().unwrap().to_string();
        let bad_machine = e.inject(&InjectArgs {
            kind: InjectKind::CopyLoss { item: known_item, machine: 99 },
            at_ms: 0,
        });
        assert!(bad_machine.unwrap_err().contains("unknown machine"));
        assert!(e.log().is_empty());
        assert_eq!(e.counters().injections, 0);
    }

    #[test]
    fn copy_loss_repairs_from_retained_intermediate_copy() {
        // fan_out: m0 --L0--> hub(m1) --L1/L2/L3--> d1..d3. Losing d1's
        // copy after arrival lets repair redeliver from the hub's
        // retained copy (γ retention, §4.4).
        let mut e = AdmissionEngine::new(&fan_out(), Heuristic::FullPathOneDestination, config());
        let item = e.item_names().next().unwrap().to_string();
        let r = submit(&mut e, &item, 2, 1_800_000);
        assert_eq!(r.decision, "admitted");
        let eta = r.eta_ms.unwrap();
        let loss_at = eta + 1_000;
        let resp = e
            .inject(&InjectArgs {
                kind: InjectKind::CopyLoss { item: item.clone(), machine: 2 },
                at_ms: loss_at,
            })
            .unwrap();
        assert_eq!(resp.displaced, 1);
        assert_eq!(resp.repaired, 1);
        assert_eq!(resp.evicted, 0);
        assert_eq!(resp.cancelled_transfers, 0, "the loss hit the copy, not a transfer");
        let q = e.query(0).unwrap();
        assert_eq!(q.status, "repaired");
        assert!(q.eta_ms.unwrap() > loss_at, "re-delivery must postdate the loss");
        let c = e.counters();
        assert_eq!((c.injections, c.repaired, c.evicted, c.satisfied), (1, 1, 0, 1));
    }

    fn p2mp(item: &str, destinations: Vec<u32>, key: Option<&str>) -> P2mpSubmitArgs {
        P2mpSubmitArgs {
            item: item.to_string(),
            destinations,
            deadline_ms: 1_800_000,
            priority: 2,
            idempotency_key: key.map(str::to_string),
        }
    }

    #[test]
    fn p2mp_group_shares_staged_hops_and_logs_per_destination() {
        // fan_out: m0 --L0--> hub(m1) --L1/L2/L3--> d1..d3 (machines
        // 2..4). The first destination stages src->hub plus its leaf
        // leg; every later destination reuses the hub's staged copy and
        // reserves only its own leg.
        let mut e = AdmissionEngine::new(&fan_out(), Heuristic::FullPathOneDestination, config());
        let item = e.item_names().next().unwrap().to_string();
        let g = e.submit_p2mp(&p2mp(&item, vec![2, 3, 4], None)).unwrap();
        assert_eq!((g.admitted, g.rejected), (3, 0));
        assert_eq!(g.group.len(), 3);
        let new_transfers: Vec<u64> = g.group.iter().map(|r| r.new_transfers.unwrap()).collect();
        assert_eq!(new_transfers[0], 2, "first member pays the shared hop plus its leg");
        assert_eq!(&new_transfers[1..], &[1, 1], "later members reuse the staged hub copy");
        // Per-destination outcomes: one submission log record each.
        assert_eq!(e.submission_count(), 3);
        assert_eq!(e.admitted_count(), 3);
        assert_eq!(e.counters().weighted_sum, 300);

        // Replaying the per-destination log rebuilds the same snapshot.
        let snapshot = e.snapshot();
        let Some(Value::Array(log)) = snapshot.get("log") else { panic!("no log") };
        let mut replayed =
            AdmissionEngine::new(&fan_out(), Heuristic::FullPathOneDestination, config());
        for entry in log {
            replayed.replay_record(entry).unwrap();
        }
        assert_eq!(
            serde_json::to_string(&snapshot).unwrap(),
            serde_json::to_string(&replayed.snapshot()).unwrap()
        );
    }

    #[test]
    fn single_destination_p2mp_matches_plain_submit() {
        let mut grouped =
            AdmissionEngine::new(&fan_out(), Heuristic::FullPathOneDestination, config());
        let item = grouped.item_names().next().unwrap().to_string();
        let g = grouped.submit_p2mp(&p2mp(&item, vec![2], None)).unwrap();
        assert_eq!((g.admitted, g.rejected), (1, 0));

        let mut plain =
            AdmissionEngine::new(&fan_out(), Heuristic::FullPathOneDestination, config());
        submit(&mut plain, &item, 2, 1_800_000);
        assert_eq!(
            serde_json::to_string(&grouped.snapshot()).unwrap(),
            serde_json::to_string(&plain.snapshot()).unwrap(),
            "a single-destination group must be indistinguishable from a plain submit"
        );
    }

    #[test]
    fn p2mp_rejects_malformed_groups_without_residue() {
        let mut e = AdmissionEngine::new(&fan_out(), Heuristic::FullPathOneDestination, config());
        let item = e.item_names().next().unwrap().to_string();
        assert!(e.submit_p2mp(&p2mp(&item, vec![], None)).is_err());
        let err = e.submit_p2mp(&p2mp(&item, vec![2, 3, 2], None)).unwrap_err();
        assert!(err.contains("duplicate destination"), "got: {err}");
        assert!(e.log().is_empty());
    }

    #[test]
    fn p2mp_group_retry_replays_every_member() {
        let mut e = AdmissionEngine::new(&fan_out(), Heuristic::FullPathOneDestination, config());
        let item = e.item_names().next().unwrap().to_string();
        let first = e.submit_p2mp(&p2mp(&item, vec![2, 3], Some("g-1"))).unwrap();
        assert_eq!(e.submission_count(), 2);
        // The derived member keys (g-1#0, g-1#1) replay the recorded
        // decisions: nothing new is logged or admitted.
        let retry = e.submit_p2mp(&p2mp(&item, vec![2, 3], Some("g-1"))).unwrap();
        assert_eq!(serde_json::to_string(&retry).unwrap(), serde_json::to_string(&first).unwrap());
        assert_eq!(e.submission_count(), 2);
        assert_eq!(e.admitted_count(), 2);
        // The same group key with different members conflicts.
        assert!(e.submit_p2mp(&p2mp(&item, vec![2, 4], Some("g-1"))).is_err());
    }

    #[test]
    fn repair_evicts_in_ascending_weight_order() {
        // Two parallel links m0 -> m1: L0 open from t=0, L1 only from
        // t=30s. Both requests fit on L0 (10 s each); after L0 dies at
        // t=1s only ONE can make its 45 s deadline via L1 (30-40 s). The
        // high-priority request must win that slot even though the
        // low-priority one was admitted first.
        let mut b = NetworkBuilder::new();
        for i in 0..2 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(4)));
        }
        let m = MachineId::new;
        let two_hours = SimTime::from_hours(2);
        b.add_link(VirtualLink::new(m(0), m(1), SimTime::ZERO, two_hours, BitsPerSec::new(8_000)));
        b.add_link(VirtualLink::new(
            m(0),
            m(1),
            SimTime::from_secs(30),
            two_hours,
            BitsPerSec::new(8_000),
        ));
        let catalog = Scenario::builder(b.build())
            .add_item(DataItem::new(
                "alpha",
                Bytes::new(10_000),
                vec![DataSource::new(m(0), SimTime::ZERO)],
            ))
            .add_item(DataItem::new(
                "beta",
                Bytes::new(10_000),
                vec![DataSource::new(m(0), SimTime::ZERO)],
            ))
            .build()
            .unwrap();
        let mut e = AdmissionEngine::new(&catalog, Heuristic::FullPathOneDestination, config());
        let low = e
            .submit(&SubmitArgs {
                item: "beta".to_string(),
                destination: 1,
                deadline_ms: 45_000,
                priority: 0,
                idempotency_key: None,
            })
            .unwrap();
        assert_eq!(low.decision, "admitted");
        let high = e
            .submit(&SubmitArgs {
                item: "alpha".to_string(),
                destination: 1,
                deadline_ms: 45_000,
                priority: 2,
                idempotency_key: None,
            })
            .unwrap();
        assert_eq!(high.decision, "admitted");

        let resp = e
            .inject(&InjectArgs { kind: InjectKind::LinkOutage { link: 0 }, at_ms: 1_000 })
            .unwrap();
        assert_eq!(resp.displaced, 2);
        assert_eq!(resp.repaired, 1);
        assert_eq!(resp.evicted, 1);
        // Repair ran best-first: the high-priority request (id 1) holds
        // the surviving slot, the low-priority one (id 0) was shed.
        assert_eq!(e.query(1).unwrap().status, "repaired");
        assert_eq!(e.query(0).unwrap().status, "evicted");
        assert!(e.query(0).unwrap().eta_ms.is_none());
        let c = e.counters();
        assert_eq!(c.weighted_sum, 100, "only the repaired W=100 request still counts");
        // Eviction is terminal: a later injection does not resurrect it.
        let later = e
            .inject(&InjectArgs { kind: InjectKind::LinkOutage { link: 0 }, at_ms: 2_000 })
            .unwrap();
        assert_eq!(later.displaced, 0);
        assert_eq!(e.query(0).unwrap().status, "evicted");
    }

    /// One link m0 → m1 (10 s per 10 kB item at 8 kbps) and two items, so
    /// only one 15 s deadline can be honoured — the canonical swap setup.
    fn one_link_catalog() -> Scenario {
        let mut b = NetworkBuilder::new();
        for i in 0..2 {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(4)));
        }
        let m = MachineId::new;
        b.add_link(VirtualLink::new(
            m(0),
            m(1),
            SimTime::ZERO,
            SimTime::from_hours(2),
            BitsPerSec::new(8_000),
        ));
        Scenario::builder(b.build())
            .add_item(DataItem::new(
                "alpha",
                Bytes::new(10_000),
                vec![DataSource::new(m(0), SimTime::ZERO)],
            ))
            .add_item(DataItem::new(
                "beta",
                Bytes::new(10_000),
                vec![DataSource::new(m(0), SimTime::ZERO)],
            ))
            .build()
            .unwrap()
    }

    fn prioritized(item: &str, deadline_ms: u64, priority: u8) -> SubmitArgs {
        SubmitArgs {
            item: item.to_string(),
            destination: 1,
            deadline_ms,
            priority,
            idempotency_key: None,
        }
    }

    #[test]
    fn alap_beats_partial_on_staggered_arrivals() {
        // The DDCCast headroom claim end to end: arrivals come worst-case
        // ordered (a loose-deadline LOW request first), and only the
        // latest-gap scheduler keeps early capacity for the urgent late
        // arrival.
        let catalog = dstage_workload::small::staggered_arrivals();
        let run = |heuristic: Heuristic| {
            let mut e = AdmissionEngine::new(&catalog, heuristic, config());
            let low = e
                .submit(&SubmitArgs {
                    item: "background-archive".to_string(),
                    destination: 1,
                    deadline_ms: 100_000,
                    priority: 0,
                    idempotency_key: None,
                })
                .expect("valid submission");
            assert_eq!(low.decision, "admitted", "{heuristic}: the early LOW request fits alone");
            let high = e
                .submit(&SubmitArgs {
                    item: "urgent-update".to_string(),
                    destination: 1,
                    deadline_ms: 15_000,
                    priority: 2,
                    idempotency_key: None,
                })
                .expect("valid submission");
            (high.decision, e.counters().weighted_sum)
        };
        let (partial_high, partial_sum) = run(Heuristic::PartialPath);
        let (alap_high, alap_sum) = run(Heuristic::Alap);
        assert_eq!(partial_high, "rejected", "earliest-gap placement burned the tight window");
        assert_eq!(partial_sum, 1);
        assert_eq!(alap_high, "admitted", "latest-gap placement left the window free");
        assert_eq!(alap_sum, 101);
        assert!(alap_sum > partial_sum, "alap must strictly beat partial on E[S]");
    }

    #[test]
    fn optimize_swaps_a_light_admit_for_a_heavy_refusal() {
        let mut e =
            AdmissionEngine::new(&one_link_catalog(), Heuristic::FullPathOneDestination, config());
        // The light request takes the only slot before t=15 s ...
        assert_eq!(e.submit(&prioritized("alpha", 15_000, 0)).unwrap().decision, "admitted");
        // ... so the heavy one bounces off the full link.
        assert_eq!(e.submit(&prioritized("beta", 15_000, 2)).unwrap().decision, "rejected");
        assert_eq!(e.counters().weighted_sum, 1);

        let r = e.optimize(8);
        assert_eq!((r.attempted, r.swapped), (1, 1));
        assert_eq!(r.weighted_sum, 100);
        assert_eq!(e.query(0).unwrap().status, "evicted");
        let readmitted = e.query(1).unwrap();
        assert_eq!(readmitted.status, "admitted");
        assert_eq!(readmitted.item, "beta");
        assert!(readmitted.eta_ms.unwrap() <= 15_000);
        let c = e.counters();
        assert_eq!((c.admitted, c.rejected, c.optimizations, c.swapped), (2, 0, 1, 1));
        assert_eq!((c.satisfied, c.weighted_sum), (1, 100));
        assert_eq!(c.admitted_by_priority, vec![1, 0, 1]);
        assert_eq!(c.rejected_by_priority, vec![0, 0, 0]);
    }

    #[test]
    fn optimize_never_decreases_the_weighted_sum() {
        let mut e =
            AdmissionEngine::new(&one_link_catalog(), Heuristic::FullPathOneDestination, config());
        // Heavy admitted first: the light refusal must NOT displace it.
        assert_eq!(e.submit(&prioritized("beta", 15_000, 2)).unwrap().decision, "admitted");
        assert_eq!(e.submit(&prioritized("alpha", 15_000, 0)).unwrap().decision, "rejected");
        let before = e.counters().weighted_sum;
        let r = e.optimize(8);
        assert_eq!(r.swapped, 0, "a lighter candidate has no viable victims");
        assert_eq!(r.weighted_sum, before);
        assert_eq!(e.query(0).unwrap().status, "admitted");
        // A second pass finds the same local optimum without spending
        // budget on consumed or hopeless candidates.
        assert_eq!(e.optimize(8).swapped, 0);
        assert_eq!(e.counters().weighted_sum, before);
    }

    #[test]
    fn a_refusal_past_the_end_of_time_spends_no_optimize_budget() {
        let catalog = one_link_catalog();
        let heuristic = Heuristic::FullPathOneDestination;
        let mut e = AdmissionEngine::new(&catalog, heuristic, config());
        assert_eq!(e.submit(&prioritized("alpha", 15_000, 0)).unwrap().decision, "admitted");
        // `deadline + γ` overflows: refused before any routing, and never
        // admissible, whatever an eviction frees.
        assert_eq!(e.submit(&prioritized("beta", u64::MAX, 2)).unwrap().decision, "rejected");
        assert_eq!(e.submit(&prioritized("beta", 15_000, 2)).unwrap().decision, "rejected");
        let restored =
            AdmissionEngine::restore(&catalog, heuristic, config(), &e.checkpoint_value()).unwrap();
        for mut engine in [e, restored] {
            let r = engine.optimize(1);
            assert_eq!((r.attempted, r.swapped, r.weighted_sum), (1, 1, 100));
        }
    }

    #[test]
    fn an_unreachable_destination_is_refused_at_the_end_of_time() {
        // γ = 0, so a deadline of `u64::MAX` ms passes the end-of-time
        // check, and the unreachable arrival (`SimTime::MAX`) equals it:
        // the refusal must come from reachability and leave no residue.
        let one_link = one_link_catalog();
        let mut builder = Scenario::builder(one_link.network().clone()).gc_delay(SimDuration::ZERO);
        for (_, item) in one_link.items() {
            builder = builder.add_item(item.clone());
        }
        let catalog = builder.build().unwrap();
        let heuristic = Heuristic::FullPathOneDestination;
        for rule in [heuristic, Heuristic::Alap] {
            let mut e = AdmissionEngine::new(&catalog, rule, config());
            let cut = e.inject(&InjectArgs { kind: InjectKind::LinkOutage { link: 0 }, at_ms: 0 });
            assert_eq!(cut.unwrap().displaced, 0);
            let (before, horizon) = (e.snapshot(), e.scenario().horizon());
            let refused = e.submit(&prioritized("alpha", u64::MAX, 2)).unwrap();
            assert_eq!(refused.decision, "rejected", "{rule}");
            let after = e.snapshot();
            for part in ["schedule", "ledger"] {
                assert_eq!(before.get(part), after.get(part), "{rule}: {part}");
            }
            assert_eq!((e.scenario().request_count(), e.scenario().horizon()), (0, horizon));
            let restored =
                AdmissionEngine::restore(&catalog, rule, config(), &e.checkpoint_value());
            assert_eq!(restored.unwrap().snapshot(), after, "{rule}");
        }
    }

    #[test]
    fn optimize_respects_the_swap_budget() {
        let mut e =
            AdmissionEngine::new(&one_link_catalog(), Heuristic::FullPathOneDestination, config());
        assert_eq!(e.submit(&prioritized("alpha", 15_000, 0)).unwrap().decision, "admitted");
        assert_eq!(e.submit(&prioritized("beta", 15_000, 2)).unwrap().decision, "rejected");
        let r = e.optimize(0);
        assert_eq!((r.attempted, r.swapped), (0, 0));
        assert_eq!(e.counters().weighted_sum, 1, "zero budget leaves the schedule alone");
    }

    #[test]
    fn optimize_lands_in_the_log_and_replays_byte_identically() {
        let mut e =
            AdmissionEngine::new(&one_link_catalog(), Heuristic::FullPathOneDestination, config());
        e.submit(&prioritized("alpha", 15_000, 0)).unwrap();
        e.submit(&prioritized("beta", 15_000, 2)).unwrap();
        e.optimize(8);
        e.submit(&prioritized("alpha", 7_200_000, 1)).unwrap();
        let snapshot = e.snapshot();
        let Some(Value::Array(log)) = snapshot.get("log") else {
            panic!("snapshot has no log array");
        };
        assert!(
            log.iter().any(|r| r.get("verb").and_then(Value::as_str) == Some("optimize")),
            "the optimize pass must be a log record"
        );
        let mut replayed =
            AdmissionEngine::new(&one_link_catalog(), Heuristic::FullPathOneDestination, config());
        for entry in log {
            replayed.replay_record(entry).unwrap();
        }
        assert_eq!(
            serde_json::to_string(&snapshot).unwrap(),
            serde_json::to_string(&replayed.snapshot()).unwrap()
        );
    }
}
