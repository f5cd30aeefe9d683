//! The five workloads and the inputs generated for them.
//!
//! Catalog *and request set* of every workload are constants of the
//! benchmark (fixed generator seeds). At paper scale the cost of one case
//! varies fourfold with the generator seed, and the satisfied weight of a
//! 120-request plan varies ±8 % with which deadlines and priorities are
//! drawn — both wider than any bound worth holding, so inputs drawn
//! afresh from `--seed` would bury every timing in input variation.
//! What `--seed` draws is the *order*, within windows of eight: which of
//! eight near-simultaneous submits reaches the daemon first (that decides
//! who is admitted, and what the batcher's conflict guards see), and the
//! ids — hence every tie-break — of the requests an offline run plans.
//! Shuffling the whole stream instead moves `op_p50_us` on serve-grid by
//! ±3 % from seed to seed (measured), which is a third of a 10 % bound
//! spent on input variation before the host adds its own noise.

use dstage_model::ids::{DataItemId, MachineId};
use dstage_model::request::{Priority, Request};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_service::protocol::SubmitArgs;
use dstage_workload::grid::{generate_grid, GridConfig};
use dstage_workload::{generate, GeneratorConfig};

use crate::rng::SplitMix64;

/// Priority levels of every generated request (`W = 1, 10, 100`).
pub const PRIORITY_LEVELS: u8 = 3;
/// The daemon's default weighting, which the harness checks sums against.
pub const WEIGHTS: [u64; PRIORITY_LEVELS as usize] = [1, 10, 100];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    ServePaper,
    ServeGrid,
    ServeDurable,
    SweepPaper,
    PlanGrid,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServePaper,
        Workload::ServeGrid,
        Workload::ServeDurable,
        Workload::SweepPaper,
        Workload::PlanGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePaper => "serve-paper",
            Workload::ServeGrid => "serve-grid",
            Workload::ServeDurable => "serve-durable",
            Workload::SweepPaper => "sweep-paper",
            Workload::PlanGrid => "plan-grid",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives a `stage-serve` child.
    pub fn is_service(self) -> bool {
        matches!(self, Workload::ServePaper | Workload::ServeGrid | Workload::ServeDurable)
    }
}

/// Full size, or the ~1/20 size of `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Paper-scale catalogs (`GeneratorConfig::paper()` seeds, i.e. cases of
/// `paper_test_cases`) a `serve-paper` pass serves, one daemon each.
const SERVE_PAPER_CATALOGS: [u64; 4] = [0, 1, 4, 5];
/// Catalogs of a `serve-durable` pass.
const SERVE_DURABLE_CATALOGS: [u64; 2] = [0, 4];
/// Cases of a `sweep-paper` pass (three of the cheaper paper cases, so
/// several passes fit in a run).
const SWEEP_PAPER_CASES: [u64; 3] = [2, 3, 4];
/// Generator seed of both grids.
const GRID_SEED: u64 = 7;
/// Seed of everything about a request set (and of the fault script) that
/// `--seed` does not draw.
const SET_SEED: u64 = 2000;
/// `--seed` reorders requests within consecutive windows of this many.
const ORDER_WINDOW: usize = 8;
/// Submits of a `serve-grid` round.
const SERVE_GRID_SUBMITS: usize = 600;
/// Requests a `plan-grid` run plans.
const PLAN_GRID_REQUESTS: usize = 120;

/// One generated input: a catalog with the requests an offline run plans,
/// and the stream a daemon (or the in-process driver) is sent.
#[derive(Debug, Clone)]
pub struct Case {
    pub label: String,
    pub scenario: Scenario,
    pub stream: Vec<SubmitArgs>,
}

impl Case {
    /// The same case with only the first `submits` entries of its stream.
    pub fn head(&self, submits: usize) -> Case {
        let stream = self.stream.iter().take(submits).cloned().collect();
        Case { label: self.label.clone(), scenario: self.scenario.clone(), stream }
    }
}

fn serve_grid_config() -> GridConfig {
    GridConfig {
        rows: 10,
        cols: 10,
        items: 400,
        // Only their deadline range is used; the stream is drawn below.
        requests: 2_000,
        ..GridConfig::default()
    }
}

fn plan_grid_config(requests: usize) -> GridConfig {
    GridConfig { rows: 32, cols: 32, items: 200, requests, ..GridConfig::default() }
}

/// Generates the cases of one pass of `workload`. Pure in
/// `(workload, seed, scale)`.
pub fn cases(workload: Workload, seed: u64, scale: Scale) -> Vec<Case> {
    let smoke = scale == Scale::Smoke;
    let keep = |n: usize| if smoke { 1 } else { n };
    let paper = |generator_seed: u64| generate(&GeneratorConfig::paper(), generator_seed);
    // Two generators per case: one fixed, for the request set, one from
    // `--seed`, for the order.
    let rngs = |label: &str| {
        let tag = format!("{}/{label}", workload.name());
        (SplitMix64::for_input(SET_SEED, &tag), SplitMix64::for_input(seed, &tag))
    };
    match workload {
        Workload::ServePaper | Workload::ServeDurable => {
            let catalogs: &[u64] = if workload == Workload::ServePaper {
                &SERVE_PAPER_CATALOGS
            } else {
                &SERVE_DURABLE_CATALOGS
            };
            catalogs[..keep(catalogs.len())]
                .iter()
                .map(|&g| {
                    let label = format!("paper#{g}");
                    let scenario = paper(g);
                    let (mut set, mut order) = rngs(&label);
                    let limit = if smoke { 64 } else { usize::MAX };
                    let stream = distinct_pair_stream(&scenario, &mut set, &mut order, limit);
                    Case { label, scenario, stream }
                })
                .collect()
        }
        Workload::ServeGrid => {
            let label = "grid10x10".to_string();
            let scenario = generate_grid(&serve_grid_config(), GRID_SEED);
            let (mut set, mut order) = rngs(&label);
            let limit = if smoke { 40 } else { SERVE_GRID_SUBMITS };
            let stream = distinct_pair_stream(&scenario, &mut set, &mut order, limit);
            vec![Case { label, scenario, stream }]
        }
        Workload::SweepPaper => SWEEP_PAPER_CASES[..keep(SWEEP_PAPER_CASES.len())]
            .iter()
            .map(|&g| {
                let label = format!("paper#{g}");
                let limit = if smoke { 40 } else { usize::MAX };
                let order = &mut rngs(&label).1;
                offline_case(label, &paper(g), order, limit)
            })
            .collect(),
        Workload::PlanGrid => {
            let label = "grid32x32".to_string();
            let requests = if smoke { 12 } else { PLAN_GRID_REQUESTS };
            let base = generate_grid(&plan_grid_config(requests), GRID_SEED);
            let order = &mut rngs(&label).1;
            vec![offline_case(label, &base, order, usize::MAX)]
        }
    }
}

/// The request set of a service case: every `(item, destination)` pair
/// of the catalog whose destination is not a source of the item (the
/// first `limit` of them in a fixed shuffle), deadline uniform between the
/// catalog's earliest and latest generated deadline, priority uniform —
/// all drawn from `set`; then reordered within windows by `order`.
/// Never a cycled stream: after its first lap that is almost all cheap
/// refusals of duplicates.
fn distinct_pair_stream(
    catalog: &Scenario,
    set: &mut SplitMix64,
    order: &mut SplitMix64,
    limit: usize,
) -> Vec<SubmitArgs> {
    let deadlines = || catalog.requests().map(|(_, r)| r.deadline().as_millis());
    let earliest = deadlines().min().expect("generated catalogs carry requests");
    let latest = deadlines().max().expect("generated catalogs carry requests");
    let mut pairs: Vec<(DataItemId, MachineId)> = Vec::new();
    for (id, item) in catalog.items() {
        for machine in catalog.network().machine_ids() {
            if !item.has_source(machine) {
                pairs.push((id, machine));
            }
        }
    }
    set.shuffle(&mut pairs);
    pairs.truncate(limit);
    let mut stream: Vec<SubmitArgs> = pairs
        .into_iter()
        .map(|(item, machine)| SubmitArgs {
            item: catalog.item(item).name().to_string(),
            destination: machine.index() as u32,
            deadline_ms: set.between(earliest, latest),
            priority: set.below(u64::from(PRIORITY_LEVELS)) as u8,
            idempotency_key: None,
        })
        .collect();
    shuffle_windows(order, &mut stream);
    stream
}

/// Shuffles every consecutive window of `ORDER_WINDOW` items in place.
fn shuffle_windows<T>(order: &mut SplitMix64, items: &mut [T]) {
    for window in items.chunks_mut(ORDER_WINDOW) {
        order.shuffle(window);
    }
}

/// The base scenario's first `limit` requests, reordered within windows
/// by `order` (so request ids, and every tie-break on them, follow the
/// seed), and the same requests as a submit stream.
fn offline_case(label: String, base: &Scenario, order: &mut SplitMix64, limit: usize) -> Case {
    let mut requests: Vec<Request> = base.requests().take(limit).map(|(_, r)| *r).collect();
    shuffle_windows(order, &mut requests);
    let scenario = with_requests(base, requests);
    let stream = scenario
        .requests()
        .map(|(_, r)| SubmitArgs {
            item: scenario.item(r.item()).name().to_string(),
            destination: r.destination().index() as u32,
            deadline_ms: r.deadline().as_millis(),
            priority: r.priority().level(),
            idempotency_key: None,
        })
        .collect();
    Case { label, scenario, stream }
}

/// `base`'s network, items, horizon and garbage-collection delay with
/// another request set.
pub fn with_requests(base: &Scenario, requests: Vec<Request>) -> Scenario {
    let mut builder =
        Scenario::builder(base.network().clone()).gc_delay(base.gc_delay()).horizon(base.horizon());
    for (_, item) in base.items() {
        builder = builder.add_item(item.clone());
    }
    builder.add_requests(requests).build().expect("requests were valid in the base scenario")
}

/// `stream` as the request set of an offline scenario over `catalog`.
pub fn stream_scenario(catalog: &Scenario, stream: &[SubmitArgs]) -> Scenario {
    let requests = stream
        .iter()
        .map(|s| {
            let (item, _) = catalog
                .items()
                .find(|(_, item)| item.name() == s.item)
                .expect("streams name catalog items");
            Request::new(
                item,
                MachineId::new(s.destination),
                SimTime::from_millis(s.deadline_ms),
                Priority::new(s.priority),
            )
        })
        .collect();
    with_requests(catalog, requests)
}

/// The fault script, fixed like the request sets: `count` link outages,
/// `(link, at_ms)`, at 10, 15, … minutes. The daemon of `serve-grid` and
/// the in-process engine of every traced run replay the same one.
pub fn outages(catalog: &Scenario, count: u64) -> Vec<(u32, u64)> {
    let mut rng = SplitMix64::for_input(SET_SEED, "faults");
    let links = catalog.network().link_count() as u64;
    (0..count).map(|k| (rng.below(links) as u32, (10 + 5 * k) * 60_000)).collect()
}

/// The NDJSON request line of one submit.
pub fn submit_line(args: &SubmitArgs) -> String {
    format!(
        "{{\"verb\":\"submit\",\"item\":\"{}\",\"destination\":{},\"deadline_ms\":{},\"priority\":{}}}",
        args.item, args.destination, args.deadline_ms, args.priority
    )
}

/// Σ `W[p]` over a stream: the weight that would be satisfied if nothing
/// were refused.
pub fn offered_weight(stream: &[SubmitArgs]) -> u64 {
    stream.iter().map(|s| WEIGHTS[usize::from(s.priority)]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn fingerprint(cases: &[Case]) -> Vec<String> {
        cases.iter().flat_map(|c| c.stream.iter().map(submit_line)).collect()
    }

    #[test]
    fn inputs_are_a_function_of_workload_and_seed() {
        for w in Workload::ALL {
            let a = fingerprint(&cases(w, 11, Scale::Smoke));
            assert!(!a.is_empty(), "{}", w.name());
            assert_eq!(a, fingerprint(&cases(w, 11, Scale::Smoke)), "{}", w.name());
            assert_ne!(a, fingerprint(&cases(w, 12, Scale::Smoke)), "{}", w.name());
        }
        // The same catalog under two workloads still gets unrelated draws.
        assert_ne!(
            fingerprint(&cases(Workload::ServePaper, 11, Scale::Smoke)),
            fingerprint(&cases(Workload::ServeDurable, 11, Scale::Smoke))
        );
    }

    #[test]
    fn service_streams_are_distinct_valid_pairs() {
        let case = &cases(Workload::ServePaper, 3, Scale::Full)[0];
        let pairs: BTreeSet<(&str, u32)> =
            case.stream.iter().map(|s| (s.item.as_str(), s.destination)).collect();
        assert_eq!(pairs.len(), case.stream.len(), "no pair repeats");
        assert!(case.stream.len() > 1_000, "every distinct pair of a paper catalog");
        assert!(case.stream.iter().all(|s| s.priority < PRIORITY_LEVELS));
        // Every prefix is a valid offline scenario over the catalog.
        assert_eq!(stream_scenario(&case.scenario, &case.stream[..50]).request_count(), 50);
    }

    #[test]
    fn the_seed_draws_the_order_not_the_set() {
        let sorted = |c: &Case| {
            let mut lines: Vec<String> = c.stream.iter().map(submit_line).collect();
            lines.sort();
            lines
        };
        for w in [Workload::ServeGrid, Workload::SweepPaper] {
            let (a, b) = (&cases(w, 1, Scale::Full)[0], &cases(w, 2, Scale::Full)[0]);
            assert_ne!(fingerprint(std::slice::from_ref(a)), fingerprint(std::slice::from_ref(b)));
            assert_eq!(sorted(a), sorted(b), "{}", w.name());
        }
        let a = &cases(Workload::SweepPaper, 1, Scale::Full)[0];
        assert_eq!(a.stream.len(), a.scenario.request_count());
        assert!(offered_weight(&a.stream) > 0);
    }

    #[test]
    fn submit_lines_parse_back_to_their_arguments() {
        use dstage_service::protocol::ClientRequest;
        for s in &cases(Workload::ServeGrid, 5, Scale::Smoke)[0].stream {
            assert_eq!(ClientRequest::parse(&submit_line(s)), Ok(ClientRequest::Submit(s.clone())));
        }
    }
}
