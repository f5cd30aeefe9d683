//! The traced run: per-layer metrics, measured from outside, three ways.
//!
//! 1. *Counts*: deltas of the program's own `dstage_obs` series, scraped
//!    in process or from a daemon.
//! 2. *Spans*: an in-process driver replays the workload's request stream
//!    one request at a time and wraps each call into a layer's public
//!    function in a span.
//! 3. *Direct probes* of single functions on states built from a finished
//!    schedule.
//!
//! One function measures every layer for every workload, on that
//! workload's own catalog and stream, so a row means the same thing in
//! every column. Where a workload's end-to-end path never crosses a layer
//! (the WAL under `sweep-paper`), the row is that layer's unit cost on
//! the workload's data, not a share of its round trip.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use dstage_core::heuristic::{self, Heuristic};
use dstage_core::schedule::Schedule;
use dstage_model::ids::MachineId;
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_model::units::Bytes;
use dstage_path::dijkstra::{earliest_arrival_tree, ItemQuery};
use dstage_resources::ledger::NetworkLedger;
use dstage_service::durability::Durability;
use dstage_service::engine::AdmissionEngine;
use dstage_service::protocol::{response_line, ClientRequest, InjectArgs, InjectKind, SubmitArgs};
use dstage_service::wal::{scan_segment, FsyncPolicy, SegmentWriter};
use dstage_sim::sweep::EuRatioPoint;

use crate::check::{service_config, SERVICE_HEURISTIC};
use crate::inputs::{
    cases, outages, stream_scenario, submit_line, with_requests, Case, Scale, Workload,
};
use crate::prom::Scrape;
use crate::rng::SplitMix64;
use crate::runner::WorkloadReport;
use crate::spans::{self, Tracer};
use crate::stats::{self, micros, millis, nanos};
use crate::workloads::{fan_out, serve_probe_round, sweep_units, Ctx, Unit};

/// Requests of the scenario the offline probes plan, when it is cut from
/// a service stream (an offline run over all 600 submits of the 10×10 grid
/// would take 3 s, partial-path five times that).
const PROBE_REQUESTS: usize = 200;
/// Submits the in-process driver and the probe daemon replay.
const TRACE_SUBMITS: usize = 600;
/// Ledger probes and trees timed on the loaded ledger.
const LEDGER_PROBES: usize = 2_000;
const TREE_PROBES: usize = 200;

/// Median wall time of `repeats` calls.
fn median_time<T>(repeats: usize, mut call: impl FnMut() -> T) -> Duration {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(call());
            started.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(stats::median(&samples))
}

/// The scenario the offline probes (`core`, `path`, `resources`) plan for
/// a workload: an offline workload's own, a service workload's catalog
/// with the head of its stream as requests.
pub fn probe_scenario(workload: Workload, case: &Case) -> Scenario {
    if workload.is_service() {
        stream_scenario(&case.scenario, &case.stream[..PROBE_REQUESTS.min(case.stream.len())])
    } else {
        case.scenario.clone()
    }
}

/// The cheap scenario the three `core.run_ms.*` rows, the repair-off row,
/// the executor probe's units and the tap-overhead children all time:
/// `sweep-paper`'s real first case, a cut of the probe scenario elsewhere
/// (on the 32×32 grid partial-path takes twelve times as long as
/// full-one, and a unit must stay ~0.1 s).
pub fn sim_scenario(workload: Workload, case: &Case) -> Scenario {
    let probe = probe_scenario(workload, case);
    let keep = match workload {
        Workload::SweepPaper => return probe,
        Workload::PlanGrid => 30,
        Workload::ServeGrid => 60,
        _ => 100,
    };
    let requests = probe.requests().take(keep).map(|(_, r)| *r).collect();
    with_requests(&probe, requests)
}

/// Full-one at the paper's eleven ratios: the units of the tap-overhead
/// children, and of the executor probe everywhere but on `sweep-paper`.
fn full_one_units() -> Vec<Unit> {
    sweep_units(1, &[SERVICE_HEURISTIC], &EuRatioPoint::PAPER_SWEEP)
}

/// What a `probe-run` child measures, selected by its `--what`.
pub fn child_probe(workload: Workload, seed: u64, scale: Scale, what: &str) -> Result<f64, String> {
    let case = cases(workload, seed, scale).swap_remove(0);
    let scenario = sim_scenario(workload, &case);
    match what {
        // One full-one run (the parent sets DSTAGE_TREE_REPAIR=0 for the
        // variant row).
        "core" => {
            let started = Instant::now();
            std::hint::black_box(heuristic::run(&scenario, SERVICE_HEURISTIC, &service_config()));
            Ok(millis(started.elapsed()))
        }
        // The executor probe's units, one after another (the parent sets
        // DSTAGE_OBS=0 or 1).
        "sim" => Ok(millis(fan_out(&[&scenario], &full_one_units(), 1).wall)),
        other => Err(format!("unknown probe `{other}`")),
    }
}

/// Re-invokes this binary as a `probe-run` child with one switch of the
/// program set in its environment, and reads back the milliseconds it
/// prints. Only switches the program reads itself are used, so removing
/// one later degrades a row (variant = default) instead of breaking the
/// build.
fn spawn_child_probe(
    ctx: &Ctx,
    workload: Workload,
    what: &str,
    env: (&str, &str),
) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scale = if ctx.scale == Scale::Smoke { "smoke" } else { "full" };
    let output = Command::new(exe)
        .args(["probe-run", "--workload", workload.name(), "--seed", &ctx.seed.to_string()])
        .args(["--scale", scale, "--what", what])
        .env(env.0, env.1)
        .output()
        .map_err(|e| format!("probe-run child: {e}"))?;
    if !output.status.success() {
        return Err(format!("probe-run child exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("probe-run child printed no number: {e}"))
}

/// Runs the traced pass of `workload` and returns its report (per-layer
/// metrics, span file written to `trace_out` when given).
pub fn run_traced(ctx: &Ctx, workload: Workload, trace_out: Option<&Path>) -> WorkloadReport {
    let started = Instant::now();
    let mut report = WorkloadReport { passes: 1, ..WorkloadReport::new(workload) };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Where the traced run's own wall time went, for the report.
    let mut stages: Vec<String> = Vec::new();
    let mut stage_started = Instant::now();
    let mut stage_done = |name: &str| {
        stages.push(format!("{name} {:.1} s", stage_started.elapsed().as_secs_f64()));
        stage_started = Instant::now();
    };

    // workload: generating the pass's inputs.
    let generation = median_time(3, || cases(workload, ctx.seed, ctx.scale));
    m.insert("workload.generate_ms", millis(generation));
    let case = cases(workload, ctx.seed, ctx.scale).swap_remove(0);
    let probe = probe_scenario(workload, &case);

    let schedule = core_path_resources_counts(&probe, &sim_scenario(workload, &case), &mut m);
    match spawn_child_probe(ctx, workload, "core", ("DSTAGE_TREE_REPAIR", "0")) {
        Ok(ms) => drop(m.insert("core.run_ms_repair_off", ms)),
        Err(e) => report.violations.push(e),
    }
    stage_done("core runs");
    ledger_and_tree_probes(ctx, &probe, &schedule, &mut m);
    stage_done("ledger and tree probes");

    let data_dir = ctx.scratch.path("trace-data");
    let volatile = workload != Workload::ServeDurable;
    match service_spans(ctx, &case, &data_dir, volatile, &mut m, &mut report.notes) {
        Ok(tracer) => {
            if !spans::children_fit(tracer.spans()) {
                report.violations.push("a span's children exceed it".to_string());
            }
            if let Some(path) = trace_out {
                let written = std::fs::File::create(path)
                    .and_then(|f| tracer.write_to(&mut std::io::BufWriter::new(f)));
                match written {
                    Ok(()) => report.notes.push(format!(
                        "{} spans written to {}",
                        tracer.spans().len(),
                        path.display()
                    )),
                    Err(e) => report.violations.push(format!("{}: {e}", path.display())),
                }
            }
        }
        Err(e) => report.violations.push(format!("in-process driver: {e}")),
    }
    stage_done("in-process driver");
    if let Err(e) = wal_and_durability_probes(&case, &data_dir, &mut m) {
        report.violations.push(format!("durability probes: {e}"));
    }
    stage_done("WAL and recovery probes");

    daemon_counts(ctx, workload, &case, &mut m, &mut report);
    stage_done("daemon round");
    executor_probe(ctx, workload, &case, &mut m, &mut report.notes);
    stage_done("executor probe");
    match tap_overhead(ctx, workload) {
        Ok(pct) => drop(m.insert("obs.tap_overhead_pct", pct)),
        Err(e) => report.violations.push(e),
    }
    stage_done("tap-overhead children");

    report.notes.push(format!("traced run: {}", stages.join(", ")));
    report.attempted = report.attempted.max(1);
    report.per_layer = m;
    report.wall_s = started.elapsed().as_secs_f64();
    report
}

/// `core.run_ms.*` on the cut scenario, and `core.run_ns_per_tree`,
/// `core.iterations` and the `path.*` / `resources.*` counts of one
/// full-one run of the whole probe scenario (in-process deltas of the
/// program's own series). Returns that run's schedule.
fn core_path_resources_counts(
    probe: &Scenario,
    cut: &Scenario,
    m: &mut BTreeMap<&'static str, f64>,
) -> Schedule {
    let config = service_config();
    let timed_run = |scenario: &Scenario, h: Heuristic| {
        let started = Instant::now();
        let outcome = heuristic::run(scenario, h, &config);
        (started.elapsed(), outcome)
    };
    // The first run is untimed: lazy statics and the allocator warm up.
    timed_run(cut, SERVICE_HEURISTIC);
    m.insert("core.run_ms.partial", millis(timed_run(cut, Heuristic::PartialPath).0));
    m.insert("core.run_ms.full_one", millis(timed_run(cut, Heuristic::FullPathOneDestination).0));
    m.insert("core.run_ms.full_all", millis(timed_run(cut, Heuristic::FullPathAllDestinations).0));

    let before = Scrape::in_process();
    let (wall, outcome) = timed_run(probe, SERVICE_HEURISTIC);
    let counts = Scrape::in_process().since(&before);
    m.insert("core.iterations", outcome.metrics.iterations as f64);

    let trees = counts.count("dstage_path_trees_total");
    m.insert("core.run_ns_per_tree", if trees > 0.0 { nanos(wall) / trees } else { 0.0 });
    m.insert("path.trees", trees);
    let path = |series: &str| format!("dstage_path_{series}_total");
    let per_tree = |series: &str| counts.ratio(&path(series), "dstage_path_trees_total");
    m.insert("path.relaxations_per_tree", per_tree("relaxations"));
    m.insert("path.edge_scans_per_tree", per_tree("edge_scans"));
    m.insert("path.prune_share", counts.ratio(&path("lb_prunes"), &path("edge_scans")));
    m.insert("path.repair_share", per_tree("tree_repairs"));
    m.insert(
        "path.bucket_advances_per_tree",
        counts.ratio(&path("bucket_advances"), &path("bucket_trees")),
    );
    // Every push is popped once, so pushes count the pops.
    m.insert("path.stale_pop_share", counts.ratio(&path("stale_pops"), &path("heap_pushes")));

    let resources = |series: &str| format!("dstage_resources_{series}_total");
    let per_probe = |series: &str| counts.ratio(&resources(series), &resources("probes"));
    m.insert("resources.probes", counts.count(&resources("probes")));
    m.insert("resources.commits", counts.count(&resources("commits")));
    m.insert("resources.gap_iterations_per_probe", per_probe("gap_iterations"));
    m.insert("resources.peak_scans_per_probe", per_probe("peak_scans"));
    m.insert("resources.probe_restart_share", per_probe("probe_restarts"));
    outcome.schedule
}

/// A fresh ledger loaded with `schedule` the way `Schedule::validate`
/// replays it, and the wall time of its `commit_transfer` calls.
fn load_ledger(scenario: &Scenario, schedule: &Schedule) -> (NetworkLedger, Duration, usize) {
    let network = scenario.network();
    let mut ledger = NetworkLedger::new(network);
    for (_, item) in scenario.items() {
        for src in item.sources() {
            ledger.force_storage(src.machine, item.size(), src.available_at, scenario.horizon());
        }
    }
    let mut ordered: Vec<_> = schedule.transfers().iter().collect();
    ordered.sort_by_key(|t| (t.start, t.link));
    let holds: Vec<SimTime> = ordered
        .iter()
        .map(|t| {
            let requested_there = scenario
                .requests_for(t.item)
                .iter()
                .any(|&r| scenario.request(r).destination() == t.to);
            if requested_there {
                scenario.horizon()
            } else {
                scenario.gc_time(t.item).unwrap_or(scenario.horizon())
            }
        })
        .collect();
    let started = Instant::now();
    let mut committed = 0;
    for (t, hold) in ordered.iter().zip(holds) {
        let size = scenario.item(t.item).size();
        if ledger.commit_transfer(network, t.link, t.start, size, hold).is_ok() {
            committed += 1;
        }
    }
    (ledger, started.elapsed(), committed)
}

/// The owned parts of one item's `ItemQuery`.
struct TreeQuery {
    size: Bytes,
    sources: Vec<(MachineId, SimTime)>,
    hold_until: Vec<SimTime>,
}

/// `resources.commit_ns`, `resources.probe_ns`, `path.tree_ns` and
/// `path.tree_ns_heap`, on the ledger a finished schedule leaves behind.
fn ledger_and_tree_probes(
    ctx: &Ctx,
    scenario: &Scenario,
    schedule: &Schedule,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let network = scenario.network();
    let mut commit_ns = Vec::new();
    let mut loaded = load_ledger(scenario, schedule);
    for _ in 0..5 {
        loaded = load_ledger(scenario, schedule);
        commit_ns.push(nanos(loaded.1) / loaded.2.max(1) as f64);
    }
    let ledger = loaded.0;
    m.insert("resources.commit_ns", stats::median(&commit_ns));

    // Seeded probes: any link, any item's size, ready anywhere before the horizon.
    let mut rng = SplitMix64::for_input(ctx.seed, "trace/ledger-probes");
    let links: Vec<_> = network.links().map(|(id, _)| id).collect();
    let sizes: Vec<_> = scenario.items().map(|(_, item)| item.size()).collect();
    let horizon = scenario.horizon();
    let probes: Vec<_> = (0..LEDGER_PROBES)
        .map(|_| {
            (
                links[rng.below(links.len() as u64) as usize],
                SimTime::from_millis(rng.below(horizon.as_millis().max(1))),
                sizes[rng.below(sizes.len() as u64) as usize],
            )
        })
        .collect();
    let probing = median_time(5, || {
        probes
            .iter()
            .filter(|(link, ready, size)| {
                ledger.earliest_transfer(network, *link, *ready, *size, horizon).is_some()
            })
            .count()
    });
    m.insert("resources.probe_ns", nanos(probing) / probes.len() as f64);

    // Full rebuilds of every requested item's tree (the first
    // TREE_PROBES of them), bucket queue, then the heap the query falls
    // back to when it is given no horizon.
    let machines = network.machine_count();
    let queries: Vec<TreeQuery> = scenario
        .items()
        .filter(|(id, _)| !scenario.requests_for(*id).is_empty())
        .take(TREE_PROBES)
        .map(|(id, item)| {
            let mut hold_until = vec![scenario.gc_time(id).unwrap_or(horizon); machines];
            for &r in scenario.requests_for(id) {
                hold_until[scenario.request(r).destination().index()] = horizon;
            }
            TreeQuery {
                size: item.size(),
                sources: item.sources().iter().map(|s| (s.machine, s.available_at)).collect(),
                hold_until,
            }
        })
        .collect();
    let trees = |queue_horizon: SimTime| {
        let took = median_time(3, || {
            for q in &queries {
                std::hint::black_box(earliest_arrival_tree(&ItemQuery {
                    network,
                    ledger: &ledger,
                    size: q.size,
                    sources: &q.sources,
                    hold_until: &q.hold_until,
                    horizon: queue_horizon,
                }));
            }
        });
        nanos(took) / queries.len().max(1) as f64
    };
    m.insert("path.tree_ns", trees(horizon));
    m.insert("path.tree_ns_heap", trees(SimTime::MAX));
}

/// Counters the driver reads at span boundaries. These three statics are
/// the only series read directly instead of through the exposition text:
/// rendering the text per request would cost more than the request.
fn decision_counters() -> [u64; 3] {
    use dstage_obs::metrics as tap;
    [tap::RESOURCES_COMMITS.get(), tap::PATH_TREES.get(), tap::RESOURCES_PROBES.get()]
}

/// What replaying a stream through the in-process driver gave.
struct Driven {
    engine: AdmissionEngine,
    wall: Duration,
    /// Admitted count before each submit, and its counter deltas.
    admitted_before: Vec<f64>,
    deltas: Vec<[u64; 3]>,
    admitted: Vec<bool>,
}

/// The in-process driver: the identical request lines a daemon would
/// get, one at a time, each call into a layer wrapped in a span —
/// `request` → `service.protocol.parse` → `service.engine.submit` →
/// `service.durability.stage` / `.commit` → `service.protocol.render`.
fn drive_in_process(
    catalog: &Scenario,
    stream: &[SubmitArgs],
    data_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Driven, String> {
    crate::daemon::emptied(data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let (durability, mut engine, _) = Durability::recover(
        data_dir,
        FsyncPolicy::Always,
        u64::MAX,
        catalog,
        SERVICE_HEURISTIC,
        service_config(),
    )?;
    let lines: Vec<String> = stream.iter().map(submit_line).collect();
    let mut admitted_before = Vec::with_capacity(lines.len());
    let mut deltas = Vec::with_capacity(lines.len());
    let mut admitted = Vec::with_capacity(lines.len());
    let started = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let id = i as u64;
        admitted_before.push(engine.admitted_count() as f64);
        let before = decision_counters();
        let root = tracer.enter("request", id);

        let span = tracer.enter("service.protocol.parse", id);
        let parsed = ClientRequest::parse(line);
        tracer.exit(span);
        let Ok(ClientRequest::Submit(args)) = parsed else {
            return Err(format!("line {i} did not parse as a submit"));
        };

        let span = tracer.enter("service.engine.submit", id);
        let response = engine.submit(&args);
        tracer.exit(span);
        let response = response?;

        let span = tracer.enter("service.durability.stage", id);
        let staged = durability.stage(&engine);
        tracer.exit(span);

        let span = tracer.enter("service.durability.commit", id);
        durability.commit(staged);
        tracer.exit(span);

        let span = tracer.enter("service.protocol.render", id);
        std::hint::black_box(response_line(&response));
        tracer.exit(span);

        tracer.exit(root);
        let after = decision_counters();
        deltas.push([after[0] - before[0], after[1] - before[1], after[2] - before[2]]);
        admitted.push(response.decision == "admitted");
    }
    Ok(Driven { engine, wall: started.elapsed(), admitted_before, deltas, admitted })
}

/// `service.protocol.*`, `service.engine.*`, `service.durability.stage_us`
/// / `.commit_us`, `model.scenario_build_us` and `trace.overhead_pct`.
fn service_spans(
    ctx: &Ctx,
    case: &Case,
    data_dir: &Path,
    volatile: bool,
    m: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<Tracer, String> {
    let catalog = &case.scenario;
    let stream = &case.stream[..TRACE_SUBMITS.min(case.stream.len())];
    // An untimed head of the stream first.
    drive_in_process(catalog, &stream[..stream.len() / 6], data_dir, &mut Tracer::new(false))?;
    // Spans off, spans on, spans off: comparing the middle run with the
    // mean of its neighbours cancels a drift of the host across the three.
    // The traced run's data dir is the one the durability probes read.
    let other_dir = data_dir.with_extension("untraced");
    let before = drive_in_process(catalog, stream, &other_dir, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let driven = drive_in_process(catalog, stream, data_dir, &mut tracer)?;
    let after = drive_in_process(catalog, stream, &other_dir, &mut Tracer::new(false))?;
    let untraced = (before.wall.as_secs_f64() + after.wall.as_secs_f64()) / 2.0;
    m.insert("trace.overhead_pct", 100.0 * (driven.wall.as_secs_f64() - untraced) / untraced);
    // The difference of two ~1 s runs resolves a few percent at best on a
    // shared host; the cost of the spans themselves is far below that.
    let mut calibration = Tracer::new(true);
    let pair = median_time(3, || {
        for i in 0..10_000 {
            let span = calibration.enter("calibration", i);
            calibration.exit(span);
        }
    });
    notes.push(format!(
        "trace.overhead_pct is the difference of whole runs ({:.3} s traced, {:.3} s and {:.3} s untraced); \
         one span costs {:.0} ns here, six per request",
        driven.wall.as_secs_f64(),
        before.wall.as_secs_f64(),
        after.wall.as_secs_f64(),
        nanos(pair) / 10_000.0,
    ));

    let all = tracer.spans();
    let median_of = |name: &str| stats::median(&spans::durations_ns(all, name));
    m.insert("service.protocol.parse_ns", median_of("service.protocol.parse"));
    m.insert("service.protocol.render_ns", median_of("service.protocol.render"));
    m.insert("service.durability.stage_us", median_of("service.durability.stage") / 1e3);
    m.insert("service.durability.commit_us", median_of("service.durability.commit") / 1e3);
    let submit_us: Vec<f64> =
        spans::durations_ns(all, "service.engine.submit").iter().map(|ns| ns / 1e3).collect();
    let ascending = stats::sorted(submit_us.clone());
    m.insert("service.engine.submit_us_p50", stats::percentile(&ascending, 0.50));
    m.insert("service.engine.submit_us_p99", stats::percentile(&ascending, 0.99));
    m.insert(
        "service.engine.submit_slope_us_per_admit",
        stats::slope(&driven.admitted_before, &submit_us),
    );
    let decisions = driven.deltas.len().max(1) as f64;
    let mean_delta = |k: usize| driven.deltas.iter().map(|d| d[k] as f64).sum::<f64>() / decisions;
    m.insert("service.engine.commits_replayed_per_decision", mean_delta(0));
    m.insert("service.engine.trees_per_decision", mean_delta(1));
    m.insert("service.engine.probes_per_decision", mean_delta(2));

    let totals = spans::totals_by_name(all);
    let total_of = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let round_trip = total_of("request").max(1.0);
    let share = |name: &str| 100.0 * total_of(name) / round_trip;
    notes.push(format!(
        "in-process round trip, {} requests: engine.submit {:.1}%, durability.commit {:.1}%, \
         durability.stage {:.1}%, protocol.parse {:.1}%, protocol.render {:.1}%, harness self time {:.1}%",
        driven.deltas.len(),
        share("service.engine.submit"),
        share("service.durability.commit"),
        share("service.durability.stage"),
        share("service.protocol.parse"),
        share("service.protocol.render"),
        100.0 * totals.get("request").map_or(0.0, |t| t.self_ns as f64) / round_trip,
    ));
    if volatile {
        // This workload's daemon keeps no WAL: its round trip is the
        // root span without the two durability spans.
        let durable = total_of("service.durability.stage") + total_of("service.durability.commit");
        notes.push(format!(
            "without the durability spans (this workload's daemon is volatile): engine.submit {:.1}% \
             of the in-process round trip",
            100.0 * total_of("service.engine.submit") / (round_trip - durable).max(1.0),
        ));
    }
    let quarter = (driven.deltas.len() / 4).max(1);
    let commits_of =
        |range: &[[u64; 3]]| range.iter().map(|d| d[0] as f64).sum::<f64>() / range.len() as f64;
    notes.push(format!(
        "ledger commits per decision: {:.0} over the first quarter of the stream, {:.0} over the last",
        commits_of(&driven.deltas[..quarter]),
        commits_of(&driven.deltas[driven.deltas.len() - quarter..]),
    ));

    // model: building a scenario of the final admitted-set size, which
    // the engine does once per decision.
    let admitted: Vec<SubmitArgs> = stream
        .iter()
        .zip(&driven.admitted)
        .filter(|(_, kept)| **kept)
        .map(|(s, _)| s.clone())
        .collect();
    let admitted = stream_scenario(catalog, &admitted);
    let requests: Vec<_> = admitted.requests().map(|(_, r)| *r).collect();
    let build = median_time(5, || with_requests(catalog, requests.clone()));
    m.insert("model.scenario_build_us", micros(build));

    engine_verbs(ctx, case, driven.engine, m);
    Ok(tracer)
}

/// The engine's other verbs on the state the driver left: reads first,
/// then the fault script and three optimize passes.
fn engine_verbs(
    ctx: &Ctx,
    case: &Case,
    mut engine: AdmissionEngine,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let admitted = engine.admitted_count() as u32;
    let query = median_time(1, || {
        for request in 0..admitted.min(200) {
            std::hint::black_box(engine.query(request).ok());
        }
    });
    m.insert("service.engine.query_us", micros(query) / f64::from(admitted.clamp(1, 200)));
    m.insert("service.engine.snapshot_ms", millis(median_time(3, || engine.snapshot())));
    m.insert("service.engine.counters_us", micros(median_time(20, || engine.counters())));

    let count = if ctx.scale == Scale::Smoke { 4 } else { 20 };
    let (mut inject_ms, mut displaced, mut evicted) = (Vec::new(), 0u64, 0u64);
    for (link, at_ms) in outages(&case.scenario, count) {
        let args = InjectArgs { kind: InjectKind::LinkOutage { link }, at_ms };
        let started = Instant::now();
        let outcome = engine.inject(&args);
        inject_ms.push(millis(started.elapsed()));
        if let Ok(outcome) = outcome {
            displaced += outcome.displaced;
            evicted += outcome.evicted;
        }
    }
    m.insert("service.engine.inject_ms_p50", stats::median(&inject_ms));
    m.insert("service.engine.displaced_per_inject", displaced as f64 / count as f64);
    m.insert("service.engine.evicted_share", evicted as f64 / displaced.max(1) as f64);

    let (mut optimize_ms, mut attempts) = (Vec::new(), 0u64);
    for _ in 0..3 {
        let started = Instant::now();
        let outcome = engine.optimize(8);
        optimize_ms.push(millis(started.elapsed()));
        attempts += outcome.attempted;
    }
    m.insert("service.engine.optimize_ms", stats::median(&optimize_ms));
    m.insert("service.engine.swap_attempts", attempts as f64);
}

fn wal_segment(data_dir: &Path) -> Result<PathBuf, String> {
    std::fs::read_dir(data_dir)
        .map_err(|e| format!("{}: {e}", data_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .ok_or_else(|| format!("no WAL segment in {}", data_dir.display()))
}

/// `service.wal.*` on the records the driver logged, and
/// `service.durability.*` recovery and checkpoint on its data dir.
fn wal_and_durability_probes(
    case: &Case,
    data_dir: &Path,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let segment = wal_segment(data_dir)?;
    let scanning = median_time(5, || scan_segment(&segment).map(|s| s.records.len()).unwrap_or(0));
    let scan = scan_segment(&segment).map_err(io)?;
    let records = scan.records.len().max(1) as f64;
    m.insert("service.wal.scan_records_per_s", records / scanning.as_secs_f64());
    m.insert("service.wal.bytes_per_record", scan.valid_len as f64 / records);

    // Appends alone, then appends each followed by an fsync.
    let scratch_segment = data_dir.join("probe.segment");
    let mut writer = SegmentWriter::create(&scratch_segment).map_err(io)?;
    let started = Instant::now();
    for record in &scan.records {
        writer.append(&record.payload).map_err(io)?;
    }
    m.insert("service.wal.append_ns", nanos(started.elapsed()) / records);
    let mut fsync_us = Vec::new();
    for record in scan.records.iter().take(100) {
        writer.append(&record.payload).map_err(io)?;
        let started = Instant::now();
        writer.sync().map_err(io)?;
        fsync_us.push(micros(started.elapsed()));
    }
    drop(writer);
    std::fs::remove_file(&scratch_segment).map_err(io)?;
    m.insert(
        "service.wal.fsync_us_p50",
        if fsync_us.is_empty() { 0.0 } else { stats::median(&fsync_us) },
    );

    // Recovery from the WAL alone re-decides every record.
    let recover = || {
        Durability::recover(
            data_dir,
            FsyncPolicy::Always,
            u64::MAX,
            &case.scenario,
            SERVICE_HEURISTIC,
            service_config(),
        )
    };
    let started = Instant::now();
    let (durability, engine, recovered) = recover()?;
    let wall = started.elapsed();
    m.insert(
        "service.durability.recover_records_per_s",
        recovered.replayed as f64 / wall.as_secs_f64(),
    );
    let started = Instant::now();
    let checkpoint = durability.checkpoint(&engine).map_err(io)?;
    m.insert("service.durability.checkpoint_write_ms", millis(started.elapsed()));
    m.insert("service.durability.checkpoint_bytes", checkpoint.bytes as f64);
    drop(durability);
    let started = Instant::now();
    let (_, _, reloaded) = recover()?;
    m.insert("service.durability.checkpoint_load_ms", millis(started.elapsed()));
    if reloaded.checkpoint_records != checkpoint.covered {
        return Err("the checkpoint just written was not the one loaded".to_string());
    }
    Ok(())
}

/// `service.batch.*` and `service.server.*`: the scrape and the idle
/// `query` round trips of one untraced daemon round over the head of the
/// stream.
fn daemon_counts(
    ctx: &Ctx,
    workload: Workload,
    case: &Case,
    m: &mut BTreeMap<&'static str, f64>,
    report: &mut WorkloadReport,
) {
    let probe = serve_probe_round(ctx, workload, &case.head(TRACE_SUBMITS));
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    report.violations.extend(probe.violations);
    report
        .notes
        .extend(probe.known_defects.iter().map(|d| format!("KNOWN DEFECT of the program: {d}")));
    let service = |series: &str| format!("dstage_service_{series}");
    m.insert("service.batch.epochs", probe.scrape.count(&service("batches_total")));
    m.insert(
        "service.batch.mean_epoch_size",
        probe.scrape.ratio(&service("batch_size_sum"), &service("batch_size_count")),
    );
    m.insert(
        "service.batch.conflict_retry_share",
        probe.scrape.ratio(&service("conflict_retries_total"), &service("decisions_total")),
    );
    m.insert("service.batch.fallbacks", probe.scrape.count(&service("batch_fallbacks_total")));
    let or_zero = |samples: &[f64]| if samples.is_empty() { 0.0 } else { stats::median(samples) };
    m.insert("service.server.floor_rtt_us", or_zero(&probe.idle_query_us));
    m.insert("service.server.spawn_ms", or_zero(&probe.spawn_ms));
}

/// `sim.*`: the executor fanning units over `threads` workers, against
/// the same units on one.
fn executor_probe(
    ctx: &Ctx,
    workload: Workload,
    case: &Case,
    m: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let scenario = sim_scenario(workload, case);
    let scenarios = [&scenario];
    // The Figure-2 grid of the case on `sweep-paper`, where the executor
    // is part of the end-to-end path; eleven full-one units elsewhere.
    let units = if workload == Workload::SweepPaper {
        sweep_units(1, &Heuristic::ALL, &EuRatioPoint::PAPER_SWEEP)
    } else {
        full_one_units()
    };
    let mut sequential = vec![fan_out(&scenarios, &units, 1).wall.as_secs_f64()];
    let before = Scrape::in_process();
    let parallel = fan_out(&scenarios, &units, ctx.threads);
    let counts = Scrape::in_process().since(&before);
    let mut parallel_wall = vec![parallel.wall.as_secs_f64()];
    // Short fan-outs are repeated: one stolen time slice is a large
    // share of a 0.1 s wall on a two-core host.
    if sequential[0] < 0.5 {
        for _ in 0..2 {
            sequential.push(fan_out(&scenarios, &units, 1).wall.as_secs_f64());
            parallel_wall.push(fan_out(&scenarios, &units, ctx.threads).wall.as_secs_f64());
        }
    }
    m.insert("sim.work_units", counts.count("dstage_sim_work_units_total"));
    let unit_ms: Vec<f64> = parallel.unit_wall.iter().map(|d| millis(*d)).collect();
    let wait_us: Vec<f64> = parallel.queue_wait.iter().map(|d| micros(*d)).collect();
    m.insert("sim.unit_p50_ms", stats::median(&unit_ms));
    m.insert("sim.queue_wait_p50_us", stats::median(&wait_us));
    m.insert(
        "sim.parallel_efficiency",
        stats::median(&sequential) / (ctx.threads as f64 * stats::median(&parallel_wall)),
    );
    if ctx.nproc == 1 {
        notes.push(
            "nproc = 1: no parallel efficiency is printed, one thread ran both fan-outs"
                .to_string(),
        );
    }
}

/// `obs.tap_overhead_pct`: the executor probe's units in child processes
/// with `DSTAGE_OBS=1` against `DSTAGE_OBS=0`, three alternating pairs.
fn tap_overhead(ctx: &Ctx, workload: Workload) -> Result<f64, String> {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pair in 0..3 {
        let order = if pair % 2 == 0 { ["1", "0"] } else { ["0", "1"] };
        for switch in order {
            let ms = spawn_child_probe(ctx, workload, "sim", ("DSTAGE_OBS", switch))?;
            if switch == "1" { &mut on } else { &mut off }.push(ms);
        }
    }
    Ok(100.0 * (stats::median(&on) - stats::median(&off)) / stats::median(&off))
}
