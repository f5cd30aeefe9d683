//! A brute-force check of the model's constraints on a `snapshot()` reply,
//! from its JSON and the catalog alone: it shares no code with the ledger
//! (no `dstage-resources`), so a ledger bug cannot hide from it. Quadratic
//! where that is simplest.

use std::collections::HashMap;

use dstage_model::prelude::*;
use serde::Value;

fn uint(value: &Value, name: &str) -> u64 {
    value.get(name).and_then(Value::as_u64).unwrap_or_else(|| panic!("no `{name}` in {value:?}"))
}

fn array<'a>(value: &'a Value, name: &str) -> &'a [Value] {
    value.get(name).and_then(Value::as_array).unwrap_or_else(|| panic!("no `{name}` in {value:?}"))
}

fn text<'a>(value: &'a Value, name: &str) -> &'a str {
    value.get(name).and_then(Value::as_str).unwrap_or_else(|| panic!("no `{name}` in {value:?}"))
}

/// Every violated constraint (empty = the snapshot is a valid schedule):
/// per link, windows pairwise disjoint, inside the link's window and as
/// long as the item takes; per machine, the bytes of sources and staged
/// copies within capacity whenever a staged copy is held; every transfer's
/// source holding the item at `start`; every satisfied request with a copy
/// at its destination that survives to its deadline.
pub fn violations(snapshot: &Value, catalog: &Scenario) -> Vec<String> {
    let mut found = Vec::new();
    let item_id: HashMap<&str, u64> =
        catalog.items().map(|(id, item)| (item.name(), id.index() as u64)).collect();
    let item_of = |item: u64| catalog.item(DataItemId::new(item as u32));
    // Committed transfers as `(item, from, to, link, start, arrival)`.
    let hops: Vec<(u64, u64, u64, u64, u64, u64)> =
        array(snapshot.get("schedule").expect("schedule"), "transfers")
            .iter()
            .map(|t| {
                let [item, from, to, link, start, arrival] =
                    ["item", "from", "to", "link", "start", "arrival"].map(|name| uint(t, name));
                (item, from, to, link, start, arrival)
            })
            .collect();
    // Admitted requests `(item, destination, deadline)` by id, and the
    // copy losses `(item, machine, at)`, from the decision log.
    let log = array(snapshot, "log");
    let mut asked: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    let mut losses: Vec<(u64, u64, u64)> = Vec::new();
    let ask = |record: &Value| {
        (item_id[text(record, "item")], uint(record, "destination"), uint(record, "deadline_ms"))
    };
    for record in log {
        match text(record, "verb") {
            "submit" if record.get("request").is_some() => {
                asked.insert(uint(record, "request"), ask(record));
            }
            "optimize" => {
                for swap in array(record, "swaps") {
                    let refused = &log[uint(swap, "submission") as usize];
                    asked.insert(uint(swap, "admitted"), ask(refused));
                }
            }
            "inject" if text(record, "kind") == "copy_loss" => {
                let item = item_id[text(record, "item")];
                losses.push((item, uint(record, "machine"), uint(record, "at_ms")));
            }
            _ => {}
        }
    }
    let lost = |item: u64, machine: u64, from: u64, to: u64| {
        losses.iter().any(|&(i, m, at)| i == item && m == machine && from <= at && at <= to)
    };

    // Links: the window, the duration, pairwise overlap.
    for (a, &(item, from, to, link, start, arrival)) in hops.iter().enumerate() {
        let vl = catalog.network().link(VirtualLinkId::new(link as u32));
        let ends = (vl.source().index() as u64, vl.destination().index() as u64);
        let fits = vl.start().as_millis() <= start && arrival <= vl.end().as_millis();
        let takes = vl.transfer_time(item_of(item).size()).as_millis();
        if ends != (from, to) || !fits || arrival - start != takes {
            found.push(format!("transfer {a} does not fit link {link}: {:?}", hops[a]));
        }
        for (b, other) in hops.iter().enumerate().skip(a + 1) {
            if other.3 == link && start < other.5 && other.4 < arrival {
                found.push(format!("link {link}: transfers {a} and {b} overlap"));
            }
        }
        // Causality: an original source or an earlier arrival, not lost.
        let sources = item_of(item).sources().iter().filter(|s| s.machine.index() as u64 == from);
        let original = sources.map(|s| s.available_at.as_millis());
        let staged = hops.iter().filter(|h| h.0 == item && h.2 == from).map(|h| h.5);
        if !original.chain(staged).any(|at| at <= start && !lost(item, from, at, start)) {
            found.push(format!("transfer {a}: M{from} does not hold item {item} at {start}"));
        }
    }

    // Storage: a staged copy is held from its transfer's start to the
    // horizon on a destination of its item, to the item's latest deadline
    // plus γ elsewhere; a source from its availability to the horizon.
    let gamma = catalog.gc_delay().as_millis();
    let horizon = asked.values().map(|&(_, _, deadline)| deadline + gamma);
    let horizon = horizon.fold(catalog.horizon().as_millis(), u64::max);
    let mut holds: Vec<(u64, u64, u64, u64, bool)> = Vec::new(); // machine, from, until, bytes, staged
    for (id, item) in catalog.items() {
        for s in item.sources() {
            let (machine, from) = (s.machine.index() as u64, s.available_at.as_millis());
            holds.push((machine, from, horizon, item.size().as_u64(), false));
        }
        let wanted = || asked.values().filter(|ask| ask.0 == id.index() as u64);
        let collected = wanted().map(|ask| ask.2 + gamma).max().unwrap_or(0).min(horizon);
        for h in hops.iter().filter(|h| h.0 == id.index() as u64) {
            let until = if wanted().any(|ask| ask.1 == h.2) { horizon } else { collected };
            holds.push((h.2, h.4, until.max(h.5), item.size().as_u64(), true));
        }
    }
    for &(machine, instant, ..) in &holds {
        let held = || holds.iter().filter(|h| h.0 == machine && h.1 <= instant && instant < h.2);
        let bytes: u64 = held().map(|h| h.3).sum();
        let capacity =
            catalog.network().machine(MachineId::new(machine as u32)).capacity().as_u64();
        // Sources are placed whatever the capacity; nothing is staged beside
        // them unless it fits.
        if bytes > capacity && held().any(|h| h.4) {
            found.push(format!("M{machine} holds {bytes} of {capacity} bytes at {instant}"));
        }
    }

    // Promises: a copy at the destination by the deadline, still there then.
    for request in array(snapshot, "requests") {
        if text(request, "status") == "evicted" {
            continue;
        }
        let id = uint(request, "request");
        let (item, destination, deadline) = asked[&id];
        let arrivals = hops.iter().filter(|h| h.0 == item && h.2 == destination).map(|h| h.5);
        let mut kept =
            arrivals.filter(|&at| at <= deadline && !lost(item, destination, at, deadline));
        let eta = request.get("eta_ms").and_then(Value::as_u64);
        if !kept.any(|at| Some(at) == eta) {
            found.push(format!("request {id}: no surviving copy arrives at its eta {eta:?}"));
        }
    }
    found
}

/// Panics with every violated constraint of `snapshot`, named `when`.
pub fn assert_sound(snapshot: &Value, catalog: &Scenario, when: &str) {
    let found = violations(snapshot, catalog).join("\n");
    assert!(found.is_empty(), "{when}: the snapshot is not a valid schedule:\n{found}");
}
