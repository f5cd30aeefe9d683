//! A complete data staging problem instance.
//!
//! A [`Scenario`] bundles the network, the data-location table (items with
//! sources), the data-request table, the garbage-collection delay `γ`, and
//! the scheduling horizon, and validates the paper's §3 invariants.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::data::DataItem;
use crate::error::ScenarioError;
use crate::ids::{DataItemId, RequestId};
use crate::network::Network;
use crate::request::{P2mpRequest, Request};
use crate::time::{SimDuration, SimTime};

/// A validated data staging problem instance.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use dstage_model::prelude::*;
///
/// let mut b = NetworkBuilder::new();
/// let src = b.add_machine(Machine::new("src", Bytes::from_mib(64)));
/// let dst = b.add_machine(Machine::new("dst", Bytes::from_mib(64)));
/// b.add_link(VirtualLink::new(src, dst, SimTime::ZERO, SimTime::from_hours(1),
///     BitsPerSec::from_kbps(128)));
/// b.add_link(VirtualLink::new(dst, src, SimTime::ZERO, SimTime::from_hours(1),
///     BitsPerSec::from_kbps(128)));
///
/// let item = DataItem::new("map", Bytes::from_kib(100),
///     vec![DataSource::new(src, SimTime::ZERO)]);
/// let scenario = Scenario::builder(b.build())
///     .add_item(item)
///     .add_request(Request::new(DataItemId::new(0), dst,
///         SimTime::from_mins(30), Priority::HIGH))
///     .build()?;
/// assert_eq!(scenario.request_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    network: Network,
    items: Vec<DataItem>,
    requests: Vec<Request>,
    /// Requests grouped by item, precomputed.
    requests_by_item: Vec<Vec<RequestId>>,
    /// Point-to-multipoint groups: each inner vector lists the expanded
    /// per-destination requests of one [`P2mpRequest`]. `None` when the
    /// scenario has no P2MP requests, and skipped on serialization, so
    /// pre-P2MP scenario files round-trip byte-identically.
    #[serde(skip_serializing_if = "Option::is_none")]
    p2mp_groups: Option<Vec<Vec<RequestId>>>,
    gc_delay: SimDuration,
    horizon: SimTime,
}

impl Scenario {
    /// Reads a scenario file: a bare `Scenario` JSON, decoded straight
    /// from the text, or the `scenarios` exporter's wrapper object, whose
    /// `scenario` field is decoded in place.
    ///
    /// # Errors
    ///
    /// Returns a message naming `path` for an unreadable file, malformed
    /// JSON, or a catalog that is neither form.
    pub fn load_json(path: &str) -> Result<Scenario, String> {
        #[derive(Deserialize)]
        struct Exported {
            scenario: Option<Scenario>,
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let invalid = |e: serde_json::Error| format!("{path} is not a scenario JSON: {e}");
        let bare = match serde_json::from_str::<Scenario>(&text) {
            Ok(scenario) => return Ok(scenario),
            Err(e) if !e.is_data() => return Err(invalid(e)),
            Err(e) => e,
        };
        match serde_json::from_str::<Exported>(&text) {
            Ok(Exported { scenario: Some(scenario) }) => Ok(scenario),
            Ok(Exported { scenario: None }) => Err(invalid(bare)),
            Err(e) => Err(invalid(e)),
        }
    }

    /// Starts building a scenario on `network`.
    #[must_use]
    pub fn builder(network: Network) -> ScenarioBuilder {
        ScenarioBuilder {
            network,
            items: Vec::new(),
            requests: Vec::new(),
            p2mp_groups: Vec::new(),
            gc_delay: SimDuration::from_mins(6), // the paper's γ
            horizon: SimTime::from_hours(2),     // the paper's effective duration
        }
    }

    /// The communication system.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Number of distinct data items `n`.
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Number of requests (Σ over items of `Nrq`).
    #[must_use]
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Looks up a data item.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn item(&self, id: DataItemId) -> &DataItem {
        &self.items[id.index()]
    }

    /// Looks up a request.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn request(&self, id: RequestId) -> &Request {
        &self.requests[id.index()]
    }

    /// Iterates over all items with their ids.
    pub fn items(&self) -> impl Iterator<Item = (DataItemId, &DataItem)> + '_ {
        self.items.iter().enumerate().map(|(i, d)| (DataItemId::new(i as u32), d))
    }

    /// Iterates over all item ids.
    pub fn item_ids(&self) -> impl Iterator<Item = DataItemId> + 'static {
        (0..self.items.len() as u32).map(DataItemId::new)
    }

    /// Iterates over all requests with their ids.
    pub fn requests(&self) -> impl Iterator<Item = (RequestId, &Request)> + '_ {
        self.requests.iter().enumerate().map(|(i, r)| (RequestId::new(i as u32), r))
    }

    /// Iterates over all request ids.
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> + 'static {
        (0..self.requests.len() as u32).map(RequestId::new)
    }

    /// The requests for a given item (`Request[j, 0..Nrq[j]]`).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn requests_for(&self, item: DataItemId) -> &[RequestId] {
        &self.requests_by_item[item.index()]
    }

    /// The point-to-multipoint groups: each slice element lists the
    /// expanded per-destination request ids of one group, in submission
    /// order. Empty for scenarios without P2MP requests.
    ///
    /// Satisfaction stays per-request — every satisfied destination earns
    /// its own `W[p]` — so the groups carry no scheduling semantics of
    /// their own; they record which requests share an upstream intent and
    /// let reports aggregate per-group outcomes.
    #[must_use]
    pub fn p2mp_groups(&self) -> &[Vec<RequestId>] {
        self.p2mp_groups.as_deref().unwrap_or(&[])
    }

    /// The garbage-collection delay `γ`: intermediate copies of an item are
    /// reclaimed `γ` after the item's latest deadline (paper §4.4).
    #[must_use]
    pub fn gc_delay(&self) -> SimDuration {
        self.gc_delay
    }

    /// End of the scheduling horizon; sources and destinations hold their
    /// copies until this time.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The latest deadline among the requests for `item`, or `None` if the
    /// item is not requested.
    #[must_use]
    pub fn latest_deadline(&self, item: DataItemId) -> Option<SimTime> {
        self.requests_for(item).iter().map(|&r| self.request(r).deadline()).max()
    }

    /// The garbage-collection time for `item` on intermediate machines:
    /// `latest deadline + γ`, capped at the horizon. Unrequested items are
    /// never staged, so they have no GC time.
    #[must_use]
    pub fn gc_time(&self, item: DataItemId) -> Option<SimTime> {
        self.latest_deadline(item).map(|d| (d + self.gc_delay).min(self.horizon))
    }

    /// Validates one more request against the paper's §3 invariants and
    /// appends it, indexed under its item — the in-place counterpart of
    /// [`ScenarioBuilder::add_request`] for a scenario that grows while it
    /// is being served. Returns the id the request was given.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] [`ScenarioBuilder::build`] reports
    /// for the same request (unknown item or machine, an item without
    /// sources, a source as destination, a duplicate pair); the scenario
    /// is unchanged.
    pub fn push_request(&mut self, request: Request) -> Result<RequestId, ScenarioError> {
        let id = RequestId::new(self.requests.len() as u32);
        let Some(item) = self.items.get(request.item().index()) else {
            return Err(ScenarioError::UnknownItem { request: id, item: request.item() });
        };
        if request.destination().index() >= self.network.machine_count() {
            return Err(ScenarioError::UnknownMachine {
                machine: request.destination(),
                context: "request destination",
            });
        }
        if item.sources().is_empty() {
            return Err(ScenarioError::RequestedItemWithoutSources { item: request.item() });
        }
        if item.has_source(request.destination()) {
            return Err(ScenarioError::SourceIsDestination {
                request: id,
                machine: request.destination(),
            });
        }
        let siblings = &mut self.requests_by_item[request.item().index()];
        if let Some(&first) = siblings
            .iter()
            .find(|&&r| self.requests[r.index()].destination() == request.destination())
        {
            return Err(ScenarioError::DuplicateRequest { first, second: id });
        }
        siblings.push(id);
        self.requests.push(request);
        Ok(id)
    }

    /// Removes the most recently pushed request (the inverse of
    /// [`Scenario::push_request`]); `None` when there is none.
    pub fn pop_request(&mut self) -> Option<Request> {
        let request = self.requests.pop()?;
        self.requests_by_item[request.item().index()].pop();
        Some(request)
    }

    /// Moves the end of the scheduling horizon. A served scenario
    /// stretches it when a new deadline plus `γ` would pass it, and moves
    /// it back when that request is withdrawn.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }
}

/// Builder for [`Scenario`]; see [`Scenario::builder`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    network: Network,
    items: Vec<DataItem>,
    requests: Vec<Request>,
    p2mp_groups: Vec<Vec<RequestId>>,
    gc_delay: SimDuration,
    horizon: SimTime,
}

impl ScenarioBuilder {
    /// Adds a data item and returns its id.
    pub fn add_item(mut self, item: DataItem) -> Self {
        self.items.push(item);
        self
    }

    /// Adds a request.
    pub fn add_request(mut self, request: Request) -> Self {
        self.requests.push(request);
        self
    }

    /// Adds several requests.
    pub fn add_requests(mut self, requests: impl IntoIterator<Item = Request>) -> Self {
        self.requests.extend(requests);
        self
    }

    /// Adds a point-to-multipoint request: it expands into one
    /// per-destination [`Request`] (so the heuristics need no special
    /// casing) and the expanded ids are recorded as a group retrievable
    /// via [`Scenario::p2mp_groups`]. A duplicate destination within the
    /// group surfaces as [`ScenarioError::DuplicateRequest`] at build
    /// time; an empty destination set as
    /// [`ScenarioError::EmptyP2mpGroup`].
    pub fn add_p2mp_request(mut self, p2mp: &P2mpRequest) -> Self {
        let first = self.requests.len() as u32;
        self.requests.extend(p2mp.expand());
        let ids = (first..self.requests.len() as u32).map(RequestId::new).collect();
        self.p2mp_groups.push(ids);
        self
    }

    /// Overrides the garbage-collection delay `γ` (default: 6 minutes).
    #[must_use]
    pub fn gc_delay(mut self, gamma: SimDuration) -> Self {
        self.gc_delay = gamma;
        self
    }

    /// Overrides the scheduling horizon (default: 2 hours).
    #[must_use]
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Validates the invariants of paper §3 and produces the scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if item names collide, any referenced
    /// machine or item id is out of range, a requested item has no sources,
    /// a machine is both source and destination of the same item, a machine
    /// requests the same item twice, an item lists a source twice, or a
    /// point-to-multipoint request has no destinations.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let m = self.network.machine_count();

        let mut names: HashMap<&str, DataItemId> = HashMap::new();
        for (i, item) in self.items.iter().enumerate() {
            let id = DataItemId::new(i as u32);
            if let Some(&first) = names.get(item.name()) {
                return Err(ScenarioError::DuplicateItemName {
                    name: item.name().to_string(),
                    first,
                    second: id,
                });
            }
            names.insert(item.name(), id);
            let mut seen = Vec::new();
            for src in item.sources() {
                if src.machine.index() >= m {
                    return Err(ScenarioError::UnknownMachine {
                        machine: src.machine,
                        context: "data item source",
                    });
                }
                if seen.contains(&src.machine) {
                    return Err(ScenarioError::DuplicateSource { item: id, machine: src.machine });
                }
                seen.push(src.machine);
            }
        }

        let mut scenario = Scenario {
            network: self.network,
            requests_by_item: vec![Vec::new(); self.items.len()],
            items: self.items,
            requests: Vec::with_capacity(self.requests.len()),
            p2mp_groups: if self.p2mp_groups.is_empty() { None } else { Some(self.p2mp_groups) },
            gc_delay: self.gc_delay,
            horizon: self.horizon,
        };
        for request in self.requests {
            scenario.push_request(request)?;
        }
        if let Some(group) = scenario.p2mp_groups().iter().position(Vec::is_empty) {
            return Err(ScenarioError::EmptyP2mpGroup { group });
        }
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataSource;
    use crate::ids::MachineId;
    use crate::link::VirtualLink;
    use crate::machine::Machine;
    use crate::request::Priority;
    use crate::units::{BitsPerSec, Bytes};

    fn net(n: usize) -> Network {
        let mut b = crate::network::NetworkBuilder::new();
        for i in 0..n {
            b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(100)));
        }
        for i in 0..n as u32 {
            let j = (i + 1) % n as u32;
            b.add_link(VirtualLink::new(
                MachineId::new(i),
                MachineId::new(j),
                SimTime::ZERO,
                SimTime::from_hours(2),
                BitsPerSec::from_kbps(100),
            ));
        }
        b.build()
    }

    fn item_at(src: u32) -> DataItem {
        DataItem::new(
            format!("item-src{src}"),
            Bytes::from_kib(10),
            vec![DataSource::new(MachineId::new(src), SimTime::ZERO)],
        )
    }

    #[test]
    fn build_valid_scenario() {
        let s = Scenario::builder(net(3))
            .add_item(item_at(0))
            .add_request(Request::new(
                DataItemId::new(0),
                MachineId::new(2),
                SimTime::from_mins(30),
                Priority::LOW,
            ))
            .build()
            .unwrap();
        assert_eq!(s.item_count(), 1);
        assert_eq!(s.request_count(), 1);
        assert_eq!(s.requests_for(DataItemId::new(0)), &[RequestId::new(0)]);
        assert_eq!(s.gc_delay(), SimDuration::from_mins(6));
        assert_eq!(s.horizon(), SimTime::from_hours(2));
    }

    #[test]
    fn duplicate_item_names_rejected() {
        let err = Scenario::builder(net(2))
            .add_item(DataItem::new(
                "x",
                Bytes::ZERO,
                vec![DataSource::new(MachineId::new(0), SimTime::ZERO)],
            ))
            .add_item(DataItem::new(
                "x",
                Bytes::ZERO,
                vec![DataSource::new(MachineId::new(1), SimTime::ZERO)],
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::DuplicateItemName { .. }));
    }

    #[test]
    fn unknown_source_machine_rejected() {
        let err = Scenario::builder(net(2))
            .add_item(DataItem::new(
                "x",
                Bytes::ZERO,
                vec![DataSource::new(MachineId::new(9), SimTime::ZERO)],
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownMachine { .. }));
    }

    #[test]
    fn unknown_request_item_rejected() {
        let err = Scenario::builder(net(2))
            .add_request(Request::new(
                DataItemId::new(5),
                MachineId::new(1),
                SimTime::from_mins(1),
                Priority::LOW,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownItem { .. }));
    }

    #[test]
    fn requested_item_without_sources_rejected() {
        let err = Scenario::builder(net(2))
            .add_item(DataItem::new("x", Bytes::ZERO, vec![]))
            .add_request(Request::new(
                DataItemId::new(0),
                MachineId::new(1),
                SimTime::from_mins(1),
                Priority::LOW,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::RequestedItemWithoutSources { .. }));
    }

    #[test]
    fn source_as_destination_rejected() {
        let err = Scenario::builder(net(2))
            .add_item(item_at(0))
            .add_request(Request::new(
                DataItemId::new(0),
                MachineId::new(0),
                SimTime::from_mins(1),
                Priority::LOW,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::SourceIsDestination { .. }));
    }

    #[test]
    fn duplicate_requests_rejected() {
        let req = Request::new(
            DataItemId::new(0),
            MachineId::new(1),
            SimTime::from_mins(1),
            Priority::LOW,
        );
        let err = Scenario::builder(net(2))
            .add_item(item_at(0))
            .add_request(req)
            .add_request(req)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::DuplicateRequest { .. }));
    }

    #[test]
    fn duplicate_sources_rejected() {
        let err = Scenario::builder(net(2))
            .add_item(DataItem::new(
                "x",
                Bytes::ZERO,
                vec![
                    DataSource::new(MachineId::new(0), SimTime::ZERO),
                    DataSource::new(MachineId::new(0), SimTime::from_mins(1)),
                ],
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::DuplicateSource { .. }));
    }

    #[test]
    fn same_item_two_destinations_allowed_with_distinct_deadlines() {
        let s = Scenario::builder(net(3))
            .add_item(item_at(0))
            .add_request(Request::new(
                DataItemId::new(0),
                MachineId::new(1),
                SimTime::from_mins(10),
                Priority::LOW,
            ))
            .add_request(Request::new(
                DataItemId::new(0),
                MachineId::new(2),
                SimTime::from_mins(20),
                Priority::HIGH,
            ))
            .build()
            .unwrap();
        assert_eq!(s.requests_for(DataItemId::new(0)).len(), 2);
        assert_eq!(s.latest_deadline(DataItemId::new(0)), Some(SimTime::from_mins(20)));
        assert_eq!(
            s.gc_time(DataItemId::new(0)),
            Some(SimTime::from_mins(26)) // 20 min deadline + 6 min γ
        );
    }

    #[test]
    fn gc_time_caps_at_horizon() {
        let s = Scenario::builder(net(2))
            .add_item(item_at(0))
            .add_request(Request::new(
                DataItemId::new(0),
                MachineId::new(1),
                SimTime::from_mins(118),
                Priority::LOW,
            ))
            .build()
            .unwrap();
        // 118 min + 6 min = 124 min > 120 min horizon.
        assert_eq!(s.gc_time(DataItemId::new(0)), Some(SimTime::from_hours(2)));
    }

    #[test]
    fn gc_time_none_for_unrequested_item() {
        let s = Scenario::builder(net(2)).add_item(item_at(0)).build().unwrap();
        assert_eq!(s.latest_deadline(DataItemId::new(0)), None);
        assert_eq!(s.gc_time(DataItemId::new(0)), None);
    }

    #[test]
    fn p2mp_request_expands_into_a_recorded_group() {
        let s = Scenario::builder(net(4))
            .add_item(item_at(0))
            .add_p2mp_request(&crate::request::P2mpRequest::new(
                DataItemId::new(0),
                vec![MachineId::new(1), MachineId::new(2), MachineId::new(3)],
                SimTime::from_mins(30),
                Priority::HIGH,
            ))
            .build()
            .unwrap();
        assert_eq!(s.request_count(), 3);
        assert_eq!(s.p2mp_groups().len(), 1);
        assert_eq!(
            s.p2mp_groups()[0],
            vec![RequestId::new(0), RequestId::new(1), RequestId::new(2)]
        );
        for (i, &rid) in s.p2mp_groups()[0].iter().enumerate() {
            let r = s.request(rid);
            assert_eq!(r.destination(), MachineId::new(i as u32 + 1));
            assert_eq!(r.deadline(), SimTime::from_mins(30));
            assert_eq!(r.priority(), Priority::HIGH);
        }
    }

    #[test]
    fn empty_p2mp_group_rejected() {
        let err = Scenario::builder(net(2))
            .add_item(item_at(0))
            .add_p2mp_request(&crate::request::P2mpRequest::new(
                DataItemId::new(0),
                vec![],
                SimTime::from_mins(30),
                Priority::LOW,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::EmptyP2mpGroup { group: 0 }));
    }

    #[test]
    fn p2mp_duplicate_destination_rejected_as_duplicate_request() {
        let err = Scenario::builder(net(3))
            .add_item(item_at(0))
            .add_p2mp_request(&crate::request::P2mpRequest::new(
                DataItemId::new(0),
                vec![MachineId::new(1), MachineId::new(1)],
                SimTime::from_mins(30),
                Priority::LOW,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::DuplicateRequest { .. }));
    }

    #[test]
    fn scenarios_without_p2mp_serialize_without_the_field() {
        let s = Scenario::builder(net(2))
            .add_item(item_at(0))
            .add_request(Request::new(
                DataItemId::new(0),
                MachineId::new(1),
                SimTime::from_mins(30),
                Priority::LOW,
            ))
            .build()
            .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("p2mp_groups"), "plain scenarios must stay byte-compatible");
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert!(back.p2mp_groups().is_empty());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn p2mp_groups_round_trip_through_serialization() {
        let s = Scenario::builder(net(3))
            .add_item(item_at(0))
            .add_p2mp_request(&crate::request::P2mpRequest::new(
                DataItemId::new(0),
                vec![MachineId::new(1), MachineId::new(2)],
                SimTime::from_mins(30),
                Priority::MEDIUM,
            ))
            .build()
            .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("p2mp_groups"));
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.p2mp_groups(), s.p2mp_groups());
    }

    #[test]
    fn push_request_validates_like_build_and_pop_undoes_it() {
        let request = |item: u32, dest: u32| {
            Request::new(
                DataItemId::new(item),
                MachineId::new(dest),
                SimTime::from_mins(30),
                Priority::LOW,
            )
        };
        let mut s = Scenario::builder(net(3))
            .add_item(item_at(0))
            .add_item(DataItem::new("nowhere", Bytes::ZERO, vec![]))
            .build()
            .unwrap();
        assert_eq!(s.push_request(request(0, 2)), Ok(RequestId::new(0)));
        assert_eq!(s.requests_for(DataItemId::new(0)), &[RequestId::new(0)]);
        // Every refusal names the id the request would have had and
        // leaves the scenario as it was.
        let second = RequestId::new(1);
        assert_eq!(
            s.push_request(request(9, 1)),
            Err(ScenarioError::UnknownItem { request: second, item: DataItemId::new(9) })
        );
        assert!(matches!(s.push_request(request(0, 7)), Err(ScenarioError::UnknownMachine { .. })));
        assert!(matches!(
            s.push_request(request(1, 1)),
            Err(ScenarioError::RequestedItemWithoutSources { .. })
        ));
        assert_eq!(
            s.push_request(request(0, 0)),
            Err(ScenarioError::SourceIsDestination { request: second, machine: MachineId::new(0) })
        );
        assert_eq!(
            s.push_request(request(0, 2)),
            Err(ScenarioError::DuplicateRequest { first: RequestId::new(0), second })
        );
        assert_eq!(s.request_count(), 1);
        assert_eq!(s.push_request(request(0, 1)), Ok(second));
        assert_eq!(s.pop_request(), Some(request(0, 1)));
        assert_eq!(s.requests_for(DataItemId::new(0)), &[RequestId::new(0)]);
        assert_eq!(s.push_request(request(0, 1)), Ok(second), "the pair is free again");
    }

    #[test]
    fn builder_overrides_apply() {
        let s = Scenario::builder(net(2))
            .gc_delay(SimDuration::from_mins(1))
            .horizon(SimTime::from_hours(4))
            .build()
            .unwrap();
        assert_eq!(s.gc_delay(), SimDuration::from_mins(1));
        assert_eq!(s.horizon(), SimTime::from_hours(4));
    }
}
