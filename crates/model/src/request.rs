//! Data requests, priorities, and priority weightings.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{DataItemId, MachineId};
use crate::time::SimTime;

/// A request priority level: `0..=P`, where larger is more important
/// (`P` is the class of most important requests, paper §3).
///
/// The simulation study uses three levels; [`Priority::LOW`],
/// [`Priority::MEDIUM`], and [`Priority::HIGH`] name them, but any number
/// of levels is supported via [`Priority::new`].
///
/// # Examples
///
/// ```
/// use dstage_model::request::Priority;
///
/// assert!(Priority::HIGH > Priority::LOW);
/// assert_eq!(Priority::new(1), Priority::MEDIUM);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Priority(u8);

impl Priority {
    /// The lowest of the three standard levels (level 0).
    pub const LOW: Priority = Priority(0);
    /// The middle of the three standard levels (level 1).
    pub const MEDIUM: Priority = Priority(1);
    /// The highest of the three standard levels (level 2, the paper's `P`).
    pub const HIGH: Priority = Priority(2);

    /// Creates a priority from a raw level.
    #[must_use]
    pub const fn new(level: u8) -> Self {
        Priority(level)
    }

    /// The raw level.
    #[must_use]
    pub const fn level(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Priority::LOW => write!(f, "low"),
            Priority::MEDIUM => write!(f, "medium"),
            Priority::HIGH => write!(f, "high"),
            Priority(p) => write!(f, "p{p}"),
        }
    }
}

/// The relative weights `W[0..=P]` of the priority levels.
///
/// The simulation study compares the `1,5,10` and `1,10,100` weightings.
///
/// # Examples
///
/// ```
/// use dstage_model::request::{Priority, PriorityWeights};
///
/// let w = PriorityWeights::paper_1_10_100();
/// assert_eq!(w.weight(Priority::HIGH), 100);
/// assert_eq!(w.weight(Priority::LOW), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PriorityWeights {
    weights: Vec<u64>,
}

impl PriorityWeights {
    /// The paper's first weighting: low 1, medium 5, high 10.
    #[must_use]
    pub fn paper_1_5_10() -> Self {
        PriorityWeights::new(vec![1, 5, 10])
    }

    /// The paper's second weighting: low 1, medium 10, high 100.
    #[must_use]
    pub fn paper_1_10_100() -> Self {
        PriorityWeights::new(vec![1, 10, 100])
    }

    /// Parses one of the paper's two weightings written as its weights,
    /// `1,5,10` or `1,10,100`.
    #[must_use]
    pub fn paper_from_label(name: &str) -> Option<Self> {
        match name {
            "1,5,10" => Some(PriorityWeights::paper_1_5_10()),
            "1,10,100" => Some(PriorityWeights::paper_1_10_100()),
            _ => None,
        }
    }

    /// Creates a weighting from the weights of levels `0..=P`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    #[must_use]
    pub fn new(weights: Vec<u64>) -> Self {
        assert!(!weights.is_empty(), "at least one priority level is required");
        PriorityWeights { weights }
    }

    /// The number of priority levels (`P + 1`).
    #[must_use]
    pub fn levels(&self) -> u8 {
        self.weights.len() as u8
    }

    /// The highest priority `P`.
    #[must_use]
    pub fn highest(&self) -> Priority {
        Priority::new(self.levels() - 1)
    }

    /// The weight `W[p]` of a priority level.
    ///
    /// # Panics
    ///
    /// Panics if `p` exceeds the configured highest level.
    #[must_use]
    pub fn weight(&self, p: Priority) -> u64 {
        self.weights[p.level() as usize]
    }

    /// All levels from lowest to highest.
    pub fn priorities(&self) -> impl Iterator<Item = Priority> + '_ {
        (0..self.levels()).map(Priority::new)
    }
}

/// The weights in level order, comma-separated (`1,10,100`): the label
/// [`PriorityWeights::paper_from_label`] reads.
impl core::fmt::Display for PriorityWeights {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let weights: Vec<String> = self.weights.iter().map(u64::to_string).collect();
        f.write_str(&weights.join(","))
    }
}

/// One data request: the `k`-th request for item `Rq[j]`, destined for
/// machine `Request[j,k]` with deadline `Rft[j,k]` and priority
/// `Priority[j,k]`.
///
/// # Examples
///
/// ```
/// use dstage_model::request::{Priority, Request};
/// use dstage_model::ids::{DataItemId, MachineId};
/// use dstage_model::time::SimTime;
///
/// let r = Request::new(
///     DataItemId::new(0),
///     MachineId::new(4),
///     SimTime::from_mins(45),
///     Priority::HIGH,
/// );
/// assert_eq!(r.destination(), MachineId::new(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Request {
    item: DataItemId,
    destination: MachineId,
    deadline: SimTime,
    priority: Priority,
}

impl Request {
    /// Creates a request.
    #[must_use]
    pub fn new(
        item: DataItemId,
        destination: MachineId,
        deadline: SimTime,
        priority: Priority,
    ) -> Self {
        Request { item, destination, deadline, priority }
    }

    /// The requested data item.
    #[must_use]
    pub fn item(&self) -> DataItemId {
        self.item
    }

    /// The requesting machine.
    #[must_use]
    pub fn destination(&self) -> MachineId {
        self.destination
    }

    /// The deadline `Rft` after which the item is no longer useful.
    #[must_use]
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// The request's priority.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// A point-to-multipoint request: one data item wanted at several
/// destinations under a common deadline and priority.
///
/// Satisfaction is **per-destination** — each destination that receives
/// the item by the deadline earns the full weight `W[p]` on its own —
/// but the transfers serving the group share upstream staged copies: a
/// hop into an intermediate machine is paid once and every downstream
/// destination reads from the staged copy. The scheduler models this by
/// expanding the group into one [`Request`] per destination
/// ([`P2mpRequest::expand`]); the shared-copy accounting falls out of
/// the copy tracker, which never re-stages an item a machine already
/// holds early enough.
///
/// # Examples
///
/// ```
/// use dstage_model::request::{P2mpRequest, Priority};
/// use dstage_model::ids::{DataItemId, MachineId};
/// use dstage_model::time::SimTime;
///
/// let group = P2mpRequest::new(
///     DataItemId::new(0),
///     vec![MachineId::new(3), MachineId::new(4)],
///     SimTime::from_mins(45),
///     Priority::HIGH,
/// );
/// assert_eq!(group.expand().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct P2mpRequest {
    item: DataItemId,
    destinations: Vec<MachineId>,
    deadline: SimTime,
    priority: Priority,
}

impl P2mpRequest {
    /// Creates a point-to-multipoint request.
    #[must_use]
    pub fn new(
        item: DataItemId,
        destinations: Vec<MachineId>,
        deadline: SimTime,
        priority: Priority,
    ) -> Self {
        P2mpRequest { item, destinations, deadline, priority }
    }

    /// The requested data item.
    #[must_use]
    pub fn item(&self) -> DataItemId {
        self.item
    }

    /// The requesting machines, in submission order.
    #[must_use]
    pub fn destinations(&self) -> &[MachineId] {
        &self.destinations
    }

    /// The common deadline `Rft` for every destination in the group.
    #[must_use]
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// The group's priority.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Expands the group into one single-destination [`Request`] per
    /// destination, in order.
    pub fn expand(&self) -> impl Iterator<Item = Request> + '_ {
        self.destinations
            .iter()
            .map(move |&d| Request::new(self.item, d, self.deadline, self.priority))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority::LOW < Priority::MEDIUM);
        assert!(Priority::MEDIUM < Priority::HIGH);
        assert_eq!(Priority::new(2), Priority::HIGH);
        assert_eq!(Priority::HIGH.level(), 2);
    }

    #[test]
    fn priority_display() {
        assert_eq!(Priority::LOW.to_string(), "low");
        assert_eq!(Priority::MEDIUM.to_string(), "medium");
        assert_eq!(Priority::HIGH.to_string(), "high");
        assert_eq!(Priority::new(7).to_string(), "p7");
    }

    #[test]
    fn weights_lookup() {
        let w = PriorityWeights::new(vec![1, 10, 100]);
        assert_eq!(w.weight(Priority::LOW), 1);
        assert_eq!(w.weight(Priority::MEDIUM), 10);
        assert_eq!(w.weight(Priority::HIGH), 100);
        assert_eq!(w.levels(), 3);
        assert_eq!(w.highest(), Priority::HIGH);
    }

    #[test]
    fn weights_iterate_levels() {
        let w = PriorityWeights::new(vec![2, 4]);
        let levels: Vec<Priority> = w.priorities().collect();
        assert_eq!(levels, vec![Priority::new(0), Priority::new(1)]);
    }

    #[test]
    fn paper_weightings_parse_from_their_weights() {
        assert_eq!(
            PriorityWeights::paper_from_label("1,5,10"),
            Some(PriorityWeights::paper_1_5_10())
        );
        assert_eq!(
            PriorityWeights::paper_from_label("1,10,100"),
            Some(PriorityWeights::paper_1_10_100())
        );
        assert_eq!(PriorityWeights::paper_from_label("1,2,3"), None);
    }

    #[test]
    #[should_panic(expected = "at least one priority level")]
    fn empty_weights_rejected() {
        let _ = PriorityWeights::new(vec![]);
    }

    #[test]
    fn p2mp_expands_in_destination_order() {
        let group = P2mpRequest::new(
            DataItemId::new(1),
            vec![MachineId::new(4), MachineId::new(2), MachineId::new(7)],
            SimTime::from_mins(40),
            Priority::HIGH,
        );
        let expanded: Vec<Request> = group.expand().collect();
        assert_eq!(expanded.len(), 3);
        for (req, &dest) in expanded.iter().zip(group.destinations()) {
            assert_eq!(req.item(), DataItemId::new(1));
            assert_eq!(req.destination(), dest);
            assert_eq!(req.deadline(), SimTime::from_mins(40));
            assert_eq!(req.priority(), Priority::HIGH);
        }
    }

    #[test]
    fn request_accessors() {
        let r = Request::new(
            DataItemId::new(2),
            MachineId::new(5),
            SimTime::from_mins(30),
            Priority::MEDIUM,
        );
        assert_eq!(r.item(), DataItemId::new(2));
        assert_eq!(r.destination(), MachineId::new(5));
        assert_eq!(r.deadline(), SimTime::from_mins(30));
        assert_eq!(r.priority(), Priority::MEDIUM);
    }
}
