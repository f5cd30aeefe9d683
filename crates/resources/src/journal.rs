//! Append-only journal of consumed resources.
//!
//! The scheduler's dirty-item tree cache needs to know *which* links and
//! stores moved since each cached tree was last checked — to pick the
//! hops of a tree that must be probed again before it is served. The
//! ledger's own mutation surface is consumption-only ([`crate::ledger::NetworkLedger`]
//! has no release APIs), so a simple append-only log suffices: every
//! consumer records what it touched, and a reader compares its saved
//! [`JournalMark`] against the current tail.
//!
//! The journal is owned by the caller (the scheduler state), not embedded
//! in the ledger, so serialized ledgers and service snapshots are
//! unchanged byte for byte.

use dstage_model::ids::{MachineId, VirtualLinkId};

/// A position in a [`ChangeJournal`]; taken when a tree is built or its
/// read paths are validated, and compared against the tail later.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JournalMark {
    links: usize,
    machines: usize,
}

/// Append-only log of consumed links and stores.
///
/// # Examples
///
/// ```
/// use dstage_model::ids::{MachineId, VirtualLinkId};
/// use dstage_resources::journal::ChangeJournal;
///
/// let mut journal = ChangeJournal::default();
/// let mark = journal.mark();
/// journal.record_link(VirtualLinkId::new(3));
/// journal.record_machine(MachineId::new(1));
/// let (links, machines) = journal.since(mark);
/// assert_eq!(links, &[VirtualLinkId::new(3)]);
/// assert_eq!(machines, &[MachineId::new(1)]);
/// assert!(journal.is_clean(journal.mark()));
/// ```
#[derive(Debug, Default, Clone)]
pub struct ChangeJournal {
    links: Vec<VirtualLinkId>,
    machines: Vec<MachineId>,
}

impl ChangeJournal {
    /// The current tail position.
    #[must_use]
    pub fn mark(&self) -> JournalMark {
        JournalMark { links: self.links.len(), machines: self.machines.len() }
    }

    /// Records capacity consumed on `link`.
    ///
    /// Duplicates are recorded verbatim — never collapsed, even against
    /// the current tail. A reader whose mark already covers the tail must
    /// still see a *new* consumption of the same link, or it would serve a
    /// stale tree as clean.
    pub fn record_link(&mut self, link: VirtualLinkId) {
        self.links.push(link);
    }

    /// Records storage consumed on `machine` (duplicates kept verbatim;
    /// see [`ChangeJournal::record_link`]).
    pub fn record_machine(&mut self, machine: MachineId) {
        self.machines.push(machine);
    }

    /// Everything consumed after `mark` was taken: `(links, machines)`.
    /// Entries may repeat non-consecutively; readers treat them as sets.
    ///
    /// # Panics
    ///
    /// Panics if `mark` was taken from a different (longer) journal.
    #[must_use]
    pub fn since(&self, mark: JournalMark) -> (&[VirtualLinkId], &[MachineId]) {
        (&self.links[mark.links..], &self.machines[mark.machines..])
    }

    /// Forgets everything recorded, returning to the empty journal. Every
    /// [`JournalMark`] taken before is meaningless afterwards: the caller
    /// must hold no tree that was marked against the dropped records.
    pub fn clear(&mut self) {
        self.links.clear();
        self.machines.clear();
    }

    /// Number of records held, links and machines together.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len() + self.machines.len()
    }

    /// Whether nothing is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether nothing was consumed after `mark`.
    #[must_use]
    pub fn is_clean(&self, mark: JournalMark) -> bool {
        self.links.len() == mark.links && self.machines.len() == mark.machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> VirtualLinkId {
        VirtualLinkId::new(i)
    }

    fn m(i: u32) -> MachineId {
        MachineId::new(i)
    }

    #[test]
    fn marks_window_the_tail() {
        let mut j = ChangeJournal::default();
        j.record_link(l(0));
        let early = j.mark();
        j.record_link(l(1));
        j.record_machine(m(2));
        let (links, machines) = j.since(early);
        assert_eq!(links, &[l(1)]);
        assert_eq!(machines, &[m(2)]);
        assert_eq!(j.since(j.mark()), (&[][..], &[][..]));
    }

    #[test]
    fn repeat_consumption_of_the_tail_stays_visible_to_marked_readers() {
        // Regression: collapsing a record equal to the current tail hides
        // post-mark consumption from readers whose mark covers the tail.
        let mut j = ChangeJournal::default();
        j.record_link(l(4));
        j.record_machine(m(1));
        let mark = j.mark();
        j.record_link(l(4));
        j.record_machine(m(1));
        let (links, machines) = j.since(mark);
        assert_eq!(links, &[l(4)]);
        assert_eq!(machines, &[m(1)]);
        assert!(!j.is_clean(mark));
    }

    #[test]
    fn clean_marks_stay_clean_until_a_record() {
        let mut j = ChangeJournal::default();
        let mark = j.mark();
        assert!(j.is_clean(mark));
        j.record_machine(m(0));
        assert!(!j.is_clean(mark));
        assert!(j.is_clean(j.mark()));
    }
}
