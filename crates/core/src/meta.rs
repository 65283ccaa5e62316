//! BPST metaprediction (§6.1 alternative).

use std::collections::HashMap;

use ibp_trace::Addr;

use crate::counter::SaturatingCounter;
use crate::predictor::Predictor;
use crate::snapshot::{Snapshot, StructuralSnapshot};
use crate::table::TableHit;
use crate::two_level::TwoLevelPredictor;

/// A hybrid predictor arbitrated by a branch predictor selection table
/// (BPST, McFarling-style) instead of per-entry confidence counters.
///
/// A two-bit counter per *branch* tracks which of the two components has
/// been more accurate for that branch lately; the counter's high half
/// selects the second component. The paper argues its per-*pattern*
/// confidence scheme is finer grained than this per-branch scheme; the
/// `ablation_metapredictor` runner compares the two.
///
/// The selection table here is unbounded (one counter per branch site seen),
/// which favours the BPST slightly — sites are few, so a real table of a
/// few hundred counters would behave identically.
#[derive(Debug, Clone)]
pub struct BpstMetaPredictor {
    first: TwoLevelPredictor,
    second: TwoLevelPredictor,
    selector_bits: u8,
    selectors: HashMap<u32, SaturatingCounter>,
}

impl BpstMetaPredictor {
    /// Combines two components under a 2-bit-per-branch selection table.
    /// Counters start low, i.e. preferring `first`.
    #[must_use]
    pub fn new(first: TwoLevelPredictor, second: TwoLevelPredictor) -> Self {
        BpstMetaPredictor::with_selector_bits(first, second, 2)
    }

    /// Like [`new`](BpstMetaPredictor::new) with an explicit selector
    /// counter width.
    ///
    /// # Panics
    ///
    /// Panics if `selector_bits` is outside `1..=7`.
    #[must_use]
    pub fn with_selector_bits(
        first: TwoLevelPredictor,
        second: TwoLevelPredictor,
        selector_bits: u8,
    ) -> Self {
        assert!((1..=7).contains(&selector_bits));
        BpstMetaPredictor {
            first,
            second,
            selector_bits,
            selectors: HashMap::new(),
        }
    }

    /// Whether the selection table currently prefers the second component
    /// for this branch.
    #[must_use]
    pub fn prefers_second(&self, pc: Addr) -> bool {
        self.selectors.get(&pc.word()).is_some_and(|c| c.is_high())
    }

    /// Arbitrates the two components' lookup results without touching
    /// state: the selected component answers, falling back to the other
    /// when it misses.
    fn arbitrate(
        &self,
        pc: Addr,
        first: Option<TableHit>,
        second: Option<TableHit>,
    ) -> Option<Addr> {
        let (chosen, other) = if self.prefers_second(pc) {
            (second, first)
        } else {
            (first, second)
        };
        chosen.map(|h| h.target).or(other.map(|h| h.target))
    }

    /// Moves the selector toward the component that was (exclusively)
    /// correct, as in McFarling's combining scheme.
    fn observe(&mut self, pc: Addr, first_correct: bool, second_correct: bool) {
        if first_correct != second_correct {
            let bits = self.selector_bits;
            let c = self
                .selectors
                .entry(pc.word())
                .or_insert_with(|| SaturatingCounter::new(bits));
            if second_correct {
                c.increment();
            } else {
                c.decrement();
            }
        }
    }

    /// Histogram of selector-counter values, indexed by value.
    fn selector_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; 1usize << self.selector_bits];
        for c in self.selectors.values() {
            hist[c.value() as usize] += 1;
        }
        hist
    }

    /// One fused simulation step. Both components always run a fused
    /// lookup+train pass (the selector trains on their pre-update answers
    /// on *every* event, warmup included, exactly as the sequential
    /// `update` recomputes them); the BPST arbitration is read before the
    /// selector moves, preserving the sequential predict-then-observe
    /// order. Byte-identical to `predict` + `update`: component training
    /// touches no selector state and `observe` touches no component state.
    pub fn fused_step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let first = self.first.fused_step(pc, actual, true);
        let second = self.second.fused_step(pc, actual, true);
        let predicted = if want_lookup {
            self.arbitrate(pc, first, second)
        } else {
            None
        };
        self.observe(
            pc,
            first.map(|h| h.target) == Some(actual),
            second.map(|h| h.target) == Some(actual),
        );
        predicted
    }
}

impl Predictor for BpstMetaPredictor {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.arbitrate(pc, self.first.lookup(pc), self.second.lookup(pc))
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let first_correct = self.first.predict(pc) == Some(actual);
        let second_correct = self.second.predict(pc) == Some(actual);
        self.observe(pc, first_correct, second_correct);
        self.first.update(pc, actual);
        self.second.update(pc, actual);
    }

    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        self.first.observe_cond(pc, target);
        self.second.observe_cond(pc, target);
    }

    fn reset(&mut self) {
        self.first.reset();
        self.second.reset();
        self.selectors.clear();
    }

    fn name(&self) -> String {
        format!(
            "bpst p={}.{} [{} | {}]",
            self.first.path_len(),
            self.second.path_len(),
            self.first.name(),
            self.second.name()
        )
    }

    fn storage_entries(&self) -> Option<usize> {
        match (self.first.storage_entries(), self.second.storage_entries()) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        }
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }
}

impl StructuralSnapshot for BpstMetaPredictor {
    fn structural_snapshot(&self) -> Snapshot {
        let mut snap = self.first.structural_snapshot();
        snap.components
            .extend(self.second.structural_snapshot().components);
        snap.selectors = self.selector_histogram();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistorySharing;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    fn pair(p1: usize, p2: usize) -> BpstMetaPredictor {
        BpstMetaPredictor::new(
            TwoLevelPredictor::unconstrained(p1, HistorySharing::GLOBAL),
            TwoLevelPredictor::unconstrained(p2, HistorySharing::GLOBAL),
        )
    }

    #[test]
    fn falls_back_when_chosen_misses() {
        let mut m = pair(2, 0);
        m.update(a(0x100), a(0x900));
        // Selector prefers first (p = 2) which misses on the shifted
        // history; the p = 0 component answers.
        assert_eq!(m.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn selector_learns_better_component() {
        // Alternating targets: p = 1 (second component) predicts them,
        // p = 0 cannot.
        let mut m = pair(0, 1);
        let site = a(0x100);
        for _ in 0..12 {
            m.update(site, a(0x900));
            m.update(site, a(0xA00));
        }
        assert!(m.prefers_second(site));
        assert_eq!(m.predict(site), Some(a(0x900)));
    }

    #[test]
    fn selectors_are_per_branch() {
        let mut m = pair(0, 1);
        // Branch A rewards the second component...
        for _ in 0..12 {
            m.update(a(0x100), a(0x900));
            m.update(a(0x100), a(0xA00));
        }
        // ...branch B is monomorphic (either component fine; selector stays
        // at its initial preference for the first).
        m.update(a(0x200), a(0xC00));
        m.update(a(0x200), a(0xC00));
        assert!(m.prefers_second(a(0x100)));
        assert!(!m.prefers_second(a(0x200)));
    }

    #[test]
    fn reset_clears_selectors() {
        let mut m = pair(0, 1);
        for _ in 0..12 {
            m.update(a(0x100), a(0x900));
            m.update(a(0x100), a(0xA00));
        }
        m.reset();
        assert!(!m.prefers_second(a(0x100)));
        assert_eq!(m.predict(a(0x100)), None);
    }

    #[test]
    fn name_mentions_both_paths() {
        let m = pair(3, 1);
        assert!(m.name().starts_with("bpst p=3.1"));
    }
}
