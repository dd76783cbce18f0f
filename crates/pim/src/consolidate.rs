//! The Child Texel Consolidation unit.
//!
//! Merges identical child-texel fetches generated for different parent
//! texels before they reach the vaults (§V-D of the paper: "merges the
//! identical child texel fetches to reduce memory contention"). Because
//! neighboring parents expand into overlapping runs of children along
//! the anisotropy axis, the merge rate is substantial — it is one of the
//! ablations DESIGN.md calls out.

use pimgfx_types::fxhash::FxHashSet;

/// Deduplicates child-texel line addresses within one offload package.
///
/// # Examples
///
/// ```
/// use pimgfx_pim::ChildConsolidator;
/// let mut c = ChildConsolidator::new(true);
/// let unique = c.consolidate(vec![0x40, 0x40, 0x80, 0x40]);
/// assert_eq!(unique, vec![0x40, 0x80]);
/// assert_eq!(c.merged(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ChildConsolidator {
    enabled: bool,
    seen_total: u64,
    merged: u64,
    /// Lines already passed within the current package; cleared per
    /// package, kept across packages so merging does not allocate.
    seen: FxHashSet<u64>,
}

impl ChildConsolidator {
    /// Creates a consolidator; `enabled = false` passes fetches through
    /// unmerged (the ablation baseline).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            seen_total: 0,
            merged: 0,
            seen: FxHashSet::default(),
        }
    }

    /// True when merging is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Merges duplicate line addresses, preserving first-seen order.
    /// The merge is in place: the returned vector is `fetches`.
    pub fn consolidate(&mut self, mut fetches: Vec<u64>) -> Vec<u64> {
        self.seen_total += fetches.len() as u64;
        if !self.enabled {
            return fetches;
        }
        self.seen.clear();
        let before = fetches.len();
        fetches.retain(|&f| self.seen.insert(f));
        self.merged += (before - fetches.len()) as u64;
        fetches
    }

    /// Total child fetches presented.
    pub fn seen(&self) -> u64 {
        self.seen_total
    }

    /// Fetches eliminated by merging.
    pub fn merged(&self) -> u64 {
        self.merged
    }

    /// Fraction of fetches merged away (0 when nothing seen).
    pub fn merge_rate(&self) -> f64 {
        if self.seen_total == 0 {
            0.0
        } else {
            self.merged as f64 / self.seen_total as f64
        }
    }

    /// Clears statistics.
    pub fn reset(&mut self) {
        self.seen_total = 0;
        self.merged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_duplicates_preserving_order() {
        let mut c = ChildConsolidator::new(true);
        let out = c.consolidate(vec![3, 1, 3, 2, 1, 3]);
        assert_eq!(out, vec![3, 1, 2]);
        assert_eq!(c.merged(), 3);
        assert_eq!(c.seen(), 6);
        assert!((c.merge_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn packages_merge_independently() {
        let mut c = ChildConsolidator::new(true);
        assert_eq!(c.consolidate(vec![1, 2, 1]), vec![1, 2]);
        // Lines of the previous package are not duplicates here.
        assert_eq!(c.consolidate(vec![2, 3, 2]), vec![2, 3]);
        assert_eq!(c.merged(), 2);
    }

    #[test]
    fn disabled_consolidator_passes_through() {
        let mut c = ChildConsolidator::new(false);
        let input = vec![5, 5, 5];
        let out = c.consolidate(input.clone());
        assert_eq!(out, input);
        assert_eq!(c.merged(), 0);
        assert_eq!(c.seen(), 3);
    }

    #[test]
    fn empty_input() {
        let mut c = ChildConsolidator::new(true);
        assert!(c.consolidate(Vec::new()).is_empty());
        assert_eq!(c.merge_rate(), 0.0);
    }

    #[test]
    fn reset_clears_counters() {
        let mut c = ChildConsolidator::new(true);
        c.consolidate(vec![1, 1]);
        c.reset();
        assert_eq!(c.seen(), 0);
        assert_eq!(c.merged(), 0);
    }
}
