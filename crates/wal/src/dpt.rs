//! Dirty page tracking for ping-pong checkpointing.
//!
//! Dali notes pages dirtied by logged physical updates in a dirty page
//! table (paper §2.1). With ping-pong checkpointing the two checkpoint
//! images alternate, so a page dirtied once must be written to *both*
//! images before it is clean everywhere: we keep one dirty set per image
//! and add every dirtied page to both; the checkpointer drains the set of
//! the image it is about to write.
//!
//! Each set is a page bitmap (bit `p % 64` of word `p / 64`), grown on
//! demand: noting a page sets two bits, and a drain yields its pages
//! ascending and deduplicated, as [`pages_to_regions`] requires.

use dali_common::PageId;
use parking_lot::Mutex;

/// A pair of dirty-page bitmaps, one per checkpoint image.
#[derive(Default)]
pub struct DualDirtySet {
    maps: Mutex<[Vec<u64>; 2]>,
}

impl DualDirtySet {
    /// Empty tracker.
    pub fn new() -> DualDirtySet {
        DualDirtySet::default()
    }

    /// Note that `page` was dirtied (adds to both images' sets).
    pub fn note(&self, page: PageId) {
        self.note_all([page]);
    }

    /// Note several pages at once.
    pub fn note_all(&self, pages: impl IntoIterator<Item = PageId>) {
        let mut maps = self.maps.lock();
        for page in pages {
            let (word, bit) = (page.0 as usize / 64, page.0 % 64);
            for map in maps.iter_mut() {
                if map.len() <= word {
                    map.resize(word + 1, 0);
                }
                map[word] |= 1 << bit;
            }
        }
    }

    /// Drain the dirty set for checkpoint image `image` (0 or 1), returning
    /// the pages that must be written to that image, ascending.
    pub fn take(&self, image: usize) -> Vec<PageId> {
        assert!(image < 2);
        let mut maps = self.maps.lock();
        let mut pages = Vec::new();
        for (i, word) in maps[image].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                pages.push(PageId(i as u32 * 64 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        pages
    }

    /// Peek at the number of dirty pages for an image.
    pub fn len(&self, image: usize) -> usize {
        let maps = self.maps.lock();
        maps[image].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no page is dirty for `image`.
    pub fn is_empty(&self, image: usize) -> bool {
        self.len(image) == 0
    }

    /// Mark every page up to `pages` dirty (used when a fresh database is
    /// created, so the first checkpoints capture the initial image).
    pub fn note_range(&self, pages: usize) {
        self.note_all((0..pages).map(|p| PageId(p as u32)));
    }
}

/// Map a **sorted** dirty-page list (the form [`DualDirtySet::take`]
/// returns) to the sorted, deduplicated ids of the protection regions
/// those pages overlap.
///
/// This is the dirty-footprint half of delta certification: the dual
/// dirty set drains a safe superset of the pages changed since the image
/// was last certified (pages are noted to both images, so a page stays
/// dirty for an image across the *other* image's checkpoint), and the
/// regions of that superset are exactly the regions whose codewords a
/// wild-free store can have changed since then. Both sizes are powers of
/// two, so one side tiles the other: each page covers
/// `page_size / region_size` regions (≥ 1), or several pages share one
/// region when regions are larger than pages.
pub fn pages_to_regions(pages: &[PageId], page_size: usize, region_size: usize) -> Vec<usize> {
    debug_assert!(page_size.is_power_of_two() && region_size.is_power_of_two());
    debug_assert!(pages.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    let mut regions = Vec::new();
    for &page in pages {
        let base = page.0 as usize * page_size;
        let first = base / region_size;
        let last = (base + page_size - 1) / region_size;
        for r in first..=last {
            if regions.last() != Some(&r) {
                regions.push(r);
            }
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn note_marks_both_images() {
        let d = DualDirtySet::new();
        d.note(PageId(3));
        assert_eq!(d.len(0), 1);
        assert_eq!(d.len(1), 1);
    }

    #[test]
    fn take_drains_only_one_image() {
        let d = DualDirtySet::new();
        d.note(PageId(1));
        d.note(PageId(2));
        let taken = d.take(0);
        assert_eq!(taken, vec![PageId(1), PageId(2)]);
        assert!(d.is_empty(0));
        assert_eq!(d.len(1), 2);
        // Image 1 still sees them on its next turn.
        assert_eq!(d.take(1), vec![PageId(1), PageId(2)]);
    }

    #[test]
    fn redirty_between_checkpoints() {
        let d = DualDirtySet::new();
        d.note(PageId(5));
        let _ = d.take(0);
        d.note(PageId(5));
        assert_eq!(d.take(0), vec![PageId(5)]);
        // Image 1 has it once (sets dedup).
        assert_eq!(d.take(1), vec![PageId(5)]);
    }

    #[test]
    fn take_is_sorted() {
        let d = DualDirtySet::new();
        d.note_all([PageId(9), PageId(1), PageId(5)]);
        assert_eq!(d.take(0), vec![PageId(1), PageId(5), PageId(9)]);
    }

    #[test]
    fn pages_to_regions_small_regions_tile_pages() {
        // 4096-byte pages, 64-byte regions: 64 regions per page.
        let regions = pages_to_regions(&[PageId(0), PageId(2)], 4096, 64);
        assert_eq!(regions.len(), 128);
        assert_eq!(regions[0], 0);
        assert_eq!(regions[63], 63);
        assert_eq!(regions[64], 128);
        assert_eq!(regions[127], 191);
        assert!(regions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pages_to_regions_large_regions_dedup_pages() {
        // 4096-byte pages, 8192-byte regions: two pages per region.
        assert_eq!(
            pages_to_regions(&[PageId(0), PageId(1), PageId(2)], 4096, 8192),
            vec![0, 1]
        );
        assert_eq!(
            pages_to_regions(&[PageId(4), PageId(5)], 4096, 8192),
            vec![2]
        );
        assert!(pages_to_regions(&[], 4096, 8192).is_empty());
    }

    #[test]
    fn note_range_covers_initial_image() {
        let d = DualDirtySet::new();
        d.note_range(4);
        assert_eq!(d.take(0).len(), 4);
        assert_eq!(d.take(1).len(), 4);
    }

    #[derive(Clone, Debug)]
    enum Op {
        Note(u32),
        NoteAll(Vec<u32>),
        NoteRange(usize),
        Take(usize),
        Len(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Ids up to a few thousand, so the bitmaps grow mid-sequence.
        let page = 0u32..4000;
        prop_oneof![
            page.clone().prop_map(Op::Note),
            proptest::collection::vec(page, 0..20).prop_map(Op::NoteAll),
            (0usize..300).prop_map(Op::NoteRange),
            (0usize..2).prop_map(Op::Take),
            (0usize..2).prop_map(Op::Len),
        ]
    }

    fn add(model: &mut [BTreeSet<PageId>; 2], pages: &[u32]) {
        for set in model {
            set.extend(pages.iter().map(|&p| PageId(p)));
        }
    }

    proptest! {
        /// The bitmaps against one ordered set per image: every drain is
        /// the set's sorted contents, and every count its size.
        #[test]
        fn matches_a_set_per_image(ops in proptest::collection::vec(op(), 0..60)) {
            let d = DualDirtySet::new();
            let mut model: [BTreeSet<PageId>; 2] = Default::default();
            for op in ops {
                match op {
                    Op::Note(p) => {
                        d.note(PageId(p));
                        add(&mut model, &[p]);
                    }
                    Op::NoteAll(ps) => {
                        d.note_all(ps.iter().map(|&p| PageId(p)));
                        add(&mut model, &ps);
                    }
                    Op::NoteRange(n) => {
                        d.note_range(n);
                        add(&mut model, &(0..n as u32).collect::<Vec<_>>());
                    }
                    Op::Take(i) => {
                        let want: Vec<PageId> = std::mem::take(&mut model[i]).into_iter().collect();
                        prop_assert_eq!(d.take(i), want);
                    }
                    Op::Len(i) => {
                        prop_assert_eq!(d.len(i), model[i].len());
                        prop_assert_eq!(d.is_empty(i), model[i].is_empty());
                    }
                }
            }
            for (i, set) in model.iter().enumerate() {
                prop_assert_eq!(d.take(i), set.iter().copied().collect::<Vec<_>>());
            }
        }
    }
}
