//! Copy-on-write paged storage — the structural-sharing substrate.
//!
//! A [`PagedVec`] looks like a `Vec<T>` but stores its slots in
//! fixed-size pages, each held behind an [`Arc`]. That turns `Clone`
//! into one reference-count bump per page — O(pages), no slot is
//! copied — and makes mutation *copy-on-write*: the first write into a
//! page that is shared with another `PagedVec` clone detaches a
//! private copy of just that page ([`Arc::make_mut`]), leaving every
//! untouched page shared.
//!
//! This is what makes snapshot-style cloning of the B+tree (and of the
//! layers built on top of it — the document arena, the per-node
//! annotation columns) proportional to the **touched set** instead of
//! the structure size: cloning a tree with a million entries bumps a
//! few ten-thousand page counters, and a subsequent point insert
//! copies only the handful of pages on the root-to-leaf path.
//!
//! Detached pages are **bit-identical copies** of the shared page, so
//! any derived data stored inside the slots — in particular the
//! per-child monoid summaries of B+tree interior nodes — remains valid
//! across a detach; only the mutation that triggered the detach has to
//! repair the summaries along its own descent path.
//!
//! ```
//! use xvi_btree::PagedVec;
//!
//! let mut v: PagedVec<u64> = PagedVec::new();
//! for i in 0..1000 {
//!     v.push(i);
//! }
//! let snapshot = v.clone();          // O(pages) pointer bumps
//! assert_eq!(v.shared_pages(), v.page_count());
//! v[3] = 999;                        // copies exactly one page
//! assert_eq!(snapshot[3], 3);        // the snapshot is unaffected
//! assert_eq!(v.shared_pages(), v.page_count() - 1);
//! ```

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Number of slots per page.
///
/// Small enough that a copy-on-write page detach stays cheap (one page
/// of slots is cloned), large enough that cloning a big structure is a
/// short run of reference-count bumps.
pub const PAGE_SIZE: usize = 32;

/// One fixed-capacity page of slots. All pages except the last hold
/// exactly [`PAGE_SIZE`] slots; the last holds `1..=PAGE_SIZE`.
#[derive(Debug, Clone)]
struct Page<T> {
    slots: Vec<T>,
}

/// A `Vec<T>`-like container with page-level structural sharing:
/// `Clone` is one reference-count bump per page, and the first write
/// into a page shared with another clone detaches a private copy of
/// just that page ([`Arc::make_mut`]). Cloning is O(pages); mutation
/// after a clone costs O(touched pages).
#[derive(Debug)]
pub struct PagedVec<T> {
    pages: Vec<Arc<Page<T>>>,
    len: usize,
    /// Cumulative count of copy-on-write page detaches performed
    /// through this instance's mutation lineage (clones inherit the
    /// current count, so `after - before` across a clone-then-mutate
    /// publish is the pages that publish copied). Plain `u64`: every
    /// detach site holds `&mut self`.
    detached: u64,
}

impl<T> Clone for PagedVec<T> {
    /// O(pages) reference-count bumps; no slot is copied.
    fn clone(&self) -> Self {
        PagedVec {
            pages: self.pages.clone(),
            len: self.len,
            detached: self.detached,
        }
    }
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PagedVec<T> {
    /// Creates an empty container.
    pub fn new() -> PagedVec<T> {
        PagedVec {
            pages: Vec::new(),
            len: 0,
            detached: 0,
        }
    }

    /// Cumulative count of copy-on-write page detaches performed over
    /// this instance's lifetime (inherited by clones). The difference
    /// across a clone-then-mutate cycle is exactly the number of pages
    /// that cycle copied — the "COW pages detached per publish" metric
    /// up the stack.
    pub fn pages_detached(&self) -> u64 {
        self.detached
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages backing the slots.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages currently shared with at least one other clone
    /// — the window into structural sharing the COW tests and stats
    /// build on.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Shared read access to slot `i`, or `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        Some(&self.pages[i / PAGE_SIZE].slots[i % PAGE_SIZE])
    }

    /// Iterates every slot in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|p| p.slots.iter())
    }

    /// Appends `items` as whole fresh pages. The last page must be
    /// full (or absent), so no existing page is written.
    fn extend_pages(&mut self, items: impl Iterator<Item = T>) {
        debug_assert!(self.len.is_multiple_of(PAGE_SIZE), "last page is full");
        let mut items = items.peekable();
        while items.peek().is_some() {
            let mut slots = Vec::with_capacity(PAGE_SIZE);
            slots.extend(items.by_ref().take(PAGE_SIZE));
            self.len += slots.len();
            self.pages.push(Arc::new(Page { slots }));
        }
    }
}

impl<T: Clone> PagedVec<T> {
    /// Bumps the detach counter when the next write to page `p` will
    /// copy it. Called immediately before each [`Arc::make_mut`].
    fn note_detach(&mut self, p: usize) {
        if Arc::strong_count(&self.pages[p]) > 1 {
            self.detached += 1;
        }
    }

    /// Appends a slot, detaching the last page first if it is shared.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(PAGE_SIZE) {
            let mut slots = Vec::with_capacity(PAGE_SIZE);
            slots.push(value);
            self.pages.push(Arc::new(Page { slots }));
        } else {
            self.note_detach(self.pages.len() - 1);
            let page = self.pages.last_mut().expect("partial page exists");
            Arc::make_mut(page).slots.push(value);
        }
        self.len += 1;
    }

    /// Exclusive access to slot `i`, detaching a private copy of its
    /// page first if the page is shared (the copy-on-write step).
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        self.note_detach(i / PAGE_SIZE);
        Some(&mut Arc::make_mut(&mut self.pages[i / PAGE_SIZE]).slots[i % PAGE_SIZE])
    }

    /// Exclusive access to two *distinct* slots at once (the B+tree's
    /// sibling-rebalance primitive). Detaches each involved page.
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of bounds.
    pub fn pair_mut(&mut self, a: usize, b: usize) -> (&mut T, &mut T) {
        assert_ne!(a, b, "pair_mut requires distinct slots");
        assert!(a < self.len && b < self.len, "pair_mut out of bounds");
        let (pa, sa) = (a / PAGE_SIZE, a % PAGE_SIZE);
        let (pb, sb) = (b / PAGE_SIZE, b % PAGE_SIZE);
        self.note_detach(pa);
        if pa != pb {
            self.note_detach(pb);
        }
        if pa == pb {
            let page = Arc::make_mut(&mut self.pages[pa]);
            if sa < sb {
                let (lo, hi) = page.slots.split_at_mut(sb);
                (&mut lo[sa], &mut hi[0])
            } else {
                let (lo, hi) = page.slots.split_at_mut(sa);
                (&mut hi[0], &mut lo[sb])
            }
        } else if pa < pb {
            let (lo, hi) = self.pages.split_at_mut(pb);
            (
                &mut Arc::make_mut(&mut lo[pa]).slots[sa],
                &mut Arc::make_mut(&mut hi[0]).slots[sb],
            )
        } else {
            let (lo, hi) = self.pages.split_at_mut(pa);
            (
                &mut Arc::make_mut(&mut hi[0]).slots[sa],
                &mut Arc::make_mut(&mut lo[pb]).slots[sb],
            )
        }
    }

    /// Grows or shrinks to `new_len` slots, filling new slots with
    /// clones of `value`. Growing tops up the last page (detaching it
    /// once if it is shared) and then appends whole fresh pages.
    /// Shrinking drops whole doomed pages without detaching them —
    /// only the surviving boundary page is copied if it is shared.
    pub fn resize(&mut self, new_len: usize, value: T) {
        if new_len < self.len {
            self.pages.truncate(new_len.div_ceil(PAGE_SIZE));
            self.len = new_len;
            let tail = new_len % PAGE_SIZE;
            if tail != 0 {
                // The kept boundary page may hold slots past new_len.
                self.note_detach(self.pages.len() - 1);
                let last = self.pages.last_mut().expect("tail implies a page");
                Arc::make_mut(last).slots.truncate(tail);
            }
            return;
        }
        if new_len == self.len {
            return;
        }
        let partial = self.len % PAGE_SIZE;
        if partial != 0 {
            let fill = (PAGE_SIZE - partial).min(new_len - self.len);
            self.note_detach(self.pages.len() - 1);
            let last = self.pages.last_mut().expect("partial page exists");
            Arc::make_mut(last)
                .slots
                .resize(partial + fill, value.clone());
            self.len += fill;
        }
        if self.len < new_len {
            self.extend_pages(std::iter::repeat_n(value, new_len - self.len));
        }
    }

    /// Detaches a private copy of every shared page, ending all
    /// structural sharing with other clones. After this call the
    /// container owns its slots outright — the "deep clone" the COW
    /// benches use as the no-sharing baseline, and what snapshots call
    /// to stop pinning pages of a live structure.
    pub fn unshare(&mut self) {
        for p in 0..self.pages.len() {
            self.note_detach(p);
            Arc::make_mut(&mut self.pages[p]);
        }
    }

    /// A clone with every page detached immediately instead of lazily
    /// on first write — the building block of
    /// [`BPlusTree::deep_clone`](crate::BPlusTree::deep_clone).
    pub fn deep_clone(&self) -> Self {
        let mut c = self.clone();
        c.unshare();
        c
    }
}

/// A copy-on-write column: a `Vec<T>` behind an [`Arc`], so cloning
/// is one reference-count bump and the first mutation while shared
/// detaches a private copy of just this column.
///
/// This is the second, finer level of structural sharing under the
/// B+tree: nodes live in [`PagedVec`] pages (page-level COW), and a
/// wide leaf's `keys` and `values` each live in their own `ColVec`
/// (column-level COW). When a page detach clones a leaf, both columns
/// are borrowed by reference-count bump instead of deep-copied, and a
/// mutation that touches only one side — e.g. a value overwrite
/// through `get_mut` — detaches only that column, leaving the sibling
/// column shared with every snapshot.
#[derive(Debug, Clone)]
pub struct ColVec<T>(Arc<Vec<T>>);

impl<T> Default for ColVec<T> {
    fn default() -> Self {
        ColVec(Arc::new(Vec::new()))
    }
}

impl<T> From<Vec<T>> for ColVec<T> {
    fn from(v: Vec<T>) -> Self {
        ColVec(Arc::new(v))
    }
}

impl<T> ColVec<T> {
    /// An empty column.
    pub fn new() -> ColVec<T> {
        Self::default()
    }

    /// Whether this column's backing vector is shared with another
    /// `ColVec` clone (a leaf borrowed by a snapshot).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }
}

impl<T: Clone> ColVec<T> {
    /// Exclusive access to the backing vector, detaching a private
    /// copy first if the column is shared (the copy-on-write step).
    /// Every mutation path goes through here.
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(&mut self.0)
    }

    /// Forces the column private even without a pending write — the
    /// deep-clone escape hatch uses this so "shares nothing" stays
    /// true at the column level, not just the page level.
    pub fn unshare(&mut self) {
        Arc::make_mut(&mut self.0);
    }
}

impl<T> std::ops::Deref for ColVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

/// Builds a container page by page: each run of [`PAGE_SIZE`] items
/// becomes one fresh page, with no per-slot copy-on-write check.
impl<T> FromIterator<T> for PagedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = PagedVec::new();
        v.extend_pages(iter.into_iter());
        v
    }
}

/// Plain paged storage for bulk creation: the fixed-size pages of a
/// [`PagedVec`], each a bare `Vec` with no [`Arc`], so a read or a
/// write is plain indexing with no copy-on-write check.
/// [`StagedPages::seal`] then puts each page behind its `Arc` without
/// moving a slot, so every page stays where it was allocated, next to
/// whatever else was allocated while it filled.
#[derive(Debug)]
pub struct StagedPages<T> {
    pages: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for StagedPages<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> StagedPages<T> {
    /// Creates empty storage.
    pub fn new() -> StagedPages<T> {
        StagedPages {
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a slot, opening a fresh page when the last one is full.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(PAGE_SIZE) {
            self.pages.push(Vec::with_capacity(PAGE_SIZE));
        }
        self.pages.last_mut().expect("a page has room").push(value);
        self.len += 1;
    }

    /// Turns the pages into a [`PagedVec`]: one `Arc` per page, no slot
    /// copied, no page detached.
    pub fn seal(self) -> PagedVec<T> {
        PagedVec {
            pages: self
                .pages
                .into_iter()
                .map(|slots| Arc::new(Page { slots }))
                .collect(),
            len: self.len,
            detached: 0,
        }
    }
}

impl<T> Index<usize> for StagedPages<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.pages[i / PAGE_SIZE][i % PAGE_SIZE]
    }
}

impl<T> IndexMut<usize> for StagedPages<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.pages[i / PAGE_SIZE][i % PAGE_SIZE]
    }
}

impl<T> Index<usize> for PagedVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &self.pages[i / PAGE_SIZE].slots[i % PAGE_SIZE]
    }
}

impl<T: Clone> IndexMut<usize> for PagedVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i)
            .unwrap_or_else(|| panic!("index out of bounds"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> PagedVec<usize> {
        let mut v = PagedVec::new();
        for i in 0..n {
            v.push(i);
        }
        v
    }

    #[test]
    fn push_and_index() {
        let v = filled(100);
        assert_eq!(v.len(), 100);
        assert!(!v.is_empty());
        assert_eq!(v.page_count(), 100_usize.div_ceil(PAGE_SIZE));
        for i in 0..100 {
            assert_eq!(v[i], i);
        }
        assert_eq!(v.get(100), None);
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clone_shares_and_write_detaches_one_page() {
        let mut v = filled(10 * PAGE_SIZE);
        assert_eq!(v.shared_pages(), 0);
        let snap = v.clone();
        assert_eq!(v.shared_pages(), v.page_count());
        assert_eq!(snap.shared_pages(), snap.page_count());
        v[0] = 777;
        assert_eq!(v.shared_pages(), v.page_count() - 1);
        assert_eq!(snap[0], 0, "snapshot unaffected by the write");
        assert_eq!(v[0], 777);
        drop(snap);
        assert_eq!(v.shared_pages(), 0);
    }

    #[test]
    fn push_after_clone_detaches_partial_page() {
        let mut v = filled(PAGE_SIZE + 3);
        let snap = v.clone();
        v.push(999);
        assert_eq!(snap.len(), PAGE_SIZE + 3);
        assert_eq!(v.len(), PAGE_SIZE + 4);
        assert_eq!(v[PAGE_SIZE + 3], 999);
        assert_eq!(snap.get(PAGE_SIZE + 3), None);
    }

    #[test]
    fn pair_mut_same_and_distinct_pages() {
        let mut v = filled(3 * PAGE_SIZE);
        let snap = v.clone();
        // Same page, both orders.
        let (a, b) = v.pair_mut(1, 2);
        std::mem::swap(a, b);
        let (a, b) = v.pair_mut(2, 1);
        std::mem::swap(a, b);
        // Distinct pages, both orders.
        let (a, b) = v.pair_mut(0, 2 * PAGE_SIZE);
        std::mem::swap(a, b);
        let (a, b) = v.pair_mut(2 * PAGE_SIZE, 0);
        std::mem::swap(a, b);
        // All swaps cancelled out; only page sharing changed.
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            snap.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(v.shared_pages(), v.page_count() - 2);
    }

    #[test]
    #[should_panic(expected = "distinct slots")]
    fn pair_mut_rejects_aliasing() {
        let mut v = filled(10);
        let _ = v.pair_mut(3, 3);
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let mut v = filled(5);
        v.resize(2 * PAGE_SIZE + 1, 42);
        assert_eq!(v.len(), 2 * PAGE_SIZE + 1);
        assert_eq!(v[5], 42);
        assert_eq!(v[2 * PAGE_SIZE], 42);
        v.resize(3, 0);
        assert_eq!(v.len(), 3);
        assert_eq!(v.page_count(), 1);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        v.resize(0, 0);
        assert!(v.is_empty());
        assert_eq!(v.page_count(), 0);
    }

    #[test]
    fn shrinking_a_shared_container_leaves_the_snapshot_intact() {
        let mut v = filled(4 * PAGE_SIZE);
        let snap = v.clone();
        // Shrink across a page boundary into the middle of a page:
        // doomed pages are dropped without detaching, only the
        // boundary page is copied.
        v.resize(PAGE_SIZE + 7, 0);
        assert_eq!(v.len(), PAGE_SIZE + 7);
        assert_eq!(v.page_count(), 2);
        assert_eq!(v.shared_pages(), 1, "only the full first page stays shared");
        assert_eq!(snap.len(), 4 * PAGE_SIZE);
        assert_eq!(
            snap.iter().copied().collect::<Vec<_>>(),
            (0..4 * PAGE_SIZE).collect::<Vec<_>>()
        );
        // Shrink to an exact page boundary: no copy at all.
        let mut w = snap.clone();
        w.resize(PAGE_SIZE, 0);
        assert_eq!(w.page_count(), 1);
        assert_eq!(w.shared_pages(), 1);
    }

    /// Whole pages, none detached, and a clone shares every page.
    fn assert_packed(v: &PagedVec<usize>) {
        assert_eq!(v.page_count(), v.len().div_ceil(PAGE_SIZE));
        assert_eq!(v.pages_detached(), 0);
        let c = v.clone();
        assert_eq!(c.shared_pages(), c.page_count());
        assert_eq!(v.shared_pages(), v.page_count());
    }

    #[test]
    fn resize_and_from_iter_fill_whole_pages() {
        for len in [
            0,
            1,
            PAGE_SIZE - 1,
            PAGE_SIZE,
            PAGE_SIZE + 1,
            5 * PAGE_SIZE + 7,
        ] {
            let v: PagedVec<usize> = (0..len).collect();
            assert_packed(&v);
            assert_eq!(
                v.iter().copied().collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>()
            );

            let mut w = PagedVec::new();
            w.resize(len, 9);
            assert_packed(&w);
            assert!(w.iter().all(|&x| x == 9) && w.len() == len);

            // Topping up a partial page, then whole pages.
            let mut u = filled(3);
            u.resize(3 + len, 9);
            assert_packed(&u);
            assert_eq!(u.len(), 3 + len);
            assert_eq!(&u.iter().copied().collect::<Vec<_>>()[..3], &[0, 1, 2]);
            assert!(u.iter().skip(3).all(|&x| x == 9));

            // One more slot, then a no-op resize.
            u.resize(4 + len, 8);
            u.resize(4 + len, 7);
            assert_eq!(u.page_count(), (4 + len).div_ceil(PAGE_SIZE));
            assert_eq!(u[3 + len], 8);
        }
    }

    #[test]
    fn staged_pages_seal_into_whole_pages_in_place() {
        for len in [
            0,
            1,
            PAGE_SIZE - 1,
            PAGE_SIZE,
            PAGE_SIZE + 1,
            5 * PAGE_SIZE + 7,
        ] {
            let mut s = StagedPages::new();
            for i in 0..len {
                s.push(i);
            }
            assert_eq!((s.len(), s.is_empty()), (len, len == 0));
            for i in 0..len {
                s[i] *= 2;
            }
            let first = (len > 0).then(|| &s[0] as *const usize);
            let v = s.seal();
            assert_packed(&v);
            assert_eq!(
                v.iter().copied().collect::<Vec<_>>(),
                (0..len).map(|i| 2 * i).collect::<Vec<_>>()
            );
            assert_eq!(
                first,
                (len > 0).then(|| &v[0] as *const usize),
                "no slot moved"
            );
        }
    }

    #[test]
    fn growing_a_shared_partial_page_detaches_it_once() {
        let mut v = filled(PAGE_SIZE + 3);
        let snap = v.clone();
        v.resize(4 * PAGE_SIZE, 7);
        assert_eq!(v.pages_detached(), 1, "only the partial page is copied");
        assert_eq!(v.shared_pages(), 1, "the full first page stays shared");
        assert_eq!(snap.len(), PAGE_SIZE + 3);
        assert_eq!(snap.get(PAGE_SIZE + 3), None);
        assert_eq!(v[PAGE_SIZE + 3], 7);
        assert_eq!(v.page_count(), 4);
    }

    #[test]
    fn colvec_shares_until_written() {
        let mut a: ColVec<u32> = vec![1, 2, 3].into();
        let b = a.clone();
        assert!(a.is_shared() && b.is_shared());
        a.make_mut()[0] = 99;
        assert!(!a.is_shared() && !b.is_shared());
        assert_eq!(&a[..], &[99, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3], "snapshot column unaffected");
        let mut c = b.clone();
        c.unshare();
        assert!(!c.is_shared() && !b.is_shared());
        assert_eq!(&c[..], &b[..]);
    }

    #[test]
    fn detach_counter_tracks_cow_copies_only() {
        let mut v = filled(4 * PAGE_SIZE);
        assert_eq!(
            v.pages_detached(),
            0,
            "building fresh pages is not a detach"
        );
        v[0] = 1;
        assert_eq!(v.pages_detached(), 0, "unshared writes are free");
        let snap = v.clone();
        assert_eq!(snap.pages_detached(), 0, "clones inherit the count");
        let before = v.pages_detached();
        v[0] = 2;
        v[1] = 3; // same page, already private
        v[PAGE_SIZE] = 4;
        assert_eq!(v.pages_detached() - before, 2, "one detach per shared page");
        assert_eq!(snap.pages_detached(), 0, "the snapshot side never detached");
        let mut w = snap.clone();
        w.unshare();
        assert_eq!(w.pages_detached(), w.page_count() as u64);
    }

    #[test]
    fn unshare_detaches_everything() {
        let mut v = filled(4 * PAGE_SIZE);
        let snap = v.clone();
        v.unshare();
        assert_eq!(v.shared_pages(), 0);
        assert_eq!(snap.shared_pages(), 0);
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            snap.iter().copied().collect::<Vec<_>>()
        );
    }
}
