//! Interior storage for [`TemporalGraph`](crate::TemporalGraph).
//!
//! Both collections are persistent tries keyed by dense id
//! (`hygraph-types::pmap`): `clone` is O(1) and a write path-copies
//! O(log n) nodes no matter how many snapshots are pinned. They are
//! wrapped rather than used bare because each hides a shape rule the
//! callers must not have to know: a slab's absent key is a tombstone
//! below the allocation high-water mark, and an adjacency never stores
//! an empty set (so equal logical state means an equal trie).
//!
//! Identity-hashed keys iterate in ascending id order, which is what
//! the canonical encodings and adjacency orders are built on.

use hygraph_types::pmap::{PMap, PSet};
use hygraph_types::EdgeId;
use std::fmt;

/// A dense-id slot store (vertex or edge table): ids are allocated
/// sequentially, removal tombstones the slot, and the slot count only
/// grows. Only live slots are stored (absent key = tombstone) plus the
/// allocation high-water mark.
#[derive(Clone)]
pub(crate) struct SnapSlab<T> {
    map: PMap<u64, T>,
    slots: u64,
}

// not derived: a derive would demand `T: Default`
impl<T> Default for SnapSlab<T> {
    fn default() -> Self {
        Self {
            map: PMap::default(),
            slots: 0,
        }
    }
}

impl<T: Clone> SnapSlab<T> {
    /// Total slots ever allocated (live + tombstoned) — the next id.
    pub(crate) fn slots(&self) -> usize {
        self.slots as usize
    }

    /// Number of live (non-tombstoned) slots.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.map.len()
    }

    /// Appends the next slot (decode path appends tombstones verbatim;
    /// the construction path always appends `Some`). Returns its index.
    pub(crate) fn push_slot(&mut self, value: Option<T>) -> usize {
        let idx = self.slots;
        if let Some(value) = value {
            self.map.insert(idx, value);
        }
        self.slots += 1;
        idx as usize
    }

    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        self.map.get(&(idx as u64))
    }

    /// Mutable slot access; a miss (out of range or tombstone) copies
    /// nothing.
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut T> {
        self.map.get_mut(&(idx as u64))
    }

    /// Tombstones a slot, returning its value; a miss copies nothing.
    pub(crate) fn take(&mut self, idx: usize) -> Option<T> {
        self.map.remove(&(idx as u64))
    }

    /// Live slots in ascending id order.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = &T> {
        self.map.values()
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for SnapSlab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter_live()).finish()
    }
}

/// Per-vertex adjacency (out or in). A vertex with no incident edge has
/// no entry — absence *is* empty — so the trie for a given edge set is
/// canonical. Edges allocate monotonically and the `PSet` iterates
/// ascending id, so a vertex's list is always in ascending edge-id order.
#[derive(Clone, Default)]
pub(crate) struct SnapAdj {
    adj: PMap<u64, PSet<EdgeId>>,
}

impl SnapAdj {
    /// Adds incident edge `e` to vertex `v`'s list.
    pub(crate) fn add(&mut self, v: usize, e: EdgeId) {
        let key = v as u64;
        if self.adj.get(&key).is_none() {
            self.adj.insert(key, PSet::new());
        }
        self.adj.get_mut(&key).expect("inserted above").insert(e);
    }

    /// Drops edge `e` from vertex `v`'s list (edge removal). An emptied
    /// entry is removed entirely so the trie stays canonical.
    pub(crate) fn remove(&mut self, v: usize, e: EdgeId) {
        let key = v as u64;
        let emptied = match self.adj.get_mut(&key) {
            Some(set) => {
                set.remove(&e);
                set.is_empty()
            }
            None => false,
        };
        if emptied {
            self.adj.remove(&key);
        }
    }

    /// Vertex `v`'s incident edge ids in ascending id order; an unknown
    /// vertex yields an empty iterator.
    pub(crate) fn edge_ids(&self, v: usize) -> impl Iterator<Item = EdgeId> + '_ {
        self.adj
            .get(&(v as u64))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }
}

impl fmt::Debug for SnapAdj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.adj.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_alloc_take_and_iteration_order() {
        let mut s: SnapSlab<u32> = SnapSlab::default();
        assert_eq!(s.push_slot(Some(10)), 0);
        assert_eq!(s.push_slot(None), 1);
        assert_eq!(s.push_slot(Some(30)), 2);
        assert_eq!(s.slots(), 3);
        assert_eq!(s.live(), 2);
        assert_eq!(s.get(0), Some(&10));
        assert_eq!(s.get(1), None);
        assert_eq!(s.take(2), Some(30));
        assert_eq!(s.take(2), None);
        assert_eq!(s.slots(), 3, "tombstoning keeps the high-water mark");
        *s.get_mut(0).unwrap() = 11;
        let live: Vec<u32> = s.iter_live().copied().collect();
        assert_eq!(live, vec![11]);
    }

    #[test]
    fn adj_add_remove_and_order() {
        let mut a = SnapAdj::default();
        a.add(0, EdgeId::new(0));
        a.add(0, EdgeId::new(3));
        a.add(1, EdgeId::new(5));
        let ids: Vec<u64> = a.edge_ids(0).map(|e| e.raw()).collect();
        assert_eq!(ids, vec![0, 3]);
        a.remove(0, EdgeId::new(0));
        let ids: Vec<u64> = a.edge_ids(0).map(|e| e.raw()).collect();
        assert_eq!(ids, vec![3]);
        assert_eq!(a.edge_ids(99).count(), 0);
        a.remove(1, EdgeId::new(5));
        assert_eq!(a.adj.len(), 1, "an emptied entry is removed, not kept");
    }
}
