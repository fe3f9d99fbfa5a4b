//! Model tests for the persistent map ([`hygraph_types::pmap`]): every
//! operation sequence must leave [`PMap`] indistinguishable from a
//! `BTreeMap` reference model, clones must be true immutable snapshots
//! of the moment they were taken, and the iteration order / trie shape
//! must be a pure function of the key set — the property the canonical
//! checkpoint and WAL encodings are built on.

use hygraph_types::pmap::{PMap, PmapKey};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One raw op draw: `(kind, key material, value)`. Decoded in the test
/// body (the vendored proptest has no combinators): kinds 0–3 insert,
/// 4–5 remove, 6 gets — removals common enough to empty whole subtrees.
type RawOp = (u64, u64, u32);

fn raw_ops(max: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u64..7, 0u64..=u64::MAX, 0u32..=u32::MAX), 0..max)
}

/// Key classes: mostly dense ids (the workload's shape — shared high
/// bits, divergence only in the last chunks), some full-width hashes,
/// some keys differing only in the top chunk.
fn decode_key(raw: u64) -> u64 {
    match raw % 8 {
        0..=4 => (raw >> 3) % 512,
        5 | 6 => raw >> 3,
        _ => ((raw >> 3) % 4) << 58,
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
}

fn decode(ops: &[RawOp]) -> Vec<Op> {
    ops.iter()
        .map(|&(kind, raw, v)| {
            let k = decode_key(raw);
            match kind {
                0..=3 => Op::Insert(k, v),
                4 | 5 => Op::Remove(k),
                _ => Op::Get(k),
            }
        })
        .collect()
}

proptest! {
    /// Any op sequence: PMap answers exactly like the BTreeMap model,
    /// and (identity-hashed keys) iterates in exactly its order.
    #[test]
    fn pmap_matches_btreemap_model(raw in raw_ops(200)) {
        let mut pmap: PMap<u64, u32> = PMap::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in decode(&raw) {
            match op {
                Op::Insert(k, v) => prop_assert_eq!(pmap.insert(k, v), model.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(pmap.remove(&k), model.remove(&k)),
                Op::Get(k) => prop_assert_eq!(pmap.get(&k), model.get(&k)),
            }
            prop_assert_eq!(pmap.len(), model.len());
        }
        let got: Vec<(u64, u32)> = pmap.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want, "iteration must be ascending-id, entry-exact");
    }

    /// A clone taken mid-sequence is frozen: the original absorbs the
    /// remaining ops, the clone stays exactly the mid-point model.
    #[test]
    fn clone_is_an_immutable_snapshot(before in raw_ops(100), after in raw_ops(100)) {
        let mut pmap: PMap<u64, u32> = PMap::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let apply = |pmap: &mut PMap<u64, u32>, model: &mut BTreeMap<u64, u32>, ops: &[RawOp]| {
            for op in decode(ops) {
                match op {
                    Op::Insert(k, v) => {
                        pmap.insert(k, v);
                        model.insert(k, v);
                    }
                    Op::Remove(k) => {
                        pmap.remove(&k);
                        model.remove(&k);
                    }
                    Op::Get(k) => {
                        let _ = (pmap.get(&k), model.get(&k));
                    }
                }
            }
        };
        apply(&mut pmap, &mut model, &before);
        let frozen = pmap.clone();
        let frozen_model = model.clone();
        apply(&mut pmap, &mut model, &after);
        // the snapshot still answers from the clone point
        prop_assert_eq!(frozen.len(), frozen_model.len());
        for (k, v) in &frozen_model {
            prop_assert_eq!(frozen.get(k), Some(v));
        }
        let got: Vec<(u64, u32)> = frozen.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u32)> = frozen_model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        // and the diverged original matches the live model
        let got: Vec<(u64, u32)> = pmap.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// History independence: the same final key set reached through any
    /// insertion order — including via transient keys later removed —
    /// compares equal and iterates identically. This is the trie-shape
    /// canonicality the byte-identical encodings rely on.
    #[test]
    fn shape_is_history_independent(
        raw_keys in prop::collection::vec(0u64..=u64::MAX, 0..80),
        raw_extra in prop::collection::vec(0u64..=u64::MAX, 0..40),
        seed in 0u64..=u64::MAX,
    ) {
        let keys: BTreeSet<u64> = raw_keys.iter().map(|&r| decode_key(r)).collect();
        let extra: Vec<u64> = raw_extra.iter().map(|&r| decode_key(r)).collect();
        let forward: PMap<u64, u64> = keys.iter().map(|&k| (k, k)).collect();
        // a scrambled order: Fisher–Yates walk driven by an LCG
        let mut scrambled: Vec<u64> = keys.iter().copied().collect();
        let mut s = seed;
        for i in (1..scrambled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            scrambled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut devious: PMap<u64, u64> = PMap::new();
        for &k in &extra {
            devious.insert(k, u64::MAX);
        }
        for &k in &scrambled {
            devious.insert(k, k);
        }
        for &k in &extra {
            if !keys.contains(&k) {
                devious.remove(&k);
            } else {
                devious.insert(k, k); // restore the clobbered value
            }
        }
        prop_assert_eq!(&forward, &devious);
        let a: Vec<u64> = forward.keys().copied().collect();
        let b: Vec<u64> = devious.keys().copied().collect();
        prop_assert_eq!(a, b);
    }
}

/// Key whose hash keeps only `k % 4`: every same-residue pair is a full
/// 64-bit collision, so these sequences live almost entirely in the
/// sorted collision leaves.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Collider(u64);
impl PmapKey for Collider {
    fn pmap_hash(&self) -> u64 {
        self.0 % 4
    }
}

proptest! {
    /// Hostile collisions: the model equivalence holds when nearly every
    /// key collides, and iteration is (hash, key)-ordered.
    #[test]
    fn collision_leaves_match_model(raw in raw_ops(120)) {
        let mut pmap: PMap<Collider, u32> = PMap::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in decode(&raw) {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(pmap.insert(Collider(k), v), model.insert(k, v));
                }
                Op::Remove(k) => prop_assert_eq!(pmap.remove(&Collider(k)), model.remove(&k)),
                Op::Get(k) => prop_assert_eq!(pmap.get(&Collider(k)), model.get(&k)),
            }
        }
        let got: Vec<u64> = pmap.keys().map(|k| k.0).collect();
        let mut want: Vec<u64> = model.keys().copied().collect();
        want.sort_by_key(|&k| (k % 4, k));
        prop_assert_eq!(got, want, "collision leaves iterate (hash, key)-sorted");
    }
}
