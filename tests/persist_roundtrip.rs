//! Property tests for the persistence codecs over random full-model
//! instances from `hygraph-datagen`.
//!
//! These live in the root package because they tie together `datagen`
//! (instance generation), `core::binio` (the HyGraph codec),
//! `ts::persist` (the TsStore codec), and `persist` (the durable
//! engine) — a dependency cycle if placed in any one crate.

use hygraph::core::binio;
use hygraph::datagen::random::{random_hygraph, random_walk};
use hygraph::persist::{ShardedStore, TsMutation};
use hygraph::ts::TsStore;
use hygraph::types::SeriesId;
use proptest::prelude::*;

proptest! {
    /// The binary checkpoint codec is exact: decode(encode(x)) re-encodes
    /// to the same bytes, and the decoded instance allocates the same
    /// future ids (the WAL-replay prerequisite).
    #[test]
    fn binio_roundtrip_is_bit_exact(
        n_vertices in 1usize..40,
        n_edges in 0usize..60,
        n_series in 0usize..6,
        n_subgraphs in 0usize..4,
        seed in 0u64..500,
    ) {
        let hg = random_hygraph(n_vertices, n_edges, n_series, n_subgraphs, seed);
        let bytes = binio::to_bytes(&hg);
        let mut back = binio::from_bytes(&bytes).expect("binary round-trip decodes");
        prop_assert_eq!(binio::to_bytes(&back), bytes, "re-encode differs");

        // id-allocation continuity: the decoded instance hands out the
        // same ids the original would
        let mut original = hg;
        let s = hygraph::ts::MultiSeries::new(["probe"]);
        prop_assert_eq!(original.add_series(s.clone()), back.add_series(s));
        let sub_a = original.create_subgraph(
            ["probe"],
            hygraph::types::PropertyMap::new(),
            hygraph::types::Interval::ALL,
        );
        let sub_b = back.create_subgraph(
            ["probe"],
            hygraph::types::PropertyMap::new(),
            hygraph::types::Interval::ALL,
        );
        prop_assert_eq!(sub_a, sub_b);
    }

    /// `binio` is the only model codec, and checkpoints hand it bytes
    /// from disk. A valid encoding with one bit flipped, its tail cut
    /// off, or one byte swapped for a larger varint (what an inflated
    /// length field looks like, at every magnitude) decodes to an error
    /// or to an instance that passes `validate()` — never a panic.
    #[test]
    fn binio_hostile_bytes_error_or_validate(
        seed in 0u64..500,
        flips in prop::collection::vec((0usize..1 << 16, 0u32..8), 8),
        cuts in prop::collection::vec(0usize..1 << 16, 4),
        inflations in prop::collection::vec((0usize..1 << 16, 0u32..57), 8),
    ) {
        let bytes = binio::to_bytes(&random_hygraph(12, 16, 3, 2, seed));
        let survives = |hostile: &[u8]| match binio::from_bytes(hostile) {
            Ok(hg) => hg.validate().is_ok(),
            Err(_) => true,
        };
        for (at, bit) in flips {
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= 1 << bit;
            prop_assert!(survives(&flipped), "bit {bit} of byte {}", at % bytes.len());
        }
        for cut in cuts {
            prop_assert!(survives(&bytes[..cut % bytes.len()]), "cut at {}", cut % bytes.len());
        }
        for (at, shift) in inflations {
            let at = at % bytes.len();
            let mut varint = hygraph::types::bytes::ByteWriter::new();
            varint.u64(u64::MAX >> shift); // ≥ 128: always longer than the byte it replaces
            let spliced = [&bytes[..at], varint.as_bytes(), &bytes[at + 1..]].concat();
            prop_assert!(survives(&spliced), "{} spliced in at {at}", u64::MAX >> shift);
        }
    }

    /// The TsStore checkpoint codec is exact for arbitrary chunked
    /// content (including the f64 accumulation order inside summaries).
    #[test]
    fn ts_store_codec_roundtrip_is_bit_exact(
        n_series in 1usize..5,
        len in 0usize..400,
        seed in 0u64..500,
    ) {
        let mut store = TsStore::new();
        for k in 0..n_series {
            let id = SeriesId::new(k as u64);
            store.create_series(id);
            let walk = random_walk(len, 2.0, 100.0, seed + k as u64);
            store.insert_series(id, &walk);
        }
        let bytes = hygraph::ts::persist::store_to_bytes(&store);
        let back = hygraph::ts::persist::store_from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(hygraph::ts::persist::store_to_bytes(&back), bytes);
    }

    /// End-to-end: committing a random insert workload through the
    /// durable engine and recovering from disk is bit-identical to the
    /// in-memory state at every configuration.
    #[test]
    fn durable_recovery_matches_memory(
        n in 1usize..60,
        seed in 0u64..200,
    ) {
        let dir = hygraph::persist::fault::scratch_dir("prop-durable");
        let sid = SeriesId::new(0);
        let golden = {
            let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 1).expect("open");
            store.commit(TsMutation::CreateSeries(sid)).expect("create");
            let walk = random_walk(n, 1.0, 10.0, seed);
            let batch: Vec<TsMutation> = walk
                .iter()
                .map(|(t, v)| TsMutation::Insert(sid, t, v))
                .collect();
            store.commit_batch(batch).expect("batch");
            store.state_bytes()
            // dropped uncleanly — commits are synced
        };
        let store: ShardedStore<TsStore> = ShardedStore::open(&dir, 1).expect("recover");
        prop_assert_eq!(store.state_bytes(), golden);
        std::fs::remove_dir_all(&dir).ok();
    }
}
