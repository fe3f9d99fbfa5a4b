//! Exact binary state codec for [`TsStore`].
//!
//! Serialises the store's physical layout — per-series chunk maps with
//! each chunk's columns (plain or sealed) *and* its
//! incrementally-maintained sparse [`Summary`] — rather than replaying
//! observations through [`TsStore::insert`]. Re-inserting would
//! recompute chunk summaries in time order, and floating-point
//! accumulation is order-sensitive: a store built from out-of-order
//! inserts could decode to one whose `sum` differs in the last bit.
//! Capturing the summary bits directly makes the round-trip exactly
//! lossless, which the crash-recovery tests in `hygraph-persist` rely
//! on (recovered store must be bit-identical to the committed state).
//!
//! # Format
//!
//! The stream starts with a zero-duration sentinel, the version number
//! (2) and the chunk width. Each chunk carries a tag byte: `0` = plain
//! columns (delta-encoded times, raw IEEE-754 value bits), `1` = a
//! sealed compressed block ([`SealedBlock`]) as stored in memory, so
//! sealed chunks persist without a decompress/recompress cycle.
//!
//! One version is read. The unversioned codec of PRs 2–5 (v1) led with
//! its positive chunk width, which is what the sentinel tells apart: a
//! leading positive duration, like any version number other than 2, is
//! refused with [`HyGraphError::UnsupportedFormat`], not misparsed.

use crate::compress::SealedBlock;
use crate::config::TsOptions;
use crate::store::{note_sealed_delta, Chunk, ChunkData, SeriesChunks, Summary, TsStore};
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::{Duration, HyGraphError, Result, SeriesId, Timestamp};
use std::collections::BTreeMap;

/// Current store codec version.
const VERSION: u64 = 2;

/// Chunk tag: plain sorted columns.
const TAG_PLAIN: u8 = 0;
/// Chunk tag: sealed compressed block.
const TAG_SEALED: u8 = 1;

/// Encodes the full store state into `w` (always the current version).
pub fn encode_store(store: &TsStore, w: &mut ByteWriter) {
    w.duration(Duration::from_millis(0)); // sentinel: not a valid v1 leading width
    w.u64(VERSION);
    w.duration(store.chunk_width);
    w.len_of(store.series.len());
    for (id, sc) in &store.series {
        w.u64(id.raw());
        w.len_of(sc.len);
        w.len_of(sc.chunks.len());
        for (key, chunk) in &sc.chunks {
            w.timestamp(*key);
            match &chunk.data {
                ChunkData::Plain { times, values } => {
                    w.u8(TAG_PLAIN);
                    w.len_of(times.len());
                    let mut prev = key.millis();
                    for t in times {
                        w.u64((t.millis() - prev) as u64);
                        prev = t.millis();
                    }
                    for v in values {
                        w.f64(*v);
                    }
                }
                ChunkData::Sealed(block) => {
                    w.u8(TAG_SEALED);
                    block.encode(w);
                }
            }
            // a dirty (stale) summary is never serialised — the codec
            // writes the rebuilt one, and decode starts clean, keeping
            // decode∘encode canonical
            let s = chunk.current_summary();
            w.u64(s.count);
            w.f64(s.sum);
            w.f64(s.min);
            w.f64(s.max);
        }
    }
}

fn decode_plain_columns(
    r: &mut ByteReader<'_>,
    key: Timestamp,
) -> Result<(Vec<Timestamp>, Vec<f64>)> {
    let n = r.len_of()?;
    let mut times = Vec::with_capacity(n);
    let mut prev = key.millis();
    for _ in 0..n {
        let delta = r.u64()?;
        let t = prev
            .checked_add(delta as i64)
            .ok_or_else(|| HyGraphError::corrupt("timestamp delta overflow"))?;
        times.push(Timestamp::from_millis(t));
        prev = t;
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.f64()?);
    }
    Ok((times, values))
}

fn decode_summary(r: &mut ByteReader<'_>) -> Result<Summary> {
    Ok(Summary {
        count: r.u64()?,
        sum: r.f64()?,
        min: r.f64()?,
        max: r.f64()?,
    })
}

/// Decodes the per-series section into `store`.
fn decode_series_into(r: &mut ByteReader<'_>, store: &mut TsStore) -> Result<()> {
    let n_series = r.len_of()?;
    for _ in 0..n_series {
        let id = SeriesId::new(r.u64()?);
        let total = r.len_of()?;
        let n_chunks = r.len_of()?;
        let mut chunks = BTreeMap::new();
        let mut counted = 0usize;
        for _ in 0..n_chunks {
            let key = r.timestamp()?;
            let data = match r.u8()? {
                TAG_PLAIN => {
                    let (times, values) = decode_plain_columns(r, key)?;
                    ChunkData::Plain { times, values }
                }
                TAG_SEALED => {
                    let block = SealedBlock::decode(r)?;
                    // validate the untrusted payload now, so in-memory
                    // decompression can rely on it being self-consistent
                    let (mut ts, mut vs) = (Vec::new(), Vec::new());
                    block.decode_into(key, &mut ts, &mut vs)?;
                    ChunkData::Sealed(block)
                }
                _ => return Err(HyGraphError::corrupt("unknown chunk tag")),
            };
            let summary = decode_summary(r)?;
            let chunk = Chunk {
                key,
                data,
                summary,
                dirty: false,
            };
            counted += chunk.len();
            note_sealed_delta(chunk.sealed_sizes(), 1);
            if chunks.insert(key, chunk).is_some() {
                return Err(HyGraphError::corrupt("duplicate chunk key"));
            }
        }
        if counted != total {
            return Err(HyGraphError::corrupt(
                "series length disagrees with chunk contents",
            ));
        }
        if store
            .series
            .insert(id, SeriesChunks::from_parts(chunks, total))
            .is_some()
        {
            return Err(HyGraphError::corrupt("duplicate series id"));
        }
    }
    Ok(())
}

/// Decodes a store previously written by [`encode_store`], using the
/// environment-configured storage options for the resulting store's
/// future behaviour. Already-sealed chunks stay sealed either way.
pub fn decode_store(r: &mut ByteReader<'_>) -> Result<TsStore> {
    decode_store_opts(r, TsOptions::from_env())
}

/// [`decode_store`] with explicit storage options.
pub fn decode_store_opts(r: &mut ByteReader<'_>, opts: TsOptions) -> Result<TsStore> {
    let sentinel = r.duration()?;
    if sentinel.is_positive() {
        // what the unversioned v1 codec put first: its chunk width
        return Err(HyGraphError::UnsupportedFormat(format!(
            "time-series store codec v1 (unversioned, leading chunk width {sentinel}); \
             this build reads only v{VERSION}"
        )));
    }
    if sentinel.millis() != 0 {
        return Err(HyGraphError::corrupt("negative ts codec sentinel"));
    }
    let version = r.u64()?;
    if version != VERSION {
        return Err(HyGraphError::UnsupportedFormat(format!(
            "time-series store codec v{version}; this build reads only v{VERSION}"
        )));
    }
    let chunk_width = r.duration()?;
    if !chunk_width.is_positive() {
        return Err(HyGraphError::corrupt("non-positive chunk width"));
    }
    let mut store = TsStore::with_options(chunk_width, opts);
    decode_series_into(r, &mut store)?;
    Ok(store)
}

/// Convenience: encodes into a fresh byte vector.
pub fn store_to_bytes(store: &TsStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_store(store, &mut w);
    w.into_bytes()
}

/// Convenience: decodes from a standalone byte slice, requiring the
/// slice to be fully consumed.
pub fn store_from_bytes(bytes: &[u8]) -> Result<TsStore> {
    let mut r = ByteReader::new(bytes);
    let store = decode_store(&mut r)?;
    r.expect_exhausted()?;
    Ok(store)
}

/// [`store_from_bytes`] with explicit storage options.
pub fn store_from_bytes_with(bytes: &[u8], opts: TsOptions) -> Result<TsStore> {
    let mut r = ByteReader::new(bytes);
    let store = decode_store_opts(&mut r, opts)?;
    r.expect_exhausted()?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::{Duration, Interval};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn sample_opts(opts: TsOptions) -> TsStore {
        let mut st = TsStore::with_options(Duration::from_millis(100), opts);
        let a = SeriesId::new(1);
        let b = SeriesId::new(9);
        for i in 0..25 {
            st.insert(a, ts(i * 40), (i as f64).sin() * 100.0);
        }
        // out-of-order + overwrite: summary bits now depend on op order
        st.insert(b, ts(500), 5.0);
        st.insert(b, ts(100), 1.0);
        st.insert(b, ts(300), 3.0);
        st.insert(b, ts(300), -3.0);
        st.create_series(SeriesId::new(42)); // empty series survives too
        st
    }

    fn sample() -> TsStore {
        sample_opts(TsOptions::default())
    }

    fn assert_stores_equal(a: &TsStore, b: &TsStore) {
        assert_eq!(a.chunk_width(), b.chunk_width());
        assert_eq!(a.series_count(), b.series_count());
        for id in a.series_ids() {
            assert_eq!(a.len(id), b.len(id));
            assert_eq!(a.chunk_count(id), b.chunk_count(id));
            let (s1, s2) = (
                a.summarize(id, &Interval::ALL),
                b.summarize(id, &Interval::ALL),
            );
            assert_eq!(s1.count, s2.count);
            assert_eq!(s1.sum.to_bits(), s2.sum.to_bits());
            assert_eq!(s1.min.to_bits(), s2.min.to_bits());
            assert_eq!(s1.max.to_bits(), s2.max.to_bits());
            let (r1, r2) = (a.range(id, &Interval::ALL), b.range(id, &Interval::ALL));
            assert_eq!(r1.times(), r2.times());
            assert_eq!(r1.values(), r2.values());
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        for compress in [false, true] {
            let st = sample_opts(TsOptions::default().compress(compress));
            let bytes = store_to_bytes(&st);
            let back = store_from_bytes_with(&bytes, st.options()).unwrap();
            assert_eq!(store_to_bytes(&back), bytes, "canonical re-encode");
            assert_stores_equal(&st, &back);
            assert_eq!(
                back.compression_stats(),
                st.compression_stats(),
                "sealed chunks persist as sealed"
            );
        }
    }

    #[test]
    fn decoded_store_keeps_working() {
        let st = sample();
        let mut back = store_from_bytes(&store_to_bytes(&st)).unwrap();
        let id = SeriesId::new(1);
        let before = back.len(id);
        back.insert(id, ts(10_000), 7.0);
        assert_eq!(back.len(id), before + 1);
        back.retain_from(id, ts(200)).unwrap();
        assert!(back.range(id, &Interval::ALL).times()[0] >= ts(200));
    }

    #[test]
    fn dirty_summary_is_rebuilt_before_encode() {
        // an extreme-value overwrite leaves the chunk summary stale;
        // the codec must write the rebuilt bits, and decode∘encode must
        // still be canonical
        let mut st = TsStore::with_options(
            Duration::from_millis(1_000),
            TsOptions::default().compress(false),
        );
        let id = SeriesId::new(3);
        st.insert(id, ts(10), 100.0);
        st.insert(id, ts(20), 1.0);
        st.insert(id, ts(10), 2.0); // overwrites the max → dirty
        let bytes = store_to_bytes(&st);
        let back = store_from_bytes_with(&bytes, st.options()).unwrap();
        assert_eq!(store_to_bytes(&back), bytes, "canonical re-encode");
        let s = back.summarize(id, &Interval::ALL);
        assert_eq!((s.min, s.max, s.sum), (1.0, 2.0, 3.0));
    }

    #[test]
    fn legacy_v1_stream_is_refused() {
        // hand-written v1 bytes: width, one series, one plain chunk —
        // exactly what the pre-compression codec emitted
        let mut w = ByteWriter::new();
        w.duration(Duration::from_millis(100));
        w.len_of(1); // one series
        w.u64(7); // series id
        w.len_of(2); // total points
        w.len_of(1); // one chunk
        w.timestamp(ts(100)); // chunk key
        w.len_of(2); // chunk points
        w.u64(10); // t=110
        w.u64(50); // t=160
        w.f64(1.5);
        w.f64(2.5);
        w.u64(2); // summary: count
        w.f64(4.0); // sum
        w.f64(1.5); // min
        w.f64(2.5); // max
        let err = store_from_bytes(w.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, HyGraphError::UnsupportedFormat(m) if m.contains("codec v1")),
            "expected a refusal naming v1, got {err:?}"
        );
    }

    #[test]
    fn unknown_newer_version_is_refused() {
        let mut w = ByteWriter::new();
        w.duration(Duration::from_millis(0));
        w.u64(3);
        w.duration(Duration::from_millis(100));
        w.len_of(0);
        let err = store_from_bytes(w.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, HyGraphError::UnsupportedFormat(m) if m.contains("codec v3")),
            "expected a refusal naming v3, got {err:?}"
        );
    }

    #[test]
    fn cross_compression_compat() {
        // bytes written by an uncompressed store load into a
        // compression-enabled one (and vice versa) with identical
        // query results — only future sealing behaviour differs
        let plain = sample_opts(TsOptions::default().compress(false));
        let compressed = sample_opts(TsOptions::default().compress(true));
        let plain_into_compressed =
            store_from_bytes_with(&store_to_bytes(&plain), TsOptions::default().compress(true))
                .unwrap();
        let compressed_into_plain = store_from_bytes_with(
            &store_to_bytes(&compressed),
            TsOptions::default().compress(false),
        )
        .unwrap();
        assert_stores_equal(&plain, &plain_into_compressed);
        assert_stores_equal(&compressed, &compressed_into_plain);
        assert_stores_equal(&plain_into_compressed, &compressed_into_plain);
        // sealed state is a property of the bytes, not the options
        assert_eq!(plain_into_compressed.compression_stats().sealed_chunks, 0);
        assert_eq!(
            compressed_into_plain.compression_stats(),
            compressed.compression_stats()
        );
    }

    #[test]
    fn empty_store_roundtrip() {
        let st = TsStore::new();
        let back = store_from_bytes(&store_to_bytes(&st)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.chunk_width(), TsStore::DEFAULT_CHUNK);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let bytes = store_to_bytes(&sample());
        assert!(store_from_bytes(&bytes[..bytes.len() / 3]).is_err());
        assert!(store_from_bytes(&[]).is_err());
        // sentinel with no version following: the series count reads
        // as a bad version number
        let mut w = ByteWriter::new();
        w.duration(Duration::from_millis(0));
        w.len_of(0);
        assert!(store_from_bytes(w.as_bytes()).is_err());
        // sentinel + unsupported version
        let mut w = ByteWriter::new();
        w.duration(Duration::from_millis(0));
        w.u64(99);
        w.duration(Duration::from_millis(100));
        w.len_of(0);
        assert!(store_from_bytes(w.as_bytes()).is_err());
        // negative sentinel, and a non-positive width behind a good head
        let mut w = ByteWriter::new();
        w.duration(Duration::from_millis(-5));
        w.len_of(0);
        assert!(store_from_bytes(w.as_bytes()).is_err());
        let mut w = ByteWriter::new();
        w.duration(Duration::from_millis(0));
        w.u64(VERSION);
        w.duration(Duration::from_millis(0));
        w.len_of(0);
        assert!(store_from_bytes(w.as_bytes()).is_err());
        // unknown chunk tag
        let mut w = ByteWriter::new();
        w.duration(Duration::from_millis(0));
        w.u64(VERSION);
        w.duration(Duration::from_millis(100));
        w.len_of(1);
        w.u64(1); // series id
        w.len_of(1);
        w.len_of(1);
        w.timestamp(ts(0));
        w.u8(7); // bogus tag
        assert!(store_from_bytes(w.as_bytes()).is_err());
        // trailing garbage
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(store_from_bytes(&extended).is_err());
        // flipping bytes inside a sealed payload must error or decode
        // to a consistent store, never panic
        let sealed = {
            let mut st = sample_opts(TsOptions::default().compress(true));
            st.seal_all();
            store_to_bytes(&st)
        };
        for i in (0..sealed.len()).step_by(7) {
            let mut corrupted = sealed.clone();
            corrupted[i] ^= 0x5a;
            let _ = store_from_bytes(&corrupted); // must not panic
        }
    }
}
