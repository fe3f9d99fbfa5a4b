//! Hypertable-style chunked time-series store.
//!
//! [`TsStore`] is the dedicated time-series engine behind the paper's
//! *polyglot persistence* design (TimeTravelDB = graph store +
//! TimescaleDB). It borrows TimescaleDB's load-bearing mechanisms:
//!
//! 1. **Time partitioning** — each series is split into fixed-width
//!    chunks keyed by chunk start time, held in an ordered index
//!    (`BTreeMap`). A range query touches only the chunks intersecting
//!    the interval (chunk pruning).
//! 2. **Per-chunk sparse aggregates** — every chunk maintains
//!    count/sum/min/max incrementally, so aggregate queries read whole
//!    covered chunks in O(1) and only scan the (at most two) boundary
//!    chunks.
//! 3. **Columnar compression** — cold chunks are *sealed* into
//!    delta-of-delta + Gorilla-XOR blocks ([`crate::compress`]); only
//!    the active head chunk stays as plain sorted arrays, so the insert
//!    fast path never pays for compression. Sealed chunks decode only
//!    when an interval boundary cuts through them.
//! 4. **Rollup pyramid** — per series, a fanout-F summary tree over
//!    the non-head chunk summaries ([`crate::rollup`]) turns
//!    wide-interval aggregates into O(F·log n) precomputed merges
//!    instead of O(#chunks).
//!
//! This is exactly the access-path asymmetry that produces the Table-1
//! speedups over the all-in-graph layout.

use crate::compress::SealedBlock;
use crate::config::TsOptions;
use crate::rollup::Pyramid;
use crate::series::TimeSeries;
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::{Duration, HyGraphError, Interval, Result, SeriesId, Timestamp};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Aggregate functions supported by the store and the query engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Number of observations.
    Count,
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

impl AggKind {
    /// Parses an aggregate name as used in HyQL (`mean`, `avg`, ...),
    /// case-insensitively. Unknown names are a typed error listing the
    /// valid kinds, so typos surface at the HyQL layer instead of being
    /// swallowed as `None`.
    pub fn parse(s: &str) -> Result<AggKind> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "mean" | "avg" => AggKind::Mean,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            _ => {
                return Err(HyGraphError::invalid(format!(
                    "unknown aggregate kind '{s}' (valid: count, sum, mean, avg, min, max)"
                )))
            }
        })
    }
}

/// Incrementally-maintained statistics of a chunk (or any value set).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Minimum value (`+∞` when empty).
    pub min: f64,
    /// Maximum value (`-∞` when empty).
    pub max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges another summary in.
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the summarised values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Extracts the requested aggregate; `None` when empty (except Count,
    /// which is 0).
    pub fn get(&self, kind: AggKind) -> Option<f64> {
        match kind {
            AggKind::Count => Some(self.count as f64),
            AggKind::Sum => (self.count > 0).then_some(self.sum),
            AggKind::Mean => self.mean(),
            AggKind::Min => (self.count > 0).then_some(self.min),
            AggKind::Max => (self.count > 0).then_some(self.max),
        }
    }

    /// Builds a summary by scanning a value slice.
    pub fn of(values: &[f64]) -> Summary {
        let mut s = Summary::new();
        for &v in values {
            s.add(v);
        }
        s
    }
}

/// Aggregate sizes of the sealed (compressed) chunks of a store — the
/// store-side ground truth behind the process-wide compression gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Number of sealed chunks.
    pub sealed_chunks: u64,
    /// Bytes the sealed columns would occupy uncompressed.
    pub raw_bytes: u64,
    /// Bytes the sealed columns occupy compressed.
    pub compressed_bytes: u64,
}

impl CompressionStats {
    /// Raw-to-compressed size ratio (0 when nothing is sealed).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// The physical representation of one chunk's columns.
#[derive(Clone, Debug)]
pub(crate) enum ChunkData {
    /// Mutable sorted arrays — the head chunk, and any chunk reopened
    /// by an out-of-order insert.
    Plain {
        /// Sorted, unique observation times.
        times: Vec<Timestamp>,
        /// Values aligned with `times`.
        values: Vec<f64>,
    },
    /// Immutable compressed columns.
    Sealed(SealedBlock),
}

/// One time partition of one series.
#[derive(Clone, Debug)]
pub(crate) struct Chunk {
    /// Chunk start time (also the map key; kept here so sealed blocks
    /// can decode without outside context).
    pub(crate) key: Timestamp,
    pub(crate) data: ChunkData,
    /// Sparse aggregate of the chunk's values. Stale while `dirty`.
    pub(crate) summary: Summary,
    /// Set when an overwrite invalidated a summary extreme; the summary
    /// is rebuilt lazily on the next read (or at seal time) instead of
    /// rescanning the chunk on every duplicate insert.
    pub(crate) dirty: bool,
}

/// What [`Chunk::insert`] did, for index and rollup maintenance.
enum ChunkInsert {
    /// A new observation was added.
    Added,
    /// An existing timestamp's value was replaced.
    Overwrote,
}

impl Chunk {
    fn new_plain(key: Timestamp) -> Chunk {
        Chunk {
            key,
            data: ChunkData::Plain {
                times: Vec::new(),
                values: Vec::new(),
            },
            summary: Summary::new(),
            dirty: false,
        }
    }

    /// Number of observations.
    pub(crate) fn len(&self) -> usize {
        match &self.data {
            ChunkData::Plain { times, .. } => times.len(),
            ChunkData::Sealed(b) => b.n(),
        }
    }

    pub(crate) fn is_sealed(&self) -> bool {
        matches!(self.data, ChunkData::Sealed(_))
    }

    /// Inserts keeping `times` sorted; fast path for append. Overwrites
    /// on duplicate timestamp. Only valid on a plain chunk — the store
    /// unseals before inserting.
    fn insert(&mut self, t: Timestamp, v: f64) -> ChunkInsert {
        let ChunkData::Plain { times, values } = &mut self.data else {
            unreachable!("insert into sealed chunk");
        };
        match times.last() {
            Some(&last) if t > last => {
                times.push(t);
                values.push(v);
                if !self.dirty {
                    self.summary.add(v);
                }
                ChunkInsert::Added
            }
            None => {
                times.push(t);
                values.push(v);
                if !self.dirty {
                    self.summary.add(v);
                }
                ChunkInsert::Added
            }
            _ => match times.binary_search(&t) {
                Ok(i) => {
                    let old = values[i];
                    values[i] = v;
                    if !self.dirty {
                        if old == self.summary.min || old == self.summary.max || old.is_nan() {
                            // the overwritten value may have defined an
                            // extreme (or poisoned the sum): defer the
                            // O(n) rebuild to the next summary read
                            self.dirty = true;
                        } else {
                            // interior overwrite: O(1) patch
                            self.summary.sum += v - old;
                            if v < self.summary.min {
                                self.summary.min = v;
                            }
                            if v > self.summary.max {
                                self.summary.max = v;
                            }
                        }
                    }
                    ChunkInsert::Overwrote
                }
                Err(i) => {
                    times.insert(i, t);
                    values.insert(i, v);
                    if !self.dirty {
                        self.summary.add(v);
                    }
                    ChunkInsert::Added
                }
            },
        }
    }

    /// The chunk summary, rebuilt on the fly if an overwrite left it
    /// stale.
    pub(crate) fn current_summary(&self) -> Summary {
        if !self.dirty {
            return self.summary;
        }
        match &self.data {
            ChunkData::Plain { values, .. } => Summary::of(values),
            // sealed chunks are never dirty: seal() refreshes first
            ChunkData::Sealed(_) => self.summary,
        }
    }

    /// Rebuilds a stale summary in place.
    fn refresh_summary(&mut self) {
        if !self.dirty {
            return;
        }
        if let ChunkData::Plain { values, .. } = &self.data {
            self.summary = Summary::of(values);
        }
        self.dirty = false;
    }

    /// Compresses a plain chunk; returns `(raw, compressed)` byte sizes
    /// when a seal actually happened.
    fn seal(&mut self) -> Option<(usize, usize)> {
        self.refresh_summary();
        let ChunkData::Plain { times, values } = &self.data else {
            return None;
        };
        if times.is_empty() {
            return None;
        }
        let block = SealedBlock::seal(self.key, times, values);
        let sizes = (block.raw_bytes(), block.compressed_bytes());
        self.data = ChunkData::Sealed(block);
        Some(sizes)
    }

    /// Decompresses a sealed chunk back to plain arrays; returns the
    /// `(raw, compressed)` sizes it occupied when it was sealed.
    fn unseal(&mut self) -> Option<(usize, usize)> {
        let ChunkData::Sealed(b) = &self.data else {
            return None;
        };
        let sizes = (b.raw_bytes(), b.compressed_bytes());
        let (mut times, mut values) = (Vec::new(), Vec::new());
        b.decode_into(self.key, &mut times, &mut values)
            .expect("sealed block is self-consistent");
        self.data = ChunkData::Plain { times, values };
        Some(sizes)
    }

    /// `(raw, compressed)` sizes when sealed, `None` when plain.
    pub(crate) fn sealed_sizes(&self) -> Option<(usize, usize)> {
        match &self.data {
            ChunkData::Sealed(b) => Some((b.raw_bytes(), b.compressed_bytes())),
            ChunkData::Plain { .. } => None,
        }
    }

    /// Runs `f` over the chunk's columns, decoding sealed data into
    /// scratch buffers first.
    pub(crate) fn with_cols<R>(&self, f: impl FnOnce(&[Timestamp], &[f64]) -> R) -> R {
        match &self.data {
            ChunkData::Plain { times, values } => f(times, values),
            ChunkData::Sealed(b) => {
                let (mut times, mut values) = (Vec::new(), Vec::new());
                b.decode_into(self.key, &mut times, &mut values)
                    .expect("sealed block is self-consistent");
                f(&times, &values)
            }
        }
    }

    /// Folds every in-range observation into `acc`, one `add` at a
    /// time (the boundary-chunk scan).
    fn add_range_into(&self, interval: &Interval, acc: &mut Summary) {
        self.with_cols(|times, values| {
            let lo = times.partition_point(|&t| t < interval.start);
            let hi = times.partition_point(|&t| t < interval.end);
            for &v in &values[lo..hi] {
                acc.add(v);
            }
        })
    }
}

/// The cached rollup index of one series: the chunk keys (for interval
/// → leaf-position mapping) and the pyramid over the non-head chunk
/// summaries. The head chunk is deliberately excluded so appends never
/// touch the pyramid.
#[derive(Clone, Debug)]
struct SeriesRollup {
    keys: Vec<Timestamp>,
    pyr: Pyramid,
}

/// Per-series chunk index.
#[derive(Debug, Default)]
pub(crate) struct SeriesChunks {
    pub(crate) chunks: BTreeMap<Timestamp, Chunk>,
    pub(crate) len: usize,
    /// Lazily-built rollup cache. Interior mutability lets read paths
    /// build it under `&self` (required by the parallel batch
    /// operators); writers maintain or invalidate it lock-free through
    /// `get_mut`.
    rollup: Mutex<Option<Arc<SeriesRollup>>>,
}

impl Clone for SeriesChunks {
    fn clone(&self) -> Self {
        let cache = self
            .rollup
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        Self {
            chunks: self.chunks.clone(),
            len: self.len,
            rollup: Mutex::new(cache),
        }
    }
}

impl SeriesChunks {
    /// Assembles a series index from decoded parts (the persistence
    /// codec's entry point; the rollup cache starts cold).
    pub(crate) fn from_parts(chunks: BTreeMap<Timestamp, Chunk>, len: usize) -> Self {
        Self {
            chunks,
            len,
            rollup: Mutex::new(None),
        }
    }

    /// The rollup index, building and caching it on first use.
    fn rollup(&self, fanout: usize) -> Arc<SeriesRollup> {
        let mut guard = self.rollup.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(r) = guard.as_ref() {
            return Arc::clone(r);
        }
        let keys: Vec<Timestamp> = self.chunks.keys().copied().collect();
        let n_leaves = keys.len().saturating_sub(1);
        let leaves: Vec<Summary> = self
            .chunks
            .values()
            .take(n_leaves)
            .map(Chunk::current_summary)
            .collect();
        let r = Arc::new(SeriesRollup {
            keys,
            pyr: Pyramid::build(leaves, fanout),
        });
        *guard = Some(Arc::clone(&r));
        r
    }

    fn invalidate_rollup(&mut self) {
        *self.rollup.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Pyramid queries only pay off past a handful of chunks; below this
/// the per-chunk loop is used. Path choice is a pure function of the
/// chunk count, so results stay deterministic per store state.
const ROLLUP_MIN_CHUNKS: usize = 4;

/// Emits the process-wide gauge deltas for a chunk entering
/// (`sign = 1`) or leaving (`sign = -1`) the sealed state.
pub(crate) fn note_sealed_delta(sizes: Option<(usize, usize)>, sign: i64) {
    if let Some((raw, comp)) = sizes {
        if let Some(m) = hygraph_metrics::get() {
            m.ts.sealed_chunks.add(sign);
            m.ts.raw_bytes.add(sign * raw as i64);
            m.ts.compressed_bytes.add(sign * comp as i64);
        }
    }
}

/// A chunked, time-partitioned store for many series.
#[derive(Clone, Debug)]
pub struct TsStore {
    pub(crate) chunk_width: Duration,
    pub(crate) opts: TsOptions,
    pub(crate) series: BTreeMap<SeriesId, SeriesChunks>,
}

impl TsStore {
    /// Default chunk width: one day — TimescaleDB's usual starting point.
    pub const DEFAULT_CHUNK: Duration = Duration(86_400_000);

    /// Creates a store with the default one-day chunk width and the
    /// environment-configured storage options.
    pub fn new() -> Self {
        Self::with_chunk_width(Self::DEFAULT_CHUNK)
    }

    /// Creates a store with a custom chunk width and the
    /// environment-configured storage options.
    pub fn with_chunk_width(chunk_width: Duration) -> Self {
        Self::with_options(chunk_width, TsOptions::from_env())
    }

    /// Creates a store with explicit storage options (bypassing
    /// `HYGRAPH_TS_COMPRESS` / `HYGRAPH_TS_ROLLUP_FANOUT`).
    pub fn with_options(chunk_width: Duration, opts: TsOptions) -> Self {
        assert!(chunk_width.is_positive(), "chunk width must be positive");
        Self {
            chunk_width,
            opts,
            series: BTreeMap::new(),
        }
    }

    /// The configured chunk width.
    pub fn chunk_width(&self) -> Duration {
        self.chunk_width
    }

    /// The storage options this store runs with.
    pub fn options(&self) -> TsOptions {
        self.opts
    }

    /// Registers an empty series (idempotent).
    pub fn create_series(&mut self, id: SeriesId) {
        self.series.entry(id).or_default();
    }

    /// Whether the series exists.
    pub fn contains(&self, id: SeriesId) -> bool {
        self.series.contains_key(&id)
    }

    /// All series ids, in order.
    pub fn series_ids(&self) -> impl Iterator<Item = SeriesId> + '_ {
        self.series.keys().copied()
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Number of observations in a series.
    pub fn len(&self, id: SeriesId) -> usize {
        self.series.get(&id).map_or(0, |s| s.len)
    }

    /// Whether the store holds no observations at all.
    pub fn is_empty(&self) -> bool {
        self.series.values().all(|s| s.len == 0)
    }

    /// Number of chunks backing a series.
    pub fn chunk_count(&self, id: SeriesId) -> usize {
        self.series.get(&id).map_or(0, |s| s.chunks.len())
    }

    /// Aggregate compression statistics across all series.
    pub fn compression_stats(&self) -> CompressionStats {
        let mut stats = CompressionStats::default();
        for sc in self.series.values() {
            for chunk in sc.chunks.values() {
                if let Some((raw, comp)) = chunk.sealed_sizes() {
                    stats.sealed_chunks += 1;
                    stats.raw_bytes += raw as u64;
                    stats.compressed_bytes += comp as u64;
                }
            }
        }
        stats
    }

    /// Inserts one observation (creates the series if needed). Supports
    /// out-of-order and duplicate timestamps (last write wins) — the R3
    /// "replace stale data" requirement.
    pub fn insert(&mut self, id: SeriesId, t: Timestamp, v: f64) {
        self.insert_inner(id, t, v);
        if let Some(m) = hygraph_metrics::get() {
            m.ts.inserts.inc();
            m.ts.points_inserted.inc();
        }
    }

    fn insert_inner(&mut self, id: SeriesId, t: Timestamp, v: f64) {
        let opts = self.opts;
        let sc = self.series.entry(id).or_default();
        let key = t.truncate(self.chunk_width);
        if !sc.chunks.contains_key(&key) {
            let prev_head = sc.chunks.last_key_value().map(|(&k, _)| k);
            if prev_head.is_none_or(|k| key > k) {
                // head advance: everything below the new head is cold —
                // seal it (when compression is on) …
                if opts.compress {
                    for chunk in sc.chunks.values_mut() {
                        note_sealed_delta(chunk.seal(), 1);
                    }
                }
                // … and the old head becomes a pyramid leaf
                let cache = sc.rollup.get_mut().unwrap_or_else(|e| e.into_inner());
                if let Some(r) = cache.as_mut() {
                    let r = Arc::make_mut(r);
                    if let Some(k) = prev_head {
                        let s = sc
                            .chunks
                            .get(&k)
                            .expect("old head exists")
                            .current_summary();
                        r.pyr.push_leaf(s);
                    }
                    r.keys.push(key);
                }
            } else {
                // a chunk materialised in the middle of history: leaf
                // positions shift, rebuild the cache lazily
                sc.invalidate_rollup();
            }
            let mut chunk = Chunk::new_plain(key);
            chunk.insert(t, v);
            sc.chunks.insert(key, chunk);
            sc.len += 1;
            return;
        }
        let is_head = sc.chunks.last_key_value().map(|(&k, _)| k) == Some(key);
        let chunk = sc.chunks.get_mut(&key).expect("presence checked above");
        note_sealed_delta(chunk.unseal(), -1);
        if matches!(chunk.insert(t, v), ChunkInsert::Added) {
            sc.len += 1;
        }
        if !is_head {
            // keep the cached pyramid leaf in sync (the head is outside
            // the pyramid, so head writes never touch it)
            let (summary, dirty) = (chunk.summary, chunk.dirty);
            let cache = sc.rollup.get_mut().unwrap_or_else(|e| e.into_inner());
            if cache.is_some() {
                if dirty {
                    *cache = None;
                } else if let Some(r) = cache.as_mut() {
                    let pos = r
                        .keys
                        .binary_search(&key)
                        .expect("cached keys mirror the chunk index");
                    Arc::make_mut(r).pyr.set_leaf(pos, summary);
                }
            }
        }
    }

    /// Bulk-appends a whole series.
    pub fn insert_series(&mut self, id: SeriesId, s: &TimeSeries) {
        let mut points = 0u64;
        for (t, v) in s.iter() {
            self.insert_inner(id, t, v);
            points += 1;
        }
        if let Some(m) = hygraph_metrics::get() {
            m.ts.inserts.inc();
            m.ts.points_inserted.add(points);
        }
    }

    /// Seals every remaining plain chunk — the bulk-load epilogue, so a
    /// freshly-loaded corpus is fully compressed instead of waiting for
    /// the next head advance. No-op when compression is off.
    pub fn seal_all(&mut self) {
        if !self.opts.compress {
            return;
        }
        for sc in self.series.values_mut() {
            for chunk in sc.chunks.values_mut() {
                note_sealed_delta(chunk.seal(), 1);
            }
        }
    }

    /// The exact value at `t`, if observed.
    pub fn value_at(&self, id: SeriesId, t: Timestamp) -> Option<f64> {
        let sc = self.series.get(&id)?;
        let chunk = sc.chunks.get(&t.truncate(self.chunk_width))?;
        chunk.with_cols(|times, values| times.binary_search(&t).ok().map(|i| values[i]))
    }

    /// The most recent observation at or before `t`.
    pub fn value_at_or_before(&self, id: SeriesId, t: Timestamp) -> Option<(Timestamp, f64)> {
        let sc = self.series.get(&id)?;
        let key = t.truncate(self.chunk_width);
        // walk chunk index backwards starting at t's chunk
        for (_, chunk) in sc.chunks.range(..=key).rev() {
            let hit = chunk.with_cols(|times, values| {
                let i = times.partition_point(|&ct| ct <= t);
                (i > 0).then(|| (times[i - 1], values[i - 1]))
            });
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// Materialises the observations of `id` inside `interval`, chunk-pruned.
    pub fn range(&self, id: SeriesId, interval: &Interval) -> TimeSeries {
        let mut out = TimeSeries::new();
        // chunks are visited in time order, so push preserves order
        self.scan(id, interval, |t, v| {
            out.push(t, v).expect("chunks are time-ordered");
        });
        out
    }

    /// Visits each observation of `id` inside `interval` without
    /// materialising, in time order.
    pub fn scan(&self, id: SeriesId, interval: &Interval, mut f: impl FnMut(Timestamp, f64)) {
        let Some(sc) = self.series.get(&id) else {
            return;
        };
        let first_key = interval.start.truncate(self.chunk_width);
        for (_, chunk) in sc.chunks.range(first_key..interval.end) {
            chunk.with_cols(|times, values| {
                let lo = times.partition_point(|&t| t < interval.start);
                let hi = times.partition_point(|&t| t < interval.end);
                for i in lo..hi {
                    f(times[i], values[i]);
                }
            });
        }
    }

    /// Computes a summary over `interval`. Large series ride the rollup
    /// pyramid: O(F·log #chunks) precomputed merges plus at most two
    /// boundary-chunk scans. Small series use the per-chunk loop
    /// directly. Path choice depends only on store state, so repeated
    /// calls are bit-identical.
    pub fn summarize(&self, id: SeriesId, interval: &Interval) -> Summary {
        let Some(sc) = self.series.get(&id) else {
            return Summary::new();
        };
        if sc.chunks.len() < ROLLUP_MIN_CHUNKS {
            self.summarize_chunks(sc, interval)
        } else {
            self.summarize_rollup(sc, interval)
        }
    }

    /// The pre-pyramid reference aggregate path: merge every covered
    /// chunk's summary, scan the boundary chunks. Kept public so the
    /// benchmarks and equivalence tests can pin the baseline the
    /// pyramid is measured against.
    pub fn summarize_naive(&self, id: SeriesId, interval: &Interval) -> Summary {
        match self.series.get(&id) {
            Some(sc) => self.summarize_chunks(sc, interval),
            None => Summary::new(),
        }
    }

    fn summarize_chunks(&self, sc: &SeriesChunks, interval: &Interval) -> Summary {
        let mut acc = Summary::new();
        let first_key = interval.start.truncate(self.chunk_width);
        for (&key, chunk) in sc.chunks.range(first_key..interval.end) {
            let chunk_iv = Interval::new(key, key + self.chunk_width);
            if interval.contains_interval(&chunk_iv) {
                acc.merge(&chunk.current_summary());
            } else {
                chunk.add_range_into(interval, &mut acc);
            }
        }
        acc
    }

    fn summarize_rollup(&self, sc: &SeriesChunks, interval: &Interval) -> Summary {
        let r = sc.rollup(self.opts.rollup_fanout);
        let first_key = interval.start.truncate(self.chunk_width);
        let mut a = r.keys.partition_point(|&k| k < first_key);
        let mut b = r.keys.partition_point(|&k| k < interval.end);
        let mut acc = Summary::new();
        let mut hits = 0u64;
        let mut boundary_decodes = 0u64;
        // left boundary chunk, if the interval starts inside it
        if a < b && r.keys[a] < interval.start {
            let chunk = &sc.chunks[&r.keys[a]];
            if chunk.is_sealed() {
                boundary_decodes += 1;
            }
            chunk.add_range_into(interval, &mut acc);
            a += 1;
        }
        // right boundary chunk, if it extends past the interval
        let right_partial = b > a && r.keys[b - 1] + self.chunk_width > interval.end;
        if right_partial {
            b -= 1;
        }
        // fully-covered span: pyramid nodes first, then whatever falls
        // past the pyramid (only ever the head chunk)
        let pyr_end = b.min(r.pyr.len());
        if a < pyr_end {
            let (s, nodes) = r.pyr.range(a, pyr_end);
            acc.merge(&s);
            hits += nodes as u64;
        }
        for pos in pyr_end.max(a)..b {
            acc.merge(&sc.chunks[&r.keys[pos]].current_summary());
        }
        if right_partial {
            let chunk = &sc.chunks[&r.keys[b]];
            if chunk.is_sealed() {
                boundary_decodes += 1;
            }
            chunk.add_range_into(interval, &mut acc);
        }
        if let Some(m) = hygraph_metrics::get() {
            m.ts.rollup_hits.add(hits);
            m.ts.rollup_boundary_decodes.add(boundary_decodes);
        }
        acc
    }

    /// Single aggregate over a range.
    pub fn aggregate(&self, id: SeriesId, interval: &Interval, kind: AggKind) -> Option<f64> {
        self.summarize(id, interval).get(kind)
    }

    /// [`summarize`](Self::summarize) over many series at once, returned
    /// in input order. Per-series summaries are independent, so the
    /// batch fans out across threads for large id sets (the multi-series
    /// scan queries Q4/Q5/Q8 of the storage experiment) with results
    /// identical to calling `summarize` in a loop.
    pub fn summarize_batch(
        &self,
        ids: &[SeriesId],
        interval: &Interval,
        mode: ExecMode,
    ) -> Vec<Summary> {
        if should_parallelize(mode, ids.len()) {
            ids.par_iter()
                .map(|&id| self.summarize(id, interval))
                .collect()
        } else {
            ids.iter().map(|&id| self.summarize(id, interval)).collect()
        }
    }

    /// [`aggregate`](Self::aggregate) over many series at once, in input
    /// order.
    pub fn aggregate_batch(
        &self,
        ids: &[SeriesId],
        interval: &Interval,
        kind: AggKind,
        mode: ExecMode,
    ) -> Vec<Option<f64>> {
        self.summarize_batch(ids, interval, mode)
            .iter()
            .map(|s| s.get(kind))
            .collect()
    }

    /// Bucketed aggregation: one summary per tumbling window of width
    /// `bucket` across `interval`. Returns `(bucket_start, summary)` pairs
    /// for non-empty buckets.
    ///
    /// Fast path: when `bucket` is a whole multiple of the chunk width,
    /// fully-covered chunks contribute their precomputed summaries in
    /// O(1) each (TimescaleDB-style chunk-wise aggregation); only
    /// interval-boundary chunks are scanned.
    pub fn aggregate_buckets(
        &self,
        id: SeriesId,
        interval: &Interval,
        bucket: Duration,
    ) -> Vec<(Timestamp, Summary)> {
        let mut out: Vec<(Timestamp, Summary)> = Vec::new();
        let aligned = bucket.millis() > 0 && bucket.millis() % self.chunk_width.millis() == 0;
        if aligned {
            if let Some(sc) = self.series.get(&id) {
                let first_key = interval.start.truncate(self.chunk_width);
                for (&key, chunk) in sc.chunks.range(first_key..interval.end) {
                    let chunk_iv = Interval::new(key, key + self.chunk_width);
                    let bucket_key = key.truncate(bucket);
                    if interval.contains_interval(&chunk_iv) {
                        let s = chunk.current_summary();
                        match out.last_mut() {
                            Some((last, acc)) if *last == bucket_key => acc.merge(&s),
                            _ => out.push((bucket_key, s)),
                        }
                    } else {
                        chunk.with_cols(|times, values| {
                            let lo = times.partition_point(|&t| t < interval.start);
                            let hi = times.partition_point(|&t| t < interval.end);
                            for i in lo..hi {
                                let bk = times[i].truncate(bucket);
                                match out.last_mut() {
                                    Some((last, s)) if *last == bk => s.add(values[i]),
                                    _ => {
                                        let mut s = Summary::new();
                                        s.add(values[i]);
                                        out.push((bk, s));
                                    }
                                }
                            }
                        });
                    }
                }
            }
            return out;
        }
        self.scan(id, interval, |t, v| {
            let key = t.truncate(bucket);
            match out.last_mut() {
                Some((last_key, s)) if *last_key == key => s.add(v),
                _ => {
                    let mut s = Summary::new();
                    s.add(v);
                    out.push((key, s));
                }
            }
        });
        out
    }

    /// Removes a series entirely; returns whether it existed.
    pub fn drop_series(&mut self, id: SeriesId) -> bool {
        match self.series.remove(&id) {
            Some(sc) => {
                for chunk in sc.chunks.values() {
                    note_sealed_delta(chunk.sealed_sizes(), -1);
                }
                true
            }
            None => false,
        }
    }

    /// Removes all observations strictly before `t` (retention policy).
    /// Whole chunks are dropped in O(log n); the boundary chunk is trimmed.
    pub fn retain_from(&mut self, id: SeriesId, t: Timestamp) -> Result<()> {
        let sc = self
            .series
            .get_mut(&id)
            .ok_or(HyGraphError::SeriesNotFound(id))?;
        let boundary_key = t.truncate(self.chunk_width);
        // drop whole chunks before the boundary chunk
        let dead: Vec<Timestamp> = sc.chunks.range(..boundary_key).map(|(&k, _)| k).collect();
        for k in dead {
            let c = sc.chunks.remove(&k).expect("key just listed");
            sc.len -= c.len();
            note_sealed_delta(c.sealed_sizes(), -1);
        }
        // trim the boundary chunk (reopening it if sealed)
        if let Some(chunk) = sc.chunks.get_mut(&boundary_key) {
            note_sealed_delta(chunk.unseal(), -1);
            let ChunkData::Plain { times, values } = &mut chunk.data else {
                unreachable!("chunk just unsealed");
            };
            let cut = times.partition_point(|&ct| ct < t);
            if cut > 0 {
                times.drain(..cut);
                values.drain(..cut);
                sc.len -= cut;
                chunk.summary = Summary::of(values);
                chunk.dirty = false;
            }
            if chunk.len() == 0 {
                sc.chunks.remove(&boundary_key);
            }
        }
        sc.invalidate_rollup();
        Ok(())
    }
}

impl Default for TsStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn store_100ms() -> TsStore {
        TsStore::with_chunk_width(Duration::from_millis(100))
    }

    #[test]
    fn insert_and_range_across_chunks() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        for i in 0..10 {
            st.insert(id, ts(i * 50), i as f64);
        }
        assert_eq!(st.len(id), 10);
        assert_eq!(st.chunk_count(id), 5, "two points per 100ms chunk");
        let r = st.range(id, &Interval::new(ts(100), ts(300)));
        assert_eq!(r.values(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(r.times()[0], ts(100));
    }

    #[test]
    fn duplicate_overwrite_rebuilds_chunk_summary() {
        // regression: overwriting the value that held a chunk's min or
        // max must rebuild the sparse summary, not just patch the value
        // vector — otherwise covered-chunk aggregates report stale
        // extremes
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        st.insert(id, ts(10), 100.0); // chunk max
        st.insert(id, ts(20), -100.0); // chunk min
        st.insert(id, ts(30), 1.0);
        // overwrite both extremes with interior values (same chunk)
        st.insert(id, ts(10), 2.0);
        st.insert(id, ts(20), 3.0);
        // interval covering the whole chunk takes the precomputed-summary
        // path
        let whole = Interval::new(ts(0), ts(100));
        let s = st.summarize(id, &whole);
        assert_eq!(s.count, 3, "overwrite must not add observations");
        assert_eq!(s.min, 1.0, "stale min -100 must be gone");
        assert_eq!(s.max, 3.0, "stale max 100 must be gone");
        assert_eq!(s.sum, 6.0);
        assert_eq!(st.aggregate(id, &whole, AggKind::Mean), Some(2.0));
        // and the summary path agrees with a raw partial-chunk scan
        let partial = st.summarize(id, &Interval::new(ts(0), ts(99)));
        assert_eq!(partial.min, s.min);
        assert_eq!(partial.max, s.max);
        assert_eq!(partial.sum, s.sum);
    }

    #[test]
    fn duplicate_heavy_ingest_is_not_quadratic() {
        // regression for the O(n²) duplicate-heavy ingest: every
        // overwrite used to rescan the whole chunk to rebuild its
        // summary; now interior overwrites patch in O(1) and extreme
        // overwrites defer one rebuild to the next read. At this size
        // the old path performs ~10¹⁰ summary adds and effectively
        // hangs, so merely finishing is the regression check.
        let n: i64 = 100_000;
        let mut st = TsStore::with_options(Duration::from_millis(1 << 40), TsOptions::default());
        let id = SeriesId::new(1);
        for i in 0..n {
            st.insert(id, ts(i), i as f64);
        }
        // interior overwrites: O(1) summary patches
        for i in 1..n - 1 {
            st.insert(id, ts(i), i as f64 + 0.5);
        }
        // extreme overwrites: dirty-mark, rebuilt lazily on read
        st.insert(id, ts(0), 7.25);
        st.insert(id, ts(n - 1), 8.25);
        let s = st.summarize(id, &Interval::ALL);
        let mut naive = Summary::new();
        st.scan(id, &Interval::ALL, |_, v| naive.add(v));
        assert_eq!(s.count, naive.count);
        assert_eq!(s.min, naive.min);
        assert_eq!(s.max, naive.max);
        let rel = (s.sum - naive.sum).abs() / naive.sum.abs();
        assert!(rel < 1e-9, "sum drifted: {} vs {}", s.sum, naive.sum);
    }

    #[test]
    fn batch_summarize_matches_per_series_calls() {
        let mut st = store_100ms();
        let ids: Vec<SeriesId> = (1..=40).map(SeriesId::new).collect();
        for (k, &id) in ids.iter().enumerate() {
            for i in 0..50 {
                st.insert(id, ts(i * 20), (i + k as i64) as f64 * 0.5);
            }
        }
        let iv = Interval::new(ts(40), ts(760));
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let batch = st.summarize_batch(&ids, &iv, mode);
            assert_eq!(batch.len(), ids.len());
            for (&id, b) in ids.iter().zip(&batch) {
                let single = st.summarize(id, &iv);
                assert_eq!(b.count, single.count, "{mode:?}");
                assert_eq!(b.sum.to_bits(), single.sum.to_bits(), "{mode:?}");
                assert_eq!(b.min, single.min);
                assert_eq!(b.max, single.max);
            }
            let aggs = st.aggregate_batch(&ids, &iv, AggKind::Max, mode);
            for (&id, a) in ids.iter().zip(&aggs) {
                assert_eq!(*a, st.aggregate(id, &iv, AggKind::Max));
            }
        }
    }

    #[test]
    fn out_of_order_and_duplicate_inserts() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        st.insert(id, ts(250), 2.5);
        st.insert(id, ts(50), 0.5);
        st.insert(id, ts(150), 1.5);
        st.insert(id, ts(150), 9.9); // overwrite
        assert_eq!(st.len(id), 3);
        let r = st.range(id, &Interval::ALL);
        assert_eq!(r.times(), &[ts(50), ts(150), ts(250)]);
        assert_eq!(r.values(), &[0.5, 9.9, 2.5]);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn value_lookups() {
        let mut st = store_100ms();
        let id = SeriesId::new(7);
        st.insert(id, ts(10), 1.0);
        st.insert(id, ts(210), 2.0);
        assert_eq!(st.value_at(id, ts(10)), Some(1.0));
        assert_eq!(st.value_at(id, ts(11)), None);
        assert_eq!(st.value_at_or_before(id, ts(209)), Some((ts(10), 1.0)));
        assert_eq!(st.value_at_or_before(id, ts(210)), Some((ts(210), 2.0)));
        assert_eq!(st.value_at_or_before(id, ts(9)), None);
        assert_eq!(st.value_at(SeriesId::new(99), ts(10)), None);
    }

    #[test]
    fn summarize_matches_naive() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        let s = TimeSeries::generate(ts(0), Duration::from_millis(10), 100, |i| (i % 7) as f64);
        st.insert_series(id, &s);
        let iv = Interval::new(ts(95), ts(805));
        let fast = st.summarize(id, &iv);
        let slow = Summary::of(s.range(&iv).values);
        assert_eq!(fast.count, slow.count);
        assert!((fast.sum - slow.sum).abs() < 1e-9);
        assert_eq!(fast.min, slow.min);
        assert_eq!(fast.max, slow.max);
    }

    #[test]
    fn pyramid_path_matches_reference_path() {
        // enough chunks for the rollup path, with out-of-order inserts,
        // overwrites, and both compression settings
        for compress in [false, true] {
            let mut st = TsStore::with_options(
                Duration::from_millis(100),
                TsOptions::default().compress(compress).rollup_fanout(4),
            );
            let id = SeriesId::new(1);
            for i in 0..400 {
                st.insert(id, ts(i * 7), ((i * 31) % 23) as f64 - 11.0);
            }
            st.insert(id, ts(3), -50.0); // out-of-order into chunk 0
            st.insert(id, ts(700), 50.0); // overwrite mid-history
            assert!(st.chunk_count(id) >= ROLLUP_MIN_CHUNKS);
            for (lo, hi) in [
                (0, 2800),
                (95, 805),
                (100, 800),
                (0, 100),
                (250, 260),
                (2700, 2800),
                (1, 2799),
            ] {
                let iv = Interval::new(ts(lo), ts(hi));
                let fast = st.summarize(id, &iv);
                let slow = st.summarize_naive(id, &iv);
                assert_eq!(fast.count, slow.count, "compress={compress} [{lo},{hi})");
                assert_eq!(fast.min, slow.min, "compress={compress} [{lo},{hi})");
                assert_eq!(fast.max, slow.max, "compress={compress} [{lo},{hi})");
                assert!(
                    (fast.sum - slow.sum).abs() < 1e-9,
                    "compress={compress} [{lo},{hi}): {} vs {}",
                    fast.sum,
                    slow.sum
                );
            }
        }
    }

    #[test]
    fn seal_lifecycle() {
        let mut st = TsStore::with_options(
            Duration::from_millis(100),
            TsOptions::default().compress(true),
        );
        let id = SeriesId::new(1);
        for i in 0..50 {
            st.insert(id, ts(i * 10), ((i * 13) % 11) as f64);
        }
        assert_eq!(st.chunk_count(id), 5);
        let stats = st.compression_stats();
        assert_eq!(stats.sealed_chunks, 4, "head chunk stays plain");
        assert!(stats.compressed_bytes > 0);
        st.seal_all();
        assert_eq!(st.compression_stats().sealed_chunks, 5);
        // out-of-order insert reopens exactly one chunk
        st.insert(id, ts(5), 99.0);
        assert_eq!(st.compression_stats().sealed_chunks, 4);
        assert_eq!(st.value_at(id, ts(5)), Some(99.0));
        // a twin built without compression answers identically
        let mut plain = TsStore::with_options(
            Duration::from_millis(100),
            TsOptions::default().compress(false),
        );
        for i in 0..50 {
            plain.insert(id, ts(i * 10), ((i * 13) % 11) as f64);
        }
        plain.insert(id, ts(5), 99.0);
        assert_eq!(plain.compression_stats(), CompressionStats::default());
        let (a, b) = (
            st.range(id, &Interval::ALL),
            plain.range(id, &Interval::ALL),
        );
        assert_eq!(a.times(), b.times());
        assert_eq!(a.values(), b.values());
        let (sa, sb) = (
            st.summarize(id, &Interval::ALL),
            plain.summarize(id, &Interval::ALL),
        );
        assert_eq!(sa.count, sb.count);
        assert_eq!(sa.sum.to_bits(), sb.sum.to_bits());
        assert_eq!(sa.min, sb.min);
        assert_eq!(sa.max, sb.max);
    }

    #[test]
    fn regular_corpus_compresses_at_least_2x() {
        // Table-1-shaped data: regular ticks, integer-valued readings
        let mut st = TsStore::with_options(
            Duration::from_millis(10_000),
            TsOptions::default().compress(true),
        );
        let id = SeriesId::new(1);
        for i in 0..5_000 {
            st.insert(id, ts(i * 100), ((i * 17) % 30) as f64);
        }
        st.seal_all();
        let stats = st.compression_stats();
        assert!(
            stats.ratio() >= 2.0,
            "expected ≥2x compression, got {:.2} ({} → {} bytes)",
            stats.ratio(),
            stats.raw_bytes,
            stats.compressed_bytes
        );
    }

    #[test]
    fn aggregate_kinds() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        for (i, v) in [3.0, 1.0, 4.0, 1.0, 5.0].iter().enumerate() {
            st.insert(id, ts(i as i64 * 10), *v);
        }
        let iv = Interval::ALL;
        assert_eq!(st.aggregate(id, &iv, AggKind::Count), Some(5.0));
        assert_eq!(st.aggregate(id, &iv, AggKind::Sum), Some(14.0));
        assert_eq!(st.aggregate(id, &iv, AggKind::Mean), Some(2.8));
        assert_eq!(st.aggregate(id, &iv, AggKind::Min), Some(1.0));
        assert_eq!(st.aggregate(id, &iv, AggKind::Max), Some(5.0));
        // empty range
        let empty = Interval::new(ts(1000), ts(2000));
        assert_eq!(st.aggregate(id, &empty, AggKind::Mean), None);
        assert_eq!(st.aggregate(id, &empty, AggKind::Count), Some(0.0));
    }

    #[test]
    fn bucketed_aggregation() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        for i in 0..6 {
            st.insert(id, ts(i * 50), 1.0);
        }
        let buckets = st.aggregate_buckets(id, &Interval::ALL, Duration::from_millis(100));
        assert_eq!(buckets.len(), 3);
        for (_, s) in &buckets {
            assert_eq!(s.count, 2);
        }
        assert_eq!(buckets[0].0, ts(0));
        assert_eq!(buckets[2].0, ts(200));
    }

    #[test]
    fn retention() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        for i in 0..10 {
            st.insert(id, ts(i * 50), i as f64);
        }
        st.retain_from(id, ts(225)).unwrap();
        let r = st.range(id, &Interval::ALL);
        assert_eq!(r.times()[0], ts(250));
        assert_eq!(st.len(id), 5);
        // summaries still correct after trim
        assert_eq!(st.aggregate(id, &Interval::ALL, AggKind::Min), Some(5.0));
        assert!(st.retain_from(SeriesId::new(9), ts(0)).is_err());
    }

    #[test]
    fn negative_timestamps_supported() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        st.insert(id, ts(-250), 1.0);
        st.insert(id, ts(-50), 2.0);
        st.insert(id, ts(50), 3.0);
        let r = st.range(id, &Interval::new(ts(-300), ts(0)));
        assert_eq!(r.values(), &[1.0, 2.0]);
        assert_eq!(st.summarize(id, &Interval::ALL).count, 3);
    }

    #[test]
    fn agg_kind_parse() {
        assert_eq!(AggKind::parse("AVG").unwrap(), AggKind::Mean);
        assert_eq!(AggKind::parse("mean").unwrap(), AggKind::Mean);
        assert_eq!(AggKind::parse("count").unwrap(), AggKind::Count);
        let err = AggKind::parse("median").unwrap_err().to_string();
        assert!(err.contains("median"), "error names the typo: {err}");
        assert!(err.contains("valid:"), "error lists valid kinds: {err}");
    }

    #[test]
    fn drop_series() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        st.insert(id, ts(0), 1.0);
        assert!(st.drop_series(id));
        assert!(!st.drop_series(id));
        assert_eq!(st.len(id), 0);
        assert!(st.is_empty());
    }

    #[test]
    fn aligned_bucket_fast_path_matches_scan_path() {
        let mut st = store_100ms();
        let id = SeriesId::new(1);
        let s = TimeSeries::generate(ts(7), Duration::from_millis(13), 200, |i| {
            ((i * 31) % 17) as f64
        });
        st.insert_series(id, &s);
        // bucket = 2 chunks (aligned fast path) vs odd bucket (scan path)
        for (a, b) in [(200i64, 200i64)] {
            let iv = Interval::new(ts(37), ts(2_000));
            let fast = st.aggregate_buckets(id, &iv, Duration::from_millis(a));
            // recompute naively from a materialised range
            let r = st.range(id, &iv);
            let mut naive: Vec<(Timestamp, Summary)> = Vec::new();
            for (t, v) in r.iter() {
                let key = t.truncate(Duration::from_millis(b));
                match naive.last_mut() {
                    Some((k, su)) if *k == key => su.add(v),
                    _ => {
                        let mut su = Summary::new();
                        su.add(v);
                        naive.push((key, su));
                    }
                }
            }
            assert_eq!(fast.len(), naive.len());
            for ((tk, fs), (nk, ns)) in fast.iter().zip(&naive) {
                assert_eq!(tk, nk);
                assert_eq!(fs.count, ns.count);
                assert!((fs.sum - ns.sum).abs() < 1e-9);
                assert_eq!(fs.min, ns.min);
                assert_eq!(fs.max, ns.max);
            }
        }
    }

    #[test]
    fn summary_merge_and_get() {
        let mut a = Summary::of(&[1.0, 2.0]);
        let b = Summary::of(&[10.0]);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.get(AggKind::Max), Some(10.0));
        assert_eq!(a.get(AggKind::Min), Some(1.0));
        let e = Summary::new();
        assert_eq!(e.get(AggKind::Sum), None);
        assert_eq!(e.get(AggKind::Count), Some(0.0));
        assert_eq!(e.mean(), None);
    }
}
