//! The polyglot-persistence backend (the paper's TimeTravelDB role).
//!
//! Topology stays in the graph store; every station's availability
//! series lives in a [`TsStore`] — chunked by day, with an ordered chunk
//! index and per-chunk sparse aggregates. Range queries prune to the
//! touched chunks; aggregate queries read whole covered chunks in O(1).

use crate::backend::{DayAgg, StorageBackend};
use hygraph_datagen::bike::BikeDataset;
use hygraph_graph::TemporalGraph;
use hygraph_ts::store::{AggKind, Summary};
use hygraph_ts::TsStore;
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::{
    Duration, EdgeId, HyGraphError, Interval, Label, PropertyMap, Result, SeriesId, Timestamp,
    VertexId,
};
use rayon::prelude::*;
use std::collections::HashMap;

/// Graph store + dedicated chunked time-series store.
pub struct PolyglotStore {
    graph: TemporalGraph,
    ts: TsStore,
    stations: Vec<VertexId>,
    series_of: HashMap<VertexId, SeriesId>,
}

impl Default for PolyglotStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PolyglotStore {
    /// An empty store, ready for incremental [`Self::add_station`] /
    /// [`Self::observe`] ingest (the durable-storage write path).
    pub fn new() -> Self {
        Self {
            graph: TemporalGraph::new(),
            ts: TsStore::with_chunk_width(Duration::from_days(1)),
            stations: Vec::new(),
            series_of: HashMap::new(),
        }
    }

    /// Loads the bike dataset: topology cloned, series bulk-inserted into
    /// the chunk store.
    pub fn load(dataset: &BikeDataset) -> Self {
        let mut ts = TsStore::with_chunk_width(Duration::from_days(1));
        let mut series_of = HashMap::with_capacity(dataset.stations.len());
        for (i, &station) in dataset.stations.iter().enumerate() {
            let sid = SeriesId::new(i as u64);
            ts.insert_series(sid, &dataset.availability[i]);
            series_of.insert(station, sid);
        }
        // bulk-load epilogue: the corpus is historical, so compress it
        // all now instead of leaving each head chunk plain (no-op when
        // HYGRAPH_TS_COMPRESS is off)
        ts.seal_all();
        Self {
            graph: dataset.graph.clone(),
            ts,
            stations: dataset.stations.clone(),
            series_of,
        }
    }

    /// Adds a station vertex and its dedicated (initially empty) series.
    /// Vertex ids and series ids are allocated densely and
    /// deterministically, so replaying the same mutation sequence yields
    /// the same ids — the property WAL recovery depends on.
    pub fn add_station(
        &mut self,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
    ) -> VertexId {
        let v = self.graph.add_vertex_valid(labels, props, Interval::ALL);
        let sid = SeriesId::new(self.stations.len() as u64);
        self.ts.create_series(sid);
        self.stations.push(v);
        self.series_of.insert(v, sid);
        v
    }

    /// Adds a trip edge between two stations.
    pub fn add_trip(
        &mut self,
        src: VertexId,
        dst: VertexId,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        self.graph
            .add_edge_valid(src, dst, labels, props, Interval::ALL)
    }

    /// Records one availability observation into the chunked series
    /// store — the fast polyglot write path.
    pub fn observe(&mut self, station: VertexId, t: Timestamp, value: f64) -> Result<()> {
        let sid = self
            .sid(station)
            .ok_or(HyGraphError::VertexNotFound(station))?;
        self.ts.insert(sid, t, value);
        Ok(())
    }

    /// Station vertices in insertion order.
    pub fn stations(&self) -> &[VertexId] {
        &self.stations
    }

    /// The underlying series store (inspection/tests).
    pub fn ts_store(&self) -> &TsStore {
        &self.ts
    }

    fn sid(&self, station: VertexId) -> Option<SeriesId> {
        self.series_of.get(&station).copied()
    }

    /// Encodes the full physical state (checkpoint payload).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        hygraph_graph::codec::encode_graph(&self.graph, w);
        hygraph_ts::persist::encode_store(&self.ts, w);
        w.len_of(self.stations.len());
        for &s in &self.stations {
            w.u64(s.raw());
            w.u64(self.series_of[&s].raw());
        }
    }

    /// Decodes a state previously written by [`Self::encode_state`].
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<Self> {
        let graph = hygraph_graph::codec::decode_graph(r)?;
        let ts = hygraph_ts::persist::decode_store(r)?;
        let known: std::collections::HashSet<SeriesId> = ts.series_ids().collect();
        let n = r.len_of()?;
        let mut stations = Vec::with_capacity(n.min(1 << 20));
        let mut series_of = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let v = VertexId::new(r.u64()?);
            let sid = SeriesId::new(r.u64()?);
            graph
                .vertex(v)
                .map_err(|_| HyGraphError::corrupt("station vertex missing from graph"))?;
            if !known.contains(&sid) {
                return Err(HyGraphError::corrupt("station series missing from store"));
            }
            stations.push(v);
            series_of.insert(v, sid);
        }
        Ok(Self {
            graph,
            ts,
            stations,
            series_of,
        })
    }
}

impl StorageBackend for PolyglotStore {
    fn name(&self) -> &'static str {
        "polyglot"
    }

    fn q1_range(&self, station: VertexId, iv: &Interval) -> Vec<(Timestamp, f64)> {
        let Some(sid) = self.sid(station) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        self.ts.scan(sid, iv, |t, v| out.push((t, v)));
        out
    }

    fn q2_filtered(
        &self,
        station: VertexId,
        iv: &Interval,
        min_value: f64,
    ) -> Vec<(Timestamp, f64)> {
        let Some(sid) = self.sid(station) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        self.ts.scan(sid, iv, |t, v| {
            if v >= min_value {
                out.push((t, v));
            }
        });
        out
    }

    fn series_summary(&self, station: VertexId, iv: &Interval) -> Summary {
        // chunk-pruned: fully-covered chunks contribute their precomputed
        // summaries, only boundary chunks are scanned
        match self.sid(station) {
            Some(sid) => self.ts.summarize(sid, iv),
            None => Summary::new(),
        }
    }

    fn q4_mean_all(&self, iv: &Interval) -> Vec<(VertexId, f64)> {
        // one batched store call: per-series aggregates are independent,
        // so the store may fan them out across threads (results are in
        // input order either way)
        let pairs: Vec<(VertexId, SeriesId)> = self
            .stations
            .iter()
            .filter_map(|&s| self.sid(s).map(|sid| (s, sid)))
            .collect();
        let sids: Vec<SeriesId> = pairs.iter().map(|&(_, sid)| sid).collect();
        let means = self
            .ts
            .aggregate_batch(&sids, iv, AggKind::Mean, ExecMode::Auto);
        pairs
            .iter()
            .zip(means)
            .filter_map(|(&(s, _), m)| m.map(|m| (s, m)))
            .collect()
    }

    fn q5_top_k(&self, iv: &Interval, k: usize) -> Vec<(VertexId, f64)> {
        let mut means = self.q4_mean_all(iv);
        means.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        means.truncate(k);
        means
    }

    fn q6_daily(&self, iv: &Interval) -> Vec<(VertexId, Vec<DayAgg>)> {
        let day = Duration::from_days(1);
        self.stations
            .iter()
            .filter_map(|&s| {
                let sid = self.sid(s)?;
                let rows = self
                    .ts
                    .aggregate_buckets(sid, iv, day)
                    .into_iter()
                    .map(|(bucket, summary)| DayAgg {
                        day: bucket,
                        min: summary.min,
                        max: summary.max,
                        mean: summary.mean().expect("non-empty bucket"),
                    })
                    .collect();
                Some((s, rows))
            })
            .collect()
    }

    fn q7_neighbour_means(&self, station: VertexId, iv: &Interval) -> Vec<(VertexId, f64)> {
        let mut nbrs: Vec<VertexId> = self.graph.neighbors_out(station).map(|(_, n)| n).collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        nbrs.into_iter()
            .filter_map(|n| self.q3_mean(n, iv).map(|m| (n, m)))
            .collect()
    }

    fn q8_sustained_below(&self, iv: &Interval, threshold: f64, min_run: usize) -> Vec<VertexId> {
        // chunk-pruned ordered scan with early exit via run check; the
        // per-station predicate is independent, so large station sets
        // fan out — matches flags are zipped back in station order
        let has_run = |&s: &VertexId| {
            let Some(sid) = self.sid(s) else { return false };
            let mut run = 0usize;
            let mut found = false;
            self.ts.scan(sid, iv, |_, v| {
                if found {
                    return;
                }
                if v < threshold {
                    run += 1;
                    if run >= min_run {
                        found = true;
                    }
                } else {
                    run = 0;
                }
            });
            found
        };
        let flags: Vec<bool> = if should_parallelize(ExecMode::Auto, self.stations.len()) {
            self.stations.par_iter().map(has_run).collect()
        } else {
            self.stations.iter().map(has_run).collect()
        };
        self.stations
            .iter()
            .zip(flags)
            .filter_map(|(&s, keep)| keep.then_some(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_in_graph::AllInGraphStore;
    use hygraph_datagen::bike::{generate, BikeConfig};

    fn tiny() -> BikeDataset {
        generate(BikeConfig {
            stations: 6,
            days: 3,
            tick: Duration::from_mins(30),
            avg_degree: 3,
            seed: 11,
        })
    }

    #[test]
    fn chunking_happens() {
        let d = tiny();
        let store = PolyglotStore::load(&d);
        assert_eq!(
            store.ts_store().chunk_count(SeriesId::new(0)),
            3,
            "one chunk per day"
        );
        // bulk load ends with seal_all: every chunk is compressed
        // (unless the knob turned compression off for this process)
        let stats = store.ts_store().compression_stats();
        if store.ts_store().options().compress {
            assert_eq!(stats.sealed_chunks, 6 * 3, "all chunks sealed");
            assert!(stats.compressed_bytes < stats.raw_bytes);
        } else {
            assert_eq!(stats.sealed_chunks, 0);
        }
    }

    /// The load-bearing equivalence: both backends answer every query
    /// identically on the same dataset — they differ only in access path.
    #[test]
    fn backends_agree_on_all_queries() {
        let d = tiny();
        let poly = PolyglotStore::load(&d);
        let aig = AllInGraphStore::load(&d);
        let s0 = d.stations[0];
        let day1 = Interval::new(d.start, d.start + Duration::from_days(1));
        let week = Interval::new(d.start, d.end);

        assert_eq!(poly.q1_range(s0, &day1), aig.q1_range(s0, &day1));
        assert_eq!(
            poly.q2_filtered(s0, &week, 20.0),
            aig.q2_filtered(s0, &week, 20.0)
        );
        let (pm, am) = (
            poly.q3_mean(s0, &week).unwrap(),
            aig.q3_mean(s0, &week).unwrap(),
        );
        assert!((pm - am).abs() < 1e-9);
        let (p4, a4) = (poly.q4_mean_all(&week), aig.q4_mean_all(&week));
        assert_eq!(p4.len(), a4.len());
        for ((pv, pmean), (av, amean)) in p4.iter().zip(&a4) {
            assert_eq!(pv, av);
            assert!((pmean - amean).abs() < 1e-9);
        }
        let (p5, a5) = (poly.q5_top_k(&week, 3), aig.q5_top_k(&week, 3));
        assert_eq!(
            p5.iter().map(|x| x.0).collect::<Vec<_>>(),
            a5.iter().map(|x| x.0).collect::<Vec<_>>()
        );
        let (p6, a6) = (poly.q6_daily(&week), aig.q6_daily(&week));
        assert_eq!(p6.len(), a6.len());
        for ((pv, prow), (av, arow)) in p6.iter().zip(&a6) {
            assert_eq!(pv, av);
            assert_eq!(prow.len(), arow.len());
            for (p, a) in prow.iter().zip(arow) {
                assert_eq!(p.day, a.day);
                assert_eq!(p.min, a.min);
                assert_eq!(p.max, a.max);
                assert!((p.mean - a.mean).abs() < 1e-9);
            }
        }
        // q7 on a station with neighbours
        let hub = d
            .stations
            .iter()
            .copied()
            .max_by_key(|&s| d.graph.out_degree(s))
            .unwrap();
        let (p7, a7) = (
            poly.q7_neighbour_means(hub, &week),
            aig.q7_neighbour_means(hub, &week),
        );
        assert_eq!(p7.len(), a7.len());
        for ((pv, pm), (av, am)) in p7.iter().zip(&a7) {
            assert_eq!(pv, av);
            assert!((pm - am).abs() < 1e-9);
        }
        assert_eq!(
            poly.q8_sustained_below(&week, 18.0, 4),
            aig.q8_sustained_below(&week, 18.0, 4)
        );
    }

    /// The pushdown hook agrees across the chunk-summary fast path
    /// (polyglot), the property-scan override (all-in-graph), and an
    /// explicit fold over the raw range — on both chunk-aligned and
    /// boundary-straddling intervals.
    #[test]
    fn series_summary_agrees_across_backends() {
        let d = tiny();
        let poly = PolyglotStore::load(&d);
        let aig = AllInGraphStore::load(&d);
        let intervals = [
            // aligned: whole chunks, exercises the precomputed-summary path
            Interval::new(d.start, d.start + Duration::from_days(1)),
            // straddles chunk boundaries on both sides
            Interval::new(
                d.start + Duration::from_hours(5),
                d.start + Duration::from_hours(40),
            ),
            Interval::new(d.start, d.end),
            // empty
            Interval::new(d.start, d.start),
        ];
        for &s in &d.stations {
            for iv in &intervals {
                let p = poly.series_summary(s, iv);
                let a = aig.series_summary(s, iv);
                let folded = {
                    let mut acc = hygraph_ts::store::Summary::new();
                    for (_, v) in poly.q1_range(s, iv) {
                        acc.add(v);
                    }
                    acc
                };
                for (got, name) in [(p, "polyglot"), (a, "all-in-graph")] {
                    assert_eq!(got.count, folded.count, "{name} count over {iv:?}");
                    assert!(
                        (got.sum - folded.sum).abs() < 1e-6,
                        "{name} sum over {iv:?}"
                    );
                    if folded.count > 0 {
                        assert_eq!(got.min, folded.min, "{name} min over {iv:?}");
                        assert_eq!(got.max, folded.max, "{name} max over {iv:?}");
                    }
                }
            }
        }
        // missing station → empty summary on both
        let ghost = VertexId::new(999);
        assert_eq!(poly.series_summary(ghost, &Interval::ALL).count, 0);
        assert_eq!(aig.series_summary(ghost, &Interval::ALL).count, 0);
    }

    #[test]
    fn incremental_ingest_matches_bulk_load() {
        let d = tiny();
        let bulk = PolyglotStore::load(&d);
        let mut inc = PolyglotStore::new();
        for &station in &d.stations {
            let data = d.graph.vertex(station).unwrap();
            let v = inc.add_station(data.labels.clone(), data.props.clone());
            assert_eq!(v, station, "dense deterministic ids");
        }
        for (i, &station) in d.stations.iter().enumerate() {
            for (t, v) in d.availability[i].iter() {
                inc.observe(station, t, v).unwrap();
            }
        }
        let iv = Interval::new(d.start, d.end);
        assert_eq!(
            inc.q1_range(d.stations[0], &iv),
            bulk.q1_range(d.stations[0], &iv)
        );
        assert_eq!(inc.q4_mean_all(&iv).len(), bulk.q4_mean_all(&iv).len());
        assert!(inc
            .observe(VertexId::new(999), Timestamp::from_millis(0), 1.0)
            .is_err());
    }

    #[test]
    fn state_codec_roundtrip_is_bit_exact() {
        let d = tiny();
        let mut store = PolyglotStore::load(&d);
        store
            .add_trip(d.stations[0], d.stations[1], ["TRIP"], Default::default())
            .unwrap();
        let mut w = hygraph_types::bytes::ByteWriter::new();
        store.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = hygraph_types::bytes::ByteReader::new(&bytes);
        let back = PolyglotStore::decode_state(&mut r).unwrap();
        r.expect_exhausted().unwrap();
        let mut w2 = hygraph_types::bytes::ByteWriter::new();
        back.encode_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "canonical re-encode");
        assert_eq!(back.stations(), store.stations());
        let iv = Interval::new(d.start, d.end);
        assert_eq!(
            back.q1_range(d.stations[2], &iv),
            store.q1_range(d.stations[2], &iv)
        );
        let mut r = hygraph_types::bytes::ByteReader::new(&bytes[..bytes.len() / 2]);
        assert!(PolyglotStore::decode_state(&mut r).is_err());
    }

    #[test]
    fn missing_station_is_empty() {
        let d = tiny();
        let poly = PolyglotStore::load(&d);
        let ghost = VertexId::new(999);
        assert!(poly.q1_range(ghost, &Interval::ALL).is_empty());
        assert!(poly.q3_mean(ghost, &Interval::ALL).is_none());
    }
}
