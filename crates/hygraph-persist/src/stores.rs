//! [`Durable`] implementations for the engine's stores, with their
//! logged mutation vocabularies.
//!
//! Two stores go durable here:
//!
//! * [`TsStore`] — the chunked time-series store ([`TsMutation`]);
//! * [`HyGraph`] — the full hybrid model, whose [`HgMutation`] covers
//!   vertex, edge, subgraph, property, and observation operations.
//!
//! The paper's two Table-1 stores implement [`Durable`] in
//! `hygraph-storage`, next to their definitions.
//!
//! Every store allocates ids densely and deterministically, so
//! replaying a mutation prefix reproduces the exact ids the original
//! run handed out — the property that lets WAL records reference ids
//! produced by earlier records.

use crate::durable::Durable;
use hygraph_core::{ElementRef, HyGraph};
use hygraph_ts::{MultiSeries, TsStore};
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::shard::ShardRouter;
use hygraph_types::{
    EdgeId, HyGraphError, Interval, Label, PropertyMap, PropertyValue, Result, SeriesId,
    SubgraphId, Timestamp, VertexId,
};

fn corrupt_tag(what: &str, tag: u8) -> HyGraphError {
    HyGraphError::corrupt(format!("unknown {what} mutation tag {tag}"))
}

// ---- TsStore ----------------------------------------------------------

/// Logged operations of the chunked time-series store.
#[derive(Clone, Debug, PartialEq)]
pub enum TsMutation {
    /// Register an (empty) series under an explicit id.
    CreateSeries(SeriesId),
    /// Append one observation.
    Insert(SeriesId, Timestamp, f64),
    /// Remove a series and its chunks.
    DropSeries(SeriesId),
    /// Drop every observation before `t` (retention).
    RetainFrom(SeriesId, Timestamp),
}

impl Durable for TsStore {
    type Mutation = TsMutation;
    const STORE_TAG: [u8; 4] = *b"TSST";

    fn fresh() -> Self {
        TsStore::new()
    }

    fn encode_state(&self, w: &mut ByteWriter) {
        hygraph_ts::persist::encode_store(self, w);
    }

    fn decode_state(r: &mut ByteReader<'_>) -> Result<Self> {
        hygraph_ts::persist::decode_store(r)
    }

    fn encode_mutation(m: &TsMutation, w: &mut ByteWriter) {
        match m {
            TsMutation::CreateSeries(id) => {
                w.u8(0);
                w.u64(id.raw());
            }
            TsMutation::Insert(id, t, v) => {
                w.u8(1);
                w.u64(id.raw());
                w.timestamp(*t);
                w.f64(*v);
            }
            TsMutation::DropSeries(id) => {
                w.u8(2);
                w.u64(id.raw());
            }
            TsMutation::RetainFrom(id, t) => {
                w.u8(3);
                w.u64(id.raw());
                w.timestamp(*t);
            }
        }
    }

    fn decode_mutation(r: &mut ByteReader<'_>) -> Result<TsMutation> {
        Ok(match r.u8()? {
            0 => TsMutation::CreateSeries(SeriesId::new(r.u64()?)),
            1 => TsMutation::Insert(SeriesId::new(r.u64()?), r.timestamp()?, r.f64()?),
            2 => TsMutation::DropSeries(SeriesId::new(r.u64()?)),
            3 => TsMutation::RetainFrom(SeriesId::new(r.u64()?), r.timestamp()?),
            tag => return Err(corrupt_tag("TsStore", tag)),
        })
    }

    fn apply(&mut self, m: &TsMutation) -> Result<()> {
        match m {
            TsMutation::CreateSeries(id) => {
                self.create_series(*id);
                Ok(())
            }
            TsMutation::Insert(id, t, v) => {
                self.insert(*id, *t, *v);
                Ok(())
            }
            TsMutation::DropSeries(id) => {
                self.drop_series(*id);
                Ok(())
            }
            TsMutation::RetainFrom(id, t) => self.retain_from(*id, *t),
        }
    }
}

// ---- HyGraph ----------------------------------------------------------

/// Logged operations of the full hybrid model: the vertex, edge,
/// subgraph, property, and observation mutations of Definition 1.
#[derive(Clone, Debug, PartialEq)]
pub enum HgMutation {
    /// Register a series (id allocated densely on replay), optionally
    /// pre-populated.
    AddSeries {
        /// Variable names (one per column).
        names: Vec<String>,
        /// Initial observations: `(t, row)` per time point.
        rows: Vec<(Timestamp, Vec<f64>)>,
    },
    /// Append one observation tuple to a series.
    Append {
        /// Target series.
        series: SeriesId,
        /// Observation time.
        t: Timestamp,
        /// One value per variable.
        row: Vec<f64>,
    },
    /// Add a property-graph vertex.
    AddPgVertex {
        /// Vertex labels.
        labels: Vec<Label>,
        /// Vertex properties.
        props: PropertyMap,
        /// Validity interval ρ(v).
        validity: Interval,
    },
    /// Add a time-series vertex bound to `series` (δ(v)).
    AddTsVertex {
        /// Vertex labels.
        labels: Vec<Label>,
        /// The series that *is* this vertex's content.
        series: SeriesId,
    },
    /// Add a property-graph edge.
    AddPgEdge {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge labels.
        labels: Vec<Label>,
        /// Edge properties.
        props: PropertyMap,
        /// Validity interval ρ(e).
        validity: Interval,
    },
    /// Add a time-series edge bound to `series` (δ(e)).
    AddTsEdge {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge labels.
        labels: Vec<Label>,
        /// The series that *is* this edge's content.
        series: SeriesId,
    },
    /// Set a property on a pg-element or subgraph (φ).
    SetProperty {
        /// Target element.
        el: ElementRef,
        /// Property key.
        key: String,
        /// Scalar or series-valued property.
        value: PropertyValue,
    },
    /// End a vertex's validity at `t`.
    CloseVertex {
        /// The vertex.
        v: VertexId,
        /// Closing time.
        t: Timestamp,
    },
    /// End an edge's validity at `t`.
    CloseEdge {
        /// The edge.
        e: EdgeId,
        /// Closing time.
        t: Timestamp,
    },
    /// Create a logical subgraph (id allocated densely on replay).
    CreateSubgraph {
        /// Subgraph labels.
        labels: Vec<Label>,
        /// Subgraph properties.
        props: PropertyMap,
        /// Validity interval ρ(s).
        validity: Interval,
    },
    /// Add a vertex to a subgraph for `during`.
    AddSubgraphVertex {
        /// The subgraph.
        s: SubgraphId,
        /// The member vertex.
        v: VertexId,
        /// Membership interval.
        during: Interval,
    },
    /// Add an edge to a subgraph for `during`.
    AddSubgraphEdge {
        /// The subgraph.
        s: SubgraphId,
        /// The member edge.
        e: EdgeId,
        /// Membership interval.
        during: Interval,
    },
}

fn encode_element_ref(el: &ElementRef, w: &mut ByteWriter) {
    match el {
        ElementRef::Vertex(v) => {
            w.u8(0);
            w.u64(v.raw());
        }
        ElementRef::Edge(e) => {
            w.u8(1);
            w.u64(e.raw());
        }
        ElementRef::Subgraph(s) => {
            w.u8(2);
            w.u64(s.raw());
        }
    }
}

fn decode_element_ref(r: &mut ByteReader<'_>) -> Result<ElementRef> {
    Ok(match r.u8()? {
        0 => ElementRef::Vertex(VertexId::new(r.u64()?)),
        1 => ElementRef::Edge(EdgeId::new(r.u64()?)),
        2 => ElementRef::Subgraph(SubgraphId::new(r.u64()?)),
        tag => return Err(corrupt_tag("element-ref", tag)),
    })
}

impl Durable for HyGraph {
    type Mutation = HgMutation;
    const STORE_TAG: [u8; 4] = *b"HYGR";

    fn fresh() -> Self {
        HyGraph::new()
    }

    fn encode_state(&self, w: &mut ByteWriter) {
        hygraph_core::binio::encode_hygraph(self, w);
    }

    fn encode_state_streamed(
        &self,
        w: &mut ByteWriter,
        drain: &mut dyn FnMut(&mut ByteWriter) -> Result<()>,
    ) -> Result<()> {
        hygraph_core::binio::encode_hygraph_streamed(self, w, drain)
    }

    fn decode_state(r: &mut ByteReader<'_>) -> Result<Self> {
        hygraph_core::binio::decode_hygraph(r)
    }

    fn encode_mutation(m: &HgMutation, w: &mut ByteWriter) {
        match m {
            HgMutation::AddSeries { names, rows } => {
                w.u8(0);
                w.len_of(names.len());
                for n in names {
                    w.str(n);
                }
                w.len_of(rows.len());
                for (t, row) in rows {
                    w.timestamp(*t);
                    w.len_of(row.len());
                    for &v in row {
                        w.f64(v);
                    }
                }
            }
            HgMutation::Append { series, t, row } => {
                w.u8(1);
                w.u64(series.raw());
                w.timestamp(*t);
                w.len_of(row.len());
                for &v in row {
                    w.f64(v);
                }
            }
            HgMutation::AddPgVertex {
                labels,
                props,
                validity,
            } => {
                w.u8(2);
                w.labels(labels);
                w.property_map(props);
                w.interval(validity);
            }
            HgMutation::AddTsVertex { labels, series } => {
                w.u8(3);
                w.labels(labels);
                w.u64(series.raw());
            }
            HgMutation::AddPgEdge {
                src,
                dst,
                labels,
                props,
                validity,
            } => {
                w.u8(4);
                w.u64(src.raw());
                w.u64(dst.raw());
                w.labels(labels);
                w.property_map(props);
                w.interval(validity);
            }
            HgMutation::AddTsEdge {
                src,
                dst,
                labels,
                series,
            } => {
                w.u8(5);
                w.u64(src.raw());
                w.u64(dst.raw());
                w.labels(labels);
                w.u64(series.raw());
            }
            HgMutation::SetProperty { el, key, value } => {
                w.u8(6);
                encode_element_ref(el, w);
                w.str(key);
                w.property_value(value);
            }
            HgMutation::CloseVertex { v, t } => {
                w.u8(7);
                w.u64(v.raw());
                w.timestamp(*t);
            }
            HgMutation::CloseEdge { e, t } => {
                w.u8(8);
                w.u64(e.raw());
                w.timestamp(*t);
            }
            HgMutation::CreateSubgraph {
                labels,
                props,
                validity,
            } => {
                w.u8(9);
                w.labels(labels);
                w.property_map(props);
                w.interval(validity);
            }
            HgMutation::AddSubgraphVertex { s, v, during } => {
                w.u8(10);
                w.u64(s.raw());
                w.u64(v.raw());
                w.interval(during);
            }
            HgMutation::AddSubgraphEdge { s, e, during } => {
                w.u8(11);
                w.u64(s.raw());
                w.u64(e.raw());
                w.interval(during);
            }
        }
    }

    fn decode_mutation(r: &mut ByteReader<'_>) -> Result<HgMutation> {
        Ok(match r.u8()? {
            0 => {
                let n = r.len_of()?;
                let mut names = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    names.push(r.str()?);
                }
                let n = r.len_of()?;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let t = r.timestamp()?;
                    let k = r.len_of()?;
                    let mut row = Vec::with_capacity(k.min(1 << 16));
                    for _ in 0..k {
                        row.push(r.f64()?);
                    }
                    rows.push((t, row));
                }
                HgMutation::AddSeries { names, rows }
            }
            1 => {
                let series = SeriesId::new(r.u64()?);
                let t = r.timestamp()?;
                let k = r.len_of()?;
                let mut row = Vec::with_capacity(k.min(1 << 16));
                for _ in 0..k {
                    row.push(r.f64()?);
                }
                HgMutation::Append { series, t, row }
            }
            2 => HgMutation::AddPgVertex {
                labels: r.labels()?,
                props: r.property_map()?,
                validity: r.interval()?,
            },
            3 => HgMutation::AddTsVertex {
                labels: r.labels()?,
                series: SeriesId::new(r.u64()?),
            },
            4 => HgMutation::AddPgEdge {
                src: VertexId::new(r.u64()?),
                dst: VertexId::new(r.u64()?),
                labels: r.labels()?,
                props: r.property_map()?,
                validity: r.interval()?,
            },
            5 => HgMutation::AddTsEdge {
                src: VertexId::new(r.u64()?),
                dst: VertexId::new(r.u64()?),
                labels: r.labels()?,
                series: SeriesId::new(r.u64()?),
            },
            6 => HgMutation::SetProperty {
                el: decode_element_ref(r)?,
                key: r.str()?,
                value: r.property_value()?,
            },
            7 => HgMutation::CloseVertex {
                v: VertexId::new(r.u64()?),
                t: r.timestamp()?,
            },
            8 => HgMutation::CloseEdge {
                e: EdgeId::new(r.u64()?),
                t: r.timestamp()?,
            },
            9 => HgMutation::CreateSubgraph {
                labels: r.labels()?,
                props: r.property_map()?,
                validity: r.interval()?,
            },
            10 => HgMutation::AddSubgraphVertex {
                s: SubgraphId::new(r.u64()?),
                v: VertexId::new(r.u64()?),
                during: r.interval()?,
            },
            11 => HgMutation::AddSubgraphEdge {
                s: SubgraphId::new(r.u64()?),
                e: EdgeId::new(r.u64()?),
                during: r.interval()?,
            },
            tag => return Err(corrupt_tag("HyGraph", tag)),
        })
    }

    fn apply(&mut self, m: &HgMutation) -> Result<()> {
        match m {
            HgMutation::AddSeries { names, rows } => {
                let mut s = MultiSeries::new(names.iter().cloned());
                for (t, row) in rows {
                    s.push(*t, row)?;
                }
                self.add_series(s);
                Ok(())
            }
            HgMutation::Append { series, t, row } => self.append(*series, *t, row),
            HgMutation::AddPgVertex {
                labels,
                props,
                validity,
            } => {
                self.add_pg_vertex_valid(labels.iter().cloned(), props.clone(), *validity);
                Ok(())
            }
            HgMutation::AddTsVertex { labels, series } => {
                self.add_ts_vertex(labels.iter().cloned(), *series)?;
                Ok(())
            }
            HgMutation::AddPgEdge {
                src,
                dst,
                labels,
                props,
                validity,
            } => {
                self.add_pg_edge_valid(
                    *src,
                    *dst,
                    labels.iter().cloned(),
                    props.clone(),
                    *validity,
                )?;
                Ok(())
            }
            HgMutation::AddTsEdge {
                src,
                dst,
                labels,
                series,
            } => {
                self.add_ts_edge(*src, *dst, labels.iter().cloned(), *series)?;
                Ok(())
            }
            HgMutation::SetProperty { el, key, value } => {
                self.set_property(*el, key.clone(), value.clone())
            }
            HgMutation::CloseVertex { v, t } => self.close_vertex(*v, *t),
            HgMutation::CloseEdge { e, t } => self.close_edge(*e, *t),
            HgMutation::CreateSubgraph {
                labels,
                props,
                validity,
            } => {
                self.create_subgraph(labels.iter().cloned(), props.clone(), *validity);
                Ok(())
            }
            HgMutation::AddSubgraphVertex { s, v, during } => {
                self.add_subgraph_vertex(*s, *v, *during)
            }
            HgMutation::AddSubgraphEdge { s, e, during } => self.add_subgraph_edge(*s, *e, *during),
        }
    }
}

// ---- shard routing ----------------------------------------------------

impl crate::sharded::ShardRouted for HgMutation {
    /// Observation traffic — the hot path by volume — is pinned to the
    /// shard that owns its series, co-locating a ts-element's WAL frames
    /// with the series they feed. Structural mutations (vertices, edges,
    /// subgraphs, property writes) have no single-shard affinity and let
    /// the store spread them by commit sequence number.
    fn shard_affinity(&self, router: &ShardRouter) -> Option<usize> {
        match self {
            HgMutation::Append { series, .. }
            | HgMutation::AddTsVertex { series, .. }
            | HgMutation::AddTsEdge { series, .. } => Some(router.of_series(*series)),
            _ => None,
        }
    }
}

impl crate::sharded::ShardRouted for TsMutation {
    /// Every ts-store mutation names its series, so everything routes to
    /// the series' home shard.
    fn shard_affinity(&self, router: &ShardRouter) -> Option<usize> {
        let sid = match self {
            TsMutation::CreateSeries(id)
            | TsMutation::Insert(id, ..)
            | TsMutation::DropSeries(id)
            | TsMutation::RetainFrom(id, ..) => *id,
        };
        Some(router.of_series(sid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::scratch_dir;
    use crate::sharded::ShardedStore;

    fn roundtrip_mutation<S: Durable>(m: &S::Mutation) -> S::Mutation {
        let mut w = ByteWriter::new();
        S::encode_mutation(m, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = S::decode_mutation(&mut r).expect("decodes");
        r.expect_exhausted().expect("no trailing bytes");
        back
    }

    #[test]
    fn ts_mutations_roundtrip() {
        let ms = [
            TsMutation::CreateSeries(SeriesId::new(3)),
            TsMutation::Insert(SeriesId::new(3), Timestamp::from_millis(99), -1.25),
            TsMutation::DropSeries(SeriesId::new(7)),
            TsMutation::RetainFrom(SeriesId::new(3), Timestamp::from_millis(50)),
        ];
        for m in &ms {
            assert_eq!(&roundtrip_mutation::<TsStore>(m), m);
        }
    }

    #[test]
    fn hygraph_mutations_roundtrip() {
        let mut props = PropertyMap::new();
        props.set("name", hygraph_types::Value::Str("a".into()));
        let ms = [
            HgMutation::AddSeries {
                names: vec!["x".into(), "y".into()],
                rows: vec![(Timestamp::from_millis(1), vec![0.5, -0.5])],
            },
            HgMutation::Append {
                series: SeriesId::new(0),
                t: Timestamp::from_millis(2),
                row: vec![1.0, 2.0],
            },
            HgMutation::AddPgVertex {
                labels: vec![Label::new("User")],
                props: props.clone(),
                validity: Interval::ALL,
            },
            HgMutation::AddTsVertex {
                labels: vec![Label::new("Sensor")],
                series: SeriesId::new(0),
            },
            HgMutation::AddPgEdge {
                src: VertexId::new(0),
                dst: VertexId::new(1),
                labels: vec![Label::new("knows")],
                props: props.clone(),
                validity: Interval::ALL,
            },
            HgMutation::AddTsEdge {
                src: VertexId::new(0),
                dst: VertexId::new(1),
                labels: vec![Label::new("flow")],
                series: SeriesId::new(0),
            },
            HgMutation::SetProperty {
                el: ElementRef::Vertex(VertexId::new(0)),
                key: "age".into(),
                value: PropertyValue::Static(hygraph_types::Value::Int(44)),
            },
            HgMutation::CloseVertex {
                v: VertexId::new(0),
                t: Timestamp::from_millis(9),
            },
            HgMutation::CloseEdge {
                e: EdgeId::new(0),
                t: Timestamp::from_millis(9),
            },
            HgMutation::CreateSubgraph {
                labels: vec![Label::new("Community")],
                props,
                validity: Interval::ALL,
            },
            HgMutation::AddSubgraphVertex {
                s: SubgraphId::new(0),
                v: VertexId::new(0),
                during: Interval::ALL,
            },
            HgMutation::AddSubgraphEdge {
                s: SubgraphId::new(0),
                e: EdgeId::new(0),
                during: Interval::ALL,
            },
        ];
        for m in &ms {
            assert_eq!(&roundtrip_mutation::<HyGraph>(m), m);
        }
    }

    #[test]
    fn unknown_mutation_tag_is_corrupt_not_panic() {
        let bytes = [255u8, 0, 0, 0];
        let mut r = ByteReader::new(&bytes);
        assert!(<TsStore as Durable>::decode_mutation(&mut r).is_err());
        let mut r = ByteReader::new(&bytes);
        assert!(<HyGraph as Durable>::decode_mutation(&mut r).is_err());
    }

    #[test]
    fn durable_ts_store_survives_reopen() {
        let dir = scratch_dir("durable-ts");
        let sid = SeriesId::new(0);
        {
            let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 1).unwrap();
            store.commit(TsMutation::CreateSeries(sid)).unwrap();
            let batch: Vec<_> = (0..100)
                .map(|i| TsMutation::Insert(sid, Timestamp::from_millis(i * 1000), i as f64))
                .collect();
            store.commit_batch(batch).unwrap();
            store.close().unwrap();
        }
        let store: ShardedStore<TsStore> = ShardedStore::open(&dir, 1).unwrap();
        assert_eq!(store.get().len(sid), 100);
        assert_eq!(
            store.get().value_at(sid, Timestamp::from_millis(42_000)),
            Some(42.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_hygraph_replay_reproduces_ids_and_bits() {
        let dir = scratch_dir("durable-hg");
        let golden = {
            let mut store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 1).unwrap();
            store
                .commit(HgMutation::AddSeries {
                    names: vec!["avail".into()],
                    rows: vec![],
                })
                .unwrap();
            store
                .commit(HgMutation::AddTsVertex {
                    labels: vec![Label::new("Station")],
                    series: SeriesId::new(0),
                })
                .unwrap();
            store
                .commit(HgMutation::AddPgVertex {
                    labels: vec![Label::new("User")],
                    props: PropertyMap::new(),
                    validity: Interval::ALL,
                })
                .unwrap();
            store
                .commit(HgMutation::Append {
                    series: SeriesId::new(0),
                    t: Timestamp::from_millis(5),
                    row: vec![3.5],
                })
                .unwrap();
            store.state_bytes()
            // store dropped without close: the commits are already synced
        };
        let store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 1).unwrap();
        assert_eq!(store.state_bytes(), golden, "recovery is bit-identical");
        assert_eq!(store.get().vertex_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_store_type_cannot_hijack_a_directory() {
        let dir = crate::fault::scratch_dir("foreign-open");
        {
            let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 1).unwrap();
            store
                .commit(TsMutation::CreateSeries(SeriesId::new(0)))
                .unwrap();
            store
                .commit(TsMutation::Insert(
                    SeriesId::new(0),
                    Timestamp::from_millis(0),
                    7.0,
                ))
                .unwrap();
            store.close().unwrap();
        }
        // opening the TsStore directory as a different store type is a
        // hard error and must not delete or rewrite anything
        let before = crate::fault::snapshot_dir(&dir).unwrap();
        assert!(ShardedStore::<HyGraph>::open(&dir, 1).is_err());
        assert_eq!(
            crate::fault::snapshot_dir(&dir).unwrap(),
            before,
            "foreign open mutated the directory"
        );
        // the rightful owner still recovers everything
        let store: ShardedStore<TsStore> = ShardedStore::open(&dir, 1).unwrap();
        assert_eq!(store.get().len(SeriesId::new(0)), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
