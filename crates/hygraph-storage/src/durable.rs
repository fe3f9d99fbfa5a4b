//! The two stores as [`Durable`] states of a
//! [`hygraph_persist::ShardedStore`], with their logged mutation
//! vocabulary ([`StoreMutation`]).
//!
//! Both stores allocate station and trip ids densely and
//! deterministically, so replaying a mutation prefix reproduces the
//! exact ids the original run handed out — the property that lets WAL
//! records reference ids produced by earlier records.

use crate::{AllInGraphStore, PolyglotStore};
use hygraph_persist::{Durable, ShardRouted};
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::shard::ShardRouter;
use hygraph_types::{HyGraphError, Label, PropertyMap, Result, Timestamp, VertexId};

/// Logged operations shared by [`AllInGraphStore`] and
/// [`PolyglotStore`] — the bike-sharing ingest vocabulary of the
/// paper's storage experiment.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreMutation {
    /// Add a station vertex (id allocated densely on replay).
    AddStation {
        /// Station labels.
        labels: Vec<Label>,
        /// Static station properties.
        props: PropertyMap,
    },
    /// Add a trip edge between two stations.
    AddTrip {
        /// Source station.
        src: VertexId,
        /// Destination station.
        dst: VertexId,
        /// Trip labels.
        labels: Vec<Label>,
        /// Trip properties.
        props: PropertyMap,
    },
    /// Record one availability observation for a station.
    Observe {
        /// The observed station.
        station: VertexId,
        /// Observation time.
        t: Timestamp,
        /// Observed value.
        value: f64,
    },
}

fn encode_store_mutation(m: &StoreMutation, w: &mut ByteWriter) {
    match m {
        StoreMutation::AddStation { labels, props } => {
            w.u8(0);
            w.labels(labels);
            w.property_map(props);
        }
        StoreMutation::AddTrip {
            src,
            dst,
            labels,
            props,
        } => {
            w.u8(1);
            w.u64(src.raw());
            w.u64(dst.raw());
            w.labels(labels);
            w.property_map(props);
        }
        StoreMutation::Observe { station, t, value } => {
            w.u8(2);
            w.u64(station.raw());
            w.timestamp(*t);
            w.f64(*value);
        }
    }
}

fn decode_store_mutation(r: &mut ByteReader<'_>) -> Result<StoreMutation> {
    Ok(match r.u8()? {
        0 => StoreMutation::AddStation {
            labels: r.labels()?,
            props: r.property_map()?,
        },
        1 => StoreMutation::AddTrip {
            src: VertexId::new(r.u64()?),
            dst: VertexId::new(r.u64()?),
            labels: r.labels()?,
            props: r.property_map()?,
        },
        2 => StoreMutation::Observe {
            station: VertexId::new(r.u64()?),
            t: r.timestamp()?,
            value: r.f64()?,
        },
        tag => {
            return Err(HyGraphError::corrupt(format!(
                "unknown storage mutation tag {tag}"
            )))
        }
    })
}

macro_rules! impl_durable_station_store {
    ($store:ty, $tag:expr) => {
        impl Durable for $store {
            type Mutation = StoreMutation;
            const STORE_TAG: [u8; 4] = *$tag;

            fn fresh() -> Self {
                <$store>::new()
            }

            fn encode_state(&self, w: &mut ByteWriter) {
                self.encode_state(w);
            }

            fn decode_state(r: &mut ByteReader<'_>) -> Result<Self> {
                <$store>::decode_state(r)
            }

            fn encode_mutation(m: &StoreMutation, w: &mut ByteWriter) {
                encode_store_mutation(m, w);
            }

            fn decode_mutation(r: &mut ByteReader<'_>) -> Result<StoreMutation> {
                decode_store_mutation(r)
            }

            fn apply(&mut self, m: &StoreMutation) -> Result<()> {
                match m {
                    StoreMutation::AddStation { labels, props } => {
                        self.add_station(labels.iter().cloned(), props.clone());
                        Ok(())
                    }
                    StoreMutation::AddTrip {
                        src,
                        dst,
                        labels,
                        props,
                    } => {
                        self.add_trip(*src, *dst, labels.iter().cloned(), props.clone())?;
                        Ok(())
                    }
                    StoreMutation::Observe { station, t, value } => {
                        self.observe(*station, *t, *value)
                    }
                }
            }
        }
    };
}

impl_durable_station_store!(AllInGraphStore, b"AIGS");
impl_durable_station_store!(PolyglotStore, b"POLY");

impl ShardRouted for StoreMutation {
    /// Observations follow their station's shard; station/trip creation
    /// (allocated densely on replay) spreads by commit sequence number.
    fn shard_affinity(&self, router: &ShardRouter) -> Option<usize> {
        match self {
            StoreMutation::Observe { station, .. } => Some(router.of_vertex(*station)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_persist::fault::scratch_dir;
    use hygraph_persist::ShardedStore;

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
    fn store_mutations_roundtrip() {
        let mut props = PropertyMap::new();
        props.set("capacity", hygraph_types::Value::Int(30));
        let ms = [
            StoreMutation::AddStation {
                labels: vec![Label::new("Station")],
                props: props.clone(),
            },
            StoreMutation::AddTrip {
                src: VertexId::new(0),
                dst: VertexId::new(1),
                labels: vec![Label::new("Trip")],
                props,
            },
            StoreMutation::Observe {
                station: VertexId::new(0),
                t: Timestamp::from_millis(1234),
                value: 17.0,
            },
        ];
        for m in &ms {
            assert_eq!(&roundtrip_mutation::<AllInGraphStore>(m), m);
            assert_eq!(&roundtrip_mutation::<PolyglotStore>(m), m);
        }
        let unknown_tag = [255u8, 0, 0, 0];
        assert!(decode_store_mutation(&mut ByteReader::new(&unknown_tag)).is_err());
    }

    #[test]
    fn rejected_mutation_never_reaches_the_log() {
        let dir = scratch_dir("durable-reject");
        {
            let mut store: ShardedStore<PolyglotStore> = ShardedStore::open(&dir, 1).unwrap();
            store
                .commit(StoreMutation::AddStation {
                    labels: vec![Label::new("Station")],
                    props: PropertyMap::new(),
                })
                .unwrap();
            let before = store.next_csn();
            // observing an unknown vertex is rejected by the state
            let err = store.commit(StoreMutation::Observe {
                station: VertexId::new(999),
                t: Timestamp::from_millis(0),
                value: 1.0,
            });
            assert!(err.is_err());
            assert_eq!(store.next_csn(), before, "frame was retracted");
            store.close().unwrap();
        }
        // reopen replays cleanly — the rejected record is absent
        let store: ShardedStore<PolyglotStore> = ShardedStore::open(&dir, 1).unwrap();
        assert_eq!(store.get().stations().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
