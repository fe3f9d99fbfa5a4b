//! The seeded input generator: a pure function from `--seed` to the
//! corpus, the per-client operation lists and the writers' batches of
//! the four workloads. The server only ever receives what this module
//! generates, so the same seed replays the same request stream.

use hygraph_core::ElementRef;
use hygraph_datagen::bike::{self, BikeConfig};
use hygraph_persist::HgMutation;
use hygraph_server::Request;
use hygraph_types::{
    props, Duration, Interval, Label, PropertyValue, SeriesId, Timestamp, Value, VertexId,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const DAY_MS: i64 = 86_400_000;

/// The four workloads. Each is cut so that one group of layers does
/// nearly all the work and another does none (see `README.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two readers, live HyQL over a static corpus.
    ReadHybrid,
    /// Two writers, durable batches.
    IngestDurable,
    /// One reader beside one writer that holds eight standing queries.
    MixedLive,
    /// Two readers, mostly `AS OF` / `BETWEEN` over a built history.
    AsofRead,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadHybrid,
        Workload::IngestDurable,
        Workload::MixedLive,
        Workload::AsofRead,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHybrid => "read_hybrid",
            Workload::IngestDurable => "ingest_durable",
            Workload::MixedLive => "mixed_live",
            Workload::AsofRead => "asof_read",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per client in the `--trace` replay sample: the slower
    /// a workload's operations, the fewer, so every replay takes seconds.
    pub fn sample_ops(self, scale: Scale) -> usize {
        let n = scale.sample_ops;
        match self {
            Workload::ReadHybrid => n,
            Workload::IngestDurable | Workload::MixedLive => (n / 4).max(2),
            Workload::AsofRead => (n / 25).max(2),
        }
    }

    /// `(reader clients, writer clients)` — closed loop, so these are
    /// also the numbers of requests in flight.
    pub fn clients(self) -> (usize, usize) {
        match self {
            Workload::ReadHybrid | Workload::AsofRead => (2, 0),
            Workload::IngestDurable => (0, 2),
            Workload::MixedLive => (1, 1),
        }
    }
}

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `SMOKE` keeps
/// the schema test under ten seconds in a debug build.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// `full` or `smoke`.
    pub name: &'static str,
    /// Stations in the corpus.
    pub stations: usize,
    /// Days of 5-minute series per station.
    pub days: usize,
    /// Operations in one reader's list on `read_hybrid` / `mixed_live`
    /// (a multiple of 20, so class shares are exact). The writer-only
    /// workload reads one such list back after its last ack.
    pub read_list: usize,
    /// Operations in one reader's list on `asof_read` (multiple of 20).
    pub asof_list: usize,
    /// Batches applied in set-up to build `asof_read`'s history.
    pub history_batches: usize,
    /// Commits spanned by one `BETWEEN`.
    pub between_span: usize,
    /// Warm-up per client before the measured window; its samples are
    /// dropped from every statistic.
    pub warmup: Limit,
    /// Operations per client in `read_hybrid`'s `--trace` replay sample
    /// (see [`Workload::sample_ops`] for the others).
    pub sample_ops: usize,
    /// Smoke only: operations per client in the measured window
    /// (`None` = run for `--seconds`).
    pub window_ops: Option<usize>,
}

/// How long a client keeps issuing operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// A fixed number of operations.
    Ops(usize),
    /// Until this much wall time has passed.
    Seconds(f64),
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        name: "full",
        stations: 256,
        days: 7,
        read_list: 1_000,
        asof_list: 100,
        history_batches: 512,
        between_span: 8,
        warmup: Limit::Seconds(1.0),
        sample_ops: 1_000,
        window_ops: None,
    };

    /// The schema-test configuration.
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        stations: 16,
        days: 1,
        read_list: 20,
        asof_list: 20,
        history_batches: 12,
        between_span: 3,
        warmup: Limit::Ops(2),
        sample_ops: 10,
        window_ops: Some(10),
    };

    /// Parses a scale name.
    pub fn parse(name: &str) -> Option<Self> {
        [Self::FULL, Self::SMOKE]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// The bike-sharing corpus as the server receives it: load batches for
/// `mutate_batch`, plus the few shape facts the generators below need.
pub struct Corpus {
    /// Batch 0 adds every station and `TRIP` edge; batch `1 + i` adds
    /// station `i`'s two series and links them as properties.
    pub load: Vec<Vec<HgMutation>>,
    /// Points across all series.
    pub points: u64,
    /// The shape facts (stations are vertex ids `0..stations`).
    pub shape: CorpusShape,
}

/// Series id of station `i`'s `availability` (its `docks` is the next).
pub fn availability_series(station: usize) -> SeriesId {
    SeriesId::new(2 * station as u64)
}

/// Generates corpus **C** (`hygraph_datagen::bike`) and turns it into
/// load batches.
pub fn corpus(scale: Scale, seed: u64) -> Corpus {
    let ds = bike::generate(BikeConfig {
        stations: scale.stations,
        days: scale.days,
        tick: Duration::from_mins(5),
        avg_degree: 6,
        seed,
    });
    let mut load = Vec::with_capacity(1 + scale.stations);
    let mut topology: Vec<HgMutation> = ds
        .graph
        .vertices()
        .map(|v| HgMutation::AddPgVertex {
            labels: v.labels.clone(),
            props: v.props.clone(),
            validity: v.validity,
        })
        .collect();
    topology.extend(ds.graph.edges().map(|e| HgMutation::AddPgEdge {
        src: e.src,
        dst: e.dst,
        labels: e.labels.clone(),
        props: e.props.clone(),
        validity: e.validity,
    }));
    load.push(topology);
    for (i, &station) in ds.stations.iter().enumerate() {
        assert_eq!(station, VertexId::new(i as u64), "station ids are dense");
        let mut batch = Vec::with_capacity(4);
        let columns = [
            ("availability", &ds.availability[i]),
            ("docks", &ds.docks[i]),
        ];
        for (k, (name, series)) in columns.into_iter().enumerate() {
            batch.push(HgMutation::AddSeries {
                names: vec![name.to_string()],
                rows: series.iter().map(|(t, v)| (t, vec![v])).collect(),
            });
            batch.push(HgMutation::SetProperty {
                el: ElementRef::Vertex(station),
                key: name.to_string(),
                value: PropertyValue::Series(SeriesId::new((2 * i + k) as u64)),
            });
        }
        load.push(batch);
    }
    let shape = CorpusShape::new(scale, seed);
    assert_eq!(
        (shape.end_ms, shape.tick_ms),
        (ds.end.millis(), ds.tick.millis())
    );
    Corpus {
        load,
        points: (2 * scale.stations * ds.points_per_station()) as u64,
        shape,
    }
}

/// The six read classes of the hybrid mix, lightest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadClass {
    /// Label count — the wire floor.
    Count,
    /// One station by name, one-day series mean (Table-1 Q1/Q3).
    Point,
    /// Every station, whole-corpus aggregate, top five (Q4/Q5).
    FleetAgg,
    /// Every station filtered by a series aggregate (Q2/Q8).
    FilterAgg,
    /// `TRIP` pattern with a property predicate and an aggregate on the
    /// far end.
    Pattern,
    /// Two-hop reach count.
    Varlen,
}

impl ReadClass {
    /// Every class with its share of a 20-operation block.
    pub const MIX: [(ReadClass, usize); 6] = [
        (ReadClass::Count, 2),
        (ReadClass::Point, 6),
        (ReadClass::FleetAgg, 4),
        (ReadClass::FilterAgg, 3),
        (ReadClass::Pattern, 4),
        (ReadClass::Varlen, 1),
    ];
}

/// Which state a read runs against. Commit indices count the history
/// batches applied in set-up; they become timestamps once those exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// The current state.
    Live,
    /// The state after history commit `i` (a structured `QueryAsOf`).
    AsOf(usize),
    /// Every state from after commit `i` to after commit `j`.
    Between(usize, usize),
}

/// One read: the HyQL text is `head tail`, split where a `BETWEEN`
/// clause goes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOp {
    /// The class, for per-class latency.
    pub class: ReadClass,
    /// `MATCH … [WHERE …]`.
    pub head: String,
    /// `RETURN …`.
    pub tail: String,
    /// The state queried.
    pub bound: Bound,
    /// For whole-fleet aggregates: the series property and window the
    /// query summarises (what the `ts.*` probe replays).
    pub fleet_window: Option<(&'static str, i64, i64)>,
}

impl ReadOp {
    /// The HyQL text without a temporal clause.
    pub fn text(&self) -> String {
        format!("{} {}", self.head, self.tail)
    }

    /// The wire request, given the history's commit timestamps.
    pub fn request(&self, commit_ts: &[i64]) -> Request {
        match self.bound {
            Bound::Live => Request::Query(self.text()),
            Bound::AsOf(i) => Request::QueryAsOf {
                text: self.text(),
                as_of_ms: commit_ts[i],
            },
            Bound::Between(i, j) => Request::Query(format!(
                "{} BETWEEN {} AND {} {}",
                self.head, commit_ts[i], commit_ts[j], self.tail
            )),
        }
    }
}

/// Builds one read of `class`. `variant` picks one of the class's two
/// fixed texts (the plan-cache hits); `fresh` draws new literals instead
/// (a text the cache has not seen, or has long evicted).
fn read_op(
    class: ReadClass,
    variant: usize,
    fresh: Option<&mut StdRng>,
    c: &CorpusShape,
) -> ReadOp {
    let span = c.days as i64 * DAY_MS;
    let day = DAY_MS.min(span);
    let is_fresh = fresh.is_some();
    // (station, window start, threshold jitter in [0,1))
    let (station, start, jitter) = match fresh {
        Some(rng) => (
            rng.random_range(0..c.stations),
            c.tick_ms * rng.random_range(0..=(span - day) / c.tick_ms),
            rng.random_range(0.0..1.0f64),
        ),
        None => (
            [17, 101][variant] % c.stations,
            variant as i64 * (span - day),
            0.5,
        ),
    };
    let (key, agg) = [("availability", "MEAN"), ("docks", "MAX")][variant];
    let mut fleet_window = None;
    let (head, tail) = match class {
        ReadClass::Count => (
            match (variant, is_fresh) {
                (0, false) => "MATCH (s:Station)".to_string(),
                _ => format!(
                    "MATCH (s:Station) WHERE s.capacity >= {:.3}",
                    15.0 + 30.0 * jitter
                ),
            },
            "RETURN COUNT(s) AS n".to_string(),
        ),
        ReadClass::Point => (
            format!("MATCH (s:Station {{name: 'station-{station}'}})"),
            format!(
                "RETURN s.name AS name, {agg}(s.{key} IN [{start}, {})) AS v",
                start + day
            ),
        ),
        ReadClass::FleetAgg => {
            // fresh windows start inside the first day, so they stay wide
            let from = start % day;
            fleet_window = Some((key, from, span));
            (
                "MATCH (s:Station)".to_string(),
                format!(
                    "RETURN s.name AS name, {agg}(s.{key} IN [{from}, {span})) AS v \
                     ORDER BY v DESC, name LIMIT 5"
                ),
            )
        }
        ReadClass::FilterAgg => (
            format!(
                "MATCH (s:Station) WHERE MEAN(s.{key} IN [{}, {span})) > {:.3}",
                start % day,
                12.0 + 12.0 * jitter
            ),
            "RETURN s.name AS name, s.capacity AS capacity".to_string(),
        ),
        ReadClass::Pattern => (
            format!(
                "MATCH (a:Station)-[t:TRIP]->(b:Station) WHERE t.trips > {}",
                380 + (80.0 * jitter) as i64 + variant as i64
            ),
            format!(
                "RETURN a.name AS src, b.name AS dst, t.trips AS trips, \
                 MAX(b.docks IN [{start}, {})) AS peak",
                start + day
            ),
        ),
        ReadClass::Varlen => (
            format!("MATCH (a:Station {{name: 'station-{station}'}})-[*1..2]->(x)"),
            "RETURN COUNT(x) AS reach".to_string(),
        ),
    };
    ReadOp {
        class,
        head,
        tail,
        bound: Bound::Live,
        fleet_window,
    }
}

/// The corpus facts the generators need (no data).
#[derive(Clone, Copy, Debug)]
pub struct CorpusShape {
    /// Stations.
    pub stations: usize,
    /// Days of series.
    pub days: usize,
    /// One past the last corpus timestamp.
    pub end_ms: i64,
    /// Sampling interval.
    pub tick_ms: i64,
    /// The run's seed.
    pub seed: u64,
}

impl CorpusShape {
    /// The shape of the corpus `scale` and `seed` generate.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            stations: scale.stations,
            days: scale.days,
            end_ms: scale.days as i64 * DAY_MS,
            tick_ms: Duration::from_mins(5).millis(),
            seed,
        }
    }
}

fn client_rng(seed: u64, workload: Workload, client: usize) -> StdRng {
    // distinct streams per (seed, workload, client); the constants only
    // keep the three inputs from cancelling
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((workload as u64 + 1) << 32)
            ^ (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// The twelve fixed texts: two per class.
#[cfg(test)]
pub fn fixed_reads(c: &CorpusShape) -> Vec<ReadOp> {
    ReadClass::MIX
        .iter()
        .flat_map(|&(class, _)| (0..2).map(move |v| read_op(class, v, None, c)))
        .collect()
}

/// One reader's list for `read_hybrid` / `mixed_live`: `len` live reads
/// with exact class shares (a seed changes order and literals, never
/// the amount of each kind of work), 80 % of each class reusing one of
/// its two fixed texts and 20 % carrying fresh literals.
pub fn hybrid_reads(c: &CorpusShape, workload: Workload, client: usize, len: usize) -> Vec<ReadOp> {
    assert_eq!(len % 20, 0, "list length must be a multiple of 20");
    let mut rng = client_rng(c.seed, workload, client);
    let mut ops = Vec::with_capacity(len);
    for (class, share) in ReadClass::MIX {
        let n = share * len / 20;
        let fresh = (n + 2) / 5; // a fifth, rounded to nearest
        for i in 0..n {
            ops.push(if i < fresh {
                read_op(class, i % 2, Some(&mut rng), c)
            } else {
                read_op(class, i % 2, None, c)
            });
        }
    }
    ops.shuffle(&mut rng);
    ops
}

/// One reader's list for `asof_read`. Per 20 operations: 7 `AS OF` a
/// hot commit (4 targets — they fit the 8-entry snapshot cache), 7
/// `AS OF` a commit drawn from the whole history (misses, rebuilds),
/// 4 `BETWEEN` over `between_span` commits, 2 live. Bodies alternate
/// the fixed `point` and `fleet_agg` texts, so planning is cached and
/// reconstruction is what varies.
pub fn asof_reads(c: &CorpusShape, scale: Scale, client: usize) -> Vec<ReadOp> {
    let (len, commits) = (scale.asof_list, scale.history_batches);
    assert_eq!(len % 20, 0, "list length must be a multiple of 20");
    assert!(commits > scale.between_span + 4, "history too short");
    // same hot set for both readers: derived from the seed alone
    let mut hot_rng = client_rng(c.seed, Workload::AsofRead, usize::MAX - 1);
    let hot: Vec<usize> = (0..4)
        .map(|_| hot_rng.random_range(0..commits - 1))
        .collect();
    let mut rng = client_rng(c.seed, Workload::AsofRead, client);
    let bodies = [
        read_op(ReadClass::Point, 0, None, c),
        read_op(ReadClass::FleetAgg, 0, None, c),
        read_op(ReadClass::Point, 1, None, c),
        read_op(ReadClass::FleetAgg, 1, None, c),
    ];
    let mut ops = Vec::with_capacity(len);
    for i in 0..len {
        let bound = match i % 20 {
            0..=6 => Bound::AsOf(hot[i % hot.len()]),
            // the last commit is the live state; stay below it
            7..=13 => Bound::AsOf(rng.random_range(0..commits - 1)),
            14..=17 => {
                let from = rng.random_range(0..commits - 1 - scale.between_span);
                Bound::Between(from, from + scale.between_span)
            }
            _ => Bound::Live,
        };
        ops.push(ReadOp {
            bound,
            ..bodies[i % bodies.len()].clone()
        });
    }
    ops.shuffle(&mut rng);
    ops
}

/// Reader `client`'s list on `workload`: the time-travel mix on
/// `asof_read`, the hybrid mix everywhere else.
pub fn reader_list(
    workload: Workload,
    c: &CorpusShape,
    scale: Scale,
    client: usize,
) -> Vec<ReadOp> {
    match workload {
        Workload::AsofRead => asof_reads(c, scale, client),
        w => hybrid_reads(c, w, client, scale.read_list),
    }
}

/// Stations one batch appends to.
const STATIONS_PER_BATCH: usize = 16;
/// Points one batch appends to each series of each of its stations.
const POINTS_PER_VISIT: usize = 4;
/// Every this-many-th batch of writer 0 also mutates the graph.
pub const GRAPH_EVERY: u64 = 8;

/// Index into [`STANDING`] of the query every graph batch changes; push
/// latency is timed on it.
pub const PUSH_SUB: usize = 0;

/// Stations whose `status` the graph batches rewrite, round robin.
const STATUS_STATIONS: u64 = 32;

/// The eight standing queries `mixed_live`'s writer holds: four the
/// subscription layer maintains by deltas (scan / filter / project) and
/// four it can only re-run (aggregate, `ORDER BY`). Every graph batch
/// sets one station's `status`, so the first changes on each of them.
///
/// Every result stays small on purpose. `Delta::decode` reads a row
/// *position* with `ByteReader::len_of`, which rejects values above
/// `8 × remaining bytes + 64` — right for a length, wrong for an index:
/// a one-cell insert at row 177 of a longer result fails to decode on
/// the client ("declared length exceeds input"). A workload must not
/// fail, so no standing result here can reach that size: the status
/// query is capped at [`STATUS_STATIONS`] rows, and the `Dock` filters
/// admit one dock in twenty or forty (a row per 160 or 320 batches).
pub const STANDING: [&str; 8] = [
    "MATCH (s:Station) WHERE s.status >= 0 RETURN s.name AS name, s.status AS status",
    "MATCH (d:Dock) WHERE d.docks >= 48 RETURN d.name AS name",
    "MATCH (s:Station) WHERE s.capacity > 50 RETURN s.name AS name",
    "MATCH (d:Dock) WHERE d.docks >= 49 RETURN d.name AS name, d.docks AS docks",
    "MATCH (s:Station) RETURN COUNT(s) AS n",
    "MATCH (d:Dock) RETURN d.name AS name ORDER BY name DESC LIMIT 5",
    "MATCH (s:Station) RETURN s.name AS name, MAX(s.availability IN [604800000, 691200000)) \
     AS peak ORDER BY peak DESC, name LIMIT 3",
    "MATCH (s:Station) RETURN AVG(s.capacity) AS mean_capacity",
];

/// SplitMix64 finaliser: a pure hash for appended values.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The stations writer `writer` of `writers` owns: contiguous, disjoint
/// halves, so concurrent writers never race on one series' time order.
pub fn writer_stations(c: &CorpusShape, writer: usize, writers: usize) -> std::ops::Range<usize> {
    let own = c.stations / writers;
    writer * own..(writer + 1) * own
}

/// Batch `i` of writer `writer` — a pure function, so a writer's list is
/// unbounded and any prefix can be replayed into the oracle. Each batch
/// appends [`POINTS_PER_VISIT`] points to both series of
/// [`STATIONS_PER_BATCH`] stations of a window rotating over the
/// writer's own stations (128 `Append`s at full scale). Every
/// [`GRAPH_EVERY`]-th batch of writer 0 also adds a `Dock` vertex, an
/// edge from it and a `SetProperty` of a station's `status`; only one
/// writer does, so vertex and
/// edge ids follow from the batch index and not from how two writers'
/// commits happened to interleave.
pub fn writer_batch(c: &CorpusShape, writer: usize, writers: usize, i: u64) -> Vec<HgMutation> {
    let own = writer_stations(c, writer, writers);
    let k = STATIONS_PER_BATCH.min(own.len());
    let per_rotation = (own.len() / k) as u64;
    let (round, slot) = (i / per_rotation, (i % per_rotation) as usize);
    let mut batch = Vec::with_capacity(2 * k * POINTS_PER_VISIT + 3);
    for station in (own.start + slot * k..).take(k) {
        for p in 0..POINTS_PER_VISIT as u64 {
            let step = round * POINTS_PER_VISIT as u64 + p;
            let t = Timestamp::from_millis(c.end_ms + step as i64 * c.tick_ms);
            let bikes = (mix(c.seed ^ mix(station as u64) ^ step) % 40) as f64;
            for (col, value) in [bikes, 60.0 - bikes].into_iter().enumerate() {
                batch.push(HgMutation::Append {
                    series: SeriesId::new(availability_series(station).raw() + col as u64),
                    t,
                    row: vec![value],
                });
            }
        }
    }
    if writer == 0 && i % GRAPH_EVERY == GRAPH_EVERY - 1 {
        let n = i / GRAPH_EVERY;
        let dock = VertexId::new(c.stations as u64 + n);
        batch.push(HgMutation::AddPgVertex {
            labels: vec![Label::new("Dock")],
            props: props! {"name" => format!("dock-{n:06}"), "docks" => (10 + n % 40) as i64},
            validity: Interval::ALL,
        });
        batch.push(HgMutation::AddPgEdge {
            src: dock,
            dst: VertexId::new(n.wrapping_mul(7) % c.stations as u64),
            labels: vec![Label::new("AT")],
            props: props! {"since" => n as i64},
            validity: Interval::ALL,
        });
        batch.push(HgMutation::SetProperty {
            el: ElementRef::Vertex(VertexId::new(n % STATUS_STATIONS.min(c.stations as u64))),
            key: "status".to_string(),
            value: PropertyValue::Static(Value::Int(n as i64)),
        });
    }
    batch
}

/// Points a batch appends (what `points_per_s` counts).
pub fn batch_points(batch: &[HgMutation]) -> u64 {
    batch
        .iter()
        .map(|m| match m {
            HgMutation::Append { .. } => 1,
            HgMutation::AddSeries { rows, .. } => rows.len() as u64,
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn shape(seed: u64) -> CorpusShape {
        CorpusShape::new(Scale::FULL, seed)
    }

    /// The request stream one seed generates, as the bytes on the wire.
    fn stream(seed: u64) -> Vec<u8> {
        let c = shape(seed);
        let commit_ts: Vec<i64> = (0..Scale::FULL.history_batches as i64)
            .map(|i| 1_000 + i)
            .collect();
        let mut bytes = Vec::new();
        let mut id = 0;
        let mut push = |req: Request| {
            id += 1;
            bytes.extend(req.to_frame(id).encode());
        };
        for client in 0..2 {
            for op in hybrid_reads(&c, Workload::ReadHybrid, client, 100) {
                push(op.request(&commit_ts));
            }
            for op in asof_reads(&c, Scale::FULL, client) {
                push(op.request(&commit_ts));
            }
            for i in 0..20 {
                push(Request::MutateBatch(writer_batch(&c, client, 2, i)));
            }
        }
        bytes
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        let a = corpus(Scale::SMOKE, 3);
        let b = corpus(Scale::SMOKE, 3);
        assert_eq!(a.load, b.load);
        assert_ne!(a.load, corpus(Scale::SMOKE, 4).load);
        assert_eq!(a.points, 2 * 16 * 288);
    }

    #[test]
    fn class_and_freshness_shares_are_exact_for_every_seed() {
        for seed in [1, 2, 99] {
            let c = shape(seed);
            let fixed: BTreeSet<String> = fixed_reads(&c).iter().map(ReadOp::text).collect();
            assert_eq!(fixed.len(), 12);
            let ops = hybrid_reads(&c, Workload::ReadHybrid, 0, 1_000);
            for (class, share) in ReadClass::MIX {
                let of_class: Vec<_> = ops.iter().filter(|o| o.class == class).collect();
                assert_eq!(of_class.len(), share * 50, "{class:?}");
                let reused = of_class
                    .iter()
                    .filter(|o| fixed.contains(&o.text()))
                    .count();
                assert_eq!(reused, share * 40, "{class:?}: 80 % reuse a fixed text");
            }
        }
        // readers get different lists from one seed
        let c = shape(5);
        assert_ne!(
            hybrid_reads(&c, Workload::ReadHybrid, 0, 100),
            hybrid_reads(&c, Workload::ReadHybrid, 1, 100)
        );
    }

    #[test]
    fn asof_mix_matches_its_description() {
        let ops = asof_reads(&shape(11), Scale::FULL, 0);
        let count = |f: fn(&Bound) -> bool| ops.iter().filter(|o| f(&o.bound)).count();
        assert_eq!(count(|b| matches!(b, Bound::AsOf(_))), 70);
        assert_eq!(count(|b| matches!(b, Bound::Between(..))), 20);
        assert_eq!(count(|b| matches!(b, Bound::Live)), 10);
        for op in &ops {
            if let Bound::Between(i, j) = op.bound {
                assert_eq!(j - i, Scale::FULL.between_span);
                assert!(j < Scale::FULL.history_batches - 1);
            }
        }
    }

    #[test]
    fn writers_own_disjoint_stations_and_keep_time_increasing() {
        let c = shape(1);
        let (a, b) = (writer_stations(&c, 0, 2), writer_stations(&c, 1, 2));
        assert!(a.end <= b.start && a.len() == 128 && b.end == 256);
        let mut last: std::collections::HashMap<SeriesId, Timestamp> = Default::default();
        for writer in 0..2 {
            for i in 0..40 {
                let batch = writer_batch(&c, writer, 2, i);
                assert_eq!(batch_points(&batch), 128);
                for m in &batch {
                    match m {
                        HgMutation::Append { series, t, .. } => {
                            let station = (series.raw() / 2) as usize;
                            assert!(writer_stations(&c, writer, 2).contains(&station));
                            if let Some(prev) = last.insert(*series, *t) {
                                assert!(prev < *t, "appends to one series move forward");
                            }
                        }
                        _ => assert!(writer == 0 && i % GRAPH_EVERY == GRAPH_EVERY - 1),
                    }
                }
            }
        }
        // smoke scale: 16 stations, two writers of 8
        let s = CorpusShape::new(Scale::SMOKE, 1);
        assert_eq!(batch_points(&writer_batch(&s, 1, 2, 5)), 64);
    }

    #[test]
    fn every_text_in_the_mix_parses_and_plans() {
        let c = shape(42);
        let mut texts: BTreeSet<String> = STANDING.iter().map(|s| s.to_string()).collect();
        let commit_ts: Vec<i64> = (0..Scale::FULL.history_batches as i64).collect();
        let reads = hybrid_reads(&c, Workload::MixedLive, 0, 200)
            .into_iter()
            .chain(asof_reads(&c, Scale::FULL, 1))
            .chain(hybrid_reads(
                &CorpusShape::new(Scale::SMOKE, 42),
                Workload::ReadHybrid,
                0,
                20,
            ));
        for op in reads {
            texts.insert(match op.request(&commit_ts) {
                Request::Query(text) | Request::QueryAsOf { text, .. } => text,
                other => panic!("reads are queries, got {other:?}"),
            });
        }
        assert!(texts.len() > 60);
        for text in &texts {
            let q = hygraph_query::parser::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            hygraph_query::plan_query(&q).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }
}
