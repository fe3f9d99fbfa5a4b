//! Bike-sharing dataset generator (the paper's Table-1 workload).
//!
//! Mirrors the shape of the published NYC bike-sharing dataset \[52\]:
//! a station network (vertices) connected by trip relations (edges, with
//! trip counts), where every station carries long, regular time series —
//! bike availability and free docks — sampled every few minutes over
//! weeks, with daily and weekly seasonality plus noise.

use hygraph_core::{ElementRef, HyGraph};
use hygraph_graph::TemporalGraph;
use hygraph_ts::TimeSeries;
use hygraph_types::{props, Duration, SeriesId, Timestamp, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the bike dataset.
#[derive(Clone, Copy, Debug)]
pub struct BikeConfig {
    /// Number of stations.
    pub stations: usize,
    /// Number of days of time-series history.
    pub days: usize,
    /// Sampling interval of the series.
    pub tick: Duration,
    /// Average trip-relation out-degree per station.
    pub avg_degree: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BikeConfig {
    fn default() -> Self {
        Self {
            stations: 100,
            days: 30,
            tick: Duration::from_mins(5),
            avg_degree: 6,
            seed: 42,
        }
    }
}

/// The generated dataset, exposed both as raw pieces (graph + series,
/// for the storage backends) and as a unified HyGraph instance.
pub struct BikeDataset {
    /// Station/trip topology. Station vertices are labelled `Station`
    /// and carry `name`, `capacity`, `lat`, `lon`; trip edges are
    /// labelled `TRIP` and carry `trips` (count).
    pub graph: TemporalGraph,
    /// Per-station availability series, parallel to `stations`.
    pub availability: Vec<TimeSeries>,
    /// Per-station free-dock series, parallel to `stations`.
    pub docks: Vec<TimeSeries>,
    /// Station vertex ids in generation order.
    pub stations: Vec<VertexId>,
    /// First timestamp of the series.
    pub start: Timestamp,
    /// One past the last timestamp.
    pub end: Timestamp,
    /// Sampling interval.
    pub tick: Duration,
}

impl BikeDataset {
    /// Points per station series.
    pub fn points_per_station(&self) -> usize {
        self.availability.first().map_or(0, TimeSeries::len)
    }

    /// Builds the unified HyGraph: stations as pg-vertices with their
    /// series attached as series-valued properties (`availability`,
    /// `docks`), trips as pg-edges.
    pub fn to_hygraph(&self) -> HyGraph {
        let mut hg = hygraph_core::interfaces::import::graph_to_hygraph(&self.graph);
        for (i, &station) in self.stations.iter().enumerate() {
            let a = hg.add_univariate_series("availability", &self.availability[i]);
            let d = hg.add_univariate_series("docks", &self.docks[i]);
            hg.set_property(ElementRef::Vertex(station), "availability", a)
                .expect("station exists");
            hg.set_property(ElementRef::Vertex(station), "docks", d)
                .expect("station exists");
        }
        hg
    }

    /// The availability series id attached to `station` inside a HyGraph
    /// built by [`Self::to_hygraph`].
    pub fn availability_series(hg: &HyGraph, station: VertexId) -> Option<SeriesId> {
        hg.props(ElementRef::Vertex(station))
            .ok()?
            .series_value("availability")
    }
}

/// Generates the dataset.
pub fn generate(cfg: BikeConfig) -> BikeDataset {
    assert!(cfg.stations > 0, "need at least one station");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut graph = TemporalGraph::new();
    let start = Timestamp::from_millis(0);

    // stations on a jittered grid (Manhattan-ish)
    let mut stations = Vec::with_capacity(cfg.stations);
    for i in 0..cfg.stations {
        let lat = 40.70 + (i / 10) as f64 * 0.005 + rng.random_range(-0.001..0.001);
        let lon = -74.02 + (i % 10) as f64 * 0.005 + rng.random_range(-0.001..0.001);
        let capacity = rng.random_range(15..60i64);
        let v = graph.add_vertex(
            ["Station"],
            props! {
                "name" => format!("station-{i}"),
                "capacity" => capacity,
                "lat" => lat,
                "lon" => lon
            },
        );
        stations.push(v);
    }

    // trip edges: popularity-skewed destinations
    for (i, &src) in stations.iter().enumerate() {
        let degree = rng.random_range(1..=cfg.avg_degree * 2);
        for _ in 0..degree {
            // skew towards low-index ("downtown") stations
            let j = (rng.random_range(0.0f64..1.0).powi(2) * cfg.stations as f64) as usize
                % cfg.stations;
            if j == i {
                continue;
            }
            let trips = rng.random_range(1..500i64);
            graph
                .add_edge(src, stations[j], ["TRIP"], props! {"trips" => trips})
                .expect("stations exist");
        }
    }

    // per-station series: capacity-bounded availability with daily +
    // weekly seasonality, station-specific phase, and noise
    let ticks_per_day = (Duration::from_days(1).millis() / cfg.tick.millis()) as usize;
    let n = ticks_per_day * cfg.days;
    let mut availability = Vec::with_capacity(cfg.stations);
    let mut docks = Vec::with_capacity(cfg.stations);
    for (i, &station) in stations.iter().enumerate() {
        let capacity = graph
            .vertex(station)
            .expect("station exists")
            .props
            .static_value("capacity")
            .and_then(|v| v.as_i64())
            .expect("capacity set") as f64;
        let phase = rng.random_range(0.0..std::f64::consts::TAU);
        let noise_amp = rng.random_range(0.02..0.10);
        let commuter = i % 3 == 0; // commuter stations drain in rush hours
        let mut avail = TimeSeries::with_capacity(n);
        let mut dock = TimeSeries::with_capacity(n);
        let mut t = start;
        for k in 0..n {
            let day_frac = (k % ticks_per_day) as f64 / ticks_per_day as f64;
            let week_frac = (k % (ticks_per_day * 7)) as f64 / (ticks_per_day * 7) as f64;
            let daily = ((day_frac * std::f64::consts::TAU) + phase).sin();
            let weekly = (week_frac * std::f64::consts::TAU).cos() * 0.3;
            let rush = if commuter {
                // two sharp dips around 8:30 and 17:30
                let morning = (-((day_frac - 0.354) * 40.0).powi(2)).exp();
                let evening = (-((day_frac - 0.729) * 40.0).powi(2)).exp();
                -(morning + evening) * 0.8
            } else {
                0.0
            };
            let noise = rng.random_range(-noise_amp..noise_amp);
            let frac = (0.5 + 0.35 * daily + weekly * 0.2 + rush + noise).clamp(0.0, 1.0);
            let bikes = (capacity * frac).round();
            avail.push(t, bikes).expect("ticks increase");
            dock.push(t, capacity - bikes).expect("ticks increase");
            t += cfg.tick;
        }
        availability.push(avail);
        docks.push(dock);
    }

    let end = start + cfg.tick.scale(n as i64);
    BikeDataset {
        graph,
        availability,
        docks,
        stations,
        start,
        end,
        tick: cfg.tick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::Interval;

    fn small() -> BikeConfig {
        BikeConfig {
            stations: 20,
            days: 3,
            tick: Duration::from_mins(30),
            avg_degree: 4,
            seed: 7,
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(small());
        let b = generate(small());
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.availability[0], b.availability[0]);
        assert_eq!(a.docks[5], b.docks[5]);
    }

    #[test]
    fn shape_matches_config() {
        let d = generate(small());
        assert_eq!(d.stations.len(), 20);
        assert_eq!(d.points_per_station(), 48 * 3);
        assert!(d.graph.edge_count() > 0);
        for s in &d.availability {
            assert!(s.validate().is_ok());
        }
    }

    #[test]
    fn availability_within_capacity() {
        let d = generate(small());
        for (i, &station) in d.stations.iter().enumerate() {
            let cap = d
                .graph
                .vertex(station)
                .unwrap()
                .props
                .static_value("capacity")
                .unwrap()
                .as_i64()
                .unwrap() as f64;
            for (_, v) in d.availability[i].iter() {
                assert!((0.0..=cap).contains(&v), "bikes within [0, capacity]");
            }
            // availability + docks == capacity at every tick
            for ((_, a), (_, free)) in d.availability[i].iter().zip(d.docks[i].iter()) {
                assert!((a + free - cap).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn daily_seasonality_present() {
        let cfg = BikeConfig { days: 7, ..small() };
        let d = generate(cfg);
        let ticks_per_day = 48;
        // average lag-1-day autocorrelation across stations should be high
        let mut rs = Vec::new();
        for s in &d.availability {
            if let Some(r) = hygraph_ts::ops::stats::autocorrelation(s.values(), ticks_per_day) {
                rs.push(r);
            }
        }
        let mean_r = rs.iter().sum::<f64>() / rs.len() as f64;
        assert!(mean_r > 0.5, "daily pattern should repeat, got {mean_r}");
    }

    #[test]
    fn hygraph_roundtrip() {
        let d = generate(small());
        let hg = d.to_hygraph();
        assert_eq!(hg.vertex_count(), 20);
        assert_eq!(hg.series_count(), 40, "availability + docks per station");
        assert!(hg.validate().is_ok());
        let sid = BikeDataset::availability_series(&hg, d.stations[3]).unwrap();
        let s = hg.series(sid).unwrap();
        assert_eq!(s.len(), d.points_per_station());
        // series content identical to the raw dataset
        assert_eq!(
            s.to_univariate("availability")
                .unwrap()
                .slice(&Interval::ALL),
            d.availability[3]
        );
    }
}
