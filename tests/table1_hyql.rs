//! Table 1's hybrid queries Q3, Q4, Q5 and Q7, written in HyQL over the
//! unified instance (`BikeDataset::to_hygraph`), against the polyglot
//! store, which answers the same queries with separately coded
//! TS-store kernels. The two paths sum in different orders, so means
//! are compared at a relative tolerance of 1e-9.

use hygraph::datagen::bike::{self, BikeDataset};
use hygraph::prelude::*;
use hygraph::query;
use hygraph::storage::{PolyglotStore, StorageBackend};
use std::collections::HashMap;

const DAY: i64 = 86_400_000;

fn dataset() -> BikeDataset {
    bike::generate(bike::BikeConfig {
        stations: 30,
        days: 10,
        tick: Duration::from_mins(10),
        avg_degree: 4,
        seed: 7,
    })
}

fn range(from: i64, to: i64) -> Interval {
    Interval::new(Timestamp::from_millis(from), Timestamp::from_millis(to))
}

fn assert_close(got: f64, want: f64, what: &str) {
    let tol = 1e-9 * got.abs().max(want.abs()).max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: HyQL {got}, store {want}"
    );
}

/// Station vertex by its `name` property.
fn stations_by_name(data: &BikeDataset) -> HashMap<String, VertexId> {
    data.stations
        .iter()
        .map(|&v| {
            let name = data.graph.vertex(v).unwrap().props.static_value("name");
            (name.unwrap().as_str().unwrap().to_owned(), v)
        })
        .collect()
}

/// `(station, mean)` pairs of a HyQL result with columns `name, m`.
fn name_means(hg: &HyGraph, names: &HashMap<String, VertexId>, text: &str) -> Vec<(VertexId, f64)> {
    let r = query(hg, text).unwrap();
    assert_eq!(r.columns, vec!["name", "m"], "{text}");
    r.rows
        .iter()
        .map(|row| (names[row[0].as_str().unwrap()], row[1].as_f64().unwrap()))
        .collect()
}

#[test]
fn table1_hybrid_queries_through_hyql_match_the_polyglot_store() {
    let data = dataset();
    let hg = data.to_hygraph();
    let poly = PolyglotStore::load(&data);
    let names = stations_by_name(&data);
    let (start, end) = (data.start.millis(), data.end.millis());

    // Q3: one station's mean over a window that cuts chunks mid-way
    let (a, b) = (DAY + 7 * 60_000, 8 * DAY + 13 * 60_000);
    let r = query(
        &hg,
        &format!("MATCH (s:Station {{name: 'station-3'}}) RETURN MEAN(s.availability IN [{a}, {b})) AS m"),
    )
    .unwrap();
    assert_eq!(r.rows.len(), 1);
    let want = poly.q3_mean(names["station-3"], &range(a, b)).unwrap();
    assert_close(r.rows[0][0].as_f64().unwrap(), want, "Q3");

    // Q4: every station's mean over the full range
    let got = name_means(
        &hg,
        &names,
        &format!("MATCH (s:Station) RETURN s.name AS name, MEAN(s.availability IN [{start}, {end})) AS m"),
    );
    let want: HashMap<VertexId, f64> = poly.q4_mean_all(&range(start, end)).into_iter().collect();
    assert_eq!(got.len(), want.len(), "Q4 row count");
    for (station, m) in &got {
        assert_close(*m, want[station], "Q4");
    }

    // Q5: top-k stations by mean; ties may come out in either order, so
    // the means must match rank by rank and each station its own mean
    let (a, b, k) = (2 * DAY, 9 * DAY, 5);
    let got = name_means(
        &hg,
        &names,
        &format!(
            "MATCH (s:Station) RETURN s.name AS name, MEAN(s.availability IN [{a}, {b})) AS m \
             ORDER BY m DESC LIMIT {k}"
        ),
    );
    let top = poly.q5_top_k(&range(a, b), k);
    let means: HashMap<VertexId, f64> = poly.q4_mean_all(&range(a, b)).into_iter().collect();
    assert_eq!(got.len(), top.len(), "Q5 row count");
    for ((station, m), (_, want)) in got.iter().zip(&top) {
        assert_close(*m, *want, "Q5 rank");
        assert_close(*m, means[station], "Q5 station");
    }

    // Q7: trip-neighbours of a station with their means (a neighbour
    // reached over several trip edges counts once)
    let (a, b) = (3 * DAY, 10 * DAY);
    let (name, station) = names
        .iter()
        .filter(|&(_, &v)| {
            let mut out: Vec<VertexId> = data.graph.neighbors_out(v).map(|(_, n)| n).collect();
            out.sort_unstable();
            out.dedup();
            out.len() >= 2
        })
        .min_by_key(|(name, _)| name.as_str())
        .expect("some station has two trip-neighbours");
    let got = name_means(
        &hg,
        &names,
        &format!(
            "MATCH (s:Station {{name: '{name}'}})-[:TRIP]->(n:Station) \
             RETURN DISTINCT n.name AS name, MEAN(n.availability IN [{a}, {b})) AS m"
        ),
    );
    let want = poly.q7_neighbour_means(*station, &range(a, b));
    assert_eq!(got.len(), want.len(), "Q7 neighbour count");
    let got: HashMap<VertexId, f64> = got.into_iter().collect();
    for (n, m) in want {
        assert_close(got[&n], m, "Q7");
    }
}
