//! Urban-micromobility scenario (paper §2): a bike-sharing network as a
//! HyGraph, analysed with the four roadmap hybrid operators.
//!
//! Run with: `cargo run --release --example bike_sharing`

use hygraph::analytics::hybrid;
use hygraph::datagen::bike::{self, BikeConfig};
use hygraph::prelude::*;
use hygraph::query;
use hygraph::types::parallel::ExecMode;

fn main() -> Result<()> {
    let data = bike::generate(BikeConfig {
        stations: 40,
        days: 14,
        tick: Duration::from_mins(15),
        avg_degree: 5,
        seed: 2024,
    });
    let hg = data.to_hygraph();
    println!(
        "bike network: {} stations, {} trip relations, {} series ({} points each)",
        hg.vertex_count(),
        hg.edge_count(),
        hg.series_count(),
        data.points_per_station()
    );

    // ---- HyQL over series-valued properties ------------------------------
    let day = 86_400_000i64;
    let r = query(
        &hg,
        &format!(
            "MATCH (s:Station) \
             RETURN s.name AS station, MEAN(s.availability IN [0, {day})) AS day1_avg \
             ORDER BY day1_avg DESC LIMIT 5"
        ),
    )?;
    println!("\ntop-5 stations by day-1 mean availability (HyQL):");
    print!("{}", r.render());

    // ---- Q2: hybrid aggregation -----------------------------------------
    let agg = hybrid::hybrid_aggregate(&hg, Duration::from_hours(6), ExecMode::Auto);
    let station_series = &agg.group_series["Station"];
    println!(
        "Q2 hybrid aggregate: 'Station' group series downsampled to 6h buckets: {} points",
        station_series.len()
    );

    // ---- Q3: correlation-constrained reachability --------------------------
    let start = data.stations[0];
    let reach =
        hybrid::correlation_reachability(&hg, start, Duration::from_mins(15), 0.6, ExecMode::Auto);
    println!(
        "Q3 correlation reachability from {}: {} stations follow a correlated \
         availability regime",
        start,
        reach.len()
    );

    // ---- Q4: segmentation-driven snapshots --------------------------------
    // segment the busiest station's availability; snapshot the network at
    // each regime boundary
    let driver = &data.availability[0];
    let weekly = hygraph::ts::ops::downsample::bucket_mean(driver, Duration::from_hours(12));
    let snaps = hybrid::segmentation_snapshots(&hg, &weekly, None)?;
    println!(
        "Q4 segmentation snapshots: {} regimes detected",
        snaps.len()
    );
    for (t, snap) in snaps.iter().take(4) {
        println!(
            "  regime starting {}: {} stations active",
            t,
            snap.vertex_count()
        );
    }

    // ---- seasonality & anomaly analytics on a station ----------------------
    let s = &data.availability[3];
    let ticks_per_day =
        (Duration::from_days(1).millis() / Duration::from_mins(15).millis()) as usize;
    let strength = hygraph::ts::ops::features::seasonality_strength(s, ticks_per_day);
    println!("\nstation-3 daily seasonality strength: {strength:.2}");
    let motifs = hygraph::ts::ops::motif::motifs(s, ticks_per_day / 4, 1);
    if let Some(m) = motifs.first() {
        println!(
            "recurring 6h motif at {} and {} (distance {:.2})",
            m.time_a, m.time_b, m.distance
        );
    }
    Ok(())
}
