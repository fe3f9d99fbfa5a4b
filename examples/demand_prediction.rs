//! The paper's urban-micromobility use case (§2): "smart bike and
//! scooter providers must predict demand at stations and districts to
//! optimize distribution" — station-level availability forecasting over
//! the HyGraph instance, with graph context explaining where prediction
//! is hard.
//!
//! Run with: `cargo run --release --example demand_prediction`

use hygraph::datagen::bike::{self, BikeConfig};
use hygraph::prelude::*;
use hygraph::ts::ops::{forecast, stats};
use hygraph::types::parallel::ExecMode;

fn main() -> Result<()> {
    // two weeks of history at 30-minute resolution
    let data = bike::generate(BikeConfig {
        stations: 30,
        days: 14,
        tick: Duration::from_mins(30),
        avg_degree: 5,
        seed: 7,
    });
    let ticks_per_day = 48usize;
    let train_days = 12;
    let split = Timestamp::ZERO + Duration::from_days(train_days);
    println!(
        "forecasting bike availability: {} stations, {} days history, last {} days held out",
        data.stations.len(),
        14,
        14 - train_days
    );

    // per-station: train on 12 days, forecast 2, compare against actuals
    let horizon = 2 * ticks_per_day;
    let hw_cfg = forecast::HoltWinters {
        season: ticks_per_day,
        ..Default::default()
    };
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new(); // (station, naive, hw, mean level)
    for (i, series) in data.availability.iter().enumerate() {
        let train = series.slice(&Interval::new(Timestamp::ZERO, split));
        let actual = series.slice(&Interval::new(split, data.end));
        let naive = forecast::seasonal_naive(&train, ticks_per_day, horizon)?;
        let hw = forecast::holt_winters(&train, hw_cfg, horizon)?;
        let naive_mae = forecast::mae(&naive, &actual).expect("aligned axes");
        let hw_mae = forecast::mae(&hw, &actual).expect("aligned axes");
        let level = stats::mean(series.values()).unwrap_or(0.0);
        rows.push((i, naive_mae, hw_mae, level));
    }

    let mean_naive = rows.iter().map(|r| r.1).sum::<f64>() / rows.len() as f64;
    let mean_hw = rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64;
    println!("\nfleet-wide 2-day forecast MAE (bikes):");
    println!("  seasonal naive : {mean_naive:.2}");
    println!("  holt-winters   : {mean_hw:.2}");

    // graph context: which stations are hardest to predict?
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("\nhardest stations (HW MAE) with graph context:");
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>10}",
        "station", "MAE", "capacity", "out-degree", "commuter?"
    );
    for &(i, _, hw_mae, _) in rows.iter().take(5) {
        let v = data.stations[i];
        let vd = data.graph.vertex(v)?;
        let cap = vd
            .props
            .static_value("capacity")
            .and_then(Value::as_i64)
            .unwrap_or(0);
        println!(
            "{:<12} {:>8.2} {:>10} {:>12} {:>10}",
            format!("station-{i}"),
            hw_mae,
            cap,
            data.graph.out_degree(v),
            i % 3 == 0, // the generator gives every third station rush-hour dips
        );
    }
    let commuter_mae: Vec<f64> = rows.iter().filter(|r| r.0 % 3 == 0).map(|r| r.2).collect();
    let steady_mae: Vec<f64> = rows.iter().filter(|r| r.0 % 3 != 0).map(|r| r.2).collect();
    println!(
        "\ncommuter stations (rush-hour dips) mean MAE: {:.2}; steady stations: {:.2}",
        stats::mean(&commuter_mae).unwrap_or(0.0),
        stats::mean(&steady_mae).unwrap_or(0.0)
    );

    // hybrid angle: stations in the same correlated regime share their
    // demand pattern — pooled context for cold-start stations
    let hg = data.to_hygraph();
    let anchor = data.stations[rows[0].0];
    let regime = hygraph::analytics::hybrid::correlation_reachability(
        &hg,
        anchor,
        Duration::from_mins(30),
        0.7,
        ExecMode::Auto,
    );
    println!(
        "\ncorrelated-regime of the hardest station: {} stations share its availability pattern",
        regime.len()
    );
    println!("→ a cold-start station in this regime can borrow the group's seasonal profile.");
    Ok(())
}
