//! Time-series operators — the TS column of the paper's Table 2.
//!
//! Each submodule implements one taxonomy row; see the crate docs for the
//! full mapping. All operators take borrowed series/slices and return
//! owned results, so they compose freely with the store's chunk-pruned
//! range scans.

pub mod aggregate;
pub mod anomaly;
pub mod correlate;
pub mod downsample;
pub mod features;
pub mod forecast;
pub mod motif;
pub mod pca;
pub mod resample;
pub mod sax;
pub mod segment;
pub mod stats;
pub mod subsequence;
