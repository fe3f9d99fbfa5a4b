//! Shared primitive types for the HyGraph workspace.
//!
//! This crate defines the vocabulary every other HyGraph crate speaks:
//! strongly-typed identifiers ([`VertexId`], [`EdgeId`], [`SeriesId`],
//! [`SubgraphId`]), the time domain ([`Timestamp`], [`Interval`]), dynamic
//! [`Value`]s, property maps whose values may be static scalars *or*
//! time-series references ([`PropertyValue`]), and the workspace-wide
//! [`HyGraphError`] type.
//!
//! The design follows the formal model of the paper *"Towards Hybrid
//! Graphs: Unifying Property Graphs and Time Series"* (EDBT 2025, §5):
//! the set of property values 𝒩 is partitioned into static values 𝒩_Σ and
//! time-series values 𝒩_TS, and every property-graph element carries a
//! validity interval given by the function ρ.

pub mod bytes;
pub mod error;
pub mod ids;
pub mod interval;
pub mod net;
pub mod parallel;
pub mod pmap;
pub mod property;
pub mod shard;
pub mod time;
pub mod value;

pub use error::{HyGraphError, Result};
pub use ids::{EdgeId, Label, PropertyKey, SeriesId, SubgraphId, VertexId};
pub use interval::Interval;
pub use property::{PropertyMap, PropertyValue};
pub use time::{Duration, Timestamp};
pub use value::{CmpOp, Value};
