//! The HyGraph Model (HGM) — the paper's primary contribution (§5).
//!
//! A HyGraph instance is the tuple **HG = (V, E, S, TS, η, γ, λ, φ, ρ, δ)**:
//!
//! * `V = V_pg ∪ V_ts` — property-graph vertices and *time-series
//!   vertices*, both first-class;
//! * `E = E_pg ∪ E_ts` — property-graph edges and *time-series edges*;
//! * `S` — logical subgraphs with time-dependent membership;
//! * `TS` — the set of (multivariate) time series;
//! * `η : E → V × V` — edge endpoints;
//! * `γ : S × T → 𝒫(V) × 𝒫(E)` — subgraph membership over time;
//! * `λ : V ∪ E ∪ S → 𝒫(L)` — labels;
//! * `φ : (V_pg ∪ E_pg ∪ S) × K → 𝒩` — properties, where a value is
//!   *either* a static scalar (𝒩_Σ) *or* a series reference (𝒩_TS);
//! * `ρ : (V_pg ∪ E_pg ∪ S) → T × T` — validity intervals;
//! * `δ : (V_ts ∪ E_ts) → TS` — the series a ts-element *is*.
//!
//! The [`model::HyGraph`] type realises the tuple; [`interfaces`]
//! implements the paper's three operator families (`<X>ToHyGraph`,
//! `HyGraphTo<X>`, and the transforms between them); [`view`] provides
//! logical grouping/sampling views (requirement R2).

pub mod binio;
pub mod builder;
pub mod interfaces;
pub mod model;
pub mod subgraph;
pub mod view;

pub use builder::HyGraphBuilder;
pub use model::{ElementKind, ElementRef, HyGraph};
pub use subgraph::Subgraph;
