//! The metrics registry: one table declaring every instrument the
//! stack records into, and everything derived from it — the live
//! groups, a plain-data [`Snapshot`] of the lot, a self-describing
//! binary codec for shipping snapshots over the wire, and a
//! Prometheus-style text exposition.
//!
//! The registry is a fixed, strongly-typed tree — no string lookups on
//! the hot path, no allocation, no locks beyond the slow-query ring.
//! Each domain (serving, durability, query execution, time series) has
//! its own group so call sites read like
//! `m.server.queue_wait_us.observe_duration(w)`.
//!
//! ## Adding an instrument
//!
//! One line in the `instruments!` table below — doc comment, field
//! name, kind, exposition name — plus the call site that feeds it.
//! Both structs, [`Registry::snapshot`], both codec directions and
//! [`Snapshot::render_text`] follow from that line, and the wire needs
//! no version bump: a reader that does not know the name skips it.

use crate::counter::{Counter, Gauge};
use crate::hist::{Histogram, HistogramSnapshot, BUCKETS};
use crate::slow::{SlowQueryEntry, SlowQueryLog};
use std::collections::HashMap;

/// Leading byte of every encoded [`Snapshot`]: the self-describing
/// record format. Its predecessors 1–7 were positional layouts that
/// changed with every instrument added; this one names each value, so
/// the byte never moves again.
const SNAPSHOT_FORMAT: u8 = 8;

/// Per-shard gauge lanes held by the registry. Mirrors
/// `hygraph_types::shard::MAX_SHARDS` (this crate is dependency-free,
/// so the bound is restated here; the server asserts they agree).
pub const MAX_SHARD_LANES: usize = 64;

// ---------------------------------------------------------------------
// Operator taxonomy
// ---------------------------------------------------------------------

/// Declares the key space of a labelled family: an enum whose variants
/// index the family's members, each with its metric-name label beside
/// it.
macro_rules! label_keys {
    ($(
        $(#[$doc:meta])*
        $key:ident {
            $( $(#[$variant_doc:meta])* $variant:ident = $label:literal, )*
        }
    )*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $key {
            $( $(#[$variant_doc])* $variant, )*
        }

        impl $key {
            /// Number of variants (the dimension of the family's array).
            pub const COUNT: usize = [$( $label, )*].len();

            /// Every variant, in index order.
            pub const ALL: [$key; $key::COUNT] = [$( $key::$variant, )*];

            /// The stable metric-name label of this variant.
            pub fn name(self) -> &'static str {
                match self {
                    $( $key::$variant => $label, )*
                }
            }
        }
    )*};
}

label_keys! {
    /// The paper's Table 2 operator taxonomy — the key space for per-class
    /// query-execution metrics ([`QueryMetrics::classes`]).
    ///
    /// HyQL queries classify into the four query rows (Q1–Q4); the
    /// analytics layers map onto the remaining rows (feature extraction,
    /// detection, embedding, pattern mining).
    OpClass {
        /// Q1 — (sub)pattern matching.
        Q1Match = "q1_match",
        /// Q2 — aggregation / grouping / downsampling.
        Q2Aggregate = "q2_aggregate",
        /// Q3 — traversal, reachability, correlation.
        Q3Traverse = "q3_traverse",
        /// Q4 — snapshot / segmentation retrieval.
        Q4Snapshot = "q4_snapshot",
        /// C — feature extraction and classification.
        CFeature = "c_feature",
        /// D — outlier / anomaly / community detection.
        DDetect = "d_detect",
        /// E — embedding.
        EEmbed = "e_embed",
        /// PM — pattern mining (motifs, discords).
        PmMine = "pm_mine",
    }

    /// The physical operators of the plan-based HyQL executor — the key
    /// space for per-operator query metrics ([`QueryMetrics::operators`],
    /// `hygraph-query::physical`).
    PlanOp {
        /// Pattern matching / binding materialisation (with pushed preds).
        Match = "match",
        /// Residual WHERE evaluation over bindings.
        Filter = "filter",
        /// Flat projection (RETURN items, incl. series aggregates).
        Project = "project",
        /// Grouped projection: key eval + row-aggregate fold + HAVING.
        Aggregate = "aggregate",
        /// DISTINCT row deduplication.
        Distinct = "distinct",
        /// ORDER BY sort.
        Sort = "sort",
        /// LIMIT truncation.
        Limit = "limit",
    }
}

// ---------------------------------------------------------------------
// The walk: how the codec and the renderer see an instrument
// ---------------------------------------------------------------------

/// One instrument's plain value — the variant is its kind. Generic
/// over how the walk borrows it: shared for the encoder and the
/// renderer ([`Value`]), exclusive for the decoder ([`Slot`]).
enum Cell<C, G, H> {
    Counter(C),
    Gauge(G),
    Histogram(H),
}

type Value<'a> = Cell<&'a u64, &'a i64, &'a HistogramSnapshot>;
type Slot<'a> = Cell<&'a mut u64, &'a mut i64, &'a mut HistogramSnapshot>;

impl<C, G, H> Cell<C, G, H> {
    /// The kind byte of this instrument's wire record.
    fn kind(&self) -> u8 {
        match self {
            Cell::Counter(_) => 0,
            Cell::Gauge(_) => 1,
            Cell::Histogram(_) => 2,
        }
    }
}

/// An instrument's exposition name: the table's literal, with the
/// `<…>` placeholder of a labelled family's template replaced by the
/// member's label.
fn expand(template: &str, label: &str) -> String {
    match (template.find('<'), template.find('>')) {
        (Some(open), Some(close)) => {
            format!("{}{label}{}", &template[..open], &template[close + 1..])
        }
        _ => template.to_owned(),
    }
}

/// The label of the `i`-th member of a family (empty for a group that
/// is not one).
type Label = fn(usize) -> String;

/// What the shared walk calls per instrument, in table order, with the
/// table's name literal and the member's label (see [`expand`]).
type Visit<'f> = dyn for<'a> FnMut(&'static str, &'a str, Value<'a>) + 'f;

/// What the exclusive walk calls per instrument: the decoder, filling
/// the slots it has a record for.
type VisitMut<'f> = dyn for<'a> FnMut(&'static str, &'a str, Slot<'a>) + 'f;

// ---------------------------------------------------------------------
// The instrument table
// ---------------------------------------------------------------------

/// The walks every plain group has — a trait so that a family's walk
/// can be called on its member slice without naming the member type.
/// Both go over a slice of groups field by field, so a family's members
/// stay adjacent per instrument (the text exposition needs each
/// metric's samples in one run).
trait Group: Sized {
    fn walk(items: &[Self], label: Label, f: &mut Visit<'_>);
    fn walk_mut(items: &mut [Self], label: Label, f: &mut VisitMut<'_>);
}

macro_rules! plain_ty {
    (Counter) => {
        u64
    };
    (Gauge) => {
        i64
    };
    (Histogram) => {
        HistogramSnapshot
    };
}

macro_rules! read {
    (Histogram $live:expr) => {
        $live.snapshot()
    };
    ($kind:ident $live:expr) => {
        $live.get()
    };
}

/// Declares instrument groups: `field: Kind("exposition name")` per
/// instrument and, under `+ families`, `field: Live => Plain, by label`
/// per labelled family — an array of member groups live, an array or a
/// `Vec` of their snapshots plain, `label` naming the `i`-th member.
/// Families nest one level deep (their members hold instruments only),
/// and a family labelled in `{…}` braces holds counters and gauges only
/// — a summary's `quantile` label would need merging into the braces.
///
/// Per group this generates the live struct call sites record into, the
/// plain-data struct a [`Snapshot`] holds (same field names, same docs),
/// `Default` for the live struct, the live → plain `read`, and
/// [`Group`].
macro_rules! instruments {
    ($(
        $(#[$group_doc:meta])*
        $live:ident => $plain:ident {
            $( $(#[$doc:meta])* $field:ident: $kind:ident($name:literal), )*
        }
        $( + families {
            $(
                $(#[$family_doc:meta])*
                $family:ident: $family_live:ty => $family_plain:ty, by $family_label:expr,
            )*
        } )?
    )*) => {$(
        $(#[$group_doc])*
        #[derive(Debug)]
        pub struct $live {
            $( $(#[$doc])* pub $field: $kind, )*
            $($( $(#[$family_doc])* pub $family: $family_live, )*)?
        }

        #[doc = concat!("Plain-data copy of [`", stringify!($live), "`].")]
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $plain {
            $( $(#[$doc])* pub $field: plain_ty!($kind), )*
            $($( $(#[$family_doc])* pub $family: $family_plain, )*)?
        }

        impl Default for $live {
            fn default() -> Self {
                Self {
                    $( $field: $kind::new(), )*
                    $($( $family: std::array::from_fn(|_| Default::default()), )*)?
                }
            }
        }

        impl $live {
            fn read(&self) -> $plain {
                $plain {
                    $( $field: read!($kind self.$field), )*
                    $($( $family: self.$family.each_ref().map(|member| member.read()).into(), )*)?
                }
            }
        }

        impl Group for $plain {
            fn walk(items: &[Self], label: Label, f: &mut Visit<'_>) {
                $( for (i, s) in items.iter().enumerate() {
                    f($name, &label(i), Cell::$kind(&s.$field));
                } )*
                $($( for s in items {
                    Group::walk(&s.$family[..], $family_label, f);
                } )*)?
            }

            fn walk_mut(items: &mut [Self], label: Label, f: &mut VisitMut<'_>) {
                $( for (i, s) in items.iter_mut().enumerate() {
                    f($name, &label(i), Cell::$kind(&mut s.$field));
                } )*
                $($( for s in items.iter_mut() {
                    Group::walk_mut(&mut s.$family[..], $family_label, f);
                } )*)?
            }
        }
    )*};
}

instruments! {
    /// Serving-layer instruments (`hygraph-server`).
    ServerMetrics => ServerSnapshot {
        /// Requests admitted to the queue.
        admitted: Counter("hygraph_server_admitted_total"),
        /// Requests a worker finished (any outcome).
        completed: Counter("hygraph_server_completed_total"),
        /// Requests rejected because the admission queue was full.
        rejected_overload: Counter("hygraph_server_rejected_overload_total"),
        /// Admitted requests dropped at dequeue past their deadline.
        rejected_deadline: Counter("hygraph_server_rejected_deadline_total"),
        /// Requests refused because the server was draining.
        rejected_shutdown: Counter("hygraph_server_rejected_shutdown_total"),
        /// Frames rejected before decoding (CRC failures).
        bad_frames: Counter("hygraph_server_bad_frames_total"),
        /// Deadline drops that happened during the shutdown drain.
        drain_deadline_drops: Counter("hygraph_server_drain_deadline_drops_total"),
        /// Requests currently queued (admitted, not yet picked up).
        queue_depth: Gauge("hygraph_server_queue_depth"),
        /// Workers currently executing a request.
        workers_busy: Gauge("hygraph_server_workers_busy"),
        /// Open client connections.
        connections: Gauge("hygraph_server_connections"),
        /// Reader-side admission time: frame decoded → queued (µs).
        admission_us: Histogram("hygraph_server_admission_us"),
        /// Queue wait: admitted → picked up by a worker (µs).
        queue_wait_us: Histogram("hygraph_server_queue_wait_us"),
        /// Engine execution time per request (µs).
        execute_us: Histogram("hygraph_server_execute_us"),
        /// Response encode + socket write time (µs).
        encode_us: Histogram("hygraph_server_encode_us"),
    }

    /// Durability-layer instruments (`hygraph-persist`).
    PersistMetrics => PersistSnapshot {
        /// Records appended to the WAL batch.
        wal_appends: Counter("hygraph_persist_wal_appends_total"),
        /// Successful group-commit syncs.
        wal_syncs: Counter("hygraph_persist_wal_syncs_total"),
        /// Segment rotations (new segment files opened).
        wal_rotations: Counter("hygraph_persist_wal_rotations_total"),
        /// Bytes made durable by syncs.
        wal_synced_bytes: Counter("hygraph_persist_wal_synced_bytes_total"),
        /// Checkpoints written.
        checkpoints: Counter("hygraph_persist_checkpoints_total"),
        /// Store recoveries performed.
        recoveries: Counter("hygraph_persist_recoveries_total"),
        /// WAL frames replayed during recoveries.
        recovery_frames_replayed: Counter("hygraph_persist_recovery_frames_replayed_total"),
        /// Torn/corrupt tails truncated during recoveries.
        recovery_truncations: Counter("hygraph_persist_recovery_truncations_total"),
        /// Per-record WAL append time (µs).
        wal_append_us: Histogram("hygraph_persist_wal_append_us"),
        /// Group-commit sync time: one write + fdatasync (µs).
        wal_sync_us: Histogram("hygraph_persist_wal_sync_us"),
        /// Checkpoint write time (µs).
        checkpoint_us: Histogram("hygraph_persist_checkpoint_us"),
        /// Full recovery time on open (µs).
        recovery_us: Histogram("hygraph_persist_recovery_us"),
        /// Frames per group-commit batch (a size, not a latency).
        group_commit_frames: Histogram("hygraph_persist_group_commit_frames"),
    }

    /// Per-operator-class instruments; `<class>` is [`OpClass::name`].
    OpMetrics => OpSnapshot {
        /// Executions.
        count: Counter("hygraph_query_<class>_total"),
        /// Executions that returned an error.
        errors: Counter("hygraph_query_<class>_errors_total"),
        /// Execution time (µs).
        time_us: Histogram("hygraph_query_<class>_us"),
    }

    /// Per-physical-operator instruments (`hygraph-query::physical`);
    /// `<op>` is [`PlanOp::name`].
    OperatorMetrics => OperatorSnapshot {
        /// Operator executions.
        invocations: Counter("hygraph_query_op_<op>_total"),
        /// Rows (or bindings) the operator emitted.
        rows_out: Counter("hygraph_query_op_<op>_rows_total"),
        /// Execution time (µs).
        time_us: Histogram("hygraph_query_op_<op>_us"),
    }

    /// Query-layer instruments (`hygraph-query`), keyed by [`OpClass`].
    QueryMetrics => QuerySnapshot {
        /// HyQL texts that failed to parse (never classified).
        parse_errors: Counter("hygraph_query_parse_errors_total"),
        /// Queries answered from the server's plan cache.
        plan_cache_hits: Counter("hygraph_query_plan_cache_hits_total"),
        /// Queries planned from scratch (cache cold, full, or disabled).
        plan_cache_misses: Counter("hygraph_query_plan_cache_misses_total"),
    } + families {
        /// One group per Table 2 row, indexed by `OpClass as usize`.
        classes: [OpMetrics; OpClass::COUNT] => [OpSnapshot; OpClass::COUNT],
            by |i| OpClass::ALL[i].name().to_owned(),
        /// One group per physical operator, indexed by `PlanOp as usize`.
        operators: [OperatorMetrics; PlanOp::COUNT] => [OperatorSnapshot; PlanOp::COUNT],
            by |i| PlanOp::ALL[i].name().to_owned(),
    }

    /// Time-series-layer instruments (`hygraph-ts`).
    TsMetrics => TsSnapshot {
        /// Insert calls into the chunked store.
        inserts: Counter("hygraph_ts_inserts_total"),
        /// Observations inserted.
        points_inserted: Counter("hygraph_ts_points_inserted_total"),
        /// Precomputed rollup-pyramid nodes merged by interval aggregates.
        rollup_hits: Counter("hygraph_ts_rollup_hits_total"),
        /// Sealed boundary chunks an aggregate had to decode and scan.
        rollup_boundary_decodes: Counter("hygraph_ts_rollup_boundary_decodes_total"),
        /// Chunks currently sealed (compressed) across all stores.
        sealed_chunks: Gauge("hygraph_ts_sealed_chunks"),
        /// Uncompressed size of the sealed data (bytes).
        raw_bytes: Gauge("hygraph_ts_raw_bytes"),
        /// Compressed size of the sealed data (bytes).
        compressed_bytes: Gauge("hygraph_ts_compressed_bytes"),
    }

    /// Standing-subscription instruments (`hygraph-sub`).
    SubMetrics => SubSnapshot {
        /// Standing queries currently registered.
        active: Gauge("hygraph_sub_active"),
        /// Non-empty delta frames handed to subscriber push buffers.
        deltas_pushed: Counter("hygraph_sub_deltas_pushed_total"),
        /// Commits a subscription answered by full re-execution (rerun-mode
        /// plans and forced incremental rebuilds) instead of a seeded
        /// incremental pass.
        fallback_reruns: Counter("hygraph_sub_fallback_reruns_total"),
        /// Subscriptions force-closed because their push buffer was full.
        slow_consumer_drops: Counter("hygraph_sub_slow_consumer_drops_total"),
    }

    /// One shard's WAL-stream gauges; `<shard>` is the shard index.
    /// These are **per-stream frame counters** — every shard's WAL
    /// numbers its frames independently from 0 — so they measure stream
    /// depth and sync lag, not global commit sequence numbers;
    /// cross-shard durability is the separate
    /// [`ShardMetrics::watermark`] gauge.
    ShardLaneMetrics => ShardLaneSnapshot {
        /// Next LSN the shard's WAL will assign (its append frontier).
        next_lsn: Gauge("hygraph_shard_next_lsn{shard=\"<shard>\"}"),
        /// Highest LSN the shard has fsynced (its durable frontier).
        durable_lsn: Gauge("hygraph_shard_durable_lsn{shard=\"<shard>\"}"),
    }

    /// Sharded-engine instruments: per-shard WAL positions and the
    /// cross-shard watermark. All zero on unsharded (or memory) engines.
    ShardMetrics => ShardsSnapshot {
        /// Configured shard count (0 until a sharded store reports in).
        shards: Gauge("hygraph_shards"),
        /// Cross-shard durable watermark in **commit sequence numbers**:
        /// every commit strictly below it is durable on all shards. Fed
        /// from the sharded store's per-shard durable CSN frontiers (see
        /// `hygraph_temporal::ShardWatermark`) — not from the per-stream
        /// lane LSNs, which are numbered independently per shard.
        watermark: Gauge("hygraph_shard_watermark"),
        /// Snapshot-publication time per committed batch (µs): the writer's
        /// cost of cloning the instance (structural sharing makes this
        /// O(changed structure)) and swapping it into the read slot.
        commit_publish_us: Histogram("hygraph_commit_publish_us"),
        /// Published snapshot versions currently kept alive — the slot's
        /// current epoch plus every retired epoch a reader still pins.
        snapshot_pinned: Gauge("hygraph_snapshot_pinned"),
    } + families {
        /// Per-shard lanes, indexed by shard; only the first
        /// [`ShardMetrics::shards`] are meaningful, and a snapshot holds
        /// exactly those.
        lanes: [ShardLaneMetrics; MAX_SHARD_LANES] => Vec<ShardLaneSnapshot>,
            by |i| i.to_string(),
    }

    /// Temporal-history instruments (`hygraph-temporal`).
    TemporalMetrics => TemporalSnapshot {
        /// `AS OF` queries resolved against the history store.
        asof_queries: Counter("hygraph_temporal_asof_queries_total"),
        /// `BETWEEN` queries resolved against the history store.
        between_queries: Counter("hygraph_temporal_between_queries_total"),
        /// Past snapshots reconstructed by replay (cache misses), from
        /// the nearest cached epoch below the target or the base.
        snapshot_rebuilds: Counter("hygraph_temporal_snapshot_rebuilds_total"),
        /// Past snapshots served without a replay: from the snapshot
        /// cache, or the in-memory base itself.
        snapshot_cache_hits: Counter("hygraph_temporal_snapshot_cache_hits_total"),
        /// Commits retired from history by retention GC.
        gc_commits_folded: Counter("hygraph_temporal_gc_commits_folded_total"),
        /// Commit records currently retained in history.
        history_commits: Gauge("hygraph_temporal_history_commits"),
        /// Encoded bytes of the retained commit deltas. The base state
        /// is shared in-memory structure and is not counted.
        history_bytes: Gauge("hygraph_temporal_history_bytes"),
        /// Longest per-entity version chain currently retained.
        version_chain_max: Gauge("hygraph_temporal_version_chain_max"),
        /// End-to-end `AS OF` snapshot resolution time (µs).
        asof_us: Histogram("hygraph_temporal_asof_us"),
    }
}

impl QueryMetrics {
    /// The instrument group for `class`.
    pub fn class(&self, class: OpClass) -> &OpMetrics {
        &self.classes[class as usize]
    }

    /// The instrument group for physical operator `op`.
    pub fn operator(&self, op: PlanOp) -> &OperatorMetrics {
        &self.operators[op as usize]
    }
}

impl QuerySnapshot {
    /// The snapshot for `class`.
    pub fn class(&self, class: OpClass) -> &OpSnapshot {
        &self.classes[class as usize]
    }

    /// The snapshot for physical operator `op`.
    pub fn operator(&self, op: PlanOp) -> &OperatorSnapshot {
        &self.operators[op as usize]
    }
}

impl ShardMetrics {
    /// Records a full `(next_lsn, durable_lsn)` lane report (the shape
    /// of `ShardedStore::shard_lsns`) plus the cross-shard watermark.
    /// Lanes beyond [`MAX_SHARD_LANES`] are ignored.
    pub fn set_lanes(&self, lanes: &[(u64, u64)], watermark: u64) {
        self.shards.set(lanes.len().min(MAX_SHARD_LANES) as i64);
        self.watermark.set(watermark.min(i64::MAX as u64) as i64);
        for (lane, &(next, durable)) in self.lanes.iter().zip(lanes.iter()) {
            lane.next_lsn.set(next.min(i64::MAX as u64) as i64);
            lane.durable_lsn.set(durable.min(i64::MAX as u64) as i64);
        }
    }
}

impl ShardsSnapshot {
    /// A snapshot holds exactly the configured lanes. Both of its
    /// sources start from every possible lane — the fixed live array,
    /// or whatever lane records an encoding carries — and cut `lanes`
    /// to `shards` entries here, so the count needs no field of its own
    /// on the wire.
    fn trim_lanes(&mut self) {
        let shards = self.shards.clamp(0, MAX_SHARD_LANES as i64);
        self.lanes.truncate(shards as usize);
    }
}

// ---------------------------------------------------------------------
// Registry and snapshot
// ---------------------------------------------------------------------

/// [`Snapshot::slow_dropped`] is the one instrument outside the groups
/// (the ring counts its own evictions under its mutex).
const SLOW_DROPPED: &str = "hygraph_slow_queries_dropped_total";

/// Declares the registry's layers — one instrument group each — and
/// with them the [`Registry`] tree, the [`Snapshot`] of it, and the
/// order the snapshot's walks visit the groups in.
macro_rules! layers {
    ($( $(#[$doc:meta])* $field:ident: $live:ident => $plain:ident, )*) => {
        /// The process-wide instrument tree (see [`crate::get`]).
        #[derive(Debug)]
        pub struct Registry {
            $( $(#[$doc])* pub $field: $live, )*
            /// Slow-query ring buffer.
            pub slow: SlowQueryLog,
        }

        impl Registry {
            /// A fresh registry whose slow-query ring holds
            /// `slow_capacity` entries.
            pub fn new(slow_capacity: usize) -> Self {
                Self {
                    $( $field: $live::default(), )*
                    slow: SlowQueryLog::new(slow_capacity),
                }
            }

            /// A plain-data copy of every instrument at this instant.
            pub fn snapshot(&self) -> Snapshot {
                let (slow_queries, slow_dropped) = self.slow.snapshot();
                let mut snap = Snapshot {
                    $( $field: self.$field.read(), )*
                    slow_queries,
                    slow_dropped,
                };
                snap.shard.trim_lanes();
                snap
            }
        }

        /// A full point-in-time copy of the registry: what the `Stats`
        /// wire request returns and what [`Snapshot::render_text`]
        /// renders.
        ///
        /// Deliberately contains no wall-clock field, so encoding is a
        /// pure function of the instrument values — two snapshots of an
        /// idle registry encode to identical bytes.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Snapshot {
            $( $(#[$doc])* pub $field: $plain, )*
            /// Slow-query ring contents, oldest first.
            pub slow_queries: Vec<SlowQueryEntry>,
            /// Slow queries evicted from the ring since startup.
            pub slow_dropped: u64,
        }

        impl Snapshot {
            /// Calls `f` for every instrument, in table order — the one
            /// walk [`Snapshot::to_bytes`] and [`Snapshot::render_text`]
            /// share.
            fn walk(&self, f: &mut Visit<'_>) {
                $( $plain::walk(std::slice::from_ref(&self.$field), |_| String::new(), f); )*
                f(SLOW_DROPPED, "", Cell::Counter(&self.slow_dropped));
            }

            /// [`Snapshot::walk`] with exclusive access, for the decoder.
            fn walk_mut(&mut self, f: &mut VisitMut<'_>) {
                $( $plain::walk_mut(std::slice::from_mut(&mut self.$field), |_| String::new(), f); )*
                f(SLOW_DROPPED, "", Cell::Counter(&mut self.slow_dropped));
            }
        }
    };
}

layers! {
    /// Serving layer.
    server: ServerMetrics => ServerSnapshot,
    /// Durability layer.
    persist: PersistMetrics => PersistSnapshot,
    /// Query layer.
    query: QueryMetrics => QuerySnapshot,
    /// Time-series layer.
    ts: TsMetrics => TsSnapshot,
    /// Standing-subscription layer.
    sub: SubMetrics => SubSnapshot,
    /// Sharded-engine layer.
    shard: ShardMetrics => ShardsSnapshot,
    /// Temporal-history layer.
    temporal: TemporalMetrics => TemporalSnapshot,
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------
//
// format byte
// record*      u16 name length (> 0) · name · u8 kind · u32 payload
//              length · payload — one per instrument, in table order
// u16 0        end of records
// slow ring    u32 count · (u32 length · text · u64 µs · u64 rows ·
//              u64 plan fingerprint)*
//
// All integers little-endian; a counter's payload is a u64, a gauge's
// an i64, a histogram's what `put_hist` writes. The name carries its
// labels (`hygraph_shard_next_lsn{shard="0"}`); (name, kind) identifies
// an instrument and the length lets a reader skip one it does not know.

/// A malformed [`Snapshot`] encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

/// The unread rest of an encoding.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(|| err("truncated"))?;
        self.0 = rest;
        Ok(head)
    }

    /// The next `N` bytes, for `from_le_bytes`.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str(&mut self, len: usize) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.take(len)?).map_err(|_| err("invalid utf-8"))
    }

    fn finish(&self, what: &str) -> Result<(), DecodeError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(err(format!("{n} trailing bytes after {what}"))),
        }
    }
}

fn put_hist(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    out.extend_from_slice(&h.count.to_le_bytes());
    out.extend_from_slice(&h.sum.to_le_bytes());
    let nonzero = h.buckets.iter().filter(|&&n| n != 0).count() as u16;
    out.extend_from_slice(&nonzero.to_le_bytes());
    for (i, &n) in h.buckets.iter().enumerate() {
        if n != 0 {
            out.extend_from_slice(&(i as u16).to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

fn get_hist(r: &mut Reader<'_>) -> Result<HistogramSnapshot, DecodeError> {
    let count = r.u64()?;
    let sum = r.u64()?;
    let nonzero = r.u16()? as usize;
    let mut buckets = [0u64; BUCKETS];
    let mut last: Option<usize> = None;
    let mut total = 0u64;
    for _ in 0..nonzero {
        let idx = r.u16()? as usize;
        if idx >= BUCKETS {
            return Err(err(format!("bucket index {idx} out of range")));
        }
        if last.is_some_and(|l| idx <= l) {
            return Err(err("bucket indices not strictly increasing"));
        }
        let n = r.u64()?;
        if n == 0 {
            return Err(err("zero count in sparse bucket"));
        }
        buckets[idx] = n;
        total = total.checked_add(n).ok_or_else(|| err("count overflow"))?;
        last = Some(idx);
    }
    if total != count {
        return Err(err(format!(
            "histogram count {count} disagrees with bucket mass {total}"
        )));
    }
    Ok(HistogramSnapshot {
        buckets,
        count,
        sum,
    })
}

fn put_record(out: &mut Vec<u8>, name: &str, value: Value<'_>) {
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.push(value.kind());
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    match value {
        Cell::Counter(n) => out.extend_from_slice(&n.to_le_bytes()),
        Cell::Gauge(n) => out.extend_from_slice(&n.to_le_bytes()),
        Cell::Histogram(h) => put_hist(out, h),
    }
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

fn get_payload(slot: Slot<'_>, payload: &[u8]) -> Result<(), DecodeError> {
    let mut r = Reader(payload);
    match slot {
        Cell::Counter(n) => *n = r.u64()?,
        Cell::Gauge(n) => *n = i64::from_le_bytes(r.array()?),
        Cell::Histogram(h) => *h = get_hist(&mut r)?,
    }
    r.finish("record payload")
}

impl Snapshot {
    /// Encodes the snapshot into its exact binary form. The encoding is
    /// canonical: `from_bytes(to_bytes(s))` returns `s`, and re-encoding
    /// the result reproduces the input bytes bit for bit.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * 1024);
        out.push(SNAPSHOT_FORMAT);
        self.walk(&mut |name, label, value| put_record(&mut out, &expand(name, label), value));
        out.extend_from_slice(&0u16.to_le_bytes());

        out.extend_from_slice(&(self.slow_queries.len() as u32).to_le_bytes());
        for e in &self.slow_queries {
            out.extend_from_slice(&(e.query.len() as u32).to_le_bytes());
            out.extend_from_slice(e.query.as_bytes());
            out.extend_from_slice(&e.duration_us.to_le_bytes());
            out.extend_from_slice(&e.rows.to_le_bytes());
            out.extend_from_slice(&e.plan_fp.to_le_bytes());
        }
        out
    }

    /// Decodes an encoding produced by [`Snapshot::to_bytes`] — by this
    /// build or by one with a different instrument table: a record
    /// whose name or kind this build does not know is skipped, and an
    /// instrument the encoding does not mention reads as zero. Input is
    /// untrusted: malformed bytes (duplicate records, known records out
    /// of table order, truncation, trailing bytes, a pre-record-format
    /// payload) error, never panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader(bytes);
        let [format] = r.array()?;
        if format != SNAPSHOT_FORMAT {
            return Err(err(format!("unsupported snapshot format {format}")));
        }
        // (name, kind) → (position in the encoding, payload); grows
        // only as fast as records are actually read
        let mut records: HashMap<(&str, u8), (usize, &[u8])> = HashMap::new();
        loop {
            let name_len = r.u16()? as usize;
            if name_len == 0 {
                break;
            }
            let name = r.str(name_len)?;
            let [kind] = r.array()?;
            let payload_len = r.u32()? as usize;
            let payload = r.take(payload_len)?;
            let position = records.len();
            if records.insert((name, kind), (position, payload)).is_some() {
                return Err(err(format!("duplicate record {name}")));
            }
        }

        let mut snap = Snapshot::default();
        // every possible lane is offered to the walk, then trimmed
        snap.shard
            .lanes
            .resize_with(MAX_SHARD_LANES, Default::default);
        let mut last = None;
        let mut failure = None;
        snap.walk_mut(&mut |name, label, slot| {
            let name = expand(name, label);
            let Some(&(position, payload)) = records.get(&(name.as_str(), slot.kind())) else {
                return;
            };
            let filled = if last.replace(position).is_some_and(|l| position < l) {
                Err(err(format!("record {name} out of order")))
            } else {
                get_payload(slot, payload)
            };
            if let Err(e) = filled {
                failure.get_or_insert(e);
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        snap.shard.trim_lanes();

        let n_slow = r.u32()? as usize;
        if n_slow > 1 << 20 {
            return Err(err(format!("implausible slow-query count {n_slow}")));
        }
        snap.slow_queries.reserve(n_slow.min(1024));
        for _ in 0..n_slow {
            let len = r.u32()? as usize;
            snap.slow_queries.push(SlowQueryEntry {
                query: r.str(len)?.to_owned(),
                duration_us: r.u64()?,
                rows: r.u64()?,
                plan_fp: r.u64()?,
            });
        }
        r.finish("snapshot")?;
        Ok(snap)
    }

    /// Renders the snapshot as Prometheus-style text exposition:
    /// counters and gauges as single samples, histograms as summaries
    /// with `quantile` labels plus `_sum`/`_count`, and the slow-query
    /// ring as trailing comment lines.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(16 * 1024);
        let mut family = String::new();
        self.walk(&mut |name, label, value| {
            let name = expand(name, label);
            // the members of a brace-labelled family share one TYPE line
            let base = name.split('{').next().unwrap_or(&name);
            if base != family {
                let kind = match value {
                    Cell::Counter(_) => "counter",
                    Cell::Gauge(_) => "gauge",
                    Cell::Histogram(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {base} {kind}");
                family.clear();
                family.push_str(base);
            }
            let _ = match value {
                Cell::Counter(n) => writeln!(out, "{name} {n}"),
                Cell::Gauge(n) => writeln!(out, "{name} {}", (*n).max(0)),
                Cell::Histogram(h) => {
                    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
                    }
                    writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count)
                }
            };
        });
        for e in &self.slow_queries {
            // HyQL string literals may hold any control character; none
            // may split the comment line for a line-oriented scraper
            let text: String = e
                .query
                .chars()
                .map(|c| if c.is_control() { ' ' } else { c })
                .collect();
            let _ = writeln!(
                out,
                "# SLOW {}us rows={} fp=0x{:016x} {text}",
                e.duration_us, e.rows, e.plan_fp
            );
        }
        out
    }

    /// A one-line operational summary — what the periodic
    /// `HYGRAPH_METRICS_LOG_EVERY_MS` logger emits.
    pub fn summary_line(&self) -> String {
        let s = &self.server;
        format!(
            "admitted={} completed={} overload={} deadline={} queue={} busy={} \
             exec_p50us={} exec_p95us={} wal_syncs={} slow={}",
            s.admitted,
            s.completed,
            s.rejected_overload,
            s.rejected_deadline,
            s.queue_depth.max(0),
            s.workers_busy.max(0),
            s.execute_us.p50(),
            s.execute_us.p95(),
            self.persist.wal_syncs,
            self.slow_queries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy_registry() -> Registry {
        let r = Registry::new(8);
        r.server.admitted.add(10);
        r.server.completed.add(9);
        r.server.queue_depth.set(1);
        r.server.execute_us.observe(120);
        r.server.execute_us.observe(80_000);
        r.persist.wal_syncs.add(3);
        r.persist.wal_sync_us.observe(4_000);
        r.persist.group_commit_frames.observe(17);
        r.query.class(OpClass::Q1Match).count.add(4);
        r.query.class(OpClass::Q1Match).time_us.observe(250);
        r.query.class(OpClass::Q4Snapshot).errors.inc();
        r.query.plan_cache_hits.add(7);
        r.query.plan_cache_misses.add(2);
        r.query.operator(PlanOp::Match).invocations.add(3);
        r.query.operator(PlanOp::Match).rows_out.add(120);
        r.query.operator(PlanOp::Match).time_us.observe(85);
        r.query.operator(PlanOp::Sort).invocations.inc();
        r.ts.points_inserted.add(1_000);
        r.ts.rollup_hits.add(64);
        r.ts.rollup_boundary_decodes.add(2);
        r.ts.sealed_chunks.set(12);
        r.ts.raw_bytes.set(16_000);
        r.ts.compressed_bytes.set(2_000);
        r.sub.active.set(3);
        r.sub.deltas_pushed.add(21);
        r.sub.fallback_reruns.add(5);
        r.sub.slow_consumer_drops.inc();
        r.temporal.asof_queries.add(6);
        r.temporal.between_queries.add(2);
        r.temporal.snapshot_rebuilds.add(4);
        r.temporal.snapshot_cache_hits.add(9);
        r.temporal.gc_commits_folded.add(3);
        r.temporal.history_commits.set(40);
        r.temporal.history_bytes.set(65_536);
        r.temporal.version_chain_max.set(7);
        r.temporal.asof_us.observe(900);
        r.shard.set_lanes(&[(12, 10), (9, 8), (15, 15)], 8);
        r.shard.commit_publish_us.observe(150);
        r.shard.commit_publish_us.observe(2_300);
        r.shard.snapshot_pinned.set(2);
        r.slow.record(
            "MATCH (n) RETURN n",
            Duration::from_millis(250),
            42,
            0xdead_beef_cafe_f00d,
            Duration::from_millis(100),
        );
        r
    }

    #[test]
    fn codec_roundtrips_exactly() {
        let snap = busy_registry().snapshot();
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded, snap);
        assert_eq!(decoded.to_bytes(), bytes, "re-encoding is bit-identical");
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Registry::new(4).snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn malformed_bytes_error_not_panic() {
        let good = busy_registry().snapshot().to_bytes();
        // truncations at every prefix length
        for cut in 0..good.len() {
            assert!(
                Snapshot::from_bytes(&good[..cut]).is_err(),
                "truncation to {cut} must fail"
            );
        }
        // trailing garbage
        let mut long = good.clone();
        long.push(0);
        assert!(Snapshot::from_bytes(&long).is_err());
        // bad version
        let mut bad = good.clone();
        bad[0] = 99;
        assert!(Snapshot::from_bytes(&bad).is_err());
    }

    #[test]
    fn render_text_contains_the_vocabulary() {
        let text = busy_registry().snapshot().render_text();
        for needle in [
            "hygraph_server_admitted_total 10",
            "hygraph_server_queue_depth 1",
            "hygraph_server_execute_us{quantile=\"0.5\"}",
            "hygraph_persist_wal_syncs_total 3",
            "hygraph_query_q1_match_total 4",
            "hygraph_query_q4_snapshot_errors_total 1",
            "hygraph_query_plan_cache_hits_total 7",
            "hygraph_query_plan_cache_misses_total 2",
            "hygraph_query_op_match_total 3",
            "hygraph_query_op_match_rows_total 120",
            "hygraph_query_op_sort_total 1",
            "hygraph_query_op_match_us{quantile=\"0.5\"}",
            "hygraph_ts_points_inserted_total 1000",
            "hygraph_ts_rollup_hits_total 64",
            "hygraph_ts_rollup_boundary_decodes_total 2",
            "hygraph_ts_sealed_chunks 12",
            "hygraph_ts_raw_bytes 16000",
            "hygraph_ts_compressed_bytes 2000",
            "hygraph_sub_active 3",
            "hygraph_sub_deltas_pushed_total 21",
            "hygraph_sub_fallback_reruns_total 5",
            "hygraph_sub_slow_consumer_drops_total 1",
            "hygraph_temporal_asof_queries_total 6",
            "hygraph_temporal_between_queries_total 2",
            "hygraph_temporal_snapshot_rebuilds_total 4",
            "hygraph_temporal_snapshot_cache_hits_total 9",
            "hygraph_temporal_gc_commits_folded_total 3",
            "hygraph_temporal_history_commits 40",
            "hygraph_temporal_history_bytes 65536",
            "hygraph_temporal_version_chain_max 7",
            "hygraph_temporal_asof_us{quantile=\"0.5\"}",
            "hygraph_shards 3",
            "hygraph_shard_watermark 8",
            "hygraph_shard_next_lsn{shard=\"0\"} 12",
            "hygraph_shard_durable_lsn{shard=\"1\"} 8",
            "hygraph_shard_next_lsn{shard=\"2\"} 15",
            "hygraph_snapshot_pinned 2",
            "hygraph_commit_publish_us{quantile=\"0.5\"}",
            "hygraph_commit_publish_us_count 2",
            "# SLOW 250000us rows=42 fp=0xdeadbeefcafef00d MATCH (n) RETURN n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// Names, `# TYPE` kinds, label text and values are pinned to what
    /// the last hand-written renderer (PR 12) produced for this fixture;
    /// only the line order follows the table.
    #[test]
    fn render_text_matches_the_golden_exposition() {
        let text = busy_registry().snapshot().render_text();
        let mut got: Vec<&str> = text.lines().collect();
        let mut want: Vec<&str> = include_str!("../tests/golden/busy_registry.prom")
            .lines()
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn every_family_is_typed_once_and_stays_in_one_run() {
        let text = busy_registry().snapshot().render_text();
        let mut typed = Vec::new();
        let mut current = "";
        for line in text.lines().filter(|l| !l.starts_with("# SLOW")) {
            match line.strip_prefix("# TYPE ") {
                Some(rest) => {
                    current = rest.split(' ').next().unwrap();
                    assert!(!typed.contains(&current), "{current} typed twice");
                    typed.push(current);
                }
                None => assert!(
                    line.starts_with(current),
                    "sample {line:?} outside the run of {current}"
                ),
            }
        }
    }

    #[test]
    fn control_characters_cannot_split_a_slow_query_line() {
        let mut snap = Snapshot::default();
        snap.slow_queries.push(SlowQueryEntry {
            query: "RETURN 'a\r\nb\u{0085}c' AS s".into(),
            duration_us: 5,
            rows: 1,
            plan_fp: 2,
        });
        let text = snap.render_text();
        let slow: Vec<&str> = text.split('\n').filter(|l| l.contains("SLOW")).collect();
        assert_eq!(
            slow,
            ["# SLOW 5us rows=1 fp=0x0000000000000002 RETURN 'a  b c' AS s"]
        );
        assert_eq!(
            text.chars().filter(|c| c.is_control()).count(),
            text.lines().count(),
            "the only control characters are the line ends"
        );
    }

    /// OPERATIONS.md lists every instrument by the literal the table
    /// declares (a family by its `<…>` template).
    #[test]
    fn operations_md_lists_every_instrument() {
        let doc = include_str!("../../../OPERATIONS.md");
        let mut snap = Snapshot::default();
        snap.shard.lanes.push(ShardLaneSnapshot::default());
        let mut seen = 0;
        snap.walk(&mut |name, _, value| {
            let kind = match value {
                Cell::Counter(_) => "counter",
                Cell::Gauge(_) => "gauge",
                Cell::Histogram(_) => "histogram",
            };
            let row = format!("| `{name}` | {kind} |");
            assert!(doc.contains(&row), "OPERATIONS.md lacks the row {row}");
            seen += 1;
        });
        assert!(seen > 100, "the walk covered the families ({seen} series)");
    }

    #[test]
    fn summary_line_is_single_line() {
        let line = busy_registry().snapshot().summary_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("admitted=10"));
    }
}
