//! In-memory span recorder for the `--trace` run.
//!
//! The benchmark times calls into each layer's public functions from
//! outside the product crates. One span is `{op_id, name, parent,
//! start_ns, end_ns}`; the spans of one client operation share its
//! `op_id`. Spans stay in memory while the replay runs and are written
//! to `trace.jsonl` afterwards. A layer's *self time* is its span minus
//! the part of that interval its child spans cover.
//!
//! Code that replays operations is generic over [`Recorder`]: with
//! [`Off`] every call below is an empty inline function, so the
//! untraced replay carries no branch per operation; the ratio of the
//! two replays' throughput is what tracing costs (`trace.overhead_ratio`).

use std::io::Write;
use std::time::Instant;

/// Index of a span inside its recorder.
pub type SpanId = u32;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The client operation this span belongs to.
    pub op_id: u32,
    /// `layer.call`, e.g. `query.parse`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What the replay code records into.
pub trait Recorder {
    /// Opens a span; the returned id is passed to [`Recorder::exit`].
    fn enter(&mut self, op_id: u32, name: &'static str, parent: Option<SpanId>) -> SpanId;
    /// Closes a span.
    fn exit(&mut self, id: SpanId);
    /// Renames a span whose kind is only known once the call returned
    /// (a cache hit or a rebuild).
    fn rename(&mut self, id: SpanId, name: &'static str);
}

/// The untraced path: nothing is recorded and nothing is branched on.
pub struct Off;

impl Recorder for Off {
    #[inline(always)]
    fn enter(&mut self, _: u32, _: &'static str, _: Option<SpanId>) -> SpanId {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _: SpanId) {}
    #[inline(always)]
    fn rename(&mut self, _: SpanId, _: &'static str) {}
}

/// The traced path: spans are appended to a pre-allocated vector.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder with room for `capacity` spans, so recording does not
    /// reallocate inside a timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Recorder for Spans {
    fn enter(&mut self, op_id: u32, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }
}

/// Runs `f` inside a span.
#[inline(always)]
pub fn timed<R: Recorder, T>(
    rec: &mut R,
    op_id: u32,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    let id = rec.enter(op_id, name, parent);
    let out = f();
    rec.exit(id);
    out
}

/// Self time of every span, parallel to `spans`: its duration minus the
/// union of its children's intervals, each clipped to the parent (so
/// overlapping children are counted once and a child that outlives its
/// parent cannot make self time negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of durations of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Durations in microseconds of the spans called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// The share of a `whole` span that the self times of the spans below
/// `parts_root` in the same operation do not explain:
/// `(whole − Σ self) ÷ whole`, as the **median over operations** (a
/// checkpoint that lands in one copy of the work and not the other moves
/// a total by a third and a median not at all). `whole` is the real call
/// (`server.handle_*`); `parts_root` is the benchmark's replica of it
/// assembled from public layer calls, so a positive share is time spent
/// where no public call reaches (lock waits, thread hand-off, glue
/// inside the engine), and a negative one means the replica did more
/// work than the engine.
pub fn unaccounted_share(spans: &[Span], whole: &str, parts_root: &str) -> Option<f64> {
    let selfs = self_times_ns(spans);
    // op_id → (whole ns, explained ns)
    let mut per_op: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        if s.name == whole {
            per_op.entry(s.op_id).or_default().0 += s.duration_ns();
        } else if s
            .parent
            .is_some_and(|p| spans[p as usize].name == parts_root)
        {
            per_op.entry(s.op_id).or_default().1 += self_ns;
        }
    }
    let shares: Vec<f64> = per_op
        .values()
        .filter(|(whole_ns, _)| *whole_ns > 0)
        .map(|&(whole_ns, parts_ns)| (whole_ns as f64 - parts_ns as f64) / whole_ns as f64)
        .collect();
    crate::stats::median_of(&shares)
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"op_id\":{},\"name\":\"{}\",\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.op_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op_id: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("root", None, 0, 100),
            span("child", Some(0), 10, 60),
            span("grandchild", Some(1), 20, 30),
        ];
        // the grandchild is the child's business, not the root's
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn adjacent_children_cover_their_sum() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 0, 40),
            span("b", Some(0), 40, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 40, 50]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("root", None, 10, 100),
            span("a", Some(0), 20, 60),
            span("b", Some(0), 50, 80),     // overlaps a by 10
            span("late", Some(0), 90, 150), // outlives the parent
            span("early", Some(0), 0, 5),   // entirely outside it
        ];
        // covered: [20,80) ∪ [90,100) = 70 of the root's 90
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn unaccounted_share_compares_the_call_with_its_replica() {
        let op = |op_id: u32, base: u64, handle: u64| {
            let at = |name, parent, from: u64, to: u64| Span {
                op_id,
                ..span(name, parent, base + from, base + to)
            };
            let first = op_id * 5;
            vec![
                at("server.handle", None, 0, handle),
                at("replica", None, 100, 200),
                at("query.parse", Some(first + 1), 100, 130),
                at("query.execute", Some(first + 1), 130, 190),
                at("graph.match", Some(first + 3), 140, 150), // inside execute: not added twice
            ]
        };
        // parse self 30 + execute self 50 = 80 explained in every op
        let mut spans = op(0, 0, 100);
        let share = unaccounted_share(&spans, "server.handle", "replica").unwrap();
        assert!((share - 0.2).abs() < 1e-12, "{share}");
        // one op whose handle hit a stall does not move the median
        spans.extend(op(1, 1_000, 100));
        spans.extend(op(2, 2_000, 8_000));
        let share = unaccounted_share(&spans, "server.handle", "replica").unwrap();
        assert!((share - 0.2).abs() < 1e-12, "{share}");
        assert_eq!(unaccounted_share(&spans, "missing", "replica"), None);
    }

    #[test]
    fn recorder_nests_and_writes_jsonl() {
        let mut rec = Spans::with_capacity(4);
        let root = rec.enter(7, "op", None);
        let got = timed(&mut rec, 7, "query.parse", Some(root), || 42);
        rec.exit(root);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut buf = Vec::new();
        write_jsonl(spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\":0,\"op_id\":7,\"name\":\"op\",\"parent\":null,"));
        // the untraced recorder accepts the same calls and keeps nothing
        assert_eq!(timed(&mut Off, 7, "query.parse", None, || 1), 1);
    }
}
