//! The correctness oracle: a plain in-memory [`HyGraph`] fed the same
//! batches the server acknowledged, queried through the single-pass
//! sequential executor. It shares no state, lock, shard, WAL, snapshot
//! or history with the served engine, so a reply that is byte-equal to
//! the oracle's was not produced by the same mistake twice.

use crate::workload::{Bound, ReadOp};
use hygraph_core::HyGraph;
use hygraph_persist::{Durable, HgMutation};
use hygraph_query::{execute_epochs, execute_planned, parser, plan_query, QueryResult};
use hygraph_server::{ErrorCode, Response};
use hygraph_types::bytes::ByteWriter;
use hygraph_types::parallel::ExecMode;
use hygraph_types::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// The bytes a response puts on the wire (frame payload, without the
/// request id), which is what "byte-equal" compares.
pub fn reply_bytes(resp: &Response) -> Vec<u8> {
    resp.to_frame(0).payload
}

fn rows_or_error(result: Result<QueryResult>) -> Response {
    match result {
        Ok(rows) => Response::Rows(rows),
        Err(e) => Response::Error {
            code: ErrorCode::Exec,
            message: e.to_string(),
        },
    }
}

/// The reference state.
#[derive(Default)]
pub struct Oracle {
    hg: HyGraph,
}

impl Oracle {
    /// An oracle holding `batches` applied in order.
    pub fn loaded<'a>(batches: impl IntoIterator<Item = &'a Vec<HgMutation>>) -> Self {
        let mut oracle = Self::default();
        for batch in batches {
            oracle.apply(batch);
        }
        oracle
    }

    /// Applies one acknowledged batch. Workloads are built so that no
    /// mutation is rejected; one that is means the generator is wrong.
    pub fn apply(&mut self, batch: &[HgMutation]) {
        for m in batch {
            Durable::apply(&mut self.hg, m).expect("generated mutation must apply to the oracle");
        }
    }

    /// Applies `history` in order and returns the state after each of
    /// its commits. Clones share structure, so each epoch costs what its
    /// batch touched.
    pub fn replay(&mut self, history: &[Vec<HgMutation>]) -> Vec<Arc<HyGraph>> {
        history
            .iter()
            .map(|batch| {
                self.apply(batch);
                Arc::new(self.hg.clone())
            })
            .collect()
    }

    /// The state's canonical encoding (what `state_bytes()` returns on
    /// the served engine).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.hg.encode_state(&mut w);
        w.into_bytes()
    }

    /// The reference graph itself (the `--trace` probes read it).
    pub fn graph(&self) -> &HyGraph {
        &self.hg
    }

    /// The reply the server must give to live query `text`.
    pub fn answer(&self, text: &str) -> Response {
        answer_on(&self.hg, text)
    }
}

/// The reply the server must give to live query `text` on state `hg`.
fn answer_on(hg: &HyGraph, text: &str) -> Response {
    rows_or_error(
        parser::parse(text)
            .and_then(|q| execute_planned(hg, &plan_query(&q)?, ExecMode::Sequential)),
    )
}

/// Compares stored replies with the oracle's answers; returns how many
/// differ. `replies[i]` is the server's reply to `ops[i]` (`None` if the
/// window never reached it). `epochs[i]` is the state after history
/// commit `i` (from [`Oracle::replay`]): an `AS OF` commit `i` is
/// answered on it, a `BETWEEN i AND j` on `epochs[i..=j]`, and a live
/// read on `live`.
pub fn mismatches(
    live: &Oracle,
    epochs: &[Arc<HyGraph>],
    ops: &[ReadOp],
    replies: &[Option<Response>],
) -> u64 {
    // live answers depend on the text alone; ask the oracle once each
    let mut live_answers: HashMap<String, Response> = HashMap::new();
    let mut wrong = 0;
    for (op, got) in ops.iter().zip(replies) {
        let Some(got) = got else { continue };
        let text = op.text();
        let expected = match op.bound {
            Bound::Live => live_answers
                .entry(text)
                .or_insert_with_key(|t| live.answer(t))
                .clone(),
            Bound::AsOf(k) => answer_on(&epochs[k], &text),
            Bound::Between(from, to) => rows_or_error(parser::parse(&text).and_then(|q| {
                execute_epochs(&epochs[from..=to], &plan_query(&q)?, ExecMode::Sequential)
            })),
        };
        // `==` first (cheap); a NaN compares unequal to itself, so a
        // mismatch is confirmed on the wire bytes
        if *got != expected && reply_bytes(got) != reply_bytes(&expected) {
            wrong += 1;
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, CorpusShape, Scale, Workload};

    #[test]
    fn oracle_agrees_with_itself_and_notices_a_wrong_reply() {
        let corpus = workload::corpus(Scale::SMOKE, 9);
        let shape = CorpusShape::new(Scale::SMOKE, 9);
        let ops = workload::hybrid_reads(&shape, Workload::ReadHybrid, 0, 20);
        let oracle = Oracle::loaded(&corpus.load);
        let mut replies: Vec<Option<Response>> = ops
            .iter()
            .map(|op| Some(oracle.answer(&op.text())))
            .collect();
        assert!(replies
            .iter()
            .flatten()
            .all(|r| matches!(r, Response::Rows(_))));
        assert_eq!(mismatches(&oracle, &[], &ops, &replies), 0);
        replies[3] = Some(Response::Pong);
        replies[4] = None; // never reached: not a failure
        assert_eq!(mismatches(&oracle, &[], &ops, &replies), 1);
    }

    #[test]
    fn bounded_reads_are_answered_on_the_right_prefix() {
        let shape = CorpusShape::new(Scale::SMOKE, 5);
        let corpus = workload::corpus(Scale::SMOKE, 5);
        let history: Vec<_> = (0..6)
            .map(|i| workload::writer_batch(&shape, 0, 1, i))
            .collect();
        let body = workload::fixed_reads(&shape)
            .into_iter()
            .find(|op| op.class == workload::ReadClass::Count)
            .unwrap();
        // COUNT(x IN window) over the appended range tells prefixes apart
        let counting = ReadOp {
            head: "MATCH (s:Station {name: 'station-0'})".into(),
            tail: format!(
                "RETURN COUNT(s.availability IN [{}, {})) AS n",
                shape.end_ms,
                shape.end_ms + 1_000 * shape.tick_ms
            ),
            ..body
        };
        let ops: Vec<ReadOp> = [
            Bound::AsOf(0),
            Bound::AsOf(4),
            Bound::Between(1, 4),
            Bound::Live,
        ]
        .into_iter()
        .map(|bound| ReadOp {
            bound,
            ..counting.clone()
        })
        .collect();
        // 16 stations, one writer: every batch visits station 0 with 4 points
        let expect = |rows: &[i64]| {
            Some(Response::Rows(QueryResult {
                columns: vec!["n".into()],
                rows: rows
                    .iter()
                    .map(|&n| vec![hygraph_types::Value::Int(n)])
                    .collect(),
            }))
        };
        let replies = vec![
            expect(&[4]),
            expect(&[20]),
            expect(&[8, 12, 16, 20]),
            expect(&[24]),
        ];
        let mut oracle = Oracle::loaded(&corpus.load);
        let epochs = oracle.replay(&history);
        assert_eq!(mismatches(&oracle, &epochs, &ops, &replies), 0);
        let off_by_one = vec![
            expect(&[8]),
            expect(&[20]),
            expect(&[8, 12, 16]),
            expect(&[24]),
        ];
        assert_eq!(mismatches(&oracle, &epochs, &ops, &off_by_one), 2);
    }
}
