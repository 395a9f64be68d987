//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A 20 ns query cannot carry its own span, so the unit of tracing is a
//! block of queries: one block span, and under it one span per stage
//! (keygen, cache, replica_group, …), all sharing the block index as
//! their identifier. Work counts are recorded at the same boundaries so
//! ratios are taken where the work happens. Spans stay in memory and are
//! written out when the run ends.

use scp_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Queries per traced block.
pub(crate) const BLOCK: usize = 4096;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub(crate) parent: Option<usize>,
    /// The identifier every span of one block shares.
    pub(crate) block: u64,
}

/// Time and work a stage accumulated over one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StageTotal {
    pub(crate) ns: u64,
    pub(crate) ops: u64,
}

impl StageTotal {
    pub(crate) fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// Collects spans and per-stage totals for one pass over a workload.
/// Switched off, it reads no clock at all: the same walk then runs at
/// its untraced speed, which is what `trace.overhead_frac` compares.
#[derive(Debug)]
pub(crate) struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, StageTotal>,
    block: u64,
    open_block: Option<usize>,
}

impl Recorder {
    pub(crate) fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            totals: BTreeMap::new(),
            block: 0,
            open_block: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the next block span; stages recorded until
    /// [`Recorder::end_block`] are its children.
    pub(crate) fn begin_block(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.open_block = Some(self.spans.len());
        self.spans.push(Span {
            name: "block",
            start_ns: now,
            end_ns: now,
            parent: None,
            block: self.block,
        });
    }

    pub(crate) fn end_block(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.open_block.take().and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
        }
        self.block += 1;
    }

    /// Runs one stage over `ops` units of work, recording its span under
    /// the open block (or as a root when none is open).
    pub(crate) fn stage<T>(&mut self, name: &'static str, work: impl FnOnce() -> (T, u64)) -> T {
        if !self.on {
            return work().0;
        }
        let start_ns = self.now_ns();
        let (out, ops) = work();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open_block,
            block: self.block,
        });
        let total = self.totals.entry(name).or_default();
        total.ns += end_ns.saturating_sub(start_ns);
        total.ops += ops;
        out
    }

    #[cfg(test)]
    pub(crate) fn total(&self, name: &str) -> StageTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub(crate) fn totals(&self) -> &BTreeMap<&'static str, StageTotal> {
        &self.totals
    }

    #[cfg(test)]
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub(crate) fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of the block spans, summed: their duration minus what
/// their child stage spans cover — the walk's own glue (buffer clears,
/// loop control) that belongs to no layer.
pub(crate) fn block_self_ns(spans: &[Span]) -> u64 {
    let duration = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let blocks: u64 = spans
        .iter()
        .filter(|s| s.name == "block")
        .map(duration)
        .sum();
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(duration)
        .sum();
    blocks.saturating_sub(children)
}

/// The spans as the JSON document written to `trace-<workload>.json`.
pub(crate) fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let items = spans.iter().enumerate().map(|(id, s)| {
        Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::Str(s.name.to_owned())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("block", Json::Num(s.block as f64)),
        ])
    });
    Json::obj([
        ("workload", Json::Str(workload.to_owned())),
        ("seed", Json::Str(seed.to_string())),
        ("block_queries", Json::Num(BLOCK as f64)),
        ("spans", Json::arr(items)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_nest_under_their_block_and_share_its_id() {
        let mut rec = Recorder::new(true);
        for _ in 0..2 {
            rec.begin_block();
            let x = rec.stage("keygen", || (7u64, 4096));
            assert_eq!(x, 7);
            rec.stage("cache", || ((), 4096));
            rec.end_block();
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].name, "block");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!((spans[0].block, spans[2].block, spans[5].block), (0, 0, 1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.total("keygen").ops, 8192);
        assert_eq!(rec.total("absent"), StageTotal::default());
        // A block covers its stages, so its self time is what is left.
        let duration = |i: usize| spans[i].end_ns - spans[i].start_ns;
        let blocks = duration(0) + duration(3);
        let stages = duration(1) + duration(2) + duration(4) + duration(5);
        assert_eq!(block_self_ns(spans), blocks - stages);
    }

    #[test]
    fn a_recorder_switched_off_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.begin_block();
        assert_eq!(rec.stage("keygen", || (3, 10)), 3);
        rec.end_block();
        assert!(rec.spans().is_empty());
        assert!(rec.totals().is_empty());
    }

    #[test]
    fn spans_serialize_with_parent_and_block() {
        let mut rec = Recorder::new(true);
        rec.stage("rebuild", || ((), 1));
        rec.begin_block();
        rec.stage("keygen", || ((), 1));
        rec.end_block();
        let json = spans_json("serve_elastic", 9, rec.spans());
        let spans = json.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[2].get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(spans[2].get("name").and_then(Json::as_str), Some("keygen"));
        assert_eq!(json.get("seed").and_then(Json::as_str), Some("9"));
        assert!(Json::parse(&json.to_string()).is_ok());
    }

    #[test]
    fn ns_per_op_of_an_idle_stage_is_zero() {
        assert_eq!(StageTotal::default().ns_per_op(), 0.0);
        assert_eq!(StageTotal { ns: 300, ops: 100 }.ns_per_op(), 3.0);
    }
}
