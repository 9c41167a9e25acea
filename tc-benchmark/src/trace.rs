//! Spans recorded from the benchmark's own files, around each call into
//! `Cluster`.  Spans sit in a preallocated in-memory buffer and are written
//! out when the run ends; a disabled tracer costs one branch per call.

use crate::stats::Json;
use std::time::Instant;

/// Span names.  `Round` parents the batch calls (`Flush`); an `Op` span
/// (post → claim) parents its own `Post`/`Wait`/`Claim`/`Verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Round,
    Op,
    Post,
    Flush,
    Wait,
    Claim,
    Verify,
}

pub const NAMES: [&str; 7] = ["round", "op", "post", "flush", "wait", "claim", "verify"];

/// Handle of an open span (`NONE` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
struct Open {
    uid: u32,
    name: Name,
    parent_slot: u32,
    parent_uid: u32,
    op: u32,
    start: u64,
    /// Time covered by child spans so far.
    children: u64,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    uid: u32,
    name: Name,
    parent_uid: u32,
    op: u32,
    start: u64,
    end: u64,
}

/// Totals per span name over everything traced (not capped by the buffer).
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    open: Vec<Option<Open>>,
    free: Vec<u32>,
    records: Vec<Record>,
    capacity: usize,
    dropped: u64,
    next_uid: u32,
    round: SpanId,
    pub totals: [Totals; NAMES.len()],
    /// Duration of every closed `Op` span: the per-operation latency.
    pub op_latencies_ns: Vec<u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::with_capacity(0, false)
    }

    /// A recording tracer whose buffer holds `capacity` spans; later spans
    /// still count into the totals but are not kept.
    pub fn on(capacity: usize) -> Self {
        Self::with_capacity(capacity, true)
    }

    fn with_capacity(capacity: usize, on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            open: Vec::with_capacity(if on { 64 } else { 0 }),
            free: Vec::with_capacity(if on { 64 } else { 0 }),
            records: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            next_uid: 0,
            round: SpanId::NONE,
            totals: [Totals::default(); NAMES.len()],
            op_latencies_ns: Vec::with_capacity(if on { 1 << 20 } else { 0 }),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span.  `parent` is `SpanId::NONE` for a root; a `Round` span
    /// becomes the current round, which every call span also reports into.
    pub fn begin(&mut self, name: Name, parent: SpanId, op: u32) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let uid = self.next_uid;
        self.next_uid += 1;
        let parent_uid = match parent {
            SpanId::NONE => u32::MAX,
            SpanId(slot) => self.open[slot as usize].map_or(u32::MAX, |p| p.uid),
        };
        let span = Open {
            uid,
            name,
            parent_slot: parent.0,
            parent_uid,
            op,
            start: self.now(),
            children: 0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.open[slot as usize] = Some(span);
                slot
            }
            None => {
                self.open.push(Some(span));
                (self.open.len() - 1) as u32
            }
        };
        if name == Name::Round {
            self.round = SpanId(slot);
        }
        SpanId(slot)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let Some(span) = self.open[id.0 as usize].take() else {
            return;
        };
        self.free.push(id.0);
        let end = self.now();
        let dur = end - span.start;
        let t = &mut self.totals[span.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(span.children);
        match span.name {
            Name::Op => self.op_latencies_ns.push(dur),
            Name::Round => self.round = SpanId::NONE,
            _ => {
                // Call spans never overlap on the one load thread, so they
                // sum to covered time in their parent *and* in the round;
                // overlapping `Op` spans cover nothing of the round.
                if let Some(Some(parent)) = self.open.get_mut(span.parent_slot as usize) {
                    parent.children += dur;
                }
                if self.round.0 != span.parent_slot {
                    if let Some(Some(round)) = self.open.get_mut(self.round.0 as usize) {
                        round.children += dur;
                    }
                }
            }
        }
        if self.records.len() < self.capacity {
            self.records.push(Record {
                uid: span.uid,
                name: span.name,
                parent_uid: span.parent_uid,
                op: span.op,
                start: span.start,
                end,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Self time of all spans named `name`, in ns.
    pub fn self_ns(&self, name: Name) -> u64 {
        self.totals[name as usize].self_ns
    }

    /// The trace document: per-name totals plus the buffered spans.
    pub fn to_json(&self, workload: &str) -> Json {
        let totals = NAMES
            .iter()
            .zip(&self.totals)
            .map(|(name, t)| {
                (
                    *name,
                    Json::obj(vec![
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("id", Json::Num(f64::from(r.uid))),
                    ("name", Json::Str(NAMES[r.name as usize].into())),
                    ("start_ns", Json::Num(r.start as f64)),
                    ("end_ns", Json::Num(r.end as f64)),
                    (
                        "parent",
                        match r.parent_uid {
                            u32::MAX => Json::Null,
                            p => Json::Num(f64::from(p)),
                        },
                    ),
                    ("op", Json::Num(f64::from(r.op))),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(workload.into())),
            ("spans_dropped", Json::Num(self.dropped as f64)),
            ("totals", Json::obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin(Name::Post, SpanId::NONE, 0);
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert_eq!(t.totals[Name::Post as usize].count, 0);
    }

    #[test]
    fn self_time_excludes_children_and_ops_do_not_cover_the_round() {
        let mut t = Tracer::on(16);
        let round = t.begin(Name::Round, SpanId::NONE, 0);
        let op = t.begin(Name::Op, round, 7);
        let post = t.begin(Name::Post, op, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(post);
        let flush = t.begin(Name::Flush, round, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(flush);
        t.end(op);
        t.end(round);

        let total = |n: Name| t.totals[n as usize].total_ns;
        let own = |n: Name| t.totals[n as usize].self_ns;
        // The op's self time is its duration minus its own post call only.
        assert_eq!(own(Name::Op), total(Name::Op) - total(Name::Post));
        // The round's self time excludes both call spans but not the op span.
        assert_eq!(
            own(Name::Round),
            total(Name::Round) - total(Name::Post) - total(Name::Flush)
        );
        assert_eq!(t.op_latencies_ns.len(), 1);

        let doc = t.to_json("w");
        let spans = doc.get("spans").unwrap().as_array();
        assert_eq!(spans.len(), 4);
        // Spans are buffered in closing order; the post span points at the op.
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("post"));
        assert_eq!(spans[0].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(spans[3].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn full_buffer_drops_records_but_keeps_totals() {
        let mut t = Tracer::on(1);
        for _ in 0..3 {
            let s = t.begin(Name::Wait, SpanId::NONE, 0);
            t.end(s);
        }
        assert_eq!(t.totals[Name::Wait as usize].count, 3);
        assert_eq!(
            t.to_json("w").get("spans_dropped").unwrap().as_f64(),
            Some(2.0)
        );
    }
}
