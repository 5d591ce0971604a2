//! The benchmark's own span recorder.
//!
//! A span is recorded around every call the benchmark makes into a layer of
//! the program (name, start, end, parent, and the pass / tick / request it
//! belongs to). Durations the program already *returns* — `TickReport`
//! stages, per-shard solve seconds, scraped histograms — are attached as
//! child spans marked [`Source::Report`]. Nothing is recorded inside the
//! program itself. Spans stay in memory and are written out once, after the
//! measurement ended.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover ([`self_time_ns`]).

use rdbsc_server::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Where a span's duration came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured by the benchmark around a call into the program.
    Call,
    /// A duration the program reported about itself, laid under its caller.
    Report,
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// 1-based id, unique within one tracer.
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// The pass, tick or request this span belongs to.
    pub op: u64,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Measured or reported.
    pub source: Source,
}

/// Handle of an open span; the zero token means "tracing was off".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token(u32);

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// In-memory span recorder, one per generator thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// At most this many spans are written to the trace file in full; the
/// per-name totals always cover every span.
const MAX_SPANS_WRITTEN: usize = 20_000;

impl Tracer {
    /// A tracer whose clock starts at `epoch`. A disabled tracer records
    /// nothing and costs one branch per call.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between operations (the traced run
    /// alternates to measure its own overhead). Open spans still close.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The instant the tracer's clock started.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Is the tracer recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Token {
        if !self.enabled {
            return Token(0);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op,
            start_ns,
            end_ns: start_ns,
            source: Source::Call,
        });
        self.open.push(id);
        Token(id)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, token: Token) {
        if token.0 == 0 {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[token.0 as usize - 1].end_ns = end_ns;
        debug_assert_eq!(self.open.last(), Some(&token.0), "spans must nest");
        self.open.retain(|&id| id != token.0);
    }

    /// Records a root span whose interval the program reported (a scraped
    /// window), whatever the recorder's switch says: it is added once, after
    /// the measurement.
    pub fn add_reported_root(
        &mut self,
        name: &'static str,
        op: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> Token {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent: 0,
            op,
            start_ns,
            end_ns: start_ns + dur_ns,
            source: Source::Report,
        });
        Token(id)
    }

    /// Attaches durations the program reported about the work inside
    /// `parent`, laid end to end from the parent's start. Returns one token
    /// per part (the zero token for an empty part), so a reported span can
    /// itself take reported children.
    pub fn attach_reported(&mut self, parent: Token, parts: &[(&'static str, u64)]) -> Vec<Token> {
        if parent.0 == 0 {
            return Vec::new();
        }
        let mut tokens = Vec::with_capacity(parts.len());
        let (mut cursor, op) = {
            let p = &self.spans[parent.0 as usize - 1];
            (p.start_ns, p.op)
        };
        for &(name, dur_ns) in parts {
            if dur_ns == 0 {
                tokens.push(Token(0));
                continue;
            }
            let id = self.spans.len() as u32 + 1;
            tokens.push(Token(id));
            self.spans.push(Span {
                name,
                id,
                parent: parent.0,
                op,
                start_ns: cursor,
                end_ns: cursor + dur_ns,
                source: Source::Report,
            });
            cursor += dur_ns;
        }
        tokens
    }

    /// Folds another thread's spans in, re-basing their ids. Both tracers
    /// must share an epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_time_ns((s.start_ns, s.end_ns), kids);
        }
        out
    }

    /// The trace document: per-name totals over every span, plus the first
    /// [`MAX_SPANS_WRITTEN`] spans in full.
    pub fn to_json(&self, header: Vec<(&'static str, Json)>) -> Json {
        let by_name = self
            .totals_by_name()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let spans = self
            .spans
            .iter()
            .take(MAX_SPANS_WRITTEN)
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", Json::Num(f64::from(s.parent))),
                    ("op", Json::Num(s.op as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "source",
                        Json::Str(
                            match s.source {
                                Source::Call => "call",
                                Source::Report => "report",
                            }
                            .to_string(),
                        ),
                    ),
                ])
            })
            .collect();
        let mut doc = header;
        doc.push(("spans_total", Json::Num(self.spans.len() as f64)));
        doc.push(("by_name", Json::obj(by_name)));
        doc.push(("spans", Json::Arr(spans)));
        Json::obj(doc)
    }
}

/// Self time of a span: its duration minus the part of its interval that
/// its children cover. Children may overlap each other and may stick out of
/// the parent (a reported duration is rounded by the program); both are
/// clipped, so self time is never negative and never exceeds the duration.
pub fn self_time_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let duration = end.saturating_sub(start);
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(c_start, c_end) in children.iter() {
        let from = c_start.max(cursor);
        let to = c_end.min(end);
        if to > from {
            covered += to - from;
            cursor = to;
        }
    }
    duration - covered.min(duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 20), (50, 80)]), 60);
        // Overlapping children count their union once.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 60), (40, 80)]), 30);
        // A child sticking out of the parent is clipped on both sides.
        assert_eq!(self_time_ns((100, 200), &mut [(50, 120), (190, 400)]), 70);
        // Children covering everything leave nothing, never a negative.
        assert_eq!(self_time_ns((0, 10), &mut [(0, 6), (6, 30)]), 0);
        // No children: all of it.
        assert_eq!(self_time_ns((5, 25), &mut []), 20);
        // Unsorted input.
        assert_eq!(self_time_ns((0, 100), &mut [(50, 80), (10, 20)]), 60);
    }

    #[test]
    fn spans_nest_and_reported_children_lie_under_their_caller() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.begin("round", 3);
        let tick = t.begin("engine.tick", 3);
        t.end(tick);
        let stages = t.attach_reported(tick, &[("stage.apply", 0), ("stage.solve", 1)]);
        assert_eq!(stages, [Token(0), Token(3)]);
        t.end(root);
        assert_eq!(t.len(), 3);
        let spans = &t.spans;
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 2)
        );
        assert_eq!(spans[2].source, Source::Report);
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert!(spans.iter().all(|s| s.op == 3));
        let totals = t.totals_by_name();
        assert_eq!(totals["round"].count, 1);
        // The parts sum to the whole: self times add up to the root.
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, totals["round"].total_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let token = t.begin("x", 0);
        t.attach_reported(token, &[("y", 5)]);
        t.end(token);
        assert_eq!(t.len(), 0);
        t.set_enabled(true);
        let token = t.begin("x", 0);
        t.end(token);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn absorbing_rebases_ids() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        let x = a.begin("a", 0);
        a.end(x);
        let mut b = Tracer::new(epoch, true);
        let outer = b.begin("b", 1);
        let inner = b.begin("c", 1);
        b.end(inner);
        b.end(outer);
        a.absorb(b);
        let ids: Vec<(u32, u32)> = a.spans.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(1, 0), (2, 0), (3, 2)]);
    }
}
