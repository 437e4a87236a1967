//! The bench-side span recorder of the traced run.
//!
//! A span is opened around every call the benchmark makes into a layer; the
//! program under test is not instrumented. Spans stay in memory and are
//! written out once, when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer-qualified name of the call.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The session all spans of one request share.
    pub session: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug)]
pub struct Open(usize);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    session: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            session: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the session id stamped on spans opened from now on.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            session: self.session,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span; returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0].end_ns = self.now_ns();
        self.spans[open.0].ns()
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let value = f();
        self.exit(open);
        value
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// A copy of the spans recorded from index `from` on, with `parent`
    /// rebased to the copy — one cycle's trees, ready for [`self_times`].
    /// No span may have been open at `from`.
    pub fn since(&self, from: usize) -> Vec<SpanRec> {
        self.spans[from..]
            .iter()
            .map(|s| SpanRec {
                parent: s.parent.map(|p| p - from),
                ..s.clone()
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover. Children run one after another inside their parent, so the covered
/// part is the sum of their durations.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.ns());
        }
    }
    own
}

/// Sums `values[i]` over the spans named `name`, one total per session.
pub fn per_session(spans: &[SpanRec], values: &[u64], name: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for (span, &value) in spans.iter().zip(values) {
        if span.name == name {
            *out.entry(span.session).or_insert(0) += value;
        }
    }
    out
}

/// The trace file: one array of `{name, start_ns, end_ns, parent, session}`.
pub fn to_json(spans: &[SpanRec]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("session", Json::UInt(s.session)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>, s: u64) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            session: s,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // session [0,100] ─ rounds [0,30] ─ round [5,15], round [15,25]
        //                 └ final  [30,90] ─ knn [40,80]
        let spans = vec![
            rec("session", 0, 100, None, 1),
            rec("rounds", 0, 30, Some(0), 1),
            rec("round", 5, 15, Some(1), 1),
            rec("round", 15, 25, Some(1), 1),
            rec("final", 30, 90, Some(0), 1),
            rec("knn", 40, 80, Some(4), 1),
            rec("round", 200, 207, None, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10, 10, 10, 10, 20, 40, 7]);
        // Self times partition the root span exactly.
        assert_eq!(own[..6].iter().sum::<u64>(), 100);
        let rounds = per_session(&spans, &own, "round");
        assert_eq!(rounds.get(&1), Some(&20));
        assert_eq!(rounds.get(&2), Some(&7));
        assert_eq!(per_session(&spans, &own, "absent").len(), 0);
    }

    #[test]
    fn recorder_nests_and_stamps_sessions() {
        let mut t = Tracer::new();
        t.set_session(7);
        let outer = t.enter("outer");
        let got = t.span("inner", || 42);
        assert_eq!(got, 42);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.session == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        t.span("next", || ());
        assert_eq!(t.since(2), [t.spans()[2].clone()]);
        let nested = t.since(0);
        assert_eq!(nested[1].parent, Some(0));
        let spans = t.spans();
        let line = to_json(spans).render();
        assert_eq!(crate::json::parse(&line).map(|_| ()), Ok(()));
    }
}
