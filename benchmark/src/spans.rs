//! The benchmark's own span recorder. Spans are recorded around each call
//! into a layer — from the benchmark's files, not inside the program — and
//! stay in memory until the workload ends, when they are written as Chrome
//! trace-event JSON.

use std::time::Instant;

use duet_serve::json::{obj, Json};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called (`System::new`, `run_until_halt`, `POST /v1/runs`…).
    pub name: String,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Slice or request identifier shared by the spans of one operation.
    pub id: u64,
    /// Thread lane in the exported trace.
    pub lane: u32,
    /// Counts read at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one thread. A disabled recorder runs the closure and
/// records nothing, so the timed slices and the traced unit share one code
/// path.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            lane: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread, sharing this one's origin. Hand its
    /// spans back with [`adopt`](Recorder::adopt).
    pub fn lane(&self, lane: u32) -> Recorder {
        Recorder {
            origin: self.origin,
            enabled: self.enabled,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; nested calls become children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
            lane: self.lane,
            counts: Vec::new(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].counts.push((name, value));
        }
    }

    /// Takes over the spans another thread's recorder collected; its roots
    /// become children of this recorder's innermost open span.
    pub fn adopt(&mut self, other: Recorder) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map_or(parent, |p| Some(p + base));
            s
        }));
    }

    /// The recorded spans, parents before children within a lane.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover. Children on parallel lanes may overlap each other, so
/// the covered part is the union of their intervals, clipped to the parent.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

/// Chrome trace-event JSON (`chrome://tracing`, <https://ui.perfetto.dev>):
/// one complete event per span, one track per lane, with the layer, the
/// parent index, the operation id and the counts as arguments.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![
                ("index".to_string(), Json::U64(i as u64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("id".to_string(), Json::U64(s.id)),
                ("self_ns".to_string(), Json::U64(self_time_ns(spans, i))),
            ];
            args.extend(s.counts.iter().map(|(k, v)| (k.to_string(), Json::U64(*v))));
            obj([
                ("name", Json::Str(s.name.clone())),
                ("cat", Json::Str(s.layer.to_string())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(u64::from(s.lane))),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64(s.duration_ns() as f64 / 1e3)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("workload", Json::Str(workload.to_string())),
        ("traceEvents", Json::Arr(events)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>, lane: u32) -> Span {
        Span {
            name: "s".into(),
            layer: "test",
            start_ns,
            end_ns,
            parent,
            id: 0,
            lane,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, None, 0),
            span(10, 30, Some(0), 0),
            span(40, 90, Some(0), 0),
            span(50, 60, Some(2), 0),
        ];
        assert_eq!(self_time_ns(&spans, 0), 30);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 40);
        assert_eq!(self_time_ns(&spans, 3), 10);
        // In one lane, self times add back up to the root's duration.
        let total: u64 = (0..spans.len()).map(|i| self_time_ns(&spans, i)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_children_on_two_lanes_are_covered_once() {
        let spans = [
            span(0, 100, None, 0),
            span(10, 70, Some(0), 1),
            span(50, 95, Some(0), 2),
            span(90, 120, Some(0), 2), // clipped at the parent's end
        ];
        assert_eq!(self_time_ns(&spans, 0), 10);
    }

    #[test]
    fn recorder_nests_adopts_and_exports() {
        let mut rec = Recorder::new(true);
        rec.span("bench", "unit", 7, |rec| {
            rec.span("duet-system", "System::new", 7, |rec| rec.count("nodes", 4));
            let mut other = rec.lane(1);
            other.span("duet-system", "run_until_halt", 7, |_| {});
            rec.adopt(other);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("nodes", 4)]);
        assert_eq!((spans[2].parent, spans[2].lane), (Some(0), 1));
        let json = chrome_trace("w", spans);
        let parsed = duet_serve::json::parse(json.as_bytes()).expect("loadable");
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );

        let mut off = Recorder::new(false);
        assert_eq!(off.span("bench", "unit", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
