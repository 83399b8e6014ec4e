//! In-memory span recorder for the traced pass. Spans are recorded from
//! the benchmark's side of each call into a crate — `acme-obs` stays
//! compiled out, so the program under test is the same binary code with
//! tracing on or off.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    /// Shared by the spans of one request, round or cluster task.
    pub corr: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans when enabled; when disabled `span` only runs the
/// closure, so untraced and traced passes share one code path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span closure panicked while recording")
    }

    /// Runs `work` inside a span. `work` receives the span's id to parent
    /// its own children with (`None` when recording is off).
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        corr: u64,
        work: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return work(None);
        }
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name: name.to_string(),
                parent,
                corr,
                start_us: self.now_us(),
                end_us: f64::NAN,
            });
            spans.len() - 1
        };
        let out = work(Some(id));
        let end = self.now_us();
        self.lock()[id].end_us = end;
        out
    }

    /// Records a span whose ends were timed elsewhere (a served request's
    /// timestamps come back with its completion).
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        corr: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            parent,
            corr,
            start_us: us(start),
            end_us: us(end),
        });
        Some(spans.len() - 1)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// A span's duration minus the part of it its children cover. Children
/// that run in parallel overlap; the covered part is the union of their
/// intervals, clipped to the parent.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            ));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Total self time per span name, in seconds, in order of first
/// appearance.
pub fn self_seconds_by_name(spans: &[Span]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += self_us / 1e6,
            None => out.push((s.name.clone(), self_us / 1e6)),
        }
    }
    out
}

/// Share of the first span's duration that its children cover: how much
/// of a traced job the spans inside it account for.
pub fn root_coverage(spans: &[Span]) -> f64 {
    1.0 - self_times_us(spans)[0] / spans[0].duration_us()
}

pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let selfs = self_times_us(spans);
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(selfs)
                    .enumerate()
                    .map(|(id, (s, self_us))| {
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("corr", Json::Num(s.corr as f64)),
                            ("name", Json::str(&s.name)),
                            ("start_us", Json::Num(s.start_us)),
                            ("end_us", Json::Num(s.end_us)),
                            ("self_us", Json::Num(self_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            corr: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span("root", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 30.0),
            span("b", Some(0), 30.0, 90.0),
            span("b.inner", Some(2), 40.0, 50.0),
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 20.0, 50.0, 10.0]);
        // With no overlap the self times add up to the root's duration.
        assert_eq!(self_times_us(&spans).iter().sum::<f64>(), 100.0);
        assert_eq!(root_coverage(&spans), 0.8);
    }

    #[test]
    fn parallel_children_cover_their_union_once() {
        let spans = [
            span("root", None, 0.0, 100.0),
            span("task", Some(0), 10.0, 60.0),
            span("task", Some(0), 20.0, 80.0),
            // Clipped to the parent's interval.
            span("late", Some(0), 90.0, 120.0),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 70.0 - 10.0);
        assert_eq!(
            self_seconds_by_name(&spans),
            vec![
                ("root".to_string(), 20.0 / 1e6),
                ("task".to_string(), 110.0 / 1e6),
                ("late".to_string(), 30.0 / 1e6),
            ]
        );
    }

    #[test]
    fn recorder_nests_and_can_be_off() {
        let rec = Recorder::new(true);
        let out = rec.span("outer", None, 7, |outer| {
            rec.span("inner", outer, 7, |inner| {
                assert_eq!(inner, Some(1));
                5
            })
        });
        assert_eq!(out, 5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].corr, 7);
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);

        let off = Recorder::new(false);
        assert_eq!(off.span("x", None, 0, |id| id), None);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_json_round_trips() {
        let spans = [span("root", None, 0.0, 9.5), span("kid", Some(0), 1.0, 2.0)];
        let json = to_json("customize", 42, &spans);
        let back = Json::parse(&json.pretty()).unwrap();
        assert_eq!(back, json);
        let first = &back.get("spans").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(first.get("self_us").and_then(Json::as_f64), Some(8.5));
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }
}
