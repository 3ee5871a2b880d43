//! Spans recorded around calls into each layer. The program under test
//! carries no instrumentation of its own, so every span here is opened
//! and closed by the benchmark, kept in memory, and written out once at
//! exit.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// One timed call: the layer it entered, when, the span that caused it
/// and the staged round all spans of that round share.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub round: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span log with one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, round: u64) -> usize {
        let start_s = self.now();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_s = self.now();
        let span = &mut self.spans[id];
        span.end_s = end_s;
        span.duration_s()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Json::from(s.name)),
                        ("start_s", Json::from(s.start_s)),
                        ("end_s", Json::from(s.end_s)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("round", Json::from(s.round)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children may overlap each other (parallel
/// work) or stick out of the parent; covered time is the union of the
/// child intervals clipped to the parent, so nothing is subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_s.max(spans[p].start_s);
            let hi = s.end_s.min(spans[p].end_s);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_default() += own;
    }
    let mut ranked: Vec<_> = by_name.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            round: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span("round", 0.0, 10.0, None),
            span("select", 1.0, 4.0, Some(0)),
            span("attest", 2.0, 3.0, Some(1)),
            span("execute", 5.0, 9.0, Some(0)),
        ];
        let own = self_times(&spans);
        // round: 10 − (3 + 4); select: 3 − 1; leaves keep their duration.
        assert_eq!(own, vec![3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = [
            span("execute", 0.0, 10.0, None),
            span("train", 1.0, 6.0, Some(0)),
            span("train", 4.0, 8.0, Some(0)),
            span("train", 5.0, 5.5, Some(0)),
        ];
        // The workers cover [1, 8] of the parent, not 5 + 4 + 0.5.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("round", 2.0, 6.0, None),
            span("early", 0.0, 3.0, Some(0)),
            span("late", 5.0, 9.0, Some(0)),
            span("outside", 7.0, 8.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn ranking_sums_self_time_by_layer_name() {
        let spans = [
            span("round", 0.0, 10.0, None),
            span("select", 0.0, 6.0, Some(0)),
            span("round", 10.0, 20.0, None),
            span("select", 10.0, 17.0, Some(2)),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![("select", 13.0), ("round", 7.0)]
        );
    }

    #[test]
    fn tracer_records_parents_and_rounds() {
        let mut t = Tracer::new();
        let round = t.open("round", None, 7);
        let child = t.open("select", Some(round), 7);
        assert!(t.close(child) >= 0.0);
        t.close(round);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].round, 7);
        assert!(t.spans()[0].end_s >= t.spans()[1].end_s);
    }
}
