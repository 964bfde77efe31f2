//! In-memory spans and counters for the traced replica run.
//!
//! A span records its name, its parent (the span that was open when it
//! started) and its start and end relative to the trace's origin. Spans
//! are kept in memory and summarised when the run ends; nothing is
//! written while the pipeline runs.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A tree of spans plus named counters.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Trace {
    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. The span closes when `f` returns, also on an early `Err`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Add `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Summed duration of the spans called `name` whose parent is called
    /// `parent`.
    pub fn total_under(&self, name: &str, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.map(|p| self.spans[p].name) == Some(parent))
            .map(Span::seconds)
            .sum()
    }

    /// Summed self time of every span called `name`: its duration minus
    /// the time its direct children cover (children never overlap, since
    /// spans open and close on one thread).
    pub fn self_time(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::seconds)
                    .sum();
                s.seconds() - children
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Trace::default();
        let r: Result<u32, ()> = t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("b", |t| t.span("a", |_| ()));
            Ok(7)
        });
        assert_eq!(r, Ok(7));
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("a", Some(2))
            ]
        );
        assert!(t.total("a") >= 0.005);
        assert!(t.total_under("a", "root") >= 0.005);
        assert!(t.total_under("a", "b") < t.total_under("a", "root"));
        let own = t.self_time("root");
        assert!(own >= 0.0 && own < t.total("root") - 0.004);
    }

    #[test]
    fn counters_add() {
        let mut t = Trace::default();
        t.add("rows", 2.0);
        t.add("rows", 3.0);
        assert_eq!(t.counter("rows"), 5.0);
        assert_eq!(t.counter("absent"), 0.0);
    }
}
