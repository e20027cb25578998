//! Span recorder: one span around every call keabench makes into a
//! layer, plus one parent span per setup, cycle and restart.
//!
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. A span's layer is the part of its name before the first `.`
//! (`store.extend` belongs to `store`); parent spans (`setup`, `warmup`,
//! `cycle`, `restart`) carry no dot and belong to the harness.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing setup, cycle or restart among its kind.
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to a span opened by [`Recorder::begin`].
#[must_use = "a span must be closed with Recorder::end"]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    pass: u32,
}

/// In-memory span recorder. When disabled every method is a no-op
/// apart from running the wrapped closure.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_id: u32,
    pass: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            pass: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a parent span (setup, cycle, restart) whose index among its
    /// kind is `pass`; spans opened before the matching `end` nest in it.
    pub fn begin_pass(&mut self, name: &'static str, pass: u32) -> Option<Open> {
        self.pass = pass;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let open = Open {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            pass: self.pass,
        };
        self.stack.push(id);
        Some(open)
    }

    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end_ns = self.now_ns();
        debug_assert_eq!(
            self.stack.last(),
            Some(&open.id),
            "spans must close in order"
        );
        self.stack.pop();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            pass: open.pass,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by_key(|s| s.id);
        for s in sorted {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"pass\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.pass
            )?;
        }
        out.flush()
    }
}

/// Durations in milliseconds of every span named `name`, in close order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Names of the parent spans that make up the timed phase.
pub const TIMED_PARENTS: [&str; 3] = ["warmup", "cycle", "restart"];

/// `1 − Σ layer span time ÷ Σ timed parent span time`: the share of the
/// timed phase no layer span accounts for.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let timed: BTreeMap<u32, u64> = spans
        .iter()
        .filter(|s| TIMED_PARENTS.contains(&s.name))
        .map(|s| (s.id, s.duration_ns()))
        .collect();
    let total: u64 = timed.values().sum();
    if total == 0 {
        return 1.0;
    }
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| timed.contains_key(&p)))
        .map(Span::duration_ns)
        .sum();
    1.0 - covered as f64 / total as f64
}

/// Checks that every span lies inside its parent and that children of
/// one parent do not overlap.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent {
            let parent = by_id
                .get(&p)
                .ok_or_else(|| format!("span {} has unknown parent {p}", s.id))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} ({}) escapes its parent {}",
                    s.id, s.name, p
                ));
            }
            children.entry(p).or_default().push(s);
        }
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|s| s.start_ns);
        for pair in kids.windows(2) {
            if pair[1].start_ns < pair[0].end_ns {
                return Err(format!("spans {} and {} overlap", pair[0].id, pair[1].id));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_but_runs_the_closure() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("store.extend", || 7), 7);
        let open = rec.begin_pass("cycle", 0);
        rec.end(open);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_open_parent() {
        let mut rec = Recorder::new(true);
        let cycle = rec.begin_pass("cycle", 3);
        rec.span("whatif.fit", || std::hint::black_box(1 + 1));
        rec.span("optimizer.optimize", || ());
        rec.end(cycle);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let parent = spans.iter().find(|s| s.name == "cycle").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name != "cycle")
            .all(|s| s.parent == Some(parent.id) && s.pass == 3));
        check_nesting(spans).unwrap();
        let share = unattributed_share(spans);
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn nesting_check_rejects_an_escaping_child() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "cycle",
                start_ns: 10,
                end_ns: 20,
                pass: 0,
            },
            Span {
                id: 1,
                parent: Some(0),
                name: "sim.run",
                start_ns: 15,
                end_ns: 25,
                pass: 0,
            },
        ];
        assert!(check_nesting(&spans).is_err());
    }
}
