//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the `rapid-*` crates is instrumented.

use std::time::Instant;

/// One closed span. `parent` indexes [`Spans::closed`]'s vector; `trace`
/// groups the spans of one cold solve (or one set-up).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. [`Spans::off`] makes every call a no-op, so the timed
/// pipeline of the end-to-end pass and the spanned pipeline of the ledger
/// pass are the same code.
pub struct Spans {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u32,
}

impl Spans {
    pub fn on() -> Spans {
        Spans { epoch: Some(Instant::now()), spans: Vec::new(), open: Vec::new(), trace: 0 }
    }

    pub fn off() -> Spans {
        Spans { epoch: None, spans: Vec::new(), open: Vec::new(), trace: 0 }
    }

    /// Start a new trace id for the spans that follow.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    fn now(&self) -> Option<u64> {
        self.epoch.map(|e| e.elapsed().as_nanos() as u64)
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let Some(now) = self.now() else { return };
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, trace: self.trace });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let Some(now) = self.now() else { return };
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// Record `f` as a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Add a child of the span that just closed whose duration the callee
    /// reported (`ThreadedOutcome::wall`); only its length is known, so it
    /// is centred in its parent.
    pub fn reported_child(&mut self, name: &'static str, secs: f64) {
        if self.epoch.is_none() {
            return;
        }
        let parent = self.spans.len() - 1;
        let p = &self.spans[parent];
        let len = ((secs * 1e9) as u64).min(p.end_ns - p.start_ns);
        let start_ns = p.start_ns + (p.end_ns - p.start_ns - len) / 2;
        let trace = p.trace;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + len,
            parent: Some(parent),
            trace,
        });
    }

    pub fn closed(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }

    /// Durations of every span called `name`, one per trace, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// For every span, the summed duration of its direct children.
    pub fn children_secs(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.secs();
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut sp = Spans::on();
        sp.enter("solve");
        sp.span("plan", || std::hint::black_box(1 + 1));
        sp.span("run", || ());
        sp.reported_child("wall", 0.0);
        sp.exit();
        let s = sp.closed();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(sp.children_secs()[0] <= s[0].secs());
    }

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::off();
        sp.enter("a");
        assert_eq!(sp.span("b", || 7), 7);
        sp.reported_child("c", 1.0);
        sp.exit();
        assert!(sp.closed().is_empty());
    }
}
