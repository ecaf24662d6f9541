//! In-memory span recording for the traced run.
//!
//! A span is one call the benchmark made into a layer (or one interval a
//! session spent waiting on one), identified by the generator-side session it
//! belongs to.  Spans stay in memory while the run measures and are written
//! out once it ends.  A span's *self time* is its duration minus the part of
//! it that its child spans cover; the self time of a session's root span is
//! the round trip nobody accounted for.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`net.challenge`, `prover.respond`, ...).
    pub name: &'static str,
    /// Generator-side session key; spans of one session share it.
    pub session: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of traced sessions.  An untraced run traces nothing; a
/// traced run traces every session with an even key and leaves the odd ones
/// untraced, so the two groups share one pass — the same load, the same
/// moment on the host — and their latency gap is the tracing overhead.
/// Untraced sessions pay only for the `Instant::now` calls their own
/// metrics need.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self { epoch, enabled, spans: Vec::new() }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the session with this key is traced.
    pub fn traces(&self, session: u64) -> bool {
        self.enabled && session.is_multiple_of(2)
    }

    /// Records a span of a traced session and returns its index (`None`
    /// when the session is untraced).
    pub fn record(
        &mut self,
        name: &'static str,
        session: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.traces(session) {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, session, parent: None, start_ns: ns(start), end_ns: ns(end) });
        Some(self.spans.len() - 1)
    }

    /// Makes `parent` the parent of each of `children`.
    pub fn adopt(&mut self, parent: Option<usize>, children: &[usize]) {
        for &child in children {
            self.spans[child].parent = parent;
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Self time of every span, indexed like [`Tracer::spans`]: duration
    /// minus the union of its children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children.entry(parent).or_default().push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                let mut covered = 0u64;
                if let Some(intervals) = children.get_mut(&i) {
                    intervals.sort_unstable();
                    let mut reach = span.start_ns;
                    for &(start, end) in intervals.iter() {
                        let (start, end) = (start.max(reach), end.min(span.end_ns));
                        if end > start {
                            covered += end - start;
                            reach = end;
                        }
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one CSV row (`index,name,session,parent,start_ns,end_ns`).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,session,parent,start_ns,end_ns")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{},{},{parent},{},{}",
                span.name, span.session, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut tracer = Tracer::new(epoch, true);
        assert!(tracer.record("odd", 1, at(0), at(1)).is_none(), "odd keys are the control group");
        let a = tracer.record("a", 2, at(0), at(10)).unwrap();
        let b = tracer.record("b", 2, at(2), at(6)).unwrap();
        let c = tracer.record("c", 2, at(4), at(8)).unwrap();
        let root = tracer.record("root", 2, at(0), at(20));
        tracer.adopt(root, &[a]);
        tracer.adopt(Some(a), &[b, c]);
        let self_ns = tracer.self_times_ns();
        assert_eq!(self_ns[a], 4_000, "children cover 2..8 of 0..10");
        assert_eq!(self_ns[root.unwrap()], 10_000);
        assert_eq!(self_ns[b], 4_000);
        assert!(Tracer::new(epoch, false).record("x", 0, at(0), at(1)).is_none());
    }
}
