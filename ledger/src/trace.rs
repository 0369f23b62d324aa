//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Tracer`] is either off — `open`/`close` do nothing and read no
//! clock, which is how the timed rungs run — or on, pushing one [`Span`]
//! per call into a buffer allocated up front. Spans nest by a stack, so a
//! span's parent is whatever was open when it began.

use std::io::Write;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.handle.app`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The epoch the call belongs to.
    pub epoch: u32,
    /// The session or transaction the call served, when it served one.
    pub txn: Option<u32>,
}

/// Handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    epoch: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, 0)
    }

    /// A tracer with room for `capacity` spans; later ones are counted in
    /// [`Tracer::dropped`] instead of growing the buffer mid-measurement.
    pub fn on(capacity: usize) -> Self {
        Self::new(true, capacity)
    }

    fn new(on: bool, capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            epoch: 0,
            dropped: 0,
        }
    }

    /// Forgets the recorded spans; the buffer keeps its room.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.stack.clear();
        self.dropped = 0;
    }

    /// Is this tracer recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Labels subsequent spans with `epoch`.
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Begins a span.
    pub fn open(&mut self, name: &'static str, txn: Option<u32>) -> Open {
        if !self.on {
            return Open(None);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            epoch: self.epoch,
            txn,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Ends the span `open` began. Spans close in the reverse of the
    /// order they opened.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, the tracer consumed.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Each span's self time: its duration minus the time its direct children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let d = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(d);
        }
    }
    own
}

/// Calls, total duration and total self time of the spans named `name`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSum {
    /// How many spans carry the name.
    pub calls: u64,
    /// Their summed durations.
    pub total_ns: u64,
    /// Their summed self times.
    pub self_ns: u64,
}

/// Sums the spans named `name`.
pub fn sum_named(spans: &[Span], own: &[u64], name: &str) -> SpanSum {
    let mut sum = SpanSum::default();
    for (s, own) in spans.iter().zip(own) {
        if s.name == name {
            sum.calls += 1;
            sum.total_ns += s.end_ns - s.start_ns;
            sum.self_ns += own;
        }
    }
    sum
}

/// Writes `spans` as JSON lines, one object per span with the keys
/// `name`, `start_ns`, `end_ns`, `parent`, `epoch`, `txn`.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{},\"txn\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            s.epoch,
            opt(s.txn)
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            epoch: 0,
            txn: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rung [0,100] ⊃ tick [10,90] ⊃ {app [20,30], commit [40,70]}
        let spans = vec![
            span("rung", 0, 100, None),
            span("tick", 10, 90, Some(0)),
            span("app", 20, 30, Some(1)),
            span("commit", 40, 70, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 40, 10, 30]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times tile the root");
        let tick = sum_named(&spans, &own, "tick");
        assert_eq!((tick.calls, tick.total_ns, tick.self_ns), (1, 80, 40));
    }

    #[test]
    fn tracer_nests_by_stack_and_off_records_nothing() {
        let mut t = Tracer::on(8);
        t.set_epoch(3);
        let a = t.open("outer", None);
        let b = t.open("inner", Some(7));
        t.close(b);
        t.close(a);
        let c = t.open("next", None);
        t.close(c);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].txn, Some(7));
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|s| s.epoch == 3 && s.end_ns >= s.start_ns));

        let mut off = Tracer::off();
        let o = off.open("x", None);
        off.close(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::on(1);
        let a = t.open("kept", None);
        let b = t.open("dropped", None);
        t.close(b);
        t.close(a);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(
            &mut out,
            &[span("a.b", 1, 2, None), span("c", 3, 4, Some(0))],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"name\":\"a.b\",\"start_ns\":1,\"end_ns\":2,\"parent\":null,\"epoch\":0,\"txn\":null}"
        );
        assert!(lines[1].contains("\"parent\":0"));
    }
}
