//! Trace sinks: where emitted records go.
//!
//! A [`TraceSink`] consumes [`TraceRecord`]s in emission order. Three
//! implementations cover the standard uses:
//!
//! * [`NullSink`] — discard everything (benchmarking the overhead);
//! * [`RingBufferSink`] — keep the newest N records in memory (tests,
//!   post-mortem inspection);
//! * [`JsonlSink`] — stream records as JSON Lines to a writer, one
//!   object per line, stamped with virtual time.

use crate::event::TraceRecord;
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Consumer of trace records.
///
/// Records arrive in emission order (the `seq` field is strictly
/// increasing). Sinks must not reorder or drop silently — except
/// [`RingBufferSink`], whose bounded capacity is its documented
/// contract.
///
/// ```
/// use lgv_trace::{SpanId, TraceEvent, TraceRecord, TraceSink};
///
/// /// A sink that just counts records.
/// struct Counter(u64);
/// impl TraceSink for Counter {
///     fn record(&mut self, _rec: &TraceRecord) {
///         self.0 += 1;
///     }
/// }
///
/// let mut sink = Counter(0);
/// sink.record(&TraceRecord {
///     t_ns: 0,
///     seq: 0,
///     span: SpanId::NONE,
///     vehicle: 0,
///     event: TraceEvent::MigrationAbort,
/// });
/// assert_eq!(sink.0, 1);
/// ```
pub trait TraceSink {
    /// Consume one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flush any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Discards every record.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// Keeps the newest `capacity` records in memory.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    /// Total records ever offered (≥ `len()` once the ring wraps).
    seen: u64,
}

impl RingBufferSink {
    /// Ring holding at most `capacity` records (capacity 0 is bumped
    /// to 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            records: VecDeque::new(),
            seen: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Retained record count (≤ capacity).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records ever offered, including evicted ones.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, rec: &TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(rec.clone());
        self.seen += 1;
    }
}

/// Streams records as JSON Lines (one [`TraceRecord::to_json`] object
/// per line) to any writer.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
    lines: u64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wrap an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: BufWriter::new(writer),
            lines: 0,
        }
    }

    /// Create (truncating) a JSONL file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(file)))
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, rec: &TraceRecord) {
        // IO errors cannot fail the mission loop; a truncated trace is
        // detectable downstream by the seq gap at the tail.
        let _ = self.out.write_all(rec.to_json().as_bytes());
        let _ = self.out.write_all(b"\n");
        self.lines += 1;
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            t_ns: seq * 10,
            seq,
            span: crate::span::SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::MigrationAbort,
        }
    }

    #[test]
    fn ring_buffer_keeps_newest() {
        let mut ring = RingBufferSink::new(3);
        for i in 0..5 {
            ring.record(&rec(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_seen(), 5);
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn ring_buffer_starts_empty_and_bumps_zero_capacity() {
        let mut ring = RingBufferSink::new(0);
        assert!(ring.is_empty());
        assert_eq!(ring.total_seen(), 0);
        ring.record(&rec(7));
        ring.record(&rec(8));
        assert_eq!(ring.len(), 1);
        assert!(!ring.is_empty());
        assert_eq!(ring.records().next().map(|r| r.seq), Some(8));
    }

    #[test]
    fn ring_buffer_below_capacity_keeps_everything_in_order() {
        let mut ring = RingBufferSink::new(10);
        for i in 0..4 {
            ring.record(&rec(i));
        }
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(ring.total_seen(), 4);
    }

    #[test]
    fn null_sink_accepts_records_and_flushes() {
        let mut sink = NullSink;
        sink.record(&rec(0));
        sink.flush();
    }

    /// Shared in-memory writer so a test can read back what a sink
    /// wrote.
    #[derive(Clone)]
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn new() -> Self {
            Shared(Default::default())
        }

        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn jsonl_lines_are_each_records_json() {
        let buf = Shared::new();
        let mut sink = JsonlSink::new(Box::new(buf.clone()));
        let records = [rec(0), rec(1), rec(2)];
        for r in &records {
            sink.record(r);
        }
        sink.flush();
        let expected: String = records.iter().map(|r| r.to_json() + "\n").collect();
        assert_eq!(buf.text(), expected);
    }

    #[test]
    fn jsonl_flushes_on_drop() {
        let buf = Shared::new();
        {
            let mut sink = JsonlSink::new(Box::new(buf.clone()));
            sink.record(&rec(5));
            assert!(format!("{sink:?}").contains("lines: 1"));
        }
        assert_eq!(buf.text().lines().count(), 1);
    }

    #[test]
    fn jsonl_writes_one_line_per_record() {
        let buf = Shared::new();
        let mut sink = JsonlSink::new(Box::new(buf.clone()));
        sink.record(&rec(0));
        sink.record(&rec(1));
        sink.flush();
        assert_eq!(sink.lines(), 2);
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[1].contains("\"seq\":1"));
    }
}
