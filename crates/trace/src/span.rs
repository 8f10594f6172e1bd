//! Causal identifiers: spans and message lineage.
//!
//! Two id spaces turn the flat event stream into an explanation:
//!
//! * a [`SpanId`] names one interval of virtual time — in practice one
//!   200 ms control cycle, opened with [`crate::Tracer::span_begin`]
//!   and closed with [`crate::Tracer::span_end`]. Every record emitted
//!   while a span is open carries its id in the record envelope, so a
//!   reader can nest the whole stream under cycles without guessing
//!   from timestamps.
//! * a [`MsgId`] names one published message. It is allocated at
//!   `bus_publish` time ([`crate::Tracer::alloc_msg`]), rides with the
//!   payload through subscriber queues, channel sends, losses, and
//!   deliveries, and re-publications on a peer bus record the origin
//!   id as their `parent` — a lineage chain from the sensor publish to
//!   the actuator delivery.
//!
//! Both ids are plain `u64`s starting at 1; `0` is the reserved "none"
//! value ([`SpanId::NONE`] / [`MsgId::NONE`]). Allocation is a shared
//! monotone counter on the tracer, so for a fixed seed the ids — like
//! everything else in the trace — are byte-for-byte reproducible.

use std::fmt;

/// Identifier of one causal span (a control cycle in practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// "Not inside any span" (encoded as `"span":0`).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the reserved none value.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span#{}", self.0)
    }
}

/// Identifier of one published message (lineage tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MsgId(pub u64);

impl MsgId {
    /// "No message attached" (encoded as `"msg":0` / `"parent":0`).
    pub const NONE: MsgId = MsgId(0);

    /// Whether this is the reserved none value.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_values_and_display() {
        assert!(SpanId::NONE.is_none());
        assert!(MsgId::NONE.is_none());
        assert!(!SpanId(3).is_none());
        assert_eq!(SpanId(3).to_string(), "span#3");
        assert_eq!(MsgId(9).to_string(), "msg#9");
    }

    #[test]
    fn defaults_are_the_none_values() {
        assert_eq!(SpanId::default(), SpanId::NONE);
        assert_eq!(MsgId::default(), MsgId::NONE);
        assert!(!MsgId(1).is_none());
    }

    #[test]
    fn ids_order_by_allocation() {
        let mut spans = vec![SpanId(3), SpanId::NONE, SpanId(1)];
        spans.sort();
        assert_eq!(spans, vec![SpanId::NONE, SpanId(1), SpanId(3)]);
        assert!(MsgId(2) < MsgId(10));
    }
}
