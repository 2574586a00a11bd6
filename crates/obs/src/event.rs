//! Journal event types: the atoms of the one recorder.
//!
//! An [`Event`] is a tiny, fixed-size record — a `&'static str` name, a
//! monotonic timestamp relative to the journal epoch, and a [`EventKind`]
//! discriminant. Events are appended to per-thread buffers by
//! [`journal`](crate::journal) with no locking on the hot path, so the
//! representation is deliberately allocation-free: names must be static
//! (they are phase/metric identifiers, exactly like span names), and
//! counter samples carry their value inline.
//!
//! The kinds fall in two groups. *Phase* events ([`EventKind::Enter`],
//! [`EventKind::Exit`], [`EventKind::Set`], [`EventKind::Max`],
//! [`EventKind::Add`]) come from [`span`](crate::span) and the metric
//! calls; a capture folds them into its
//! [`PipelineReport`](crate::PipelineReport), and the Chrome exporter
//! draws them too. *Timeline* events ([`EventKind::Begin`],
//! [`EventKind::End`], [`EventKind::Instant`], [`EventKind::Counter`])
//! come from the `journal::begin/end/instant/counter` calls of hot loops;
//! only a trace shows them, and the fold skips them.

/// What one journal event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A timeline span opened (matches a later [`EventKind::End`] with
    /// the same name on the same thread).
    Begin,
    /// A timeline span closed.
    End,
    /// A point-in-time marker (Chrome "instant" event).
    Instant,
    /// An absolute timeline counter sample: the value of a named counter
    /// at this moment (Chrome "counter" event, one track per name).
    Counter(u64),
    /// A phase span opened ([`span`](crate::span)); a report span.
    Enter,
    /// The innermost open phase span closed.
    Exit,
    /// A metric was set ([`record`](crate::record); last write wins).
    Set(u64),
    /// A high-water metric was raised to at least this value
    /// ([`record_max`](crate::record_max)).
    Max(u64),
    /// A delta was added to an additive metric ([`add`](crate::add)).
    Add(u64),
}

/// One journal event. Thread identity is implicit: events live in
/// per-thread buffers ([`ThreadEvents`](crate::journal::ThreadEvents)).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Static event name (span/phase name, instant label, or counter name).
    pub name: &'static str,
    /// Nanoseconds since the journal epoch, which the process's first
    /// recorded event fixes.
    pub ts_ns: u64,
    /// Discriminant plus payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small() {
        // The journal appends millions of these in pathological runs; keep
        // the record small (a fat name pointer, a timestamp, and a tagged
        // u64 payload) so buffers stay cache-friendly.
        assert!(std::mem::size_of::<Event>() <= 5 * std::mem::size_of::<usize>());
    }

    #[test]
    fn kinds_compare() {
        assert_eq!(EventKind::Counter(3), EventKind::Counter(3));
        assert_ne!(EventKind::Begin, EventKind::End);
    }
}
