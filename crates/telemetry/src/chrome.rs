//! The one Chrome `trace_event` encoder (Document 4 of
//! `docs/METRICS.md`), shared by the simulator's cycle-domain tracer
//! (`fdip-trace`) and the daemon's wall-clock span recorder
//! (`fdip-obs`), so both exports carry the same key set and open side
//! by side in Perfetto or `chrome://tracing`.
//!
//! Each constructor returns a [`Json`] object; callers append a
//! per-event payload with `.with("args", …)` where they have one.

use crate::Json;

/// A `thread_name` metadata event (`ph:"M"`) naming track `tid`.
pub fn thread_name(pid: u64, tid: u64, name: &str) -> Json {
    Json::obj()
        .with("name", "thread_name")
        .with("ph", "M")
        .with("pid", pid)
        .with("tid", tid)
        .with("args", Json::obj().with("name", name))
}

/// A complete slice (`ph:"X"`) from `ts` lasting `dur` microseconds.
pub fn complete(name: &str, pid: u64, tid: u64, ts: u64, dur: u64) -> Json {
    Json::obj()
        .with("name", name)
        .with("ph", "X")
        .with("pid", pid)
        .with("tid", tid)
        .with("ts", ts)
        .with("dur", dur)
}

/// A thread-scoped instant event (`ph:"i"`, `s:"t"`) at `ts`.
pub fn instant(name: &str, pid: u64, tid: u64, ts: u64) -> Json {
    Json::obj()
        .with("name", name)
        .with("ph", "i")
        .with("pid", pid)
        .with("tid", tid)
        .with("ts", ts)
        .with("s", "t")
}

/// The document envelope: `traceEvents`, `displayTimeUnit` and the
/// `metadata` block (`tool`, `clock` — what one microsecond of trace
/// time means — and the capacity of the event buffer with the number
/// of events it had to drop).
pub fn document(
    events: Vec<Json>,
    tool: &str,
    clock: &str,
    dropped_events: u64,
    ring_capacity: u64,
) -> Json {
    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", "ms")
        .with(
            "metadata",
            Json::obj()
                .with("tool", tool)
                .with("clock", clock)
                .with("dropped_events", dropped_events)
                .with("ring_capacity", ring_capacity),
        )
}
