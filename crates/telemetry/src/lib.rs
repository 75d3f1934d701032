#![warn(missing_docs)]
//! Telemetry substrate for the FDIP reproduction: the machine-readable
//! side of the paper's evaluation (§VI).
//!
//! The simulator's figures are *measurements* — IPC speedups, MPKI
//! breakdowns, starvation cycles/KI, prefetch timeliness — and the text
//! tables the harness prints cannot be consumed by regression tooling or
//! plotting. This crate provides the pieces that make a run a dataset:
//!
//! * [`Counter`] — a saturating event counter.
//! * [`Histogram`] — a log2-bucketed distribution (occupancy, lead times,
//!   queue fills), cheap enough to record per cycle.
//! * [`Json`] — a hand-rolled JSON value with writer **and** parser. The
//!   build environment is offline, so no `serde`; the schema emitted by
//!   the harness is documented in `docs/METRICS.md` and carries
//!   [`SCHEMA_VERSION`].
//! * [`RunManifest`] — provenance for a results file: tool, suite, run
//!   lengths, git revision, wall time.
//! * [`write_atomic`] — the one durable tmp-and-rename file writer.
//! * [`chrome`] — the one Chrome `trace_event` encoder (Document 4),
//!   shared by the cycle tracer and the daemon's span recorder.
//! * [`clock`] — the workspace's one wall-clock module (stopwatch and
//!   Unix timestamps), for telemetry that never enters results.
//!
//! Everything here is dependency-free and deterministic; nothing in this
//! crate knows about the simulator (the `fdip-sim` and `fdip-harness`
//! crates implement [`ToJson`] for their own types).
//!
//! # Examples
//!
//! ```
//! use fdip_telemetry::{Histogram, Json, ToJson};
//!
//! let mut h = Histogram::new();
//! for occupancy in [0u64, 3, 3, 17] {
//!     h.record(occupancy);
//! }
//! assert_eq!(h.count(), 4);
//! let j = h.to_json();
//! let round = Json::parse(&j.to_string()).unwrap();
//! assert_eq!(round.get("count").and_then(Json::as_u64), Some(4));
//! ```

pub mod chrome;
pub mod clock;
mod counter;
mod hist;
mod json;
mod manifest;

pub use counter::Counter;
pub use hist::{Bucket, Histogram};
pub use json::{Json, JsonError};
pub use manifest::RunManifest;

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Version of the JSON results schema emitted by the harness.
///
/// Bump this whenever a field is renamed, removed, or its meaning changes;
/// purely additive fields do not require a bump. The schema itself is
/// documented in `docs/METRICS.md`.
pub const SCHEMA_VERSION: u64 = 1;

/// Conversion into a [`Json`] value.
///
/// Implemented by the simulator and harness for their stats/config types so
/// the whole result tree serializes through one mechanism.
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Replaces `path` with `bytes` atomically and durably: the bytes go to
/// `<path>.tmp`, which is synced to disk and then renamed over `path`,
/// and the directory is synced so the rename survives a crash. A reader
/// sees the old file or the new one, never a torn or empty one.
///
/// # Errors
///
/// Returns the I/O error of the first step that fails, or
/// `InvalidInput` when `path` has no file name. `path` is untouched
/// unless the rename succeeded.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_owned();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_tmp() {
        let dir =
            std::env::temp_dir().join(format!("fdip-telemetry-atomic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["doc.json"]);
        assert_eq!(
            write_atomic(&dir.join(".."), b"x").unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
