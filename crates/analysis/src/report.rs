//! Findings, severities, human rendering, and the versioned `lint.json`
//! document (Document 5 of `docs/METRICS.md`).

use fdip_telemetry::Json;

/// Version of the `lint.json` document (Document 5 of
/// `docs/METRICS.md`). Independent of the workspace-wide
/// `fdip_telemetry::SCHEMA_VERSION`: bumped when the lint document's
/// shape changes. v2 added per-finding diagnostic `kind`s and made
/// stale allowlist entries hard errors; v3 dropped the advisory `note`
/// severity and the summary's `notes` count.
pub const LINT_SCHEMA_VERSION: u64 = 3;

/// How serious a finding is. Both severities deny (non-zero exit under
/// `--deny`) unless allowlisted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Denies unless allowlisted.
    Warn,
    /// Denies unless allowlisted.
    Error,
}

impl Severity {
    /// Lowercase display name (`error`, `warn`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic from one pass at one source position.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Id of the pass that produced it (`atomics`, `hot-alloc`, …, or
    /// `allowlist` for problems with the allowlist file itself).
    pub pass: &'static str,
    /// Machine-readable diagnostic kind within the pass (e.g.
    /// `wall-clock`, `alloc-in-loop`); the full table is
    /// [`crate::passes::KINDS`].
    pub kind: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Severity (see [`Severity`] for deny semantics).
    pub severity: Severity,
    /// The flagged construct — what an allowlist entry must name.
    pub needle: String,
    /// Human explanation.
    pub message: String,
    /// The allowlist justification, when an entry covered this finding.
    pub justification: Option<String>,
}

impl Finding {
    /// Does this finding fail a `--deny` run? (Not covered by an
    /// allowlist entry.)
    pub fn denies(&self) -> bool {
        self.justification.is_none()
    }

    /// Stable single-line rendering: `file:line:col: [pass] severity: message`.
    pub fn render(&self) -> String {
        let suffix = match &self.justification {
            Some(j) => format!(" (allowed: {j})"),
            None => String::new(),
        };
        format!(
            "{}:{}:{}: [{}] {}: {}{}",
            self.file,
            self.line,
            self.col,
            self.pass,
            self.severity.name(),
            self.message,
            suffix
        )
    }
}

/// Everything one lint run produced.
#[derive(Clone, Debug)]
pub struct LintOutcome {
    /// All findings, sorted by (file, line, col, pass).
    pub findings: Vec<Finding>,
    /// Number of source files lexed and scanned.
    pub files_scanned: usize,
    /// Registered pass ids, in registry order.
    pub pass_ids: Vec<&'static str>,
}

impl LintOutcome {
    /// Findings that fail `--deny`.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.denies())
    }

    /// Count of findings at `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// Count of allowlisted (justified) findings.
    pub fn allowlisted(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.justification.is_some())
            .count()
    }

    /// The versioned `lint.json` document (Document 5, `docs/METRICS.md`).
    pub fn to_json(&self) -> Json {
        let per_pass: Vec<Json> = self
            .pass_ids
            .iter()
            .map(|id| {
                let of_pass = || self.findings.iter().filter(move |f| f.pass == *id);
                Json::obj()
                    .with("id", *id)
                    .with("findings", of_pass().count())
                    .with("denied", of_pass().filter(|f| f.denies()).count())
                    .with(
                        "allowed",
                        of_pass().filter(|f| f.justification.is_some()).count(),
                    )
            })
            .collect();
        let findings: Vec<Json> = self
            .findings
            .iter()
            .map(|f| {
                let mut j = Json::obj()
                    .with("pass", f.pass)
                    .with("kind", f.kind)
                    .with("file", f.file.as_str())
                    .with("line", f.line)
                    .with("col", f.col)
                    .with("severity", f.severity.name())
                    .with("needle", f.needle.as_str())
                    .with("message", f.message.as_str());
                if let Some(just) = &f.justification {
                    j.set("justification", just.as_str());
                }
                j
            })
            .collect();
        Json::obj()
            .with("schema_version", LINT_SCHEMA_VERSION)
            .with(
                "lint",
                Json::obj()
                    .with("tool", "fdip-lint")
                    .with("files_scanned", self.files_scanned)
                    .with("passes", Json::Arr(per_pass))
                    .with("findings", Json::Arr(findings))
                    .with(
                        "summary",
                        Json::obj()
                            .with("errors", self.count(Severity::Error))
                            .with("warnings", self.count(Severity::Warn))
                            .with("allowlisted", self.allowlisted())
                            .with("denied", self.denied().count()),
                    ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintOutcome {
        LintOutcome {
            findings: vec![
                Finding {
                    pass: "atomics",
                    kind: "relaxed-ordering",
                    file: "crates/x/src/a.rs".into(),
                    line: 3,
                    col: 9,
                    severity: Severity::Error,
                    needle: "Ordering::Relaxed".into(),
                    message: "relaxed hand-off".into(),
                    justification: None,
                },
                Finding {
                    pass: "atomics",
                    kind: "relaxed-ordering",
                    file: "crates/x/src/a.rs".into(),
                    line: 7,
                    col: 1,
                    severity: Severity::Error,
                    needle: "Ordering::Relaxed".into(),
                    message: "relaxed counter".into(),
                    justification: Some("telemetry tally only".into()),
                },
                Finding {
                    pass: "hot-alloc",
                    kind: "alloc-in-loop",
                    file: "crates/x/src/b.rs".into(),
                    line: 1,
                    col: 2,
                    severity: Severity::Warn,
                    needle: "vec!".into(),
                    message: "allocation in loop".into(),
                    justification: None,
                },
            ],
            files_scanned: 2,
            pass_ids: vec!["atomics", "hot-alloc"],
        }
    }

    #[test]
    fn deny_semantics_follow_severity_and_allowlisting() {
        let o = sample();
        let denied: Vec<&str> = o.denied().map(|f| f.needle.as_str()).collect();
        assert_eq!(denied, ["Ordering::Relaxed", "vec!"]);
        assert_eq!(o.count(Severity::Error), 2);
        assert_eq!(o.count(Severity::Warn), 1);
        assert_eq!(o.allowlisted(), 1);
    }

    #[test]
    fn rendering_is_stable() {
        let o = sample();
        assert_eq!(
            o.findings[0].render(),
            "crates/x/src/a.rs:3:9: [atomics] error: relaxed hand-off"
        );
        assert_eq!(
            o.findings[1].render(),
            "crates/x/src/a.rs:7:1: [atomics] error: relaxed counter \
             (allowed: telemetry tally only)"
        );
    }

    #[test]
    fn json_document_carries_passes_findings_and_summary() {
        let j = sample().to_json();
        assert_eq!(
            j.get("schema_version").and_then(Json::as_u64),
            Some(LINT_SCHEMA_VERSION)
        );
        const _: () = assert!(LINT_SCHEMA_VERSION >= 3, "v3 dropped notes");
        let lint = j.get("lint").expect("lint block");
        assert_eq!(lint.get("files_scanned").and_then(Json::as_u64), Some(2));
        let passes = lint.get("passes").and_then(Json::as_arr).unwrap();
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0].get("findings").and_then(Json::as_u64), Some(2));
        assert_eq!(passes[0].get("denied").and_then(Json::as_u64), Some(1));
        assert_eq!(passes[0].get("allowed").and_then(Json::as_u64), Some(1));
        let summary = lint.get("summary").expect("summary");
        assert_eq!(summary.get("denied").and_then(Json::as_u64), Some(2));
        assert!(summary.get("notes").is_none());
        assert_eq!(summary.get("allowlisted").and_then(Json::as_u64), Some(1));
        let findings = lint.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(findings.len(), 3);
        assert!(findings[1].get("justification").is_some());
        assert!(findings[0].get("justification").is_none());
        // Round-trips through the in-repo parser.
        assert!(Json::parse(&j.to_string_pretty()).is_ok());
    }
}
