//! The checked-in allowlist: one justified exemption per line.
//!
//! Format (`lint-allow.txt` at the repository root):
//!
//! ```text
//! # comment
//! pass-id | relative/path.rs | needle | one-line justification
//! ```
//!
//! An entry exempts every finding of `pass-id` in that file whose
//! `needle` (the flagged construct, e.g. `Instant` or
//! `Ordering::Relaxed`) matches exactly. Justifications are mandatory —
//! an empty fourth field is itself a lint error — and entries that match
//! nothing are flagged as stale so the file cannot rot.

/// One parsed allowlist entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Pass id the exemption applies to (`atomics`, `hot-alloc`, …).
    pub pass: String,
    /// Workspace-relative path of the exempted file, `/`-separated.
    pub file: String,
    /// Exact needle the pass reported (the flagged construct).
    pub needle: String,
    /// Human reason the finding is acceptable. Must be non-empty.
    pub justification: String,
    /// 1-based line number in the allowlist file (for diagnostics).
    pub line: u32,
    /// Whether any finding matched this entry (set during application).
    pub used: bool,
}

/// A parsed allowlist file.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// The entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the `pass | file | needle | justification` line format.
    /// Blank lines and `#` comments are skipped. Lines with fewer than
    /// four fields are an error naming the offending line.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
            let [pass, file, needle, justification] = fields[..] else {
                return Err(format!(
                    "allowlist line {}: expected `pass | file | needle | justification`, \
                     got: {line}",
                    i + 1
                ));
            };
            if pass.is_empty() || file.is_empty() || needle.is_empty() {
                return Err(format!(
                    "allowlist line {}: pass, file, and needle must be non-empty: {line}",
                    i + 1
                ));
            }
            entries.push(AllowEntry {
                pass: pass.to_string(),
                file: file.to_string(),
                needle: needle.to_string(),
                justification: justification.to_string(),
                line: (i + 1) as u32,
                used: false,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Renders back to the line format (round-trip; comments are not
    /// preserved).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{} | {} | {} | {}\n",
                e.pass, e.file, e.needle, e.justification
            ));
        }
        out
    }

    /// Finds the entry covering `(pass, file, needle)`, marking it used.
    pub fn claim(&mut self, pass: &str, file: &str, needle: &str) -> Option<&AllowEntry> {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.pass == pass && e.file == file && e.needle == needle)?;
        e.used = true;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_and_entries() {
        let text = "# header\n\n\
                    atomics | crates/a/src/x.rs | Ordering::Relaxed | telemetry tally only\n";
        let al = Allowlist::parse(text).unwrap();
        assert_eq!(al.entries.len(), 1);
        let e = &al.entries[0];
        assert_eq!(e.pass, "atomics");
        assert_eq!(e.file, "crates/a/src/x.rs");
        assert_eq!(e.needle, "Ordering::Relaxed");
        assert_eq!(e.justification, "telemetry tally only");
        assert_eq!(e.line, 3);
        assert!(!e.used);
    }

    #[test]
    fn justification_may_contain_pipes() {
        let al = Allowlist::parse("p | f.rs | n | uses a | b split\n").unwrap();
        assert_eq!(al.entries[0].justification, "uses a | b split");
    }

    #[test]
    fn short_lines_are_rejected() {
        assert!(Allowlist::parse("p | f.rs\n").is_err());
        assert!(Allowlist::parse("| f | n | j\n").is_err());
    }

    #[test]
    fn empty_justification_parses_but_is_detectable() {
        let al = Allowlist::parse("p | f.rs | n |\n").unwrap();
        assert!(al.entries[0].justification.is_empty());
        let al = Allowlist::parse("p | f.rs | n\n");
        assert!(al.is_err(), "missing field entirely is a parse error");
    }

    #[test]
    fn claim_matches_exactly_and_marks_used() {
        let mut al = Allowlist::parse("p | f.rs | Instant | why\n").unwrap();
        assert!(al.claim("p", "f.rs", "SystemTime").is_none());
        assert!(al.claim("other", "f.rs", "Instant").is_none());
        assert!(al.claim("p", "f.rs", "Instant").is_some());
        assert!(al.entries[0].used);
    }

    #[test]
    fn round_trips_through_render() {
        let text = "a | b.rs | c | d\ne | f.rs | g | h\n";
        let al = Allowlist::parse(text).unwrap();
        let again = Allowlist::parse(&al.render()).unwrap();
        assert_eq!(al.entries, again.entries);
    }
}
