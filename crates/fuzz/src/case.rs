//! Replayable fuzz cases: a minimized program plus the violations it
//! reproduced, as a standalone JSON file.
//!
//! A case file carries the *assembled image* (via the `crates/program`
//! codec), not generator parameters, so a replay simulates exactly the
//! bytes the original run simulated even if the generator evolves. The
//! same format backs the committed corpus under `tests/corpus/`:
//! corpus entries are simply cases with an empty `violations` list.

use std::path::Path;
use std::sync::Arc;

use crate::matrix::{run_matrix, MatrixOptions, MatrixOutcome};
use fdip_program::{program_from_json, program_to_json, Program};
use fdip_telemetry::{Json, SCHEMA_VERSION};

/// One replayable case.
#[derive(Clone, Debug)]
pub struct CaseFile {
    /// Generator seed that produced the (pre-shrink) program.
    pub seed: u64,
    /// Generator profile name.
    pub profile: String,
    /// Fault-injection mode active when the case was captured
    /// (`none` for organic failures and corpus entries).
    pub inject: String,
    /// `(config, invariant, detail)` triples reproduced by the program.
    pub violations: Vec<(String, String, String)>,
    /// The minimized program image.
    pub program: Program,
}

impl CaseFile {
    /// Serializes the case document.
    pub fn to_json(&self) -> Json {
        let violations: Vec<Json> = self
            .violations
            .iter()
            .map(|(config, invariant, detail)| {
                Json::obj()
                    .with("config", config.as_str())
                    .with("invariant", invariant.as_str())
                    .with("detail", detail.as_str())
            })
            .collect();
        Json::obj().with("schema_version", SCHEMA_VERSION).with(
            "case",
            Json::obj()
                .with("tool", "fdip-fuzz")
                .with("seed", self.seed)
                .with("profile", self.profile.as_str())
                .with("inject", self.inject.as_str())
                .with("violations", Json::Arr(violations))
                .with("program", program_to_json(&self.program)),
        )
    }

    /// Decodes a case document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(doc: &Json) -> Result<CaseFile, String> {
        let case = doc.get("case").ok_or("missing `case`")?;
        let get_str = |k: &str| -> Result<String, String> {
            case.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing `{k}`"))
        };
        let violations = case
            .get("violations")
            .and_then(Json::as_arr)
            .ok_or("missing `violations`")?
            .iter()
            .map(|v| {
                let field = |k: &str| {
                    v.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("violation missing `{k}`"))
                };
                Ok((field("config")?, field("invariant")?, field("detail")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let program = program_from_json(case.get("program").ok_or("missing `program`")?)
            .map_err(|e| e.to_string())?;
        Ok(CaseFile {
            seed: case
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("missing `seed`")?,
            profile: get_str("profile")?,
            inject: get_str("inject")?,
            violations,
            program,
        })
    }

    /// Writes the case as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        fdip_telemetry::write_atomic(path, (self.to_json().to_string_pretty() + "\n").as_bytes())
    }

    /// Reads and decodes a case file.
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable files or malformed documents.
    pub fn read(path: &Path) -> Result<CaseFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        CaseFile::from_json(&doc)
    }

    /// Replays the case's program against the full config matrix
    /// (honest mode — no injection) and returns the outcome.
    pub fn replay(&self, opts: &MatrixOptions) -> MatrixOutcome {
        let mut honest = opts.clone();
        honest.inject = crate::matrix::Inject::None;
        let batch = vec![(
            self.program.name().to_string(),
            Arc::new(self.program.clone()),
        )];
        run_matrix(&batch, &honest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzProfile};

    fn sample_case() -> CaseFile {
        let program = generate(&FuzzProfile::Tiny.params(), 4)
            .emit("case_prog")
            .unwrap();
        CaseFile {
            seed: 4,
            profile: "tiny".to_string(),
            inject: "none".to_string(),
            violations: vec![(
                "fdp".to_string(),
                "stall_partition".to_string(),
                "demo".to_string(),
            )],
            program,
        }
    }

    #[test]
    fn case_round_trips_through_text() {
        let case = sample_case();
        let text = case.to_json().to_string_pretty();
        let back = CaseFile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.seed, case.seed);
        assert_eq!(back.profile, case.profile);
        assert_eq!(back.violations, case.violations);
        assert_eq!(back.program.image().len(), case.program.image().len());
        assert_eq!(back.to_json().to_string(), case.to_json().to_string());
    }

    #[test]
    fn malformed_cases_are_rejected() {
        assert!(CaseFile::from_json(&Json::obj()).is_err());
        let mut doc = sample_case().to_json();
        doc.set("case", Json::obj().with("tool", "fdip-fuzz"));
        assert!(CaseFile::from_json(&doc).is_err());
    }

    #[test]
    fn replay_of_a_healthy_case_is_clean() {
        let case = sample_case();
        let opts = MatrixOptions {
            warmup: 500,
            measure: 1_500,
            jobs: 2,
            inject: crate::matrix::Inject::StallLeak, // replay must ignore
        };
        let out = case.replay(&opts);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}
