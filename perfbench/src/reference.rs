//! Output digests and the reference values they are checked against.
//!
//! `reference.tsv` holds, per input a run can pick, the FNV-1a digest of
//! each single-cell workload's measured `SimStats` and of each paper
//! experiment's report, plus the number of cells each experiment asks
//! for. It was written by `fdip-perfbench record-reference` from the
//! simulator as it stood before the benchmark existed; a later change
//! that moves a simulated number fails the check until the reference is
//! re-recorded on purpose.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use fdip_harness::Report;
use fdip_sim::SimStats;
use fdip_telemetry::ToJson;

const REFERENCE: &str = include_str!("../reference.tsv");

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a cell's simulated statistics (every counter and derived
/// ratio, no host timings).
pub fn stats_digest(stats: &SimStats) -> u64 {
    fnv1a(stats.to_json().to_string().as_bytes())
}

/// Digest of an experiment report (metrics and tables).
pub fn report_digest(report: &Report) -> u64 {
    fnv1a(report.to_json().to_string().as_bytes())
}

/// The parsed reference table.
#[derive(Default)]
pub struct Reference {
    digests: BTreeMap<(String, u64), u64>,
    cells: BTreeMap<String, u64>,
}

impl Reference {
    fn parse(text: &str) -> Reference {
        let mut r = Reference::default();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["digest", name, input, hex] => {
                    let input = input.parse().expect("reference input");
                    let digest = u64::from_str_radix(hex, 16).expect("reference digest");
                    r.digests.insert((name.to_string(), input), digest);
                }
                ["cells", exp, n] => {
                    r.cells
                        .insert(exp.to_string(), n.parse().expect("reference cells"));
                }
                _ => panic!("malformed reference line: {line:?}"),
            }
        }
        r
    }

    /// Whether the reference holds exactly `digest` for output `name` (a
    /// workload or experiment id) on `input`; an input it lacks never
    /// agrees.
    pub fn agrees(&self, name: &str, input: u64, digest: u64) -> bool {
        self.digests.get(&(name.to_string(), input)) == Some(&digest)
    }

    /// Cells experiment `id` asks for on the quick suite.
    pub fn cells(&self, id: &str) -> Option<u64> {
        self.cells.get(id).copied()
    }
}

/// The committed reference table.
pub fn reference() -> &'static Reference {
    static R: OnceLock<Reference> = OnceLock::new();
    R.get_or_init(|| Reference::parse(REFERENCE))
}

/// One `digest` line of the reference format.
pub fn digest_line(name: &str, input: u64, digest: u64) -> String {
    format!("digest\t{name}\t{input}\t{digest:016x}")
}

/// One `cells` line of the reference format.
pub fn cells_line(id: &str, cells: u64) -> String {
    format!("cells\t{id}\t{cells}")
}
