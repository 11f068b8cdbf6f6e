//! Output checks: canonical hashes of every unit's output, compared with
//! hashes pinned per workload, scale and seed variant.
//!
//! The pin file is plain text, one pin per line:
//! `<workload> <scale> <variant> <unit> <value>`; `#` starts a comment.

use sim_inject::{TargetSummary, TrialRecord};
use sim_pipeline::SimResult;
use sim_store::{fnv1a64, Codec, Encoder};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// Input variants: `--seed` picks variant `seed % VARIANTS`, so every seed
/// maps onto inputs whose outputs are pinned.
pub const VARIANTS: u64 = 8;

/// Hash of everything a simulation reports: cycles, per-thread stats,
/// miss rates and every bit of the AVF report.
pub fn hash_sim(r: &SimResult) -> String {
    let mut e = Encoder::new();
    e.put_u64(r.cycles);
    e.put_str(&format!("{:?}", r.policy));
    e.put_usize(r.threads.len());
    for t in &r.threads {
        e.put_str(t.name);
        e.put_u64(t.committed);
        e.put_u64(t.squashed);
        e.put_u64(t.wrong_path_fetched);
        e.put_f64(t.mispredict_rate);
    }
    e.put_f64(r.dl1_miss_rate);
    e.put_f64(r.l2_miss_rate);
    e.put_f64(r.il1_miss_rate);
    r.report.encode_body(&mut e);
    format!("{:016x}", fnv1a64(&e.into_bytes()))
}

/// Hash of a campaign's records and per-target tallies.
pub fn hash_campaign(records: &[TrialRecord], per_target: &[TargetSummary]) -> String {
    let mut e = Encoder::new();
    e.put_usize(records.len());
    for r in records {
        r.encode_body(&mut e);
    }
    e.put_usize(per_target.len());
    for t in per_target {
        t.encode_body(&mut e);
    }
    format!("{:016x}", fnv1a64(&e.into_bytes()))
}

/// One unit's output, or the error that kept it from producing one.
pub type Output = (String, Result<String, String>);

/// Pinned outputs, keyed by `workload scale variant unit`.
pub struct Pins {
    map: HashMap<String, String>,
}

impl Pins {
    /// Load `path`; a missing file is an empty pin set (every unit then
    /// counts as failed).
    pub fn load(path: &Path) -> Result<Pins, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 5 {
                return Err(format!("{}:{}: expected 5 fields", path.display(), n + 1));
            }
            map.insert(f[..4].join(" "), f[4].to_string());
        }
        Ok(Pins { map })
    }

    /// Check `outputs` of one pass; returns `(attempted, failed)` and
    /// reports each failure on stderr.
    pub fn check(&self, prefix: &str, outputs: &[Output]) -> (u64, u64) {
        let mut failed = 0;
        for (unit, got) in outputs {
            let key = format!("{prefix} {unit}");
            let verdict = match (got, self.map.get(&key)) {
                (Err(e), _) => Some(format!("error: {e}")),
                (Ok(_), None) => Some("no pinned value".to_string()),
                (Ok(g), Some(want)) if g != want => Some(format!("got {g}, pinned {want}")),
                _ => None,
            };
            if let Some(v) = verdict {
                eprintln!("smtbench: FAILED {key}: {v}");
                failed += 1;
            }
        }
        (outputs.len() as u64, failed)
    }
}

/// Pin lines for `outputs` (errors are not pinned).
pub fn pin_lines(prefix: &str, outputs: &[Output]) -> Result<String, String> {
    let mut s = String::new();
    for (unit, got) in outputs {
        let v = got.as_ref().map_err(|e| format!("{unit}: {e}"))?;
        let _ = writeln!(s, "{prefix} {unit} {v}");
    }
    Ok(s)
}
