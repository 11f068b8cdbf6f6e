//! Figure 1: microarchitecture vulnerability profile of the studied SMT
//! processor (4 contexts, ICOUNT), per structure, for CPU / MIX / MEM
//! workloads (average of groups A and B).

use super::{avg_avf, mix_runs, Runs, MIX_LABELS};
use crate::runner::RunError;
use crate::table::Table;
use avf_core::StructureId;

/// Regenerate Figure 1.
pub fn figure1(runs: &mut Runs) -> Result<Table, RunError> {
    let per_mix = mix_runs(runs, &[4])?;
    let mut table = Table::new(
        "Figure 1 — Microarchitecture Vulnerability Profile (4 contexts, ICOUNT), AVF",
        &MIX_LABELS,
    )
    .percent();
    for s in StructureId::FIGURE_SET {
        table.push(
            s.label(),
            per_mix.iter().map(|runs| avg_avf(runs, s)).collect(),
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape_matches_paper() {
        let t = Runs::shared_quick(figure1).unwrap();
        // Shared pipeline structures are more vulnerable on MEM workloads.
        assert!(t.value("IQ", "MEM").unwrap() > t.value("IQ", "CPU").unwrap());
        // FU and DL1 data AVF drop on MEM workloads.
        assert!(t.value("FU", "MEM").unwrap() < t.value("FU", "CPU").unwrap());
        assert!(t.value("DL1_data", "MEM").unwrap() < t.value("DL1_data", "CPU").unwrap());
        // The DL1 tag is more vulnerable than the DL1 data array.
        for mix in MIX_LABELS {
            assert!(t.value("DL1_tag", mix).unwrap() > t.value("DL1_data", mix).unwrap());
        }
        // All AVFs are probabilities.
        for (_, row) in t.rows() {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
