//! Memory-hierarchy vulnerability (extension experiment): IL1, DL1, L2 and
//! TLB tag/data AVFs across workload mixes — extending Figure 1's shared
//! memory-structure panel to the full hierarchy the framework tracks.

use super::{avg_avf, mix_runs, Runs, MIX_LABELS};
use crate::runner::RunError;
use crate::table::Table;
use avf_core::StructureId;

/// The memory-hierarchy structures, L1 to L2.
pub const HIERARCHY: [StructureId; 8] = [
    StructureId::Il1Data,
    StructureId::Il1Tag,
    StructureId::Dl1Data,
    StructureId::Dl1Tag,
    StructureId::L2Data,
    StructureId::L2Tag,
    StructureId::Itlb,
    StructureId::Dtlb,
];

/// Run the memory-hierarchy AVF study (4 contexts, ICOUNT).
pub fn memory_hierarchy(runs: &mut Runs) -> Result<Table, RunError> {
    let per_mix = mix_runs(runs, &[4])?;
    let mut t = Table::new(
        "Memory-hierarchy AVF (4 contexts, ICOUNT) — extension beyond Figure 1",
        &MIX_LABELS,
    )
    .percent();
    for s in HIERARCHY {
        t.push(
            s.label(),
            per_mix.iter().map(|runs| avg_avf(runs, s)).collect(),
        );
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_avfs_are_sane() {
        let t = Runs::shared_quick(memory_hierarchy).unwrap();
        assert_eq!(t.rows().len(), HIERARCHY.len());
        for (label, row) in t.rows() {
            for &v in row {
                assert!((0.0..=1.0).contains(&v), "{label}: {v}");
            }
        }
        // Tags are hotter than data arrays per bit at every level.
        for mix in MIX_LABELS {
            for (tag, data) in [
                ("IL1_tag", "IL1_data"),
                ("DL1_tag", "DL1_data"),
                ("L2_tag", "L2_data"),
            ] {
                let tv = t.value(tag, mix).unwrap();
                let dv = t.value(data, mix).unwrap();
                assert!(tv >= dv, "{mix}: {tag} {tv:.4} !>= {data} {dv:.4}");
            }
        }
    }
}
