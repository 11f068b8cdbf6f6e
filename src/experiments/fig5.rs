//! Figure 5: microarchitecture vulnerability vs. the number of thread
//! contexts (2 / 4 / 8), for pipeline structures (left panel) and memory
//! structures (right panel), per workload mix.

use super::{avg_avf, mix_runs, Runs, MIX_LABELS};
use crate::runner::RunError;
use crate::table::Table;
use avf_core::StructureId;

/// Left panel: shared pipeline structures.
pub const PIPELINE_PANEL: [StructureId; 4] = [
    StructureId::Iq,
    StructureId::Fu,
    StructureId::Rob,
    StructureId::RegFile,
];

/// Right panel: memory structures.
pub const MEMORY_PANEL: [StructureId; 4] = [
    StructureId::LsqTag,
    StructureId::Dl1Tag,
    StructureId::LsqData,
    StructureId::Dl1Data,
];

/// Regenerate Figure 5 (both panels). Rows are `structure mix`, columns
/// are context counts.
pub fn figure5(runs: &mut Runs) -> Result<(Table, Table), RunError> {
    let contexts = [2usize, 4, 8];
    // (ctx, mix) -> results
    let runs = mix_runs(runs, &contexts)?;
    let build = |title: &str, panel: &[StructureId]| {
        let mut t = Table::new(title, &["2T", "4T", "8T"]).percent();
        for &s in panel {
            for (mi, mix) in MIX_LABELS.iter().enumerate() {
                t.push(
                    format!("{} {}", s.label(), mix),
                    (0..contexts.len())
                        .map(|ci| avg_avf(&runs[ci * MIX_LABELS.len() + mi], s))
                        .collect(),
                );
            }
        }
        t
    };
    Ok((
        build(
            "Figure 5a — Pipeline-structure AVF vs contexts",
            &PIPELINE_PANEL,
        ),
        build(
            "Figure 5b — Memory-structure AVF vs contexts",
            &MEMORY_PANEL,
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iq_avf_rises_with_contexts() {
        let (pipe, mem) = Runs::shared_quick(figure5).unwrap();
        for mix in MIX_LABELS {
            let two = pipe.value(&format!("IQ {mix}"), "2T").unwrap();
            let eight = pipe.value(&format!("IQ {mix}"), "8T").unwrap();
            assert!(
                eight > two,
                "IQ AVF should grow with thread count on {mix}: {two} -> {eight}"
            );
        }
        // Register file AVF rises from 2 to 4 contexts.
        let r2 = pipe.value("Reg CPU", "2T").unwrap();
        let r4 = pipe.value("Reg CPU", "4T").unwrap();
        assert!(r4 > r2);
        // Memory panel values are sane.
        for (_, row) in mem.rows() {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
