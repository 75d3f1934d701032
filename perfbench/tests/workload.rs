//! Every input a run can pick is one the correctness reference covers.

use std::collections::BTreeSet;

use fdip_perfbench::workload::{Workload, CELL_VARIANTS, SWEEP_INPUT};

#[test]
fn a_cell_run_visits_every_variant_before_repeating_one() {
    let w = Workload::FdpCell;
    for seed in [0, 1, 7, 123_456_789, u64::MAX] {
        let inputs: BTreeSet<u64> = (0..CELL_VARIANTS).map(|i| w.unit_input(seed, i)).collect();
        assert_eq!(inputs, (0..CELL_VARIANTS).collect(), "seed {seed}");
        assert_eq!(w.unit_input(seed, CELL_VARIANTS), w.unit_input(seed, 0));
    }
}

#[test]
fn seeds_start_cell_runs_on_different_variants() {
    let starts: BTreeSet<u64> = (0..10)
        .map(|seed| Workload::FdpCell.unit_input(seed, 0))
        .collect();
    assert!(starts.len() > 5, "{starts:?}");
}

#[test]
fn the_sweep_always_runs_the_stock_suite() {
    for (seed, index) in [(0, 0), (5, 0), (99, 3)] {
        assert_eq!(Workload::PaperSweep.unit_input(seed, index), SWEEP_INPUT);
    }
}
