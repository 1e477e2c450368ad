//! Record-once sweep gate: a multi-scheme `Experiment` must perform
//! the executor walk exactly once per workload — each scheme cell
//! replays the recording instead of re-walking the stream.

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_sim::{Experiment, RunLength, SchemeSpec};

#[test]
fn multi_scheme_sweep_walks_each_workload_once() {
    let schemes = [
        SchemeSpec::NoPrefetch,
        SchemeSpec::boomerang(),
        SchemeSpec::shotgun(),
    ];
    let report = Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.05))
        .workload(workloads::zeus().scaled(0.05))
        .schemes(schemes)
        .len(RunLength {
            warmup: 20_000,
            measure: 50_000,
        })
        .seed(9)
        .threads(2)
        .run();
    assert_eq!(report.cells.len(), 6, "2 workloads x 3 schemes");
    assert_eq!(
        report.counters().executor_walks,
        2,
        "record-once: one executor walk per workload, not one per cell"
    );
}
