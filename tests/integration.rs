//! Cross-crate integration tests: workload synthesis → execution →
//! timing simulation, end to end.

use fe_cfg::{analytics, workloads, Executor, LayerSpec, WorkloadSpec};
use fe_model::{MachineConfig, SimStats};
use fe_sim::{run_cells, CellRun, CellSource, Experiment, RunLength, SchemeSpec};

/// One live-walk cell on the Table 3 machine.
fn live(program: &fe_cfg::Program, spec: SchemeSpec, len: RunLength, seed: u64) -> SimStats {
    let machine = MachineConfig::table3();
    let run = CellRun::full(len);
    run_cells(program, CellSource::Live, &[spec], &machine, run, seed)
        .remove(0)
        .stats
}

fn small_workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "integration".into(),
        seed: 77,
        layers: vec![
            LayerSpec::grouped(6, 5.0),
            LayerSpec::grouped(48, 2.5),
            LayerSpec::shared(96, 1.2),
            LayerSpec::shared(64, 0.3),
        ],
        kernel_entries: 8,
        kernel_helpers: 24,
        ..WorkloadSpec::default()
    }
}

#[test]
fn simulation_is_deterministic() {
    let sweep = || {
        Experiment::new(MachineConfig::table3())
            .workload(small_workload())
            .scheme(SchemeSpec::shotgun())
            .len(RunLength::SMOKE)
            .seed(5)
            .run()
    };
    assert_eq!(sweep(), sweep(), "same seed, same program, same report");
}

#[test]
fn different_seeds_change_timing_not_structure() {
    let program = small_workload().build();
    let a = live(&program, SchemeSpec::NoPrefetch, RunLength::SMOKE, 1);
    let b = live(&program, SchemeSpec::NoPrefetch, RunLength::SMOKE, 2);
    // Runs stop within one retire-width of the target.
    assert!(
        a.instructions.abs_diff(b.instructions) <= 8,
        "measure length is fixed"
    );
    assert_ne!(
        a.cycles, b.cycles,
        "different transaction mix changes timing"
    );
}

#[test]
fn measured_instructions_match_request() {
    let program = small_workload().build();
    let len = RunLength {
        warmup: 100_000,
        measure: 300_000,
    };
    let s = live(&program, SchemeSpec::boomerang(), len, 3);
    // Block granularity means slight overshoot, bounded by one block.
    assert!(s.instructions >= 300_000);
    assert!(s.instructions < 300_000 + 32);
}

#[test]
fn executor_and_sim_agree_on_instruction_stream() {
    // The simulator must retire exactly the executor's stream: branch
    // counts from an offline walk match the sim's stats.
    let program = small_workload().build();
    let len = RunLength {
        warmup: 0,
        measure: 200_000,
    };
    let s = live(&program, SchemeSpec::NoPrefetch, len, 9);

    let mut exec = Executor::new(&program, 9);
    let mut branches = 0u64;
    let mut uncond = 0u64;
    let mut instrs = 0u64;
    while instrs < s.instructions {
        let rb = exec.next_block();
        instrs += rb.instr_count();
        branches += 1;
        if rb.block.kind.is_unconditional() {
            uncond += 1;
        }
    }
    // Measurement may end mid-block, so the offline walk can differ by
    // the partially retired final block.
    assert!(
        s.branches.abs_diff(branches) <= 1,
        "{} vs {}",
        s.branches,
        branches
    );
    assert!(s.unconditional_branches.abs_diff(uncond) <= 1);
}

#[test]
fn every_scheme_completes_and_retires() {
    let machine = MachineConfig::table3();
    let report = Experiment::new(machine.clone())
        .workload(small_workload())
        .schemes([
            SchemeSpec::NoPrefetch,
            SchemeSpec::Fdip,
            SchemeSpec::boomerang(),
            SchemeSpec::Confluence,
            SchemeSpec::shotgun(),
            SchemeSpec::Ideal,
        ])
        .len(RunLength::SMOKE)
        .seed(4)
        .threads(4)
        .run();
    for cell in &report.cells {
        let s = &cell.stats;
        assert!(s.cycles > 0, "{} must make progress", cell.label);
        assert!(
            s.ipc() > 0.05,
            "{} IPC {} implausibly low",
            cell.label,
            s.ipc()
        );
        assert!(
            s.ipc() <= machine.core.width as f64,
            "{} IPC above width",
            cell.label
        );
    }
}

#[test]
fn stall_accounting_is_conservative() {
    // Stall cycles + minimum retire cycles cannot exceed total cycles.
    let machine = MachineConfig::table3();
    let report = Experiment::new(machine.clone())
        .workload(small_workload())
        .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
        .len(RunLength::SMOKE)
        .seed(8)
        .run();
    for cell in &report.cells {
        let s = &cell.stats;
        let stall_cycles = s.stalls.front_end_total() + s.backend_stall_cycles;
        let min_retire_cycles = s.instructions / machine.core.width as u64;
        assert!(
            stall_cycles + min_retire_cycles <= s.cycles + 1,
            "{}: stalls {} + retire {} exceed cycles {}",
            cell.label,
            stall_cycles,
            min_retire_cycles,
            s.cycles,
        );
    }
}

#[test]
fn presets_build_and_have_expected_scale_ordering() {
    // Static footprints must respect the Table 1 intuition:
    // OLTP >> web front-ends >> search.
    let sizes: Vec<(String, u64)> = workloads::all()
        .into_iter()
        .map(|w| {
            let p = w.scaled(0.3).build();
            (w.name.clone(), p.code_bytes())
        })
        .collect();
    let get = |n: &str| sizes.iter().find(|(name, _)| name == n).unwrap().1;
    assert!(get("oracle") > get("apache"));
    assert!(get("db2") > get("zeus"));
    assert!(get("apache") > get("nutch"));
}

#[test]
fn region_locality_matches_fig3_shape_on_presets() {
    for wl in [
        workloads::oracle().scaled(0.3),
        workloads::db2().scaled(0.3),
    ] {
        let program = wl.build();
        let loc = analytics::region_locality(&program, 1, 1_000_000);
        assert!(
            loc.within(10) > 0.8,
            "{}: Fig 3 claims ~90% within 10 lines, got {:.2}",
            wl.name,
            loc.within(10),
        );
    }
}

#[test]
fn branch_working_set_shape_matches_fig4() {
    // The unconditional working set must be far smaller than the total
    // branch working set (Fig. 4's insight enabling the U-BTB).
    let program = workloads::oracle().scaled(0.5).build();
    let prof = analytics::branch_profile(&program, 2, 2_000_000);
    let k = 1024;
    assert!(
        prof.coverage_uncond(k) > prof.coverage_all(k) + 0.05,
        "uncond coverage {:.2} should dominate all-branch coverage {:.2}",
        prof.coverage_uncond(k),
        prof.coverage_all(k),
    );
}

/// A simulator owns its whole state, memory path included, so a cell
/// can move to another thread. A shared handle (`Rc`, `RefCell`) in
/// either type would fail this at compile time.
#[test]
fn simulator_and_memory_system_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<fe_uarch::MemorySystem>();
    assert_send::<fe_sim::Simulator<'static>>();
}
