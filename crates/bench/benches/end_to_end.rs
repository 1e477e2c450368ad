//! End-to-end simulation throughput: wall-time per simulated run for
//! each control-flow-delivery scheme on a mid-sized workload. Guards
//! against regressions that would make the figure binaries impractical.
//!
//! Std-only harness (`harness = false`): each scheme is timed over a
//! fixed number of iterations after one warmup run; results print as
//! ms/run and simulated-MIPS.
//!
//! ```sh
//! cargo bench -p fe-bench --bench end_to_end
//! ```

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_sim::{run_cells, CellRun, CellSource, RunLength, SchemeSpec};
use fe_trace::Trace;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let program = workloads::zeus().scaled(0.15).build();
    let machine = MachineConfig::table3();
    let len = RunLength {
        warmup: 50_000,
        measure: 150_000,
    };
    let iters = 10u32;
    let run = |source, spec: &SchemeSpec| {
        run_cells(
            &program,
            source,
            std::slice::from_ref(spec),
            &machine,
            CellRun::full(len),
            3,
        )
    };

    println!(
        "end_to_end: {} iterations of {}K+{}K instructions per scheme",
        iters,
        len.warmup / 1000,
        len.measure / 1000
    );
    println!("{:14} {:>10} {:>12}", "scheme", "ms/run", "sim MIPS");
    for spec in [
        SchemeSpec::NoPrefetch,
        SchemeSpec::boomerang(),
        SchemeSpec::Confluence,
        SchemeSpec::shotgun(),
        SchemeSpec::Ideal,
    ] {
        // One untimed warmup run to populate allocator/caches.
        black_box(run(CellSource::Live, &spec));
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(run(CellSource::Live, &spec));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let per_run_ms = 1e3 * elapsed / iters as f64;
        let mips = (len.warmup + len.measure) as f64 * iters as f64 / elapsed / 1e6;
        println!("{:14} {:>10.2} {:>12.1}", spec.label(), per_run_ms, mips);
    }

    // Record-once/replay-many: the same runs fed from a recorded trace
    // instead of the live executor walk. Replay should be at least as
    // fast as live execution (decode beats re-deriving control flow) —
    // this is the throughput edge every multi-scheme sweep now gets.
    let trace = Trace::record(&program, 3, len.trace_instrs(&machine));
    println!(
        "\nreplayed from a {:.1} MB trace ({} blocks):",
        trace.payload_len() as f64 / 1e6,
        trace.header().block_count
    );
    println!("{:14} {:>10} {:>12}", "scheme", "ms/run", "sim MIPS");
    for spec in [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()] {
        black_box(run(CellSource::Trace(&trace), &spec));
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(run(CellSource::Trace(&trace), &spec));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let per_run_ms = 1e3 * elapsed / iters as f64;
        let mips = (len.warmup + len.measure) as f64 * iters as f64 / elapsed / 1e6;
        println!("{:14} {:>10.2} {:>12.1}", spec.label(), per_run_ms, mips);
    }
}
