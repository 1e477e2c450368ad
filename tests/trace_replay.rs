//! Trace round-trip properties: recording a workload's retired stream
//! and replaying it must be indistinguishable from live execution —
//! identical block streams and identical `SimStats` — and damaged
//! trace files must be rejected with a clean error, never decoded into
//! a silently different stream.

use fe_cfg::{workloads, Executor};
use fe_model::{BlockSource, MachineConfig};
use fe_sim::{run_cells, CellRun, CellSource, RunLength, SchemeSpec};
use fe_trace::Trace;
use proptest::prelude::*;

const LEN: RunLength = RunLength {
    warmup: 15_000,
    measure: 40_000,
};

/// Live and replayed statistics of one full-detail cell.
fn live_and_replayed(
    program: &fe_cfg::Program,
    trace: &Trace,
    spec: &SchemeSpec,
    seed: u64,
) -> (fe_model::SimStats, fe_model::SimStats) {
    let machine = MachineConfig::table3();
    let run = |source| {
        let cells = run_cells(
            program,
            source,
            std::slice::from_ref(spec),
            &machine,
            CellRun::full(LEN),
            seed,
        );
        cells[0].stats.clone()
    };
    (run(CellSource::Live), run(CellSource::Trace(trace)))
}

fn named_workload(index: usize) -> fe_cfg::WorkloadSpec {
    let all = workloads::all();
    all[index % all.len()].clone().scaled(0.04)
}

#[test]
fn every_named_workload_replays_identically() {
    let machine = MachineConfig::table3();
    for wl in workloads::all() {
        let name = wl.name.clone();
        let program = wl.scaled(0.04).build();
        let trace = Trace::record(&program, 0x5407, LEN.trace_instrs(&machine));

        // The recorded stream is the live walk, block for block.
        let mut live = Executor::new(&program, 0x5407);
        for rb in trace.reader() {
            assert_eq!(rb.expect("record decodes"), live.next_block(), "{name}");
        }

        // And simulating the replayed stream is bit-identical to
        // simulating live.
        for scheme in [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()] {
            let (live, replayed) = live_and_replayed(&program, &trace, &scheme, 0x5407);
            assert_eq!(live, replayed, "{name} under {}", scheme.label());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn record_replay_is_identity_at_any_seed(
        which in 0usize..6,
        seed in 1u64..1 << 40,
    ) {
        let machine = MachineConfig::table3();
        let program = named_workload(which).build();
        let trace = Trace::record(&program, seed, LEN.trace_instrs(&machine));
        prop_assert!(trace.matches(&program));

        let mut live = Executor::new(&program, seed);
        let mut replay = trace.replayer();
        for _ in 0..trace.header().block_count {
            prop_assert_eq!(replay.next_block(), Some(live.next_block()));
        }

        let spec = SchemeSpec::boomerang();
        let (live, replayed) = live_and_replayed(&program, &trace, &spec, seed);
        prop_assert_eq!(live, replayed);
    }

    #[test]
    fn serialized_traces_survive_the_byte_round_trip(
        which in 0usize..6,
        seed in 1u64..1 << 40,
    ) {
        let program = named_workload(which).build();
        let trace = Trace::record(&program, seed, 20_000);
        let back = Trace::from_bytes(&trace.to_bytes()).expect("round trip");
        prop_assert_eq!(&back, &trace);
    }

    #[test]
    fn truncated_traces_are_rejected(cut_seed in 0u64..1 << 32) {
        let program = named_workload(0).build();
        let bytes = Trace::record(&program, 7, 20_000).to_bytes();
        // Any proper prefix must fail to parse — never decode short.
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(Trace::from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }

    #[test]
    fn corrupted_payloads_are_rejected(flip_seed in 0u64..1 << 32, xor in 1u8..=255) {
        let program = named_workload(1).build();
        let trace = Trace::record(&program, 7, 20_000);
        let mut bytes = trace.to_bytes();
        // Flip one payload byte (the payload is the file's tail): the
        // checksum must catch it.
        let payload_start = bytes.len() - trace.payload_len();
        let at = payload_start + (flip_seed as usize) % trace.payload_len();
        bytes[at] ^= xor;
        prop_assert!(
            matches!(Trace::from_bytes(&bytes), Err(fe_trace::TraceError::ChecksumMismatch)),
            "payload flip at {at} not caught"
        );
    }
}
