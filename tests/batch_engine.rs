//! Batch-engine equivalence: the shared-decode batch path must be
//! *byte-identical* to the serial path at the report level — same
//! `SweepReport` JSON, cell for cell — across workloads, scheme sets,
//! seeds, and run shapes. Lone cells are the reference (they run none
//! of the batch accelerations), so these tests are what licenses
//! batching by default — and cutting one workload's cells into several
//! groups to fill idle threads.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_sim::{Experiment, RunLength, SamplingSpec, SchemeSpec, SweepReport};
use proptest::prelude::*;

/// Short but non-trivial: long enough to cross redirects, i-cache
/// misses, and (sampled) several intervals in every workload.
const LEN: RunLength = RunLength {
    warmup: 30_000,
    measure: 90_000,
};

fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::NoPrefetch,
        SchemeSpec::Fdip,
        SchemeSpec::boomerang(),
        SchemeSpec::Confluence,
        SchemeSpec::Ideal,
        SchemeSpec::shotgun(),
    ]
}

fn sweep(batch: bool, schemes: Vec<SchemeSpec>, seed: u64) -> SweepReport {
    Experiment::new(MachineConfig::table3())
        .workloads(workloads::all().into_iter().map(|w| w.scaled(0.1)))
        .schemes(schemes)
        .len(LEN)
        .seed(seed)
        .threads(3)
        .batch(batch)
        .run()
}

#[test]
fn batch_report_is_byte_identical_across_all_named_workloads_and_schemes() {
    let batched = sweep(true, all_schemes(), 0x5407);
    let serial = sweep(false, all_schemes(), 0x5407);
    assert_eq!(
        batched.to_json(),
        serial.to_json(),
        "batch and serial sweeps must serialize to identical bytes"
    );
}

#[test]
fn sampled_batch_report_is_byte_identical() {
    let spec = SamplingSpec {
        interval: 30_000,
        detail: 6_000,
        warmup: 8_000,
    };
    let run = |batch: bool| {
        Experiment::new(MachineConfig::table3())
            .workloads([
                workloads::zeus().scaled(0.15),
                workloads::nutch().scaled(0.15),
            ])
            .schemes([
                SchemeSpec::NoPrefetch,
                SchemeSpec::boomerang(),
                SchemeSpec::shotgun(),
            ])
            .len(RunLength {
                warmup: 40_000,
                measure: 150_000,
            })
            .sampling(spec)
            .seed(11)
            .threads(2)
            .batch(batch)
            .run()
    };
    assert_eq!(
        run(true).to_json(),
        run(false).to_json(),
        "sampled batch and serial sweeps must serialize to identical bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identity must hold for *any* cell group the sweep could
    /// form: random workload, random scheme subset (any batch width
    /// from singleton fallback to the full set), random seed.
    #[test]
    fn random_cell_groups_batch_byte_identically(
        which in 0usize..6,
        subset in 1u32..64,
        seed in 1u64..1 << 40,
    ) {
        let schemes: Vec<SchemeSpec> = all_schemes()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| subset & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect();
        let all = workloads::all();
        let wl = all[which % all.len()].clone().scaled(0.08);
        let run = |batch: bool| {
            Experiment::new(MachineConfig::table3())
                .workload(wl.clone())
                .schemes(schemes.clone())
                .len(RunLength { warmup: 15_000, measure: 45_000 })
                .seed(seed)
                .threads(2)
                .batch(batch)
                .run()
                .to_json()
        };
        prop_assert_eq!(run(true), run(false));
    }
}

/// One workload's cells under the split rule: fewer workloads than
/// threads cut the workload's cells into several batch groups.
fn lone_workload(threads: usize, batch: bool) -> Experiment {
    Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.1))
        .schemes(all_schemes().into_iter().take(5))
        .len(LEN)
        .seed(0x5407)
        .threads(threads)
        .batch(batch)
}

#[test]
fn lone_workload_report_is_byte_identical_however_its_cells_are_grouped() {
    let reference = lone_workload(1, false).run().to_json();
    for threads in [1, 2, 4] {
        for batch in [true, false] {
            assert_eq!(
                lone_workload(threads, batch).run().to_json(),
                reference,
                "threads({threads}), batch({batch}) must match the serial reference"
            );
        }
    }
}

/// `(workload, scheme label, batch_id)` of every progress event.
fn progress_of(experiment: Experiment) -> Vec<(String, String, Option<u64>)> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    experiment
        .on_progress(move |e| {
            sink.lock().unwrap().push((
                e.workload.as_str().to_string(),
                e.scheme.clone(),
                e.batch_id,
            ))
        })
        .run();
    let events = seen.lock().unwrap().clone();
    events
}

#[test]
fn split_groups_of_one_workload_carry_distinct_batch_ids() {
    let events = progress_of(lone_workload(2, true));
    let mut groups: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    for (_, label, batch_id) in &events {
        let id = batch_id.expect("every cell of a 2- or 3-cell group is batched");
        assert!(
            groups.entry(id).or_default().insert(label.clone()),
            "cell {label} reported twice"
        );
    }
    assert!(
        groups.len() >= 2,
        "one workload at threads(2) must run as at least two groups, got {groups:?}"
    );
    let union: BTreeSet<String> = groups.values().flatten().cloned().collect();
    assert_eq!(
        union.len(),
        events.len(),
        "the groups must be disjoint and cover every cell"
    );
    assert_eq!(events.len(), 5);
}

#[test]
fn sweep_with_as_many_workloads_as_threads_keeps_one_batch_id_per_workload() {
    let all = workloads::all();
    assert_eq!(all.len(), 6);
    let events = progress_of(
        Experiment::new(MachineConfig::table3())
            .workloads(all.into_iter().map(|w| w.scaled(0.05)))
            .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
            .len(RunLength {
                warmup: 10_000,
                measure: 30_000,
            })
            .seed(3)
            .threads(2),
    );
    let mut ids: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    for (workload, _, batch_id) in events {
        ids.entry(workload)
            .or_default()
            .insert(batch_id.expect("two cells per workload batch together"));
    }
    assert_eq!(ids.len(), 6);
    for (workload, set) in &ids {
        assert_eq!(set.len(), 1, "{workload} must run as one group: {set:?}");
    }
    let distinct: BTreeSet<u64> = ids.values().flatten().copied().collect();
    assert_eq!(distinct.len(), 6, "workloads must not share a batch id");
}
