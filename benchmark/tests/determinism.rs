//! Determinism self-test: at a tiny size, two runs of every workload
//! agree exactly on everything simulated, every metric `BENCHMARK.json`
//! names is present with its unit, the correctness gate passes, and
//! `SHOTGUN_*` environment knobs change nothing.
//!
//! One test function, so that setting the environment cannot race
//! another test in this binary.

use std::path::{Path, PathBuf};

use fe_sim::json::{self, Json};
use fe_sim::{RunLength, SamplingSpec};
use shotgun_benchmark::{run, Config, Outcome, Workload};

fn tiny(dir: &Path) -> Config {
    Config {
        scale: 0.05,
        detail_len: RunLength {
            warmup: 5_000,
            measure: 30_000,
        },
        sampled_len: RunLength {
            warmup: 10_000,
            measure: 100_000,
        },
        sampling: SamplingSpec {
            interval: 40_000,
            detail: 8_000,
            warmup: 8_000,
        },
        serve_scale: 0.05,
        serve_len: RunLength {
            warmup: 5_000,
            measure: 30_000,
        },
        threads: 2,
        setup_reps: 1,
        min_reps: 2,
        work_dir: dir.to_path_buf(),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let entries = doc.req(list).and_then(Json::as_arr).expect("metric list");
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.req(k)
                    .and_then(|v| v.as_str().map(str::to_string))
                    .unwrap()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Simulated values that must repeat exactly between runs.
fn simulated(out: &Outcome) -> Vec<(String, u64)> {
    out.metrics
        .iter()
        .filter(|m| {
            m.name.starts_with("paper_err_")
                || m.name.starts_with("uarch.l1i_mpki.")
                || m.name.starts_with("uarch.btb_mpki.")
                || m.name.starts_with("uarch.dir_mispredict_pki.")
                || m.name.starts_with("sim.fe_stall_pki.")
                || m.name.starts_with("sim.ipc.")
                || m.name.starts_with("core.prefetch_accuracy.")
                || m.name == "uarch.tage_mispredict_pkb"
                || m.name == "trace.store_chunks_decoded"
                || m.name == "trace.store_compress_ratio"
        })
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

fn check(out: &Outcome, expected: &[(String, String)], what: &str) {
    assert!(
        out.tally.failures.is_empty(),
        "{what}: gate failures: {:?}",
        out.tally.failures
    );
    assert!(out.tally.attempted > 0, "{what}: nothing attempted");
    for (name, unit) in expected {
        let metric = out
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(&metric.unit, unit, "{what}: unit of {name}");
        assert!(metric.value.is_finite(), "{what}: {name} is not finite");
    }
    assert_eq!(
        out.metrics.len(),
        expected.len(),
        "{what}: metrics beyond those BENCHMARK.json declares"
    );
}

#[test]
fn runs_repeat_and_report_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    let _ = std::fs::remove_dir_all(&root);
    for workload in Workload::ALL {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let what = format!("{} trace={}", workload.name(), trace as u8);
            let cfg =
                |run: &str| tiny(&root.join(format!("{}-{}-{run}", workload.name(), trace as u8)));
            let first = run(workload, 3, 0.01, trace, &cfg("a"));
            check(&first, expected, &what);
            // The second run sees knobs the figure binaries honour; the
            // benchmark must not.
            std::env::set_var("SHOTGUN_INSTRS", "1234");
            std::env::set_var("SHOTGUN_SCALE", "0.5");
            std::env::set_var("SHOTGUN_THREADS", "1");
            let second = run(workload, 3, 0.01, trace, &cfg("b"));
            std::env::remove_var("SHOTGUN_INSTRS");
            std::env::remove_var("SHOTGUN_SCALE");
            std::env::remove_var("SHOTGUN_THREADS");
            check(&second, expected, &what);
            assert!(!simulated(&first).is_empty(), "{what}: no simulated values");
            assert_eq!(simulated(&first), simulated(&second), "{what}: runs differ");
            assert!(!cfg("a").work_dir.exists(), "{what}: work dir left behind");
        }
    }
}
