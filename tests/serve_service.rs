//! Experiment-service integration: checkpoint/resume after a mid-sweep
//! shutdown and graceful-shutdown semantics (the TCP round trip lives
//! in `serve_tcp.rs`).

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_serve::{ExperimentService, JobSpec, JobState, JobWorkload};
use fe_sim::{Experiment, RunLength, SamplingSpec, SchemeSpec};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fe-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 50_000,
};

fn small_job() -> JobSpec {
    JobSpec {
        workloads: vec![
            JobWorkload {
                name: "nutch".into(),
                scale: Some(0.05),
            },
            JobWorkload {
                name: "zeus".into(),
                scale: Some(0.05),
            },
        ],
        schemes: vec![
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ],
        len: LEN,
        seed: 9,
        sampling: None,
        threads: 1,
    }
}

/// `small_job`, sampled: 5K functionally warmed + 5K timed per 20K
/// interval.
fn small_sampled_job() -> JobSpec {
    JobSpec {
        sampling: Some(SAMPLING),
        ..small_job()
    }
}

const SAMPLING: SamplingSpec = SamplingSpec {
    interval: 20_000,
    detail: 5_000,
    warmup: 5_000,
};

/// The exact sweep `small_job` describes (sampled per `sampling`), run
/// directly — the uninterrupted control every service path must
/// reproduce byte-identically.
fn control_report(sampling: Option<SamplingSpec>) -> String {
    let experiment = Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.05))
        .workload(workloads::zeus().scaled(0.05))
        .schemes([
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ])
        .len(LEN)
        .seed(9)
        .threads(1);
    match sampling {
        Some(spec) => experiment.sampling(spec),
        None => experiment,
    }
    .run()
    .to_json()
}

#[test]
fn killed_service_resumes_without_recomputing() {
    resumes_without_recomputing("resume", &small_job());
}

#[test]
fn killed_sampled_service_resumes_without_recomputing() {
    resumes_without_recomputing("resume-sampled", &small_sampled_job());
}

/// Shuts a service down after the first of `spec`'s cells, reopens the
/// root, and checks the resumed job computes every cell exactly once
/// and reports byte-identically to the direct sweep.
fn resumes_without_recomputing(tag: &str, spec: &JobSpec) {
    let root = tmp_root(tag);
    let total = spec.cell_count() as u64;
    let control = control_report(spec.sampling);

    // Phase 1: submit, let the first cell finish, then shut down
    // gracefully mid-sweep ("kill" the daemon as SIGTERM would).
    let interrupted_cells;
    {
        let service = ExperimentService::open(&root).expect("opens");
        let (id, progress) = service.submit(spec).expect("accepts");
        let first = progress.recv().expect("at least one cell completes");
        assert!(!first.cached, "a fresh root has nothing cached");
        service.shutdown();
        let state = service.wait(id).expect("job tracked");
        interrupted_cells = service.cache().puts();
        assert!(
            matches!(state, JobState::Interrupted),
            "shutdown after the first of {total} cells must interrupt, got {state:?}"
        );
        assert!(
            interrupted_cells < total,
            "sanity: the sweep must not have finished before shutdown"
        );
        assert!(
            root.join("jobs").join("1.json").exists(),
            "the pending spec must survive shutdown"
        );
        assert!(
            root.join("jobs").join("1.ckpt.json").exists(),
            "the checkpoint must survive shutdown"
        );
    }

    // Phase 2: a fresh service over the same root resumes the pending
    // job by itself and completes it from the cache + fresh compute.
    let service = ExperimentService::open(&root).expect("reopens");
    let resumed = service.wait(1).expect("pending job re-enqueued");
    let JobState::Done(report) = resumed else {
        panic!("resumed job must complete, got {resumed:?}");
    };
    assert_eq!(
        interrupted_cells + service.cache().puts(),
        total,
        "across kill + resume, every cell is computed exactly once"
    );
    assert_eq!(
        report.as_str(),
        &control,
        "resumed report must be byte-identical to an uninterrupted run"
    );
    assert!(
        !root.join("jobs").join("1.json").exists(),
        "completed jobs leave the pending queue"
    );
    assert!(
        root.join("jobs").join("1.report.json").exists(),
        "the report is durable"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn draining_service_refuses_new_jobs() {
    let root = tmp_root("refuse");
    let service = ExperimentService::open(&root).expect("opens");
    service.shutdown();
    assert!(service.is_draining());
    let err = service.submit(&small_job()).expect_err("must refuse");
    assert!(
        err.contains("shut"),
        "refusal must say the service is shutting down: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_submissions_are_refused_politely() {
    let root = tmp_root("badjob");
    let service = ExperimentService::open(&root).expect("opens");
    let doc = fe_sim::json::parse(
        r#"{"workloads": [{"name": "no-such-workload"}], "schemes": [{"kind": "fdip"}],
            "warmup": 1000, "measure": 1000, "seed": 1}"#,
    )
    .unwrap();
    let err = JobSpec::from_json(&doc).expect_err("unknown workload");
    assert!(err.contains("no-such-workload"));

    // Specs that parse but cannot run: refused at the door, on the wire
    // and in process, and never persisted.
    let one_cell = JobSpec {
        workloads: vec![JobWorkload {
            name: "nutch".into(),
            scale: Some(0.05),
        }],
        schemes: vec![SchemeSpec::NoPrefetch],
        ..small_job()
    };
    let unrunnable = [
        (
            JobSpec {
                workloads: vec![JobWorkload::named("nutch"), JobWorkload::named("nutch")],
                ..one_cell.clone()
            },
            "duplicate workload name `nutch`",
        ),
        (
            JobSpec {
                schemes: vec![SchemeSpec::shotgun(), SchemeSpec::shotgun()],
                ..one_cell.clone()
            },
            "duplicate scheme label `shotgun`",
        ),
        (
            JobSpec {
                sampling: Some(SamplingSpec {
                    detail: LEN.measure + 1,
                    interval: 2 * LEN.measure,
                    warmup: 0,
                }),
                ..one_cell.clone()
            },
            "too short for even one",
        ),
    ];
    for (spec, expected) in &unrunnable {
        let doc = fe_sim::json::parse(&spec.to_json().render()).unwrap();
        let err = JobSpec::from_json(&doc).expect_err(expected);
        assert!(
            err.contains(expected),
            "from_json: expected `{expected}`, got `{err}`"
        );
        let err = service.submit(spec).expect_err(expected);
        assert!(
            err.contains(expected),
            "submit: expected `{expected}`, got `{err}`"
        );
    }
    assert_eq!(
        std::fs::read_dir(root.join("jobs")).unwrap().count(),
        0,
        "refused specs leave no job files"
    );

    // The service is still healthy: a valid job runs to completion.
    let (id, _progress) = service.submit(&one_cell).expect("a valid job is accepted");
    let state = service.wait(id).expect("job tracked");
    assert!(matches!(state, JobState::Done(_)), "got {state:?}");
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reopened_service_runs_a_pending_spec_without_a_submit() {
    // A spec left pending by an earlier process, with no checkpoint:
    // opening the root must start the worker and run it to completion.
    let root = tmp_root("pending");
    std::fs::create_dir_all(root.join("jobs")).unwrap();
    std::fs::write(
        root.join("jobs").join("7.json"),
        small_job().to_json().render(),
    )
    .unwrap();
    let service = ExperimentService::open(&root).expect("opens");
    let state = service.wait(7).expect("pending spec re-enqueued");
    let JobState::Done(report) = state else {
        panic!("the pending job must complete, got {state:?}");
    };
    assert_eq!(report.as_str(), &control_report(None));
    assert!(root.join("jobs").join("7.report.json").exists());
    assert!(!root.join("jobs").join("7.json").exists());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn service_without_jobs_shuts_down_cleanly() {
    let root = tmp_root("idle");
    let (tx, done) = mpsc::channel();
    let dir = root.clone();
    std::thread::spawn(move || {
        let service = ExperimentService::open(&dir).expect("opens");
        service.shutdown();
        assert!(service.is_draining());
        service.shutdown();
        drop(service);
        let _ = tx.send(());
    });
    done.recv_timeout(Duration::from_secs(30))
        .expect("open then shutdown with no job must return promptly");
    assert_eq!(
        std::fs::read_dir(root.join("jobs")).unwrap().count(),
        0,
        "an idle service leaves no job files"
    );
    let _ = std::fs::remove_dir_all(&root);
}
