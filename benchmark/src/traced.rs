//! The traced run: per-layer metrics and the residual.
//!
//! It first times the workload's unit untraced (one sweep, or one
//! serve episode) at the workload's thread count and at one thread.
//! Then it re-executes the unit through lower-level public calls of
//! each crate, one span per call (the *decomposition*), times the
//! untraced reference once more, and finally runs per-layer probes
//! over the same inputs. `residual_share` is the untraced wall time
//! (the mean of the two references) not covered by the layers' self
//! time in the decomposition, as a share of that wall time. The
//! outermost spans (`sim.group`, `serve.job`) cover the whole
//! decomposition, so today it measures tracing overhead and host drift
//! only, not time that no layer accounts for.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use fe_cfg::{Executor, Program, WorkloadSpec};
use fe_model::{BlockSource, BranchKind, RetiredBlock};
use fe_serve::{DiskCellStore, JobSpec, JobWorkload};
use fe_sim::{
    CellKey, CellStore, CellValue, EngineScheme, ProgramFingerprint, RunLength, SchemeSpec,
    SweepReport,
};
use fe_trace::{Trace, TraceStore};
use fe_uarch::scheme::ControlFlowDelivery;
use fe_uarch::{
    Btb, FrontEndCtx, InflightFills, LineCache, MemorySystem, ReturnAddressStack, Tage,
};

use crate::grid::{self, Sweep, EVAL_SEED};
use crate::serve::{self, Daemon, Template};
use crate::spans::{SpanId, Tracer};
use crate::stats::mean;
use crate::sweeps;
use crate::{Config, Outcome, Workload};

/// Blocks each per-operation probe walks per program, at most.
const PROBE_BLOCKS: usize = 200_000;

/// Runs the traced run of `workload`. It does a fixed amount of work:
/// the timed phase's `--seconds` does not apply.
pub fn run(workload: Workload, seed: u64, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    match workload {
        Workload::Detail | Workload::Sampled => sweep_unit(workload, seed, cfg, &mut t, &mut out),
        Workload::Serve => serve_unit(seed, cfg, &mut t, &mut out),
    }
    out.spans = Some(t.to_json());
    out
}

/// Times `f` and returns its value with the elapsed time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Attribution over the decomposition roots: each layer's self time
/// as a run-context note, and the residual against `untraced`.
fn attribute(t: &Tracer, roots: &[SpanId], untraced: Duration, out: &mut Outcome) {
    let mut layers = std::collections::BTreeMap::new();
    for root in roots {
        for (layer, ns) in t.self_by_layer(*root) {
            *layers.entry(layer).or_insert(0i64) += ns;
        }
    }
    let attributed: i64 = layers.values().sum();
    for (layer, ns) in &layers {
        out.note(
            format!("self_ms.{layer}"),
            format!("{:.3}", *ns as f64 / 1e6),
        );
    }
    let traced: Duration = roots.iter().map(|r| t.duration(*r)).sum();
    out.note("untraced_ms", format!("{:.3}", ms(untraced)));
    out.note("traced_ms", format!("{:.3}", ms(traced)));
    let untraced_ns = untraced.as_nanos() as f64;
    out.metric(
        "residual_share",
        (untraced_ns - attributed as f64) / untraced_ns,
        "fraction",
    );
}

/// The probe inputs of one program: its spec, build and the stream the
/// unit replays.
struct Input {
    spec: WorkloadSpec,
    program: Program,
    fingerprint: ProgramFingerprint,
    trace: Trace,
    build: Duration,
    fingerprint_time: Duration,
}

/// Sweep workloads (`detail`, `sampled`).
fn sweep_unit(workload: Workload, seed: u64, cfg: &Config, t: &mut Tracer, out: &mut Outcome) {
    let unit = sweeps::sweep(workload, seed, cfg);
    out.tally.run("set-up", || sweeps::set_up(&unit));

    // Untraced reference walls.
    let (report, par) = timed(|| sweeps::run_checked(&mut out.tally, "untraced sweep", &unit));
    let serial = Sweep {
        threads: 1,
        ..unit.clone()
    };
    let (_, ser) = timed(|| sweeps::run_checked(&mut out.tally, "untraced serial sweep", &serial));
    let Some(report) = report else { return };

    // Decomposition, serial like the reference it is compared with:
    // for each workload, its slice of the unit untraced (one thread),
    // then the same slice through lower-level calls inside spans.
    // Adjacent, the two see the same host speed.
    let traces = cfg.work_dir.join("traces");
    let trace_dir = unit.trace_dir.clone().unwrap_or_else(|| traces.clone());
    let mut inputs = Vec::new();
    let (mut roots, mut untraced) = (Vec::new(), Duration::ZERO);
    for spec in &unit.workloads {
        let slice = Sweep {
            threads: 1,
            ..unit.subset(std::slice::from_ref(spec), &unit.schemes)
        };
        let (_, d) = timed(|| sweeps::run_checked(&mut out.tally, "untraced slice", &slice));
        untraced += d;
        let root = t.open("bench.decomposition");
        let input = decompose(t, out, &unit, spec, &report, &traces, &trace_dir);
        t.close(root);
        roots.push(root);
        inputs.extend(input);
    }
    attribute(t, &roots, untraced, out);

    let probes = t.open("bench.probes");
    layer_probes(t, out, &inputs, seed, cfg);
    let decomposed = Some(ms(t.total("sim.group")));
    let modes = match workload {
        Workload::Sampled => [
            Mode::full(cfg.detail_len, None),
            Mode::sampled(cfg.sampled_len, cfg.sampling, decomposed),
        ],
        _ => [
            Mode::full(cfg.detail_len, decomposed),
            Mode::sampled(cfg.detail_len, cfg.sampling, None),
        ],
    };
    sim_probes(t, out, &unit, &trace_dir, modes);
    out.metric(
        "sim.thread_util",
        ser.as_secs_f64() / (unit.threads as f64 * par.as_secs_f64()),
        "fraction",
    );
    report_json_probe(t, out, &[&report]);
    cache_probe(t, out, &inputs, &report, &cfg.work_dir.join("cache-probe"));
    // The unit as a service job, submitted twice: the second is served
    // from the cache.
    let job = JobSpec {
        workloads: unit
            .workloads
            .iter()
            .map(|w| JobWorkload {
                name: w.name.clone(),
                scale: (cfg.scale != 1.0).then_some(cfg.scale),
            })
            .collect(),
        schemes: unit.schemes.clone(),
        len: unit.len,
        seed,
        sampling: unit.sampling,
        threads: unit.threads,
    };
    let jobs = [job.clone(), job].map(|spec| Template {
        figure: "fig6-7",
        spec,
    });
    let served = out.tally.run("service probe", || {
        serve::episode(&cfg.work_dir.join("serve-root"), &jobs, true)
    });
    if let Some(ep) = served {
        service_metrics(out, &ep);
        for (_, served) in serve::gate(&jobs, &ep, &mut out.tally) {
            out.tally.check(served.cells == report.cells, || {
                "service report differs from the direct sweep".into()
            });
        }
    }
    t.close(probes);
    for (name, value, unit) in grid::modelled_counts([&report]) {
        out.metric(name, value, unit);
    }
    out.note(
        "probe_inputs",
        format!("{} programs, executor seed {seed}", inputs.len()),
    );
}

/// One workload's slice of a sweep unit through lower-level calls.
/// Calls that only measure what `Experiment::run` repeats inside
/// `sim.group` are `bench.*` spans; their durations return as that
/// group's derived children.
fn decompose(
    t: &mut Tracer,
    out: &mut Outcome,
    unit: &Sweep,
    spec: &WorkloadSpec,
    report: &SweepReport,
    traces: &Path,
    trace_dir: &Path,
) -> Option<Input> {
    let seed = unit.seed;
    let needed = unit.len.trace_instrs(&grid::machine());
    let (program, build) = timed(|| t.span("bench.build", |_| spec.build()));
    let (fingerprint, fingerprint_time) =
        timed(|| t.span("bench.fingerprint", |_| ProgramFingerprint::of(&program)));
    let (loaded, load, load_layer) = match &unit.trace_dir {
        Some(stores) => {
            let path = sweeps::store_path(stores, spec, seed);
            let (trace, d) = timed(|| {
                t.span("bench.store_load", |_| {
                    TraceStore::read_from(&path).map(|s| s.to_trace())
                })
            });
            (trace, d, "trace.store_load")
        }
        None => {
            let recorded = t.span("trace.record", |_| Trace::record(&program, seed, needed));
            let path = traces.join(format!("{}-{seed:016x}.fetr", spec.name));
            let written = std::fs::create_dir_all(traces)
                .map_err(fe_trace::TraceError::from)
                .and_then(|()| recorded.write_to(&path));
            let (read, d) = timed(|| {
                t.span("bench.read", |_| {
                    written.and_then(|()| Trace::read_from(&path))
                })
            });
            (read.map(|_| recorded), d, "trace.read")
        }
    };
    let trace = match loaded {
        Ok(trace) => trace,
        Err(e) => {
            out.tally
                .check(false, || format!("{}: trace: {e}", spec.name));
            return None;
        }
    };
    let group = Sweep {
        threads: 1,
        trace_dir: Some(trace_dir.to_path_buf()),
        ..unit.subset(std::slice::from_ref(spec), &unit.schemes)
    };
    let id = t.open("sim.group");
    let ran = sweeps::run_checked(&mut out.tally, "group sweep", &group);
    t.close(id);
    t.derive(id, "cfg.build", build);
    t.derive(id, "cfg.fingerprint", fingerprint_time);
    t.derive(id, load_layer, load);
    if let Some(ran) = ran {
        for cell in &ran.cells {
            let whole = report
                .cells
                .iter()
                .find(|c| c.workload == *spec.name && c.label == cell.label);
            out.tally
                .check(whole.is_some_and(|w| w.stats == cell.stats), || {
                    format!(
                        "{} / {}: per-workload sweep differs from the grid",
                        spec.name, cell.label
                    )
                });
        }
    }
    Some(Input {
        spec: spec.clone(),
        program,
        fingerprint,
        trace,
        build,
        fingerprint_time,
    })
}

/// Cache hit ratio, queue wait and report size over a probe episode.
fn service_metrics(out: &mut Outcome, ep: &serve::Episode) {
    let traces: Vec<&serve::JobTrace> = ep.jobs.iter().flatten().collect();
    let cells: usize = traces.iter().map(|j| j.cells.len()).sum();
    let cached: usize = traces
        .iter()
        .map(|j| j.cells.iter().filter(|c| c.2).count())
        .sum();
    let queue: Vec<f64> = traces
        .iter()
        .map(|j| ms(j.queue.unwrap_or_default()))
        .collect();
    let bytes: Vec<f64> = traces.iter().map(|j| j.report.len() as f64).collect();
    out.metric(
        "serve.cache_hit_ratio",
        cached as f64 / cells.max(1) as f64,
        "fraction",
    );
    out.metric("serve.queue_wait_ms", mean(&queue), "ms");
    out.metric("serve.report_bytes", mean(&bytes), "bytes");
}

/// The `serve` workload's unit: one episode of the job stream.
fn serve_unit(seed: u64, cfg: &Config, t: &mut Tracer, out: &mut Outcome) {
    let jobs = serve::stream(cfg, seed);
    let serial_jobs: Vec<Template> = jobs
        .iter()
        .map(|j| Template {
            figure: j.figure,
            spec: JobSpec {
                threads: 1,
                ..j.spec.clone()
            },
        })
        .collect();
    let par = out
        .tally
        .run("untraced episode", || {
            serve::episode(&cfg.work_dir.join("root-par"), &jobs, false)
        })
        .map(|ep| ep.wall);
    let ser = out
        .tally
        .run("untraced serial episode", || {
            serve::episode(&cfg.work_dir.join("root-ser"), &serial_jobs, false)
        })
        .map(|ep| ep.wall);

    // Standalone builds of every program the stream uses; their
    // durations return as derived children of each job's span.
    let specs: Vec<WorkloadSpec> = grid::suite(cfg.serve_scale);
    let needed = cfg.serve_len.trace_instrs(&grid::machine());
    let inputs: Vec<Input> = specs
        .iter()
        .map(|spec| {
            let (program, build) = timed(|| t.span("bench.build", |_| spec.build()));
            let (fingerprint, fingerprint_time) =
                timed(|| t.span("bench.fingerprint", |_| ProgramFingerprint::of(&program)));
            let trace = t.span("bench.record", |_| {
                Trace::record(&program, EVAL_SEED, needed)
            });
            Input {
                spec: spec.clone(),
                program,
                fingerprint,
                trace,
                build,
                fingerprint_time,
            }
        })
        .collect();

    // Decomposition: the episode again, one span per job. The daemon's
    // internals are opaque from here; each job span gets derived
    // children for its protocol steps and its program builds.
    let root_dir = cfg.work_dir.join("root-traced");
    let root = t.open("bench.decomposition");
    let mut episode = serve::Episode {
        wall: Duration::ZERO,
        jobs: Vec::new(),
    };
    match Daemon::start(&root_dir) {
        Err(e) => out.tally.check(false, || format!("starting daemon: {e}")),
        Ok(daemon) => {
            for template in &jobs {
                let id = t.open("serve.job");
                let result = serve::submit(&daemon.addr, &template.spec, Some(&daemon.service));
                t.close(id);
                if let Ok(trace) = &result {
                    t.derive(id, "serve.submit", trace.submit);
                    t.derive(id, "serve.queue", trace.queue.unwrap_or_default());
                    t.derive(id, "serve.report_read", trace.total - trace.until_report);
                    for w in &template.spec.workloads {
                        if let Some(input) = inputs.iter().find(|i| i.spec.name == w.name) {
                            t.derive(id, "cfg.build", input.build);
                            t.derive(id, "cfg.fingerprint", input.fingerprint_time);
                        }
                    }
                }
                episode.jobs.push(result);
            }
            if let Err(e) = daemon.stop() {
                out.tally.check(false, || e);
            }
        }
    }
    t.close(root);
    let reports = serve::gate(&jobs, &episode, &mut out.tally);
    // The reference again after the decomposition, so host drift
    // during the traced run biases the residual less.
    let par_after = out
        .tally
        .run("untraced episode", || {
            serve::episode(&cfg.work_dir.join("root-par-after"), &jobs, false)
        })
        .map(|ep| ep.wall);
    let par = par.zip(par_after).map(|(a, b)| (a + b) / 2);
    if let Some(par) = par {
        attribute(t, &[root], par, out);
    }
    service_metrics(out, &episode);

    let probes = t.open("bench.probes");
    layer_probes(t, out, &inputs, EVAL_SEED, cfg);
    let fig67: Vec<&SweepReport> = reports
        .iter()
        .filter(|(i, _)| jobs[*i].figure == serve::MAIN_COMPARISON)
        .map(|(_, r)| r)
        .collect();
    let unit = Sweep {
        workloads: specs,
        schemes: grid::schemes(),
        len: cfg.serve_len,
        sampling: None,
        seed: EVAL_SEED,
        threads: cfg.threads,
        trace_dir: None,
    };
    let traces = cfg.work_dir.join("traces");
    let written = std::fs::create_dir_all(&traces)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            inputs.iter().try_for_each(|i| {
                let path = traces.join(format!("{}-{EVAL_SEED:016x}.fetr", i.spec.name));
                i.trace.write_to(path).map_err(|e| e.to_string())
            })
        });
    out.tally.check(written.is_ok(), || {
        format!("writing probe traces: {written:?}")
    });
    let modes = [
        Mode::full(cfg.serve_len, None),
        Mode::sampled(cfg.serve_len, cfg.sampling, None),
    ];
    sim_probes(t, out, &unit, &traces, modes);
    if let (Some(par), Some(ser)) = (par, ser) {
        out.metric(
            "sim.thread_util",
            ser.as_secs_f64() / (cfg.threads as f64 * par.as_secs_f64()),
            "fraction",
        );
    }
    report_json_probe(t, out, &fig67);
    match fig67.first() {
        Some(first) => cache_probe(t, out, &inputs, first, &cfg.work_dir.join("cache-probe")),
        None => out
            .tally
            .check(false, || "no fig1/6/7 job completed".into()),
    }
    t.close(probes);
    for (name, value, unit) in grid::modelled_counts(fig67) {
        out.metric(name, value, unit);
    }
    out.note(
        "probe_inputs",
        format!("{} programs, executor seed {EVAL_SEED:#x}", inputs.len()),
    );
}

/// Per-operation probes of `cfg`, `trace`, `uarch`, `core` and
/// `baselines` over the unit's programs and streams.
fn layer_probes(t: &mut Tracer, out: &mut Outcome, inputs: &[Input], seed: u64, cfg: &Config) {
    let per = |d: Duration, n: u64| d.as_nanos() as f64 / n.max(1) as f64;
    out.metric(
        "cfg.build_ms",
        mean(&inputs.iter().map(|i| ms(i.build)).collect::<Vec<_>>()),
        "ms",
    );
    out.metric(
        "cfg.fingerprint_ms",
        mean(
            &inputs
                .iter()
                .map(|i| ms(i.fingerprint_time))
                .collect::<Vec<_>>(),
        ),
        "ms",
    );

    let (mut walk, mut walked) = (Duration::ZERO, 0u64);
    let mut records = Vec::new();
    let (mut decode, mut decoded) = (Duration::ZERO, 0u64);
    for input in inputs {
        let blocks = input.trace.header().block_count.min(PROBE_BLOCKS as u64);
        let mut exec = Executor::new(&input.program, seed);
        let ((), d) = timed(|| {
            t.span("cfg.walk", |_| {
                for _ in 0..blocks {
                    std::hint::black_box(exec.next_block());
                }
            })
        });
        walk += d;
        walked += blocks;
        let instrs = input.trace.header().instr_count;
        let (recorded, d) = timed(|| {
            t.span("trace.record", |_| {
                Trace::record(&input.program, seed, instrs)
            })
        });
        std::hint::black_box(recorded);
        records.push(ms(d));
        let mut replay = input.trace.replayer();
        let (n, d) = timed(|| {
            t.span("trace.decode", |_| {
                let mut n = 0u64;
                while let Some(rb) = replay.next_block() {
                    std::hint::black_box(rb);
                    n += 1;
                }
                n
            })
        });
        decode += d;
        decoded += n;
    }
    out.metric("cfg.walk_ns_per_block", per(walk, walked), "ns");
    out.metric("trace.record_ms", mean(&records), "ms");
    out.metric("trace.decode_ns_per_block", per(decode, decoded), "ns");

    // Seeks in the sampling stride (skip, then pull warm + detail
    // through), over the flat trace and over a store written and read
    // back from disk.
    let sampling = cfg.sampling;
    let skip = sampling.interval - sampling.detail - sampling.warmup;
    let pull = sampling.detail + sampling.warmup;
    let (mut skip_time, mut skipped, mut chunks) = (Duration::ZERO, 0u64, 0u64);
    let (mut writes, mut loads, mut raw, mut stored) = (Vec::new(), Vec::new(), 0usize, 0usize);
    let dir = cfg.work_dir.join("store-probe");
    for input in inputs {
        let mut replay = input.trace.replayer();
        loop {
            let (n, d) = timed(|| t.span("trace.skip", |_| replay.skip_instrs(skip)));
            skip_time += d;
            skipped += n;
            if n < skip || drain(&mut replay, pull) < pull {
                break;
            }
        }
        let path = dir.join(format!("{}.fets", input.spec.name));
        let (written, d) = timed(|| {
            t.span("trace.store_write", |_| {
                std::fs::create_dir_all(&dir).map_err(fe_trace::TraceError::from)?;
                let store = TraceStore::from_trace(&input.trace, "shotgun-benchmark probe");
                store.write_to(&path).map(|()| store)
            })
        });
        writes.push(ms(d));
        let (loaded, d) = timed(|| {
            t.span("trace.store_load", |_| {
                TraceStore::read_from(&path).map(|s| {
                    let flat = s.to_trace();
                    (s, flat)
                })
            })
        });
        loads.push(ms(d));
        match (written, loaded) {
            (Ok(store), Ok((back, flat))) => {
                out.tally
                    .check(flat.to_bytes() == input.trace.to_bytes(), || {
                        format!("{}: store round trip changed the trace", input.spec.name)
                    });
                raw += store.raw_len();
                stored += store.stored_len();
                let mut seek = back.replayer();
                while seek.skip_instrs(skip) == skip && drain(&mut seek, pull) == pull {}
                chunks += seek.chunks_decoded();
            }
            (w, l) => out.tally.check(false, || {
                format!(
                    "{}: store probe: {:?} {:?}",
                    input.spec.name,
                    w.err(),
                    l.err()
                )
            }),
        }
    }
    out.metric(
        "trace.skip_ns_per_kinstr",
        skip_time.as_nanos() as f64 * 1000.0 / skipped.max(1) as f64,
        "ns",
    );
    out.metric("trace.store_load_ms", mean(&loads), "ms");
    out.metric("trace.store_chunks_decoded", chunks as f64, "count");
    out.metric(
        "trace.store_compress_ratio",
        raw as f64 / stored.max(1) as f64,
        "ratio",
    );
    out.metric("trace.store_write_ms", mean(&writes), "ms");

    uarch_probes(t, out, inputs);
    scheme_probes(t, out, inputs);
}

/// The first [`PROBE_BLOCKS`] blocks of an input's recorded stream.
fn probe_blocks(input: &Input) -> Vec<RetiredBlock> {
    let mut replay = input.trace.replayer();
    std::iter::from_fn(|| replay.next_block())
        .take(PROBE_BLOCKS)
        .collect()
}

/// TAGE, BTB and L1-I driven by each input's recorded stream.
fn uarch_probes(t: &mut Tracer, out: &mut Outcome, inputs: &[Input]) {
    let machine = grid::machine();
    let fe = machine.front_end;
    let (mut tage_time, mut branches, mut wrong) = (Duration::ZERO, 0u64, 0u64);
    let (mut btb_time, mut lookups) = (Duration::ZERO, 0u64);
    let (mut l1i_time, mut accesses) = (Duration::ZERO, 0u64);
    for input in inputs {
        let blocks = probe_blocks(input);
        let mut tage = Tage::new(machine.tage);
        let ((), d) = timed(|| {
            t.span("uarch.tage", |_| {
                for rb in blocks
                    .iter()
                    .filter(|rb| rb.block.kind == BranchKind::Conditional)
                {
                    let pc = rb.block.branch_pc();
                    let hist = tage.spec_snapshot();
                    let predicted = tage.predict(pc);
                    tage.push_spec(rb.taken);
                    tage.retire_with(pc, rb.taken, hist);
                    branches += 1;
                    wrong += (predicted != rb.taken) as u64;
                }
            })
        });
        tage_time += d;
        let mut btb = Btb::new(fe.btb_entries as usize, fe.btb_ways as usize);
        let ((), d) = timed(|| {
            t.span("uarch.btb", |_| {
                for rb in &blocks {
                    if btb.lookup(rb.block.start).is_none() {
                        btb.insert(&rb.block);
                    }
                }
            })
        });
        btb_time += d;
        lookups += blocks.len() as u64;
        let mut l1i = LineCache::new(machine.l1i);
        let ((), d) = timed(|| {
            t.span("uarch.l1i", |_| {
                for rb in &blocks {
                    for line in rb.block.lines() {
                        accesses += 1;
                        if let fe_uarch::AccessOutcome::Miss = l1i.demand_access(line) {
                            std::hint::black_box(l1i.install(line, false));
                        }
                    }
                }
            })
        });
        l1i_time += d;
    }
    let per = |d: Duration, n: u64| d.as_nanos() as f64 / n.max(1) as f64;
    out.metric("uarch.tage_ns_per_branch", per(tage_time, branches), "ns");
    out.metric(
        "uarch.tage_mispredict_pkb",
        wrong as f64 * 1000.0 / branches.max(1) as f64,
        "PKB",
    );
    out.metric("uarch.btb_ns_per_lookup", per(btb_time, lookups), "ns");
    out.metric("uarch.l1i_ns_per_access", per(l1i_time, accesses), "ns");
}

/// Each fig6/7 scheme's functional-warming hook, built with
/// `SchemeSpec::build` and driven through a `FrontEndCtx` assembled
/// from public `fe-uarch` parts.
fn scheme_probes(t: &mut Tracer, out: &mut Outcome, inputs: &[Input]) {
    let machine = grid::machine();
    let fe = machine.front_end;
    for scheme in grid::schemes() {
        let label = scheme.label();
        let layer = if matches!(scheme, SchemeSpec::Shotgun(_)) {
            "core"
        } else {
            "baselines"
        };
        let name = format!("{layer}.{label}.warm");
        let (mut time, mut warmed) = (Duration::ZERO, 0u64);
        for input in inputs {
            let blocks = probe_blocks(input);
            let EngineScheme::Real(mut kind) = scheme.build(&machine) else {
                continue;
            };
            let mut l1i = LineCache::new(machine.l1i);
            let mut mem = MemorySystem::new(&machine);
            let mut tage = Tage::new(machine.tage);
            let mut ras = ReturnAddressStack::new(fe.ras_entries as usize);
            let mut inflight = InflightFills::new(fe.l1i_mshrs as usize);
            let mut issued = 0u64;
            let mut preds = VecDeque::new();
            let mut ctx = FrontEndCtx {
                now: 0,
                l1i: &mut l1i,
                mem: &mut mem,
                tage: &mut tage,
                spec_ras: &mut ras,
                inflight: &mut inflight,
                program: &input.program,
                prefetches_issued: &mut issued,
                pred_trace: &mut preds,
            };
            let ((), d) = timed(|| {
                t.span(name.as_str(), |_| {
                    for rb in &blocks {
                        kind.warm_block(rb, &mut ctx);
                    }
                })
            });
            time += d;
            warmed += blocks.len() as u64;
        }
        out.metric(
            format!("{layer}.{label}.warm_ns_per_block"),
            time.as_nanos() as f64 / warmed.max(1) as f64,
            "ns",
        );
    }
}

/// One simulation mode of the `sim.*` probes.
struct Mode {
    /// Span and metric stem of single-scheme sweeps.
    cell: &'static str,
    /// Span and metric stem of grouped sweeps.
    group: &'static str,
    /// Metric name of the batch gain.
    gain: &'static str,
    len: RunLength,
    sampling: Option<fe_sim::SamplingSpec>,
    /// Grouped time already measured by the decomposition, in ms.
    group_ms: Option<f64>,
}

impl Mode {
    fn full(len: RunLength, group_ms: Option<f64>) -> Mode {
        Mode {
            cell: "sim.cell",
            group: "sim.group",
            gain: "sim.batch_gain",
            len,
            sampling: None,
            group_ms,
        }
    }

    fn sampled(len: RunLength, spec: fe_sim::SamplingSpec, group_ms: Option<f64>) -> Mode {
        Mode {
            cell: "sim.sampled_cell",
            group: "sim.sampled_group",
            gain: "sim.sampled_batch_gain",
            len,
            sampling: Some(spec),
            group_ms,
        }
    }
}

/// Per workload at one thread: each scheme as a single-scheme sweep (a
/// batch of one) and, unless the decomposition already timed it, all
/// schemes as one grouped sweep. Every sweep replays the traces in
/// `trace_dir`, so cells and groups pay the same trace acquisition.
fn sim_probes(t: &mut Tracer, out: &mut Outcome, unit: &Sweep, trace_dir: &Path, modes: [Mode; 2]) {
    for mode in modes {
        let base = Sweep {
            len: mode.len,
            sampling: mode.sampling,
            threads: 1,
            trace_dir: Some(trace_dir.to_path_buf()),
            ..unit.clone()
        };
        let sweep_ms = |t: &mut Tracer, out: &mut Outcome, name: &str, schemes: &[SchemeSpec]| {
            let mut total = Duration::ZERO;
            for spec in &unit.workloads {
                let sweep = base.subset(std::slice::from_ref(spec), schemes);
                let (_, d) =
                    timed(|| t.span(name, |_| sweeps::run_checked(&mut out.tally, name, &sweep)));
                total += d;
            }
            ms(total)
        };
        let mut cells_ms = 0.0;
        for scheme in &unit.schemes {
            let label = scheme.label();
            let cell = sweep_ms(
                t,
                out,
                &format!("{}.{label}", mode.cell),
                std::slice::from_ref(scheme),
            );
            cells_ms += cell;
            out.metric(format!("{}_ms.{label}", mode.cell), cell, "ms");
        }
        let group_ms = match mode.group_ms {
            Some(ms) => ms,
            None => sweep_ms(t, out, mode.group, &unit.schemes),
        };
        out.metric(format!("{}_ms", mode.group), group_ms, "ms");
        out.metric(mode.gain, cells_ms / group_ms, "ratio");
    }
}

/// `SweepReport::to_json` and `from_json` round trips.
fn report_json_probe(t: &mut Tracer, out: &mut Outcome, reports: &[&SweepReport]) {
    let mut times = Vec::new();
    for report in reports {
        let (back, d) = timed(|| {
            t.span("sim.report_json", |_| {
                SweepReport::from_json(&report.to_json())
            })
        });
        times.push(ms(d));
        out.tally.check(back.as_ref() == Ok(*report), || {
            "report JSON round trip changed the report".into()
        });
    }
    out.metric("sim.report_json_ms", mean(&times), "ms");
}

/// `DiskCellStore` puts then gets of every cell of `report`, through
/// the `CellStore` interface, keyed as the sweep keys them.
fn cache_probe(
    t: &mut Tracer,
    out: &mut Outcome,
    inputs: &[Input],
    report: &SweepReport,
    dir: &Path,
) {
    let store = match DiskCellStore::open(dir) {
        Ok(store) => store,
        Err(e) => return out.tally.check(false, || format!("cache probe: {e}")),
    };
    let machine = grid::machine();
    let keyed: Vec<(CellKey, CellValue)> = report
        .cells
        .iter()
        .filter_map(|cell| {
            let input = inputs
                .iter()
                .find(|i| i.spec.name == cell.workload.as_str())?;
            let key = CellKey::for_cell(
                input.fingerprint,
                &machine,
                &cell.scheme,
                report.len,
                report.seed,
                report.sampling,
            );
            Some((
                key,
                CellValue {
                    stats: cell.stats.clone(),
                    sampling: cell.sampling.clone(),
                },
            ))
        })
        .collect();
    let store: &dyn CellStore = &store;
    let ((), put) = timed(|| {
        t.span("serve.cache_put", |_| {
            for (key, value) in &keyed {
                store.put(key, value);
            }
        })
    });
    let (got, get) = timed(|| {
        t.span("serve.cache_get", |_| {
            keyed
                .iter()
                .map(|(key, _)| store.get(key))
                .collect::<Vec<_>>()
        })
    });
    for ((_, value), got) in keyed.iter().zip(&got) {
        out.tally.check(got.as_ref() == Some(value), || {
            "cache probe read back a different cell".into()
        });
    }
    let n = keyed.len().max(1) as f64;
    out.metric("serve.cache_put_us", put.as_secs_f64() * 1e6 / n, "us");
    out.metric("serve.cache_get_us", get.as_secs_f64() * 1e6 / n, "us");
}

/// Pulls at least `instrs` instructions through `next_block`.
fn drain(source: &mut impl BlockSource, instrs: u64) -> u64 {
    let mut got = 0;
    while got < instrs {
        match source.next_block() {
            Some(rb) => got += rb.instr_count(),
            None => break,
        }
    }
    got
}
