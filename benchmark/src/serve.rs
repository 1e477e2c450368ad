//! The `serve` workload: one closed-loop client driving an in-process
//! `fe-serve` daemon with a seeded stream of short full-detail jobs
//! drawn from the figure binaries' grids.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fe_model::SimStats;
use fe_serve::protocol::{read_frame, read_message, submit_message, write_message};
use fe_serve::{ExperimentService, JobSpec, JobState, JobWorkload, Server};
use fe_sim::json::Json;
use fe_sim::{SchemeSpec, SweepReport};
use shotgun::{RegionPolicy, ShotgunConfig};

use crate::grid::{self, Fidelity, EVAL_SEED};
use crate::stats::{beyond, median, percentile};
use crate::{peak_rss_mib, Config, Outcome, Tally};

/// The figure group whose Shotgun cells give `serve` its paper-fidelity
/// metrics.
pub const MAIN_COMPARISON: &str = "fig1-6-7";

/// One job template: a figure's scheme list over one or two workloads.
#[derive(Clone, Debug)]
pub struct Template {
    /// Figure the grid comes from.
    pub figure: &'static str,
    /// The job's specification.
    pub spec: JobSpec,
}

/// Every job of one episode's stream, grouped by figure in the order
/// the `all_experiments` binary runs its sweeps: Table 1, Figures
/// 1/6/7, Figures 8-11 and Figure 12, one job per Table 2 workload, then
/// Figure 13 as one job over oracle and db2. The cells are those of that
/// binary's sweeps, so they recur across jobs as they do there:
/// no-prefetch in every figure after Table 1, and the default Shotgun
/// in the region-policy and C-BTB grids.
pub fn catalog(cfg: &Config) -> Vec<Template> {
    let shotgun = |config: ShotgunConfig| SchemeSpec::Shotgun(config);
    let mut policies = vec![SchemeSpec::NoPrefetch];
    policies.extend(
        RegionPolicy::ALL
            .iter()
            .map(|p| shotgun(ShotgunConfig::default().with_policy(*p))),
    );
    let mut cbtb = vec![SchemeSpec::NoPrefetch];
    cbtb.extend(
        [64, 128, 1024]
            .iter()
            .map(|n| shotgun(ShotgunConfig::default().with_cbtb_entries(*n))),
    );
    let mut budgets = vec![SchemeSpec::NoPrefetch];
    for budget in [512, 1024, 2048, 4096, 8192] {
        budgets.push(SchemeSpec::Boomerang {
            btb_entries: budget,
        });
        budgets.push(shotgun(ShotgunConfig::for_budget(budget)));
    }
    let suite: Vec<String> = grid::suite(1.0).into_iter().map(|w| w.name).collect();
    let pair = vec!["oracle".to_string(), "db2".to_string()];
    let figures: Vec<(&'static str, Vec<SchemeSpec>, bool)> = vec![
        ("table1", vec![SchemeSpec::NoPrefetch], true),
        (
            MAIN_COMPARISON,
            vec![
                SchemeSpec::NoPrefetch,
                SchemeSpec::Confluence,
                SchemeSpec::boomerang(),
                SchemeSpec::shotgun(),
                SchemeSpec::Ideal,
            ],
            true,
        ),
        ("fig8-11", policies, true),
        ("fig12", cbtb, true),
        ("fig13", budgets, false),
    ];
    let job = |names: &[String], schemes: &[SchemeSpec]| JobSpec {
        workloads: names
            .iter()
            .map(|n| JobWorkload {
                name: n.clone(),
                scale: Some(cfg.serve_scale),
            })
            .collect(),
        schemes: schemes.to_vec(),
        len: cfg.serve_len,
        seed: EVAL_SEED,
        sampling: None,
        threads: cfg.threads,
    };
    let mut out = Vec::new();
    for (figure, schemes, per_workload) in figures {
        if per_workload {
            for name in &suite {
                out.push(Template {
                    figure,
                    spec: job(std::slice::from_ref(name), &schemes),
                });
            }
        } else {
            out.push(Template {
                figure,
                spec: job(&pair, &schemes),
            });
        }
    }
    out
}

/// SplitMix64: the stream generator's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The job stream of one episode: the catalog in figure order, with
/// the jobs of each figure shuffled by `seed`. A cell an earlier job
/// already computed is read from the cache.
pub fn stream(cfg: &Config, seed: u64) -> Vec<Template> {
    let catalog = catalog(cfg);
    let mut state = seed;
    let mut jobs = Vec::with_capacity(catalog.len());
    let mut start = 0;
    while start < catalog.len() {
        let figure = catalog[start].figure;
        let len = catalog[start..]
            .iter()
            .take_while(|t| t.figure == figure)
            .count();
        let mut group = catalog[start..start + len].to_vec();
        for i in (1..group.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            group.swap(i, j);
        }
        jobs.extend(group);
        start += len;
    }
    jobs
}

/// An in-process daemon: an experiment service on its own root behind
/// a TCP server on a loopback port.
pub struct Daemon {
    /// The service, for state queries.
    pub service: Arc<ExperimentService>,
    /// `host:port` to connect to.
    pub addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Opens a service on `root` (which must not exist yet) and starts
    /// serving it on an OS-chosen loopback port.
    pub fn start(root: &Path) -> io::Result<Daemon> {
        if root.exists() {
            return Err(io::Error::other(format!(
                "{} already exists",
                root.display()
            )));
        }
        Daemon::open(root)
    }

    /// Opens a service on `root`, which may already hold the service's
    /// directories, and starts serving it on an OS-chosen loopback port.
    pub fn open(root: &Path) -> io::Result<Daemon> {
        let service = Arc::new(ExperimentService::open(root)?);
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0")?;
        let addr = server.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.run_until(&flag));
        Ok(Daemon {
            service,
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// Stops accepting, drains the service and joins the server thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        let joined = match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| "server thread panicked".to_string()),
            None => Ok(()),
        };
        self.service.shutdown();
        joined
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// What the client saw of one job, with the moments it saw them.
#[derive(Debug)]
pub struct JobTrace {
    /// Progress ticks as `(workload, scheme label, served from cache)`.
    pub cells: Vec<(String, String, bool)>,
    /// The raw report bytes.
    pub report: String,
    /// Connect and submit until the `accepted` frame.
    pub submit: Duration,
    /// `accepted` until the worker took the job; measured only when a
    /// service handle was given.
    pub queue: Option<Duration>,
    /// Submit until the `report` announcement.
    pub until_report: Duration,
    /// The whole job: connect until the report frame is read.
    pub total: Duration,
}

/// Submits `spec` over TCP and reads its progress and report, timing
/// each protocol step. With `service`, also polls the job's state after
/// `accepted` to time its queue wait.
pub fn submit(
    addr: &str,
    spec: &JobSpec,
    service: Option<&ExperimentService>,
) -> Result<JobTrace, String> {
    let start = Instant::now();
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write_message(&mut conn, &submit_message(spec)).map_err(|e| format!("submit: {e}"))?;
    let (mut submit, mut queue) = (Duration::ZERO, None);
    let mut cells = Vec::new();
    loop {
        let msg = read_message(&mut conn)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("connection closed before the report")?;
        let field = |key: &str| {
            msg.get(key)
                .and_then(|v| v.as_str().ok())
                .map(str::to_string)
        };
        match field("type").as_deref() {
            Some("accepted") => {
                submit = start.elapsed();
                if let (Some(service), Some(Json::U64(id))) = (service, msg.get("job_id")) {
                    while service.state(*id) == Some(JobState::Queued) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    queue = Some(start.elapsed() - submit);
                }
            }
            Some("progress") => cells.push((
                field("workload").unwrap_or_default(),
                field("scheme").unwrap_or_default(),
                matches!(msg.get("cached"), Some(Json::Bool(true))),
            )),
            Some("report") => {
                let until_report = start.elapsed();
                let raw = read_frame(&mut conn)
                    .map_err(|e| format!("report frame: {e}"))?
                    .ok_or("connection closed before the report frame")?;
                let report = String::from_utf8(raw).map_err(|_| "report is not UTF-8")?;
                return Ok(JobTrace {
                    cells,
                    report,
                    submit,
                    queue,
                    until_report,
                    total: start.elapsed(),
                });
            }
            Some("error") => {
                return Err(format!(
                    "daemon refused: {}",
                    field("message").unwrap_or_default()
                ))
            }
            other => return Err(format!("unexpected message {other:?}")),
        }
    }
}

/// One episode's raw results, in stream order.
pub struct Episode {
    /// Closed-loop wall time of the whole stream.
    pub wall: Duration,
    /// Each job's result.
    pub jobs: Vec<Result<JobTrace, String>>,
}

/// Runs one episode on a fresh root: set-up, then every job of `jobs`
/// back to back over one client.
pub fn episode(root: &Path, jobs: &[Template], time_queue: bool) -> Result<Episode, String> {
    let daemon = Daemon::start(root).map_err(|e| format!("starting daemon: {e}"))?;
    let service = time_queue.then_some(daemon.service.as_ref());
    let start = Instant::now();
    let results: Vec<Result<JobTrace, String>> = jobs
        .iter()
        .map(|t| submit(&daemon.addr, &t.spec, service))
        .collect();
    let wall = start.elapsed();
    daemon.stop()?;
    std::fs::remove_dir_all(root).map_err(|e| format!("removing {}: {e}", root.display()))?;
    Ok(Episode {
        wall,
        jobs: results,
    })
}

/// Daemons one `serve` set-up batch starts back to back.
pub const SETUP_BATCH: usize = 40;

/// The directories of an empty service root (`fe-serve`'s documented
/// `<root>/cache` and `<root>/jobs`).
const ROOT_LAYOUT: [&str; 2] = ["cache", "jobs"];

/// One set-up batch of `serve`: [`SETUP_BATCH`] daemons started back to
/// back, each opening the service over an empty root under `dir`,
/// binding and serving. Returns the time of each start.
///
/// The roots' directories are created first, untimed: on a disk that
/// discards freed blocks, directory creation slowed threefold between
/// runs a minute apart as earlier runs' deletions piled up, which
/// swamped the service's own start cost. Stopping the daemons and
/// removing `dir` are not timed either.
pub fn set_up(dir: &Path) -> Result<Vec<Duration>, String> {
    let roots: Vec<_> = (0..SETUP_BATCH)
        .map(|i| dir.join(format!("root-{i}")))
        .collect();
    for sub in roots.iter().flat_map(|r| ROOT_LAYOUT.map(|d| r.join(d))) {
        std::fs::create_dir_all(&sub).map_err(|e| format!("creating {}: {e}", sub.display()))?;
    }
    let mut times = Vec::with_capacity(SETUP_BATCH);
    let mut daemons = Vec::with_capacity(SETUP_BATCH);
    for root in &roots {
        let start = Instant::now();
        let daemon = Daemon::open(root).map_err(|e| format!("starting daemon: {e}"))?;
        times.push(start.elapsed());
        daemons.push(daemon);
    }
    // Signal every daemon before joining any, so their accept polls
    // run out together.
    for daemon in &daemons {
        daemon.stop.store(true, Ordering::SeqCst);
    }
    for daemon in daemons {
        daemon.stop()?;
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(times)
}

/// The serve correctness gate over one episode: every job succeeded
/// with a parseable report; every cell seen again after its first
/// computation was served from the cache with statistics identical to
/// that computation. Returns the parsed reports of successful jobs.
pub fn gate(jobs: &[Template], episode: &Episode, tally: &mut Tally) -> Vec<(usize, SweepReport)> {
    let mut computed: HashMap<(String, String), SimStats> = HashMap::new();
    let mut reports = Vec::new();
    for (i, (template, result)) in jobs.iter().zip(&episode.jobs).enumerate() {
        let parsed = match result {
            Ok(trace) => SweepReport::from_json(&trace.report).map(|r| (trace, r)),
            Err(e) => Err(e.clone()),
        };
        tally.check(parsed.is_ok(), || {
            format!(
                "job {i} ({}): {}",
                template.figure,
                parsed.as_ref().err().unwrap()
            )
        });
        let Ok((trace, report)) = parsed else {
            continue;
        };
        tally.check(trace.cells.len() == report.cells.len(), || {
            format!(
                "job {i} ({}): progress and report disagree on cells",
                template.figure
            )
        });
        for (workload, label, cached) in &trace.cells {
            let key = (workload.clone(), label.clone());
            let cell = report
                .cells
                .iter()
                .find(|c| c.workload == **workload && c.label == *label);
            let Some(stats) = cell.map(|c| &c.stats) else {
                tally.check(false, || {
                    format!(
                        "job {i}: progress names {workload} / {label}, the report has no such cell"
                    )
                });
                continue;
            };
            match computed.get(&key) {
                None if !cached => {
                    computed.insert(key, stats.clone());
                }
                None => tally.check(false, || {
                    format!("job {i}: {workload} / {label} served from a cache it was never put in")
                }),
                Some(first) => tally.check(*cached && first == stats, || {
                    format!(
                        "job {i}: recurring {workload} / {label} not served identically from cache"
                    )
                }),
            }
        }
        reports.push((i, report));
    }
    reports
}

/// The timed run of `serve`: episodes until the budget is spent.
pub fn run(seed: u64, seconds: f64, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let jobs = stream(cfg, seed);
    let cell_instrs = cfg.serve_len.warmup + cfg.serve_len.measure;
    let (mut setups, mut latencies) = (Vec::new(), Vec::new());
    let (mut wall, mut covered) = (0.0f64, 0u64);
    let mut fidelity = None;
    // Set-up batches spread over the whole run (a few first, then one
    // after each episode), so a moment of host contention cannot set
    // the median of their single starts.
    let mut sample_setup = |tally: &mut Tally, i: usize| {
        let dir = cfg.work_dir.join(format!("setup-{i}"));
        if let Some(times) = tally.run("set-up", || set_up(&dir)) {
            setups.extend(times.iter().map(Duration::as_secs_f64));
        }
    };
    for i in 0..cfg.setup_reps {
        sample_setup(&mut out.tally, i);
    }
    let rss = crate::reset_peak_rss();
    out.tally
        .check(rss.is_ok(), || format!("resetting peak RSS: {rss:?}"));
    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    let mut n = 0;
    while n < cfg.min_reps || phase.elapsed() < budget {
        let root = cfg.work_dir.join(format!("serve-root-{n}"));
        n += 1;
        let Some(ep) = out.tally.run("episode", || episode(&root, &jobs, false)) else {
            break;
        };
        wall += ep.wall.as_secs_f64();
        for trace in ep.jobs.iter().flatten() {
            latencies.push(trace.total.as_secs_f64() * 1e3);
            covered += trace.cells.len() as u64 * cell_instrs;
        }
        let reports = gate(&jobs, &ep, &mut out.tally);
        sample_setup(&mut out.tally, cfg.setup_reps + n);
        if fidelity.is_none() {
            let fig67 = reports
                .iter()
                .filter(|(i, _)| jobs[*i].figure == MAIN_COMPARISON)
                .map(|(_, r)| r);
            fidelity = Fidelity::of(fig67);
        }
    }
    match peak_rss_mib() {
        Ok(mib) => out.metric("peak_rss_mib", mib, "MiB"),
        Err(e) => out.tally.check(false, || format!("peak RSS: {e}")),
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("sim_mips", covered as f64 / wall / 1e6, "Minstr/s");
    out.metric("jobs_per_s", latencies.len() as f64 / wall, "jobs/s");
    out.metric("job_ms_p50", median(&latencies), "ms");
    out.metric("job_ms_p90", percentile(&latencies, 90.0), "ms");
    match fidelity {
        Some(f) => {
            out.metric("paper_err_speedup", f.speedup_error(), "ratio");
            out.metric("paper_err_coverage", f.coverage_error(), "fraction");
            out.note("shotgun_gmean_speedup", f.speedup);
            out.note("shotgun_mean_coverage", f.coverage);
        }
        None => out
            .tally
            .check(false, || "no fig1/6/7 job completed".into()),
    }
    out.note("job", "one submit-to-report round trip");
    out.note("job_samples", latencies.len());
    out.note("job_p90_samples_beyond", beyond(&latencies, 90.0));
    out.note("episodes", n);
    out.note("setup_samples", format!("{} daemon starts", setups.len()));
    let listed: Vec<String> = setups
        .chunks(SETUP_BATCH)
        .map(|s| format!("{:.4}", median(s) * 1e3))
        .collect();
    out.note("setup_ms_batch_medians", listed.join(" "));
    out.note("jobs_per_episode", jobs.len());
    out.note("fidelity_seed", format!("{EVAL_SEED:#x}"));
    out
}
