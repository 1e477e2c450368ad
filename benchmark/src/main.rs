#![forbid(unsafe_code)]
//! Command-line entry point of the benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload detail --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints the run context as one `context {...}` line, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero on a usage error.

use std::process::ExitCode;

use shotgun_benchmark::context::RunContext;
use shotgun_benchmark::{run, Config, Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(&m.unit)
            )
        })
        .collect();
    let correct = out.tally.failures.is_empty() && out.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted.max(1),
        out.tally.failed(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload detail|sampled|serve [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = Config::standard();
    let ctx = RunContext::detect();
    let out = run(args.workload, args.seed, args.seconds, args.trace, &cfg);
    for failure in &out.tally.failures {
        eprintln!("FAILED: {failure}");
    }
    if let Some(spans) = &out.spans {
        let path = format!("bench-spans-{}-{}.json", args.workload.name(), args.seed);
        let dir = std::path::Path::new(".bench_out");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(&path), spans)) {
            Ok(()) => eprintln!("spans written to {}", dir.join(&path).display()),
            Err(e) => eprintln!("warning: could not write spans: {e}"),
        }
    }
    let mut fields = vec![
        ("workload".to_string(), args.workload.name().to_string()),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), ctx.nproc.to_string()),
        ("threads".into(), cfg.threads.to_string()),
        ("cpu".into(), ctx.cpu),
        ("rustc".into(), ctx.rustc),
        ("commit".into(), ctx.commit),
    ];
    fields.extend(
        cfg.describe(args.workload)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v)),
    );
    fields.extend(out.notes.iter().cloned());
    let context: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    println!("context {{{}}}", context.join(", "));
    println!("{}", render(&out));
    ExitCode::SUCCESS
}
