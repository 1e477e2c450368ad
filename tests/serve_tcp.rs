//! TCP protocol round trip against a live `fe-serve` daemon core: a
//! repeated submission must be a 100% cache hit with a report
//! byte-identical to the computed one, and a hostile frame gets an
//! error reply without taking the daemon down. Also pins that
//! `Server::run_until` returns once its stop flag is set, whether or
//! not a connection was ever made, whatever address it is bound to, and
//! even while a client sits connected without sending anything.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use fe_serve::protocol::{read_message, write_frame};
use fe_serve::{submit_job, ExperimentService, JobSpec, JobWorkload, Server};
use fe_sim::{RunLength, SchemeSpec};

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fe-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 50_000,
};

#[test]
fn tcp_round_trip_serves_second_submission_from_cache() {
    let (running, root) = serve("tcp", "127.0.0.1:0");
    let addr = running.addr.clone();

    let spec = JobSpec {
        workloads: vec![JobWorkload {
            name: "nutch".into(),
            scale: Some(0.05),
        }],
        schemes: vec![SchemeSpec::NoPrefetch, SchemeSpec::shotgun()],
        len: LEN,
        seed: 9,
        sampling: None,
        threads: 1,
    };
    let total = spec.cell_count();

    let first = submit_job(&addr, &spec).expect("first submission");
    assert_eq!(first.progress.len(), total, "one tick per cell");
    assert_eq!(first.cached_cells(), 0, "cold cache computes everything");

    let second = submit_job(&addr, &spec).expect("second submission");
    assert_eq!(
        second.cached_cells(),
        total,
        "the repeated sweep must be a 100% cache hit"
    );
    assert_eq!(
        second.report, first.report,
        "served report must be byte-identical to the computed one"
    );
    assert!(second.job_id > first.job_id);

    running.stop_within_bound();
    let _ = std::fs::remove_dir_all(&root);
}

/// A served root: the server thread plus its stop flag.
struct Running {
    addr: String,
    stop: Arc<AtomicBool>,
    returned: mpsc::Receiver<()>,
}

/// Opens a service on a fresh root and serves it on `bind` from a
/// thread that reports when `run_until` returns.
fn serve(tag: &str, bind: &str) -> (Running, std::path::PathBuf) {
    let root = tmp_root(tag);
    let service = Arc::new(ExperimentService::open(&root).expect("opens"));
    let server = Server::bind(service, bind).expect("binds");
    let addr = server.local_addr().expect("bound").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, returned) = mpsc::channel();
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        server.run_until(&flag);
        let _ = tx.send(());
    });
    (
        Running {
            addr,
            stop,
            returned,
        },
        root,
    )
}

impl Running {
    /// Sets the stop flag and fails the test unless `run_until` returns
    /// within a generous bound (a hang fails instead of stalling).
    fn stop_within_bound(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.returned
            .recv_timeout(Duration::from_secs(30))
            .expect("run_until must return after stop is set");
    }
}

#[test]
fn run_until_returns_when_no_connection_was_ever_made() {
    let (running, root) = serve("stop-idle", "127.0.0.1:0");
    running.stop_within_bound();
    let _ = std::fs::remove_dir_all(&root);
}

/// A one-cell job.
fn one_cell_job() -> JobSpec {
    JobSpec {
        workloads: vec![JobWorkload {
            name: "nutch".into(),
            scale: Some(0.05),
        }],
        schemes: vec![SchemeSpec::NoPrefetch],
        len: LEN,
        seed: 9,
        sampling: None,
        threads: 1,
    }
}

#[test]
fn run_until_returns_after_a_served_job() {
    let (running, root) = serve("stop-served", "127.0.0.1:0");
    let outcome = submit_job(&running.addr, &one_cell_job()).expect("job served");
    assert_eq!(outcome.progress.len(), 1);
    running.stop_within_bound();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn silent_client_does_not_block_shutdown() {
    let (running, root) = serve("stop-silent", "127.0.0.1:0");
    // Connects and sends nothing: its handler waits for a submit.
    let mut silent = TcpStream::connect(&running.addr).expect("connects");
    let outcome = submit_job(&running.addr, &one_cell_job()).expect("daemon still serves");
    assert_eq!(outcome.progress.len(), 1);
    running.stop_within_bound();
    // The handler gave up on the silent client with an error reply.
    let reply = read_message(&mut silent)
        .expect("reply readable")
        .expect("an error reply, not a closed socket");
    assert_eq!(reply.req("type").unwrap().as_str().unwrap(), "error");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_frame_gets_an_error_and_the_daemon_keeps_serving() {
    let (running, root) = serve("deep", "127.0.0.1:0");
    // 100 KB of `[`, far under the frame cap: parsed on a handler
    // thread's default stack, it must come back as a parse error.
    let mut conn = TcpStream::connect(&running.addr).expect("connects");
    write_frame(&mut conn, "[".repeat(100_000).as_bytes()).expect("frame sent");
    let reply = read_message(&mut conn)
        .expect("reply readable")
        .expect("an error reply, not a closed socket");
    assert_eq!(reply.req("type").unwrap().as_str().unwrap(), "error");
    let message = reply.req("message").unwrap().as_str().unwrap();
    assert!(message.contains("nesting deeper"), "{message}");
    drop(conn);
    let outcome = submit_job(&running.addr, &one_cell_job()).expect("daemon still serves");
    assert_eq!(outcome.progress.len(), 1);
    running.stop_within_bound();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn run_until_returns_when_bound_to_the_unspecified_address() {
    // Bound to 0.0.0.0 the shutdown wake-up must dial loopback.
    let (running, root) = serve("stop-any", "0.0.0.0:0");
    assert!(running.addr.starts_with("0.0.0.0:"), "{}", running.addr);
    running.stop_within_bound();
    let _ = std::fs::remove_dir_all(&root);
}
