//! The TCP front of the service: accepts connections, speaks the
//! [`protocol`](crate::protocol), and forwards jobs to an
//! [`ExperimentService`].
//!
//! A dedicated acceptor thread blocks in `accept()`, so a connection is
//! taken the moment it arrives. The thread in [`Server::run_until`]
//! polls the caller's shutdown flag; once the flag is set it wakes the
//! acceptor with a connection to the listener's own port, then drains:
//! the service layer finishes the in-flight cell and flushes its
//! checkpoint, and the connection handlers are joined. One connection
//! carries one job; per-connection handler threads stream progress as
//! the worker produces it. Every connection reads and writes under
//! a constant timeout, so a client that connects and then says nothing
//! cannot hold the drain open.

use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    accepted_message, error_message, progress_message, read_message, report_message, write_frame,
    write_message,
};
use crate::service::{ExperimentService, JobSpec, JobState};

/// How often [`Server::run_until`] re-checks the caller's shutdown
/// flag; it returns about this long after the flag is set, plus the
/// drain.
const STOP_POLL: Duration = Duration::from_millis(25);

/// How long the shutdown wake-up connection may take to establish.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long one read or write on a client connection may block before
/// its handler gives up on the client. The drain joins every handler,
/// so this bounds how long a silent client can delay shutdown.
const CONN_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection handlers still to join at shutdown.
type Handlers = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// A bound TCP server over an experiment service.
pub struct Server {
    listener: TcpListener,
    service: Arc<ExperimentService>,
}

impl Server {
    /// Binds to `addr` (use port 0 to let the OS pick — tests and the
    /// bench smoke do).
    pub fn bind(service: Arc<ExperimentService>, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, service })
    }

    /// The bound address, e.g. to print or to hand to a client.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `stop` becomes true, then drains: stops accepting,
    /// shuts the service down gracefully (in-flight cell completes and
    /// persists), and joins the connection handlers. Returns at once,
    /// drained, when the acceptor thread cannot be started.
    pub fn run_until(&self, stop: &AtomicBool) {
        let closing = Arc::new(AtomicBool::new(false));
        let handlers = Handlers::default();
        let acceptor = self.listener.try_clone().and_then(|listener| {
            let closing = Arc::clone(&closing);
            let service = Arc::clone(&self.service);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("fe-serve-accept".into())
                .spawn(move || accept_until(&listener, &closing, &service, &handlers))
        });
        match acceptor {
            Ok(acceptor) => {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(STOP_POLL);
                }
                closing.store(true, Ordering::SeqCst);
                match self.wake_acceptor() {
                    Ok(()) => {
                        let _ = acceptor.join();
                    }
                    // Left detached: it exits on its next connection.
                    Err(e) => eprintln!("fe-serve: cannot wake the acceptor: {e}"),
                }
            }
            Err(e) => eprintln!("fe-serve: cannot start the acceptor: {e}"),
        }
        self.service.shutdown();
        let handlers = std::mem::take(
            &mut *handlers
                .lock()
                .expect("handler list poisoned: the acceptor panicked"),
        );
        for handler in handlers {
            let _ = handler.join();
        }
    }

    /// Unblocks the acceptor's `accept()` by connecting to the
    /// listener's own port — over loopback when bound to the
    /// unspecified address, which accepts but cannot be dialled.
    fn wake_acceptor(&self) -> io::Result<()> {
        let mut addr = self.listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).map(drop)
    }
}

/// The acceptor: takes connections as they arrive and hands each to its
/// own handler thread, until `closing` is seen after an accept (the
/// shutdown wake-up, or a client that arrived too late, is dropped).
fn accept_until(
    listener: &TcpListener,
    closing: &AtomicBool,
    service: &Arc<ExperimentService>,
    handlers: &Handlers,
) {
    loop {
        let accepted = listener.accept();
        if closing.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((conn, _peer)) => {
                let service = Arc::clone(service);
                let handler = std::thread::spawn(move || handle_connection(conn, &service));
                let mut handlers = handlers
                    .lock()
                    .expect("handler list poisoned: the drain panicked");
                handlers.retain(|h| !h.is_finished());
                handlers.push(handler);
            }
            Err(e) => {
                eprintln!("fe-serve: accept failed: {e}");
                // Transient (e.g. out of descriptors): back off rather
                // than spin.
                std::thread::sleep(STOP_POLL);
            }
        }
    }
}

/// Speaks one job's worth of protocol on `conn`. Protocol errors are
/// reported to the client when the socket still works, and logged
/// otherwise; a broken client never takes the daemon down.
fn handle_connection(mut conn: TcpStream, service: &ExperimentService) {
    if let Err(e) = try_handle(&mut conn, service) {
        let _ = write_message(&mut conn, &error_message(&e));
    }
}

fn try_handle(conn: &mut TcpStream, service: &ExperimentService) -> Result<(), String> {
    conn.set_read_timeout(Some(CONN_TIMEOUT))
        .and_then(|()| conn.set_write_timeout(Some(CONN_TIMEOUT)))
        .map_err(|e| format!("setting connection timeouts: {e}"))?;
    let msg = read_message(conn)
        .map_err(|e| format!("reading submit: {e}"))?
        .ok_or("connection closed before a submit")?;
    match msg.req("type").and_then(|t| Ok(t.as_str()?.to_string())) {
        Ok(kind) if kind == "submit" => {}
        Ok(kind) => return Err(format!("expected a submit, got `{kind}`")),
        Err(e) => return Err(e),
    }
    let spec = JobSpec::from_json(msg.req("job")?)?;
    let (id, progress) = service.submit(&spec)?;
    write_message(conn, &accepted_message(id, spec.cell_count()))
        .map_err(|e| format!("writing accept: {e}"))?;
    // Stream progress until the worker drops the sender (job done or
    // interrupted). A vanished client only kills its own streaming.
    for tick in progress {
        if write_message(conn, &progress_message(&tick)).is_err() {
            break;
        }
    }
    match service.wait(id) {
        Some(JobState::Done(report)) => write_message(conn, &report_message(id))
            .and_then(|()| write_frame(conn, report.as_bytes()))
            .and_then(|()| conn.flush())
            .map_err(|e| format!("writing report: {e}")),
        Some(JobState::Interrupted) => {
            Err("job interrupted by shutdown; resubmit after restart to resume".into())
        }
        Some(JobState::Failed(e)) => Err(e),
        Some(JobState::Queued | JobState::Running) | None => {
            Err("job vanished mid-run (service shutting down?)".into())
        }
    }
}
