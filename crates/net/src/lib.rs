//! imci_net — epoll-based reactor service tier with admission control
//! and overload shedding.
//!
//! The service tier that fronts the database (paper §3: proxy nodes
//! route traffic to RW/RO nodes; a node must hold thousands of mostly
//! idle connections without a thread per connection). It is protocol
//! agnostic: a [`Proto`] implementation supplies framing, execution,
//! and the wire shape of rejections; this crate supplies the threads,
//! the readiness loop, ordering, fairness, and the budgets.
//!
//! ```text
//!                 ┌──────────┐  accept + connection budget
//!      clients ──▶│ acceptor │──────────────┐ round-robin
//!                 └──────────┘              ▼
//!            ┌────────────────────────────────────────────┐
//!            │ reactor threads (one epoll instance each)  │
//!            │   read → decode → admission → inline or    │
//!            │   unit queue; write-backpressure, idle     │
//!            │   timer wheel                              │
//!            └───────────────┬───────────▲────────────────┘
//!                    fair    │           │ dirty tokens +
//!                    queue   ▼           │ waker pipe
//!            ┌────────────────────────────────────────────┐
//!            │ workers: pop conn → run units → flush      │
//!            └────────────────────────────────────────────┘
//! ```
//!
//! Per-connection life cycle (driven by readiness, never by blocking):
//!
//! ```text
//!   read ──▶ decode ──▶ admit ──────────▶ conn idle and unit never blocks?
//!    ▲                    │ full             ▲        │ yes           │ no
//!    │                    ▼                  │        ▼               ▼
//!    │          reject: retryable busy ──────┘    try_inline ─────▶ queue ──▶ run
//!    │          unit, in response order           (reactor)  declined      (worker)
//!    │                                                │                       │
//!    │                                                ▼                       │
//!    │                         pause reads ◀─────── flush ◀───────────────────┘
//!    └──────────────────────── until drained  backlog
//! ```
//!
//! Inline answers: the worker handoff (an epoll wake, a condvar wake
//! of a worker, a write from a second thread) costs more than a cheap
//! unit itself. When a unit finds its connection idle — nothing queued,
//! no worker holding it — the reactor holds the connection the way a
//! worker would and offers the unit to [`Proto::try_inline`]; a unit
//! the protocol cannot answer without blocking comes back and goes to
//! a worker. At most `worker_quantum` cost is answered inline per
//! connection per readiness pass, so a pipelined burst is handed off
//! instead of holding the reactor.
//!
//! Overload policy: budgets shed work instead of queueing it. A full
//! connection budget answers with one busy frame at accept; a full
//! statement queue turns the statement into an in-order retryable
//! rejection; a drain or idle timeout injects a farewell unit that is
//! answered after all accepted work, then the socket closes.
//! Connections still in the listen backlog at shutdown get the drain
//! refusal frame instead of a bare EOF.

mod admission;
mod buf;
mod conn;
mod reactor;
mod timer;

pub use buf::InputBuf;

use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::{Interest, Poller};

use admission::{Admission, FairQueue};
use reactor::{Shared, LISTENER_TOKEN, WAKE_TOKEN};

/// One step of frame decoding.
pub enum Step<U> {
    /// The buffer does not hold a full frame yet.
    NeedMore,
    /// One decoded unit of work.
    Unit(U),
    /// A final unit after which no more input is decodable (protocol
    /// violation, or an explicit quit): run it, then close.
    Poison(U),
}

/// Why the service tier is saying goodbye to a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Goodbye {
    /// Graceful shutdown: accepted work ran; the server is going away.
    Drain,
    /// The connection sat idle past the configured timeout.
    IdleTimeout,
}

/// Why the acceptor turns a connection away before any session exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The connection budget is exhausted.
    OverBudget,
    /// Graceful shutdown began while the connection waited in the
    /// listen backlog.
    Drain,
}

/// What `Proto::run` decided about the connection's future.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOutcome {
    /// Close the connection once the produced output is flushed.
    pub close: bool,
}

/// A wire protocol hosted by the reactor tier.
///
/// Decoding runs on reactor threads and must never block; execution
/// runs on worker threads and may, except for units the protocol
/// answers inline ([`Proto::try_inline`]), which run on the reactor
/// and must not. Units flow strictly in arrival order per connection,
/// so responses are ordered even under pipelining.
pub trait Proto: Send + Sync + 'static {
    /// Reactor-side framing state (one per connection).
    type Parse: Send + 'static;
    /// Worker-side session state (one per connection).
    type Exec: Send + 'static;
    /// One ordered, executable request.
    type Unit: Send + 'static;

    /// Fresh per-connection state.
    fn open(&self) -> (Self::Parse, Self::Exec);

    /// Carve the next unit off the front of `buf`.
    fn decode(&self, parse: &mut Self::Parse, buf: &mut InputBuf) -> Step<Self::Unit>;

    /// Admission cost of a unit (0 = control-plane, always admitted).
    fn cost(&self, unit: &Self::Unit) -> usize;

    /// Tenant this unit switches the connection to, if any, for fair
    /// scheduling.
    fn tenant_of<'u>(&self, _unit: &'u Self::Unit) -> Option<&'u str> {
        None
    }

    /// Replace a shed unit with one that produces the protocol's
    /// retryable busy response in its place.
    fn reject(&self, unit: Self::Unit) -> Self::Unit;

    /// A final unit that tells the client why the server is closing.
    fn goodbye(&self, why: Goodbye) -> Self::Unit;

    /// Raw bytes written to a connection the acceptor turns away,
    /// before any session exists.
    fn refusal_frame(&self, why: Refusal) -> Vec<u8>;

    /// Execute a batch of ordered units, appending responses to `out`.
    fn run(&self, exec: &mut Self::Exec, units: Vec<Self::Unit>, out: &mut Vec<u8>) -> RunOutcome;

    /// Answer `unit` on the reactor thread, skipping the worker
    /// handoff. Called only when the connection has nothing queued and
    /// nothing running on a worker, so ordering holds. Implementations
    /// must return `Err(unit)` unchanged for anything that could block
    /// — a lock wait, a storage read, a replication wait — and the unit
    /// then goes to a worker as usual. The default runs nothing inline.
    fn try_inline(
        &self,
        _exec: &mut Self::Exec,
        unit: Self::Unit,
        _out: &mut Vec<u8>,
    ) -> Result<RunOutcome, Self::Unit> {
        Err(unit)
    }
}

/// Service-tier configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Event-loop threads. Connections are spread round-robin.
    pub reactors: usize,
    /// Execution threads shared by all connections.
    pub workers: usize,
    /// Hard cap on concurrently open sessions.
    pub max_connections: usize,
    /// Cap on total queued admission cost; beyond it statements are
    /// shed with a retryable busy error.
    pub max_queued_statements: usize,
    /// Close connections with no inbound traffic for this long.
    pub idle_timeout: Option<Duration>,
    /// How long a graceful shutdown waits for sessions to finish
    /// before force-closing them.
    pub drain_timeout: Duration,
    /// Max admission cost one worker turn drains from one connection
    /// before rotating to the next tenant (fairness granularity). Also
    /// bounds how many units a reactor answers inline for one
    /// connection per readiness pass before handing the rest off.
    pub worker_quantum: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: cores.clamp(1, 4),
            workers: 16,
            max_connections: 4096,
            max_queued_statements: 1024,
            idle_timeout: Some(Duration::from_secs(300)),
            drain_timeout: Duration::from_secs(5),
            worker_quantum: 64,
        }
    }
}

/// Counters exposed by the service tier. The embedding server shares
/// this struct with its protocol so `queries`/`errors` sit next to the
/// connection-level counters.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Connections ever accepted (including ones later shed).
    pub connections: AtomicU64,
    /// Statements executed (maintained by the protocol).
    pub queries: AtomicU64,
    /// Statements that returned an error (maintained by the protocol).
    pub errors: AtomicU64,
    /// Currently open sessions.
    pub active_sessions: AtomicUsize,
    /// Connections refused by the connection budget.
    pub busy_rejected_conns: AtomicU64,
    /// Statements shed by the statement-queue budget.
    pub busy_rejected_stmts: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closed: AtomicU64,
    /// Connections sent a drain goodbye during graceful shutdown,
    /// including ones still waiting in the accept backlog (the
    /// shutdown's own wake-up connection among them).
    pub drained: AtomicU64,
    /// Automatic promotions observed (maintained by the protocol,
    /// mirrored from the cluster supervisor).
    pub auto_failovers: AtomicU64,
    /// Statements transparently replayed against a new writer after a
    /// failover error (maintained by the protocol).
    pub replayed_stmts: AtomicU64,
    /// Detection latency of the last auto-failover, in milliseconds
    /// (maintained by the protocol, mirrored from the supervisor).
    pub detection_ms_last: AtomicU64,
}

/// A running reactor service. Dropping it shuts down gracefully.
pub struct NetServer<P: Proto> {
    shared: Arc<Shared<P>>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    /// Wakes the acceptor's poll so it sees `stop_accept`.
    acceptor_wake: UnixStream,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    done: bool,
}

impl<P: Proto> NetServer<P> {
    /// Bind, spawn acceptor + reactor + worker threads, and serve
    /// `proto` until [`NetServer::shutdown`].
    pub fn start(
        proto: Arc<P>,
        config: NetConfig,
        stats: Arc<ServiceStats>,
    ) -> io::Result<NetServer<P>> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // The acceptor waits for readiness on the listener and on a
        // waker the shutdown writes to, so it never parks in accept().
        listener.set_nonblocking(true)?;
        let (acceptor_wake, acceptor_wake_rx) = UnixStream::pair()?;
        acceptor_wake.set_nonblocking(true)?;
        acceptor_wake_rx.set_nonblocking(true)?;
        let mut acceptor_poller = Poller::new()?;
        acceptor_poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        acceptor_poller.add(acceptor_wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
        let nreactors = config.reactors.max(1);
        let nworkers = config.workers.max(1);

        let mut reactor_shared = Vec::with_capacity(nreactors);
        let mut reactor_parts = Vec::with_capacity(nreactors);
        for _ in 0..nreactors {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let mut poller = Poller::new()?;
            poller.add(rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
            reactor_shared.push(Arc::new(reactor::ReactorShared::new(tx)));
            reactor_parts.push((poller, rx));
        }

        let shared = Arc::new(Shared {
            proto,
            admission: Admission::new(config.max_connections, config.max_queued_statements),
            queue: FairQueue::new(),
            reactors: reactor_shared,
            epoch: Instant::now(),
            next_token: AtomicU64::new(0),
            stop_accept: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            force_close: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            stats,
            config,
        });

        let mut reactors = Vec::with_capacity(nreactors);
        for (i, (poller, rx)) in reactor_parts.into_iter().enumerate() {
            let shared = shared.clone();
            let rs = shared.reactors[i].clone();
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("imci-reactor-{i}"))
                    .spawn(move || reactor::reactor_loop(shared, rs, poller, rx))?,
            );
        }
        let mut workers = Vec::with_capacity(nworkers);
        for i in 0..nworkers {
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("imci-worker-{i}"))
                    .spawn(move || reactor::worker_loop(shared))?,
            );
        }
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("imci-acceptor".to_string())
                .spawn(move || {
                    reactor::acceptor_loop(shared, listener, acceptor_poller, acceptor_wake_rx)
                })?
        };

        Ok(NetServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            acceptor_wake,
            reactors,
            workers,
            done: false,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn stats(&self) -> &ServiceStats {
        &self.shared.stats
    }

    /// Graceful shutdown: stop accepting, let queued statements finish,
    /// send every session a farewell frame, then close. Sessions still
    /// open after `drain_timeout` are force-closed.
    pub fn shutdown(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let shared = &self.shared;

        // The acceptor answers what is left in the listen backlog with
        // a drain refusal, then exits and closes the listener, so later
        // connects are refused by the kernel.
        shared.stop_accept.store(true, Ordering::SeqCst);
        let _ = (&self.acceptor_wake).write(&[1]);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }

        shared.draining.store(true, Ordering::SeqCst);
        shared.wake_all();
        let deadline = Instant::now() + shared.config.drain_timeout;
        while shared.stats.active_sessions.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if shared.stats.active_sessions.load(Ordering::SeqCst) > 0 {
            shared.force_close.store(true, Ordering::SeqCst);
            let force_deadline = Instant::now() + Duration::from_secs(1);
            while shared.stats.active_sessions.load(Ordering::SeqCst) > 0
                && Instant::now() < force_deadline
            {
                shared.wake_all();
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        // Workers first (they may still be flushing final frames), then
        // the reactors that own the sockets.
        shared.queue.stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        shared.stop.store(true, Ordering::SeqCst);
        shared.wake_all();
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
    }
}

impl<P: Proto> Drop for NetServer<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// Line-echo protocol exercising every service-tier hook: `echo:`
    /// replies, `slow` statements that occupy a worker, `tenant <t>`
    /// switches the fairness lane, `quit` closes. `fast:` lines may be
    /// answered inline and name the thread that answered them
    /// (`fast:spin` busies that thread for 2 ms first, `fast:quit`
    /// closes after its reply).
    struct EchoProto {
        slow_ms: u64,
    }

    enum EchoUnit {
        Line(String),
        Busy,
        Bye(&'static str),
        Quit,
    }

    impl Proto for EchoProto {
        type Parse = ();
        type Exec = u64;
        type Unit = EchoUnit;

        fn open(&self) -> ((), u64) {
            ((), 0)
        }

        fn decode(&self, _p: &mut (), buf: &mut InputBuf) -> Step<EchoUnit> {
            match buf.take_line() {
                None => Step::NeedMore,
                Some(raw) => {
                    let line = String::from_utf8_lossy(&raw).trim().to_string();
                    if line == "quit" {
                        Step::Poison(EchoUnit::Quit)
                    } else {
                        Step::Unit(EchoUnit::Line(line))
                    }
                }
            }
        }

        fn cost(&self, unit: &EchoUnit) -> usize {
            match unit {
                EchoUnit::Line(l) if !l.starts_with("tenant ") => 1,
                _ => 0,
            }
        }

        fn tenant_of<'u>(&self, unit: &'u EchoUnit) -> Option<&'u str> {
            match unit {
                EchoUnit::Line(l) => l.strip_prefix("tenant "),
                _ => None,
            }
        }

        fn reject(&self, _unit: EchoUnit) -> EchoUnit {
            EchoUnit::Busy
        }

        fn goodbye(&self, why: Goodbye) -> EchoUnit {
            EchoUnit::Bye(match why {
                Goodbye::Drain => "drain",
                Goodbye::IdleTimeout => "idle",
            })
        }

        fn refusal_frame(&self, why: Refusal) -> Vec<u8> {
            match why {
                Refusal::OverBudget => b"busy: connection budget\n".to_vec(),
                // Same words as the in-session drain goodbye.
                Refusal::Drain => b"bye: drain\n".to_vec(),
            }
        }

        fn run(&self, exec: &mut u64, units: Vec<EchoUnit>, out: &mut Vec<u8>) -> RunOutcome {
            let mut outcome = RunOutcome::default();
            for unit in units {
                match unit {
                    EchoUnit::Line(l) if l.starts_with("fast:") => {
                        outcome.close |= answer_fast(&l, out);
                    }
                    EchoUnit::Line(l) => {
                        if l.starts_with("slow") {
                            std::thread::sleep(Duration::from_millis(self.slow_ms));
                        }
                        *exec += 1;
                        out.extend_from_slice(format!("echo: {l}\n").as_bytes());
                    }
                    EchoUnit::Busy => out.extend_from_slice(b"busy: queue full\n"),
                    EchoUnit::Bye(why) => {
                        out.extend_from_slice(format!("bye: {why}\n").as_bytes());
                        outcome.close = true;
                    }
                    EchoUnit::Quit => outcome.close = true,
                }
            }
            outcome
        }

        fn try_inline(
            &self,
            _exec: &mut u64,
            unit: EchoUnit,
            out: &mut Vec<u8>,
        ) -> Result<RunOutcome, EchoUnit> {
            match unit {
                EchoUnit::Line(l) if l.starts_with("fast:") => Ok(RunOutcome {
                    close: answer_fast(&l, out),
                }),
                other => Err(other),
            }
        }
    }

    /// Reply to a `fast:` line as `<line> on <thread name>`; true when
    /// the line asks to close.
    fn answer_fast(line: &str, out: &mut Vec<u8>) -> bool {
        if line == "fast:spin" {
            let until = Instant::now() + Duration::from_millis(2);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        let thread = std::thread::current();
        let name = thread.name().unwrap_or("?");
        out.extend_from_slice(format!("{line} on {name}\n").as_bytes());
        line == "fast:quit"
    }

    fn echo_server(slow_ms: u64, tweak: impl FnOnce(&mut NetConfig)) -> NetServer<EchoProto> {
        let mut config = NetConfig {
            reactors: 1,
            workers: 2,
            ..NetConfig::default()
        };
        tweak(&mut config);
        NetServer::start(
            Arc::new(EchoProto { slow_ms }),
            config,
            Arc::new(ServiceStats::default()),
        )
        .expect("start echo server")
    }

    fn read_line(r: &mut impl BufRead) -> String {
        let mut s = String::new();
        r.read_line(&mut s).expect("read line");
        s
    }

    #[test]
    fn echoes_pipelined_lines_in_order() {
        let mut srv = echo_server(0, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut req = String::new();
        for i in 0..100 {
            req.push_str(&format!("msg-{i}\n"));
        }
        conn.write_all(req.as_bytes()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for i in 0..100 {
            assert_eq!(read_line(&mut reader), format!("echo: msg-{i}\n"));
        }
        conn.write_all(b"quit\n").unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "quit closes without a frame");
        srv.shutdown();
        assert_eq!(srv.stats().active_sessions.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn half_close_after_burst_still_answers_every_request() {
        // Write-then-shutdown(Write) clients deliver their requests and
        // the FIN in the same epoll pass (EPOLLIN|EPOLLRDHUP in one
        // event). The reactor once pre-set eof from the hangup flag,
        // which skipped the read loop and closed without answering the
        // buffered requests.
        let mut srv = echo_server(0, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut req = String::new();
        for i in 0..20 {
            req.push_str(&format!("fin-{i}\n"));
        }
        conn.write_all(req.as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(conn);
        for i in 0..20 {
            assert_eq!(read_line(&mut reader), format!("echo: fin-{i}\n"));
        }
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "server closes cleanly after the final reply");
        srv.shutdown();
        assert_eq!(srv.stats().active_sessions.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn saturated_statement_queue_sheds_with_ordered_busy_replies() {
        let mut srv = echo_server(300, |c| {
            c.workers = 1;
            c.max_queued_statements = 2;
        });
        // Occupy the single worker with a slow statement.
        let mut hog = TcpStream::connect(srv.local_addr()).unwrap();
        hog.write_all(b"slow-1\n").unwrap();
        std::thread::sleep(Duration::from_millis(60));

        // Burst past the queue budget on a second connection.
        let mut burst = TcpStream::connect(srv.local_addr()).unwrap();
        for i in 0..10 {
            burst.write_all(format!("b-{i}\n").as_bytes()).unwrap();
        }
        let mut reader = BufReader::new(burst.try_clone().unwrap());
        let replies: Vec<String> = (0..10).map(|_| read_line(&mut reader)).collect();
        let busy = replies.iter().filter(|r| r.starts_with("busy:")).count();
        let echoed = replies.iter().filter(|r| r.starts_with("echo:")).count();
        assert!(busy > 0, "queue budget must shed: {replies:?}");
        assert_eq!(busy + echoed, 10, "every request gets a reply in order");
        assert!(
            srv.stats().busy_rejected_stmts.load(Ordering::SeqCst) >= busy as u64,
            "shed statements are counted"
        );

        // The shed connection is still usable once load passes.
        let mut reader2 = BufReader::new(BufReader::into_inner(reader));
        drop(hog);
        std::thread::sleep(Duration::from_millis(350));
        burst.write_all(b"after\n").unwrap();
        assert_eq!(read_line(&mut reader2), "echo: after\n");
        srv.shutdown();
    }

    #[test]
    fn connection_budget_refuses_with_busy_frame_and_frees_on_close() {
        let mut srv = echo_server(0, |c| c.max_connections = 1);
        let mut first = TcpStream::connect(srv.local_addr()).unwrap();
        first.write_all(b"hi\n").unwrap();
        let mut reader = BufReader::new(first.try_clone().unwrap());
        assert_eq!(read_line(&mut reader), "echo: hi\n");

        let mut second = TcpStream::connect(srv.local_addr()).unwrap();
        let mut refusal = String::new();
        second.read_to_string(&mut refusal).unwrap();
        assert_eq!(refusal, "busy: connection budget\n");
        assert_eq!(srv.stats().busy_rejected_conns.load(Ordering::SeqCst), 1);

        // Budget is released once the first connection closes.
        first.write_all(b"quit\n").unwrap();
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut third_reply = String::new();
        while Instant::now() < deadline {
            let mut third = TcpStream::connect(srv.local_addr()).unwrap();
            third.write_all(b"again\n").unwrap();
            third_reply.clear();
            let mut r = BufReader::new(third);
            r.read_line(&mut third_reply).unwrap();
            if third_reply == "echo: again\n" {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(third_reply, "echo: again\n");
        srv.shutdown();
    }

    #[test]
    fn idle_connections_get_a_goodbye_then_eof() {
        let mut srv = echo_server(0, |c| c.idle_timeout = Some(Duration::from_millis(100)));
        let conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut reader = BufReader::new(conn);
        let start = Instant::now();
        assert_eq!(read_line(&mut reader), "bye: idle\n");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "");
        assert!(
            start.elapsed() >= Duration::from_millis(90),
            "not closed before the timeout"
        );
        assert_eq!(srv.stats().idle_closed.load(Ordering::SeqCst), 1);
        srv.shutdown();
    }

    #[test]
    fn active_traffic_is_not_idle_closed() {
        let mut srv = echo_server(0, |c| c.idle_timeout = Some(Duration::from_millis(150)));
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        // Keep touching the connection for 3 timeout-lengths.
        for i in 0..9 {
            std::thread::sleep(Duration::from_millis(50));
            conn.write_all(format!("ping-{i}\n").as_bytes()).unwrap();
            assert_eq!(read_line(&mut reader), format!("echo: ping-{i}\n"));
        }
        assert_eq!(srv.stats().idle_closed.load(Ordering::SeqCst), 0);
        srv.shutdown();
    }

    #[test]
    fn graceful_drain_answers_queued_work_then_says_goodbye() {
        let mut srv = echo_server(100, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        conn.write_all(b"slow-before-drain\n").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let handle = std::thread::spawn(move || {
            srv.shutdown();
            srv
        });
        let mut reader = BufReader::new(conn);
        assert_eq!(read_line(&mut reader), "echo: slow-before-drain\n");
        assert_eq!(read_line(&mut reader), "bye: drain\n");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "");
        let srv = handle.join().unwrap();
        assert_eq!(srv.stats().active_sessions.load(Ordering::SeqCst), 0);
        assert_eq!(srv.stats().drained.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn light_tenant_is_not_starved_by_heavy_pipeliner() {
        let mut srv = echo_server(40, |c| {
            c.workers = 1;
            c.worker_quantum = 1;
        });
        let mut heavy = TcpStream::connect(srv.local_addr()).unwrap();
        heavy.write_all(b"tenant heavy\n").unwrap();
        let mut req = String::new();
        for i in 0..20 {
            req.push_str(&format!("slow-h{i}\n"));
        }
        heavy.write_all(req.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(60));

        let mut light = TcpStream::connect(srv.local_addr()).unwrap();
        light.write_all(b"tenant light\nslow-l0\n").unwrap();
        let start = Instant::now();
        let mut reader = BufReader::new(light);
        assert_eq!(read_line(&mut reader), "echo: tenant light\n");
        assert_eq!(read_line(&mut reader), "echo: slow-l0\n");
        let waited = start.elapsed();
        // Round-robin lanes: the light tenant waits O(one quantum), not
        // for the heavy tenant's whole 20 × 40ms backlog.
        assert!(
            waited < Duration::from_millis(400),
            "light tenant starved for {waited:?}"
        );
        srv.shutdown();
    }

    #[test]
    fn slow_loris_byte_at_a_time_still_gets_served() {
        let mut srv = echo_server(0, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        for b in b"dripfeed\n" {
            conn.write_all(&[*b]).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut reader = BufReader::new(conn);
        assert_eq!(read_line(&mut reader), "echo: dripfeed\n");
        srv.shutdown();
    }

    /// Replies to `n` requests, read in order.
    fn read_lines(r: &mut impl BufRead, n: usize) -> Vec<String> {
        (0..n).map(|_| read_line(r)).collect()
    }

    fn answered_on_reactor(reply: &str) -> bool {
        reply.contains(" on imci-reactor-")
    }

    #[test]
    fn pipelined_mix_of_inline_and_worker_units_answers_in_order() {
        let mut srv = echo_server(100, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        // One write, decoded in one pass: everything after `slow-1` is
        // queued while `slow-1` holds a worker for 100 ms.
        conn.write_all(b"fast:a\nslow-1\nfast:b\nm2\nfast:c\nslow-3\nfast:d\n")
            .unwrap();
        let replies = read_lines(&mut reader, 7);
        let prefixes = [
            "fast:a on ",
            "echo: slow-1",
            "fast:b on ",
            "echo: m2",
            "fast:c on ",
            "echo: slow-3",
            "fast:d on ",
        ];
        for (reply, prefix) in replies.iter().zip(prefixes) {
            assert!(reply.starts_with(prefix), "{replies:?}");
        }
        // The first unit found the connection idle; everything behind a
        // unit still on a worker stayed behind it, on a worker.
        assert!(answered_on_reactor(&replies[0]), "{replies:?}");
        for fast in [&replies[2], &replies[4], &replies[6]] {
            assert!(fast.contains(" on imci-worker-"), "{replies:?}");
        }
        // Idle again: the next fast line is answered inline.
        conn.write_all(b"fast:e\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(answered_on_reactor(&reply), "{reply}");
        srv.shutdown();
    }

    #[test]
    fn unit_behind_a_worker_held_unit_is_not_answered_inline() {
        let mut srv = echo_server(200, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        conn.write_all(b"slow-1\n").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.write_all(b"fast:x\n").unwrap();
        assert_eq!(read_line(&mut reader), "echo: slow-1\n");
        let reply = read_line(&mut reader);
        assert!(reply.starts_with("fast:x on imci-worker-"), "{reply}");
        srv.shutdown();
    }

    #[test]
    fn inline_burst_past_the_quantum_does_not_starve_a_sibling() {
        let quantum = 4;
        let mut srv = echo_server(0, |c| {
            c.workers = 1;
            c.worker_quantum = quantum;
        });
        let mut heavy = TcpStream::connect(srv.local_addr()).unwrap();
        let mut light = TcpStream::connect(srv.local_addr()).unwrap();
        // Both registered on the one reactor before the burst.
        heavy.write_all(b"fast:warm\n").unwrap();
        light.write_all(b"fast:warm\n").unwrap();
        let mut heavy_r = BufReader::new(heavy.try_clone().unwrap());
        let mut light_r = BufReader::new(light.try_clone().unwrap());
        read_line(&mut heavy_r);
        read_line(&mut light_r);

        // 200 × 2 ms of inline work would hold the reactor for 400 ms.
        let burst = 200;
        heavy
            .write_all("fast:spin\n".repeat(burst).as_bytes())
            .unwrap();
        let start = Instant::now();
        light.write_all(b"fast:light\n").unwrap();
        let reply = read_line(&mut light_r);
        let waited = start.elapsed();
        assert!(reply.starts_with("fast:light on "), "{reply}");
        assert!(
            waited < Duration::from_millis(200),
            "sibling waited {waited:?} behind the burst"
        );
        let replies = read_lines(&mut heavy_r, burst);
        assert!(replies.iter().all(|r| r.starts_with("fast:spin on ")));
        let inline = replies.iter().filter(|r| answered_on_reactor(r)).count();
        assert!(
            (1..=quantum).contains(&inline),
            "{inline} of the burst ran inline; the rest must be handed off"
        );
        srv.shutdown();
    }

    #[test]
    fn inline_close_shuts_the_connection_down_cleanly() {
        let mut srv = echo_server(0, |_| {});
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        conn.write_all(b"fast:quit\nafter-close\n").unwrap();
        let mut reader = BufReader::new(conn);
        let reply = read_line(&mut reader);
        assert!(reply.starts_with("fast:quit on imci-reactor-"), "{reply}");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "nothing after the close, then EOF");
        let deadline = Instant::now() + Duration::from_secs(2);
        while srv.stats().active_sessions.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(srv.stats().active_sessions.load(Ordering::SeqCst), 0);
        srv.shutdown();
    }

    #[test]
    fn shutdown_says_goodbye_to_clients_still_in_the_accept_backlog() {
        // Clients that connect right before shutdown race the acceptor:
        // some are sessions by then, some still wait in the listen
        // backlog. Every one must read the goodbye, then EOF.
        for round in 0..50 {
            let mut srv = echo_server(0, |_| {});
            let clients: Vec<TcpStream> = (0..4)
                .map(|_| TcpStream::connect(srv.local_addr()).unwrap())
                .collect();
            srv.shutdown();
            for (i, c) in clients.into_iter().enumerate() {
                c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut reader = BufReader::new(c);
                assert_eq!(
                    read_line(&mut reader),
                    "bye: drain\n",
                    "round {round} client {i}"
                );
                let mut rest = String::new();
                reader.read_to_string(&mut rest).unwrap();
                assert_eq!(rest, "", "round {round} client {i}: EOF after goodbye");
            }
        }
    }
}
