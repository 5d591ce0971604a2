//! The reusable HTTP serving core: acceptor, bounded connection queue,
//! worker pool, connection registry and graceful-stop plumbing.
//!
//! ```text
//!   clients ──► acceptor ──► bounded queue ──► worker pool ──► handler
//!                   │ full?
//!                   └─► 429 + close (shed)
//! ```
//!
//! Extracted from the serving subsystem so both front-ends share one
//! implementation: [`crate::server::Server`] (the routing tier) mounts its
//! engine routes on it, and [`crate::partitiond::PartitionDaemon`] (one
//! partition's engine behind the partition protocol) mounts the protocol
//! routes. The core owns everything transport: admission control at the
//! connection level (a full queue answers `429 Too Many Requests` and
//! closes, spending no worker time), keep-alive serving with idle timeouts,
//! and a graceful stop that interrupts reads parked on idle keep-alive
//! peers while letting in-flight responses finish.
//!
//! What the core does **not** own is routing policy: the mounted
//! [`Handler`] decides every response, including how to answer during a
//! drain (the server 503s everything but `/healthz`; the daemon 503s
//! partition commands while still serving its health and metrics routes).

use crate::error::ServerError;
use crate::frame;
use crate::http::{read_request, write_response, Request, Response};
use crate::metrics::ServerMetrics;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of one serving core.
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Bounded connection-queue capacity; beyond it, connections are shed
    /// with 429.
    pub queue_capacity: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection may hold a worker thread
    /// before it is closed.
    pub idle_timeout: Duration,
}

/// A request handler mounted on the core. Receives every parsed request
/// plus the core's [`ShutdownHandle`], so a route can both read the stop
/// state (drain responses) and trigger the stop (admin shutdown routes).
pub type Handler = dyn Fn(&Request, &ShutdownHandle) -> Result<Response, ServerError> + Send + Sync;

/// A binary-frame handler mounted with [`HttpCore::start_with_frames`].
/// Receives every decoded request frame ([`frame::RequestFrame`]) from
/// connections that opened with the frame magic instead of an HTTP method
/// line; the reply frame is written back on the same connection. Handlers
/// report failures in-band as [`frame::ReplyBody::Error`]. The request is
/// handed over by value so a submit's events move into the engine.
pub type FrameHandler =
    dyn Fn(frame::RequestFrame, &ShutdownHandle) -> frame::ReplyFrame + Send + Sync;

/// The bounded hand-off between the acceptor and the worker pool.
struct ConnectionQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    capacity: usize,
}

impl ConnectionQueue {
    fn new(capacity: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Unwraps the result of locking the queue or of waiting on it — the
    /// queue's one lock site. Its holders only push, pop and measure a
    /// `VecDeque`, none of which panics, so the lock is never poisoned.
    fn held<T>(result: LockResult<T>) -> T {
        result.expect("connection queue lock poisoned")
    }

    /// Tries to enqueue; hands the stream back when the queue is saturated
    /// so the acceptor can shed it with a 429.
    fn offer(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut queue = Self::held(self.queue.lock());
        if queue.len() >= self.capacity {
            return Err(stream);
        }
        queue.push_back(stream);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops a connection, waiting up to `timeout`.
    fn poll(&self, timeout: Duration) -> Option<TcpStream> {
        let mut queue = Self::held(self.queue.lock());
        if let Some(stream) = queue.pop_front() {
            return Some(stream);
        }
        let (mut queue, _) = Self::held(self.ready.wait_timeout(queue, timeout));
        queue.pop_front()
    }
}

/// Open connections currently owned by worker threads, so shutdown can
/// interrupt reads blocked on idle keep-alive peers: closing the read side
/// turns the blocked `read_request` into a clean EOF while the write side
/// stays usable for an in-flight response.
#[derive(Default)]
struct ConnectionRegistry {
    streams: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

impl ConnectionRegistry {
    /// The registered streams, locked — the registry's one lock site. Its
    /// holders only insert, remove and shut down reads, none of which
    /// panics, so the lock is never poisoned.
    fn streams(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.streams
            .lock()
            .expect("connection registry lock poisoned")
    }

    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams().insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.streams().remove(&id);
    }

    fn shutdown_reads(&self) {
        for stream in self.streams().values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }
}

struct CoreShared {
    addr: SocketAddr,
    stop: AtomicBool,
    registry: ConnectionRegistry,
    metrics: Arc<ServerMetrics>,
    max_body_bytes: usize,
    idle_timeout: Duration,
}

/// A clonable handle onto the core's stop state: routes use it to answer
/// drain 503s and to trigger the stop from an admin shutdown route.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<CoreShared>,
}

impl ShutdownHandle {
    /// Has the stop been triggered?
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Raises the stop flag (idempotent), unblocks reads parked on idle
    /// keep-alive connections, and unblocks the acceptor's blocking
    /// `accept` with one last loopback connection.
    pub fn trigger(&self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.registry.shutdown_reads();
        let _ = TcpStream::connect(self.shared.addr);
    }
}

/// A running HTTP serving core. Mount a handler with [`HttpCore::start`],
/// stop it with [`HttpCore::stopper`]'s [`ShutdownHandle::trigger`], then
/// [`HttpCore::join`].
pub struct HttpCore {
    shared: Arc<CoreShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl HttpCore {
    /// Binds the address and starts the acceptor and worker pool, serving
    /// every parsed request through `handler`.
    pub fn start(
        config: ListenerConfig,
        metrics: Arc<ServerMetrics>,
        handler: Arc<Handler>,
    ) -> Result<HttpCore, ServerError> {
        Self::start_with_frames(config, metrics, handler, None)
    }

    /// Like [`HttpCore::start`], but additionally mounts a binary-frame
    /// handler. HTTP and frames share the one listener: a connection whose
    /// first byte is the frame magic (`0xB5` — not a byte any HTTP method
    /// line can start with) is served as a binary command stream, anything
    /// else as keep-alive HTTP.
    pub fn start_with_frames(
        config: ListenerConfig,
        metrics: Arc<ServerMetrics>,
        handler: Arc<Handler>,
        frame_handler: Option<Arc<FrameHandler>>,
    ) -> Result<HttpCore, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(CoreShared {
            addr,
            stop: AtomicBool::new(false),
            registry: ConnectionRegistry::default(),
            metrics: metrics.clone(),
            max_body_bytes: config.max_body_bytes,
            idle_timeout: config.idle_timeout,
        });
        let queue = Arc::new(ConnectionQueue::new(config.queue_capacity));

        let mut threads = Vec::new();
        let spawned = (0..config.threads.max(1))
            .try_for_each(|i| {
                let (q, sh, h) = (queue.clone(), shared.clone(), handler.clone());
                let f = frame_handler.clone();
                let worker = std::thread::Builder::new()
                    .name(format!("rdbsc-worker-{i}"))
                    .spawn(move || worker_loop(q, sh, h, f))?;
                threads.push(worker);
                Ok::<_, std::io::Error>(())
            })
            .and_then(|()| {
                let (q, sh) = (queue.clone(), shared.clone());
                let acceptor = std::thread::Builder::new()
                    .name("rdbsc-acceptor".into())
                    .spawn(move || acceptor_loop(listener, q, sh))?;
                threads.push(acceptor);
                Ok(())
            });
        let core = HttpCore { shared, threads };
        if let Err(e) = spawned {
            // The acceptor is spawned last, so only workers run here, and
            // a worker exits once it sees the stop flag.
            core.shared.stop.store(true, Ordering::Release);
            core.join();
            return Err(e.into());
        }
        Ok(core)
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle onto the stop state.
    pub fn stopper(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: self.shared.clone(),
        }
    }

    /// Waits for every core thread to exit. Trigger the stop first (or this
    /// blocks until a mounted route does).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn acceptor_loop(listener: TcpListener, queue: Arc<ConnectionQueue>, shared: Arc<CoreShared>) {
    for incoming in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = incoming else {
            // Persistent accept failures (EMFILE under fd exhaustion) would
            // otherwise busy-spin this thread at 100% CPU.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        prepare_accepted(&stream);
        match queue.offer(stream) {
            Ok(()) => shared.metrics.connections_accepted.incr(),
            Err(mut stream) => {
                shared.metrics.connections_shed.incr();
                shared.metrics.count_status(429);
                let _ =
                    write_response(&mut stream, &Response::from_error(&ServerError::Overloaded));
            }
        }
    }
}

/// Transport options applied to every accepted connection before it is
/// queued: `TCP_NODELAY`, because protocol requests and replies are small
/// and waiting for ACKs (Nagle) only adds latency. Mirrors the client side
/// ([`crate::client::HttpClient`] and the binary partition client), so
/// *both* ends of a partition connection run nodelay.
fn prepare_accepted(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
}

fn worker_loop(
    queue: Arc<ConnectionQueue>,
    shared: Arc<CoreShared>,
    handler: Arc<Handler>,
    frame_handler: Option<Arc<FrameHandler>>,
) {
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        let timeout = if stopping {
            // Drain whatever is still queued (each request gets a clean
            // response from the handler's drain path), then exit.
            Duration::ZERO
        } else {
            Duration::from_millis(50)
        };
        match queue.poll(timeout) {
            Some(stream) => serve_connection(stream, &shared, &handler, frame_handler.as_ref()),
            None if stopping => return,
            None => continue,
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    shared: &Arc<CoreShared>,
    handler: &Arc<Handler>,
    frame_handler: Option<&Arc<FrameHandler>>,
) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    // Registering lets shutdown interrupt a read parked on this connection;
    // the guard deregisters on every exit path.
    let registration = shared.registry.register(&stream);
    struct Deregister<'a>(&'a CoreShared, Option<u64>);
    impl Drop for Deregister<'_> {
        fn drop(&mut self) {
            if let Some(id) = self.1 {
                self.0.registry.deregister(id);
            }
        }
    }
    let _guard = Deregister(shared, registration);
    // Timeouts are set once here (not per request — that is a setsockopt
    // per request on the hot path) and tightened exactly once when the
    // stop flag is first observed. The write timeout also bounds how long
    // a peer that stops reading mid-response can pin this worker: shutdown
    // only closes the read half (so in-flight responses can finish), which
    // would otherwise leave a blocked `write_all` stuck forever.
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    let shutdown = ShutdownHandle {
        shared: shared.clone(),
    };
    let mut draining = false;
    let mut reader = BufReader::new(stream);
    if let Some(frames) = frame_handler {
        // Transport sniff: binary connections open with the frame magic,
        // whose first byte (0xB5) is not a byte any HTTP method line can
        // start with. One buffered peek decides the connection's protocol
        // for its whole lifetime.
        match reader.fill_buf() {
            Ok(buf) if buf.first() == Some(&frame::MAGIC[0]) => {
                serve_frames(reader, writer, shared, frames, &shutdown);
                return;
            }
            Ok(_) => {} // HTTP (or clean EOF — the HTTP loop handles it)
            Err(_) => return,
        }
    }
    loop {
        if !draining && shared.stop.load(Ordering::Acquire) {
            // Shutdown drain: barely wait on idle peers at all.
            draining = true;
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(100)));
        }
        let request = match read_request(&mut reader, shared.max_body_bytes) {
            Ok(Some(request)) => request,
            Ok(None) => return, // peer closed cleanly
            Err(ServerError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::UnexpectedEof
                        | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                // Idle timeout or the peer went away mid-request: nobody is
                // listening for an error body.
                return;
            }
            Err(e) => {
                // Malformed request: answer if the socket still works, then
                // drop the connection (framing may be lost).
                let _ = write_response(&mut writer, &Response::from_error(&e).with_close());
                shared.metrics.count_status(e.status());
                return;
            }
        };
        let started = Instant::now();
        shared.metrics.requests_total.incr();
        let close_requested = request.close;
        let mut response = match handler(&request, &shutdown) {
            Ok(response) => response,
            Err(e) => Response::from_error(&e),
        };
        if close_requested || shared.stop.load(Ordering::Acquire) {
            response = response.with_close();
        }
        shared.metrics.count_status(response.status);
        shared.metrics.request_latency.record(started.elapsed());
        if write_response(&mut writer, &response).is_err() || response.close {
            return;
        }
    }
}

/// Serves one connection as a binary command stream: read a frame, decode,
/// admit, handle, write the reply — in arrival order, which is what lets the
/// router pipeline commands and pair replies FIFO.
fn serve_frames(
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    shared: &Arc<CoreShared>,
    handler: &Arc<FrameHandler>,
    shutdown: &ShutdownHandle,
) {
    let mut draining = false;
    loop {
        if !draining && shared.stop.load(Ordering::Acquire) {
            draining = true;
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(100)));
        }
        let raw = match frame::read_raw(&mut reader, shared.max_body_bytes) {
            Ok(Some(raw)) => raw,
            Ok(None) => return, // peer closed cleanly between frames
            Err(frame::FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                // Idle timeout or the peer went away: nobody is listening.
                return;
            }
            Err(_) => {
                // Bad magic, truncated header or oversized payload: the
                // framing is lost, so no reply can be paired — just close
                // and let the client's next read fail cleanly.
                shared.metrics.count_status(400);
                return;
            }
        };
        let started = Instant::now();
        shared.metrics.requests_total.incr();
        let admitted = frame::RequestFrame::decode(&raw).and_then(frame::RequestFrame::admit);
        let reply = match admitted {
            // Framing held (exactly `payload_len` bytes were consumed), so
            // a payload the decoder or the admission check refuses is
            // answerable in-band and the connection stays usable.
            Ok(request) => handler(request, shutdown),
            Err(e) => frame::ReplyFrame {
                request_id: raw.request_id,
                body: frame::ReplyBody::Error {
                    status: 400,
                    detail: e.to_string(),
                },
            },
        };
        let status = match &reply.body {
            frame::ReplyBody::Error { status, .. } => *status,
            _ => 200,
        };
        shared.metrics.count_status(status);
        shared.metrics.request_latency.record(started.elapsed());
        if reply.write_to(&mut writer).is_err() || shared.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: every *accepted* partition connection must run
    /// `TCP_NODELAY` (the router side already does — `client.rs` has the
    /// mirror test), or small command frames sit behind Nagle waiting for
    /// ACKs of the previous reply.
    #[test]
    fn accepted_connections_enable_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        assert!(
            !accepted.nodelay().expect("query nodelay before prepare"),
            "fresh sockets default to Nagle on; if this flips, the helper is moot"
        );
        prepare_accepted(&accepted);
        assert!(accepted.nodelay().expect("query nodelay after prepare"));
    }
}
