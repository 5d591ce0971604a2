//! The router's side of the partition wire: one frame connection per
//! daemon ([`BinaryPartitionClient`] over [`FrameConn`]) that opens with the
//! handshake and then carries every command.
//!
//! * **Handshake.** [`connect_remote_partition`] makes the connection's
//!   first two exchanges a `Hello` — refusing a daemon that speaks a
//!   different [`PROTOCOL_VERSION`], is draining, is an unpromoted standby,
//!   or predates the `Hello` frame — and a `Configure` carrying the routing
//!   table, region index and engine config, so router and daemon provably
//!   agree on the region geometry before the first event is routed.
//! * **Request ids.** Every frame carries a `request_id` the daemon
//!   echoes; a mismatched echo is a protocol error, so a desynced
//!   connection can never pair a reply with the wrong command.
//! * **Split phases.** `begin_tick`/`begin_submit` only *write* the frame;
//!   the daemon starts working as soon as the bytes land, and the router
//!   collects replies after dispatching to every partition — N daemons
//!   solve concurrently.
//! * **Connection discipline.** A command is retried exactly once when a
//!   *reused idle* connection turns out stale — the daemon never saw the
//!   frame, so at-most-once execution holds. Retries, reconnects, bytes
//!   and per-command latency all land in the shared [`ProtocolCounters`],
//!   surfaced per partition on the router's `/metrics`.

use crate::error::ServerError;
use crate::frame::{self, FrameError, ReplyFrame, RequestFrame};
use crate::protocol::{ConfigureDto, DurabilityDto, EngineConfigDto, Hello, RoutingTableDto};
use rdbsc_cluster::RegionPartition;
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Contribution, WorkerId};
use rdbsc_platform::{
    CommandOutcome, EngineConfig, EngineEvent, EngineSnapshot, PartitionClient, PartitionCommand,
    PartitionError, PartitionTick, ProtocolCounters, StandbyPromoter, PROTOCOL_VERSION,
};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one protocol command may take on the wire before the router
/// gives the partition up. Ticks solve whole regions, so this is generous.
const COMMAND_TIMEOUT: Duration = Duration::from_secs(60);

/// The largest reply payload a frame connection will accept. Tick replies
/// scale with new assignments (~40 bytes each) and a bootstrap reply holds
/// a whole checkpoint, so this is generous.
const MAX_REPLY_PAYLOAD: usize = 64 << 20;

fn resolve(addr: &str) -> Result<SocketAddr, ServerError> {
    addr.to_socket_addrs()
        .map_err(|e| {
            ServerError::BadRequest(format!("cannot resolve partition address {addr:?}: {e}"))
        })?
        .next()
        .ok_or_else(|| {
            ServerError::BadRequest(format!("partition address {addr:?} resolves to nothing"))
        })
}

/// Why a handshake or lifecycle exchange with `addr` did not get the reply
/// it wanted: the daemon's in-band refusal, a reply of the wrong kind, or a
/// transport failure.
fn failed_exchange(addr: &str, what: &str, reply: Result<ReplyFrame, FrameError>) -> String {
    match reply {
        Ok(ReplyFrame::Error { status, detail, .. }) => {
            format!("{what} on {addr} failed with {status}: {detail}")
        }
        Ok(other) => format!("{what} on {addr}: unexpected reply tag {:#04x}", other.tag()),
        Err(e) => format!("{what} on {addr}: {e}"),
    }
}

/// The one hello check, for an attach and a promotion alike: the daemon
/// must answer the `Hello` frame, speak this router's [`PROTOCOL_VERSION`]
/// and not be draining. Whether a standby is acceptable is the caller's
/// call — an attach refuses one, a promotion promotes it.
fn hello(conn: &mut FrameConn, addr: &str, request_id: u64) -> Result<Hello, ServerError> {
    let hello = match conn.exchange(&RequestFrame::Hello { request_id }) {
        Ok(ReplyFrame::HelloOk { hello, .. }) => hello,
        // A daemon from before the Hello frame answers its tag as malformed.
        Ok(ReplyFrame::Error {
            status: 400,
            detail,
            ..
        }) => {
            return Err(ServerError::Conflict(format!(
                "partition {addr} does not speak the Hello frame ({detail}); upgrade the daemon"
            )));
        }
        other => return Err(ServerError::BadRequest(failed_exchange(addr, "hello", other))),
    };
    if hello.protocol_version != PROTOCOL_VERSION {
        return Err(ServerError::Conflict(format!(
            "partition {addr} speaks protocol v{} but this router speaks v{PROTOCOL_VERSION}",
            hello.protocol_version
        )));
    }
    if hello.draining {
        return Err(ServerError::Conflict(format!(
            "partition {addr} is draining and cannot join a topology"
        )));
    }
    Ok(hello)
}

/// Attaches one remote partition: opens the frame connection, says hello
/// (refusing a daemon this router cannot mount), pushes the routing table,
/// region index and engine config, and returns the boxed protocol client
/// the router mounts for that region — the same connection, now carrying
/// commands. The daemon builds its engine over exactly the table's region
/// rectangle, with an index at the router's raw `cell_size` (the value the
/// router's in-process regions use); an identical re-push is idempotent, a
/// conflicting one is refused.
pub fn connect_remote_partition(
    addr: &str,
    partition: &RegionPartition,
    region_index: usize,
    cell_size: f64,
    engine: &EngineConfig,
    durability: Option<&rdbsc_platform::WalConfig>,
) -> Result<Box<dyn PartitionClient>, ServerError> {
    let mut client = BinaryPartitionClient::connect(addr)?;
    let request_id = client.next_rid();
    if hello(&mut client.conn, addr, request_id)?.standby {
        return Err(ServerError::Conflict(format!(
            "partition {addr} is a replication standby; promote it before attaching it"
        )));
    }
    let configure = ConfigureDto {
        protocol_version: PROTOCOL_VERSION,
        routing: RoutingTableDto::from_partition(partition),
        region_index: region_index as u32,
        cell_size,
        engine: EngineConfigDto::from_config(engine),
        durability: durability.map(DurabilityDto::from_wal_config),
    }
    .to_json()
    .to_string_compact();
    let request = RequestFrame::Configure {
        request_id: client.next_rid(),
        configure,
    };
    match client.conn.exchange(&request) {
        Ok(ReplyFrame::ConfigureOk { .. }) => {}
        other => {
            let what = format!("configuring region {region_index}");
            return Err(ServerError::Conflict(failed_exchange(addr, &what, other)));
        }
    }
    client.exchanged = true;
    Ok(Box::new(client))
}

// ---------------------------------------------------------------------------
// Standby promotion.

/// How long the pre-promotion health check may take. Promotion runs inline
/// while the router holds a slot's engine access, so a half-dead standby
/// must fail FAST: one that cannot answer hello in this window is treated
/// as lost and the slot degrades, instead of stalling every router request
/// behind a long wire wait.
const PROMOTE_HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// How long the promote command itself may take. The promote waits for the
/// standby's in-flight replay batch under its engine lock, seals the stream
/// and fsyncs a fresh checkpoint — quick, but give slow disks headroom.
/// Together with the hello gate this keeps the promotion budget well below
/// [`COMMAND_TIMEOUT`]; only the final re-attach (against a daemon that
/// just proved responsive by answering promote) uses the ordinary connect
/// path and its steady-state timeout.
const PROMOTE_TIMEOUT: Duration = Duration::from_secs(10);

/// The router's [`StandbyPromoter`] over the wire: health-check the
/// `--follow` standby with a `Hello`, tell it to finish its replay and seal
/// the stream (a [`RequestFrame::ReplPromote`]), then re-attach it through
/// the ordinary connect path — the re-pushed configure matches the
/// standby's fingerprint byte for byte, because both daemons keep the
/// canonical re-encoding of the payload the primary accepted.
pub struct RemoteStandbyPromoter {
    addr: String,
    partition: RegionPartition,
    region_index: usize,
    cell_size: f64,
    engine: EngineConfig,
    durability: Option<rdbsc_platform::WalConfig>,
}

impl RemoteStandbyPromoter {
    /// Builds a promoter for `addr`, holding everything the re-attach needs
    /// — the same arguments [`connect_remote_partition`] took for the slot's
    /// original primary.
    pub fn new(
        addr: &str,
        partition: RegionPartition,
        region_index: usize,
        cell_size: f64,
        engine: EngineConfig,
        durability: Option<rdbsc_platform::WalConfig>,
    ) -> Self {
        Self {
            addr: addr.to_string(),
            partition,
            region_index,
            cell_size,
            engine,
            durability,
        }
    }

    fn conn(&self, timeout: Duration) -> Result<FrameConn, String> {
        let socket = resolve(&self.addr).map_err(|e| format!("standby: {e}"))?;
        Ok(FrameConn::new(socket, timeout))
    }
}

impl StandbyPromoter for RemoteStandbyPromoter {
    fn endpoint(&self) -> String {
        self.addr.clone()
    }

    fn promote(&mut self) -> Result<Box<dyn PartitionClient>, String> {
        // Health-check first, on a short leash: an unreachable, draining or
        // merely sluggish standby fails the promotion cleanly and leaves
        // the slot on the unhealthy path.
        let mut conn = self.conn(PROMOTE_HELLO_TIMEOUT)?;
        let hello = hello(&mut conn, &self.addr, 1).map_err(|e| format!("standby: {e}"))?;
        // Promote — the daemon finishes its in-flight replay under the
        // engine lock, seals the stream and starts accepting commands. A
        // daemon that is no longer a standby was promoted by an earlier
        // attempt that died before re-attaching; just re-attach it.
        if hello.standby {
            let mut conn = self.conn(PROMOTE_TIMEOUT)?;
            match conn.exchange(&RequestFrame::ReplPromote { request_id: 1 }) {
                Ok(ReplyFrame::ReplPromoteOk {
                    digest, applied, ..
                }) => eprintln!(
                    "rdbsc-server: promoted standby {} at stream lsn {applied} (digest {digest:016x})",
                    self.addr
                ),
                other => return Err(failed_exchange(&self.addr, "promote", other)),
            }
        }
        connect_remote_partition(
            &self.addr,
            &self.partition,
            self.region_index,
            self.cell_size,
            &self.engine,
            self.durability.as_ref(),
        )
        .inspect(|_| {
            eprintln!(
                "rdbsc-server: region {} re-attached to promoted {}",
                self.region_index, self.addr
            );
        })
        .map_err(|e| format!("re-attaching promoted {}: {e}", self.addr))
    }

    fn shutdown(&mut self) -> Result<(), String> {
        match self
            .conn(PROMOTE_TIMEOUT)?
            .exchange(&RequestFrame::Shutdown { request_id: 1 })
        {
            Ok(ReplyFrame::ShutdownOk { .. }) => Ok(()),
            other => Err(failed_exchange(&self.addr, "stopping unfired standby", other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame transport.

/// One frame connection to a daemon, opened lazily and reopened after a
/// failure: the raw write-a-request / read-a-reply exchange under the
/// router's pipelining [`BinaryPartitionClient`], the standby's follower
/// and the promoter. `TCP_NODELAY` keeps small command frames from waiting
/// behind Nagle's algorithm; `timeout` bounds every read and write.
pub struct FrameConn {
    socket: SocketAddr,
    timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
}

impl FrameConn {
    /// A connection to `socket`; nothing is opened until the first use.
    pub fn new(socket: SocketAddr, timeout: Duration) -> Self {
        Self {
            socket,
            timeout,
            stream: None,
        }
    }

    /// Is a connection currently open?
    pub fn is_open(&self) -> bool {
        self.stream.is_some()
    }

    /// Drops the connection; the next use opens a fresh one.
    pub fn close(&mut self) {
        self.stream = None;
    }

    /// Opens the connection if none is open; `true` when it just did.
    pub fn ensure_open(&mut self) -> std::io::Result<bool> {
        if self.stream.is_some() {
            return Ok(false);
        }
        let stream = TcpStream::connect(self.socket)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        self.stream = Some(BufReader::new(stream));
        Ok(true)
    }

    /// Writes one request frame; returns the bytes put on the wire.
    pub fn send(&mut self, request: &RequestFrame) -> std::io::Result<usize> {
        self.ensure_open()?;
        let stream = self.stream.as_mut().expect("connection just ensured");
        request.write_to(stream.get_mut())
    }

    /// Reads and decodes the next reply frame; returns it with the bytes
    /// taken off the wire. The daemon hanging up instead is an I/O error.
    pub fn receive(&mut self) -> Result<(ReplyFrame, usize), FrameError> {
        let reader = self.stream.as_mut().ok_or_else(|| {
            FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "reading a reply without a connection",
            ))
        })?;
        let raw = frame::read_raw(reader, MAX_REPLY_PAYLOAD)?.ok_or_else(|| {
            FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-command",
            ))
        })?;
        let reply = ReplyFrame::decode(&raw)?;
        Ok((reply, frame::HEADER_LEN + raw.payload.len()))
    }

    /// One full round trip, checking the request-id echo. Any failure
    /// closes the connection (a later exchange starts on a fresh one); a
    /// daemon-reported [`ReplyFrame::Error`] is a reply, not a failure.
    pub fn exchange(&mut self, request: &RequestFrame) -> Result<ReplyFrame, FrameError> {
        let result = self
            .send(request)
            .map_err(FrameError::Io)
            .and_then(|_| self.receive())
            .and_then(|(reply, _)| {
                if reply.request_id() == request.request_id() {
                    Ok(reply)
                } else {
                    Err(FrameError::Malformed(format!(
                        "reply echoes request {} but {} was sent — connection desynced",
                        reply.request_id(),
                        request.request_id()
                    )))
                }
            });
        if result.is_err() {
            self.close();
        }
        result
    }
}

/// Which caller a written frame's reply belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SentKind {
    /// A `begin_submit` whose reply the router collects later.
    Submit,
    /// A `begin_tick` whose reply the router collects later.
    Tick,
    /// A round-trip command (answer, snapshot, probes) waiting in
    /// [`BinaryPartitionClient::immediate`].
    Immediate,
}

/// A written command whose reply has not been read yet. The frame is kept
/// until then so it can be re-sent if the connection turns out stale.
struct Sent {
    kind: SentKind,
    request: RequestFrame,
    started: Instant,
}

/// The I/O failures a reaped idle connection shows on the first read after
/// it: a clean hang-up or a reset, before any reply byte.
fn stale_shaped(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe
    )
}

/// The partition protocol over length-prefixed binary frames
/// ([`crate::frame`]) on a dedicated persistent TCP connection.
///
/// The client *pipelines*: `begin_submit` and `begin_tick` only write
/// their frame and park a record in `inflight`;
/// the daemon answers strictly in arrival order, so replies are paired FIFO
/// and validated by their echoed request id. The router exploits this
/// (`supports_pipelining`) to stream a submit *and* the following tick to
/// every partition before reading any reply — one wire round trip per tick
/// instead of two. Immediate commands (answer, snapshot, probes) queue
/// behind them and first drain any pipelined replies into the
/// `submit_done`/`tick_done` caches, which the matching `finish_*` call
/// later consumes.
///
/// Any transport or framing error *poisons* the connection: the stream is
/// dropped and every in-flight command fails, because a desynced stream can
/// never again pair bytes with the right command. A fresh connection is
/// opened lazily on the next write. The one exception is the stale
/// keep-alive case: frames written to an *idle, previously-used*
/// connection that fails the write, or hangs up before a single reply byte,
/// were never read by the daemon (it reaped the connection while idle), so
/// they are re-sent once on a fresh connection and at-most-once execution
/// holds.
pub struct BinaryPartitionClient {
    endpoint: String,
    conn: FrameConn,
    /// Connections opened so far (first one is free; the rest count as
    /// reconnects).
    connections: u64,
    /// Has the *current* connection completed a full frame exchange?
    exchanged: bool,
    /// Was the oldest unanswered frame written to an idle, previously-used
    /// connection that has not produced a reply since? Only then may a
    /// hang-up be the daemon's idle reap rather than a failure.
    maybe_stale: bool,
    counters: Arc<ProtocolCounters>,
    next_request_id: u64,
    trace: u64,
    inflight: VecDeque<Sent>,
    submit_done: Option<Result<(), PartitionError>>,
    tick_done: Option<Result<PartitionTick, PartitionError>>,
    immediate_done: Option<Result<ReplyFrame, PartitionError>>,
}

impl BinaryPartitionClient {
    /// Opens the command connection. A router attaches a daemon with
    /// [`connect_remote_partition`], which says hello and configures on
    /// this connection before handing it over.
    pub fn connect(addr: &str) -> Result<Self, ServerError> {
        let mut client = Self {
            endpoint: addr.to_string(),
            conn: FrameConn::new(resolve(addr)?, COMMAND_TIMEOUT),
            connections: 0,
            exchanged: false,
            maybe_stale: false,
            counters: Arc::new(ProtocolCounters::default()),
            next_request_id: 0,
            trace: 0,
            inflight: VecDeque::new(),
            submit_done: None,
            tick_done: None,
            immediate_done: None,
        };
        client.connection().map_err(|e| {
            ServerError::BadRequest(format!("cannot open binary transport to {addr}: {e}"))
        })?;
        Ok(client)
    }

    fn next_rid(&mut self) -> u64 {
        self.next_request_id += 1;
        self.next_request_id
    }

    fn transport_str(&self, detail: impl Into<String>) -> PartitionError {
        PartitionError::Transport {
            endpoint: self.endpoint.clone(),
            detail: detail.into(),
        }
    }

    fn protocol_err(&self, detail: impl Into<String>) -> PartitionError {
        PartitionError::Protocol {
            endpoint: self.endpoint.clone(),
            detail: detail.into(),
        }
    }

    /// The connection, opened lazily; every one after the first counts as
    /// a reconnect.
    fn connection(&mut self) -> std::io::Result<&mut FrameConn> {
        if self.conn.ensure_open()? {
            if self.connections > 0 {
                self.counters.reconnects.incr();
            }
            self.connections += 1;
            self.exchanged = false;
            self.maybe_stale = false;
        }
        Ok(&mut self.conn)
    }

    /// Drops the connection and fails every in-flight split-phase command —
    /// once the stream desyncs or dies, no further bytes can be paired with
    /// the right command. Returns `err` for the caller to propagate.
    fn poison(&mut self, err: PartitionError) -> PartitionError {
        self.conn.close();
        self.maybe_stale = false;
        for sent in std::mem::take(&mut self.inflight) {
            let failure = PartitionError::Transport {
                endpoint: self.endpoint.clone(),
                detail: format!("connection poisoned: {err}"),
            };
            match sent.kind {
                SentKind::Submit => self.submit_done = Some(Err(failure)),
                SentKind::Tick => self.tick_done = Some(Err(failure)),
                SentKind::Immediate => self.immediate_done = Some(Err(failure)),
            }
        }
        err
    }

    /// Writes one frame and counts it.
    fn try_write(&mut self, frame: &RequestFrame) -> std::io::Result<()> {
        let n = self.connection()?.send(frame)?;
        self.counters.bytes_sent.add(n as u64);
        self.counters.frames_sent.incr();
        Ok(())
    }

    /// Writes one request frame. A failure on a possibly-stale connection
    /// (this frame, or the unanswered ones before it, went to a *reused
    /// idle* connection that has not replied since — the daemon never read
    /// any of them, so at-most-once execution holds) re-sends everything
    /// unanswered once on a fresh connection. Any other write failure with
    /// replies in flight poisons the connection — a rebuilt stream could
    /// never deliver them.
    fn write_request(&mut self, frame: &RequestFrame) -> Result<(), PartitionError> {
        let idle_reused = self.exchanged && self.inflight.is_empty() && self.conn.is_open();
        match self.try_write(frame) {
            Ok(()) => {
                self.maybe_stale |= idle_reused;
                Ok(())
            }
            Err(first) if idle_reused || self.maybe_stale => self
                .resend_unanswered(None, Some(frame))
                .map_err(|e| self.stale_retry_failed(&first, &e)),
            Err(e) => {
                let err = self.transport_str(format!("writing command frame: {e}"));
                Err(self.poison(err))
            }
        }
    }

    /// Opens a fresh connection and writes every unanswered frame to it
    /// again, in order: `oldest` (already popped off the queue by the
    /// reader), the queue, then `newest` (not queued yet by the writer).
    fn resend_unanswered(
        &mut self,
        oldest: Option<&RequestFrame>,
        newest: Option<&RequestFrame>,
    ) -> std::io::Result<()> {
        self.conn.close();
        self.counters.retries.incr();
        let queued = std::mem::take(&mut self.inflight);
        let result = oldest
            .into_iter()
            .chain(queued.iter().map(|sent| &sent.request))
            .chain(newest)
            .try_for_each(|frame| self.try_write(frame));
        self.inflight = queued;
        result
    }

    fn stale_retry_failed(&mut self, first: &std::io::Error, retry: &std::io::Error) -> PartitionError {
        let err = self.transport_str(format!(
            "retry after stale connection ({first}) failed: {retry}"
        ));
        self.poison(err)
    }

    /// Reads and decodes the reply to `oldest`, the FIFO-oldest unanswered
    /// frame. A hang-up on a possibly-stale connection re-sends the
    /// unanswered frames once; any other failure poisons.
    fn read_reply(&mut self, oldest: &Sent) -> Result<ReplyFrame, PartitionError> {
        loop {
            match self.conn.receive() {
                Ok((reply, n)) => {
                    self.counters.bytes_received.add(n as u64);
                    self.counters.frames_received.incr();
                    self.exchanged = true;
                    self.maybe_stale = false;
                    return Ok(reply);
                }
                Err(FrameError::Io(first)) if self.maybe_stale && stale_shaped(&first) => {
                    if let Err(e) = self.resend_unanswered(Some(&oldest.request), None) {
                        return Err(self.stale_retry_failed(&first, &e));
                    }
                }
                Err(FrameError::Io(e)) => {
                    let err = self.transport_str(format!("reading reply frame: {e}"));
                    return Err(self.poison(err));
                }
                Err(e) => {
                    let err = self.protocol_err(format!("malformed reply frame: {e}"));
                    return Err(self.poison(err));
                }
            }
        }
    }

    /// Maps a daemon-reported error status (503 = draining).
    fn status_error(&self, status: u16, detail: &str) -> PartitionError {
        if status == 503 {
            PartitionError::Draining {
                endpoint: self.endpoint.clone(),
            }
        } else {
            self.protocol_err(format!("command failed with {status}: {detail}"))
        }
    }

    /// Reads the reply for `sent` — the FIFO-oldest unanswered frame — and
    /// validates the request-id echo. Records the command in the counters
    /// on success. A daemon [`ReplyFrame::Error`] maps to a command error
    /// *without* poisoning (the stream is still in sync).
    fn collect(&mut self, sent: &Sent) -> Result<ReplyFrame, PartitionError> {
        let reply = self.read_reply(sent)?;
        if reply.request_id() != sent.request.request_id() {
            let err = self.protocol_err(format!(
                "reply echoes request {} but {} is the oldest in flight — connection desynced",
                reply.request_id(),
                sent.request.request_id()
            ));
            return Err(self.poison(err));
        }
        if let ReplyFrame::Error { status, detail, .. } = &reply {
            return Err(self.status_error(*status, detail));
        }
        self.counters.requests.incr();
        self.counters.command_latency.record(sent.started.elapsed());
        Ok(reply)
    }

    /// Reads one reply off the wire and resolves the oldest in-flight
    /// command into its cache slot (taken by the matching `finish_*`, or by
    /// `immediate`). Failures land in the cache too, so this never needs to
    /// report them directly.
    fn pump_one(&mut self) {
        let sent = self
            .inflight
            .pop_front()
            .expect("pump_one needs a command in flight");
        let result = self.collect(&sent);
        match sent.kind {
            SentKind::Submit => {
                self.submit_done = Some(result.and_then(|reply| match reply {
                    ReplyFrame::Applied {
                        outcome: CommandOutcome::Submitted { .. },
                        ..
                    } => Ok(()),
                    other => Err(self.unexpected_reply("submit", &other)),
                }));
            }
            SentKind::Tick => {
                self.tick_done = Some(result.and_then(|reply| match reply {
                    ReplyFrame::Applied {
                        outcome: CommandOutcome::Ticked(tick),
                        ..
                    } => Ok(*tick),
                    other => Err(self.unexpected_reply("tick", &other)),
                }));
            }
            SentKind::Immediate => self.immediate_done = Some(result),
        }
    }

    /// A reply whose id matched but whose tag didn't — the connection is
    /// hopelessly desynced, so poison it.
    fn unexpected_reply(&mut self, what: &str, reply: &ReplyFrame) -> PartitionError {
        let err = self.protocol_err(format!(
            "{what} answered with reply tag {:#04x} — connection desynced",
            reply.tag()
        ));
        self.poison(err)
    }

    /// The request frame of `command`, under the next request id and — for
    /// the commands that carry one — the current trace.
    fn command(&mut self, command: PartitionCommand) -> RequestFrame {
        RequestFrame::Command {
            request_id: self.next_rid(),
            trace: self.trace,
            command,
        }
    }

    /// Writes a split-phase frame and queues it for its `finish_*`.
    fn begin(&mut self, kind: SentKind, request: RequestFrame) -> Result<(), PartitionError> {
        let started = Instant::now();
        self.write_request(&request)?;
        self.inflight.push_back(Sent {
            kind,
            request,
            started,
        });
        Ok(())
    }

    /// One full command round trip: write the frame, drain any pipelined
    /// replies queued ahead of ours into their caches, then read our own.
    fn immediate(&mut self, request: RequestFrame) -> Result<ReplyFrame, PartitionError> {
        self.begin(SentKind::Immediate, request)?;
        loop {
            if let Some(done) = self.immediate_done.take() {
                return done;
            }
            self.pump_one();
        }
    }
}

impl PartitionClient for BinaryPartitionClient {
    fn kind(&self) -> &'static str {
        "binary"
    }

    fn endpoint(&self) -> String {
        self.endpoint.clone()
    }

    fn counters(&self) -> Arc<ProtocolCounters> {
        Arc::clone(&self.counters)
    }

    fn supports_pipelining(&self) -> bool {
        true
    }

    fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn begin_submit(&mut self, events: Vec<EngineEvent>) -> Result<(), PartitionError> {
        if self.submit_done.is_some() || self.inflight.iter().any(|s| s.kind == SentKind::Submit)
        {
            return Err(self.protocol_err("begin_submit while a submit is unconfirmed"));
        }
        let request = self.command(PartitionCommand::Submit(events));
        self.begin(SentKind::Submit, request)
    }

    fn finish_submit(&mut self) -> Result<(), PartitionError> {
        loop {
            if let Some(done) = self.submit_done.take() {
                return done;
            }
            if !self.inflight.iter().any(|s| s.kind == SentKind::Submit) {
                return Err(self.protocol_err("finish_submit without begin_submit"));
            }
            self.pump_one();
        }
    }

    fn begin_tick(&mut self, now: f64) -> Result<(), PartitionError> {
        if self.tick_done.is_some() || self.inflight.iter().any(|s| s.kind == SentKind::Tick) {
            return Err(self.protocol_err("begin_tick while a tick is unconfirmed"));
        }
        let request = self.command(PartitionCommand::Tick { now });
        self.begin(SentKind::Tick, request)
    }

    fn finish_tick(&mut self) -> Result<PartitionTick, PartitionError> {
        loop {
            if let Some(done) = self.tick_done.take() {
                return done;
            }
            if !self.inflight.iter().any(|s| s.kind == SentKind::Tick) {
                return Err(self.protocol_err("finish_tick without begin_tick"));
            }
            self.pump_one();
        }
    }

    fn record_answer(
        &mut self,
        worker: WorkerId,
        contribution: Contribution,
    ) -> Result<bool, PartitionError> {
        let request = self.command(PartitionCommand::Answer {
            worker,
            contribution,
        });
        match self.immediate(request)? {
            ReplyFrame::Applied {
                outcome: CommandOutcome::Answered { banked },
                ..
            } => Ok(banked),
            other => Err(self.unexpected_reply("answer", &other)),
        }
    }

    fn release_worker(&mut self, worker: WorkerId) -> Result<(), PartitionError> {
        let request = self.command(PartitionCommand::Release { worker });
        match self.immediate(request)? {
            ReplyFrame::Applied {
                outcome: CommandOutcome::Released,
                ..
            } => Ok(()),
            other => Err(self.unexpected_reply("release", &other)),
        }
    }

    fn assignments(&mut self) -> Result<Vec<ValidPair>, PartitionError> {
        let rid = self.next_rid();
        let request = RequestFrame::Assignments { request_id: rid };
        match self.immediate(request)? {
            ReplyFrame::AssignmentsOk { assignments, .. } => Ok(assignments),
            other => Err(self.unexpected_reply("assignments", &other)),
        }
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, PartitionError> {
        let rid = self.next_rid();
        let request = RequestFrame::Snapshot { request_id: rid };
        match self.immediate(request)? {
            ReplyFrame::SnapshotOk { snapshot, .. } => Ok(*snapshot),
            other => Err(self.unexpected_reply("snapshot", &other)),
        }
    }

    fn is_active(&mut self) -> Result<bool, PartitionError> {
        let rid = self.next_rid();
        let request = RequestFrame::IsActive { request_id: rid };
        match self.immediate(request)? {
            ReplyFrame::ActiveOk { active, .. } => Ok(active),
            other => Err(self.unexpected_reply("active", &other)),
        }
    }

    fn has_worker(&mut self, id: WorkerId) -> Result<bool, PartitionError> {
        let rid = self.next_rid();
        let request = RequestFrame::HasWorker {
            request_id: rid,
            worker: id,
        };
        match self.immediate(request)? {
            ReplyFrame::HasWorkerOk { present, .. } => Ok(present),
            other => Err(self.unexpected_reply("has_worker", &other)),
        }
    }

    fn drain(&mut self) -> Result<(), PartitionError> {
        let rid = self.next_rid();
        let request = RequestFrame::Drain { request_id: rid };
        match self.immediate(request)? {
            ReplyFrame::DrainOk { .. } => Ok(()),
            other => Err(self.unexpected_reply("drain", &other)),
        }
    }

    fn shutdown(&mut self) -> Result<(), PartitionError> {
        let rid = self.next_rid();
        let request = RequestFrame::Shutdown { request_id: rid };
        match self.immediate(request)? {
            ReplyFrame::ShutdownOk { .. } => Ok(()),
            other => Err(self.unexpected_reply("shutdown", &other)),
        }
    }
}
