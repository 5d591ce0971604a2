//! A minimal blocking HTTP/1.1 client for loopback and cluster use.
//!
//! This is the client half of the serving subsystem's closed loop: the
//! end-to-end tests, the `rdbsc-bench` load generator and the benchmark
//! drive the server through it, and ops scripts read a daemon's `/metrics`
//! and `/debug/*` with it. The partition protocol itself is frames
//! ([`crate::remote`]). Keep-alive by default, with the same
//! RFC 9110 §7.6.1 `Connection` token-list reading as the server
//! ([`connection_directive`]): a response carrying `close` anywhere in its
//! token list drops the cached connection (the next request reconnects),
//! one carrying `keep-alive` keeps it.
//!
//! [`HttpClient::request`] (with [`HttpClient::get`] / [`HttpClient::post`]
//! over it) writes one request and reads its response.
//! A request sent on a *reused* keep-alive connection that turns out to be
//! stale — the server closed it while idle, surfacing as a write failure or
//! a clean EOF before any response byte — is transparently re-sent once on
//! a fresh connection, the standard keep-alive retry rule; a failure on a
//! fresh connection is reported, never retried, so a command is executed at
//! most once on a live server.

use crate::error::ServerError;
use crate::http::connection_directive;
use crate::json::{parse, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response as seen by the client.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// The body, decoded as UTF-8.
    pub body: String,
}

impl ClientResponse {
    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Json, ServerError> {
        Ok(parse(&self.body)?)
    }

    /// Is the status in the 2xx class?
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A keep-alive HTTP/1.1 connection to one server address.
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
    /// Has the cached stream completed at least one full exchange? Only
    /// such *reused* connections qualify for the stale-keep-alive retry.
    exchanged: bool,
    /// Whether the connection carrying the in-flight request was opened for
    /// it (fresh) or reused from a previous exchange.
    sent_on_reused: bool,
    /// The in-flight request's `(head, body)` wire bytes, kept for the
    /// stale retry (re-sent with the same vectored write).
    inflight: Option<(Vec<u8>, Vec<u8>)>,
    /// Connections opened over the client's lifetime.
    connections_opened: u64,
}

impl HttpClient {
    /// A client for `addr`; connections are opened lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            timeout: Duration::from_secs(10),
            stream: None,
            exchanged: false,
            sent_on_reused: false,
            inflight: None,
            connections_opened: 0,
        }
    }

    /// Overrides the per-operation socket timeout (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Is a keep-alive connection currently cached?
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Connections this client has opened so far.
    pub fn connections_opened(&self) -> u64 {
        self.connections_opened
    }

    fn drop_connection(&mut self) {
        self.stream = None;
        self.exchanged = false;
    }

    fn connection(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
            self.exchanged = false;
            self.connections_opened += 1;
        }
        Ok(self.stream.as_mut().expect("connection just set"))
    }

    /// Writes `head` then `body` on the current (or a fresh) connection
    /// with one vectored write (no concatenation copy, and both parts leave
    /// in a single syscall — see `http::write_response` on Nagle),
    /// reconnecting and re-writing once if a *reused* connection fails
    /// mid-write.
    fn write_wire(&mut self, head: &[u8], body: &[u8]) -> Result<(), ServerError> {
        let reused = self.stream.is_some() && self.exchanged;
        let result = (|| -> std::io::Result<()> {
            let stream = self.connection()?.get_mut();
            crate::frame::write_all_vectored(stream, head, body)?;
            stream.flush()
        })();
        match result {
            Ok(()) => {
                self.sent_on_reused = reused;
            }
            Err(_) if reused => {
                // Stale keep-alive: the server closed the idle connection.
                // The request never reached a live reader, so resend once.
                self.drop_connection();
                let stream = self.connection()?.get_mut();
                crate::frame::write_all_vectored(stream, head, body)?;
                stream.flush()?;
                self.sent_on_reused = false;
            }
            Err(e) => {
                self.drop_connection();
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Phase 1: sends one request (its response must be collected with
    /// `receive` before the next send).
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<String>,
    ) -> Result<(), ServerError> {
        let body = body.unwrap_or_default().into_bytes();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: rdbsc\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        self.write_wire(&head, &body)?;
        self.inflight = Some((head, body));
        Ok(())
    }

    /// Phase 2: reads the response of the last `send`. A clean
    /// EOF before any response byte on a reused connection re-sends the
    /// request once on a fresh connection (the server closed the idle
    /// keep-alive before reading it).
    fn receive(&mut self) -> Result<ClientResponse, ServerError> {
        match self.receive_inner() {
            Ok(outcome) => {
                self.inflight = None;
                outcome
            }
            Err(StaleConnection) => {
                let (head, body) = self.inflight.take().ok_or_else(|| {
                    ServerError::BadRequest(
                        "server closed the connection before responding".into(),
                    )
                })?;
                self.drop_connection();
                self.write_wire(&head, &body)?;
                match self.receive_inner() {
                    Ok(outcome) => outcome,
                    Err(StaleConnection) => {
                        self.drop_connection();
                        Err(ServerError::BadRequest(
                            "server closed the connection before responding".into(),
                        ))
                    }
                }
            }
        }
    }

    /// Reads one response. The outer `Result` is the retryable stale-
    /// connection signal; the inner one is the definitive outcome.
    fn receive_inner(&mut self) -> Result<Result<ClientResponse, ServerError>, StaleConnection> {
        let sent_on_reused = self.sent_on_reused;
        let Some(reader) = self.stream.as_mut() else {
            return Ok(Err(ServerError::BadRequest(
                "receive without a connection".into(),
            )));
        };
        let mut status_line = String::new();
        match reader.read_line(&mut status_line) {
            Ok(0) if sent_on_reused => return Err(StaleConnection),
            Ok(0) => {
                return Ok(Err(ServerError::BadRequest(
                    "server closed the connection before responding".into(),
                )))
            }
            Ok(_) => {}
            // A reset instead of a clean FIN is still the stale-keep-alive
            // shape when no response byte has arrived: the server tore the
            // idle connection down before reading the request.
            Err(e)
                if sent_on_reused
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::UnexpectedEof
                    ) =>
            {
                return Err(StaleConnection)
            }
            Err(e) => return Ok(Err(e.into())),
        }
        let result = (|| -> Result<(ClientResponse, bool), ServerError> {
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    ServerError::BadRequest(format!("bad status line {status_line:?}"))
                })?;

            let mut content_length = 0usize;
            let mut connection_values = Vec::new();
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 {
                    return Err(ServerError::BadRequest(
                        "eof inside response headers".into(),
                    ));
                }
                let line = line.trim_end_matches(['\r', '\n']);
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    let name = name.trim().to_ascii_lowercase();
                    let value = value.trim();
                    if name == "content-length" {
                        content_length = value.parse().map_err(|_| {
                            ServerError::BadRequest("bad response Content-Length".into())
                        })?;
                    } else if name == "connection" {
                        connection_values.push(value.to_string());
                    }
                }
            }
            // The same token-list reading as the server's request parser:
            // `Connection: close, te` must drop the connection, a
            // `keep-alive` token must keep it.
            let close = connection_directive(
                connection_values.iter().map(String::as_str),
            )
            .unwrap_or(false);
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            let response = ClientResponse {
                status,
                body: String::from_utf8(body).map_err(|_| {
                    ServerError::BadRequest("response body is not UTF-8".into())
                })?,
            };
            Ok((response, close))
        })();
        Ok(match result {
            Ok((response, close)) => {
                if close {
                    self.drop_connection();
                } else {
                    self.exchanged = true;
                }
                Ok(response)
            }
            Err(e) => {
                self.drop_connection();
                Err(e)
            }
        })
    }

    /// Sends a `GET`.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, ServerError> {
        self.request("GET", path, None)
    }

    /// Sends a `POST` with a JSON body.
    pub fn post(&mut self, path: &str, body: &Json) -> Result<ClientResponse, ServerError> {
        self.request("POST", path, Some(body.to_string_compact()))
    }

    /// Sends one request and reads the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<String>,
    ) -> Result<ClientResponse, ServerError> {
        self.send(method, path, body)?;
        self.receive()
    }
}

/// Internal marker: the reused keep-alive connection was already closed by
/// the server — resend the in-flight request once on a fresh connection.
struct StaleConnection;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted one-shot server: accepts sequential connections, each
    /// answering with the next canned response (then closing).
    fn scripted_server(responses: Vec<String>) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut connections = 0u64;
            for response in responses {
                let (mut stream, _) = listener.accept().unwrap();
                connections += 1;
                // Read one request head (ignore its content).
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0
                        || line == "\r\n"
                        || line == "\n"
                    {
                        break;
                    }
                }
                stream.write_all(response.as_bytes()).unwrap();
            }
            connections
        });
        (addr, handle)
    }

    fn canned(body: &str, connection: Option<&str>) -> String {
        let mut head = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        );
        if let Some(value) = connection {
            head.push_str(&format!("connection: {value}\r\n"));
        }
        head.push_str("\r\n");
        head + body
    }

    #[test]
    fn close_token_inside_a_list_drops_the_connection() {
        // Regression for the client half of the RFC 9110 fix: the old
        // client only honoured an exact `Connection: close` value, so a
        // legal `close, te` token list left it reusing a connection the
        // server was about to close.
        let (addr, server) = scripted_server(vec![
            canned("{}", Some("close, te")),
            canned("{}", None),
        ]);
        let mut client = HttpClient::new(addr);
        assert!(client.get("/a").unwrap().is_success());
        assert!(
            !client.is_connected(),
            "a close token inside a list must drop the cached connection"
        );
        // The next request transparently reconnects (the scripted server
        // requires a second connection to answer at all).
        assert!(client.get("/b").unwrap().is_success());
        assert_eq!(server.join().unwrap(), 2);
        assert_eq!(client.connections_opened(), 2);
    }

    #[test]
    fn keep_alive_token_inside_a_list_keeps_the_connection() {
        let (addr, server) = scripted_server(vec![canned("{}", Some("Keep-Alive, TE"))]);
        let mut client = HttpClient::new(addr);
        assert!(client.get("/a").unwrap().is_success());
        assert!(client.is_connected(), "keep-alive token list must be seen");
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn client_connections_enable_nodelay() {
        // Regression: the split-phase partition protocol writes a frame and
        // may not read for a while — a Nagle-delayed request would stall
        // every pipelined round by ~40 ms.
        let (addr, server) = scripted_server(vec![canned("{}", None)]);
        let mut client = HttpClient::new(addr);
        assert!(client.get("/a").unwrap().is_success());
        let stream = client.stream.as_ref().expect("keep-alive connection cached");
        assert!(
            stream.get_ref().nodelay().unwrap(),
            "client sockets must disable Nagle"
        );
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn stale_keep_alive_connections_are_retried_once() {
        // First connection: one good exchange, then the server closes it
        // while the client still caches it. The next request must be
        // re-sent on a fresh connection instead of failing.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Connection 1: answer once (keep-alive), then close.
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 || line == "\r\n" {
                    break;
                }
            }
            stream
                .write_all(canned("{\"n\":1}", None).as_bytes())
                .unwrap();
            // Server closes the idle keep-alive connection: both the stream
            // and its cloned reader fd must go, or the socket stays open.
            drop(reader);
            drop(stream);
            // Connection 2: the retried request.
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 || line == "\r\n" {
                    break;
                }
            }
            stream
                .write_all(canned("{\"n\":2}", None).as_bytes())
                .unwrap();
        });
        let mut client = HttpClient::new(addr);
        assert_eq!(client.get("/one").unwrap().body, "{\"n\":1}");
        // Give the server's close a moment to land in our socket.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(client.get("/two").unwrap().body, "{\"n\":2}");
        server.join().unwrap();
        assert_eq!(
            client.connections_opened(),
            2,
            "exactly one stale retry, on one fresh connection"
        );
    }
}
