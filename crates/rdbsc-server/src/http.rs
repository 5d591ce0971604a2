//! A minimal HTTP/1.1 implementation over `std::net`.
//!
//! The container is offline, so instead of hyper the server hand-rolls the
//! small slice of HTTP/1.1 it needs: request-line + header parsing,
//! `Content-Length` bodies, keep-alive, and fixed-length responses. No
//! chunked encoding, no TLS, no HTTP/2 — requests that need any of that are
//! rejected with a clear 400/501 instead of being misparsed.

use crate::error::ServerError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Maximum bytes accepted for the request line plus all headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The request methods the server routes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// The raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Lower-cased header names with their values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Did the client ask to close the connection after this exchange?
    pub close: bool,
}

impl Request {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or a 400-class error.
    pub fn body_utf8(&self) -> Result<&str, ServerError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServerError::BadRequest("body is not valid UTF-8".into()))
    }
}

/// Reads one `\n`-terminated line, never buffering more than `limit`
/// bytes: a hostile peer streaming an endless newline-free "line" must hit
/// a hard error, not grow an unbounded `String`.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    limit: usize,
) -> Result<String, ServerError> {
    let mut line = String::new();
    let n = std::io::Read::take(reader.by_ref(), limit as u64 + 1).read_line(&mut line)?;
    if n > limit {
        return Err(ServerError::BadRequest("header line too long".into()));
    }
    if n > 0 && !line.ends_with('\n') {
        // The take() limit cannot have cut it (n <= limit), so the stream
        // ended mid-line.
        return Err(ServerError::BadRequest("eof inside header line".into()));
    }
    Ok(line)
}

/// Reads one request off a connection.
///
/// Returns `Ok(None)` on a clean end-of-stream before any bytes of a next
/// request (the keep-alive peer hung up), `Err` on malformed input.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body_bytes: usize,
) -> Result<Option<Request>, ServerError> {
    let line = read_bounded_line(reader, MAX_HEAD_BYTES)?;
    if line.is_empty() {
        return Ok(None);
    }
    let line = line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(ServerError::BadRequest(format!(
                "bad request line {line:?}"
            )))
        }
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => {
            return Err(ServerError::BadRequest(format!(
                "unsupported method {other:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ServerError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let header_line = read_bounded_line(reader, MAX_HEAD_BYTES.saturating_sub(head_bytes))?;
        if header_line.is_empty() {
            return Err(ServerError::BadRequest("eof inside headers".into()));
        }
        head_bytes += header_line.len();
        let header_line = header_line.trim_end_matches(['\r', '\n']);
        if header_line.is_empty() {
            break;
        }
        let Some((name, value)) = header_line.split_once(':') else {
            return Err(ServerError::BadRequest(format!(
                "malformed header {header_line:?}"
            )));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ServerError::BadRequest("bad Content-Length".into()))?,
        None => 0,
    };
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ServerError::BadRequest(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    if content_length > max_body_bytes {
        return Err(ServerError::PayloadTooLarge {
            length: content_length,
            limit: max_body_bytes,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let close = match connection_directive(
        headers
            .iter()
            .filter(|(k, _)| k == "connection")
            .map(|(_, v)| v.as_str()),
    ) {
        Some(close) => close,
        None => version == "HTTP/1.0",
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
        close,
    }))
}

/// Folds any number of `Connection` header **values** into the peer's
/// intent. Each value is a comma-separated token list (RFC 9110 §7.6.1):
/// `Connection: keep-alive, te` is legal and must still mean keep-alive.
/// Tokens are matched case-insensitively after trimming. Returns
/// `Some(true)` when the peer asked to close, `Some(false)` when it asked
/// to keep the connection alive (an explicit `close` wins over `keep-alive`
/// if a nonsensical peer sends both), and `None` when neither token appears
/// — the caller falls back to the HTTP-version default. Shared by the
/// server's request parser and [`crate::client::HttpClient`]'s response
/// parser, so both sides of the wire read the header identically.
pub fn connection_directive<'a, V: IntoIterator<Item = &'a str>>(values: V) -> Option<bool> {
    let tokens: Vec<String> = values
        .into_iter()
        .flat_map(|v| v.split(','))
        .map(|token| token.trim().to_ascii_lowercase())
        .collect();
    if tokens.iter().any(|t| t == "close") {
        Some(true)
    } else if tokens.iter().any(|t| t == "keep-alive") {
        Some(false)
    } else {
        None
    }
}

/// A response ready to be written to the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Close the connection after writing?
    pub close: bool,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
        }
    }

    /// A Prometheus text-exposition response (`/metrics?format=prom`). The
    /// version parameter is part of the exposition-format contract scrapers
    /// negotiate on.
    pub fn prom_text(body: String) -> Self {
        Self {
            status: 200,
            body: body.into_bytes(),
            content_type: "text/plain; version=0.0.4",
            close: false,
        }
    }

    /// The response for an error, with `Retry-After`-worthy statuses closing
    /// the connection so a shed client does not hold a worker thread.
    pub fn from_error(e: &ServerError) -> Self {
        let status = e.status();
        Self {
            status,
            body: e.to_body().to_string_compact().into_bytes(),
            content_type: "application/json",
            close: matches!(status, 429 | 503 | 500),
        }
    }

    /// Marks the response as connection-closing.
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }
}

/// Looks `key` up in a raw query string (`a=1&b=2`); a key without `=`
/// yields `""`. No percent-decoding — the values the server reads (format
/// names, hex trace ids) never need it.
pub fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// The standard reason phrase for the status codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a response (with `Content-Length`, so the peer can keep-alive).
///
/// Head and body go out in a single `write_all`: two small writes on a
/// socket without `TCP_NODELAY` interact with Nagle + delayed ACK and stall
/// every exchange by ~40 ms.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    if response.close {
        head.push_str("connection: close\r\n");
    }
    if response.status == 429 {
        head.push_str("retry-after: 1\r\n");
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&response.body);
    stream.write_all(&wire)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs the parser against raw bytes by pushing them through a real
    /// loopback socket (BufReader<TcpStream> is the production type).
    fn parse_raw(raw: &[u8]) -> Result<Option<Request>, ServerError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let result = read_request(&mut BufReader::new(stream), 1024);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /tasks?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse_raw(raw).unwrap().unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/tasks");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("host"), Some("a"));
        assert!(!req.close);
    }

    #[test]
    fn clean_eof_yields_none() {
        assert!(parse_raw(b"").unwrap().is_none());
    }

    #[test]
    fn connection_semantics_follow_the_version() {
        let req = parse_raw(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(req.close, "HTTP/1.0 defaults to close");
        let req = parse_raw(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close);
        let req = parse_raw(b"GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_token_lists_are_honoured() {
        // A legal token list must not fall through to the version default.
        let req = parse_raw(b"GET / HTTP/1.0\r\nConnection: keep-alive, te\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.close, "keep-alive inside a token list must be seen");
        let req = parse_raw(b"GET / HTTP/1.1\r\nConnection: close, te\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close, "close inside a token list must be seen");
        // Odd whitespace and an unknown leading token.
        let req = parse_raw(b"GET / HTTP/1.1\r\nConnection: te ,  close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close);
        // Unknown tokens alone keep the version default.
        let req = parse_raw(b"GET / HTTP/1.0\r\nConnection: te, upgrade\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close, "unknown tokens fall back to the 1.0 default");
    }

    #[test]
    fn connection_header_tokens_match_case_insensitively() {
        let req = parse_raw(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close);
        let req = parse_raw(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.close);
        let req = parse_raw(b"GET / HTTP/1.0\r\nCONNECTION: KEEP-ALIVE, TE\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.close, "header name and tokens are case-insensitive");
    }

    #[test]
    fn explicit_close_wins_over_keep_alive() {
        let req = parse_raw(b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(
            req.close,
            "close is the safe reading of a contradictory list"
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_raw(b"NOT-HTTP\r\n\r\n").is_err());
        assert!(parse_raw(b"PUT / HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_raw(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse_raw(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
        assert!(parse_raw(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        assert!(parse_raw(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
    }

    #[test]
    fn oversized_bodies_are_rejected_by_declared_length() {
        let err = parse_raw(b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn responses_serialise_with_content_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        write_response(&mut stream, &Response::json(200, "{\"ok\":true}".into())).unwrap();
        drop(stream);
        let text = reader.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
