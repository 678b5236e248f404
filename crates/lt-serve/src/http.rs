//! A minimal HTTP/1.1 layer over `std::net`, sized for the tuning service.
//!
//! The default is one request per connection (`Connection: close` on every
//! response); clients that send `Connection: keep-alive` explicitly get the
//! connection back for more requests, up to [`KEEPALIVE_MAX`] requests
//! and a 30 s idle timeout ([`Connection`] is the persistent
//! client). No chunked encoding — the serving protocol is small JSON
//! documents delimited by `Content-Length` in both directions. Head and
//! body sizes are bounded so a misbehaving peer cannot balloon memory.
//!
//! `serve` is the one accept loop: the shard server and the coordinator
//! both hand it their router.

use lt_common::json::Value;
use lt_common::obs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, upper-case as sent (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request target, e.g. `/sessions/3/config` (query strings are kept
    /// verbatim; the service routes on the path only).
    pub path: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` when it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The body parsed as JSON (a blank body reads as `{}`), or the 400
    /// answering a body that is not UTF-8 JSON.
    pub(crate) fn json_body(&self) -> Result<Value, Response> {
        let Some(body) = self.body_str() else {
            return Err(Response::error(400, "body is not UTF-8"));
        };
        let body = if body.trim().is_empty() { "{}" } else { body };
        lt_common::json::parse(body)
            .map_err(|err| Response::error(400, &format!("invalid JSON: {err}")))
    }

    /// The tenant named by the `X-Tenant` header, `"default"` when absent
    /// or blank. Tenancy is declared, not authenticated — it models quota
    /// accounting, not security.
    pub(crate) fn tenant(&self) -> String {
        self.header("x-tenant")
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .unwrap_or("default")
            .to_string()
    }

    /// True when the client explicitly asked to reuse the connection.
    /// HTTP/1.1 defaults to persistent connections, but this service keeps
    /// the historical close-by-default contract — existing clients send no
    /// `Connection` header and expect EOF-delimited responses.
    pub fn wants_keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

/// Reads one request from `stream`. `Err` means the peer sent something
/// that is not HTTP (or exceeded the size bounds); the connection should
/// be answered with 400 and closed.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());

    // Accumulate until the blank line that ends the head.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    let head_end = loop {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(malformed("request head too large"));
        }
        match stream.read(&mut byte)? {
            0 => return Err(malformed("connection closed mid-head")),
            _ => head.push(byte[0]),
        }
        if head.ends_with(b"\r\n\r\n") {
            break head.len() - 4;
        }
        if head.ends_with(b"\n\n") {
            break head.len() - 2; // tolerate bare-LF clients (curl never, netcat maybe)
        }
    };
    let head_text = std::str::from_utf8(&head[..head_end])
        .map_err(|_| malformed("request head is not UTF-8"))?;
    let mut lines = head_text.lines();
    let request_line = lines.next().ok_or_else(|| malformed("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| malformed("missing request target"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1") => {}
        _ => return Err(malformed("missing or unsupported HTTP version")),
    }
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| malformed("bad Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(malformed("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text (always JSON in this service).
    pub body: String,
    /// Extra headers beyond the standard set (e.g. `Allow` on a 405).
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, value: &Value) -> Response {
        Response {
            status,
            body: value.to_string_pretty(),
            headers: Vec::new(),
        }
    }

    /// Appends an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// A JSON error envelope: `{"error": {"status", "message"}}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            &lt_common::json!({
                "error": lt_common::json!({
                    "status": status,
                    "message": message,
                }),
            }),
        )
    }

    /// Serializes status line, headers and body to `stream`, closing the
    /// connection afterwards (the historical one-request contract).
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        self.write_connection(stream, false)
    }

    /// [`Response::write_to`] with an explicit connection disposition:
    /// `keep_alive` announces the connection stays open for more requests.
    pub fn write_connection(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.headers {
            write!(stream, "{name}: {value}\r\n")?;
        }
        write!(stream, "\r\n{}", self.body)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Requests served per connection before it is closed, even for clients
/// asking `Connection: keep-alive`. Bounds how long one client can hold a
/// connection thread.
pub const KEEPALIVE_MAX: usize = 32;

/// How long a connection may sit between requests (and how long one
/// request may take to arrive) before its thread gives up; also the
/// response write timeout.
pub(crate) const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default bound on concurrent connection threads.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// The stop switch of one [`serve`] loop, shared by its [`Server`] handle
/// and every handler call.
#[derive(Debug, Clone)]
pub(crate) struct Shutdown {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Shutdown {
    /// True once a stop was requested.
    pub(crate) fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Stops the accept loop. The loop blocks in `accept()`, so this pokes
    /// it with a throwaway connection to make it observe the flag now
    /// rather than on the next client.
    pub(crate) fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running [`serve`] loop. Dropping it stops and joins the accept loop.
#[derive(Debug)]
pub(crate) struct Server {
    shutdown: Shutdown,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// The bound address (with the real port when 0 was requested).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.shutdown.addr
    }

    /// The loop's stop switch.
    pub(crate) fn shutdown_switch(&self) -> Shutdown {
        self.shutdown.clone()
    }

    /// Blocks until the accept loop exits (after a [`Shutdown::request`]
    /// from any thread). Idempotent.
    pub(crate) fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting and joins the accept loop. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shutdown.request();
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decrements the live-connection count when a connection thread exits,
/// however it exits.
struct ConnectionGuard(Arc<AtomicUsize>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Spawns the accept loop on `listener` and returns immediately. Each
/// connection gets its own thread, which answers every request on it with
/// `handler`. At most `max_connections` connection threads run at once;
/// connections above the cap are answered 503 without spawning a thread.
pub(crate) fn serve<H>(
    listener: TcpListener,
    max_connections: usize,
    handler: H,
) -> io::Result<Server>
where
    H: Fn(&Request, &Shutdown) -> Response + Send + Sync + 'static,
{
    let shutdown = Shutdown {
        flag: Arc::new(AtomicBool::new(false)),
        addr: listener.local_addr()?,
    };
    let max_connections = max_connections.max(1);
    let connections = Arc::new(AtomicUsize::new(0));
    let handler = Arc::new(handler);
    let accept_shutdown = shutdown.clone();
    let accept_thread = std::thread::Builder::new()
        .name("lt-serve-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.is_requested() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Each connection holds a thread (up to the idle timeout),
                // so cap them like tuning jobs.
                if connections.fetch_add(1, Ordering::SeqCst) >= max_connections {
                    connections.fetch_sub(1, Ordering::SeqCst);
                    reject_connection(stream);
                    continue;
                }
                // On spawn failure the unstarted closure is dropped and the
                // moved guard decrements the count right there.
                let guard = ConnectionGuard(connections.clone());
                let handler = handler.clone();
                let shutdown = accept_shutdown.clone();
                let _ = std::thread::Builder::new()
                    .name("lt-serve-conn".to_string())
                    .spawn(move || {
                        let _guard = guard;
                        serve_connection(stream, |request| handler(request, &shutdown));
                    });
            }
        })?;
    Ok(Server {
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Answers an over-cap connection with 503 from the accept thread.
fn reject_connection(mut stream: TcpStream) {
    obs::counter("serve.connections_rejected", 1);
    // Drain whatever the client already sent (non-blocking, best effort):
    // closing a socket with unread bytes resets the connection and would
    // eat the 503.
    let _ = stream.set_nonblocking(true);
    let mut scratch = [0u8; 4096];
    while matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
    let _ = stream.set_nonblocking(false);
    // Tiny fixed body: fits the socket buffer, so this cannot stall the
    // accept loop for long.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = Response::error(503, "too many connections, retry later").write_to(&mut stream);
}

/// The keep-alive loop of one connection. Close-by-default with opt-in
/// reuse: a client sending `Connection: keep-alive` gets the connection
/// back for more requests, up to [`KEEPALIVE_MAX`]; the read timeout
/// doubles as the idle timeout between them.
fn serve_connection(mut stream: TcpStream, handler: impl Fn(&Request) -> Response) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IDLE_TIMEOUT));
    for served in 0..KEEPALIVE_MAX {
        let request = match read_request(&mut stream) {
            Ok(request) => request,
            Err(err) => {
                // After at least one request, an error here is just the
                // client being done (clean close or idle timeout) — end the
                // connection silently rather than answering 400.
                if served == 0 {
                    let _ = Response::error(400, &format!("malformed request: {err}"))
                        .write_to(&mut stream);
                }
                return;
            }
        };
        if served > 0 {
            obs::counter("serve.keepalive_reuse", 1);
        }
        let keep = request.wants_keep_alive() && served + 1 < KEEPALIVE_MAX;
        let response = handler(&request);
        if response.write_connection(&mut stream, keep).is_err() || !keep {
            return;
        }
    }
}

/// 405 for a known path whose method set does not include `method`.
pub(crate) fn method_not_allowed(method: &str, path: &str, allow: &'static str) -> Response {
    Response::error(
        405,
        &format!("method {method} not allowed for {path} (allow: {allow})"),
    )
    .with_header("Allow", allow)
}

/// Blocking HTTP client for the load generator, tests and examples: opens
/// a fresh connection, sends one request, returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let (status, _, body) = request_with(addr, method, path, &[], body)?;
    Ok((status, body))
}

/// Status code, response headers (names lower-cased) and body of one
/// client-side response.
pub type RawResponse = (u16, Vec<(String, String)>, String);

/// Like [`request`], but sends extra request headers (e.g. `X-Tenant`) and
/// returns the response headers (names lower-cased) alongside status and
/// body.
pub fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> io::Result<RawResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "\r\n{body}")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
}

/// Upper bound on a response body the persistent client will accept.
const MAX_RESPONSE_BYTES: usize = 8 * 1024 * 1024;

/// Reads one `Content-Length`-delimited response — the framing that makes
/// connection reuse possible (an EOF-delimited read would wait out the
/// server's idle timeout on every call).
fn read_response(stream: &mut impl Read) -> io::Result<RawResponse> {
    let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(malformed("response head too large"));
        }
        match stream.read(&mut byte)? {
            0 => {
                // EOF here means the peer closed between our request and
                // its response — a stale keep-alive or a dying server.
                // `UnexpectedEof` (not `InvalidData`) so the reconnect
                // logic can tell a dead socket from a protocol violation.
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            _ => head.push(byte[0]),
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
    }
    let head_text = std::str::from_utf8(&head[..head.len() - 4])
        .map_err(|_| malformed("response head is not UTF-8"))?;
    let mut lines = head_text.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| malformed("bad Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_RESPONSE_BYTES {
        return Err(malformed("response body too large"));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| malformed("response body is not UTF-8"))?;
    Ok((status, headers, body))
}

/// Why a [`Connection::call_classified`] failed — the distinction the
/// shard-failover path needs.
#[derive(Debug)]
pub enum CallError {
    /// The TCP connect itself was refused or unreachable: the server
    /// process is down and **no request bytes were sent**. Safe to retry
    /// elsewhere (or later, through the coordinator) even for POSTs.
    Refused(io::Error),
    /// The transport or HTTP exchange failed after a connection existed —
    /// the request may have been partially processed; retrying is the
    /// caller's judgement call.
    Transport(io::Error),
}

impl CallError {
    /// The underlying I/O error.
    pub fn into_inner(self) -> io::Error {
        match self {
            CallError::Refused(err) | CallError::Transport(err) => err,
        }
    }

    /// True when the failure was a connect-level refusal (server down).
    pub fn is_refused(&self) -> bool {
        matches!(self, CallError::Refused(_))
    }
}

/// True for error kinds that mean a previously-good keep-alive socket is
/// simply dead (server restarted, idle-closed, or capped the connection) —
/// the cases where a one-shot reconnect-and-retry is sound.
fn is_stale_connection(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WriteZero
    )
}

/// True when a connect attempt failed because nothing is listening.
fn is_refused_connect(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::HostUnreachable
            | io::ErrorKind::NetworkUnreachable
            | io::ErrorKind::AddrNotAvailable
    )
}

/// A persistent client connection: sends `Connection: keep-alive` on every
/// request and reads responses by `Content-Length`, so one TCP connection
/// carries many calls. When the server closes it anyway — per-connection
/// request cap, idle timeout, restart — the next call transparently
/// reconnects once before giving up.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Connection {
    /// A lazily-connected client for `addr` (the socket opens on first use).
    pub fn new(addr: SocketAddr) -> Connection {
        Connection { addr, stream: None }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_write_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream just connected"))
    }

    /// Sends one request over the persistent connection and reads the
    /// response. Reconnects and retries once when the connection turned out
    /// to be dead (server-side cap or idle close between calls).
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> io::Result<RawResponse> {
        self.call_classified(method, path, headers, body)
            .map_err(CallError::into_inner)
    }

    /// [`Connection::call`] that reports *why* it failed: a connect-level
    /// refusal ([`CallError::Refused`] — the server is down, nothing was
    /// sent, failover is safe) versus a transport/HTTP failure
    /// ([`CallError::Transport`]).
    ///
    /// A reused keep-alive socket that turns out to be dead (reset, broken
    /// pipe, EOF before the status line) is retried once on a fresh
    /// connection before either classification is reported — but a
    /// protocol-level error (malformed response) is **not** retried: the
    /// request may have been processed, and blind resends would duplicate
    /// non-idempotent calls.
    pub fn call_classified(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<RawResponse, CallError> {
        let reused = self.stream.is_some();
        match self.try_call(method, path, headers, body) {
            Ok(response) => Ok(response),
            Err(err) if reused && is_stale_connection(&err) => {
                self.stream = None;
                self.try_call(method, path, headers, body)
                    .map_err(|err| self.classify(err))
            }
            Err(err) => Err(self.classify(err)),
        }
    }

    fn classify(&self, err: io::Error) -> CallError {
        if is_refused_connect(&err) {
            CallError::Refused(err)
        } else {
            CallError::Transport(err)
        }
    }

    fn try_call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> io::Result<RawResponse> {
        let addr = self.addr;
        let result = (|| {
            let stream = self.stream()?;
            let body = body.unwrap_or("");
            write!(
                stream,
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
                body.len()
            )?;
            for (name, value) in headers {
                write!(stream, "{name}: {value}\r\n")?;
            }
            write!(stream, "\r\n{body}")?;
            stream.flush()?;
            read_response(stream)
        })();
        match result {
            Ok((status, headers, body)) => {
                // The server says whether the connection survives this
                // response; believe it rather than discovering a dead
                // socket on the next call.
                let closing = headers
                    .iter()
                    .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
                if closing {
                    self.stream = None;
                }
                Ok((status, headers, body))
            }
            Err(err) => {
                self.stream = None;
                Err(err)
            }
        }
    }
}

/// Splits a raw HTTP response into status code, headers and body.
fn parse_response(raw: &str) -> io::Result<RawResponse> {
    let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| malformed("no header/body separator in response"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let headers = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    Ok((status, headers, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw =
            b"POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n\r\n{\"seed\": 7}\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body_str(), Some("{\"seed\": 7}\r\n"));
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = b"GET /metrics HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_truncation_and_oversize() {
        assert!(read_request(&mut &b"not http at all"[..]).is_err());
        assert!(
            read_request(&mut &b"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"[..]).is_err()
        );
        assert!(
            read_request(&mut &b"GET /x HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n"[..])
                .is_err()
        );
        assert!(
            read_request(&mut &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..]).is_err()
        );
        assert!(
            read_request(&mut &b"GET /x\r\n\r\n"[..]).is_err(),
            "missing version"
        );
        let huge = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(read_request(&mut &huge[..]).is_err());
    }

    #[test]
    fn response_serializes_with_content_length() {
        let resp = Response::json(200, &lt_common::json!({ "ok": true }));
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert!(text.contains(&format!("Content-Length: {}", body.len())));
        let (status, headers, parsed_body) = parse_response(&text).unwrap();
        assert_eq!(status, 200);
        assert_eq!(parsed_body, body);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "close"));
    }

    #[test]
    fn extra_headers_are_written() {
        let resp = Response::error(405, "nope").with_header("Allow", "GET, POST");
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let head = text.split("\r\n\r\n").next().unwrap();
        assert!(head.contains("\r\nAllow: GET, POST"), "{text}");
        let (status, headers, _) = parse_response(&text).unwrap();
        assert_eq!(status, 405);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "allow" && v == "GET, POST"));
    }

    #[test]
    fn keep_alive_is_explicit_opt_in() {
        let raw = b"GET /metrics HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        assert!(read_request(&mut &raw[..]).unwrap().wants_keep_alive());
        let raw = b"GET /metrics HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(read_request(&mut &raw[..]).unwrap().wants_keep_alive());
        let raw = b"GET /metrics HTTP/1.1\r\n\r\n";
        assert!(!read_request(&mut &raw[..]).unwrap().wants_keep_alive());
        let raw = b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!read_request(&mut &raw[..]).unwrap().wants_keep_alive());
    }

    #[test]
    fn write_connection_announces_the_disposition() {
        let resp = Response::json(200, &lt_common::json!({ "ok": true }));
        let mut out = Vec::new();
        resp.write_connection(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (_, headers, _) = parse_response(&text).unwrap();
        assert!(headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "keep-alive"));
    }

    #[test]
    fn read_response_stops_at_content_length() {
        // Two pipelined responses on one stream: the reader must consume
        // exactly one, leaving the second for the next call.
        let mut out = Vec::new();
        Response::json(200, &lt_common::json!({ "first": 1 }))
            .write_connection(&mut out, true)
            .unwrap();
        Response::json(404, &lt_common::json!({ "second": 2 }))
            .write_connection(&mut out, false)
            .unwrap();
        let mut stream = &out[..];
        let (status, _, body) = read_response(&mut stream).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("first"));
        let (status, _, body) = read_response(&mut stream).unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("second"));
        assert!(read_response(&mut stream).is_err(), "stream exhausted");
    }

    #[test]
    fn error_envelope_carries_status_and_message() {
        let resp = Response::error(429, "queue full");
        assert_eq!(resp.status, 429);
        let doc = lt_common::json::parse(&resp.body).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("status").and_then(Value::as_i64), Some(429));
        assert_eq!(
            err.get("message").and_then(Value::as_str),
            Some("queue full")
        );
    }
}
