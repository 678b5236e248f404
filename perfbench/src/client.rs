//! A minimal keep-alive HTTP/1.1 client for loopback calls to the daemon.
//!
//! The benchmark carries its own client so that changes to the program's
//! client code cannot change what the benchmark measures.

use lt_common::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        json::parse(text).map_err(|e| format!("bad JSON from daemon: {e}"))
    }
}

/// A connection that reconnects when the server closes it.
#[derive(Debug)]
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// Client for `addr` (`host:port`); connects lazily.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.call("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, String> {
        self.call("POST", path, Some(body))
    }

    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<Response, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
            self.conn = Some(BufReader::new(stream));
        }
        let result = self.exchange(method, path, body);
        if !matches!(result, Ok((_, true))) {
            self.conn = None;
        }
        result.map(|(response, _)| response)
    }

    /// Sends one request and reads its response; the flag says whether the
    /// connection may be reused.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(Response, bool), String> {
        let conn = self.conn.as_mut().expect("connected above");
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let stream = conn.get_mut();
        stream
            .write_all(head.as_bytes())
            .and_then(|_| stream.write_all(body.as_bytes()))
            .map_err(|e| format!("{method} {path}: send: {e}"))?;

        let mut line = String::new();
        conn.read_line(&mut line)
            .map_err(|e| format!("{method} {path}: read: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{method} {path}: bad status line {line:?}"))?;
        let mut length = 0usize;
        let mut keep_alive = true;
        loop {
            line.clear();
            conn.read_line(&mut line)
                .map_err(|e| format!("{method} {path}: read: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .parse()
                        .map_err(|_| "bad content-length".to_string())?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)
            .map_err(|e| format!("{method} {path}: body: {e}"))?;
        Ok((Response { status, body }, keep_alive))
    }
}
