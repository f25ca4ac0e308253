//! A keep-alive HTTP/1.1 client that counts its reconnects.
//!
//! The repository's own client reconnects silently; the benchmark needs to
//! see every fresh connection, because the first request on one pays the
//! server's accept poll.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body as text.
    pub body: String,
    /// Whether the request went out on a connection opened for it.
    pub fresh_connection: bool,
}

/// A client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Connections opened after the first one.
    pub reconnects: u64,
    opened: u64,
}

impl Client {
    /// A client for `addr`; the connection opens with the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            reconnects: 0,
            opened: 0,
        }
    }

    fn open(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some((stream, reader));
        if self.opened > 0 {
            self.reconnects += 1;
        }
        self.opened += 1;
        Ok(())
    }

    /// The raw request head the client sends for `path`.
    pub fn head(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n")
    }

    /// GET `path`.  A request on a reused connection that the server has
    /// closed in the meantime is retried once on a fresh connection.
    pub fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        let reused = self.conn.is_some();
        match self.exchange(path) {
            Err(_) if reused => {
                self.conn = None;
                self.exchange(path)
            }
            other => other,
        }
    }

    fn exchange(&mut self, path: &str) -> std::io::Result<Reply> {
        let fresh_connection = self.conn.is_none();
        if fresh_connection {
            self.open()?;
        }
        let (stream, reader) = self.conn.as_mut().expect("a connection was just opened");
        stream.write_all(Client::head(path).as_bytes())?;
        stream.flush()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            self.conn = None;
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        Ok(Reply {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
            fresh_connection,
        })
    }
}

/// `%`-encode a query-string value.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_reserved_bytes() {
        assert_eq!(encode("a b=1&c"), "a%20b%3D1%26c");
        assert_eq!(encode("x<5"), "x%3C5");
    }
}
