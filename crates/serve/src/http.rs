//! Minimal HTTP/1.1, hand-rolled over `std::net` — the workspace builds
//! offline, so there is no web framework to lean on and none is needed:
//! the service speaks exactly the subset CI and `curl` require (request
//! line + headers, fixed-length JSON responses, and chunked
//! transfer-encoding for streamed figure tables).
//!
//! The module is symmetric: [`Request::parse`] / [`ChunkedWriter`] serve
//! the server side, and [`fetch`] is a tiny client, used by the service
//! tests and the benchmark, that decodes both fixed-length and chunked
//! bodies.

use caba_stats::checksum::hex16;
use caba_stats::json;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Longest accepted request line or header, in bytes — requests are tiny
/// (`GET /figure/fig07?...`), so anything longer is garbage or abuse.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;

/// A parsed request: method, decoded path, and query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (`/figure/fig07`).
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses one request from `r`, consuming its headers (and body, when
    /// a `Content-Length` is declared — the service itself takes no
    /// bodies, but a client that sends one must not desync the stream).
    /// Returns `Ok(None)` for a malformed request — the caller answers
    /// 400 — and `Err` only for transport-level I/O failures.
    pub fn parse<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
        let Some(line) = read_crlf_line(r)? else {
            return Ok(None);
        };
        let mut parts = line.split(' ');
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Ok(None);
        };
        if parts.next().is_some() || !version.starts_with("HTTP/1.") {
            return Ok(None);
        }
        // Only origin-form targets are served; anything else is malformed.
        if !target.starts_with('/') {
            return Ok(None);
        }
        let mut content_length: usize = 0;
        for _ in 0..MAX_HEADERS {
            let Some(header) = read_crlf_line(r)? else {
                return Ok(None);
            };
            if header.is_empty() {
                // End of headers: drain any declared body. One shorter than
                // declared is malformed, like a head cut short.
                let mut body = vec![0u8; content_length.min(MAX_LINE)];
                match r.read_exact(&mut body) {
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
                    drained => drained?,
                }
                let (path, query) = split_target(target);
                return Ok(Some(Request {
                    method: method.to_string(),
                    path,
                    query,
                }));
            }
            let Some((name, value)) = header.split_once(':') else {
                return Ok(None);
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) if n <= MAX_LINE => n,
                    _ => return Ok(None),
                };
            }
        }
        Ok(None) // too many headers
    }
}

/// Reads one request from `stream`, all of it by `deadline`: the bound is
/// on the whole request, not on each read, so a client that sends a byte
/// at a time cannot hold the connection past it. Past the deadline the
/// error is [`io::ErrorKind::TimedOut`]; otherwise as [`Request::parse`].
pub fn read_request(stream: &TcpStream, deadline: Instant) -> io::Result<Option<Request>> {
    Request::parse(&mut BufReader::new(Deadline { stream, deadline }))
}

/// Reads from a socket until `deadline`: each `read` waits only for what
/// is left of it, and one at or past it fails with
/// [`io::ErrorKind::TimedOut`].
pub(crate) struct Deadline<'a> {
    pub(crate) stream: &'a TcpStream,
    pub(crate) deadline: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        match self.stream.read(buf) {
            // How an expired socket timeout reads on Unix.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::ErrorKind::TimedOut.into()),
            read => read,
        }
    }
}

/// Reads one CRLF-terminated line; `None` on EOF mid-line, an oversized
/// line, or embedded NUL (malformed).
fn read_crlf_line<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        if r.read(&mut byte)? == 0 {
            return Ok(None);
        }
        if byte[0] == b'\n' {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return match String::from_utf8(buf) {
                Ok(s) => Ok(Some(s)),
                Err(_) => Ok(None),
            };
        }
        buf.push(byte[0]);
        if buf.len() > MAX_LINE {
            return Ok(None);
        }
    }
}

/// Splits `/path?a=1&b=2` into the path and decoded query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(kv), String::new()),
                })
                .collect();
            (path.to_string(), query)
        }
    }
}

/// Decodes `%XX` escapes and `+` (space); invalid escapes pass through
/// literally rather than failing the whole request.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h * 16 + l);
                    i += 2;
                }
                _ => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    (*b? as char).to_digit(16).map(|d| d as u8)
}

/// Canonical reason phrase for the status codes the service uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response: header and body leave in one
/// `write`, so an unbuffered socket sends one segment, not one per piece.
pub fn respond<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut wire = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

/// Writes a typed JSON error: `{"error": CODE, "message": MSG}`. Every
/// non-2xx the service produces goes through here, so clients can always
/// parse the body.
pub fn respond_error<W: Write>(w: &mut W, status: u16, code: &str, msg: &str) -> io::Result<()> {
    let body = format!(
        "{{\"error\": \"{}\", \"message\": \"{}\"}}\n",
        json::escape(code),
        json::escape(msg)
    );
    respond(w, status, "application/json", body.as_bytes())
}

/// A chunked (`Transfer-Encoding: chunked`) 200 response in progress.
/// Chunks collect in a buffer that reaches the client when it fills, on
/// [`flush`](ChunkedWriter::flush) — which the caller owes the client
/// after any chunk that took real time to produce, so progress shows —
/// and on [`finish`](ChunkedWriter::finish). Dropping the writer without
/// `finish` sends what is buffered but not the terminal chunk, which
/// clients see as truncation — the deliberate mid-stream error signal
/// (the 200 header is long gone).
pub struct ChunkedWriter<W: Write> {
    w: BufWriter<W>,
}

/// Holds a whole figure table (100 cells come to 52 KB on the wire), so a
/// table that takes no time to produce leaves in one write.
const CHUNK_BUFFER: usize = 64 * 1024;

impl<W: Write> ChunkedWriter<W> {
    /// Buffers the 200 response header and switches to chunked encoding.
    pub fn begin(w: W, content_type: &str) -> io::Result<Self> {
        let mut w = BufWriter::with_capacity(CHUNK_BUFFER, w);
        write!(
            w,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        Ok(ChunkedWriter { w })
    }

    /// Buffers one chunk (empty input is skipped — an empty chunk would
    /// terminate the stream early).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        // The length in hex, without leading zeros.
        let len = data.len() as u64;
        self.w
            .write_all(&hex16(len)[len.leading_zeros() as usize / 4..])?;
        self.w.write_all(b"\r\n")?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")
    }

    /// Sends everything buffered so far.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Writes the terminal zero-length chunk, completing the response.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// A decoded client-side response.
#[derive(Debug, Clone)]
pub struct FetchedResponse {
    /// Status code.
    pub status: u16,
    /// Lower-cased header names with their values.
    pub headers: HashMap<String, String>,
    /// Fully decoded body (de-chunked when the response was chunked).
    pub body: Vec<u8>,
}

impl FetchedResponse {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Minimal HTTP client for tests and tooling: one request, one response,
/// connection closed. Decodes chunked bodies and fails with an error if a
/// chunked stream is truncated (no terminal chunk) — the service's
/// mid-stream error signal must surface as an error, not silent success.
pub fn fetch(addr: &str, method: &str, target: &str) -> io::Result<FetchedResponse> {
    let stream = TcpStream::connect(addr)?;
    fetch_on(stream, method, target, addr)
}

/// [`fetch`] over an already-connected stream.
pub fn fetch_on(
    mut stream: TcpStream,
    method: &str,
    target: &str,
    host: &str,
) -> io::Result<FetchedResponse> {
    // One `write`, like `respond`: the socket is unbuffered.
    let request =
        format!("{method} {target} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut r = BufReader::new(stream);

    let status_line = read_crlf_line(&mut r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;

    let mut headers = HashMap::new();
    loop {
        let line = read_crlf_line(&mut r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated headers"))?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
    }

    let body = if headers
        .get("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    {
        decode_chunked(&mut r)?
    } else if let Some(len) = headers.get("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        body
    } else {
        let mut body = Vec::new();
        r.read_to_end(&mut body)?;
        body
    };
    Ok(FetchedResponse {
        status,
        headers,
        body,
    })
}

/// Decodes a chunked body; errors if the stream ends before the terminal
/// zero-length chunk.
fn decode_chunked<R: BufRead>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let size_line = read_crlf_line(r)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "chunked body truncated (no terminal chunk)",
            )
        })?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            let _ = read_crlf_line(r)?; // trailing CRLF after the 0 chunk
            return Ok(body);
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..])
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "chunked body truncated"))?;
        let _ = read_crlf_line(r)?; // CRLF after chunk data
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Cursor;

    /// What a socket would have been asked to do, call by call.
    #[derive(Debug, PartialEq)]
    pub(crate) enum Call {
        Write(String),
        Flush,
    }

    /// A `Write` that takes every byte offered and records the calls.
    #[derive(Default)]
    pub(crate) struct Recorder(pub(crate) Vec<Call>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .push(Call::Write(String::from_utf8_lossy(buf).into()));
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.0.push(Call::Flush);
            Ok(())
        }
    }

    #[test]
    fn a_fixed_length_response_is_one_write() {
        let mut sock = Recorder::default();
        respond(&mut sock, 200, "application/json", b"{\"ok\": true}\n").unwrap();
        let wire = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                    Content-Length: 13\r\nConnection: close\r\n\r\n{\"ok\": true}\n";
        assert_eq!(sock.0, [Call::Write(wire.into()), Call::Flush]);
        let mut sock = Recorder::default();
        respond_error(&mut sock, 404, "not_found", "no such thing").unwrap();
        assert_eq!(sock.0.len(), 2, "{:?}", sock.0);
    }

    #[test]
    fn buffered_chunks_frame_exactly_as_flushed_ones_did() {
        let mut sock = Recorder::default();
        let mut cw = ChunkedWriter::begin(&mut sock, "text/plain").unwrap();
        cw.chunk(b"hello ").unwrap();
        cw.chunk(&[b'x'; 26]).unwrap();
        cw.finish().unwrap();
        // Header, then per chunk: hex length, CRLF, data, CRLF.
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\
             Connection: close\r\n\r\n6\r\nhello \r\n1a\r\n{}\r\n0\r\n\r\n",
            "x".repeat(26)
        );
        assert_eq!(sock.0, [Call::Write(wire), Call::Flush]);
    }

    #[test]
    fn chunk_lengths_are_lowercase_hex_without_leading_zeros() {
        for len in [1, 15, 16, 255, 256, 0xabc, 4096, 65_535, 70_000] {
            let mut wire = Vec::new();
            let mut cw = ChunkedWriter::begin(&mut wire, "text/plain").unwrap();
            cw.chunk(&vec![b'x'; len]).unwrap();
            drop(cw);
            let header_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            let want = format!("{len:x}\r\n");
            assert!(wire[header_end..].starts_with(want.as_bytes()), "{len}");
        }
    }

    #[test]
    fn parses_a_request_with_query_and_body() {
        let raw = b"GET /figure/fig07?scale=0.25&apps=CONS,BFS HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = Request::parse(&mut Cursor::new(&raw[..]))
            .unwrap()
            .expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/figure/fig07");
        assert_eq!(req.query("scale"), Some("0.25"));
        assert_eq!(req.query("apps"), Some("CONS,BFS"));
        assert_eq!(req.query("missing"), None);

        // A declared body is drained, not left to desync the stream.
        let raw = b"POST /shutdown HTTP/1.1\r\nContent-Length: 4\r\n\r\nhush";
        let req = Request::parse(&mut Cursor::new(&raw[..]))
            .unwrap()
            .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/shutdown");
    }

    #[test]
    fn malformed_requests_parse_to_none_not_panic() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1 extra\r\n\r\n"[..],
            &b""[..],
            &b"GET /x HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: zillions\r\n\r\n"[..],
        ] {
            assert_eq!(
                Request::parse(&mut Cursor::new(raw)).unwrap(),
                None,
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    /// Requests that parse, one of each shape.
    const VALID: [&[u8]; 3] = [
        b"GET /figure/fig07?scale=0.25&apps=CONS,BFS HTTP/1.1\r\nHost: x\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nhush",
    ];

    /// A request no server should act on: random bytes, a valid request cut
    /// short, a line over `MAX_LINE`, more than `MAX_HEADERS` headers, a
    /// body over the limit, or a header without a colon.
    pub(crate) fn hostile_request(rng: &mut caba_stats::Rng64) -> Vec<u8> {
        let excess = 1 + rng.range_u64(64) as usize;
        let over = |limit: usize| limit + excess;
        let head = b"GET /healthz HTTP/1.1\r\n".to_vec();
        match rng.range_u64(6) {
            0 => {
                let len = rng.range_u64(4096) as usize;
                caba_stats::prop::bytes(rng, len)
            }
            1 => {
                let whole = VALID[rng.range_u64(VALID.len() as u64) as usize];
                whole[..rng.range_u64(whole.len() as u64) as usize].to_vec()
            }
            2 => format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(over(MAX_LINE))).into_bytes(),
            3 => {
                let n = over(MAX_HEADERS);
                let headers: String = (0..n).map(|i| format!("X-{i}: v\r\n")).collect();
                [head, headers.into_bytes(), b"\r\n".to_vec()].concat()
            }
            4 => {
                let length = format!("Content-Length: {}\r\n\r\n", over(MAX_LINE));
                [head, length.into_bytes()].concat()
            }
            _ => {
                let len = 1 + rng.range_u64(200) as usize;
                let line: String = (0..len)
                    .map(|_| (b'a' + rng.range_u64(26) as u8) as char)
                    .collect();
                [head, line.into_bytes(), b"\r\n\r\n".to_vec()].concat()
            }
        }
    }

    /// Garbage, cut-short and oversized requests parse to `Ok(None)` (the
    /// caller's 400) or an error, and never panic.
    #[test]
    fn hostile_requests_never_parse_and_never_panic() {
        for raw in VALID {
            let req = Request::parse(&mut Cursor::new(raw)).unwrap();
            assert!(req.is_some(), "{:?}", String::from_utf8_lossy(raw));
        }
        caba_stats::prop::check(0x4177_F022, 2_000, |rng| {
            let raw = hostile_request(rng);
            if let Ok(Some(req)) = Request::parse(&mut Cursor::new(&raw)) {
                panic!("{req:?} parsed from {:?}", String::from_utf8_lossy(&raw));
            }
        });
    }

    #[test]
    fn percent_decoding_handles_escapes_and_garbage() {
        assert_eq!(percent_decode("a%2Cb+c"), "a,b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn chunked_round_trip_and_truncation_detection() {
        let mut wire = Vec::new();
        {
            let mut cw = ChunkedWriter::begin(&mut wire, "text/plain").unwrap();
            cw.chunk(b"hello ").unwrap();
            cw.chunk(b"").unwrap(); // skipped, must not terminate
            cw.chunk(b"world\n").unwrap();
            cw.finish().unwrap();
        }
        let text = String::from_utf8(wire.clone()).unwrap();
        let body_at = text.find("\r\n\r\n").unwrap() + 4;
        let decoded = decode_chunked(&mut Cursor::new(&wire[body_at..])).unwrap();
        assert_eq!(decoded, b"hello world\n");

        // Drop the terminal chunk: decoding must error, not succeed.
        let truncated = &wire[body_at..wire.len() - 5];
        let err = decode_chunked(&mut Cursor::new(truncated)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn error_responses_are_parseable_json() {
        let mut wire = Vec::new();
        respond_error(&mut wire, 400, "bad_request", "unknown figure \"fig99\"").unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        caba_stats::json::validate(body.trim()).expect("error body is valid JSON");
        assert!(body.contains("\\\"fig99\\\""), "{body}");
    }
}
