//! A minimal HTTP/1.1 client for the SPARQL endpoint, and the answer
//! check against the oracle.
//!
//! The endpoint answers every request with `Connection: close`, so one
//! request is one TCP connection: connect, write, read to EOF.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::corpus::Expected;

/// How one SPARQL request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 200, `complete=true`, and the oracle's rows and digest.
    Correct,
    /// 503 from the connection queue or the admission gate.
    Rejected,
    /// Any other non-200 status (504 included).
    Status,
    /// 200 with `complete=false`.
    Incomplete,
    /// 200 and `complete=true`, but rows or digest differ from the oracle.
    Mismatch,
    /// Connect, write or read failed, or the response did not parse.
    Io,
}

/// One blocking request; returns the status code and the body.
pub fn request(addr: SocketAddr, head: &str, timeout: Duration) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(head.as_bytes())?;
    let mut response = Vec::with_capacity(4096);
    stream.read_to_end(&mut response)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let status = response
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    Ok((status, response.split_off(split + 4)))
}

/// `GET path` with no body.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, Vec<u8>)> {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n"),
        timeout,
    )
}

/// The request head for one SPARQL query, percent-encoded into a `GET`.
pub fn sparql_request(addr: SocketAddr, query: &str) -> String {
    let mut encoded = String::with_capacity(query.len() * 2);
    for b in query.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                encoded.push(b as char)
            }
            _ => encoded.push_str(&format!("%{b:02X}")),
        }
    }
    format!("GET /sparql?query={encoded} HTTP/1.1\r\nHost: {addr}\r\n\r\n")
}

/// Sends one query and checks the answer against `expected`.
pub fn sparql(addr: SocketAddr, head: &str, expected: Expected, timeout: Duration) -> Outcome {
    match request(addr, head, timeout) {
        Err(_) => Outcome::Io,
        Ok((503, _)) => Outcome::Rejected,
        Ok((200, body)) => check(&body, expected),
        Ok(_) => Outcome::Status,
    }
}

/// Classifies a 200 body: complete and equal to the oracle, or not.
pub fn check(body: &[u8], expected: Expected) -> Outcome {
    const COMPLETE: &[u8] = b"\"rdfmesh\":{\"complete\":true";
    let tail = &body[body.len().saturating_sub(512)..];
    if !tail.windows(COMPLETE.len()).any(|w| w == COMPLETE) {
        return Outcome::Incomplete;
    }
    match digest_bindings(body) {
        Some((rows, digest)) if rows == expected.rows && digest == expected.digest => {
            Outcome::Correct
        }
        Some(_) => Outcome::Mismatch,
        None => Outcome::Io,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    // SplitMix64 finalizer, so summing row hashes stays well mixed.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Counts the binding objects of a SPARQL JSON results document and
/// digests them independently of their order: the wrapping sum of one
/// hash per binding's text. `to_json` writes a solution's cells in
/// variable order, so equal solutions have equal text on both sides.
/// Returns `None` if the document has no well-formed `bindings` array.
pub fn digest_bindings(body: &[u8]) -> Option<(usize, u64)> {
    const KEY: &[u8] = b"\"bindings\":[";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let (mut rows, mut digest) = (0usize, 0u64);
    let (mut depth, mut in_string, mut escaped, mut row_start) = (0usize, false, false, 0usize);
    for (i, &b) in body.iter().enumerate().skip(start) {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    row_start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    rows += 1;
                    digest = digest.wrapping_add(fnv1a(&body[row_start..=i]));
                }
            }
            b']' if depth == 0 => return Some((rows, digest)),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_and_counts_duplicates() {
        let a = br#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"a}"}},{"x":{"type":"literal","value":"b\"{"}}]},"rdfmesh":{"complete":true}}"#;
        let b = br#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"b\"{"}},{"x":{"type":"uri","value":"a}"}}]}}"#;
        let (rows, d) = digest_bindings(a).unwrap();
        assert_eq!(rows, 2);
        assert_eq!(digest_bindings(b).unwrap(), (2, d));
        let dup = br#"{"results":{"bindings":[{"x":1},{"x":1}]}}"#;
        let one = br#"{"results":{"bindings":[{"x":1}]}}"#;
        assert_ne!(
            digest_bindings(dup).unwrap().1,
            digest_bindings(one).unwrap().1
        );
        assert_eq!(check(a, Expected { rows: 2, digest: d }), Outcome::Correct);
        assert_eq!(
            check(b, Expected { rows: 2, digest: d }),
            Outcome::Incomplete
        );
        assert_eq!(digest_bindings(br#"{"results":{"bindings":[{"x":1}"#), None);
    }
}
