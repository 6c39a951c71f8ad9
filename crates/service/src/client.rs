//! A minimal blocking client for the llhsc-service protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::json::Json;

/// Sends one raw request line and reads one response line.
///
/// # Errors
///
/// A human-readable message on connect, transport or framing failure
/// (the caller renders it and exits 2).
pub fn request_raw(addr: &str, line: &str) -> Result<Json, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // The line and its `\n` leave in one write, at once: a separate
    // `\n` write could meet a server that has already answered an
    // oversized line and half-closed, and fail with a reset.
    let _ = stream.set_nodelay(true);
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let n = reader
        .read_line(&mut response)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if n == 0 {
        return Err("server closed the connection without responding".to_string());
    }
    Json::parse(response.trim_end_matches('\n'))
        .map_err(|e| format!("malformed response from server: {e}"))
}

/// Sends one request object and reads one response object.
///
/// # Errors
///
/// See [`request_raw`].
pub fn request(addr: &str, req: &Json) -> Result<Json, String> {
    request_raw(addr, &req.to_string())
}

/// [`request`], then peels the protocol envelope: an `ok: false` frame
/// becomes an `Err` carrying the server's error message.
///
/// # Errors
///
/// Transport failures and server error frames.
pub fn request_ok(addr: &str, req: &Json) -> Result<Json, String> {
    let response = request(addr, req)?;
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(response),
        Some(false) => Err(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error")
            .to_string()),
        None => Err("malformed response from server: missing \"ok\"".to_string()),
    }
}
