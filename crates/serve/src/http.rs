//! A deliberately minimal HTTP/1.1 front end (no external deps).
//!
//! One request per connection (`Connection: close`), JSON in and JSON
//! out, sharing the op dispatcher with the NDJSON socket:
//!
//! * `POST /eval`, `POST /sweep`, `POST /explore`, `POST /shutdown` —
//!   the request body is the op object (the `op` field is implied by
//!   the path),
//! * `GET /stats`, `GET /ping` — no body.
//!
//! Status mapping: 200 on success, 400 malformed, 404 unknown path,
//! 405 wrong method, 413 oversized body, 429 queue-full (with a
//! `Retry-After` header).

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use minnow_bench::json_read::Json;

use crate::daemon::Inner;
use crate::net::{read_line_capped, LineRead};
use crate::proto::{error_line, MAX_REQUEST_BYTES};

/// Largest request head (request line + headers) the server buffers.
const MAX_HEAD_LINE: u64 = 8 << 10;

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Writes the whole response, head and body, in one buffer, so the
/// client never wakes on a head without its body.
fn respond(stream: &mut TcpStream, status: u16, retry_after_ms: Option<u64>, body: &str) {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    if let Some(ms) = retry_after_ms {
        out.push_str(&format!("Retry-After: {}\r\n", ms.div_ceil(1000).max(1)));
    }
    out.push_str("Connection: close\r\n\r\n");
    out.push_str(body);
    let _ = stream.write_all(out.as_bytes());
    let _ = stream.flush();
}

/// Serves HTTP connections until shutdown.
pub(crate) fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    for conn in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let inner = Arc::clone(&inner);
        let _ = std::thread::Builder::new()
            .name("serve-http-conn".into())
            .spawn(move || handle_conn(inner, stream));
    }
}

fn handle_conn(inner: Arc<Inner>, stream: TcpStream) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    let request_line = match read_line_capped(&mut reader, MAX_HEAD_LINE) {
        Ok(LineRead::Line(l)) => l,
        Ok(LineRead::Oversized) => {
            respond(&mut writer, 400, None, &error_line("?", "request line too long"));
            return;
        }
        _ => return,
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        respond(&mut writer, 400, None, &error_line("?", "malformed request line"));
        return;
    };
    let (method, path) = (method.to_string(), path.to_string());

    let mut content_length: u64 = 0;
    loop {
        match read_line_capped(&mut reader, MAX_HEAD_LINE) {
            Ok(LineRead::Line(l)) if l.is_empty() => break,
            Ok(LineRead::Line(l)) => {
                if let Some((name, value)) = l.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().unwrap_or(u64::MAX);
                    }
                }
            }
            Ok(LineRead::Oversized) => {
                respond(&mut writer, 400, None, &error_line("?", "header too long"));
                return;
            }
            _ => return,
        }
    }

    let op = match (method.as_str(), path.as_str()) {
        ("POST", "/eval") => "eval",
        ("POST", "/sweep") => "sweep",
        ("POST", "/explore") => "explore",
        ("POST", "/shutdown") => "shutdown",
        ("GET", "/stats") => "stats",
        ("GET", "/ping") => "ping",
        ("GET", "/eval" | "/sweep" | "/explore" | "/shutdown")
        | ("POST", "/stats" | "/ping") => {
            respond(&mut writer, 405, None, &error_line("?", "method not allowed"));
            return;
        }
        _ => {
            respond(
                &mut writer,
                404,
                None,
                &error_line("?", &format!("no such endpoint `{method} {path}`")),
            );
            return;
        }
    };

    if content_length > MAX_REQUEST_BYTES {
        respond(
            &mut writer,
            413,
            None,
            &error_line(op, &format!("body exceeds {MAX_REQUEST_BYTES} bytes")),
        );
        return;
    }
    let mut body = vec![0u8; content_length as usize];
    if reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = match String::from_utf8(body) {
        Ok(b) => b,
        Err(_) => {
            respond(&mut writer, 400, None, &error_line(op, "body is not UTF-8"));
            return;
        }
    };

    // The op is implied by the path; the body (when present) supplies
    // the arguments. `{"op":...}` in the body is overridden.
    let text = if body.trim().is_empty() { "{}" } else { &body };
    let mut doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            respond(&mut writer, 400, None, &error_line(op, &format!("parse: {e}")));
            return;
        }
    };
    match &mut doc {
        // Set the value lookups read (a repeated key's last), or add it.
        Json::Object(fields) => match fields.iter_mut().rev().find(|(k, _)| k == "op") {
            Some((_, value)) => *value = Json::String(op.into()),
            None => fields.push(("op".into(), Json::String(op.into()))),
        },
        _ => {
            respond(&mut writer, 400, None, &error_line(op, "body must be a JSON object"));
            return;
        }
    }

    let outcome = inner.handle_doc(&doc);
    respond(&mut writer, outcome.status, outcome.retry_after_ms, &outcome.line);
    if outcome.shutdown {
        inner.begin_shutdown();
    }
}
