//! The always-on query front: newline-delimited JSON requests over a
//! local TCP socket, answered from the last *published* [`ServedView`].
//!
//! The ingest loop builds a fresh view after each committed day and
//! swaps it in with [`Published::publish`]; queries clone the current
//! `Arc` under a lock held only for that pointer swap. No lock is ever
//! held across a day fold, so query latency is bounded by JSON shuffling
//! and staleness is bounded by one fold: a query sees at worst the
//! previous committed day.
//!
//! # Protocol
//!
//! One JSON object per request line, one JSON object per response line:
//!
//! ```text
//! {"query":"status"}                       → commit progress counters
//! {"query":"outputs"}                      → full SweepOutputs JSON
//! {"query":"section","name":"ho_types"}    → one top-level analysis
//! {"query":"window","days":1}              → SweepOutputs over the last day
//! {"query":"window","days":7}              → … over the last ≤7 days
//! {"query":"shutdown"}                     → ack, then the server stops
//! ```
//!
//! `"table"` and `"figure"` are accepted as aliases of `"section"` —
//! paper tables and figures are exactly the top-level analyses of
//! [`telco_analytics::SweepOutputs`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::Value;

use crate::engine::ServedView;

/// The published view cell: a mutex around an `Arc`, locked only long
/// enough to clone or replace the pointer.
///
/// A panic while the lock is held cannot leave the cell half-written
/// (the critical sections are a single pointer clone or store), so a
/// poisoned lock is recovered rather than propagated: one panicked
/// publisher must not take every later query down with it.
pub struct Published {
    view: Mutex<Arc<ServedView>>,
}

impl Published {
    /// A cell starting at `view`.
    pub fn new(view: ServedView) -> Self {
        Published { view: Mutex::new(Arc::new(view)) }
    }

    /// Atomically replace the served view.
    pub fn publish(&self, view: ServedView) {
        *self.lock() = Arc::new(view);
    }

    /// The current view (cheap: one lock, one `Arc` clone).
    pub fn current(&self) -> Arc<ServedView> {
        self.lock().clone()
    }

    fn lock(&self) -> MutexGuard<'_, Arc<ServedView>> {
        self.view.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn error_response(msg: &str) -> String {
    // Messages are fixed ASCII strings — no escaping needed.
    format!("{{\"ok\":false,\"error\":\"{msg}\"}}")
}

/// Answer one request line from `view`. Returns the response line and
/// whether the request asked the server to shut down.
pub fn handle_request(line: &str, view: &ServedView) -> (String, bool) {
    let parsed = match serde_json::parse_value(line) {
        Ok(v) => v,
        Err(_) => return (error_response("request is not valid JSON"), false),
    };
    let Some(query) = field(&parsed, "query").and_then(as_str) else {
        return (error_response("missing \"query\" field"), false);
    };
    let wrap = |payload: &Option<String>, what: &str| match payload {
        Some(json) => (
            format!("{{\"ok\":true,\"committed_days\":{},{what}:{json}}}", view.committed_days),
            false,
        ),
        None => (error_response("no day committed yet"), false),
    };
    match query {
        "status" => (
            format!(
                "{{\"ok\":true,\"committed_days\":{},\"total_days\":{},\"records\":{},\
                 \"failures\":{}}}",
                view.committed_days, view.total_days, view.records, view.failures,
            ),
            false,
        ),
        "outputs" | "study" => wrap(&view.full, "\"outputs\""),
        "section" | "table" | "figure" => {
            let Some(name) = field(&parsed, "name").and_then(as_str) else {
                return (error_response("section query needs a \"name\" field"), false);
            };
            match view.sections.iter().find(|(k, _)| k == name) {
                Some((_, json)) => (
                    format!(
                        "{{\"ok\":true,\"committed_days\":{},\"name\":\"{name}\",\
                         \"section\":{json}}}",
                        view.committed_days
                    ),
                    false,
                ),
                None if view.sections.is_empty() => (error_response("no day committed yet"), false),
                None => (error_response("unknown section name"), false),
            }
        }
        "window" => match field(&parsed, "days").and_then(as_u64) {
            Some(1) => wrap(&view.last_day, "\"outputs\""),
            Some(7) => wrap(&view.last_week, "\"outputs\""),
            _ => (error_response("window \"days\" must be 1 or 7"), false),
        },
        "shutdown" => ("{\"ok\":true,\"shutting_down\":true}".to_string(), true),
        _ => (error_response("unknown query"), false),
    }
}

/// The TCP query server: an accept loop on a loopback socket, one
/// handler thread per connection, stopped by a `shutdown` query or
/// [`QueryServer::stop`].
pub struct QueryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Bind `127.0.0.1:port` (`0` picks a free port) and start serving
    /// `published`.
    pub fn start(published: Arc<Published>, port: u16) -> std::io::Result<QueryServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_handle = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                // ordering: SeqCst — the flag is a rare shutdown edge, not a hot path; total order keeps the wake-connect/flag race trivially correct
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let published = Arc::clone(&published);
                let flag = Arc::clone(&flag);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &published, &flag, addr);
                }));
            }
            for handler in handlers {
                let _ = handler.join();
            }
        });
        Ok(QueryServer { addr, shutdown, accept_handle: Some(accept_handle) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a `shutdown` query (or [`QueryServer::stop`]) has fired.
    pub fn shutdown_requested(&self) -> bool {
        // ordering: SeqCst — pairs with the SeqCst stores below; shutdown is cold, clarity over cycles
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting, wake the accept loop, and join every handler.
    pub fn stop(&mut self) {
        // ordering: SeqCst — must be globally visible before the wake connection lands in the accept loop
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_connection(
    stream: TcpStream,
    published: &Published,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    // A response goes out as two writes, body then newline. Under Nagle's
    // algorithm the newline waits for the ACK of a body longer than the
    // write buffer, which the client's delayed ACK holds back ~40 ms.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = std::io::BufWriter::new(write_half);
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let view = published.current();
        let (response, stop) = handle_request(&line, &view);
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
        if writer.write_all(b"\n").is_err() || writer.flush().is_err() {
            break;
        }
        if stop {
            // ordering: SeqCst — must be globally visible before the wake connection below reaches accept
            shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(addr);
            break;
        }
    }
}

/// One-shot client: send a single request line, return the response
/// line. What `repro query` and the smoke tests use.
///
/// # Errors
///
/// Connection or I/O failures talking to the server.
pub fn query_line(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    // The request goes out as two writes too (see `handle_connection`).
    stream.set_nodelay(true)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> ServedView {
        ServedView {
            committed_days: 2,
            total_days: 3,
            records: 100,
            failures: 3,
            full: Some("{\"a\":1}".into()),
            last_day: Some("{\"a\":2}".into()),
            last_week: Some("{\"a\":3}".into()),
            sections: vec![("ho_types".into(), "{\"t\":1}".into())],
        }
    }

    #[test]
    fn request_routing() {
        let v = view();
        let (status, stop) = handle_request("{\"query\":\"status\"}", &v);
        assert!(status.contains("\"committed_days\":2") && !stop);
        let (outputs, _) = handle_request("{\"query\":\"outputs\"}", &v);
        assert!(outputs.contains("\"outputs\":{\"a\":1}"), "{outputs}");
        let (sec, _) = handle_request("{\"query\":\"table\",\"name\":\"ho_types\"}", &v);
        assert!(sec.contains("\"section\":{\"t\":1}"), "{sec}");
        let (day, _) = handle_request("{\"query\":\"window\",\"days\":1}", &v);
        assert!(day.contains("{\"a\":2}"), "{day}");
        let (week, _) = handle_request("{\"query\":\"window\",\"days\":7}", &v);
        assert!(week.contains("{\"a\":3}"), "{week}");
        let (_, stop) = handle_request("{\"query\":\"shutdown\"}", &v);
        assert!(stop);
        let (bad, _) = handle_request("{\"query\":\"window\",\"days\":3}", &v);
        assert!(bad.contains("\"ok\":false"), "{bad}");
        let (garbage, _) = handle_request("not json", &v);
        assert!(garbage.contains("\"ok\":false"));
    }

    #[test]
    fn poisoned_lock_still_serves_and_publishes() {
        let published = Arc::new(Published::new(view()));
        let holder = Arc::clone(&published);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.view.lock().unwrap();
            panic!("publisher panics while holding the view lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(published.view.is_poisoned());
        assert_eq!(published.current().records, 100);
        let mut next = view();
        next.records = 7;
        published.publish(next);
        let (status, _) = handle_request("{\"query\":\"status\"}", &published.current());
        assert!(status.contains("\"records\":7"), "{status}");
    }

    #[test]
    fn empty_view_reports_no_data() {
        let v = ServedView { total_days: 3, ..ServedView::default() };
        let (outputs, _) = handle_request("{\"query\":\"outputs\"}", &v);
        assert!(outputs.contains("no day committed yet"), "{outputs}");
        let (sec, _) = handle_request("{\"query\":\"section\",\"name\":\"x\"}", &v);
        assert!(sec.contains("no day committed yet"), "{sec}");
    }

    #[test]
    fn server_round_trip_and_shutdown() {
        let published = Arc::new(Published::new(view()));
        let mut server = QueryServer::start(Arc::clone(&published), 0).unwrap();
        let addr = server.addr();
        let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
        assert!(status.contains("\"records\":100"), "{status}");
        // Publishing swaps what subsequent queries see.
        let mut next = view();
        next.records = 250;
        published.publish(next);
        let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
        assert!(status.contains("\"records\":250"), "{status}");
        let bye = query_line(addr, "{\"query\":\"shutdown\"}").unwrap();
        assert!(bye.contains("shutting_down"), "{bye}");
        server.stop();
        assert!(server.shutdown_requested());
    }

    /// A response larger than the 8 KB write buffer leaves the server as
    /// body and newline in two writes. With Nagle's algorithm on, each
    /// round trip on a kept-alive connection would stall ~40 ms on the
    /// client's delayed ACK.
    #[test]
    fn large_responses_do_not_stall_on_delayed_ack() {
        let mut big = view();
        let section = format!("[{}0]", "0,".repeat(12_000));
        big.sections = vec![("frame".into(), section.clone())];
        let server = QueryServer::start(Arc::new(Published::new(big)), 0).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let start = std::time::Instant::now();
        for _ in 0..10 {
            // One write per request, so only the server's writes can stall.
            client.write_all(b"{\"query\":\"section\",\"name\":\"frame\"}\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert!(response.len() > section.len(), "{} bytes", response.len());
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "10 round trips of a {}-byte section took {elapsed:?}",
            section.len()
        );
    }
}
