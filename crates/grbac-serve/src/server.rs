//! The TCP front end: the NDJSON policy protocol as a
//! [`Protocol`] on `grbac_obs::conn`'s connection server, the same
//! server the HTTP observability plane runs on. Each admitted
//! connection has its own thread and stays open across many requests.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use grbac_obs::conn::{read_line_limited, ConnServer, Protocol, ReadError, MAX_CONNECTIONS};

use crate::proto::{err_envelope, ErrorCode, WireError};
use crate::service::{PolicyService, WireSubscription};

/// Per-connection read timeout. Generous: clients legitimately idle
/// between requests, and the shutdown path wakes blocked reads by
/// shutting the socket down anyway.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Read timeout while a connection is streaming a subscription: each
/// expiry is a pump tick that drains buffered events to the client, so
/// this bounds event delivery latency, not connection lifetime.
const STREAM_POLL: Duration = Duration::from_millis(25);

/// A running policy service endpoint.
///
/// Each connection is served on its own thread, request by request, so
/// responses on a connection always come back in request order and an
/// idle client never delays another. Past
/// [`MAX_CONNECTIONS`] live connections, a new one is answered `busy`
/// and closed. The server stops on drop, like
/// [`shutdown`](Self::shutdown).
///
/// ```
/// use grbac_serve::{Client, PolicyService, ServeServer};
/// use std::sync::Arc;
///
/// let service = Arc::new(PolicyService::with_defaults());
/// let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// let pong = client.request_line(r#"{"op":"ping"}"#).unwrap();
/// assert!(pong.contains("\"ok\":true"));
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct ServeServer {
    conns: ConnServer,
}

impl ServeServer {
    /// Binds `addr` and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve(service: Arc<PolicyService>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind(service, addr, MAX_CONNECTIONS)
    }

    fn bind(
        service: Arc<PolicyService>,
        addr: impl ToSocketAddrs,
        cap: usize,
    ) -> std::io::Result<Self> {
        Ok(Self {
            conns: ConnServer::bind(addr, cap, service)?,
        })
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.conns.local_addr()
    }

    /// Stops accepting, disconnects open connections, and joins every
    /// thread. A request already being handled finishes and its
    /// response is written before the connection closes.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Protocol for PolicyService {
    fn serve(&self, stream: &TcpStream, queue_wait_ns: u64, _stop: &AtomicBool) {
        serve_connection(self, stream, queue_wait_ns);
    }

    fn reject(&self) -> Vec<u8> {
        self.metrics().connections_rejected_total.inc();
        frame(&WireError::new(
            ErrorCode::Busy,
            "the server is at its connection limit; retry later",
        ))
    }
}

/// One error envelope as an NDJSON frame.
fn frame(error: &WireError) -> Vec<u8> {
    let mut frame = serde_json::to_string(&err_envelope(None, None, error)).unwrap_or_default();
    frame.push('\n');
    frame.into_bytes()
}

/// Serves one connection to completion: read a line, answer a line,
/// until EOF, timeout, or an unrecoverable framing error. The measured
/// wait from accept to the connection's thread starting is charged to
/// the first request only.
///
/// While the connection holds a live subscription the loop switches to
/// a short-poll cadence: each [`STREAM_POLL`] read timeout drains the
/// subscription's rings into NDJSON event frames between request
/// lines. The connection (and its thread) stays dedicated to the
/// stream until `unsubscribe` or disconnect; either path drops the
/// [`WireSubscription`], freeing its slot.
fn serve_connection(service: &PolicyService, stream: &TcpStream, mut queue_wait_ns: u64) {
    service.metrics().connections_total.inc();
    let max_line = service.config().max_line_bytes;
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    let mut subscription: Option<WireSubscription> = None;
    // Partial-line carry: a streaming pump tick may interrupt a read
    // mid-line, so the accumulator lives outside the loop.
    let mut partial: Vec<u8> = Vec::new();
    loop {
        let was_streaming = subscription.is_some();
        match read_line_limited(&mut reader, max_line, &mut partial) {
            Ok(None) => break, // clean EOF
            Ok(Some(line)) => {
                let line = line.trim();
                if line.is_empty() {
                    continue; // blank keep-alive lines are fine
                }
                let mut response =
                    service.handle_stream_line(line, queue_wait_ns, &mut subscription);
                queue_wait_ns = 0;
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err() {
                    break;
                }
                if subscription.is_some() != was_streaming {
                    let timeout = if subscription.is_some() {
                        STREAM_POLL
                    } else {
                        READ_TIMEOUT
                    };
                    let _ = reader.get_ref().set_read_timeout(Some(timeout));
                }
                if let Some(live) = &subscription {
                    if !pump_events(service, writer, live) {
                        break;
                    }
                }
            }
            Err(ReadError::Timeout) => {
                // Streaming: the poll tick; drain events and wait on.
                // Idle request/response connection: disconnect, as the
                // 60-second timeout always has.
                match &subscription {
                    Some(live) => {
                        if !pump_events(service, writer, live) {
                            break;
                        }
                    }
                    None => break,
                }
            }
            Err(ReadError::TooLong) => {
                // Framing is lost: we cannot tell where the oversized
                // line ends, so answer once and drop the connection.
                let _ = writer.write_all(&frame(&WireError::new(
                    ErrorCode::LineTooLong,
                    format!("request line exceeds {max_line} bytes"),
                )));
                break;
            }
            Err(ReadError::Io) => break,
        }
    }
}

/// Writes every buffered event frame to the client, one `write_all`
/// per frame. Returns false when the client is gone (any write
/// failure), which ends the connection and drops the subscription.
fn pump_events(service: &PolicyService, mut writer: &TcpStream, live: &WireSubscription) -> bool {
    for frame in live.drain_frames() {
        let mut line = match serde_json::to_string(&frame) {
            Ok(line) => line,
            Err(_) => continue,
        };
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() {
            return false;
        }
        service.metrics().event_frames_total.inc();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn service_with_tenant() -> Arc<PolicyService> {
        let service = Arc::new(PolicyService::with_defaults());
        service.create_tenant("t").unwrap();
        service
    }

    #[test]
    fn round_trips_requests_in_order() {
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for seq in 0..16 {
            let response = client
                .request_line(&format!(r#"{{"op":"ping","seq":{seq}}}"#))
                .unwrap();
            assert!(response.contains(&format!("\"seq\":{seq}")), "{response}");
        }
        server.shutdown();
    }

    #[test]
    fn oversized_line_answers_and_closes() {
        let service = Arc::new(PolicyService::new(crate::ServiceConfig {
            max_line_bytes: 256,
            ..crate::ServiceConfig::default()
        }));
        let server = ServeServer::serve(service, "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let huge = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(512));
        let response = client.request_line(&huge).unwrap();
        assert!(response.contains("\"line_too_long\""), "{response}");
        // The connection is gone; the next request fails.
        assert!(client.request_line(r#"{"op":"ping"}"#).is_err());
        server.shutdown();
    }

    #[test]
    fn malformed_line_keeps_the_connection() {
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let response = client.request_line("this is not json").unwrap();
        assert!(response.contains("\"malformed_request\""), "{response}");
        let response = client.request_line(r#"{"op":"ping"}"#).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        server.shutdown();
    }

    /// A line nested far past the parser's depth bound (about 40 KB,
    /// well under the line cap) is one malformed request, not a stack
    /// overflow: the server answers it and the connection stays open.
    #[test]
    fn deeply_nested_line_is_malformed_not_fatal() {
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let depth = 20_000;
        let line = format!(
            r#"{{"op":"ping","x":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        assert_eq!(line.len(), 40_018);
        let response = client.request_line(&line).unwrap();
        assert!(response.contains("\"malformed_request\""), "{response}");
        let response = client.request_line(r#"{"op":"ping"}"#).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        server.shutdown();
    }

    /// A tenant with enough policy for decides to succeed (and
    /// therefore publish decision events).
    fn service_with_policy() -> Arc<PolicyService> {
        let service = Arc::new(PolicyService::with_defaults());
        service.create_tenant("t").unwrap();
        for line in [
            r#"{"op":"declare","tenant":"t","kind":"subject_role","name":"child"}"#,
            r#"{"op":"declare","tenant":"t","kind":"transaction","name":"use"}"#,
            r#"{"op":"declare","tenant":"t","kind":"subject","name":"bobby"}"#,
            r#"{"op":"declare","tenant":"t","kind":"object","name":"tv"}"#,
            r#"{"op":"add_rule","tenant":"t","effect":"permit","subject_role":"child","transaction":"use"}"#,
            r#"{"op":"assign","tenant":"t","kind":"subject_role","entity":"bobby","role":"child"}"#,
        ] {
            assert!(service.handle_line(line).contains("\"ok\":true"), "{line}");
        }
        service
    }

    #[test]
    fn subscription_streams_decision_events_then_unsubscribes() {
        let service = service_with_policy();
        let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut watcher = Client::connect(server.local_addr()).unwrap();
        let sub = watcher
            .request_line(r#"{"op":"subscribe","tenants":["t"]}"#)
            .unwrap();
        assert!(sub.contains("\"streaming\":true"), "{sub}");
        assert_eq!(service.active_subscriptions(), 1);

        let mut driver = Client::connect(server.local_addr()).unwrap();
        let decision = driver
            .request_line(
                r#"{"op":"decide","tenant":"t","subject":"bobby","transaction":"use","object":"tv"}"#,
            )
            .unwrap();
        assert!(decision.contains("\"effect\":\"permit\""), "{decision}");
        let status = driver
            .request_line(r#"{"op":"status","tenant":"t"}"#)
            .unwrap();
        assert!(status.contains("\"subscriptions\":1"), "{status}");

        if grbac_core::telemetry::ENABLED {
            watcher
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // The first decide also publishes the index install
            // (`delta_applied`) and possibly a sampled span; read
            // until the decision frame itself arrives.
            let mut decision_frame = None;
            for _ in 0..8 {
                let frame = watcher.next_frame().unwrap();
                assert!(frame.get("event").is_some(), "expected an event frame");
                assert_eq!(
                    frame.get("tenant").and_then(serde::Value::as_str),
                    Some("t")
                );
                let event = frame.get("event").unwrap();
                if event.get("kind").and_then(serde::Value::as_str) == Some("decision") {
                    decision_frame = Some(event.clone());
                    break;
                }
            }
            let event = decision_frame.expect("a decision event frame");
            assert_eq!(
                event.get("effect").and_then(serde::Value::as_str),
                Some("permit")
            );
        }

        let (response, _in_flight) = watcher.unsubscribe().unwrap();
        assert!(
            matches!(response.get("ok"), Some(serde::Value::Bool(true))),
            "{response:?}"
        );
        assert_eq!(service.active_subscriptions(), 0);
        // The connection is back in request/response mode.
        let pong = watcher.request_line(r#"{"op":"ping"}"#).unwrap();
        assert!(pong.contains("\"ok\":true"), "{pong}");
        server.shutdown();
    }

    /// Connects to a server at its cap, retrying while the slot of a
    /// closed connection is still being released.
    fn connect_admitted(addr: SocketAddr) -> Client {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut client = Client::connect(addr).unwrap();
            // A refused connection may also surface as a reset.
            if let Ok(pong) = client.request_line(r#"{"op":"ping"}"#) {
                if pong.contains("\"ok\":true") {
                    return client;
                }
                assert!(pong.contains("\"busy\""), "{pong}");
            }
            assert!(std::time::Instant::now() < deadline, "never admitted");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn killed_subscriber_frees_its_connection_slot() {
        // A cap of one: if the dead subscriber's connection were not
        // reclaimed, the follow-up client could never be served.
        let service = service_with_tenant();
        let server = ServeServer::bind(Arc::clone(&service), "127.0.0.1:0", 1).unwrap();
        let mut watcher = Client::connect(server.local_addr()).unwrap();
        let sub = watcher
            .request_line(r#"{"op":"subscribe","tenants":["t"]}"#)
            .unwrap();
        assert!(sub.contains("\"streaming\":true"), "{sub}");
        assert_eq!(service.active_subscriptions(), 1);
        drop(watcher); // kill the stream mid-subscription

        // The connection's thread notices EOF on its next poll tick,
        // drops the subscription and ends, freeing the only slot.
        let mut next = connect_admitted(server.local_addr());
        assert_eq!(service.active_subscriptions(), 0);
        let status = next
            .request_line(r#"{"op":"status","tenant":"t"}"#)
            .unwrap();
        assert!(status.contains("\"subscriptions\":0"), "{status}");
        server.shutdown();
    }

    /// Idle clients hold only their own threads: a ping behind eight
    /// connections that never send a byte is answered at once.
    #[test]
    fn silent_connections_do_not_lock_out_a_ping() {
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let silent: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let started = std::time::Instant::now();
        let pong = client.request_line(r#"{"op":"ping"}"#).unwrap();
        assert!(pong.contains("\"ok\":true"), "{pong}");
        assert!(started.elapsed() < Duration::from_secs(1));
        drop(silent);
        server.shutdown();
    }

    /// Over the cap, a connection gets one `busy` frame and is closed;
    /// the refusal is counted; a later connection is served once an
    /// admitted one closes.
    #[test]
    fn over_cap_connection_is_answered_busy_and_closed() {
        let service = service_with_tenant();
        let server = ServeServer::bind(Arc::clone(&service), "127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let mut first = connect_admitted(addr);
        let _second = connect_admitted(addr);

        let mut over = TcpStream::connect(addr).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut reply = String::new();
        std::io::Read::read_to_string(&mut over, &mut reply).unwrap();
        assert!(reply.contains("\"code\":\"busy\""), "{reply}");
        assert_eq!(reply.lines().count(), 1, "one frame, then close: {reply}");
        if grbac_core::telemetry::ENABLED {
            assert_eq!(service.metrics().connections_rejected_total.get(), 1);
            let metrics = first.request_line(r#"{"op":"metrics"}"#).unwrap();
            assert!(
                metrics.contains("grbac_serve_connections_rejected_total 1"),
                "{metrics}"
            );
        }

        drop(first);
        let mut later = connect_admitted(addr);
        let pong = later.request_line(r#"{"op":"ping"}"#).unwrap();
        assert!(pong.contains("\"ok\":true"), "{pong}");
        server.shutdown();
    }

    #[test]
    fn concurrent_connections_are_served() {
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for _ in 0..32 {
                        let response = client.request_line(r#"{"op":"ping"}"#).unwrap();
                        assert!(response.contains("\"ok\":true"));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        server.shutdown();
    }
}
