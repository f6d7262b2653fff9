//! The one connection server under both network surfaces: the NDJSON
//! policy service (`grbac-serve`) and this crate's HTTP plane.
//!
//! One acceptor thread admits up to a cap of live connections and
//! starts one thread per admitted connection, which runs the
//! [`Protocol`] handler to completion. An idle client or an open event
//! stream therefore holds only its own parked thread, never a slot
//! another client needs. A connection over the cap gets the protocol's
//! one-frame reject, then the write side is shut down and the socket
//! closed, so the peer reads the reply before the close.
//!
//! The acceptor owns the live-connection registry. On shutdown (or
//! drop) it shuts every registered socket down, which wakes handlers
//! parked in a read, and joins every connection thread.

use std::io::{BufRead, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live connections one server admits at once. Each costs one parked
/// thread while idle, and at most its protocol's line or head cap of
/// buffered bytes while a hostile client sends a partial line.
pub const MAX_CONNECTIONS: usize = 128;

/// A wire protocol served by a [`ConnServer`].
pub trait Protocol: Send + Sync + 'static {
    /// Serves one admitted connection to completion on its own thread;
    /// the socket is shut down when it returns. `queue_wait_ns` is the
    /// time from accept to this thread starting. `stop` turns true when
    /// the server shuts down; the socket is shut down too, so only a
    /// handler that sleeps between writes needs to poll it.
    fn serve(&self, stream: &TcpStream, queue_wait_ns: u64, stop: &AtomicBool);

    /// The one frame a connection over the cap receives before it is
    /// closed.
    fn reject(&self) -> Vec<u8>;
}

/// A bound listener and its acceptor thread. Stops on drop: the
/// listener closes, every open connection is shut down and every
/// connection thread joined.
#[derive(Debug)]
pub struct ConnServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ConnServer {
    /// Binds `addr` and starts the acceptor, admitting at most `cap`
    /// live connections (servers pass [`MAX_CONNECTIONS`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<P: Protocol>(
        addr: impl ToSocketAddrs,
        cap: usize,
        protocol: Arc<P>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .spawn(move || accept_loop(&listener, cap, &protocol, &stop))?
        };
        Ok(Self {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ConnServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`; a throwaway connection wakes
        // it so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Accepts until stopped, then closes and joins what it registered.
fn accept_loop<P: Protocol>(
    listener: &TcpListener,
    cap: usize,
    protocol: &Arc<P>,
    stop: &Arc<AtomicBool>,
) {
    let mut live: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else {
            // Out of descriptors or a connection reset before accept:
            // back off briefly rather than spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let accepted = Instant::now();
        for (_, thread) in live.extract_if(.., |(_, thread)| thread.is_finished()) {
            let _ = thread.join();
        }
        if live.len() >= cap {
            let _ = stream.write_all(&protocol.reject());
            let _ = stream.shutdown(Shutdown::Write);
            continue;
        }
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let protocol = Arc::clone(protocol);
        let stop = Arc::clone(stop);
        let spawned = std::thread::Builder::new().spawn(move || {
            let queue_wait_ns = u64::try_from(accepted.elapsed().as_nanos()).unwrap_or(u64::MAX);
            protocol.serve(&stream, queue_wait_ns, &stop);
            // The registry's clone keeps the socket open until reaped.
            let _ = stream.shutdown(Shutdown::Both);
        });
        // A failed spawn drops the closure and with it the connection.
        if let Ok(thread) = spawned {
            live.push((registered, thread));
        }
    }
    for (stream, _) in &live {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for (_, thread) in live {
        let _ = thread.join();
    }
}

/// Why [`read_line_limited`] returned no line.
#[derive(Debug)]
pub enum ReadError {
    /// The line exceeded the cap before a newline appeared.
    TooLong,
    /// The read timed out; any bytes already read stay in the caller's
    /// accumulator, so the line resumes on the next call.
    Timeout,
    /// Reset, EOF mid-line, or any other transport failure.
    Io,
}

/// Reads one `\n`-terminated line (without the `\n`) of at most `max`
/// bytes, without ever buffering more than `max` bytes for it. Returns
/// `None` on clean EOF at a line boundary. `line` is the caller-owned
/// accumulator: bytes of an incomplete line survive a
/// [`ReadError::Timeout`] in it, so a streaming pump tick never
/// corrupts framing.
pub fn read_line_limited(
    reader: &mut impl BufRead,
    max: usize,
    line: &mut Vec<u8>,
) -> Result<Option<String>, ReadError> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ReadError::Timeout)
            }
            Err(_) => return Err(ReadError::Io),
        };
        if buf.is_empty() {
            // EOF. A clean close lands exactly between lines.
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ReadError::Io)
            };
        }
        if let Some(newline) = buf.iter().position(|&b| b == b'\n') {
            if line.len() + newline > max {
                return Err(ReadError::TooLong);
            }
            line.extend_from_slice(&buf[..newline]);
            reader.consume(newline + 1);
            let text = String::from_utf8_lossy(line).into_owned();
            line.clear();
            return Ok(Some(text));
        }
        if line.len() + buf.len() > max {
            return Err(ReadError::TooLong);
        }
        line.extend_from_slice(buf);
        let consumed = buf.len();
        reader.consume(consumed);
    }
}
