//! Open-loop, pipelined load over one NDJSON connection.
//!
//! A sender thread writes op `i` when it falls due at `i / rate`
//! seconds, whether or not earlier responses have come back; a
//! receiver thread reads the in-order responses, checks each one and
//! timestamps it. Latency runs from when an op was *due*, not from
//! when it was sent, so a stall in the server is charged to every
//! request scheduled behind it (no coordinated omission). The sender's
//! own lateness and the backlog of unanswered ops are reported so a
//! run whose generator could not keep its schedule can be told apart.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::spans::Span;

/// The sender sleeps until this close to an op's due time, then yields
/// the core until the due time. Sleeping alone wakes tens of
/// microseconds late, which is more than the wire round trip being
/// measured; spinning instead would take a core the server needs.
const SPIN_NS: u64 = 80_000;

/// Marks an op that was never sent or never answered.
pub const MISSING: u64 = u64::MAX;

/// Whether an op is the workload's primary operation or its side
/// stream (policy edits interleaved with the decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A decide.
    Primary,
    /// An interleaved non-decide op.
    Side,
}

/// Values a response publishes for a later op's request (a rule id an
/// `add_rule` returned, named by the matching `remove_rule`).
#[derive(Debug)]
pub struct Slots(Vec<AtomicU64>);

impl Slots {
    /// Published when the response that should have carried a value
    /// failed, so the dependent op is still sent (and fails) instead of
    /// stalling the schedule.
    pub const FAILED: u64 = u64::MAX - 1;

    /// `n` empty slots.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self((0..n).map(|_| AtomicU64::new(0)).collect())
    }

    /// Publishes `value` into slot `k`.
    pub fn publish(&self, k: usize, value: u64) {
        // Release pairs with the Acquire in `get`: the sender that sees
        // the value also sees everything the receiver wrote before it.
        self.0[k].store(value.saturating_add(1), Ordering::Release);
    }

    /// The value in slot `k`, if published yet.
    #[must_use]
    pub fn get(&self, k: usize) -> Option<u64> {
        match self.0[k].load(Ordering::Acquire) {
            0 => None,
            v => Some(v - 1),
        }
    }
}

/// The ops of one run: their request lines and response checks.
pub trait Script: Sync {
    /// Number of ops.
    fn len(&self) -> usize;
    /// The op's class.
    fn class(&self, op: usize) -> Class;
    /// Slots the script publishes into.
    fn slots(&self) -> usize {
        0
    }
    /// Appends the op's request line, newline included, to `out`.
    /// Returns false while a slot the line needs is still empty.
    fn line(&self, op: usize, slots: &Slots, out: &mut Vec<u8>) -> bool;
    /// Checks the op's response line (newline stripped), publishing
    /// any slot it feeds. Returns whether the response is correct.
    fn check(&self, op: usize, response: &str, slots: &Slots) -> bool;
}

/// How to drive a script.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Ops per second offered.
    pub rate_per_s: f64,
    /// Stop sending once any op's latency exceeds this (an SLO probe
    /// that has clearly failed need not run to the end).
    pub abort_latency_ns: Option<u64>,
    /// How long the receiver waits for one response before counting
    /// it, and every op sent after it, as missing.
    pub response_timeout: Duration,
    /// Record client-side spans per op.
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per op: answered minus due, or [`MISSING`].
    pub latency_ns: Vec<u64>,
    /// Per sent op: sent minus due.
    pub lateness_ns: Vec<u64>,
    /// Per sent op: ops sent and not yet answered, this one included.
    pub backlog: Vec<u32>,
    /// Ops written to the connection.
    pub sent: usize,
    /// Sent ops whose response was wrong or never came.
    pub failed: usize,
    /// Whether the abort latency cut the run short.
    pub aborted: bool,
    /// Client-side spans (with [`Plan::trace`]), times relative to the
    /// run's start.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Latencies (ns) of every answered op of `class`.
    #[must_use]
    pub fn latencies(&self, script: &dyn Script, class: Class) -> Vec<f64> {
        self.latency_ns
            .iter()
            .enumerate()
            .filter(|&(op, &latency)| latency != MISSING && script.class(op) == class)
            .map(|(_, &latency)| latency as f64)
            .collect()
    }
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Waits until `due_ns` after `start`: sleeps while the due time is
/// far, spins through the last [`SPIN_NS`].
fn wait_until(start: Instant, due_ns: u64) {
    loop {
        let now = nanos_since(start);
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            // Yield rather than spin: on a small machine the server and
            // the receiver need this core between sends.
            std::thread::yield_now();
        }
    }
}

/// Drives `script` over `stream` at `plan.rate_per_s`, returning when
/// every sent op was answered or given up on. Both threads are joined
/// before this returns.
///
/// # Errors
///
/// Cloning the stream or setting its read timeout failed.
pub fn run(stream: &TcpStream, script: &dyn Script, plan: &Plan) -> std::io::Result<Outcome> {
    let n = script.len();
    let interval_ns = 1e9 / plan.rate_per_s;
    let mut writer = stream.try_clone()?;
    let reader_stream = stream.try_clone()?;
    reader_stream.set_read_timeout(Some(plan.response_timeout))?;

    let slots = Slots::new(script.slots());
    let sent = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let sent_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(MISSING)).collect();
    let start = Instant::now();
    let due = |op: usize| (op as f64 * interval_ns) as u64;

    let (lateness_ns, backlog, (latency_ns, failed, spans)) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            crate::pin::to_client_core();
            let mut lateness = Vec::with_capacity(n);
            let mut backlog = Vec::with_capacity(n);
            let mut buf = Vec::with_capacity(512);
            'ops: for (op, sent_time) in sent_at.iter().enumerate() {
                if abort.load(Ordering::Acquire) {
                    break;
                }
                wait_until(start, due(op));
                buf.clear();
                while !script.line(op, &slots, &mut buf) {
                    if abort.load(Ordering::Acquire) {
                        break 'ops;
                    }
                    buf.clear();
                    std::thread::yield_now();
                }
                // Lateness is the generator's own: taken as the write
                // starts, so the send syscall counts toward the request.
                let now = nanos_since(start);
                sent_time.store(now, Ordering::Relaxed);
                let pending = op + 1 - answered.load(Ordering::Acquire);
                if writer.write_all(&buf).is_err() {
                    break;
                }
                // Release pairs with the receiver's Acquire: an op the
                // receiver sees as sent has its send time visible.
                sent.store(op + 1, Ordering::Release);
                lateness.push(now.saturating_sub(due(op)));
                backlog.push(u32::try_from(pending).unwrap_or(u32::MAX));
            }
            sender_done.store(true, Ordering::Release);
            (lateness, backlog)
        });

        let receiver = scope.spawn(|| {
            crate::pin::to_client_core();
            let mut latency = vec![MISSING; n];
            let mut failed = 0usize;
            let mut spans = Vec::with_capacity(if plan.trace { n * 3 } else { 0 });
            let mut reader = BufReader::new(reader_stream);
            let mut line = String::new();
            let mut op = 0usize;
            let wait_for_sender = || {
                while !sender_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                sent.load(Ordering::Acquire)
            };
            while op < n {
                // Once this thread has called the run off, never block
                // on a response to an op the sender will not send.
                if abort.load(Ordering::Acquire) && op >= wait_for_sender() {
                    break;
                }
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(read) if read > 0 => {}
                    // EOF, a transport error or a timeout: the response
                    // to this op, and to every later sent op, is missing.
                    _ => {
                        abort.store(true, Ordering::Release);
                        failed += wait_for_sender().saturating_sub(op);
                        break;
                    }
                }
                let now = nanos_since(start);
                answered.store(op + 1, Ordering::Release);
                let due_ns = due(op);
                latency[op] = now.saturating_sub(due_ns);
                if !script.check(op, line.trim_end(), &slots) {
                    failed += 1;
                }
                if plan
                    .abort_latency_ns
                    .is_some_and(|limit| latency[op] > limit)
                {
                    abort.store(true, Ordering::Release);
                }
                if plan.trace {
                    let sent_ns = sent_at[op].load(Ordering::Relaxed);
                    let root = spans.len();
                    let request = op as u64;
                    spans.push(Span {
                        name: "client.request",
                        request,
                        start_ns: due_ns,
                        end_ns: now,
                        parent: None,
                    });
                    spans.push(Span {
                        name: "loadgen.wait",
                        request,
                        start_ns: due_ns,
                        end_ns: sent_ns,
                        parent: Some(root),
                    });
                    spans.push(Span {
                        name: "wire.rtt",
                        request,
                        start_ns: sent_ns,
                        end_ns: now,
                        parent: Some(root),
                    });
                }
                op += 1;
            }
            (latency, failed, spans)
        });

        let (lateness, backlog) = sender.join().expect("sender thread panicked");
        let received = receiver.join().expect("receiver thread panicked");
        (lateness, backlog, received)
    });

    Ok(Outcome {
        latency_ns,
        sent: lateness_ns.len(),
        lateness_ns,
        backlog,
        failed,
        aborted: abort.load(Ordering::Acquire),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// `req <op>` lines; a correct response is `ok <op>`.
    struct Echo(usize);

    impl Script for Echo {
        fn len(&self) -> usize {
            self.0
        }
        fn class(&self, _op: usize) -> Class {
            Class::Primary
        }
        fn line(&self, op: usize, _slots: &Slots, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(format!("req {op}\n").as_bytes());
            true
        }
        fn check(&self, op: usize, response: &str, _slots: &Slots) -> bool {
            response == format!("ok {op}")
        }
    }

    /// A stub server on one connection: answers `ok <op>` per line,
    /// runs `before(op)` before each answer, answers `wrong` for ops in
    /// `wrong`, and stops answering (but keeps reading) from `mute_from`.
    fn stub(
        before: impl Fn(usize) + Send + 'static,
        wrong: &'static [usize],
        mute_from: usize,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let mut op = 0usize;
            while reader.read_line(&mut line).is_ok_and(|read| read > 0) {
                before(op);
                if op < mute_from {
                    let answer = if wrong.contains(&op) {
                        "wrong\n".to_owned()
                    } else {
                        format!("ok {op}\n")
                    };
                    if writer.write_all(answer.as_bytes()).is_err() {
                        return;
                    }
                }
                line.clear();
                op += 1;
            }
        });
        (addr, handle)
    }

    fn plan(rate_per_s: f64) -> Plan {
        Plan {
            rate_per_s,
            abort_latency_ns: None,
            response_timeout: Duration::from_millis(300),
            trace: true,
        }
    }

    #[test]
    fn a_stall_raises_latency_of_every_request_due_behind_it() {
        const STALL_AT: usize = 100;
        let (addr, server) = stub(
            |op| {
                if op == STALL_AT {
                    std::thread::sleep(Duration::from_millis(50));
                }
            },
            &[],
            usize::MAX,
        );
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        // 2000/s: op 100 is due at 50 ms, and the 50 ms stall covers
        // the ops due up to 100 ms (ops 100..200).
        let script = Echo(400);
        let outcome = run(&stream, &script, &plan(2_000.0)).expect("run");
        drop(stream);
        server.join().expect("stub server");

        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.sent, 400);
        // The stalled request itself waited the whole stall...
        assert!(outcome.latency_ns[STALL_AT] >= 45_000_000, "{outcome:?}");
        // ...and a request due 25 ms into the stall waited out the rest
        // of it, although it was sent on time.
        assert!(outcome.latency_ns[STALL_AT + 50] >= 20_000_000);
        assert!(outcome.lateness_ns[STALL_AT + 50] < 5_000_000);
        // A closed-loop client would report one slow request; timing
        // from due time charges the stall to every request behind it.
        let slow = outcome
            .latency_ns
            .iter()
            .filter(|&&latency| latency >= 10_000_000)
            .count();
        assert!(slow >= 70, "only {slow} requests saw the stall");
        assert!(outcome.backlog.iter().copied().max().unwrap_or(0) >= 50);
        // Client spans: one root and two children per op.
        assert_eq!(outcome.spans.len(), 3 * 400);
    }

    /// Runs `ops` echo requests at 2000/s against a stub that stalls
    /// for `stall` before answering one op in every `every`, and
    /// summarises the run as the benchmark does.
    fn summarise_stalled(ops: usize, every: usize, stall: Duration) -> crate::wire::FixedRate {
        let (addr, server) = stub(
            move |op| {
                if op % every == every / 2 {
                    std::thread::sleep(stall);
                }
            },
            &[],
            usize::MAX,
        );
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let script = Echo(ops);
        let patient = Plan {
            response_timeout: Duration::from_secs(2),
            ..plan(2_000.0)
        };
        let outcome = run(&stream, &script, &patient).expect("run");
        drop(stream);
        server.join().expect("stub server");
        assert_eq!(outcome.failed, 0);
        crate::wire::summarise(&outcome, &script)
    }

    #[test]
    fn stalls_anywhere_in_a_run_reach_its_summary() {
        // 50 ms once a second for 3 s: 5% of the requests are due behind
        // a stall, all of them in one quarter-second of each second. The
        // run's p99, taken over every request, must carry the stall.
        let periodic = summarise_stalled(6_000, 2_000, Duration::from_millis(50));
        assert!(periodic.decide_p99_us >= 20_000.0, "{periodic:?}");
        // 700 ms once a second for 2 s: most requests are due behind a
        // stall, so the run's median must carry it too.
        let long = summarise_stalled(4_000, 2_000, Duration::from_millis(700));
        assert!(long.decide_p50_us >= 10_000.0, "{long:?}");
    }

    #[test]
    fn failures_are_counted_exactly() {
        // 100 ops; ops 3, 17 and 42 get a wrong answer; ops 90..100 are
        // never answered. That is exactly 13 failures out of 100 sent.
        let (addr, server) = stub(|_| {}, &[3, 17, 42], 90);
        let stream = TcpStream::connect(addr).expect("connect");
        let script = Echo(100);
        let outcome = run(&stream, &script, &plan(5_000.0)).expect("run");
        stream
            .shutdown(std::net::Shutdown::Both)
            .expect("close the stub's connection");
        server.join().expect("stub server");
        assert_eq!(outcome.sent, 100);
        assert_eq!(outcome.failed, 13);
        assert_eq!(
            outcome.latency_ns.iter().filter(|&&l| l == MISSING).count(),
            10
        );
    }

    #[test]
    fn slots_carry_values_to_later_ops() {
        let slots = Slots::new(2);
        assert_eq!(slots.get(0), None);
        slots.publish(0, 0);
        slots.publish(1, Slots::FAILED);
        assert_eq!(slots.get(0), Some(0));
        assert_eq!(slots.get(1), Some(Slots::FAILED));
    }
}
