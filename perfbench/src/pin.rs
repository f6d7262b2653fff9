//! Thread placement. On a two-core machine the server's connection
//! thread and the generator's threads share a core in some runs and
//! not in others, and the median decide latency moves by a quarter
//! between the two placements. So the threads that serve (the
//! `ServeServer` and the obs plane) are started on the last core the
//! process may use, and the threads that drive them (the wire
//! generator, the household replay) run on the first; the `/metrics`
//! scraper runs beside the obs plane it polls. With fewer than two
//! cores nothing is pinned.

use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Core masks (bit `i` is core `i`) the process started with.
#[derive(Debug, Clone, Copy)]
struct Cores {
    all: u64,
    client: u64,
    server: u64,
}

fn cores() -> Option<Cores> {
    static CORES: OnceLock<Option<Cores>> = OnceLock::new();
    *CORES.get_or_init(|| {
        let mut all = 0u64;
        // SAFETY: `all` outlives the call and its size is passed; pid 0
        // is the calling thread. Only the first 64 cores are considered.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut all) };
        (got == 0 && all.count_ones() >= 2).then(|| Cores {
            all,
            client: 1 << all.trailing_zeros(),
            server: 1 << (63 - all.leading_zeros()),
        })
    })
}

/// Restricts the calling thread, and the threads it starts from now
/// on, to the cores in `mask`.
fn set(mask: u64) {
    // SAFETY: `mask` outlives the call and its size is passed; pid 0 is
    // the calling thread. A refused mask leaves the placement as it was.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// Runs `f` with the calling thread on the core `pick` names, so the
/// threads it starts stay there, then lets the calling thread use
/// every core again.
fn on_core<T>(pick: fn(&Cores) -> u64, f: impl FnOnce() -> T) -> T {
    let Some(cores) = cores() else {
        return f();
    };
    set(pick(&cores));
    let result = f();
    set(cores.all);
    result
}

/// Runs `start` on the server core; threads it starts stay there.
pub fn on_server_core<T>(start: impl FnOnce() -> T) -> T {
    on_core(|cores| cores.server, start)
}

/// Runs `f` on the client core.
pub fn on_client_core<T>(f: impl FnOnce() -> T) -> T {
    on_core(|cores| cores.client, f)
}

/// Moves the calling thread (a generator thread) to the client core.
pub fn to_client_core() {
    if let Some(cores) = cores() {
        set(cores.client);
    }
}

/// Moves the calling thread (a scraper thread) to the server core.
pub fn to_server_core() {
    if let Some(cores) = cores() {
        set(cores.server);
    }
}
