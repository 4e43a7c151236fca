//! Readings of the host and of this process from `/proc`: CPU steal and
//! load average for the noise stamp, peak resident memory, CPU time, and
//! the worker processes this process has spawned.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Linux reports process CPU times in `USER_HZ` ticks, fixed at 100 per
/// second by the user-space ABI.
const TICKS_PER_S: f64 = 100.0;

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The pool size every workload uses: one worker fewer than the CPUs,
/// because the thread that calls into the pool also runs jobs while it
/// waits. At least one.
pub fn pool_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Aggregate CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStat {
    total: u64,
    steal: u64,
}

impl CpuStat {
    /// The current counters (zero when `/proc/stat` is unreadable).
    pub fn now() -> CpuStat {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuStat {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuStat) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command
/// name (field 3, the state, is index 0).
fn stat_fields(pid: &str) -> Option<Vec<String>> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// User plus system CPU time of a process, in milliseconds.
pub fn cpu_ms(pid: &str) -> f64 {
    let Some(f) = stat_fields(pid) else {
        return 0.0;
    };
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| f.get(i)?.parse::<u64>().ok())
        .sum();
    ticks as f64 * 1e3 / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pids of the live child processes of this process.
pub fn children() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| stat_fields(pid).and_then(|f| f.get(1).cloned()).as_deref() == Some(&me))
        .collect()
}

/// CPU time of this process's own threads, in milliseconds: every
/// thread but the running [`Spinners`].
pub fn own_cpu_ms() -> f64 {
    let live: f64 = SPINNER_TIDS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .map(|tid| cpu_ms(&format!("self/task/{tid}")))
        .sum();
    cpu_ms("self") - live
}

/// CPU time of this process's own threads and its live children, in
/// milliseconds.
pub fn cpu_ms_with_children() -> f64 {
    own_cpu_ms() + children().iter().map(|p| cpu_ms(p)).sum::<f64>()
}

/// Runnable tasks on the host that are not the benchmark's:
/// `procs_running` from `/proc/stat` less the running threads of this
/// process (spinners included) and of its worker processes.
pub fn others_running() -> u64 {
    let running = fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("procs_running ")?.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let mine: u64 = std::iter::once("self".to_string())
        .chain(children())
        .map(|pid| running_threads(&pid))
        .sum();
    running.saturating_sub(mine)
}

/// Threads of process `pid` in the running state.
fn running_threads(pid: &str) -> u64 {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    dir.filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|tid| {
            stat_fields(&format!("{pid}/task/{tid}")).and_then(|f| f.first().cloned())
                == Some("R".to_string())
        })
        .count() as u64
}

/// Thread ids of the running [`Spinners`], whose CPU time is not the
/// benchmark's.
static SPINNER_TIDS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

// The C library's scheduling calls; on Linux `pid` 0 means the calling
// thread. Masks are passed as 1024-bit `cpu_set_t`s.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// One idle-priority spinner thread pinned to each CPU this process may
/// use, for as long as the value lives.
///
/// A `SCHED_IDLE` thread runs only when nothing else wants its CPU, so
/// the spinners never take time from the benchmark's threads; they keep
/// the CPUs from going idle. On a virtual machine an idle vCPU halts, and
/// re-waking it is a trip through the hypervisor whose cost depends on
/// how busy the host is: from microseconds to milliseconds. Every
/// workload leaves a CPU idle at times (a parked pool worker, a paced
/// arrival gap), so without the spinners that trip, not the program,
/// decides the tail latencies (see `README.md`). A spinner that cannot
/// pin itself or drop to `SCHED_IDLE` exits at once instead of competing.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Spinners {
    pub fn start() -> Spinners {
        let mut allowed = [0u64; 16];
        // SAFETY: `allowed` is a writable 1024-bit mask of the size passed.
        let ok = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } == 0;
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| ok && allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || spin(cpu, &stop))
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The body of one spinner thread: pin to `cpu`, drop to `SCHED_IDLE`,
/// and count until `stop`. The loop is plain arithmetic, not a pause
/// instruction, which a hypervisor may take as a spinning lock and
/// deschedule.
fn spin(cpu: usize, stop: &AtomicBool) {
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    let param = SchedParam { priority: 0 };
    // SAFETY: `mask` and `param` are live, correctly sized values for
    // the duration of each call.
    let ready = unsafe {
        sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0
            && sched_setscheduler(0, SCHED_IDLE, &param) == 0
    };
    if !ready {
        return;
    }
    let Some(tid) = fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| Some(p.file_name()?.to_str()?.to_string()))
    else {
        return;
    };
    SPINNER_TIDS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(tid.clone());
    let mut x = 1u64;
    while !stop.load(Relaxed) {
        for _ in 0..10_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
    }
    SPINNER_TIDS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .retain(|t| *t != tid);
}

/// A fixed calibration, timed when the run starts and when it ends: a
/// dependent integer chain of fixed length (how fast this CPU computes)
/// and a cross-thread hand-off round trip through blocking channels (what
/// waking another thread costs). Both are the same work on every run, so
/// two runs whose calibrations differ ran on a host that differed.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Median ms of one fixed-length integer chain.
    pub alu_ms: f64,
    /// Median µs of one hand-off round trip between two threads.
    pub handoff_us: f64,
}

/// Iterations of one integer chain (a few ms).
const CHAIN: u64 = 4_000_000;
/// Hand-off round trips per calibration.
const HANDOFFS: usize = 400;

impl Calibration {
    pub fn measure() -> Calibration {
        let chains: Vec<f64> = (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
                for _ in 0..CHAIN {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                std::hint::black_box(x);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let (to_peer, peer_rx) = std::sync::mpsc::channel::<u64>();
        let (to_me, my_rx) = std::sync::mpsc::channel::<u64>();
        let peer = std::thread::spawn(move || {
            while let Ok(v) = peer_rx.recv() {
                if to_me.send(v).is_err() {
                    break;
                }
            }
        });
        let trips: Vec<f64> = (0..HANDOFFS as u64)
            .map(|i| {
                let t = std::time::Instant::now();
                let _ = to_peer.send(i);
                let _ = my_rx.recv();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        drop(to_peer);
        let _ = peer.join();
        Calibration {
            alu_ms: crate::stats::median(&chains),
            handoff_us: crate::stats::median(&trips),
        }
    }
}

/// Entries of the walk's cycle: 4 MiB of `u64`s, more than a core's
/// L2 and far less than the shared L3.
const WALK: usize = 1 << 19;

/// Mean ns of one dependent load along a random cycle through 4 MiB: the
/// latency of the shared last-level cache, which other tenants of the
/// host contend for, and which the integer chain does not touch. Its
/// buffer would raise `peak_rss_mb`, so it is timed once, after the
/// workload has read its metrics.
pub fn walk_ns() -> f64 {
    // Sattolo's shuffle: one cycle through every entry.
    let mut next: Vec<u64> = (0..WALK as u64).collect();
    for i in (1..WALK).rev() {
        let j = (crate::stats::mix(0, i as u64) % i as u64) as usize;
        next.swap(i, j);
    }
    let walks: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut at = 0u64;
            for _ in 0..WALK {
                at = next[at as usize];
            }
            std::hint::black_box(at);
            t.elapsed().as_secs_f64() * 1e9 / WALK as f64
        })
        .collect();
    crate::stats::median(&walks)
}

/// The noise stamp printed beside every run's metrics: what else the
/// host was doing, and how fast it ran the fixed calibration at the start
/// and at the end of the run. It is never used to drop a run.
#[derive(Debug)]
pub struct Stamp {
    start: CpuStat,
    others: u64,
    calibration: Calibration,
}

impl Stamp {
    /// Starts the steal-share window and times the calibration.
    pub fn begin() -> Stamp {
        Stamp {
            start: CpuStat::now(),
            others: others_running(),
            calibration: Calibration::measure(),
        }
    }

    /// `steal_share=... others_running=<start>/<end> loadavg=...
    /// calib_alu_ms=<start>/<end> calib_handoff_us=<start>/<end>
    /// calib_walk_ns=<end> ...` over the window since [`Stamp::begin`].
    /// Call it after the workload has read its metrics.
    pub fn render(&self) -> String {
        let steal = CpuStat::now().steal_share_since(&self.start);
        let others = others_running();
        let end = Calibration::measure();
        format!(
            "steal_share={:.4} others_running={}/{} loadavg={:.2} calib_alu_ms={:.3}/{:.3} calib_handoff_us={:.1}/{:.1} calib_walk_ns={:.1} nproc={} pool_workers={}",
            steal,
            self.others,
            others,
            loadavg(),
            self.calibration.alu_ms,
            end.alu_ms,
            self.calibration.handoff_us,
            end.handoff_us,
            walk_ns(),
            nproc(),
            pool_workers()
        )
    }
}
