//! Operating-system probes the benchmark needs and `std` does not offer:
//! CPU affinity, process CPU time, the kernel's steal counter, and a
//! counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark pins itself with sched_setaffinity and reads /proc: Linux only");

/// Words in glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's malloc thresholds: blocks under 32 MiB come from the heap
/// and freed memory is never trimmed. By default both thresholds adapt to
/// the allocation history, so whether a large block (a served APSP report
/// is 1.28 MB) page-faults in fresh memory depends on the heap layout the
/// request order left — a bimodal noise source, not work of the program.
pub fn fix_malloc_thresholds() -> Result<(), String> {
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30)] {
        // SAFETY: `mallopt` takes two plain integers and only updates
        // allocator parameters; it is called before any other thread exists.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) was refused"));
        }
    }
    Ok(())
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity failed: {}", std::io::Error::last_os_error()));
    }
    Ok((0..CPU_SET_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Pins the process to the highest-numbered CPU it may use, so every
/// default worker budget (`available_parallelism`) resolves to 1. Call it
/// before any thread is spawned: threads inherit the mask at creation.
/// Returns `(cpu, cpus allowed before pinning)`.
pub fn pin_to_one_cpu() -> Result<(usize, usize), String> {
    let allowed = allowed_cpus()?;
    let cpu = *allowed.last().ok_or("empty CPU affinity mask")?;
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte size passed, and
    // pid 0 names the calling (and, at this point, only) thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()));
    }
    Ok((cpu, allowed.len()))
}

/// User plus system CPU time of the whole process, in nanoseconds. The
/// kernel accounts hypervisor steal separately, so unlike wall time this
/// does not grow when the host takes the CPU away.
pub fn cpu_time_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One CPU's `/proc/stat` jiffy counters: `(steal, total)`.
pub fn steal_jiffies(cpu: usize) -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = format!("cpu{cpu}");
    let line = stat.lines().find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]; the
    // guest fields are already included in user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus three statistics: live heap bytes (always
/// tracked, so the figure is right when a window opens), and bytes
/// allocated and peak live bytes inside an open window (see
/// [`open_window`]). The benchmark measures on one thread, so `Relaxed`
/// suffices: the counters publish no other data.
pub struct CountingAlloc;

impl CountingAlloc {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (and
        // so from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // of this allocator and that `new_size` is valid for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

/// Opens a counting window: allocations from here on add to the window's
/// byte total, and its peak starts at the current live heap.
pub fn open_window() {
    ALLOCATED.store(0, Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Closes the window and returns `(bytes allocated, peak live bytes)`.
pub fn close_window() -> (u64, u64) {
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCATED.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed))
}
