//! The traced run's recorder: spans around every call into a layer,
//! kept in memory and written out when the run ends, plus the
//! allocation counter and the process's peak resident memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One span around a call into a layer. `id` is the request, answer,
/// batch or wave the call served (the set-up repeat for set-up calls).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A stage span the pipeline itself emitted (`StageSpan`), attached to
/// the benchmark span of the call that produced it. The pipeline
/// reports only a duration, so it carries no start or end.
#[derive(Debug, Clone)]
pub struct StageRecord {
    pub parent: usize,
    pub stage: &'static str,
    pub wall_s: f64,
}

/// An open span: its start, and its index when recording.
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

impl Open {
    pub fn idx(&self) -> Option<usize> {
        self.idx
    }
}

/// Records spans only when enabled; always measures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    pub stages: Vec<StageRecord>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// Turns span recording off for a traced run's warm-up and its
    /// untraced half, and back on for the traced half.
    pub fn set_recording(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent,
                id,
            });
            self.spans.len() - 1
        });
        Open { start, idx }
    }

    /// Closes `open`, returning its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.idx {
            self.spans[i].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.begin(name, parent, id);
        let out = f();
        (out, self.end(open))
    }

    pub fn stage(&mut self, parent: Option<usize>, stage: &'static str, wall_s: f64) {
        if let Some(parent) = parent {
            self.stages.push(StageRecord {
                parent,
                stage,
                wall_s,
            });
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Seconds spent in direct children of span `parent` named `name`.
    pub fn child_sum(&self, parent: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Roots named `name`, in order.
    pub fn roots(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none() && self.spans[i].name == name)
            .collect()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Self time of every span: its duration minus the time its
    /// children (benchmark spans and pipeline stage spans) cover.
    /// Children run one after another on the caller's thread, so the
    /// time they cover is the sum of their durations.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_s();
            }
        }
        for st in &self.stages {
            child[st.parent] += st.wall_s;
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_s() - c)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times();
        for (i, (s, self_s)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                (self_s * 1e9).round() as i64
            )?;
        }
        for st in &self.stages {
            writeln!(
                out,
                "{{\"stage\":\"{}\",\"parent\":{},\"dur_ns\":{}}}",
                st.stage,
                st.parent,
                (st.wall_s * 1e9).round() as u64
            )?;
        }
        out.flush()
    }
}

/// Pass-through allocator that counts allocations and requested bytes
/// while counting is switched on (traced runs only). Each thread counts
/// into its own cache-line slot, so worker threads allocating at once
/// do not contend on one counter: on a 2-vCPU machine one shared pair
/// of counters raised `obs.trace_overhead_frac` of the serving
/// workloads from 0.11–0.16 to 0.24–0.53 (three 8-s traced runs each).
pub struct CountingAlloc;

const SLOTS: usize = 16;

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static COUNTS: [Slot; SLOTS] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates from inside the allocator.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let i = SLOT
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            slot.get()
        })
        .unwrap_or(0);
    COUNTS[i].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[i].bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` with allocation counting on; returns its result and the
/// `(allocations, bytes)` made meanwhile, on every thread.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = totals();
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let after = totals();
    (out, (after.0 - before.0, after.1 - before.1))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of Linux's 64-bit `struct
    // rusage` (two timevals, then fourteen longs) and lives for the call.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss_kib as f64 / 1024.0
}
