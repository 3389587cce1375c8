//! Measurement plumbing shared by every workload: the span recorder,
//! order statistics, the report fingerprint, peak RSS and the host
//! calibration loop. Nothing here calls into the program under test.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One recorded span: a call into a layer, bracketed from the outside.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Cell index or lane index the span belongs to, if any.
    pub item: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span recorder. Spans nest through an explicit stack: a span
/// begun while another is open records it as its parent. Nothing is
/// written until [`Tracer::to_csv`] is called at the end of the run. A
/// disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn begin(&mut self, name: &'static str, item: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            item,
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `work` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        item: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, item);
        let out = work();
        self.end(id);
        out
    }

    /// Seconds one span costs the tracer: the mean of many empty spans on
    /// a scratch recorder.
    pub fn span_cost_s() -> f64 {
        const SPANS: usize = 100_000;
        let mut scratch = Tracer::new();
        let started = Instant::now();
        for _ in 0..SPANS {
            let id = scratch.begin("probe", None);
            scratch.end(id);
        }
        black_box(&scratch);
        started.elapsed().as_secs_f64() / SPANS as f64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.total_where(name, |_| true)
    }

    /// Total seconds of the spans named `name` whose item, if any,
    /// satisfies `keep`.
    pub fn total_where(&self, name: &str, keep: impl Fn(usize) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.item.is_none_or(&keep))
            .fold(0.0, |total, s| total + s.secs())
    }

    /// Self time of each span: its duration minus the part of it that its
    /// children cover (children never overlap on this single thread).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.secs();
            }
        }
        own
    }

    /// Per-name (count, total seconds, self seconds), in first-seen order.
    pub fn by_name(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_secs();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.secs();
                    row.3 += own;
                }
                None => rows.push((span.name, 1, span.secs(), own)),
            }
        }
        rows
    }

    /// The spans as CSV: one row per span with parent, workload, start,
    /// end and self time in microseconds.
    pub fn to_csv(&self, workload: &str) -> String {
        let own = self.self_secs();
        let mut out = String::from("id,parent,name,item,workload,start_us,end_us,self_us\n");
        for (span, own) in self.spans.iter().zip(own) {
            let opt = |v: Option<usize>| v.map_or(String::new(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.3},{:.3},{:.3}",
                span.id,
                opt(span.parent),
                span.name,
                opt(span.item),
                workload,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
                own * 1e6
            );
        }
        out
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `sorted` must be ascending and non-empty.
pub fn nearest_rank(sorted: &[u64], p: usize) -> u64 {
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// 64-bit FNV-1a: the fingerprint of canonical report bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Milliseconds one fixed hash-map workload takes: a host-speed probe that
/// shares no code with the program, so a slow run can be told apart from
/// a slow program. It inserts, looks up and removes xorshift keys in a map
/// of up to 200k entries, because a pure arithmetic loop barely slows when
/// neighbours on the host contend for caches and memory, while the
/// program, and this loop, slow a lot.
pub fn calib_ms() -> f64 {
    const OPERATIONS: u64 = 300_000;
    let started = Instant::now();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut sum = 0u64;
    for k in 0..OPERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 200_000;
        *map.entry(key).or_insert(0) += k;
        if let Some(value) = map.get(&(key ^ 1)) {
            sum = sum.wrapping_add(*value);
        }
        if k % 3 == 0 {
            map.remove(&(key / 2));
        }
    }
    black_box(sum);
    started.elapsed().as_secs_f64() * 1e3
}
