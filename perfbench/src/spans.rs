//! In-memory spans at the layer boundaries, and the self-time arithmetic
//! over them.
//!
//! A span's self time is its duration minus the union of its children's
//! intervals, so children that ran in parallel on shard threads count
//! once. The replay root's self time is the scheduler layer (`des`): the
//! part of the replay wall that no wrapped call covers.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The span kinds, one per wrapped call plus the replay root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The whole `WindowedScheduler::run` call.
    Replay,
    /// `ArrivalSource::next_arrival` (ingest).
    NextArrival,
    /// `WindowBackend::register_arrivals`.
    Register,
    /// `WindowBackend::execute_window`.
    Window,
    /// `Allocator::allocate`, a child of its window.
    Allocate,
    /// `WindowBackend::depart_tenant`.
    Depart,
    /// `WindowBackend::force_failure`.
    Failure,
    /// `WindowBackend::force_repair`.
    Repair,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 8] = [
        Layer::Replay,
        Layer::NextArrival,
        Layer::Register,
        Layer::Window,
        Layer::Allocate,
        Layer::Depart,
        Layer::Failure,
        Layer::Repair,
    ];

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Replay => "replay",
            Layer::NextArrival => "next_arrival",
            Layer::Register => "register_arrivals",
            Layer::Window => "execute_window",
            Layer::Allocate => "allocate",
            Layer::Depart => "depart_tenant",
            Layer::Failure => "force_failure",
            Layer::Repair => "force_repair",
        }
    }
}

/// One recorded call: nanoseconds since the recorder was made, the
/// index of the parent span, and the window index as correlation id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`start` while the span is still open).
    pub end: u64,
    /// Index of the parent span; `None` only for the replay root.
    pub parent: Option<usize>,
    /// Windows closed before the call started (the window the call
    /// belongs to).
    pub window: u64,
}

impl Span {
    /// Duration in ns.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

const NO_SPAN: usize = usize::MAX;

/// Collects spans from every wrapper of one replay, including allocator
/// calls made on shard worker threads.
pub struct Recorder {
    base: Instant,
    spans: Mutex<Vec<Span>>,
    open_window: AtomicUsize,
    windows: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            base: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            open_window: AtomicUsize::new(NO_SPAN),
            windows: AtomicU64::new(0),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens the replay root; it must be the first span.
    pub fn open_root(&self) -> usize {
        let start = self.now();
        let idx = self.push(Span {
            layer: Layer::Replay,
            start,
            end: start,
            parent: None,
            window: 0,
        });
        assert_eq!(idx, 0, "the replay root is the first span");
        idx
    }

    /// Closes span `idx` now.
    pub fn close(&self, idx: usize) {
        let end = self.now();
        self.spans.lock().expect("span recorder poisoned")[idx].end = end;
    }

    /// Records a finished call under the replay root.
    pub fn leaf(&self, layer: Layer, start: u64, end: u64) {
        self.push(Span {
            layer,
            start,
            end,
            parent: Some(0),
            window: self.windows.load(Ordering::Relaxed),
        });
    }

    /// Opens an `execute_window` span; allocator calls until
    /// [`Recorder::close_window`] become its children.
    pub fn open_window(&self) -> usize {
        let start = self.now();
        let idx = self.push(Span {
            layer: Layer::Window,
            start,
            end: start,
            parent: Some(0),
            window: self.windows.load(Ordering::Relaxed),
        });
        // SeqCst: shard threads spawned inside the window must see it.
        self.open_window.store(idx, Ordering::SeqCst);
        idx
    }

    /// Closes the window span and advances the window counter.
    pub fn close_window(&self, idx: usize) {
        self.close(idx);
        self.open_window.store(NO_SPAN, Ordering::SeqCst);
        self.windows.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an allocator call under the open window (or the root when
    /// called outside one).
    pub fn allocate(&self, start: u64, end: u64) {
        let open = self.open_window.load(Ordering::SeqCst);
        self.push(Span {
            layer: Layer::Allocate,
            start,
            end,
            parent: Some(if open == NO_SPAN { 0 } else { open }),
            window: self.windows.load(Ordering::Relaxed),
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned")
    }
}

/// Length of the union of `intervals` (sorted in place).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Children intervals of every span, clipped to their parent.
fn children(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                kids[p].push((a, b));
            }
        }
    }
    kids
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    children(spans)
        .iter_mut()
        .zip(spans)
        .map(|(kids, s)| s.len() - union_len(kids))
        .collect()
}

/// Per-layer call counts, busy time (Σ durations) and self time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Calls recorded.
    pub calls: u64,
    /// Σ span durations, ns (parallel calls each count).
    pub busy_ns: u64,
    /// Σ span self times, ns.
    pub self_ns: u64,
}

/// The layer attribution of one traced replay.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Replay root duration, ns.
    pub wall_ns: u64,
    /// Totals indexed like [`Layer::ALL`].
    pub layers: [LayerTotals; 8],
    /// Σ over windows of the union of the window's allocator calls: the
    /// replay wall the solve covers.
    pub allocate_wall_ns: u64,
    /// `des` self time derived as a residual: wall minus every other
    /// layer's share of it.
    pub des_residual_ns: i64,
    /// Self time of every `execute_window` span, ns, in window order.
    pub window_self_ns: Vec<u64>,
    /// Duration of every allocator call, ns.
    pub allocate_ns: Vec<u64>,
    /// Shard thread time spent waiting for the slowest concurrent call.
    pub shard_idle_ns: u64,
    /// Shard thread time from each call's start to its group's end.
    pub shard_span_ns: u64,
}

impl Breakdown {
    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.layers[layer as usize]
    }

    /// The root's self time measured directly from the span union.
    pub fn des_self_ns(&self) -> u64 {
        self.layer(Layer::Replay).self_ns
    }
}

/// Shard waiting inside one window: allocator calls that overlap form a
/// group that ends with its slowest member; every member waits from its
/// own end to the group's end. Returns `(idle, spanned)` ns.
pub fn shard_idle(intervals: &mut [(u64, u64)]) -> (u64, u64) {
    intervals.sort_unstable();
    let (mut idle, mut spanned) = (0, 0);
    let mut i = 0;
    while i < intervals.len() {
        let mut group_end = intervals[i].1;
        let mut j = i + 1;
        while j < intervals.len() && intervals[j].0 < group_end {
            group_end = group_end.max(intervals[j].1);
            j += 1;
        }
        for &(s, e) in &intervals[i..j] {
            idle += group_end - e;
            spanned += group_end - s;
        }
        i = j;
    }
    (idle, spanned)
}

/// Attributes one replay's spans (root first) to layers.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    assert!(
        spans.first().is_some_and(|s| s.layer == Layer::Replay),
        "the replay root is the first span"
    );
    let selfs = self_times(spans);
    let mut out = Breakdown {
        wall_ns: spans[0].len(),
        ..Breakdown::default()
    };
    let mut per_window: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let t = &mut out.layers[s.layer as usize];
        t.calls += 1;
        t.busy_ns += s.len();
        t.self_ns += selfs[i];
        match s.layer {
            Layer::Window => out.window_self_ns.push(selfs[i]),
            Layer::Allocate => {
                out.allocate_ns.push(s.len());
                per_window[s.parent.expect("allocate has a parent")].push((s.start, s.end));
            }
            _ => {}
        }
    }
    for calls in per_window.iter_mut().filter(|c| !c.is_empty()) {
        out.allocate_wall_ns += union_len(&mut calls.clone());
        let (idle, spanned) = shard_idle(calls);
        out.shard_idle_ns += idle;
        out.shard_span_ns += spanned;
    }
    let attributed: u64 = Layer::ALL
        .iter()
        .filter(|l| !matches!(l, Layer::Replay | Layer::Allocate))
        .map(|&l| out.layer(l).self_ns)
        .sum::<u64>()
        + out.allocate_wall_ns;
    out.des_residual_ns = out.wall_ns as i64 - attributed as i64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            window: 0,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&mut [(20, 30), (0, 10), (2, 3)]), 20);
        assert_eq!(union_len(&mut [(0, 10), (10, 20)]), 20);
    }

    #[test]
    fn self_time_with_overlapping_parallel_children() {
        // A 100 ns window whose two shard solves overlap on [30, 60):
        // shard 0 runs [10, 60), shard 1 runs [30, 80).
        let spans = vec![
            span(Layer::Replay, 0, 200, None),
            span(Layer::Window, 0, 100, Some(0)),
            span(Layer::Allocate, 10, 60, Some(1)),
            span(Layer::Allocate, 30, 80, Some(1)),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 80) once: 70 ns, not 100.
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[0], 100);
        let b = breakdown(&spans);
        assert_eq!(b.layer(Layer::Allocate).busy_ns, 100);
        assert_eq!(b.allocate_wall_ns, 70);
        assert_eq!(b.window_self_ns, vec![30]);
        // Shard 0 waits 20 ns for shard 1: (80-60) idle of (70+50) spanned.
        assert_eq!((b.shard_idle_ns, b.shard_span_ns), (20, 120));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(Layer::Replay, 0, 50, None),
            span(Layer::Window, 10, 20, Some(0)),
            span(Layer::Allocate, 5, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 0, 20]);
    }

    #[test]
    fn des_self_is_the_residual_of_the_other_layers() {
        let spans = vec![
            span(Layer::Replay, 0, 1_000, None),
            span(Layer::NextArrival, 10, 20, Some(0)),
            span(Layer::Register, 100, 110, Some(0)),
            span(Layer::Window, 110, 400, Some(0)),
            span(Layer::Allocate, 150, 350, Some(3)),
            span(Layer::Allocate, 160, 300, Some(3)),
            span(Layer::Depart, 500, 540, Some(0)),
            span(Layer::Failure, 600, 605, Some(0)),
            span(Layer::Repair, 700, 702, Some(0)),
        ];
        let b = breakdown(&spans);
        // Root children cover 10 + 10 + 290 + 40 + 5 + 2 = 357 ns.
        assert_eq!(b.des_self_ns(), 643);
        assert_eq!(b.des_residual_ns, 643);
        // Window self = 290 - 200 (the two solves overlap).
        assert_eq!(b.window_self_ns, vec![90]);
        assert_eq!(b.allocate_wall_ns, 200);
        assert_eq!(b.layer(Layer::Allocate).busy_ns, 340);
        let shares: u64 = [
            Layer::NextArrival,
            Layer::Register,
            Layer::Window,
            Layer::Depart,
            Layer::Failure,
            Layer::Repair,
        ]
        .iter()
        .map(|&l| b.layer(l).self_ns)
        .sum::<u64>()
            + b.allocate_wall_ns;
        assert_eq!(shares + b.des_self_ns(), b.wall_ns);
    }

    #[test]
    fn overlapping_root_children_break_the_residual() {
        // Two root children that overlap: the union counts 15 ns, their
        // shares 20 ns, so the residual no longer matches the root's own
        // self time and the consistency check can see the defect.
        let spans = vec![
            span(Layer::Replay, 0, 100, None),
            span(Layer::Depart, 0, 10, Some(0)),
            span(Layer::Depart, 5, 15, Some(0)),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.des_self_ns(), 85);
        assert_eq!(b.des_residual_ns, 80);
    }

    #[test]
    fn serial_calls_never_idle() {
        assert_eq!(shard_idle(&mut [(0, 10), (10, 30), (40, 45)]), (0, 35));
    }

    #[test]
    fn recorder_parents_allocate_under_the_open_window() {
        let rec = Recorder::default();
        let root = rec.open_root();
        rec.leaf(Layer::NextArrival, rec.now(), rec.now());
        let w = rec.open_window();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let t = rec.now();
                    rec.allocate(t, rec.now());
                });
            }
        });
        rec.close_window(w);
        rec.leaf(Layer::Depart, rec.now(), rec.now());
        rec.close(root);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 6);
        let allocs: Vec<_> = spans
            .iter()
            .filter(|s| s.layer == Layer::Allocate)
            .collect();
        assert!(allocs.iter().all(|s| s.parent == Some(w) && s.window == 0));
        assert_eq!(spans.last().expect("depart").window, 1);
        assert!(spans.iter().all(|s| s.start <= s.end));
    }
}
