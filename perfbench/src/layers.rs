//! Wrappers around the three public traits `WindowedScheduler` drives:
//! the arrival source (ingest), the window backend (platform executors)
//! and the allocator (solve). Each forwards every call unchanged. With a
//! [`Recorder`] attached it records one span per call; without one the
//! backend keeps only the `execute_window` wall timer the end-to-end
//! window metrics need.

use crate::spans::{Layer, Recorder};
use cpo_core::prelude::{AllocationOutcome, Allocator};
use cpo_des::prelude::{Arrival, ArrivalSource, WindowBackend};
use cpo_model::deadline::Deadline;
use cpo_model::prelude::{AllocationProblem, RequestBatch, ServerId};
use cpo_platform::prelude::{TenantId, WindowReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ingest wrapper.
pub struct TimedSource<S> {
    inner: S,
    rec: Option<Arc<Recorder>>,
    /// Arrivals handed to the scheduler.
    pub arrivals: u64,
    /// `next_arrival` calls, the final `None` included.
    pub calls: u64,
    /// Whether the source reported its end.
    pub drained: bool,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`, recording spans into `rec` when given.
    pub fn new(inner: S, rec: Option<Arc<Recorder>>) -> Self {
        Self {
            inner,
            rec,
            arrivals: 0,
            calls: 0,
            drained: false,
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.calls += 1;
        let out = match &self.rec {
            None => self.inner.next_arrival(),
            Some(rec) => {
                let start = rec.now();
                let out = self.inner.next_arrival();
                rec.leaf(Layer::NextArrival, start, rec.now());
                out
            }
        };
        match out {
            Some(_) => self.arrivals += 1,
            None => self.drained = true,
        }
        out
    }
}

/// Platform wrapper.
pub struct TimedBackend<B> {
    inner: B,
    rec: Option<Arc<Recorder>>,
    /// Wall time of every `execute_window` call, ms.
    pub window_ms: Vec<f64>,
    /// `depart_tenant` calls.
    pub departs: u64,
    /// Departures that found a resident tenant.
    pub departs_resident: u64,
    /// `force_failure` plus `force_repair` calls.
    pub failures: u64,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`, recording spans into `rec` when given.
    pub fn new(inner: B, rec: Option<Arc<Recorder>>) -> Self {
        Self {
            inner,
            rec,
            window_ms: Vec::with_capacity(256),
            departs: 0,
            departs_resident: 0,
            failures: 0,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn leaf<T>(&mut self, layer: Layer, call: impl FnOnce(&mut B) -> T) -> T {
        match &self.rec {
            None => call(&mut self.inner),
            Some(rec) => {
                let start = rec.now();
                let out = call(&mut self.inner);
                rec.leaf(layer, start, rec.now());
                out
            }
        }
    }
}

impl<B: WindowBackend> WindowBackend for TimedBackend<B> {
    fn register_arrivals(&mut self, arrivals: &RequestBatch) -> Vec<TenantId> {
        self.leaf(Layer::Register, |b| b.register_arrivals(arrivals))
    }

    fn bind_request_keys(&mut self, ids: &[TenantId], keys: &[u64]) {
        self.inner.bind_request_keys(ids, keys)
    }

    fn execute_window(
        &mut self,
        allocator: &dyn Allocator,
        arrivals: &RequestBatch,
        ids: &[TenantId],
    ) -> (WindowReport, Vec<TenantId>) {
        let span = self.rec.as_ref().map(|rec| rec.open_window());
        let start = Instant::now();
        let out = self.inner.execute_window(allocator, arrivals, ids);
        self.window_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let (Some(rec), Some(idx)) = (&self.rec, span) {
            rec.close_window(idx);
        }
        out
    }

    fn depart_tenant(&mut self, id: TenantId) -> bool {
        self.departs += 1;
        let resident = self.leaf(Layer::Depart, |b| b.depart_tenant(id));
        self.departs_resident += u64::from(resident);
        resident
    }

    fn force_failure(&mut self, server: ServerId) -> bool {
        self.failures += 1;
        self.leaf(Layer::Failure, |b| b.force_failure(server))
    }

    fn force_repair(&mut self, server: ServerId) -> bool {
        self.failures += 1;
        self.leaf(Layer::Repair, |b| b.force_repair(server))
    }

    fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    fn resident_requests(&self) -> usize {
        self.inner.resident_requests()
    }
}

/// Solve wrapper; shared with shard worker threads, so its counters are
/// atomics (`Relaxed`: they publish nothing but themselves and are read
/// after the replay has joined every thread).
pub struct TimedAllocator<'a> {
    inner: &'a dyn Allocator,
    rec: Option<Arc<Recorder>>,
    calls: AtomicU64,
    evaluations: AtomicU64,
    vms: AtomicU64,
    offered: AtomicU64,
    accepted: AtomicU64,
}

/// Counters of a [`TimedAllocator`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveCounts {
    /// Allocator calls (shard calls and bounce re-solves included).
    pub calls: u64,
    /// Σ `AllocationOutcome::evaluations`.
    pub evaluations: u64,
    /// Σ VMs in the problems offered.
    pub vms: u64,
    /// Σ requests in the problems offered.
    pub offered: u64,
    /// Σ `AllocationOutcome::accepted_requests`.
    pub accepted: u64,
}

impl<'a> TimedAllocator<'a> {
    /// Wraps `inner`, recording spans into `rec` when given.
    pub fn new(inner: &'a dyn Allocator, rec: Option<Arc<Recorder>>) -> Self {
        Self {
            inner,
            rec,
            calls: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
            vms: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> SolveCounts {
        SolveCounts {
            calls: self.calls.load(Ordering::Relaxed),
            evaluations: self.evaluations.load(Ordering::Relaxed),
            vms: self.vms.load(Ordering::Relaxed),
            offered: self.offered.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
        }
    }

    fn observe(
        &self,
        problem: &AllocationProblem,
        solve: impl FnOnce() -> AllocationOutcome,
    ) -> AllocationOutcome {
        let out = match &self.rec {
            None => solve(),
            Some(rec) => {
                let start = rec.now();
                let out = solve();
                rec.allocate(start, rec.now());
                out
            }
        };
        let batch = problem.batch();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.evaluations
            .fetch_add(out.evaluations as u64, Ordering::Relaxed);
        self.vms
            .fetch_add(batch.vm_count() as u64, Ordering::Relaxed);
        self.offered
            .fetch_add(batch.request_count() as u64, Ordering::Relaxed);
        self.accepted
            .fetch_add(out.accepted_requests as u64, Ordering::Relaxed);
        out
    }
}

impl Allocator for TimedAllocator<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        self.observe(problem, || self.inner.allocate(problem))
    }

    fn allocate_with_deadline(
        &self,
        problem: &AllocationProblem,
        deadline: Deadline,
    ) -> AllocationOutcome {
        self.observe(problem, || {
            self.inner.allocate_with_deadline(problem, deadline)
        })
    }
}
