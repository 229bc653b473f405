//! Tracing from outside the program: an in-memory span log, timing
//! decorators around the pluggable `Scheduler` and `Router` traits, and a
//! telemetry sink that keeps only the simulator's section roll-up.
//!
//! Every decorator forwards every trait method to the wrapped strategy, so a
//! traced run must produce the same report as an untraced one; the benchmark
//! checks that on every traced run.

use moe_lightning::router::RouterIndex;
use moe_lightning::{
    ReplicaId, ReplicaView, Router, RouterCtx, Seconds, Section, SpanReport, TelemetrySink,
};
use moe_workload::{
    BackfillResult, BatchingConfig, BatchingResult, PartitionState, QueueOrder, Request, Scheduler,
};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Ids are 1-based positions in the log; parent 0 means
/// a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `scheduler.backfill_sorted`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Id of the enclosing span (0 for a root).
    pub parent: usize,
    /// The request a routing span decided, when there is one.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// The innermost open scope: the parent of every span recorded now.
    current: AtomicUsize,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicUsize::new(0),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking span")
    }

    /// Records a finished span under the innermost open scope.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, request: Option<u64>) {
        let parent = self.current.load(Ordering::SeqCst);
        self.lock().push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    /// Runs `f` inside a span named `name`; spans recorded meanwhile, from
    /// any thread, become its children. Returns `f`'s result and the span's
    /// duration in seconds.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let parent = self.current.load(Ordering::SeqCst);
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request: None,
            });
            spans.len()
        };
        self.current.store(id, Ordering::SeqCst);
        let out = f();
        let end_ns = self.now_ns();
        self.current.store(parent, Ordering::SeqCst);
        self.lock()[id - 1].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes the spans as tab-separated rows: id, parent, name, start and
    /// end in nanoseconds, and the request id (`-` when none).
    pub fn export(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\trequest")?;
        for (index, span) in self.lock().iter().enumerate() {
            let request = span.request.map_or("-".to_owned(), |id| id.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                index + 1,
                span.parent,
                span.name,
                span.start_ns,
                span.end_ns,
                request
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list: count, total and self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it its
    /// children cover (overlapping children, from parallel threads, are
    /// merged before subtracting).
    pub self_ns: u64,
}

/// Aggregates `spans` by name, in first-seen order, with self times.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, NameTotals)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len() + 1];
    for span in spans {
        children[span.parent].push((span.start_ns, span.end_ns));
    }
    let mut out: Vec<(&'static str, NameTotals)> = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        let covered = covered_ns(&mut children[index + 1], span.start_ns, span.end_ns);
        let slot = match out.iter().position(|(name, _)| *name == span.name) {
            Some(i) => i,
            None => {
                out.push((span.name, NameTotals::default()));
                out.len() - 1
            }
        };
        let totals = &mut out[slot].1;
        totals.count += 1;
        totals.total_ns += span.nanos();
        totals.self_ns += span.nanos().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Counters the scheduler decorator keeps beside its spans.
#[derive(Debug, Default)]
pub struct SchedulerCounters {
    /// Planning calls (`backfill`, `backfill_sorted`, `plan`, `plan_sorted`).
    pub calls: AtomicU64,
    /// Waiting-queue entries handed to those calls.
    pub scanned: AtomicU64,
    /// Requests those calls admitted.
    pub admitted: AtomicU64,
    /// Calls that admitted at least one request.
    pub useful: AtomicU64,
}

/// Times every planning call of the wrapped [`Scheduler`].
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Arc<dyn Scheduler>,
    log: Arc<SpanLog>,
    counters: Arc<SchedulerCounters>,
}

impl TimedScheduler {
    /// Wraps `inner`, recording into `log` and `counters`.
    pub fn new(
        inner: Arc<dyn Scheduler>,
        log: Arc<SpanLog>,
        counters: Arc<SchedulerCounters>,
    ) -> Self {
        TimedScheduler {
            inner,
            log,
            counters,
        }
    }

    fn timed<T>(
        &self,
        name: &'static str,
        scanned: usize,
        call: impl FnOnce() -> T,
        admitted: impl FnOnce(&T) -> usize,
    ) -> T {
        let start = self.log.now_ns();
        let out = call();
        let end = self.log.now_ns();
        self.log.record(name, start, end, None);
        let admitted = admitted(&out) as u64;
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.scanned.fetch_add(scanned as u64, Ordering::Relaxed);
        c.admitted.fetch_add(admitted, Ordering::Relaxed);
        if admitted > 0 {
            c.useful.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn queue_order(&self) -> QueueOrder {
        self.inner.queue_order()
    }

    fn backfill_sorted(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
    ) -> BackfillResult {
        self.timed(
            "scheduler.backfill_sorted",
            queue.len(),
            || self.inner.backfill_sorted(queue, cfg, occupied),
            BackfillResult::admitted,
        )
    }

    fn backfill(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
    ) -> BackfillResult {
        self.timed(
            "scheduler.backfill",
            queue.len(),
            || self.inner.backfill(queue, cfg, occupied),
            BackfillResult::admitted,
        )
    }

    fn plan(&self, queue: &[Request], cfg: &BatchingConfig) -> BatchingResult {
        self.timed(
            "scheduler.plan",
            queue.len(),
            || self.inner.plan(queue, cfg),
            BatchingResult::scheduled_requests,
        )
    }

    fn plan_sorted(&self, queue: &[Request], cfg: &BatchingConfig) -> BatchingResult {
        self.timed(
            "scheduler.plan_sorted",
            queue.len(),
            || self.inner.plan_sorted(queue, cfg),
            BatchingResult::scheduled_requests,
        )
    }
}

/// Counters the router decorator keeps beside its spans.
#[derive(Debug, Default)]
pub struct RouterCounters {
    /// `route` plus `route_indexed` calls.
    pub calls: AtomicU64,
    /// `route_indexed` calls answered with `Some`.
    pub indexed_hits: AtomicU64,
}

/// Times every routing decision of the wrapped [`Router`] and forwards its
/// callbacks.
#[derive(Debug)]
pub struct TimedRouter {
    inner: Arc<dyn Router>,
    log: Arc<SpanLog>,
    counters: Arc<RouterCounters>,
}

impl TimedRouter {
    /// Wraps `inner`, recording into `log` and `counters`.
    pub fn new(inner: Arc<dyn Router>, log: Arc<SpanLog>, counters: Arc<RouterCounters>) -> Self {
        TimedRouter {
            inner,
            log,
            counters,
        }
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, request: &Request, replicas: &[ReplicaView], ctx: &mut RouterCtx) -> ReplicaId {
        let start = self.log.now_ns();
        let chosen = self.inner.route(request, replicas, ctx);
        let end = self.log.now_ns();
        self.log
            .record("router.route", start, end, Some(request.id));
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        chosen
    }

    fn route_indexed(
        &self,
        request: &Request,
        index: &RouterIndex,
        ctx: &mut RouterCtx,
    ) -> Option<ReplicaId> {
        let start = self.log.now_ns();
        let chosen = self.inner.route_indexed(request, index, ctx);
        let end = self.log.now_ns();
        self.log
            .record("router.route_indexed", start, end, Some(request.id));
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if chosen.is_some() {
            self.counters.indexed_hits.fetch_add(1, Ordering::Relaxed);
        }
        chosen
    }

    fn on_complete(
        &self,
        request: &Request,
        replica: ReplicaId,
        now: Seconds,
        ctx: &mut RouterCtx,
    ) {
        self.inner.on_complete(request, replica, now, ctx);
    }

    fn on_replica_down(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        self.inner.on_replica_down(replica, now, ctx);
    }

    fn on_replica_up(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        self.inner.on_replica_up(replica, now, ctx);
    }
}

/// A telemetry sink that keeps only the simulator's per-section wall-clock
/// roll-up (`event-selection`, `routing`, `shard-step`,
/// `scheduler-planning`) and ignores events and samples.
#[derive(Debug, Default)]
pub struct SectionSink {
    sections: Mutex<Vec<(Section, SpanReport)>>,
}

impl SectionSink {
    /// The roll-up received so far.
    pub fn profile(&self) -> Vec<(Section, SpanReport)> {
        self.sections.lock().expect("section sink poisoned").clone()
    }
}

impl TelemetrySink for SectionSink {
    fn span(&self, section: Section, calls: u64, nanos: u64) {
        let mut sections = self.sections.lock().expect("section sink poisoned");
        match sections.iter_mut().find(|(s, _)| *s == section) {
            Some((_, r)) => {
                r.calls += calls;
                r.nanos += nanos;
            }
            None => sections.push((section, SpanReport { calls, nanos })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0, 100, 0),
            // Two overlapping children (parallel threads) cover 10..50.
            span("child", 10, 40, 1),
            span("child", 30, 50, 1),
            span("child", 90, 120, 1),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals[0].0, "run");
        assert_eq!(totals[0].1.total_ns, 100);
        // Covered: 10..50 and 90..100 (clipped) = 50.
        assert_eq!(totals[0].1.self_ns, 50);
        assert_eq!(totals[1].1.count, 3);
        assert_eq!(totals[1].1.self_ns, 30 + 20 + 30);
    }

    #[test]
    fn scopes_parent_the_spans_recorded_inside_them() {
        let log = SpanLog::default();
        let ((), _) = log.scope("run", || {
            log.record("inner", log.now_ns(), log.now_ns(), Some(7));
        });
        log.record("after", 0, 0, None);
        let spans = log.spans();
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[1].request, Some(7));
        assert_eq!(spans[2].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
