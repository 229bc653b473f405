//! The three benchmark workloads: how each builds its input from the seed,
//! sets the program up, and makes the one simulation call that is timed.

use crate::outcome::{key, Key, Outcome};
use crate::spans::{
    RouterCounters, SchedulerCounters, SectionSink, SpanLog, TimedRouter, TimedScheduler,
};
use moe_lightning::{
    Algorithm2, ClusterEvaluator, ClusterSpec, EvalSetting, FleetTimeline, GenLens,
    LeastOutstandingTokens, Policy, PrefixAware, Recorder, ReplicaId, ReplicaRole, ReplicaSpec,
    Router, Scheduler, Seconds, ServeSpec, ServingMode, SloSpec, SystemEvaluator, SystemKind,
};
use moe_trace::{DaySpec, Trace};
use moe_workload::{ArrivalProcess, Request, WorkloadSpec};
use std::sync::Arc;
use std::time::Instant;

/// Requests in the `offline-batch` queue.
pub const OFFLINE_REQUESTS: usize = 200_000;
/// Requests in the `fleet-online` stream.
pub const FLEET_REQUESTS: usize = 200_000;
/// Replicas in the `fleet-online` fleet.
pub const FLEET_REPLICAS: usize = 1000;
/// Offered load per `fleet-online` replica, requests/s.
pub const FLEET_RATE_PER_REPLICA: f64 = 4.0;
/// Uniform generation length of `fleet-online`.
pub const FLEET_GEN_LEN: u64 = 16;

/// `day-disagg`: prefill replicas, then decode replicas.
pub const DAY_PREFILL: usize = 2;
/// `day-disagg`: decode replicas.
pub const DAY_DECODE: usize = 4;
/// `day-disagg`: uniform generation length.
pub const DAY_GEN_LEN: u64 = 64;
/// `day-disagg`: length of the day, simulated seconds.
pub const DAY_SECS: f64 = 92_574.0;
/// `day-disagg`: mean offered rate before the diurnal swing and segments,
/// requests/s. With [`DAY_SECS`] this makes about 26k arrivals: 65% of the
/// decode pool's service rate under the pinned policy (0.0997 req/s per
/// replica, measured once on an unloaded S1 replica at 64 tokens).
pub const DAY_BASE_RATE: f64 = 0.259_25;
/// `day-disagg`: per-replica prefix-cache capacity, tokens.
pub const DAY_CACHE_TOKENS: u64 = 64 * 1024;
/// `day-disagg`: gauge-sampling windows over the day.
pub const DAY_WINDOWS: f64 = 96.0;
/// `day-disagg`: the decode replica that fails at mid-day.
pub const DAY_FAILED_REPLICA: usize = DAY_PREFILL + 1;

/// The capacity-bound policy the day's replicas run: 64 concurrent requests
/// in 4 micro-batches.
fn day_policy() -> Policy {
    Policy::offload_default(64, 16)
}

/// The day's SLO: 12x the unloaded median TTFT and 3x the unloaded mean
/// per-token latency of one replica under [`day_policy`].
pub fn day_slo() -> SloSpec {
    SloSpec {
        ttft: Seconds::from_secs(180.38),
        per_token: Seconds::from_secs(22.92),
    }
}

/// MTBench prompts with the day's single generation length.
fn day_workload() -> WorkloadSpec {
    let mut workload = WorkloadSpec::mtbench();
    workload.default_gen_lens = vec![DAY_GEN_LEN];
    workload
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One T4 node, S1, all requests queued at t=0, continuous batching.
    OfflineBatch,
    /// 1000 T4 replicas under Poisson load with least-outstanding routing.
    FleetOnline,
    /// A traced day on a disaggregated 2+4 fleet with a mid-day failure.
    DayDisagg,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [
        Workload::OfflineBatch,
        Workload::FleetOnline,
        Workload::DayDisagg,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineBatch => "offline-batch",
            Workload::FleetOnline => "fleet-online",
            Workload::DayDisagg => "day-disagg",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's SLO, when it carries one.
    pub fn slo(self) -> Option<SloSpec> {
        (self == Workload::DayDisagg).then(day_slo)
    }
}

/// The realized input of one run, built from the seed before anything is
/// timed.
#[derive(Debug)]
pub struct Input {
    /// Which workload this feeds.
    pub workload: Workload,
    /// The seed it was built from.
    pub seed: u64,
    /// The request queue (`offline-batch`, `fleet-online`).
    pub queue: Vec<Request>,
    /// The day as `MOETRACE` text (`day-disagg`).
    pub trace_text: String,
    /// Every offered request's check key, sorted by id.
    pub offered: Vec<Key>,
}

impl Input {
    /// Builds the input of `workload` from `seed`; `requests` overrides the
    /// queue length of the two queue-fed workloads.
    pub fn build(workload: Workload, seed: u64, requests: Option<usize>) -> Self {
        let mtbench = WorkloadSpec::mtbench();
        let (queue, trace_text, mut offered): (_, _, Vec<Key>) = match workload {
            Workload::OfflineBatch => {
                let queue = mtbench.synthesize_queue(
                    requests.unwrap_or(OFFLINE_REQUESTS),
                    GenLens::MixedDefaults,
                    seed,
                    false,
                    &ArrivalProcess::Immediate,
                );
                let offered = queue.iter().map(key).collect();
                (queue, String::new(), offered)
            }
            Workload::FleetOnline => {
                let queue = mtbench.synthesize_queue(
                    requests.unwrap_or(FLEET_REQUESTS),
                    GenLens::Uniform(FLEET_GEN_LEN),
                    seed,
                    false,
                    &ArrivalProcess::Poisson {
                        rate_per_sec: FLEET_RATE_PER_REPLICA * FLEET_REPLICAS as f64,
                    },
                );
                let offered = queue.iter().map(key).collect();
                (queue, String::new(), offered)
            }
            Workload::DayDisagg => {
                let day = DaySpec::new(
                    day_workload(),
                    Seconds::from_secs(DAY_SECS),
                    DAY_BASE_RATE,
                    seed,
                )
                .with_segment(
                    Seconds::from_secs(0.52 * DAY_SECS),
                    Seconds::from_secs(0.06 * DAY_SECS),
                    1.7,
                )
                .with_segment(
                    Seconds::from_secs(0.78 * DAY_SECS),
                    Seconds::from_secs(0.04 * DAY_SECS),
                    2.3,
                )
                .synthesize();
                let offered = day.requests().iter().map(key).collect();
                (Vec::new(), day.render(), offered)
            }
        };
        offered.sort_unstable();
        Input {
            workload,
            seed,
            queue,
            trace_text,
            offered,
        }
    }
}

/// The benchmark's tracing devices, installed into a traced run's spec.
#[derive(Debug, Default)]
pub struct Tracing {
    /// Spans of every decorated call.
    pub log: Arc<SpanLog>,
    /// Scheduler decorator counters.
    pub scheduler: Arc<SchedulerCounters>,
    /// Router decorator counters.
    pub router: Arc<RouterCounters>,
    /// The simulator's section roll-up, for fleets without a workload
    /// recorder of their own.
    pub sections: Arc<SectionSink>,
}

impl Tracing {
    fn scheduler(&self) -> Arc<dyn Scheduler> {
        Arc::new(TimedScheduler::new(
            Arc::new(Algorithm2),
            Arc::clone(&self.log),
            Arc::clone(&self.scheduler),
        ))
    }

    fn router(&self, inner: Arc<dyn Router>) -> Arc<dyn Router> {
        Arc::new(TimedRouter::new(
            inner,
            Arc::clone(&self.log),
            Arc::clone(&self.router),
        ))
    }
}

/// The spec a set-up produced, ready for the timed call.
#[derive(Debug)]
pub enum Spec {
    /// A single-node scenario and the evaluator that runs it.
    Single(SystemEvaluator, ServeSpec),
    /// A fleet scenario and the evaluator that runs it.
    Fleet(ClusterEvaluator, ClusterSpec),
}

/// A set-up program: the spec plus what set-up measured on the way.
#[derive(Debug)]
pub struct Prepared {
    /// The scenario to simulate.
    pub spec: Spec,
    /// The workload's own telemetry recorder (`day-disagg`).
    pub recorder: Option<Arc<Recorder>>,
    /// The policy the replicas run.
    pub policy: Policy,
    /// Host seconds spent in the policy search (0 for a pinned policy).
    pub policy_search_s: f64,
    /// Host seconds spent parsing the trace (0 without one).
    pub trace_parse_s: f64,
    /// Records the trace held (0 without one).
    pub trace_records: usize,
}

/// Times `f`, returning its result and the elapsed host seconds; under
/// `tracing`, also records it as a span named `name`.
fn timed<T>(tracing: Option<&Tracing>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match tracing {
        Some(t) => t.log.scope(name, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64())
        }
    }
}

/// Searches the HRM policy MoE-Lightning runs on one S1 node for `workload`
/// at generation length `gen`.
fn search_policy(
    workload: &WorkloadSpec,
    gen: GenLens,
    tracing: Option<&Tracing>,
) -> Result<(Policy, f64), String> {
    let setting = EvalSetting::S1;
    let evaluator = SystemEvaluator::new(setting.node(), setting.model());
    let shape = evaluator.workload_shape(
        SystemKind::MoeLightning,
        workload,
        gen.policy_gen_for(workload),
    );
    let (policy, secs) = timed(tracing, "policy.search", || {
        evaluator.policy_for(SystemKind::MoeLightning, &shape)
    });
    Ok((policy.map_err(|e| format!("policy search: {e}"))?, secs))
}

/// Sets the program up for one run of `input`: ingests the queue or parses
/// the trace, searches or pins the policy, builds and validates the spec.
/// With `tracing`, the scheduler and router are wrapped in timing
/// decorators and the section roll-up is collected.
///
/// # Errors
///
/// Returns the program's error message.
pub fn setup(input: &Input, tracing: Option<&Tracing>) -> Result<Prepared, String> {
    let setting = EvalSetting::S1;
    let mtbench = WorkloadSpec::mtbench();
    match input.workload {
        Workload::OfflineBatch => {
            let (policy, policy_search_s) =
                search_policy(&mtbench, GenLens::MixedDefaults, tracing)?;
            let mut spec = ServeSpec::new(SystemKind::MoeLightning, mtbench)
                .with_mixed_gen_lens()
                .with_seed(input.seed)
                .with_mode(ServingMode::Continuous)
                .with_policy(policy)
                .with_queue(input.queue.clone());
            if let Some(t) = tracing {
                spec = spec.with_scheduler(t.scheduler());
            }
            let evaluator = SystemEvaluator::new(setting.node(), setting.model());
            Ok(Prepared {
                spec: Spec::Single(evaluator, spec),
                recorder: None,
                policy,
                policy_search_s,
                trace_parse_s: 0.0,
                trace_records: 0,
            })
        }
        Workload::FleetOnline => {
            let (policy, policy_search_s) =
                search_policy(&mtbench, GenLens::Uniform(FLEET_GEN_LEN), tracing)?;
            let router: Arc<dyn Router> = Arc::new(LeastOutstandingTokens);
            let mut spec = ClusterSpec::new(SystemKind::MoeLightning, mtbench)
                .with_gen_len(FLEET_GEN_LEN)
                .with_seed(input.seed)
                .with_mode(ServingMode::Continuous)
                .with_router(match tracing {
                    Some(t) => t.router(router),
                    None => router,
                });
            let node = setting.node();
            for _ in 0..FLEET_REPLICAS {
                let mut replica = ReplicaSpec::new(node.clone()).with_policy(policy);
                if let Some(t) = tracing {
                    replica = replica.with_scheduler(t.scheduler());
                }
                spec = spec.with_replica(replica);
            }
            spec = spec.with_queue(input.queue.clone());
            if let Some(t) = tracing {
                spec = spec.with_telemetry(Arc::clone(&t.sections) as _);
            }
            spec.validate().map_err(|e| format!("fleet spec: {e}"))?;
            Ok(Prepared {
                spec: Spec::Fleet(ClusterEvaluator::new(setting.model()), spec),
                recorder: None,
                policy,
                policy_search_s,
                trace_parse_s: 0.0,
                trace_records: 0,
            })
        }
        Workload::DayDisagg => {
            let (trace, trace_parse_s) =
                timed(tracing, "trace.parse", || Trace::parse(&input.trace_text));
            let trace = trace.map_err(|e| format!("trace parse: {e}"))?;
            let router: Arc<dyn Router> = Arc::new(PrefixAware::new());
            let policy = day_policy();
            let mut spec = ClusterSpec::new(SystemKind::MoeLightning, day_workload())
                .with_gen_len(DAY_GEN_LEN)
                .with_seed(input.seed)
                .with_mode(ServingMode::Continuous)
                .with_slo(day_slo())
                .with_prefix_cache(DAY_CACHE_TOKENS)
                .with_timeline(FleetTimeline::new().fail_at(
                    Seconds::from_secs(0.5 * DAY_SECS),
                    ReplicaId(DAY_FAILED_REPLICA),
                ))
                .with_router(match tracing {
                    Some(t) => t.router(router),
                    None => router,
                });
            let node = setting.node();
            for i in 0..DAY_PREFILL + DAY_DECODE {
                let role = if i < DAY_PREFILL {
                    ReplicaRole::Prefill
                } else {
                    ReplicaRole::Decode
                };
                let mut replica = ReplicaSpec::new(node.clone())
                    .with_policy(policy)
                    .with_role(role);
                if let Some(t) = tracing {
                    replica = replica.with_scheduler(t.scheduler());
                }
                spec = spec.with_replica(replica);
            }
            let recorder = Arc::new(Recorder::new().with_interval(DAY_SECS / DAY_WINDOWS));
            let trace_records = trace.len();
            let spec = trace
                .replay_into_cluster(spec)
                .with_telemetry(Arc::clone(&recorder) as _);
            spec.validate().map_err(|e| format!("fleet spec: {e}"))?;
            Ok(Prepared {
                spec: Spec::Fleet(ClusterEvaluator::new(setting.model()), spec),
                recorder: Some(recorder),
                policy,
                policy_search_s: 0.0,
                trace_parse_s,
                trace_records,
            })
        }
    }
}

/// The timed call: runs the prepared scenario to completion.
///
/// # Errors
///
/// Returns the program's error message.
pub fn simulate(prepared: &Prepared) -> Result<Outcome, String> {
    match &prepared.spec {
        Spec::Single(evaluator, spec) => evaluator.run(spec).map(Outcome::Single),
        Spec::Fleet(evaluator, spec) => evaluator.run(spec).map(Outcome::Fleet),
    }
    .map_err(|e| e.to_string())
}

/// The prompt workload and longest generation length costing draws from.
pub fn costing_ranges(workload: Workload) -> (WorkloadSpec, u64) {
    match workload {
        Workload::OfflineBatch => {
            let mtbench = WorkloadSpec::mtbench();
            let max_gen = mtbench.default_gen_lens.iter().copied().max().unwrap_or(1);
            (mtbench, max_gen)
        }
        Workload::FleetOnline => (WorkloadSpec::mtbench(), FLEET_GEN_LEN),
        Workload::DayDisagg => (day_workload(), DAY_GEN_LEN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        for workload in Workload::ALL {
            let a = Input::build(workload, 5, Some(200));
            let b = Input::build(workload, 5, Some(200));
            let c = Input::build(workload, 6, Some(200));
            assert_eq!(a.offered, b.offered, "{}", workload.name());
            assert_eq!(a.trace_text, b.trace_text, "{}", workload.name());
            assert!(
                a.offered != c.offered || a.trace_text != c.trace_text || a.queue != c.queue,
                "{}: another seed must give another input",
                workload.name()
            );
        }
    }

    #[test]
    fn tracing_decorators_leave_the_report_unchanged() {
        let input = Input::build(Workload::FleetOnline, 4, Some(2000));
        let bare = simulate(&setup(&input, None).expect("set-up")).expect("run");
        let tracing = Tracing::default();
        let traced = simulate(&setup(&input, Some(&tracing)).expect("set-up")).expect("run");
        assert_eq!(bare, traced);
        let calls = tracing
            .router
            .calls
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(calls, 2000, "every arrival is routed once");
        assert!(
            tracing
                .scheduler
                .calls
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
        assert!(!tracing.sections.profile().is_empty());
    }
}
