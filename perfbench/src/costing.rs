//! The step-costing layer measured on its own: seeded calls of
//! `SystemEvaluator::decode_step_latency_with_loads`, the call every
//! admission or retirement makes to re-cost a replica's decode step, over
//! occupancy and context vectors drawn within a workload's policy and
//! length ranges.

use crate::spans::SpanLog;
use crate::stats::{percentile, SplitMix64};
use moe_lightning::{Policy, SystemEvaluator, SystemKind, WorkloadShape};
use moe_schedule::DecodeScheduleBuilder;
use moe_workload::WorkloadSpec;
use std::hint::black_box;

/// Calls made per measurement.
pub const CALLS: usize = 3000;

/// What the costing measurement found.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostingStats {
    /// Median call time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile call time, microseconds.
    pub p99_us: f64,
    /// Mean tasks in the schedule graph each call builds and simulates.
    pub tasks_per_call: f64,
}

/// One re-costing input: the shape, the step policy and the per-micro-batch
/// loads, drawn the way a replica's engine forms them.
struct Draw {
    shape: WorkloadShape,
    policy: Policy,
    occupancy: Vec<u64>,
    contexts: Vec<u64>,
}

fn draw(rng: &mut SplitMix64, policy: Policy, workload: &WorkloadSpec, max_gen: u64) -> Draw {
    let mu = policy.micro_batch_size.max(1);
    let active = rng.range(1, policy.batch_size.max(1));
    let full = active / mu;
    let mut occupancy = vec![mu; full as usize];
    if !active.is_multiple_of(mu) {
        occupancy.push(active % mu);
    }
    // Mean prompt around the workload's average, never above its maximum;
    // each micro-batch's mean context adds a share of the decode so far.
    let prompt_hi = (2 * workload.avg_prompt_len).min(workload.max_prompt_len);
    let mean_prompt = rng.range(workload.avg_prompt_len / 2, prompt_hi).max(1);
    let contexts = occupancy
        .iter()
        .map(|_| (mean_prompt + rng.range(0, max_gen)).max(1))
        .collect();
    Draw {
        shape: WorkloadShape::new(mean_prompt, max_gen),
        policy: Policy {
            batch_size: active,
            micro_batch_size: mu.min(active),
            ..policy
        },
        occupancy,
        contexts,
    }
}

/// Times [`CALLS`] seeded re-costing calls for `policy` on `workload`
/// (generation lengths up to `max_gen`), recording one `costing.step` span
/// per call into `log`.
///
/// # Errors
///
/// Returns the evaluator's or schedule builder's error message.
pub fn measure(
    evaluator: &SystemEvaluator,
    policy: Policy,
    workload: &WorkloadSpec,
    max_gen: u64,
    seed: u64,
    log: &SpanLog,
) -> Result<CostingStats, String> {
    let schedule = SystemKind::MoeLightning.schedule();
    let mut rng = SplitMix64::new(seed ^ 0xc057_1a9e);
    let draws: Vec<Draw> = (0..CALLS)
        .map(|_| draw(&mut rng, policy, workload, max_gen))
        .collect();
    let mut tasks = 0usize;
    for d in &draws {
        let graph = DecodeScheduleBuilder::new(evaluator.cost_model(), d.policy, d.shape)
            .with_layers(evaluator.simulated_layers())
            .with_micro_batch_tokens(&d.occupancy)
            .with_micro_batch_contexts(&d.contexts)
            .build(schedule)
            .map_err(|e| format!("schedule build: {e}"))?;
        tasks += graph.len();
    }
    let mut micros = Vec::with_capacity(CALLS);
    let (timed, _) = log.scope("costing", || {
        for d in &draws {
            let start = log.now_ns();
            let step = evaluator.decode_step_latency_with_loads(
                schedule,
                black_box(&d.policy),
                black_box(&d.shape),
                Some(black_box(&d.occupancy)),
                Some(black_box(&d.contexts)),
            );
            let end = log.now_ns();
            black_box(step.map_err(|e| format!("step costing: {e}"))?);
            log.record("costing.step", start, end, None);
            micros.push((end - start) as f64 * 1e-3);
        }
        Ok::<(), String>(())
    });
    timed?;
    micros.sort_by(f64::total_cmp);
    Ok(CostingStats {
        p50_us: percentile(&micros, 50.0),
        p99_us: percentile(&micros, 99.0),
        tasks_per_call: tasks as f64 / CALLS as f64,
    })
}
