//! Criterion micro-benchmarks for the `Scheduler::plan` / `Scheduler::backfill`
//! hot path: the batch-formation work every serving round (and, with the
//! cluster layer, every replica admission wave) pays. Algorithm 2 (sort +
//! token-balanced placement) is compared against the length-blind
//! `TokenBudget` port at 1k and 8k request queues, so scheduler and router
//! changes have a perf baseline. A deep-queue case benches the offline-batch
//! steady state: one Algorithm 2 pass over a 131072-request queue against a
//! KV-saturated pipeline with a single freed slot. A fleet-scale case benches the whole
//! cluster loop (indexed vs linear scan) at a 256-replica fleet, and a
//! single-node case benches the engine-backed `ServingSession::serve` in
//! both serving modes. A prefix-cache case benches one `PrefixCache::insert`
//! into a full 64K-token cache, where every insert evicts.
//!
//! Run with `cargo bench -p moe-bench --bench scheduler_hot_path`.

use criterion::{criterion_group, criterion_main, Criterion};
use moe_lightning::{
    ClusterEvaluator, ClusterSpec, EvalSetting, LeastOutstandingTokens, NodeSpec, PrefixCache,
    ServingMode, ServingSession, SystemEvaluator, SystemKind,
};
use moe_workload::{
    Algorithm2, ArrivalProcess, BatchingConfig, PartitionState, QueueOrder, Request, Scheduler,
    TokenBudget, WorkloadSpec,
};
use std::sync::Arc;

/// The S1-like batching regime: enough micro-batches and KV budget that the
/// whole queue is in play, so the assignment loop (not early deferral)
/// dominates.
fn config() -> BatchingConfig {
    BatchingConfig {
        num_micro_batches: 20,
        max_requests_per_micro_batch: 256,
        max_scheduled_requests: 5120,
        cache_tokens_per_micro_batch: 1 << 20,
    }
}

fn queue(len: usize) -> Vec<Request> {
    WorkloadSpec::mtbench().sample_requests_mixed_gen(len, 7)
}

/// A half-occupied pipeline: the mid-flight state `backfill` sees at a
/// continuous-batching scheduling event.
fn half_occupied(cfg: &BatchingConfig) -> Vec<PartitionState> {
    (0..cfg.num_micro_batches)
        .map(|i| PartitionState {
            requests: cfg.max_requests_per_micro_batch / 2,
            prompt_tokens: 4000 + 100 * i as u64,
            cache_tokens: 20_000 + 500 * i as u64,
        })
        .collect()
}

fn bench_plan(c: &mut Criterion) {
    let cfg = config();
    for len in [1000usize, 8000] {
        let requests = queue(len);
        c.bench_function(&format!("scheduler/plan/algo2/{len}"), |b| {
            b.iter(|| Algorithm2.plan(&requests, &cfg).scheduled_requests())
        });
        c.bench_function(&format!("scheduler/plan/token-budget/{len}"), |b| {
            b.iter(|| TokenBudget.plan(&requests, &cfg).scheduled_requests())
        });
    }
}

fn bench_backfill(c: &mut Criterion) {
    let cfg = config();
    let occupied = half_occupied(&cfg);
    for len in [1000usize, 8000] {
        let requests = queue(len);
        c.bench_function(&format!("scheduler/backfill/algo2/{len}"), |b| {
            b.iter(|| Algorithm2.backfill(&requests, &cfg, &occupied).admitted())
        });
        c.bench_function(&format!("scheduler/backfill/token-budget/{len}"), |b| {
            b.iter(|| TokenBudget.backfill(&requests, &cfg, &occupied).admitted())
        });
    }
}

/// The offline-batch steady state (the paper's S1 setting with every request
/// queued at t=0): a deep MTBench-shaped waiting queue, kept in Algorithm 2's
/// order by the serving engine, against an S1-sized pipeline (16 × 256
/// requests) whose micro-batches are all full and KV-saturated except one
/// freed slot with room for a short request. Each pass scans the whole queue
/// to admit one request — the continuous-batching pass after a completion.
fn bench_backfill_deep(c: &mut Criterion) {
    let cfg = BatchingConfig {
        num_micro_batches: 16,
        max_requests_per_micro_batch: 256,
        max_scheduled_requests: 4096,
        cache_tokens_per_micro_batch: 120_000,
    };
    let mut requests = queue(131_072);
    QueueOrder::LongestPromptFirst.sort(&mut requests);
    let mut occupied = vec![
        PartitionState {
            requests: 256,
            prompt_tokens: 20_000,
            cache_tokens: 119_900,
        };
        cfg.num_micro_batches
    ];
    occupied[7].requests -= 1;
    occupied[7].cache_tokens -= 100;
    assert_eq!(
        Algorithm2
            .backfill_sorted(&requests, &cfg, &occupied)
            .admitted(),
        1,
        "the freed slot takes exactly one short request"
    );
    c.bench_function("scheduler/backfill/algo2-deep/131072", |b| {
        b.iter(|| {
            Algorithm2
                .backfill_sorted(&requests, &cfg, &occupied)
                .admitted()
        })
    });
}

/// Fleet-scale serving: 256 T4 replicas draining 4096 Poisson arrivals under
/// least-outstanding-tokens routing. `indexed` is the production loop (event
/// heap + router index); `scan` is the O(fleet)
/// per-event scan it replaced — the pair tracks the cluster-loop speedup.
fn bench_fleet_loop(c: &mut Criterion) {
    let spec = || {
        ClusterSpec::homogeneous(
            SystemKind::MoeLightning,
            WorkloadSpec::mtbench(),
            &NodeSpec::t4_single(),
            256,
        )
        .with_count(4096)
        .with_gen_len(16)
        .with_seed(11)
        .with_mode(ServingMode::Continuous)
        .with_router(Arc::new(LeastOutstandingTokens))
        .with_arrivals(ArrivalProcess::Poisson {
            rate_per_sec: 1024.0,
        })
    };
    c.bench_function("fleet/indexed/256x4096", |b| {
        let eval = ClusterEvaluator::new(EvalSetting::S1.model());
        let spec = spec();
        b.iter(|| eval.run(&spec).unwrap().served_requests())
    });
    c.bench_function("fleet/scan/256x4096", |b| {
        let eval = ClusterEvaluator::new(EvalSetting::S1.model()).with_scan_loop();
        let spec = spec();
        b.iter(|| eval.run(&spec).unwrap().served_requests())
    });
}

/// Single-node serving: the engine-backed `ServingSession::serve` (one
/// `ReplicaEngine` driven by arrival interleaving), in both serving modes on
/// a 1k mixed-generation Poisson queue.
fn bench_single_node(c: &mut Criterion) {
    let eval = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
    let workload = WorkloadSpec::mtbench();
    let mut requests = queue(1000);
    ArrivalProcess::Poisson { rate_per_sec: 2.0 }.stamp(&mut requests, 7);
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let session = ServingSession::new(&eval, SystemKind::MoeLightning, &workload, 64)
            .unwrap()
            .with_mode(mode);
        c.bench_function(&format!("single_node/engine/{}/1000", mode.label()), |b| {
            b.iter(|| session.serve(requests.clone()).unwrap().served_requests())
        });
    }
}

/// Prefix-cache eviction at capacity: a 64K-token cache (the `day-disagg`
/// size) warmed past capacity with MTBench-length prompts from 4096
/// four-turn sessions, then one `insert` of a fresh session's prompt per
/// iteration — the steady state, where each insert evicts as many
/// least-recently-used blocks as it adds.
fn bench_prefix_cache(c: &mut Criterion) {
    const CAPACITY: u64 = 64 * 1024;
    let prompts: Vec<u64> = queue(16_384).iter().map(|r| r.input_len).collect();
    let mut cache = PrefixCache::new(CAPACITY);
    for (i, &len) in prompts.iter().enumerate() {
        cache.insert(i as u64 / 4, len);
    }
    assert_eq!(
        cache.stats().resident_tokens,
        CAPACITY,
        "the warm-up must fill the cache"
    );
    let mut session = prompts.len() as u64;
    c.bench_function("disagg/prefix_cache/insert_at_capacity", |b| {
        b.iter(|| {
            session += 1;
            cache.insert(session, prompts[session as usize % prompts.len()])
        })
    });
}

criterion_group!(
    benches,
    bench_plan,
    bench_backfill,
    bench_backfill_deep,
    bench_fleet_loop,
    bench_single_node,
    bench_prefix_cache
);
criterion_main!(benches);
