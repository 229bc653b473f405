//! End-to-end and per-layer benchmark of the MoE-Lightning simulator.
//!
//! ```text
//! moe-perfbench --workload <offline-batch|fleet-online|day-disagg>
//!               [--seed N] [--seconds S] [--trace 0|1] [--requests N]
//! ```
//!
//! Each run builds the workload's input from `--seed` outside the timed
//! region, then repeats set-up plus one simulation call for `--seconds`
//! (at least [`MIN_REPS`] times), checking every report. With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with `--trace 1`
//! untraced and traced runs alternate, the traced ones wrapped in the
//! benchmark's timing decorators, and the line carries the per-layer
//! metrics. Spans of the last traced run are written to
//! `.bench_out/spans-<workload>-seed<N>.tsv` under the working directory.
//! `perfbench/README.md` explains the workloads and metrics.

mod costing;
mod ledger;
mod machine;
mod outcome;
mod spans;
mod stats;
mod workload;

use ledger::{result_json, Metric, END_TO_END, PER_LAYER};
use moe_lightning::{EvalSetting, Section, SystemEvaluator};
use outcome::{check, Outcome, Verdict};
use spans::totals_by_name;
use stats::{median, percentile, ratio};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{costing_ranges, setup, simulate, Input, Prepared, Tracing, Workload};

/// The seed later performance claims are measured on by default.
pub const DEFAULT_SEED: u64 = 11;
/// The seed held out for confirming a claim made on [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 29;
/// Fewest timed repetitions a run makes, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Fewest traced (and untraced) repetitions a traced run makes.
pub const MIN_TRACED_REPS: usize = 2;
/// Most repetitions a run makes.
pub const MAX_REPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    requests: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::OfflineBatch,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        requests: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--requests" => {
                let n: usize = value.parse().map_err(|_| bad("expected an integer"))?;
                if n == 0 {
                    return Err(bad("expected at least 1"));
                }
                args.requests = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Requests offered and flagged over every simulation call of the run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, offered: usize, verdict: Verdict) {
        self.attempted += offered as u64;
        self.failed += verdict.flagged as u64;
        for problem in verdict.problems {
            if self.problems.len() < 20 {
                self.problems.push(problem);
            }
        }
    }
}

/// One repetition: set-up, then the timed simulation call.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    prepared: Prepared,
    outcome: Outcome,
}

fn rep(input: &Input, tracing: Option<&Tracing>) -> Result<Rep, String> {
    let start = Instant::now();
    let prepared = match tracing {
        Some(t) => t.log.scope("setup", || setup(input, tracing)).0,
        None => setup(input, None),
    }?;
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let outcome = match tracing {
        Some(t) => t.log.scope("run", || simulate(&prepared)).0,
        None => simulate(&prepared),
    }?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        wall_s,
        prepared,
        outcome,
    })
}

/// Runs one repetition and checks it; the outcome is compared with
/// `reference` (set from the first successful repetition) and must equal it.
/// Returns `None` when the repetition failed outright.
fn checked_rep(
    input: &Input,
    tracing: Option<&Tracing>,
    reference: &mut Option<Outcome>,
    tally: &mut Tally,
) -> Option<Rep> {
    let offered = input.offered.len();
    match rep(input, tracing) {
        Ok(r) => {
            let mut verdict = check(&r.outcome, &input.offered, r.prepared.recorder.as_deref());
            match reference {
                None => *reference = Some(r.outcome.clone()),
                Some(first) if *first != r.outcome => verdict.flag_all(
                    offered,
                    format!(
                        "{} report differs from the first untraced report of seed {}",
                        if tracing.is_some() {
                            "traced"
                        } else {
                            "untraced"
                        },
                        input.seed
                    ),
                ),
                Some(_) => {}
            }
            tally.add(offered, verdict);
            Some(r)
        }
        Err(e) => {
            tally.add(offered, Verdict::failed(offered, e));
            None
        }
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_header(args: &Args, input: &Input, reference: Option<&Outcome>, reps: usize, secs: f64) {
    println!(
        "== perfbench {}: seed {}, {} requests offered, {reps} timed runs in {secs:.1} s ==",
        args.workload.name(),
        args.seed,
        input.offered.len(),
    );
    if let Some(outcome) = reference {
        let s = outcome.summary(args.workload.slo().as_ref());
        println!(
            "simulated (not gated): served {}, aborted {}, rejected {}, sim_tokens_per_s {:.3}, \
             sim_ttft_p99_s {:.3}, sim_goodput {}",
            s.served,
            s.aborted,
            s.rejected,
            s.tokens_per_s,
            s.ttft_p99_s,
            s.goodput.map_or("-".to_owned(), |g| format!("{g:.3}")),
        );
        println!(
            "report digest: {:016x} (seed {})",
            outcome.digest(),
            args.seed
        );
    }
}

fn print_tally(tally: &Tally) {
    println!(
        "failed_frac: {} ({} of {} offered requests flagged)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    for problem in &tally.problems {
        println!("check failed: {problem}");
    }
}

/// `--trace 0`: the end-to-end metrics.
fn run_end_to_end(args: &Args, input: &Input) -> (Tally, Vec<(Metric, f64)>) {
    let mut tally = Tally::default();
    let mut reference = None;
    let (mut setups, mut walls, mut kernels) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    let start = Instant::now();
    while setups.len() < MIN_REPS
        || (start.elapsed().as_secs_f64() < args.seconds && setups.len() < MAX_REPS)
    {
        let Some(r) = checked_rep(input, None, &mut reference, &mut tally) else {
            break;
        };
        setups.push(r.setup_s);
        walls.push(r.wall_s);
        if walls.len() == 1 {
            // The first repetition's peak: input, set-up, one simulation and
            // its check, independent of how many repetitions fit the run.
            drop(r);
            peak_rss = peak_rss_mb();
        }
        kernels.push(machine::kernel_seconds());
    }
    let elapsed = start.elapsed().as_secs_f64();
    print_header(args, input, reference.as_ref(), walls.len(), elapsed);
    // Each call's host speed: the mean of the kernel timed just before it
    // (after the previous repetition) and just after it.
    let normalized: Vec<f64> = walls
        .iter()
        .enumerate()
        .map(|(i, wall)| {
            let speed = (kernels[i.saturating_sub(1)] + kernels[i]) / 2.0;
            wall * machine::NOMINAL_S / speed
        })
        .collect();
    let offered = input.offered.len() as f64;
    let (wall, wall_at_ref) = (median(&walls), median(&normalized));
    let metrics = vec![
        (END_TO_END[0], ratio(offered, wall_at_ref)),
        (END_TO_END[1], median(&setups)),
        (END_TO_END[2], peak_rss),
    ];
    println!(
        "simulation wall: median {wall:.4} s over {} runs (min {:.4}, max {:.4}); reference \
         kernel median {:.4} s (nominal {})",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        median(&kernels),
        machine::NOMINAL_S,
    );
    println!(
        "{:<18} {:>14.4} {:<6} (host seconds as measured; not gated)",
        "sim_req_per_s",
        ratio(offered, wall),
        "req/s"
    );
    for (metric, value) in &metrics {
        println!(
            "{:<18} {value:>14.4} {:<6} ({} is better)",
            metric.name, metric.unit, metric.better
        );
    }
    print_tally(&tally);
    (tally, metrics)
}

/// Per-layer values of one traced repetition, by metric name.
fn layer_sample(tracing: &Tracing, r: &Rep, offered: usize) -> BTreeMap<&'static str, f64> {
    use std::sync::atomic::Ordering::Relaxed;
    let spans = tracing.log.spans();
    let durations = |prefix: &str, scale: f64| {
        let mut v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.nanos() as f64 * scale)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let sched_us = durations("scheduler.", 1e-3);
    let router_ns = durations("router.", 1.0);
    let sched_busy = sched_us.iter().fold(0.0, |a, b| a + b) * 1e-6;
    let router_busy = router_ns.iter().fold(0.0, |a, b| a + b) * 1e-9;
    let sc = &tracing.scheduler;
    let sched_calls = sc.calls.load(Relaxed) as f64;
    let rc = &tracing.router;
    let router_calls = rc.calls.load(Relaxed) as f64;

    let profile = match &r.prepared.recorder {
        Some(recorder) => recorder.profile(),
        None => tracing.sections.profile(),
    };
    let section = |which: Section| {
        profile
            .iter()
            .find(|(s, _)| *s == which)
            .map_or((0.0, 0.0), |(_, rep)| {
                (rep.calls as f64, rep.nanos as f64 * 1e-9)
            })
    };
    let (windows, step_s) = section(Section::ShardStep);
    let (_, planning_s) = section(Section::Planning);
    let (iterations, select_s) = section(Section::EventSelection);
    let (_, dispatch_s) = section(Section::Routing);

    let (step_s, self_s) = match &r.outcome {
        Outcome::Single(_) => {
            let run_self = totals_by_name(&spans)
                .into_iter()
                .find(|(name, _)| *name == "run")
                .map_or(0.0, |(_, t)| t.self_ns as f64 * 1e-9);
            (r.wall_s, run_self)
        }
        Outcome::Fleet(_) => (step_s, step_s - planning_s),
    };

    let (cache_hits, cache_lookups, rerouted) = match &r.outcome {
        Outcome::Single(_) => (0, 0, 0),
        Outcome::Fleet(report) => {
            let (hits, lookups) = report
                .replicas
                .iter()
                .filter_map(|replica| replica.cache)
                .fold((0, 0), |(h, l), c| (h + c.hits, l + c.lookups()));
            (hits, lookups, report.availability.rerouted.len())
        }
    };
    let (migrations, lost, events, samples, dropped) = match &r.prepared.recorder {
        Some(rec) => {
            let c = rec.counters();
            let (ev_dropped, s_dropped) = (rec.events_dropped(), rec.samples_dropped());
            (
                c.migrations_started,
                c.migrations_lost,
                rec.events().len() as u64 + ev_dropped,
                rec.series().len() as u64 + s_dropped,
                ev_dropped + s_dropped,
            )
        }
        None => (0, 0, 0, 0, 0),
    };

    BTreeMap::from([
        ("policy.search_s", r.prepared.policy_search_s),
        ("trace.parse_s", r.prepared.trace_parse_s),
        ("trace.records", r.prepared.trace_records as f64),
        ("scheduler.calls", sched_calls),
        ("scheduler.busy_s", sched_busy),
        ("scheduler.call_us.p50", percentile(&sched_us, 50.0)),
        ("scheduler.call_us.p99", percentile(&sched_us, 99.0)),
        (
            "scheduler.scanned_per_call",
            ratio(sc.scanned.load(Relaxed) as f64, sched_calls),
        ),
        (
            "scheduler.admitted_per_call",
            ratio(sc.admitted.load(Relaxed) as f64, sched_calls),
        ),
        (
            "scheduler.useful_ratio",
            ratio(sc.useful.load(Relaxed) as f64, sched_calls),
        ),
        ("scheduler.wall_share", ratio(sched_busy, r.wall_s)),
        ("engine.step_s", step_s),
        ("engine.windows", windows),
        ("engine.self_s", self_s),
        ("engine.step_wall_share", ratio(step_s, r.wall_s)),
        ("router.calls", router_calls),
        ("router.busy_s", router_busy),
        ("router.call_ns.p50", percentile(&router_ns, 50.0)),
        ("router.call_ns.p99", percentile(&router_ns, 99.0)),
        (
            "router.indexed_ratio",
            ratio(rc.indexed_hits.load(Relaxed) as f64, router_calls),
        ),
        ("fleet.select_s", select_s),
        ("fleet.iterations", iterations),
        ("fleet.dispatch_s", dispatch_s),
        ("fleet.events_per_req", ratio(iterations, offered as f64)),
        ("disagg.migrations", migrations as f64),
        ("disagg.migrations_lost", lost as f64),
        (
            "disagg.cache_hit_ratio",
            ratio(cache_hits as f64, cache_lookups as f64),
        ),
        ("dynamics.rerouted", rerouted as f64),
        ("telemetry.events", events as f64),
        ("telemetry.samples", samples as f64),
        ("telemetry.dropped", dropped as f64),
    ])
}

/// `--trace 1`: alternating untraced and traced runs, the determinism check
/// on a second seed, the costing measurement, and the per-layer metrics.
fn run_traced(args: &Args, input: &Input) -> Result<(Tally, Vec<(Metric, f64)>), String> {
    let offered = input.offered.len();
    let mut tally = Tally::default();
    let mut reference = None;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last_tracing = None;
    let start = Instant::now();
    while (untraced.len() < MIN_TRACED_REPS || traced.len() < MIN_TRACED_REPS)
        || (start.elapsed().as_secs_f64() < args.seconds && untraced.len() < MAX_REPS)
    {
        if untraced.len() <= traced.len() {
            let Some(r) = checked_rep(input, None, &mut reference, &mut tally) else {
                break;
            };
            untraced.push(r.wall_s);
        } else {
            let tracing = Tracing::default();
            let Some(r) = checked_rep(input, Some(&tracing), &mut reference, &mut tally) else {
                break;
            };
            traced.push(r.wall_s);
            samples.push(layer_sample(&tracing, &r, offered));
            last_tracing = Some((tracing, r.prepared.policy));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    print_header(
        args,
        input,
        reference.as_ref(),
        untraced.len() + traced.len(),
        elapsed,
    );

    // Determinism: a second seed must give a different report digest.
    let other_seed = if args.seed == HELD_OUT_SEED {
        DEFAULT_SEED
    } else {
        HELD_OUT_SEED
    };
    let other = Input::build(args.workload, other_seed, args.requests);
    let mut other_reference = None;
    if let (Some(rep), Some(first)) = (
        checked_rep(&other, None, &mut other_reference, &mut tally),
        reference.as_ref(),
    ) {
        let (mine, theirs) = (first.digest(), rep.outcome.digest());
        println!("report digest: {theirs:016x} (seed {other_seed})");
        if mine == theirs {
            tally.add(
                0,
                Verdict::failed(
                    other.offered.len(),
                    format!("seeds {} and {other_seed} gave one digest", args.seed),
                ),
            );
        }
    }

    let (tracing, policy) = last_tracing.ok_or("no traced run completed")?;
    let setting = EvalSetting::S1;
    let evaluator = SystemEvaluator::new(setting.node(), setting.model());
    let (costing_workload, max_gen) = costing_ranges(args.workload);
    let costing = costing::measure(
        &evaluator,
        policy,
        &costing_workload,
        max_gen,
        args.seed,
        &tracing.log,
    )?;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for metric in PER_LAYER {
        let column: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(metric.name).copied())
            .collect();
        if !column.is_empty() {
            values.insert(metric.name, median(&column));
        }
    }
    values.insert("costing.call_us.p50", costing.p50_us);
    values.insert("costing.call_us.p99", costing.p99_us);
    values.insert("costing.tasks_per_call", costing.tasks_per_call);
    let (bare, with_tracing) = (median(&untraced), median(&traced));
    values.insert(
        "bench.trace_overhead_pct",
        100.0 * ratio(with_tracing - bare, bare),
    );
    println!(
        "simulation wall: untraced median {bare:.4} s ({} runs), traced median \
         {with_tracing:.4} s ({} runs)",
        untraced.len(),
        traced.len()
    );

    let path = Path::new(".bench_out").join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    tracing
        .log
        .export(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let spans = tracing.log.spans();
    println!(
        "\n-- spans of the last traced run ({} spans, {}) --",
        spans.len(),
        path.display()
    );
    println!(
        "{:<28} {:>10} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, t) in totals_by_name(&spans) {
        println!(
            "{name:<28} {:>10} {:>12.6} {:>12.6}",
            t.count,
            t.total_ns as f64 * 1e-9,
            t.self_ns as f64 * 1e-9
        );
    }

    println!("\n-- per-layer ledger ({}) --", args.workload.name());
    let metrics: Vec<(Metric, f64)> = PER_LAYER
        .iter()
        .map(|m| (*m, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    for (metric, value) in &metrics {
        println!(
            "{:<28} {value:>16.6} {:<10} {:<28} moves {}",
            metric.name, metric.unit, metric.layer, metric.moves
        );
    }
    print_tally(&tally);
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("moe-perfbench: {e}");
            eprintln!(
                "usage: moe-perfbench --workload <offline-batch|fleet-online|day-disagg> \
                 [--seed N] [--seconds S] [--trace 0|1] [--requests N]"
            );
            return ExitCode::from(2);
        }
    };
    let input = Input::build(args.workload, args.seed, args.requests);
    let (tally, metrics) = if args.trace {
        match run_traced(&args, &input) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("moe-perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_end_to_end(&args, &input)
    };
    let correct = tally.failed == 0 && tally.problems.is_empty();
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
