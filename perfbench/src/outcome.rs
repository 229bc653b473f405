//! What one simulation call returned, and the checks every run makes on it.

use moe_lightning::{ClusterReport, Recorder, ServingReport, SloSpec};
use moe_workload::Request;
use std::fmt::Write as _;

/// The report of one simulation call.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A single node served the queue (`SystemEvaluator::run`).
    Single(ServingReport),
    /// A fleet served it (`ClusterEvaluator::run`).
    Fleet(ClusterReport),
}

/// The offered request as the check compares it: id, prompt and generation
/// length.
pub type Key = (u64, u64, u64);

/// The check key of a request.
pub fn key(r: &Request) -> Key {
    (r.id, r.input_len, r.gen_len)
}

/// Simulated results printed for review; not gated.
#[derive(Debug, Clone, Copy)]
pub struct SimSummary {
    /// Requests served to completion.
    pub served: usize,
    /// Requests aborted.
    pub aborted: usize,
    /// Requests rejected by admission control.
    pub rejected: usize,
    /// Simulated generation throughput, tokens/s.
    pub tokens_per_s: f64,
    /// Simulated time-to-first-token p99, seconds.
    pub ttft_p99_s: f64,
    /// SLO goodput, tokens/s, when the workload carries an SLO.
    pub goodput: Option<f64>,
}

impl Outcome {
    /// Every settled request's key (served, aborted, rejected) and whether
    /// it was served, in no particular order.
    fn settled(&self) -> Vec<(Key, bool)> {
        match self {
            Outcome::Single(r) => served_and_aborted(r),
            Outcome::Fleet(r) => {
                let mut out: Vec<(Key, bool)> = r
                    .replicas
                    .iter()
                    .flat_map(|replica| served_and_aborted(&replica.report))
                    .collect();
                out.extend(r.fleet_aborted.iter().map(|q| (key(q), false)));
                out.extend(r.availability.rejected.iter().map(|q| (key(q), false)));
                out
            }
        }
    }

    /// Decoded tokens the report accounts for.
    fn generated_tokens(&self) -> u64 {
        match self {
            Outcome::Single(r) => r.totals.generated_tokens,
            Outcome::Fleet(r) => r.totals.generated_tokens,
        }
    }

    /// Simulated results for the review print-out.
    pub fn summary(&self, slo: Option<&SloSpec>) -> SimSummary {
        match self {
            Outcome::Single(r) => SimSummary {
                served: r.served_requests(),
                aborted: r.aborted.len(),
                rejected: 0,
                tokens_per_s: r.generation_throughput(),
                ttft_p99_s: r.ttft().p99.as_secs(),
                goodput: None,
            },
            Outcome::Fleet(r) => SimSummary {
                served: r.served_requests(),
                aborted: r.aborted_requests(),
                rejected: r.rejected_requests(),
                tokens_per_s: r.fleet_throughput(),
                ttft_p99_s: r.ttft().p99.as_secs(),
                goodput: slo.map(|slo| r.goodput(slo)),
            },
        }
    }

    /// FNV-1a digest of the report's full `Debug` rendering, streamed so
    /// the text is never held in memory.
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv(0xcbf2_9ce4_8422_2325);
        write!(hasher, "{self:?}").expect("hashing never fails");
        hasher.0
    }
}

fn served_and_aborted(r: &ServingReport) -> Vec<(Key, bool)> {
    r.latencies
        .iter()
        .map(|l| (key(&l.request), true))
        .chain(r.aborted.iter().map(|q| (key(q), false)))
        .collect()
}

struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// The verdict of the checks on one run.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Offered requests the checks flag.
    pub flagged: usize,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
}

impl Verdict {
    /// A run that failed outright: every offered request is flagged.
    pub fn failed(offered: usize, problem: String) -> Self {
        Verdict {
            flagged: offered,
            problems: vec![problem],
        }
    }

    /// Flags every offered request for a run-level problem.
    pub fn flag_all(&mut self, offered: usize, problem: String) {
        self.flagged = offered;
        self.problems.push(problem);
    }
}

/// Checks one run against its offered requests (`offered` sorted by id):
/// served + aborted + rejected must cover every offered request exactly
/// once, unchanged; decoded tokens must equal the sum of `gen_len` over
/// served requests; and, when the workload carries a `Recorder`, its
/// counters must reconcile with the report.
pub fn check(outcome: &Outcome, offered: &[Key], recorder: Option<&Recorder>) -> Verdict {
    let mut verdict = Verdict::default();
    let mut settled = outcome.settled();
    settled.sort_unstable_by_key(|&(k, _)| k.0);
    let (mut lost, mut duplicated, mut altered, mut unknown) = (0, 0, 0, 0);
    let mut i = 0;
    for (pos, &(k, _)) in settled.iter().enumerate() {
        if pos > 0 && settled[pos - 1].0 .0 == k.0 {
            duplicated += 1;
            continue;
        }
        while i < offered.len() && offered[i].0 < k.0 {
            lost += 1;
            i += 1;
        }
        match offered.get(i) {
            Some(o) if o.0 == k.0 => {
                if *o != k {
                    altered += 1;
                }
                i += 1;
            }
            _ => unknown += 1,
        }
    }
    lost += offered.len() - i;
    let miscounted = lost + duplicated + altered + unknown;
    if miscounted > 0 {
        verdict.flagged = miscounted.min(offered.len());
        verdict.problems.push(format!(
            "settled requests do not match the offered ones: {lost} lost, {duplicated} \
             duplicated, {altered} altered, {unknown} unknown"
        ));
    }
    let served_tokens: u64 = settled.iter().filter(|s| s.1).map(|s| s.0 .2).sum();
    if served_tokens != outcome.generated_tokens() {
        verdict.flag_all(
            offered.len(),
            format!(
                "decoded tokens {} != sum of gen_len over served requests {served_tokens}",
                outcome.generated_tokens()
            ),
        );
    }
    if let (Some(recorder), Outcome::Fleet(report)) = (recorder, outcome) {
        let c = recorder.counters();
        let pairs = [
            ("arrivals", c.arrivals, report.total_requests()),
            ("completed", c.completed, report.served_requests()),
            ("aborted", c.aborted, report.aborted_requests()),
            ("rejected", c.rejected, report.rejected_requests()),
            ("rerouted", c.rerouted, report.availability.rerouted.len()),
        ];
        for (name, counted, reported) in pairs {
            if counted != reported as u64 {
                verdict.flag_all(
                    offered.len(),
                    format!("telemetry counted {counted} {name}, the report {reported}"),
                );
            }
        }
        if c.completed_tokens != report.totals.generated_tokens {
            verdict.flag_all(
                offered.len(),
                format!(
                    "telemetry counted {} completed tokens, the report {}",
                    c.completed_tokens, report.totals.generated_tokens
                ),
            );
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{setup, simulate, Input, Workload};

    fn small_run() -> (Input, Outcome) {
        let input = Input::build(Workload::OfflineBatch, 3, Some(300));
        let prepared = setup(&input, None).expect("set-up");
        let outcome = simulate(&prepared).expect("simulation");
        (input, outcome)
    }

    #[test]
    fn a_real_run_passes_every_check() {
        let (input, outcome) = small_run();
        let verdict = check(&outcome, &input.offered, None);
        assert_eq!(verdict.flagged, 0, "{:?}", verdict.problems);
    }

    #[test]
    fn lost_duplicated_and_miscounted_requests_are_flagged() {
        let (input, outcome) = small_run();
        let Outcome::Single(report) = outcome else {
            panic!("offline-batch runs on a single node");
        };
        let mut lost = report.clone();
        lost.latencies.pop();
        let v = check(&Outcome::Single(lost), &input.offered, None);
        assert!(v.flagged >= 1, "a lost request must be flagged");

        let mut duplicated = report.clone();
        let first = duplicated.latencies[0];
        duplicated.latencies.push(first);
        let v = check(&Outcome::Single(duplicated), &input.offered, None);
        assert_eq!(
            v.flagged,
            input.offered.len(),
            "extra tokens flag the whole run"
        );

        let mut altered = report.clone();
        altered.latencies[0].request.input_len += 1;
        let v = check(&Outcome::Single(altered), &input.offered, None);
        assert_eq!(v.flagged, 1);

        let mut tokens = report;
        tokens.totals.generated_tokens += 1;
        let v = check(&Outcome::Single(tokens), &input.offered, None);
        assert_eq!(v.flagged, input.offered.len());
    }

    #[test]
    fn fnv_digest_is_stable_and_sensitive() {
        let mut a = Fnv(0xcbf2_9ce4_8422_2325);
        let mut b = Fnv(0xcbf2_9ce4_8422_2325);
        write!(a, "report").unwrap();
        write!(b, "report").unwrap();
        assert_eq!(a.0, b.0);
        write!(b, "!").unwrap();
        assert_ne!(a.0, b.0);
    }
}
