//! Serving benchmark for `nurd-serve`: fleet throughput and event→commit
//! latency through a real `EngineService`, with every output checked.
//!
//! ```text
//! servebench --workload <cold_fleet|durable_warm|skewed_mitigate>
//!            [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--corrupt-report]
//! ```
//!
//! `--seconds` buys a number of rounds (at least one); each round draws a
//! fleet from the seed, computes its reference output, and measures a
//! saturation phase, a paced phase and a second saturation phase, every
//! one checked against the reference. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs an untraced saturation phase plus traced
//! saturation and paced phases and prints the per-layer metrics. The
//! last line of standard output is one JSON object. `--tiny` shrinks the
//! fleets (self-test); `--corrupt-report` damages one served report
//! before the check, which must then fail (self-test).
//!
//! See `servebench/README.md` for the workloads, the metrics and what
//! each layer metric should move.

mod check;
mod fleet;
mod hooks;
mod mlsplit;
mod phase;
mod trace;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use nurd_serve::FinalizeReason;

use crate::fleet::{Kind, Workload};
use crate::hooks::{Recorder, Span};
use crate::phase::{Mode, PhaseOut};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut corrupt = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(fleet::workload(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--tiny" => tiny = true,
            "--corrupt-report" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        corrupt,
    })
}

/// One metric of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Extra lines for the human-readable summary.
    notes: Vec<String>,
}

/// Nearest-rank percentile of `values` (sorted in place).
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median (the mean of the middle two of an even count).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Events applied per second of saturation wall time.
fn events_per_s(p: &PhaseOut) -> f64 {
    p.pushed as f64 / p.wall_s
}

/// Failure accounting and output check of one phase.
struct PhaseCheck {
    failed: usize,
    ok: bool,
    flagged: usize,
    summary: String,
}

fn check_phase(
    kind: Kind,
    reference: &check::Reference,
    p: &mut PhaseOut,
    corrupt: bool,
) -> PhaseCheck {
    if corrupt {
        if let Some(job) = p.report.jobs.first_mut() {
            job.outcome
                .flagged_at
                .iter_mut()
                .for_each(|f| *f = f.xor(Some(0)));
        }
    }
    let verdict = check::check(kind, reference, &p.report, p.observer_state.as_deref());
    let counted: usize = p
        .stats
        .iter()
        .map(|s| s.rejected_events + s.orphan_events + s.overload.lost_events())
        .sum();
    let mut broken: HashSet<u64> = verdict.bad_jobs.iter().copied().collect();
    broken.extend(
        p.report
            .jobs
            .iter()
            .filter(|r| r.finalized == FinalizeReason::Poisoned)
            .map(|r| r.job),
    );
    let broken_events: usize = broken
        .iter()
        .map(|j| p.events_per_job.get(j).copied().unwrap_or(0))
        .sum();
    let unstamped = reference
        .scored
        .iter()
        .filter(|b| !p.stamps.contains_key(b))
        .count();
    let failed = p.refused
        + counted
        + broken_events
        + unstamped
        + p.crash_lost
        + p.recovery_fallbacks
        + p.checkpoint_failures
        + usize::from(!verdict.macro_f1_equal || !verdict.observer_equal);
    PhaseCheck {
        failed,
        ok: verdict.ok() && failed == 0,
        flagged: verdict.flagged,
        summary: format!(
            "{:?}: {} events, {} refused, {} rejected/orphan/lost, {} bad jobs, {} unstamped, \
             {} crash-lost, {} snapshots rejected at recovery, {} checkpoint errors, \
             macro-F1 equal {}, observer equal {}",
            p.mode,
            p.pushed,
            p.refused,
            counted,
            verdict.bad_jobs.len(),
            unstamped,
            p.crash_lost,
            p.recovery_fallbacks,
            p.checkpoint_failures,
            verdict.macro_f1_equal,
            verdict.observer_equal,
        ),
    }
}

/// Commit latencies (ms) of a paced phase, timed from each barrier's due
/// time to its commit stamp.
fn commit_latencies_ms(p: &PhaseOut) -> Vec<f64> {
    p.due
        .iter()
        .filter_map(|(b, &due)| {
            p.stamps
                .get(b)
                .map(|&at| at.saturating_sub(due) as f64 / 1e6)
        })
        .collect()
}

/// Per-run accounting of every checked phase.
#[derive(Default)]
struct Tally {
    incorrect: bool,
    attempted: usize,
    failed: usize,
    flagged: usize,
    balance_boosts: usize,
    clones_issued: usize,
    lane_chunks: u64,
    /// WAL events replayed at each recovery.
    replays: Vec<usize>,
    notes: Vec<String>,
}

impl Tally {
    fn absorb(
        &mut self,
        kind: Kind,
        reference: &check::Reference,
        p: &mut PhaseOut,
        corrupt: bool,
    ) {
        let c = check_phase(kind, reference, p, corrupt);
        self.attempted += p.pushed;
        self.failed += c.failed;
        self.incorrect |= !c.ok;
        self.flagged += c.flagged;
        self.balance_boosts += p.stats.iter().map(|s| s.balance_boosts).sum::<usize>();
        self.clones_issued += p.stats.iter().map(|s| s.clones_issued).sum::<usize>();
        self.lane_chunks += Recorder::get(&p.rec.counters.lane_chunks);
        if p.recover_s.is_some() {
            self.replays.push(p.wal_replayed);
        }
        self.notes.push(c.summary);
    }

    /// Non-vacuity guards: the run must exercise what it claims to.
    fn guard(&mut self, kind: Kind, tiny: bool) {
        let mut guards = vec![("flagged", self.flagged > 0)];
        match kind {
            Kind::Cold => {}
            Kind::Durable => {
                // The crash pushes a fixed tail past the last snapshot;
                // recovery must replay exactly that tail from the WAL.
                let tail = fleet::shape(kind, tiny).crash_tail;
                self.notes.push(format!(
                    "WAL events replayed at recovery: {:?} (tail {tail})",
                    self.replays
                ));
                guards.push((
                    "wal_replayed",
                    !self.replays.is_empty() && self.replays.iter().all(|&n| n == tail),
                ));
            }
            Kind::Skewed => {
                guards.push(("balance_boosts", self.balance_boosts > 0));
                guards.push(("clones_issued", self.clones_issued > 0));
                guards.push(("lane_chunks", self.lane_chunks > 0));
            }
        }
        for (name, held) in guards {
            if !held {
                self.incorrect = true;
                self.failed += 1;
                self.notes.push(format!("non-vacuity guard failed: {name}"));
            }
        }
    }
}

/// The inputs of round `round` of a run: one fleet per round, all drawn
/// from the run's seed.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round as u64) << 32)
}

fn reference_for(kind: Kind, seed: u64, tiny: bool) -> check::Reference {
    let fleet = fleet::generate(kind, seed, tiny);
    check::reference(kind, &fleet.jobs, &fleet.events)
}

fn run(args: &Args, work_dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let kind = w.kind;
    let epoch = Instant::now();
    let paced = Mode::Paced { rate: w.rate };
    let phase =
        |seed, mode, traced| phase::run(kind, seed, args.tiny, mode, traced, epoch, work_dir);
    let mut tally = Tally::default();

    let metrics = if args.trace {
        let reference = reference_for(kind, args.seed, args.tiny);
        let mut phases = vec![
            phase(args.seed, Mode::Saturation, false)?,
            phase(args.seed, Mode::Saturation, true)?,
            phase(args.seed, paced, true)?,
        ];
        for (i, p) in phases.iter_mut().enumerate() {
            tally.absorb(kind, &reference, p, args.corrupt && i == 0);
        }
        per_layer(args, &mut phases, &mut tally)?
    } else {
        let rounds = (args.seconds / w.round_s).round().max(1.0) as usize;
        let mut rates = Vec::new();
        let mut latencies = Vec::new();
        let mut setups = Vec::new();
        let mut f1s = Vec::new();
        let mut recoveries = Vec::new();
        for round in 0..rounds {
            let seed = round_seed(args.seed, round);
            let reference = reference_for(kind, seed, args.tiny);
            // Saturation phases bracket the paced one: the saturation
            // phase is short, so two samples per round steady its median.
            for mode in [Mode::Saturation, paced, Mode::Saturation] {
                let mut p = phase(seed, mode, false)?;
                let corrupt = args.corrupt && round == 0 && rates.is_empty();
                tally.absorb(kind, &reference, &mut p, corrupt);
                setups.push(p.setup_s);
                if mode == Mode::Saturation {
                    rates.push(events_per_s(&p));
                    f1s.push(p.report.macro_f1());
                    recoveries.extend(p.recover_s);
                } else {
                    latencies.extend(commit_latencies_ms(&p));
                }
            }
        }
        let samples = latencies.len();
        tally.notes.push(format!(
            "{rounds} rounds · saturation events/s {rates:.0?} · commit latency over {samples} \
             scored barriers ({} beyond p99)",
            samples - (0.99 * samples as f64).ceil() as usize
        ));
        if !recoveries.is_empty() {
            tally.notes.push(format!(
                "recover_s {recoveries:?} (per-layer metric serve.persist.recover_s)"
            ));
        }
        vec![
            m("events_per_s", median(&mut rates), "1/s"),
            m("commit_p50_ms", percentile(&mut latencies, 0.5), "ms"),
            m("commit_p99_ms", percentile(&mut latencies, 0.99), "ms"),
            m(
                "macro_f1",
                f1s.iter().sum::<f64>() / f1s.len() as f64,
                "ratio",
            ),
            m("setup_s", median(&mut setups), "s"),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    tally.guard(kind, args.tiny);
    let Tally {
        incorrect,
        attempted,
        failed,
        mut notes,
        ..
    } = tally;
    notes.push(format!(
        "failed_frac {} ({failed} failed of {attempted} events pushed)",
        failed as f64 / attempted.max(1) as f64
    ));
    Ok(Outcome {
        correct: !incorrect,
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn span_durations_us(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

fn per_layer(
    args: &Args,
    phases: &mut [PhaseOut],
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let kind = args.workload.kind;
    let untraced_rate = events_per_s(&phases[0]);
    let (head, tail) = phases.split_at_mut(2);
    let sat = &mut head[1];
    let paced = &mut tail[0];
    let traced_rate = events_per_s(sat);

    let config = fleet::nurd_config(kind);
    let captures = std::mem::take(&mut sat.captures);
    let split = mlsplit::run(&config, &captures, &sat.rec, &mut sat.spans);
    if split.mismatches > 0 || split.checkpoints == 0 {
        tally.incorrect = true;
        tally.failed += split.mismatches.max(1);
        tally.notes.push(format!(
            "ML stage split: {} of {} checkpoints disagree with the served program",
            split.mismatches, split.checkpoints
        ));
    }
    trace::resolve_parents(&mut sat.spans);
    trace::resolve_parents(&mut paced.spans);
    let sat_self = trace::self_times(&sat.spans);
    let paced_self = trace::self_times(&paced.spans);
    let path = PathBuf::from(".servebench").join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name, args.seed
    ));
    trace::write(
        &path,
        &[
            ("saturation", &sat.spans, &sat_self),
            ("paced", &paced.spans, &paced_self),
        ],
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    tally
        .notes
        .push(format!("spans written to {}", path.display()));

    let busy_us = |name: &str| span_durations_us(&sat.spans, &sat_self, name);
    let total = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b);
    let mut predict_us = busy_us("core.predict");
    let decide_us = busy_us("mitigate.decide");
    let observe_us = busy_us("health.observe");
    let predict_busy_s = total(&predict_us) / 1e6;
    let hooks_busy_s = predict_busy_s + total(&decide_us) / 1e6 + total(&observe_us) / 1e6;
    let drain_capacity_s = fleet::DRAIN_WORKERS as f64 * sat.wall_s;
    let mut push_us = span_durations_us(&paced.spans, &paced_self, "serve.ingress.push");
    let mut lag_ms: Vec<f64> = paced.gen_lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let mut checkpoint_ms = sat.checkpoint_ms.clone();
    let stat = |p: &PhaseOut, f: fn(&nurd_serve::EngineStats) -> usize| -> f64 {
        p.stats.iter().map(f).sum::<usize>() as f64
    };
    let counter = |c: &std::sync::atomic::AtomicU64| Recorder::get(c) as f64;
    let c = &sat.rec.counters;
    let overhead = if untraced_rate > 0.0 {
        (untraced_rate - traced_rate) / untraced_rate
    } else {
        0.0
    };
    tally.notes.push(format!(
        "tracing overhead: {traced_rate:.0} events/s traced vs {untraced_rate:.0} untraced ({:.1}%)",
        overhead * 100.0
    ));
    Ok(vec![
        m(
            "serve.ingress.push_p99_us",
            percentile(&mut push_us, 0.99),
            "us",
        ),
        m(
            "serve.ingress.blocked_pushes",
            stat(paced, |s| s.blocked_pushes),
            "count",
        ),
        m(
            "serve.ingress.backlog_max",
            paced.backlog_max as f64,
            "count",
        ),
        m(
            "serve.ingress.gen_lag_p99_ms",
            percentile(&mut lag_ms, 0.99),
            "ms",
        ),
        m(
            "serve.commit.barriers_scored",
            sat.stamps.len() as f64,
            "count",
        ),
        m(
            "serve.commit.drain_other_s",
            (drain_capacity_s - hooks_busy_s).max(0.0),
            "s",
        ),
        m(
            "serve.persist.checkpoint_p50_ms",
            percentile(&mut checkpoint_ms, 0.5),
            "ms",
        ),
        m(
            "serve.persist.checkpoint_max_ms",
            percentile(&mut checkpoint_ms, 1.0),
            "ms",
        ),
        m(
            "serve.persist.snapshot_bytes",
            sat.snapshot_bytes as f64,
            "bytes",
        ),
        m("serve.persist.wal_bytes", sat.wal_bytes as f64, "bytes"),
        m(
            "serve.persist.wal_appended",
            stat(sat, |s| s.wal_appended),
            "count",
        ),
        m(
            "serve.persist.wal_replayed",
            sat.wal_replayed as f64,
            "count",
        ),
        m("serve.persist.recover_s", sat.recover_s.unwrap_or(0.0), "s"),
        m("core.predict.calls", predict_us.len() as f64, "count"),
        m("core.predict.busy_s", predict_busy_s, "s"),
        m(
            "core.predict.p50_us",
            percentile(&mut predict_us, 0.5),
            "us",
        ),
        m(
            "core.predict.p99_us",
            percentile(&mut predict_us, 0.99),
            "us",
        ),
        m(
            "core.predict.share",
            predict_busy_s / drain_capacity_s,
            "ratio",
        ),
        m("core.refit.cold_fits", counter(&c.cold_fits), "count"),
        m("core.refit.warm_fits", counter(&c.warm_fits), "count"),
        m("core.refit.drift_rebins", counter(&c.drift_rebins), "count"),
        m("ml.split.checkpoints", split.checkpoints as f64, "count"),
        m("ml.bin.busy_s", split.bin_s, "s"),
        m("ml.boost.busy_s", split.boost_s, "s"),
        m("ml.irls.busy_s", split.irls_s, "s"),
        m("ml.irls.iters", split.irls_iters as f64, "count"),
        m("ml.flatten.busy_s", split.flatten_s, "s"),
        m("ml.score.busy_s", split.score_s, "s"),
        m(
            "runtime.balance_boosts",
            stat(sat, |s| s.balance_boosts),
            "count",
        ),
        m("core.score.lane_chunks", counter(&c.lane_chunks), "count"),
        m("core.score.flat_batches", counter(&c.flat_batches), "count"),
        m("mitigate.decide.calls", decide_us.len() as f64, "count"),
        m("mitigate.decide.busy_us", total(&decide_us), "us"),
        m(
            "mitigate.actions",
            stat(sat, |s| s.clones_issued + s.quarantines_issued),
            "count",
        ),
        m(
            "mitigate.suppressed",
            stat(sat, |s| s.mitigation_suppressed),
            "count",
        ),
        m("health.observe.busy_us", total(&observe_us), "us"),
        m("trace.untraced_events_per_s", untraced_rate, "1/s"),
        m("trace.traced_events_per_s", traced_rate, "1/s"),
        m("trace.overhead_frac", overhead, "ratio"),
    ])
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(".servebench").join(format!("{}-{}", args.workload.name, std::process::id()));
    let result = run(&args, &work_dir);
    std::fs::remove_dir_all(&work_dir).ok();
    match result {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for x in &outcome.metrics {
                println!("{} = {} {}", x.name, x.value, x.unit);
            }
            println!("{}", json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}
