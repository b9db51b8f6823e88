//! Wrappers around the engine's three hooks — predictor, mitigation
//! policy, health observer — that stamp barrier commits and, in traced
//! runs, record spans and copy each scored checkpoint for the ML stage
//! split. Nothing here changes what the wrapped object computes: every
//! trait method forwards, so reports are those of the bare program.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use nurd_core::{NurdConfig, NurdPredictor, RefitStats};
use nurd_data::{
    BarrierView, Checkpoint, JobSpec, MitigationAction, MitigationPolicy, OnlinePredictor,
    ScoredPrediction, StreamContext, TaskScore,
};
use nurd_serve::{HealthObserver, JobReport, MitigatorFactory, PredictorFactory};

/// Barrier id: (`JobSpec::job`, `Checkpoint::ordinal`).
pub type BarrierId = (u64, usize);

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the run's merged span list, resolved
    /// when the run ends (see `trace::assemble`).
    pub parent: Option<usize>,
    pub barrier: Option<BarrierId>,
}

/// A scored checkpoint as the predictor saw it, copied for the ML stage
/// split (traced runs only).
#[derive(Debug, Clone)]
pub struct Captured {
    pub barrier: BarrierId,
    pub dim: usize,
    /// Finished rows, row-major, task-id order.
    pub x_fin: Vec<f64>,
    pub y_fin: Vec<f64>,
    /// Running rows, row-major, task-id order.
    pub x_run: Vec<f64>,
    pub run_ids: Vec<usize>,
    /// What the served predictor flagged at this checkpoint.
    pub flagged: Vec<usize>,
    /// Calibration term after the call (`None` before the first fit).
    pub delta: Option<f64>,
    pub threshold: f64,
}

/// Counters the predictor wrapper publishes after every call (the
/// delta against the predictor's previous readings).
#[derive(Debug, Default)]
pub struct PredictorCounters {
    pub lane_chunks: AtomicU64,
    pub flat_batches: AtomicU64,
    pub cold_fits: AtomicU64,
    pub warm_fits: AtomicU64,
    pub drift_rebins: AtomicU64,
}

/// Per-phase sink for commit stamps, spans, captures and counters.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    traced: bool,
    /// Stamp commits in the policy wrapper (the last hook the shard calls
    /// when a mitigator is attached) instead of the predictor wrapper.
    stamp_in_policy: bool,
    stamps: Mutex<HashMap<BarrierId, u64>>,
    spans: Mutex<Vec<Span>>,
    captures: Mutex<Vec<Captured>>,
    pub counters: PredictorCounters,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("recorder mutex poisoned by a panicking hook")
}

impl Recorder {
    pub fn new(epoch: Instant, traced: bool, stamp_in_policy: bool) -> Arc<Self> {
        Arc::new(Recorder {
            epoch,
            traced,
            stamp_in_policy,
            stamps: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
            captures: Mutex::new(Vec::new()),
            counters: PredictorCounters::default(),
        })
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// First stamp wins: a barrier re-applied by WAL replay at recovery
    /// keeps its original commit time.
    fn stamp(&self, barrier: BarrierId, at: u64) {
        lock(&self.stamps).entry(barrier).or_insert(at);
    }

    pub fn span(&self, name: &'static str, start: u64, end: u64, barrier: Option<BarrierId>) {
        lock(&self.spans).push(Span {
            name,
            start,
            end,
            parent: None,
            barrier,
        });
    }

    pub fn take_stamps(&self) -> HashMap<BarrierId, u64> {
        std::mem::take(&mut *lock(&self.stamps))
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }

    pub fn take_captures(&self) -> Vec<Captured> {
        std::mem::take(&mut *lock(&self.captures))
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// `NurdPredictor` with commit stamps, spans and counter publication.
struct TimedPredictor {
    inner: NurdPredictor,
    job: u64,
    threshold: f64,
    rec: Arc<Recorder>,
    seen_lanes: usize,
    seen_flat: usize,
    seen_refit: RefitStats,
}

impl TimedPredictor {
    /// The predictor's own counters: lane groups, flat batches, refits.
    fn readings(&self) -> (usize, usize, RefitStats) {
        (
            self.inner.lane_chunks(),
            self.inner.flat_batches(),
            self.inner.refit_stats(),
        )
    }

    fn after_call(&mut self, ckpt: &Checkpoint<'_>, start: u64, flagged: &[usize]) {
        let end = self.rec.now();
        let barrier = (self.job, ckpt.ordinal);
        if !self.rec.stamp_in_policy {
            self.rec.stamp(barrier, end);
        }
        let c = &self.rec.counters;
        let (lanes, flat, refit) = self.readings();
        let (was_lanes, was_flat, was) = (self.seen_lanes, self.seen_flat, self.seen_refit);
        let add = |counter: &AtomicU64, now: usize, before: usize| {
            counter.fetch_add(now.saturating_sub(before) as u64, Ordering::Relaxed);
        };
        add(&c.lane_chunks, lanes, was_lanes);
        add(&c.flat_batches, flat, was_flat);
        add(&c.cold_fits, refit.cold_fits, was.cold_fits);
        add(&c.warm_fits, refit.warm_fits, was.warm_fits);
        add(&c.drift_rebins, refit.drift_rebins, was.drift_rebins);
        (self.seen_lanes, self.seen_flat, self.seen_refit) = (lanes, flat, refit);
        if self.rec.traced {
            self.rec.span("core.predict", start, end, Some(barrier));
            lock(&self.rec.captures).push(capture(
                barrier,
                ckpt,
                flagged,
                self.inner.delta(),
                self.threshold,
            ));
        }
    }
}

fn capture(
    barrier: BarrierId,
    ckpt: &Checkpoint<'_>,
    flagged: &[usize],
    delta: Option<f64>,
    threshold: f64,
) -> Captured {
    let dim = ckpt
        .finished
        .first()
        .map(|t| t.features.len())
        .or_else(|| ckpt.running.first().map(|t| t.features.len()))
        .unwrap_or(0);
    Captured {
        barrier,
        dim,
        x_fin: ckpt
            .finished
            .iter()
            .flat_map(|t| t.features)
            .copied()
            .collect(),
        y_fin: ckpt.finished.iter().map(|t| t.latency).collect(),
        x_run: ckpt
            .running
            .iter()
            .flat_map(|t| t.features)
            .copied()
            .collect(),
        run_ids: ckpt.running.iter().map(|t| t.id).collect(),
        flagged: flagged.to_vec(),
        delta,
        threshold,
    }
}

impl OnlinePredictor for TimedPredictor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
        self.inner.begin_stream(ctx);
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        let start = self.rec.now();
        let flagged = self.inner.predict(checkpoint);
        self.after_call(checkpoint, start, &flagged);
        flagged
    }

    fn predict_scored(&mut self, checkpoint: &Checkpoint<'_>) -> ScoredPrediction {
        let start = self.rec.now();
        let scored = self.inner.predict_scored(checkpoint);
        self.after_call(checkpoint, start, &scored.flagged);
        scored
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.inner.set_parallelism(threads);
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        // A restored predictor starts its counters from the restored
        // state, so only work done after the restore is published.
        let ok = self.inner.restore_state(bytes);
        (self.seen_lanes, self.seen_flat, self.seen_refit) = self.readings();
        ok
    }
}

/// Predictor factory: a fresh `NurdPredictor` with `config` per job,
/// wrapped so `rec` sees every call.
pub fn predictor_factory(config: NurdConfig, rec: Arc<Recorder>) -> PredictorFactory {
    Box::new(move |spec: &JobSpec| {
        Box::new(TimedPredictor {
            inner: NurdPredictor::new(config.clone()),
            job: spec.job,
            threshold: spec.threshold,
            rec: Arc::clone(&rec),
            seen_lanes: 0,
            seen_flat: 0,
            seen_refit: RefitStats::default(),
        })
    })
}

/// Any `MitigationPolicy`, timed.
struct TimedPolicy {
    inner: Box<dyn MitigationPolicy + Send>,
    rec: Arc<Recorder>,
}

impl MitigationPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn clone_budget(&self) -> Option<usize> {
        self.inner.clone_budget()
    }

    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        let start = self.rec.now();
        let decisions = self.inner.decide(view);
        let end = self.rec.now();
        let barrier = (view.job, view.ordinal);
        if self.rec.stamp_in_policy {
            self.rec.stamp(barrier, end);
        }
        if self.rec.traced {
            self.rec.span("mitigate.decide", start, end, Some(barrier));
        }
        decisions
    }
}

/// Wraps every policy `inner` builds.
pub fn policy_factory(inner: MitigatorFactory, rec: Arc<Recorder>) -> MitigatorFactory {
    Box::new(move |spec: &JobSpec| {
        Box::new(TimedPolicy {
            inner: inner(spec),
            rec: Arc::clone(&rec),
        })
    })
}

/// Any `HealthObserver`, timed.
pub struct TimedObserver<O> {
    pub inner: Arc<O>,
    pub rec: Arc<Recorder>,
}

impl<O: HealthObserver> HealthObserver for TimedObserver<O> {
    fn observe_barrier(
        &self,
        job: u64,
        ordinal: usize,
        time: f64,
        nodes: Option<&[u32]>,
        scores: &[TaskScore],
    ) {
        let start = self.rec.now();
        self.inner
            .observe_barrier(job, ordinal, time, nodes, scores);
        if self.rec.traced {
            let end = self.rec.now();
            self.rec
                .span("health.observe", start, end, Some((job, ordinal)));
        }
    }

    fn observe_finalized(&self, report: &JobReport, nodes: Option<&[u32]>, straggled: &[bool]) {
        let start = self.rec.now();
        self.inner.observe_finalized(report, nodes, straggled);
        if self.rec.traced {
            let end = self.rec.now();
            self.rec.span("health.observe", start, end, None);
        }
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.inner.snapshot_state()
    }

    fn restore_state(&self, blob: &[u8]) -> bool {
        self.inner.restore_state(blob)
    }
}
