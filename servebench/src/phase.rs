//! One measured phase: set up a service, drive the fleet stream into it
//! from the generator thread (closed loop or paced open loop), and close
//! it. The durable workload adds a checkpointer thread and, in its
//! saturation phase, a crash and a timed recovery.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nurd_data::TaskEvent;
use nurd_health::{HealthAggregator, HealthConfig};
use nurd_serve::{
    EngineHandle, EngineReport, EngineService, EngineStats, HealthObserver, PersistenceConfig,
};

use crate::fleet::{self, Kind};
use crate::hooks::{self, BarrierId, Captured, Recorder, Span, TimedObserver};

/// Durable workload: the checkpointer snapshots after every this many
/// pushed barriers.
pub const CHECKPOINT_EVERY_BARRIERS: usize = 300;
/// Durable workload: the crash point, as a share of the stream.
const CRASH_AT: f64 = 0.6;
/// The generator polls the ingress backlog every this many pushes.
const BACKLOG_POLL: usize = 256;
/// Shortest sleep of the paced generator.
const GEN_QUANTUM_NS: u64 = 500_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Closed loop: push as fast as `OverloadPolicy::Block` allows.
    Saturation,
    /// Open loop: event `i` is due at `t0 + i / rate`.
    Paced { rate: f64 },
}

/// Everything one phase measured.
pub struct PhaseOut {
    pub mode: Mode,
    /// Fleet generation + service start, up to the first push.
    pub setup_s: f64,
    /// Events per job in the stream (failure accounting).
    pub events_per_job: HashMap<u64, usize>,
    pub pushed: usize,
    pub refused: usize,
    /// First push to `close()` returning.
    pub wall_s: f64,
    pub report: EngineReport,
    /// Stats of every service the phase ran, read after `close()` (or
    /// just before the crash).
    pub stats: Vec<EngineStats>,
    pub stamps: HashMap<BarrierId, u64>,
    /// Due time of every barrier in the latency window (paced phases),
    /// ns since the epoch.
    pub due: HashMap<BarrierId, u64>,
    pub gen_lag_ns: Vec<u64>,
    pub backlog_max: usize,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_failures: usize,
    pub recover_s: Option<f64>,
    /// Events pushed before the crash but missing from the recovered
    /// state.
    pub crash_lost: usize,
    /// Snapshots recovery rejected before it found one it could load.
    pub recovery_fallbacks: usize,
    pub wal_replayed: usize,
    pub snapshot_bytes: u64,
    pub wal_bytes: u64,
    /// Observer state at close (skewed workload).
    pub observer_state: Option<Vec<u8>>,
    pub spans: Vec<Span>,
    pub captures: Vec<Captured>,
    pub rec: Arc<Recorder>,
}

/// Generator-side bookkeeping shared by every push loop of a phase.
struct Gen {
    rec: Arc<Recorder>,
    mode: Mode,
    /// Paced phases: the open loop's t0, ns since the epoch.
    t0: u64,
    /// Stream index of the next event (due time = t0 + index / rate).
    index: usize,
    /// Stream indices whose barriers count toward commit latency: the
    /// middle 80% of the stream. A finite fleet ramps up at its start and
    /// drains out at its end (the last live jobs are all in their scoring
    /// window at once); a long-lived service sees neither.
    window: std::ops::Range<usize>,
    pushed: usize,
    refused: usize,
    barriers_pushed: usize,
    due: HashMap<BarrierId, u64>,
    gen_lag_ns: Vec<u64>,
    backlog_max: usize,
    spans: Vec<Span>,
}

impl Gen {
    fn due_ns(&self, index: usize) -> u64 {
        match self.mode {
            Mode::Saturation => 0,
            Mode::Paced { rate } => self.t0 + (index as f64 * 1e9 / rate) as u64,
        }
    }

    /// Pushes `event` (stream position `self.index`), pacing first.
    /// Returns whether the event was a barrier.
    fn push(&mut self, handle: &EngineHandle, event: TaskEvent) -> bool {
        let barrier = match &event {
            TaskEvent::Barrier { job, ordinal, .. } => Some((*job, *ordinal)),
            _ => None,
        };
        if let Mode::Paced { .. } = self.mode {
            let due = self.due_ns(self.index);
            let mut polled = false;
            loop {
                let now = self.rec.now();
                if now >= due {
                    self.gen_lag_ns.push(now - due);
                    break;
                }
                let wait = due - now;
                if wait > 200_000 && !polled {
                    // Ahead of schedule: poll the backlog on idle time.
                    self.poll_backlog(handle);
                    polled = true;
                    continue;
                }
                // Sleep at least one quantum and push every event due by
                // then in a burst: fewer generator wake-ups competing with
                // the drain workers for the two cores. The delay counts
                // in the latency, which runs from the due time.
                std::thread::sleep(Duration::from_nanos(wait.max(GEN_QUANTUM_NS)));
            }
            if let Some(b) = barrier.filter(|_| self.window.contains(&self.index)) {
                self.due.insert(b, due);
            }
        }
        let start = if self.rec.traced() { self.rec.now() } else { 0 };
        let ok = handle.push(event);
        if self.rec.traced() {
            self.spans.push(Span {
                name: "serve.ingress.push",
                start,
                end: self.rec.now(),
                parent: None,
                barrier,
            });
        }
        self.pushed += 1;
        self.refused += usize::from(!ok);
        self.index += 1;
        if self.pushed.is_multiple_of(BACKLOG_POLL) {
            self.poll_backlog(handle);
        }
        if barrier.is_some() {
            self.barriers_pushed += 1;
        }
        barrier.is_some()
    }

    fn poll_backlog(&mut self, handle: &EngineHandle) {
        let backlog: usize = handle.stats().backlog_per_shard.iter().sum();
        self.backlog_max = self.backlog_max.max(backlog);
    }
}

/// Checkpointer thread body: one `checkpoint()` per tick, timed.
fn checkpointer(
    service: &EngineService,
    ticks: mpsc::Receiver<()>,
    rec: &Recorder,
) -> (Vec<f64>, usize) {
    let mut times = Vec::new();
    let mut failures = 0;
    for () in ticks {
        let start = rec.now();
        failures += usize::from(service.checkpoint().is_err());
        let end = rec.now();
        times.push((end - start) as f64 / 1e6);
        if rec.traced() {
            rec.span("serve.persist.checkpoint", start, end, None);
        }
    }
    (times, failures)
}

/// Pushes `events` into `service`; with `ticks`, sends one checkpoint
/// tick per `CHECKPOINT_EVERY_BARRIERS` pushed barriers.
fn drive(
    gen: &mut Gen,
    service: &EngineService,
    events: impl Iterator<Item = TaskEvent>,
    ticks: Option<&mpsc::Sender<()>>,
) {
    let handle = service.handle();
    for event in events {
        if gen.push(&handle, event)
            && gen
                .barriers_pushed
                .is_multiple_of(CHECKPOINT_EVERY_BARRIERS)
        {
            if let Some(tx) = ticks {
                tx.send(()).expect("checkpointer alive");
            }
        }
    }
}

/// Drives `events` with a checkpointer thread beside the generator.
fn drive_checkpointed(
    gen: &mut Gen,
    service: &EngineService,
    events: impl Iterator<Item = TaskEvent>,
) -> (Vec<f64>, usize) {
    let rec = Arc::clone(&gen.rec);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let worker = s.spawn(|| checkpointer(service, rx, &rec));
        drive(gen, service, events, Some(&tx));
        drop(tx);
        worker.join().expect("checkpointer panicked")
    })
}

fn file_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `snap-<g>.bin` → `g`; `wal-<g>-<shard>.log` → `g`.
fn generation(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("snap-")
        .or_else(|| name.strip_prefix("wal-"))?;
    rest.split(['-', '.']).next()?.parse().ok()
}

/// Bytes of the newest snapshot and of the WAL segments recovery will
/// replay behind it.
fn persisted_bytes(dir: &Path) -> (u64, u64) {
    let newest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("snap-"))
        .filter_map(|n| generation(&n))
        .max();
    let Some(newest) = newest else {
        return (0, 0);
    };
    let snap = file_bytes(dir, |n| n == format!("snap-{newest}.bin"));
    let wal = file_bytes(dir, |n| {
        n.starts_with("wal-") && generation(n).is_some_and(|g| g >= newest)
    });
    (snap, wal)
}

/// Runs one phase of `kind`. `work_dir` holds the durable workload's
/// persistence directories.
pub fn run(
    kind: Kind,
    seed: u64,
    tiny: bool,
    mode: Mode,
    traced: bool,
    epoch: Instant,
    work_dir: &Path,
) -> Result<PhaseOut, String> {
    let rec = Recorder::new(epoch, traced, kind == Kind::Skewed);
    let setup_start = Instant::now();
    let fleet = fleet::generate(kind, seed, tiny);
    let mut events_per_job: HashMap<u64, usize> = HashMap::new();
    for e in &fleet.events {
        *events_per_job.entry(e.job()).or_insert(0) += 1;
    }
    let factory = || hooks::predictor_factory(fleet::nurd_config(kind), Arc::clone(&rec));
    let observer =
        (kind == Kind::Skewed).then(|| Arc::new(HealthAggregator::new(HealthConfig::default())));
    let attach = |service: &EngineService| {
        if kind == Kind::Skewed {
            let policy = hooks::policy_factory(fleet::mitigator(), Arc::clone(&rec));
            assert!(service.attach_mitigator(policy), "fresh service");
            let timed: Arc<dyn HealthObserver> = Arc::new(TimedObserver {
                inner: Arc::clone(observer.as_ref().expect("skewed has an observer")),
                rec: Arc::clone(&rec),
            });
            assert!(service.attach_observer(timed), "fresh service");
        }
    };
    let persist_dir: PathBuf = work_dir.join(match mode {
        Mode::Saturation => "saturation",
        Mode::Paced { .. } => "paced",
    });
    let service = if kind == Kind::Durable {
        std::fs::remove_dir_all(&persist_dir).ok();
        EngineService::start_persistent(
            fleet::engine_config(kind),
            fleet::service_config(),
            PersistenceConfig::new(&persist_dir),
            factory(),
        )
        .map_err(|e| format!("start_persistent: {e}"))?
    } else {
        EngineService::start(
            fleet::engine_config(kind),
            fleet::service_config(),
            factory(),
        )
    };
    attach(&service);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let n_events = fleet.events.len();
    let mut gen = Gen {
        rec: Arc::clone(&rec),
        mode,
        t0: 0,
        index: 0,
        window: n_events / 10..n_events - n_events / 10,
        pushed: 0,
        refused: 0,
        barriers_pushed: 0,
        due: HashMap::new(),
        gen_lag_ns: Vec::new(),
        backlog_max: 0,
        spans: Vec::new(),
    };
    // Durable saturation phase: the crash point and the end of the tail
    // pushed past the pre-crash snapshot.
    let crash = (n_events as f64 * CRASH_AT) as usize;
    let tail_end = (crash + fleet::shape(kind, tiny).crash_tail).min(n_events);
    let mut stats = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut checkpoint_failures = 0;
    let mut recover_s = None;
    let mut recovery_fallbacks = 0;
    let mut wal_replayed = 0;
    let (mut snapshot_bytes, mut wal_bytes) = (0, 0);
    let events = fleet.events;
    // Per-job event counts of the stream prefix pushed before the crash.
    let mut crash_lost = 0;
    let mut prefix_per_job: HashMap<u64, usize> = HashMap::new();
    if kind == Kind::Durable && mode == Mode::Saturation {
        for e in &events[..tail_end] {
            *prefix_per_job.entry(e.job()).or_insert(0) += 1;
        }
    }
    let t_start = rec.now();
    gen.t0 = t_start;

    let report = match (kind, mode) {
        (Kind::Durable, Mode::Saturation) => {
            let mut stream = events.into_iter();
            let (times, failures) =
                drive_checkpointed(&mut gen, &service, stream.by_ref().take(crash));
            checkpoint_ms.extend(times);
            checkpoint_failures += failures;
            service.quiesce();
            let start = rec.now();
            checkpoint_failures += usize::from(service.checkpoint().is_err());
            let end = rec.now();
            checkpoint_ms.push((end - start) as f64 / 1e6);
            if traced {
                rec.span("serve.persist.checkpoint", start, end, None);
            }
            drive(
                &mut gen,
                &service,
                stream.by_ref().take(tail_end - crash),
                None,
            );
            stats.push(service.stats());
            // The crash: no close(), no shutdown snapshot.
            drop(service);
            (snapshot_bytes, wal_bytes) = persisted_bytes(&persist_dir);
            let start = rec.now();
            let (revived, recovered) = EngineService::recover(
                PersistenceConfig::new(&persist_dir),
                fleet::engine_config(kind),
                fleet::service_config(),
                factory(),
            )
            .map_err(|e| format!("recover: {e}"))?;
            let end = rec.now();
            recover_s = Some((end - start) as f64 / 1e9);
            if traced {
                rec.span("serve.persist.recover", start, end, None);
            }
            wal_replayed = recovered.wal_events_replayed;
            recovery_fallbacks = recovered.recovery_fallbacks;
            // Every pushed event must be inside the recovered state: the
            // drop drained and flushed the tail. Shortfalls are lost.
            crash_lost = prefix_per_job
                .iter()
                .map(|(job, &n)| {
                    n.saturating_sub(recovered.events_seen.get(job).copied().unwrap_or(0) as usize)
                })
                .sum();
            let (times, failures) = drive_checkpointed(&mut gen, &revived, stream);
            checkpoint_ms.extend(times);
            checkpoint_failures += failures;
            let report = revived.close();
            stats.push(revived.stats());
            report
        }
        (Kind::Durable, Mode::Paced { .. }) => {
            let (times, failures) = drive_checkpointed(&mut gen, &service, events.into_iter());
            checkpoint_ms.extend(times);
            checkpoint_failures += failures;
            let report = service.close();
            stats.push(service.stats());
            report
        }
        _ => {
            drive(&mut gen, &service, events.into_iter(), None);
            let report = service.close();
            stats.push(service.stats());
            report
        }
    };
    let wall_s = (rec.now() - t_start) as f64 / 1e9;
    let observer_state = observer.map(|o| o.snapshot_state());
    let mut spans = rec.take_spans();
    spans.append(&mut gen.spans);
    Ok(PhaseOut {
        mode,
        setup_s,
        events_per_job,
        pushed: gen.pushed,
        refused: gen.refused,
        wall_s,
        report,
        stats,
        stamps: rec.take_stamps(),
        due: gen.due,
        gen_lag_ns: gen.gen_lag_ns,
        backlog_max: gen.backlog_max,
        checkpoint_ms,
        checkpoint_failures,
        recover_s,
        crash_lost,
        recovery_fallbacks,
        wal_replayed,
        snapshot_bytes,
        wal_bytes,
        observer_state,
        spans,
        captures: rec.take_captures(),
        rec,
    })
}
