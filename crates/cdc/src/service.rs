//! The CDC service front end: a bounded ingest queue feeding a
//! [`DurableEngine`] through group commit.  The service owns the queue,
//! the commit thread and the snapshot policy and nothing else — creating
//! the directory, validate-then-append, apply and recovery are the
//! spine's ([`crate::durable`]).
//!
//! ```text
//! submit() → [bounded queue] → drain ≤ group_commit_max
//!                              → N × (check + append) → 1 × fsync  (durable)
//!                              → N × apply                        (applied)
//!                              → snapshot?  → retire old segments
//! ```
//!
//! **Ack rule.**  Nothing is acknowledged until the group's fsync returns
//! `Ok`: [`CdcService::durable_seq`] advances only past synced batches, and
//! [`CdcService::flush`] returns once every accepted batch is durable and
//! applied.  A failed append, sync or apply, or a commit-thread panic,
//! **poisons** the service: every later call returns
//! [`CdcError::Poisoned`] with the cause, and nothing after the failure is
//! acknowledged (a failed fsync cannot be retried — see
//! [`crate::changelog::ChangelogWriter`]).  A batch the engine refuses is
//! never appended: its group's valid prefix is made durable and applied,
//! then the service poisons with the refusal (`durable_seq ==
//! applied_seq`, the log stays recoverable).
//!
//! **Backpressure.**  At most `queue_capacity` pending batches (plus one
//! in-flight group); beyond that [`BackpressurePolicy`] blocks with a
//! deadline, rejects, or sheds the oldest *pending* batch — never
//! appended, applied or acknowledged, counted in
//! [`ServiceStats::shed_batches`].
//!
//! **Snapshots.**  Every `snapshot_every_batches` applied batches the loop
//! snapshots and retires the sealed segments the snapshot covers, which
//! bounds disk under an infinite churn stream.  Shutdown drains every
//! accepted batch; submissions racing it get [`CdcError::Shutdown`].

use crate::changelog::SyncFaults;
use crate::durable::DurableEngine;
use crate::error::{CdcError, CdcResult};
use crate::segment::DEFAULT_SEGMENT_BYTES;
use crate::RecoveryReport;
use fivm_core::Engine;
use fivm_relation::{Database, Update};
use fivm_ring::PersistRing;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What [`CdcService::submit`] does when the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait up to `deadline` for the commit thread to free space, then
    /// fail with [`CdcError::Backpressure`].  The default: lossless, and
    /// a stalled engine surfaces as submit latency instead of memory
    /// growth.
    Block { deadline: Duration },
    /// Fail immediately with [`CdcError::Backpressure`]; the caller owns
    /// the retry loop.
    Reject,
    /// Drop the **oldest pending** batch to make room (it is counted in
    /// [`ServiceStats::shed_batches`] and never acknowledged), then
    /// enqueue the new one.  For lossy sources where freshness beats
    /// completeness; never sheds a batch already in a commit group.
    ShedOldest,
}

/// Configuration for [`CdcService::start`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Maximum pending (not yet drained) batches; `submit` applies the
    /// backpressure policy beyond this.
    pub queue_capacity: usize,
    /// What `submit` does when the queue is full.
    pub backpressure: BackpressurePolicy,
    /// Maximum batches coalesced under one changelog fsync.
    pub group_commit_max: usize,
    /// Changelog segment rotation threshold in bytes.
    pub max_segment_bytes: u64,
    /// Snapshot after this many applied batches, then retire the sealed
    /// segments the snapshot covers (`None` = never snapshot).
    pub snapshot_every_batches: Option<u64>,
    /// Fault hook: injected fsync failures (see
    /// [`crate::changelog::ChangelogWriter::set_sync_faults`]).
    pub sync_faults: Option<SyncFaults>,
    /// Fault hook: when set, the commit thread waits for the gate to be
    /// open before draining each group — tests close it to deterministically
    /// fill the queue (stalled-engine scenarios).
    pub commit_gate: Option<CommitGate>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Block { deadline: Duration::from_secs(10) },
            group_commit_max: 64,
            max_segment_bytes: DEFAULT_SEGMENT_BYTES,
            snapshot_every_batches: None,
            sync_faults: None,
            commit_gate: None,
        }
    }
}

/// A gate the commit thread must find open before draining a group.
/// Cloning shares the gate.  Purely a test/fault hook: production
/// configurations leave [`ServiceConfig::commit_gate`] unset.
#[derive(Clone)]
pub struct CommitGate(Arc<(Mutex<bool>, Condvar)>);

impl CommitGate {
    /// A new gate in the open (non-blocking) position.
    pub fn open_gate() -> CommitGate {
        CommitGate(Arc::new((Mutex::new(true), Condvar::new())))
    }

    /// A new gate in the closed position: the commit thread stalls before
    /// its next group until [`CommitGate::open`] is called.
    pub fn closed_gate() -> CommitGate {
        CommitGate(Arc::new((Mutex::new(false), Condvar::new())))
    }

    /// Opens the gate, releasing a stalled commit thread.
    pub fn open(&self) {
        let (_, cv) = &*self.0;
        *self.flag() = true;
        cv.notify_all();
    }

    /// Closes the gate: the commit thread stalls before its *next* group
    /// (a group already past the gate finishes normally).
    pub fn close(&self) {
        *self.flag() = false;
    }

    fn wait_open(&self) {
        let (_, cv) = &*self.0;
        let mut open = self.flag();
        while !*open {
            open = cv.wait(open).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The gate flag, poison-tolerantly: the flag is a plain bool, so a
    /// holder's panic cannot leave it inconsistent (same discipline as
    /// `RingCtx::lock`).
    fn flag(&self) -> MutexGuard<'_, bool> {
        self.0 .0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Counters and gauges the service maintains; cheap to clone out via
/// [`CdcService::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Batches accepted into the queue (excludes rejected/timed-out
    /// submissions; includes batches later shed).
    pub accepted_batches: u64,
    /// Rows those batches carried.
    pub accepted_rows: u64,
    /// Batches dropped by [`BackpressurePolicy::ShedOldest`] — never
    /// appended, applied, or acknowledged.
    pub shed_batches: u64,
    /// Commit groups synced (= changelog fsyncs issued by the service).
    pub committed_groups: u64,
    /// Snapshots written by the snapshot policy.
    pub snapshots: u64,
    /// Sealed segments deleted after snapshots.
    pub retired_segments: u64,
    /// High-water mark of the pending queue.
    pub max_queue_depth: usize,
    /// Changelog bytes on disk (all segments) after the latest group.
    pub changelog_bytes: u64,
    /// High-water mark of [`ServiceStats::changelog_bytes`] — the
    /// bounded-disk assertion reads this.
    pub max_changelog_bytes: u64,
}

/// State shared between producers and the commit thread.
struct QueueState {
    queue: VecDeque<Update>,
    /// Batches accepted into the queue, ever.
    accepted: u64,
    /// Batches durably committed **and** applied, or shed.
    completed: u64,
    /// Highest sequence number covered by a successful fsync.
    durable_seq: u64,
    /// Highest sequence number applied to the engine.
    applied_seq: u64,
    shutdown: bool,
    /// The text of the failure that poisoned the pipeline; never cleared.
    poisoned: Option<String>,
    stats: ServiceStats,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Producers blocked on a full queue wait here.
    submit_cv: Condvar,
    /// The commit thread waits here for work or shutdown.
    work_cv: Condvar,
    /// `flush` callers wait here for the drain to catch up.
    ack_cv: Condvar,
}

impl Shared {
    /// The queue state, poison-tolerantly.  Pipeline failures travel
    /// through [`QueueState::poisoned`], which every wait loop checks —
    /// the mutex's own poison bit adds nothing, so a panicked holder's
    /// guard is recovered rather than cascading the panic into every
    /// accessor (the `RingCtx::lock` discipline).
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `e` as the pipeline's failure, wakes every waiter, and
    /// returns `e` for the commit thread to hand back.
    fn poison(&self, e: CdcError) -> Option<CdcError> {
        let mut st = self.lock_state();
        if st.poisoned.is_none() {
            st.poisoned = Some(e.to_string());
        }
        drop(st);
        self.submit_cv.notify_all();
        self.ack_cv.notify_all();
        self.work_cv.notify_all();
        Some(e)
    }

    fn signal_shutdown(&self) {
        self.lock_state().shutdown = true;
        self.work_cv.notify_all();
        self.submit_cv.notify_all();
    }

    /// Waits until every batch accepted so far is resolved (durable and
    /// applied, or shed); `Poisoned` if the pipeline fails first.
    fn flush(&self) -> CdcResult<u64> {
        let mut st = self.lock_state();
        let target = st.accepted;
        while st.completed < target {
            if let Some(msg) = &st.poisoned {
                return Err(CdcError::Poisoned(msg.clone()));
            }
            st = self.ack_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        Ok(st.durable_seq)
    }
}

/// Dropping a service without [`CdcService::shutdown`] still drains:
/// shutdown is signalled and the drop waits until every accepted batch is
/// committed and applied (or the pipeline poisons).
struct DrainOnDrop(Arc<Shared>);

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        self.0.signal_shutdown();
        let _ = self.0.flush();
    }
}

/// What [`CdcService::shutdown`] hands back after the drain.
pub struct ServiceShutdown<R: PersistRing> {
    /// The engine, reflecting every applied batch.
    pub engine: Engine<R>,
    /// Final counters and gauges.
    pub stats: ServiceStats,
    /// Highest sequence number covered by a successful fsync.
    pub durable_seq: u64,
    /// Highest sequence number applied to the engine.
    pub applied_seq: u64,
    /// The failure that poisoned the service, if any — a commit-thread
    /// panic included, as [`CdcError::Poisoned`] with the panic message.
    /// When set, batches past `durable_seq` were never acknowledged, and
    /// after a panic the engine may hold part of a batch; recover from the
    /// durable artifacts.
    pub error: Option<CdcError>,
}

/// The bounded-queue, group-commit front end over a [`DurableEngine`]
/// (see the module docs for the pipeline and its ack rules).
pub struct CdcService<R: PersistRing> {
    shared: Arc<Shared>,
    queue_capacity: usize,
    backpressure: BackpressurePolicy,
    /// The commit thread; it hands back the engine and the poison cause.
    commit: JoinHandle<(DurableEngine<R>, Option<CdcError>)>,
    _drain: DrainOnDrop,
}

impl<R: PersistRing> CdcService<R>
where
    Engine<R>: Send + 'static,
{
    /// Starts a service over fresh durable artifacts in `dir` (see
    /// [`DurableEngine::create`]).
    pub fn start(engine: Engine<R>, dir: impl AsRef<Path>, config: ServiceConfig) -> CdcResult<Self> {
        let durable = DurableEngine::create_with(engine, dir, config.max_segment_bytes)?;
        Self::spawn(durable, config)
    }

    /// Recovers engine state from the durable artifacts in `dir` (see
    /// [`DurableEngine::recover`]) and starts the service on top,
    /// continuing the durable sequence.
    pub fn start_recovered(
        engine: Engine<R>,
        db: &Database,
        dir: impl AsRef<Path>,
        config: ServiceConfig,
    ) -> CdcResult<(Self, RecoveryReport)> {
        let (durable, report) =
            DurableEngine::recover_at(engine, db, dir.as_ref(), config.max_segment_bytes)?;
        Ok((Self::spawn(durable, config)?, report))
    }

    fn spawn(mut durable: DurableEngine<R>, config: ServiceConfig) -> CdcResult<Self> {
        if let Some(faults) = &config.sync_faults {
            durable.set_sync_faults(faults.clone());
        }
        let (start_seq, bytes) = (durable.applied_seq(), durable.changelog_bytes());
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(config.queue_capacity.min(4096)),
                accepted: 0,
                completed: 0,
                durable_seq: start_seq,
                applied_seq: start_seq,
                shutdown: false,
                poisoned: None,
                stats: ServiceStats {
                    changelog_bytes: bytes,
                    max_changelog_bytes: bytes,
                    ..ServiceStats::default()
                },
            }),
            submit_cv: Condvar::new(),
            work_cv: Condvar::new(),
            ack_cv: Condvar::new(),
        });
        let queue_capacity = config.queue_capacity.max(1);
        let backpressure = config.backpressure;
        let thread_shared = Arc::clone(&shared);
        let commit = std::thread::Builder::new()
            .name("cdc-commit".into())
            .spawn(move || {
                // A panic anywhere in the loop poisons the service with its
                // message instead of leaving `flush` waiting forever; the
                // engine is handed back either way.
                let run = catch_unwind(AssertUnwindSafe(|| {
                    commit_loop(&mut durable, &config, &thread_shared)
                }));
                let error = run.unwrap_or_else(|panic| {
                    let msg = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    let msg = format!("commit thread panicked: {msg}");
                    thread_shared.poison(CdcError::Poisoned(msg))
                });
                (durable, error)
            })?;
        Ok(CdcService {
            _drain: DrainOnDrop(Arc::clone(&shared)),
            shared,
            queue_capacity,
            backpressure,
            commit,
        })
    }

    /// Enqueues one batch for durable commit.  `Ok` means *accepted*, not
    /// durable — durability is what [`CdcService::flush`] /
    /// [`CdcService::durable_seq`] report.  On a full queue the configured
    /// [`BackpressurePolicy`] applies; a [`CdcError::Backpressure`] or
    /// [`CdcError::Shutdown`] return means the batch was **not** enqueued.
    pub fn submit(&self, update: Update) -> CdcResult<()> {
        let deadline_start = Instant::now();
        let mut st = self.shared.lock_state();
        loop {
            if let Some(msg) = &st.poisoned {
                return Err(CdcError::Poisoned(msg.clone()));
            }
            if st.shutdown {
                return Err(CdcError::Shutdown);
            }
            if st.queue.len() < self.queue_capacity {
                st.accepted += 1;
                st.stats.accepted_batches += 1;
                st.stats.accepted_rows += update.len() as u64;
                st.queue.push_back(update);
                st.stats.max_queue_depth = st.stats.max_queue_depth.max(st.queue.len());
                drop(st);
                self.shared.work_cv.notify_one();
                return Ok(());
            }
            match self.backpressure {
                BackpressurePolicy::Reject => {
                    return Err(CdcError::Backpressure { queued: st.queue.len() });
                }
                BackpressurePolicy::ShedOldest => {
                    // The queue is at capacity (≥ 1), so a front exists;
                    // popping via `if let` keeps this path panic-free —
                    // an (impossible) empty queue just loops back to the
                    // now-satisfiable space check.
                    if st.queue.pop_front().is_some() {
                        st.stats.shed_batches += 1;
                        // The shed batch is resolved (it will never be
                        // durable or applied) — `flush` must not wait
                        // for it.
                        st.completed += 1;
                    }
                    drop(st);
                    self.shared.ack_cv.notify_all();
                    st = self.shared.lock_state();
                    // Loop: there is space now (only producers add).
                }
                BackpressurePolicy::Block { deadline } => {
                    let elapsed = deadline_start.elapsed();
                    if elapsed >= deadline {
                        return Err(CdcError::Backpressure { queued: st.queue.len() });
                    }
                    let (guard, _timeout) = self
                        .shared
                        .submit_cv
                        .wait_timeout(st, deadline - elapsed)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
            }
        }
    }

    /// Blocks until every batch accepted so far is durable **and**
    /// applied (shed batches excepted — they resolve as lost), then
    /// returns the highest durable sequence number.  Fails with
    /// [`CdcError::Poisoned`] if the pipeline failed before catching up.
    pub fn flush(&self) -> CdcResult<u64> {
        self.shared.flush()
    }

    /// Highest sequence number covered by a successful fsync.
    pub fn durable_seq(&self) -> u64 {
        self.shared.lock_state().durable_seq
    }

    /// Highest sequence number applied to the engine.
    pub fn applied_seq(&self) -> u64 {
        self.shared.lock_state().applied_seq
    }

    /// Current pending-queue depth (excludes any in-flight commit group).
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_state().queue.len()
    }

    /// Whether an earlier failure poisoned the pipeline.
    pub fn is_poisoned(&self) -> bool {
        self.shared.lock_state().poisoned.is_some()
    }

    /// A copy of the current counters and gauges.
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock_state().stats.clone()
    }

    /// Stops accepting batches, drains everything already accepted
    /// (durably committed and applied, unless the pipeline poisons first),
    /// joins the commit thread, and hands the engine back.  A commit-thread
    /// panic comes back as [`ServiceShutdown::error`].
    pub fn shutdown(self) -> ServiceShutdown<R> {
        let CdcService { shared, commit, .. } = self;
        shared.signal_shutdown();
        // The loop runs under `catch_unwind`, so the thread itself returns;
        // a panic escaping that would be re-raised here, not swallowed.
        let (durable, error) = commit.join().unwrap_or_else(|panic| resume_unwind(panic));
        let st = shared.lock_state();
        ServiceShutdown {
            engine: durable.into_state(),
            stats: st.stats.clone(),
            durable_seq: st.durable_seq,
            applied_seq: st.applied_seq,
            error,
        }
    }
}

/// The commit thread's loop: drains groups, has the spine validate and log
/// each under one fsync, applies the logged prefix, and runs the
/// snapshot/retirement policy.  Returns the error that poisoned the
/// pipeline, if any.
fn commit_loop<R: PersistRing>(
    durable: &mut DurableEngine<R>,
    config: &ServiceConfig,
    shared: &Shared,
) -> Option<CdcError> {
    let group_max = config.group_commit_max.max(1);
    let mut batches_since_snapshot = 0u64;
    loop {
        // Wait for work (or a shutdown with an empty queue = drain done).
        {
            let mut st = shared.lock_state();
            while st.queue.is_empty() && !st.shutdown {
                st = shared.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if st.queue.is_empty() {
                return None;
            }
        }
        // Fault hook: hold here (lock released) so tests can pile up a
        // full queue against a "stalled" pipeline.
        if let Some(gate) = &config.commit_gate {
            gate.wait_open();
        }
        // Drain one group; this frees queue space for producers.
        let group: Vec<Update> = {
            let mut st = shared.lock_state();
            let n = st.queue.len().min(group_max);
            let group = st.queue.drain(..n).collect();
            drop(st);
            shared.submit_cv.notify_all();
            group
        };

        // Validate + append the group, one fsync for all of it.  A rotation
        // inside syncs the sealed segment first, so the group-end sync
        // still covers every byte of the group.
        let (logged, refused) = match durable.log_group(&group) {
            Ok(logged) => logged,
            Err(e) => return shared.poison(e),
        };
        if logged > 0 {
            // Durable: the fsync covering the prefix succeeded — this is
            // the acknowledgement point.
            {
                let mut st = shared.lock_state();
                st.durable_seq = durable.applied_seq() + logged as u64;
                st.stats.committed_groups += 1;
            }
            for update in &group[..logged] {
                if let Err(e) = durable.apply_logged(update) {
                    return shared.poison(e);
                }
            }
            let mut st = shared.lock_state();
            st.applied_seq = durable.applied_seq();
            st.completed += logged as u64;
            st.stats.changelog_bytes = durable.changelog_bytes();
            st.stats.max_changelog_bytes =
                st.stats.max_changelog_bytes.max(st.stats.changelog_bytes);
            drop(st);
            shared.ack_cv.notify_all();
        }
        // The refused batch was never appended: the accepted prefix is
        // durable and applied, and the service stops there.
        if let Some(e) = refused {
            return shared.poison(e);
        }

        // Snapshot by batch count, then retire what the snapshot covers.
        batches_since_snapshot += logged as u64;
        if config
            .snapshot_every_batches
            .is_some_and(|n| batches_since_snapshot >= n)
        {
            let retired = match durable
                .snapshot()
                .and_then(|seq| durable.retire_segments(seq))
            {
                Ok(n) => n as u64,
                Err(e) => return shared.poison(e),
            };
            batches_since_snapshot = 0;
            let mut st = shared.lock_state();
            st.stats.snapshots += 1;
            st.stats.retired_segments += retired;
            st.stats.changelog_bytes = durable.changelog_bytes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_gate_blocks_until_opened() {
        let gate = CommitGate::closed_gate();
        let waiter = gate.clone();
        let opened = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&opened);
        let t = std::thread::spawn(move || {
            waiter.wait_open();
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!opened.load(std::sync::atomic::Ordering::SeqCst));
        gate.open();
        t.join().unwrap();
        assert!(opened.load(std::sync::atomic::Ordering::SeqCst));
        // Reclosing makes the next wait block again; open_gate starts open.
        gate.close();
        CommitGate::open_gate().wait_open();
    }
}
