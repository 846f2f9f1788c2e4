//! Admission control: per-client budgets and the evaluation gate.
//!
//! Two independent gates stand between a decoded request and an
//! evaluation:
//!
//! 1. [`TokenBuckets`] — per-client op budgets. Every evaluation costs
//!    its full op budget up front ([`ipp_core::DriverOptions::verify_max_ops`]
//!    is the currency); buckets refill continuously. A client that
//!    hammers the daemon exhausts *its own* bucket and gets `"budget"`
//!    rejections with a refill-derived retry hint — other clients are
//!    unaffected. The client map itself is bounded (oldest-seen evicted),
//!    so an attacker minting client names cannot grow it without bound.
//! 2. [`EvalGate`] — a counting gate over evaluations. At most `workers`
//!    evaluations run at once, each on its own connection thread, and at
//!    most `capacity` wait their turn, in arrival order. When the wait
//!    line is full the daemon *sheds load*: the request is rejected
//!    immediately with `"overloaded"` and a retry hint, never buffered
//!    without bound. This is the 429 of the wire protocol.
//!
//! Both gates fail *loudly and structurally* — a rejected request gets a
//! response explaining which gate refused it and when to come back.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why [`EvalGate::enter`] refused an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The wait line is full: shed load, come back after `retry_ms`.
    Overloaded {
        /// Retry hint, scaled by the backlog per running slot.
        retry_ms: u64,
    },
    /// The daemon is draining: no new work.
    Draining,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
    peak: usize,
    draining: bool,
    /// Arrival tickets: the next one handed out, and the next one whose
    /// holder may run.
    issued: u64,
    served: u64,
}

/// Bounds the evaluations that run at once and the ones that wait
/// (mutex + condvar — std-only, no lock-free cleverness needed at
/// request granularity). The caller runs its evaluation on its own
/// thread while it holds the [`Permit`].
pub struct EvalGate {
    workers: usize,
    capacity: usize,
    state: Mutex<GateState>,
    turn: Condvar,
}

/// The right to run one evaluation; dropping it (also by unwinding)
/// frees the slot for the next waiter.
pub struct Permit<'a>(&'a EvalGate);

impl EvalGate {
    /// A gate running at most `workers` evaluations at once and letting
    /// at most `capacity` wait (both ≥ 1).
    pub fn new(workers: usize, capacity: usize) -> EvalGate {
        EvalGate {
            workers: workers.max(1),
            capacity: capacity.max(1),
            state: Mutex::default(),
            turn: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refuse (draining, or the wait line is full), or wait in arrival
    /// order for a free slot and take it.
    pub fn enter(&self) -> Result<Permit<'_>, Refusal> {
        let mut st = self.lock();
        if st.draining {
            return Err(Refusal::Draining);
        }
        if st.waiting >= self.capacity {
            // Hint scales with how deep the backlog is relative to the
            // running slots — crude, bounded, and honest about overload.
            let retry_ms = 25 * (st.waiting as u64 / self.workers as u64 + 1);
            return Err(Refusal::Overloaded {
                retry_ms: retry_ms.min(5_000),
            });
        }
        st.waiting += 1;
        st.peak = st.peak.max(st.waiting);
        let ticket = st.issued;
        st.issued += 1;
        while st.served != ticket || st.running >= self.workers {
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.served += 1;
        st.waiting -= 1;
        st.running += 1;
        drop(st);
        // The next ticket may be runnable too.
        self.turn.notify_all();
        Ok(Permit(self))
    }

    /// Refuse newcomers from now on; everyone already admitted still
    /// runs. Returns the evaluations running or waiting at that moment.
    pub fn drain(&self) -> usize {
        let mut st = self.lock();
        st.draining = true;
        st.running + st.waiting
    }

    /// Block until nothing runs and nothing waits.
    pub fn wait_idle(&self) {
        let mut st = self.lock();
        while st.running + st.waiting > 0 {
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// High-water mark of evaluations waiting at once.
    pub fn peak(&self) -> usize {
        self.lock().peak
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.turn.notify_all();
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-client token buckets denominated in interpreter ops.
pub struct TokenBuckets {
    /// Bucket capacity (burst), in ops.
    capacity: f64,
    /// Refill rate, ops per second.
    refill_per_sec: f64,
    /// Cost of one admission, in ops.
    cost: f64,
    /// Bound on tracked clients.
    max_clients: usize,
    state: Mutex<HashMap<String, Bucket>>,
}

impl TokenBuckets {
    /// Buckets of `burst × cost_ops` capacity refilling at
    /// `refill_requests_per_sec × cost_ops` ops per second, tracking at
    /// most `max_clients` distinct clients.
    pub fn new(
        cost_ops: u64,
        burst: u32,
        refill_requests_per_sec: f64,
        max_clients: usize,
    ) -> TokenBuckets {
        let cost = cost_ops.max(1) as f64;
        TokenBuckets {
            capacity: cost * burst.max(1) as f64,
            refill_per_sec: cost * refill_requests_per_sec.max(0.001),
            cost,
            max_clients: max_clients.max(1),
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Try to pay for one admission as `client` at time `now`. `Err` is
    /// the suggested retry delay in milliseconds (time until the bucket
    /// holds one request's worth of ops again).
    pub fn try_admit_at(&self, client: &str, now: Instant) -> Result<(), u64> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // A known client pays one lookup and no allocation; only a new
        // bucket owns a copy of the name.
        if let Some(bucket) = state.get_mut(client) {
            return self.charge(bucket, now);
        }
        if state.len() >= self.max_clients {
            // Bound the map: forget the client seen longest ago.
            if let Some(victim) = state
                .iter()
                .min_by_key(|(_, b)| b.last)
                .map(|(k, _)| k.clone())
            {
                state.remove(&victim);
            }
        }
        let bucket = state.entry(client.to_string()).or_insert(Bucket {
            tokens: self.capacity,
            last: now,
        });
        self.charge(bucket, now)
    }

    /// Refill `bucket` up to `now`, then take one admission's cost from it.
    fn charge(&self, bucket: &mut Bucket, now: Instant) -> Result<(), u64> {
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        bucket.last = now;
        if bucket.tokens >= self.cost {
            bucket.tokens -= self.cost;
            Ok(())
        } else {
            let deficit = self.cost - bucket.tokens;
            let ms = (deficit / self.refill_per_sec * 1000.0).ceil() as u64;
            Err(ms.max(1))
        }
    }

    /// [`TokenBuckets::try_admit_at`] with the current time.
    pub fn try_admit(&self, client: &str) -> Result<(), u64> {
        self.try_admit_at(client, Instant::now())
    }

    /// Clients currently tracked.
    pub fn tracked_clients(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Poll `done` for up to ten seconds.
    fn eventually(done: impl Fn() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < Duration::from_secs(10), "timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Start a thread that enters `gate`, records `tag`, and holds its
    /// permit until `release` is set.
    fn holder(
        gate: &Arc<EvalGate>,
        tag: u32,
        log: &Arc<Mutex<Vec<u32>>>,
        release: &Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<Result<(), Refusal>> {
        let (gate, log, release) = (Arc::clone(gate), Arc::clone(log), Arc::clone(release));
        std::thread::spawn(move || {
            let _permit = gate.enter()?;
            log.lock().unwrap().push(tag);
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        })
    }

    #[test]
    fn gate_bounds_waiters_and_reports_peak() {
        let gate = Arc::new(EvalGate::new(1, 2));
        let log = Arc::new(Mutex::new(Vec::new()));
        let release = Arc::new(AtomicBool::new(false));
        let running = holder(&gate, 0, &log, &release);
        eventually(|| log.lock().unwrap().len() == 1);
        let waiters: Vec<_> = (1..=2).map(|t| holder(&gate, t, &log, &release)).collect();
        eventually(|| gate.lock().waiting == 2);
        // The wait line is full: the next entrant is shed with a hint
        // scaled by the backlog per running slot.
        match gate.enter() {
            Err(Refusal::Overloaded { retry_ms: 75 }) => {}
            Err(other) => panic!("{other:?}"),
            Ok(_) => panic!("entered a full gate"),
        }
        release.store(true, Ordering::SeqCst);
        for t in std::iter::once(running).chain(waiters) {
            t.join().unwrap().unwrap();
        }
        gate.wait_idle();
        assert_eq!(gate.peak(), 2);
        assert_eq!(log.lock().unwrap().len(), 3);
    }

    #[test]
    fn drained_gate_refuses_newcomers_while_admitted_waiters_run() {
        let gate = Arc::new(EvalGate::new(1, 4));
        let log = Arc::new(Mutex::new(Vec::new()));
        let release = Arc::new(AtomicBool::new(false));
        let running = holder(&gate, 0, &log, &release);
        eventually(|| log.lock().unwrap().len() == 1);
        let waiter = holder(&gate, 1, &log, &release);
        eventually(|| gate.lock().waiting == 1);
        assert_eq!(gate.drain(), 2, "one running, one waiting");
        assert!(matches!(gate.enter(), Err(Refusal::Draining)));
        release.store(true, Ordering::SeqCst);
        running.join().unwrap().unwrap();
        // The waiter admitted before the drain still gets its turn.
        waiter.join().unwrap().unwrap();
        gate.wait_idle();
        assert_eq!(*log.lock().unwrap(), [0, 1]);
    }

    #[test]
    fn gate_grants_permits_in_arrival_order() {
        let gate = Arc::new(EvalGate::new(1, 8));
        let log = Arc::new(Mutex::new(Vec::new()));
        let release = Arc::new(AtomicBool::new(false));
        let mut threads = vec![holder(&gate, 0, &log, &release)];
        eventually(|| log.lock().unwrap().len() == 1);
        for tag in 1..=5 {
            threads.push(holder(&gate, tag, &log, &release));
            eventually(|| gate.lock().waiting == tag as usize);
        }
        release.store(true, Ordering::SeqCst);
        for t in threads {
            t.join().unwrap().unwrap();
        }
        assert_eq!(*log.lock().unwrap(), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn permit_is_released_when_its_holder_panics() {
        let gate = Arc::new(EvalGate::new(1, 1));
        let panicker = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _permit = gate.enter().unwrap();
                panic!("evaluation panicked");
            })
        };
        assert!(panicker.join().is_err());
        gate.wait_idle();
        // The slot is free again: a fresh entrant runs at once.
        drop(gate.enter().unwrap());
        assert_eq!(gate.lock().running, 0);
    }

    #[test]
    fn buckets_throttle_bursts_and_refill() {
        let b = TokenBuckets::new(1000, 3, 10.0, 8);
        let t0 = Instant::now();
        for _ in 0..3 {
            b.try_admit_at("c", t0).unwrap();
        }
        let retry = b.try_admit_at("c", t0).unwrap_err();
        assert!(retry > 0 && retry <= 100, "{retry}");
        // After one refill interval the client may come back.
        b.try_admit_at("c", t0 + Duration::from_millis(retry + 1))
            .unwrap();
        // Other clients are unaffected.
        b.try_admit_at("other", t0).unwrap();
    }

    #[test]
    fn client_map_is_bounded() {
        let b = TokenBuckets::new(10, 1, 1.0, 3);
        let t0 = Instant::now();
        for i in 0..10 {
            let name = format!("client-{i}");
            let _ = b.try_admit_at(&name, t0 + Duration::from_millis(i));
        }
        assert!(b.tracked_clients() <= 3);
    }
}
