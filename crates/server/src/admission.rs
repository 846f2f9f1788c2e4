//! Admission control: the bounded request queue and per-client budgets.
//!
//! Two independent gates stand between a decoded request and a worker:
//!
//! 1. [`TokenBuckets`] — per-client op budgets. Every evaluation costs
//!    its full op budget up front ([`ipp_core::DriverOptions::verify_max_ops`]
//!    is the currency); buckets refill continuously. A client that
//!    hammers the daemon exhausts *its own* bucket and gets `"budget"`
//!    rejections with a refill-derived retry hint — other clients are
//!    unaffected. The client map itself is bounded (oldest-seen evicted),
//!    so an attacker minting client names cannot grow it without bound.
//! 2. [`AdmissionQueue`] — the bounded ready queue. When it is full the
//!    daemon *sheds load*: the request is rejected immediately with
//!    `"overloaded"` and a retry hint, never buffered without bound.
//!    This is the 429 of the wire protocol.
//!
//! Both gates fail *loudly and structurally* — a rejected request gets a
//! response explaining which gate refused it and when to come back.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Why [`AdmissionQueue::try_push`] refused an item (the item comes
/// back — the caller still owns the reply channel and must answer).
#[derive(Debug)]
pub enum AdmitError<T> {
    /// The queue is at capacity: shed load.
    Full(T),
    /// The daemon is draining: no new work.
    Draining(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    peak: usize,
    draining: bool,
}

/// Bounded MPMC ready queue (mutex + condvar — std-only, no lock-free
/// cleverness needed at request granularity).
pub struct AdmissionQueue<T> {
    cap: usize,
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `cap` waiting items (`cap` ≥ 1).
    pub fn new(cap: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            cap: cap.max(1),
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                peak: 0,
                draining: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit an item, or hand it back with the gate that refused it.
    pub fn try_push(&self, item: T) -> Result<(), AdmitError<T>> {
        let mut st = self.lock();
        if st.draining {
            return Err(AdmitError::Draining(item));
        }
        if st.items.len() >= self.cap {
            return Err(AdmitError::Full(item));
        }
        st.items.push_back(item);
        st.peak = st.peak.max(st.items.len());
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is available. Returns `None` once the queue
    /// is draining *and* empty — the worker-shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.draining {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop admitting; wake every waiting worker so the queue can empty.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.ready.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth high-water mark.
    pub fn peak(&self) -> usize {
        self.lock().peak
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
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn queue_bounds_and_reports_peak() {
        let q = AdmissionQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(AdmitError::Full(3)) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(4).unwrap();
        assert_eq!(q.peak(), 2);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert!(q.is_empty());
    }

    #[test]
    fn drained_queue_rejects_and_releases_workers() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(4));
        q.try_push(7).unwrap();
        q.drain();
        match q.try_push(8) {
            Err(AdmitError::Draining(8)) => {}
            other => panic!("{other:?}"),
        }
        // In-flight work still drains...
        assert_eq!(q.pop(), Some(7));
        // ...then workers are released.
        assert_eq!(q.pop(), None);
        // A blocked worker is woken by drain, not stranded.
        let q2: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(4));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q2.drain();
        assert_eq!(waiter.join().unwrap(), None);
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
