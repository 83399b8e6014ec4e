//! Shape-aware request coalescing.
//!
//! Requests are queued per *batch key* — the `(device variant, input
//! shape)` pair — because only same-variant, same-shape rows can share
//! one backbone pass. A worker popping a batch takes the key with the
//! oldest waiting request and either fills a full batch immediately or
//! waits out the batch window (the serving latency budget) for more
//! arrivals, whichever comes first.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::engine::Request;

/// Coalescing knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Hard cap on rows per coalesced batch (1 = unbatched serving).
    pub max_batch: usize,
    /// How long a non-full batch may wait for more same-key arrivals,
    /// counted from its oldest request. Zero dispatches immediately.
    pub window: Duration,
}

impl BatcherConfig {
    /// The unbatched baseline: every request is its own batch.
    pub fn unbatched() -> Self {
        BatcherConfig {
            max_batch: 1,
            window: Duration::ZERO,
        }
    }
}

/// A request with its enqueue timestamp (latency is measured from here).
#[derive(Debug)]
pub struct QueuedRequest {
    /// The request itself.
    pub request: Request,
    /// When it entered the batcher.
    pub enqueued: Instant,
}

type BatchKey = (usize, Vec<usize>);

#[derive(Debug, Default)]
struct Shared {
    queues: HashMap<BatchKey, VecDeque<QueuedRequest>>,
    /// Keys holding at least one request, oldest activation first.
    order: VecDeque<BatchKey>,
    closed: bool,
}

/// A multi-producer, multi-worker coalescing queue.
#[derive(Debug, Default)]
pub struct Batcher {
    cfg: BatcherConfigCell,
    shared: Mutex<Shared>,
    ready: Condvar,
}

// Plain wrapper so `Batcher::default()` exists for tests.
#[derive(Debug)]
struct BatcherConfigCell(BatcherConfig);

impl Default for BatcherConfigCell {
    fn default() -> Self {
        BatcherConfigCell(BatcherConfig::unbatched())
    }
}

impl Batcher {
    /// An empty batcher with the given coalescing config.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch` is zero.
    pub fn new(cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be at least 1");
        Batcher {
            cfg: BatcherConfigCell(cfg),
            shared: Mutex::new(Shared::default()),
            ready: Condvar::new(),
        }
    }

    /// The coalescing config.
    pub fn config(&self) -> BatcherConfig {
        self.cfg.0
    }

    /// Enqueues one request.
    ///
    /// # Panics
    ///
    /// Panics when the batcher is already closed.
    pub fn push(&self, request: Request) {
        let key = (request.device, request.input.shape().to_vec());
        let mut s = self.shared.lock().expect("batcher mutex");
        assert!(!s.closed, "push after close");
        let q = s.queues.entry(key.clone()).or_default();
        let was_empty = q.is_empty();
        q.push_back(QueuedRequest {
            request,
            enqueued: Instant::now(),
        });
        if was_empty {
            s.order.push_back(key);
        }
        drop(s);
        self.ready.notify_one();
    }

    /// Marks the end of the request stream; workers drain what is queued
    /// and then observe `None`. Never panics — `serve()` calls it from a
    /// drop guard while its load generator unwinds — so a poisoned mutex
    /// is entered anyway: setting the flag is valid in any state.
    pub fn close(&self) {
        self.shared.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }

    /// Blocks until a batch is ready (or the batcher is closed and
    /// empty, yielding `None`). The returned rows share one batch key.
    pub fn pop_batch(&self) -> Option<Vec<QueuedRequest>> {
        let BatcherConfig { max_batch, window } = self.cfg.0;
        let mut s = self.shared.lock().expect("batcher mutex");
        loop {
            let Some(key) = s.order.front().cloned() else {
                if s.closed {
                    return None;
                }
                s = self.ready.wait(s).expect("batcher mutex");
                continue;
            };
            let q = s.queues.get(&key).expect("ordered key has a queue");
            let oldest = q.front().expect("ordered key is nonempty").enqueued;
            let age = oldest.elapsed();
            if q.len() < max_batch && age < window && !s.closed {
                let (guard, _timeout) = self
                    .ready
                    .wait_timeout(s, window - age)
                    .expect("batcher mutex");
                s = guard;
                continue;
            }
            let q = s.queues.get_mut(&key).expect("ordered key has a queue");
            let take = q.len().min(max_batch);
            let batch: Vec<QueuedRequest> = q.drain(..take).collect();
            s.order.pop_front();
            if !s.queues.get(&key).expect("key still present").is_empty() {
                // Leftovers re-queue behind other waiting keys.
                s.order.push_back(key);
            }
            return Some(batch);
        }
    }

    /// Number of requests currently queued (for tests and gauges).
    pub fn pending(&self) -> usize {
        let s = self.shared.lock().expect("batcher mutex");
        s.queues.values().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::Array;

    fn req(id: usize, device: usize) -> Request {
        Request {
            id,
            device,
            input: Array::zeros(&[1, 4, 4]),
        }
    }

    #[test]
    fn coalesces_same_key_up_to_max_batch() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 3,
            window: Duration::from_millis(50),
        });
        for id in 0..4 {
            b.push(req(id, 0));
        }
        let first = b.pop_batch().expect("batch");
        assert_eq!(
            first.iter().map(|q| q.request.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        b.close();
        let rest = b.pop_batch().expect("leftover batch");
        assert_eq!(rest.len(), 1);
        assert!(b.pop_batch().is_none());
    }

    #[test]
    fn distinct_devices_never_share_a_batch() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 8,
            window: Duration::ZERO,
        });
        b.push(req(0, 0));
        b.push(req(1, 1));
        b.push(req(2, 0));
        b.close();
        let mut seen = Vec::new();
        while let Some(batch) = b.pop_batch() {
            let dev = batch[0].request.device;
            assert!(batch.iter().all(|q| q.request.device == dev));
            seen.extend(batch.iter().map(|q| q.request.id));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn close_drains_and_terminates() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 4,
            window: Duration::from_secs(10),
        });
        b.push(req(0, 0));
        b.close();
        // A huge window must not stall a closed batcher.
        assert_eq!(b.pop_batch().expect("drain").len(), 1);
        assert!(b.pop_batch().is_none());
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn zero_window_dispatches_immediately() {
        let b = Batcher::new(BatcherConfig::unbatched());
        b.push(req(0, 0));
        b.push(req(1, 0));
        assert_eq!(b.pop_batch().expect("batch").len(), 1);
        assert_eq!(b.pop_batch().expect("batch").len(), 1);
    }

    #[test]
    fn zero_window_still_coalesces_queued_backlog() {
        // Regression guard: a zero batch window means "never wait for
        // more arrivals", not "serve one row at a time". Same-key
        // requests already sitting in the queue must leave as one batch
        // up to max_batch, even before close().
        let b = Batcher::new(BatcherConfig {
            max_batch: 4,
            window: Duration::ZERO,
        });
        for id in 0..6 {
            b.push(req(id, 0));
        }
        let first = b.pop_batch().expect("batch");
        assert_eq!(
            first.iter().map(|q| q.request.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "queued backlog must coalesce at window=0"
        );
        // The leftover pair also leaves together, still without close().
        let second = b.pop_batch().expect("leftover batch");
        assert_eq!(
            second.iter().map(|q| q.request.id).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(b.pending(), 0);
    }
}
