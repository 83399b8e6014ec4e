//! Shape-aware request coalescing.
//!
//! Requests are queued per *batch key* — the `(backbone, input shape)`
//! pair — because rows of any variants on one cluster backbone share one
//! backbone pass as long as their shapes agree. A worker popping a batch
//! takes the key with the oldest waiting request and either fills a full
//! batch immediately or waits out the batch window (the serving latency
//! budget) for more arrivals, whichever comes first.

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

/// A request with its enqueue timestamp (latency is measured from here).
#[derive(Debug)]
pub struct QueuedRequest {
    /// The request itself.
    pub request: Request,
    /// When it entered the batcher.
    pub enqueued: Instant,
}

/// `(backbone, input shape)`.
type BatchKey = (usize, Vec<usize>);

#[derive(Debug, Default)]
struct Shared {
    queues: HashMap<BatchKey, VecDeque<QueuedRequest>>,
    /// Keys holding at least one request, oldest activation first.
    order: VecDeque<BatchKey>,
    closed: bool,
}

/// A multi-producer, multi-worker coalescing queue.
#[derive(Debug)]
pub struct Batcher {
    cfg: BatcherConfig,
    /// The backbone each device runs on, indexed by device; a device
    /// past its end is its own backbone.
    backbone_of: Vec<usize>,
    shared: Mutex<Shared>,
    ready: Condvar,
}

impl Batcher {
    /// An empty batcher with the given coalescing config that knows no
    /// backbones: each device is its own, so only same-device requests
    /// share a batch.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch` is zero.
    pub fn new(cfg: BatcherConfig) -> Self {
        Batcher::on_backbones(cfg, Vec::new())
    }

    /// An empty batcher whose device `d` runs on backbone
    /// `backbone_of[d]`, so requests of every device on one backbone can
    /// share a batch (what `serve()` builds from its store).
    ///
    /// # Panics
    ///
    /// Panics when `max_batch` is zero.
    pub(crate) fn on_backbones(cfg: BatcherConfig, backbone_of: Vec<usize>) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be at least 1");
        Batcher {
            cfg,
            backbone_of,
            shared: Mutex::new(Shared::default()),
            ready: Condvar::new(),
        }
    }

    /// Enqueues one request.
    ///
    /// # Panics
    ///
    /// Panics when the batcher is already closed.
    pub fn push(&self, request: Request) {
        let backbone = self
            .backbone_of
            .get(request.device)
            .copied()
            .unwrap_or(request.device);
        let key = (backbone, request.input.shape().to_vec());
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
        let BatcherConfig { max_batch, window } = self.cfg;
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
    fn different_backbones_never_share_a_batch() {
        // Devices 0 and 2 run on backbone 0, device 1 on backbone 1.
        let b = Batcher::on_backbones(
            BatcherConfig {
                max_batch: 8,
                window: Duration::ZERO,
            },
            vec![0, 1, 0],
        );
        for (id, device) in [(0, 0), (1, 1), (2, 2), (3, 0)] {
            b.push(req(id, device));
        }
        b.close();
        let mut batches = Vec::new();
        while let Some(batch) = b.pop_batch() {
            batches.push(batch.iter().map(|q| q.request.id).collect::<Vec<_>>());
        }
        assert_eq!(batches, vec![vec![0, 2, 3], vec![1]]);
    }

    #[test]
    fn a_batcher_without_backbones_keys_each_device_apart() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 8,
            window: Duration::ZERO,
        });
        for (id, device) in [(0, 0), (1, 1), (2, 0)] {
            b.push(req(id, device));
        }
        b.close();
        let mut batches = Vec::new();
        while let Some(batch) = b.pop_batch() {
            batches.push(batch.iter().map(|q| q.request.id).collect::<Vec<_>>());
        }
        assert_eq!(batches, vec![vec![0, 2], vec![1]]);
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
    }

    #[test]
    fn zero_window_dispatches_immediately() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 1,
            window: Duration::ZERO,
        });
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
        b.close();
        assert!(b.pop_batch().is_none(), "nothing is left queued");
    }
}
