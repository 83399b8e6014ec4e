//! The serving loop: a worker pool draining the shape-aware batcher
//! through the batched early-exit engine.
//!
//! The load generator and the workers are the tasks of one
//! [`acme_runtime::Pool::par_map`]; each worker owns a long-lived
//! [`Graph`] it resets per batch, so steady-state serving performs no
//! per-batch graph allocation and every frozen backbone product reads
//! its weight by reference (an int8 store's, its cached int8 pack).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use acme_runtime::Pool;
use acme_tensor::Graph;

use crate::batcher::{Batcher, BatcherConfig};
use crate::engine::{BatchEngine, ExitPolicy, Response};
use crate::metrics;
use crate::variant::VariantStore;

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker loops draining the batcher concurrently.
    pub workers: usize,
    /// Coalescing configuration.
    pub batcher: BatcherConfig,
    /// Early-exit policy.
    pub policy: ExitPolicy,
}

/// One served request with its end-to-end latency (enqueue to response).
#[derive(Debug, Clone)]
pub struct Completion {
    /// The response.
    pub response: Response,
    /// Time from entering the batcher to the response being ready.
    pub latency: Duration,
}

/// Aggregate outcome of one serving run.
#[derive(Debug)]
pub struct ServeReport {
    /// Every completion, sorted by request id.
    pub completions: Vec<Completion>,
    /// Batches dispatched.
    pub batches: u64,
    /// Wall-clock of the whole run (generator start to last drain).
    pub elapsed: Duration,
}

impl ServeReport {
    /// Requests served.
    pub fn requests(&self) -> usize {
        self.completions.len()
    }

    /// Served requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.requests() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Mean rows per dispatched batch.
    pub fn mean_batch(&self) -> f64 {
        self.requests() as f64 / (self.batches as f64).max(1.0)
    }

    /// Mean batch fill against the configured cap.
    pub fn occupancy(&self, max_batch: usize) -> f64 {
        self.mean_batch() / max_batch.max(1) as f64
    }

    /// Fraction of requests that returned from a non-final exit.
    pub fn early_exit_fraction(&self, final_exit: usize) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        let early = self
            .completions
            .iter()
            .filter(|c| c.response.exit < final_exit)
            .count();
        early as f64 / self.completions.len() as f64
    }

    /// The `q`-th latency quantile in milliseconds (`0.5` = p50,
    /// `0.99` = p99).
    ///
    /// # Panics
    ///
    /// Panics on an empty report or a quantile outside `[0, 1]`.
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        assert!(!self.completions.is_empty(), "no completions");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let mut lat: Vec<Duration> = self.completions.iter().map(|c| c.latency).collect();
        lat.sort_unstable();
        let idx = ((lat.len() - 1) as f64 * q).round() as usize;
        lat[idx].as_secs_f64() * 1e3
    }
}

/// Closes the batcher when the load generator returns *or unwinds*, so
/// the serve loops always drain what is queued and end.
struct CloseOnDrop<'a>(&'a Batcher);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs a serving session: one [`Pool::par_map`] over `cfg.workers + 1`
/// roles — `produce` (the load generator, handed the batcher) at index 0
/// and a serve loop at every other index — that ends once the generator
/// has returned and the queue is empty.
///
/// Requests of every device on one cluster backbone share batches: the
/// batcher keys them by the store's device → cluster table. Per-request
/// results are independent of worker count and batching composition (see
/// [`BatchEngine`]), so any two runs over the same requests agree bitwise
/// response-by-response.
///
/// On return the process-wide serving counters are published into the
/// [`acme_obs::metrics`] registry ([`metrics::publish_obs_metrics`], a
/// no-op unless recording is enabled).
///
/// # Panics
///
/// Panics when `cfg.workers` is zero, or with the panic of the generator
/// or else of a worker.
pub fn serve<F>(store: &VariantStore, cfg: &ServerConfig, produce: F) -> ServeReport
where
    F: FnOnce(&Batcher) + Send,
{
    assert!(cfg.workers > 0, "need at least one worker");
    let batcher = Batcher::on_backbones(cfg.batcher, store.backbone_table());
    let engine = BatchEngine::new(store, cfg.policy);
    let completions: Mutex<Vec<Completion>> = Mutex::new(Vec::new());
    let batches = std::sync::atomic::AtomicU64::new(0);
    let start = Instant::now();

    // Every role has its own thread at top level. Inside a task with a
    // smaller thread share (inline, at a share of 1) the generator must
    // still start first, or the loops wait for requests nobody is free to
    // push: `par_map` claims roles in index order.
    let mut roles = vec![Some(produce)];
    roles.resize_with(cfg.workers + 1, || None);
    Pool::new(cfg.workers + 1).par_map(roles, |_, generator| {
        if let Some(produce) = generator {
            let _close = CloseOnDrop(&batcher);
            return produce(&batcher);
        }
        let mut g = Graph::new();
        let mut local: Vec<Completion> = Vec::new();
        while let Some(batch) = batcher.pop_batch() {
            let (requests, enqueued): (Vec<_>, Vec<_>) =
                batch.into_iter().map(|q| (q.request, q.enqueued)).unzip();
            let responses = engine.serve_batch(&mut g, &requests);
            let final_exit = store
                .cluster_of(requests[0].device)
                .exits
                .exit_layers()
                .len()
                - 1;
            let early = responses.iter().filter(|r| r.exit < final_exit).count();
            metrics::record_batch(responses.len(), early);
            if store.precision() == acme_tensor::Precision::Int8 {
                metrics::record_int8_rows(responses.len());
            }
            batches.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let done = Instant::now();
            local.extend(
                enqueued
                    .into_iter()
                    .zip(responses)
                    .map(|(at, response)| Completion {
                        response,
                        latency: done.duration_since(at),
                    }),
            );
        }
        completions.lock().expect("completions mutex").extend(local);
    });

    let elapsed = start.elapsed();
    metrics::publish_obs_metrics();
    let mut completions = completions.into_inner().expect("completions mutex");
    completions.sort_by_key(|c| c.response.id);
    ServeReport {
        completions,
        batches: batches.into_inner(),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Request;
    use crate::variant::{ServeModelConfig, StoreConfig, VariantStore};
    use acme_tensor::{Array, Precision, SmallRng64};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn store() -> VariantStore {
        VariantStore::build(
            &StoreConfig {
                clusters: 1,
                devices: 2,
                keep_classes: 4,
                model: ServeModelConfig::tiny(),
                precision: Precision::F32,
            },
            2,
        )
    }

    fn requests(store: &VariantStore, n: usize) -> Vec<Request> {
        let [c, h, w] = store.input_shape();
        let mut rng = SmallRng64::new(4);
        (0..n)
            .map(|id| {
                let data = (0..c * h * w).map(|_| rng.unit_f32()).collect();
                Request {
                    id,
                    device: id % 2,
                    input: Array::from_vec(data, &[c, h, w]).expect("input volume"),
                }
            })
            .collect()
    }

    #[test]
    fn serves_every_request_once() {
        let store = store();
        let reqs = requests(&store, 12);
        let cfg = ServerConfig {
            workers: 2,
            batcher: BatcherConfig {
                max_batch: 4,
                window: Duration::from_millis(2),
            },
            policy: ExitPolicy::never(),
        };
        let report = serve(&store, &cfg, |b| {
            for r in &reqs {
                b.push(r.clone());
            }
        });
        assert_eq!(report.requests(), 12);
        let ids: Vec<usize> = report.completions.iter().map(|c| c.response.id).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        assert!(report.batches >= 3, "a batch holds at most four rows");
        assert!(report.latency_quantile_ms(0.5) >= 0.0);
    }

    /// What `f` returned or panicked with, or `None` when it has not come
    /// back after ten seconds; `f` runs on a helper thread that a hung
    /// `serve()` keeps, and the test process outlives.
    fn within_ten_seconds<R: Send + 'static>(
        f: impl FnOnce() -> R + Send + 'static,
    ) -> Option<std::thread::Result<R>> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(catch_unwind(AssertUnwindSafe(f))));
        rx.recv_timeout(Duration::from_secs(10)).ok()
    }

    fn one_worker() -> ServerConfig {
        ServerConfig {
            workers: 1,
            batcher: BatcherConfig {
                max_batch: 1,
                window: Duration::ZERO,
            },
            policy: ExitPolicy::never(),
        }
    }

    #[test]
    fn a_panicking_generator_reaches_the_caller() {
        let outcome = within_ten_seconds(|| {
            serve(&store(), &one_worker(), |_| panic!("generator died"));
        })
        .expect("the worker loop waits on a batcher nobody closes");
        let payload = outcome.expect_err("the generator's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"generator died"));
    }

    #[test]
    fn serves_inline_inside_a_task_with_a_thread_share_of_one() {
        // Budget max(2, 1) over two tasks: each `serve()` below runs its
        // roles inline, so the generator must be the first of them.
        acme_runtime::set_global_threads(1);
        let served = within_ten_seconds(|| {
            let store = store();
            let reqs = requests(&store, 16);
            Pool::new(2).par_map(vec![(), ()], |_, _| {
                let report = serve(&store, &one_worker(), |b| {
                    reqs.iter().for_each(|r| b.push(r.clone()));
                });
                report.requests()
            })
        })
        .expect("a serve loop ran before the generator had pushed anything");
        assert_eq!(served.expect("no panic"), [16, 16]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let store = store();
        let reqs = requests(&store, 10);
        let run = |workers| {
            let cfg = ServerConfig {
                workers,
                batcher: BatcherConfig {
                    max_batch: 3,
                    window: Duration::from_millis(1),
                },
                policy: ExitPolicy::never(),
            };
            serve(&store, &cfg, |b| {
                for r in &reqs {
                    b.push(r.clone());
                }
            })
        };
        let one = run(1);
        let three = run(3);
        for (a, b) in one.completions.iter().zip(&three.completions) {
            assert_eq!(a.response, b.response);
        }
    }
}
