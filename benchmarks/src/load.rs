//! Seeded request traffic and the open-loop generator. The benchmark owns
//! its inputs: a later change to `acme_serve::loadgen` must not silently
//! change what is measured here.

use std::time::{Duration, Instant};

use acme_serve::{serve, Batcher, Request, ServeReport, ServerConfig, VariantStore};
use acme_tensor::{Array, SmallRng64};
use rand::{Rng, RngCore};

use crate::stats::{median, percentile};

/// Due times of Poisson arrivals at `rate_rps` over `duration`, from the
/// start of the run.
pub fn poisson_schedule(rate_rps: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    assert!(rate_rps > 0.0, "rate must be positive");
    let mut rng = SmallRng64::new(seed);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate_rps;
        if t >= duration.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// `n` device ids drawn with popularity `1 / (rank + 1)^zipf` over
/// `devices` variants; `zipf = 0` is uniform.
pub fn draw_devices(n: usize, devices: usize, zipf: f64, seed: u64) -> Vec<usize> {
    assert!(devices > 0, "no devices to draw from");
    let mut rng = SmallRng64::new(seed);
    let weights: Vec<f64> = (0..devices).map(|d| ((d + 1) as f64).powf(-zipf)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    (0..n)
        .map(|_| {
            let u = rng.gen::<f64>();
            cdf.partition_point(|&p| p <= u).min(devices - 1)
        })
        .collect()
}

/// One uniform-noise request per entry of `devices`, ids from `first_id`.
pub fn requests(
    store: &VariantStore,
    devices: &[usize],
    first_id: usize,
    seed: u64,
) -> Vec<Request> {
    let mut rng = SmallRng64::new(seed);
    let shape = store.input_shape();
    let volume: usize = shape.iter().product();
    devices
        .iter()
        .enumerate()
        .map(|(i, &device)| {
            let data = (0..volume)
                .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
                .collect();
            Request {
                id: first_id + i,
                device,
                input: Array::from_vec(data, &shape).expect("input volume matches its shape"),
            }
        })
        .collect()
}

/// Sleep to within this of a due time, then spin: a sleep alone overshoots
/// by the scheduler's timer slack.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Pushes each request at its due time whether or not earlier ones have
/// completed. Returns when each was actually pushed.
fn open_loop(
    batcher: &Batcher,
    due: &[Duration],
    requests: Vec<Request>,
) -> (Instant, Vec<Instant>) {
    let start = Instant::now();
    let pushed = due
        .iter()
        .zip(requests)
        .map(|(&d, r)| {
            wait_until(start + d);
            let at = Instant::now();
            batcher.push(r);
            at
        })
        .collect();
    (start, pushed)
}

/// What one open-loop run observed. `wait_ms[i]` is request `i`'s latency
/// from its due time, which charges a stalled generator's delay to the
/// requests it delayed.
pub struct OpenLoopRun {
    pub report: ServeReport,
    pub start: Instant,
    pub due: Vec<Duration>,
    pub pushed: Vec<Instant>,
    pub wait_ms: Vec<f64>,
}

impl OpenLoopRun {
    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.wait_ms, p)
    }

    /// Latest the generator ran behind its schedule.
    pub fn gen_late_max_ms(&self) -> f64 {
        self.due
            .iter()
            .zip(&self.pushed)
            .map(|(&d, &at)| at.saturating_duration_since(self.start + d).as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }

    /// A queue that grows makes later requests wait longer: true when the
    /// last quarter of the run waited more than twice as long as the first.
    pub fn backlog_grows(&self) -> bool {
        let q = self.wait_ms.len() / 4;
        if q == 0 {
            return false;
        }
        let head = median(&self.wait_ms[..q]);
        let tail = median(&self.wait_ms[self.wait_ms.len() - q..]);
        tail > 2.0 * head + 1.0
    }
}

/// Serves `requests` (ids `0..n` in order) on `store`, pushing request
/// `i` at `due[i]`.
pub fn run_open_loop(
    store: &VariantStore,
    server: &ServerConfig,
    due: Vec<Duration>,
    requests: Vec<Request>,
) -> OpenLoopRun {
    assert_eq!(due.len(), requests.len());
    let mut generated = None;
    let report = serve(store, server, |batcher| {
        generated = Some(open_loop(batcher, &due, requests));
    });
    let (start, pushed) = generated.expect("serve runs the generator");
    assert_eq!(
        report.completions.len(),
        due.len(),
        "a request went unanswered"
    );
    // Completions come back sorted by id; `latency` runs from the push.
    let wait_ms = report
        .completions
        .iter()
        .zip(due.iter().zip(&pushed))
        .map(|(c, (&d, &at))| {
            (at.saturating_duration_since(start + d) + c.latency).as_secs_f64() * 1e3
        })
        .collect();
    OpenLoopRun {
        report,
        start,
        due,
        pushed,
        wait_ms,
    }
}

/// Queues every request at once and serves until drained: the saturated
/// throughput of the serving stack.
pub fn run_firehose(
    store: &VariantStore,
    server: &ServerConfig,
    requests: Vec<Request>,
) -> ServeReport {
    serve(store, server, move |batcher| {
        for r in requests {
            batcher.push(r);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_on_rate() {
        let a = poisson_schedule(500.0, Duration::from_secs(4), 42);
        assert_eq!(a, poisson_schedule(500.0, Duration::from_secs(4), 42));
        assert_ne!(a, poisson_schedule(500.0, Duration::from_secs(4), 43));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &Duration::from_secs(4));
        // 2000 expected arrivals, standard deviation ~45.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn device_draw_is_seeded_and_follows_its_law() {
        let zipf = draw_devices(20_000, 16, 1.0, 7);
        assert_eq!(zipf, draw_devices(20_000, 16, 1.0, 7));
        assert_ne!(zipf, draw_devices(20_000, 16, 1.0, 8));
        assert!(zipf.iter().all(|&d| d < 16));
        let count = |v: &[usize], d| v.iter().filter(|&&x| x == d).count() as f64;
        // Rank 0 is twice as popular as rank 1 and 16 times rank 15.
        let ratio = count(&zipf, 0) / count(&zipf, 1);
        assert!((1.8..2.2).contains(&ratio), "rank0/rank1 = {ratio}");
        assert!(count(&zipf, 0) > 10.0 * count(&zipf, 15));

        let uniform = draw_devices(51_200, 512, 0.0, 7);
        let mut seen = vec![0usize; 512];
        for &d in &uniform {
            seen[d] += 1;
        }
        // Mean 100 per device, standard deviation 10.
        assert!(seen.iter().all(|&c| (50..150).contains(&c)), "{seen:?}");
    }
}
