//! Engine-only profiling: serve_batch latency vs batch size, plus a
//! per-component breakdown at the serving shapes.
//! `cargo run --release -p acme-serve --example profile`

use std::time::Instant;

use acme_serve::{BatchEngine, ExitPolicy, Request, StoreConfig, VariantStore};
use acme_tensor::{randn, Array, Graph, SmallRng64};

fn main() {
    acme_runtime::set_global_threads(1);

    let cfg = StoreConfig::serving_default(4);
    let store = VariantStore::build(&cfg, 42);
    let cluster = store.cluster_of(0);
    let vit_cfg = cluster.vit.config();
    let (t, d) = (vit_cfg.num_tokens(), vit_cfg.dim);
    let mut rng = SmallRng64::new(9);

    // Per-component timing: reset + constant is the baseline each other
    // row includes.
    for &b in &[1usize, 32] {
        let x0 = randn(&[b, t, d], &mut rng);
        let blk = &cluster.vit.blocks()[0];
        let ps = &cluster.params;
        let iters = 2000 / b.max(1) + 50;

        let time = |label: &str, f: &mut dyn FnMut(&mut Graph, acme_tensor::Var)| {
            let mut g = Graph::new();
            // Warm.
            for _ in 0..3 {
                g.reset();
                let x = g.constant(x0.clone());
                f(&mut g, x);
            }
            let t0 = Instant::now();
            for _ in 0..iters {
                g.reset();
                let x = g.constant(x0.clone());
                f(&mut g, x);
            }
            let us = t0.elapsed().as_secs_f64() / iters as f64 * 1e6;
            println!(
                "b={b:>2} {label:<18} {us:>8.1}us  ({:>6.2}us/row)",
                us / b as f64
            );
        };

        time("reset+constant", &mut |_g, _x| {});
        time("ln1", &mut |g, x| {
            let (ln1, _) = blk.norms();
            ln1.forward(g, ps, x);
        });
        time("attn", &mut |g, x| {
            blk.attention().forward(g, ps, x);
        });
        time("mlp(flat)", &mut |g, x| {
            let flat = g.reshape(x, &[b * t, d]);
            blk.mlp().forward(g, ps, flat);
        });
        time("block", &mut |g, x| {
            #[expect(clippy::disallowed_methods, reason = "times one block on its own")]
            blk.forward(g, ps, x);
        });
        // Micro-ops at the MLP/attention shapes.
        let hid = randn(&[b * t, vit_cfg.mlp_hidden], &mut rng);
        let hidv = hid.clone();
        time("gelu[bt,hid]", &mut |g, _x| {
            let h = g.constant(hidv.clone());
            g.gelu(h);
        });
        time("relu[bt,hid]", &mut |g, _x| {
            let h = g.constant(hidv.clone());
            g.relu(h);
        });
        let w1 = randn(&[d, vit_cfg.mlp_hidden], &mut rng);
        time("matmul fc1 raw", &mut |g, x| {
            let flat = g.reshape(x, &[b * t, d]);
            let w = g.constant(w1.clone());
            let _ = g.matmul(flat, w);
        });
        let b1 = randn(&[vit_cfg.mlp_hidden], &mut rng);
        time("bias add", &mut |g, _x| {
            let h = g.constant(hidv.clone());
            let bb = g.constant(b1.clone());
            g.add(h, bb);
        });
        // The fused attention node alone, on projection-layout inputs.
        let inner = vit_cfg.heads * vit_cfg.head_dim;
        let qkv: Vec<Array> = (0..3).map(|_| randn(&[b * t, inner], &mut rng)).collect();
        time("attention", &mut |g, _x| {
            let [q, k, v] = [0, 1, 2].map(|i| g.constant(qkv[i].clone()));
            g.attention(q, k, v, None, t, vit_cfg.heads);
        });
        println!();
    }

    // End-to-end serve_batch latency vs batch size (exit policy disabled
    // so every batch runs the full depth).
    let engine = BatchEngine::new(&store, ExitPolicy::never());
    let [c, h, w] = store.input_shape();
    let make = |rng: &mut SmallRng64, id: usize| Request {
        id,
        device: 0,
        input: Array::from_vec((0..c * h * w).map(|_| rng.unit_f32()).collect(), &[c, h, w])
            .expect("volume"),
    };
    for &b in &[1usize, 2, 4, 8, 16, 32, 64] {
        let reqs: Vec<Request> = (0..b).map(|i| make(&mut rng, i)).collect();
        let mut g = Graph::new();
        for _ in 0..3 {
            let _ = engine.serve_batch(&mut g, &reqs);
        }
        let iters = (512 / b).max(8);
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = engine.serve_batch(&mut g, &reqs);
        }
        let per_batch = t0.elapsed().as_secs_f64() / iters as f64;
        println!(
            "b={b:>3}  batch={:>9.1}us  per_row={:>8.1}us",
            per_batch * 1e6,
            per_batch * 1e6 / b as f64
        );
    }
}
