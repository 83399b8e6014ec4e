//! The per-op table of the reference ViT step. It turns recording on and
//! pins the global thread count while it runs, so it lives in its own
//! test binary: no other test's nodes land in the table, and no other
//! test sees the switches flipped.

use acme_bench::trainstep::vit_op_table;

#[test]
fn vit_op_table_has_the_steps_ops() {
    acme_runtime::set_global_threads(2);
    let table = vit_op_table(1);
    assert_eq!(acme_runtime::global_threads(), 2, "thread count restored");
    assert!(!acme_tensor::obs::enabled(), "recording restored");
    let row = |name: &str| table.rows.iter().find(|r| r.op == name);
    for name in ["leaf", "attention", "linear", "gelu", "layer_norm"] {
        assert!(row(name).is_some_and(|r| r.calls > 0.0), "no {name} row");
    }
    // Every affine map is one `linear` node reading its input's rows in
    // place: no `matmul` node, and no reshape flattening rows for one.
    // The one reshape left is the class-token slice's `[b, 1, d]` →
    // `[b, d]`.
    assert!(
        row("matmul").is_none(),
        "the ViT step records a matmul node"
    );
    let reshapes = row("reshape").map_or(0.0, |r| r.calls);
    assert_eq!(
        reshapes, 1.0,
        "reshapes per step: the class-token slice's should be the only one"
    );
    assert!(row("linear").is_some_and(|r| r.value_bytes > 0.0));
    assert!(table.fwd_ms > 0.0 && table.bwd_ms > 0.0);
    assert_eq!(table.json_rows().len(), table.rows.len() + 1);
}
