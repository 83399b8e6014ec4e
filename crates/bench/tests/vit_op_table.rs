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
    for name in ["leaf", "attention", "matmul", "gelu", "layer_norm"] {
        let row = table.rows.iter().find(|r| r.op == name);
        assert!(row.is_some_and(|r| r.calls > 0.0), "no {name} row");
    }
    assert!(table.fwd_ms > 0.0 && table.bwd_ms > 0.0);
    assert_eq!(table.json_rows().len(), table.rows.len() + 1);
}
