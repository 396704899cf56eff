//! The callers of `uncalled_bad.rs`, linted as `crates/other/src/lib.rs`.

fn shadowed() -> u32 {
    0
}

fn entry() -> u32 {
    let _ = "only_named_in_a_string()";
    shadowed() + demo::called_through_a_path()
}
