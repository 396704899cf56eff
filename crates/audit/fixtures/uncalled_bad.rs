//! `uncalled` fixture, linted as `crates/demo/src/lib.rs` beside the
//! callers `lint_rules.rs` builds: four of these `pub fn`s are flagged.

/// Called only by the test module below: flagged.
pub fn only_unit_tests_call_me() -> u32 {
    1
}

/// Called only from a `tests/` file: flagged.
pub fn only_integration_tests_call_me() -> u32 {
    2
}

/// Named only inside a string literal: flagged.
pub fn only_named_in_a_string() -> u32 {
    3
}

/// Called bare only from a file with a local `fn shadowed`: flagged.
pub fn shadowed() -> u32 {
    4
}

/// Called from `benchmark/src`: not flagged.
pub fn the_benchmark_calls_me() -> u32 {
    5
}

/// Called through a path by `uncalled_callers.rs`: not flagged.
pub fn called_through_a_path() -> u32 {
    6
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::only_unit_tests_call_me(), 1);
    }
}
