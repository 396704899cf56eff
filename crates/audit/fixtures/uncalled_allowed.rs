//! `uncalled` fixture: a hook tests are meant to drive, kept by a marker
//! on the first of two comment lines above it, as the tree writes them.

// audit-allow(uncalled): the fixture's tests drive this hook; the reason
// runs over two comment lines.
pub fn a_hook_for_tests() -> u32 {
    1
}
