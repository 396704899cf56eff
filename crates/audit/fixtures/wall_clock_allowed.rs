//! `wall-clock` fixture: a targeted marker anywhere in the comment block
//! above a read suppresses it.

pub fn stamp() -> std::time::Instant {
    // audit-allow(wall-clock): the marker sits on the first of two
    // comment lines above the read.
    std::time::Instant::now()
}
