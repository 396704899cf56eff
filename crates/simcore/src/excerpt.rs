//! Outside input, quoted briefly.
//!
//! Errors name the value they refuse — a trace line, a TOML key, an
//! algorithm or preset name from a scenario file — and that value is
//! external data of any length. [`Excerpt`] is how every such message
//! quotes it, in the trace readers, the scenario decoder and the
//! consolidator registry alike.

use std::fmt;

/// How many bytes of offending input an error message repeats.
pub const EXCERPT_BYTES: usize = 120;

/// A fragment of input as an error message shows it: whole when it is at
/// most [`EXCERPT_BYTES`] long, otherwise cut there (back to a character
/// boundary) with `…` appended. Input is external data — a 400 kB line
/// must not become a 400 kB error.
pub struct Excerpt<'a>(pub &'a str);

impl fmt::Display for Excerpt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s.len() <= EXCERPT_BYTES {
            return f.write_str(s);
        }
        let mut cut = EXCERPT_BYTES;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        write!(f, "{}…", &s[..cut])
    }
}
