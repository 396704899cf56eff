//! The canonical trace record: one VM request.
//!
//! Times are seconds since trace start (f64, arbitrary resolution —
//! the scenario compiler converts to integer microseconds), sizes are
//! cores and MB, and demand-curve values are **fractions of the
//! reservation** in `[0, 1]`: a curve point with `cpu = 1.0` means "the
//! VM uses everything it reserved". Expressing demand relative to the
//! reservation makes "demand exceeds reservation" a structural
//! validation error instead of a silent capacity overrun.

/// One breakpoint of a VM's demand curve.
///
/// The value holds from `offset_s` (seconds after the VM's arrival)
/// until the next point; the last point holds for the rest of the VM's
/// lifetime, and before the first point the first value holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    /// Seconds since the VM's arrival. Strictly increasing within a
    /// record.
    pub offset_s: f64,
    /// CPU demand as a fraction of the cpu reservation, in `[0, 1]`.
    pub cpu: f64,
    /// Memory demand as a fraction of the memory reservation, `[0, 1]`.
    pub mem: f64,
}

/// One VM request: when it arrives, how long it lives, what it
/// reserves, and how its demand moves over its lifetime.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// VM identifier, unique within a trace.
    pub vm: u64,
    /// Arrival time, seconds since trace start (≥ 0).
    pub arrival_s: f64,
    /// Lifetime, seconds (> 0); the VM is destroyed at
    /// `arrival_s + lifetime_s`.
    pub lifetime_s: f64,
    /// CPU reservation, cores (> 0).
    pub cpu_cores: f64,
    /// Memory reservation, MB (> 0).
    pub mem_mb: f64,
    /// Demand curve; empty means "flat at the full reservation".
    pub curve: Vec<CurvePoint>,
}

impl TraceRecord {
    /// Structural validation. Returns a message describing the first
    /// violation; readers attach the input line number.
    pub fn validate(&self) -> Result<(), String> {
        let finite = [
            ("arrival_s", self.arrival_s),
            ("lifetime_s", self.lifetime_s),
            ("cpu_cores", self.cpu_cores),
            ("mem_mb", self.mem_mb),
        ];
        for (name, v) in finite {
            if !v.is_finite() {
                return Err(format!("vm {}: `{name}` must be finite", self.vm));
            }
        }
        if self.arrival_s < 0.0 {
            return Err(format!("vm {}: negative arrival time", self.vm));
        }
        if self.lifetime_s <= 0.0 {
            return Err(format!(
                "vm {}: lifetime must be positive (got {})",
                self.vm, self.lifetime_s
            ));
        }
        if self.cpu_cores <= 0.0 {
            return Err(format!("vm {}: cpu reservation must be positive", self.vm));
        }
        if self.mem_mb <= 0.0 {
            return Err(format!(
                "vm {}: memory reservation must be positive",
                self.vm
            ));
        }
        for (i, p) in self.curve.iter().enumerate() {
            if !p.offset_s.is_finite() || !p.cpu.is_finite() || !p.mem.is_finite() {
                return Err(format!("vm {}: curve point {i} must be finite", self.vm));
            }
            if p.offset_s < 0.0 {
                return Err(format!(
                    "vm {}: curve point {i} has negative offset",
                    self.vm
                ));
            }
            if !(0.0..=1.0).contains(&p.cpu) || !(0.0..=1.0).contains(&p.mem) {
                return Err(format!(
                    "vm {}: curve point {i} demand exceeds reservation \
                     (fractions must be in [0, 1], got cpu={} mem={})",
                    self.vm, p.cpu, p.mem
                ));
            }
        }
        for (i, w) in self.curve.windows(2).enumerate() {
            if w[1].offset_s <= w[0].offset_s {
                return Err(format!(
                    "vm {}: curve points must be strictly time-increasing \
                     (point {} at {} s after point {} at {} s)",
                    self.vm,
                    i + 1,
                    w[1].offset_s,
                    i,
                    w[0].offset_s
                ));
            }
        }
        Ok(())
    }
}

/// Canonical float formatting: Rust's shortest round-trip decimal, so
/// `parse(write(x)) == x` exactly and both file formats render a value
/// identically — the property the byte-identity round-trip test leans
/// on.
pub fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TraceRecord {
        TraceRecord {
            vm: 7,
            arrival_s: 10.0,
            lifetime_s: 600.0,
            cpu_cores: 2.0,
            mem_mb: 4096.0,
            curve: vec![
                CurvePoint {
                    offset_s: 0.0,
                    cpu: 0.3,
                    mem: 0.5,
                },
                CurvePoint {
                    offset_s: 300.0,
                    cpu: 0.8,
                    mem: 0.6,
                },
            ],
        }
    }

    #[test]
    fn valid_record_passes() {
        assert_eq!(base().validate(), Ok(()));
    }

    #[test]
    fn negative_lifetime_rejected() {
        let mut r = base();
        r.lifetime_s = -5.0;
        assert!(r.validate().unwrap_err().contains("lifetime"));
    }

    #[test]
    fn demand_over_reservation_rejected() {
        let mut r = base();
        r.curve[1].cpu = 1.2;
        assert!(r.validate().unwrap_err().contains("exceeds reservation"));
    }

    #[test]
    fn unsorted_curve_rejected() {
        let mut r = base();
        r.curve[1].offset_s = 0.0;
        assert!(r
            .validate()
            .unwrap_err()
            .contains("strictly time-increasing"));
    }

    #[test]
    fn fmt_round_trips() {
        for v in [0.0, 1.0, 0.1, 1e-9, 12345.6789, 0.30000000000000004] {
            assert_eq!(fmt_f64(v).parse::<f64>().unwrap(), v);
        }
    }
}
