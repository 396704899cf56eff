//! Output checks. They run on every invocation; a failed check makes
//! the run incorrect and the process exit non-zero. Each is a plain
//! function of the values it judges, so the tests can inject a bad one.

/// `Err` carries the sentence printed for the failed check.
pub type Check = Result<(), String>;

/// Every iteration of a workload must report the same value for an
/// exact quantity (event count, digest, simulated result, export hash).
pub fn iterations_agree(name: &str, values: &[u64]) -> Check {
    match values.iter().position(|v| *v != values[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{name}: iteration {i} read {} but iteration 0 read {}",
            values[i], values[0]
        )),
    }
}

/// Every requested VM ends up placed, rejected or abandoned.
pub fn vms_conserved(placed: usize, rejected: usize, abandoned: usize, requested: usize) -> Check {
    if placed + rejected + abandoned == requested {
        Ok(())
    } else {
        Err(format!(
            "VM conservation: placed {placed} + rejected {rejected} + abandoned {abandoned} != requested {requested}"
        ))
    }
}

/// A fault-free run delivers every message to a live receiver.
pub fn no_dead_letters(dead_letters: u64) -> Check {
    if dead_letters == 0 {
        Ok(())
    } else {
        Err(format!(
            "{dead_letters} dead letters on a fault-free workload"
        ))
    }
}

/// Per-window counter deltas sum to the whole-run counter.
pub fn windows_conserve(counter: &str, window_sum: u64, run_total: u64) -> Check {
    if window_sum == run_total {
        Ok(())
    } else {
        Err(format!(
            "window conservation: `{counter}` sums to {window_sum} over windows but the run counted {run_total}"
        ))
    }
}

/// A packing must be feasible and cannot beat the instance's lower bound.
pub fn packing_sound(algo: &str, feasible: bool, bins_used: usize, lower_bound: usize) -> Check {
    if !feasible {
        Err(format!("{algo}: infeasible solution"))
    } else if bins_used < lower_bound {
        Err(format!(
            "{algo}: {bins_used} hosts is below the lower bound {lower_bound}"
        ))
    } else {
        Ok(())
    }
}

/// A proven optimum is never worse than a heuristic's answer.
pub fn optimum_not_beaten(exact_bins: usize, heuristic: &str, heuristic_bins: usize) -> Check {
    if exact_bins <= heuristic_bins {
        Ok(())
    } else {
        Err(format!(
            "proven optimum {exact_bins} hosts is worse than {heuristic}'s {heuristic_bins}"
        ))
    }
}

/// The engine executed exactly the events the pattern was built to produce.
pub fn events_as_expected(pattern: &str, executed: u64, expected: u64) -> Check {
    if executed == expected {
        Ok(())
    } else {
        Err(format!(
            "{pattern}: executed {executed} events, expected {expected}"
        ))
    }
}

/// The model checker finds nothing on the unmodified protocol.
pub fn no_violations(violations: usize, hit_state_cap: bool) -> Check {
    if violations > 0 {
        Err(format!("model checker reported {violations} violation(s)"))
    } else if hit_state_cap {
        Err("model checker stopped at its state cap: the space was not explored".into())
    } else {
        Ok(())
    }
}

/// A transformation that should reproduce its input byte for byte.
pub fn round_trip(what: &str, before: &str, after: &str) -> Check {
    if before == after {
        return Ok(());
    }
    let at = before
        .bytes()
        .zip(after.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(before.len().min(after.len()));
    Err(format!(
        "{what}: not byte-identical (lengths {} and {}, first difference at byte {at})",
        before.len(),
        after.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_check_passes_good_values_and_trips_on_an_injected_bad_one() {
        assert!(iterations_agree("simcore.events", &[5, 5, 5]).is_ok());
        let e = iterations_agree("simcore.events", &[5, 5, 6]).unwrap_err();
        assert!(
            e.contains("simcore.events") && e.contains("iteration 2"),
            "{e}"
        );

        assert!(vms_conserved(1999, 1, 0, 2000).is_ok());
        assert!(vms_conserved(1998, 1, 0, 2000).is_err());

        assert!(no_dead_letters(0).is_ok());
        assert!(no_dead_letters(1).is_err());

        assert!(windows_conserve("net.sent", 10, 10).is_ok());
        assert!(windows_conserve("net.sent", 9, 10).is_err());

        assert!(packing_sound("aco", true, 12, 12).is_ok());
        assert!(packing_sound("aco", false, 12, 12).is_err());
        assert!(packing_sound("aco", true, 11, 12).is_err());

        assert!(optimum_not_beaten(12, "aco", 12).is_ok());
        assert!(optimum_not_beaten(13, "aco", 12).is_err());

        assert!(events_as_expected("ring1024", 100, 100).is_ok());
        assert!(events_as_expected("ring1024", 99, 100).is_err());

        assert!(no_violations(0, false).is_ok());
        assert!(no_violations(1, false).is_err());
        assert!(no_violations(0, true).is_err());

        assert!(round_trip("csv", "a,b\n", "a,b\n").is_ok());
        let e = round_trip("csv", "a,b\n", "a,c\n").unwrap_err();
        assert!(e.contains("byte 2"), "{e}");
        assert!(round_trip("csv", "a,b\n", "a,b\nx").is_err());
    }
}
