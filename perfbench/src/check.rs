//! Correctness checks. Every check is one attempted operation; a failed
//! check, or a panic caught inside a workload, is one failed operation.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A pinned reference value with its absolute tolerance.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    pub name: &'static str,
    pub value: f64,
    pub tol: f64,
}

/// Look up the pin called `name`.
pub fn find_pin(pins: &[Pin], name: &str) -> Option<Pin> {
    pins.iter().copied().find(|p| p.name == name)
}

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Record one operation; a failure is reported on stderr.
    pub fn op(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {}", detail());
        }
        ok
    }

    /// Check `value` against the pin called `name` (a missing pin fails).
    pub fn pinned(&mut self, pins: &[Pin], name: &str, value: f64) -> bool {
        match find_pin(pins, name) {
            Some(pin) => self.op(name, (value - pin.value).abs() <= pin.tol, || {
                format!(
                    "{value:.12} differs from pinned {:.12} by more than {:e}",
                    pin.value, pin.tol
                )
            }),
            None => self.op(name, false, || format!("no pinned value ({value:.12})")),
        }
    }

    /// Run `f`; a panic counts as one failed operation and yields `None`.
    pub fn guarded<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".into());
                self.op(what, false, || format!("panicked: {msg}"));
                None
            }
        }
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINS: &[Pin] = &[Pin {
        name: "e",
        value: -1.0,
        tol: 1e-7,
    }];

    #[test]
    fn pinned_values_pass_within_tolerance_only() {
        let mut c = Checks::default();
        assert!(c.pinned(PINS, "e", -1.0 + 5e-8));
        assert!(!c.pinned(PINS, "e", -1.0 + 2e-7));
        assert!(!c.pinned(PINS, "missing", 0.0));
        assert_eq!((c.attempted, c.failed), (3, 2));
    }

    #[test]
    fn a_panic_is_one_failed_operation() {
        let mut c = Checks::default();
        let r: Option<()> = c.guarded("boom", || panic!("grid SCF failed"));
        assert!(r.is_none());
        assert_eq!((c.attempted, c.failed), (1, 1));
        assert_eq!(c.ok_frac(), 0.0);
    }
}
