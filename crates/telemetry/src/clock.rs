//! The clock abstraction behind every timestamp this crate records.
//!
//! The crate itself never reads `Instant` or `SystemTime`: a [`Recorder`]
//! either runs on logical time (the caller pushes the current simulator
//! tick before each handler runs) or on an externally supplied monotonic
//! [`Clock`]. The deterministic engine uses the former, so recording can
//! never perturb or observe wall-clock state on the sim path; the
//! real-time engines hand in their deployment stopwatch as the latter.
//!
//! [`Recorder`]: crate::recorder::Recorder

use std::fmt;
use std::sync::Arc;

/// A monotonic time source, in engine-defined units (the thread and net
/// engines use milliseconds since deployment; the simulator does not use
/// this trait at all and timestamps by logical tick instead).
pub trait Clock: Send + Sync {
    /// Current time. Must be monotonically non-decreasing.
    fn now(&self) -> u64;
}

/// Where a [`crate::recorder::Recorder`]'s timestamps come from.
#[derive(Clone, Default)]
pub enum TimeSource {
    /// Logical time: the caller pushes the current tick via
    /// [`crate::recorder::Recorder::set_tick`] at each handler entry.
    /// Deterministic — identical runs record identical timestamps.
    #[default]
    Logical,
    /// An external monotonic clock shared by all replicas of a deployment
    /// (same epoch, so merged flight traces order correctly).
    External(Arc<dyn Clock>),
}

impl fmt::Debug for TimeSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSource::Logical => write!(f, "Logical"),
            TimeSource::External(_) => write!(f, "External(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Fixed(AtomicU64);
    impl Clock for Fixed {
        fn now(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn sources_are_distinguishable() {
        let external = TimeSource::External(Arc::new(Fixed(AtomicU64::new(42))));
        assert!(matches!(TimeSource::default(), TimeSource::Logical));
        assert_eq!(format!("{external:?}"), "External(..)");
        assert_eq!(format!("{:?}", TimeSource::Logical), "Logical");
        if let TimeSource::External(c) = &external {
            assert_eq!(c.now(), 42);
        }
    }
}
