//! Typed simulation errors.
//!
//! The event loop, protocol handlers and post-run auditors report failures
//! as [`SimError`] values instead of panicking, so a wedged or inconsistent
//! simulation surfaces as a diagnosable `Err` rather than a crash or an
//! infinite spin.

use crate::Cycle;

/// A failure detected while running or auditing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration is internally inconsistent.
    Config(String),
    /// The liveness watchdog saw outstanding work make no progress for a
    /// whole check interval: the protocol has wedged (e.g. every copy of a
    /// completion message was lost and no fallback fired).
    Livelock {
        /// Cycle at which the watchdog gave up.
        cycle: Cycle,
        /// Translation requests still outstanding.
        outstanding: u64,
    },
    /// The simulation ran past the configured hard cycle cap.
    CycleCapExceeded {
        /// The configured cap.
        cap: Cycle,
        /// Requests still outstanding when the cap was hit.
        outstanding: u64,
    },
    /// A protocol handler observed state that should be unreachable (the
    /// typed replacement for the former `unwrap`/`expect` sites on the hot
    /// path).
    Protocol {
        /// Cycle at which the violation was observed.
        cycle: Cycle,
        /// Human-readable description of the broken expectation.
        what: String,
    },
    /// The post-run invariant auditor found leaked or inconsistent state.
    InvariantViolation(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Livelock { cycle, outstanding } => write!(
                f,
                "livelock at cycle {cycle}: {outstanding} outstanding request(s) made no progress"
            ),
            SimError::CycleCapExceeded { cap, outstanding } => write!(
                f,
                "cycle cap {cap} exceeded with {outstanding} outstanding request(s)"
            ),
            SimError::Protocol { cycle, what } => {
                write!(f, "protocol violation at cycle {cycle}: {what}")
            }
            SimError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A broken configuration rule: the field at fault and what is wrong.
///
/// `field` names a `mgpu::SystemConfig` field (`gpus`, `l2_tlb_assoc`,
/// `transfw`, `overload`, `faults`, ...); the `.scn` language uses the same
/// names for its keys and sections, which is how a compile error finds its
/// source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The configuration field whose value breaks the rule.
    pub field: &'static str,
    /// What is wrong with it.
    pub msg: String,
}

impl ConfigError {
    /// An error on `field`.
    pub fn new(field: &'static str, msg: impl Into<String>) -> Self {
        Self {
            field,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.msg)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Livelock {
            cycle: 42,
            outstanding: 3,
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("3"), "{s}");
        assert!(SimError::Config("x".into()).to_string().contains('x'));
        assert!(SimError::InvariantViolation("leak".into())
            .to_string()
            .contains("leak"));
        let p = SimError::Protocol {
            cycle: 7,
            what: "no stream".into(),
        };
        assert!(p.to_string().contains("no stream"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SimError::Config("bad".into()));
    }

    #[test]
    fn config_error_names_its_field() {
        let e = SimError::from(ConfigError::new("gpus", "need at least one GPU"));
        assert_eq!(
            e.to_string(),
            "invalid configuration: gpus: need at least one GPU"
        );
    }

    #[test]
    fn eq_and_clone() {
        let a = SimError::CycleCapExceeded {
            cap: 10,
            outstanding: 1,
        };
        assert_eq!(a.clone(), a);
        assert_ne!(a, SimError::Config("bad".into()));
    }
}
