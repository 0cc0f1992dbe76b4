//! Minimized model-checker counterexamples: a violated invariant plus the
//! linear action trace that reproduces it, in a line-oriented text format
//! stable enough to check into a regression suite and replay
//! deterministically.

use crate::checkpoint::StateDigest;

/// A linear counterexample trace: the invariant it violates and the
/// encoded protocol actions, in order, that reproduce the violation from
/// the initial state of the configuration it was found on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The violated invariant, `tag: detail` (the tag before the first
    /// `:` keys the minimizer and the regression assertions).
    pub invariant: String,
    /// Encoded actions, one step per entry.
    pub steps: Vec<String>,
}

impl Counterexample {
    /// The invariant tag (everything before the first `:`).
    pub fn tag(&self) -> &str {
        self.invariant.split(':').next().unwrap_or("").trim()
    }

    /// Serializes to the line-oriented text format:
    ///
    /// ```text
    /// invariant: <tag: detail>
    /// steps: <n>
    ///   <action token>
    ///   ...
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("invariant: ");
        out.push_str(&self.invariant);
        out.push('\n');
        out.push_str(&format!("steps: {}\n", self.steps.len()));
        for s in &self.steps {
            out.push_str("  ");
            out.push_str(s);
            out.push('\n');
        }
        out
    }

    /// Parses the [`to_text`](Self::to_text) format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let invariant = lines
            .next()
            .and_then(|l| l.strip_prefix("invariant: "))
            .ok_or("missing `invariant:` header")?
            .to_string();
        let count: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("steps: "))
            .ok_or("missing `steps:` header")?
            .trim()
            .parse()
            .map_err(|e| format!("bad step count: {e}"))?;
        let steps: Vec<String> = lines
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.trim().to_string())
            .collect();
        if steps.len() != count {
            return Err(format!(
                "step count mismatch: header says {count}, found {}",
                steps.len()
            ));
        }
        Ok(Self { invariant, steps })
    }

    /// A 64-bit digest of the trace (used to assert a replayed trace is
    /// the same trace).
    pub fn digest(&self) -> u64 {
        let Self { invariant, steps } = self;
        let mut d = StateDigest::new();
        d.mix_str(invariant);
        for s in steps {
            d.mix_str(s);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let ce = Counterexample {
            invariant: "retire-exactly-once: req 1 retired 2 times".to_string(),
            steps: vec![
                "issue 0".into(),
                "host-arrive 0 fwd=1".into(),
                "reply 0".into(),
            ],
        };
        let text = ce.to_text();
        let back = Counterexample::from_text(&text).expect("parses");
        assert_eq!(back, ce);
        assert_eq!(back.digest(), ce.digest());
        assert_eq!(ce.tag(), "retire-exactly-once");
    }

    #[test]
    fn rejects_malformed() {
        assert!(Counterexample::from_text("nope").is_err());
        assert!(Counterexample::from_text("invariant: x\nsteps: 2\n  issue 0\n").is_err());
    }
}
