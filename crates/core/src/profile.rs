//! [`ExecutionProfile`]: the one bundle of execution knobs.
//!
//! A single `Copy` builder accepted by [`crate::engine::drive`],
//! [`crate::BatchRunner`], every [`crate::ThresholdQuerier`], and (in
//! `tcast-service`) `QueryJob`.

use crate::retry::{DefensePolicy, RetryPolicy};

/// One bundle of execution knobs: verified-silence retries and adversary
/// defenses.
///
/// ```
/// use tcast::{DefensePolicy, ExecutionProfile, RetryPolicy};
///
/// let profile = ExecutionProfile::new()
///     .with_retry(RetryPolicy::verified(2))
///     .with_defense(DefensePolicy::hardened());
/// assert_eq!(profile.retry, RetryPolicy::verified(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecutionProfile {
    /// Verified-silence policy (default: [`RetryPolicy::none`] — silence
    /// is trusted query for query, as on an ideal channel).
    pub retry: RetryPolicy,
    /// Verdict-hardening policy (default: [`DefensePolicy::none`] — all
    /// observations are trusted, as against honest participants).
    pub defense: DefensePolicy,
}

impl ExecutionProfile {
    /// The trusting profile for an ideal channel: no retries, no
    /// defenses.
    pub fn new() -> Self {
        Self {
            retry: RetryPolicy::none(),
            defense: DefensePolicy::none(),
        }
    }

    /// Returns the profile with the given verified-silence policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns the profile with the given verdict-hardening policy.
    #[must_use]
    pub fn with_defense(mut self, defense: DefensePolicy) -> Self {
        self.defense = defense;
        self
    }
}

impl Default for ExecutionProfile {
    fn default() -> Self {
        Self::new()
    }
}
