//! Fault-tolerant execution primitives shared by every solver in the
//! workspace: a wall-clock [`Deadline`] and a cooperative [`CancelToken`].
//!
//! Long-running search loops (`tam::exhaustive`, `tam::anneal`, the
//! planner's decision-table builds) accept a `&CancelToken` and poll
//! [`CancelToken::is_cancelled`] once per iteration. When the token trips
//! — because its deadline expired or another thread called
//! [`CancelToken::cancel`] — the loop stops at the next check and returns
//! its best incumbent instead of running forever. Tokens are cheap to
//! clone (an `Arc` plus a copied deadline) and safe to share across the
//! planner's worker threads.
//!
//! The crate also holds the workspace's caching substrate: the bounded
//! in-memory LRU ([`BoundedCache`]) and the on-disk [`Store`] under the
//! planner's profile cache and soclint's lint cache, with the atomic
//! writer and bounded, evidence-keeping quarantine every persistent file
//! goes through. Its two deterministic hashes key and check those files:
//! byte-wise FNV-1a ([`fnv1a`]) for checksums and lint keys, and the
//! word-at-a-time [`fold_words`] for the cube content of the planner's
//! content stamps.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bounded;
pub mod store;

pub use bounded::{BoundedCache, CacheLimits, CacheStats};
pub use store::{fnv1a, fold_words, quarantine, write_atomic, Lookup, Store, FNV_OFFSET};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall-clock budget for a unit of work.
///
/// `Deadline` is a thin wrapper over [`Instant`] so call sites read as
/// intent (`Deadline::within(ms)`) and so "no deadline" has a first-class
/// representation ([`Deadline::none`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline `budget` from now.
    // `robust` is the one crate allowed to read the wall clock: it owns the
    // Deadline abstraction everything else threads instead.
    #[allow(clippy::disallowed_methods)]
    pub fn within(budget: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline { at: Some(instant) }
    }

    /// Whether the deadline has passed.
    #[allow(clippy::disallowed_methods)]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left before expiry; `None` when unbounded.
    #[allow(clippy::disallowed_methods)]
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Splits the remaining budget, returning a deadline for the given
    /// fraction of it. An unbounded deadline splits into itself.
    ///
    /// Used by the solver cascade to give each stage a slice of the
    /// overall budget while later stages keep the full remainder as a
    /// backstop.
    pub fn fraction(&self, f: f64) -> Deadline {
        match self.remaining() {
            None => *self,
            Some(rem) => Deadline::within(rem.mul_f64(f.clamp(0.0, 1.0))),
        }
    }

    /// The earlier of two deadlines.
    pub fn min(self, other: Deadline) -> Deadline {
        match (self.at, other.at) {
            (Some(a), Some(b)) => Deadline { at: Some(a.min(b)) },
            (Some(a), None) => Deadline { at: Some(a) },
            (None, b) => Deadline { at: b },
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

/// A cooperative cancellation token with an optional deadline.
///
/// Cloned tokens share one cancellation flag: cancelling any clone trips
/// them all. The deadline is carried per-token so a child token can run
/// under a tighter slice ([`CancelToken::with_deadline`]) while still
/// honouring its parent's kill switch.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Deadline,
}

impl CancelToken {
    /// A token that never trips on its own (no deadline).
    pub fn never() -> Self {
        CancelToken::default()
    }

    /// A token that trips when `deadline` expires.
    pub fn with(deadline: Deadline) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline,
        }
    }

    /// A token expiring `budget` from now.
    pub fn expiring_in(budget: Duration) -> Self {
        CancelToken::with(Deadline::within(budget))
    }

    /// A child token sharing this token's kill switch but bounded by the
    /// earlier of the two deadlines.
    pub fn with_deadline(&self, deadline: Deadline) -> Self {
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: self.deadline.min(deadline),
        }
    }

    /// Trips the token (and every clone sharing its flag).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether work should stop: explicit cancel or expired deadline.
    ///
    /// Solver loops poll this once per iteration; the check is one
    /// relaxed atomic load plus (when a deadline is set) one clock read.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.expired()
    }

    /// Whether [`cancel`](CancelToken::cancel) was called explicitly,
    /// regardless of the deadline. Lets callers distinguish an external
    /// interruption from ordinary budget exhaustion.
    pub fn cancel_requested(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The deadline this token runs under.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_trips() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline().remaining(), None);
    }

    #[test]
    fn cancel_propagates_to_clones_and_children() {
        let t = CancelToken::never();
        let child = t.with_deadline(Deadline::within(Duration::from_secs(3600)));
        let clone = t.clone();
        t.cancel();
        assert!(child.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn expired_deadline_trips_token() {
        let t = CancelToken::expiring_in(Duration::ZERO);
        assert!(t.is_cancelled());
        let unbounded = CancelToken::never();
        assert!(!unbounded.with_deadline(Deadline::none()).is_cancelled());
    }

    #[test]
    fn child_token_takes_tighter_deadline() {
        let parent = CancelToken::expiring_in(Duration::ZERO);
        let child = parent.with_deadline(Deadline::within(Duration::from_secs(3600)));
        assert!(child.is_cancelled(), "parent deadline must win");
    }

    #[test]
    fn fraction_splits_remaining_budget() {
        let d = Deadline::within(Duration::from_secs(100));
        let slice = d.fraction(0.1);
        let rem = slice.remaining().expect("bounded");
        assert!(rem <= Duration::from_secs(10));
        assert_eq!(Deadline::none().fraction(0.5), Deadline::none());
    }

    #[test]
    fn min_prefers_earlier() {
        let a = Deadline::within(Duration::from_secs(1));
        let b = Deadline::within(Duration::from_secs(50));
        assert_eq!(a.min(b), a);
        assert_eq!(a.min(Deadline::none()), a);
        assert_eq!(Deadline::none().min(b), b);
    }
}
