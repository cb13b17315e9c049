//! Verifier configuration.

use std::path::PathBuf;
use std::time::Duration;

use crate::bounds::MixingBound;
use dampi_clocks::ClockMode;

/// How clock stamps travel with messages (paper §II-D; mechanisms from
/// Schulz et al. \[15\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiggybackMechanism {
    /// A separate piggyback message per payload message, sent on a shadow
    /// communicator — the mechanism DAMPI chose for implementation
    /// simplicity without sacrificing performance. *All* receives defer
    /// their piggyback receive until the main receive completes (so the
    /// source is known), per §II-D, and deferred piggybacks for one
    /// communicator are consumed in the posting order of the matched
    /// receives. Within a single (source, tag, communicator) stream the
    /// payload matcher hands messages to receives in posting order, so
    /// sequenced consumption pairs every stamp with its own payload even
    /// when wildcard and named receives interleave on the same stream —
    /// the mispairing that eager per-named-receive posting used to cause
    /// (regression: `crates/core/tests/piggyback_mispair.rs`).
    ///
    /// Remaining (accepted) divergence from [`Self::PayloadPacking`]: a
    /// receive that was matched but never waited on can be force-completed
    /// by the sequencing pass when a *later* receive on the same
    /// communicator completes, so it no longer shows up in the
    /// request-leak census. Programs that abandon matched requests and
    /// then complete another receive on the same communicator are the only
    /// shape affected.
    SeparateMessage,
    /// Prepend the stamp to the payload itself ("data payload packing") —
    /// exact pairing by construction, at the cost of touching every message
    /// buffer. Used as an ablation reference.
    PayloadPacking,
}

/// Exponential retry backoff with deterministic jitter and a cap.
///
/// The naive schedule (`base * 2^attempt`, unbounded, no jitter) has two
/// failure modes at shard scale: delays blow past any useful bound after a
/// handful of attempts, and N workers retrying the same contended resource
/// all sleep the exact same interval and collide again in lockstep. The
/// fix is the classic one: clamp to `cap`, then scale by a jitter factor
/// drawn from `[1 - jitter, 1]`. The draw is a pure hash of
/// `(seed, attempt)` — no global RNG — so a replay's retry schedule is a
/// deterministic function of its identity, which keeps sharded campaigns
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryBackoff {
    /// Delay before the first retry (attempt 0).
    pub base: Duration,
    /// Upper bound the exponential curve saturates at.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor in
    /// `[1 - jitter, 1]`. `0.0` disables jitter (exact exponential).
    pub jitter: f64,
}

impl RetryBackoff {
    /// No waiting at all: the divergence-retry default. A sleep can only
    /// help a retry whose outcome depends on timing, and a replay on the
    /// turn token diverges identically however long it waited.
    pub const ZERO: RetryBackoff = RetryBackoff {
        base: Duration::ZERO,
        cap: Duration::ZERO,
        jitter: 0.0,
    };

    /// Constant (non-growing, jitter-free) schedule of `d` per attempt.
    #[must_use]
    pub const fn constant(d: Duration) -> Self {
        Self {
            base: d,
            cap: d,
            jitter: 0.0,
        }
    }

    /// The delay before retry number `attempt` (0-based), for the retry
    /// series identified by `seed`. Pure: same `(self, attempt, seed)`
    /// always yields the same `Duration`.
    #[must_use]
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(self.cap);
        if self.jitter <= 0.0 {
            return exp;
        }
        // splitmix64 over (seed, attempt) → uniform u in [0, 1).
        let mut z = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - self.jitter.min(1.0) * u;
        Duration::from_secs_f64(exp.as_secs_f64() * factor)
    }
}

impl Default for RetryBackoff {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            jitter: 0.5,
        }
    }
}

/// The interposition stack a replay runs under. Everything above it — the
/// exploration driver and its executors, the journal, the replay cache and
/// the report — is shared, so the two differ in architecture alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ToolStack {
    /// DAMPI's decentralized layer: per-rank logical clocks travel as
    /// piggybacks and each rank detects its own late messages.
    #[default]
    Dampi,
    /// ISP's centralized baseline ([`crate::isp`]): every MPI call is a
    /// synchronous transaction with one scheduler that keeps exact vector
    /// clocks. The DAMPI-layer knobs (`clock_mode`, `piggyback`,
    /// `monitor_unsafe_pattern`, `deferred_clock_sync`) configure nothing
    /// here, and the report's clock mode is [`ClockMode::Vector`].
    Isp,
}

/// Configuration of a DAMPI verification session.
#[derive(Debug, Clone)]
pub struct DampiConfig {
    /// The tool stack replays run under (default DAMPI's).
    pub tool: ToolStack,
    /// Clock algebra: Lamport (scalable, default) or vector (precise
    /// reference mode for the §II-F completeness characterization).
    pub clock_mode: ClockMode,
    /// Bounded-mixing window (paper §III-B2). Default unbounded = full
    /// coverage.
    pub bound: MixingBound,
    /// Honor `pcontrol`-bracketed loop-iteration-abstraction regions
    /// (§III-B1): non-deterministic matches inside such regions follow the
    /// `SELF_RUN` outcome and are never branched on.
    pub honor_regions: bool,
    /// Hard cap on the number of interleavings (replays) explored.
    pub max_interleavings: Option<u64>,
    /// Stop the depth-first walk at the first program bug found.
    pub stop_on_first_error: bool,
    /// Run the §V unsafe-pattern monitor (clock transmitted between a
    /// wildcard `Irecv` and its `Wait`/`Test`).
    pub monitor_unsafe_pattern: bool,
    /// Piggyback transport mechanism.
    pub piggyback: PiggybackMechanism,
    /// Also branch on alternates discovered for *guided* (already-forced)
    /// epochs during replays. The paper's algorithm does not; enabling this
    /// explores additional interleavings a DPOR-style tool would.
    pub branch_on_guided: bool,
    /// The paper's §V proposed fix for the unsafe pattern ("a pair of
    /// Lamport clocks — one for handling wildcard receives, and the other
    /// for transmittal to other processes, synchronized when a Wait/Test
    /// is encountered"). When enabled, the clock a wildcard receive ticks
    /// is *not* transmitted until the receive completes, so a send racing
    /// the receive across an intervening barrier (Fig. 10) is still
    /// classified late. Off by default — the paper left this as future
    /// work and ships the monitor instead.
    pub deferred_clock_sync: bool,
    /// Extra attempts for a guided replay that diverges from its Epoch
    /// Decisions before the divergent result is accepted. `0` by default:
    /// on the turn token a retry diverges as its first attempt did.
    pub divergence_retries: u32,
    /// Backoff schedule between divergence retries (exponential with
    /// deterministic jitter, capped).
    pub retry_backoff: RetryBackoff,
    /// When set, append every commit to this journal file; a
    /// [`crate::scheduler::Start`] naming it continues from it.
    pub journal: Option<PathBuf>,
    /// Worker threads replaying frontier forks concurrently. `1` (the
    /// default) is the sequential walk; any `N` produces a bit-identical
    /// exploration (speculative replay, deterministic in-order merge —
    /// see [`crate::scheduler`]), only faster.
    pub jobs: usize,
}

impl Default for DampiConfig {
    fn default() -> Self {
        Self {
            tool: ToolStack::Dampi,
            clock_mode: ClockMode::Lamport,
            bound: MixingBound::Unbounded,
            honor_regions: true,
            max_interleavings: Some(100_000),
            stop_on_first_error: false,
            monitor_unsafe_pattern: true,
            piggyback: PiggybackMechanism::SeparateMessage,
            branch_on_guided: false,
            deferred_clock_sync: false,
            divergence_retries: 0,
            retry_backoff: RetryBackoff::ZERO,
            journal: None,
            jobs: 1,
        }
    }
}

impl DampiConfig {
    /// Builder-style: choose the tool stack replays run under.
    #[must_use]
    pub fn with_tool(mut self, tool: ToolStack) -> Self {
        self.tool = tool;
        self
    }

    /// Builder-style: set the clock mode.
    #[must_use]
    pub fn with_clock_mode(mut self, mode: ClockMode) -> Self {
        self.clock_mode = mode;
        self
    }

    /// Builder-style: set the bounded-mixing window.
    #[must_use]
    pub fn with_bound(mut self, bound: MixingBound) -> Self {
        self.bound = bound;
        self
    }

    /// Builder-style: cap interleavings.
    #[must_use]
    pub fn with_max_interleavings(mut self, max: u64) -> Self {
        self.max_interleavings = Some(max);
        self
    }

    /// Builder-style: stop at the first bug.
    #[must_use]
    pub fn stop_at_first_error(mut self) -> Self {
        self.stop_on_first_error = true;
        self
    }

    /// Builder-style: choose the piggyback mechanism.
    #[must_use]
    pub fn with_piggyback(mut self, pb: PiggybackMechanism) -> Self {
        self.piggyback = pb;
        self
    }

    /// Builder-style: enable the §V paired-clock fix.
    #[must_use]
    pub fn with_deferred_clock_sync(mut self) -> Self {
        self.deferred_clock_sync = true;
        self
    }

    /// Builder-style: set the divergence retry budget.
    #[must_use]
    pub fn with_divergence_retries(mut self, retries: u32) -> Self {
        self.divergence_retries = retries;
        self
    }

    /// Builder-style: append every commit to the journal at `path`.
    #[must_use]
    pub fn with_journal(mut self, path: PathBuf) -> Self {
        self.journal = Some(path);
        self
    }

    /// Builder-style: replay frontier forks on `jobs` worker threads
    /// (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_faithful() {
        let c = DampiConfig::default();
        assert_eq!(c.tool, ToolStack::Dampi);
        assert_eq!(c.clock_mode, ClockMode::Lamport);
        assert_eq!(c.bound, MixingBound::Unbounded);
        assert_eq!(c.piggyback, PiggybackMechanism::SeparateMessage);
        assert!(c.honor_regions);
        assert!(!c.branch_on_guided);
    }

    #[test]
    fn backoff_grows_exponentially_without_jitter() {
        let b = RetryBackoff {
            base: Duration::from_millis(5),
            cap: Duration::from_secs(10),
            jitter: 0.0,
        };
        assert_eq!(b.delay(0, 7), Duration::from_millis(5));
        assert_eq!(b.delay(1, 7), Duration::from_millis(10));
        assert_eq!(b.delay(2, 7), Duration::from_millis(20));
        assert_eq!(b.delay(6, 7), Duration::from_millis(320));
        // Seed is irrelevant when jitter is off.
        assert_eq!(b.delay(3, 1), b.delay(3, 999));
    }

    #[test]
    fn backoff_saturates_at_cap() {
        let b = RetryBackoff {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            jitter: 0.0,
        };
        assert_eq!(b.delay(20, 0), Duration::from_millis(500));
        // Even an attempt count that overflows 2^attempt stays capped.
        assert_eq!(b.delay(u32::MAX, 0), Duration::from_millis(500));
    }

    #[test]
    fn backoff_jitter_bounded_and_deterministic() {
        let b = RetryBackoff::default();
        for attempt in 0..12 {
            for seed in [0u64, 1, 42, u64::MAX] {
                let exp = b
                    .base
                    .saturating_mul(2u32.saturating_pow(attempt))
                    .min(b.cap);
                let d = b.delay(attempt, seed);
                let lo = exp.as_secs_f64() * (1.0 - b.jitter);
                assert!(d.as_secs_f64() >= lo - 1e-12, "{d:?} below {lo}");
                assert!(d <= exp, "{d:?} above {exp:?}");
                // Pure function of (attempt, seed).
                assert_eq!(d, b.delay(attempt, seed));
            }
        }
        // Different seeds actually spread (the anti-lockstep property).
        assert_ne!(b.delay(3, 1), b.delay(3, 2));
    }

    #[test]
    fn backoff_zero_never_sleeps() {
        for attempt in [0, 1, 31, u32::MAX] {
            assert_eq!(RetryBackoff::ZERO.delay(attempt, 9), Duration::ZERO);
        }
        assert_eq!(
            RetryBackoff::constant(Duration::from_millis(2)).delay(9, 0),
            Duration::from_millis(2)
        );
    }

    #[test]
    fn builders_compose() {
        let c = DampiConfig::default()
            .with_clock_mode(ClockMode::Vector)
            .with_bound(MixingBound::K(2))
            .with_max_interleavings(10)
            .stop_at_first_error();
        assert_eq!(c.clock_mode, ClockMode::Vector);
        assert_eq!(c.bound, MixingBound::K(2));
        assert_eq!(c.max_interleavings, Some(10));
        assert!(c.stop_on_first_error);
    }
}
