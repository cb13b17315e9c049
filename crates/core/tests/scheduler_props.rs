//! Property-based tests of the schedule generator (depth-first walk,
//! bounded mixing, dedup) over synthetic epoch structures.

use std::collections::{BTreeSet, HashSet};

use dampi_clocks::ClockStamp;
use dampi_core::bounds::MixingBound;
use dampi_core::decisions::DecisionSet;
use dampi_core::epoch::{EpochRecord, NdKind, ToolRunStats};
use dampi_core::scheduler::{explore, explore_parallel, ExploreOptions, RunResult};
use dampi_mpi::program::RunOutcome;
use dampi_mpi::{Comm, LeakReport};
use proptest::prelude::*;

/// Synthetic program model: independent epochs on rank 0, epoch `i` having
/// `alt_counts[i]` possible sources (0..alt_counts[i]). The run function
/// honors forced decisions and defaults to source 0, exactly like a
/// confluent master/slave program whose matches don't enable new epochs.
/// `Fn + Sync` so it also drives `explore_parallel`'s worker pool.
fn model_run(alt_counts: Vec<usize>) -> impl Fn(&DecisionSet) -> RunResult + Sync {
    move |ds: &DecisionSet| {
        let epochs: Vec<EpochRecord> = alt_counts
            .iter()
            .enumerate()
            .map(|(i, &nsrc)| {
                let clock = i as u64;
                let forced = ds.lookup(0, clock);
                let matched = forced.unwrap_or(0);
                EpochRecord {
                    rank: 0,
                    clock,
                    stamp: ClockStamp::Lamport(clock + 1),
                    comm: Comm::WORLD,
                    tag_spec: 0,
                    kind: NdKind::Recv,
                    in_region: false,
                    guided: forced.is_some(),
                    matched_src: Some(matched),
                    alternates: (0..nsrc).filter(|s| *s != matched).collect::<BTreeSet<_>>(),
                }
            })
            .collect();
        RunResult {
            outcome: RunOutcome {
                rank_errors: vec![None],
                leaks: LeakReport::default(),
                fatal: None,
                per_rank_vt: vec![1.0],
                wall_elapsed: std::time::Duration::ZERO,
                makespan: 1.0,
                census: Default::default(),
            },
            epochs,
            stats: ToolRunStats::default(),
        }
    }
}

fn opts(bound: MixingBound) -> ExploreOptions {
    ExploreOptions {
        bound,
        max_interleavings: Some(2_000_000),
        retry_backoff: dampi_core::RetryBackoff::ZERO,
        ..ExploreOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unbounded exploration of independent epochs covers exactly the
    /// product of per-epoch choice counts — full coverage, no duplicates.
    #[test]
    fn unbounded_count_is_product_of_choices(
        alt_counts in prop::collection::vec(1usize..4, 1..6),
    ) {
        let expected: u64 = alt_counts.iter().map(|&n| n as u64).product();
        let ex = explore(model_run(alt_counts), &opts(MixingBound::Unbounded));
        prop_assert_eq!(ex.interleavings, expected);
    }

    /// k = 0 is the paper's linear regime: one replay per (epoch,
    /// alternate) pair.
    #[test]
    fn k0_count_is_one_plus_sum_of_alternates(
        alt_counts in prop::collection::vec(1usize..5, 1..8),
    ) {
        let expected: u64 = 1 + alt_counts.iter().map(|&n| (n - 1) as u64).sum::<u64>();
        let ex = explore(model_run(alt_counts), &opts(MixingBound::K(0)));
        prop_assert_eq!(ex.interleavings, expected);
    }

    /// Interleaving counts are monotone in k and bounded by full coverage.
    #[test]
    fn bounded_counts_are_monotone_in_k(
        alt_counts in prop::collection::vec(1usize..4, 1..6),
    ) {
        let full = explore(model_run(alt_counts.clone()), &opts(MixingBound::Unbounded))
            .interleavings;
        let mut prev = 0;
        for k in 0..4u32 {
            let n = explore(model_run(alt_counts.clone()), &opts(MixingBound::K(k)))
                .interleavings;
            prop_assert!(n >= prev, "k={k}: {n} < {prev}");
            prop_assert!(n <= full, "k={k}: {n} > full {full}");
            prev = n;
        }
        // A window as deep as the program is full coverage.
        let deep = explore(
            model_run(alt_counts.clone()),
            &opts(MixingBound::K(alt_counts.len() as u32)),
        )
        .interleavings;
        prop_assert_eq!(deep, full);
    }

    /// Every executed schedule is distinct (the visited-set dedup): the
    /// run function observes no repeated decision signature.
    #[test]
    fn no_schedule_runs_twice(
        alt_counts in prop::collection::vec(1usize..4, 1..5),
        k in 0u32..3,
    ) {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut dup = false;
        let inner = model_run(alt_counts);
        let run = |ds: &DecisionSet| {
            if !seen.insert(ds.signature()) {
                dup = true;
            }
            inner(ds)
        };
        let _ = explore(run, &opts(MixingBound::K(k)));
        prop_assert!(!dup, "a decision signature was executed twice");
    }

    /// Coverage invariant: with unbounded search, every source of every
    /// epoch appears in the discovered map.
    #[test]
    fn unbounded_discovers_every_source(
        alt_counts in prop::collection::vec(1usize..4, 1..5),
    ) {
        let ex = explore(model_run(alt_counts.clone()), &opts(MixingBound::Unbounded));
        for (i, &nsrc) in alt_counts.iter().enumerate() {
            let found = &ex.discovered[&(0, i as u64)];
            prop_assert_eq!(found.len(), nsrc, "epoch {}: {:?}", i, found);
        }
    }

    /// k = 0 discovers the same coverage as unbounded for independent
    /// epochs — full coverage at linear cost, the bounded-mixing pitch.
    #[test]
    fn k0_coverage_equals_unbounded_for_independent_epochs(
        alt_counts in prop::collection::vec(1usize..4, 1..6),
    ) {
        let a = explore(model_run(alt_counts.clone()), &opts(MixingBound::K(0)));
        let b = explore(model_run(alt_counts), &opts(MixingBound::Unbounded));
        prop_assert_eq!(a.discovered, b.discovered);
    }

    /// The parallel driver's contract, as a property over random epoch
    /// structures, mixing bounds, and budgets: `jobs = 4` commits exactly
    /// the exploration `jobs = 1` produces — same interleaving count, same
    /// coverage map, same budget verdict, bitwise-equal virtual time.
    #[test]
    fn parallel_exploration_is_bit_identical_to_sequential(
        alt_counts in prop::collection::vec(1usize..4, 1..6),
        k in 0u32..4,
        budget in prop::collection::vec(1u64..40, 0..2),
    ) {
        let bound = if k == 3 { MixingBound::Unbounded } else { MixingBound::K(k) };
        let o = ExploreOptions {
            // An empty `budget` vec means unbounded (well, the test cap).
            max_interleavings: Some(budget.first().copied().unwrap_or(2_000_000)),
            ..opts(bound)
        };
        let seq = explore(model_run(alt_counts.clone()), &o);
        let par = explore_parallel(
            model_run(alt_counts),
            &ExploreOptions { jobs: 4, ..o },
        );
        prop_assert_eq!(par.interleavings, seq.interleavings);
        prop_assert_eq!(par.discovered, seq.discovered);
        prop_assert_eq!(par.budget_exhausted, seq.budget_exhausted);
        prop_assert_eq!(par.errors.len(), seq.errors.len());
        prop_assert_eq!(par.timeouts.len(), seq.timeouts.len());
        prop_assert_eq!(
            par.total_virtual_time.to_bits(),
            seq.total_virtual_time.to_bits()
        );
    }
}
