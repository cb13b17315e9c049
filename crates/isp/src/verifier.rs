//! The ISP verification driver.
//!
//! Reuses DAMPI's depth-first schedule generator
//! ([`dampi_core::scheduler::explore`]) so ISP and DAMPI differ only in
//! *architecture*: centralized synchronous scheduling (serialized virtual
//! time, exact vector-clock match detection) versus decentralized
//! piggyback analysis. This isolates exactly the comparison of the paper's
//! Fig. 5/6.

use std::sync::Arc;

use dampi_core::bounds::MixingBound;
use dampi_core::config::RetryBackoff;
use dampi_core::decisions::DecisionSet;
use dampi_core::report::VerificationReport;
use dampi_core::scheduler::{self, ExploreOptions, RunResult};
use dampi_mpi::program::{MpiProgram, RunOutcome};
use dampi_mpi::runtime::{run_with_layers, SimConfig};
use dampi_mpi::Mpi;

use crate::sched::IspScheduler;
use crate::tool::IspLayer;

/// Configuration of an ISP verification session.
#[derive(Debug, Clone)]
pub struct IspConfig {
    /// Hard cap on explored interleavings.
    pub max_interleavings: Option<u64>,
    /// Stop at the first program bug.
    pub stop_on_first_error: bool,
}

impl Default for IspConfig {
    fn default() -> Self {
        Self {
            max_interleavings: Some(100_000),
            stop_on_first_error: false,
        }
    }
}

/// The ISP verifier (centralized baseline).
#[derive(Debug, Clone)]
pub struct IspVerifier {
    /// Simulated-world configuration.
    pub sim: SimConfig,
    /// Session configuration.
    pub cfg: IspConfig,
}

impl IspVerifier {
    /// Verifier with the default configuration.
    #[must_use]
    pub fn new(sim: SimConfig) -> Self {
        Self {
            sim,
            cfg: IspConfig::default(),
        }
    }

    /// Execute one run under the ISP stack with the given decisions.
    pub fn instrumented_run(&self, program: &dyn MpiProgram, decisions: &DecisionSet) -> RunResult {
        let sched = IspScheduler::new(self.sim.nprocs, self.sim.vtime);
        let ds = Arc::new(decisions.clone());
        let outcome = run_with_layers(&self.sim, program, &|_rank, pmpi| {
            Ok(Box::new(IspLayer::new(pmpi, Arc::clone(&sched), Arc::clone(&ds))) as Box<dyn Mpi>)
        });
        let (epochs, stats) = sched.collect();
        RunResult {
            outcome,
            epochs,
            stats,
        }
    }

    /// Execute `program` without instrumentation.
    #[must_use]
    pub fn native_run(&self, program: &dyn MpiProgram) -> RunOutcome {
        dampi_mpi::runtime::run_native(&self.sim, program)
    }

    /// Full verification over the space of non-deterministic matches.
    #[must_use]
    pub fn verify(&self, program: &dyn MpiProgram) -> VerificationReport {
        let opts = ExploreOptions {
            // ISP explores the full space: it has no bounded mixing or
            // loop-abstraction heuristics (they are DAMPI contributions).
            bound: MixingBound::Unbounded,
            honor_regions: false,
            max_interleavings: self.cfg.max_interleavings,
            stop_on_first_error: self.cfg.stop_on_first_error,
            retry_backoff: RetryBackoff::default().for_sim(&self.sim),
            ..ExploreOptions::default()
        };
        let ex = scheduler::explore(|ds| self.instrumented_run(program, ds), &opts);
        // Sharding, static pruning and the piggyback/monitor counters are
        // DAMPI-side features: the exploration reports them as zero here.
        VerificationReport::from_exploration(
            program.name(),
            self.sim.nprocs,
            dampi_clocks::ClockMode::Vector,
            MixingBound::Unbounded,
            ex,
        )
    }
}
