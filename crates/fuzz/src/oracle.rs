//! The differential clock-mode oracle.
//!
//! Every generated program is verified under seven configurations: the
//! ISP baseline, DAMPI vector clocks under both piggyback mechanisms,
//! DAMPI Lamport clocks under both mechanisms, and Lamport at `k = 0`
//! and `k = 1` bounded mixing. The oracle only *fails* a seed on
//! relations that are theorems of the implementation; everything else is
//! classified and recorded (DESIGN.md §15.3).
//!
//! **Hard axes (`BUG:` verdicts — a tool defect, fix it):**
//!
//! 1. **Exact-mode error agreement** — ISP and vector-clock DAMPI (under
//!    either piggyback mechanism) perform *exact* causality analysis, so
//!    all three must report the same error set.
//! 2. **Error soundness** — every error any mode reports comes from a
//!    real replayed execution, and the vector search is complete: no
//!    mode may report an error the vector search misses.
//! 3. **Exact-mode match agreement on error-free programs** — when
//!    nothing errors, the exact searches converge on the same total of
//!    discovered matches. (Stamp corruption — e.g. the `SeparateMessage`
//!    mispairing fixed in this tree — breaks exactly this axis.)
//! 4. **Known-answer labels** — injected bug classes must be found by
//!    the exact modes; clean programs must verify clean.
//!
//! **Soft axes (classified, sound, expected):**
//!
//! * `lamport-omission` — the Lamport search discovered fewer matches
//!   than the vector search (paper Fig. 4: tying stamps hide an
//!   alternate).
//! * `lamport-overapprox` — the Lamport search discovered *more*:
//!   scalar stamps cannot separate "concurrent" from "ordered", so
//!   Lamport analysis records alternates exact analysis refutes (the
//!   paper's extra-replay overapproximation; infeasible ones surface as
//!   replay divergences).
//! * `k-omission` — a `k`-bounded search missed an error the unbounded
//!   one finds; the smallest closing `k` is recorded.
//! * `mechanism-variance` — same-clock searches under the two piggyback
//!   mechanisms walked different parts of the space. Piggyback traffic
//!   perturbs virtual time, virtual time perturbs initial-run matching,
//!   and Lamport analysis is schedule-relative — so Lamport-mode parity
//!   is *not* a theorem on arbitrary programs. (It *is* deterministic on
//!   timing-robust fixtures, which the committed mispairing regression
//!   pins exactly.)
//!
//! Verdicts contain only schedule-independent quantities (error
//! signatures, discovered-match totals, interleaving counts) so a verdict
//! file is byte-identical across reruns and machines — which is what the
//! CI gate diffs.

use std::collections::BTreeSet;

use dampi_core::{
    ClockMode, DampiConfig, DampiVerifier, MixingBound, PiggybackMechanism, ToolStack,
    VerificationReport,
};
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::generated::{BugLabel, GenProgram, GenSpec};
use serde::{Deserialize, Serialize};

/// Oracle tunables.
#[derive(Debug, Clone)]
pub struct OracleParams {
    /// Interleaving budget per mode; a mode that exhausts it makes the
    /// verdict `budget-capped` (containment is meaningless between
    /// differently-truncated searches).
    pub max_interleavings: u64,
    /// Highest `k` tried when searching for the closing bound of a
    /// `k`-omission.
    pub escalate_k: u32,
}

impl Default for OracleParams {
    fn default() -> Self {
        Self {
            max_interleavings: 2_000,
            escalate_k: 4,
        }
    }
}

/// What one verification mode produced, reduced to its
/// schedule-independent core.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeOutcome {
    /// Mode name (`isp`, `vec`, `lam`, `lam-packed`, `lam-k0`, …).
    pub mode: String,
    /// Sorted canonical error signatures.
    pub errors: Vec<String>,
    /// Total discovered matches over all epochs.
    pub matches: usize,
    /// Interleavings executed.
    pub interleavings: u64,
    /// True when no resource leaked in the first run.
    pub leaks_clean: bool,
    /// True when the interleaving budget cut the walk short.
    pub capped: bool,
}

impl ModeOutcome {
    fn from_report(mode: &str, r: &VerificationReport) -> Self {
        Self {
            mode: mode.to_owned(),
            errors: r.error_signature().into_iter().collect(),
            matches: r.total_discovered_matches(),
            interleavings: r.interleavings,
            leaks_clean: r.leaks.is_clean(),
            capped: r.budget_exhausted,
        }
    }

    fn error_set(&self) -> BTreeSet<String> {
        self.errors.iter().cloned().collect()
    }
}

/// The oracle's judgement on one seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Generator seed.
    pub seed: u64,
    /// Program name.
    pub name: String,
    /// Known-answer bug label.
    pub label: String,
    /// World size.
    pub nprocs: usize,
    /// Number of events in the spec.
    pub ops: usize,
    /// Number of wildcard receives (epochs).
    pub wildcards: usize,
    /// `agree`, `lamport-omission`, `k-omission`,
    /// `lamport-omission+k-omission`, `budget-capped`, or `BUG:<what>`.
    pub verdict: String,
    /// Smallest `k` at which the bounded search matches the unbounded
    /// one, when a `k`-omission was observed and closed within the
    /// escalation budget.
    pub closing_k: Option<u32>,
    /// Per-mode outcomes, in a fixed order.
    pub modes: Vec<ModeOutcome>,
    /// Human-readable elaboration of a `BUG:` verdict.
    pub detail: String,
}

impl Verdict {
    /// True when the verdict signals a tool bug (fails the corpus gate).
    #[must_use]
    pub fn unclassified(&self) -> bool {
        self.verdict.starts_with("BUG:")
    }

    /// One-line JSON (the corpus file format).
    ///
    /// # Panics
    /// Never: the verdict is plain data.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("verdict serialises")
    }
}

/// One verification mode: its name, tool stack, clock, mixing bound and
/// piggyback mechanism (clock and piggyback configure nothing under ISP).
type Mode = (
    &'static str,
    ToolStack,
    ClockMode,
    MixingBound,
    PiggybackMechanism,
);

/// The seven modes, in the order a verdict lists them.
const MODES: [Mode; 7] = {
    use ClockMode::{Lamport, Vector};
    use MixingBound::{Unbounded, K};
    use PiggybackMechanism::{PayloadPacking as Packed, SeparateMessage as Separate};
    use ToolStack::{Dampi, Isp};
    [
        ("isp", Isp, Vector, Unbounded, Separate),
        ("vec", Dampi, Vector, Unbounded, Separate),
        ("vec-packed", Dampi, Vector, Unbounded, Packed),
        ("lam", Dampi, Lamport, Unbounded, Separate),
        ("lam-packed", Dampi, Lamport, Unbounded, Packed),
        ("lam-k0", Dampi, Lamport, K(0), Separate),
        ("lam-k1", Dampi, Lamport, K(1), Separate),
    ]
};

fn dampi_report(
    spec: &GenSpec,
    tool: ToolStack,
    mode: ClockMode,
    bound: MixingBound,
    pb: PiggybackMechanism,
    max: u64,
) -> VerificationReport {
    let sim = SimConfig::new(spec.nprocs).with_policy(MatchPolicy::LowestRank);
    let cfg = DampiConfig::default()
        .with_tool(tool)
        .with_clock_mode(mode)
        .with_bound(bound)
        .with_piggyback(pb)
        .with_max_interleavings(max);
    DampiVerifier::with_config(sim, cfg).verify(&GenProgram::new(spec.clone()))
}

/// Check the known-answer label against the exact (vector/ISP) outcomes.
fn label_violation(label: BugLabel, vec: &ModeOutcome, isp: &ModeOutcome) -> Option<String> {
    let has = |o: &ModeOutcome, what: &str| o.errors.iter().any(|e| e.starts_with(what));
    match label {
        BugLabel::Clean => {
            if !vec.errors.is_empty() {
                Some(format!("clean program reported errors: {:?}", vec.errors))
            } else if !vec.leaks_clean {
                Some("clean program reported leaks".to_owned())
            } else {
                None
            }
        }
        BugLabel::Deadlock => (!has(vec, "deadlock"))
            .then(|| format!("injected deadlock not found: {:?}", vec.errors)),
        BugLabel::Mismatch => (!has(vec, "collective-mismatch"))
            .then(|| format!("injected mismatch not found: {:?}", vec.errors)),
        BugLabel::Leak => vec
            .leaks_clean
            .then(|| "injected leak not reported".to_owned()),
        // A conformance-labelled program is MPI-clean by construction —
        // its defect lives in the companion protocol spec, checked by
        // `protocol::check_template`, not by the replay oracle.
        BugLabel::Conformance => {
            if !vec.errors.is_empty() {
                Some(format!(
                    "conformance-labelled program reported MPI errors: {:?}",
                    vec.errors
                ))
            } else {
                None
            }
        }
        BugLabel::Race => {
            if !has(vec, "assert") {
                Some(format!(
                    "injected race not found by vector clocks: {:?}",
                    vec.errors
                ))
            } else if !has(isp, "assert") {
                Some(format!("injected race not found by ISP: {:?}", isp.errors))
            } else {
                None
            }
        }
    }
}

/// Run the full differential oracle on one spec.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_oracle(spec: &GenSpec, params: &OracleParams) -> Verdict {
    let max = params.max_interleavings;
    let modes = MODES.map(|(name, tool, clock, bound, pb)| {
        ModeOutcome::from_report(name, &dampi_report(spec, tool, clock, bound, pb, max))
    });
    let [isp, vec_sep, vec_packed, lam_sep, lam_packed, lam_k0, lam_k1] = modes.clone();
    let mut verdict = Verdict {
        seed: spec.seed,
        name: spec.name.clone(),
        label: spec.bug.name().to_owned(),
        nprocs: spec.nprocs,
        ops: spec.ops.len(),
        wildcards: spec.wildcard_count(),
        verdict: "agree".to_owned(),
        closing_k: None,
        modes: modes.to_vec(),
        detail: String::new(),
    };
    let fail = |v: &mut Verdict, what: &str, detail: String| {
        v.verdict = format!("BUG:{what}");
        v.detail = detail;
    };

    if verdict.modes.iter().any(|m| m.capped) {
        verdict.verdict = "budget-capped".to_owned();
        return verdict;
    }

    // Hard axis 1: the exact searches must agree on the error set —
    // including across piggyback mechanisms, where vector-mode analysis
    // leaves no room for stamp-relative variance in *what is a bug*.
    if isp.error_set() != vec_sep.error_set() || vec_sep.error_set() != vec_packed.error_set() {
        fail(
            &mut verdict,
            "exact-error-divergence",
            format!(
                "isp {:?} vs vec {:?} vs vec-packed {:?}",
                isp.errors, vec_sep.errors, vec_packed.errors
            ),
        );
        return verdict;
    }

    // Hard axis 2: every reported error is a real replayed execution, and
    // the vector search is complete — no mode may out-find it.
    for m in [&lam_sep, &lam_packed, &lam_k0, &lam_k1] {
        if !m.error_set().is_subset(&vec_sep.error_set()) {
            fail(
                &mut verdict,
                "error-not-in-vector",
                format!("{} {:?} vs vector {:?}", m.mode, m.errors, vec_sep.errors),
            );
            return verdict;
        }
    }

    // Hard axis 3: on error-free programs the exact searches converge on
    // the same discovered-match total. (When a run errors, how far each
    // rank got before aborting is timing-dependent, so totals are not
    // comparable.) Stamp corruption breaks exactly this axis.
    let error_free = verdict.modes.iter().all(|m| m.errors.is_empty());
    if error_free && (isp.matches != vec_sep.matches || vec_sep.matches != vec_packed.matches) {
        fail(
            &mut verdict,
            "exact-match-divergence",
            format!(
                "isp {}m vs vec {}m vs vec-packed {}m",
                isp.matches, vec_sep.matches, vec_packed.matches
            ),
        );
        return verdict;
    }

    // Hard axis 4: known-answer labels.
    if let Some(why) = label_violation(spec.bug, &vec_sep, &isp) {
        fail(&mut verdict, "label-violation", why);
        return verdict;
    }

    // Soft axes: classify, don't fail.
    let mut classes: Vec<&str> = Vec::new();
    if error_free && lam_sep.matches < vec_sep.matches {
        classes.push("lamport-omission");
    }
    if error_free && lam_sep.matches > vec_sep.matches {
        classes.push("lamport-overapprox");
    }
    let k_omission =
        lam_k0.error_set() != lam_sep.error_set() || lam_k1.error_set() != lam_sep.error_set();
    if k_omission {
        classes.push("k-omission");
        // Escalate k until the bounded search finds the same errors as
        // the unbounded one; the closing k quantifies the omission.
        if lam_k1.error_set() == lam_sep.error_set() {
            verdict.closing_k = Some(1);
        } else {
            for k in 2..=params.escalate_k {
                let r = dampi_report(
                    spec,
                    ToolStack::Dampi,
                    ClockMode::Lamport,
                    MixingBound::K(k),
                    PiggybackMechanism::SeparateMessage,
                    max,
                );
                if r.error_signature() == lam_sep.error_set() {
                    verdict.closing_k = Some(k);
                    break;
                }
            }
        }
    }
    if lam_sep.matches != lam_packed.matches
        || lam_sep.interleavings != lam_packed.interleavings
        || lam_sep.errors != lam_packed.errors
    {
        classes.push("mechanism-variance");
    }

    verdict.verdict = if classes.is_empty() {
        "agree".to_owned()
    } else {
        classes.join("+")
    };
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};

    #[test]
    fn oracle_is_deterministic() {
        let spec = generate(1, &GenParams::for_seed(1));
        let p = OracleParams::default();
        let a = run_oracle(&spec, &p);
        let b = run_oracle(&spec, &p);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn mispair_fixture_verdict_is_classified() {
        let spec = dampi_workloads::generated::fixtures::separate_message_mispair();
        let v = run_oracle(&spec, &OracleParams::default());
        assert!(!v.unclassified(), "{}: {}", v.verdict, v.detail);
    }
}
