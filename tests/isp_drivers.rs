//! ISP replays under the verifier's one driver. On the cooperative
//! scheduler an ISP campaign's report is the inline walk's bytes under every
//! executor, from a cold or a warm replay cache, and when resumed after a
//! kill at any commit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dampi::core::cache::plan_digest;
use dampi::core::scheduler::{ExploreOptions, RunResult, Start};
use dampi::core::shard::{InProcessLauncher, ShardOptions};
use dampi::core::{
    CampaignMetrics, ClockMode, DampiConfig, DampiVerifier, DecisionSet, ExplorationJournal,
    ReplayCache, ToolStack,
};
use dampi::fuzz::{generate, GenParams};
use dampi::mpi::fault::{WorkerFaultKind, WorkerFaultPlan};
use dampi::mpi::{MatchPolicy, MpiProgram, SimConfig};
use dampi::workloads::generated::GenProgram;
use dampi::workloads::patterns;

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dampi-isp-test-{}-{tag}-{n}", std::process::id()))
}

/// `prog` on `np` cooperative ranks, replayed under ISP.
struct Campaign {
    prog: Arc<dyn MpiProgram>,
    np: usize,
}

impl Campaign {
    fn verifier(&self, cfg: DampiConfig) -> DampiVerifier {
        let sim = SimConfig::new(self.np).with_policy(MatchPolicy::LowestRank);
        DampiVerifier::with_config(sim, cfg.with_tool(ToolStack::Isp))
    }

    fn report(&self, v: &DampiVerifier) -> String {
        v.verify(self.prog.as_ref()).to_json().to_string()
    }

    /// Two in-process workers, the first of which dies at its second job.
    fn sharded(&self, v: DampiVerifier) -> String {
        let v = Arc::new(v);
        let (vr, pr) = (Arc::clone(&v), Arc::clone(&self.prog));
        let run: Arc<dyn Fn(&DecisionSet) -> RunResult + Send + Sync> =
            Arc::new(move |ds| vr.instrumented_run(pr.as_ref(), ds));
        let launcher = InProcessLauncher::new(run, &ExploreOptions::default());
        let opts = ShardOptions {
            shards: 2,
            heartbeat_timeout: Duration::from_millis(150),
            lease: Duration::from_millis(400),
            fault: Some(WorkerFaultPlan {
                kind: WorkerFaultKind::Kill,
                nth_job: 1,
                persistent: false,
            }),
            ..ShardOptions::default()
        };
        let report = v.verify_sharded_from(self.prog.as_ref(), &launcher, &opts, Start::default());
        let report = report.expect("the fleet survives one kill");
        report.to_json().to_string()
    }

    /// A campaign against the cache in `dir`: its report and cache misses.
    fn cached(&self, dir: &Path) -> (String, u64) {
        let cache = ReplayCache::open(dir, 1, plan_digest(None), false).expect("open cache");
        let m = CampaignMetrics::new();
        let v = self
            .verifier(DampiConfig::default())
            .with_cache(Arc::new(cache))
            .with_metrics(m.clone());
        let report = self.report(&v);
        let snap = m.snapshot("isp", self.np, "vector", 1);
        (report, snap["cache"]["misses"].as_u64().expect("misses"))
    }
}

fn every_driver_gives_the_inline_report(c: &Campaign, interleavings: u64, errors: bool) {
    let inline = c.verifier(DampiConfig::default());
    let base = inline.verify(c.prog.as_ref());
    assert_eq!(base.clock_mode, ClockMode::Vector);
    assert_eq!(base.interleavings, interleavings, "{base}");
    assert_eq!(base.errors.is_empty(), !errors, "{base}");
    let base = base.to_json().to_string();

    let threads = c.verifier(DampiConfig::default().with_jobs(4));
    assert_eq!(c.report(&threads), base, "4 threads");
    let sharded = c.sharded(c.verifier(DampiConfig::default()));
    assert_eq!(sharded, base, "2 shards, 1 kill");

    let dir = tmp_path("cache");
    let (cold, _) = c.cached(&dir);
    assert_eq!(cold, base, "cold cache");
    let (warm, misses) = c.cached(&dir);
    assert_eq!((warm, misses), (base.clone(), 0), "warm cache");
    let _ = std::fs::remove_dir_all(dir);

    for cut in 1..=interleavings {
        let j = tmp_path("journal");
        let cfg = DampiConfig::default().with_journal(j.clone());
        let partial = c.verifier(cfg.clone().with_max_interleavings(cut));
        assert_eq!(partial.verify(c.prog.as_ref()).interleavings, cut);
        let journal = ExplorationJournal::load(&j).expect("journal loads");
        let start = Start {
            journal: Some(journal),
            ..Start::default()
        };
        let resumed = c.verifier(cfg).verify_from(c.prog.as_ref(), start);
        let resumed = resumed.expect("resume").to_json().to_string();
        assert_eq!(resumed, base, "resumed after commit {cut}");
        let _ = std::fs::remove_file(j);
    }
}

#[test]
fn isp_racers_is_one_report_under_every_driver() {
    let racers = Campaign {
        prog: Arc::new(patterns::symmetric_racers()),
        np: 4,
    };
    every_driver_gives_the_inline_report(&racers, 4, false);
}

#[test]
fn isp_fig3_is_one_report_under_every_driver() {
    let fig3 = Campaign {
        prog: Arc::new(patterns::fig3()),
        np: 3,
    };
    every_driver_gives_the_inline_report(&fig3, 2, true);
}

#[test]
fn isp_generated_program_is_one_report_under_every_driver() {
    // Corpus seed 4: a planted race ISP finds in six interleavings.
    let spec = generate(4, &GenParams::for_seed(4));
    let planted = Campaign {
        np: spec.nprocs,
        prog: Arc::new(GenProgram::new(spec)),
    };
    every_driver_gives_the_inline_report(&planted, 6, true);
}
