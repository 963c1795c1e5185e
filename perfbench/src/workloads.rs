//! The three workloads: their inputs, main calls, output checks and digests.
//!
//! Each workload is a batch job — one closed call chain into the library's
//! public entry points, timed from the call until its result is complete.
//! Inputs come from the seed alone; the library receives only the world and
//! configuration built from it.

use pscp_bench::scale::tier_by_name;
use pscp_core::shard::census;
use pscp_core::{experiments, run_chaos, run_scale, ChaosConfig, ChaosSweep};
use pscp_core::{Lab, LabConfig, ScaleConfig, ScaleRun};
use pscp_service::{PeriscopeService, ServiceConfig};
use pscp_simnet::RngFactory;
use pscp_workload::population::{Population, PopulationConfig};

/// Worker threads every workload is pinned to.
pub const THREADS: usize = 2;

/// The seed the reference digests were recorded at.
pub const DEFAULT_SEED: u64 = 2016;

/// Output digests of the full-size workloads at [`DEFAULT_SEED`], recorded
/// from the library as it was when the benchmark was defined.
const REFERENCE: &[(Workload, &str)] = &[
    (Workload::Scale100k, "4b74363da88f6252"),
    (Workload::PaperMedium, "fa0e8dad54d38322"),
    (Workload::Chaos3way, "a053e4f714c46c17"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_scale` on the 100k-tier world with the tier's session budget.
    Scale100k,
    /// Every paper experiment on `LabConfig::medium`, in registry order.
    PaperMedium,
    /// The three-way transport chaos sweep on the `repro chaos` world.
    Chaos3way,
}

impl Workload {
    /// All workloads, in benchmark order.
    pub const ALL: [Workload; 3] =
        [Workload::Scale100k, Workload::PaperMedium, Workload::Chaos3way];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scale100k => "scale-100k",
            Workload::PaperMedium => "paper-medium",
            Workload::Chaos3way => "chaos-3way",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worlds one sample works through. A workload's cost depends on its
    /// world: one chaos sweep took 6-10 s across seeds (its 40 planned
    /// sessions land on few popular broadcasts of a small world), and the
    /// scale run's session count moves by ~8% across seeds. paper-medium
    /// varies least across seeds and costs most.
    pub fn worlds(self) -> usize {
        match self {
            Workload::Scale100k => 2,
            Workload::PaperMedium => 1,
            Workload::Chaos3way => 6,
        }
    }

    /// Set-up repetitions per world, so each set-up median rests on about
    /// half a second of work or more (one set-up takes ~0.07 s, ~0.019 s
    /// and ~0.001 s).
    pub fn setups(self, size: Size) -> usize {
        match (size, self) {
            (Size::Tiny, _) => 2,
            (Size::Full, Workload::Scale100k) => 10,
            (Size::Full, Workload::PaperMedium) => 30,
            (Size::Full, Workload::Chaos3way) => 100,
        }
    }
}

/// Sessions per transport the traced run replays.
pub fn sample(size: Size) -> usize {
    match size {
        Size::Full => 100,
        Size::Tiny => 3,
    }
}

/// Input size: `Full` is the benchmark, `Tiny` exercises the same code
/// paths in seconds for the benchmark's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few sessions per workload.
    Tiny,
}

/// The world a workload runs against, built by [`setup`].
pub enum World {
    /// A bare service (scale-100k).
    Service(Box<PeriscopeService>),
    /// A lab whose service is already built (paper-medium, chaos-3way).
    Lab(Box<Lab>),
}

/// The complete result of a workload's main call.
pub enum Done {
    /// The scale run.
    Scale(Box<ScaleRun>),
    /// Every rendered figure, in registry order.
    Paper(Vec<String>),
    /// The chaos sweep.
    Chaos(ChaosSweep),
}

/// A checked result: sessions simulated, output digest and named checks.
pub struct Checked {
    /// Viewer sessions the main call completed.
    pub sessions: u64,
    /// Digest of the deterministic output.
    pub digest: String,
    /// Named checks and whether each passed.
    pub checks: Vec<(String, bool)>,
}

/// The seed of the `i`-th world of a run: the run's seed itself, then
/// seeds derived from it (SplitMix64 finalizer).
pub fn world_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scale workload's world and run configuration.
pub fn scale_config(size: Size) -> (PopulationConfig, ScaleConfig) {
    let tier =
        tier_by_name(if size == Size::Full { "100k" } else { "10k" }).expect("scale tier exists");
    let pop = PopulationConfig { arrivals_per_sec: tier.arrivals_per_sec, ..Default::default() };
    let cfg = ScaleConfig {
        threads: THREADS,
        target_sessions: if size == Size::Full { tier.default_sessions } else { 40 },
        ..Default::default()
    };
    (pop, cfg)
}

/// The lab configuration of a lab-backed workload.
pub fn lab_config(workload: Workload, size: Size, seed: u64) -> LabConfig {
    let mut cfg = match (workload, size) {
        (Workload::PaperMedium, Size::Full) => LabConfig::medium(seed),
        _ => LabConfig::small(seed),
    };
    cfg.threads = THREADS;
    cfg
}

/// The chaos sweep configuration.
pub fn chaos_config(size: Size, seed: u64) -> ChaosConfig {
    let full = ChaosConfig { threads: THREADS, ..ChaosConfig::small(seed) };
    match size {
        Size::Full => full,
        Size::Tiny => ChaosConfig { sessions: 4, loss_scales: vec![0.0, 1.0], ..full },
    }
}

/// Builds the workload's world: population generation plus service build.
pub fn setup(workload: Workload, size: Size, seed: u64) -> World {
    setup_with(workload, size, seed, false)
}

/// [`setup`], with wall-clock profiling (phase spans) on in the lab.
pub fn setup_with(workload: Workload, size: Size, seed: u64, profile: bool) -> World {
    match workload {
        Workload::Scale100k => {
            let (pop, _) = scale_config(size);
            let population = Population::generate(pop, &RngFactory::new(seed).child("world"));
            World::Service(Box::new(PeriscopeService::new(population, ServiceConfig::default())))
        }
        Workload::PaperMedium | Workload::Chaos3way => {
            let mut cfg = lab_config(workload, size, seed);
            cfg.profile = profile;
            let mut lab = Lab::new(cfg);
            lab.service();
            World::Lab(Box::new(lab))
        }
    }
}

/// The workload's main call.
pub fn run(workload: Workload, size: Size, seed: u64, world: &mut World) -> Done {
    match (workload, world) {
        (Workload::Scale100k, World::Service(svc)) => {
            Done::Scale(Box::new(run_scale(svc, &RngFactory::new(seed), &scale_config(size).1)))
        }
        (Workload::PaperMedium, World::Lab(lab)) => {
            Done::Paper(experiments::all().iter().map(|e| (e.run)(lab).render()).collect())
        }
        (Workload::Chaos3way, World::Lab(lab)) => {
            Done::Chaos(run_chaos(lab, &chaos_config(size, seed)))
        }
        _ => unreachable!("setup builds the world its workload runs on"),
    }
}

/// Renders the census the way `SCALE_report.json` lists it.
fn census_text(run: &ScaleRun) -> String {
    run.census
        .iter()
        .map(|r| format!("{}:{}:{}", r.quadkey, r.broadcasts, r.peak_discoverable))
        .collect::<Vec<_>>()
        .join(",")
}

/// Checks a result. Checks that hold for any seed run always; the digest
/// is compared with the reference only at [`DEFAULT_SEED`] and full size.
pub fn check(workload: Workload, size: Size, seed: u64, world: &mut World, done: &Done) -> Checked {
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut check = |name: &str, pass: bool| checks.push((name.to_string(), pass));
    let (sessions, digest) = match (done, world) {
        (Done::Scale(run), World::Service(svc)) => {
            let s = &run.stats;
            check("sessions = primary + migrated-in", s.sessions == s.primary + s.migrated_in);
            check("sessions ran", s.sessions > 0);
            check("telemetry folded every session", run.telemetry.n_sessions() == s.sessions);
            check("one join and stall sample per session", {
                s.join_us.count() == s.sessions && s.stall_ppm.count() == s.sessions
            });
            check("stall ratios in [0, 1]", s.stall_ppm.max().unwrap_or(0) <= 1_000_000);
            check("never-joined <= sessions", s.never_joined <= s.sessions);
            check("chat conserved", s.chat_out == s.chat_in);
            check("run covers the world", run.broadcasts == svc.population.broadcasts.len());
            check("census covers every broadcast", {
                run.census.iter().map(|r| r.broadcasts).sum::<u64>() == run.broadcasts as u64
                    && census(&svc.population).len() == run.census.len()
            });
            let text = [s.json(), run.telemetry.snapshot_json(), census_text(run)];
            (s.sessions, crate::sys::digest(text.iter().map(String::as_str)))
        }
        (Done::Paper(figures), World::Lab(lab)) => {
            let planned = lab.config.sessions_unlimited
                + lab.config.limits_mbps.len() * lab.config.sessions_per_limit;
            let dataset = lab.session_dataset();
            check("every experiment rendered", {
                figures.len() == experiments::all().len() && figures.iter().all(|f| !f.is_empty())
            });
            check("dataset sessions = planned sessions", dataset.len() == planned);
            check(
                "stall ratios in [0, 1]",
                dataset.sessions.iter().all(|s| (0.0..=1.0).contains(&s.stall_ratio())),
            );
            let never = dataset.sessions.iter().filter(|s| s.player.join_time.is_none()).count();
            check("never-joined <= sessions", never <= dataset.len());
            (dataset.len() as u64, crate::sys::digest(figures.iter().map(String::as_str)))
        }
        (Done::Chaos(sweep), World::Lab(_)) => {
            let cfg = chaos_config(size, seed);
            check(
                "one point per transport and loss scale",
                sweep.points.len() == cfg.transports.len() * cfg.loss_scales.len(),
            );
            check(
                "point sessions = planned sessions",
                sweep.points.iter().all(|p| p.sessions == cfg.sessions),
            );
            check(
                "stall ratios in [0, 1]",
                sweep.points.iter().flat_map(|p| &p.stall_ratios).all(|r| (0.0..=1.0).contains(r)),
            );
            check(
                "never-joined <= sessions",
                sweep.points.iter().all(|p| p.never_joined <= p.sessions),
            );
            check("one SLO report per transport", sweep.slo.len() == cfg.transports.len());
            let sessions = sweep.points.iter().map(|p| p.sessions as u64).sum();
            (sessions, crate::sys::digest([sweep.sweep_json().as_str()]))
        }
        _ => unreachable!("main call result matches its world"),
    };
    if size == Size::Full && seed == DEFAULT_SEED {
        let reference = REFERENCE.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d);
        check("digest matches the reference", reference == Some(digest.as_str()));
    }
    Checked { sessions, digest, checks }
}
