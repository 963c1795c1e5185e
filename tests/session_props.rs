//! Property tests for the session pipeline (DESIGN.md §15): over random
//! session configs, fault configs and forced transports, every session run
//! through `Teleport::run_one_traced` keeps the invariants the pipeline promises —
//! a join tree whose children tile the root exactly, sane QoE ratios,
//! exactly one recorded session start, and the transport it was asked for
//! unless a documented fallback moved it.

use periscope_repro::client::device::NetworkSetup;
use periscope_repro::client::session::SessionConfig;
use periscope_repro::client::Teleport;
use periscope_repro::obs::Trace;
use periscope_repro::service::select::Protocol;
use periscope_repro::service::{PeriscopeService, ServiceConfig};
use periscope_repro::simnet::fault::FaultConfig;
use periscope_repro::simnet::{RngFactory, SimDuration, SimTime};
use periscope_repro::workload::population::{Population, PopulationConfig};
use pscp_check::{check_with, ensure, Config};
use std::sync::OnceLock;

/// A small world shared by every case.
fn service() -> &'static PeriscopeService {
    static SERVICE: OnceLock<PeriscopeService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let cfg =
            PopulationConfig { window: SimDuration::from_secs(1800), ..PopulationConfig::small() };
        let pop = Population::generate(cfg, &RngFactory::new(2016));
        PeriscopeService::new(pop, ServiceConfig::default())
    })
}

#[derive(Debug)]
struct Case {
    seed: u64,
    transport: Protocol,
    watch_s: u64,
    /// `tc` limit, Mbps (None = unlimited).
    limit_mbps: Option<f64>,
    /// `(fault seed, loss scale)` of a chaos config (None = faults off).
    chaos: Option<(u64, f64)>,
}

fn arb_case(g: &mut pscp_check::Gen) -> Case {
    Case {
        seed: g.u64(..),
        transport: [Protocol::Rtmp, Protocol::Hls, Protocol::Srt][g.choice(3)],
        watch_s: g.u64(10..=60),
        limit_mbps: g.option(|g| g.f64(0.2..=10.0)),
        chaos: g.option(|g| (g.u64(..), g.f64(0.0..=4.0))),
    }
}

#[test]
fn sessions_keep_pipeline_invariants() {
    // Each case simulates one full session, so the budget stays small.
    check_with(Config::with_cases(24), "session/pipeline-invariants", arb_case, |case| {
        let svc = service();
        let tp = Teleport::new(svc, RngFactory::new(case.seed));
        let mut rng = RngFactory::new(case.seed).stream("pick");
        let join_at = SimTime::from_secs(120 + case.seed % 1200);
        let Some(broadcast) = tp.pick(join_at, &mut rng) else {
            return Ok(()); // nothing live at this instant
        };
        let watch = SimDuration::from_secs(case.watch_s);
        let mut config = SessionConfig {
            watch,
            transport: Some(case.transport),
            faults: case.chaos.map(|(s, scale)| FaultConfig::chaos(s, scale)).unwrap_or_default(),
            ..Default::default()
        };
        if let Some(mbps) = case.limit_mbps {
            config.network = NetworkSetup::finland_limited(mbps);
        }
        let mut trace = Trace::new(true);
        let out = tp.run_one_traced(broadcast, join_at, &config, case.seed % 1000, &mut trace);
        let metrics = trace.metrics();

        // Exactly one session start, whatever fallback happened.
        let started = metrics.counter("session", "started");
        ensure!(started == 1, "session/started = {started}");

        // The forced transport, unless a documented fallback moved it:
        // SRT → RTMP (handshake or gateway outage), RTMP → HLS (ingest
        // outage failover).
        let moved = match (case.transport, out.protocol) {
            (asked, got) if asked == got => true,
            (Protocol::Srt, Protocol::Rtmp) => metrics.counter("recovery", "srt_fallbacks") == 1,
            (Protocol::Rtmp, Protocol::Hls) => metrics.counter("recovery", "failovers") == 1,
            _ => false,
        };
        ensure!(moved, "asked for {:?}, got {:?}", case.transport, out.protocol);

        // QoE ratios and watch accounting.
        let ratio = out.stall_ratio();
        ensure!((0.0..=1.0).contains(&ratio), "stall ratio {ratio}");
        let log = &out.player;
        ensure!(log.session_s == watch.as_secs_f64(), "session_s {} != watch", log.session_s);
        ensure!(
            log.played_s <= log.session_s,
            "played {} > session {}",
            log.played_s,
            log.session_s
        );

        // The join tree: the root spans exactly the join time, and its
        // children tile it in integer microseconds.
        let spans = trace.spans();
        let root = spans.iter().find(|s| s.name == "session.join").expect("root span opened");
        let Some(join) = log.join_time else {
            ensure!(!root.is_closed(), "never-joined session closed its root");
            return Ok(());
        };
        ensure!(
            root.end_us - root.start_us == join.as_micros(),
            "root {}..{} vs join time {} µs",
            root.start_us,
            root.end_us,
            join.as_micros()
        );
        let mut children: Vec<_> = spans.iter().filter(|s| s.parent == Some(root.id)).collect();
        children.sort_by_key(|s| (s.start_us, s.end_us));
        let mut at = root.start_us;
        for child in &children {
            ensure!(
                child.start_us == at && child.end_us >= child.start_us,
                "{} spans {}..{}, expected to start at {at}",
                child.name,
                child.start_us,
                child.end_us
            );
            at = child.end_us;
        }
        ensure!(at == root.end_us, "children end at {at}, root at {}", root.end_us);
        Ok(())
    });
}
