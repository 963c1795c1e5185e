//! The traced run: per-layer metrics from spans around the benchmark's own
//! calls into each layer's public functions.
//!
//! The run times, in order:
//! 1. world generation and service build, as separate calls;
//! 2. the workload's main call untraced (CPU utilisation), then again with
//!    spans around its parts (the difference is the tracing overhead);
//! 3. on paper-medium, one deep and one targeted crawl, per call;
//! 4. a seeded sample of sessions per transport from the workload's own
//!    world and session config, each run untraced and traced, with the
//!    kernels its transport runs re-run on that session's own volume of
//!    frames, bytes and packets.

use crate::sys::{cpu_secs, median, quantile};
use crate::trace::Recorder;
use crate::workloads::{self, Checked, Done, Size, Workload, World, THREADS};
use pscp_client::device::ViewerDevice;
use pscp_client::session::SessionConfig;
use pscp_client::{SessionOutcome, Teleport};
use pscp_core::shard::{census, ShardPlan};
use pscp_core::{experiments, Lab, ScaleConfig};
use pscp_media::capture::{Capture, FlowKind};
use pscp_media::content::ContentProcess;
use pscp_media::encoder::{Encoder, EncoderConfig};
use pscp_media::ts::{TsMuxer, TsUnit};
use pscp_obs::{Observer, Trace};
use pscp_proto::rtmp::{Chunker, Message};
use pscp_proto::srt::{self, DataPacket, Packet};
use pscp_proto::tls::TlsChannel;
use pscp_qoe::slo::{evaluate, SloSpec};
use pscp_qoe::{QoeTelemetry, SessionDataset};
use pscp_service::select::Protocol;
use pscp_service::{PeriscopeService, ServiceConfig};
use pscp_simnet::fault::FaultConfig;
use pscp_simnet::rng::Rng as _;
use pscp_simnet::tcp::INIT_CWND_SEGMENTS;
use pscp_simnet::{DatagramLink, Link, RngFactory, SimDuration, SimTime, TcpModel};
use pscp_workload::broadcast::Broadcast;
use pscp_workload::population::Population;
use std::hint::black_box;
use std::time::Instant;

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Layers whose self time the run reports (span-name prefixes). The
/// benchmark's own `bench.*` spans — the root and the untraced main call —
/// are left out.
pub const LAYERS: [&str; 10] =
    ["workload", "service", "core", "crawler", "client", "media", "proto", "simnet", "qoe", "obs"];

/// Experiments that read retained captures.
const CAPTURE_READERS: [&str; 5] = ["fig5", "fig6a", "fig6b", "table-video", "table-latency"];

/// Sessions per protocol the capture-reading experiments analyse: the
/// private `ANALYSIS_CAP` of `crates/core/src/experiments.rs` (line 356),
/// which `analyzed_reports` applies to `SessionDataset::unlimited`. Keep
/// the two in step.
const ANALYSIS_CAP: usize = 300;

/// UTC hours of the timed crawls: the first deep-crawl hour of fig1a/fig1b
/// and the targeted-crawl hour of fig2a/table-usage.
const DEEP_HOUR: f64 = 2.0;
const TARGETED_HOUR: f64 = 12.0;

/// Encoder frame rate, for the frame volume of a watched session.
const FPS: f64 = 30.0;

/// Frames per HLS segment replayed through the TS muxer (3.6 s at 30 fps).
const SEGMENT_FRAMES: usize = 108;

/// TLS record payload size for the sealing replay.
const TLS_RECORD: usize = 16 * 1024;

/// Path of the network replays: bottleneck rate and one-way delay (TCP
/// round trip twice that).
const REPLAY_BPS: f64 = 10e6;
const REPLAY_ONE_WAY_MS: u64 = 20;

/// The traced run of one workload: per-layer metrics, the checked output
/// of the traced main call, and the Chrome trace text.
pub fn traced_run(workload: Workload, size: Size, seed: u64) -> (Vec<Metric>, Checked, String) {
    let mut rec = Recorder::new(format!("{}-seed{seed}", workload.name()));
    let mut m: Vec<Metric> = Vec::new();
    let root = rec.start("bench.run");

    // 1. Setup, split into its two layers on replicas of the workload's
    // own world configuration.
    let (pop_cfg, svc_cfg) = match workload {
        Workload::Scale100k => (workloads::scale_config(size).0, ServiceConfig::default()),
        _ => {
            let cfg = workloads::lab_config(workload, size, seed);
            (cfg.population, cfg.service)
        }
    };
    let (pop, generate_s) = rec.time("workload.generate", || {
        Population::generate(pop_cfg, &RngFactory::new(seed).child("world"))
    });
    let (svc, build_s) = rec.time("service.build", || PeriscopeService::new(pop, svc_cfg));
    m.push(("workload.generate_s".into(), generate_s, "s"));
    m.push(("service.build_s".into(), build_s, "s"));
    let (plan_s, census_s) = if workload == Workload::Scale100k {
        let shards = ScaleConfig::default().shards;
        let (plan, plan_s) =
            rec.time("core.shard.plan", || ShardPlan::build(&svc.population, shards));
        black_box(plan.memory_bytes());
        let (rows, census_s) = rec.time("core.census", || census(&svc.population));
        black_box(rows.len());
        (plan_s, census_s)
    } else {
        (0.0, 0.0)
    };
    m.push(("core.shard.plan_s".into(), plan_s, "s"));
    m.push(("core.census_s".into(), census_s, "s"));
    drop(svc);

    // 2a. The main call untraced.
    let span = rec.start("bench.untraced_main");
    let mut world = workloads::setup(workload, size, seed);
    let cpu0 = cpu_secs();
    let started = Instant::now();
    let done = workloads::run(workload, size, seed, &mut world);
    let untraced_wall = started.elapsed().as_secs_f64();
    let cpu = cpu_secs() - cpu0;
    drop((done, world));
    rec.end(span);
    m.push(("simnet.par.cpu_util".into(), cpu / (untraced_wall * THREADS as f64), "ratio"));

    // 2b. The main call traced: its parts in spans, lab profiling on.
    let mut world = workloads::setup_with(workload, size, seed, true);
    let span = rec.start("bench.traced_main");
    let done = match (workload, &mut world) {
        (Workload::PaperMedium, World::Lab(lab)) => {
            rec.time("core.dataset", || lab.session_dataset());
            let mut figures = Vec::new();
            for e in experiments::all() {
                let name = format!("core.experiment.{}", e.id);
                figures.push(rec.time(&name, || (e.run)(lab).render()).0);
            }
            Done::Paper(figures)
        }
        (Workload::Scale100k, world) => {
            rec.time("core.run_scale", || workloads::run(workload, size, seed, world)).0
        }
        (_, world) => rec.time("core.run_chaos", || workloads::run(workload, size, seed, world)).0,
    };
    let traced_wall = rec.end(span);
    m.push(("trace_overhead_ratio".into(), (traced_wall - untraced_wall) / untraced_wall, "ratio"));
    let checked = workloads::check(workload, size, seed, &mut world, &done);
    m.push(("core.dataset_s".into(), rec.secs("core.dataset"), "s"));
    for e in experiments::all() {
        let name = format!("core.experiment.{}", e.id);
        m.push((format!("{name}_s"), rec.secs(&name), "s"));
    }
    let analysis_s =
        CAPTURE_READERS.iter().map(|id| rec.secs(&format!("core.experiment.{id}"))).sum();
    m.push(("media.analysis_s".into(), analysis_s, "s"));
    let (idle_s, read_ratio) = match &mut world {
        World::Lab(lab) if workload == Workload::PaperMedium => lab_idle_and_reads(lab),
        _ => (0.0, 0.0),
    };
    m.push(("simnet.par.idle_s".into(), idle_s, "s"));
    m.push(("media.capture_read_ratio".into(), read_ratio, "ratio"));
    drop((done, world));

    // 3. Crawls, timed per call (paper-medium is the only crawling workload).
    crawls(&mut rec, &mut m, workload, size, seed);

    // 4. Session internals on a sample from the workload's world.
    let mut world = workloads::setup(workload, size, seed);
    let svc: &PeriscopeService = match &mut world {
        World::Service(svc) => svc,
        World::Lab(lab) => lab.service(),
    };
    let session = match workload {
        Workload::Scale100k => workloads::scale_config(size).1.session,
        Workload::PaperMedium => SessionConfig::default(),
        Workload::Chaos3way => SessionConfig {
            faults: FaultConfig::chaos(workloads::chaos_config(size, seed).seed, 1.0),
            ..Default::default()
        },
    };
    let draw = match workload {
        Workload::Scale100k => Draw::BroadcastMinute(workloads::scale_config(size).1.shards),
        _ => Draw::Teleport,
    };
    sessions(&mut rec, &mut m, svc, &session, draw, seed, workloads::sample(size));
    drop(world);

    rec.end(root);
    let by_layer = rec.self_secs_by_layer();
    for layer in LAYERS {
        m.push((format!("layer.{layer}.self_s"), by_layer.get(layer).copied().unwrap_or(0.0), "s"));
    }
    (m, checked, rec.chrome_trace())
}

/// Idle worker time of the lab's parallel dataset phases, and the share of
/// retained capture bytes the capture-reading experiments analyse: the
/// flow `analyze_session` dissects (RTMP or HLS-over-HTTP) of each session
/// they select. Bootstrap, chat and picture flows are retained but never
/// read.
fn lab_idle_and_reads(lab: &mut Lab) -> (f64, f64) {
    let idle = lab
        .observer()
        .phases()
        .iter()
        .filter(|p| p.name == "dataset.execute" || p.name == "dataset.sweep")
        .map(|p| p.idle_secs())
        .sum();
    let dataset = lab.session_dataset();
    let retained: usize = dataset.sessions.iter().map(|s| s.capture.total_bytes()).sum();
    let read: usize = [(Protocol::Hls, FlowKind::HlsHttp), (Protocol::Rtmp, FlowKind::Rtmp)]
        .iter()
        .flat_map(|&(p, kind)| {
            dataset.unlimited(p).into_iter().take(ANALYSIS_CAP).map(move |s| (s, kind))
        })
        .filter_map(|(s, kind)| s.capture.flow_of_kind(kind))
        .map(|f| f.byte_count())
        .sum();
    (idle, read as f64 / retained.max(1) as f64)
}

/// One deep and one targeted crawl, each timed as a call.
fn crawls(rec: &mut Recorder, m: &mut Vec<Metric>, workload: Workload, size: Size, seed: u64) {
    let (mut deep_s, mut targeted_s, mut requests, mut limited) = (0.0, 0.0, 0.0, 0.0);
    if workload == Workload::PaperMedium {
        let lab = Lab::new(workloads::lab_config(workload, size, seed));
        let (deep, s) = rec.time("crawler.deep", || lab.deep_crawl_at(DEEP_HOUR));
        deep_s = s;
        let (tc, s) = rec.time("crawler.targeted", || lab.targeted_crawl_at(TARGETED_HOUR));
        targeted_s = s;
        requests = (deep.steps.len() as u32 + tc.rounds) as f64;
        limited = (deep.rate_limited + tc.rate_limited) as f64;
    }
    m.push(("crawler.deep_s".into(), deep_s, "s"));
    m.push(("crawler.targeted_s".into(), targeted_s, "s"));
    m.push(("crawler.api_requests".into(), requests, "count"));
    m.push(("crawler.rate_limited_ratio".into(), limited / requests.max(1.0), "ratio"));
}

/// How the replayed sessions are drawn from the workload's world.
#[derive(Clone, Copy)]
enum Draw {
    /// As `run_scale` draws its arrivals: a uniform discoverable
    /// broadcast-minute of the shard plan with this many shards, then a join
    /// time inside that minute while the broadcast is live.
    BroadcastMinute(usize),
    /// As the lab's dataset draws its sessions: `Teleport::pick`, which
    /// weights live public broadcasts by their viewers.
    Teleport,
}

/// Per-session layer costs of one sampled session, in seconds.
#[derive(Default)]
struct Replay {
    session: f64,
    traced: f64,
    encode: f64,
    mux: f64,
    tls: f64,
    link: f64,
    fold: f64,
    spans: usize,
    capture_bytes: usize,
}

/// Draws `sample` (join time, broadcast) pairs from the service's world.
fn draw_plan<'a>(
    svc: &'a PeriscopeService,
    tp: &Teleport<'a>,
    base: &SessionConfig,
    draw: Draw,
    sample: usize,
) -> Vec<(SimTime, &'a Broadcast)> {
    let mut rng = tp.rngs().stream("plan");
    let pop = &svc.population;
    let mut plan = Vec::with_capacity(sample);
    match draw {
        Draw::BroadcastMinute(shards) => {
            let shard_plan = ShardPlan::build(pop, shards);
            let total = shard_plan.discoverable_broadcast_minutes();
            assert!(total > 0, "the world has discoverable broadcasts");
            while plan.len() < sample {
                let mut k = ((rng.gen::<f64>() * total as f64) as u64).min(total - 1);
                let (m, bi) = shard_plan
                    .cells
                    .iter()
                    .flat_map(|c| (0..shard_plan.minutes).map(move |m| (m, c)))
                    .find_map(|(m, c)| {
                        let list = c.discoverable_at_minute(m);
                        if k < list.len() as u64 {
                            return Some((m, list[k as usize]));
                        }
                        k -= list.len() as u64;
                        None
                    })
                    .expect("index within the discoverable broadcast-minutes");
                let b = &pop.broadcasts[bi as usize];
                // The join rule of `run_scale`: inside the minute, while the
                // broadcast is live with a second to spare.
                let lo = b.start.max(SimTime::from_secs(m as u64 * 60));
                let hi = SimTime::from_micros(b.end().as_micros().saturating_sub(1_000_000))
                    .min(SimTime::from_secs(m as u64 * 60 + 60));
                if hi < lo {
                    continue;
                }
                let span_us = (hi.as_micros() - lo.as_micros()) as f64;
                let join_at =
                    SimTime::from_micros(lo.as_micros() + (span_us * rng.gen::<f64>()) as u64);
                plan.push((join_at, b));
            }
        }
        Draw::Teleport => {
            let window = pop.config.window;
            let latest = window
                .saturating_sub(base.watch + SimDuration::from_secs(40))
                .as_secs_f64()
                .max(60.0);
            while plan.len() < sample {
                let join_at =
                    SimTime::from_micros(((30.0 + rng.gen::<f64>() * latest) * 1e6) as u64);
                if let Some(b) = tp.pick(join_at, &mut rng) {
                    plan.push((join_at, b));
                }
            }
        }
    }
    plan
}

/// Runs `sample` planned sessions per transport untraced and traced, and
/// re-runs the kernels of each session's transport on its own volume.
fn sessions(
    rec: &mut Recorder,
    m: &mut Vec<Metric>,
    svc: &PeriscopeService,
    base: &SessionConfig,
    draw: Draw,
    seed: u64,
    sample: usize,
) {
    let tp = Teleport::new(svc, RngFactory::new(seed).child("perfbench-sample"));
    let plan = draw_plan(svc, &tp, base, draw, sample);
    let obs = Observer::with_flags(true, false);
    let mut lean: Vec<SessionOutcome> = Vec::new();
    let mut all: Vec<Replay> = Vec::new();
    let mut tls = Vec::new();
    for (name, protocol) in
        [("rtmp", Protocol::Rtmp), ("hls", Protocol::Hls), ("srt", Protocol::Srt)]
    {
        let mut times = Vec::with_capacity(plan.len());
        for (i, &(join_at, b)) in plan.iter().enumerate() {
            let cfg = SessionConfig {
                transport: Some(protocol),
                device: if i % 2 == 0 { ViewerDevice::GalaxyS4 } else { ViewerDevice::GalaxyS3 },
                ..base.clone()
            };
            let mut r = Replay::default();
            let (outcome, s) =
                rec.time("client.session", || tp.run_one(b, join_at, &cfg, i as u64));
            r.session = s;
            let mut trace = Trace::new(true);
            let (mut traced, s) = rec.time("obs.traced_session", || {
                tp.run_one_traced(b, join_at, &cfg, i as u64, &mut trace)
            });
            r.traced = s;
            r.spans = trace.spans().len();
            obs.absorb(&format!("{name}/{i}"), trace);
            traced.capture = Capture::new();
            lean.push(traced);
            kernels(rec, &mut r, &outcome, b, protocol, cfg.network.mtu);
            if protocol == Protocol::Rtmp {
                tls.push(r.tls);
            }
            times.push(r.session * 1e3);
            all.push(r);
        }
        m.push((format!("client.session_ms.{name}.p50"), median(&times), "ms"));
        m.push((format!("client.session_ms.{name}.p90"), quantile(&times, 0.9), "ms"));
        m.push((format!("client.session_ms.{name}.n"), times.len() as f64, "count"));
    }
    let mean = |f: fn(&Replay) -> f64| all.iter().map(f).sum::<f64>() / all.len().max(1) as f64;
    m.push(("media.encode_ms_per_session".into(), mean(|r| r.encode) * 1e3, "ms"));
    m.push(("proto.mux_ms_per_session".into(), mean(|r| r.mux) * 1e3, "ms"));
    let tls_mean = tls.iter().sum::<f64>() / tls.len().max(1) as f64;
    m.push(("proto.tls_ms_per_session".into(), tls_mean * 1e3, "ms"));
    m.push(("simnet.link_ms_per_session".into(), mean(|r| r.link) * 1e3, "ms"));
    m.push(("qoe.fold_us_per_session".into(), mean(|r| r.fold) * 1e6, "us"));
    // The RTMPS seal is what a private broadcast would add; the sampled
    // sessions watch public broadcasts and seal nothing, so it is not
    // subtracted here.
    let unattributed = mean(|r| r.session - r.encode - r.mux - r.link - r.fold);
    m.push(("client.unattributed_ms_per_session".into(), unattributed * 1e3, "ms"));
    m.push(("obs.spans_per_session".into(), mean(|r| r.spans as f64), "count"));
    m.push(("obs.trace_ms_per_session".into(), mean(|r| r.traced - r.session) * 1e3, "ms"));
    m.push(("media.capture_mb_per_session".into(), mean(|r| r.capture_bytes as f64) / 1e6, "MB"));

    let dataset = SessionDataset::new(lean);
    let spans = obs.spans();
    let (report, slo_s) = rec
        .time("qoe.slo_eval", || evaluate(&SloSpec::paper(), &dataset, &spans, "perfbench sample"));
    black_box(report.pass());
    m.push(("qoe.slo_eval_s".into(), slo_s, "s"));
}

/// Re-runs the kernels one session's transport runs, on that session's
/// volume (its watched frames, captured bytes and packets):
///
/// | transport | mux | network |
/// |---|---|---|
/// | RTMP | `Chunker` | `Link::enqueue_batch`, every captured packet |
/// | HLS | `TsMuxer` | `TcpModel::transfer`, one per muxed segment |
/// | SRT | `srt::encode_packet`, data packets | `DatagramLink::send` (media), `send_reliable` (app flows) |
///
/// plus the encoder and `QoeTelemetry::fold_outcome` for all three. RTMP
/// sessions also seal their RTMP flow through `TlsChannel`, as RTMPS
/// charges a private broadcast.
fn kernels(
    rec: &mut Recorder,
    r: &mut Replay,
    outcome: &SessionOutcome,
    b: &Broadcast,
    protocol: Protocol,
    mtu: usize,
) {
    let frames = (outcome.player.session_s * FPS).round() as usize;
    let mut krng = RngFactory::new(b.viewer_seed).stream("perfbench-kernels");
    let (encoded, s) = rec.time("media.encode", || {
        let content = ContentProcess::new(b.content, &mut krng);
        let cfg = EncoderConfig { target_bitrate_bps: b.target_bitrate_bps, ..Default::default() };
        let mut enc = Encoder::new(cfg, content);
        (0..frames).filter_map(|i| enc.next_frame(i as f64 / FPS, &mut krng)).collect::<Vec<_>>()
    });
    r.encode = s;

    let one_way = SimDuration::from_millis(REPLAY_ONE_WAY_MS);
    let step = SimDuration::from_millis(10);
    let mut wire: Vec<u8> = Vec::new();
    match protocol {
        Protocol::Rtmp => {
            let msgs: Vec<Message> =
                encoded.into_iter().map(|f| Message::video(f.pts_ms, f.bytes)).collect();
            r.mux = rec
                .time("proto.mux", || {
                    let mut chunker = Chunker::new();
                    for msg in &msgs {
                        chunker.write_ref(msg.as_ref(), &mut wire);
                    }
                })
                .1;
            let sizes: Vec<usize> = outcome
                .capture
                .flows
                .iter()
                .flat_map(|f| f.packets().map(|p| p.payload.len()))
                .collect();
            r.link = rec
                .time("simnet.link", || {
                    let mut link = Link::unbounded(REPLAY_BPS, one_way);
                    let mut t = SimTime::ZERO;
                    let mut delivered = 0u64;
                    for burst in sizes.chunks(100) {
                        t += step;
                        link.enqueue_batch(t, burst.iter().copied(), |d| {
                            delivered += d.time().is_some() as u64;
                        });
                    }
                    black_box(delivered)
                })
                .1;
        }
        Protocol::Hls => {
            let units: Vec<TsUnit> = encoded
                .into_iter()
                .map(|f| TsUnit::Video { pts_ms: f.pts_ms, data: f.bytes })
                .collect();
            let mut segments = Vec::new();
            r.mux = rec
                .time("proto.mux", || {
                    let mut muxer = TsMuxer::new();
                    for seg in units.chunks(SEGMENT_FRAMES) {
                        let start = wire.len();
                        muxer.mux_into(seg.iter().map(TsUnit::as_ref), &mut wire);
                        segments.push(wire.len() - start);
                    }
                })
                .1;
            r.link = rec
                .time("simnet.link", || {
                    let tcp = TcpModel::new(mtu.max(256), one_way * 2, REPLAY_BPS);
                    let mut cwnd = INIT_CWND_SEGMENTS;
                    let mut t = SimTime::ZERO;
                    for (i, &bytes) in segments.iter().enumerate() {
                        t = tcp.transfer(t, bytes, &mut cwnd, i == 0).completion;
                    }
                    black_box(t)
                })
                .1;
        }
        Protocol::Srt => {
            let payload_mtu = mtu.saturating_sub(srt::DATA_HEADER_BYTES).max(128);
            let packets: Vec<Packet> = encoded
                .iter()
                .enumerate()
                .flat_map(|(msg, f)| {
                    f.bytes.chunks(payload_mtu).map(move |c| (msg as u32, f.pts_ms, c))
                })
                .enumerate()
                .map(|(seq, (msg, pts_ms, c))| {
                    Packet::Data(DataPacket {
                        seq: seq as u32,
                        origin_ts_us: pts_ms.wrapping_mul(1000),
                        msg,
                        payload: c.to_vec(),
                    })
                })
                .collect();
            r.mux = rec
                .time("proto.mux", || {
                    for p in &packets {
                        srt::encode_packet(p, &mut wire);
                    }
                })
                .1;
            let sends: Vec<(bool, usize)> = outcome
                .capture
                .flows
                .iter()
                .flat_map(|f| {
                    let media = f.kind == FlowKind::Srt;
                    f.packets().map(move |p| (media, p.payload.len()))
                })
                .collect();
            r.link = rec
                .time("simnet.link", || {
                    let mut link = DatagramLink::unbounded(REPLAY_BPS, one_way);
                    let mut t = SimTime::ZERO;
                    let mut delivered = 0u64;
                    for burst in sends.chunks(100) {
                        t += step;
                        for &(media, bytes) in burst {
                            delivered += if media {
                                link.send(t, bytes).time().is_some()
                            } else {
                                link.send_reliable(t, bytes).time().is_some()
                            } as u64;
                        }
                    }
                    black_box(delivered)
                })
                .1;
        }
    }
    black_box(wire.len());

    r.capture_bytes = outcome.capture.total_bytes();
    if protocol == Protocol::Rtmp {
        let plain: usize =
            outcome.capture.flows_of_kind(FlowKind::Rtmp).iter().map(|f| f.byte_count()).sum();
        let payload = vec![0x5au8; plain];
        r.tls = rec
            .time("proto.tls", || {
                let mut tls = TlsChannel::new(b.viewer_seed);
                let sealed: usize = payload.chunks(TLS_RECORD).map(|c| tls.seal(c).len()).sum();
                black_box(sealed)
            })
            .1;
    }

    r.fold = rec
        .time("qoe.fold", || {
            let mut telemetry = QoeTelemetry::new();
            telemetry.fold_outcome(outcome);
            black_box(telemetry.n_sessions())
        })
        .1;
}
