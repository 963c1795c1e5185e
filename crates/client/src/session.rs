//! One viewing session as a pipeline (DESIGN.md §15).
//!
//! Every stage is shared by RTMP, HLS and SRT except two: *connect* and
//! *deliver*, which are the transports' own ([`rtmp_session`],
//! [`hls_session`], [`srt_session`]). In order:
//!
//! 1. draw the session's RNG streams and the two NTP clocks;
//! 2. connect (only SRT has a handshake, which may fall back to RTMP);
//! 3. record the session start, labelled with the delivering transport;
//! 4. ingest: encode and upload the broadcast, pick the keyframe replay
//!    start and draw the app's bootstrap size;
//! 5. deliver the media and side traffic to the viewer;
//! 6. play it out;
//! 7. tile the join span from the transport's phase boundaries;
//! 8. finish: player events, session end, playbackMeta and the outcome.
//!
//! [`rtmp_session`]: crate::rtmp_session
//! [`hls_session`]: crate::hls_session
//! [`srt_session`]: crate::srt_session

use crate::device::{NetworkSetup, ViewerDevice};
use crate::player::{run_playback, MediaArrival, PlayerConfig, PlayerLog};
use crate::uplink::{Uplink, UplinkConfig};
use crate::{hls_session, rtmp_session, srt_session};
use pscp_media::audio::AudioEncoder;
use pscp_media::bitstream::FrameKind;
use pscp_media::capture::{Capture, FlowKind};
use pscp_media::content::ContentProcess;
use pscp_media::encoder::{EncodedFrame, Encoder, EncoderConfig};
use pscp_obs::{Field, Trace, KBPS_BUCKETS};
use pscp_service::ingest::{assign_server, IngestServer};
use pscp_service::select::Protocol;
use pscp_simnet::fault::LinkFaults;
use pscp_simnet::rng::CounterRng;
use pscp_simnet::{RngFactory, SimDuration, SimTime, WallClock};
use pscp_workload::broadcast::{Broadcast, BroadcastId};

/// Configuration of one automated viewing session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Viewing phone.
    pub device: ViewerDevice,
    /// Network path (tether + optional tc limit).
    pub network: NetworkSetup,
    /// Watch duration — exactly 60 s in the paper's automation.
    pub watch: SimDuration,
    /// Whether the chat pane is enabled (profile-picture traffic). The app
    /// shows chat by default while viewing, and §5.1 blames exactly that
    /// side traffic for the 2 Mbps QoE boundary — so the default is `true`;
    /// the energy experiments toggle it explicitly.
    pub chat_on: bool,
    /// Whether the app caches profile pictures (it did not; toggle exists
    /// for the ablation the paper suggests in §5.3).
    pub picture_cache: bool,
    /// Broadcaster uplink model.
    pub uplink: UplinkConfig,
    /// RTMP player thresholds.
    pub player_rtmp: PlayerConfig,
    /// HLS player thresholds.
    pub player_hls: PlayerConfig,
    /// SRT player thresholds (used only when `transport` forces SRT).
    pub player_srt: PlayerConfig,
    /// Forces the delivery transport instead of letting the service's
    /// viewer-count policy choose. `None` (the default) keeps the paper's
    /// RTMP/HLS selection and leaves the SRT subsystem completely untouched,
    /// so default runs stay byte-identical to a build without it.
    pub transport: Option<Protocol>,
    /// Fault injection (DESIGN.md §8). Default all-off: the session draws
    /// no fault variate and its capture is byte-identical to a fault-free
    /// build.
    pub faults: pscp_simnet::fault::FaultConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            device: ViewerDevice::GalaxyS4,
            network: NetworkSetup::finland_unlimited(),
            watch: SimDuration::from_secs(60),
            chat_on: true,
            picture_cache: false,
            uplink: UplinkConfig::default(),
            player_rtmp: PlayerConfig::rtmp(),
            player_hls: PlayerConfig::hls(),
            player_srt: PlayerConfig::srt(),
            transport: None,
            faults: pscp_simnet::fault::FaultConfig::default(),
        }
    }
}

impl SessionConfig {
    /// The player thresholds a `protocol` session runs.
    pub(crate) fn player(&self, protocol: Protocol) -> PlayerConfig {
        match protocol {
            Protocol::Rtmp => self.player_rtmp,
            Protocol::Hls => self.player_hls,
            Protocol::Srt => self.player_srt,
        }
    }
}

/// The playbackMeta upload the app sends at session end (§2): full stats
/// for RTMP, stall count only for HLS.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackMetaReport {
    /// Stall events.
    pub n_stalls: u32,
    /// Mean stall duration — RTMP only.
    pub avg_stall_time_s: Option<f64>,
    /// Playback latency — RTMP only.
    pub playback_latency_s: Option<f64>,
}

/// Everything one viewing session produces.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Watched broadcast.
    pub broadcast_id: BroadcastId,
    /// Delivery protocol used.
    pub protocol: Protocol,
    /// Viewing phone.
    pub device: ViewerDevice,
    /// `tc` limit in effect, bits/second (None = unlimited).
    pub bandwidth_limit_bps: Option<f64>,
    /// Player QoE log.
    pub player: PlayerLog,
    /// tcpdump-style capture of all downstream traffic.
    pub capture: Capture,
    /// What the app reported to the server at session end.
    pub meta: PlaybackMetaReport,
    /// Viewer count of the broadcast when the session started.
    pub viewers_at_join: u32,
    /// Frame rate actually rendered (stream fps capped by the device).
    pub rendered_fps: f64,
    /// Label of the serving endpoint (ingest hostname or CDN POP).
    pub server: String,
}

impl SessionOutcome {
    /// Join time in seconds, if playback started.
    pub fn join_time_s(&self) -> Option<f64> {
        self.player.join_time.map(|d| d.as_secs_f64())
    }

    /// Stall ratio (see [`PlayerLog::stall_ratio`]).
    pub fn stall_ratio(&self) -> f64 {
        self.player.stall_ratio()
    }
}

/// Encode-side latency on the broadcaster phone (capture → packet out).
const ENCODE_LATENCY: SimDuration = SimDuration::from_millis(120);
/// Small per-message forwarding delay of the RTMP ingest / SRT gateway.
const SERVER_FORWARD: SimDuration = SimDuration::from_millis(5);

/// What one session watches: the broadcast, from when, and how.
#[derive(Clone, Copy)]
pub(crate) struct Viewing<'a> {
    pub broadcast: &'a Broadcast,
    /// When the viewer's media join starts (after an SRT fallback: when
    /// the RTMP connect starts).
    pub join_at: SimTime,
    pub config: &'a SessionConfig,
}

/// What the delivery stage works with besides the media.
pub(crate) struct Ctx<'a> {
    pub v: Viewing<'a>,
    /// The session's RNG namespace seed (per-unit fault streams key on it).
    pub unit_seed: u64,
    /// The broadcast's ingest server.
    pub ingest: IngestServer,
    pub broadcaster_clock: WallClock,
    pub capture_clock: WallClock,
    pub net_rng: CounterRng,
    pub clock_rng: CounterRng,
}

/// A transport after its connect stage.
enum Connection {
    Rtmp(rtmp_session::Connected),
    Hls(hls_session::Connected),
    Srt(srt_session::Connected),
}

/// What a transport's delivery stage hands back to the pipeline.
pub(crate) struct Delivered {
    pub capture: Capture,
    /// Media arrivals at the player, in time order.
    pub arrivals: Vec<MediaArrival>,
    /// Label of the serving endpoint.
    pub server: String,
    /// Join phases in order, as `(end, layer, name)`; see
    /// [`tile_join_spans`].
    pub phases: Vec<(SimTime, &'static str, &'static str)>,
}

/// Runs one `protocol` session: the viewer joins `broadcast` at absolute
/// time `join_at` and watches for `config.watch`.
pub fn run(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
) -> SessionOutcome {
    run_traced(protocol, broadcast, join_at, config, rngs, &mut Trace::disabled())
}

/// [`run`] plus per-session instrumentation into `trace` (no-ops when the
/// trace is disabled; the simulation itself is identical either way —
/// tracing draws no randomness and moves no timestamps).
pub fn run_traced(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    rngs: &RngFactory,
    trace: &mut Trace,
) -> SessionOutcome {
    // 1. Streams and clocks. SRT draws from the RTMP labels on purpose:
    // common random numbers, so an SRT session of a seed sees the exact
    // encoder, uplink and chat draws its RTMP twin would.
    let labels = match protocol {
        Protocol::Hls => ["hls/encoder", "hls/net", "hls/clocks"],
        Protocol::Rtmp | Protocol::Srt => ["rtmp/encoder", "rtmp/net", "rtmp/clocks"],
    };
    let mut enc_rng = rngs.stream(labels[0]);
    let mut net_rng = rngs.stream(labels[1]);
    let mut clock_rng = rngs.stream(labels[2]);
    let broadcaster_clock = WallClock::ntp_synced(&mut clock_rng);
    let capture_clock = WallClock::ntp_synced(&mut clock_rng);
    let ingest = assign_server(&broadcast.location, broadcast.id.0);

    // 2. Connect. A failed SRT handshake falls back to RTMP against the
    // same ingest host, starting when the last attempt gave up.
    let mut v = Viewing { broadcast, join_at, config };
    let mut conn = match protocol {
        Protocol::Rtmp => Connection::Rtmp(rtmp_session::connect(&v, &ingest)),
        Protocol::Hls => Connection::Hls(hls_session::connect(&v)),
        Protocol::Srt => match srt_session::connect(&v, &ingest, rngs.seed(), trace) {
            Ok(hs) => Connection::Srt(hs),
            Err(hs_start) => {
                v.join_at = hs_start;
                Connection::Rtmp(rtmp_session::connect(&v, &ingest))
            }
        },
    };
    let protocol = match &conn {
        Connection::Rtmp(_) => Protocol::Rtmp,
        Connection::Hls(_) => Protocol::Hls,
        Connection::Srt(_) => Protocol::Srt,
    };

    // 3–8. The start, once, under the transport that delivers; the middle
    // stages; the finish.
    let mut outcome = bracket(&v, protocol, trace, |trace| {
        // 4. Ingest.
        let media = ingest_media(
            &v,
            &mut conn,
            &ingest,
            &broadcaster_clock,
            [&mut enc_rng, &mut clock_rng, &mut net_rng],
        );

        // 5. Deliver.
        let mut ctx = Ctx {
            v,
            unit_seed: rngs.seed(),
            ingest,
            broadcaster_clock,
            capture_clock,
            net_rng,
            clock_rng,
        };
        let delivered = match conn {
            Connection::Rtmp(c) => rtmp_session::deliver(&mut ctx, c, &media, trace),
            Connection::Hls(c) => hls_session::deliver(&mut ctx, c, &media, trace),
            Connection::Srt(c) => srt_session::deliver(&mut ctx, c, &media, trace),
        };

        // 6. Playback.
        let log =
            run_playback(v.join_at, config.watch, config.player(protocol), &delivered.arrivals);

        // 7. Join decomposition (paper Fig 11 analogue), under the
        // Teleport session root when one is open.
        if let Some(j) = log.join_time {
            tile_join_spans(trace, v.join_at, v.join_at + j, &delivered.phases);
        }
        (log, delivered.capture, delivered.server)
    });
    // An SRT fallback charges the failed handshake to the join clock, which
    // started at the original join.
    if let Some(j) = outcome.player.join_time {
        outcome.player.join_time = Some(j + v.join_at.saturating_since(join_at));
    }
    outcome
}

/// A session whose app never got through to the service (its Teleport
/// API retries ran out): only the start and finish stages, with
/// an empty capture and a never-joined player, under the transport the
/// session was meant to use.
pub(crate) fn run_unreachable(
    protocol: Protocol,
    broadcast: &Broadcast,
    join_at: SimTime,
    config: &SessionConfig,
    trace: &mut Trace,
) -> SessionOutcome {
    let v = Viewing { broadcast, join_at, config };
    bracket(&v, protocol, trace, |_| {
        let log = run_playback(join_at, config.watch, config.player(protocol), &[]);
        (log, Capture::new(), "unreachable".to_string())
    })
}

/// Stage 3, then `middle` (which returns the player log, the capture and
/// the server label), then stage 8.
fn bracket(
    v: &Viewing<'_>,
    protocol: Protocol,
    trace: &mut Trace,
    middle: impl FnOnce(&mut Trace) -> (PlayerLog, Capture, String),
) -> SessionOutcome {
    trace_session_start(trace, protocol, v);
    let (log, capture, server) = middle(trace);
    finish(v, protocol, log, capture, server, trace)
}

/// A video frame as it reached the ingest server.
pub(crate) struct IngestFrame {
    /// Capture instant on the broadcaster phone.
    pub t_cap: SimTime,
    /// Arrival at the ingest server.
    pub a_in: SimTime,
    pub frame: EncodedFrame,
}

/// An audio frame as it reached the ingest server.
pub(crate) struct IngestAudio {
    /// Arrival at the ingest server.
    pub a_in: SimTime,
    pub pts_ms: u32,
    pub size: usize,
}

/// Player-facing metadata of one video message.
pub(crate) struct FrameMeta {
    /// Media horizon once this frame is in, media-seconds.
    pub media_end_s: f64,
    /// Broadcaster wall-clock capture time, seconds.
    pub capture_wall_s: f64,
}

/// One media message the server pushes, in push order.
pub(crate) enum Pushed<'m> {
    Audio { at: SimTime, pts_ms: u32, size: usize },
    Video { at: SimTime, frame: &'m EncodedFrame, meta: FrameMeta },
}

/// The ingest stage's output.
pub(crate) struct Media {
    /// Stream frame rate.
    pub fps: f64,
    /// End of the simulated horizon.
    pub end: SimTime,
    pub video: Vec<IngestFrame>,
    pub audio: Vec<IngestAudio>,
    /// Replay start: the latest keyframe ingested when the server starts
    /// sending (index into `video`).
    pub start_idx: usize,
    /// Size of the app's bootstrap burst (metadata, thumbnails, chat
    /// backlog), bytes.
    pub bootstrap_bytes: usize,
}

impl Media {
    /// Presentation timestamp of the replay start.
    pub fn first_pts(&self) -> u32 {
        self.video.get(self.start_idx).map(|f| f.frame.pts_ms).unwrap_or(0)
    }

    /// The push server's schedule: from the replay start, each video frame
    /// leaves once it has arrived and sending has begun (`from`), after the
    /// audio due before it; nothing leaves at or after the horizon.
    pub fn push_schedule(
        &self,
        from: SimTime,
        broadcaster_clock: &WallClock,
        mut emit: impl FnMut(Pushed<'_>),
    ) {
        let first_pts = self.first_pts();
        let frame_dur_s = 1.0 / self.fps;
        let audio = &self.audio;
        let mut ai = audio.iter().position(|a| a.pts_ms >= first_pts).unwrap_or(audio.len());
        for f in &self.video[self.start_idx..] {
            let send_at = f.a_in.max(from) + SERVER_FORWARD;
            if send_at >= self.end {
                break;
            }
            while ai < audio.len() && audio[ai].pts_ms <= f.frame.pts_ms {
                let a = &audio[ai];
                ai += 1;
                let at = a.a_in.max(from) + SERVER_FORWARD;
                if at < self.end {
                    emit(Pushed::Audio { at, pts_ms: a.pts_ms, size: a.size });
                }
            }
            emit(Pushed::Video {
                at: send_at,
                frame: &f.frame,
                meta: FrameMeta {
                    media_end_s: (f.frame.pts_ms - first_pts) as f64 / 1000.0 + frame_dur_s,
                    capture_wall_s: broadcaster_clock.read_exact(f.t_cap),
                },
            });
        }
    }
}

/// Stage 4: the broadcaster encodes and uploads over its glitchy mobile
/// uplink; the ingest server picks the replay start (the latest keyframe
/// it holds when sending starts), and the app's bootstrap size is drawn.
/// An HLS connection packages every upload as it arrives instead.
///
/// Draw order: `encoder` (content process, uplink, then per tick the
/// video and audio frames) interleaved with `clocks` (one broadcaster
/// clock read per tick), then one lognormal from `net`.
fn ingest_media(
    v: &Viewing<'_>,
    conn: &mut Connection,
    ingest: &IngestServer,
    broadcaster_clock: &WallClock,
    [enc_rng, clock_rng, net_rng]: [&mut CounterRng; 3],
) -> Media {
    let broadcast = v.broadcast;
    // HLS simulates a longer history so the playlist is warm.
    let (warmup, tail, media_start) = match conn {
        Connection::Hls(_) => (SimDuration::from_secs(25), SimDuration::from_secs(3), None),
        Connection::Rtmp(c) => {
            (SimDuration::from_secs(6), SimDuration::from_secs(2), Some(c.play_cmd_at))
        }
        Connection::Srt(c) => {
            (SimDuration::from_secs(6), SimDuration::from_secs(2), Some(c.data_start))
        }
    };
    let enc_cfg = EncoderConfig {
        fps: broadcast.device.fps(),
        gop: broadcast.device.gop(),
        target_bitrate_bps: broadcast.target_bitrate_bps,
        ..Default::default()
    };
    let fps = enc_cfg.fps;
    let content = ContentProcess::new(broadcast.content, enc_rng);
    let mut encoder = Encoder::new(enc_cfg, content);
    let mut audio_enc = AudioEncoder::new(broadcast.audio);
    let sim_start = v.join_at - warmup;
    let end = v.join_at + v.config.watch + tail;
    let mut uplink = Uplink::draw(&v.config.uplink, sim_start, end, enc_rng);
    let prop_up = broadcast.location.propagation_to(&ingest.location());

    let mut video: Vec<IngestFrame> = Vec::new();
    let mut audio: Vec<IngestAudio> = Vec::new();
    let total_frames = (end.saturating_since(sim_start).as_secs_f64() * fps) as u64;
    let mut next_audio_pts = 0.0;
    for i in 0..total_frames {
        let t_cap = sim_start + SimDuration::from_secs_f64(i as f64 / fps);
        let wall = broadcaster_clock.read(t_cap, clock_rng);
        if let Some(frame) = encoder.next_frame(wall, enc_rng) {
            let sent = uplink.upload(t_cap + ENCODE_LATENCY, frame.bytes.len());
            let f = IngestFrame { t_cap, a_in: sent + prop_up, frame };
            match conn {
                Connection::Hls(c) => c.package_video(&f, broadcaster_clock),
                _ => video.push(f),
            }
        }
        // Audio frames tick at their own 23.22 ms cadence.
        while next_audio_pts <= i as f64 * 1000.0 / fps {
            let af = audio_enc.next_frame(enc_rng);
            match conn {
                // HLS audio skips the uplink: the segmenter takes it as is.
                Connection::Hls(c) => c.package_audio(af.pts_ms, af.size),
                _ => {
                    let t_a = sim_start + SimDuration::from_secs_f64(next_audio_pts / 1000.0);
                    let sent = uplink.upload(t_a + ENCODE_LATENCY, af.size);
                    audio.push(IngestAudio {
                        a_in: sent + prop_up,
                        pts_ms: af.pts_ms,
                        size: af.size,
                    });
                }
            }
            next_audio_pts += pscp_media::audio::frame_duration_ms();
        }
    }

    // Replay start: the latest keyframe already ingested when the server
    // starts sending (else the latest frame), so playback can start
    // immediately.
    let start_idx = media_start
        .and_then(|at| {
            let held = |f: &IngestFrame| f.a_in <= at;
            video
                .iter()
                .rposition(|f| held(f) && f.frame.kind == FrameKind::I)
                .or_else(|| video.iter().rposition(held))
        })
        .unwrap_or(0);

    // App bootstrap: before (and while) the stream starts, the app pulls
    // broadcast metadata, thumbnails and the recent chat backlog. On a fast
    // link this is invisible; under a tc limit it is what makes join times
    // explode (Fig 4a).
    let bootstrap_bytes = pscp_simnet::dist::lognormal(net_rng, (900_000f64).ln(), 0.7)
        .clamp(150_000.0, 4_000_000.0) as usize;
    Media { fps, end, video, audio, start_idx, bootstrap_bytes }
}

/// Stage 3: the session-start instrumentation (subsystems `session` and
/// `shaper`).
fn trace_session_start(trace: &mut Trace, protocol: Protocol, v: &Viewing<'_>) {
    let protocol = match protocol {
        Protocol::Rtmp => "rtmp",
        Protocol::Hls => "hls",
        Protocol::Srt => "srt",
    };
    let tc_limit = v.config.network.tc_limit_bps;
    trace.count("session", "started", 1);
    trace.count("session", protocol, 1);
    if let Some(limit) = tc_limit {
        trace.count("shaper", "limited_sessions", 1);
        trace.observe("shaper", "limit_kbps", &KBPS_BUCKETS, (limit / 1000.0) as u64);
    }
    if trace.is_enabled() {
        let mut fields = vec![
            ("proto", Field::S(protocol.to_string())),
            ("broadcast", Field::U(v.broadcast.id.0)),
            ("viewers", Field::U(v.broadcast.viewers_at(v.join_at) as u64)),
        ];
        if let Some(limit) = tc_limit {
            fields.push(("limit_kbps", Field::U((limit / 1000.0) as u64)));
        }
        trace.event(v.join_at.as_micros(), "session", "session.start", fields);
    }
}

/// Records the join phases as child spans of the innermost open span.
/// Phase `k` runs from the end of phase `k - 1` (the first from `join_at`)
/// to its `end`, clamped so no phase runs backwards or past the first
/// frame; the last phase always ends at `first_frame`. The children
/// therefore tile `[join_at, first_frame]` exactly and sum to the join
/// time.
fn tile_join_spans(
    trace: &mut Trace,
    join_at: SimTime,
    first_frame: SimTime,
    phases: &[(SimTime, &'static str, &'static str)],
) {
    let parent = trace.current_span();
    let mut from = join_at;
    for (i, &(end, layer, name)) in phases.iter().enumerate() {
        let to = if i + 1 == phases.len() { first_frame } else { end.clamp(from, first_frame) };
        trace.span(from.as_micros(), to.as_micros(), layer, name, parent);
        from = to;
    }
}

/// Records a link's injected packet faults and their TCP recovery.
pub(crate) fn record_link_faults(trace: &mut Trace, faults: &LinkFaults) {
    trace.count("fault", "lost_packets", faults.lost);
    trace.count("fault", "latency_spikes", faults.spiked);
    trace.count("recovery", "retransmits", faults.lost);
}

/// Stage 8: the player's events, the session end (a `session.end` event
/// plus capture byte counters), the playbackMeta report and the outcome.
pub(crate) fn finish(
    v: &Viewing<'_>,
    protocol: Protocol,
    log: PlayerLog,
    capture: Capture,
    server: String,
    trace: &mut Trace,
) -> SessionOutcome {
    log.record_events(v.join_at, trace);
    if trace.is_enabled() {
        let kind_bytes = |kind: FlowKind| {
            capture.flows_of_kind(kind).iter().map(|f| f.byte_count()).sum::<usize>() as u64
        };
        trace.count("chat", "bytes", kind_bytes(FlowKind::Chat));
        trace.count("chat", "picture_bytes", kind_bytes(FlowKind::PictureHttp));
        trace.count("net", "capture_bytes", capture.total_bytes() as u64);
        let fields =
            vec![("played_s", Field::F(log.played_s)), ("stalls", Field::U(log.n_stalls() as u64))];
        trace.event((v.join_at + v.config.watch).as_micros(), "session", "session.end", fields);
    }
    // §2: "after an HTTP Live Streaming (HLS) session, the app reports only
    // the number of stall events."
    let full = protocol != Protocol::Hls;
    let meta = PlaybackMetaReport {
        n_stalls: log.n_stalls(),
        avg_stall_time_s: log.avg_stall_s().filter(|_| full),
        playback_latency_s: log.mean_latency_s().filter(|_| full),
    };
    let rendered_fps = rendered_fps(v.broadcast.device.fps(), v.config.device, &log);
    SessionOutcome {
        broadcast_id: v.broadcast.id,
        protocol,
        device: v.config.device,
        bandwidth_limit_bps: v.config.network.tc_limit_bps,
        player: log,
        capture,
        meta,
        viewers_at_join: v.broadcast.viewers_at(v.join_at),
        rendered_fps,
        server,
    }
}

/// Achieved render rate: the stream rate capped by the device, discounted
/// by stall overhead.
fn rendered_fps(stream_fps: f64, device: ViewerDevice, log: &PlayerLog) -> f64 {
    let base = stream_fps.min(device.render_fps_cap());
    let active = log.played_s / log.session_s.max(1e-9);
    base * active.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_setup() {
        let c = SessionConfig::default();
        assert_eq!(c.watch, SimDuration::from_secs(60));
        assert!(c.chat_on, "the app shows chat by default while viewing");
        assert!(!c.picture_cache);
        assert!(c.network.tc_limit_bps.is_none());
        assert!(c.player_hls.initial_buffer_s > c.player_rtmp.initial_buffer_s);
    }
}
