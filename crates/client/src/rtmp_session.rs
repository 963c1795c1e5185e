//! RTMP transport: connect and deliver stages of the session pipeline
//! ([`session`](crate::session)).
//!
//! The §3/§5.1 push path: the ingest server pushes every message to the
//! viewer the moment it has it ("The RTMP servers can push the video data
//! directly to viewers right after receiving it from the broadcasting
//! client"); the viewer's tethered phone receives through the optional
//! `tc` shaper, tcpdump records every packet, and the player buffers
//! ~1.6 s before rendering.

use crate::chat_client;
use crate::player::MediaArrival;
use crate::session::{record_link_faults, Ctx, Delivered, FrameMeta, Media, Pushed, Viewing};
use pscp_media::bitstream::FrameKind;
use pscp_media::capture::{Capture, FlowKind};
use pscp_media::flv::{AudioTag, VideoTag};
use pscp_proto::amf::{encode_command, Amf0};
use pscp_proto::rtmp::{
    handshake_c0c1, handshake_s0s1s2, Chunker, Message, MessageRef, MessageType,
};
use pscp_service::ingest::IngestServer;
use pscp_simnet::fault::{self, LinkFaults};
use pscp_simnet::rng::CounterRng;
use pscp_simnet::{BufPool, Link, SimDuration, SimTime};
use std::collections::HashMap;

/// Gap an injected mid-stream RTMP disconnect leaves before the client's
/// reconnect completes (DESIGN.md §8).
const RTMP_RECONNECT_GAP: SimDuration = SimDuration::from_secs(4);

/// An RTMP connection up to the play command.
pub(crate) struct Connected {
    rtt: SimDuration,
    /// When the play command lands and the server starts pushing.
    pub play_cmd_at: SimTime,
}

/// TCP connect + (TLS handshake for private streams) + RTMP handshake.
pub(crate) fn connect(v: &Viewing<'_>, ingest: &IngestServer) -> Connected {
    let rtt = v.config.network.rtt_to(&ingest.location());
    let tls_rtts = if v.broadcast.private { pscp_proto::tls::HANDSHAKE_RTTS as u64 } else { 0 };
    Connected { rtt, play_cmd_at: v.join_at + rtt + rtt / 2 + rtt * tls_rtts }
}

/// One downstream transmission: a range of the session's send arena.
pub(crate) struct Send {
    pub at: SimTime,
    pub flow: usize,
    pub start: usize,
    pub end: usize,
    pub meta: Option<FrameMeta>,
}

/// All outbound bytes of a session live in one arena (`data`); each
/// [`Send`] is a range into it. Sorting by time moves small records, not
/// payloads, and the transmit loop borrows MTU-sized windows straight out
/// of the arena — no per-message or per-packet Vec.
pub(crate) struct Sends {
    pub list: Vec<Send>,
    pub data: Vec<u8>,
}

impl Sends {
    /// Appends a send whose bytes `write` lays down at the arena's end.
    pub fn push(
        &mut self,
        at: SimTime,
        flow: usize,
        meta: Option<FrameMeta>,
        write: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = self.data.len();
        write(&mut self.data);
        self.list.push(Send { at, flow, start, end: self.data.len(), meta });
    }
}

/// The app's own TCP flows beside the media (RTMP and SRT): bootstrap,
/// chat JSON and, with the chat pane on, profile pictures.
pub(crate) struct AppFlows {
    pub chat: usize,
    pics: Option<usize>,
    bootstrap_done: SimTime,
}

impl AppFlows {
    /// Opens the app flows in `capture` and sends the bootstrap burst once
    /// the access link is up.
    pub fn open(capture: &mut Capture, sends: &mut Sends, v: &Viewing<'_>, media: &Media) -> Self {
        let network = &v.config.network;
        let misc = capture.open_flow(FlowKind::AppMisc, "api.periscope.tv");
        let bytes = media.bootstrap_bytes;
        sends.push(v.join_at + network.access_rtt, misc, None, |d| d.resize(d.len() + bytes, 0));
        AppFlows {
            chat: capture.open_flow(FlowKind::Chat, "chatman.periscope.tv"),
            pics: v
                .config
                .chat_on
                .then(|| capture.open_flow(FlowKind::PictureHttp, "s3.amazonaws.com")),
            bootstrap_done: v.join_at
                + network.access_rtt
                + SimDuration::from_secs_f64(bytes as f64 * 8.0 / network.bottleneck_bps()),
        }
    }

    /// Chat + pictures (§5.1: JSON flows even with chat off; pictures only
    /// with chat on). The chat *pane* — and with it the avatar downloads —
    /// only renders once the stream view is up, so picture fetches cannot
    /// precede the app bootstrap finishing; the WebSocket connects earlier.
    pub fn push_chat(&self, sends: &mut Sends, v: &Viewing<'_>, net_rng: &mut CounterRng) {
        let to = v.join_at + v.config.watch;
        for ev in chat_client::events(v.broadcast, v.join_at, to, v.config, net_rng) {
            let (flow, at) = match (ev.kind, self.pics) {
                (FlowKind::Chat, _) => (self.chat, ev.at),
                (FlowKind::PictureHttp, Some(pics)) => (pics, ev.at.max(self.bootstrap_done)),
                _ => continue,
            };
            sends.push(at, flow, None, |d| d.extend_from_slice(&ev.bytes));
        }
    }
}

/// Delivers over one FIFO bottleneck: every transmission (bootstrap,
/// handshake, media, chat, pictures) is merged into send-time order before
/// hitting the shared link, so cross-traffic genuinely delays video — the
/// FIFO contention behind the paper's 2 Mbps QoE boundary.
pub(crate) fn deliver(
    ctx: &mut Ctx<'_>,
    c: Connected,
    media: &Media,
    trace: &mut pscp_obs::Trace,
) -> Delivered {
    let v = ctx.v;
    let (broadcast, join_at, config) = (v.broadcast, v.join_at, v.config);
    let server = &ctx.ingest;
    let (rtt, play_cmd_at, end) = (c.rtt, c.play_cmd_at, media.end);
    if trace.is_enabled() {
        trace.event((join_at + rtt).as_micros(), "rtmp", "rtmp.handshake", vec![]);
        trace.event(play_cmd_at.as_micros(), "rtmp", "rtmp.play_start", vec![]);
    }
    let mut capture = Capture::new();
    let flow_rtmp = capture.open_flow(FlowKind::Rtmp, server.reverse_dns());
    let mut sends = Sends {
        list: Vec::new(),
        data: Vec::with_capacity(
            media.video.iter().map(|f| f.frame.bytes.len() + 32).sum::<usize>()
                + media.audio.iter().map(|a| a.size + 32).sum::<usize>()
                + 64 * 1024,
        ),
    };
    let app = AppFlows::open(&mut capture, &mut sends, &v, media);
    let one_way_down =
        server.location().propagation_to(&config.network.location) + config.network.access_rtt / 2;
    let mut link = Link::unbounded(config.network.bottleneck_bps(), one_way_down);

    // Handshake: S0+S1+S2 arrive right after connect, then the control
    // burst (SetChunkSize + onStatus).
    let c0c1 = handshake_c0c1(0, 0x7e);
    let s_bytes = handshake_s0s1s2(&c0c1, 0).expect("own C0C1 is valid");
    sends.push(join_at + rtt, flow_rtmp, None, |d| d.extend_from_slice(&s_bytes));
    let mut chunker = Chunker::new();
    sends.push(play_cmd_at, flow_rtmp, None, |d| {
        chunker.write(&Message::set_chunk_size(4096), d);
        chunker.write(
            &Message::command(encode_command(
                "onStatus",
                0.0,
                &[
                    Amf0::Null,
                    Amf0::object([("code", Amf0::String("NetStream.Play.Start".into()))]),
                ],
            )),
            d,
        );
    });

    // Media messages: backlog burst + live push, interleaved with audio
    // (chunker state follows the same order the bytes go on the wire).
    // One pooled scratch buffer holds each FLV tag body while the chunker
    // copies it into the arena; it is reused for every message in the
    // session (and recycled across sessions sharing the pool).
    let pool = BufPool::default();
    let mut scratch = pool.take(8 * 1024);
    let first_pts = media.first_pts();
    media.push_schedule(play_cmd_at, &ctx.broadcaster_clock, |pushed| {
        let (at, msg, meta) = match pushed {
            Pushed::Audio { at, pts_ms, size } => {
                scratch.clear();
                AudioTag::encode_into(size, &mut scratch);
                trace.count("rtmp", "audio_msgs", 1);
                (at, (4, pts_ms, MessageType::Audio), None)
            }
            Pushed::Video { at, frame, meta } => {
                // The encoder output *is* the coded frame body: prepend the
                // 5-byte FLV tag header and chunk it directly.
                scratch.clear();
                VideoTag::write_header(
                    frame.kind == FrameKind::I,
                    if frame.kind == FrameKind::B { 33 } else { 0 },
                    &mut scratch,
                );
                scratch.extend_from_slice(&frame.bytes);
                trace.count("rtmp", "video_msgs", 1);
                (at, (6, frame.pts_ms, MessageType::Video), Some(meta))
            }
        };
        let (chunk_stream_id, pts_ms, kind) = msg;
        sends.push(at, flow_rtmp, meta, |d| {
            chunker.write_ref(
                MessageRef {
                    chunk_stream_id,
                    timestamp: pts_ms.saturating_sub(first_pts),
                    kind,
                    stream_id: 1,
                    payload: &scratch,
                },
                d,
            )
        });
    });
    app.push_chat(&mut sends, &v, &mut ctx.net_rng);

    // Private broadcasts travel over RTMPS (§3): the RTMP bytes are sealed
    // in TLS records. The app decrypts them fine (arrival times and media
    // progression are unchanged up to the record overhead), but the
    // tcpdump capture holds only ciphertext — the wall the paper hit,
    // which is why it studied public streams.
    if broadcast.private {
        let mut tls = pscp_proto::tls::TlsChannel::new(broadcast.viewer_seed);
        // Re-build the arena with RTMP ranges sealed (in push order, which
        // is the order the plaintext ranges were laid down — the TLS record
        // sequence must match the chunker byte order).
        let mut sealed = Vec::with_capacity(sends.data.len() + sends.data.len() / 8);
        for send in &mut sends.list {
            let start = sealed.len();
            if send.flow == flow_rtmp {
                let record = tls.seal(&sends.data[send.start..send.end]);
                sealed.extend_from_slice(&record);
            } else {
                sealed.extend_from_slice(&sends.data[send.start..send.end]);
            }
            send.start = start;
            send.end = sealed.len();
        }
        sends.data = sealed;
    }

    // --- fault injection (DESIGN.md §8): deterministic drop windows for
    // mid-stream disconnects and chat drops, plus per-packet link faults
    // during transmission. Every class is gated on its own rate, so with
    // faults off none of this executes and no variate is drawn. ---
    let faults = &config.faults;
    let fault_seed = faults.seed ^ ctx.unit_seed;
    let dc_windows = if faults.rtmp_disconnect_per_min > 0.0 {
        fault::drop_windows(
            fault_seed,
            "rtmp/disconnect",
            join_at,
            end,
            faults.rtmp_disconnect_per_min,
            RTMP_RECONNECT_GAP,
        )
    } else {
        Vec::new()
    };
    if !dc_windows.is_empty() {
        trace.count("fault", "rtmp_disconnects", dc_windows.len() as u64);
        trace.count("recovery", "rtmp_reconnects", dc_windows.len() as u64);
    }
    let chat_windows = chat_client::drop_windows(&v, fault_seed, "rtmp/chat", trace);
    let mut link_faults =
        LinkFaults::active(faults).then(|| LinkFaults::new(faults, ctx.unit_seed, "rtmp/link"));
    // Losses surface as retransmission delay, which can reorder packets
    // relative to the fault-free FIFO; the capture stays per-flow monotone
    // by flooring each arrival at its flow's previous one.
    let mut flow_floor: HashMap<usize, SimTime> = HashMap::new();

    // Merge by send time (stable: equal-time sends keep their push order,
    // which keeps the RTMP chunker byte order intact) and transmit. Per
    // flow, FIFO enqueueing keeps arrival order non-decreasing.
    sends.list.sort_by_key(|s| s.at);
    let mtu = config.network.mtu.max(256);
    // Pre-size the capture: the arena ranges say exactly how many payload
    // bytes each flow records, and chunking bounds the packet count.
    {
        let mut flow_bytes = vec![0usize; capture.flows.len()];
        let mut flow_pkts = vec![0usize; capture.flows.len()];
        for s in &sends.list {
            flow_bytes[s.flow] += s.end - s.start;
            flow_pkts[s.flow] += (s.end - s.start).div_ceil(mtu);
        }
        for (i, f) in capture.flows.iter_mut().enumerate() {
            f.reserve(flow_bytes[i], flow_pkts[i]);
        }
    }
    let mut arrivals: Vec<MediaArrival> = Vec::new();
    for send in &sends.list {
        if (send.flow == flow_rtmp && fault::in_windows(&dc_windows, send.at))
            || (send.flow == app.chat && fault::in_windows(&chat_windows, send.at))
        {
            continue; // the connection is down; these bytes never leave
        }
        let mut last = None;
        let payload = &sends.data[send.start..send.end];
        let mut chunks = payload.chunks(mtu);
        link.enqueue_batch(send.at, payload.chunks(mtu).map(<[u8]>::len), |delivery| {
            let chunk = chunks.next().expect("one chunk per offered size");
            if let Some(arr) = delivery.time() {
                let arr = match link_faults.as_mut() {
                    Some(lf) => {
                        let floor = flow_floor.entry(send.flow).or_insert(SimTime::ZERO);
                        let a = (arr + lf.packet_extra()).max(*floor);
                        *floor = a;
                        a
                    }
                    None => arr,
                };
                let wall = ctx.capture_clock.read(arr, &mut ctx.clock_rng);
                capture.record(send.flow, arr, wall, chunk);
                last = Some(arr);
            }
        });
        if let (Some(meta), Some(arr)) = (send.meta.as_ref(), last) {
            arrivals.push(MediaArrival {
                at: arr,
                media_end_s: meta.media_end_s,
                capture_wall_s: Some(meta.capture_wall_s),
            });
        }
    }
    if let Some(lf) = &link_faults {
        record_link_faults(trace, lf);
    }
    Delivered {
        capture,
        arrivals,
        server: if broadcast.private {
            format!("rtmps://{}", server.hostname())
        } else {
            server.hostname()
        },
        // TCP/TLS/RTMP handshakes until the play command, then buffer fill
        // until first render.
        phases: vec![(play_cmd_at, "rtmp", "rtmp.handshake"), (end, "rtmp", "rtmp.buffering")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{NetworkSetup, ViewerDevice};
    use crate::session::{run, SessionConfig, SessionOutcome};
    use pscp_media::analysis::analyze_rtmp_flow;
    use pscp_media::audio::AudioBitrate;
    use pscp_media::content::ContentClass;
    use pscp_service::select::Protocol;
    use pscp_simnet::GeoPoint;
    use pscp_simnet::RngFactory;
    use pscp_workload::broadcast::Broadcast;
    use pscp_workload::broadcast::{BroadcastId, DeviceProfile};

    fn test_broadcast(seed: u64) -> Broadcast {
        Broadcast {
            id: BroadcastId(seed),
            location: GeoPoint::new(41.01, 28.98), // Istanbul
            city: "Istanbul",
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(1800),
            content: ContentClass::Indoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: 15.0,
            replay_available: true,
            private: false,
            location_public: true,
            viewer_seed: seed,
            target_bitrate_bps: 300_000.0,
        }
    }

    fn run_session(seed: u64, config: SessionConfig) -> SessionOutcome {
        let b = test_broadcast(seed);
        let rngs = RngFactory::new(seed).child("session");
        run(Protocol::Rtmp, &b, SimTime::from_secs(400), &config, &rngs)
    }

    #[test]
    fn unlimited_session_starts_fast_and_mostly_smooth() {
        let mut clean = 0;
        for seed in 0..10 {
            let out = run_session(seed, SessionConfig::default());
            let join = out.join_time_s().expect("playback starts");
            assert!(join < 8.0, "join={join}");
            if out.stall_ratio() < 0.01 {
                clean += 1;
            }
        }
        // Most unthrottled sessions play smoothly (Fig 3a).
        assert!(clean >= 6, "clean={clean}/10");
    }

    #[test]
    fn playback_latency_is_a_few_seconds() {
        let out = run_session(3, SessionConfig::default());
        let lat = out.meta.playback_latency_s.unwrap();
        assert!((1.0..8.0).contains(&lat), "latency={lat}");
    }

    #[test]
    fn tight_bandwidth_stalls() {
        let config = SessionConfig {
            network: NetworkSetup::finland_limited(0.2), // below video bitrate
            ..Default::default()
        };
        let out = run_session(4, config);
        assert!(
            out.stall_ratio() > 0.2 || out.join_time_s().is_none(),
            "ratio={} join={:?}",
            out.stall_ratio(),
            out.join_time_s()
        );
    }

    #[test]
    fn capture_analyzable_end_to_end() {
        let out = run_session(5, SessionConfig::default());
        let flow = out.capture.flow_of_kind(FlowKind::Rtmp).unwrap();
        // Strip the handshake like wireshark does before dissecting.
        let mut stripped = pscp_media::capture::Flow::new(FlowKind::Rtmp, flow.server.clone());
        let mut skipped = 0usize;
        let skip = 1 + 2 * 1536;
        for p in flow.packets() {
            if skipped >= skip {
                stripped.record(p.at, p.wall_ts, p.payload);
            } else if skipped + p.payload.len() > skip {
                let cut = skip - skipped;
                stripped.record(p.at, p.wall_ts, &p.payload[cut..]);
                skipped = skip;
            } else {
                skipped += p.payload.len();
            }
        }
        let report = analyze_rtmp_flow(&stripped).unwrap();
        assert!(report.n_frames > 1000, "frames={}", report.n_frames);
        assert!((100_000.0..600_000.0).contains(&report.bitrate_bps));
        // Delivery latency from NTP stamps: sub-second for RTMP (Fig 5).
        let mean = report.mean_delivery_latency_s().unwrap();
        assert!(mean < 1.5, "delivery latency {mean}");
    }

    #[test]
    fn meta_report_has_rtmp_fields() {
        let out = run_session(6, SessionConfig::default());
        assert!(out.meta.playback_latency_s.is_some());
        assert_eq!(out.protocol, Protocol::Rtmp);
        assert!(out.server.starts_with("vidman-eu-"), "server={}", out.server);
    }

    #[test]
    fn chat_on_adds_picture_traffic() {
        let base = run_session(7, SessionConfig { chat_on: false, ..Default::default() });
        let chatty = run_session(7, SessionConfig::default());
        let pic_bytes = |o: &SessionOutcome| {
            o.capture
                .flows_of_kind(FlowKind::PictureHttp)
                .iter()
                .map(|f| f.byte_count())
                .sum::<usize>()
        };
        assert_eq!(pic_bytes(&base), 0);
        assert!(pic_bytes(&chatty) > 50_000, "pic bytes={}", pic_bytes(&chatty));
        // Chat JSON flows in both cases.
        assert!(base.capture.flow_of_kind(FlowKind::Chat).is_some());
    }

    #[test]
    fn determinism() {
        let a = run_session(8, SessionConfig::default());
        let b = run_session(8, SessionConfig::default());
        assert_eq!(a.player.stalls, b.player.stalls);
        assert_eq!(a.capture.total_bytes(), b.capture.total_bytes());
    }

    #[test]
    fn private_broadcast_capture_is_opaque() {
        let mut b = test_broadcast(31);
        b.private = true;
        let rngs = RngFactory::new(31).child("session");
        let out =
            run(Protocol::Rtmp, &b, SimTime::from_secs(400), &SessionConfig::default(), &rngs);
        assert!(out.server.starts_with("rtmps://"), "server={}", out.server);
        // Playback works: the app has the keys.
        assert!(out.join_time_s().is_some());
        // But the capture cannot be dissected: it is TLS records, not RTMP.
        let flow = out.capture.flow_of_kind(FlowKind::Rtmp).unwrap();
        let report = pscp_media::analysis::analyze_rtmp_flow(flow);
        assert!(report.is_err(), "ciphertext must not parse as RTMP");
        // It is, however, decryptable with the session key, record by
        // record (sizes + timing preserved).
        let mut tls = pscp_proto::tls::TlsChannel::new(b.viewer_seed);
        let stream = flow.byte_stream();
        let plain = tls.open_all(stream).unwrap();
        assert!(plain.len() < stream.len());
    }

    #[test]
    fn s3_renders_slower_than_s4() {
        let s3 =
            run_session(9, SessionConfig { device: ViewerDevice::GalaxyS3, ..Default::default() });
        let s4 = run_session(9, SessionConfig::default());
        assert!(s3.rendered_fps < s4.rendered_fps);
    }
}
