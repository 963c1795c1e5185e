//! SRT transport: connect and deliver stages of the session pipeline
//! ([`session`](crate::session)) — the what-if transport study
//! (DESIGN.md §12).
//!
//! The paper's measured transports are both TCP: RTMP turns packet loss
//! into head-of-line *delay* (a fixed retransmission penalty per lost
//! packet), HLS hides loss behind segment-sized buffers. This module models
//! the third design point — an SRT-style unreliable datagram transport
//! from a gateway on the ingest host, with NAK/ARQ loss recovery bounded
//! by a receiver latency window: a loss is recovered in about one RTT if
//! that still fits the window, and otherwise *dropped and concealed*, so
//! late media never stalls the player the way a TCP retransmit storm does.
//!
//! Everything but connect and deliver is the shared pipeline, so encoder,
//! glitchy uplink, keyframe replay start and player model are RTMP's — the
//! SRT player even runs RTMP buffer thresholds
//! ([`PlayerConfig::srt`](crate::player::PlayerConfig::srt)), so the
//! three-way chaos sweep compares transports, not tuning.
//!
//! Determinism: every random choice comes from labelled streams. The
//! pipeline gives SRT the *RTMP* broadcaster-side labels (`rtmp/encoder`,
//! `rtmp/net`, `rtmp/clocks`) as common random numbers: an SRT session of
//! seed `s` sees the exact encoder, uplink-glitch and chat draws its RTMP
//! counterpart would, so a transport comparison is paired — it measures
//! the transport, not uplink luck. Transport-specific draws stay in their
//! own namespace: `srt/link` (the shared Gilbert–Elliott chain discipline)
//! for datagram fates, `srt/handshake` and `srt/retx` for control-path and
//! retransmission fates — so a session is a pure function of `(seed,
//! fault seed)` and invariant under `PSCP_THREADS`. Retransmission fates in
//! particular are a pure hash of `(seq, attempt)`, never a shared draw
//! sequence, so scaling the loss config cannot shift which retransmits
//! fail. Unlike RTMP and HLS, SRT applies no chat-drop windows.

use crate::player::MediaArrival;
use crate::retry::RetryPolicy;
use crate::rtmp_session::{AppFlows, Sends};
use crate::session::{record_link_faults, Ctx, Delivered, Media, Pushed, Viewing};
use pscp_media::capture::{Capture, FlowKind};
use pscp_proto::srt::{
    self, seq_add, seq_distance, Caller, ControlPacket, Listener, Packet, RecvEvent, RecvTracker,
    RetxEntry, RetxQueue,
};
use pscp_service::ingest::IngestServer;
use pscp_simnet::fault::{FaultRng, GilbertElliott, LinkFaults, LossConfig};
use pscp_simnet::{DatagramLink, SimDuration, SimTime};
use std::collections::HashMap;

/// Sender retransmit-queue occupancy bound, wire bytes. At ~300 kbps this
/// holds several seconds of media — comfortably more than the latency
/// window, so evictions only happen under pathological loss.
const RETX_QUEUE_CAP: usize = 768 * 1024;
/// Retransmission attempts per lost packet (first NAK plus one re-NAK);
/// each failed attempt costs another RTT against the latency window.
const MAX_RETX_ATTEMPTS: u32 = 2;

/// Stationary loss probability of a Gilbert–Elliott config — the marginal
/// rate a single retransmitted packet faces on the same path.
fn stationary_loss(cfg: &LossConfig) -> f64 {
    let denom = cfg.p_good_to_bad + cfg.p_bad_to_good;
    let pi_bad = if denom > 0.0 { cfg.p_good_to_bad / denom } else { 0.0 };
    pi_bad * cfg.p_loss_bad + (1.0 - pi_bad) * cfg.p_loss_good
}

/// A connected SRT session: the winning handshake attempt.
pub(crate) struct Connected {
    rtt: SimDuration,
    /// Start of the winning attempt.
    hs_start: SimTime,
    /// When media starts flowing (two round trips after `hs_start`).
    pub data_start: SimTime,
    /// The downstream handshake packets the capture holds.
    cookie: ControlPacket,
    agreement: ControlPacket,
    initial_seq: u32,
    latency: SimDuration,
}

/// The caller/listener handshake over the lossy control path. `Err`
/// carries the instant the last attempt gave up: the gateway is
/// unreachable at the datagram layer and the app falls back to plain RTMP
/// against the same ingest host, exactly like Teleport's ingest-outage
/// failover — the wait so far is charged to the join clock.
pub(crate) fn connect(
    v: &Viewing<'_>,
    ingest: &IngestServer,
    unit_seed: u64,
    trace: &mut pscp_obs::Trace,
) -> Result<Connected, SimTime> {
    let join_at = v.join_at;
    let rtt = v.config.network.rtt_to(&ingest.location());
    let faults = &v.config.faults;
    let fault_seed = faults.seed ^ unit_seed;
    // Each attempt is four packets on the wire (induction up, cookie down,
    // conclusion up, agreement down); any loss among them times the attempt
    // out and the reconnect policy backs off before the next one. Exactly
    // four fate variates are consumed per attempt, so a scaled loss config
    // fails a superset of attempts. With loss off, no chain exists, no
    // variate is drawn, and the first attempt succeeds in two RTTs.
    let policy = RetryPolicy::reconnect();
    let mut hs_ge = faults.loss.is_active().then(|| {
        GilbertElliott::new(faults.loss, FaultRng::from_label(fault_seed, "srt/handshake"))
    });
    let mut hs_backoff_rng = FaultRng::from_label(fault_seed, "srt/hs-backoff");
    let mut hs_start = join_at;
    let mut attempt: u32 = 1;
    let connected = loop {
        let attempt_lost = match hs_ge.as_mut() {
            Some(ge) => {
                let mut lost = false;
                for _ in 0..4 {
                    lost |= ge.next_lost();
                }
                lost
            }
            None => false,
        };
        if !attempt_lost {
            break true;
        }
        trace.count("fault", "srt_handshake_losses", 1);
        if attempt >= policy.max_attempts {
            break false;
        }
        trace.count("srt", "handshake_retries", 1);
        hs_start += policy.backoff(attempt - 1, &mut hs_backoff_rng);
        attempt += 1;
    };
    if !connected {
        trace.count("recovery", "srt_fallbacks", 1);
        let parent = trace.current_span();
        trace.span(
            join_at.as_micros(),
            hs_start.as_micros(),
            "recovery",
            "recovery.reconnect",
            parent,
        );
        trace.span(
            hs_start.as_micros(),
            hs_start.as_micros(),
            "recovery",
            "recovery.failover",
            parent,
        );
        return Err(hs_start);
    }
    // Drive the real state machines for the winning attempt: the cookie
    // and agreement are the downstream handshake bytes the capture holds.
    let caller_id = (unit_seed as u32) | 1;
    // Drawn from the full sequence space, so sessions routinely start near
    // the 2^32 boundary and the wrap arithmetic is exercised for real.
    let initial_seq = (unit_seed >> 16) as u32;
    let latency_ms = (srt::DEFAULT_LATENCY_US / 1000) as u32;
    let mut caller = Caller::new(caller_id, initial_seq, latency_ms);
    let listener = Listener::new(v.broadcast.id.0 ^ 0x5eed_cafe);
    let induction = caller.next_packet().expect("caller starts inducing");
    let (cookie, _) = listener.on_packet(&induction).expect("own induction is valid");
    let cookie = cookie.expect("induction earns a cookie");
    let conclusion =
        caller.on_packet(&cookie).expect("listener cookie is valid").expect("conclusion follows");
    let (agreement, accepted) = listener.on_packet(&conclusion).expect("own conclusion is valid");
    let agreement = agreement.expect("conclusion earns an agreement");
    caller.on_packet(&agreement).expect("agreement is valid");
    debug_assert!(caller.connected());
    let (initial_seq, latency_ms) = accepted.expect("listener accepted the conclusion");
    Ok(Connected {
        rtt,
        hs_start,
        data_start: hs_start + rtt + rtt,
        cookie,
        agreement,
        initial_seq,
        latency: SimDuration::from_millis(latency_ms as u64),
    })
}

/// Delivers media as datagrams from the gateway with NAK/ARQ recovery;
/// bootstrap, chat and pictures stay on the app's TCP connections (their
/// own queue — the gateway path is provisioned separately; app-path losses
/// surface as delay, exactly like the RTMP session).
pub(crate) fn deliver(
    ctx: &mut Ctx<'_>,
    c: Connected,
    media: &Media,
    trace: &mut pscp_obs::Trace,
) -> Delivered {
    let v = ctx.v;
    let config = v.config;
    let server = &ctx.ingest;
    let (rtt, hs_start, data_start, initial_seq, latency) =
        (c.rtt, c.hs_start, c.data_start, c.initial_seq, c.latency);
    let faults = &config.faults;
    let fault_seed = faults.seed ^ ctx.unit_seed;
    let mut capture = Capture::new();
    let flow_srt = capture.open_flow(FlowKind::Srt, format!("srt-{}", server.hostname()));
    let mut sends = Sends { list: Vec::new(), data: Vec::with_capacity(64 * 1024) };
    let app = AppFlows::open(&mut capture, &mut sends, &v, media);
    let bottleneck = config.network.bottleneck_bps();
    let one_way_down =
        server.location().propagation_to(&config.network.location) + config.network.access_rtt / 2;
    let mut dglink = DatagramLink::unbounded(bottleneck, one_way_down).with_faults(
        faults,
        ctx.unit_seed,
        "srt/link",
    );
    let mut app_faults =
        LinkFaults::active(faults).then(|| LinkFaults::new(faults, ctx.unit_seed, "srt/app"));
    let mut flow_floor: HashMap<usize, SimTime> = HashMap::new();

    // Per-(seq, attempt) retransmission fate: a pure hash against the
    // chain's stationary loss rate, so fates are independent of how many
    // NAKs other loss scales produced.
    let p_retx_loss = stationary_loss(&faults.loss);
    let retx_base = FaultRng::from_label(fault_seed, "srt/retx").next_u64();
    let retx_lost = |seq: u32, att: u32| -> bool {
        if p_retx_loss <= 0.0 {
            return false;
        }
        let key = ((seq as u64) << 8) | att as u64;
        FaultRng::new(retx_base ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15)).chance(p_retx_loss)
    };

    app.push_chat(&mut sends, &v, &mut ctx.net_rng);
    sends.list.sort_by_key(|s| s.at);
    let mtu = config.network.mtu.max(256);

    // --- gateway message schedule: video frames interleaved with audio in
    // PTS order, exactly like the RTMP path. Message bodies live in one
    // arena (audio bodies are opaque zero bytes of the right size). ---
    let mut msgs = Sends {
        list: Vec::new(),
        data: Vec::with_capacity(
            media.video.iter().map(|f| f.frame.bytes.len()).sum::<usize>()
                + media.audio.iter().map(|a| a.size).sum::<usize>(),
        ),
    };
    media.push_schedule(data_start, &ctx.broadcaster_clock, |pushed| match pushed {
        Pushed::Audio { at, size, .. } => {
            msgs.push(at, flow_srt, None, |d| d.resize(d.len() + size, 0))
        }
        Pushed::Video { at, frame, meta } => {
            msgs.push(at, flow_srt, Some(meta), |d| d.extend_from_slice(&frame.bytes))
        }
    });
    let (msg_list, bodies) = (&msgs.list, &msgs.data);

    // --- transmit + NAK/ARQ ---
    //
    // Everything downstream shares one serializer: app TCP segments and
    // media datagrams interleave on the bottleneck in send order, exactly
    // like the RTMP session's single link — the transport comparison must
    // not hand SRT a second pipe for free. Media packets are processed in
    // send order; a loss is a hole the next arrival exposes as a gap, at
    // which point the receiver NAKs the missing ranges and each lost
    // packet either comes back at detect + RTT (bounded by the latency
    // window) or is abandoned — dropped and concealed, never stalled on.
    // Wire bytes live in one arena; media capture records are buffered as
    // ranges and sorted by arrival before recording, because recovered
    // datagrams genuinely arrive out of order (no TCP below to serialize
    // behind).
    struct MsgState {
        remaining: u32,
        latest: SimTime,
        dropped: bool,
    }
    struct PktInfo {
        msg: u32,
        start: usize,
        end: usize,
    }
    enum WireItem {
        App(usize),
        Media(usize),
    }
    let payload_mtu = mtu.saturating_sub(srt::DATA_HEADER_BYTES).max(128);
    let mut wire: Vec<u8> = Vec::with_capacity(
        bodies.len() + (bodies.len() / payload_mtu + 2) * srt::DATA_HEADER_BYTES,
    );
    let mut records: Vec<(SimTime, usize, usize)> = Vec::new();
    let mut states: Vec<MsgState> = msg_list
        .iter()
        .map(|m| MsgState {
            remaining: (m.end - m.start).div_ceil(payload_mtu).max(1) as u32,
            latest: SimTime::ZERO,
            dropped: false,
        })
        .collect();
    let mut pkts: Vec<PktInfo> = Vec::new();
    let mut tracker = RecvTracker::new(initial_seq);
    let mut retxq = RetxQueue::new(RETX_QUEUE_CAP);
    // The merged wire schedule. The stable sort keeps push order on ties
    // (app segments first), and processing media strictly in time order is
    // what gives sequence numbers their on-the-wire meaning.
    let mut schedule: Vec<(SimTime, WireItem)> = sends
        .list
        .iter()
        .enumerate()
        .map(|(i, s)| (s.at, WireItem::App(i)))
        .chain(msg_list.iter().enumerate().map(|(i, m)| (m.at, WireItem::Media(i))))
        .collect();
    schedule.sort_by_key(|&(at, _)| at);

    // Handshake capture: the two downstream control packets.
    for (pkt, at) in
        [(Packet::Control(c.cookie), hs_start + rtt), (Packet::Control(c.agreement), data_start)]
    {
        let start = wire.len();
        srt::encode_packet(&pkt, &mut wire);
        records.push((at, start, wire.len()));
    }

    let mut n_data_packets: u64 = 0;
    let mut n_retransmits: u64 = 0;
    let mut n_late_drops: u64 = 0;
    let mut n_evicted: u64 = 0;
    for (_, item) in &schedule {
        let msg_idx = match item {
            WireItem::App(si) => {
                // A reliable app burst: chunks share the serializer with
                // the media datagrams; losses surface as delay under the
                // per-flow monotone floor, exactly like the RTMP session.
                let send = &sends.list[*si];
                let payload = &sends.data[send.start..send.end];
                for chunk in payload.chunks(mtu) {
                    let Some(arr) = dglink.send_reliable(send.at, chunk.len()).time() else {
                        continue;
                    };
                    let arr = match app_faults.as_mut() {
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
                }
                continue;
            }
            WireItem::Media(mi) => *mi,
        };
        let m = &msg_list[msg_idx];
        let body = &bodies[m.start..m.end];
        let n_chunks = body.len().div_ceil(payload_mtu).max(1) as u32;
        for ci in 0..n_chunks as usize {
            let chunk = &body[ci * payload_mtu..body.len().min((ci + 1) * payload_mtu)];
            let seq = seq_add(initial_seq, pkts.len() as u32);
            // Data header + payload straight into the arena — the same
            // bytes `encode_packet` produces for an owned `DataPacket`,
            // without the per-packet payload Vec.
            let start = wire.len();
            wire.push(0); // TYPE_DATA
            wire.extend_from_slice(&seq.to_be_bytes());
            wire.extend_from_slice(&(m.at.as_micros() as u32).to_be_bytes());
            wire.extend_from_slice(&(msg_idx as u32).to_be_bytes());
            wire.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
            wire.extend_from_slice(chunk);
            let pkt_end = wire.len();
            pkts.push(PktInfo { msg: msg_idx as u32, start, end: pkt_end });
            retxq.push(RetxEntry { seq, bytes: pkt_end - start, origin_ts_us: m.at.as_micros() });
            n_data_packets += 1;
            let Some(arr) = dglink.send(m.at, pkt_end - start).time() else {
                continue; // a hole: a later arrival will expose it
            };
            records.push((arr, start, pkt_end));
            {
                let st = &mut states[msg_idx];
                st.remaining -= 1;
                if arr > st.latest {
                    st.latest = arr;
                }
            }
            let RecvEvent::Gap(ranges) = tracker.on_data(seq) else {
                continue;
            };
            // One NAK packet covers all newly-detected ranges.
            trace.count("srt", "nak_sent", 1);
            trace.span(arr.as_micros(), (arr + rtt / 2).as_micros(), "srt", "srt.nak", None);
            for (range_first, range_last) in ranges {
                for i in 0..=seq_distance(range_first, range_last) {
                    let lost_seq = seq_add(range_first, i);
                    let info_idx = seq_distance(initial_seq, lost_seq) as usize;
                    let lost_msg = pkts[info_idx].msg as usize;
                    let Some(entry) = retxq.get(lost_seq) else {
                        // Evicted from the bounded queue: unrecoverable.
                        tracker.abandon(lost_seq);
                        n_evicted += 1;
                        states[lost_msg].dropped = true;
                        continue;
                    };
                    let mut candidate = arr + rtt;
                    let mut delivered_at = None;
                    for att in 0..MAX_RETX_ATTEMPTS {
                        n_retransmits += 1;
                        if retx_lost(lost_seq, att) {
                            candidate += rtt;
                            continue;
                        }
                        delivered_at = Some(candidate);
                        break;
                    }
                    let recovered = delivered_at.filter(|t_r| {
                        !srt::too_late(entry.origin_ts_us, t_r.as_micros(), latency.as_micros())
                    });
                    match recovered {
                        Some(t_r) => {
                            let ev = tracker.on_data(lost_seq);
                            debug_assert!(matches!(ev, RecvEvent::Recovered));
                            records.push((t_r, pkts[info_idx].start, pkts[info_idx].end));
                            trace.span(
                                arr.as_micros(),
                                t_r.as_micros(),
                                "srt",
                                "srt.retransmit",
                                None,
                            );
                            let st = &mut states[lost_msg];
                            st.remaining -= 1;
                            if t_r > st.latest {
                                st.latest = t_r;
                            }
                        }
                        None => {
                            // Too late for the window (or every retransmit
                            // lost): drop and conceal.
                            tracker.abandon(lost_seq);
                            n_late_drops += 1;
                            let dl = SimTime::from_micros(entry.origin_ts_us + latency.as_micros());
                            trace.span(dl.as_micros(), dl.as_micros(), "srt", "srt.drop", None);
                            states[lost_msg].dropped = true;
                        }
                    }
                }
            }
            retxq.ack_through(tracker.ack_seq());
            trace.sketch("srt", "retx_queue_pkts", retxq.len() as u64);
        }
    }

    // Player feed: a frame plays only if every packet of its message made
    // it (on the wire or via retransmit). Dropped frames — and trailing
    // losses no later arrival could expose — are concealed: the next
    // complete frame's media horizon carries playback over the hole, so a
    // drop skips media instead of stalling.
    let mut n_conceals: u64 = 0;
    let mut arrivals: Vec<MediaArrival> = Vec::new();
    for (m, st) in msg_list.iter().zip(&states) {
        let Some(meta) = &m.meta else { continue };
        if st.dropped || st.remaining > 0 {
            n_conceals += 1;
            continue;
        }
        arrivals.push(MediaArrival {
            at: st.latest,
            media_end_s: meta.media_end_s,
            capture_wall_s: Some(meta.capture_wall_s),
        });
    }
    arrivals.sort_by_key(|a| a.at);

    // Flush the buffered datagram records into the capture in arrival
    // order (the flow index requires monotone times; datagrams reorder).
    records.sort_by_key(|&(at, _, _)| at);
    capture.flows[flow_srt]
        .reserve(records.iter().map(|&(_, s, e)| e - s).sum::<usize>(), records.len());
    for &(at, s, e) in &records {
        let wall = ctx.capture_clock.read(at, &mut ctx.clock_rng);
        capture.record(flow_srt, at, wall, &wire[s..e]);
    }

    trace.count("srt", "data_packets", n_data_packets);
    if n_retransmits > 0 {
        trace.count("srt", "retransmits", n_retransmits);
        trace.count("recovery", "retransmits", n_retransmits);
    }
    if n_late_drops > 0 {
        trace.count("srt", "late_drops", n_late_drops);
    }
    if n_conceals > 0 {
        trace.count("srt", "conceals", n_conceals);
    }
    if n_evicted > 0 {
        trace.count("srt", "retx_evicted", n_evicted);
    }
    if let Some((lost, spiked)) = dglink.fault_counts() {
        trace.count("fault", "lost_packets", lost);
        trace.count("fault", "latency_spikes", spiked);
        // SRT-specific breakdown of the aggregate fault counters, so
        // datagram loss/reorder activity is visible per transport in
        // TRACE_metrics like the RTMP/HLS fault counters already are.
        trace.count("fault", "srt_lost_packets", lost);
        trace.count("fault", "srt_latency_spikes", spiked);
    }
    if dglink.lost_queue > 0 {
        trace.count("fault", "srt_queue_drops", dglink.lost_queue);
    }
    if let Some(lf) = &app_faults {
        record_link_faults(trace, lf);
    }
    if n_data_packets > 0 {
        trace.sketch(
            "srt",
            "late_drop_ppm",
            ((n_late_drops as f64 / n_data_packets as f64) * 1e6).round() as u64,
        );
        // End-of-stream residual depth: the queue only drains on ACKs
        // piggybacked to NAK handling, so on a clean link this is the
        // cap-bounded steady state. Every SRT session observes it once,
        // which keeps the health sketch present even at zero loss; the
        // per-NAK-flush observations above layer on top under loss.
        trace.sketch("srt", "retx_queue_pkts", retxq.len() as u64);
    }

    Delivered {
        capture,
        arrivals,
        server: format!("srt-{}", server.hostname()),
        // Handshake (including retry backoffs) until data starts flowing,
        // then buffer fill until first render.
        phases: vec![(data_start, "srt", "srt.handshake"), (SimTime::MAX, "srt", "srt.buffering")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::NetworkSetup;
    use crate::session::{run, SessionConfig, SessionOutcome};
    use pscp_media::audio::AudioBitrate;
    use pscp_media::content::ContentClass;
    use pscp_service::select::Protocol;
    use pscp_simnet::fault::{FaultConfig, LossConfig};
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
        run(Protocol::Srt, &b, SimTime::from_secs(400), &config, &rngs)
    }

    fn lossy(scale: f64) -> FaultConfig {
        FaultConfig { seed: 99, loss: FaultConfig::chaos(99, scale).loss, ..Default::default() }
    }

    #[test]
    fn unlimited_session_starts_fast_and_mostly_smooth() {
        let mut clean = 0;
        for seed in 0..10 {
            let out = run_session(seed, SessionConfig::default());
            assert_eq!(out.protocol, Protocol::Srt);
            let join = out.join_time_s().expect("playback starts");
            assert!(join < 8.0, "join={join}");
            if out.stall_ratio() < 0.01 {
                clean += 1;
            }
        }
        assert!(clean >= 6, "clean={clean}/10");
    }

    #[test]
    fn capture_holds_decodable_srt_packets() {
        let out = run_session(5, SessionConfig::default());
        let flow = out.capture.flow_of_kind(FlowKind::Srt).unwrap();
        assert!(flow.server.starts_with("srt-"), "server={}", flow.server);
        let mut data_pkts = 0;
        let mut control_pkts = 0;
        for p in flow.packets() {
            match srt::decode_packet(p.payload).expect("every datagram decodes") {
                (Packet::Data(d), used) => {
                    assert_eq!(used, p.payload.len());
                    assert_eq!(used, d.payload.len() + srt::DATA_HEADER_BYTES);
                    data_pkts += 1;
                }
                (Packet::Control(_), _) => control_pkts += 1,
            }
        }
        assert!(data_pkts > 1000, "data packets={data_pkts}");
        assert_eq!(control_pkts, 2, "cookie + agreement");
    }

    #[test]
    fn loss_conceals_instead_of_stalling() {
        // Heavy loss on SRT: frames are dropped/concealed, but the player
        // keeps rendering — stall ratio stays far below the loss rate.
        let out = run_session(7, SessionConfig { faults: lossy(4.0), ..Default::default() });
        assert!(out.join_time_s().is_some(), "joins under loss");
        assert!(out.stall_ratio() < 0.10, "ratio={}", out.stall_ratio());
    }

    #[test]
    fn srt_beats_rtmp_under_loss() {
        // The tentpole claim, at session granularity and *paired* (common
        // random numbers give both transports the identical broadcaster
        // and viewer path): under the full chaos preset at ≥2× loss —
        // marginal Gilbert–Elliott loss ≈ 4.8%, disconnect windows active
        // — SRT's NAK/conceal discipline within its latency window stalls
        // strictly less than RTMP, whose TCP session both inherits the
        // per-loss retransmission delay and goes dark across disconnect
        // windows that a connectionless datagram ingest shrugs off.
        let mut srt_total = 0.0;
        let mut rtmp_total = 0.0;
        for seed in 0..12 {
            let cfg = SessionConfig { faults: FaultConfig::chaos(99, 2.0), ..Default::default() };
            let s = run_session(seed, cfg.clone());
            assert_eq!(s.protocol, Protocol::Srt, "no fallback expected at 2x");
            srt_total += s.stall_ratio();
            let b = test_broadcast(seed);
            let rngs = RngFactory::new(seed).child("session");
            rtmp_total +=
                run(Protocol::Rtmp, &b, SimTime::from_secs(400), &cfg, &rngs).stall_ratio();
        }
        assert!(
            srt_total < rtmp_total,
            "srt stall sum {srt_total} should strictly beat rtmp {rtmp_total}"
        );
        assert!(srt_total < 0.02, "srt conceals rather than stalls: {srt_total}");
    }

    #[test]
    fn handshake_fallback_records_one_session_start() {
        // Every datagram is lost, so every handshake attempt fails and the
        // app falls back to RTMP: one session, started once, as RTMP.
        let always_lost = LossConfig {
            p_loss_good: 1.0,
            p_loss_bad: 1.0,
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
        };
        let cfg = SessionConfig {
            faults: FaultConfig { seed: 99, loss: always_lost, ..Default::default() },
            network: NetworkSetup::finland_limited(2.0),
            ..Default::default()
        };
        let b = test_broadcast(3);
        let rngs = RngFactory::new(3).child("session");
        let mut trace = pscp_obs::Trace::new(true);
        let out = crate::session::run_traced(
            Protocol::Srt,
            &b,
            SimTime::from_secs(400),
            &cfg,
            &rngs,
            &mut trace,
        );
        assert_eq!(out.protocol, Protocol::Rtmp);
        let m = trace.metrics();
        assert_eq!(m.counter("recovery", "srt_fallbacks"), 1);
        assert_eq!(m.counter("session", "started"), 1);
        assert_eq!(m.counter("session", "rtmp"), 1);
        assert_eq!(m.counter("session", "srt"), 0);
        assert_eq!(m.counter("shaper", "limited_sessions"), 1);
        let starts = trace.events().iter().filter(|e| e.name == "session.start").count();
        assert_eq!(starts, 1);
    }

    #[test]
    fn determinism() {
        let run_once = || {
            let out = run_session(8, SessionConfig { faults: lossy(2.0), ..Default::default() });
            (out.player.stalls.clone(), out.player.join_time, out.capture.total_bytes())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn faultless_srt_matches_rtmp_qoe_envelope() {
        // Without faults the transports see the same uplink and bottleneck;
        // SRT's join differs only by handshake shape.
        let out = run_session(9, SessionConfig::default());
        let join = out.join_time_s().unwrap();
        assert!(join < 8.0, "join={join}");
        assert!(out.meta.playback_latency_s.unwrap() < 8.0);
        assert!(out.rendered_fps > 10.0);
    }

    #[test]
    fn tight_bandwidth_still_stalls() {
        // The latency window cannot conjure bandwidth: below the video
        // bitrate SRT degrades too (drops + stalls), like any transport.
        let config =
            SessionConfig { network: NetworkSetup::finland_limited(0.2), ..Default::default() };
        let out = run_session(4, config);
        assert!(
            out.stall_ratio() > 0.1 || out.join_time_s().is_none(),
            "ratio={} join={:?}",
            out.stall_ratio(),
            out.join_time_s()
        );
    }
}
