//! Byte-level pins of whole-session captures. The study artifacts digest
//! what analyses read from a capture (frame sizes, timestamps, flow byte
//! counts), never the payload bytes themselves, so a change to the frame
//! filler or to how a response body is assembled would pass every figure
//! check. These digests cover every byte and timestamp of five sessions,
//! one per delivery path, and were recorded from the serial filler
//! generator and the copy-per-response HTTP encoding.

use periscope_repro::client::session::{run, SessionConfig, SessionOutcome};
use periscope_repro::media::audio::AudioBitrate;
use periscope_repro::media::capture::FlowKind;
use periscope_repro::media::content::ContentClass;
use periscope_repro::service::select::Protocol;
use periscope_repro::simnet::fault::FaultConfig;
use periscope_repro::simnet::{GeoPoint, RngFactory, SimDuration, SimTime};
use periscope_repro::workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};

fn broadcast(seed: u64, avg_viewers: f64, private: bool) -> Broadcast {
    Broadcast {
        id: BroadcastId(seed),
        location: GeoPoint::new(40.71, -74.01),
        city: "New York",
        start: SimTime::from_secs(100),
        duration: SimDuration::from_secs(3600),
        content: ContentClass::SportsTv,
        device: DeviceProfile::Modern,
        audio: AudioBitrate::Kbps64,
        avg_viewers,
        replay_available: false,
        private,
        location_public: !private,
        viewer_seed: seed,
        target_bitrate_bps: 300_000.0,
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a 64 over every flow's kind and server, then every packet's
/// arrival instant, wall timestamp bits and payload; then the player's
/// latency samples, which pin the latency anchors a transport derives
/// from the media it delivers.
fn digest(out: &SessionOutcome) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for flow in &out.capture.flows {
        hash = fnv1a(hash, format!("{:?}", flow.kind).as_bytes());
        hash = fnv1a(hash, flow.server.as_bytes());
        for p in flow.packets() {
            hash = fnv1a(hash, &p.at.as_micros().to_le_bytes());
            hash = fnv1a(hash, &p.wall_ts.to_bits().to_le_bytes());
            hash = fnv1a(hash, p.payload);
        }
    }
    for sample in &out.player.latency_samples {
        hash = fnv1a(hash, &sample.to_bits().to_le_bytes());
    }
    hash
}

/// Runs one 60 s `protocol` session on `b` and checks its digest.
fn check(protocol: Protocol, b: &Broadcast, config: &SessionConfig, want: u64) -> SessionOutcome {
    let rngs = RngFactory::new(b.id.0).child("capture-bytes");
    let out = run(protocol, b, SimTime::from_secs(500), config, &rngs);
    assert_eq!(out.protocol, protocol, "session fell back");
    assert!(out.capture.total_bytes() > 1_000_000, "bytes={}", out.capture.total_bytes());
    assert!(!out.player.latency_samples.is_empty(), "no latency samples");
    let got = digest(&out);
    assert_eq!(got, want, "{} session digest {got:#018x}", protocol.name());
    out
}

#[test]
fn rtmp_public_capture_is_pinned() {
    check(
        Protocol::Rtmp,
        &broadcast(1, 40.0, false),
        &SessionConfig::default(),
        0x1276_3352_d4e0_8363,
    );
}

#[test]
fn rtmps_private_capture_is_pinned() {
    let out = check(
        Protocol::Rtmp,
        &broadcast(2, 40.0, true),
        &SessionConfig::default(),
        0xb878_acad_2f0b_6aed,
    );
    assert!(out.server.starts_with("rtmps://"), "server={}", out.server);
}

#[test]
fn hls_chat_on_capture_is_pinned() {
    let config = SessionConfig { chat_on: true, ..Default::default() };
    let out = check(Protocol::Hls, &broadcast(3, 800.0, false), &config, 0xccfd_f0e4_c85a_f3d6);
    assert!(out.capture.flow_of_kind(FlowKind::PictureHttp).is_some(), "no picture downloads");
}

#[test]
fn srt_forced_capture_is_pinned() {
    let config = SessionConfig { transport: Some(Protocol::Srt), ..Default::default() };
    check(Protocol::Srt, &broadcast(4, 40.0, false), &config, 0x8361_d5ee_8966_128f);
}

#[test]
fn rtmp_chaos_capture_is_pinned() {
    let config = SessionConfig { faults: FaultConfig::chaos(7, 1.0), ..Default::default() };
    check(Protocol::Rtmp, &broadcast(5, 40.0, false), &config, 0xa22d_997d_3f1b_bbab);
}
