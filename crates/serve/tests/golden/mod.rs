//! The golden wire set: one small message per request opcode, priority
//! nibble and response status, with the exact bytes (header included) each
//! one must encode to. The bytes were captured from the encoders and are
//! the compatibility contract: a change here is a wire-format change.
//!
//! Shared by `tests/wire_golden.rs` and the codec table tests in
//! `src/protocol.rs`; the including module brings the protocol types into
//! scope.
#![allow(dead_code)]

use super::*;

/// Three points whose coordinates exercise sign, fraction and magnitude.
pub fn golden_cloud() -> PointCloud {
    PointCloud::from_points(vec![
        Point3::new(0.5, -1.0, 2.25),
        Point3::new(1.0, 0.0, -0.5),
        Point3::new(-3.0, 4.5, 0.125),
    ])
}

pub fn golden_config() -> PipelineConfig {
    PipelineConfig::new(64, 0.5, 0.3, 8)
}

pub const GOLDEN_DEADLINE_MS: u32 = 250;
pub const GOLDEN_BUDGET: u32 = 77;

pub fn golden_stream_open() -> WireStreamOpen {
    WireStreamOpen { first_paint: 64, chunk: 128, credits: 2 }
}

pub const GOLDEN_STREAM_DEADLINE_MS: u32 = 500;

pub fn golden_infer_request() -> WireInferRequest {
    WireInferRequest {
        threshold: 64,
        seed: 0xDEAD_BEEF,
        aggregation: AGG_DELAYED,
        notation: "PN++ (c)".to_owned(),
    }
}

pub const GOLDEN_INFER_DEADLINE_MS: u32 = 750;

pub fn golden_frame_response() -> WireResponse {
    WireResponse {
        sampled_indices: vec![5, 9, 200],
        neighbor_indices: vec![1, 2, 3, 4, 5, 6],
        found: vec![2, 1, 2],
        num: 2,
        blocks: 7,
        cache_hit: true,
        batch_size: 3,
        degraded: false,
        budget_served: 0,
    }
}

pub fn golden_degraded_response() -> WireResponse {
    WireResponse { degraded: true, budget_served: 3, ..golden_frame_response() }
}

pub fn golden_infer_response() -> WireInferResponse {
    WireInferResponse {
        classes: 2,
        cache_hit: true,
        batch_size: 2,
        aggregation: AGG_DELAYED,
        macs_moved: 123_456,
        macs_saved: 987_654,
        gather_bytes: 55_555,
        row_index: vec![7, 31],
        logits: vec![-0.0, 1.5, -3.25, 2.0],
    }
}

pub fn golden_chunk() -> WireStreamChunk {
    WireStreamChunk {
        seq: 2,
        lo: 3,
        hi: 6,
        total: 12,
        blocks: 4,
        num: 2,
        cache_hit: true,
        segments: vec![
            WireLodSegment {
                block: 0,
                sampled: vec![10, 11],
                grouped: vec![1, 2, 3, 4],
                found: vec![2, 1],
            },
            WireLodSegment { block: 3, sampled: vec![40], grouped: vec![9, 9], found: vec![0] },
        ],
    }
}

pub fn golden_stream_end() -> WireStreamEnd {
    WireStreamEnd { chunks: 3, delivered: 6, cancelled: true }
}

pub fn golden_health() -> EngineHealth {
    EngineHealth {
        live: true,
        draining: false,
        overload_level: 2,
        workers_alive: 3,
        workers_configured: 4,
        queued_by_class: [1, 2, 3],
        last_progress_age_ms: 1234,
        worker_panics: 7,
        workers_respawned: 6,
        uptime_ms: 98_765,
        trace_enabled: true,
        trace_capacity: 16_384,
        trace_dropped: 42,
        streams_open: 2,
    }
}

pub const GOLDEN_ERROR_REASON: &str = "admission queue full";

/// Lower-case hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes a lower-case hex string spells.
pub fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

/// The payload of a golden message (everything after the 9-byte header).
pub fn payload_of(message_hex: &str) -> Vec<u8> {
    unhex(message_hex)[9..].to_vec()
}

// Requests.
pub const FRAME: &str =
    "46435331013c00000040000000000000000000e03f9a99993e08000000030000000000003f000080bf000010400000803f00000000000000bf000040c0000090400000003e";
pub const FRAME_DEADLINE: &str =
    "46435331014000000040000000000000000000e03f9a99993e08000000030000000000003f000080bf000010400000803f00000000000000bf000040c0000090400000003efa000000";
pub const FRAME_DEADLINE_BUDGET: &str =
    "46435331014400000040000000000000000000e03f9a99993e08000000030000000000003f000080bf000010400000803f00000000000000bf000040c0000090400000003efa0000004d000000";
pub const FRAME_HIGH: &str =
    "46435331113c00000040000000000000000000e03f9a99993e08000000030000000000003f000080bf000010400000803f00000000000000bf000040c0000090400000003e";
pub const FRAME_BULK: &str =
    "46435331213c00000040000000000000000000e03f9a99993e08000000030000000000003f000080bf000010400000803f00000000000000bf000040c0000090400000003e";
pub const STREAM: &str =
    "46435331064c00000040000000000000000000e03f9a99993e08000000030000000000003f000080bf000010400000803f00000000000000bf000040c0000090400000003ef4010000400000008000000002000000";
pub const INFER: &str =
    "46435331034100000040000000efbeadde000000000208000000504e2b2b20286329030000000000003f000080bf000010400000803f00000000000000bf000040c0000090400000003e";
pub const INFER_DEADLINE: &str =
    "46435331034500000040000000efbeadde000000000208000000504e2b2b20286329030000000000003f000080bf000010400000803f00000000000000bf000040c0000090400000003eee020000";
pub const HEALTH: &str = "464353310200000000";
pub const METRICS: &str = "464353310400000000";
pub const TRACE_DUMP: &str = "464353310500000000";
pub const STREAM_CREDIT: &str = "464353310700000000";
pub const STREAM_CANCEL: &str = "464353310800000000";

// Responses.
pub const FRAME_OK: &str =
    "464353310045000000070000000103000000030000000500000009000000c80000000300000002000000010000000200000003000000040000000500000006000000020000000100000002000000";
pub const FRAME_OK_DEGRADED: &str =
    "464353310049000000070000000103000000030000000500000009000000c8000000030000000200000001000000020000000300000004000000050000000600000002000000010000000200000003000000";
pub const INFER_OK: &str =
    "46435331003e0000000200000001020000000240e201000000000006120f000000000003d900000000000002000000070000001f000000000000800000c03f000050c000000040";
pub const CHUNK: &str =
    "46435331095d0000000200000003000000060000000c0000000400000002000000010200000000000000020000000a0000000b000000010000000200000003000000040000000200000001000000030000000100000028000000090000000900000000000000";
pub const STREAM_END: &str = "464353310a09000000030000000600000001";
pub const HEALTH_OK: &str =
    "4643533100640000000103000000000000000400000000000000010000000000000002000000000000000300000000000000d20400000000000007000000000000000600000000000000cd810100000000000100400000000000002a0000000000000002000000000000000002";
pub const ERROR_QUEUE_FULL: &str = "46435331011400000061646d697373696f6e2071756575652066756c6c";
