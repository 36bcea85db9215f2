//! Golden wire bytes: every request opcode, both non-default priority
//! nibbles and every response status encode to exactly the bytes pinned in
//! `golden/mod.rs`, and the blocking client puts exactly those bytes on the
//! socket and reads the golden replies back into the golden values.
//!
//! The PROCESS_FRAME request bytes are pinned here through the decoder the
//! server runs; `src/protocol.rs` pins its encoder to the same bytes.

use fractalcloud_core::PipelineConfig;
use fractalcloud_pointcloud::{Point3, PointCloud};
use fractalcloud_serve::protocol::{
    self, status, WireInferRequest, WireInferResponse, WireLodSegment, WireResponse,
    WireStreamChunk, WireStreamEnd, WireStreamOpen, AGG_DELAYED, OP_HEALTH, OP_METRICS,
    OP_PROCESS_FRAME, OP_STREAM_CANCEL, OP_STREAM_CREDIT, OP_TRACE_DUMP,
};
use fractalcloud_serve::{ClientError, EngineHealth, Priority, ServeClient, StreamEvent};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::Duration;

mod golden;
use golden::*;

fn message(kind: u8, payload: &[u8]) -> String {
    let mut buf = Vec::new();
    protocol::encode_message_into(kind, payload, &mut buf);
    hex(&buf)
}

#[test]
fn frame_requests_decode_from_their_golden_bytes() {
    let cases = [
        (FRAME, 0, 0),
        (FRAME_DEADLINE, GOLDEN_DEADLINE_MS, 0),
        (FRAME_DEADLINE_BUDGET, GOLDEN_DEADLINE_MS, GOLDEN_BUDGET),
    ];
    for (golden, deadline_ms, budget) in cases {
        let bytes = unhex(golden);
        assert_eq!(&bytes[0..4], b"FCS1");
        assert_eq!(bytes[4], OP_PROCESS_FRAME);
        assert_eq!(u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize, bytes.len() - 9);
        let decoded = protocol::decode_request_payload(&bytes[9..]).unwrap();
        assert_eq!(decoded, (golden_cloud(), golden_config(), deadline_ms, budget));
    }
    // The priority rides the kind byte only; the payload is unchanged.
    assert_eq!(FRAME_HIGH, message(protocol::request_kind(Priority::High), &payload_of(FRAME)));
    assert_eq!(FRAME_BULK, message(protocol::request_kind(Priority::Bulk), &payload_of(FRAME)));
    assert_eq!(message(protocol::request_kind(Priority::Normal), &payload_of(FRAME)), FRAME);
}

#[test]
fn stream_and_infer_requests_encode_to_their_golden_bytes() {
    let (cloud, config) = (golden_cloud(), golden_config());
    let stream = protocol::encode_stream_request_payload(
        &cloud,
        &config,
        GOLDEN_STREAM_DEADLINE_MS,
        &golden_stream_open(),
    );
    assert_eq!(message(protocol::stream_request_kind(Priority::Normal), &stream), STREAM);
    let infer = protocol::encode_infer_request_payload(&cloud, &golden_infer_request(), 0);
    assert_eq!(message(protocol::infer_request_kind(Priority::Normal), &infer), INFER);
    let infer = protocol::encode_infer_request_payload(
        &cloud,
        &golden_infer_request(),
        GOLDEN_INFER_DEADLINE_MS,
    );
    assert_eq!(message(protocol::infer_request_kind(Priority::Normal), &infer), INFER_DEADLINE);
}

#[test]
fn header_only_requests_encode_to_their_golden_bytes() {
    assert_eq!(message(OP_HEALTH, &[]), HEALTH);
    assert_eq!(message(OP_METRICS, &[]), METRICS);
    assert_eq!(message(OP_TRACE_DUMP, &[]), TRACE_DUMP);
    assert_eq!(message(OP_STREAM_CREDIT, &[]), STREAM_CREDIT);
    assert_eq!(message(OP_STREAM_CANCEL, &[]), STREAM_CANCEL);
}

#[test]
fn responses_encode_to_their_golden_bytes() {
    let mut buf = Vec::new();
    protocol::encode_response_payload_into(&golden_frame_response(), &mut buf);
    assert_eq!(message(status::OK, &buf), FRAME_OK);
    buf.clear();
    protocol::encode_response_payload_into(&golden_degraded_response(), &mut buf);
    assert_eq!(message(status::OK, &buf), FRAME_OK_DEGRADED);
    buf.clear();
    protocol::encode_infer_response_payload_into(&golden_infer_response(), &mut buf);
    assert_eq!(message(status::OK, &buf), INFER_OK);
    buf.clear();
    protocol::encode_stream_chunk_into(&golden_chunk(), &mut buf);
    assert_eq!(message(status::CHUNK, &buf), CHUNK);
    buf.clear();
    protocol::encode_stream_end_into(&golden_stream_end(), &mut buf);
    assert_eq!(message(status::STREAM_END, &buf), STREAM_END);
    let health = protocol::encode_health_payload(&golden_health());
    assert_eq!(message(status::OK, &health), HEALTH_OK);
    assert_eq!(message(status::QUEUE_FULL, GOLDEN_ERROR_REASON.as_bytes()), ERROR_QUEUE_FULL);
}

/// A one-connection stand-in server. For each `(request, reply)` step it
/// reads as many bytes as the golden `request` holds, keeps them, and
/// writes `reply`; the handle yields what it read, step by step.
fn scripted_server(script: Vec<(&'static str, String)>) -> (SocketAddr, JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut seen = Vec::new();
        for (request, reply) in script {
            let mut got = vec![0u8; request.len() / 2];
            if stream.read_exact(&mut got).is_err() {
                break;
            }
            seen.push(hex(&got));
            stream.write_all(&unhex(&reply)).unwrap();
        }
        seen
    });
    (addr, handle)
}

#[test]
fn client_sends_golden_requests_and_reads_golden_replies() {
    let ok_text = |text: &str| message(status::OK, text.as_bytes());
    let script = vec![
        (HEALTH, HEALTH_OK.to_owned()),
        (METRICS, ok_text("fractalcloud_up 1\n")),
        (TRACE_DUMP, ok_text("{}")),
        (INFER, INFER_OK.to_owned()),
        (INFER, ERROR_QUEUE_FULL.to_owned()),
        (STREAM, format!("{CHUNK}{STREAM_END}")),
        (STREAM_CREDIT, String::new()),
        (STREAM_CANCEL, String::new()),
    ];
    let expected: Vec<&str> = script.iter().map(|(request, _)| *request).collect();
    let (addr, server) = scripted_server(script);
    let mut client = ServeClient::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (cloud, config) = (golden_cloud(), golden_config());

    assert_eq!(client.health().unwrap(), golden_health());
    assert_eq!(client.metrics_text().unwrap(), "fractalcloud_up 1\n");
    assert_eq!(client.trace_dump().unwrap(), "{}");
    assert_eq!(client.infer(&cloud, &golden_infer_request()).unwrap(), golden_infer_response());
    match client.infer(&cloud, &golden_infer_request()) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, status::QUEUE_FULL);
            assert_eq!(message, GOLDEN_ERROR_REASON);
        }
        other => panic!("expected a QUEUE_FULL status, got {other:?}"),
    }
    client
        .stream_open(
            &cloud,
            &config,
            Priority::Normal,
            GOLDEN_STREAM_DEADLINE_MS,
            &golden_stream_open(),
        )
        .unwrap();
    assert_eq!(client.stream_next().unwrap(), StreamEvent::Chunk(golden_chunk()));
    client.stream_credit().unwrap();
    client.cancel().unwrap();
    assert_eq!(client.stream_next().unwrap(), StreamEvent::End(golden_stream_end()));

    assert_eq!(server.join().unwrap(), expected);
}
