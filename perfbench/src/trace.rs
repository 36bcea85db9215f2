//! The traced run: per-layer metrics and the latency stack.
//!
//! A traced run measures an untraced window first (the baseline for
//! `trace.overhead_share` and `net.overhead_us`), then the same op
//! sequence with the flight recorder on, then replays single layers'
//! public functions on the run's own inputs.
//!
//! **Attribution.** The engine's `obs` spans carry the request id minted at
//! admission. A request's time is split into its own `queue_wait`, the
//! execution spans of the batch it rode in (members of one batch share the
//! batch's `batch_fuse` instant; every member waits for the whole batch),
//! and its own wire encode/write spans. Within a batch, overlapping spans
//! from parallel lanes are swept once: each instant goes to the innermost
//! layer active then, so a layer's self-time is its spans minus the part
//! its children cover. Summed over the window and divided by its ops,
//! these are the stack's per-op layer times; `unattributed` is the mean
//! end-to-end latency minus their sum, so the stack adds up to
//! end-to-end by construction.

use crate::host;
use crate::inputs::{infer_model, Workload};
use crate::report::{Metric, Tally};
use crate::run::{finish, Args};
use crate::stats::{mean, median, percentile_or_max, sorted};
use crate::verify::Reference;
use crate::workloads::{in_process_replay, infer_request, Kept, Rig, Window};
use fractalcloud_core::Workspace;
use fractalcloud_obs::{self as obs, SpanEvent, SpanKind};
use fractalcloud_pointcloud::count_alloc::allocation_count;
use fractalcloud_pointcloud::PointCloud;
use fractalcloud_serve::protocol::{self, WireStreamEnd, WireStreamOpen};
use fractalcloud_serve::MetricsSnapshot;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flight-recorder ring capacity (events per recording thread).
pub const RING_CAPACITY: usize = 8192;
/// How often the recorder thread drains the rings during a traced window,
/// so persistent threads never wrap their ring.
const DRAIN_EVERY: Duration = Duration::from_millis(100);
/// Seconds of the in-process replay behind `net.overhead_us`.
const IN_PROCESS_SECONDS: f64 = 3.0;

/// The stack's layers, in the order the serve path runs them.
#[derive(Clone, Copy, Debug)]
pub struct Layers {
    stages: usize,
}

impl Default for Layers {
    fn default() -> Layers {
        Layers::for_model()
    }
}

impl Layers {
    /// Layers for a network of `stages` set-abstraction stages.
    pub fn new(stages: usize) -> Layers {
        Layers { stages: stages.max(1) }
    }

    /// Layers of the benchmark's inference model.
    pub fn for_model() -> Layers {
        Layers::new(infer_model().stages.len())
    }

    /// Number of layers.
    fn len(&self) -> usize {
        9 + self.stages
    }

    /// Index of wire decode (measured by replay: the program has no span).
    pub const WIRE_DECODE: usize = 0;
    const QUEUE: usize = 1;
    const PARTITION: usize = 2;
    const SAMPLE: usize = 3;
    const GROUP: usize = 4;
    const CHUNK: usize = 5;
    const STAGE0: usize = 6;

    fn aggregate(&self) -> usize {
        Layers::STAGE0 + self.stages
    }

    fn encode(&self) -> usize {
        self.aggregate() + 1
    }

    fn write(&self) -> usize {
        self.aggregate() + 2
    }

    /// Metric name of layer `i`'s per-op self-time.
    pub fn name(&self, i: usize) -> String {
        match i {
            Layers::WIRE_DECODE => "net.decode_us".into(),
            Layers::QUEUE => "engine.queue_wait_us".into(),
            Layers::PARTITION => "core.partition_build_us".into(),
            Layers::SAMPLE => "core.block_sample_us".into(),
            Layers::GROUP => "core.block_group_us".into(),
            Layers::CHUNK => "core.chunk_emit_us".into(),
            i if i < self.aggregate() => format!("pnn.stage_mlp_us.s{}", i - Layers::STAGE0),
            i if i == self.aggregate() => "pnn.aggregate_us".into(),
            i if i == self.encode() => "net.wire_encode_us".into(),
            _ => "net.wire_write_us".into(),
        }
    }

    /// The layer a span kind measures.
    fn of(&self, kind: SpanKind, aux: u32) -> Option<usize> {
        Some(match kind {
            SpanKind::QueueWait => Layers::QUEUE,
            SpanKind::PartitionBuild => Layers::PARTITION,
            SpanKind::BlockSample => Layers::SAMPLE,
            SpanKind::BlockGroup => Layers::GROUP,
            SpanKind::ChunkEmit => Layers::CHUNK,
            SpanKind::StageMlp => Layers::STAGE0 + (aux as usize).min(self.stages - 1),
            SpanKind::Aggregate => self.aggregate(),
            SpanKind::WireEncode => self.encode(),
            SpanKind::WireWrite => self.write(),
            _ => return None,
        })
    }

    /// Which layer owns an instant where several execution spans overlap:
    /// the innermost.
    fn precedence(&self, layer: usize) -> u8 {
        match layer {
            l if (Layers::STAGE0..self.aggregate()).contains(&l) => 10,
            l if l == self.aggregate() => 9,
            Layers::CHUNK => 8,
            Layers::GROUP => 7,
            Layers::SAMPLE => 6,
            Layers::PARTITION => 5,
            _ => 0,
        }
    }

    /// True for the layers a request's batch shares (everything between
    /// dequeue and the response handing back to the connection).
    fn is_execution(&self, layer: usize) -> bool {
        self.precedence(layer) > 0
    }
}

/// A span's `(start_us, end_us, layer)`.
type Interval = (u64, u64, usize);

/// Total self-time per layer over a set of drained spans, in µs.
pub fn attribute(events: &[SpanEvent], layers: Layers) -> Vec<f64> {
    let mut totals = vec![0.0; layers.len()];
    let mut by_request: HashMap<u64, Vec<&SpanEvent>> = HashMap::new();
    for e in events {
        if e.request_id == 0 {
            // Spans outside any request context: the stream path's
            // per-chunk wire encode/write, which run on the connection
            // thread between that stream's own chunk jobs.
            if let Some(l) = layers.of(e.kind, e.aux) {
                totals[l] += e.dur_us as f64;
            }
        } else {
            by_request.entry(e.request_id).or_default().push(e);
        }
    }
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Batch {
        Fused { start_us: u64, size: u32 },
        Alone(u64),
    }
    let mut batches: HashMap<Batch, (usize, Vec<Interval>)> = HashMap::new();
    for (&req, evs) in &by_request {
        let batch = evs
            .iter()
            .find(|e| e.kind == SpanKind::BatchFuse)
            .map_or(Batch::Alone(req), |e| Batch::Fused { start_us: e.start_us, size: e.aux });
        let entry = batches.entry(batch).or_default();
        entry.0 += 1;
        for e in evs {
            let Some(l) = layers.of(e.kind, e.aux) else { continue };
            if layers.is_execution(l) {
                entry.1.push((e.start_us, e.start_us + e.dur_us, l));
            } else {
                totals[l] += e.dur_us as f64;
            }
        }
    }
    let mut covered = vec![0.0; layers.len()];
    for (members, spans) in batches.values_mut() {
        covered.iter_mut().for_each(|c| *c = 0.0);
        sweep(spans, layers, &mut covered);
        for (t, c) in totals.iter_mut().zip(&covered) {
            *t += c * *members as f64;
        }
    }
    totals
}

/// Adds to `out[layer]` the time each layer is the innermost active one
/// among `spans` (start, end, layer).
fn sweep(spans: &[Interval], layers: Layers, out: &mut [f64]) {
    let mut edges: Vec<(u64, i32, usize)> = Vec::with_capacity(spans.len() * 2);
    for &(s, e, l) in spans {
        if e > s {
            edges.push((s, 1, l));
            edges.push((e, -1, l));
        }
    }
    edges.sort_unstable_by_key(|&(t, d, _)| (t, d));
    let mut active = vec![0i32; layers.len()];
    let mut prev = 0u64;
    for (t, d, l) in edges {
        if t > prev {
            let top =
                (0..active.len()).filter(|&i| active[i] > 0).max_by_key(|&i| layers.precedence(i));
            if let Some(top) = top {
                out[top] += (t - prev) as f64;
            }
        }
        prev = t;
        active[l] += d;
    }
}

/// Drains the flight recorder in the background for one traced window.
struct Recorder {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<SpanEvent>>,
}

impl Recorder {
    fn start() -> Recorder {
        obs::enable(RING_CAPACITY);
        let _ = obs::drain();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut events = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(DRAIN_EVERY);
                events.extend(obs::drain());
            }
            events
        });
        Recorder { stop, handle }
    }

    fn finish(self) -> Vec<SpanEvent> {
        obs::disable();
        self.stop.store(true, Ordering::SeqCst);
        let mut events = self.handle.join().expect("recorder thread");
        events.extend(obs::drain());
        events
    }
}

/// Median wall time of `reps` calls of `f`, in µs.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Per-op wire figures replayed on the run's own payloads.
#[derive(Default)]
struct Wire {
    decode_us: f64,
    encode_us: f64,
    bytes_in: f64,
    bytes_out: f64,
}

/// Replays `protocol::decode_*` on each frame's request payload and
/// `protocol::encode_*` on its kept answer, weighting frames by how often
/// the traced window sent them.
fn wire_replay(w: Workload, pool: &[Arc<PointCloud>], window: &Window) -> Wire {
    if !w.over_tcp() {
        return Wire::default();
    }
    let per_frame: Vec<Option<Wire>> =
        (0..pool.len()).map(|f| frame_wire(w, &pool[f], &window.kept, f)).collect();
    let mut sum = Wire::default();
    let mut n = 0.0;
    for op in &window.ops {
        if let Some(x) = &per_frame[op.frame] {
            sum.decode_us += x.decode_us;
            sum.encode_us += x.encode_us;
            sum.bytes_in += x.bytes_in + 9.0 * f64::from(op.facts.credits);
            sum.bytes_out += x.bytes_out;
            n += 1.0;
        }
    }
    let n = f64::max(n, 1.0);
    Wire {
        decode_us: sum.decode_us / n,
        encode_us: sum.encode_us / n,
        bytes_in: sum.bytes_in / n,
        bytes_out: sum.bytes_out / n,
    }
}

/// The wire figures of one frame's op: request decode, response encode
/// (every chunk plus the end frame of a stream) and message bytes. `None`
/// when the traced window kept no answer for the frame.
fn frame_wire(w: Workload, cloud: &PointCloud, kept: &Kept, f: usize) -> Option<Wire> {
    let (mut buf, mut msg) = (Vec::new(), Vec::new());
    let mut bytes_out = 0;
    let (payload, encode_us) = match w {
        Workload::ViewerTcp => {
            let chunks = kept.streams[f].as_ref()?;
            let open = WireStreamOpen { first_paint: 0, chunk: 0, credits: 0 };
            let payload = protocol::encode_stream_request_payload(cloud, &w.pipeline(), 0, &open);
            let encode_us = time_us(5, || {
                bytes_out = 0;
                for c in chunks {
                    buf.clear();
                    protocol::encode_stream_chunk_into(black_box(c), &mut buf);
                    msg.clear();
                    protocol::encode_message_into(protocol::status::CHUNK, &buf, &mut msg);
                    bytes_out += msg.len();
                }
            });
            buf.clear();
            let end = WireStreamEnd {
                chunks: chunks.len() as u32,
                delivered: chunks.last().map_or(0, |c| c.hi),
                cancelled: false,
            };
            protocol::encode_stream_end_into(&end, &mut buf);
            bytes_out += 9 + buf.len();
            (payload, encode_us)
        }
        _ => {
            let resp = kept.infers[f].as_ref()?;
            let payload = protocol::encode_infer_request_payload(cloud, &infer_request(), 0);
            let encode_us = time_us(5, || {
                buf.clear();
                protocol::encode_infer_response_payload_into(black_box(resp), &mut buf);
                msg.clear();
                protocol::encode_message_into(protocol::status::OK, &buf, &mut msg);
                bytes_out = msg.len();
            });
            (payload, encode_us)
        }
    };
    let decode_us = time_us(5, || {
        let ok = match w {
            Workload::ViewerTcp => {
                protocol::decode_stream_request_payload(black_box(&payload)).is_ok()
            }
            _ => protocol::decode_infer_request_payload(black_box(&payload)).is_ok(),
        };
        black_box(ok);
    });
    Some(Wire {
        decode_us,
        encode_us,
        bytes_in: (9 + payload.len()) as f64,
        bytes_out: bytes_out as f64,
    })
}

/// Everything a traced run reports, before naming.
#[derive(Clone, Debug, Default)]
pub struct LayerFigures {
    /// The stack's layers.
    pub layers: Layers,
    /// Per-op self-time of each layer, µs (wire decode replayed).
    pub stack: Vec<f64>,
    /// Replayed response encode per op, µs.
    pub encode_us: f64,
    /// Mean wait from a stream's last chunk to its end-of-stream frame, µs.
    pub stream_end_wait_us: f64,
    /// Request bytes per op.
    pub bytes_in: f64,
    /// Response bytes per op.
    pub bytes_out: f64,
    /// TCP latency minus in-process latency of the same op sequence, µs.
    pub overhead_us: f64,
    /// Queue-wait p50 over the window's requests, µs.
    pub queue_wait_p50_us: f64,
    /// Queue-wait p90 (the sample maximum where unsupported), µs.
    pub queue_wait_p90_us: f64,
    /// Requests per executed batch.
    pub mean_batch: f64,
    /// Queue high-water mark.
    pub peak_queue_depth: f64,
    /// Partition-cache hits per lookup.
    pub cache_hit_ratio: f64,
    /// Requests shed in the window.
    pub shed: f64,
    /// Responses browned out in the window.
    pub degraded: f64,
    /// Replayed `parallel_map_budget` over no-op tasks, µs.
    pub fanout_us: f64,
    /// Heap allocations per op, whole process.
    pub allocs_per_op: f64,
    /// `VmHWM` after the traced window, MiB.
    pub peak_rss_mb: f64,
    /// Replayed sequential partition build, µs.
    pub partition_seq_us: f64,
    /// Replayed parallel partition build, µs.
    pub partition_par_us: f64,
    /// Leaf blocks per frame.
    pub blocks_per_frame: f64,
    /// Sampling distance evaluations per op.
    pub sample_dist_evals: f64,
    /// Grouping distance evaluations per op.
    pub group_dist_evals: f64,
    /// In-radius hits per neighbor slot.
    pub ball_fill_ratio: f64,
    /// Chunks per stream.
    pub chunks_per_stream: f64,
    /// Stage-MLP MACs per op.
    pub macs_per_op: f64,
    /// Stage-MLP MACs per second of stage-MLP span, in GMAC/s.
    pub mlp_gmacs: f64,
    /// Mean traced end-to-end latency, µs.
    pub e2e_us: f64,
    /// End-to-end minus the sum of the stack, µs.
    pub unattributed_us: f64,
    /// Traced p50 over untraced p50, minus one.
    pub overhead_share: f64,
}

impl LayerFigures {
    /// All-zero figures (the names are what tests need).
    pub fn new(layers: Layers) -> LayerFigures {
        LayerFigures { layers, stack: vec![0.0; layers.len()], ..LayerFigures::default() }
    }

    /// Prints the stack: each layer's per-op self-time, `unattributed`,
    /// and the end-to-end latency they add up to.
    pub fn print_stack(&self, w: Workload, ops: usize) {
        let share = |v: f64| 100.0 * v / self.e2e_us.max(1e-9);
        println!("stack {} (mean per op over {ops} traced ops, us):", w.name());
        for (i, &v) in self.stack.iter().enumerate() {
            let note = if i == Layers::WIRE_DECODE { "  (replayed decode)" } else { "" };
            println!("  {:<28} {v:>12.1} {:>6.1}%{note}", self.layers.name(i), share(v));
        }
        let u = self.unattributed_us;
        println!("  {:<28} {u:>12.1} {:>6.1}%", "unattributed", share(u));
        println!(
            "  {:<28} {:>12.1}  (layers + unattributed = {:.1})",
            "end-to-end",
            self.e2e_us,
            self.stack.iter().sum::<f64>() + u
        );
    }

    /// The per-layer metrics, named as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m: Vec<Metric> = self
            .stack
            .iter()
            .enumerate()
            .map(|(i, &v)| Metric::new(self.layers.name(i), "us", v))
            .collect();
        m.extend([
            Metric::new("net.encode_us", "us", self.encode_us),
            Metric::new("net.stream_end_wait_us", "us", self.stream_end_wait_us),
            Metric::new("net.bytes_in", "bytes", self.bytes_in),
            Metric::new("net.bytes_out", "bytes", self.bytes_out),
            Metric::new("net.overhead_us", "us", self.overhead_us),
            Metric::new("engine.queue_wait_p50_us", "us", self.queue_wait_p50_us),
            Metric::new("engine.queue_wait_p90_us", "us", self.queue_wait_p90_us),
            Metric::new("engine.mean_batch", "count", self.mean_batch),
            Metric::new("engine.peak_queue_depth", "count", self.peak_queue_depth),
            Metric::new("engine.cache_hit_ratio", "ratio", self.cache_hit_ratio),
            Metric::new("engine.shed", "count", self.shed),
            Metric::new("engine.degraded", "count", self.degraded),
            Metric::new("parallel.fanout_us", "us", self.fanout_us),
            Metric::new("process.allocs_per_op", "count", self.allocs_per_op),
            Metric::new("process.peak_rss_mb", "MiB", self.peak_rss_mb),
            Metric::new("core.partition_build_seq_us", "us", self.partition_seq_us),
            Metric::new("core.partition_build_par_us", "us", self.partition_par_us),
            Metric::new("core.blocks_per_frame", "count", self.blocks_per_frame),
            Metric::new("core.sample_dist_evals", "count", self.sample_dist_evals),
            Metric::new("core.group_dist_evals", "count", self.group_dist_evals),
            Metric::new("core.ball_fill_ratio", "ratio", self.ball_fill_ratio),
            Metric::new("core.chunks_per_stream", "count", self.chunks_per_stream),
            Metric::new("pnn.macs_per_op", "count", self.macs_per_op),
            Metric::new("pnn.mlp_gmacs", "GMAC/s", self.mlp_gmacs),
            Metric::new("trace.e2e_us", "us", self.e2e_us),
            Metric::new("trace.unattributed_us", "us", self.unattributed_us),
            Metric::new(
                "trace.unattributed_share",
                "ratio",
                self.unattributed_us / self.e2e_us.max(1e-9),
            ),
            Metric::new("trace.overhead_share", "ratio", self.overhead_share),
        ]);
        m
    }
}

/// Runs the traced benchmark; returns the exit code.
pub fn run(args: &Args, pool: &[Arc<PointCloud>], reference: &Reference) -> i32 {
    let w = args.workload;
    let layers = Layers::for_model();
    let half = args.seconds / 2.0;
    let mut rig = Rig::start(w, pool, reference);

    // Untraced baseline of the same op sequence.
    let mut plain = rig.run(w, pool, args.seed, half, false);
    let mut wrong = plain.verify(reference);

    // Traced window.
    let m0 = rig.engine.metrics();
    let dropped0 = obs::status().dropped;
    let alloc0 = allocation_count();
    let recorder = Recorder::start();
    let mut traced = rig.run(w, pool, args.seed, half, true);
    let events = recorder.finish();
    let allocs = allocation_count() - alloc0;
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let dropped = obs::status().dropped - dropped0;
    let m1 = rig.engine.metrics();
    wrong += traced.verify(reference);

    // Replays, untraced.
    let budget = rig.engine.config().thread_budget;
    let in_process = if w.over_tcp() {
        in_process_replay(w, &rig.engine, pool, args.seed, IN_PROCESS_SECONDS)
    } else {
        Vec::new()
    };
    rig.shutdown();
    let wire = wire_replay(w, pool, &traced);
    let ops = traced.ops.len().max(1) as f64;
    let facts: Vec<_> = traced.ops.iter().map(|o| reference.facts(o.frame)).collect();
    let blocks = mean(&facts.iter().map(|f| f.blocks as f64).collect::<Vec<_>>());
    let (seq_us, par_us) = partition_replay(w, pool, &traced);
    let fanout_us = time_us(101, || {
        let tasks = vec![0u8; blocks.round().max(1.0) as usize];
        black_box(fractalcloud_parallel::parallel_map_budget(tasks, budget, |_, t| black_box(t)));
    });

    // Attribution.
    let totals = attribute(&events, layers);
    let mut stack: Vec<f64> = totals.iter().map(|t| t / ops).collect();
    stack[Layers::WIRE_DECODE] = wire.decode_us;
    let ok_lat: Vec<f64> = traced.ops.iter().filter(|o| o.ok()).map(|o| o.latency_us).collect();
    let e2e_us = mean(&ok_lat);
    let unattributed = e2e_us - stack.iter().sum::<f64>();
    let plain_lat: Vec<f64> = plain.ops.iter().filter(|o| o.ok()).map(|o| o.latency_us).collect();

    let queue_waits =
        sorted(events.iter().filter(|e| e.kind == SpanKind::QueueWait).map(|e| e.dur_us as f64));
    let (qw50, _) = percentile_or_max(&queue_waits, 500);
    let (qw90, qw90_supported) = percentile_or_max(&queue_waits, 900);
    let mlp_span_us: f64 =
        events.iter().filter(|e| e.kind == SpanKind::StageMlp).map(|e| e.dur_us as f64).sum();
    let macs: f64 = traced.ops.iter().map(|o| o.facts.macs as f64).sum();
    let (found, slots, sample_evals, group_evals) = match w {
        // Inference runs the stage-1 pipeline on every op; its answer does
        // not carry the counters, which the direct run reports exactly.
        Workload::InferTcp => facts.iter().fold((0.0, 0.0, 0.0, 0.0), |a, f| {
            (
                a.0 + f.found as f64,
                a.1 + f.slots as f64,
                a.2 + f.sample_dist_evals as f64,
                a.3 + f.group_dist_evals as f64,
            )
        }),
        _ => traced.ops.iter().fold((0.0, 0.0, 0.0, 0.0), |a, o| {
            (
                a.0 + o.facts.found as f64,
                a.1 + o.facts.slots as f64,
                a.2 + o.facts.sample_dist_evals as f64,
                a.3 + o.facts.group_dist_evals as f64,
            )
        }),
    };
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(&m1) - f(&m0)) as f64;
    let lookups = d(|m| m.cache_hits) + d(|m| m.cache_misses);

    let fig = LayerFigures {
        layers,
        stack,
        encode_us: wire.encode_us,
        stream_end_wait_us: traced.ops.iter().map(|o| o.facts.end_wait_us).sum::<f64>() / ops,
        bytes_in: wire.bytes_in,
        bytes_out: wire.bytes_out,
        overhead_us: if in_process.is_empty() { 0.0 } else { mean(&plain_lat) - mean(&in_process) },
        queue_wait_p50_us: qw50,
        queue_wait_p90_us: qw90,
        mean_batch: d(|m| m.batched_frames) / d(|m| m.batches).max(1.0),
        peak_queue_depth: m1.peak_queue_depth as f64,
        cache_hit_ratio: d(|m| m.cache_hits) / lookups.max(1.0),
        shed: d(|m| m.shed_total()),
        degraded: d(|m| m.degraded_total()),
        fanout_us,
        allocs_per_op: allocs as f64 / ops,
        peak_rss_mb,
        partition_seq_us: seq_us,
        partition_par_us: par_us,
        blocks_per_frame: blocks,
        sample_dist_evals: sample_evals / ops,
        group_dist_evals: group_evals / ops,
        ball_fill_ratio: found / slots.max(1.0),
        chunks_per_stream: traced.ops.iter().map(|o| f64::from(o.facts.chunks)).sum::<f64>() / ops,
        macs_per_op: macs / ops,
        mlp_gmacs: if mlp_span_us > 0.0 { macs / (mlp_span_us * 1e3) } else { 0.0 },
        e2e_us,
        unattributed_us: unattributed,
        overhead_share: median(&ok_lat) / median(&plain_lat).max(1e-9) - 1.0,
    };

    fig.print_stack(w, traced.ops.len());
    println!(
        "trace: {} spans drained, {dropped} lost to ring wraparound; queue-wait p90 {}",
        events.len(),
        if qw90_supported { "supported" } else { "unsupported (sample maximum reported)" }
    );
    let tally = Tally::of(&plain) + Tally::of(&traced);
    finish(wrong, &tally, &fig.metrics())
}

/// Replays `Pipeline::partition_ws` with the parallel build off and on, on
/// up to four of the traced window's frames; returns (sequential,
/// parallel) median µs.
fn partition_replay(w: Workload, pool: &[Arc<PointCloud>], window: &Window) -> (f64, f64) {
    let pipeline = fractalcloud_core::Pipeline::new(w.pipeline()).expect("valid pipeline");
    let mut frames: Vec<usize> = window.ops.iter().map(|o| o.frame).collect();
    frames.sort_unstable();
    frames.dedup();
    frames.truncate(4);
    let mut ws = Workspace::new();
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for &f in &frames {
            for (parallel, out) in [(false, &mut seq), (true, &mut par)] {
                let t = Instant::now();
                black_box(pipeline.partition_ws(&pool[f], parallel, &mut ws).expect("partition"));
                out.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    (median(&seq), median(&par))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(req: u64, kind: SpanKind, aux: u32, start: u64, dur: u64) -> SpanEvent {
        SpanEvent { request_id: req, class: 1, kind, aux, start_us: start, dur_us: dur, thread: 0 }
    }

    #[test]
    fn self_time_is_span_minus_children_and_lanes_count_once() {
        let layers = Layers::new(3);
        let events = vec![
            ev(1, SpanKind::QueueWait, 0, 0, 10),
            // Two lanes sampling and grouping blocks of one frame.
            ev(1, SpanKind::BlockSample, 0, 10, 20),
            ev(1, SpanKind::BlockSample, 1, 15, 10),
            ev(1, SpanKind::BlockGroup, 1, 25, 10),
            // A stage MLP nested inside an enclosing span.
            ev(2, SpanKind::PartitionBuild, 0, 100, 50),
            ev(2, SpanKind::StageMlp, 1, 110, 20),
            ev(2, SpanKind::WireWrite, 0, 160, 5),
            // Stream wire spans outside any request.
            ev(0, SpanKind::WireEncode, 0, 200, 7),
        ];
        let t = attribute(&events, layers);
        assert_eq!(t[Layers::QUEUE], 10.0);
        // Sampling covers 10..25 alone (grouping wins 25..35 as the inner layer).
        assert_eq!(t[Layers::SAMPLE], 15.0);
        assert_eq!(t[Layers::GROUP], 10.0);
        assert_eq!(t[Layers::PARTITION], 30.0);
        assert_eq!(t[Layers::STAGE0 + 1], 20.0);
        assert_eq!(t[layers.write()], 5.0);
        assert_eq!(t[layers.encode()], 7.0);
    }

    #[test]
    fn fused_batch_members_each_wait_for_the_whole_batch() {
        let layers = Layers::new(3);
        let events = vec![
            ev(1, SpanKind::QueueWait, 0, 0, 4),
            ev(2, SpanKind::QueueWait, 0, 2, 2),
            ev(1, SpanKind::BatchFuse, 2, 4, 0),
            ev(2, SpanKind::BatchFuse, 2, 4, 0),
            ev(1, SpanKind::PartitionBuild, 0, 4, 10),
            ev(2, SpanKind::PartitionBuild, 0, 4, 10),
            ev(1, SpanKind::BlockSample, 0, 14, 6),
            ev(2, SpanKind::BlockSample, 0, 20, 6),
        ];
        let t = attribute(&events, layers);
        assert_eq!(t[Layers::QUEUE], 6.0);
        // Each of the two ops waited 10 us of builds and 12 us of sampling.
        assert_eq!(t[Layers::PARTITION], 20.0);
        assert_eq!(t[Layers::SAMPLE], 24.0);
    }

    #[test]
    fn layer_names_are_unique_and_unattributed_is_a_share_of_e2e() {
        let layers = Layers::new(3);
        let mut names: Vec<String> = (0..layers.len()).map(|i| layers.name(i)).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), layers.len());
        let mut fig = LayerFigures::new(layers);
        fig.stack[Layers::QUEUE] = 3.0;
        fig.e2e_us = 10.0;
        fig.unattributed_us = 7.0;
        let m = fig.metrics();
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("trace.unattributed_share"), 0.7);
    }
}
