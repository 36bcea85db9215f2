//! `perf_snapshot` — the repo's perf trajectory anchor.
//!
//! Times the software hot paths end-to-end — global FPS at 4k/16k points,
//! global KNN / ball query / interpolation at 4k points (scalar reference vs
//! the dispatched kernel path, whose backend is recorded in the JSON), the
//! Fractal build at 64k points (sequential vs level-synchronous parallel),
//! and block-parallel FPS over the 64k partition (sequential vs parallel
//! blocks) — verifying result equivalence in the same run, and writes
//! `BENCH_point_ops.json`.
//!
//! ```text
//! cargo run --release -p fractalcloud-bench --bin perf_snapshot
//! cargo run --release -p fractalcloud-bench --bin perf_snapshot -- --quick
//! ```
//!
//! `--quick` shrinks the inputs for CI smoke runs (the JSON is still
//! written, flagged `"mode": "quick"`); committed snapshots should come
//! from a full run.
//!
//! The thread-scheduling rows (`fractal_build`, `block_fps_scheduling`)
//! measure ~1× on a single-CPU host by construction; they are skipped there
//! and recorded with `"status": "skipped_single_cpu"` instead of reporting
//! a misleading speedup.

use fractalcloud_core::bppo::reference as bppo_reference;
use fractalcloud_core::{
    block_fps, BppoConfig, Fractal, FractalConfig, Pipeline, PipelineConfig, PipelineOutput,
    Workspace,
};
use fractalcloud_pointcloud::generate::{scene_cloud, with_random_features, SceneConfig};
use fractalcloud_pointcloud::kernels;
use fractalcloud_pointcloud::ops::{
    ball_query, farthest_point_sample, interpolate_features, k_nearest_neighbors, reference,
};
use fractalcloud_pointcloud::Point3;
use fractalcloud_serve::Ticket;
use std::sync::Arc;
use std::time::Instant;

/// With the `bench` feature (default), heap traffic is counted by the
/// workspace-layer measurement allocator so the `allocs_per_frame` rows
/// report real numbers; the counter is one relaxed atomic per allocation.
#[cfg(feature = "bench")]
#[global_allocator]
static ALLOC: fractalcloud_pointcloud::count_alloc::CountingAllocator =
    fractalcloud_pointcloud::count_alloc::CountingAllocator;

/// One baseline-vs-optimized measurement (or a skipped row).
struct Comparison {
    name: &'static str,
    baseline: &'static str,
    optimized: &'static str,
    /// `Some((baseline_ms, optimized_ms))`, or `None` when skipped.
    times: Option<(f64, f64)>,
    status: &'static str,
}

impl Comparison {
    fn measured(
        name: &'static str,
        baseline: &'static str,
        optimized: &'static str,
        baseline_ms: f64,
        optimized_ms: f64,
    ) -> Comparison {
        Comparison {
            name,
            baseline,
            optimized,
            times: Some((baseline_ms, optimized_ms)),
            status: "ok",
        }
    }

    fn skipped(
        name: &'static str,
        baseline: &'static str,
        optimized: &'static str,
        status: &'static str,
    ) -> Comparison {
        Comparison { name, baseline, optimized, times: None, status }
    }

    fn speedup(&self) -> Option<f64> {
        self.times.map(|(b, o)| b / o)
    }
}

/// Median wall-clock milliseconds over `reps` runs of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (fps_small, fps_large, build_n, reps) =
        if quick { (1024, 4096, 16_384, 3) } else { (4096, 16_384, 65_536, 9) };
    let seed = 42;
    let workers = fractalcloud_parallel::workers();
    let backend = kernels::active_backend();

    println!(
        "perf_snapshot ({} mode, {} worker threads, {} kernel backend)",
        if quick { "quick" } else { "full" },
        workers,
        backend.name()
    );
    let mut comparisons: Vec<Comparison> = Vec::new();

    // --- Global FPS: scalar reference vs dispatched kernel path ---
    for (label_idx, n) in [fps_small, fps_large].into_iter().enumerate() {
        let cloud = scene_cloud(&SceneConfig::default(), n, seed);
        let m = n / 4;
        let kernel = farthest_point_sample(&cloud, m, 0).unwrap();
        let scalar = reference::farthest_point_sample(&cloud, m, 0).unwrap();
        assert_eq!(kernel.indices, scalar.indices, "kernel FPS must match the reference");
        assert_eq!(kernel.counters, scalar.counters, "analytic counters must match");
        let baseline_ms = time_ms(reps, || reference::farthest_point_sample(&cloud, m, 0).unwrap());
        let optimized_ms = time_ms(reps, || farthest_point_sample(&cloud, m, 0).unwrap());
        comparisons.push(Comparison::measured(
            if label_idx == 0 { "fps_global_small" } else { "fps_global_large" },
            "scalar_reference",
            "dispatched_kernel",
            baseline_ms,
            optimized_ms,
        ));
    }

    // --- Global selection ops at 4k: scalar reference vs batched kernels ---
    let n = fps_small.max(4096);
    let cloud = with_random_features(scene_cloud(&SceneConfig::default(), n, seed), 16, seed);
    let centers: Vec<Point3> = (0..n / 4).map(|i| cloud.point(i * 4)).collect();
    let (knn_k, bq_radius, bq_num) = (16, 0.4f32, 16);

    let kernel = k_nearest_neighbors(&cloud, &centers, knn_k).unwrap();
    let scalar = reference::k_nearest_neighbors(&cloud, &centers, knn_k).unwrap();
    assert_eq!(kernel.indices, scalar.indices, "kernel KNN must match the reference");
    assert_eq!(kernel.counters, scalar.counters, "analytic KNN counters must match");
    let baseline_ms =
        time_ms(reps, || reference::k_nearest_neighbors(&cloud, &centers, knn_k).unwrap());
    let optimized_ms = time_ms(reps, || k_nearest_neighbors(&cloud, &centers, knn_k).unwrap());
    comparisons.push(Comparison::measured(
        "knn",
        "scalar_reference",
        "batched_kernel",
        baseline_ms,
        optimized_ms,
    ));

    let kernel = ball_query(&cloud, &centers, bq_radius, bq_num).unwrap();
    let scalar = reference::ball_query(&cloud, &centers, bq_radius, bq_num).unwrap();
    assert_eq!(kernel.indices, scalar.indices, "kernel ball query must match the reference");
    assert_eq!(kernel.counters, scalar.counters, "analytic ball-query counters must match");
    let baseline_ms =
        time_ms(reps, || reference::ball_query(&cloud, &centers, bq_radius, bq_num).unwrap());
    let optimized_ms = time_ms(reps, || ball_query(&cloud, &centers, bq_radius, bq_num).unwrap());
    comparisons.push(Comparison::measured(
        "ball_query",
        "scalar_reference",
        "batched_kernel",
        baseline_ms,
        optimized_ms,
    ));

    let targets: Vec<Point3> =
        (0..n / 4).map(|i| cloud.point(i * 3) + Point3::splat(0.01)).collect();
    let kernel = interpolate_features(&cloud, &targets, 3).unwrap();
    let scalar = reference::interpolate_features(&cloud, &targets, 3).unwrap();
    assert_eq!(kernel.features, scalar.features, "kernel interpolation must match the reference");
    assert_eq!(kernel.counters, scalar.counters, "analytic interpolation counters must match");
    let baseline_ms =
        time_ms(reps, || reference::interpolate_features(&cloud, &targets, 3).unwrap());
    let optimized_ms = time_ms(reps, || interpolate_features(&cloud, &targets, 3).unwrap());
    comparisons.push(Comparison::measured(
        "interpolate",
        "scalar_reference",
        "batched_kernel",
        baseline_ms,
        optimized_ms,
    ));

    // --- Fractal build: sequential vs level-synchronous parallel ---
    let cloud = scene_cloud(&SceneConfig::default(), build_n, seed);
    let cfg = FractalConfig::new(256);
    let par = Fractal::new(cfg).build(&cloud).unwrap();
    let seq = Fractal::new(cfg.sequential()).build(&cloud).unwrap();
    assert_eq!(par, seq, "parallel build must be bit-identical to sequential");
    if workers > 1 {
        let baseline_ms = time_ms(reps, || Fractal::new(cfg.sequential()).build(&cloud).unwrap());
        let optimized_ms = time_ms(reps, || Fractal::new(cfg).build(&cloud).unwrap());
        comparisons.push(Comparison::measured(
            "fractal_build",
            "sequential",
            "parallel_frontier",
            baseline_ms,
            optimized_ms,
        ));
    } else {
        comparisons.push(Comparison::skipped(
            "fractal_build",
            "sequential",
            "parallel_frontier",
            "skipped_single_cpu",
        ));
    }

    // --- Block-parallel FPS over the build's partition ---
    // First the kernel win at fixed (sequential) scheduling: scalar
    // reference blocks vs dispatched kernel blocks.
    let part = par.partition;
    let scalar = bppo_reference::block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
    let bseq = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
    let bpar = block_fps(&cloud, &part, 0.25, &BppoConfig::default()).unwrap();
    assert_eq!(scalar.indices, bseq.indices, "kernel block FPS must match the reference");
    assert_eq!(scalar.counters, bseq.counters, "analytic block counters must match");
    assert_eq!(bseq.indices, bpar.indices, "block scheduling must not change samples");
    let baseline_ms = time_ms(reps, || {
        bppo_reference::block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap()
    });
    let optimized_ms =
        time_ms(reps, || block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap());
    comparisons.push(Comparison::measured(
        "block_fps",
        "scalar_reference_blocks",
        "dispatched_kernel_blocks",
        baseline_ms,
        optimized_ms,
    ));
    // Then the scheduling win on top of the kernel path (skipped on a
    // single-CPU host, where it is ~1× by construction).
    if workers > 1 {
        let baseline_ms =
            time_ms(reps, || block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap());
        let optimized_ms =
            time_ms(reps, || block_fps(&cloud, &part, 0.25, &BppoConfig::default()).unwrap());
        comparisons.push(Comparison::measured(
            "block_fps_scheduling",
            "sequential_blocks",
            "parallel_blocks",
            baseline_ms,
            optimized_ms,
        ));
    } else {
        comparisons.push(Comparison::skipped(
            "block_fps_scheduling",
            "sequential_blocks",
            "parallel_blocks",
            "skipped_single_cpu",
        ));
    }

    // --- Allocations per frame on the warmed core hot path ---
    // The tentpole's zero-allocation claim, measured: a cache-hit-style
    // frame (partition prebuilt, BPPO half re-run) through one reused
    // workspace + output staging. Cold = the first frame (buffers grow);
    // warm = the worst of the next five (must be 0 in reuse mode).
    let allocs = measure_allocs_per_frame(4096);

    // --- Serve throughput: in-process engine, fixed frame size ---
    // Distinct frames with the cache off, so the row measures the full
    // admission → batch → partition → BPPO → response path per frame, with
    // up-front submission so batches genuinely fuse to mean ≈ max_batch.
    let serve = measure_serve_throughput(if quick { 24 } else { 192 }, 4096, reps.min(7));

    // --- Streaming time-to-first-byte: warm first paint vs full frame ---
    // The progressive-LOD claim in one number: with the ordering cached, a
    // viewer's first chunk lands well before a monolithic response could.
    let stream_ttfb = measure_stream_ttfb(4096, reps.min(7));

    // --- Inference serving: eager vs Mesorasi delayed aggregation ---
    // Warm cache-hit frames through the engine's INFER path, so the rows
    // isolate the network-forward schedule (eager runs the stage-1 MLP on
    // centers × nsample gathered rows; delayed runs it once per unique
    // point and max-aggregates afterwards — bit-identical logits).
    let infer_points = if quick { 2048 } else { 4096 };
    let infer_eager =
        measure_inference(infer_points, reps.min(7), fractalcloud_serve::Aggregation::Eager);
    let infer_delayed =
        measure_inference(infer_points, reps.min(7), fractalcloud_serve::Aggregation::Delayed);

    // --- Per-stage latency breakdown from the flight recorder ---
    // Runs LAST: it enables tracing process-wide, and the rows above must
    // measure the tracing-off hot path. Each phase's stage times plus the
    // explicit `unattributed` remainder sum to its end-to-end latency.
    let breakdown = measure_stage_breakdown(infer_points, if quick { 4 } else { 12 });

    // --- Report ---
    println!("{:<18} {:>20} {:>20} {:>9}", "measurement", "baseline ms", "optimized ms", "speedup");
    for c in &comparisons {
        match c.times {
            Some((baseline_ms, optimized_ms)) => println!(
                "{:<18} {:>20} {:>20} {:>8.2}x",
                c.name,
                format!("{:.3} ({})", baseline_ms, c.baseline),
                format!("{:.3} ({})", optimized_ms, c.optimized),
                c.speedup().unwrap()
            ),
            None => println!("{:<18} {:>20}", c.name, c.status),
        }
    }
    println!(
        "{:<18} {:>20}",
        "serve_throughput",
        format!("{:.1} frames/s ({} pts)", serve.frames_per_s, serve.frame_points)
    );
    println!(
        "{:<18} {:>20}",
        "serve_stream_ttfb",
        format!(
            "{:.3} ms first paint ({} of {} pts) vs {:.3} ms full frame",
            stream_ttfb.ttfb_ms,
            stream_ttfb.first_paint,
            stream_ttfb.frame_points,
            stream_ttfb.full_ms
        )
    );
    match allocs.measured {
        true => println!(
            "{:<18} {:>20}",
            "allocs_per_frame",
            format!(
                "cold {} / warm {} ({} pts, {} mode)",
                allocs.cold,
                allocs.warm,
                allocs.frame_points,
                fractalcloud_core::workspace::workspace_mode().name()
            )
        ),
        false => println!("{:<18} {:>20}", "allocs_per_frame", "skipped_alloc_counter_off"),
    }
    println!(
        "{:<18} {:>20}",
        "inference_eager",
        format!(
            "{:.3} ms ({} pts, {} gather bytes, {} allocs/frame)",
            infer_eager.ms,
            infer_eager.frame_points,
            infer_eager.gather_bytes,
            infer_eager.allocs_per_frame
        )
    );
    println!(
        "{:<18} {:>20} {:>8.2}x",
        "inference_delayed",
        format!(
            "{:.3} ms ({} pts, {} MACs saved, {} allocs/frame)",
            infer_delayed.ms,
            infer_delayed.frame_points,
            infer_delayed.macs_saved,
            infer_delayed.allocs_per_frame
        ),
        infer_eager.ms / infer_delayed.ms
    );
    for phase in &breakdown {
        let stages: Vec<String> = phase
            .stages
            .iter()
            .map(|(name, us)| format!("{name} {us:.0}"))
            .chain(std::iter::once(format!("unattributed {:.0}", phase.unattributed_us)))
            .collect();
        println!(
            "{:<26} {}: {:.0} us = {}",
            "serve_stage_breakdown",
            phase.phase,
            phase.end_to_end_us,
            stages.join(" + ")
        );
    }

    let json = render_json(
        quick,
        build_n,
        fps_small,
        fps_large,
        backend.name(),
        &comparisons,
        &serve,
        &stream_ttfb,
        &allocs,
        &infer_eager,
        &infer_delayed,
        &breakdown,
    );
    std::fs::write("BENCH_point_ops.json", &json).expect("write BENCH_point_ops.json");
    println!("wrote BENCH_point_ops.json");
}

/// One inference-serving measurement: warm cache-hit frames through the
/// engine's INFER path under one aggregation schedule.
struct InferenceRow {
    /// Median wall-clock per warm frame.
    ms: f64,
    frame_points: usize,
    macs_moved: u64,
    macs_saved: u64,
    gather_bytes: u64,
    /// Heap allocations per warm frame (pooled response recycled each
    /// round); vacuously 0 without the `bench` feature.
    allocs_per_frame: u64,
}

/// Times warm INFER frames (partition LRU hit, pooled buffers recycled via
/// [`fractalcloud_serve::Engine::recycle_infer`]) under `agg`, and counts
/// per-frame heap traffic the same way `measure_allocs_per_frame` does.
fn measure_inference(
    frame_points: usize,
    reps: usize,
    agg: fractalcloud_serve::Aggregation,
) -> InferenceRow {
    use fractalcloud_pointcloud::count_alloc::allocation_count;
    use fractalcloud_serve::{Engine, InferRequest, ModelConfig, ServeConfig};
    let cloud = std::sync::Arc::new(scene_cloud(&SceneConfig::default(), frame_points, 4242));
    let engine = Engine::start(ServeConfig::default().workers(1));
    let request = || InferRequest {
        aggregation: Some(agg),
        ..InferRequest::new(ModelConfig::table1().remove(0))
    };
    // Warm everything the steady state reuses: the partition LRU entry,
    // the cached executor/weights, and the slot/response/workspace pools.
    let mut counters = fractalcloud_pointcloud::ops::OpCounters::default();
    for _ in 0..3 {
        let r = engine
            .submit_infer(std::sync::Arc::clone(&cloud), request())
            .and_then(Ticket::wait)
            .expect("warm infer");
        counters = r.output.counters;
        engine.recycle_infer(r);
    }
    let ms = time_ms(reps, || {
        let r = engine
            .submit_infer(std::sync::Arc::clone(&cloud), request())
            .and_then(Ticket::wait)
            .expect("infer");
        engine.recycle_infer(r);
    });
    // Requests are pre-built so the window counts the serve path alone,
    // not the caller's model-zoo construction.
    let alloc_frames = 8u64;
    let mut requests: Vec<InferRequest> = (0..alloc_frames).map(|_| request()).collect();
    let before = allocation_count();
    for req in requests.drain(..) {
        let r = engine
            .submit_infer(std::sync::Arc::clone(&cloud), req)
            .and_then(Ticket::wait)
            .expect("infer");
        engine.recycle_infer(r);
    }
    let allocs_per_frame = (allocation_count() - before) / alloc_frames;
    engine.shutdown();
    InferenceRow {
        ms,
        frame_points,
        macs_moved: counters.macs_moved,
        macs_saved: counters.macs_saved,
        gather_bytes: counters.gather_bytes,
        allocs_per_frame,
    }
}

/// The allocs-per-frame measurement on the warmed core hot path.
struct AllocsPerFrame {
    cold: u64,
    warm: u64,
    frame_points: usize,
    /// False when built without the `bench` feature (no counting
    /// allocator installed — the counters would read zero vacuously).
    measured: bool,
}

/// Counts heap allocations for one cache-hit-style frame through a reused
/// workspace + output staging: cold (first frame, buffers grow) vs warm
/// (worst of the next five; zero in reuse mode). Runs sequentially on the
/// calling thread so the process-global counter attributes cleanly.
fn measure_allocs_per_frame(frame_points: usize) -> AllocsPerFrame {
    use fractalcloud_pointcloud::count_alloc::allocation_count;
    let cloud = scene_cloud(&SceneConfig::default(), frame_points, 777);
    let pipe = Pipeline::new(PipelineConfig::default()).expect("default config is valid");
    let mut ws = Workspace::new();
    let built = pipe.partition_ws(&cloud, false, &mut ws).expect("partition");
    let mut staging = PipelineOutput::default();
    let before = allocation_count();
    pipe.run_with_partition_into(&cloud, &built, false, &mut ws, &mut staging).expect("cold run");
    let cold = allocation_count() - before;
    let mut warm = 0u64;
    for _ in 0..5 {
        let before = allocation_count();
        pipe.run_with_partition_into(&cloud, &built, false, &mut ws, &mut staging)
            .expect("warm run");
        warm = warm.max(allocation_count() - before);
    }
    AllocsPerFrame { cold, warm, frame_points, measured: cfg!(feature = "bench") }
}

/// The serve-throughput measurement: frames/s through the in-process
/// engine at a fixed frame size.
struct ServeThroughput {
    frames: usize,
    frame_points: usize,
    frames_per_s: f64,
    mean_batch: f64,
}

/// Pushes `frames` distinct `frame_points`-sized frames through a serving
/// engine (cache off: every frame pays the full pipeline), submitted up
/// front so the adaptive batcher genuinely fuses (mean batch ≈ the
/// engine's `max_batch`), `reps` times, reporting the best sustained
/// frames/s.
///
/// With a thread budget above one the fused batches execute as ONE
/// budgeted `parallel_map` over the union of their sample+group
/// `(frame, block)` tasks; on a single-CPU host (thread budget 1) the
/// engine runs the frame-at-a-time order. Results are bit-identical either
/// way.
fn measure_serve_throughput(frames: usize, frame_points: usize, reps: usize) -> ServeThroughput {
    use fractalcloud_serve::{Engine, ServeConfig};
    let clouds: Vec<_> = (0..frames)
        .map(|s| scene_cloud(&SceneConfig::default(), frame_points, s as u64 + 1000))
        .collect();
    let engine = std::sync::Arc::new(Engine::start(
        ServeConfig::default().cache_capacity(0).queue_capacity(frames),
    ));
    let config = fractalcloud_core::PipelineConfig::default();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let tickets: Vec<_> = clouds
            .iter()
            .map(|c| {
                engine
                    .submit_shared(Arc::new(c.clone()), config)
                    .expect("queue sized for all frames")
            })
            .collect();
        for t in tickets {
            t.wait().expect("serve frame");
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let m = engine.metrics();
    let mean_batch = m.mean_batch();
    engine.shutdown();
    ServeThroughput { frames, frame_points, frames_per_s: frames as f64 / best, mean_batch }
}

/// The streaming time-to-first-byte measurement: how much sooner a viewer
/// sees the first-paint chunk than the full monolithic response, both warm.
struct StreamTtfb {
    frame_points: usize,
    first_paint: usize,
    ttfb_ms: f64,
    full_ms: f64,
}

/// Measures warm first-chunk latency against warm full-response latency
/// through the in-process engine. Warm means the partition LRU and the
/// frame's cached coarse-to-fine FPS ordering are both populated, so the
/// rows isolate the chunk-slicing win — the first paint ships `first_paint`
/// samples of an already-known ordering instead of the whole frame.
fn measure_stream_ttfb(frame_points: usize, reps: usize) -> StreamTtfb {
    use fractalcloud_serve::{Engine, Priority, ServeConfig};
    let engine = Engine::start(ServeConfig::default().workers(1));
    let cloud = std::sync::Arc::new(scene_cloud(&SceneConfig::default(), frame_points, 777));
    let config = fractalcloud_core::PipelineConfig::default();
    let first_paint = 512usize;
    // Warm both paths: the first chunk computes and caches the full FPS
    // ordering; the direct request warms the partition LRU.
    engine
        .submit_stream_chunk(
            std::sync::Arc::clone(&cloud),
            config,
            0,
            first_paint,
            Priority::Normal,
            None,
        )
        .expect("submit warm chunk")
        .wait()
        .expect("warm chunk");
    let r = engine.process_shared(std::sync::Arc::clone(&cloud), config).expect("warm frame");
    engine.recycle(r);
    let mut ttfb = f64::INFINITY;
    let mut full = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        engine
            .submit_stream_chunk(
                std::sync::Arc::clone(&cloud),
                config,
                0,
                first_paint,
                Priority::Normal,
                None,
            )
            .expect("submit chunk")
            .wait()
            .expect("first-paint chunk");
        ttfb = ttfb.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let r = engine.process_shared(std::sync::Arc::clone(&cloud), config).expect("full frame");
        full = full.min(t0.elapsed().as_secs_f64() * 1e3);
        engine.recycle(r);
    }
    engine.shutdown();
    StreamTtfb { frame_points, first_paint, ttfb_ms: ttfb, full_ms: full }
}

/// Per-stage share of end-to-end latency for one serving phase, measured
/// from drained flight-recorder spans.
struct StageBreakdown {
    phase: &'static str,
    /// `(stage name, mean µs per request)`, recorder order.
    stages: Vec<(&'static str, f64)>,
    /// End-to-end time not covered by any span (dispatch, channel hops,
    /// response copies). Kept explicit so the stages sum to `end_to_end_us`.
    unattributed_us: f64,
    end_to_end_us: f64,
}

/// Enables the flight recorder and attributes end-to-end serving latency to
/// pipeline stages for three phases: cold frames (cache off, every request
/// pays partition + BPPO), and warm eager/delayed inference. Stage means
/// come from drained spans; whatever the spans don't cover lands in the
/// explicit `unattributed` stage, so per-stage times sum to end-to-end.
fn measure_stage_breakdown(frame_points: usize, requests: usize) -> Vec<StageBreakdown> {
    use fractalcloud_obs as obs;
    use fractalcloud_serve::{Aggregation, Engine, InferRequest, ModelConfig, ServeConfig};
    obs::enable(1 << 16);
    let cloud = scene_cloud(&SceneConfig::default(), frame_points, 4242);
    let shared = std::sync::Arc::new(cloud.clone());
    let config = PipelineConfig::default();

    // Aggregate one phase's drained spans into mean-µs-per-request stages.
    // The whole-frame sample/group spans (aux == u32::MAX) wrap the
    // per-block ones, so when present only they count — summing both would
    // attribute the same wall time twice.
    let aggregate = |phase: &'static str, spans: &[obs::SpanEvent], e2e_total_us: f64| {
        let mut stages: Vec<(&'static str, f64)> = Vec::new();
        for kind in obs::SpanKind::ALL {
            let nested = matches!(kind, obs::SpanKind::BlockSample | obs::SpanKind::BlockGroup)
                && spans.iter().any(|s| s.kind == kind && s.aux == u32::MAX);
            let sum: u64 = spans
                .iter()
                .filter(|s| s.kind == kind && (!nested || s.aux == u32::MAX))
                .map(|s| s.dur_us)
                .sum();
            if sum > 0 {
                stages.push((kind.name(), sum as f64 / requests as f64));
            }
        }
        let attributed: f64 = stages.iter().map(|(_, us)| us).sum();
        let end_to_end_us = e2e_total_us / requests as f64;
        StageBreakdown {
            phase,
            stages,
            unattributed_us: (end_to_end_us - attributed).max(0.0),
            end_to_end_us,
        }
    };

    let mut rows = Vec::new();

    // Phase 1: cold frames — cache off, so every request rebuilds the
    // partition and runs both BPPO halves.
    let engine = Engine::start(ServeConfig::default().workers(1).cache_capacity(0));
    engine.process_shared(Arc::new(cloud.clone()), config).expect("warm frame");
    let _ = obs::drain();
    let t0 = Instant::now();
    for _ in 0..requests {
        engine.process_shared(Arc::new(cloud.clone()), config).expect("frame");
    }
    let e2e = t0.elapsed().as_secs_f64() * 1e6;
    rows.push(aggregate("frame", &obs::drain(), e2e));
    engine.shutdown();

    // Phases 2–3: warm inference under each aggregation schedule (partition
    // LRU hit; the MLP + aggregate stages dominate).
    for (phase, agg) in
        [("infer_eager", Aggregation::Eager), ("infer_delayed", Aggregation::Delayed)]
    {
        let engine = Engine::start(ServeConfig::default().workers(1));
        let request = || InferRequest {
            aggregation: Some(agg),
            ..InferRequest::new(ModelConfig::table1().remove(0))
        };
        for _ in 0..2 {
            let r = engine
                .submit_infer(std::sync::Arc::clone(&shared), request())
                .and_then(Ticket::wait)
                .expect("warm infer");
            engine.recycle_infer(r);
        }
        let _ = obs::drain();
        let t0 = Instant::now();
        for _ in 0..requests {
            let r = engine
                .submit_infer(std::sync::Arc::clone(&shared), request())
                .and_then(Ticket::wait)
                .expect("infer");
            engine.recycle_infer(r);
        }
        let e2e = t0.elapsed().as_secs_f64() * 1e6;
        rows.push(aggregate(phase, &obs::drain(), e2e));
        engine.shutdown();
    }
    obs::disable();
    rows
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    quick: bool,
    build_n: usize,
    fps_small: usize,
    fps_large: usize,
    backend: &str,
    comparisons: &[Comparison],
    serve: &ServeThroughput,
    stream_ttfb: &StreamTtfb,
    allocs: &AllocsPerFrame,
    infer_eager: &InferenceRow,
    infer_delayed: &InferenceRow,
    breakdown: &[StageBreakdown],
) -> String {
    // Hand-rolled JSON: the workspace intentionally has no serde machinery
    // (see vendor/README.md).
    let sel_n = fps_small.max(4096);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"point_ops\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str(&format!("  \"threads\": {},\n", fractalcloud_parallel::workers()));
    out.push_str(&format!("  \"backend\": \"{backend}\",\n"));
    out.push_str(&format!(
        "  \"scales\": {{ \"fps_global_small\": {fps_small}, \"fps_global_large\": {fps_large}, \"knn\": {sel_n}, \"ball_query\": {sel_n}, \"interpolate\": {sel_n}, \"fractal_build\": {build_n}, \"block_fps\": {build_n}, \"block_fps_scheduling\": {build_n} }},\n"
    ));
    out.push_str("  \"results\": [\n");
    for c in comparisons {
        // The serve_throughput row always follows, so every comparison row
        // takes a trailing comma.
        let tail = ",";
        match c.times {
            Some((baseline_ms, optimized_ms)) => out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"baseline\": \"{}\", \"optimized\": \"{}\", \"baseline_ms\": {:.4}, \"optimized_ms\": {:.4}, \"speedup\": {:.3}, \"status\": \"{}\" }}{}\n",
                c.name,
                c.baseline,
                c.optimized,
                baseline_ms,
                optimized_ms,
                c.speedup().unwrap(),
                c.status,
                tail
            )),
            None => out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"baseline\": \"{}\", \"optimized\": \"{}\", \"baseline_ms\": null, \"optimized_ms\": null, \"speedup\": null, \"status\": \"{}\" }}{}\n",
                c.name, c.baseline, c.optimized, c.status, tail
            )),
        }
    }
    out.push_str(&format!(
        "    {{ \"name\": \"serve_throughput\", \"backend\": \"{}\", \"frames\": {}, \"frame_points\": {}, \"frames_per_s\": {:.1}, \"mean_batch\": {:.2}, \"status\": \"ok\" }},\n",
        backend, serve.frames, serve.frame_points, serve.frames_per_s, serve.mean_batch
    ));
    out.push_str(&format!(
        "    {{ \"name\": \"serve_stream_ttfb\", \"backend\": \"{}\", \"frame_points\": {}, \"first_paint\": {}, \"ttfb_ms\": {:.4}, \"full_ms\": {:.4}, \"speedup\": {:.3}, \"status\": \"ok\" }},\n",
        backend, stream_ttfb.frame_points, stream_ttfb.first_paint, stream_ttfb.ttfb_ms,
        stream_ttfb.full_ms, stream_ttfb.full_ms / stream_ttfb.ttfb_ms
    ));
    match allocs.measured {
        true => out.push_str(&format!(
            "    {{ \"name\": \"allocs_per_frame\", \"cold\": {}, \"warm\": {}, \"frame_points\": {}, \"workspace_mode\": \"{}\", \"status\": \"ok\" }},\n",
            allocs.cold,
            allocs.warm,
            allocs.frame_points,
            fractalcloud_core::workspace::workspace_mode().name()
        )),
        false => out.push_str(&format!(
            "    {{ \"name\": \"allocs_per_frame\", \"cold\": null, \"warm\": null, \"frame_points\": {}, \"status\": \"skipped_alloc_counter_off\" }},\n",
            allocs.frame_points
        )),
    }
    out.push_str(&format!(
        "    {{ \"name\": \"inference_eager\", \"ms\": {:.4}, \"frame_points\": {}, \"macs_moved\": {}, \"macs_saved\": {}, \"gather_bytes\": {}, \"allocs_per_frame\": {}, \"status\": \"ok\" }},\n",
        infer_eager.ms, infer_eager.frame_points, infer_eager.macs_moved, infer_eager.macs_saved,
        infer_eager.gather_bytes, infer_eager.allocs_per_frame
    ));
    out.push_str(&format!(
        "    {{ \"name\": \"inference_delayed\", \"ms\": {:.4}, \"frame_points\": {}, \"macs_moved\": {}, \"macs_saved\": {}, \"gather_bytes\": {}, \"allocs_per_frame\": {}, \"speedup_vs_eager\": {:.3}, \"status\": \"ok\" }},\n",
        infer_delayed.ms, infer_delayed.frame_points, infer_delayed.macs_moved,
        infer_delayed.macs_saved, infer_delayed.gather_bytes, infer_delayed.allocs_per_frame,
        infer_eager.ms / infer_delayed.ms
    ));
    out.push_str("    { \"name\": \"serve_stage_breakdown\", \"phases\": [\n");
    for (i, phase) in breakdown.iter().enumerate() {
        let stages: Vec<String> = phase
            .stages
            .iter()
            .map(|(name, us)| format!("\"{name}_us\": {us:.1}"))
            .chain(std::iter::once(format!("\"unattributed_us\": {:.1}", phase.unattributed_us)))
            .collect();
        out.push_str(&format!(
            "      {{ \"phase\": \"{}\", {}, \"end_to_end_us\": {:.1} }}{}\n",
            phase.phase,
            stages.join(", "),
            phase.end_to_end_us,
            if i + 1 == breakdown.len() { "" } else { "," }
        ));
    }
    out.push_str("    ], \"status\": \"ok\" }\n");
    out.push_str("  ]\n}\n");
    out
}
