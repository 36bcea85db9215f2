//! The serving rig and the load generators that drive it.
//!
//! A [`Rig`] is the real serving stack with the default [`ServeConfig`]:
//! an [`Engine`], and for the TCP workloads a [`TcpServer`] on localhost
//! with two connected [`ServeClient`]s. The load generator never uses
//! more than two threads or two connections.

use crate::host;
use crate::inputs::{
    infer_model, lidar_schedule, picker, Arrival, Workload, INFER_NOTATION, INFER_WEIGHT_SEED,
};
use crate::verify::{digest_frame, digest_infer, digest_wire, Reference};
use fractalcloud_core::PipelineConfig;
use fractalcloud_pointcloud::PointCloud;
use fractalcloud_serve::protocol::{
    StreamAccumulator, WireInferRequest, WireInferResponse, WireStreamChunk, WireStreamOpen,
    AGG_SERVER_DEFAULT,
};
use fractalcloud_serve::{
    ClientError, Engine, InferRequest, Priority, ServeClient, ServeConfig, ServeError, StreamEvent,
    TcpServer,
};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Connections of the TCP workloads (one load-generator thread each).
pub const CONNECTIONS: usize = 2;
/// Longest a single op may take before it counts as timed out.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// How one op ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered and, after verification, correct.
    Ok,
    /// Refused by admission control (retryable statuses).
    Shed,
    /// Any other error, transport failures included.
    Failed,
    /// No answer within [`OP_TIMEOUT`].
    TimedOut,
    /// Answered, but the answer differs from the direct library result.
    Wrong,
}

/// Per-op facts the per-layer report aggregates.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpFacts {
    /// Stream chunks received (`viewer-tcp`).
    pub chunks: u32,
    /// Credit frames sent (`viewer-tcp`).
    pub credits: u32,
    /// From the chunk that completes a stream to its end-of-stream frame,
    /// µs (`viewer-tcp`).
    pub end_wait_us: f64,
    /// Sampling distance evaluations reported by the response.
    pub sample_dist_evals: u64,
    /// Grouping distance evaluations reported by the response.
    pub group_dist_evals: u64,
    /// In-radius hits over the response's centers.
    pub found: u64,
    /// Neighbor slots over the response's centers.
    pub slots: u64,
    /// Stage-MLP multiply-accumulates (`infer-tcp`).
    pub macs: u64,
}

/// One op of a measured window.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Pool index of the frame sent.
    pub frame: usize,
    /// Latency; in the open loop, from the op's due time; for a stream, to
    /// the chunk that completes the frame.
    pub latency_us: f64,
    /// Time to the first response byte the client can use: the first
    /// chunk of a stream, the whole answer otherwise.
    pub ttfb_us: f64,
    /// Outcome (verification may still turn `Ok` into `Wrong`).
    pub outcome: Outcome,
    /// Digest of the answer, checked after the window.
    pub digest: u64,
    /// Samples served when the engine browned the answer out, else 0.
    pub budget: usize,
    /// Facts for the per-layer report.
    pub facts: OpFacts,
}

impl Op {
    /// An op with `outcome` and no answer to check.
    fn bare(frame: usize, latency_us: f64, outcome: Outcome) -> Op {
        Op {
            frame,
            latency_us,
            ttfb_us: latency_us,
            outcome,
            digest: 0,
            budget: 0,
            facts: OpFacts::default(),
        }
    }

    /// True for an answered op (degraded or not) that verified.
    pub fn ok(&self) -> bool {
        self.outcome == Outcome::Ok
    }

    /// True for an answered op served at a reduced budget.
    pub fn degraded(&self) -> bool {
        self.ok() && self.budget > 0
    }
}

/// Answers kept from a traced window, one per frame, for the wire
/// replays.
#[derive(Clone, Debug, Default)]
pub struct Kept {
    /// The chunks of the last stream of each frame (`viewer-tcp`).
    pub streams: Vec<Option<Vec<WireStreamChunk>>>,
    /// The last inference answer for each frame (`infer-tcp`).
    pub infers: Vec<Option<WireInferResponse>>,
}

/// One measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Every op attempted, in completion order per load thread.
    pub ops: Vec<Op>,
    /// From the window's start to the last op's completion.
    pub elapsed_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Machine-wide CPU seconds stolen by the hypervisor meanwhile.
    pub steal_s: f64,
    /// Open loop only: how late the generator submitted each op.
    pub lateness_us: Vec<f64>,
    /// Answers kept for replay (traced windows only).
    pub kept: Kept,
}

impl Window {
    /// Checks every answered op against the reference, turning a mismatch
    /// into [`Outcome::Wrong`]. Returns the number of wrong answers.
    pub fn verify(&mut self, reference: &Reference) -> usize {
        let mut wrong = 0;
        for op in self.ops.iter_mut().filter(|op| op.outcome == Outcome::Ok) {
            if !reference.check(op.frame, op.budget, op.digest) {
                op.outcome = Outcome::Wrong;
                wrong += 1;
            }
        }
        wrong
    }
}

/// The serving stack under test.
pub struct Rig {
    /// The engine (default configuration).
    pub engine: Arc<Engine>,
    server: Option<TcpServer>,
    addr: Option<SocketAddr>,
    clients: Vec<ServeClient>,
    /// Pool index the next open-loop window starts its frame cycle at.
    cursor: usize,
}

impl Rig {
    /// Starts the stack for `workload` and runs one verified warm-up op per
    /// connection (one for the in-process workload). This is what
    /// `setup_s` times.
    pub fn start(workload: Workload, frames: &[Arc<PointCloud>], reference: &Reference) -> Rig {
        let engine = Arc::new(Engine::start(ServeConfig::default()));
        let mut rig = Rig { engine, server: None, addr: None, clients: Vec::new(), cursor: 0 };
        let cfg = workload.pipeline();
        if workload.over_tcp() {
            let server =
                TcpServer::bind("127.0.0.1:0", Arc::clone(&rig.engine)).expect("bind localhost");
            rig.addr = Some(server.local_addr());
            rig.server = Some(server);
            for _ in 0..CONNECTIONS {
                rig.clients.push(connect(rig.addr.expect("bound")));
            }
            // The connections warm up together, as clients arriving at
            // once do.
            let request = infer_request();
            let ops = each_client(&mut rig.clients, |c, client| {
                let frame = c % frames.len();
                match workload {
                    Workload::ViewerTcp => stream_op(client, frame, &frames[frame], &cfg, None),
                    _ => infer_op(client, frame, &frames[frame], &request, None),
                }
            });
            for op in &ops {
                check_warmup(workload, op, reference);
            }
        } else {
            // The pool's last frame: its first timed use comes after the
            // whole pool has cycled through the LRU, so warming it leaves
            // every timed request a miss.
            let frame = frames.len() - 1;
            let resp =
                rig.engine.process_shared(Arc::clone(&frames[frame]), cfg).expect("warm-up frame");
            let budget = if resp.degraded { resp.budget_served } else { 0 };
            let op =
                Op { digest: digest_frame(&resp), budget, ..Op::bare(frame, 0.0, Outcome::Ok) };
            rig.engine.recycle(resp);
            check_warmup(workload, &op, reference);
        }
        rig
    }

    /// Stops the server and the engine, waiting for their threads.
    pub fn shutdown(mut self) {
        self.clients.clear();
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        self.engine.shutdown();
    }

    /// Measures one window of `seconds` of `workload` traffic.
    pub fn run(
        &mut self,
        workload: Workload,
        frames: &[Arc<PointCloud>],
        seed: u64,
        seconds: f64,
        keep: bool,
    ) -> Window {
        let cpu0 = host::cpu_seconds().unwrap_or(0.0);
        let steal0 = host::steal_seconds().unwrap_or(0.0);
        let mut window = match workload {
            Workload::LidarBurst => {
                let schedule = lidar_schedule(seed, seconds, frames.len(), self.cursor);
                self.cursor += schedule.len();
                open_loop(&self.engine, frames, &schedule)
            }
            _ => self.closed_loop(workload, frames, seed, seconds, keep),
        };
        window.cpu_s = host::cpu_seconds().unwrap_or(0.0) - cpu0;
        window.steal_s = host::steal_seconds().unwrap_or(0.0) - steal0;
        window
    }

    fn closed_loop(
        &mut self,
        workload: Workload,
        frames: &[Arc<PointCloud>],
        seed: u64,
        seconds: f64,
        keep: bool,
    ) -> Window {
        let addr = self.addr.expect("TCP workloads have a server");
        let cfg = workload.pipeline();
        let request = infer_request();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let results = each_client(&mut self.clients, |c, client| {
            let mut pick = picker(seed, c);
            let mut pacer = Pacer::new(workload, start, c);
            let mut ops = Vec::new();
            let mut kept =
                Kept { streams: vec![None; frames.len()], infers: vec![None; frames.len()] };
            let mut last = Instant::now();
            while pacer.wait(deadline) {
                let f = pick.below(frames.len() as u64) as usize;
                let op = match workload {
                    Workload::ViewerTcp => {
                        let slot = keep.then_some(&mut kept.streams[f]);
                        stream_op(client, f, &frames[f], &cfg, slot)
                    }
                    _ => {
                        let slot = keep.then_some(&mut kept.infers[f]);
                        infer_op(client, f, &frames[f], &request, slot)
                    }
                };
                last = Instant::now();
                if matches!(op.outcome, Outcome::Failed | Outcome::TimedOut) {
                    // The connection may be desynced or dead.
                    *client = connect(addr);
                }
                ops.push(op);
            }
            (ops, kept, last)
        });
        let mut window = Window::default();
        let mut end = start;
        window.kept.streams = vec![None; frames.len()];
        window.kept.infers = vec![None; frames.len()];
        for (ops, kept, last) in results {
            window.ops.extend(ops);
            end = end.max(last);
            for (dst, src) in window.kept.streams.iter_mut().zip(kept.streams) {
                if src.is_some() {
                    *dst = src;
                }
            }
            for (dst, src) in window.kept.infers.iter_mut().zip(kept.infers) {
                if src.is_some() {
                    *dst = src;
                }
            }
        }
        window.elapsed_s = (end - start).as_secs_f64();
        window
    }
}

/// Paces one closed-loop connection (see [`Workload::pace`]). Connection
/// `c` starts `c / CONNECTIONS` of a period late, so paced connections
/// take turns instead of starting together.
struct Pacer {
    period: Option<Duration>,
    next: Instant,
}

impl Pacer {
    fn new(workload: Workload, start: Instant, c: usize) -> Pacer {
        let period = workload.pace();
        let offset = period.map_or(Duration::ZERO, |p| p * c as u32 / CONNECTIONS as u32);
        Pacer { period, next: start + offset }
    }

    /// Sleeps until the next op is due; false once `deadline` has passed.
    fn wait(&mut self, deadline: Instant) -> bool {
        let now = Instant::now();
        if self.next > now {
            std::thread::sleep(self.next - now);
        }
        let now = Instant::now();
        if let Some(p) = self.period {
            // No catch-up bursts: an overrun op delays the next one.
            self.next = (self.next + p).max(now);
        }
        now < deadline
    }
}

/// Runs `f` once per client, each on its own thread, and returns the
/// results in client order.
fn each_client<T: Send>(
    clients: &mut [ServeClient],
    f: impl Fn(usize, &mut ServeClient) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || f(c, client)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("load-generator thread")).collect()
    })
}

fn connect(addr: SocketAddr) -> ServeClient {
    let mut client = ServeClient::connect(addr).expect("connect to the local server");
    client.set_read_timeout(Some(OP_TIMEOUT)).expect("set client read timeout");
    client
}

fn check_warmup(workload: Workload, op: &Op, reference: &Reference) {
    assert!(
        op.outcome == Outcome::Ok && reference.check(op.frame, op.budget, op.digest),
        "{}: the warm-up op failed or differs from the direct library result ({:?})",
        workload.name(),
        op.outcome
    );
}

/// The `INFER` request of `infer-tcp`: the server's default aggregation
/// (delayed), the default partition threshold.
pub fn infer_request() -> WireInferRequest {
    WireInferRequest {
        threshold: PipelineConfig::default().threshold as u32,
        seed: INFER_WEIGHT_SEED,
        aggregation: AGG_SERVER_DEFAULT,
        notation: INFER_NOTATION.to_owned(),
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn client_outcome(e: &ClientError) -> Outcome {
    match e {
        e if e.is_shed() => Outcome::Shed,
        ClientError::Io(io)
            if matches!(
                io.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ) =>
        {
            Outcome::TimedOut
        }
        _ => Outcome::Failed,
    }
}

fn engine_outcome(e: &ServeError) -> Outcome {
    match e {
        ServeError::Shed(_) => Outcome::Shed,
        _ => Outcome::Failed,
    }
}

/// One viewer: opens a stream with the server's default first paint,
/// chunk and credits, folds every chunk into a [`StreamAccumulator`]
/// (replenishing one credit per refinement, as `ServeClient::stream_frame`
/// does) and reads the end-of-stream frame. The op's latency ends at the
/// chunk that completes the frame, when the viewer can show full quality.
/// The wait from there to the end-of-stream frame is recorded apart, in
/// `OpFacts::end_wait_us`: it is either near 0 or about 40 ms, on a share
/// of streams that varies from run to run (see the README).
fn stream_op(
    client: &mut ServeClient,
    frame: usize,
    cloud: &PointCloud,
    cfg: &PipelineConfig,
    keep: Option<&mut Option<Vec<WireStreamChunk>>>,
) -> Op {
    let open = WireStreamOpen { first_paint: 0, chunk: 0, credits: 0 };
    let mut kept = keep.is_some().then(Vec::new);
    let t0 = Instant::now();
    let mut ttfb = None;
    let mut full = None;
    let mut credits = 0u32;
    let result = (|| {
        client.stream_open(cloud, cfg, Priority::Normal, 0, &open)?;
        let mut acc = StreamAccumulator::new();
        loop {
            match client.stream_next()? {
                StreamEvent::Chunk(chunk) => {
                    ttfb.get_or_insert_with(|| t0.elapsed());
                    acc.push(&chunk).map_err(ClientError::Protocol)?;
                    if acc.depth() < acc.total() {
                        client.stream_credit()?;
                        credits += 1;
                    } else {
                        full.get_or_insert_with(|| t0.elapsed());
                    }
                    if let Some(k) = kept.as_mut() {
                        k.push(chunk);
                    }
                }
                StreamEvent::End(_) => return Ok(acc),
            }
        }
    })();
    let end = us(t0.elapsed());
    let latency = full.map_or(end, us);
    match result {
        Ok(acc) => {
            let resp = acc.response();
            let found: u64 = resp.found.iter().map(|&f| u64::from(f)).sum();
            if let (Some(slot), Some(k)) = (keep, kept) {
                *slot = Some(k);
            }
            Op {
                frame,
                latency_us: latency,
                ttfb_us: ttfb.map_or(latency, us),
                outcome: Outcome::Ok,
                digest: digest_wire(&resp),
                budget: 0,
                facts: OpFacts {
                    chunks: acc.chunks(),
                    credits,
                    end_wait_us: end - latency,
                    found,
                    slots: resp.found.len() as u64 * u64::from(resp.num),
                    ..OpFacts::default()
                },
            }
        }
        Err(e) => Op::bare(frame, end, client_outcome(&e)),
    }
}

/// One `INFER` round trip.
fn infer_op(
    client: &mut ServeClient,
    frame: usize,
    cloud: &PointCloud,
    request: &WireInferRequest,
    keep: Option<&mut Option<WireInferResponse>>,
) -> Op {
    let t0 = Instant::now();
    let result = client.infer(cloud, request);
    let latency = us(t0.elapsed());
    match result {
        Ok(resp) => {
            let op = Op {
                frame,
                latency_us: latency,
                ttfb_us: latency,
                outcome: Outcome::Ok,
                digest: digest_infer(&resp),
                budget: 0,
                facts: OpFacts { macs: resp.macs_moved, ..OpFacts::default() },
            };
            if let Some(slot) = keep {
                *slot = Some(resp);
            }
            op
        }
        Err(e) => Op::bare(frame, latency, client_outcome(&e)),
    }
}

/// `lidar-burst`: one generator thread submits each scheduled frame at its
/// due time with `Engine::submit_shared`; one waiter thread redeems the
/// tickets in submission order, as a perception stack consuming frames in
/// order does, and times each from its due time.
fn open_loop(engine: &Engine, frames: &[Arc<PointCloud>], schedule: &[Arrival]) -> Window {
    let cfg = Workload::LidarBurst.pipeline();
    let (tx, rx) = mpsc::channel::<(Result<_, ServeError>, Instant, usize)>();
    let start = Instant::now() + Duration::from_millis(2);
    let (lateness, (ops, end)) = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut lateness = Vec::with_capacity(schedule.len());
            for a in schedule {
                let due = start + Duration::from_micros(a.at_us);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lateness.push(us(Instant::now().saturating_duration_since(due)));
                let ticket = engine.submit_shared(Arc::clone(&frames[a.frame]), cfg);
                if tx.send((ticket, due, a.frame)).is_err() {
                    break;
                }
            }
            lateness
        });
        let waiter = s.spawn(move || {
            let mut ops = Vec::new();
            let mut end = start;
            for (ticket, due, frame) in rx {
                let answer = ticket.map(|t| t.wait_timeout(OP_TIMEOUT));
                let done = Instant::now();
                end = end.max(done);
                let latency = us(done.saturating_duration_since(due));
                ops.push(match answer {
                    Ok(Some(Ok(resp))) => {
                        let op = Op {
                            frame,
                            latency_us: latency,
                            ttfb_us: latency,
                            outcome: Outcome::Ok,
                            digest: digest_frame(&resp),
                            budget: if resp.degraded { resp.budget_served } else { 0 },
                            facts: OpFacts {
                                sample_dist_evals: resp.sample_counters.distance_evals,
                                group_dist_evals: resp.group_counters.distance_evals,
                                found: resp.found.iter().map(|&f| f as u64).sum(),
                                slots: (resp.found.len() * resp.num) as u64,
                                ..OpFacts::default()
                            },
                        };
                        engine.recycle(resp);
                        op
                    }
                    Ok(Some(Err(e))) | Err(e) => Op::bare(frame, latency, engine_outcome(&e)),
                    Ok(None) => Op::bare(frame, latency, Outcome::TimedOut),
                });
            }
            (ops, end)
        });
        (generator.join().expect("generator thread"), waiter.join().expect("waiter thread"))
    });
    Window {
        ops,
        elapsed_s: (end - start).as_secs_f64(),
        lateness_us: lateness,
        ..Window::default()
    }
}

/// Closed-loop in-process replay of a TCP workload's op sequence (same
/// seeded frame picks, same two threads), straight into the engine: the
/// baseline `net.overhead_us` subtracts. Returns per-op latencies in µs.
pub fn in_process_replay(
    workload: Workload,
    engine: &Engine,
    frames: &[Arc<PointCloud>],
    seed: u64,
    seconds: f64,
) -> Vec<f64> {
    let cfg = workload.pipeline();
    let ec = engine.config();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let op = |cloud: &Arc<PointCloud>| -> Result<(), ServeError> {
        match workload {
            Workload::ViewerTcp => {
                let chunk = |lo, hi, p| {
                    engine.submit_stream_chunk(Arc::clone(cloud), cfg, lo, hi, p, None)?.wait()
                };
                let first = chunk(0, ec.stream_first_paint, Priority::Normal)?;
                let (mut depth, total) = (first.slice.hi, first.slice.total);
                while depth < total {
                    let next = chunk(depth, (depth + ec.stream_chunk).min(total), Priority::Bulk)?;
                    depth = next.slice.hi;
                }
            }
            _ => {
                let mut req = InferRequest::new(infer_model());
                req.seed = INFER_WEIGHT_SEED;
                let resp = engine.submit_infer(Arc::clone(cloud), req)?.wait()?;
                engine.recycle_infer(resp);
            }
        }
        Ok(())
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let op = &op;
                s.spawn(move || {
                    let mut pick = picker(seed, c);
                    let mut pacer = Pacer::new(workload, start, c);
                    let mut lat = Vec::new();
                    while pacer.wait(deadline) {
                        let f = pick.below(frames.len() as u64) as usize;
                        let t0 = Instant::now();
                        op(&frames[f]).expect("in-process replay op");
                        lat.push(us(t0.elapsed()));
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("replay thread")).collect()
    })
}
