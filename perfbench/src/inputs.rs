//! Workloads and their seeded inputs.
//!
//! Every input — frames, arrival times, which frame each closed-loop op
//! sends — is a pure function of the workload and the `--seed` argument.
//! The serving program receives only the generated frames.

use fractalcloud_core::PipelineConfig;
use fractalcloud_pnn::ModelConfig;
use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud_pointcloud::PointCloud;
use std::sync::Arc;

/// The three named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, in-process: bursts of large distinct frames that miss
    /// the partition cache.
    LidarBurst,
    /// Closed loop over TCP: progressive LOD streams of cached frames.
    ViewerTcp,
    /// Closed loop over TCP: network inference on small frames.
    InferTcp,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [Workload::LidarBurst, Workload::ViewerTcp, Workload::InferTcp];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LidarBurst => "lidar-burst",
            Workload::ViewerTcp => "viewer-tcp",
            Workload::InferTcp => "infer-tcp",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct frames in the workload's pool.
    pub fn pool(self) -> usize {
        match self {
            Workload::LidarBurst => 64,
            Workload::ViewerTcp => 8,
            Workload::InferTcp => 4,
        }
    }

    /// Points per frame.
    pub fn points(self) -> usize {
        match self {
            Workload::LidarBurst | Workload::ViewerTcp => 65_536,
            Workload::InferTcp => 4_096,
        }
    }

    /// The closed loop's pacing: the shortest interval between the starts
    /// of one connection's ops (`None` = next op right after the last).
    pub fn pace(self) -> Option<std::time::Duration> {
        match self {
            Workload::ViewerTcp => Some(std::time::Duration::from_micros(1_000_000 / VIEWER_FPS)),
            _ => None,
        }
    }

    /// True for the workloads that go through the TCP front end.
    pub fn over_tcp(self) -> bool {
        self != Workload::LidarBurst
    }

    /// The frame pipeline the workload requests (for `infer-tcp`, the
    /// stage-1 pipeline the server derives from the model).
    pub fn pipeline(self) -> PipelineConfig {
        match self {
            Workload::InferTcp => {
                let sa = &infer_model().stages[0];
                let threshold = PipelineConfig::default().threshold;
                PipelineConfig::new(threshold, sa.sample_ratio, sa.radius, sa.nsample)
            }
            _ => PipelineConfig::default(),
        }
    }

    /// Distinguishes the workloads' frame streams for one seed.
    fn tag(self) -> u64 {
        match self {
            Workload::LidarBurst => 0x4c49_4441,
            Workload::ViewerTcp => 0x5649_4557,
            Workload::InferTcp => 0x494e_4652,
        }
    }
}

/// The network `infer-tcp` runs.
pub const INFER_NOTATION: &str = "PN++ (c)";
/// The weight seed `infer-tcp` requests.
pub const INFER_WEIGHT_SEED: u64 = 42;

/// The zoo entry named [`INFER_NOTATION`].
pub fn infer_model() -> ModelConfig {
    ModelConfig::table1()
        .into_iter()
        .find(|m| m.notation == INFER_NOTATION)
        .expect("the model zoo lists PN++ (c)")
}

/// Frames per second each `viewer-tcp` viewer asks for: a viewer starts
/// its next stream one frame period after the last one started, or as
/// soon as that stream ends if it overran the period.
pub const VIEWER_FPS: u64 = 30;

/// Synchronised LiDARs in `lidar-burst`; each emits one frame per sweep.
pub const LIDARS: usize = 4;
/// Sweep period of `lidar-burst` in microseconds (4 Hz, 16 frames/s).
pub const SWEEP_US: u64 = 250_000;
/// Largest seeded offset of a LiDAR frame from its sweep time.
pub const JITTER_US: u64 = 1_000;

/// SplitMix64 finaliser: a well-mixed 64-bit function of `seed` and
/// `stream`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded generator (SplitMix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed, stream))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Frame `index` of the workload's pool for `seed`.
pub fn frame(workload: Workload, seed: u64, index: usize) -> PointCloud {
    let frame_seed = mix(seed ^ workload.tag(), index as u64);
    scene_cloud(&SceneConfig::default(), workload.points(), frame_seed)
}

/// The workload's whole frame pool for `seed`.
pub fn frames(workload: Workload, seed: u64) -> Vec<Arc<PointCloud>> {
    (0..workload.pool()).map(|i| Arc::new(frame(workload, seed, i))).collect()
}

/// One scheduled `lidar-burst` submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, microseconds after the window opens.
    pub at_us: u64,
    /// Pool index of the frame to submit.
    pub frame: usize,
}

/// The `lidar-burst` arrival schedule covering `seconds`: every sweep,
/// each LiDAR emits the next frame of the pool, starting at pool index
/// `first`, at the sweep time plus a seeded offset in `±JITTER_US`.
/// Frames cycle through the pool, which is larger than the engine's
/// partition LRU, so no frame is cached when it comes round again (a
/// later window continues the cycle where the previous one stopped).
/// Sorted by due time.
pub fn lidar_schedule(seed: u64, seconds: f64, pool: usize, first: usize) -> Vec<Arrival> {
    let sweeps = (seconds * 1e6 / SWEEP_US as f64).ceil() as u64;
    let mut rng = Rng::new(seed, 0x5357_4545);
    let mut out = Vec::with_capacity(sweeps as usize * LIDARS);
    for k in 0..sweeps {
        for l in 0..LIDARS {
            let offset = rng.below(2 * JITTER_US + 1);
            out.push(Arrival {
                at_us: k * SWEEP_US + offset,
                frame: (first + k as usize * LIDARS + l) % pool,
            });
        }
    }
    out.sort_by_key(|a| a.at_us);
    out
}

/// The closed-loop frame picker of connection `conn`: uniform over the
/// pool, seeded per connection.
pub fn picker(seed: u64, conn: usize) -> Rng {
    Rng::new(seed, 0x434f_4e4e + conn as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = lidar_schedule(7, 2.0, 64, 0);
        assert_eq!(a, lidar_schedule(7, 2.0, 64, 0));
        assert_ne!(a, lidar_schedule(8, 2.0, 64, 0));
        assert_eq!(a.len(), 8 * LIDARS);
        // Each burst stays within its sweep's jitter window.
        for w in a.chunks(LIDARS) {
            let sweep = w[0].at_us / SWEEP_US;
            assert!(w.iter().all(|x| x.at_us - sweep * SWEEP_US <= 2 * JITTER_US));
        }
        // Consecutive uses of one frame are a whole pool apart, so a
        // 32-entry LRU never holds it.
        let mut order: Vec<Arrival> = a.clone();
        order.sort_by_key(|x| (x.at_us / SWEEP_US, x.frame));
        assert_eq!(order[0].frame, 0);
        assert_eq!(order[LIDARS].frame, LIDARS);
        // A later window picks the cycle up where it stopped.
        let next = lidar_schedule(7, 2.0, 64, a.len());
        assert_eq!(next[0].frame / LIDARS, a.len() / LIDARS);
    }

    #[test]
    fn frames_and_picks_are_functions_of_the_seed() {
        let w = Workload::InferTcp;
        let a = frame(w, 11, 1);
        assert_eq!(a, frame(w, 11, 1));
        assert_ne!(a, frame(w, 12, 1));
        assert_ne!(a, frame(w, 11, 2));
        let picks = |seed| {
            let mut p = picker(seed, 0);
            (0..32).map(|_| p.below(8)).collect::<Vec<_>>()
        };
        assert_eq!(picks(3), picks(3));
        assert_ne!(picks(3), picks(4));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
