//! Output verification.
//!
//! Before anything is timed, every input frame is run through the library
//! directly — `core::Pipeline` for frames, `pnn::NetworkExecutor` on top
//! of the stage-1 pipeline for inference — and its result reduced to one
//! 64-bit digest. Every response the serving stack returns is reduced the
//! same way and compared. A browned-out frame response is compared with
//! `Pipeline::run_with_partition_budget` at the budget it was served.

use crate::inputs::{infer_model, Workload, INFER_WEIGHT_SEED};
use fractalcloud_core::{Pipeline, PipelineOutput, Workspace};
use fractalcloud_pnn::{Aggregation, InferOutput, InferenceConfig, NetworkExecutor};
use fractalcloud_pointcloud::PointCloud;
use fractalcloud_serve::protocol::{WireInferResponse, WireResponse};
use fractalcloud_serve::FrameResponse;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Order-sensitive 64-bit digest of a word sequence.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(0x243f_6a88_85a3_08d3)
    }

    /// Folds one word in.
    pub fn word(mut self, w: u64) -> Digest {
        self.0 = (self.0.rotate_left(23) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self
    }

    /// Folds a length-prefixed run of words in.
    pub fn words(self, ws: impl ExactSizeIterator<Item = u64>) -> Digest {
        let d = self.word(ws.len() as u64);
        ws.fold(d, Digest::word)
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

fn wide(v: &[usize]) -> impl ExactSizeIterator<Item = u64> + '_ {
    v.iter().map(|&x| x as u64)
}

fn wide32(v: &[u32]) -> impl ExactSizeIterator<Item = u64> + '_ {
    v.iter().map(|&x| u64::from(x))
}

fn frame_digest(
    sampled: impl ExactSizeIterator<Item = u64>,
    neighbors: impl ExactSizeIterator<Item = u64>,
    found: impl ExactSizeIterator<Item = u64>,
    num: u64,
    blocks: u64,
) -> u64 {
    Digest::new().words(sampled).words(neighbors).words(found).word(num).word(blocks).finish()
}

/// Digest of a direct pipeline result.
pub fn digest_output(out: &PipelineOutput) -> u64 {
    let w = wide;
    frame_digest(
        w(&out.sampled.indices),
        w(&out.grouped.indices),
        w(&out.grouped.found),
        out.grouped.num as u64,
        out.blocks as u64,
    )
}

/// Digest of an in-process frame response.
pub fn digest_frame(r: &FrameResponse) -> u64 {
    let w = wide;
    frame_digest(
        w(&r.sampled_indices),
        w(&r.neighbor_indices),
        w(&r.found),
        r.num as u64,
        r.blocks as u64,
    )
}

/// Digest of a frame response that crossed the wire (for `viewer-tcp`,
/// the folded stream).
pub fn digest_wire(r: &WireResponse) -> u64 {
    let w = wide32;
    frame_digest(
        w(&r.sampled_indices),
        w(&r.neighbor_indices),
        w(&r.found),
        u64::from(r.num),
        u64::from(r.blocks),
    )
}

fn infer_digest(
    classes: u64,
    rows: impl ExactSizeIterator<Item = u64>,
    logits: impl ExactSizeIterator<Item = u64>,
) -> u64 {
    Digest::new().word(classes).words(rows).words(logits).finish()
}

/// Digest of a direct inference result.
pub fn digest_infer_output(out: &InferOutput) -> u64 {
    infer_digest(
        out.classes as u64,
        out.row_index.iter().map(|&r| r as u64),
        out.logits.iter().map(|l| u64::from(l.to_bits())),
    )
}

/// Digest of an inference response that crossed the wire.
pub fn digest_infer(r: &WireInferResponse) -> u64 {
    infer_digest(
        u64::from(r.classes),
        r.row_index.iter().map(|&i| u64::from(i)),
        r.logits.iter().map(|l| u64::from(l.to_bits())),
    )
}

/// Per-frame facts of the direct stage-1 run, for the per-layer report.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameFacts {
    /// Leaf blocks of the frame's partition.
    pub blocks: usize,
    /// Distance evaluations of block sampling.
    pub sample_dist_evals: u64,
    /// Distance evaluations of block grouping.
    pub group_dist_evals: u64,
    /// In-radius hits over all centers.
    pub found: u64,
    /// Neighbor slots over all centers.
    pub slots: u64,
}

impl FrameFacts {
    fn of(out: &PipelineOutput) -> FrameFacts {
        FrameFacts {
            blocks: out.blocks,
            sample_dist_evals: out.sampled.counters.distance_evals,
            group_dist_evals: out.grouped.counters.distance_evals,
            found: out.grouped.found.iter().map(|&f| f as u64).sum(),
            slots: (out.grouped.found.len() * out.grouped.num) as u64,
        }
    }
}

/// The expected digest of every frame of one workload's pool.
pub struct Reference {
    workload: Workload,
    frames: Vec<Arc<PointCloud>>,
    digests: Vec<u64>,
    facts: Vec<FrameFacts>,
    budgets: Mutex<HashMap<(usize, usize), u64>>,
}

impl Reference {
    /// Runs every frame through the library directly.
    pub fn compute(workload: Workload, frames: &[Arc<PointCloud>]) -> Reference {
        let pipeline = Pipeline::new(workload.pipeline()).expect("workload pipelines are valid");
        let executor = (workload == Workload::InferTcp).then(|| {
            NetworkExecutor::new(InferenceConfig {
                model: infer_model(),
                seed: INFER_WEIGHT_SEED,
                aggregation: Aggregation::Delayed,
            })
        });
        let mut ws = Workspace::new();
        let mut digests = Vec::with_capacity(frames.len());
        let mut facts = Vec::with_capacity(frames.len());
        for cloud in frames {
            let out = pipeline.run(cloud, true).expect("reference pipeline run");
            facts.push(FrameFacts::of(&out));
            digests.push(match &executor {
                Some(ex) => digest_infer_output(
                    &ex.run_with_stage1(cloud, &out, &mut ws).expect("reference inference"),
                ),
                None => digest_output(&out),
            });
        }
        Reference {
            workload,
            frames: frames.to_vec(),
            digests,
            facts,
            budgets: Mutex::new(HashMap::new()),
        }
    }

    /// Facts of frame `i`'s direct run.
    pub fn facts(&self, i: usize) -> FrameFacts {
        self.facts[i]
    }

    /// Expected digest of frame `i` served at sample budget `budget` (0 =
    /// full depth). Budgeted digests are computed on first use.
    pub fn expected(&self, i: usize, budget: usize) -> u64 {
        if budget == 0 {
            return self.digests[i];
        }
        let mut cache = self.budgets.lock().expect("budget cache lock");
        *cache.entry((i, budget)).or_insert_with(|| {
            let pipeline = Pipeline::new(self.workload.pipeline()).expect("valid pipeline");
            let cloud = &self.frames[i];
            let built = pipeline.partition(cloud, true).expect("reference partition");
            let out = pipeline
                .run_with_partition_budget(cloud, &built, budget, true)
                .expect("reference budget run");
            digest_output(&out)
        })
    }

    /// True when a response digest matches frame `i` at `budget`.
    pub fn check(&self, i: usize, budget: usize, digest: u64) -> bool {
        self.expected(i, budget) == digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_core::PipelineConfig;
    use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
    use fractalcloud_serve::{Engine, ServeConfig};

    #[test]
    fn a_corrupted_response_is_caught() {
        let frames = vec![Arc::new(scene_cloud(&SceneConfig::default(), 2048, 5))];
        let reference = Reference::compute(Workload::LidarBurst, &frames);
        let engine = Engine::start(ServeConfig::default().workers(1));
        let mut resp = engine
            .process_shared(Arc::clone(&frames[0]), PipelineConfig::default())
            .expect("served");
        engine.shutdown();
        assert!(reference.check(0, 0, digest_frame(&resp)), "a correct response passes");

        let last = resp.neighbor_indices.len() - 1;
        resp.neighbor_indices[last] ^= 1;
        assert!(!reference.check(0, 0, digest_frame(&resp)), "one flipped neighbor is caught");
        resp.neighbor_indices[last] ^= 1;
        resp.sampled_indices.swap(0, 1);
        assert!(!reference.check(0, 0, digest_frame(&resp)), "reordered samples are caught");
    }

    #[test]
    fn a_budgeted_response_checks_against_the_prefix_run() {
        let frames = vec![Arc::new(scene_cloud(&SceneConfig::default(), 2048, 6))];
        let reference = Reference::compute(Workload::LidarBurst, &frames);
        let engine = Engine::start(ServeConfig::default().workers(1));
        let resp = engine
            .submit_shared_budget(
                Arc::clone(&frames[0]),
                PipelineConfig::default(),
                100,
                fractalcloud_serve::Priority::Normal,
                None,
            )
            .expect("admitted")
            .wait()
            .expect("served");
        engine.shutdown();
        assert!(reference.check(0, 100, digest_frame(&resp)));
        assert!(!reference.check(0, 0, digest_frame(&resp)));
        assert!(!reference.check(0, 99, digest_frame(&resp)));
    }

    #[test]
    fn wire_and_in_process_digests_agree() {
        let cloud = scene_cloud(&SceneConfig::default(), 1024, 8);
        let out = Pipeline::new(PipelineConfig::default()).unwrap().run(&cloud, false).unwrap();
        let u32s = |v: &[usize]| v.iter().map(|&x| x as u32).collect::<Vec<_>>();
        let wire = WireResponse {
            sampled_indices: u32s(&out.sampled.indices),
            neighbor_indices: u32s(&out.grouped.indices),
            found: u32s(&out.grouped.found),
            num: out.grouped.num as u32,
            blocks: out.blocks as u32,
            cache_hit: false,
            batch_size: 1,
            degraded: false,
            budget_served: 0,
        };
        assert_eq!(digest_wire(&wire), digest_output(&out));
    }
}
