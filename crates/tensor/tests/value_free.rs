//! Which ML families launch a stream that no tensor value can change.
//!
//! Every `cactus_tensor::kernels` launcher takes sizes, never tensors, so a
//! family whose control flow never reads a value launches the same
//! descriptors whatever its weights and data hold. Each test builds one
//! family twice at the same scale with different seeds (weights, data and
//! the family's own RNG all change) and compares the launched streams: equal
//! means nothing but the shapes decides the stream. A change that moves a
//! family across that line fails here. DESIGN.md §5h records the table and
//! what it licenses.

use cactus_gpu::kernel::KernelDesc;
use cactus_tensor::apps::dcgan::{Dcgan, MlScale};
use cactus_tensor::apps::neural_style::NeuralStyle;
use cactus_tensor::apps::rl_dqn::DqnFlappy;
use cactus_tensor::apps::seq2seq::{Seq2Seq, SeqScale};
use cactus_tensor::apps::spatial_transformer::SpatialTransformer;

/// The descriptor streams of one family run at the suite's seed and at
/// another.
fn streams(run: impl Fn(&mut Vec<KernelDesc>, u64), seed: u64) -> [Vec<KernelDesc>; 2] {
    [seed, seed + 1000].map(|s| {
        let mut launches = Vec::new();
        run(&mut launches, s);
        launches
    })
}

fn assert_value_free(run: impl Fn(&mut Vec<KernelDesc>, u64), seed: u64) {
    let [a, b] = streams(run, seed);
    assert!(!a.is_empty(), "the run launches kernels");
    assert!(a == b, "the launch stream depends on values");
}

#[test]
fn dcgan_is_value_free() {
    assert_value_free(
        |launches, seed| {
            let _ = Dcgan::new(MlScale::tiny(), seed).run(launches);
        },
        47,
    );
}

#[test]
fn neural_style_is_value_free() {
    assert_value_free(
        |launches, seed| {
            let _ = NeuralStyle::new(MlScale::tiny(), seed).run(launches);
        },
        48,
    );
}

#[test]
fn spatial_transformer_is_value_free() {
    assert_value_free(
        |launches, seed| {
            let _ = SpatialTransformer::new(MlScale::tiny(), seed).run(launches);
        },
        50,
    );
}

#[test]
fn seq2seq_is_value_free() {
    assert_value_free(
        |launches, seed| {
            let _ = Seq2Seq::new(SeqScale::tiny(), seed).run(launches);
        },
        51,
    );
}

/// ε-greedy acting decides explore-or-exploit with the agent's RNG, so how
/// many batch-1 forward passes an iteration launches follows the seed. The
/// weights never reach the stream (`rl_dqn`'s unit test
/// `weights_never_reach_the_launch_stream`): the family is seed-dependent
/// but value-free.
#[test]
fn dqn_stream_follows_the_seed() {
    let [a, b] = streams(
        |launches, seed| {
            let _ = DqnFlappy::new(MlScale::tiny(), seed).run(launches);
        },
        49,
    );
    assert!(
        a != b,
        "the DQN launch stream no longer depends on the seed"
    );
}
