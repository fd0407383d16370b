//! `RFL` — Deep-Q-Network reinforcement learning on a flappy-bird
//! environment (Mnih et al. DQN; the paper trains on the classic
//! `DeepLearningFlappyBird` repo).
//!
//! The environment is implemented for real — gravity, flap impulse, pipe
//! scrolling, collision detection — and rendered to a small grayscale
//! screen tensor, which a convolutional Q-network consumes. Training uses
//! an experience-replay buffer, ε-greedy exploration, and the standard
//! `r + γ·max_a' Q(s',a')` bootstrap target (computed detached). The many
//! tiny batch-1 action-selection forward passes are exactly what gives RFL
//! the smallest warp-instructions-per-kernel figure among the paper's ML
//! workloads (Table I: 2.1 M).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cactus_gpu::LaunchSink;

use crate::apps::dcgan::MlScale;
use crate::graph::{Graph, VarId};
use crate::layers::{Conv2d, Linear};
use crate::optim::{Adam, Optimizer};
use crate::tensor::Tensor;

/// The flappy-bird environment, on a unit square with a fixed-width screen
/// rasterization.
#[derive(Debug, Clone)]
pub(crate) struct FlappyEnv {
    /// Bird altitude in `[0, 1]`.
    pub bird_y: f64,
    /// Bird vertical velocity.
    pub bird_v: f64,
    /// Pipe horizontal positions and gap centers.
    pub pipes: Vec<(f64, f64)>,
    /// Steps survived in the current episode.
    pub steps: u32,
    rng: StdRng,
}

/// Gap half-height of a pipe.
const GAP: f64 = 0.22;
/// Bird x position (fixed; pipes scroll left).
const BIRD_X: f64 = 0.3;

impl FlappyEnv {
    /// New environment with deterministic pipe placement per seed.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        let mut env = Self {
            bird_y: 0.5,
            bird_v: 0.0,
            pipes: Vec::new(),
            steps: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        env.reset();
        env
    }

    /// Reset the episode.
    pub(crate) fn reset(&mut self) {
        self.bird_y = 0.5;
        self.bird_v = 0.0;
        self.steps = 0;
        self.pipes = (0..3)
            .map(|i| (0.8 + 0.5 * f64::from(i), self.rng.gen_range(0.3..0.7)))
            .collect();
    }

    /// Advance one tick; `flap` applies the upward impulse. Returns
    /// `(reward, done)`: +0.1 per tick survived, +1 for passing a pipe,
    /// −1 on crash.
    pub(crate) fn step(&mut self, flap: bool) -> (f64, bool) {
        const GRAVITY: f64 = 0.004;
        const IMPULSE: f64 = -0.035;
        const SCROLL: f64 = 0.02;

        if flap {
            self.bird_v = IMPULSE;
        }
        self.bird_v += GRAVITY;
        self.bird_y += self.bird_v;
        self.steps += 1;

        let mut reward = 0.1;
        for p in &mut self.pipes {
            let before = p.0;
            p.0 -= SCROLL;
            if before >= BIRD_X && p.0 < BIRD_X {
                reward += 1.0; // passed a pipe
            }
        }
        // Recycle pipes that scrolled off.
        for i in 0..self.pipes.len() {
            if self.pipes[i].0 < -0.1 {
                let rightmost = self.pipes.iter().map(|p| p.0).fold(f64::MIN, f64::max);
                self.pipes[i] = (rightmost + 0.5, self.rng.gen_range(0.3..0.7));
            }
        }

        let crashed = self.bird_y <= 0.0
            || self.bird_y >= 1.0
            || self
                .pipes
                .iter()
                .any(|&(px, gy)| (px - BIRD_X).abs() < 0.05 && (self.bird_y - gy).abs() > GAP);
        if crashed {
            reward = -1.0;
        }
        (reward, crashed)
    }

    /// Rasterize to a `[1, 1, size, size]` grayscale screen.
    #[must_use]
    pub(crate) fn render(&self, size: usize) -> Tensor {
        let mut t = Tensor::zeros(&[1, 1, size, size]);
        let s = size as f64;
        // Pipes: vertical bars with a gap.
        for &(px, gy) in &self.pipes {
            if !(0.0..1.0).contains(&px) {
                continue;
            }
            let col = (px * s) as usize;
            for y in 0..size {
                let fy = y as f64 / s;
                if (fy - gy).abs() > GAP {
                    for dx in 0..2usize {
                        let x = (col + dx).min(size - 1);
                        t.data_mut()[y * size + x] = 0.7;
                    }
                }
            }
        }
        // Bird: a bright 2×2 block.
        let by = ((self.bird_y.clamp(0.0, 0.999)) * s) as usize;
        let bx = (BIRD_X * s) as usize;
        for dy in 0..2usize {
            for dx in 0..2usize {
                let y = (by + dy).min(size - 1);
                let x = (bx + dx).min(size - 1);
                t.data_mut()[y * size + x] = 1.0;
            }
        }
        t
    }
}

/// A stored transition.
#[derive(Debug, Clone)]
struct Transition {
    state: Tensor,
    action: usize,
    reward: f32,
    next_state: Tensor,
    done: bool,
}

/// The DQN training application.
#[derive(Debug)]
pub struct DqnFlappy {
    scale: MlScale,
    env: FlappyEnv,
    conv1: Conv2d,
    conv2: Conv2d,
    fc1: Linear,
    fc2: Linear,
    opt: Adam,
    replay: Vec<Transition>,
    epsilon: f64,
    gamma: f32,
    rng: StdRng,
    /// Environment steps taken per training iteration.
    pub steps_per_iteration: usize,
}

impl DqnFlappy {
    /// Build the app (screen size = `scale.image`).
    #[must_use]
    pub fn new(scale: MlScale, seed: u64) -> Self {
        let s = scale.image;
        let s4 = s / 4;
        Self {
            scale,
            env: FlappyEnv::new(seed),
            conv1: Conv2d::new(1, 16, 4, 2, 1, seed + 1),
            conv2: Conv2d::new(16, 32, 3, 1, 1, seed + 2),
            fc1: Linear::new(32 * s4 * s4, 64, seed + 3),
            fc2: Linear::new(64, 2, seed + 4),
            opt: Adam::new(1e-3),
            replay: Vec::new(),
            epsilon: 0.3,
            gamma: 0.95,
            rng: StdRng::seed_from_u64(seed + 9),
            steps_per_iteration: 8,
        }
    }

    fn q_forward(
        &mut self,
        g: &mut Graph,
        gpu: &mut dyn LaunchSink,
        x: VarId,
        batch: usize,
    ) -> VarId {
        let s4 = self.scale.image / 4;
        let c1 = self.conv1.forward(g, gpu, x);
        let r1 = g.relu(gpu, c1);
        let c2 = self.conv2.forward(g, gpu, r1);
        let r2 = g.relu(gpu, c2);
        let p = g.maxpool2d(gpu, r2, 2);
        let flat = g.reshape(p, &[batch, 32 * s4 * s4]);
        let h = self.fc1.forward(g, gpu, flat);
        let hr = g.relu(gpu, h);
        self.fc2.forward(g, gpu, hr)
    }

    /// Greedy Q values for one state (detached forward pass).
    fn q_values(&mut self, gpu: &mut dyn LaunchSink, state: &Tensor) -> [f32; 2] {
        self.q_values_batch(gpu, std::slice::from_ref(state))[0]
    }

    /// Detached Q values for a batch of states in a single forward pass
    /// (how the replay targets are evaluated in practice).
    fn q_values_batch(&mut self, gpu: &mut dyn LaunchSink, states: &[Tensor]) -> Vec<[f32; 2]> {
        let b = states.len();
        let size = self.scale.image;
        let mut data = Vec::with_capacity(b * size * size);
        for s in states {
            data.extend_from_slice(s.data());
        }
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(&[b, 1, size, size], data));
        let q = self.q_forward(&mut g, gpu, x, b);
        (0..b)
            .map(|r| [g.value(q).data()[r * 2], g.value(q).data()[r * 2 + 1]])
            .collect()
    }

    /// One training iteration: act in the environment for
    /// `steps_per_iteration` ticks (ε-greedy), then fit one replay
    /// minibatch. Returns the TD loss.
    pub fn train_iteration(&mut self, gpu: &mut dyn LaunchSink) -> f32 {
        let size = self.scale.image;

        // --- Act ------------------------------------------------------
        for _ in 0..self.steps_per_iteration {
            let state = self.env.render(size);
            let action = if self.rng.gen::<f64>() < self.epsilon {
                self.rng.gen_range(0..2)
            } else {
                let q = self.q_values(gpu, &state);
                usize::from(q[1] > q[0])
            };
            let (reward, done) = self.env.step(action == 1);
            let next_state = self.env.render(size);
            self.replay.push(Transition {
                state,
                action,
                reward: reward as f32,
                next_state,
                done,
            });
            if done {
                self.env.reset();
            }
        }
        if self.replay.len() > 512 {
            let excess = self.replay.len() - 512;
            self.replay.drain(0..excess);
        }
        self.epsilon = (self.epsilon * 0.995).max(0.05);

        // --- Learn ----------------------------------------------------
        let b = self.scale.batch.min(self.replay.len());
        let batch: Vec<Transition> = (0..b)
            .map(|_| self.replay[self.rng.gen_range(0..self.replay.len())].clone())
            .collect();

        // Bootstrap targets (detached), evaluated in two batched forwards.
        let now_states: Vec<Tensor> = batch.iter().map(|t| t.state.clone()).collect();
        let next_states: Vec<Tensor> = batch.iter().map(|t| t.next_state.clone()).collect();
        let q_now_all = self.q_values_batch(gpu, &now_states);
        let q_next_all = self.q_values_batch(gpu, &next_states);
        let mut targets = Vec::with_capacity(b * 2);
        let mut states = Vec::with_capacity(b * size * size);
        for (i, tr) in batch.iter().enumerate() {
            let boot = if tr.done {
                tr.reward
            } else {
                tr.reward + self.gamma * q_next_all[i][0].max(q_next_all[i][1])
            };
            let mut row = q_now_all[i];
            row[tr.action] = boot;
            targets.extend_from_slice(&row);
            states.extend_from_slice(tr.state.data());
        }

        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(&[b, 1, size, size], states));
        let q = self.q_forward(&mut g, gpu, x, b);
        let t = g.input(Tensor::from_vec(&[b, 2], targets));
        let loss = g.mse_loss(gpu, q, t);
        g.backward(gpu, loss);

        self.opt.begin_step();
        self.conv1.update(&g, &mut self.opt, gpu);
        self.conv2.update(&g, &mut self.opt, gpu);
        self.fc1.update(&g, &mut self.opt, gpu);
        self.fc2.update(&g, &mut self.opt, gpu);
        g.value(loss).data()[0]
    }

    /// Run the configured number of iterations; returns the TD-loss series.
    pub fn run(&mut self, gpu: &mut dyn LaunchSink) -> Vec<f32> {
        (0..self.scale.iterations)
            .map(|_| self.train_iteration(gpu))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_physics_gravity_and_flap() {
        let mut env = FlappyEnv::new(1);
        let y0 = env.bird_y;
        let _ = env.step(false);
        let _ = env.step(false);
        assert!(env.bird_y > y0, "gravity pulls the bird down (y grows)");
        let v_before = env.bird_v;
        let _ = env.step(true);
        assert!(env.bird_v < v_before, "flap gives upward velocity");
    }

    #[test]
    fn env_eventually_crashes_without_input() {
        let mut env = FlappyEnv::new(2);
        let mut done = false;
        for _ in 0..500 {
            let (_, d) = env.step(false);
            if d {
                done = true;
                break;
            }
        }
        assert!(done, "free fall must crash");
    }

    #[test]
    fn render_contains_bird_and_pipes() {
        let env = FlappyEnv::new(3);
        let screen = env.render(16);
        assert_eq!(screen.shape(), &[1, 1, 16, 16]);
        assert!(screen.data().contains(&1.0), "bird pixel");
        assert!(screen.data().contains(&0.7), "pipe pixels");
    }

    #[test]
    fn dqn_trains_and_loss_is_finite() {
        let mut launches = Vec::new();
        let mut app = DqnFlappy::new(MlScale::tiny(), 4);
        let losses = app.run(&mut launches);
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    /// Whether a step explores is drawn before any Q value is read, so new
    /// weights change the Q values and the losses but not one launch.
    #[test]
    fn weights_never_reach_the_launch_stream() {
        let run = |reinit: bool| {
            let mut app = DqnFlappy::new(MlScale::tiny(), 49);
            if reinit {
                app.conv1 = Conv2d::new(1, 16, 4, 2, 1, 1050);
                app.fc2 = Linear::new(64, 2, 1053);
            }
            let mut launches = Vec::new();
            let losses = app.run(&mut launches);
            (losses, launches)
        };
        let (base, perturbed) = (run(false), run(true));
        assert_ne!(base.0, perturbed.0, "the new weights change the losses");
        assert!(base.1 == perturbed.1, "but not the launch stream");
    }

    #[test]
    fn dqn_launches_many_small_forward_passes() {
        let mut launches = Vec::new();
        let mut app = DqnFlappy::new(MlScale::tiny(), 5);
        let _ = app.train_iteration(&mut launches);
        // Acting alone requires ≥ steps_per_iteration batch-1 forwards.
        let conv_launches = launches
            .iter()
            .filter(|d| d.name().contains("winograd") || d.name().contains("implicit"))
            .count();
        assert!(
            conv_launches >= 2 * app.steps_per_iteration,
            "{conv_launches}"
        );
    }
}
