//! `LGT` — sequence-to-sequence translation with attention (Bahdanau
//! et al.; the paper trains a German→English seq2seq model on the Spacy
//! corpus).
//!
//! Encoder: embedding + GRU over the source tokens. Decoder: embedding +
//! GRU with dot-product attention over the encoder states, teacher-forced
//! cross-entropy per step, Adam updates. The long unrolled tape of small
//! GEMMs, gate elementwise kernels, softmaxes, embedding gathers and the
//! fused Adam update is what gives LGT the paper's largest kernel
//! population (66) with a memory-bound dominant kernel.

use cactus_gpu::LaunchSink;

use crate::datasets;
use crate::graph::{Graph, VarId};
use crate::layers::{Embedding, GruCell, Linear};
use crate::optim::{Adam, Optimizer};
use crate::tensor::Tensor;

/// Scale knobs specific to the translation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqScale {
    /// Sentences per batch.
    pub batch: usize,
    /// Sentence length.
    pub len: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Training iterations.
    pub iterations: usize,
}

impl SeqScale {
    /// Test-sized scale.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            batch: 2,
            len: 4,
            vocab: 24,
            hidden: 8,
            iterations: 2,
        }
    }

    /// Profiling scale used by the benchmark harness.
    #[must_use]
    pub fn default_profile() -> Self {
        Self {
            batch: 16,
            len: 8,
            vocab: 128,
            hidden: 64,
            iterations: 3,
        }
    }
}

/// The seq2seq-with-attention training application.
#[derive(Debug)]
pub struct Seq2Seq {
    scale: SeqScale,
    enc_embed: Embedding,
    enc_gru: GruCell,
    dec_embed: Embedding,
    dec_gru: GruCell,
    out_proj: Linear,
    opt: Adam,
    corpus: Vec<(Vec<usize>, Vec<usize>)>,
    iteration: u64,
}

impl Seq2Seq {
    /// Build the app at the given scale.
    #[must_use]
    pub fn new(scale: SeqScale, seed: u64) -> Self {
        let emb = scale.hidden;
        Self {
            scale,
            enc_embed: Embedding::new(scale.vocab, emb, seed),
            enc_gru: GruCell::new(emb, scale.hidden, seed + 10),
            dec_embed: Embedding::new(scale.vocab, emb, seed + 20),
            dec_gru: GruCell::new(emb + scale.hidden, scale.hidden, seed + 30),
            out_proj: Linear::new(2 * scale.hidden, scale.vocab, seed + 40),
            opt: Adam::new(5e-3),
            corpus: datasets::translation_corpus(
                scale.batch * 16,
                scale.vocab,
                scale.len,
                seed + 50,
            ),
            iteration: 0,
        }
    }

    fn batch_indices(&self) -> Vec<usize> {
        let b = self.scale.batch;
        let total = self.corpus.len();
        (0..b)
            .map(|i| (self.iteration as usize * b + i) % total)
            .collect()
    }

    /// One teacher-forced training iteration; returns the mean per-token
    /// cross-entropy.
    #[allow(clippy::too_many_lines)]
    pub fn train_iteration(&mut self, gpu: &mut dyn LaunchSink) -> f32 {
        let b = self.scale.batch;
        let t_len = self.scale.len;
        let hidden = self.scale.hidden;
        let rows = self.batch_indices();

        let mut g = Graph::new();

        // ---- Encode -----------------------------------------------------
        let mut h = g.input(Tensor::zeros(&[b, hidden]));
        let mut enc_states: Vec<VarId> = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let tokens: Vec<usize> = rows.iter().map(|&r| self.corpus[r].0[t]).collect();
            let x = self.enc_embed.forward(&mut g, gpu, &tokens);
            h = self.enc_gru.forward(&mut g, gpu, x, h);
            enc_states.push(h);
        }

        // ---- Decode with attention ---------------------------------------
        let mut dec_h = h;
        let mut total_loss: Option<VarId> = None;
        for t in 0..t_len {
            // Teacher forcing: BOS (0) then gold prefix.
            let inputs: Vec<usize> = rows
                .iter()
                .map(|&r| if t == 0 { 0 } else { self.corpus[r].1[t - 1] })
                .collect();
            let targets: Vec<usize> = rows.iter().map(|&r| self.corpus[r].1[t]).collect();

            // Dot-product attention scores against every encoder state.
            let mut scores: Option<VarId> = None;
            for &enc in &enc_states {
                let prod = g.mul(gpu, dec_h, enc);
                let score = g.sum_rows(gpu, prod); // [b,1]
                scores = Some(match scores {
                    None => score,
                    Some(acc) => g.concat_cols(gpu, acc, score),
                });
            }
            let alpha = g.softmax_rows(gpu, scores.expect("≥1 encoder state")); // [b,T]

            // Context = Σ_t α_t · enc_t.
            let mut context: Option<VarId> = None;
            for (ti, &enc) in enc_states.iter().enumerate() {
                let col = g.slice_cols(gpu, alpha, ti, ti + 1);
                let weighted = g.mul_col_broadcast(gpu, enc, col);
                context = Some(match context {
                    None => weighted,
                    Some(acc) => g.add(gpu, acc, weighted),
                });
            }
            let context = context.expect("context");

            // GRU step on [embedding ‖ context].
            let emb = self.dec_embed.forward(&mut g, gpu, &inputs);
            let gru_in = g.concat_cols(gpu, emb, context);
            dec_h = self.dec_gru.forward(&mut g, gpu, gru_in, dec_h);

            // Project [h ‖ context] to vocabulary logits.
            let proj_in = g.concat_cols(gpu, dec_h, context);
            let logits = self.out_proj.forward(&mut g, gpu, proj_in);
            let loss = g.softmax_cross_entropy(gpu, logits, &targets);
            total_loss = Some(match total_loss {
                None => loss,
                Some(acc) => g.add(gpu, acc, loss),
            });
        }

        let total = total_loss.expect("loss");
        let mean_loss = g.scale(gpu, total, 1.0 / t_len as f32);
        g.backward(gpu, mean_loss);

        self.opt.begin_step();
        self.enc_embed.update(&g, &mut self.opt, gpu);
        self.enc_gru.update(&g, &mut self.opt, gpu);
        self.dec_embed.update(&g, &mut self.opt, gpu);
        self.dec_gru.update(&g, &mut self.opt, gpu);
        self.out_proj.update(&g, &mut self.opt, gpu);

        self.iteration += 1;
        g.value(mean_loss).data()[0]
    }

    /// Run the configured iterations; returns the loss series.
    pub fn run(&mut self, gpu: &mut dyn LaunchSink) -> Vec<f32> {
        (0..self.scale.iterations)
            .map(|_| self.train_iteration(gpu))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::kernel::KernelDesc;
    use std::collections::BTreeSet;

    #[test]
    fn seq2seq_loss_decreases_on_toy_corpus() {
        let mut launches = Vec::new();
        let mut app = Seq2Seq::new(
            SeqScale {
                batch: 4,
                len: 3,
                vocab: 12,
                hidden: 12,
                iterations: 40,
            },
            1,
        );
        let losses = app.run(&mut launches);
        assert!(losses.iter().all(|l| l.is_finite()));
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            tail < head * 0.9,
            "translation loss should fall: {head} → {tail}"
        );
    }

    #[test]
    fn seq2seq_has_the_largest_kernel_population() {
        let mut launches = Vec::new();
        let mut app = Seq2Seq::new(SeqScale::tiny(), 2);
        let _ = app.train_iteration(&mut launches);
        let names: BTreeSet<&str> = launches.iter().map(KernelDesc::name).collect();
        assert!(names.len() >= 25, "{} kernels: {names:?}", names.len());
        assert!(names.iter().any(|n| n.contains("indexSelect")));
        assert!(names.iter().any(|n| n.contains("softmax")));
        assert!(names.iter().any(|n| n.contains("adam")));
        assert!(names.iter().any(|n| n.contains("Cat")));
    }
}
