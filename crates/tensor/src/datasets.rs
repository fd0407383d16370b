//! Synthetic datasets standing in for the paper's inputs (Celeb-A, MNIST,
//! the style/content images, and the Spacy German-news corpus). Only the
//! statistical structure that influences kernel behaviour is reproduced:
//! image tensor shapes, digit-glyph geometry (so the spatial transformer
//! has something to straighten), and a Zipf-distributed token stream with a
//! learnable source → target mapping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Tensor;

/// Smooth random RGB images with face-photo-like large-scale structure
/// (sums of random Gaussian blobs), shaped `[n, 3, size, size]` and scaled
/// to `[-1, 1]` — the DCGAN input distribution.
#[must_use]
pub(crate) fn celeba_like(n: usize, size: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Tensor::zeros(&[n, 3, size, size]);
    for img in 0..n {
        // 4 blobs shared across channels with per-channel weights
        // (faces are spatially correlated across color planes).
        let blobs: Vec<(f32, f32, f32)> = (0..4)
            .map(|_| {
                (
                    rng.gen_range(0.0..size as f32),
                    rng.gen_range(0.0..size as f32),
                    rng.gen_range(size as f32 / 8.0..size as f32 / 3.0),
                )
            })
            .collect();
        for c in 0..3 {
            let weights: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for y in 0..size {
                for x in 0..size {
                    let mut v = 0.0f32;
                    for (b, &(bx, by, s)) in blobs.iter().enumerate() {
                        let d2 = (x as f32 - bx).powi(2) + (y as f32 - by).powi(2);
                        v += weights[b] * (-d2 / (2.0 * s * s)).exp();
                    }
                    out.data_mut()[((img * 3 + c) * size + y) * size + x] = v.clamp(-1.0, 1.0);
                }
            }
        }
    }
    out
}

/// 5×7 digit glyphs (a classic segment font).
const GLYPHS: [[u8; 7]; 10] = [
    [
        0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110,
    ], // 0
    [
        0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110,
    ], // 1
    [
        0b01110, 0b10001, 0b00001, 0b00110, 0b01000, 0b10000, 0b11111,
    ], // 2
    [
        0b01110, 0b10001, 0b00001, 0b00110, 0b00001, 0b10001, 0b01110,
    ], // 3
    [
        0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010,
    ], // 4
    [
        0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110,
    ], // 5
    [
        0b01110, 0b10000, 0b11110, 0b10001, 0b10001, 0b10001, 0b01110,
    ], // 6
    [
        0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000,
    ], // 7
    [
        0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110,
    ], // 8
    [
        0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00001, 0b01110,
    ], // 9
];

/// MNIST-like digit images `[n, 1, size, size]` with labels. Digits are
/// rendered from glyphs with random shift and slight rotation, so a spatial
/// transformer has geometric nuisance to remove.
#[must_use]
pub(crate) fn mnist_like(n: usize, size: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Tensor::zeros(&[n, 1, size, size]);
    let mut labels = Vec::with_capacity(n);
    for img in 0..n {
        let digit = rng.gen_range(0..10usize);
        labels.push(digit);
        let angle: f32 = rng.gen_range(-0.4..0.4);
        let dx: f32 = rng.gen_range(-(size as f32) / 8.0..size as f32 / 8.0);
        let dy: f32 = rng.gen_range(-(size as f32) / 8.0..size as f32 / 8.0);
        let (sin, cos) = angle.sin_cos();
        let scale = size as f32 / 10.0;
        let cx = size as f32 / 2.0;
        for y in 0..size {
            for x in 0..size {
                // Inverse-map the output pixel into glyph space.
                let fx = x as f32 - cx - dx;
                let fy = y as f32 - cx - dy;
                let gx = (cos * fx + sin * fy) / scale + 2.5;
                let gy = (-sin * fx + cos * fy) / scale + 3.5;
                let (gxi, gyi) = (gx.floor() as isize, gy.floor() as isize);
                let lit = (0..5).contains(&gxi)
                    && (0..7).contains(&gyi)
                    && (GLYPHS[digit][gyi as usize] >> (4 - gxi as usize)) & 1 == 1;
                let noise: f32 = rng.gen_range(0.0..0.08);
                out.data_mut()[(img * size + y) * size + x] = if lit { 1.0 - noise } else { noise };
            }
        }
    }
    (out, labels)
}

/// A structured "content" image (smooth gradient + shapes).
#[must_use]
pub(crate) fn content_image(size: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tensor::zeros(&[1, 3, size, size]);
    let cx = rng.gen_range(0.25..0.75) * size as f32;
    let cy = rng.gen_range(0.25..0.75) * size as f32;
    let r = size as f32 / 4.0;
    for c in 0..3 {
        for y in 0..size {
            for x in 0..size {
                let grad = (x + y) as f32 / (2 * size) as f32;
                let inside = ((x as f32 - cx).powi(2) + (y as f32 - cy).powi(2)).sqrt() < r;
                let v = if inside { 0.8 - grad * 0.3 } else { grad };
                t.data_mut()[(c * size + y) * size + x] = v * (1.0 + c as f32 * 0.1);
            }
        }
    }
    t
}

/// A high-frequency "style" image (oriented stripes + texture noise).
#[must_use]
pub(crate) fn style_image(size: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let freq = rng.gen_range(0.5..1.5);
    let mut t = Tensor::zeros(&[1, 3, size, size]);
    for c in 0..3 {
        let phase = c as f32 * 1.3;
        for y in 0..size {
            for x in 0..size {
                let v = ((x as f32 * freq + y as f32 * 0.5 * freq + phase).sin() * 0.5 + 0.5) * 0.8
                    + rng.gen_range(0.0..0.2);
                t.data_mut()[(c * size + y) * size + x] = v;
            }
        }
    }
    t
}

/// A synthetic parallel corpus: Zipf-distributed "German" source sentences
/// and their deterministic "English" translations (reversed order, shifted
/// vocabulary) — a mapping a seq2seq model can actually learn. Token 0 is
/// BOS, token 1 is EOS.
#[must_use]
pub(crate) fn translation_corpus(
    sentences: usize,
    vocab: usize,
    len: usize,
    seed: u64,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(vocab > 8, "vocabulary too small");
    let mut rng = StdRng::seed_from_u64(seed);
    // Zipf sampling over the content tokens [2, vocab).
    let harmonics: Vec<f64> = (1..=vocab - 2).map(|k| 1.0 / k as f64).collect();
    let total: f64 = harmonics.iter().sum();
    let sample_zipf = |rng: &mut StdRng| -> usize {
        let mut u: f64 = rng.gen_range(0.0..total);
        for (i, h) in harmonics.iter().enumerate() {
            if u < *h {
                return i + 2;
            }
            u -= h;
        }
        vocab - 1
    };
    (0..sentences)
        .map(|_| {
            let src: Vec<usize> = (0..len).map(|_| sample_zipf(&mut rng)).collect();
            let tgt: Vec<usize> = src
                .iter()
                .rev()
                .map(|&t| 2 + (t - 2 + 7) % (vocab - 2))
                .collect();
            (src, tgt)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celeba_shape_and_range() {
        let t = celeba_like(2, 16, 1);
        assert_eq!(t.shape(), &[2, 3, 16, 16]);
        assert!(t.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        // Not all-zero: the blobs must produce structure.
        assert!(t.max_abs() > 0.1);
    }

    #[test]
    fn mnist_labels_and_brightness() {
        let (imgs, labels) = mnist_like(20, 16, 2);
        assert_eq!(imgs.shape(), &[20, 1, 16, 16]);
        assert_eq!(labels.len(), 20);
        assert!(labels.iter().all(|&l| l < 10));
        // Digits light up a reasonable fraction of pixels.
        let lit = imgs.data().iter().filter(|&&v| v > 0.5).count();
        assert!(lit > 20 * 10, "only {lit} lit pixels");
    }

    #[test]
    fn mnist_is_deterministic() {
        assert_eq!(mnist_like(5, 12, 9).1, mnist_like(5, 12, 9).1);
    }

    #[test]
    fn style_and_content_differ_in_structure() {
        let c = content_image(16, 3);
        let s = style_image(16, 3);
        assert_eq!(c.shape(), s.shape());
        // Style has higher local variation (texture) than content.
        let roughness = |t: &Tensor| -> f32 {
            let d = t.data();
            (1..d.len()).map(|i| (d[i] - d[i - 1]).abs()).sum::<f32>() / d.len() as f32
        };
        assert!(
            roughness(&s) > roughness(&c),
            "{} vs {}",
            roughness(&s),
            roughness(&c)
        );
    }

    #[test]
    fn corpus_mapping_is_learnable_and_zipfian() {
        let corpus = translation_corpus(200, 50, 6, 4);
        assert_eq!(corpus.len(), 200);
        for (src, tgt) in &corpus {
            assert_eq!(src.len(), 6);
            assert_eq!(tgt.len(), 6);
            // Deterministic reversal + shift.
            for (i, &t) in tgt.iter().enumerate() {
                let s = src[src.len() - 1 - i];
                assert_eq!(t, 2 + (s - 2 + 7) % 48);
            }
        }
        // Zipf: token 2 (rank 1) much more common than token 40.
        let count = |tok: usize| {
            corpus
                .iter()
                .flat_map(|(s, _)| s.iter())
                .filter(|&&t| t == tok)
                .count()
        };
        assert!(count(2) > 4 * count(40).max(1));
    }
}
