//! The instruction roofline model (Figures 4–7).
//!
//! Performance in Giga warp Instructions Per Second (GIPS) is plotted
//! against instruction intensity (warp instructions per DRAM transaction).
//! The memory roof has slope `peak GTXN/s`; the compute roof is flat at
//! `peak GIPS`; they meet at the elbow (21.76 warp instructions per
//! transaction on the RTX 3080). Kernels left of the elbow are classified
//! *memory-intensive*, right of it *compute-intensive*; kernels achieving
//! less than 1 % of peak GIPS are *latency-bound*, the rest
//! *bandwidth-bound* — these are the qualitative variables fed to FAMD.

use cactus_gpu::device::Device;
use cactus_gpu::metrics::KernelMetrics;

/// Memory- vs. compute-intensive classification (elbow side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Intensity {
    /// Left of the elbow.
    MemoryIntensive,
    /// Right of the elbow.
    ComputeIntensive,
}

impl Intensity {
    /// Label used as a FAMD qualitative category.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Intensity::MemoryIntensive => "memory",
            Intensity::ComputeIntensive => "compute",
        }
    }
}

/// Bandwidth- vs. latency-bound classification (1 % of peak threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Boundedness {
    /// Achieves at least 1 % of peak GIPS.
    BandwidthBound,
    /// Below 1 % of peak GIPS.
    LatencyBound,
}

impl Boundedness {
    /// Label used as a FAMD qualitative category.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Boundedness::BandwidthBound => "bandwidth",
            Boundedness::LatencyBound => "latency",
        }
    }
}

/// One labelled point on a roofline chart.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Display label (kernel or benchmark name).
    pub label: String,
    /// Instruction intensity (warp instructions / DRAM transaction).
    pub intensity: f64,
    /// Achieved GIPS.
    pub gips: f64,
    /// Share of the parent application's GPU time, in `[0, 1]` (1 for
    /// whole-application points).
    pub time_share: f64,
}

impl RooflinePoint {
    /// Build a point from a metric record.
    #[must_use]
    pub fn from_metrics(label: impl Into<String>, m: &KernelMetrics, time_share: f64) -> Self {
        Self {
            label: label.into(),
            intensity: m.instruction_intensity,
            gips: m.gips,
            time_share: time_share.clamp(0.0, 1.0),
        }
    }
}

/// The roofline model for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    peak_gips: f64,
    peak_gtxn_per_s: f64,
    latency_threshold: f64,
}

impl Roofline {
    /// Build the model from a device descriptor.
    #[must_use]
    pub fn for_device(device: &Device) -> Self {
        Self {
            peak_gips: device.peak_gips(),
            peak_gtxn_per_s: device.peak_gtxn_per_s(),
            latency_threshold: device.latency_bound_threshold_gips(),
        }
    }

    /// The compute roof in GIPS.
    #[must_use]
    pub fn peak_gips(&self) -> f64 {
        self.peak_gips
    }

    /// The elbow intensity where the roofs meet.
    #[must_use]
    pub fn elbow(&self) -> f64 {
        self.peak_gips / self.peak_gtxn_per_s
    }

    /// The roof: maximum attainable GIPS at a given intensity.
    #[must_use]
    pub fn roof(&self, intensity: f64) -> f64 {
        (intensity * self.peak_gtxn_per_s).min(self.peak_gips)
    }

    /// Elbow-side classification.
    #[must_use]
    pub fn intensity_class(&self, intensity: f64) -> Intensity {
        if intensity < self.elbow() {
            Intensity::MemoryIntensive
        } else {
            Intensity::ComputeIntensive
        }
    }

    /// 1 %-of-peak classification.
    #[must_use]
    pub fn boundedness_class(&self, gips: f64) -> Boundedness {
        if gips < self.latency_threshold {
            Boundedness::LatencyBound
        } else {
            Boundedness::BandwidthBound
        }
    }

    /// Distance below the applicable roof, as a fraction (0 = on the roof).
    #[must_use]
    pub(crate) fn roof_gap(&self, point: &RooflinePoint) -> f64 {
        let roof = self.roof(point.intensity);
        if roof <= 0.0 {
            return 1.0;
        }
        (1.0 - point.gips / roof).clamp(0.0, 1.0)
    }

    /// True if the point sits within `tolerance` (fractional) of the memory
    /// roof and on the memory-intensive side — the paper's
    /// "memory-bandwidth-bound" dominant-kernel criterion (Observation 8).
    #[must_use]
    pub fn near_memory_roof(&self, point: &RooflinePoint, tolerance: f64) -> bool {
        self.intensity_class(point.intensity) == Intensity::MemoryIntensive
            && self.roof_gap(point) <= tolerance
    }

    /// Render a log-log text scatter of the points under the roofs.
    #[must_use]
    pub fn render_chart(&self, points: &[RooflinePoint]) -> String {
        const W: usize = 72;
        const H: usize = 20;
        // Intensity range: 10^-2 .. 10^4; GIPS range: 10^-2 .. 10^3.
        let x_of = |ii: f64| -> usize {
            let l = ii.max(1e-2).log10();
            (((l + 2.0) / 6.0) * (W as f64 - 1.0))
                .round()
                .clamp(0.0, W as f64 - 1.0) as usize
        };
        let y_of = |g: f64| -> usize {
            let l = g.max(1e-2).log10();
            let frac = (l + 2.0) / 5.0;
            ((1.0 - frac) * (H as f64 - 1.0))
                .round()
                .clamp(0.0, H as f64 - 1.0) as usize
        };
        let mut grid = vec![vec![' '; W]; H];
        // Roofs.
        for x in 0..W {
            let ii = 10f64.powf(x as f64 / (W as f64 - 1.0) * 6.0 - 2.0);
            let y = y_of(self.roof(ii));
            grid[y][x] = '_';
        }
        // Elbow marker.
        let ex = x_of(self.elbow());
        for row in grid.iter_mut() {
            if row[ex] == ' ' {
                row[ex] = '|';
            }
        }
        // Points (weight by time share: '*' dominant, 'o' minor).
        for p in points {
            let x = x_of(p.intensity);
            let y = y_of(p.gips);
            grid[y][x] = if p.time_share >= 0.1 { '*' } else { 'o' };
        }
        let mut out = String::new();
        out.push_str(&format!(
            "GIPS (log) vs instruction intensity (log); elbow at {:.2}, peak {:.1} GIPS\n",
            self.elbow(),
            self.peak_gips
        ));
        for row in grid {
            out.push_str(&row.iter().collect::<String>());
            out.push('\n');
        }
        out.push_str("'*' ≥10% of app time, 'o' minor kernel, '|' elbow, '_' roof\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Roofline {
        Roofline::for_device(&Device::rtx3080())
    }

    #[test]
    fn elbow_matches_paper() {
        let r = model();
        assert!((r.elbow() - 21.76).abs() < 0.05);
    }

    #[test]
    fn roof_is_min_of_two_roofs() {
        let r = model();
        // Memory side: slope.
        assert!((r.roof(1.0) - 23.759_375).abs() < 1e-6);
        // Compute side: flat.
        assert!((r.roof(1000.0) - 516.8).abs() < 1e-9);
        // At the elbow both agree.
        assert!((r.roof(r.elbow()) - 516.8).abs() < 1e-6);
    }

    #[test]
    fn classifications() {
        let r = model();
        assert_eq!(r.intensity_class(1.0), Intensity::MemoryIntensive);
        assert_eq!(r.intensity_class(100.0), Intensity::ComputeIntensive);
        assert_eq!(r.boundedness_class(1.0), Boundedness::LatencyBound);
        assert_eq!(r.boundedness_class(100.0), Boundedness::BandwidthBound);
        // The threshold itself: 5.168 GIPS.
        assert_eq!(r.boundedness_class(5.2), Boundedness::BandwidthBound);
        assert_eq!(r.boundedness_class(5.1), Boundedness::LatencyBound);
    }

    #[test]
    fn roof_gap_and_near_roof() {
        let r = model();
        let on_roof = RooflinePoint {
            label: "on".into(),
            intensity: 2.0,
            gips: r.roof(2.0),
            time_share: 1.0,
        };
        assert!(r.roof_gap(&on_roof) < 1e-9);
        assert!(r.near_memory_roof(&on_roof, 0.1));

        let below = RooflinePoint {
            label: "below".into(),
            intensity: 2.0,
            gips: r.roof(2.0) * 0.5,
            time_share: 1.0,
        };
        assert!((r.roof_gap(&below) - 0.5).abs() < 1e-9);
        assert!(!r.near_memory_roof(&below, 0.1));

        let compute_side = RooflinePoint {
            label: "c".into(),
            intensity: 100.0,
            gips: 516.0,
            time_share: 1.0,
        };
        assert!(!r.near_memory_roof(&compute_side, 0.1));
    }

    #[test]
    fn chart_renders_points_and_roof() {
        let r = model();
        let pts = vec![
            RooflinePoint {
                label: "a".into(),
                intensity: 1.0,
                gips: 10.0,
                time_share: 0.5,
            },
            RooflinePoint {
                label: "b".into(),
                intensity: 100.0,
                gips: 400.0,
                time_share: 0.01,
            },
        ];
        let chart = r.render_chart(&pts);
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains('_'));
        assert!(chart.contains("elbow"));
    }

    #[test]
    fn labels_for_famd() {
        assert_eq!(Intensity::MemoryIntensive.label(), "memory");
        assert_eq!(Boundedness::LatencyBound.label(), "latency");
    }
}
