//! Gunrock-style bulk-synchronous frontier BFS, lowered onto the GPU model.
//!
//! Each frontier iteration (a) really advances the BFS on the CPU — the
//! resulting distances are validated against a CPU reference BFS in the
//! tests — and
//! (b) launches the kernels a Gunrock-class library would launch for that
//! iteration, with footprints derived from the iteration's actual frontier
//! and edge counts. The kernel *variant* is selected from the frontier
//! shape, exactly the load-balancing/direction-optimization policy structure
//! Gunrock uses:
//!
//! * push advance: per-thread (`< warp_lb_edges` frontier edges), per-warp
//!   load-balanced, or per-block load-balanced (preceded by a degree scan);
//! * pull (bottom-up) advance once the frontier covers more than
//!   `bottom_up_fraction` of the vertices, with a bitmap update;
//! * filter + two-phase scan/scatter compaction for large output frontiers,
//!   or a fused atomic filter for small ones.
//!
//! Because thresholds interact with the input's frontier-size profile, the
//! social-network input exercises 12 distinct kernels and the road-network
//! input 8 — the paper's Table I kernel counts for GST and GRU.

use cactus_gpu::access::{AccessPattern, AccessStream, Direction};
use cactus_gpu::instmix::InstructionMix;
use cactus_gpu::kernel::KernelDesc;
use cactus_gpu::launch::LaunchConfig;
use cactus_gpu::LaunchSink;

use crate::csr::CsrGraph;

/// Strategy thresholds (Gunrock exposes the same tuning surface).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfsConfig {
    /// Frontier-edge count above which the warp-level load-balanced advance
    /// is used instead of the per-thread advance.
    pub warp_lb_edges: u64,
    /// Frontier-edge count above which the block-level load-balanced
    /// advance (with its degree-scan prologue) is used.
    pub block_lb_edges: u64,
    /// Frontier size, as a fraction of |V|, above which the
    /// direction-optimized bottom-up advance is used.
    pub bottom_up_fraction: f64,
    /// Output-frontier size above which compaction runs as a scan + scatter
    /// pair instead of a fused atomic filter.
    pub compact_threshold: usize,
}

impl Default for BfsConfig {
    fn default() -> Self {
        Self {
            warp_lb_edges: 4 * 1024,
            block_lb_edges: 64 * 1024,
            bottom_up_fraction: 0.05,
            compact_threshold: 1400,
        }
    }
}

/// Result of a BFS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsRun {
    /// Hop distance per vertex; `-1` = unreachable.
    pub distances: Vec<i32>,
    /// Number of frontier iterations (BFS depth reached).
    pub levels: u32,
    /// Total edges relaxed by push iterations plus edges scanned by pull
    /// iterations.
    pub edges_processed: u64,
}

/// Level-synchronous CPU reference BFS.
#[must_use]
#[cfg(test)]
pub(crate) fn reference_bfs(g: &CsrGraph, src: u32) -> Vec<i32> {
    let n = g.num_vertices() as usize;
    let mut dist = vec![-1i32; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] < 0 {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Run Gunrock-style BFS, launching into `gpu`, with default thresholds.
#[must_use]
pub fn gunrock_bfs(gpu: &mut dyn LaunchSink, g: &CsrGraph, src: u32) -> BfsRun {
    gunrock_bfs_with_config(gpu, g, src, &BfsConfig::default())
}

/// Run Gunrock-style BFS with explicit thresholds.
///
/// # Panics
///
/// Panics if `src` is out of range.
#[must_use]
pub fn gunrock_bfs_with_config(
    gpu: &mut dyn LaunchSink,
    g: &CsrGraph,
    src: u32,
    cfg: &BfsConfig,
) -> BfsRun {
    assert!(src < g.num_vertices(), "source vertex out of range");
    let n = g.num_vertices() as usize;
    let v_bytes = 4 * n as u64;
    let offsets_bytes = 8 * (n as u64 + 1);
    let targets_bytes = 4 * g.num_edges();
    let graph_ws = offsets_bytes + targets_bytes;

    let mut dist = vec![-1i32; n];
    dist[src as usize] = 0;
    let mut frontier: Vec<u32> = vec![src];
    let mut visited: u64 = 1;
    let mut level: i32 = 0;
    let mut edges_processed: u64 = 0;

    // bfs_init: one kernel writing labels and seeding the frontier.
    gpu.launch(&init_kernel(n));

    while !frontier.is_empty() {
        let frontier_edges: u64 = frontier.iter().map(|&v| g.out_degree(v)).sum();
        let use_bottom_up =
            frontier.len() as f64 > cfg.bottom_up_fraction * n as f64 && visited < n as u64;

        let next: Vec<u32> = if use_bottom_up {
            // Pull phase: every unvisited vertex scans its neighbors until
            // it finds one on the current level.
            let mut scanned: u64 = 0;
            let mut next = Vec::new();
            for v in 0..n {
                if dist[v] >= 0 {
                    continue;
                }
                for &u in g.neighbors(v as u32) {
                    scanned += 1;
                    if dist[u as usize] == level {
                        dist[v] = level + 1;
                        next.push(v as u32);
                        break;
                    }
                }
            }
            edges_processed += scanned;
            gpu.launch(&bottom_up_kernel(n, visited, scanned, graph_ws, v_bytes));
            gpu.launch(&bitmap_update_kernel(n, next.len()));
            next
        } else {
            // Push phase: expand the frontier through its out-edges.
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    if dist[v as usize] < 0 {
                        dist[v as usize] = level + 1;
                        next.push(v);
                    }
                }
            }
            edges_processed += frontier_edges;
            // The load-balanced variants assign *edges* to threads via a
            // scan of the frontier's degrees, so a single hub vertex cannot
            // serialize a warp — Gunrock's core design point.
            if frontier_edges > cfg.block_lb_edges {
                gpu.launch(&degree_scan_kernel(frontier.len(), offsets_bytes));
                gpu.launch(&advance_kernel(
                    "bfs_advance_block_lb",
                    (frontier_edges / 2) as usize,
                    frontier_edges,
                    graph_ws,
                    v_bytes,
                    512,
                ));
            } else if frontier_edges > cfg.warp_lb_edges {
                gpu.launch(&advance_kernel(
                    "bfs_advance_warp_lb",
                    (frontier_edges / 2) as usize,
                    frontier_edges,
                    graph_ws,
                    v_bytes,
                    256,
                ));
            } else {
                gpu.launch(&advance_kernel(
                    "bfs_advance_thread",
                    frontier.len(),
                    frontier_edges,
                    graph_ws,
                    v_bytes,
                    128,
                ));
            }
            next
        };

        // Filter + compaction of the output frontier (push phases only;
        // pull phases update the bitmap in place).
        if use_bottom_up {
            // bitmap_update launched above covers frontier maintenance.
        } else if next.len() > cfg.compact_threshold {
            gpu.launch(&filter_kernel("bfs_filter_cull", next.len(), v_bytes, 0.35));
            gpu.launch(&compact_scan_kernel(next.len()));
            gpu.launch(&compact_scatter_kernel(next.len()));
        } else if !next.is_empty() {
            gpu.launch(&filter_kernel(
                "bfs_filter_atomic",
                next.len(),
                v_bytes,
                0.6,
            ));
        }

        visited += next.len() as u64;
        frontier = next;
        level += 1;
    }

    // Final statistics reduction (visited count, max depth).
    gpu.launch(&stats_reduce_kernel(n));

    BfsRun {
        distances: dist,
        levels: level as u32,
        edges_processed,
    }
}

fn init_kernel(n: usize) -> KernelDesc {
    let n = n as u64;
    KernelDesc::builder("bfs_init")
        .launch(LaunchConfig::linear(n, 256))
        .mix(InstructionMix::elementwise(n, 0))
        .stream(AccessStream::write(n, 4, AccessPattern::Streaming))
        .build()
}

fn degree_scan_kernel(frontier: usize, offsets_bytes: u64) -> KernelDesc {
    let f = frontier as u64;
    let warps = f.div_ceil(32).max(1);
    KernelDesc::builder("bfs_degree_scan")
        .launch(LaunchConfig::linear(f, 256))
        .mix(
            InstructionMix::new()
                .with_int(warps * 8)
                .with_shared(warps * 10)
                .with_sync(warps * 2)
                .with_branch(warps * 2),
        )
        .stream(AccessStream::raw(
            Direction::Read,
            warps * 2,
            8.0,
            AccessPattern::RandomUniform {
                working_set_bytes: offsets_bytes,
            },
        ))
        .stream(AccessStream::write(f, 4, AccessPattern::Streaming))
        .dependency_fraction(0.5)
        .build()
}

fn advance_kernel(
    name: &str,
    threads: usize,
    frontier_edges: u64,
    graph_ws: u64,
    v_bytes: u64,
    block: u32,
) -> KernelDesc {
    let threads = (threads as u64).max(1);
    let edge_warps = frontier_edges.div_ceil(32).max(1);
    let thread_warps = threads.div_ceil(32).max(1);
    KernelDesc::builder(name)
        .launch(LaunchConfig::linear(threads, block).with_registers(40))
        .mix(
            InstructionMix::new()
                .with_int(edge_warps * 8 + thread_warps * 4)
                .with_branch(edge_warps * 3)
                .with_misc(thread_warps * 2),
        )
        // Offsets: two per frontier vertex, gathered over the offset array.
        .stream(AccessStream::raw(
            Direction::Read,
            thread_warps * 2,
            8.0,
            AccessPattern::RandomUniform {
                working_set_bytes: graph_ws,
            },
        ))
        // Targets: the frontier's adjacency lists — scattered gathers over
        // the CSR arrays with poor coalescing.
        .stream(AccessStream::raw(
            Direction::Read,
            edge_warps,
            12.0,
            AccessPattern::RandomUniform {
                working_set_bytes: graph_ws,
            },
        ))
        // Labels of every target vertex: fully divergent single-word
        // gathers (nearly one 32 B transaction per edge).
        .stream(AccessStream::raw(
            Direction::Read,
            edge_warps,
            28.0,
            AccessPattern::RandomUniform {
                working_set_bytes: v_bytes,
            },
        ))
        // Output frontier candidates.
        .stream(AccessStream::raw(
            Direction::Write,
            edge_warps,
            8.0,
            AccessPattern::Streaming,
        ))
        .dependency_fraction(0.55)
        .build()
}

fn bottom_up_kernel(
    n: usize,
    visited: u64,
    scanned: u64,
    graph_ws: u64,
    v_bytes: u64,
) -> KernelDesc {
    let unvisited = (n as u64).saturating_sub(visited).max(1);
    let warps = unvisited.div_ceil(32).max(1);
    let scan_warps = scanned.div_ceil(32).max(1);
    KernelDesc::builder("bfs_advance_bottom_up")
        .launch(LaunchConfig::linear(unvisited, 256).with_registers(32))
        .mix(
            InstructionMix::new()
                .with_int(scan_warps * 4 + warps * 4)
                .with_branch(scan_warps * 2)
                .with_misc(warps),
        )
        // Each unvisited vertex streams its own label then gathers
        // neighbor labels.
        .stream(AccessStream::raw(
            Direction::Read,
            warps,
            4.0,
            AccessPattern::Streaming,
        ))
        .stream(AccessStream::raw(
            Direction::Read,
            scan_warps,
            10.0,
            AccessPattern::RandomUniform {
                working_set_bytes: graph_ws,
            },
        ))
        .stream(AccessStream::raw(
            Direction::Read,
            scan_warps,
            32.0,
            AccessPattern::RandomUniform {
                working_set_bytes: v_bytes,
            },
        ))
        .stream(AccessStream::raw(
            Direction::Write,
            warps,
            4.0,
            AccessPattern::Streaming,
        ))
        .dependency_fraction(0.5)
        .build()
}

fn bitmap_update_kernel(n: usize, new_frontier: usize) -> KernelDesc {
    let n = n as u64;
    let f = (new_frontier as u64).max(1);
    KernelDesc::builder("bfs_bitmap_update")
        .launch(LaunchConfig::linear(n, 256))
        .mix(InstructionMix::elementwise(n, 1))
        .stream(AccessStream::read(n, 1, AccessPattern::Streaming))
        .stream(AccessStream::raw(
            Direction::Write,
            f.div_ceil(32).max(1),
            8.0,
            AccessPattern::RandomUniform {
                working_set_bytes: n / 8 + 1,
            },
        ))
        .build()
}

fn filter_kernel(name: &str, candidates: usize, v_bytes: u64, dep: f64) -> KernelDesc {
    let c = (candidates as u64).max(1);
    let warps = c.div_ceil(32).max(1);
    KernelDesc::builder(name)
        .launch(LaunchConfig::linear(c, 256))
        .mix(
            InstructionMix::new()
                .with_int(warps * 5)
                .with_branch(warps * 2)
                .with_misc(warps),
        )
        .stream(AccessStream::read(c, 4, AccessPattern::Streaming))
        .stream(AccessStream::raw(
            Direction::Read,
            warps,
            16.0,
            AccessPattern::RandomUniform {
                working_set_bytes: v_bytes,
            },
        ))
        .stream(AccessStream::write(c, 4, AccessPattern::Streaming))
        .dependency_fraction(dep)
        .build()
}

fn compact_scan_kernel(candidates: usize) -> KernelDesc {
    let c = (candidates as u64).max(1);
    let warps = c.div_ceil(32).max(1);
    KernelDesc::builder("bfs_compact_scan")
        .launch(LaunchConfig::linear(c, 256).with_shared_mem(4096))
        .mix(
            InstructionMix::new()
                .with_int(warps * 10)
                .with_shared(warps * 12)
                .with_sync(warps * 4)
                .with_branch(warps * 2),
        )
        .stream(AccessStream::read(c, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(
            c.div_ceil(256).max(1),
            4,
            AccessPattern::Streaming,
        ))
        .dependency_fraction(0.6)
        .build()
}

fn compact_scatter_kernel(candidates: usize) -> KernelDesc {
    let c = (candidates as u64).max(1);
    KernelDesc::builder("bfs_compact_scatter")
        .launch(LaunchConfig::linear(c, 256))
        .mix(InstructionMix::elementwise(c, 1))
        .stream(AccessStream::read(c, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(c, 4, AccessPattern::Streaming))
        .build()
}

fn stats_reduce_kernel(n: usize) -> KernelDesc {
    let n = n as u64;
    let warps = n.div_ceil(32).max(1);
    KernelDesc::builder("bfs_stats_reduce")
        .launch(LaunchConfig::linear(n, 256).with_shared_mem(2048))
        .mix(
            InstructionMix::new()
                .with_int(warps * 3)
                .with_shared(warps * 6)
                .with_sync(warps * 2),
        )
        .stream(AccessStream::read(n, 4, AccessPattern::Streaming))
        .dependency_fraction(0.55)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use cactus_gpu::kernel::KernelDesc;

    #[test]
    fn distances_match_reference_on_road() {
        let g = generators::road_network(40, 25, 11);
        let mut launches = Vec::new();
        let run = gunrock_bfs(&mut launches, &g, 0);
        assert_eq!(run.distances, reference_bfs(&g, 0));
    }

    #[test]
    fn distances_match_reference_on_rmat() {
        let g = generators::rmat(10, 8, 5);
        let mut launches = Vec::new();
        let run = gunrock_bfs(&mut launches, &g, 3);
        assert_eq!(run.distances, reference_bfs(&g, 3));
    }

    #[test]
    fn bottom_up_switch_does_not_change_distances() {
        let g = generators::rmat(10, 8, 9);
        let mut gpu1 = Vec::new();
        let mut gpu2 = Vec::new();
        let never_pull = BfsConfig {
            bottom_up_fraction: 2.0, // never triggers
            ..BfsConfig::default()
        };
        let a = gunrock_bfs(&mut gpu1, &g, 0);
        let b = gunrock_bfs_with_config(&mut gpu2, &g, 0, &never_pull);
        assert_eq!(a.distances, b.distances);
    }

    #[test]
    fn road_has_many_more_levels_than_social() {
        let road = generators::road_network(60, 60, 1);
        let social = generators::rmat(12, 16, 1);
        let mut g1 = Vec::new();
        let mut g2 = Vec::new();
        let r = gunrock_bfs(&mut g1, &road, 0);
        let s = gunrock_bfs(&mut g2, &social, 0);
        assert!(
            r.levels > 4 * s.levels,
            "road {} vs social {}",
            r.levels,
            s.levels
        );
    }

    #[test]
    fn different_inputs_execute_different_kernel_sets() {
        use std::collections::BTreeSet;
        let road = generators::road_network(120, 120, 2);
        let social = generators::rmat(13, 16, 2);
        let mut g1 = Vec::new();
        let mut g2 = Vec::new();
        let _ = gunrock_bfs(&mut g1, &road, 0);
        let _ = gunrock_bfs(&mut g2, &social, 0);
        let road_kernels: BTreeSet<&str> = g1.iter().map(KernelDesc::name).collect();
        let social_kernels: BTreeSet<&str> = g2.iter().map(KernelDesc::name).collect();
        assert_ne!(road_kernels, social_kernels);
        // The pull-phase kernels only appear on the social input.
        assert!(social_kernels.contains("bfs_advance_bottom_up"));
        assert!(!road_kernels.contains("bfs_advance_bottom_up"));
        assert!(social_kernels.len() > road_kernels.len());
    }

    #[test]
    fn unreachable_vertices_stay_minus_one() {
        // Two disconnected edges.
        let g = CsrGraph::from_edges_undirected(4, &[(0, 1), (2, 3)]);
        let mut launches = Vec::new();
        let run = gunrock_bfs(&mut launches, &g, 0);
        assert_eq!(run.distances, vec![0, 1, -1, -1]);
    }

    #[test]
    fn edge_count_is_plausible() {
        let g = generators::road_network(30, 30, 3);
        let mut launches = Vec::new();
        let run = gunrock_bfs(&mut launches, &g, 0);
        // Push-only BFS on a connected graph relaxes every edge exactly
        // once per direction.
        assert!(run.edges_processed <= g.num_edges() * 2);
        assert!(run.edges_processed >= g.num_edges() / 2);
    }

    #[test]
    #[should_panic(expected = "source vertex out of range")]
    fn invalid_source_panics() {
        let g = generators::road_network(5, 5, 1);
        let mut launches = Vec::new();
        let _ = gunrock_bfs(&mut launches, &g, 1000);
    }
}
