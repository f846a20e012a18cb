//! The per-pair Bernoulli sampler behind every G(n, p)-style generator.
//!
//! [`gnp_connected`](super::gnp_connected),
//! [`clustered_gnp`](super::clustered_gnp) and
//! [`random_bipartite_connected`](super::random_bipartite_connected) flip
//! one coin per candidate pair, in row-major order, from one seeded
//! `StdRng`. Their candidate pairs form *rows*: row `i` pairs node `i` with
//! the columns `first..end` (a [`RowShape`]), and a pair is an edge with
//! probability `p_near` below the row's `split` and `p_far` from there on.
//!
//! The draw stream is cut into contiguous blocks of at least
//! [`MIN_BLOCK_DRAWS`] draws. Each block starts from a clone of the seeded
//! generator jumped ahead to the block's first draw (`StdRng::jump`), so the
//! blocks are sampled in parallel on [`run_parallel`] and their hits,
//! concatenated in block order, are exactly those of the sequential stream:
//! the edge sequence, and with it every generated graph, does not depend on
//! the thread count. The hits arrive as ascending pairs, so they are packed
//! straight into the CSR arrays, with no adjacency lists in between.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::parallel::{default_threads_for, run_parallel};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Blocks hold at least this many draws (a few milliseconds of sampling),
/// so a jump and a thread hand-off are noise next to a block's work and
/// streams below twice this size are sampled inline.
pub(crate) const MIN_BLOCK_DRAWS: u64 = 1 << 23;

/// Row `i` of a pair stream: node `i` against the columns `first..end`,
/// with the columns below `split` drawn at `p_near` and the rest at
/// `p_far`. Requires `first <= split <= end`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowShape {
    pub first: usize,
    pub split: usize,
    pub end: usize,
}

impl RowShape {
    fn len(self) -> u64 {
        (self.end - self.first) as u64
    }
}

/// The integer form of `gen_bool(p)`: `gen_bool` accepts a draw `x` iff
/// `(x >> 11) as f64 / 2^53 < p`, and since that division is exact, iff
/// `(x >> 11) < ceil(p · 2^53)`. `p` must lie in `[0, 1]`.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One block of the draw stream, handed to a worker: its first draw, the
/// row and column of that draw, its length (below 2·[`MIN_BLOCK_DRAWS`]),
/// and its hit buffer, preallocated by the caller: the accepted draws, as
/// offsets from `start`.
struct Block {
    start: u64,
    row: usize,
    col: usize,
    draws: u64,
    hits: Vec<u32>,
}

/// The graph on `n` nodes whose edges are the pairs of the stream whose
/// coin comes up, flipping the coins with `StdRng::seed_from_u64(seed)`:
/// the graph a sequential loop of `gen_bool` calls over the rows gives.
/// Rows must list ascending pairs `i < j` in increasing order.
pub(crate) fn sample_pairs<S>(
    n: usize,
    seed: u64,
    rows: usize,
    shape: S,
    p_near: f64,
    p_far: f64,
) -> Result<Graph, GraphError>
where
    S: Fn(usize) -> RowShape + Sync,
{
    if rows == 0 {
        return Ok(Graph::empty(n));
    }
    let total: u64 = (0..rows).map(|i| shape(i).len()).sum();
    let count = (total / MIN_BLOCK_DRAWS).max(1);
    let bound = |k: u64| (u128::from(total) * u128::from(k) / u128::from(count)) as u64;

    // Locate each block's first pair and its expected hit count in one
    // pass over the rows.
    let mut blocks: Vec<Block> = Vec::with_capacity(count as usize);
    let mut expected: Vec<f64> = Vec::with_capacity(count as usize);
    let mut draw = 0u64;
    for i in 0..rows {
        let s = shape(i);
        let mut col = s.first;
        while col < s.end {
            if draw == bound(blocks.len() as u64) {
                let k = blocks.len() as u64;
                blocks.push(Block {
                    start: draw,
                    row: i,
                    col,
                    draws: bound(k + 1) - draw,
                    hits: Vec::new(),
                });
                expected.push(0.0);
            }
            let piece_end = s
                .end
                .min(col + (bound(blocks.len() as u64) - draw) as usize);
            let near = piece_end.min(s.split).saturating_sub(col);
            let far = piece_end - col - near;
            *expected.last_mut().expect("a block is open") +=
                near as f64 * p_near + far as f64 * p_far;
            draw += (piece_end - col) as u64;
            col = piece_end;
        }
    }
    // Four standard deviations over the mean: a buffer seldom regrows on a
    // worker, where growth would double it.
    for (block, e) in blocks.iter_mut().zip(expected) {
        block.hits = Vec::with_capacity((e + 4.0 * e.sqrt() + 16.0) as usize);
    }

    let base = StdRng::seed_from_u64(seed);
    let (t_near, t_far) = (threshold(p_near), threshold(p_far));
    let threads = default_threads_for(blocks.len());
    let sampled = run_parallel(blocks, threads, |mut block| {
        let mut rng = base.clone();
        rng.jump(block.start);
        let end = u32::try_from(block.draws).expect("blocks hold < 2^32 draws");
        let (mut i, mut offset) = (block.row, 0u32);
        while offset < end {
            let s = shape(i);
            let from = if i == block.row { block.col } else { s.first };
            for (lo, hi, t) in [(from, s.split, t_near), (from.max(s.split), s.end, t_far)] {
                let len = u32::try_from(hi.saturating_sub(lo)).unwrap_or(u32::MAX);
                let stop = offset + len.min(end - offset);
                while offset < stop {
                    if rng.next_u64() >> 11 < t {
                        block.hits.push(offset);
                    }
                    offset += 1;
                }
            }
            i += 1;
        }
        (block.start, block.hits)
    });

    // Decode the hits in block order by a forward row walk: ascending pairs.
    let shape = &shape;
    let edges = || {
        let (mut i, mut row_draw, mut s) = (0usize, 0u64, shape(0));
        let draws = sampled
            .iter()
            .flat_map(|(start, hits)| hits.iter().map(move |&offset| start + u64::from(offset)));
        draws.map(move |d| {
            while d >= row_draw + s.len() {
                row_draw += s.len();
                i += 1;
                s = shape(i);
            }
            (i, s.first + (d - row_draw) as usize)
        })
    };
    Graph::from_ascending_edges(n, edges)
}
