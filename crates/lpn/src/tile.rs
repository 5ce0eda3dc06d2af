//! Cache-blocked (tile-major) LPN execution schedules.
//!
//! The row-major encoder walks outputs in order and gathers each row's
//! `d` columns from anywhere in the length-`k` input — the random-access
//! pattern that makes LPN memory-bound on CPUs (Fig. 1c) and that Ironman
//! attacks in hardware with a memory-side cache fed by §5.3's offline
//! index sorting. [`TileSchedule`] is the software twin of that idea for
//! the **online** path: the matrix is fixed, so we precompute — once,
//! offline, cached on the matrix — a partition of its gathers into
//! (row-block × column-tile) buckets and execute bucket-major:
//!
//! * within a bucket, every gather reads a `col_tile`-wide input window
//!   (512 KB of blocks at the default tile) that stays cache-resident —
//!   the role of the paper's memory-side cache;
//! * buckets of one row block share a `row_block`-wide accumulator
//!   window (2 MB of blocks at the default), visited in ascending row
//!   order inside each bucket, so output traffic stays streaming;
//! * each entry packs `(local_row, local_col)` into one `u32`, so the
//!   schedule streams exactly as many index bytes as the CSR it replaces.
//!
//! The traversal is generic over [`encoder::XorLane`]; the block lanes
//! are the ones that use it. Bit inputs are `k / 8` bytes, cache-resident
//! without tiling, so their row-major pass wins (`BENCH_extension.json`).

use crate::encoder::{self, XorLane};
use crate::LpnMatrix;
use ironman_prg::Block;
use serde::{Deserialize, Serialize};

/// Geometry of the tile partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileConfig {
    /// Rows per accumulator block. The default (131072 = 2 MB of block
    /// accumulator) was swept on the reference single-core box: large
    /// blocks amortize input-tile reloads, and the ascending-row visit
    /// order inside each bucket keeps the (L2+L3-resident) accumulator
    /// window prefetch-friendly.
    pub row_block: usize,
    /// Columns per input tile. The default (32768 = 512 KB of blocks)
    /// keeps the gather window cache-resident where the full `k = 168K+`
    /// input of Table-4 parameter sets does not fit.
    pub col_tile: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            row_block: 131_072,
            col_tile: 32_768,
        }
    }
}

impl TileConfig {
    /// Bits needed for a local column index.
    fn col_bits(&self) -> u32 {
        (self.col_tile.max(2) - 1).ilog2() + 1
    }
}

/// A precomputed tile-major execution order for one fixed matrix: the
/// offline product the online kernels replay (the analogue of the
/// paper's sorted `Colidx`/`Rowidx` arrays living beside the CSR).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileSchedule {
    rows: usize,
    cols: usize,
    row_block: usize,
    col_tile: usize,
    col_bits: u32,
    /// `(local_row << col_bits) | local_col`, bucket-major: row blocks
    /// outer, column tiles inner, ascending rows within a bucket.
    entries: Vec<u32>,
    /// End offset of each bucket in `entries` (same bucket order).
    bucket_ends: Vec<usize>,
}

impl TileSchedule {
    /// Builds the schedule for `matrix` (row `j` accumulates into
    /// `acc[j]`, exactly like the row-major encoder).
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot pack an entry into 32 bits.
    pub fn build(matrix: &LpnMatrix, cfg: TileConfig) -> Self {
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let row_block = cfg.row_block.max(1).min(rows);
        let col_tile = cfg.col_tile.max(1).min(cols);
        let col_bits = TileConfig {
            row_block,
            col_tile,
        }
        .col_bits();
        assert!(
            (row_block.max(2) - 1).ilog2() + 1 + col_bits <= 32,
            "tile geometry {row_block}x{col_tile} does not pack into u32 entries"
        );
        let n_blocks = rows.div_ceil(row_block);
        let n_tiles = cols.div_ceil(col_tile);

        // Counting sort into (row-block, tile) buckets: one count pass,
        // one placement pass, no per-bucket allocations. Rows are visited
        // ascending, so each bucket lists its rows ascending too.
        let bucket_of =
            |row: usize, col: u32| (row / row_block) * n_tiles + col as usize / col_tile;
        let mut counts = vec![0usize; n_blocks * n_tiles];
        for row in 0..rows {
            for &col in matrix.row(row) {
                counts[bucket_of(row, col)] += 1;
            }
        }
        let mut cursors = Vec::with_capacity(counts.len());
        let mut acc = 0usize;
        for &c in &counts {
            cursors.push(acc);
            acc += c;
        }
        let mut entries = vec![0u32; matrix.colidx().len()];
        for row in 0..rows {
            for &col in matrix.row(row) {
                let bucket = bucket_of(row, col);
                let local_row = (row % row_block) as u32;
                let local_col = col % col_tile as u32;
                entries[cursors[bucket]] = (local_row << col_bits) | local_col;
                cursors[bucket] += 1;
            }
        }
        TileSchedule {
            rows,
            cols,
            row_block,
            col_tile,
            col_bits,
            entries,
            bucket_ends: cursors,
        }
    }

    /// Accumulator length the schedule was built for (`n`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input length the schedule was built for (`k`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total gathers in the schedule (`n·d`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule holds no gathers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tile-major traversal — the single tiled kernel, generic over
    /// the lane.
    pub fn encode(&self, lane: &mut impl XorLane) {
        let n_tiles = self.cols.div_ceil(self.col_tile);
        let mut start = 0usize;
        for (bucket, &end) in self.bucket_ends.iter().enumerate() {
            let row_base = (bucket / n_tiles) * self.row_block;
            let col_base = (bucket % n_tiles) * self.col_tile;
            lane.xor_gather_bucket(row_base, col_base, self.col_bits, &self.entries[start..end]);
            start = end;
        }
    }

    /// Tiled [`encoder::encode_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the schedule dimensions.
    pub fn encode_blocks(&self, input: &[Block], acc: &mut [Block]) {
        assert_eq!(input.len(), self.cols, "input length must equal k");
        assert_eq!(acc.len(), self.rows, "accumulator length must equal n");
        self.encode(&mut encoder::SliceLane { input, acc });
    }

    /// The input-column trace in execution order — comparable against
    /// [`encoder::access_trace`] with [`crate::sorting::trace_hit_rate`].
    pub fn access_trace(&self) -> impl Iterator<Item = u32> + '_ {
        let n_tiles = self.cols.div_ceil(self.col_tile);
        let col_mask = (1u32 << self.col_bits) - 1;
        let mut bucket = 0usize;
        self.entries.iter().enumerate().map(move |(i, &e)| {
            while i >= self.bucket_ends[bucket] {
                bucket += 1;
            }
            ((bucket % n_tiles) * self.col_tile) as u32 + (e & col_mask)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorting::trace_hit_rate;

    fn matrix() -> LpnMatrix {
        LpnMatrix::generate(3000, 1000, 10, Block::from(77u128))
    }

    fn small_cfg() -> TileConfig {
        TileConfig {
            row_block: 256,
            col_tile: 128,
        }
    }

    #[test]
    fn schedule_covers_every_gather() {
        let m = matrix();
        let s = TileSchedule::build(&m, small_cfg());
        assert_eq!(s.len(), m.rows() * m.weight());
        assert_eq!(s.rows(), m.rows());
        assert_eq!(s.cols(), m.cols());
    }

    #[test]
    fn tiled_blocks_match_row_major() {
        let m = matrix();
        let s = TileSchedule::build(&m, small_cfg());
        let input: Vec<Block> = (0..m.cols() as u128)
            .map(|i| Block::from(i * 3 + 1))
            .collect();
        let mut plain = vec![Block::from(5u128); m.rows()];
        let mut tiled = plain.clone();
        encoder::encode_blocks(&m, &input, &mut plain);
        s.encode_blocks(&input, &mut tiled);
        assert_eq!(plain, tiled);
    }

    #[test]
    fn degenerate_tiles_still_correct() {
        // Tile/block sizes of 1 and sizes exceeding the matrix both work.
        let m = LpnMatrix::generate(37, 19, 5, Block::from(3u128));
        for cfg in [
            TileConfig {
                row_block: 1,
                col_tile: 1,
            },
            TileConfig {
                row_block: 1024,
                col_tile: 1024,
            },
            TileConfig {
                row_block: 7,
                col_tile: 3,
            },
        ] {
            let s = TileSchedule::build(&m, cfg);
            let input: Vec<Block> = (0..19u128).map(|i| Block::from(i + 9)).collect();
            let mut plain = vec![Block::ZERO; 37];
            let mut tiled = plain.clone();
            encoder::encode_blocks(&m, &input, &mut plain);
            s.encode_blocks(&input, &mut tiled);
            assert_eq!(plain, tiled, "{cfg:?}");
        }
    }

    #[test]
    fn tiling_improves_small_cache_hit_rate() {
        // Against a cache that holds one tile but not the whole input,
        // the tile-major trace must hit far more often than row-major.
        let m = LpnMatrix::generate(4096, 16384, 10, Block::from(11u128));
        let cfg = TileConfig {
            row_block: 1024,
            col_tile: 1024,
        };
        let s = TileSchedule::build(&m, cfg);
        let lines = 512; // 2048 elements: two tiles' worth
        let base = trace_hit_rate(encoder::access_trace(&m), lines);
        let tiled = trace_hit_rate(s.access_trace(), lines);
        assert!(
            tiled > base + 0.2,
            "tiling should lift hit rate decisively: {base:.3} -> {tiled:.3}"
        );
    }

    #[test]
    fn cached_schedule_is_shared() {
        let m = matrix();
        let a = m.tile_schedule() as *const TileSchedule;
        let b = m.tile_schedule() as *const TileSchedule;
        assert_eq!(a, b, "tile_schedule must build once and cache");
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_input_length_panics() {
        let m = matrix();
        let s = TileSchedule::build(&m, small_cfg());
        let mut acc = vec![Block::ZERO; m.rows()];
        s.encode_blocks(&[Block::ZERO; 3], &mut acc);
    }
}
