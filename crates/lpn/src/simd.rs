//! Runtime-dispatched wide (AVX2 + BMI2) LPN kernels.
//!
//! The PR-5 kernels are deliberately baseline x86-64: `Block` XORs
//! compile to general-purpose-register pairs and packed-bit probes go
//! through a mask table because baseline variable shifts serialize on
//! the shift-count register. This module adds a **wide** tier of the
//! same lanes behind runtime feature detection:
//!
//! * `Block` gathers run on 128-bit XMM registers (`PXOR`/`VPXOR`: one
//!   load + one XOR per 16-byte element instead of two of each), with
//!   the row-major gather chain split over two independent accumulators
//!   so the XOR latency chains overlap;
//! * packed-bit probes use the [`encoder::ShiftProbe`] — with BMI2
//!   enabled a variable shift is a single `SHRX`, deleting the mask
//!   table's load traffic from every gather;
//! * the whole traversal is compiled under
//!   `#[target_feature(enable = "avx2", enable = "bmi2")]`, so LLVM may
//!   additionally autovectorize (e.g. 256-bit `VPXOR` on the bulk
//!   paths).
//!
//! Dispatch is by [`SimdLevel`]: [`SimdLevel::detect`] caches one
//! `is_x86_feature_detected!` query per process (overridable with the
//! `IRONMAN_SIMD=scalar` environment knob, and per-session via
//! `FerretConfig`'s simd policy in `ironman-ot`), and every entry point
//! takes the level explicitly so benches and proptests can pin either
//! tier. The scalar tier calls the unchanged [`encoder`] kernels — the
//! always-available fallback, and the only tier on non-x86-64 targets.
//! Both tiers are bit-identical in output (checked by the
//! `kernel_props` proptests under both forced-scalar and auto
//! dispatch).
//!
//! The entry points are the kernels that won a measurement in
//! `BENCH_extension.json`: row-major and tiled blocks, row-major packed
//! bits, and the row-major fused receiver pair. Tiled bit and tiled
//! pair traversals lost to these at every level and are not offered.

use crate::bits::PackedBits;
use crate::encoder;
use crate::tile::TileSchedule;
use crate::LpnMatrix;
use ironman_prg::Block;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Which kernel tier an encode runs. Output-identical; only the
/// instruction selection differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimdLevel {
    /// Baseline x86-64 lanes (GPR-pair block XORs, mask-table bit
    /// probes) — the always-available fallback.
    Scalar,
    /// AVX2 + BMI2 lanes (XMM block XORs, `SHRX` bit probes). Falls
    /// back to [`SimdLevel::Scalar`] behavior where the features are
    /// absent (every entry point re-checks, so passing `Wide` on a
    /// machine without AVX2 is safe, just pointless).
    Wide,
}

/// Per-session dispatch policy (the config knob: `FerretConfig` carries
/// one so tests force the scalar tier without touching the process-wide
/// environment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimdMode {
    /// Use [`SimdLevel::detect`] (honors `IRONMAN_SIMD=scalar`).
    #[default]
    Auto,
    /// Pin the scalar tier regardless of CPU features.
    ForceScalar,
}

impl SimdMode {
    /// Resolves the policy to a concrete level.
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdMode::Auto => SimdLevel::detect(),
            SimdMode::ForceScalar => SimdLevel::Scalar,
        }
    }
}

impl SimdLevel {
    /// The best level this machine supports, cached per process. The
    /// `IRONMAN_SIMD` environment variable forces the scalar tier when
    /// set to `scalar`, `off`, or `0` (the env knob CI uses to keep the
    /// fallback path green on AVX2 machines).
    pub fn detect() -> SimdLevel {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            match std::env::var("IRONMAN_SIMD") {
                Ok(v) if v.eq_ignore_ascii_case("scalar") || v == "off" || v == "0" => {
                    return SimdLevel::Scalar;
                }
                _ => {}
            }
            if wide_available() {
                SimdLevel::Wide
            } else {
                SimdLevel::Scalar
            }
        })
    }

    /// Every level that runs on this machine (for equivalence tests
    /// that must cover the wide tier exactly where it exists).
    pub fn available() -> &'static [SimdLevel] {
        if wide_available() {
            &[SimdLevel::Scalar, SimdLevel::Wide]
        } else {
            &[SimdLevel::Scalar]
        }
    }
}

/// Whether the wide tier's features (AVX2 + BMI2) exist on this CPU.
#[cfg(target_arch = "x86_64")]
fn wide_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("bmi2")
}

/// Non-x86-64 targets have only the scalar tier.
#[cfg(not(target_arch = "x86_64"))]
fn wide_available() -> bool {
    false
}

/// [`encoder::encode_blocks`] at the chosen level.
///
/// # Panics
///
/// Panics if lengths do not match the matrix dimensions.
#[allow(unsafe_code)]
pub fn encode_blocks(level: SimdLevel, matrix: &LpnMatrix, input: &[Block], acc: &mut [Block]) {
    assert_eq!(input.len(), matrix.cols(), "input length must equal k");
    assert_eq!(acc.len(), matrix.rows(), "accumulator length must equal n");
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && wide_available() {
        // SAFETY: AVX2 + BMI2 presence was just verified at runtime.
        unsafe { wide::encode_blocks(matrix, input, acc) };
        return;
    }
    let _ = level;
    encoder::encode_rows(matrix, &mut encoder::SliceLane { input, acc });
}

/// Tiled [`encode_blocks`] over a prebuilt schedule.
///
/// # Panics
///
/// Panics if lengths do not match the schedule dimensions.
#[allow(unsafe_code)]
pub fn encode_blocks_tiled(
    level: SimdLevel,
    tiles: &TileSchedule,
    input: &[Block],
    acc: &mut [Block],
) {
    assert_eq!(input.len(), tiles.cols(), "input length must equal k");
    assert_eq!(acc.len(), tiles.rows(), "accumulator length must equal n");
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && wide_available() {
        // SAFETY: AVX2 + BMI2 presence was just verified at runtime.
        unsafe { wide::encode_blocks_tiled(tiles, input, acc) };
        return;
    }
    let _ = level;
    tiles.encode(&mut encoder::SliceLane { input, acc });
}

/// [`encoder::encode_bits_packed`] at the chosen level.
///
/// # Panics
///
/// Panics if lengths do not match the matrix dimensions.
#[allow(unsafe_code)]
pub fn encode_bits_packed(
    level: SimdLevel,
    matrix: &LpnMatrix,
    input: &PackedBits,
    acc: &mut PackedBits,
) {
    assert_eq!(input.len(), matrix.cols(), "input length must equal k");
    assert_eq!(acc.len(), matrix.rows(), "accumulator length must equal n");
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && wide_available() {
        // SAFETY: AVX2 + BMI2 presence was just verified at runtime.
        unsafe { wide::encode_bits_packed(matrix, input, acc) };
        return;
    }
    let _ = level;
    encoder::encode_rows(matrix, &mut encoder::PackedLane::new(input, acc));
}

/// Fused receiver encode (row-major) at the chosen level.
///
/// # Panics
///
/// Panics if lengths do not match the matrix dimensions.
#[allow(unsafe_code)]
pub fn encode_cot_pair(
    level: SimdLevel,
    matrix: &LpnMatrix,
    s: &[Block],
    e: &PackedBits,
    y: &mut [Block],
    x: &mut PackedBits,
) {
    assert_eq!(s.len(), matrix.cols(), "block input length must equal k");
    assert_eq!(e.len(), matrix.cols(), "bit input length must equal k");
    assert_eq!(
        y.len(),
        matrix.rows(),
        "block accumulator length must equal n"
    );
    assert_eq!(
        x.len(),
        matrix.rows(),
        "bit accumulator length must equal n"
    );
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && wide_available() {
        // SAFETY: AVX2 + BMI2 presence was just verified at runtime.
        unsafe { wide::encode_cot_pair(matrix, s, e, y, x) };
        return;
    }
    let _ = level;
    encoder::encode_rows(matrix, &mut encoder::CotPairLane::new(s, e, y, x));
}

/// The wide tier: XMM block lanes + `ShiftProbe` bit lanes, every
/// traversal compiled under `avx2,bmi2`. The lanes are `#[inline(always)]`
/// so their bodies inherit the wrapper's target features; the SSE2
/// intrinsics they use are baseline x86-64 (always present), the gain
/// comes from AVX2 codegen (`VPXOR`, three-operand forms) and BMI2
/// shifts (`SHRX`) replacing the scalar tier's instruction selection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod wide {
    use crate::bits::PackedBits;
    use crate::encoder::{self, PackedLane, ShiftProbe, XorLane};
    use crate::tile::TileSchedule;
    use crate::LpnMatrix;
    use ironman_prg::Block;
    use std::arch::x86_64::{
        __m128i, _mm_loadu_si128, _mm_prefetch, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
        _MM_HINT_T0,
    };

    /// 128-bit XOR (`PXOR`/`VPXOR`). SSE2 is baseline x86-64, so this is
    /// callable from any context on this architecture.
    #[inline(always)]
    fn xor128(a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE2 is unconditionally available on x86-64.
        unsafe { _mm_xor_si128(a, b) }
    }

    /// The 128-bit zero register.
    #[inline(always)]
    fn zero128() -> __m128i {
        // SAFETY: SSE2 is unconditionally available on x86-64.
        unsafe { _mm_setzero_si128() }
    }

    /// 16-byte load of one block into an XMM register.
    #[inline(always)]
    fn load(b: &Block) -> __m128i {
        // SAFETY: `b` is a valid reference to 16 readable bytes;
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128((b as *const Block).cast()) }
    }

    /// 16-byte store of an XMM register into one block.
    #[inline(always)]
    fn store(b: &mut Block, v: __m128i) {
        // SAFETY: `b` is a valid mutable reference to 16 writable
        // bytes; `_mm_storeu_si128` has no alignment requirement.
        unsafe { _mm_storeu_si128((b as *mut Block).cast(), v) }
    }

    /// Requests `b`'s cache line ahead of use (`PREFETCHT0`). Only the
    /// row-major traversals prefetch (via [`XorLane::prefetch_cols`]):
    /// their gathers stride the whole `k`-block input region, which
    /// outruns L2 at Table-4 scale. The tiled buckets already confine
    /// their gathers to a cache-resident column tile, and measured
    /// in-bucket prefetch there costs ~25% (pure issue overhead).
    #[inline(always)]
    fn prefetch(b: &Block) {
        // SAFETY: prefetch never faults and has no memory effects; any
        // address is permitted.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((b as *const Block).cast()) }
    }

    /// XMM twin of [`encoder::SliceLane`] over blocks: one 128-bit load
    /// and XOR per gather, two independent accumulators per row so the
    /// XOR dependency chains overlap.
    struct XmmBlockLane<'a> {
        input: &'a [Block],
        acc: &'a mut [Block],
    }

    impl XorLane for XmmBlockLane<'_> {
        #[inline(always)]
        fn xor_gather(&mut self, row: usize, col: usize) {
            let v = xor128(load(&self.acc[row]), load(&self.input[col]));
            store(&mut self.acc[row], v);
        }

        #[inline(always)]
        fn prefetch_cols(&self, cols: &[u32]) {
            for &c in cols {
                prefetch(&self.input[c as usize]);
            }
        }

        #[inline(always)]
        fn xor_gather_row(&mut self, row: usize, cols: &[u32]) {
            let mut even = load(&self.acc[row]);
            let mut odd = zero128();
            let mut pairs = cols.chunks_exact(2);
            for pair in &mut pairs {
                even = xor128(even, load(&self.input[pair[0] as usize]));
                odd = xor128(odd, load(&self.input[pair[1] as usize]));
            }
            for &c in pairs.remainder() {
                even = xor128(even, load(&self.input[c as usize]));
            }
            store(&mut self.acc[row], xor128(even, odd));
        }

        #[inline(always)]
        fn xor_gather_bucket(
            &mut self,
            row_base: usize,
            col_base: usize,
            col_bits: u32,
            entries: &[u32],
        ) {
            let mask = (1u32 << col_bits) - 1;
            for &e in entries {
                let row = row_base + (e >> col_bits) as usize;
                let col = col_base + (e & mask) as usize;
                let v = xor128(load(&self.acc[row]), load(&self.input[col]));
                store(&mut self.acc[row], v);
            }
        }
    }

    /// XMM twin of [`encoder::CotPairLane`]: XMM block half, shift-probe
    /// bit half.
    struct XmmCotPairLane<'a> {
        s: &'a [Block],
        e: &'a PackedBits,
        y: &'a mut [Block],
        x: &'a mut PackedBits,
    }

    impl XorLane for XmmCotPairLane<'_> {
        #[inline(always)]
        fn xor_gather(&mut self, row: usize, col: usize) {
            let v = xor128(load(&self.y[row]), load(&self.s[col]));
            store(&mut self.y[row], v);
            self.x.xor_bit(row, shift_bit(self.e.words(), col));
        }

        #[inline(always)]
        fn prefetch_cols(&self, cols: &[u32]) {
            for &c in cols {
                prefetch(&self.s[c as usize]);
            }
        }

        #[inline(always)]
        fn xor_gather_row(&mut self, row: usize, cols: &[u32]) {
            let words = self.e.words();
            let mut even = load(&self.y[row]);
            let mut odd = zero128();
            let mut parity = false;
            let mut pairs = cols.chunks_exact(2);
            for pair in &mut pairs {
                even = xor128(even, load(&self.s[pair[0] as usize]));
                odd = xor128(odd, load(&self.s[pair[1] as usize]));
                parity ^= shift_bit(words, pair[0] as usize) ^ shift_bit(words, pair[1] as usize);
            }
            for &c in pairs.remainder() {
                even = xor128(even, load(&self.s[c as usize]));
                parity ^= shift_bit(words, c as usize);
            }
            store(&mut self.y[row], xor128(even, odd));
            self.x.xor_bit(row, parity);
        }
    }

    /// `SHRX` bit probe (compiles to one variable shift under BMI2).
    #[inline(always)]
    fn shift_bit(words: &[u64], col: usize) -> bool {
        <ShiftProbe as encoder::BitProbe>::bit(words, col)
    }

    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) fn encode_blocks(matrix: &LpnMatrix, input: &[Block], acc: &mut [Block]) {
        encoder::encode_rows(matrix, &mut XmmBlockLane { input, acc });
    }

    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) fn encode_blocks_tiled(tiles: &TileSchedule, input: &[Block], acc: &mut [Block]) {
        tiles.encode(&mut XmmBlockLane { input, acc });
    }

    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) fn encode_bits_packed(matrix: &LpnMatrix, input: &PackedBits, acc: &mut PackedBits) {
        encoder::encode_rows(
            matrix,
            &mut PackedLane::<ShiftProbe>::with_probe(input, acc),
        );
    }

    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) fn encode_cot_pair(
        matrix: &LpnMatrix,
        s: &[Block],
        e: &PackedBits,
        y: &mut [Block],
        x: &mut PackedBits,
    ) {
        encoder::encode_rows(matrix, &mut XmmCotPairLane { s, e, y, x });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable() {
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
    }

    #[test]
    fn available_contains_scalar() {
        assert!(SimdLevel::available().contains(&SimdLevel::Scalar));
    }

    #[test]
    fn mode_resolution() {
        assert_eq!(SimdMode::ForceScalar.resolve(), SimdLevel::Scalar);
        assert_eq!(SimdMode::Auto.resolve(), SimdLevel::detect());
    }

    #[test]
    #[ignore = "micro-bench; run with --release -- --ignored --nocapture"]
    fn level_head_to_head_at_table4_shape() {
        use std::time::Instant;
        let (n, k) = (262_144, 168_000);
        let m = LpnMatrix::generate(n, k, 10, Block::from(7u128));
        let tiles = m.tile_schedule();
        let s: Vec<Block> = (0..k as u128).map(|i| Block::from(i * 11 + 1)).collect();
        let e = PackedBits::from_bools(&(0..k).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let mut y = vec![Block::ZERO; n];
        let mut x = PackedBits::zeros(n);
        let best_of = |label: &str, f: &mut dyn FnMut()| {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                f();
                best = best.min(t.elapsed().as_secs_f64());
            }
            println!(
                "{label}: {:.1}M rows/s ({:.2} ms)",
                n as f64 / best / 1e6,
                best * 1e3
            );
        };
        for &level in SimdLevel::available() {
            best_of(&format!("{level:?} blocks row-major"), &mut || {
                encode_blocks(level, &m, &s, &mut y)
            });
            best_of(&format!("{level:?} blocks tiled"), &mut || {
                encode_blocks_tiled(level, tiles, &s, &mut y)
            });
            best_of(&format!("{level:?} pair row-major"), &mut || {
                encode_cot_pair(level, &m, &s, &e, &mut y, &mut x)
            });
            best_of(&format!("{level:?} packed row-major"), &mut || {
                encode_bits_packed(level, &m, &e, &mut x)
            });
        }
    }

    #[test]
    fn wide_entry_points_match_scalar_on_this_machine() {
        // Cheap smoke (the exhaustive sweep lives in the kernel_props
        // proptests): every wide entry point equals its scalar twin on
        // whatever tier this machine has.
        let m = LpnMatrix::generate(300, 200, 7, Block::from(123u128));
        let tiles = m.tile_schedule();
        let s: Vec<Block> = (0..200u128).map(|i| Block::from(i * 31 + 5)).collect();
        let e = PackedBits::from_bools(&(0..200).map(|i| i % 3 == 1).collect::<Vec<_>>());
        let dirty: Vec<Block> = (0..300u128).map(|i| Block::from(i + 9)).collect();
        let dirty_bits = PackedBits::from_bools(&(0..300).map(|i| i % 5 == 0).collect::<Vec<_>>());

        for &level in SimdLevel::available() {
            let mut y_ref = dirty.clone();
            encoder::encode_blocks(&m, &s, &mut y_ref);
            let mut y = dirty.clone();
            encode_blocks(level, &m, &s, &mut y);
            assert_eq!(y, y_ref, "{level:?} blocks");
            let mut y = dirty.clone();
            encode_blocks_tiled(level, tiles, &s, &mut y);
            assert_eq!(y, y_ref, "{level:?} blocks tiled");

            let mut x_ref = dirty_bits.clone();
            encoder::encode_bits_packed(&m, &e, &mut x_ref);
            let mut x = dirty_bits.clone();
            encode_bits_packed(level, &m, &e, &mut x);
            assert_eq!(x, x_ref, "{level:?} packed bits");

            let mut y = dirty.clone();
            let mut x = dirty_bits.clone();
            encode_cot_pair(level, &m, &s, &e, &mut y, &mut x);
            assert_eq!((y, x), (y_ref, x_ref), "{level:?} pair");
        }
    }
}
