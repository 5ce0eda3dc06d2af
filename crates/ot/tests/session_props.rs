//! Session-level properties of the cache-blocked extension path: a
//! [`CotSession`] running the recommended split kernel still satisfies the Δ-correlation invariant on every staged batch,
//! and its output stream is bit-identical to the naive-kernel session
//! with the same seed.

use ironman_ot::ferret::{FerretConfig, LpnKernel};
use ironman_ot::params::FerretParams;
use ironman_ot::session::CotSession;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random session seeds: the split-kernel session's staged batches
    /// all verify `z = y ⊕ x·Δ`, and match the naive-kernel session
    /// bit for bit (the kernels only reorder XOR accumulation).
    #[test]
    fn split_session_correlates_and_matches_naive(seed in any::<u64>()) {
        let naive_cfg = FerretConfig::new(FerretParams::toy());
        let split_cfg = FerretConfig {
            kernel: LpnKernel::Split,
            ..naive_cfg.clone()
        };
        let naive = CotSession::spawn(&naive_cfg, seed, 1);
        let split = CotSession::spawn(&split_cfg, seed, 1);
        prop_assert_eq!(naive.delta(), split.delta());
        let delta = split.delta();
        for _ in 0..2 {
            let a = naive.recv().expect("naive session alive");
            let b = split.recv().expect("split session alive");
            prop_assert_eq!(&a.z, &b.z);
            prop_assert_eq!(&a.x, &b.x);
            prop_assert_eq!(&a.y, &b.y);
            for i in 0..b.len() {
                prop_assert_eq!(b.z[i], b.y[i] ^ delta.and_bit(b.x[i]), "COT {}", i);
            }
        }
    }
}
