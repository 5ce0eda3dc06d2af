//! Layer replay for the traced run: isolated calls into each layer's
//! public functions at the workload's parameters, one span per call,
//! with the calling threads' CPU time read around each call.

use crate::serving::Checker;
use crate::spans::{Span, SpanStore};
use ironman_core::{CotBatch, SharedCotPool};
use ironman_ggm::GgmTree;
use ironman_lpn::{simd, LpnMatrix};
use ironman_net::proto::{
    decode_response_into, encode_cot_batch_into, encode_cots_into, HotResponse,
};
use ironman_ot::channel::{LocalChannel, Transport};
use ironman_ot::ferret::{FerretConfig, FerretReceiver, FerretSender, LpnKernel, SharedLpnMatrix};
use ironman_ot::spcot::SpcotConfig;
use ironman_ot::spcot_batch::{spcot_batch_recv_into, spcot_batch_send_into};
use ironman_ot::{CotSession, Dealer, FerretParams};
use ironman_prg::tree_prg::build_tree_prg;
use ironman_prg::Block;
use ironman_telemetry::HistogramSnapshot;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Both parties of a replayed protocol share one in-process channel,
/// which only fails when a party is gone.
const IN_PROCESS: &str = "in-process channel with both parties alive";

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds the calling thread has run on a CPU. This reads the
/// thread's CPU clock rather than `/proc/thread-self/schedstat`, whose
/// counter only advances at scheduler events and so reads 0 for most
/// calls shorter than a scheduler tick.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only platform this benchmark reads its
    // `/proc` figures on), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Start and end of one call on one thread, with its CPU time.
#[derive(Clone, Copy)]
struct Call {
    start: Instant,
    end: Instant,
    cpu_ns: u64,
}

fn call<R>(f: impl FnOnce() -> R) -> (R, Call) {
    let c0 = thread_cpu_ns();
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    let cpu_ns = thread_cpu_ns().saturating_sub(c0);
    (r, Call { start, end, cpu_ns })
}

/// Runs `f` on this thread as one span with its CPU time and work.
fn timed<R>(spans: &mut SpanStore, name: &'static str, work: u64, f: impl FnOnce() -> R) -> R {
    let (r, c) = call(f);
    let req = spans.request();
    let mut span = spans.at(name, c.start, c.end, None, req);
    span.cpu_ns = Some(c.cpu_ns);
    span.work = work;
    spans.push(span);
    r
}

/// A span over two parties' calls: from the first start to the last
/// end, with both threads' CPU time.
fn pair_span(spans: &SpanStore, name: &'static str, req: u64, a: Call, b: Call, work: u64) -> Span {
    let mut span = spans.at(name, a.start.min(b.start), a.end.max(b.end), None, req);
    span.cpu_ns = Some(a.cpu_ns + b.cpu_ns);
    span.work = work;
    span
}

/// Calls `f(i)` until at least `min` calls were made and `budget` has
/// passed, or `max` calls were made.
fn repeat(budget: Duration, min: usize, max: usize, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < max && (i < min || start.elapsed() < budget) {
        f(i);
        i += 1;
    }
}

/// Warm-pool serving layers: `SharedCotPool::take_into` on the service's
/// own pool, then frame encode, decode and verify of the taken batch.
/// Takes run only while every shard holds the request, so none waits on
/// an extension.
pub fn pool_replay(
    pool: &SharedCotPool,
    sizes: &[usize],
    budget: Duration,
    spans: &mut SpanStore,
    check: &mut Checker,
) {
    let (mut taken, mut decoded) = (CotBatch::default(), CotBatch::default());
    let (mut frame, mut response) = (Vec::new(), Vec::new());
    repeat(budget, 16, 4096, |i| {
        let size = sizes[i % sizes.len()];
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.shard_occupancy().into_iter().min().unwrap_or(0) < size
            && Instant::now() < deadline
        {
            pool.warm(usize::MAX);
            std::thread::sleep(Duration::from_micros(200));
        }
        let work = size as u64;
        timed(spans, "core.pool_take", work, || {
            pool.take_into(size, &mut taken)
        });
        timed(spans, "net.encode", work, || {
            frame.clear();
            encode_cot_batch_into(&mut frame, taken.as_slice());
        });
        response.clear();
        encode_cots_into(&mut response, taken.as_slice());
        let hot = timed(spans, "net.decode", work, || {
            decode_response_into(&response, &mut decoded)
        });
        check.attempted += 1;
        if !matches!(hot, Ok(HotResponse::Cots)) {
            check.fail("replayed frame did not decode as a COT batch".into());
        }
        timed(spans, "core.verify", work, || check.batch(&decoded, size));
    });
}

/// What the replay reads off the calls it makes besides their spans.
#[derive(Default)]
pub struct Counts {
    pub matrix_bytes: u64,
    pub prg_blocks: u64,
    pub spcot_rounds: u64,
    pub spcot_bytes: u64,
    /// Stalls of replayed sessions whose consumer outran them.
    pub session_stall: HistogramSnapshot,
}

/// Replays the extension's layers at `params`: matrix build, the
/// sender's LPN encode, GGM expansion, batched SPCOT, a whole two-party
/// extension with its SPCOT/LPN split, base dealing, and session spawn
/// to first batch.
pub fn layer_replay(
    params: FerretParams,
    seed: u64,
    spans: &mut SpanStore,
    check: &mut Checker,
) -> Counts {
    let mut counts = Counts::default();
    let mut cfg = FerretConfig::recommended(params);
    let p = cfg.params;

    // lpn: `SharedLpnMatrix::build` is `LpnMatrix::generate` plus a
    // shared handle, so both calls are samples of the matrix build.
    let shared = timed(spans, "lpn.matrix_build", 0, || {
        SharedLpnMatrix::build(&cfg)
    });
    counts.matrix_bytes = shared.working_set_bytes();
    cfg.shared_matrix = Some(shared);
    {
        let matrix = timed(spans, "lpn.matrix_build", 0, || {
            LpnMatrix::generate(p.n, p.k, cfg.row_weight, cfg.lpn_seed)
        });
        let level = cfg.simd.resolve();
        // The sender's encode as `FerretSender` runs it: tiled over the
        // cached schedule for the Split and Tiled kernels.
        let tiles = (cfg.kernel != LpnKernel::Naive).then(|| matrix.tile_schedule());
        let mut dealer = Dealer::new(seed ^ 0x1a7e);
        let input: Vec<Block> = (0..p.k).map(|_| dealer.random_block()).collect();
        let mut acc = vec![Block::ZERO; p.n];
        repeat(Duration::from_millis(500), 3, 200, |_| {
            timed(spans, "lpn.sender_encode", p.n as u64, || match tiles {
                Some(t) => simd::encode_blocks_tiled(level, t, &input, &mut acc),
                None => simd::encode_blocks(level, &matrix, &input, &mut acc),
            });
        });
        black_box(&acc);
    }

    // ggm: the t tree expansions of one extension.
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    repeat(Duration::from_millis(400), 3, 200, |i| {
        let blocks = timed(spans, "ggm.expand", p.t as u64, || {
            let mut blocks = 0;
            for j in 0..p.t {
                let seed = Block::from(((i as u128) << 64) | j as u128);
                let tree = GgmTree::expand(prg.as_ref(), seed, cfg.arity, p.leaves);
                blocks += tree.counter().aes_equivalents();
                black_box(tree.leaves()[0]);
            }
            blocks
        });
        counts.prg_blocks = blocks;
    });

    // ot: batched SPCOT, both parties over an in-process channel.
    let spcot_cfg = SpcotConfig {
        arity: cfg.arity,
        prg: cfg.prg,
        leaves: p.leaves,
        session_key: cfg.session_key,
    };
    let spcot_base = p.t * p.leaves.trailing_zeros() as usize;
    repeat(Duration::from_millis(400), 3, 200, |i| {
        let mut dealer = Dealer::new(seed.wrapping_add(i as u64));
        let delta = dealer.random_delta();
        let (mut s_base, mut r_base) = dealer.deal_cot(delta, spcot_base);
        let seeds: Vec<Block> = (0..p.t).map(|_| dealer.random_block()).collect();
        let alphas: Vec<usize> = (0..p.t).map(|_| dealer.random_index(p.leaves)).collect();
        let (mut cs, mut cr) = LocalChannel::pair();
        let (s, r) = std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let mut tweak = 0;
                let mut sum = Block::ZERO;
                let (res, c) = call(|| {
                    spcot_batch_send_into(
                        &mut cs,
                        &spcot_cfg,
                        &mut s_base,
                        &seeds,
                        &mut tweak,
                        |_, leaves, _| sum ^= leaves[0],
                    )
                });
                res.expect(IN_PROCESS);
                (black_box(sum), c, cs.stats())
            });
            let receiver = scope.spawn(|| {
                let mut tweak = 0;
                let mut sum = Block::ZERO;
                let (res, c) = call(|| {
                    spcot_batch_recv_into(
                        &mut cr,
                        &spcot_cfg,
                        &mut r_base,
                        &alphas,
                        &mut tweak,
                        |_, _, leaves, _| sum ^= leaves[0],
                    )
                });
                res.expect(IN_PROCESS);
                (black_box(sum), c, cr.stats())
            });
            (
                sender.join().expect("spcot sender"),
                receiver.join().expect("spcot receiver"),
            )
        });
        let req = spans.request();
        let span = pair_span(spans, "ot.spcot", req, s.1, r.1, p.t as u64);
        spans.push(span);
        counts.spcot_rounds = s.2.rounds.max(r.2.rounds);
        counts.spcot_bytes = s.2.bytes_sent + r.2.bytes_sent;
    });

    extend_replay(&cfg, seed, spans, check);

    let required = cfg.base_cots_required();
    repeat(Duration::from_millis(300), 3, 200, |i| {
        let mut dealer = Dealer::new(seed.wrapping_add(i as u64));
        let delta = dealer.random_delta();
        black_box(timed(spans, "ot.deal", required as u64, || {
            dealer.deal_cot(delta, required)
        }));
    });

    repeat(Duration::from_millis(500), 2, 20, |i| {
        let start = Instant::now();
        let session = CotSession::spawn(&cfg, seed.wrapping_add(i as u64), 1);
        let first = session.recv();
        let end = Instant::now();
        let req = spans.request();
        spans.record("ot.session_first_batch", start, end, None, req);
        // Two more receives right away outrun the session: each blocks
        // on its staging buffer, which the session records as a stall
        // (the first receive's wait, set-up included, is not one).
        let before = session.telemetry().stall.snapshot();
        let batches = [first, session.recv(), session.recv()];
        for b in batches {
            check.attempted += 1;
            match b {
                Ok(b)
                    if b.z.len() == b.y.len()
                        && b.z
                            .iter()
                            .zip(&b.y)
                            .zip(&b.x)
                            .all(|((&z, &y), &x)| z == y ^ session.delta().and_bit(x)) => {}
                _ => check.fail("a replayed session batch did not verify".into()),
            }
        }
        counts
            .session_stall
            .merge(&session.telemetry().stall.snapshot().delta(&before));
    });
    counts
}

/// Whole extensions, `FerretSender::extend` ‖ `FerretReceiver::extend` on
/// two threads over an in-process channel. Each `ot.extend` span gets
/// `ot.extend.spcot` and `ot.extend.lpn` children from the receiver's
/// phase split; what they leave uncovered is the extension's self time.
fn extend_replay(cfg: &FerretConfig, seed: u64, spans: &mut SpanStore, check: &mut Checker) {
    const BUDGET: Duration = Duration::from_millis(1500);
    let mut dealer = Dealer::new(seed ^ 0xe7e4d);
    let delta = dealer.random_delta();
    let (s_base, r_base) = dealer.deal_cot(delta, cfg.base_cots_required());
    let (mut cs, mut cr) = LocalChannel::pair();
    // Both parties must run the same number of extensions: the receiver
    // sizes the run from its first (unrecorded) extension and publishes
    // the count before the next barrier.
    let reps = AtomicUsize::new(usize::MAX);
    let barrier = Barrier::new(2);
    let (s_calls, r_calls) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sender = FerretSender::new(cfg.clone(), s_base, seed);
            let mut calls = Vec::new();
            let mut i = 0;
            loop {
                barrier.wait();
                if i > reps.load(Ordering::SeqCst) {
                    return calls;
                }
                let (z, c) = call(|| sender.extend(&mut cs));
                calls.push((z.expect(IN_PROCESS), c));
                i += 1;
            }
        });
        let receiver = scope.spawn(|| {
            let mut receiver = FerretReceiver::new(cfg.clone(), r_base, seed);
            let mut calls = Vec::new();
            let mut i = 0;
            loop {
                barrier.wait();
                if i > reps.load(Ordering::SeqCst) {
                    return calls;
                }
                let (xy, c) = call(|| receiver.extend(&mut cr));
                if i == 0 {
                    let first = c.end.duration_since(c.start).as_secs_f64();
                    let n = (BUDGET.as_secs_f64() / first.max(1e-6)) as usize;
                    reps.store(n.clamp(3, 40), Ordering::SeqCst);
                }
                calls.push((xy.expect(IN_PROCESS), c, receiver.last_phase_nanos()));
                i += 1;
            }
        });
        (
            sender.join().expect("extend sender"),
            receiver.join().expect("extend receiver"),
        )
    });
    // Iteration 0 only sized the run.
    for ((z, s), ((x, y), r, (spcot_ns, lpn_ns))) in s_calls.into_iter().zip(r_calls).skip(1) {
        check.attempted += 1;
        if z.len() != y.len()
            || z.iter()
                .zip(&y)
                .zip(&x)
                .any(|((&z, &y), &x)| z != y ^ delta.and_bit(x))
        {
            check.fail("replayed extension output did not verify".into());
        }
        let req = spans.request();
        let parent = pair_span(spans, "ot.extend", req, s, r, z.len() as u64);
        let parent = spans.push(parent);
        let spcot_end = r.start + Duration::from_nanos(spcot_ns);
        spans.record("ot.extend.spcot", r.start, spcot_end, Some(parent), req);
        spans.record(
            "ot.extend.lpn",
            spcot_end,
            spcot_end + Duration::from_nanos(lpn_ns),
            Some(parent),
            req,
        );
    }
}
