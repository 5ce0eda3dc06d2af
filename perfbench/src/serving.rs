//! The real serving path, driven from outside: service set-up, the
//! correctness checker, and the closed and open load loops.

use crate::report::HostTicks;
use crate::spans::SpanStore;
use crate::workload::{Arrival, Workload};
use ironman_core::{Backend, CotBatch, Engine};
use ironman_net::{CotClient, CotService, CotServiceConfig};
use ironman_ot::ferret::FerretConfig;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Longest a set-up may take before the run counts it as failed.
const SETUP_DEADLINE: Duration = Duration::from_secs(60);

/// Checks every delivered batch and counts operations.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// First `z` block of every batch the current service delivered.
    seen: HashSet<[u8; 16]>,
    pub problems: Vec<String>,
}

impl Checker {
    /// Starts a new replay scope: batches from different services are
    /// not compared (each spawn of one seed replays the same stream).
    pub fn new_service(&mut self) {
        self.seen.clear();
    }

    /// Checks one delivered batch: its length, `z = y ⊕ x·Δ` on every
    /// correlation, and that no earlier batch of this service began with
    /// the same `z` block (a replayed range). Returns whether it passed.
    pub fn batch(&mut self, b: &CotBatch, expect_len: usize) -> bool {
        self.attempted += 1;
        let problem = if b.len() != expect_len || b.x.len() != expect_len || b.y.len() != expect_len
        {
            Some(format!("batch of {} COTs, asked for {expect_len}", b.len()))
        } else if let Err(i) = b.verify() {
            Some(format!("correlation {i} violates z = y ^ x*delta"))
        } else if !self.seen.insert(b.z[0].to_le_bytes()) {
            Some("batch replays an earlier batch's first z block".to_string())
        } else {
            None
        };
        match problem {
            Some(p) => {
                self.fail(p);
                false
            }
            None => true,
        }
    }

    /// An operation that returned an error.
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    /// A check on an already counted operation that did not hold.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A served, warm service with one connected client.
pub struct Warm {
    pub service: CotService,
    pub client: CotClient,
    /// From `CotService::serve` until every shard has staged an
    /// extension and the first verified batch is in hand.
    pub setup: Duration,
    /// Share of that time the hypervisor stole from CPUs that had work.
    pub setup_steal_share: f64,
}

/// Pool shards the benchmark's service runs. The default (4) keeps 8
/// extension threads busy; on a host with few cores that measures the
/// scheduler's interleaving of them more than the extension itself, so
/// the benchmark runs one shard: one sender and one receiver thread.
pub const SHARDS: usize = 1;

/// Serves `w`'s parameter set with the recommended FERRET config and the
/// default service config with [`SHARDS`] shards (only the seed comes
/// from the workload), and waits until it is warm.
pub fn spawn_warm(w: &Workload, seed: u64, check: &mut Checker) -> Result<Warm, String> {
    let engine = Engine::new(FerretConfig::recommended(w.params), Backend::SoftwareCpu);
    let cfg = CotServiceConfig {
        seed,
        shards: SHARDS,
        ..CotServiceConfig::default()
    };
    check.new_service();
    let host0 = HostTicks::read();
    let t0 = Instant::now();
    let service =
        CotService::serve("127.0.0.1:0", &engine, cfg).map_err(|e| format!("serve: {e}"))?;
    while service
        .stats()
        .shard_stats
        .iter()
        .any(|s| s.session_extensions == 0)
    {
        if t0.elapsed() > SETUP_DEADLINE {
            service.shutdown();
            return Err("no extension staged on every shard within the set-up deadline".into());
        }
        std::thread::sleep(Duration::from_micros(250));
    }
    let mut client = match CotClient::connect(service.addr(), "perfbench") {
        Ok(c) => c,
        Err(e) => {
            service.shutdown();
            return Err(format!("connect: {e}"));
        }
    };
    let mut first = CotBatch::default();
    let size = w.sizes[0];
    if let Err(e) = client.request_cots_into(size, &mut first) {
        check.error(format!("first request: {e}"));
    } else {
        check.batch(&first, size);
    }
    let setup = t0.elapsed();
    Ok(Warm {
        service,
        client,
        setup,
        setup_steal_share: HostTicks::read().steal_share_since(&host0),
    })
}

/// Load runs this long before timing starts, so the timed phase sees
/// the pool in the steady state its load keeps it in, not as set-up
/// left it.
pub const WARMUP: Duration = Duration::from_secs(2);

/// What one timed phase measured on the client.
#[derive(Default)]
pub struct Timed {
    /// Verified COTs delivered.
    pub cots: u64,
    /// Start of the timed phase → last verified batch.
    pub elapsed: Duration,
    /// CPU seconds the whole process used over the timed phase.
    pub cpu_s: f64,
    /// Bytes the client's connection carried, both ways, over the whole
    /// loop (warm-up included), and the COTs they delivered.
    pub wire_bytes: u64,
    pub wire_cots: u64,
    /// Share of the timed phase the hypervisor stole from CPUs that had
    /// work: context for how noisy the run's host was.
    pub steal_share: f64,
    /// Running readings of the timed phase, about every [`MARK_EVERY`].
    pub marks: Vec<Mark>,
    /// Gap between consecutive verified batches, ms.
    pub gaps_ms: Vec<f64>,
    /// Request latency, ms: from the due time (open loop) or from the
    /// client's ask (closed loop) to the verified batch in hand.
    pub req_ms: Vec<f64>,
    /// How late the generator asked, compared with when the request was
    /// due (open loop) or when the previous batch was done (closed loop).
    pub late_ms: Vec<f64>,
    /// Per window class (0 = untraced, 1 = traced): verified COTs, busy
    /// nanoseconds and request latencies, for `trace.overhead_ratio`.
    pub window_cots: [u64; 2],
    pub window_ns: [u64; 2],
    pub window_req_ms: [Vec<f64>; 2],
}

/// A running reading of the timed phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mark {
    /// Nanoseconds since the timed phase began.
    pub ns: u64,
    /// CPU seconds the whole process had used.
    pub cpu_s: f64,
    /// Verified COTs counted so far (a chunk asked for before the timed
    /// phase began but delivered in it counts before the first mark).
    pub cots: u64,
    /// The host's CPU ticks.
    pub host: HostTicks,
}

/// How often the timed phase is read for [`Timed::marks`].
pub const MARK_EVERY: Duration = Duration::from_millis(250);

/// Length of the windows the end-to-end rates are read over: about 20
/// extensions of a stream at OT_2POW20, so where a window starts within
/// an extension's burst of chunks moves its rate by a few percent only.
pub const RATE_WINDOW: Duration = Duration::from_secs(4);

/// The timed phase between two marks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    pub cots_per_s: f64,
    pub cpu_s_per_mcot: f64,
    /// Share of the window the hypervisor stole from CPUs that had work.
    pub steal_share: f64,
}

/// Every window between two marks at least `len` apart, one per starting
/// mark. Windows that delivered no COTs are skipped.
pub fn windows(marks: &[Mark], len: Duration) -> Vec<Window> {
    let len = len.as_nanos() as u64;
    let mut out = Vec::new();
    let mut j = 0;
    for (i, a) in marks.iter().enumerate() {
        j = j.max(i + 1);
        while j < marks.len() && marks[j].ns - a.ns < len {
            j += 1;
        }
        let Some(b) = marks.get(j) else { break };
        let cots = b.cots - a.cots;
        if cots == 0 {
            continue;
        }
        out.push(Window {
            cots_per_s: cots as f64 / ((b.ns - a.ns) as f64 / 1e9),
            cpu_s_per_mcot: (b.cpu_s - a.cpu_s) / (cots as f64 / 1e6),
            steal_share: b.host.steal_share_since(&a.host),
        });
    }
    out
}

/// Traced runs alternate one-second windows with spans on and off, so
/// the tracing overhead is measured within one run.
const WINDOW: Duration = Duration::from_secs(1);

struct Op {
    due: Instant,
    /// Where the request latency is measured from.
    req_from: Instant,
    ask: Instant,
    got: Instant,
    done: Instant,
    cots: u64,
}

impl Timed {
    /// Marks the start of the timed phase for the CPU and steal readings,
    /// and lets the caller take its own (once).
    fn begin(&mut self, marks: &mut Option<(f64, HostTicks)>, at_start: &mut dyn FnMut()) {
        if marks.is_none() {
            at_start();
            let cpu_s = crate::report::process_cpu_s();
            let host = HostTicks::read();
            *marks = Some((cpu_s, host));
            self.marks.push(Mark {
                ns: 0,
                cpu_s,
                cots: self.cots,
                host,
            });
        }
    }

    /// Closes the CPU and steal readings begun by [`Timed::begin`].
    fn end(&mut self, marks: Option<(f64, HostTicks)>) {
        let Some((cpu0, host0)) = marks else {
            return;
        };
        self.cpu_s = crate::report::process_cpu_s() - cpu0;
        self.steal_share = HostTicks::read().steal_share_since(&host0);
    }

    fn record(
        &mut self,
        start: Instant,
        prev_done: Instant,
        op: &Op,
        client_span: &'static str,
        spans: Option<&mut SpanStore>,
    ) {
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        let req = ms(op.req_from, op.done);
        self.cots += op.cots;
        self.elapsed = op.done.saturating_duration_since(start);
        let ns = self.elapsed.as_nanos() as u64;
        if self
            .marks
            .last()
            .is_some_and(|m| ns - m.ns >= MARK_EVERY.as_nanos() as u64)
        {
            self.marks.push(Mark {
                ns,
                cpu_s: crate::report::process_cpu_s(),
                cots: self.cots,
                host: HostTicks::read(),
            });
        }
        self.gaps_ms.push(ms(prev_done, op.done));
        self.req_ms.push(req);
        self.late_ms.push(ms(op.due, op.ask));
        let Some(spans) = spans else { return };
        let window = op.due.saturating_duration_since(start).as_nanos() / WINDOW.as_nanos();
        let class = (window % 2) as usize;
        self.window_cots[class] += op.cots;
        self.window_ns[class] += op.done.saturating_duration_since(prev_done).as_nanos() as u64;
        self.window_req_ms[class].push(req);
        if class == 1 {
            let id = spans.request();
            let root = spans.record("e2e.op", op.due, op.done, None, id);
            spans.record("loadgen.wait", op.due, op.ask, Some(root), id);
            spans.record(client_span, op.ask, op.got, Some(root), id);
            spans.record("core.verify", op.got, op.done, Some(root), id);
        }
    }
}

/// Closed loop: one subscription drained for `WARMUP` and then `span`,
/// which is timed; every chunk is verified, then the stream's accounting
/// is checked.
pub fn stream_loop(
    client: &mut CotClient,
    chunk: usize,
    span: Duration,
    check: &mut Checker,
    mut spans: Option<&mut SpanStore>,
    at_start: &mut dyn FnMut(),
) -> Timed {
    let mut t = Timed::default();
    let mut batch = CotBatch::default();
    let bytes0 = client.transport_stats().total_bytes();
    let mut sub = match client.subscribe(chunk, u64::MAX) {
        Ok(s) => s,
        Err(e) => {
            check.error(format!("subscribe: {e}"));
            return t;
        }
    };
    let mut prev_done = Instant::now();
    let start = prev_done + WARMUP;
    let end = start + span;
    let mut verified_chunks = 0u64;
    let mut marks = None;
    while prev_done < end {
        let ask = Instant::now();
        if ask >= start {
            t.begin(&mut marks, at_start);
        }
        match sub.next_chunk_into(&mut batch) {
            Ok(true) => {}
            Ok(false) => {
                check.error("stream ended before the run did".into());
                break;
            }
            Err(e) => {
                check.error(format!("next chunk: {e}"));
                break;
            }
        }
        let got = Instant::now();
        let ok = check.batch(&batch, chunk);
        let done = Instant::now();
        verified_chunks += 1;
        let op = Op {
            due: prev_done,
            req_from: ask,
            ask,
            got,
            done,
            cots: if ok { chunk as u64 } else { 0 },
        };
        if done >= start {
            t.record(
                start,
                prev_done,
                &op,
                "net.client_chunk",
                spans.as_deref_mut(),
            );
        }
        prev_done = done;
    }
    t.end(marks);
    // Chunks granted but not yet received when the stream is closed are
    // drained by `finish`; the trailer must cover exactly what arrived.
    let in_flight = sub.credits_outstanding();
    check.attempted += 1;
    match sub.finish() {
        Ok(s) if s.cots == s.chunks * chunk as u64 && s.chunks >= verified_chunks && s.chunks <= verified_chunks + in_flight => {
            t.wire_cots = s.cots;
        }
        Ok(s) => check.fail(format!(
            "stream summary {}/{} disagrees with {verified_chunks} chunks received (+{in_flight} in flight)",
            s.chunks, s.cots
        )),
        Err(e) => check.fail(format!("stream finish: {e}")),
    }
    t.wire_bytes = client.transport_stats().total_bytes() - bytes0;
    t
}

/// Open loop: sends each scheduled request when it is due, on one
/// connection, and times it from its due time. Requests due in the first
/// `WARMUP` are sent and checked but not timed.
pub fn request_loop(
    client: &mut CotClient,
    schedule: &[Arrival],
    check: &mut Checker,
    mut spans: Option<&mut SpanStore>,
    at_start: &mut dyn FnMut(),
) -> Timed {
    let mut t = Timed::default();
    let mut batch = CotBatch::default();
    let bytes0 = client.transport_stats().total_bytes();
    let origin = Instant::now() + Duration::from_millis(2);
    let start = origin + WARMUP;
    let mut prev_done = origin;
    let mut marks = None;
    for (i, a) in schedule.iter().enumerate() {
        let due = origin + Duration::from_nanos(a.due_ns);
        wait_until(due);
        if due >= start {
            t.begin(&mut marks, at_start);
        }
        let ask = Instant::now();
        if let Err(e) = client.request_cots_into(a.size, &mut batch) {
            check.error(format!("request of {}: {e}", a.size));
            // The session is gone: every later request fails too.
            let rest = (schedule.len() - i - 1) as u64;
            check.attempted += rest;
            check.failed += rest;
            break;
        }
        let got = Instant::now();
        let ok = check.batch(&batch, a.size);
        let done = Instant::now();
        t.wire_cots += a.size as u64;
        let op = Op {
            due,
            req_from: due,
            ask,
            got,
            done,
            cots: if ok { a.size as u64 } else { 0 },
        };
        if due >= start {
            t.record(
                start,
                prev_done,
                &op,
                "net.client_request",
                spans.as_deref_mut(),
            );
        }
        prev_done = done;
    }
    t.end(marks);
    t.wire_bytes = client.transport_stats().total_bytes() - bytes0;
    t
}

/// Sleeps until shortly before `due`, then spins the rest, so requests
/// leave on time without the timer slack of a plain sleep.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Exercises the serving path the workload's own loop does not use, on
/// the same service, so every per-layer serving metric has samples on
/// every workload: isolated one-shot requests after a stream workload, a
/// short exact-length subscription after a request workload.
pub fn serving_replay(
    client: &mut CotClient,
    w: &Workload,
    budget: Duration,
    check: &mut Checker,
    spans: &mut SpanStore,
) {
    let mut batch = CotBatch::default();
    let size = *w.sizes.iter().max().expect("workload has sizes");
    let start = Instant::now();
    match w.load {
        crate::workload::Load::Stream => {
            for _ in 0..512 {
                if start.elapsed() > budget {
                    break;
                }
                let ask = Instant::now();
                if let Err(e) = client.request_cots_into(size, &mut batch) {
                    check.error(format!("replayed request: {e}"));
                    return;
                }
                let got = Instant::now();
                let id = spans.request();
                spans.record("net.client_request", ask, got, None, id);
                check.batch(&batch, size);
            }
        }
        crate::workload::Load::Request { .. } => {
            const CHUNKS: u64 = 256;
            let mut sub = match client.subscribe(size, CHUNKS) {
                Ok(s) => s,
                Err(e) => return check.error(format!("replayed subscribe: {e}")),
            };
            let mut got_chunks = 0u64;
            loop {
                let ask = Instant::now();
                match sub.next_chunk_into(&mut batch) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => return check.error(format!("replayed chunk: {e}")),
                }
                let got = Instant::now();
                let id = spans.request();
                spans.record("net.client_chunk", ask, got, None, id);
                check.batch(&batch, size);
                got_chunks += 1;
            }
            check.attempted += 1;
            match sub.finish() {
                Ok(s)
                    if s.chunks == CHUNKS
                        && got_chunks == CHUNKS
                        && s.cots == CHUNKS * size as u64 => {}
                Ok(s) => check.fail(format!(
                    "replayed stream summary {}/{} after {got_chunks} chunks",
                    s.chunks, s.cots
                )),
                Err(e) => check.fail(format!("replayed stream finish: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_prg::Block;

    fn batch(n: usize, salt: u128) -> CotBatch {
        let delta = Block::from(0xd1e7_a000_0000_0001u128 | (salt << 64));
        let x: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let y: Vec<Block> = (0..n)
            .map(|i| Block::from(i as u128 * 7919 + salt))
            .collect();
        let z = y
            .iter()
            .zip(&x)
            .map(|(&y, &b)| y ^ delta.and_bit(b))
            .collect();
        CotBatch { delta, z, x, y }
    }

    fn mark(s: f64, cpu_s: f64, cots: u64, steal: u64) -> Mark {
        Mark {
            ns: (s * 1e9) as u64,
            cpu_s,
            cots,
            host: HostTicks {
                steal,
                busy: (s * 100.0) as u64,
            },
        }
    }

    #[test]
    fn windows_span_at_least_their_length_and_skip_idle_ones() {
        let marks = [
            mark(0.0, 0.0, 0, 0),
            mark(1.0, 1.0, 1_000_000, 20),
            mark(2.0, 2.0, 1_000_000, 20),
            mark(3.0, 2.5, 4_000_000, 20),
        ];
        // From 0 s to 2 s, and from 1 s to 3 s; the window from 2 s has
        // no mark 2 s after it.
        let w = windows(&marks, Duration::from_secs(2));
        assert_eq!(
            w,
            vec![
                Window {
                    cots_per_s: 500_000.0,
                    cpu_s_per_mcot: 2.0,
                    steal_share: 0.1,
                },
                Window {
                    cots_per_s: 1_500_000.0,
                    cpu_s_per_mcot: 0.5,
                    steal_share: 0.0,
                },
            ]
        );
        let idle = [mark(0.0, 0.0, 5, 0), mark(2.0, 1.0, 5, 0)];
        assert!(windows(&idle, Duration::from_secs(2)).is_empty());
    }

    #[test]
    fn corrupted_batch_fails_the_check() {
        let mut c = Checker::default();
        assert!(c.batch(&batch(64, 1), 64));
        let mut bad = batch(64, 2);
        bad.z[17] ^= Block::from(1u128 << 90);
        assert!(!c.batch(&bad, 64));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(c.problems[0].contains("correlation 17"), "{:?}", c.problems);
    }

    #[test]
    fn replayed_or_short_batch_fails_the_check() {
        let mut c = Checker::default();
        assert!(c.batch(&batch(64, 3), 64));
        assert!(!c.batch(&batch(64, 3), 64), "a replayed range must fail");
        assert!(!c.batch(&batch(32, 4), 64), "a short batch must fail");
        c.new_service();
        assert!(c.batch(&batch(64, 3), 64), "replay scope is per service");
        assert_eq!((c.attempted, c.failed), (4, 2));
    }
}
