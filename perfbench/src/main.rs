//! Benchmark of verified-COT serving: one client receiving verified COTs
//! from a `CotService` over loopback TCP, end to end (`--trace 0`) or
//! split into the layers the paper reasons about (`--trace 1`).
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--rev <source revision>] [--spans-out <file>]`. The last line of
//! standard output is the result object; the line before it records
//! provenance and sample counts.

mod replay;
mod report;
mod serving;
mod spans;
mod workload;

use ironman_net::CotClient;
use report::{Metrics, END_TO_END, PER_LAYER};
use serving::{Checker, Timed, Warm};
use spans::{median, ns_to, tail, SpanStore};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Arrival, Load, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        rev: "unknown".into(),
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            "--rev" => args.rev = value.clone(),
            "--spans-out" => args.spans_out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What a run produced besides its checker.
struct Run {
    metrics: Metrics,
    extra: Vec<(&'static str, f64)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let mut check = Checker::default();
    let run = if args.trace {
        traced(&w, &args, &mut check)
    } else {
        untraced(&w, &args, &mut check)
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}; problems: {:?}", check.problems);
            return ExitCode::FAILURE;
        }
    };
    let list = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let problems: Vec<String> = check.problems.iter().map(|p| report::json_str(p)).collect();
    let extra: Vec<String> = run
        .extra
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"detail\": {{\"workload\": \"{}\", \"trace\": {}, \"seconds\": {}, \"provenance\": {}, \"failed_ratio\": {}, \"problems\": [{}], \"measured\": {}, \"extra\": {{{}}}}}}}",
        w.name,
        u8::from(args.trace),
        args.seconds,
        report::provenance(&args.rev, args.seed, &w.params, serving::SHARDS),
        check.failed_ratio(),
        problems.join(", "),
        run.metrics.render_measured(),
        extra.join(", "),
    );
    let correct = check.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        check.attempted,
        check.failed,
        run.metrics.render(list)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The open-loop schedule (warm-up included), generated before the
/// service starts.
fn schedule(w: &Workload, seed: u64, span: Duration) -> Vec<Arrival> {
    match w.load {
        Load::Stream => Vec::new(),
        Load::Request { rate_per_s } => {
            workload::poisson_schedule(seed, rate_per_s, w.sizes, serving::WARMUP + span)
        }
    }
}

/// Runs the workload's load loop; `at_start` runs once, when the timed
/// phase begins.
fn drive(
    w: &Workload,
    client: &mut CotClient,
    schedule: &[Arrival],
    span: Duration,
    check: &mut Checker,
    spans: Option<&mut SpanStore>,
    at_start: &mut dyn FnMut(),
) -> Timed {
    match w.load {
        Load::Stream => serving::stream_loop(client, w.sizes[0], span, check, spans, at_start),
        Load::Request { .. } => serving::request_loop(client, schedule, check, spans, at_start),
    }
}

fn close(warm: Warm) {
    drop(warm.client);
    warm.service.shutdown();
}

/// End-to-end run: the first of `setup_spawns` warm spawns serves the
/// timed phase, and the peak resident set is read when it closes, before
/// the other spawns (which only time set-up) can leave memory behind.
///
/// Wall-clock figures are read per second the VM was not stolen from:
/// on a shared host the hypervisor's steal moves between 0 and 48% for
/// minutes at a time, and a CPU-bound phase loses about as much wall time.
/// Process CPU time leaves steal out already.
fn untraced(w: &Workload, args: &Args, check: &mut Checker) -> Result<Run, String> {
    let span = Duration::from_secs(args.seconds);
    let schedule = schedule(w, args.seed, span);
    let unstolen = |warm: &Warm| warm.setup.as_secs_f64() * (1.0 - warm.setup_steal_share);
    let mut warm = serving::spawn_warm(w, args.seed, check)?;
    let mut setups = vec![unstolen(&warm)];
    let mut setup_walls = vec![warm.setup.as_secs_f64()];
    let t = drive(
        w,
        &mut warm.client,
        &schedule,
        span,
        check,
        None,
        &mut || {},
    );
    let cpu = t.cpu_s;
    close(warm);
    let peak_rss_mb = report::peak_rss_mb();
    for _ in 1..w.setup_spawns {
        let next = serving::spawn_warm(w, args.seed, check)?;
        setups.push(unstolen(&next));
        setup_walls.push(next.setup.as_secs_f64());
        close(next);
    }
    if t.cots == 0 {
        return Err("no verified COTs were delivered".into());
    }
    let ops = t.req_ms.len() as u64;
    // Rates are medians over windows of the timed phase; a short phase
    // still has four windows. A closed loop delivers as fast as the CPUs
    // it was given allow, so its rate is per unstolen second; an open
    // loop's rate is set by its schedule.
    let len = serving::RATE_WINDOW.min(span / 4);
    let windows = serving::windows(&t.marks, len);
    if windows.is_empty() {
        return Err("the timed phase held no rate window".into());
    }
    let rates: Vec<f64> = windows
        .iter()
        .map(|x| match w.load {
            Load::Stream => x.cots_per_s / (1.0 - x.steal_share).max(0.05),
            Load::Request { .. } => x.cots_per_s,
        })
        .collect();
    let costs: Vec<f64> = windows.iter().map(|x| x.cpu_s_per_mcot).collect();
    let n = windows.len() as u64;
    let mut m = Metrics::default();
    m.set("cots_per_s", median(&rates), n);
    m.set("chunk_gap_p50_ms", median(&t.gaps_ms), ops);
    m.set_tail("chunk_gap_p99_ms", tail(&t.gaps_ms), ops);
    m.set("req_p50_ms", median(&t.req_ms), ops);
    m.set_tail("req_p99_ms", tail(&t.req_ms), ops);
    m.set("setup_s", median(&setups), setups.len() as u64);
    m.set("cpu_s_per_mcot", median(&costs), n);
    m.set("peak_rss_mb", peak_rss_mb, 1);
    Ok(Run {
        metrics: m,
        extra: vec![
            ("cots", t.cots as f64),
            ("cpu_s", cpu),
            ("wall_cots_per_s", t.cots as f64 / t.elapsed.as_secs_f64()),
            ("wall_setup_s", median(&setup_walls)),
            ("rate_window_s", len.as_secs_f64()),
            ("host_steal_share", t.steal_share),
        ],
    })
}

/// Traced run: one warm spawn, a timed phase whose one-second windows
/// alternate spans on and off, a serving replay of the path the workload
/// does not use, then the pool and layer replays.
fn traced(w: &Workload, args: &Args, check: &mut Checker) -> Result<Run, String> {
    let span = Duration::from_secs(args.seconds);
    let schedule = schedule(w, args.seed, span);
    let mut spans = SpanStore::new(Instant::now());
    let mut warm = serving::spawn_warm(w, args.seed, check)?;
    let service = &warm.service;
    let mut s0 = None;
    let t = drive(
        w,
        &mut warm.client,
        &schedule,
        span,
        check,
        Some(&mut spans),
        &mut || s0 = Some(service.stats()),
    );
    let cpu = t.cpu_s;
    let s0 = s0.ok_or("the timed phase never started")?;
    let s1 = warm.service.stats();
    serving::serving_replay(
        &mut warm.client,
        w,
        Duration::from_secs(1),
        check,
        &mut spans,
    );
    let s2 = warm.service.stats();
    replay::pool_replay(
        warm.service.pool(),
        w.sizes,
        Duration::from_millis(600),
        &mut spans,
        check,
    );
    close(warm);
    let counts = replay::layer_replay(w.params, args.seed, &mut spans, check);
    if t.cots == 0 {
        return Err("no verified COTs were delivered".into());
    }

    let mut m = Metrics::default();
    let mut extra = Vec::new();
    let from_spans = |m: &mut Metrics, metric: &'static str, name: &str, unit_ns: f64| {
        let v = ns_to(unit_ns, &spans.durations(name));
        m.set(metric, median(&v), v.len() as u64);
    };
    from_spans(&mut m, "lpn.matrix_build_s", "lpn.matrix_build", 1e9);
    from_spans(&mut m, "lpn.sender_encode_ms", "lpn.sender_encode", 1e6);
    from_spans(&mut m, "ggm.expand_ms", "ggm.expand", 1e6);
    from_spans(&mut m, "ot.spcot_ms", "ot.spcot", 1e6);
    from_spans(&mut m, "ot.deal_s", "ot.deal", 1e9);
    from_spans(
        &mut m,
        "ot.session_first_batch_s",
        "ot.session_first_batch",
        1e9,
    );
    from_spans(&mut m, "core.pool_take_us", "core.pool_take", 1e3);
    from_spans(&mut m, "net.encode_us", "net.encode", 1e3);
    from_spans(&mut m, "net.decode_us", "net.decode", 1e3);
    from_spans(&mut m, "net.client_request_us", "net.client_request", 1e3);
    from_spans(&mut m, "net.client_chunk_us", "net.client_chunk", 1e3);
    m.set("lpn.matrix_bytes", counts.matrix_bytes as f64, 1);
    m.set("ggm.prg_blocks", counts.prg_blocks as f64, 1);
    m.set("ot.spcot_rounds", counts.spcot_rounds as f64, 1);
    m.set("ot.spcot_bytes", counts.spcot_bytes as f64, 1);

    let extends = spans.named("ot.extend").len() as u64;
    let [total, spcot, lpn, other] =
        spans::extend_split(&spans).ok_or("no extension was replayed")?;
    for (metric, ns) in [
        ("ot.extend_ms", total),
        ("ot.extend_spcot_ms", spcot),
        ("ot.extend_lpn_ms", lpn),
        ("ot.extend_other_ms", other),
    ] {
        m.set(metric, ns as f64 / 1e6, extends);
    }
    extra.push((
        "spcot_share_of_spcot_plus_lpn",
        spcot as f64 / (spcot + lpn).max(1) as f64,
    ));

    let e2e_verify: Vec<f64> = spans
        .spans()
        .iter()
        .filter(|s| s.name == "core.verify" && s.parent.is_some())
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    m.set(
        "core.verify_us",
        median(&e2e_verify),
        e2e_verify.len() as u64,
    );

    // Service side over the timed phase; the serving path the workload
    // does not use is read over the serving replay instead.
    let lat = s1.latency.delta(&s0.latency);
    let replay_lat = s2.latency.delta(&s1.latency);
    let drains = s1.extensions_run - s0.extensions_run;
    let stalls: u64 = s1.shard_stats.iter().map(|s| s.session_stalls).sum::<u64>()
        - s0.shard_stats.iter().map(|s| s.session_stalls).sum::<u64>();
    m.set(
        "ot.session_stall_ratio",
        stalls as f64 / drains.max(1) as f64,
        drains,
    );
    m.set("core.pool_refills", drains as f64, drains);
    // A timed phase without a single stall (the request workload's pool
    // keeps ahead of its load) reads the replayed sessions' stalls.
    let stall = if lat.stall.count() > 0 {
        &lat.stall
    } else {
        &counts.session_stall
    };
    m.set_tail("net.stall_p99_ms", hist_tail(stall, 1e6), stall.count());
    m.set(
        "net.extension_p50_ms",
        lat.extension.p50() as f64 / 1e6,
        lat.extension.count(),
    );
    for (timed_h, replay_h, p50, p99) in [
        (
            &lat.request_first_byte,
            &replay_lat.request_first_byte,
            "net.first_byte_p50_us",
            "net.first_byte_p99_us",
        ),
        (
            &lat.chunk_push,
            &replay_lat.chunk_push,
            "net.chunk_push_p50_us",
            "net.chunk_push_p99_us",
        ),
    ] {
        let h = if timed_h.count() > 0 {
            timed_h
        } else {
            replay_h
        };
        m.set(p50, h.p50() as f64 / 1e3, h.count());
        m.set_tail(p99, hist_tail(h, 1e3), h.count());
    }
    let reuses = s1.scratch_reuses - s0.scratch_reuses;
    let batches = reuses + s1.scratch_allocs - s0.scratch_allocs;
    m.set(
        "net.scratch_reuse_ratio",
        reuses as f64 / batches.max(1) as f64,
        batches,
    );
    let ops = t.req_ms.len() as u64;
    m.set(
        "net.wire_bytes_per_cot",
        t.wire_bytes as f64 / t.wire_cots.max(1) as f64,
        ops,
    );
    m.set_tail("loadgen.late_p99_ms", tail(&t.late_ms), ops);
    m.set(
        "loadgen.late_max_ms",
        t.late_ms.iter().copied().fold(0.0, f64::max),
        ops,
    );

    // Traced ÷ untraced cost of the workload's main metric: time per
    // COT for a stream, median request latency for requests.
    let overhead = match w.load {
        Load::Stream => {
            let ns_per_cot = |c: usize| t.window_ns[c] as f64 / t.window_cots[c].max(1) as f64;
            ns_per_cot(1) / ns_per_cot(0)
        }
        Load::Request { .. } => median(&t.window_req_ms[1]) / median(&t.window_req_ms[0]),
    };
    m.set("trace.overhead_ratio", overhead, ops);

    // Ledger: CPU per million COTs of each replayed layer on the path a
    // COT takes, against the whole process's over the timed phase.
    let cpu_per_mcot = cpu / (t.cots as f64 / 1e6);
    let mut accounted = 0.0;
    for layer in [
        "ot.extend",
        "core.pool_take",
        "net.encode",
        "net.decode",
        "core.verify",
    ] {
        let (cpu_ns, work) = spans
            .spans()
            .iter()
            .filter(|s| s.name == layer && s.cpu_ns.is_some())
            .fold((0u64, 0u64), |(c, w), s| {
                (c + s.cpu_ns.unwrap_or(0), w + s.work)
            });
        let per_mcot = cpu_ns as f64 / 1e9 / (work.max(1) as f64 / 1e6);
        accounted += per_mcot;
        extra.push((layer, per_mcot));
    }
    m.set("ledger.residual_share", 1.0 - accounted / cpu_per_mcot, 1);
    extra.extend([
        ("traced_cpu_s_per_mcot", cpu_per_mcot),
        ("traced_cots_per_s", t.cots as f64 / t.elapsed.as_secs_f64()),
        ("host_steal_share", t.steal_share),
        ("spans", spans.spans().len() as f64),
    ]);

    if let Some(path) = &args.spans_out {
        spans
            .write_jsonl(path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }
    Ok(Run { metrics: m, extra })
}

/// The tail quantile (in `unit_ns`) a histogram's count supports, by the
/// same rule as [`spans::tail`].
fn hist_tail(h: &ironman_telemetry::HistogramSnapshot, unit_ns: f64) -> (f64, f64) {
    if h.count() == 0 {
        return (0.0, 0.0);
    }
    let q = spans::tail_quantile(h.count() as usize);
    (h.quantile(q) as f64 / unit_ns, q * 100.0)
}
