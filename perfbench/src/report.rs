//! Metric names and units, the result line, and what the run records
//! about the host it ran on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("cots_per_s", "COTs/s"),
    ("setup_s", "s"),
    ("cpu_s_per_mcot", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("lpn.matrix_build_s", "s"),
    ("lpn.matrix_bytes", "bytes"),
    ("lpn.sender_encode_ms", "ms"),
    ("ot.extend_ms", "ms"),
    ("ot.extend_spcot_ms", "ms"),
    ("ot.extend_lpn_ms", "ms"),
    ("ot.extend_other_ms", "ms"),
    ("ggm.expand_ms", "ms"),
    ("ggm.prg_blocks", "count"),
    ("ot.spcot_ms", "ms"),
    ("ot.spcot_rounds", "count"),
    ("ot.spcot_bytes", "bytes"),
    ("ot.deal_s", "s"),
    ("ot.session_first_batch_s", "s"),
    ("ot.session_stall_ratio", "ratio"),
    ("net.stall_p99_ms", "ms"),
    ("net.extension_p50_ms", "ms"),
    ("core.pool_take_us", "us"),
    ("core.pool_refills", "count"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.first_byte_p50_us", "us"),
    ("net.first_byte_p99_us", "us"),
    ("net.chunk_push_p50_us", "us"),
    ("net.chunk_push_p99_us", "us"),
    ("net.client_request_us", "us"),
    ("net.client_chunk_us", "us"),
    ("core.verify_us", "us"),
    ("net.scratch_reuse_ratio", "ratio"),
    ("net.wire_bytes_per_cot", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("ledger.residual_share", "share"),
];

/// One measured value with the sample it was read from.
pub struct Value {
    pub value: f64,
    pub samples: u64,
    /// The percentile a tail metric actually reports.
    pub percentile: Option<f64>,
}

/// The metrics of one run, keyed by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(
            name,
            Value {
                value,
                samples,
                percentile: None,
            },
        );
    }

    pub fn set_tail(&mut self, name: &'static str, (value, percentile): (f64, f64), samples: u64) {
        self.0.insert(
            name,
            Value {
                value,
                samples,
                percentile: Some(percentile),
            },
        );
    }

    /// The `metrics` object of the result line, in `list` order. A value
    /// that is not finite is a bug in this benchmark.
    pub fn render(&self, list: &[(&'static str, &'static str)]) -> String {
        let body: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(v.value.is_finite(), "metric {name} is {}", v.value);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    v.value
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Every measured metric with its value, sample count and, for
    /// tails, the percentile actually reported.
    pub fn render_measured(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v)| match v.percentile {
                Some(q) => format!(
                    "\"{name}\": {{\"value\": {}, \"n\": {}, \"percentile\": {q}}}",
                    v.value, v.samples
                ),
                None => format!(
                    "\"{name}\": {{\"value\": {}, \"n\": {}}}",
                    v.value, v.samples
                ),
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// CPU seconds the whole process has used, all threads, from
/// `/proc/self/stat` (utime + stime at the usual 100 ticks per second).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// CPU ticks of the whole host, from the `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostTicks {
    /// Ticks the hypervisor gave the machine's CPUs to other machines.
    pub steal: u64,
    /// Ticks the machine's CPUs had work: user, nice, system, irq,
    /// softirq and steal (everything but idle and iowait).
    pub busy: u64,
}

impl HostTicks {
    pub fn read() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = stat.lines().next().unwrap_or("");
        HostTicks::parse(line)
    }

    fn parse(cpu_line: &str) -> HostTicks {
        let t: Vec<u64> = cpu_line
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        let at = |i: usize| t.get(i).copied().unwrap_or(0);
        HostTicks {
            steal: at(7),
            busy: at(0) + at(1) + at(2) + at(5) + at(6) + at(7),
        }
    }

    /// Share of the ticks since `earlier` in which a CPU had work but the
    /// hypervisor ran another machine instead. With steal accounted by
    /// the guest kernel, process CPU time already leaves it out; wall
    /// time does not.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal);
        steal as f64 / self.busy.saturating_sub(earlier.busy).max(1) as f64
    }
}

/// Peak resident set of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a result came from: host, SIMD tier, source revision and the
/// workload's inputs.
pub fn provenance(
    rev: &str,
    seed: u64,
    params: &ironman_ot::FerretParams,
    shards: usize,
) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let simd_env = std::env::var("IRONMAN_SIMD").ok();
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"simd_level\": {}, \"ironman_simd_env\": {}, \"git_rev\": {}, \"seed\": {seed}, \"ferret_params\": {}, \"shards\": {shards}}}",
        json_str(model),
        json_str(&format!("{:?}", ironman_lpn::SimdLevel::detect())),
        simd_env.map_or("null".to_string(), |v| json_str(&v)),
        json_str(rev),
        json_str(&format!("{params:?}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one array section of `BENCHMARK.json`.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, f: &str| -> Option<String> {
            let i = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[i + f.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit").unwrap_or_default())))
            .collect()
    }

    /// End-to-end metrics the untraced run measures and records in its
    /// detail line only: their run-to-run spread is wider than any bound
    /// `BENCHMARK.json` may set (see `METRICS.md`).
    const DETAIL_ONLY: [&str; 4] = [
        "chunk_gap_p50_ms",
        "chunk_gap_p99_ms",
        "req_p50_ms",
        "req_p99_ms",
    ];

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(section(&json, "per_layer"), own(&PER_LAYER));
        let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md"))
            .expect("METRICS.md");
        for name in DETAIL_ONLY {
            assert!(
                !json.contains(&format!("\"{name}\"")),
                "{name} is bounded after all"
            );
            assert!(
                doc.contains(&format!("`{name}`")),
                "{name} is not documented"
            );
        }
        let workloads: Vec<String> = section(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = crate::workload::all()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        // `BENCHMARK.json` lists the leading workloads; the rest run by
        // name only, and the documentation says why.
        assert_eq!(workloads, ours[..workloads.len()]);
        for name in &ours[workloads.len()..] {
            assert!(
                doc.contains(&format!("`{name}`")),
                "{name} is not documented"
            );
        }
    }

    #[test]
    fn steal_share_counts_only_ticks_with_work() {
        // user nice system idle iowait irq softirq steal guest guest_nice
        let a = HostTicks::parse("cpu  100 0 20 500 5 0 0 10 0 0");
        let b = HostTicks::parse("cpu  160 0 30 900 9 0 0 40 0 0");
        assert_eq!(
            a,
            HostTicks {
                steal: 10,
                busy: 130
            }
        );
        // 60 user + 10 system + 30 steal; the 400 idle ticks do not count.
        assert_eq!(b.steal_share_since(&a), 0.3);
        assert_eq!(a.steal_share_since(&a), 0.0);
    }

    #[test]
    fn render_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.5, 1);
        }
        let out = m.render(&END_TO_END);
        assert!(
            out.contains("\"cots_per_s\": {\"value\": 0.5, \"unit\": \"COTs/s\"}"),
            "{out}"
        );
        assert_eq!(out.matches("\"unit\"").count(), END_TO_END.len());
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
