//! DSLog's end-to-end benchmark: a TCP query through `NetServer`, ingest
//! through to a durable commit, and open through to the first answer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (inputs made from `--seed`):
//! - `serve_read`: two closed-loop connections query Fig. 9 random numpy
//!   pipelines and a scatter chain; write path and open idle while timed.
//! - `serve_mixed`: one open-loop connection at a fixed rate while a
//!   paced in-process writer ingests a batch and commits it every 80 ms.
//!   Not listed in `BENCHMARK.json`: under bursts of host contention its
//!   open-loop p50 (timed from each request's due time) rose 3–6x, so it
//!   could not repeat within any allowed bound. Run it by hand.
//! - `ingest_reopen`: one writer commits a single-edge batch per
//!   generation until history is deep, then the directory is reopened
//!   eagerly and lazily, each time answering a checked query.
//!
//! `--trace 0` prints every end-to-end metric of `BENCHMARK.json`;
//! `--trace 1` runs the same seed with spans around each layer's calls and
//! prints every per-layer metric, writing the spans to
//! `perfbench/work/trace-<workload>.jsonl`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A wrong answer, an unclean `persist::verify` or a failed
//! operation makes the exit code non-zero.

mod check;
mod client;
mod inputs;
mod phases;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workloads::{Args, Report};

/// End-to-end metrics: name and unit. Four more are measured but did not
/// repeat between runs on the 2-vCPU machine class, so they are reported
/// as per-layer metrics of the traced run instead: `query_p99_us`
/// (`net.query_p99_us`), and, fsync-bound on the serve workloads,
/// `ingest_rows_per_s` (`service.ingest_rows_per_s`), `commit_p50_ms`
/// and `commit_p90_ms` (`persist.commit_p50_ms`, `persist.commit_p90_ms`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_qps", "queries/s"),
    ("query_p50_us", "us"),
    ("open_first_answer_ms", "ms"),
    ("lazy_open_first_answer_ms", "ms"),
    ("db_bytes_per_row", "bytes/row"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric: name, unit, better, and the end-to-end metric and
/// workload it should move.
struct Layer {
    name: &'static str,
    unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    better: &'static str,
    moves: &'static str,
    on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";
const READ: &str = "serve_read";
const MIXED: &str = "serve_mixed";
const INGEST: &str = "ingest_reopen";
const ALL: &str = "all";

const LAYERS: &[Layer] = &[
    // Query path.
    layer(
        "net.overhead_p50_us",
        "us",
        LOWER,
        "query_p50_us, query_qps",
        READ,
    ),
    layer(
        "net.response_bytes_p50",
        "bytes",
        LOWER,
        "query_p50_us",
        READ,
    ),
    layer("net.rejected_busy", "count", LOWER, "failed_op_frac", READ),
    layer(
        "net.query_p99_us",
        "us",
        LOWER,
        "itself: a demoted end-to-end metric",
        READ,
    ),
    layer("service.query_p50_us", "us", LOWER, "query_p50_us", READ),
    layer(
        "plan.share.path_order",
        "ratio",
        LOWER,
        "query_p50_us",
        READ,
    ),
    layer(
        "plan.share.selective_first",
        "ratio",
        HIGHER,
        "query_p50_us",
        READ,
    ),
    layer(
        "plan.share.empty_edge",
        "ratio",
        HIGHER,
        "query_p50_us",
        READ,
    ),
    layer(
        "plan.share.composite",
        "ratio",
        HIGHER,
        "query_p50_us",
        READ,
    ),
    layer("plan.other_p50_us", "us", LOWER, "query_p50_us", READ),
    layer("exec.hop_wall_p50_us", "us", LOWER, "query_p50_us", READ),
    layer(
        "exec.rows_probed_per_matched",
        "ratio",
        LOWER,
        "query_p50_us",
        READ,
    ),
    layer(
        "exec.boxes_emitted_p50",
        "count",
        LOWER,
        "query_p50_us",
        READ,
    ),
    layer("exec.parallel_hop_share", "ratio", LOWER, "query_qps", READ),
    layer("index.probe_p50_ns", "ns", LOWER, "query_p50_us", READ),
    // Write path.
    layer(
        "service.ingest_rows_per_s",
        "rows/s",
        HIGHER,
        "itself: a demoted end-to-end metric",
        INGEST,
    ),
    layer(
        "persist.commit_p50_ms",
        "ms",
        LOWER,
        "itself: a demoted end-to-end metric",
        INGEST,
    ),
    layer(
        "persist.commit_p90_ms",
        "ms",
        LOWER,
        "itself: a demoted end-to-end metric",
        INGEST,
    ),
    layer(
        "service.ingest_batch_p50_ms",
        "ms",
        LOWER,
        "service.ingest_rows_per_s; net.query_p99_us on serve_mixed",
        INGEST,
    ),
    layer(
        "service.failed_commits",
        "count",
        LOWER,
        "failed_op_frac",
        INGEST,
    ),
    layer(
        "service.epochs_published",
        "count",
        LOWER,
        "failed_op_frac; net.query_p99_us on serve_mixed",
        INGEST,
    ),
    layer(
        "provrc.compress_ms_per_mrow",
        "ms/Mrow",
        LOWER,
        "service.ingest_rows_per_s",
        INGEST,
    ),
    layer(
        "provrc.rows_in_per_row_out",
        "ratio",
        HIGHER,
        "db_bytes_per_row",
        INGEST,
    ),
    layer(
        "format.serialize_mb_s",
        "MB/s",
        HIGHER,
        "persist.commit_p50_ms",
        INGEST,
    ),
    layer(
        "persist.bytes_written_per_commit",
        "bytes",
        LOWER,
        "persist.commit_p50_ms, db_bytes_per_row",
        INGEST,
    ),
    layer(
        "persist.files_written_per_commit",
        "count",
        LOWER,
        "persist.commit_p50_ms, db_bytes_per_row",
        INGEST,
    ),
    layer(
        "persist.files_reused_per_commit",
        "count",
        HIGHER,
        "persist.commit_p50_ms, db_bytes_per_row",
        INGEST,
    ),
    layer(
        "persist.commit_unattributed_ms",
        "ms",
        LOWER,
        "persist.commit_p50_ms, persist.commit_p90_ms",
        INGEST,
    ),
    // Open path.
    layer(
        "format.deserialize_mb_s",
        "MB/s",
        HIGHER,
        "open_first_answer_ms",
        INGEST,
    ),
    layer(
        "crc32.mb_s",
        "MB/s",
        HIGHER,
        "open_first_answer_ms, persist.commit_p50_ms",
        INGEST,
    ),
    layer(
        "wal.log_bytes_per_commit",
        "bytes",
        LOWER,
        "open_first_answer_ms, persist.commit_p50_ms",
        INGEST,
    ),
    layer(
        "wal.history_ms",
        "ms",
        LOWER,
        "open_first_answer_ms, persist.commit_p50_ms",
        INGEST,
    ),
    layer(
        "wal.replay_ms",
        "ms",
        LOWER,
        "open_first_answer_ms, persist.commit_p50_ms",
        INGEST,
    ),
    layer(
        "persist.open_ms",
        "ms",
        LOWER,
        "open_first_answer_ms",
        INGEST,
    ),
    layer(
        "persist.dir_files",
        "count",
        LOWER,
        "open_first_answer_ms, db_bytes_per_row",
        INGEST,
    ),
    layer(
        "index.build_ms_per_mrow",
        "ms/Mrow",
        LOWER,
        "open_first_answer_ms",
        INGEST,
    ),
    layer(
        "open.first_query_ms",
        "ms",
        LOWER,
        "open_first_answer_ms",
        INGEST,
    ),
    // The benchmark itself.
    layer("gen.lag_p99_ms", "ms", LOWER, "net.query_p99_us", MIXED),
    layer(
        "trace.overhead_frac",
        "ratio",
        LOWER,
        "every workload's primary metric",
        ALL,
    ),
    layer(
        "failed_op_frac",
        "ratio",
        LOWER,
        "every metric: a failed operation fails the run",
        ALL,
    ),
    // Attribution of the untraced end-to-end numbers to the traced layers.
    layer(
        "attrib.query_p50_us_untraced",
        "us",
        LOWER,
        "query_p50_us",
        READ,
    ),
    layer(
        "attrib.net_plus_service_p50_us",
        "us",
        LOWER,
        "query_p50_us",
        READ,
    ),
    layer(
        "attrib.unattributed_p50_us",
        "us",
        LOWER,
        "query_p50_us",
        READ,
    ),
    layer(
        "attrib.commit_p50_ms_untraced",
        "ms",
        LOWER,
        "persist.commit_p50_ms",
        INGEST,
    ),
    // Self time of each span (duration minus what its children cover).
    layer("self.net.roundtrip_us", "us", LOWER, "query_p50_us", READ),
    layer("self.service.query_us", "us", LOWER, "query_p50_us", READ),
    layer("self.exec.hop_us", "us", LOWER, "query_p50_us", READ),
    layer("self.index.probe_us", "us", LOWER, "query_p50_us", READ),
    layer(
        "self.writer.batch_ms",
        "ms",
        LOWER,
        "service.ingest_rows_per_s",
        INGEST,
    ),
    layer(
        "self.service.ingest_batch_ms",
        "ms",
        LOWER,
        "service.ingest_rows_per_s",
        INGEST,
    ),
    layer(
        "self.service.commit_ms",
        "ms",
        LOWER,
        "persist.commit_p50_ms",
        INGEST,
    ),
    layer(
        "self.open.open_ms",
        "ms",
        LOWER,
        "open_first_answer_ms",
        INGEST,
    ),
    layer(
        "self.open.first_query_ms",
        "ms",
        LOWER,
        "open_first_answer_ms",
        INGEST,
    ),
];

/// Span names whose p50 self time is reported, with the metric name and
/// the ns-to-unit divisor.
const SELF_TIMES: &[(&str, &str, f64)] = &[
    ("net.roundtrip", "self.net.roundtrip_us", 1e3),
    ("service.query", "self.service.query_us", 1e3),
    ("exec.hop", "self.exec.hop_us", 1e3),
    ("index.probe", "self.index.probe_us", 1e3),
    ("writer.batch", "self.writer.batch_ms", 1e6),
    ("service.ingest_batch", "self.service.ingest_batch_ms", 1e6),
    ("service.commit", "self.service.commit_ms", 1e6),
    ("open.open", "self.open.open_ms", 1e6),
    ("open.first_query", "self.open.first_query_ms", 1e6),
];

/// Spans written to the trace file (all of them feed the metrics).
const SPAN_FILE_CAP: usize = 200_000;

const USAGE: &str =
    "usage: perfbench --workload <serve_read|serve_mixed|ingest_reopen> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it
            .next()
            .ok_or_else(|| format!("{k} needs a value\n{USAGE}"))?;
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}\n{USAGE}"))?;
        opts.insert(key, v);
    }
    let get = |k: &str| {
        opts.get(k)
            .copied()
            .ok_or(format!("missing --{k}\n{USAGE}"))
    };
    let workload = get("workload")?.to_string();
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work: Path::new(env!("CARGO_MANIFEST_DIR")).join("work"),
    })
}

/// The commit the benchmark was built from, read from `.git` when the
/// checkout has one.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r))
                .or_else(|| {
                    read(git.join("packed-refs"))?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn trace_metrics(a: &Args, r: &mut Report) -> BTreeMap<&'static str, f64> {
    let by_name = trace::self_times_by_name(&r.spans);
    for &(span, metric, div) in SELF_TIMES {
        if let Some(v) = by_name.get(span) {
            r.layers.insert(metric, stats::median(v) / div);
        }
    }
    if let (Some(&net), Some(&svc), Some(&untraced)) = (
        r.layers.get("net.overhead_p50_us"),
        r.layers.get("service.query_p50_us"),
        r.layers.get("attrib.query_p50_us_untraced"),
    ) {
        r.layers.insert("attrib.net_plus_service_p50_us", net + svc);
        r.layers
            .insert("attrib.unattributed_p50_us", untraced - (net + svc));
    }
    r.layers.insert(
        "failed_op_frac",
        r.tally.failed as f64 / r.tally.attempted.max(1) as f64,
    );
    let out = a.work.join(format!("trace-{}.jsonl", a.workload));
    let kept = &r.spans[..r.spans.len().min(SPAN_FILE_CAP)];
    if let Err(e) = trace::write_jsonl(&out, kept) {
        eprintln!("warning: could not write {}: {e}", out.display());
    } else {
        println!(
            "spans: first {} of {} written to {}",
            kept.len(),
            r.spans.len(),
            out.display()
        );
    }
    LAYERS
        .iter()
        .map(|l| (l.name, r.layers.get(l.name).copied().unwrap_or(0.0)))
        .collect()
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.work) {
        eprintln!("create {}: {e}", a.work.display());
        std::process::exit(1);
    }
    let mut r = match workloads::run(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    r.e2e.insert("peak_rss_mb", workloads::peak_rss_mb());

    let (metrics, units): (BTreeMap<&str, f64>, BTreeMap<&str, &str>) = if a.trace {
        let m = trace_metrics(&a, &mut r);
        (m, LAYERS.iter().map(|l| (l.name, l.unit)).collect())
    } else {
        (
            END_TO_END
                .iter()
                .map(|&(n, _)| (n, r.e2e.get(n).copied().unwrap_or(0.0)))
                .collect(),
            END_TO_END.iter().copied().collect(),
        )
    };

    // Human-readable report.
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for (name, v) in &metrics {
        let n = r
            .samples
            .get(name)
            .map_or(String::new(), |n| format!("  n={n}"));
        let q = r
            .tails
            .get(name)
            .map_or(String::new(), |q| format!("  p{q}"));
        println!("  {name:<34} {v:>16.4} {}{n}{q}", units[name]);
    }
    for (name, v) in r.e2e.iter().filter(|(n, _)| !metrics.contains_key(*n)) {
        let n = r
            .samples
            .get(name)
            .map_or(String::new(), |n| format!("  n={n}"));
        let q = r
            .tails
            .get(name)
            .map_or(String::new(), |q| format!("  p{q}"));
        println!("  ({name:<32} {v:>16.4}{n}{q}: printed only, not a gated metric)");
    }
    if a.trace {
        for l in LAYERS {
            println!("  layer {:<34} moves {} on {}", l.name, l.moves, l.on);
        }
    }
    let failed_frac = r.tally.failed as f64 / r.tally.attempted.max(1) as f64;
    println!(
        "  failed_op_frac {failed_frac} ({} of {} operations; {} wrong answers or unclean verifies)",
        r.tally.failed, r.tally.attempted, r.tally.wrong
    );
    for note in &r.tally.notes {
        println!("  note: {note}");
    }

    // Run metadata.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut meta = format!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"git_rev\":{},\"profile\":\"{profile}\",\"failed_op_frac\":{},\"samples\":{{",
        json_str(&a.workload),
        a.seed,
        json_num(a.seconds),
        u8::from(a.trace),
        json_str(&git_rev()),
        json_num(failed_frac)
    );
    let list = |m: &BTreeMap<&str, String>| {
        m.iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",")
    };
    meta.push_str(&list(
        &r.samples.iter().map(|(k, v)| (*k, v.to_string())).collect(),
    ));
    meta.push_str("},\"tail_percentiles\":{");
    meta.push_str(&list(
        &r.tails.iter().map(|(k, v)| (*k, json_num(*v))).collect(),
    ));
    meta.push_str("}}}");
    println!("{meta}");

    let correct = r.tally.wrong == 0;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        r.tally.attempted.max(1),
        r.tally.failed
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(*v),
            json_str(units[name])
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !correct || r.tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names here and in BENCHMARK.json must agree.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |k: &str| {
                        let key = format!("\"{k}\": \"");
                        let rest = &entry[entry.find(&key).expect("field") + key.len()..];
                        rest[..rest.find('"').expect("field end")].to_string()
                    };
                    format!("{} {} {}", field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u)| {
                format!(
                    "{n} {u} {}",
                    if *n == "query_qps" || *n == "ingest_rows_per_s" {
                        HIGHER
                    } else {
                        LOWER
                    }
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> = LAYERS
            .iter()
            .map(|l| format!("{} {} {}", l.name, l.unit, l.better))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }
}
