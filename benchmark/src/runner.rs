//! A run: the repetitions of every requested workload (each a fresh
//! process, interleaved across workloads), the traced repetition, the
//! reference twins, and the merge of all of it into named metrics.

use crate::episode::{self, EpisodeReport};
use crate::hermetic::kill_process_group;
use crate::jsonio::{hex, num, obj};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, min_merge, percentile, spread_pct, tail_percentile};
use crate::workloads::{
    ticks_for, WorkloadSpec, CHECKPOINT_TICKS, ERROR_SAMPLE_EVERY, REPETITIONS, TWIN_TICKS,
};
use mobieyes_core::server::srv_keys;
use mobieyes_net::meter::keys as net_keys;
use mobieyes_telemetry::json::Value;
use std::collections::BTreeMap;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// End-to-end metrics only: `REPETITIONS` untraced repetitions.
    Off,
    /// Per-layer metrics: one untraced repetition fewer, plus the traced
    /// one (the same process count as `Off`).
    On,
    /// Both, as the full run prints them.
    Both,
}

pub struct RunPlan {
    pub specs: Vec<&'static WorkloadSpec>,
    pub seed: u64,
    pub seconds: f64,
    /// Ten ticks, one untraced repetition, every check.
    pub smoke: bool,
    pub trace: TraceMode,
    /// Where trace files and the scratch directory go.
    pub out_dir: PathBuf,
    pub serve: PathBuf,
}

impl RunPlan {
    fn untraced_reps(&self) -> usize {
        match (self.smoke, self.trace) {
            (true, _) => 1,
            (false, TraceMode::On) => REPETITIONS - 1,
            (false, _) => REPETITIONS,
        }
    }

    fn ticks(&self, spec: &WorkloadSpec) -> usize {
        if self.smoke {
            TWIN_TICKS
        } else {
            ticks_for(spec, self.seconds)
        }
    }

    fn checkpoint_ticks(&self) -> usize {
        // A smoke run is too short for the regular cadence to fire.
        if self.smoke {
            5
        } else {
            CHECKPOINT_TICKS
        }
    }
}

/// Everything measured about one workload in one run.
pub struct WorkloadResult {
    pub spec: &'static WorkloadSpec,
    pub ticks: usize,
    pub repetitions: usize,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Why `correct` is false or `failed` is not 0, one line each.
    pub problems: Vec<String>,
    pub final_digest: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Empty unless the run traced.
    pub per_layer: BTreeMap<&'static str, f64>,
}

/// What an episode process is run for.
#[derive(Clone, Copy)]
enum Role {
    /// The `n`th untraced, timed repetition.
    Timed(usize),
    Traced,
    Twin,
}

enum Outcome {
    Done(Box<EpisodeReport>),
    Crashed(String),
}

struct Spawner<'a> {
    plan: &'a RunPlan,
    exe: PathBuf,
    scratch: PathBuf,
    deadline: Instant,
}

impl Spawner<'_> {
    /// Runs one episode in a fresh process (its own process group, so a
    /// hung one can be killed together with its partition children).
    fn episode(&self, spec: &WorkloadSpec, role: Role) -> Outcome {
        let rep = match role {
            Role::Timed(n) => n.to_string(),
            Role::Traced => "traced".to_string(),
            Role::Twin => "twin".to_string(),
        };
        let report = self
            .scratch
            .join(format!("report-{}-{rep}.json", spec.name));
        let mut cmd = Command::new(&self.exe);
        cmd.arg("episode")
            .args(["--workload", spec.name])
            .args(["--seed", &self.plan.seed.to_string()])
            .args(["--ticks", &self.plan.ticks(spec).to_string()])
            .args(["--rep", &rep])
            .args([
                "--checkpoint-ticks",
                &self.plan.checkpoint_ticks().to_string(),
            ])
            .arg("--scratch")
            .arg(&self.scratch)
            .arg("--serve")
            .arg(&self.plan.serve)
            .arg("--report")
            .arg(&report);
        match role {
            Role::Timed(_) => {}
            Role::Traced => {
                cmd.arg("--trace-out")
                    .arg(self.plan.out_dir.join(format!("trace-{}.json", spec.name)));
            }
            Role::Twin => {
                cmd.arg("--twin");
            }
        }
        let mut child = match cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .process_group(0)
            .spawn()
        {
            Ok(child) => child,
            Err(e) => return Outcome::Crashed(format!("spawning episode: {e}")),
        };
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < self.deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => break Err("ran past the run's deadline".to_string()),
                Err(e) => break Err(format!("waiting for episode: {e}")),
            }
        };
        match status {
            Ok(status) if status.success() => match episode::read_report(&report) {
                Ok(r) => Outcome::Done(Box::new(r)),
                Err(e) => Outcome::Crashed(format!("unreadable episode report: {e}")),
            },
            other => {
                // Whatever is left of the episode and its partitions.
                kill_process_group(child.id());
                let _ = child.wait();
                Outcome::Crashed(match other {
                    Ok(status) => format!("episode exited with {status}"),
                    Err(why) => why,
                })
            }
        }
    }
}

/// Removes the run's scratch directory on every exit path.
struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent, unless another run is still using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn run(plan: &RunPlan) -> Result<Vec<WorkloadResult>, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let exe = std::env::current_exe().map_err(|e| io("locating the harness binary", e))?;
    let scratch = plan
        .out_dir
        .join("tmp")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| io("creating scratch directory", e))?;
    let _guard = ScratchGuard(scratch.clone());
    let spawner = Spawner {
        plan,
        exe,
        scratch,
        // The driver allows a run 180 s; leave room to report.
        deadline: Instant::now()
            + Duration::from_secs(if plan.specs.len() > 1 { 900 } else { 165 }),
    };

    let reps = plan.untraced_reps();
    let mut untraced: Vec<Vec<Outcome>> = plan.specs.iter().map(|_| Vec::new()).collect();
    // Repetition-major order: slow drift of the host lands on every
    // workload alike instead of on whichever ran last.
    for rep in 0..reps {
        for (w, spec) in plan.specs.iter().enumerate() {
            untraced[w].push(spawner.episode(spec, Role::Timed(rep)));
        }
    }
    let mut results = Vec::new();
    for (spec, outcomes) in plan.specs.iter().zip(untraced) {
        let traced = (plan.trace != TraceMode::Off).then(|| spawner.episode(spec, Role::Traced));
        let twin_started = Instant::now();
        let twin = spawner.episode(spec, Role::Twin);
        let twin_s = twin_started.elapsed().as_secs_f64();
        results.push(merge(plan, spec, outcomes, traced, twin, twin_s));
    }
    Ok(results)
}

/// Checks the repetitions against the twin, the truth and each other,
/// and folds them into the workload's metrics.
fn merge(
    plan: &RunPlan,
    spec: &'static WorkloadSpec,
    untraced: Vec<Outcome>,
    traced: Option<Outcome>,
    twin: Outcome,
    twin_s: f64,
) -> WorkloadResult {
    let ticks = plan.ticks(spec);
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    let twin_digests = match twin {
        Outcome::Done(r) => Some(r.digests),
        Outcome::Crashed(why) => {
            problems.push(format!("reference twin: {why}"));
            None
        }
    };

    // Per-episode checks; a crashed episode fails every one of its ticks.
    let mut check = |label: &str, outcome: Outcome| -> Option<EpisodeReport> {
        attempted += ticks as u64;
        let report = match outcome {
            Outcome::Done(r) => *r,
            Outcome::Crashed(why) => {
                failed += ticks as u64;
                problems.push(format!("repetition {label}: {why}"));
                return None;
            }
        };
        if report.lost_partition {
            failed += ticks as u64;
            problems.push(format!("repetition {label}: lost a partition process"));
            return None;
        }
        if report.probe_mismatch {
            problems.push(format!(
                "repetition {label}: a probe disagreed with its oracle"
            ));
        }
        if let Some(twin) = &twin_digests {
            let wrong = report
                .digests
                .iter()
                .zip(twin)
                .filter(|(a, b)| a != b)
                .count()
                + report.digests.len().abs_diff(twin.len());
            if wrong > 0 {
                failed += wrong as u64;
                problems.push(format!(
                    "repetition {label}: {wrong} of the first {TWIN_TICKS} ticks differ from the reference twin"
                ));
            }
        }
        let off = report
            .error_samples
            .iter()
            // A NaN sample is over the limit too.
            .filter(|&&e| e.is_nan() || e > spec.max_result_error)
            .count();
        if off > 0 {
            failed += off as u64;
            problems.push(format!(
                "repetition {label}: {off} result-error samples above {}",
                spec.max_result_error
            ));
        }
        Some(report)
    };
    let good: Vec<EpisodeReport> = untraced
        .into_iter()
        .enumerate()
        .filter_map(|(i, o)| check(&i.to_string(), o))
        .collect();
    let traced: Option<EpisodeReport> = traced.and_then(|o| check("traced", o));

    // Repetitions replay the same inputs: final digest, every counter and
    // the journal's growth must agree exactly.
    let reference = good.first().or(traced.as_ref());
    let mut disagreeing = 0u64;
    if let Some(first) = reference {
        for (label, r) in good
            .iter()
            .enumerate()
            .map(|(i, r)| (i.to_string(), r))
            .chain(traced.iter().map(|r| ("traced".to_string(), r)))
        {
            let same = r.final_digest == first.final_digest
                && r.counters == first.counters
                && r.disk_bytes == first.disk_bytes
                && r.error_samples == first.error_samples;
            if !same {
                disagreeing += ticks as u64;
                let counter = r
                    .counters
                    .iter()
                    .find(|(k, v)| first.counters.get(*k) != Some(v))
                    .map_or("-", |(k, _)| k.as_str());
                problems.push(format!(
                    "repetition {label}: exact outputs differ from repetition 0 (first differing counter: {counter})"
                ));
            }
        }
    }
    failed = (failed + disagreeing).min(attempted);
    let correct = failed == 0 && problems.is_empty() && twin_digests.is_some() && !good.is_empty();

    let mut end_to_end = BTreeMap::new();
    let mut per_layer = BTreeMap::new();
    if let Some(first) = good.first() {
        let grown = |key: &str| first.counters.get(key).copied().unwrap_or(0.0);
        let object_ticks = (spec.objects * ticks) as f64;
        let merged = min_merge(&good.iter().map(|r| r.tick_ms.clone()).collect::<Vec<_>>());
        let tail = tail_percentile(merged.len(), 90);
        let over =
            |f: &dyn Fn(&EpisodeReport) -> f64| median(&good.iter().map(f).collect::<Vec<_>>());
        let cpu =
            |r: &EpisodeReport| r.cpu_ms_coordinator + r.cpu_ms_partitions.iter().sum::<f64>();
        let wireless = grown(net_keys::UPLINK_BYTES)
            + grown(net_keys::UNICAST_BYTES)
            + grown(net_keys::BROADCAST_BYTES);
        end_to_end.insert("setup_s", over(&|r| r.setup_s));
        end_to_end.insert("tick_ms_p50", percentile(&merged, 50));
        end_to_end.insert("tick_ms_p90", percentile(&merged, tail));
        end_to_end.insert(
            "uplinks_per_s",
            grown(srv_keys::UPLINKS) / (merged.iter().sum::<f64>() / 1e3),
        );
        // Like tick times, CPU time only ever reads high on a disturbed
        // host (cache and memory contention), so the floor is the estimate.
        let cpu_floor = good.iter().map(cpu).fold(f64::MAX, f64::min);
        end_to_end.insert("cpu_ms_per_tick", cpu_floor / ticks as f64);
        end_to_end.insert(
            "peak_rss_mb",
            over(&|r| r.peak_rss_mb_coordinator + r.peak_rss_mb_partitions),
        );
        end_to_end.insert("wireless_bytes_per_object_tick", wireless / object_ticks);
        end_to_end.insert(
            "uplink_msgs_per_object_tick",
            grown(net_keys::UPLINK_MSGS) / object_ticks,
        );

        if let Some(traced) = &traced {
            for def in &PER_LAYER {
                if let Some(&v) = traced.layers.get(def.name) {
                    per_layer.insert(def.name, v);
                }
            }
            let totals: Vec<f64> = good.iter().map(|r| r.tick_ms.iter().sum()).collect();
            let untraced_p50 = over(&|r| median(&r.tick_ms));
            let traced_p50 = median(&traced.tick_ms);
            let errors = &first.error_samples;
            // Process-level readings come from the untraced repetitions:
            // in the traced one the tap threads run inside the
            // coordinator process and would be counted as its work.
            let wall = |r: &EpisodeReport| r.tick_ms.iter().sum::<f64>();
            let parts = |r: &EpisodeReport| r.cpu_ms_partitions.iter().sum::<f64>();
            let skew = |r: &EpisodeReport| {
                let max = r.cpu_ms_partitions.iter().copied().fold(0.0, f64::max);
                if parts(r) > 0.0 {
                    max * r.cpu_ms_partitions.len() as f64 / parts(r)
                } else {
                    0.0
                }
            };
            let n = ticks as f64;
            per_layer.insert(
                "cluster.coordinator.cpu_ms_per_tick",
                over(&|r| r.cpu_ms_coordinator / n),
            );
            per_layer.insert(
                "cluster.coordinator.blocked_ms_per_tick",
                over(&|r| (wall(r) - r.cpu_ms_coordinator).max(0.0) / n),
            );
            per_layer.insert("cluster.partition.cpu_ms_per_tick", over(&|r| parts(r) / n));
            per_layer.insert("cluster.partition.cpu_skew", over(&skew));
            per_layer.insert(
                "net.socket.ctx_switches_per_tick",
                over(&|r| r.ctx_switches / n),
            );
            per_layer.insert(
                "store.file_syscalls_per_tick",
                over(&|r| r.file_syscalls / n),
            );
            per_layer.insert(
                "proc.peak_rss_mb.coordinator",
                over(&|r| r.peak_rss_mb_coordinator),
            );
            per_layer.insert(
                "proc.peak_rss_mb.partitions",
                over(&|r| r.peak_rss_mb_partitions),
            );
            per_layer.insert("harness.verify_s", first.verify_s + twin_s);
            per_layer.insert("harness.rep_spread_pct", spread_pct(&totals));
            per_layer.insert("harness.tick_samples", merged.len() as f64);
            per_layer.insert("harness.tail_percentile", tail as f64);
            per_layer.insert("harness.repetitions", good.len() as f64);
            per_layer.insert("trace.tick_ms_p50", traced_p50);
            per_layer.insert(
                "trace.overhead_pct",
                (traced_p50 / untraced_p50 - 1.0) * 100.0,
            );
            per_layer.insert(
                "result_error_mean",
                errors.iter().sum::<f64>() / errors.len().max(1) as f64,
            );
            per_layer.insert("disk_bytes_per_tick", first.disk_bytes / ticks as f64);
            per_layer.insert("failed_tick_share", failed as f64 / attempted.max(1) as f64);
        }
    }

    WorkloadResult {
        spec,
        ticks,
        repetitions: good.len(),
        attempted: attempted.max(1),
        failed,
        correct,
        problems,
        final_digest: reference.map_or(0, |r| r.final_digest),
        end_to_end,
        per_layer,
    }
}

impl WorkloadResult {
    fn metric_map(defs: &[metrics::MetricDef], values: &BTreeMap<&'static str, f64>) -> Value {
        obj(defs.iter().filter_map(|d| {
            let v = values.get(d.name)?;
            Some((
                d.name,
                obj([("value", num(*v)), ("unit", Value::str(d.unit))]),
            ))
        }))
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and the
    /// metrics of the requested kind. `None` when a metric of that kind
    /// could not be measured (every repetition crashed).
    pub fn result_line(&self, traced: bool) -> Option<Value> {
        let (defs, values): (&[metrics::MetricDef], _) = if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        if defs.iter().any(|d| !values.contains_key(d.name)) {
            return None;
        }
        Some(obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Self::metric_map(defs, values)),
        ]))
    }

    /// The workload's entry in `results.json`.
    pub fn to_json(&self) -> Value {
        obj([
            ("ticks", num(self.ticks as f64)),
            ("repetitions", num(self.repetitions as f64)),
            ("error_sample_every", num(ERROR_SAMPLE_EVERY as f64)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("correct", Value::Bool(self.correct)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(Value::str).collect()),
            ),
            ("final_digest", hex(self.final_digest)),
            (
                "end_to_end",
                Self::metric_map(&END_TO_END, &self.end_to_end),
            ),
            ("per_layer", Self::metric_map(&PER_LAYER, &self.per_layer)),
        ])
    }

    /// `workload metric value unit` lines for every metric measured.
    pub fn print_table(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (defs, values) in [
            (&END_TO_END[..], &self.end_to_end),
            (&PER_LAYER[..], &self.per_layer),
        ] {
            for d in defs {
                if let Some(v) = values.get(d.name) {
                    writeln!(out, "{} {} {} {}", self.spec.name, d.name, v, d.unit)?;
                }
            }
        }
        for p in &self.problems {
            writeln!(out, "{} PROBLEM {p}", self.spec.name)?;
        }
        Ok(())
    }
}

/// Host and build facts recorded beside the numbers.
pub fn provenance(plan: &RunPlan) -> Value {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    obj([
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Value::str(cpu_model)),
        (
            "kernel",
            Value::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("rustc", Value::str(command("rustc", &["-V"]))),
        (
            "git_commit",
            Value::str(command("git", &["rev-parse", "HEAD"])),
        ),
        (
            "scratch_filesystem",
            Value::str(filesystem_of(&plan.out_dir, &read("/proc/self/mountinfo"))),
        ),
        ("seed", num(plan.seed as f64)),
        ("seconds", num(plan.seconds)),
        ("repetitions", num(plan.untraced_reps() as f64)),
        ("smoke", Value::Bool(plan.smoke)),
    ])
}

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
fn filesystem_of(path: &Path, mountinfo: &str) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mountinfo
        .lines()
        .filter_map(|line| {
            // `id parent maj:min root mountpoint opts... - fstype source superopts`
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, fs)| fs.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    fn plan() -> RunPlan {
        RunPlan {
            specs: vec![find("mono_quiet").unwrap()],
            seed: 7,
            seconds: 1.5,
            smoke: false,
            trace: TraceMode::Off,
            out_dir: PathBuf::from("out"),
            serve: PathBuf::from("serve"),
        }
    }

    fn rep(tick_ms: Vec<f64>, digests: Vec<u64>) -> EpisodeReport {
        EpisodeReport {
            setup_s: 0.5,
            tick_ms,
            digests,
            final_digest: 42,
            counters: [
                (srv_keys::UPLINKS.to_string(), 500.0),
                (net_keys::UPLINK_MSGS.to_string(), 1000.0),
                (net_keys::UPLINK_BYTES.to_string(), 40_000.0),
            ]
            .into(),
            error_samples: vec![0.0],
            cpu_ms_coordinator: 100.0,
            peak_rss_mb_coordinator: 64.0,
            ..EpisodeReport::default()
        }
    }

    fn done(r: EpisodeReport) -> Outcome {
        Outcome::Done(Box::new(r))
    }

    #[test]
    fn clean_repetitions_merge_into_every_end_to_end_metric() {
        let plan = plan();
        let spec = plan.specs[0];
        let digests: Vec<u64> = (0..10).collect();
        let a = rep(vec![10.0; 10], digests.clone());
        let mut b = rep(vec![12.0; 10], digests.clone());
        b.tick_ms[3] = 8.0;
        let twin = rep(vec![1.0; 10], digests);
        let r = merge(&plan, spec, vec![done(a), done(b)], None, done(twin), 0.1);
        assert!(r.correct, "{:?}", r.problems);
        assert_eq!((r.attempted, r.failed), (20, 0));
        assert_eq!(r.end_to_end["tick_ms_p50"], 10.0);
        // Per-tick floor: nine ticks of 10 ms and one of 8 ms.
        assert!((r.end_to_end["uplinks_per_s"] - 500.0 / 0.098).abs() < 1e-9);
        let line = r.result_line(false).unwrap();
        assert_eq!(
            line.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        assert!(r.result_line(true).is_none(), "nothing was traced");
    }

    #[test]
    fn failures_are_counted_per_tick() {
        let plan = plan();
        let spec = plan.specs[0];
        let digests: Vec<u64> = (0..10).collect();
        let mut wrong = digests.clone();
        wrong[2] = 99;
        wrong[7] = 99;
        let mut off = rep(vec![10.0; 10], wrong);
        off.error_samples = vec![0.5];
        let crashed = Outcome::Crashed("episode exited with signal 9".into());
        let twin = rep(vec![1.0; 10], digests.clone());
        let r = merge(
            &plan,
            spec,
            vec![done(rep(vec![10.0; 10], digests)), done(off), crashed],
            None,
            done(twin),
            0.1,
        );
        assert!(!r.correct);
        assert_eq!(r.attempted, 30);
        // Two twin mismatches, one bad error sample, ten ticks of the
        // repetition whose exact outputs differ, ten of the crashed one.
        assert_eq!(r.failed, 2 + 1 + 10 + 10);
        assert_eq!(r.repetitions, 2);
    }

    #[test]
    fn a_missing_twin_is_never_correct() {
        let plan = plan();
        let spec = plan.specs[0];
        let a = rep(vec![10.0; 10], (0..10).collect());
        let r = merge(
            &plan,
            spec,
            vec![done(a)],
            None,
            Outcome::Crashed("x".into()),
            0.0,
        );
        assert!(!r.correct);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn mountinfo_longest_prefix_wins() {
        let info = "22 1 8:1 / / rw - ext4 /dev/sda1 rw\n\
                    30 22 0:25 / /tmp rw,nosuid - tmpfs tmpfs rw\n\
                    31 22 0:26 / /tmpfoo rw - xfs /dev/sdb rw\n";
        assert_eq!(filesystem_of(Path::new("/tmp"), info), "tmpfs");
        assert_eq!(filesystem_of(Path::new("/usr"), info), "ext4");
        assert_eq!(filesystem_of(Path::new("/tmp"), ""), "unknown");
    }
}
