//! `mobieyes-benchmark`: the harness behind `benchmark/run.sh`.
//!
//! - `run` measures workloads and prints every metric as
//!   `workload metric value unit`; with `--result-line` the last line of
//!   standard output is the driver's JSON object.
//! - `episode` is one repetition in a process of its own (spawned by
//!   `run`, not meant to be typed).
//! - `compare A.json B.json` sets two `results.json` files side by side.
//! - `manifest` prints the root `BENCHMARK.json`.

mod compare;
mod episode;
mod hermetic;
mod jsonio;
mod metrics;
mod probes;
mod procfs;
mod runner;
mod stats;
mod tap;
mod workloads;

use jsonio::obj;
use mobieyes_telemetry::json::Value;
use runner::{RunPlan, TraceMode};
use std::io::Write;
use std::path::PathBuf;

const USAGE: &str = "\
usage:
  mobieyes-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke] --serve PATH --out DIR
      Without --trace: every requested workload, end-to-end and per-layer,
      written to DIR/results.json. With --trace: one kind of metric, and
      the last line of standard output is the driver's JSON result.
  mobieyes-benchmark compare A.json B.json
  mobieyes-benchmark manifest
";

/// `--flag value` pairs and bare `--switch`es, in order.
struct Args(Vec<String>);

impl Args {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("missing value for {flag}"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("unparseable value for {flag}: {v:?}")),
            None => Ok(None),
        }
    }

    fn required(&mut self, flag: &str) -> Result<String, String> {
        self.value(flag)?
            .ok_or_else(|| format!("{flag} is required"))
    }

    fn switch(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(stray) => Err(format!("unexpected argument {stray:?}\n\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn workload(name: &str) -> Result<&'static workloads::WorkloadSpec, String> {
    workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

fn cmd_run(mut args: Args) -> Result<bool, String> {
    let trace: Option<u8> = args.parsed("--trace")?;
    let plan = RunPlan {
        specs: match args.value("--workload")? {
            Some(name) => vec![workload(&name)?],
            None => workloads::WORKLOADS.iter().collect(),
        },
        seed: args.parsed("--seed")?.unwrap_or(7),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(metrics::RUN_SECONDS as f64),
        smoke: args.switch("--smoke"),
        trace: match trace {
            None => TraceMode::Both,
            Some(0) => TraceMode::Off,
            Some(1) => TraceMode::On,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        out_dir: PathBuf::from(args.required("--out")?),
        serve: PathBuf::from(args.required("--serve")?),
    };
    args.finish()?;
    if !(plan.seconds > 0.0 && plan.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be within (0, 60], got {}",
            plan.seconds
        ));
    }
    if trace.is_some() && plan.specs.len() != 1 {
        return Err("--trace needs --workload: the result line describes one workload".into());
    }
    let absolute =
        |p: &PathBuf| std::path::absolute(p).map_err(|e| format!("{}: {e}", p.display()));
    // Episodes change directory; everything they are handed is absolute.
    let plan = RunPlan {
        out_dir: absolute(&plan.out_dir)?,
        serve: absolute(&plan.serve)?,
        ..plan
    };
    std::fs::create_dir_all(&plan.out_dir).map_err(|e| format!("creating out dir: {e}"))?;

    let started = std::time::Instant::now();
    let results = runner::run(&plan)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let written = (|| -> std::io::Result<()> {
        for r in &results {
            r.print_table(&mut out)?;
        }
        if trace.is_none() {
            let doc = obj([
                ("provenance", runner::provenance(&plan)),
                ("wall_seconds", Value::Num(started.elapsed().as_secs_f64())),
                (
                    "workloads",
                    obj(results.iter().map(|r| (r.spec.name, r.to_json()))),
                ),
            ]);
            let path = plan.out_dir.join("results.json");
            std::fs::write(&path, doc.to_string_pretty() + "\n")?;
            writeln!(out, "wrote {}", path.display())?;
        }
        Ok(())
    })();
    written.map_err(|e| format!("writing results: {e}"))?;
    let all_correct = results.iter().all(|r| r.correct);
    if let Some(t) = trace {
        // Driver mode: the verdict travels in the line, not the exit code —
        // unless there is nothing to report at all.
        let line = results[0]
            .result_line(t == 1)
            .ok_or("every repetition failed; no metrics to report")?;
        writeln!(out, "{}", line.to_string_compact()).map_err(|e| e.to_string())?;
        return Ok(true);
    }
    Ok(all_correct)
}

fn cmd_episode(mut args: Args) -> Result<bool, String> {
    let trace_out = args.value("--trace-out")?.map(PathBuf::from);
    let episode = episode::EpisodeArgs {
        spec: workload(&args.required("--workload")?)?,
        seed: args.parsed("--seed")?.ok_or("--seed is required")?,
        ticks: args.parsed("--ticks")?.ok_or("--ticks is required")?,
        rep: args.required("--rep")?,
        twin: args.switch("--twin"),
        checkpoint_ticks: args
            .parsed("--checkpoint-ticks")?
            .ok_or("--checkpoint-ticks is required")?,
        scratch_base: PathBuf::from(args.required("--scratch")?),
        serve: PathBuf::from(args.required("--serve")?),
        report: PathBuf::from(args.required("--report")?),
        traced: trace_out.is_some(),
        trace_out,
    };
    args.finish()?;
    episode::run(&episode).map(|()| true)
}

fn main() {
    // Before anything reads a `MOBIEYES_*` knob and before any thread
    // exists (environment edits are not thread-safe).
    hermetic::scrub_environment();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => cmd_run(args),
        "episode" => cmd_episode(args),
        "compare" => compare::run(&args.0),
        "manifest" => {
            println!("{}", metrics::manifest().to_string_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("mobieyes-benchmark: {message}");
            std::process::exit(2);
        }
    }
}
