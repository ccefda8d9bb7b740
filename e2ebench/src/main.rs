//! Benchmark command:
//!
//! ```text
//! e2ebench --workload <k3-large-n|k30-cliff|k30-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload on the unmodified engine for at
//! least `--seconds` of timed passes and prints the end-to-end metrics.
//! With `--trace 1` it runs one untraced pass and one traced pass, checks
//! that both produce the same bytes, and prints the per-layer metrics. The
//! last line of standard output is the JSON result; the exit code is
//! nonzero when any output check failed. Scratch files go to
//! `.bench_work/` under the current directory, which also keeps each
//! invocation's result record and trace.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use circles_e2ebench::report::{self, Metric, Trace};
use circles_e2ebench::trace;
use circles_e2ebench::workloads::{Config, Outcome, Plain, Tracing, Workload};

const USAGE: &str =
    "usage: e2ebench --workload <k3-large-n|k30-cliff|k30-sweep> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes the scratch directory when dropped, however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_record(dir: &Path, name: &str, contents: &str) {
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), contents))
    {
        eprintln!("could not write {}: {e}", dir.join(name).display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work");
    let scratch = Scratch(work.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: cannot create {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    let w = args.workload;
    let name = w.name();
    let single = Config {
        seed: args.seed,
        seconds: 0.0,
        dir: scratch.0.clone(),
    };

    let (metrics, attempted, failures): (Vec<Metric>, u64, Vec<String>) = if !args.trace {
        let cfg = Config {
            seconds: args.seconds,
            ..single
        };
        let out = w.run::<Plain>(&cfg);
        let metrics = report::end_to_end(&out, report::peak_rss_mb());
        println!(
            "{name} seed={} set-ups={} pass seconds={:?} changes={:?} recoveries={}",
            args.seed,
            out.setup_s.len(),
            out.run_s,
            out.changes,
            out.recover_s.len(),
        );
        (metrics, out.attempted, out.failures)
    } else {
        let plain: Outcome = w.run::<Plain>(&single);
        let traced = w.run::<Tracing>(&single);
        let sections = trace::sections();
        let spans = trace::spans();
        let t = Trace {
            plain: &plain,
            traced: &traced,
            sections: &sections,
            spans: &spans,
        };
        let mut failures = plain.failures.clone();
        failures.extend(traced.failures.iter().cloned());
        let mut attempted = plain.attempted + traced.attempted;
        // Tracing neutrality: the traced pass reproduces the plain pass.
        attempted += 1;
        if plain.results != traced.results {
            failures.push(format!(
                "traced results differ from untraced: {:?} vs {:?}",
                traced.results, plain.results
            ));
        }
        // Self-time accounting: layers, engine and the cost of sampling
        // add up to the traced trials.
        attempted += 1;
        let (gap, tol) = (t.accounting_gap_s(), t.accounting_tolerance_s());
        if gap.abs() > tol {
            failures.push(format!(
                "per-layer self times miss the traced trials by {gap:.4} s (tolerance {tol:.4} s)"
            ));
        }
        let (inner, outer, untimed) = trace::clock_costs();
        print!(
            "{name} seed={} traced; clock costs {inner:.1} ns measured, {outer:.1} ns timed, {untimed:.1} ns untimed\n{}",
            args.seed,
            t.breakdown()
        );
        println!(
            "tracing overhead {:+.1} %; trials {:.4} s = layers and engine {:.4} s + sampling {:.4} s + gap {gap:+.4} s (tolerance {tol:.4} s)",
            100.0 * t.overhead_frac(),
            t.trial_s(),
            t.trial_s() - t.sampling_s() - gap,
            t.sampling_s(),
        );
        write_record(
            &work.join("traces"),
            &format!("{name}-seed{}.jsonl", args.seed),
            &report::spans_jsonl(&spans),
        );
        (t.per_layer(), attempted, failures)
    };

    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let failed = failures.len() as u64;
    for m in &metrics {
        println!(
            "{name} seed={} {} = {} {}",
            args.seed, m.name, m.value, m.unit
        );
    }
    println!(
        "{name} seed={} failed_frac = {} ({failed} of {attempted} checks failed)",
        args.seed,
        failed as f64 / attempted.max(1) as f64
    );
    let line = report::result_json(failed == 0, attempted.max(1), failed, &metrics);
    write_record(
        &work.join("results"),
        &format!(
            "{name}-seed{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        ),
        &format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"result\": {line}}}\n",
            args.seed
        ),
    );
    println!("{line}");
    drop(scratch);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
