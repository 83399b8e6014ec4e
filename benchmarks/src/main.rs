//! The repo's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! acme-benchmarks --workload W --seed N --seconds S --trace 0|1   one run
//! acme-benchmarks [--seed N] [--seconds S] [--repeat R] [--out F] every workload, untraced then traced
//! acme-benchmarks compare A.json B.json                           judge B against A
//! acme-benchmarks manifest                                        print BENCHMARK.json
//! acme-benchmarks describe                                        print README.md's metric tables
//! ```

mod compare;
mod env;
mod json;
mod load;
mod probes;
#[cfg(test)]
mod rand_shim;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use report::Report;
use workloads::Ctx;

/// Scratch and trace files go here; `.gitignore` names it.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        out: out_dir().join("results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                parsed.repeat = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("a count of at least 1"))?;
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// One workload in this process. The last line printed is the result.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = spec::workload(name) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; one of {known:?}");
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        workload: workload.name,
        seed: args.seed,
        seconds: args.seconds,
        rec: trace::Recorder::new(args.trace),
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&ctx.out_dir).expect("create the output directory");
    let mut report = Report::default();
    let threads = workloads::run(&ctx, &mut report);
    report.set("peak_rss_mb", env::peak_rss_mb());

    if args.trace {
        let spans = ctx.rec.spans();
        let path = ctx.out_dir.join(format!("trace-{}.json", workload.name));
        std::fs::write(
            &path,
            trace::to_json(workload.name, args.seed, &spans).pretty(),
        )
        .expect("write the trace file");
        println!(
            "# self time by span ({} spans, {})",
            spans.len(),
            path.display()
        );
        for (name, secs) in trace::self_seconds_by_name(&spans) {
            println!("#   {name:<40} {secs:>12.6} s");
        }
    }
    println!(
        "# {} seed {} trace {}",
        workload.name, args.seed, args.trace as u8
    );
    println!(
        "# env {}",
        env::stamp(args.seed, threads.pool, threads.kernel).compact()
    );
    report.print();
    println!("{}", report.result(args.trace).compact());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a process of its own, untraced then traced,
/// `repeat` times with seeds `seed, seed + 1, ...`. Writes the result set,
/// each run with its environment stamp, to `args.out`.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut runs = Vec::new();
    let mut all_correct = true;
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        for workload in spec::WORKLOADS {
            for traced in [false, true] {
                eprintln!("== {} seed {seed} trace {}", workload.name, traced as u8);
                let out = Command::new(&exe)
                    .args(["--workload", workload.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .expect("start a workload process");
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
                let Some(Json::Obj(mut fields)) = result else {
                    eprintln!("{} printed no result (exit {})", workload.name, out.status);
                    return ExitCode::FAILURE;
                };
                all_correct &= out.status.success();
                let env = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("# env "))
                    .and_then(|l| Json::parse(l).ok())
                    .unwrap_or(Json::Null);
                let mut run = vec![
                    ("workload".to_string(), Json::str(workload.name)),
                    ("seed".to_string(), Json::Num(seed as f64)),
                    ("trace".to_string(), Json::Bool(traced)),
                    ("env".to_string(), env),
                ];
                run.append(&mut fields);
                runs.push(Json::Obj(run));
            }
        }
    }
    let results = Json::obj([
        ("claim", Json::Null),
        ("run_seconds", Json::Num(args.seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create the results directory");
    }
    std::fs::write(&args.out, results.pretty()).expect("write the results file");
    eprintln!("wrote {}", args.out.display());
    compare::summarize(&results);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            ExitCode::SUCCESS
        }
        Some("describe") => {
            print!("{}", spec::describe());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                eprintln!("usage: compare <parent.json> <change.json>");
                return ExitCode::from(2);
            };
            match (read_results(a), read_results(b)) {
                (Ok(a), Ok(b)) if compare::compare(&a, &b) => ExitCode::SUCCESS,
                (Ok(_), Ok(_)) => ExitCode::FAILURE,
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => match parse_args(&args) {
            Ok(parsed) => match parsed.workload.clone() {
                Some(name) => run_one(&name, &parsed),
                None => run_all(&parsed),
            },
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
    }
}
