//! Command line of the benchmark (see `README.md`).
//!
//! ```text
//! dampi-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! dampi-benchmark [--seed S] [--seconds N] [--quick] [--out FILE]     every workload, both ways
//! dampi-benchmark compare A.json B.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dampi_benchmark::report::{self, Results, RESULTS_SCHEMA};
use dampi_benchmark::run::{self, RunArgs, RunReport};
use dampi_benchmark::{spec, sys};

const USAGE: &str = "usage:
  dampi-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]
  dampi-benchmark [--seed S] [--seconds N] [--quick] [--out FILE]
  dampi-benchmark compare A.json B.json
workloads: matmul_cold adlb_det_jobs2 matmul_ack_warm fuzz_corpus parmetis_scale";

/// `--seconds` when the command line has none (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    run: RunArgs,
    all: bool,
    setup_only: Option<PathBuf>,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs {
            workload: String::new(),
            seed: 0,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        },
        all: true,
        setup_only: None,
        out: sys::out_dir().join("results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                cli.run.workload = value()?.clone();
                cli.all = false;
            }
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is not in (0, 3600]"));
                }
                cli.run.seconds = s;
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => cli.run.quick = true,
            "--setup-only" => cli.setup_only = Some(PathBuf::from(value()?)),
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !cli.all && !spec::WORKLOADS.iter().any(|(w, _)| *w == cli.run.workload) {
        return Err(format!("unknown workload `{}`", cli.run.workload));
    }
    Ok(cli)
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, text + "\n")
}

fn read_json<T: serde::Deserialize>(path: &Path) -> std::io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))
}

fn report_path(workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "e2e" };
    sys::out_dir().join(format!("{workload}.{kind}.json"))
}

/// One workload, one way: prints every metric, then the driver's line.
fn run_one(args: &RunArgs) -> std::io::Result<bool> {
    let report = run::run(args)?;
    write_json(&report_path(&args.workload, args.trace), &report)?;
    print!("{}", report::render_run(&report));
    println!("{}", report.contract_line());
    Ok(report.failed == 0)
}

/// Every workload in its own process, untraced then traced.
fn run_all(cli: &Cli) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut runs: Vec<RunReport> = Vec::new();
    let mut ok = true;
    for (workload, _) in spec::WORKLOADS {
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &cli.run.seed.to_string()])
                .args(["--seconds", &cli.run.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if cli.run.quick {
                cmd.arg("--quick");
            }
            ok &= cmd.status()?.success();
            runs.push(read_json(&report_path(workload, traced))?);
        }
    }
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    write_json(
        &cli.out,
        &Results {
            schema: RESULTS_SCHEMA,
            seed: cli.run.seed,
            seconds: cli.run.seconds,
            runs,
        },
    )?;
    println!(
        "== all workloads: attempted {attempted} failed {failed}; results in {}",
        cli.out.display()
    );
    Ok(ok && failed == 0)
}

fn compare(a: &str, b: &str) -> std::io::Result<bool> {
    let a: Results = read_json(Path::new(a))?;
    let b: Results = read_json(Path::new(b))?;
    let (table, any_worse) = report::compare(&a, &b);
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if let [cmd, a, b] = args.as_slice() {
        (cmd == "compare").then(|| compare(a, b))
    } else {
        None
    };
    let done = done.unwrap_or_else(|| {
        let cli = match parse(&args) {
            Ok(cli) => cli,
            Err(e) => return Err(std::io::Error::other(format!("{e}\n{USAGE}"))),
        };
        if let Some(dir) = &cli.setup_only {
            run::setup_only(&cli.run, dir).map(|()| true)
        } else if cli.all {
            run_all(&cli)
        } else {
            run_one(&cli.run)
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dampi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
