//! `phj-benchmark`: the committed, re-runnable benchmark of the phj
//! workspace. See README.md beside this package for what each workload
//! and metric means; `run.sh` builds and invokes this binary.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one contract run
//! run.sh [--seed N] [--workload W] [--out FILE]           every workload, untraced then traced
//! run.sh --compare A.json B.json                          check two suite results against the bounds
//! run.sh --spec                                           print BENCHMARK.json
//! ```

mod compare;
mod disk_join;
mod harness;
mod mem_join;
mod served;
mod sim;
mod spec;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use phj_obs::Json;

use harness::{Outcome, RunArgs};

/// Flags that take a value, in the order `run.sh` documents them.
const VALUE_FLAGS: [&str; 6] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--out",
    "--out-dir",
];

struct Cli {
    values: Vec<(String, String)>,
    compare: Option<(String, String)>,
    spec: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        values: Vec::new(),
        compare: None,
        spec: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--spec" => cli.spec = true,
            "--compare" => cli.compare = Some((value("two files")?, value("two files")?)),
            f if VALUE_FLAGS.contains(&f) => cli.values.push((f.to_string(), value("a value")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

impl Cli {
    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("bad value `{v}` for {flag}"))
            })
            .transpose()
    }
}

/// Dispatch one workload by its committed name.
fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "mem_join_large" => mem_join::run(mem_join::Kind::Large, args),
        "mem_join_par" => mem_join::run(mem_join::Kind::Par, args),
        "mem_join_cached" => mem_join::run(mem_join::Kind::Cached, args),
        "disk_join_tight" => disk_join::run(disk_join::Kind::Tight, args),
        "disk_join_roomy" => disk_join::run(disk_join::Kind::Roomy, args),
        "served_mix" => served::run(args),
        "sim_figures" => sim::run(args),
        _ => return None,
    })
}

/// One contract run: print every metric by name with its unit, then
/// the result object as the last line of standard output.
fn single_run(args: &RunArgs) -> Result<bool, String> {
    let workload = args.workload.as_str();
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let out = run_workload(workload, args).ok_or(format!("unknown workload `{workload}`"))?;
    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str, detail: &str| {
        println!("{name} = {value} {unit}  {detail}");
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::F64(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    };
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("{note}");
    }
    if args.trace {
        for m in spec::per_layer() {
            push(&m.name, out.layers.get(&m.name), m.unit, "");
        }
    } else {
        let units = |n: &str| {
            spec::END_TO_END
                .iter()
                .find(|m| m.name == n)
                .map_or("", |m| m.unit)
        };
        for (name, value, detail) in out.end_to_end() {
            push(name, value, units(name), &detail);
        }
    }
    let correct = out.failed == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(out.attempted.max(1))),
        ("failed", Json::U64(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    if cli.spec {
        print!("{}", spec::render_benchmark_json());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return compare::run(a, b);
    }
    let out_dir = PathBuf::from(cli.get("--out-dir").unwrap_or("benchmark/out"));
    let seed = cli.parsed::<u64>("--seed")?.unwrap_or(1);
    let contract_run = cli.get("--trace").is_some() || cli.get("--seconds").is_some();
    if !contract_run {
        return suite::run(cli.get("--workload"), seed, cli.get("--out"), &out_dir);
    }
    let workload = cli
        .get("--workload")
        .ok_or("--workload is required with --seconds/--trace")?;
    let seconds = cli
        .parsed::<f64>("--seconds")?
        .unwrap_or(spec::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside 0..=60"));
    }
    let trace = match cli.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    single_run(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("phj-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
