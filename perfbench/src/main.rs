//! `perfbench` — the repository benchmark.
//!
//! Four workloads drive the `iotmap` facade (`Pipeline`, `PreparedWorld`,
//! `RunArtifacts`) in a closed loop with one caller:
//!
//! | workload | threads | set-up | op |
//! |---|---|---|---|
//! | `study` | 2 | config + pattern registry | `Pipeline::run` → both traffic passes → §5 figures |
//! | `reexecute` | 2 | `Pipeline::prepare` | `PreparedWorld::execute` |
//! | `day-roll` | 1 | `prepare` + `rolled` bootstrap | `next_delta` + `advance`, one day |
//! | `warm-study` | 1 | cold `Pipeline::run` writing a cache | warm cached `Pipeline::run` |
//!
//! With `--trace 0` a run reports the end-to-end metrics, untraced; with
//! `--trace 1` it runs the traced layer sweep of [`trace`] instead. The
//! last line of standard output is one JSON object; the lines before it
//! are a human-readable summary. See `README.md` for usage.

mod calib;
mod cpus;
mod oracle;
mod trace;
mod workloads;

use iotmap::nettypes::Error;
use iotmap::world::WorldConfig;
use std::process::ExitCode;
use std::time::Instant;

/// The seed whose digests are pinned in `pinned.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// World size: `paper` is the benchmark proper, `small` the smoke size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    Paper,
    Small,
}

impl Preset {
    fn parse(s: &str) -> Option<Preset> {
        match s {
            "paper" => Some(Preset::Paper),
            "small" => Some(Preset::Small),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Preset::Paper => "paper",
            Preset::Small => "small",
        }
    }

    pub fn config(self, seed: u64) -> WorldConfig {
        match self {
            Preset::Paper => WorldConfig::paper(seed),
            Preset::Small => WorldConfig::small(seed),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Study,
    Reexecute,
    DayRoll,
    WarmStudy,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Study,
        Workload::Reexecute,
        Workload::DayRoll,
        Workload::WarmStudy,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Reexecute => "reexecute",
            Workload::DayRoll => "day-roll",
            Workload::WarmStudy => "warm-study",
        }
    }

    /// The workload's own name for its op time in the summary; the JSON
    /// line reports it as `op_s` on every workload.
    fn op_metric(self) -> &'static str {
        match self {
            Workload::Study => "study_s",
            Workload::Reexecute => "execute_s",
            Workload::DayRoll => "day_roll_s",
            Workload::WarmStudy => "warm_run_s",
        }
    }

    pub fn threads(self) -> usize {
        match self {
            Workload::Study | Workload::Reexecute => 2,
            Workload::DayRoll | Workload::WarmStudy => 1,
        }
    }

    /// Set-ups in a run without `--ops`. Each is followed by an equal
    /// share of the run's ops (a cycle of days for `day-roll`), so
    /// set-ups sample the whole run.
    fn setups(self) -> usize {
        match self {
            Workload::Study | Workload::DayRoll | Workload::WarmStudy => 4,
            Workload::Reexecute => 6,
        }
    }
}

/// How much a run measures: a number of set-ups, each followed by a
/// phase of ops.
pub struct Budget {
    /// Wall-clock seconds of ops (`--seconds`), shared evenly by the
    /// phases.
    pub seconds: f64,
    /// `--ops N`: one set-up followed by exactly N ops, instead of
    /// `seconds`.
    pub ops: Option<usize>,
}

impl Budget {
    /// Set-ups in a run of `workload`: one with `--ops`, else the
    /// workload's own count.
    pub fn setups(&self, workload: Workload) -> usize {
        match self.ops {
            Some(_) => 1,
            None => workload.setups(),
        }
    }

    /// Whether another op follows `done` ops of a phase that began at
    /// `started`, in a run of `setups` phases. Without `--ops`, a phase
    /// makes at least one op and then runs until its share of `seconds`
    /// is spent.
    pub fn more(&self, done: usize, started: Instant, setups: usize) -> bool {
        match self.ops {
            Some(n) => done < n,
            None => done == 0 || started.elapsed().as_secs_f64() < self.seconds / setups as f64,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub preset: Preset,
    pub budget: Budget,
}

const USAGE: &str = "usage: perfbench --workload study|reexecute|day-roll|warm-study \
[--seed N] [--seconds S] [--trace 0|1] [--preset paper|small] [--ops N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut preset = Preset::Paper;
    let mut ops = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--preset" => preset = Preset::parse(value).ok_or_else(bad)?,
            "--ops" => ops = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        trace,
        preset,
        budget: Budget { seconds, ops },
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The median of `xs` (which must not be empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time one call, in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The final result line.
fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), Error> {
    // The facade reads these from the environment; the benchmark fixes
    // its own thread counts and cache use.
    std::env::remove_var("IOTMAP_THREADS");
    std::env::remove_var("IOTMAP_CACHE");
    let mut pins = oracle::Pins::load(args.preset, args.seed);
    let wall = Instant::now();
    println!(
        "# perfbench {} · preset {} · seed {} · {} thread(s) · trace {}",
        args.workload.name(),
        args.preset.name(),
        args.seed,
        args.workload.threads(),
        u8::from(args.trace)
    );
    let (mut attempted, mut failed, metrics) = if args.trace {
        let sweep = trace::sweep(args, &mut pins)?;
        for m in &sweep.metrics {
            println!("{:<28} {:>16} {}", m.name, m.value, m.unit);
        }
        (sweep.attempted, sweep.failed, sweep.metrics)
    } else {
        iotmap::par::set_threads(args.workload.threads());
        let out = workloads::run(args, &mut pins)?;
        if out.op_times.is_empty() {
            return Err(Error::stage(
                "perfbench",
                format!("no op completed ({} attempted)", out.attempted),
            ));
        }
        let rss = iotmap_obs::peak_rss_bytes()
            .ok_or_else(|| Error::stage("perfbench", "VmHWM unavailable"))?;
        let wall = |xs: &[calib::Sample]| {
            let walls: Vec<f64> = xs.iter().map(|x| x.wall).collect();
            median(&cpus::group_means(&walls, out.group))
        };
        let (op_wall, setup_wall) = (wall(&out.op_times), wall(&out.setup_times));
        // One machine speed for the whole run, from every block in it: a
        // run has only a few set-ups, too few blocks to go by alone.
        let blocks: Vec<f64> = out
            .op_times
            .iter()
            .chain(&out.setup_times)
            .map(|x| x.block)
            .collect();
        let block = calib::middle_mean(&blocks);
        let metrics = vec![
            Metric {
                name: "op_s",
                value: op_wall * calib::REFERENCE_S / block,
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: setup_wall * calib::REFERENCE_S / block,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: rss as f64 / (1024.0 * 1024.0),
                unit: "MiB",
            },
        ];
        for note in &out.notes {
            println!("# {note}");
        }
        let list = |xs: &[calib::Sample]| {
            xs.iter()
                .map(|x| format!("{:.4}/{:.4}", x.wall, x.block))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("# op wall/block seconds: {}", list(&out.op_times));
        println!("# set-up wall/block seconds: {}", list(&out.setup_times));
        println!(
            "# calibration block {block:.6} s (middle mean); times below are at the \
             reference speed, where a block takes {} s",
            calib::REFERENCE_S
        );
        let over = |n: usize, what: &str, wall: f64| match out.group {
            1 => format!("median of {n} {what}; {wall:.6} s wall"),
            g => format!(
                "median over groups of {g} {what}, one per CPU, of their mean; \
                 {n} in all; {wall:.6} s wall"
            ),
        };
        println!(
            "{:<14} {:>12.6} s   ({}; reported as op_s)",
            args.workload.op_metric(),
            metrics[0].value,
            over(out.op_times.len(), "ops", op_wall)
        );
        println!(
            "{:<14} {:>12.6} s   ({})",
            "setup_s",
            metrics[1].value,
            over(out.setup_times.len(), "set-ups", setup_wall)
        );
        println!(
            "{:<14} {:>12.3} MiB (the process's VmHWM)",
            "peak_rss_mib", metrics[2].value
        );
        (out.attempted, out.failed, metrics)
    };
    for key in pins.unpinned() {
        attempted += 1;
        failed += 1;
        println!(
            "# FAILED: no pinned digest for {} {} {key}; re-pin as README.md says",
            args.preset.name(),
            args.seed
        );
    }
    println!(
        "{:<14} {:>12} {failed} failed of {attempted} attempted (ops and oracle checks)",
        "fail_ratio",
        failed as f64 / attempted as f64,
    );
    pins.save()
        .map_err(|e| Error::stage("perfbench", format!("cannot write pinned digests: {e}")))?;
    println!("# wall {:.1} s", wall.elapsed().as_secs_f64());
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
