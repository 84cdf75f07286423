//! The four untraced workloads. Each times its set-ups and ops; every
//! correctness check runs outside the timed regions.

use crate::calib::{Calibrator, Sample};
use crate::oracle::{debug_digest, dump_digest, Pins};
use crate::{cpus, timed, Args, Workload};
use iotmap::core::PatternRegistry;
use iotmap::nettypes::{Error, PortProto};
use iotmap::stats::{Ecdf, HourlySeries};
use iotmap::traffic::AnalysisReport;
use iotmap::world::WorldConfig;
use iotmap::{Pipeline, PreparedWorld, RunArtifacts};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Days one day-roll cycle advances when `--ops` does not say.
const ROLL_DAYS: usize = 6;

/// Samples of each `study` set-up: it lasts microseconds, so a single
/// sample would rest on one moment's machine speed.
const STUDY_SETUP_SAMPLES: usize = 5;

/// What one untraced run measured.
#[derive(Default)]
pub struct Outcome {
    /// Timing of each completed op.
    pub op_times: Vec<Sample>,
    /// Timing of each set-up.
    pub setup_times: Vec<Sample>,
    pub attempted: usize,
    pub failed: usize,
    /// Input sizes and failure reasons for the summary.
    pub notes: Vec<String>,
    /// Consecutive ops (and set-ups) that ran one per CPU; times are
    /// reported as the median of their group means (see `cpus`).
    pub group: usize,
}

impl Outcome {
    fn new(group: usize) -> Outcome {
        Outcome {
            group,
            ..Outcome::default()
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// Count one check: a failure when `got != want`.
    fn check(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(format!("{what}: digest {got:016x}, expected {want:016x}"));
        }
    }
}

/// Each allowed CPU in turn, for a one-thread workload's set-ups or ops.
struct Turns {
    cpus: Vec<usize>,
    next: usize,
}

impl Turns {
    fn new() -> Result<Turns, Error> {
        let cpus = cpus::allowed()
            .map_err(|e| Error::stage("perfbench", format!("cannot read allowed CPUs: {e}")))?;
        Ok(Turns { cpus, next: 0 })
    }

    /// Pin the calling thread to the next CPU.
    fn pin_next(&mut self) -> Result<(), Error> {
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        cpus::pin(cpu)
            .map_err(|e| Error::stage("perfbench", format!("cannot pin to CPU {cpu}: {e}")))
    }
}

pub fn run(args: &Args, pins: &mut Pins) -> Result<Outcome, Error> {
    let config = args.preset.config(args.seed);
    match args.workload {
        Workload::Study => study(args, &config, pins),
        Workload::Reexecute => reexecute(args, &config, pins),
        Workload::DayRoll => day_roll(args, &config, pins),
        Workload::WarmStudy => warm_study(args, &config, pins),
    }
}

/// The §5 figure outputs of one analysis report (Figs. 8–14), read
/// through their `Debug` rendering.
#[allow(dead_code)]
#[derive(Debug)]
pub struct Figures {
    per_provider: Vec<ProviderFigures>,
    fig12a: (Ecdf, Ecdf),
    fig12c: Vec<(PortProto, Ecdf)>,
    fig13_lines: (f64, f64, f64, f64),
    fig13_servers: [f64; 4],
    fig14: [f64; 4],
    excluded_lines: usize,
}

#[allow(dead_code)]
#[derive(Debug)]
struct ProviderFigures {
    name: String,
    fig8: Option<HourlySeries>,
    fig9: Option<HourlySeries>,
    fig10: Option<f64>,
    fig11: Vec<(PortProto, f64)>,
    fig12b: Option<Ecdf>,
}

impl Figures {
    pub fn of(report: &AnalysisReport, excluded_lines: usize) -> Figures {
        Figures {
            per_provider: report
                .providers()
                .iter()
                .map(|p| ProviderFigures {
                    name: p.clone(),
                    fig8: report.fig8_lines(p),
                    fig9: report.fig9_downstream(p),
                    fig10: report.fig10_ratio(p),
                    fig11: report.fig11_port_mix(p),
                    fig12b: report.fig12b_ecdf(p),
                })
                .collect(),
            fig12a: (report.fig12a_ecdf(true), report.fig12a_ecdf(false)),
            fig12c: report
                .top_ports(5)
                .into_iter()
                .map(|(port, _)| (port, report.fig12c_ecdf(port)))
                .collect(),
            fig13_lines: report.fig13_line_buckets(),
            fig13_servers: report.fig13_server_buckets(),
            fig14: report.fig14_traffic_buckets(),
            excluded_lines,
        }
    }
}

/// The `study` op: the whole study a user runs for the paper's tables.
pub fn study_op(config: &WorldConfig, threads: usize) -> Result<(RunArtifacts, Figures), Error> {
    let artifacts = Pipeline::new(config.clone()).threads(threads).run()?;
    let period = artifacts.world.config.study_period;
    let (report, excluded) = artifacts.full_traffic_analysis(period);
    let figures = Figures::of(&report, excluded.len());
    Ok((artifacts, figures))
}

/// Line-days one traffic pass simulates.
pub fn line_days(artifacts: &RunArtifacts) -> u64 {
    artifacts.world.isp.lines.len() as u64
        * artifacts.world.config.study_period.days().count() as u64
}

/// Censys records the discovery engine scans.
pub fn censys_records(artifacts: &RunArtifacts) -> u64 {
    artifacts
        .scans
        .censys
        .iter()
        .map(|s| s.records.len() as u64)
        .sum()
}

fn study(args: &Args, config: &WorldConfig, pins: &mut Pins) -> Result<Outcome, Error> {
    let threads = args.workload.threads();
    let mut cal = Calibrator::new(threads);
    let setups = args.budget.setups(args.workload);
    let mut out = Outcome::new(1);
    let mut reference = None;
    for _ in 0..setups {
        let before = cal.block();
        let mut walls = Vec::with_capacity(STUDY_SETUP_SAMPLES);
        for _ in 0..STUDY_SETUP_SAMPLES {
            let (registry, wall) = timed(|| {
                let config = args.preset.config(args.seed);
                PatternRegistry::try_paper_defaults().map(|r| black_box((config, r)))
            });
            registry?;
            walls.push(wall);
        }
        let block = (before + cal.block()) / 2.0;
        out.setup_times
            .extend(walls.into_iter().map(|wall| Sample { wall, block }));
        let (started, mut done) = (Instant::now(), 0);
        while args.budget.more(done, started, setups) {
            done += 1;
            out.attempted += 1;
            let (result, t) = cal.timed(|| study_op(config, threads));
            let (artifacts, figures) = match result {
                Ok(ok) => ok,
                Err(e) => {
                    out.fail(format!("op {}: {e}", out.attempted));
                    continue;
                }
            };
            out.op_times.push(t);
            let got = (dump_digest(&artifacts), debug_digest(&figures));
            let want = *reference.get_or_insert_with(|| {
                out.notes.push(format!(
                    "input: {} censys records, {} line-days per traffic pass",
                    censys_records(&artifacts),
                    line_days(&artifacts)
                ));
                (
                    pins.reference("dump", got.0),
                    pins.reference("figures", got.1),
                )
            });
            if got != want {
                out.fail(format!(
                    "op {}: dump/figures digests {:016x}/{:016x}, expected {:016x}/{:016x}",
                    out.attempted, got.0, got.1, want.0, want.1
                ));
            }
        }
    }
    Ok(out)
}

fn reexecute(args: &Args, config: &WorldConfig, pins: &mut Pins) -> Result<Outcome, Error> {
    let threads = args.workload.threads();
    let mut cal = Calibrator::new(threads);
    let mut out = Outcome::new(1);
    let mut digests = Vec::new();
    let setups = args.budget.setups(args.workload);
    for _ in 0..setups {
        let (prepared, s) = cal.timed(|| Pipeline::new(config.clone()).threads(threads).prepare());
        let prepared = prepared?;
        out.setup_times.push(s);
        let (started, mut done) = (Instant::now(), 0);
        while args.budget.more(done, started, setups) {
            done += 1;
            out.attempted += 1;
            let (result, t) = cal.timed(|| prepared.execute());
            match result {
                Ok(artifacts) => {
                    out.op_times.push(t);
                    digests.push(dump_digest(&artifacts));
                }
                Err(e) => out.fail(format!("op {}: {e}", out.attempted)),
            }
        }
    }
    // Oracle: a from-scratch `run()` of the same config.
    let oracle = dump_digest(&Pipeline::new(config.clone()).threads(threads).run()?);
    let want = pins.reference("dump", oracle);
    out.attempted += 1;
    out.check("run() oracle", oracle, want);
    for (i, got) in digests.into_iter().enumerate() {
        out.check(&format!("execute op {}", i + 1), got, want);
    }
    Ok(out)
}

fn day_roll(args: &Args, config: &WorldConfig, pins: &mut Pins) -> Result<Outcome, Error> {
    let threads = args.workload.threads();
    let mut cal = Calibrator::new(threads);
    let days = args.budget.ops.unwrap_or(ROLL_DAYS);
    let (mut setup_cpu, mut op_cpu) = (Turns::new()?, Turns::new()?);
    let mut out = Outcome::new(op_cpu.cpus.len());
    // Digest after each day, from the first cycle that reaches it;
    // later cycles repeat the same days from a fresh set-up and must
    // match.
    let mut per_day: Vec<u64> = Vec::new();
    // A fixed number of cycles rather than `--seconds`: each cycle's
    // set-up leaves memory resident in the process, so a time budget
    // would make `peak_rss_mib` depend on how fast the machine ran.
    for cycle in 1..=args.budget.setups(args.workload) {
        setup_cpu.pin_next()?;
        let (p, s) = cal.timed(|| -> Result<PreparedWorld, Error> {
            let mut p = Pipeline::new(config.clone()).threads(threads).prepare()?;
            p.rolled()?;
            Ok(p)
        });
        let mut prepared = p?;
        out.setup_times.push(s);
        for day in 0..days {
            out.attempted += 1;
            op_cpu.pin_next()?;
            let (result, t) = cal.timed(|| {
                let delta = prepared.next_delta();
                prepared.advance(&delta).map(|_| delta)
            });
            let delta = match result {
                Ok(delta) => delta,
                Err(e) => {
                    out.fail(format!("cycle {cycle} day {}: {e}", day + 1));
                    break;
                }
            };
            out.op_times.push(t);
            let got = dump_digest(prepared.rolled()?);
            if cycle == 1 && day == 0 {
                let d = delta.summary(&prepared.world.passive_dns);
                out.notes.push(format!(
                    "churn on day 1: {} scan records, {} certificates, {} pDNS rows",
                    d.scan_records, d.certificates, d.pdns_rows_revealed
                ));
            }
            let want = match per_day.get(day) {
                Some(&want) => want,
                None => {
                    // First time this day is reached: it sets the
                    // reference, pinned for the last day.
                    let want = if day + 1 == days {
                        pins.reference(&format!("day_roll_d{days}"), got)
                    } else {
                        got
                    };
                    per_day.push(want);
                    want
                }
            };
            out.check(&format!("cycle {cycle} day {}", day + 1), got, want);
            if day + 1 == days {
                // The last day is also checked against a from-scratch
                // execute over the merged corpus.
                out.attempted += 1;
                let oracle = dump_digest(&prepared.execute()?);
                out.check(&format!("cycle {cycle} rolled vs execute()"), got, oracle);
            }
        }
    }
    Ok(out)
}

/// A directory under the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Result<ScratchDir, Error> {
        let path = Path::new(".perfbench_tmp").join(format!("{label}-{}", std::process::id()));
        // A leftover from an earlier, killed run would warm the cache.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| {
            Error::stage(
                "perfbench",
                format!("cannot create {}: {e}", path.display()),
            )
        })?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails while another run still uses it, which is fine.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn warm_study(args: &Args, config: &WorldConfig, pins: &mut Pins) -> Result<Outcome, Error> {
    let threads = args.workload.threads();
    let mut cal = Calibrator::new(threads);
    let (mut setup_cpu, mut op_cpu) = (Turns::new()?, Turns::new()?);
    let mut out = Outcome::new(op_cpu.cpus.len());
    let mut want = None;
    let setups = args.budget.setups(args.workload);
    for k in 1..=setups {
        let cache = ScratchDir::new("warm-study")?;
        setup_cpu.pin_next()?;
        let pipeline = || {
            Pipeline::new(config.clone())
                .threads(threads)
                .cache(cache.path())
        };
        let (cold, s) = cal.timed(|| pipeline().run());
        let got = dump_digest(&cold?);
        out.setup_times.push(s);
        let want = *want.get_or_insert_with(|| pins.reference("dump", got));
        out.attempted += 1;
        out.check(&format!("cold set-up {k}"), got, want);
        let (started, mut done) = (Instant::now(), 0);
        while args.budget.more(done, started, setups) {
            done += 1;
            out.attempted += 1;
            op_cpu.pin_next()?;
            let (result, t) = cal.timed(|| pipeline().run());
            match result {
                Ok(artifacts) => {
                    out.op_times.push(t);
                    out.check(
                        &format!("warm op {}", out.attempted),
                        dump_digest(&artifacts),
                        want,
                    );
                }
                Err(e) => out.fail(format!("op {}: {e}", out.attempted)),
            }
        }
    }
    Ok(out)
}
