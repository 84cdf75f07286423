//! The traced run: per-layer metrics.
//!
//! The `study` op is decomposed into the public calls the facade makes —
//! `World::generate` → `collect_scan_data_with` → `DiscoveryPipeline::run`
//! → `FootprintInference::infer` per provider →
//! `SharedIpClassifier::split_provider` → `IpIndex::build` →
//! `contact_pass` → `excluded_lines` → `analysis_pass` — with a span timed
//! around each call and an `iotmap_obs::Registry` installed so the
//! counters the library already records can be read. The rebuilt
//! `RunArtifacts` must dump byte-identical to `Pipeline::run`.
//!
//! Probes of the layers the study op does not reach follow, untraced:
//! one `run_channels` per source, the `PreparedWorld::execute` clone,
//! `iotmap-par` fixed cost, the `recover` codecs, the warm cache, and
//! day deltas with `advance`. The sweep is the same on every workload.

use crate::oracle::{debug_digest, dump_digest, Pins};
use crate::workloads::{censys_records, line_days, study_op, Figures, ScratchDir};
use crate::{median, timed, Args, Metric};
use iotmap::core::{
    DataSources, DiscoveryPipeline, DiscoveryResult, Footprint, FootprintInference,
    IncrementalDiscovery, PatternRegistry, SharedIpClassifier, Source,
};
use iotmap::dns::PassiveDnsDb;
use iotmap::faults::FaultPlan;
use iotmap::nettypes::Error;
use iotmap::recover;
use iotmap::supervisor::codec::{ByteReader, ByteWriter};
use iotmap::traffic::IpIndex;
use iotmap::world::{CollectedScans, World, WorldConfig};
use iotmap::{Pipeline, RunArtifacts};
use iotmap_obs::Registry;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::net::IpAddr;
use std::rc::Rc;

/// Threads of the study decomposition (the `study` workload's count).
const STUDY_THREADS: usize = 2;
/// Threads of the cache and day-roll probes (their workloads' count).
const SERIAL: usize = 1;
/// Days the day-roll probe advances.
const PROBE_DAYS: usize = 3;
/// Untraced study ops whose median wall the traced op is divided by.
const UNTRACED_OPS: usize = 3;

pub struct Sweep {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
}

impl Sweep {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one check; report a failure on stderr.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: trace check failed: {what}");
        }
    }
}

/// Seconds spent in each layer call of the traced op, in call order.
#[derive(Default)]
struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    /// Time `f` into the span `name`, adding to earlier calls of it.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, s) = timed(f);
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += s,
            None => self.0.push((name, s)),
        }
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, s)| s)
    }

    fn total(&self) -> f64 {
        self.0.iter().map(|&(_, s)| s).sum()
    }
}

/// Counter deltas read from the installed registry.
struct Counters<'a>(&'a Registry);

impl Counters<'_> {
    fn around<R>(&self, names: &[&str], f: impl FnOnce() -> R) -> (R, Vec<u64>) {
        let before: Vec<u64> = names.iter().map(|n| self.0.counter(n)).collect();
        let out = f();
        let after = names
            .iter()
            .zip(before)
            .map(|(n, b)| self.0.counter(n) - b)
            .collect();
        (out, after)
    }
}

fn sources<'a>(world: &'a World, scans: &'a CollectedScans) -> DataSources<'a> {
    // The same wiring as `Pipeline`'s engine, latency prober included.
    DataSources {
        censys: &scans.censys,
        zgrab_v6: &scans.zgrab_v6,
        passive_dns: &world.passive_dns,
        zones: &world.zones,
        routeviews: &world.bgp,
        latency: Some(world),
    }
}

/// The study op as its layer calls, each timed into `spans`.
fn decomposed_study(
    config: &WorldConfig,
    spans: &mut Spans,
    counters: &Counters<'_>,
    sweep: &mut Sweep,
) -> Result<(RunArtifacts, Figures), Error> {
    let plan = FaultPlan::none();
    let period = config.study_period;
    let pipeline = DiscoveryPipeline::new(PatternRegistry::try_paper_defaults()?)
        .faults(plan.seed, plan.active_dns.clone());
    let world = spans.time("world.generate_s", || World::generate(config));
    let scans = spans.time("scan.collect_s", || {
        world.collect_scan_data_with(period, &plan)
    });
    let (discovery, footprints, shared_ips) = {
        let sources = sources(&world, &scans);
        let (discovery, c) = counters.around(
            &[
                "discovery.engine.candidates",
                "discovery.engine.verified",
                "dregex.vm.steps",
            ],
            || spans.time("discovery.run_s", || pipeline.run(&sources, period)),
        );
        sweep.put("discovery.candidates", c[0] as f64, "count");
        sweep.put("discovery.verified", c[1] as f64, "count");
        sweep.put(
            "discovery.verify_yield",
            c[1] as f64 / c[0].max(1) as f64,
            "ratio",
        );
        sweep.put("dregex.vm_steps", c[2] as f64, "count");
        let footprints: HashMap<_, _> = discovery
            .per_provider()
            .map(|(name, disc)| {
                let fp = spans.time("footprint.infer_s", || {
                    FootprintInference::infer(disc, &sources)
                });
                (name.to_string(), fp)
            })
            .collect();
        let classifier = SharedIpClassifier::new(pipeline.registry());
        let mut shared_ips = HashSet::new();
        let mut classified = 0;
        for (_, disc) in discovery.per_provider() {
            let (dedicated, shared) = spans.time("shared_ip.classify_s", || {
                classifier.split_provider(disc, &world.passive_dns, period)
            });
            classified += dedicated.len() + shared.len();
            shared_ips.extend(shared.keys().copied());
        }
        sweep.put("shared_ip.ips", classified as f64, "count");
        sweep.put("shared_ip.shared", shared_ips.len() as f64, "count");
        (discovery, footprints, shared_ips)
    };
    let index = spans.time("index.build_s", || {
        IpIndex::build(&discovery, &footprints, &shared_ips)
    });
    let artifacts = RunArtifacts {
        world,
        scans,
        discovery,
        footprints,
        shared_ips,
        index,
        faults: plan,
    };
    let (figures, c) = counters.around(&["netflow.flows_generated"], || {
        let contacts = spans.time("traffic.contact_pass_s", || artifacts.contact_pass(period));
        let excluded = spans.time("traffic.exclusion_s", || {
            artifacts.excluded_lines(&contacts)
        });
        let report = spans.time("traffic.analysis_pass_s", || {
            artifacts.analysis_pass(period, &excluded)
        });
        Figures::of(&report, excluded.len())
    });
    sweep.put("traffic.flows_generated", c[0] as f64, "count");
    Ok((artifacts, figures))
}

pub fn sweep(args: &Args, pins: &mut Pins) -> Result<Sweep, Error> {
    let config = args.preset.config(args.seed);
    let period = config.study_period;
    let mut sweep = Sweep {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // Untraced study ops: the reference wall time and outputs.
    let mut untraced = Vec::new();
    let mut want = None;
    for op in 1..=UNTRACED_OPS {
        let (reference, s) =
            timed(|| iotmap::par::with_threads(STUDY_THREADS, || study_op(&config, STUDY_THREADS)));
        let (reference, figures) = reference?;
        untraced.push(s);
        let got = (dump_digest(&reference), debug_digest(&figures));
        let want = *want.get_or_insert_with(|| {
            (
                pins.reference("dump", got.0),
                pins.reference("figures", got.1),
            )
        });
        sweep.check(&format!("Pipeline::run op {op} dump"), got.0 == want.0);
        sweep.check(&format!("study op {op} figures"), got.1 == want.1);
    }
    let (want_dump, want_figures) = want.expect("at least one untraced op");

    // The traced study op, decomposed.
    let registry = Rc::new(Registry::new());
    iotmap_obs::install(registry.clone());
    let mut spans = Spans::default();
    let (traced, traced_s) = timed(|| {
        iotmap::par::with_threads(STUDY_THREADS, || {
            decomposed_study(&config, &mut spans, &Counters(&registry), &mut sweep)
        })
    });
    iotmap_obs::uninstall();
    let (artifacts, figures) = traced?;
    sweep.check(
        "decomposed study dump vs Pipeline::run",
        dump_digest(&artifacts) == want_dump,
    );
    sweep.check(
        "decomposed study figures vs Pipeline::run",
        debug_digest(&figures) == want_figures,
    );
    for name in [
        "world.generate_s",
        "scan.collect_s",
        "discovery.run_s",
        "footprint.infer_s",
        "shared_ip.classify_s",
        "index.build_s",
        "traffic.contact_pass_s",
        "traffic.exclusion_s",
        "traffic.analysis_pass_s",
    ] {
        sweep.put(name, spans.get(name), "s");
    }
    sweep.put(
        "world.pdns_rrsets",
        artifacts.world.passive_dns.len() as f64,
        "count",
    );
    sweep.put(
        "scan.censys_records",
        censys_records(&artifacts) as f64,
        "count",
    );
    sweep.put("traffic.line_days", line_days(&artifacts) as f64, "count");
    sweep.put("trace.wall_ratio", traced_s / median(&untraced), "ratio");
    sweep.put("trace.coverage", spans.total() / traced_s, "ratio");

    // One discovery channel at a time, over the study's corpus.
    let pipeline = DiscoveryPipeline::new(PatternRegistry::try_paper_defaults()?);
    let sources = artifacts.sources();
    for (source, name) in [
        (Source::Certificate, "discovery.certificates_s"),
        (Source::Ipv6Scan, "discovery.ipv6_scan_s"),
        (Source::PassiveDns, "discovery.passive_dns_s"),
        (Source::ActiveDns, "discovery.active_dns_s"),
    ] {
        let (result, s) = timed(|| {
            iotmap::par::with_threads(STUDY_THREADS, || {
                pipeline.run_channels(&sources, period, &[source])
            })
        });
        black_box(result);
        sweep.put(name, s, "s");
    }

    // The world + scans clone `PreparedWorld::execute` makes per call.
    let (copy, s) = timed(|| (artifacts.world.clone(), artifacts.scans.clone()));
    drop(copy);
    sweep.put("engine.clone_s", s, "s");

    // The incremental tracker's bootstrap, as the day-roll set-up runs it.
    let (tracker, s) = timed(|| {
        iotmap::par::with_threads(SERIAL, || {
            IncrementalDiscovery::bootstrap(&pipeline, &artifacts.world.passive_dns, period)
        })
    });
    drop(tracker);
    sweep.put("incremental.bootstrap_s", s, "s");

    recover_probe(&artifacts, &mut sweep);
    drop(artifacts);

    par_probe(&mut sweep);
    cache_and_roll_probe(&config, want_dump, &mut sweep)?;
    Ok(sweep)
}

/// The five artifacts the cache stores, through the public codecs.
fn encode(
    pdns: &PassiveDnsDb,
    scans: &CollectedScans,
    discovery: &DiscoveryResult,
    footprints: &HashMap<String, Footprint>,
    shared_ips: &HashSet<IpAddr>,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    recover::put_passive_dns(pdns, &mut w);
    recover::put_scans(scans, &mut w);
    recover::put_discovery(discovery, &mut w);
    recover::put_footprints(footprints, &mut w);
    recover::put_shared_ips(shared_ips, &mut w);
    w.into_bytes()
}

/// Encode and decode a run's cached artifacts; the decoded artifacts
/// must encode to the same bytes.
fn recover_probe(a: &RunArtifacts, sweep: &mut Sweep) {
    let (bytes, encode_s) = timed(|| {
        encode(
            &a.world.passive_dns,
            &a.scans,
            &a.discovery,
            &a.footprints,
            &a.shared_ips,
        )
    });
    let (decoded, decode_s) = timed(|| {
        let mut r = ByteReader::new(&bytes);
        Ok::<_, String>((
            recover::get_passive_dns(&mut r)?,
            recover::get_scans(&mut r)?,
            recover::get_discovery(&mut r)?,
            recover::get_footprints(&mut r)?,
            recover::get_shared_ips(&mut r)?,
        ))
    });
    sweep.put("recover.encode_s", encode_s, "s");
    sweep.put("recover.decode_s", decode_s, "s");
    sweep.put("recover.bytes", bytes.len() as f64, "bytes");
    let same = decoded.is_ok_and(|(pdns, scans, discovery, footprints, shared_ips)| {
        encode(&pdns, &scans, &discovery, &footprints, &shared_ips) == bytes
    });
    sweep.check("recover codecs round trip", same);
}

/// Fixed cost of one `shard_map` over a trivial slice, at 1 and 2
/// threads: median microseconds per call.
fn par_probe(sweep: &mut Sweep) {
    let items: Vec<u64> = (0..64).collect();
    for (threads, calls, name) in [
        (1, 4000, "par.shard_map_call_us.t1"),
        (2, 400, "par.shard_map_call_us.t2"),
    ] {
        let samples: Vec<f64> = iotmap::par::with_threads(threads, || {
            (0..calls)
                .map(|_| {
                    let (out, s) = timed(|| iotmap::par::shard_map(&items, |i, x| i as u64 + x));
                    black_box(out);
                    s * 1e6
                })
                .collect()
        });
        sweep.put(name, median(&samples), "us");
    }
}

/// The warm cache (prepare and execute reading it), then day deltas and
/// `advance` on the warm-prepared world, checked against `execute`.
fn cache_and_roll_probe(
    config: &WorldConfig,
    want_dump: u64,
    sweep: &mut Sweep,
) -> Result<(), Error> {
    let cache = ScratchDir::new("trace")?;
    let pipeline = || {
        Pipeline::new(config.clone())
            .threads(SERIAL)
            .cache(cache.path())
    };
    let cold = pipeline().run()?;
    sweep.check("cold cached run dump", dump_digest(&cold) == want_dump);
    drop(cold);
    let (prepared, s) = timed(|| pipeline().prepare());
    let mut prepared = prepared?;
    sweep.put("cache.warm_prepare_s", s, "s");
    let (warm, s) = timed(|| prepared.execute());
    sweep.put("cache.warm_execute_s", s, "s");
    sweep.check("warm execute dump", dump_digest(&warm?) == want_dump);

    prepared.rolled()?;
    let (mut next_day, mut advance) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_DAYS {
        let (delta, s) = timed(|| prepared.next_delta());
        next_day.push(s);
        let (result, s) = timed(|| prepared.advance(&delta).map(|_| ()));
        result?;
        advance.push(s);
    }
    sweep.put("delta.next_day_s", median(&next_day), "s");
    sweep.put("incremental.advance_s", median(&advance), "s");
    let rolled = dump_digest(prepared.rolled()?);
    let oracle = dump_digest(&prepared.execute()?);
    sweep.check("rolled days vs execute()", rolled == oracle);
    Ok(())
}
