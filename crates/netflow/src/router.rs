//! Border-router collection: sampling + ingress filtering + anonymization.
//!
//! The pipeline a true flow passes before reaching any analysis:
//!
//! 1. **BCP 38 ingress filtering** (§3.7): flows claiming a source address
//!    outside the subscriber's assigned space are dropped, so remote
//!    scanners cannot spoof themselves into the subscriber-line analyses.
//! 2. **Packet sampling** at the configured rate.
//! 3. **Anonymization** of the line identity.
//!
//! What emerges is the dataset §5 works with.

use crate::anonymize::Anonymizer;
use crate::record::FlowRecord;
#[cfg(test)]
use crate::record::LineId;
use crate::sampler::PacketSampler;
use iotmap_faults::NetflowFaults;
use iotmap_nettypes::SimRng;

/// A border router exporting sampled, anonymized NetFlow.
pub struct BorderRouter {
    sampler: PacketSampler,
    anonymizer: Anonymizer,
    /// Highest legitimate raw line id; anything above is treated as a
    /// spoofed source and dropped (BCP 38 stand-in).
    max_line: u64,
    /// Export faults: wire drops and exporter resets, applied *after*
    /// sampling so the sampler's RNG stream is identical with or without
    /// a fault plan.
    faults: NetflowFaults,
    fault_seed: u64,
    /// Counters for drop accounting.
    pub spoofed_dropped: u64,
    pub sampled_out: u64,
    pub exported: u64,
    /// Records lost to export faults (wire drops + reset hours).
    pub export_dropped: u64,
    /// Of those, records lost because the exporter was resetting.
    pub reset_dropped: u64,
}

impl BorderRouter {
    /// Create a router with sampling rate 1:`rate` for an ISP with
    /// `max_line + 1` subscriber lines.
    pub fn new(rate: u64, max_line: u64, salt: u64, rng: SimRng) -> Self {
        Self::with_faults(rate, max_line, salt, rng, 0, NetflowFaults::NONE)
    }

    /// [`BorderRouter::new`] with an export-fault plan: a record that
    /// survives sampling can still be lost to a per-flow wire drop or to
    /// an exporter reset that blacks out a whole epoch hour. Both are
    /// pure rolls on the flow/hour identity, so export loss is
    /// deterministic and independent of processing order.
    pub fn with_faults(
        rate: u64,
        max_line: u64,
        salt: u64,
        rng: SimRng,
        fault_seed: u64,
        faults: NetflowFaults,
    ) -> Self {
        BorderRouter {
            sampler: PacketSampler::new(rate, rng),
            anonymizer: Anonymizer::new(salt),
            max_line,
            faults,
            fault_seed,
            spoofed_dropped: 0,
            sampled_out: 0,
            exported: 0,
            export_dropped: 0,
            reset_dropped: 0,
        }
    }

    /// Process one true flow and return the exported record, if any.
    pub fn process(&mut self, true_flow: &FlowRecord) -> Option<FlowRecord> {
        if true_flow.line.0 > self.max_line {
            self.spoofed_dropped += 1;
            return None;
        }
        let Some(mut est) = self.sampler.sample(true_flow) else {
            self.sampled_out += 1;
            return None;
        };
        // Export faults come after the sampler so its RNG stream — and
        // therefore every surviving estimate — is unchanged by the fault
        // layer.
        if iotmap_faults::drops(
            self.fault_seed,
            "netflow.reset",
            true_flow.time.epoch_hours(),
            self.faults.reset_rate,
        ) {
            self.export_dropped += 1;
            self.reset_dropped += 1;
            return None;
        }
        let flow_key = iotmap_faults::key3(
            iotmap_faults::key2(true_flow.time.unix(), true_flow.line.0),
            iotmap_faults::key_ip(true_flow.remote),
            iotmap_faults::key2(true_flow.port.port as u64, true_flow.direction as u64),
        );
        if iotmap_faults::drops(
            self.fault_seed,
            "netflow.export_drop",
            flow_key,
            self.faults.export_drop_rate,
        ) {
            self.export_dropped += 1;
            return None;
        }
        est.line = self.anonymizer.anonymize(true_flow.line);
        self.exported += 1;
        Some(est)
    }

    /// Report this router's lifetime tallies to the observability layer
    /// (called once per simulation run, not per flow, so the per-flow hot
    /// path stays uninstrumented).
    pub fn flush_metrics(&self) {
        iotmap_obs::count!("netflow.flows_spoofed_dropped", self.spoofed_dropped);
        iotmap_obs::count!("netflow.flows_sampled_out", self.sampled_out);
        iotmap_obs::count!("netflow.flows_exported", self.exported);
        if self.faults.is_active() {
            iotmap_obs::count!("faults.netflow.reset_dropped", self.reset_dropped);
            iotmap_obs::count!("faults.netflow.records_dropped", self.export_dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Direction;
    use iotmap_nettypes::{Date, PortProto};

    fn flow(line: u64, bytes: u64, packets: u64) -> FlowRecord {
        FlowRecord {
            time: Date::new(2022, 3, 1).midnight(),
            line: LineId(line),
            remote: "192.0.2.1".parse().unwrap(),
            port: PortProto::tcp(8883),
            direction: Direction::Upstream,
            bytes,
            packets,
        }
    }

    #[test]
    fn spoofed_sources_dropped() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(1));
        assert_eq!(r.process(&flow(100, 10, 1)), None);
        assert!(r.process(&flow(99, 10, 1)).is_some());
        assert_eq!(r.spoofed_dropped, 1);
        assert_eq!(r.exported, 1);
    }

    #[test]
    fn lines_are_anonymized_consistently() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(1));
        let mut export = |line| r.process(&flow(line, 10, 1)).expect("unsampled").line;
        let (a, b, c) = (export(5), export(5), export(6));
        assert_ne!(a, LineId(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sampling_accounted() {
        let mut r = BorderRouter::new(1000, 99, 7, SimRng::new(2));
        let exported = (0..500).filter_map(|_| r.process(&flow(1, 100, 1))).count();
        assert_eq!(r.exported + r.sampled_out, 500);
        assert!(r.sampled_out > 450, "sampled_out {}", r.sampled_out);
        assert_eq!(exported as u64, r.exported);
    }

    #[test]
    fn unsampled_router_exports_everything() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(3));
        let records: Vec<FlowRecord> = (0..50)
            .filter_map(|i| r.process(&flow(i % 10, 100, 5)))
            .collect();
        assert_eq!(r.exported, 50);
        assert_eq!(records.len(), 50);
        assert_eq!(records[0].bytes, 100);
    }

    #[test]
    fn export_faults_are_deterministic_and_nested() {
        let run = |rate: f64| {
            let faults = NetflowFaults {
                export_drop_rate: rate,
                reset_rate: 0.0,
            };
            let mut r = BorderRouter::with_faults(1, 199, 7, SimRng::new(4), 7, faults);
            let kept: Vec<u64> = (0..200)
                .filter(|&i| r.process(&flow(i, 10, 1)).is_some())
                .collect();
            assert_eq!(r.export_dropped + kept.len() as u64, 200);
            kept
        };
        assert_eq!(run(0.3), run(0.3), "pure rolls: identical reruns");
        assert_eq!(run(0.0).len(), 200, "zero rate drops nothing");
        let (light, heavy) = (run(0.1), run(0.5));
        assert!(heavy.len() < light.len());
        // Nested drops: every survivor of the heavy plan survived light.
        assert!(heavy.iter().all(|l| light.contains(l)));
    }
}
