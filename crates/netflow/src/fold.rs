//! Mergeable flow aggregation — the one way exported flows reach an
//! analysis.
//!
//! A [`FlowFold`] consumes the exported flow stream in **mergeable
//! partials**, so the simulator can shard each block of exported
//! records across workers and combine the per-shard accumulators in
//! shard order. The full flow set is never materialized: peak memory is
//! one block of exported records plus the aggregate state (DESIGN.md
//! decision #4).
//!
//! Determinism contract (same as `iotmap_par::shard_fold`):
//! `merge(a, b)` must equal "continue folding b's records into a" for
//! any split of the stream — in practice every partial is built from
//! commutative joins (integer adds, set unions, map-entry adds), so a
//! sharded run is byte-identical to a serial one at any thread count.

use crate::record::FlowRecord;

/// A flow aggregation that can be computed in independent parts and
/// merged.
pub trait FlowFold {
    /// Per-shard accumulator state.
    type Partial: Send;

    /// A fresh, empty accumulator.
    fn make(&self) -> Self::Partial;

    /// Fold one exported record into an accumulator.
    fn fold(&self, acc: &mut Self::Partial, record: &FlowRecord);

    /// Combine `other` into `acc`. Must equal folding `other`'s records
    /// directly into `acc` (associative with respect to stream order).
    fn merge(&self, acc: &mut Self::Partial, other: Self::Partial);
}

/// The trivial fold: record/byte totals, for tests and smoke checks.
pub struct CountingFold;

/// Accumulator of [`CountingFold`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowTotals {
    pub records: u64,
    pub bytes: u64,
}

impl FlowFold for CountingFold {
    type Partial = FlowTotals;

    fn make(&self) -> FlowTotals {
        FlowTotals::default()
    }

    fn fold(&self, acc: &mut FlowTotals, record: &FlowRecord) {
        acc.records += 1;
        acc.bytes += record.bytes;
    }

    fn merge(&self, acc: &mut FlowTotals, other: FlowTotals) {
        acc.records += other.records;
        acc.bytes += other.bytes;
    }
}

/// Keeps every record, in export order — for tests and small scales
/// only, where a check needs the full flow set. Partials concatenate,
/// so merging in shard order reproduces the serial export sequence.
pub struct CollectFold;

impl FlowFold for CollectFold {
    type Partial = Vec<FlowRecord>;

    fn make(&self) -> Vec<FlowRecord> {
        Vec::new()
    }

    fn fold(&self, acc: &mut Vec<FlowRecord>, record: &FlowRecord) {
        acc.push(*record);
    }

    fn merge(&self, acc: &mut Vec<FlowRecord>, mut other: Vec<FlowRecord>) {
        acc.append(&mut other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Direction, LineId};
    use iotmap_nettypes::{Date, PortProto};

    fn records() -> Vec<FlowRecord> {
        let mk = |bytes: u64| FlowRecord {
            time: Date::new(2022, 3, 1).midnight(),
            line: LineId(bytes / 100),
            remote: "192.0.2.1".parse().unwrap(),
            port: PortProto::tcp(443),
            direction: Direction::Downstream,
            bytes,
            packets: 1,
        };
        (1..=10).map(|i| mk(i * 100)).collect()
    }

    #[test]
    fn counting_fold_merges_like_it_folds() {
        let records = records();
        let fold = CountingFold;
        let mut serial = fold.make();
        for r in &records {
            fold.fold(&mut serial, r);
        }
        assert_eq!(
            serial,
            FlowTotals {
                records: 10,
                bytes: 5500
            }
        );
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let mut left = fold.make();
            a.iter().for_each(|r| fold.fold(&mut left, r));
            let mut right = fold.make();
            b.iter().for_each(|r| fold.fold(&mut right, r));
            fold.merge(&mut left, right);
            assert_eq!(left, serial, "split at {split}");
        }
    }

    #[test]
    fn collect_fold_keeps_export_order_across_splits() {
        let records = records();
        let fold = CollectFold;
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let mut left = fold.make();
            a.iter().for_each(|r| fold.fold(&mut left, r));
            let mut right = fold.make();
            b.iter().for_each(|r| fold.fold(&mut right, r));
            fold.merge(&mut left, right);
            assert_eq!(left, records, "split at {split}");
        }
    }
}
