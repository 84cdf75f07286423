//! Output digests and the pinned default-seed values they are checked
//! against.
//!
//! A digest is FNV-1a 64 over the bytes of an output — the
//! `canonical_dump()` of a run, or the `Debug` rendering of the §5
//! figures. The benchmark carries its own hash so that a change to the
//! library cannot move the yardstick along with the output.
//!
//! `pinned.txt` holds one line per `(preset, seed, key)`, for the default
//! seed only. Running with `PERFBENCH_BLESS=1` records the digests seen
//! instead of checking them and rewrites the file. Without it, a digest
//! the default seed asks for but `pinned.txt` lacks is a failed check.

use crate::{Preset, DEFAULT_SEED};
use iotmap::RunArtifacts;
use std::collections::{BTreeMap, BTreeSet};

const PINNED: &str = include_str!("../pinned.txt");
const PINNED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pinned.txt");

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of everything a run computed.
pub fn dump_digest(artifacts: &RunArtifacts) -> u64 {
    fnv1a(&artifacts.canonical_dump())
}

/// Digest of any output with a deterministic `Debug` rendering.
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// The pinned digests of one `(preset, seed)`.
pub struct Pins {
    preset: &'static str,
    /// Pins apply to the default seed only; other seeds are held out.
    pinned_seed: bool,
    bless: bool,
    /// Every line of `pinned.txt` as compiled in.
    pinned: PinMap,
    /// Digests recorded under `PERFBENCH_BLESS=1`.
    blessed: PinMap,
    /// Keys asked for on the default seed that have no pin.
    unpinned: BTreeSet<String>,
}

/// Digests keyed `(preset, seed, key)`.
type PinMap = BTreeMap<(String, u64, String), u64>;

fn parse(text: &str) -> PinMap {
    let mut all = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f.as_slice() {
            [p, s, k, d] => s
                .parse()
                .ok()
                .zip(u64::from_str_radix(d, 16).ok())
                .map(|(s, d)| ((p.to_string(), s, k.to_string()), d)),
            _ => None,
        };
        let (key, digest) = parsed.expect("pinned.txt line is `preset seed key hex`");
        all.insert(key, digest);
    }
    all
}

impl Pins {
    pub fn load(preset: Preset, seed: u64) -> Pins {
        Pins {
            preset: preset.name(),
            pinned_seed: seed == DEFAULT_SEED,
            bless: std::env::var_os("PERFBENCH_BLESS").is_some_and(|v| v == "1"),
            pinned: parse(PINNED),
            blessed: BTreeMap::new(),
            unpinned: BTreeSet::new(),
        }
    }

    /// The digest `key` must have: its pin on the pinned seed, else
    /// `observed` (the first value seen, which later ops must repeat).
    /// When blessing, `observed` becomes the pin. A pin missing on the
    /// pinned seed is recorded, for [`Pins::unpinned`] to report.
    pub fn reference(&mut self, key: &str, observed: u64) -> u64 {
        if !self.pinned_seed {
            return observed;
        }
        let k = (self.preset.to_string(), DEFAULT_SEED, key.to_string());
        if self.bless {
            self.blessed.insert(k, observed);
            return observed;
        }
        match self.pinned.get(&k) {
            Some(&pin) => pin,
            None => {
                self.unpinned.insert(key.to_string());
                observed
            }
        }
    }

    /// Keys the pinned seed asked for that `pinned.txt` lacks; each is a
    /// failed check.
    pub fn unpinned(&self) -> impl Iterator<Item = &str> {
        self.unpinned.iter().map(String::as_str)
    }

    /// Merge the blessed digests into `pinned.txt` on disk, which may
    /// be newer than the copy compiled in.
    pub fn save(&self) -> std::io::Result<()> {
        if self.blessed.is_empty() {
            return Ok(());
        }
        let mut all = parse(&std::fs::read_to_string(PINNED_PATH)?);
        all.extend(self.blessed.clone());
        let mut text = String::from(
            "# FNV-1a 64 digests of default-seed outputs: preset seed key digest.\n\
             # Regenerate with PERFBENCH_BLESS=1 (see README.md).\n",
        );
        for ((preset, seed, key), digest) in &all {
            text.push_str(&format!("{preset} {seed} {key} {digest:016x}\n"));
        }
        std::fs::write(PINNED_PATH, text)
    }
}
