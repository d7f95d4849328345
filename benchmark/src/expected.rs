//! Output digests pinned per checked output and seed. The default seed
//! (2019) and the held-out seed (7) are pinned; any other seed is checked by
//! its structural rules and by every iteration of a run agreeing, and its
//! digests are written to the run record so two commits can be compared.

use crate::workloads::Size;

/// The benchmark's default workload seed.
pub const DEFAULT_SEED: u64 = 2019;
/// A seed kept out of tuning, for confirming a claim.
pub const HELD_OUT_SEED: u64 = 7;

/// The outputs whose digests are pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pinned {
    /// `study-quarter`: the rendered summary plus the comparison table.
    Study,
    /// The traced `study-quarter` run's paper-scale collection on the
    /// `flaky` network: per-crawl visit, retry, failure and transport counts.
    FlakyCollection,
    /// `traffic-1m`: session, page, request and event counts and makespan.
    Traffic,
}

const PINNED: [(Pinned, u64, &str); 6] = [
    (Pinned::Study, DEFAULT_SEED, "9fef34c99a2c7572"),
    (Pinned::Study, HELD_OUT_SEED, "b79bb0d4edf69267"),
    (Pinned::FlakyCollection, DEFAULT_SEED, "a5d97f8cc8531024"),
    (Pinned::FlakyCollection, HELD_OUT_SEED, "cfa97dde9f66741b"),
    (Pinned::Traffic, DEFAULT_SEED, "513813708af33a4e"),
    (Pinned::Traffic, HELD_OUT_SEED, "86edfa40da3d5a4e"),
];

/// The pinned digest of a full-size output, when `seed` is pinned.
pub fn digest(output: Pinned, size: Size, seed: u64) -> Option<&'static str> {
    if size != Size::Full {
        return None;
    }
    PINNED
        .iter()
        .find(|(o, s, _)| *o == output && *s == seed)
        .map(|(_, _, d)| *d)
}
