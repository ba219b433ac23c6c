//! The determinism oracle shared by the golden suites.
//!
//! A golden run is pinned by one number: the FNV-1a digest of its whole
//! report as [`SimReport::snap_bytes`] encodes it — every counter, every
//! f64 bit, every per-node summary and delivery record. It is the digest
//! the repository benchmark prints per run. A mismatch names the run's
//! eight headline counters, so a drift can be read off the failure.

use dftmsn::prelude::*;
use dftmsn::sim::fnv1a64;

/// The whole-report digest of `r`.
pub fn digest(r: &SimReport) -> u64 {
    fnv1a64(&r.snap_bytes())
}

/// Asserts that `r`'s whole-report digest is `want`.
pub fn assert_digest(r: &SimReport, want: u64, label: &str) {
    let got = digest(r);
    assert!(
        got == want,
        "{label}: report digest {got:#018x}, pinned {want:#018x}; counters: \
         generated {}, delivered {}, sink_receptions {}, frames_sent {}, \
         collisions {}, attempts {}, multicasts {}, copies_sent {}",
        r.generated,
        r.delivered,
        r.sink_receptions,
        r.frames_sent,
        r.collisions,
        r.attempts,
        r.multicasts,
        r.copies_sent
    );
}
