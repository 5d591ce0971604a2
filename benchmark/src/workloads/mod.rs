//! The four workloads and what they share: run parameters, seed
//! derivation, the scratch directory for data dirs, and the in-run
//! traced / untraced comparison behind `obs.trace_overhead_frac`.

pub mod batch_uniform;
pub mod heartbeat_storm;
pub mod metro_replay;
pub mod served_cluster;
mod tick_report;

use crate::report::Report;
use crate::stats::{self, Spread};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Grid-index cell size used by the three in-process workloads (the value
/// every bench binary of the repository uses).
pub const CELL_SIZE: f64 = 0.05;

/// What a workload is asked to do.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Workload seed: every generator derives its stream from it.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and compute the per-layer probes?
    pub traced: bool,
    /// ~1/20 size, every check still enforced.
    pub smoke: bool,
    /// A directory of this process's own for data dirs.
    pub scratch: PathBuf,
}

/// Runs the named workload.
pub fn run(name: &str, params: &RunParams, tracer: &mut Tracer, report: &mut Report) {
    match name {
        "batch_uniform" => batch_uniform::run(params, tracer, report),
        "metro_replay" => metro_replay::run(params, tracer, report),
        "heartbeat_storm" => heartbeat_storm::run(params, tracer, report),
        "served_cluster" => served_cluster::run(params, tracer, report),
        other => unreachable!("workload {other} was validated against the catalog"),
    }
}

/// An independent generator seed for `stream` of workload seed `seed`
/// (splitmix64 finaliser: nearby seeds and streams decorrelate).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A data directory under the process's scratch directory, removed when
/// dropped — on success and on failure alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `scratch/name` afresh.
    pub fn create(scratch: &Path, name: &str) -> std::io::Result<Self> {
        let path = scratch.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reports `obs.trace_overhead_frac` from operation times measured with the
/// recorder on and off in the same run: traced median ÷ untraced median − 1.
/// Prints `unresolved` when that is smaller than the untraced samples' own
/// spread; the figure is reported either way.
pub fn report_trace_overhead(report: &mut Report, untraced: &[f64], traced: &[f64]) {
    if untraced.is_empty() || traced.is_empty() {
        return;
    }
    let base = Spread::of(untraced);
    let frac = stats::median(traced) / base.median - 1.0;
    report.value("obs.trace_overhead_frac", "ratio", frac);
    let verdict = if frac.abs() < base.relative_iqr() {
        "unresolved"
    } else {
        "resolved"
    };
    println!(
        "trace overhead: {frac:+.4} of the untraced median ({} traced vs {} untraced operations, \
         untraced spread {:.4}): {verdict}",
        traced.len(),
        untraced.len(),
        base.relative_iqr()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream_and_by_seed() {
        let a: Vec<u64> = (0..4).map(|k| derive_seed(7, k)).collect();
        let b: Vec<u64> = (0..4).map(|k| derive_seed(8, k)).collect();
        let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
        assert_eq!(derive_seed(7, 2), a[2], "same inputs, same seed");
    }

    #[test]
    fn scratch_dirs_are_removed_on_drop() {
        let root =
            std::env::temp_dir().join(format!("rdbsc-benchmark-test-{}", std::process::id()));
        let path = {
            let dir = ScratchDir::create(&root, "data").unwrap();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
