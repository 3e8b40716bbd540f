//! The benchmark's workloads: each is one campaign manifest over catalog
//! entries, run at a fixed scale.

use std::path::Path;

use sbp_campaign::{CatalogEntry, Manifest};
use sbp_sweep::SweepSpec;
use sbp_types::SbpError;

/// Where replay workloads read their traces, relative to the work
/// directory.
pub const TRACE_DIR: &str = "traces";

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Catalog entries, run one after another.
    pub entries: &'static [&'static str],
    /// `SBP_SCALE` work multiplier.
    pub scale: f64,
    /// Seed replicas per cell.
    pub seeds: u32,
    /// Hybrid-sampled (functional gaps) instead of exact.
    pub sampling: bool,
    /// Worker subprocesses; 0 runs the cells in the benchmark process.
    pub workers: usize,
    /// The entries replay trace files recorded during set-up.
    pub replay: bool,
}

/// Sizes keep one pass at 2–5 s on two cores, so a run averages
/// several. The replay workload runs 12 replicas at a quarter scale
/// rather than the catalog's 3 at full scale: the same trace volume, but
/// its run time then depends less on where one seed's phase clustering
/// puts its windows and on how few cells split across two workers.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "smt_predictors",
        entries: &["fig10"],
        scale: 0.05,
        seeds: 1,
        sampling: true,
        workers: 0,
        replay: false,
    },
    Workload {
        name: "replay_sharded",
        entries: &["fig08_replay", "tab01_pht_replay"],
        scale: 0.25,
        seeds: 12,
        sampling: false,
        workers: 2,
        replay: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Result<&'static Workload, SbpError> {
        WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            SbpError::config(format!(
                "unknown workload {name:?} (known: {})",
                names.join(", ")
            ))
        })
    }

    /// Enters the work directory and exports the process-wide knobs the
    /// simulator reads once: the work scale, the trace directory the
    /// replay entries resolve, a serial window width, and no expectation
    /// perturbation. Must run before any simulator code, while the
    /// process is single-threaded.
    ///
    /// The trace directory is relative: replay workload names, and so the
    /// store fingerprints, embed it, and a relative one keeps the stores
    /// the same wherever the checkout lives.
    pub fn enter(&self, dir: &Path) -> Result<(), SbpError> {
        std::fs::create_dir_all(dir)
            .and_then(|()| std::env::set_current_dir(dir))
            .map_err(|e| SbpError::config(format!("cannot enter {}: {e}", dir.display())))?;
        std::env::set_var("SBP_SCALE", format!("{}", self.scale));
        std::env::set_var("SBP_TRACE_DIR", TRACE_DIR);
        std::env::set_var("SBP_WINDOW_THREADS", "1");
        std::env::remove_var(sbp_campaign::PERTURB_ENV);
        sbp_sweep::set_window_threads(1);
        Ok(())
    }

    /// The manifest a plain `campaign` run of this workload would read.
    pub fn manifest_json(&self, out_dir: &Path) -> String {
        let entries: Vec<String> = self.entries.iter().map(|e| format!("{e:?}")).collect();
        let mut text = format!(
            "{{\"entries\":[{}],\"scale\":{},\"seeds\":{},\"workers\":{},\"out_dir\":{:?}",
            entries.join(","),
            self.scale,
            self.seeds,
            self.workers.max(1),
            out_dir.display().to_string(),
        );
        if self.sampling {
            text.push_str(",\"sampling\":true,\"gap_mode\":\"functional\"");
        }
        text.push('}');
        text
    }

    /// The parsed manifest, as `campaign` reads it.
    pub fn manifest(&self, out_dir: &Path) -> Result<Manifest, SbpError> {
        Manifest::parse(&self.manifest_json(out_dir))
    }

    /// Parses the manifest and builds every entry's spec. A workload seed
    /// replaces the catalog master seed of each simulation entry, which
    /// draws its generated traces. Attack entries keep theirs: it draws
    /// the hardware keys, and their Table 1 verdicts are calibrated to the
    /// catalog's draw (some cells are key-bimodal, see the catalog).
    pub fn specs(
        &self,
        out_dir: &Path,
        seed: Option<u64>,
    ) -> Result<Vec<(&'static CatalogEntry, SweepSpec)>, SbpError> {
        let specs = self.manifest(out_dir)?.specs()?;
        Ok(match seed {
            None => specs,
            Some(seed) => specs
                .into_iter()
                .map(|(entry, spec)| {
                    if spec.is_attack() {
                        (entry, spec)
                    } else {
                        (entry, spec.with_master_seed(seed))
                    }
                })
                .collect(),
        })
    }
}
