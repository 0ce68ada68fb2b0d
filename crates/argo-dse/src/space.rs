//! The configuration lattice: axes, points and the `DesignSpace` builder.
//!
//! A [`DesignSpace`] is the cartesian product of the paper's § III design
//! axes. [`DesignSpace::points`] enumerates it in a fixed axis order
//! (app, platform, cores, scheduler, granularity, chunking, SPM), which is
//! the order reports present rows in — independent of how many worker
//! threads evaluate them.

pub use argo_adl::PlatformKind;
use argo_core::SchedulerKind;
use argo_htg::Granularity;
use argo_wcet::system::MhpMode;

/// One fully-specified toolflow configuration to compile and analyze.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationPoint {
    /// Use-case / registered program name.
    pub app: String,
    /// Target platform family.
    pub platform: PlatformKind,
    /// Core count.
    pub cores: usize,
    /// Mapping/scheduling strategy.
    pub scheduler: SchedulerKind,
    /// Task extraction granularity.
    pub granularity: Granularity,
    /// Whether DOALL loops are chunked to the core count.
    pub chunk_loops: bool,
    /// Per-core scratchpad override in bytes (`None` = platform default).
    pub spm_bytes: Option<u64>,
    /// MHP precision of the system-level analysis.
    pub mhp: MhpMode,
}

impl ExplorationPoint {
    /// Compact single-line descriptor, e.g.
    /// `egpws/bus/4c/list/loop/chunk/spm=default`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}c/{}/{}/{}/spm={}",
            self.app,
            self.platform,
            self.cores,
            self.scheduler.label(),
            self.granularity.label(),
            if self.chunk_loops { "chunk" } else { "nochunk" },
            match self.spm_bytes {
                Some(b) => b.to_string(),
                None => "default".to_string(),
            },
        )
    }
}

/// Builder for the exploration lattice. Every axis defaults to a single
/// sensible value, so callers only widen the axes they sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Use-case names (resolved by the [`crate::Explorer`]).
    pub apps: Vec<String>,
    /// Platform families.
    pub platforms: Vec<PlatformKind>,
    /// Core counts.
    pub cores: Vec<usize>,
    /// Scheduler kinds.
    pub schedulers: Vec<SchedulerKind>,
    /// Task granularities.
    pub granularities: Vec<Granularity>,
    /// Chunking on/off variants.
    pub chunking: Vec<bool>,
    /// Per-core SPM capacities (`None` = platform default).
    pub spm_capacities: Vec<Option<u64>>,
    /// MHP precision (single value — it only affects analysis, not code).
    pub mhp: MhpMode,
    /// Feedback iterations for every point.
    pub feedback_rounds: u32,
    /// Seed for synthetic use-case inputs.
    pub seed: u64,
}

impl Default for DesignSpace {
    fn default() -> DesignSpace {
        DesignSpace {
            apps: Vec::new(),
            platforms: vec![PlatformKind::Bus],
            cores: vec![4],
            schedulers: vec![SchedulerKind::List],
            granularities: vec![Granularity::Loop],
            chunking: vec![true],
            spm_capacities: vec![None],
            mhp: MhpMode::Static,
            feedback_rounds: 3,
            seed: 42,
        }
    }
}

impl DesignSpace {
    /// Empty space with default axes; add at least one app before use.
    pub fn new() -> DesignSpace {
        DesignSpace::default()
    }

    /// Adds one use case.
    pub fn app(mut self, name: &str) -> DesignSpace {
        self.apps.push(name.to_string());
        self
    }

    /// Replaces the use-case axis.
    pub fn apps<I: IntoIterator<Item = String>>(mut self, names: I) -> DesignSpace {
        self.apps = names.into_iter().collect();
        self
    }

    /// Replaces the platform axis.
    pub fn platforms(mut self, kinds: Vec<PlatformKind>) -> DesignSpace {
        self.platforms = kinds;
        self
    }

    /// Replaces the core-count axis.
    pub fn cores(mut self, counts: Vec<usize>) -> DesignSpace {
        self.cores = counts;
        self
    }

    /// Replaces the scheduler axis.
    pub fn schedulers(mut self, kinds: Vec<SchedulerKind>) -> DesignSpace {
        self.schedulers = kinds;
        self
    }

    /// Replaces the granularity axis.
    pub fn granularities(mut self, grans: Vec<Granularity>) -> DesignSpace {
        self.granularities = grans;
        self
    }

    /// Replaces the chunking axis.
    pub fn chunking(mut self, variants: Vec<bool>) -> DesignSpace {
        self.chunking = variants;
        self
    }

    /// Replaces the SPM-capacity axis.
    pub fn spm_capacities(mut self, caps: Vec<Option<u64>>) -> DesignSpace {
        self.spm_capacities = caps;
        self
    }

    /// Sets the MHP mode for every point.
    pub fn mhp(mut self, mode: MhpMode) -> DesignSpace {
        self.mhp = mode;
        self
    }

    /// Sets the feedback-round budget for every point.
    pub fn feedback_rounds(mut self, rounds: u32) -> DesignSpace {
        self.feedback_rounds = rounds;
        self
    }

    /// Sets the synthetic-input seed.
    pub fn seed(mut self, seed: u64) -> DesignSpace {
        self.seed = seed;
        self
    }

    /// Number of points the lattice enumerates.
    pub fn len(&self) -> usize {
        self.apps.len()
            * self.platforms.len()
            * self.cores.len()
            * self.schedulers.len()
            * self.granularities.len()
            * self.chunking.len()
            * self.spm_capacities.len()
    }

    /// Whether the lattice is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every point in deterministic axis order.
    pub fn points(&self) -> Vec<ExplorationPoint> {
        let mut out = Vec::with_capacity(self.len());
        for app in &self.apps {
            for &platform in &self.platforms {
                for &cores in &self.cores {
                    for &scheduler in &self.schedulers {
                        for &granularity in &self.granularities {
                            for &chunk_loops in &self.chunking {
                                for &spm_bytes in &self.spm_capacities {
                                    out.push(ExplorationPoint {
                                        app: app.clone(),
                                        platform,
                                        cores,
                                        scheduler,
                                        granularity,
                                        chunk_loops,
                                        spm_bytes,
                                        mhp: self.mhp,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_product_size_and_order() {
        let space = DesignSpace::new()
            .app("egpws")
            .platforms(PlatformKind::ALL.to_vec())
            .cores(vec![1, 2, 4, 8])
            .schedulers(SchedulerKind::ALL.to_vec());
        let pts = space.points();
        assert_eq!(pts.len(), 24);
        assert_eq!(space.len(), 24);
        // Axis order: platform varies slowest of the swept axes after app.
        assert_eq!(pts[0].platform, PlatformKind::Bus);
        assert_eq!(pts[0].cores, 1);
        assert_eq!(pts[0].scheduler, SchedulerKind::List);
        assert_eq!(pts[1].scheduler, SchedulerKind::BranchAndBound);
        assert_eq!(pts[12].platform, PlatformKind::Noc);
    }

    #[test]
    fn labels_round_trip() {
        for k in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(k.label()).unwrap(), k);
        }
        for g in Granularity::ALL {
            assert_eq!(Granularity::parse(g.label()).unwrap(), g);
        }
        for m in MhpMode::ALL {
            assert_eq!(MhpMode::parse(m.label()).unwrap(), m);
        }
        for p in PlatformKind::ALL {
            assert_eq!(PlatformKind::parse(p.label()).unwrap(), p);
        }
        let errors = [
            SchedulerKind::parse("heft").unwrap_err(),
            Granularity::parse("x").unwrap_err(),
            MhpMode::parse("x").unwrap_err(),
            PlatformKind::parse("x").unwrap_err(),
        ];
        assert_eq!(
            errors,
            [
                "unknown scheduler `heft` (expected list|bnb|anneal)",
                "unknown granularity `x` (expected loop|block|stmt)",
                "unknown MHP mode `x` (expected naive|static|windows)",
                "unknown platform `x` (expected bus|noc)",
            ]
        );
    }

    #[test]
    fn point_label_is_compact() {
        let p = ExplorationPoint {
            app: "egpws".into(),
            platform: PlatformKind::Bus,
            cores: 4,
            scheduler: SchedulerKind::List,
            granularity: Granularity::Loop,
            chunk_loops: true,
            spm_bytes: None,
            mhp: MhpMode::Static,
        };
        assert_eq!(p.label(), "egpws/bus/4c/list/loop/chunk/spm=default");
    }
}
