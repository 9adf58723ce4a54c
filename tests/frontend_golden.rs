//! Golden digest of the frontend's outputs over the paper's grid.
//!
//! Every table comes from NCT/CT chains that the cached frontend
//! parses, lints, fingerprints and featurizes. This test rebuilds a
//! tiny version of every year pipeline and compares FNV-1a digests of
//! what the frontend produced against `tests/golden/frontend_grid.txt`:
//!
//! * all nine style pools (years 2017–2019 × root seeds 1–3) at
//!   recoverable fault rates 0%, 5% and 20%, so both protocols run
//!   through the fault-free and the resilient drivers;
//! * one brutal-profile build, whose NCT resamples and CT held steps
//!   take the degraded paths;
//! * Tables IV–X and Figure 1 per year at seed 2, rate 5%, plus the
//!   combined Table X.
//!
//! Debug builds also run every per-call `debug_assert` oracle in
//! `gpt::incr` (cached render, region scans, hand-through parse,
//! per-item features) while the grid builds.
//!
//! The test compares the grid twice: first with the `node=` cache
//! counters left out, then whole, so a failure says whether outputs
//! moved or only node counters did. When a change alters them on
//! purpose, the failure message carries the whole fresh file: replace
//! the golden file with it, and the diff is the review record of what
//! moved.

use std::fmt::Write as _;
use std::hash::Hasher;
use synthattr::analysis::fingerprint_source;
use synthattr::core::config::{ExperimentConfig, Scale};
use synthattr::core::experiments::attribution::{self, Grouping};
use synthattr::core::experiments::{binary, diversity, figures, styles};
use synthattr::core::pipeline::YearPipeline;
use synthattr::faults::FaultProfile;
use synthattr::lang::hash::Fnv64;

const GOLDEN: &str = include_str!("golden/frontend_grid.txt");

const YEARS: [u32; 3] = [2017, 2018, 2019];
const SEEDS: [u64; 3] = [1, 2, 3];
const RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// A deliberately tiny scale: the grid builds 28 pipelines, and the
/// frontend runs the same code at paper scale with bigger loops.
fn tiny(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke();
    cfg.seed = seed;
    cfg.scale = Scale {
        authors: 6,
        challenges: 2,
        transforms: 4,
        n_trees: 4,
    };
    cfg
}

fn config(seed: u64, rate: f64) -> ExperimentConfig {
    let cfg = tiny(seed);
    if rate > 0.0 {
        cfg.with_faults(FaultProfile::recoverable(seed, rate))
    } else {
        cfg
    }
}

fn build(year: u32, cfg: &ExperimentConfig) -> YearPipeline {
    YearPipeline::try_build(year, cfg).unwrap_or_else(|e| panic!("build {year} failed: {e}"))
}

/// FNV-1a over one field's byte stream.
#[derive(Default)]
struct Digest(Fnv64);

impl Digest {
    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.write(&(b.len() as u64).to_le_bytes());
        self.0.write(b);
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.0.write(&v.to_le_bytes());
        self
    }

    fn f64s(&mut self, v: &[f64]) -> &mut Self {
        self.u64(v.len() as u64);
        for x in v {
            self.u64(x.to_bits());
        }
        self
    }

    fn debug(&mut self, v: &dyn std::fmt::Debug) -> &mut Self {
        self.bytes(format!("{v:?}").as_bytes())
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
}

/// One line of digests over everything the frontend produced for `p`.
fn point_line(label: &str, p: &YearPipeline) -> String {
    let mut human = Digest::default();
    for f in &p.human_features {
        human.f64s(f);
    }
    let (mut transformed, mut samples, mut fingerprints) =
        (Digest::default(), Digest::default(), Digest::default());
    for t in &p.transformed {
        transformed.f64s(&t.features);
        samples
            .bytes(t.sample.source.as_bytes())
            .u64(t.oracle_label as u64)
            .debug(&t.outcome);
        let fp = fingerprint_source(&t.sample.source)
            .unwrap_or_else(|e| panic!("{label}: transformed sample must parse: {e}"));
        fingerprints.u64(fp);
    }
    let fe = &p.frontend;
    format!(
        "{label} human={} transformed={} samples={} fingerprints={} diagnostics={} resilience={} \
         artifact={}/{} node={}/{}",
        human.hex(),
        transformed.hex(),
        samples.hex(),
        fingerprints.hex(),
        Digest::default().debug(&p.diagnostics).hex(),
        Digest::default().debug(&p.resilience).hex(),
        fe.cache_hits,
        fe.cache_misses,
        fe.node_hits,
        fe.node_misses,
    )
}

/// One line of digests over the paper artifacts derived from `p`.
fn tables_line(label: &str, p: &YearPipeline) -> String {
    let hex = |v: &dyn std::fmt::Debug| Digest::default().debug(v).hex();
    format!(
        "{label} table4={} tables5_7={} table8={} table9={} table10={} figure1={}",
        hex(&styles::run(p)),
        hex(&diversity::run(p)),
        hex(&attribution::run(p, Grouping::Naive)),
        hex(&attribution::run(p, Grouping::FeatureBased)),
        hex(&binary::run_individual(p)),
        hex(&figures::figure1(p)),
    )
}

fn fresh_grid() -> String {
    let mut out = String::new();
    let mut table_years = Vec::new();
    for year in YEARS {
        for seed in SEEDS {
            for rate in RATES {
                let p = build(year, &config(seed, rate));
                let label = format!("grid year={year} seed={seed} rate={rate:.2}");
                writeln!(out, "{}", point_line(&label, &p)).unwrap();
                if seed == 2 && rate == 0.05 {
                    table_years.push(p);
                }
            }
        }
    }
    let brutal = build(2018, &tiny(3).with_faults(FaultProfile::brutal(3)));
    writeln!(out, "{}", point_line("brutal year=2018 seed=3", &brutal)).unwrap();
    for p in &table_years {
        let label = format!("tables year={} seed=2 rate=0.05", p.year);
        writeln!(out, "{}", tables_line(&label, p)).unwrap();
    }
    let combined = binary::run_combined(&table_years);
    writeln!(
        out,
        "tables combined seed=2 rate=0.05 table10={}",
        Digest::default().debug(&combined).hex()
    )
    .unwrap();
    out
}

/// `grid` without the `node=` fields.
fn without_node_counters(grid: &str) -> String {
    grid.lines()
        .map(|line| {
            let fields: Vec<&str> = line
                .split(' ')
                .filter(|f| !f.starts_with("node="))
                .collect();
            fields.join(" ") + "\n"
        })
        .collect()
}

#[test]
fn frontend_outputs_match_the_golden_grid() {
    let fresh = fresh_grid();
    assert!(
        without_node_counters(&fresh) == without_node_counters(GOLDEN),
        "frontend outputs drifted from tests/golden/frontend_grid.txt; if the change is \
         intended, replace that file with:\n{fresh}"
    );
    assert!(
        fresh == GOLDEN,
        "only the node= counters drifted from tests/golden/frontend_grid.txt; if the change \
         is intended, replace that file with:\n{fresh}"
    );
}
