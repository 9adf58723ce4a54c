//! Random-forest benchmarks, including the forest-size ablation
//! called out in DESIGN.md.
//!
//! Runs under [`CountingAllocator`], so every row carries allocator
//! traffic and the live-heap high-water mark (`peak_alloc_bytes`)
//! next to the wall-clock numbers.

use synthattr_bench::alloc_counter::CountingAllocator;
use synthattr_bench::harness::Group;
use synthattr_ml::dataset::Dataset;
use synthattr_ml::forest::{ForestConfig, RandomForest};
use synthattr_ml::select::select_top_k;
use synthattr_util::Pcg64;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A synthetic multi-class dataset shaped like the attribution task
/// (many classes, wide features).
fn synthetic(n_classes: usize, per_class: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = Pcg64::new(seed);
    let mut ds = Dataset::new(n_classes);
    // Per-class centroids.
    let centroids: Vec<Vec<f64>> = (0..n_classes)
        .map(|_| (0..dim).map(|_| rng.next_f64() * 4.0).collect())
        .collect();
    for (label, centroid) in centroids.iter().enumerate() {
        for _ in 0..per_class {
            let row = centroid
                .iter()
                .map(|&c| c + rng.next_gaussian(0.0, 0.6))
                .collect();
            ds.push(row, label);
        }
    }
    ds
}

fn main() {
    let train = synthetic(24, 12, 150, 1);
    let test = synthetic(24, 4, 150, 2);

    let mut group = Group::new("forest");
    group.measure_allocs(true);

    for n_trees in [25usize, 50, 100] {
        let cfg = ForestConfig {
            n_trees,
            ..ForestConfig::default()
        };
        group.bench(&format!("train/{n_trees}"), || {
            std::hint::black_box(RandomForest::fit(&train, &cfg, &mut Pcg64::new(7)));
        });
    }

    let forest = RandomForest::fit(&train, &ForestConfig::default(), &mut Pcg64::new(7));
    group.bench("predict_serial", || {
        for i in 0..test.len() {
            std::hint::black_box(forest.predict(test.row(i)));
        }
    });
    group.bench("predict_batch", || {
        std::hint::black_box(forest.predict_all(&test));
    });

    group.bench("info_gain_selection", || {
        std::hint::black_box(select_top_k(&train, 50));
    });

    // Feature-selection ablation: training on the top-50 projection.
    let projected = train.project(&select_top_k(&train, 50));
    let cfg = ForestConfig::default();
    group.bench("train_selected_features", || {
        std::hint::black_box(RandomForest::fit(&projected, &cfg, &mut Pcg64::new(7)));
    });
}
