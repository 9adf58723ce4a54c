//! The training-side abstraction over in-RAM and on-disk datasets.
//!
//! Sharded forest training (and any other streaming consumer) asks
//! only for *row ranges*; whether they come from a resident
//! [`Dataset`] or an on-disk [`ColumnStore`] is this trait's problem.
//! Both backends return small in-RAM `Dataset`s, so the tree trainer
//! itself never changes — out-of-core is purely about which rows are
//! resident at once.

use crate::colstore::ColumnStore;
use crate::dataset::Dataset;
use std::io;

/// A source of labelled feature rows addressable by range.
///
/// Implementations must be cheap to share (`&self` methods only), so
/// the worker pool can load different ranges concurrently.
pub trait DatasetSource: Sync {
    /// Total rows.
    fn len(&self) -> usize;

    /// Whether the source holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature columns per row.
    fn dim(&self) -> usize;

    /// Label space size.
    fn n_classes(&self) -> usize;

    /// Materializes rows `[start, start + count)` as an in-RAM
    /// [`Dataset`].
    ///
    /// # Errors
    ///
    /// I/O or validation failure from the backend; an out-of-bounds
    /// range is an error, not a panic.
    fn load_rows(&self, start: usize, count: usize) -> io::Result<Dataset>;
}

impl DatasetSource for Dataset {
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    fn dim(&self) -> usize {
        Dataset::dim(self)
    }

    fn n_classes(&self) -> usize {
        Dataset::n_classes(self)
    }

    fn load_rows(&self, start: usize, count: usize) -> io::Result<Dataset> {
        let end = start.checked_add(count).filter(|&e| e <= self.len());
        let Some(end) = end else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("range {start}+{count} out of bounds (len {})", self.len()),
            ));
        };
        let indices: Vec<usize> = (start..end).collect();
        Ok(self.subset(&indices))
    }
}

impl DatasetSource for ColumnStore {
    fn len(&self) -> usize {
        ColumnStore::len(self)
    }

    fn dim(&self) -> usize {
        ColumnStore::dim(self)
    }

    fn n_classes(&self) -> usize {
        ColumnStore::n_classes(self)
    }

    fn load_rows(&self, start: usize, count: usize) -> io::Result<Dataset> {
        self.read_rows(start, count).map_err(io::Error::from)
    }
}

/// Streams every row of `source` through `f` in order, materializing
/// at most `batch` rows at a time — the single-pass shape the
/// reservoir sampler and the out-of-core store-building loops share.
pub fn for_each_row<S: DatasetSource + ?Sized>(
    source: &S,
    batch: usize,
    mut f: impl FnMut(&[f64], usize),
) -> io::Result<()> {
    let n = source.len();
    let batch = batch.max(1);
    let mut start = 0usize;
    while start < n {
        let count = batch.min(n - start);
        let ds = source.load_rows(start, count)?;
        for i in 0..ds.len() {
            f(ds.row(i), ds.label(i));
        }
        start += count;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colstore::ColumnStoreWriter;
    use synthattr_util::Pcg64;

    fn sample_dataset(n: usize) -> Dataset {
        let mut rng = Pcg64::new(17);
        let mut ds = Dataset::new(5);
        for _ in 0..n {
            ds.push(
                vec![rng.next_f64(), rng.next_f64(), rng.next_f64()],
                rng.next_below(5),
            );
        }
        ds
    }

    #[test]
    fn dataset_source_slices_rows() {
        let ds = sample_dataset(30);
        let src: &dyn DatasetSource = &ds;
        assert_eq!(src.len(), 30);
        assert_eq!(src.dim(), 3);
        assert_eq!(src.n_classes(), 5);
        let part = src.load_rows(10, 5).unwrap();
        assert_eq!(part.len(), 5);
        for i in 0..5 {
            assert_eq!(part.row(i), ds.row(10 + i));
            assert_eq!(part.label(i), ds.label(10 + i));
        }
        assert!(src.load_rows(28, 3).is_err());
    }

    #[test]
    fn colstore_and_dataset_sources_agree() {
        let ds = sample_dataset(41);
        let mut path = std::env::temp_dir();
        path.push(format!("synthattr_source_{}.cols", std::process::id()));
        let mut w = ColumnStoreWriter::create(&path, ds.dim(), ds.n_classes(), 7).unwrap();
        for i in 0..ds.len() {
            w.push_row(ds.row(i), ds.label(i)).unwrap();
        }
        let store = w.finish().unwrap();
        for (start, count) in [(0usize, 41usize), (5, 13), (40, 1)] {
            let a = DatasetSource::load_rows(&ds, start, count).unwrap();
            let b = DatasetSource::load_rows(&store, start, count).unwrap();
            assert_eq!(a, b, "range {start}+{count}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn for_each_row_visits_everything_in_order() {
        let ds = sample_dataset(23);
        for batch in [1usize, 7, 23, 100] {
            let mut seen = Vec::new();
            for_each_row(&ds, batch, |row, label| {
                seen.push((row.to_vec(), label));
            })
            .unwrap();
            assert_eq!(seen.len(), 23, "batch {batch}");
            for (i, (row, label)) in seen.iter().enumerate() {
                assert_eq!(row.as_slice(), ds.row(i));
                assert_eq!(*label, ds.label(i));
            }
        }
    }
}
