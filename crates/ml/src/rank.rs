//! The rank encoding a forest trains from.
//!
//! Split search only ever asks two questions of a feature value: how
//! it orders against the node's other values, and whether it equals
//! its neighbour. Both are answered by the value's *rank* among its
//! column's distinct values, so [`RankEncoding`] stores, per column,
//! each row's `u32` rank next to the ascending table of distinct
//! values the ranks index. The forest trainers build it once per fit
//! and every tree reads it without changing it; tree growth never
//! touches the `Dataset` rows (DESIGN.md §7).
//!
//! Distinct means float `==`: `-0.0` and `+0.0` share a rank, whose
//! table entry is `-0.0` when the column holds it (it sorts first).
//! Every NaN row gets a rank of its own, because `NaN != NaN` (a
//! positive NaN ranks after every number, a negative one before).
//! Ranks order rows exactly as [`f64::total_cmp`] does, with `-0.0`
//! and `+0.0` merged.

use crate::dataset::Dataset;

/// A training set, encoded column by column as value ranks.
///
/// Costs `n × d × 4` bytes of ranks plus the distinct-value tables
/// (at most `n × d × 8` bytes, far less on tie-heavy features).
#[derive(Debug, Clone)]
pub(crate) struct RankEncoding {
    rows: usize,
    columns: Vec<Column>,
    labels: Vec<u32>,
    n_classes: usize,
}

/// One encoded column, each part allocated at its exact size.
#[derive(Debug, Clone)]
struct Column {
    /// `ranks[i]`: row `i`'s rank.
    ranks: Box<[u32]>,
    /// The column's ascending distinct values, indexed by rank.
    values: Box<[f64]>,
}

/// While [`RankEncoding::from_rows`] encodes, the rows give back the
/// memory of the columns already encoded after every this many.
const RELEASE_COLUMNS: usize = 16;

impl RankEncoding {
    /// Encodes every row and label of `data`.
    pub(crate) fn new(data: &Dataset) -> Self {
        let mut encoder = ColumnEncoder::new(data.len());
        let columns = (0..data.dim())
            .map(|f| encoder.encode(|i| data.row(i)[f]))
            .collect();
        Self::assemble(data.len(), columns, data.labels(), data.n_classes())
    }

    /// Encodes `data` like [`Self::new`] but consumes it, encoding the
    /// columns last to first and truncating every row behind them, so
    /// the rows and the encoding are never both whole in memory.
    pub(crate) fn from_rows(data: Dataset) -> Self {
        let (mut rows, labels, n_classes) = data.into_parts();
        let n = rows.len();
        let dim = rows.first().map_or(0, Vec::len);
        let mut encoder = ColumnEncoder::new(n);
        let mut columns = Vec::with_capacity(dim);
        for f in (0..dim).rev() {
            columns.push(encoder.encode(|i| rows[i][f]));
            if f % RELEASE_COLUMNS == 0 {
                for row in &mut rows {
                    row.truncate(f);
                    row.shrink_to_fit();
                }
            }
        }
        drop(rows);
        columns.reverse();
        Self::assemble(n, columns, &labels, n_classes)
    }

    /// Joins the encoded columns with the labels.
    ///
    /// # Panics
    ///
    /// Panics if there are more classes than a `u32` counts.
    fn assemble(rows: usize, columns: Vec<Column>, labels: &[usize], n_classes: usize) -> Self {
        assert!(
            u32::try_from(n_classes).is_ok(),
            "rank encoding holds labels as u32"
        );
        RankEncoding {
            rows,
            columns,
            labels: labels.iter().map(|&l| l as u32).collect(),
            n_classes,
        }
    }

    /// Number of encoded rows.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Feature dimension.
    pub(crate) fn dim(&self) -> usize {
        self.columns.len()
    }

    /// Number of classes the label space admits.
    pub(crate) fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Row `i`'s label.
    #[inline]
    pub(crate) fn label(&self, i: usize) -> usize {
        self.labels[i] as usize
    }

    /// Every row's rank in column `f`, indexed by row.
    #[inline]
    pub(crate) fn ranks(&self, f: usize) -> &[u32] {
        &self.columns[f].ranks
    }

    /// Column `f`'s ascending distinct values, indexed by rank.
    #[inline]
    pub(crate) fn values(&self, f: usize) -> &[f64] {
        &self.columns[f].values
    }

    /// Row `i`'s value in column `f`, up to the sign of a zero.
    #[inline]
    pub(crate) fn value(&self, f: usize, i: usize) -> f64 {
        let column = &self.columns[f];
        column.values[column.ranks[i] as usize]
    }
}

/// Scratch for encoding columns of `rows` rows one at a time.
struct ColumnEncoder {
    rows: usize,
    order: Vec<(u64, u32)>,
    distinct: Vec<f64>,
}

impl ColumnEncoder {
    /// # Panics
    ///
    /// Panics if there are more rows than a `u32` counts.
    fn new(rows: usize) -> Self {
        assert!(
            u32::try_from(rows).is_ok(),
            "rank encoding holds ranks and row ids as u32"
        );
        ColumnEncoder {
            rows,
            order: Vec::with_capacity(rows),
            distinct: Vec::with_capacity(rows),
        }
    }

    /// Ranks the column whose row `i` holds `value(i)`.
    fn encode(&mut self, value: impl Fn(usize) -> f64) -> Column {
        let ColumnEncoder {
            rows,
            order,
            distinct,
        } = self;
        order.clear();
        order.extend((0..*rows).map(|i| (total_cmp_key(value(i)), i as u32)));
        order.sort_unstable();
        distinct.clear();
        let mut ranks = vec![0u32; *rows].into_boxed_slice();
        for &(key, i) in order.iter() {
            let v = key_to_f64(key);
            // `-0.0` and `+0.0` share a rank (`==`), and each NaN
            // opens its own (`NaN != NaN`).
            if distinct.last() != Some(&v) {
                distinct.push(v);
            }
            ranks[i as usize] = (distinct.len() - 1) as u32;
        }
        Column {
            ranks,
            values: Box::from(distinct.as_slice()),
        }
    }
}

/// Order-preserving integer image of an `f64`: sorting keys ascending
/// orders the originals exactly as [`f64::total_cmp`] ascending would
/// (NaN after every finite value). This is the same bit transform
/// `total_cmp` applies per comparison — hoisted to once per element.
#[inline]
fn total_cmp_key(v: f64) -> u64 {
    let bits = v.to_bits();
    // Negatives: flip all bits (reverses their order). Non-negatives:
    // flip only the sign bit (lifts them above all negatives).
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Exact inverse of [`total_cmp_key`]: recovers the original bits, so
/// the distinct-value table holds the values themselves.
#[inline]
fn key_to_f64(key: u64) -> f64 {
    let mask = if key & (1 << 63) != 0 { 1 << 63 } else { !0u64 };
    f64::from_bits(key ^ mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_key_round_trips_and_orders_like_total_cmp() {
        let specials = [
            f64::NEG_INFINITY,
            -1.5e300,
            -1.0,
            -f64::MIN_POSITIVE / 2.0, // negative subnormal
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            1.5e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &specials {
            // Bit-exact round trip (NaN payloads included).
            assert_eq!(key_to_f64(total_cmp_key(a)).to_bits(), a.to_bits());
            for &b in &specials {
                assert_eq!(
                    total_cmp_key(a).cmp(&total_cmp_key(b)),
                    a.total_cmp(&b),
                    "key order diverges from total_cmp for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn ranks_merge_signed_zeros_and_order_like_total_cmp() {
        let column = [2.5, -0.0, -1.0, 0.0, 2.5, 0.0, -1.0, 7.0];
        let mut ds = Dataset::new(3);
        for (i, &v) in column.iter().enumerate() {
            ds.push(vec![v, 4.0], i % 3);
        }
        let enc = RankEncoding::new(&ds);
        assert_eq!((enc.len(), enc.dim(), enc.n_classes()), (8, 2, 3));
        assert_eq!(enc.ranks(0), &[2, 1, 0, 1, 2, 1, 0, 3]);
        let bits: Vec<u64> = enc.values(0).iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = [-1.0, -0.0, 2.5, 7.0]
            .iter()
            .map(|v: &f64| v.to_bits())
            .collect();
        assert_eq!(bits, want, "the zero class keeps -0.0, which sorts first");
        assert_eq!(enc.ranks(1), &[0; 8]);
        assert_eq!(enc.values(1), &[4.0]);
        for (i, &v) in column.iter().enumerate() {
            assert_eq!(enc.value(0, i), v, "row {i}");
            assert_eq!(enc.label(i), i % 3);
        }
    }

    #[test]
    fn consuming_the_rows_encodes_the_same_columns() {
        // Wider than one release block, so rows are truncated mid-way.
        let dim = 2 * RELEASE_COLUMNS + 3;
        let mut ds = Dataset::new(4);
        for i in 0..40usize {
            let row = (0..dim)
                .map(|f| ((i * 7 + f * 3) % 11) as f64 - 5.0)
                .collect();
            ds.push(row, i % 4);
        }
        let borrowed = RankEncoding::new(&ds);
        let consumed = RankEncoding::from_rows(ds);
        assert_eq!(consumed.dim(), dim);
        assert_eq!(consumed.labels, borrowed.labels);
        for f in 0..dim {
            assert_eq!(consumed.ranks(f), borrowed.ranks(f), "column {f}");
            assert_eq!(consumed.values(f), borrowed.values(f), "column {f}");
        }
    }

    #[test]
    fn every_nan_row_gets_a_rank_of_its_own() {
        let mut ds = Dataset::new(2);
        for v in [f64::NAN, 1.0, f64::NAN, -f64::NAN, 1.0] {
            ds.push_unchecked(vec![v], 0);
        }
        let enc = RankEncoding::new(&ds);
        // -NaN sorts before every number, +NaN after; equal bits still
        // get one rank per row (row order breaks the tie).
        assert_eq!(enc.ranks(0), &[2, 1, 3, 0, 1]);
        assert_eq!(enc.values(0).len(), 4);
    }
}
