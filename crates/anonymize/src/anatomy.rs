//! Anatomy: l-diverse bucketization (Xiao & Tao, VLDB 2006 — reference
//! \[28\] of the paper).
//!
//! Instead of perturbing values, Anatomy *separates* them: records are
//! partitioned into buckets in which every SA value appears at most once
//! per `l` members (distinct l-diversity), and two tables are published —
//! a QI table (record → public attributes + bucket id) and an SA table
//! (bucket id → SA histogram). Within a bucket the linkage between a
//! record and its SA value is broken; an adversary's posterior for any
//! record is the bucket's SA distribution.
//!
//! The bucketization below is the paper's own greedy algorithm: repeatedly
//! open a bucket and fill it with one record from each of the `l`
//! currently-largest SA groups; leftover records (fewer than `l` distinct
//! values remain) are assigned to existing buckets that do not yet contain
//! their SA value.
//!
//! Count queries are answered with the standard uniform-within-bucket
//! estimator: a record of bucket `B` matching the `NA` conditions
//! contributes `count_B(sa) / |B|` to the estimate of `NA ∧ SA = sa`.

use std::collections::HashMap;

use rp_table::{AttrId, CountQuery, Table};

/// Errors raised by the anatomization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnatomyError {
    /// The eligibility condition fails: some SA value occurs in more than
    /// `|D|/l` records, so no l-diverse partition exists.
    Ineligible {
        /// The SA code that is too frequent.
        sa_code: u32,
        /// Its count.
        count: u64,
        /// The maximum admissible count.
        max_allowed: u64,
    },
    /// `l` must be at least 2 and at most the SA domain size.
    InvalidL {
        /// The requested `l`.
        l: usize,
        /// The SA domain size.
        m: usize,
    },
    /// The table is empty.
    EmptyTable,
}

impl std::fmt::Display for AnatomyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnatomyError::Ineligible {
                sa_code,
                count,
                max_allowed,
            } => write!(
                f,
                "SA code {sa_code} occurs {count} times, above the l-eligibility cap {max_allowed}"
            ),
            AnatomyError::InvalidL { l, m } => {
                write!(
                    f,
                    "l = {l} invalid for SA domain size {m} (need 2 <= l <= m)"
                )
            }
            AnatomyError::EmptyTable => write!(f, "cannot anatomize an empty table"),
        }
    }
}

impl std::error::Error for AnatomyError {}

/// An anatomized publication: QI table and per-bucket SA histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnatomizedTable {
    sa_attr: AttrId,
    l: usize,
    /// Bucket id of every record (parallel to the source table's rows).
    bucket_of: Vec<u32>,
    /// Per-bucket SA histograms (the published SA table).
    buckets: Vec<Vec<u64>>,
}

impl AnatomizedTable {
    /// Anatomizes `table` into distinct-l-diverse buckets.
    ///
    /// # Errors
    ///
    /// Returns [`AnatomyError`] when `l` is out of range, the table is
    /// empty, or the eligibility condition (`max SA count <= |D|/l`)
    /// fails.
    pub fn build(table: &Table, sa_attr: AttrId, l: usize) -> Result<Self, AnatomyError> {
        let m = table.schema().attribute(sa_attr).domain_size();
        if l < 2 || l > m {
            return Err(AnatomyError::InvalidL { l, m });
        }
        if table.is_empty() {
            return Err(AnatomyError::EmptyTable);
        }
        let n = table.rows() as u64;
        // Group row ids by SA value.
        let mut by_sa: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (row, &code) in table.column(sa_attr).codes().iter().enumerate() {
            by_sa[code as usize].push(row as u32);
        }
        // Strict eligibility (Xiao & Tao): every SA frequency at most n/l.
        // This is what guarantees the residue phase always finds a
        // value-free bucket.
        let max_allowed = n / l as u64;
        for (code, rows) in by_sa.iter().enumerate() {
            if rows.len() as u64 > max_allowed {
                return Err(AnatomyError::Ineligible {
                    sa_code: code as u32,
                    count: rows.len() as u64,
                    max_allowed,
                });
            }
        }

        let mut bucket_of = vec![u32::MAX; table.rows()];
        let mut buckets: Vec<Vec<u64>> = Vec::new();
        // Greedy: while at least l non-empty SA groups remain, open a
        // bucket with one record from each of the l largest groups.
        loop {
            let mut order: Vec<usize> = (0..m).filter(|&v| !by_sa[v].is_empty()).collect();
            if order.len() < l {
                break;
            }
            order.sort_by_key(|&v| std::cmp::Reverse(by_sa[v].len()));
            let bucket_id = buckets.len() as u32;
            let mut hist = vec![0u64; m];
            for &v in order.iter().take(l) {
                let row = by_sa[v].pop().expect("group non-empty");
                bucket_of[row as usize] = bucket_id;
                hist[v] += 1;
            }
            buckets.push(hist);
        }
        // Residue: fewer than l distinct values remain. Each leftover
        // record goes to some existing bucket not containing its value
        // (guaranteed to exist by eligibility).
        for v in 0..m {
            while let Some(row) = by_sa[v].pop() {
                let target = buckets
                    .iter()
                    .position(|hist| hist[v] == 0)
                    .expect("eligibility guarantees a value-free bucket");
                bucket_of[row as usize] = target as u32;
                buckets[target][v] += 1;
            }
        }
        debug_assert!(bucket_of.iter().all(|&b| b != u32::MAX));
        Ok(Self {
            sa_attr,
            l,
            bucket_of,
            buckets,
        })
    }

    /// The diversity parameter `l`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket id of a record.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn bucket_of(&self, row: usize) -> u32 {
        self.bucket_of[row]
    }

    /// The SA histogram of a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    pub fn bucket_histogram(&self, bucket: u32) -> &[u64] {
        &self.buckets[bucket as usize]
    }

    /// Verifies distinct l-diversity of every bucket (each SA value at
    /// most once per `l` members; with the greedy construction every value
    /// appears at most ⌈|B|/l⌉ times).
    pub fn is_l_diverse(&self) -> bool {
        self.buckets.iter().all(|hist| {
            let size: u64 = hist.iter().sum();
            let cap = size.div_ceil(self.l as u64);
            hist.iter().all(|&c| c <= cap)
        })
    }

    /// The standard Anatomy count estimator for `NA ∧ SA = sa`: every
    /// record matching the `NA` pattern contributes its bucket's
    /// `count(sa)/|B|`.
    ///
    /// `source` must be the table the anatomization was built from (the QI
    /// attributes are published as-is, so evaluating the pattern against
    /// it is exactly what a consumer of the QI table would do).
    ///
    /// # Panics
    ///
    /// Panics if `source` has a different row count than the
    /// anatomization.
    pub fn estimate(&self, source: &Table, query: &CountQuery) -> f64 {
        assert_eq!(
            source.rows(),
            self.bucket_of.len(),
            "source table does not match the anatomization"
        );
        let sa = query.sa_value() as usize;
        // Pre-compute per-bucket contribution of one matching record.
        let contribution: Vec<f64> = self
            .buckets
            .iter()
            .map(|hist| {
                let size: u64 = hist.iter().sum();
                if size == 0 {
                    0.0
                } else {
                    hist[sa] as f64 / size as f64
                }
            })
            .collect();
        let pattern = query.na_pattern();
        let mut estimate = 0.0;
        for row in 0..source.rows() {
            if pattern.matches_row(source, row) {
                estimate += contribution[self.bucket_of[row] as usize];
            }
        }
        estimate
    }
}

/// Convenience map from bucket ids to the rows they contain.
pub fn rows_by_bucket(anatomized: &AnatomizedTable, rows: usize) -> HashMap<u32, Vec<u32>> {
    let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
    for row in 0..rows {
        map.entry(anatomized.bucket_of(row))
            .or_default()
            .push(row as u32);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_table::{Attribute, Schema, TableBuilder};

    fn demo_table(counts: &[u64]) -> Table {
        let m = counts.len();
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::with_anonymous_domain("SA", m),
        ]);
        let mut b = TableBuilder::new(schema);
        for (code, &c) in counts.iter().enumerate() {
            for i in 0..c {
                b.push_codes(&[(i % 2) as u32, code as u32]).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn buckets_partition_all_records() {
        let t = demo_table(&[40, 30, 20, 10]);
        let a = AnatomizedTable::build(&t, 1, 2).unwrap();
        let total: u64 = (0..a.bucket_count())
            .map(|b| a.bucket_histogram(b as u32).iter().sum::<u64>())
            .sum();
        assert_eq!(total, 100);
        let map = rows_by_bucket(&a, t.rows());
        let covered: usize = map.values().map(Vec::len).sum();
        assert_eq!(covered, 100);
    }

    #[test]
    fn every_bucket_is_l_diverse() {
        // Strict eligibility: max count <= total/l for every l tested.
        for (l, counts) in [
            (2usize, vec![40u64, 30, 20, 12]),
            (3, vec![30, 28, 25, 22]),
            (4, vec![26, 26, 26, 26]),
        ] {
            let t = demo_table(&counts);
            let a = AnatomizedTable::build(&t, 1, l).unwrap();
            assert!(a.is_l_diverse(), "l = {l}");
            // Bucket ids recorded per row match the histograms.
            for row in 0..t.rows() {
                let b = a.bucket_of(row);
                assert!((b as usize) < a.bucket_count());
            }
        }
    }

    #[test]
    fn ineligible_table_rejected() {
        // SA value 0 holds 90 of 100 records: at l = 2 the cap is 50.
        let t = demo_table(&[90, 10]);
        let err = AnatomizedTable::build(&t, 1, 2).unwrap_err();
        assert!(matches!(
            err,
            AnatomyError::Ineligible {
                sa_code: 0,
                count: 90,
                ..
            }
        ));
    }

    #[test]
    fn invalid_l_rejected() {
        let t = demo_table(&[10, 10]);
        assert!(matches!(
            AnatomizedTable::build(&t, 1, 1),
            Err(AnatomyError::InvalidL { .. })
        ));
        assert!(matches!(
            AnatomizedTable::build(&t, 1, 3),
            Err(AnatomyError::InvalidL { .. })
        ));
    }

    #[test]
    fn empty_table_rejected() {
        let schema = Schema::new(vec![
            Attribute::new("G", ["a"]),
            Attribute::with_anonymous_domain("SA", 2),
        ]);
        let t = TableBuilder::new(schema).build();
        assert!(matches!(
            AnatomizedTable::build(&t, 1, 2),
            Err(AnatomyError::EmptyTable)
        ));
    }

    #[test]
    fn sa_marginal_estimates_are_exact() {
        // With no NA condition, Σ_B count_B(sa) is exact by construction.
        let t = demo_table(&[40, 30, 20, 10]);
        let a = AnatomizedTable::build(&t, 1, 2).unwrap();
        for sa in 0..4u32 {
            let q = CountQuery::new(vec![], 1, sa).expect("valid count query");
            let truth = q.answer(&t) as f64;
            assert!((a.estimate(&t, &q) - truth).abs() < 1e-9);
        }
    }

    #[test]
    fn conditioned_estimates_are_reasonable() {
        // G = a selects every other record; the uniform-within-bucket
        // estimator should land near the truth for a balanced table.
        let t = demo_table(&[300, 300, 200, 200]);
        let a = AnatomizedTable::build(&t, 1, 3).unwrap();
        let q = CountQuery::new(vec![(0, 0)], 1, 0).expect("valid count query");
        let truth = q.answer(&t) as f64;
        let est = a.estimate(&t, &q);
        assert!(
            (est - truth).abs() / truth < 0.35,
            "est {est} vs truth {truth}"
        );
    }

    #[test]
    fn error_display_messages() {
        let e = AnatomyError::Ineligible {
            sa_code: 3,
            count: 42,
            max_allowed: 20,
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains("42") && msg.contains("20"));
        assert!(AnatomyError::EmptyTable.to_string().contains("empty"));
    }

    #[test]
    fn residue_records_are_placed() {
        // Uneven counts leave a residue; everything must still be bucketed
        // and l-diverse.
        let t = demo_table(&[7, 5, 3]);
        let a = AnatomizedTable::build(&t, 1, 2).unwrap();
        assert!(a.is_l_diverse());
        let total: u64 = (0..a.bucket_count())
            .map(|b| a.bucket_histogram(b as u32).iter().sum::<u64>())
            .sum();
        assert_eq!(total, 15);
    }
}
