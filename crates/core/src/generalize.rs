//! Generalized personal groups (Section 3.4): merging public-attribute
//! values that have the same impact on the sensitive attribute.
//!
//! For each public attribute `Ai`, every pair of domain values `(xi, xi′)`
//! is submitted to the two-binned χ² test of Equation 4 over their
//! conditional SA histograms. Pairs for which the test *fails to disprove*
//! the same-distribution null hypothesis are connected in a graph, and each
//! connected component is merged into one generalized value. After this
//! preprocessing, every surviving value of `Ai` has a distinct impact on
//! SA, which restores the argument that aggregate groups are not
//! representative of any individual (Tables 4 and 5 measure the effect).

use rp_stats::chi2::{binned_chi2_test, BinnedTestResult};
use rp_stats::gtest::binned_g_test;
use rp_table::{AttrId, Attribute, Column, CountQuery, Table};

use crate::groups::SaSpec;

/// Which two-binned-distribution test decides whether two attribute values
/// share an SA impact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeTest {
    /// The paper's Equation-4 χ² statistic.
    #[default]
    Chi2,
    /// The log-likelihood-ratio (G) test — same null distribution,
    /// provided as an extension ablation.
    GTest,
}

impl MergeTest {
    fn run(self, o: &[u64], o2: &[u64], alpha: f64) -> Option<BinnedTestResult> {
        match self {
            MergeTest::Chi2 => binned_chi2_test(o, o2, alpha),
            MergeTest::GTest => binned_g_test(o, o2, alpha),
        }
    }
}

/// Disjoint-set forest used to merge attribute values into components.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so component representatives
            // are the smallest original codes.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// The per-attribute code translation produced by the merge pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeGeneralization {
    /// The attribute this mapping applies to.
    pub attr: AttrId,
    /// `mapping[old_code] = new_code` into the generalized domain.
    pub mapping: Vec<u32>,
    /// The generalized attribute (new name-preserving dictionary).
    pub generalized: Attribute,
}

impl AttributeGeneralization {
    /// Size of the generalized domain.
    pub fn new_domain_size(&self) -> usize {
        self.generalized.domain_size()
    }
}

/// The full table generalization: one mapping per public attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Generalization {
    per_attr: Vec<AttributeGeneralization>,
    sa: AttrId,
    significance: f64,
}

impl Generalization {
    /// Builds the generalization for `table` under `spec`, testing every
    /// pair of values of every public attribute at the given significance
    /// (the paper fixes 0.05) with `df = m`.
    ///
    /// Values that never occur in the data carry no evidence of a distinct
    /// SA impact; the χ² test returns `None` for them and they are merged
    /// with every tested partner (equivalently: into one catch-all
    /// component).
    ///
    /// # Panics
    ///
    /// Panics unless `significance ∈ (0, 1)`.
    pub fn fit(table: &Table, spec: &SaSpec, significance: f64) -> Self {
        Self::fit_with(table, spec, significance, MergeTest::Chi2)
    }

    /// As [`Generalization::fit`] but with an explicit choice of the
    /// two-binned test (ablation: χ² vs G-test).
    ///
    /// # Panics
    ///
    /// Panics unless `significance ∈ (0, 1)`.
    pub fn fit_with(table: &Table, spec: &SaSpec, significance: f64, test: MergeTest) -> Self {
        assert!(
            significance > 0.0 && significance < 1.0,
            "significance must lie in (0, 1), got {significance}"
        );
        let per_attr = spec
            .na()
            .iter()
            .map(|&attr| Self::fit_attribute(table, spec, attr, significance, test))
            .collect();
        Self {
            per_attr,
            sa: spec.sa(),
            significance,
        }
    }

    fn fit_attribute(
        table: &Table,
        spec: &SaSpec,
        attr: AttrId,
        significance: f64,
        test: MergeTest,
    ) -> AttributeGeneralization {
        let domain = table.schema().attribute(attr).domain_size();
        let m = spec.m();
        // Conditional SA histogram per attribute value: O_i of Section 3.4.
        let mut hists = vec![vec![0u64; m]; domain];
        let value_col = table.column(attr).codes();
        let sa_col = table.column(spec.sa()).codes();
        for (v, s) in value_col.iter().zip(sa_col) {
            hists[*v as usize][*s as usize] += 1;
        }
        // Pairwise tests; connect when the null is NOT rejected.
        let mut uf = UnionFind::new(domain);
        for a in 0..domain {
            for b in a + 1..domain {
                match test.run(&hists[a], &hists[b], significance) {
                    Some(result) if result.rejects_null => {}
                    // Failing to disprove the null — or having no data to
                    // test — merges the pair.
                    _ => uf.union(a, b),
                }
            }
        }
        // Components → new codes in order of their smallest member.
        let root_of: Vec<usize> = (0..domain).map(|v| uf.find(v)).collect();
        let mut roots: Vec<usize> = root_of.clone();
        roots.sort_unstable();
        roots.dedup();
        let mapping: Vec<u32> = root_of
            .iter()
            .map(|r| roots.binary_search(r).expect("root present") as u32)
            .collect();
        // Name each generalized value after its members.
        let dict = table.schema().attribute(attr).dictionary();
        let names: Vec<String> = roots
            .iter()
            .map(|&root| {
                let members: Vec<&str> = (0..domain)
                    .filter(|&v| root_of[v] == root)
                    .map(|v| dict.value(v as u32).expect("code in domain"))
                    .collect();
                if members.len() <= 3 {
                    members.join("|")
                } else {
                    format!("{}|{}|…({} values)", members[0], members[1], members.len())
                }
            })
            .collect();
        AttributeGeneralization {
            attr,
            mapping,
            generalized: Attribute::new(table.schema().attribute(attr).name(), names),
        }
    }

    /// The per-attribute generalizations, in `spec.na()` order.
    pub fn attributes(&self) -> &[AttributeGeneralization] {
        &self.per_attr
    }

    /// The significance level used for the χ² tests.
    pub fn significance(&self) -> f64 {
        self.significance
    }

    /// Translates an original `(attr, code)` pair to the generalized code.
    /// Codes of the SA attribute (and any attribute not generalized) pass
    /// through unchanged.
    pub fn translate(&self, attr: AttrId, code: u32) -> u32 {
        self.per_attr
            .iter()
            .find(|g| g.attr == attr)
            .map_or(code, |g| g.mapping[code as usize])
    }

    /// Rewrites a table onto the generalized schema (the SA column is
    /// untouched).
    pub fn apply(&self, table: &Table) -> Table {
        let mut schema = table.schema().clone();
        for g in &self.per_attr {
            schema = schema.with_attribute_replaced(g.attr, g.generalized.clone());
        }
        let columns: Vec<Column> = (0..table.schema().arity())
            .map(|attr| match self.per_attr.iter().find(|g| g.attr == attr) {
                Some(g) => Column::from_codes(
                    table
                        .column(attr)
                        .codes()
                        .iter()
                        .map(|&c| g.mapping[c as usize])
                        .collect(),
                ),
                None => table.column(attr).clone(),
            })
            .collect();
        Table::from_columns(schema, columns).expect("mapping preserves domains")
    }

    /// Rewrites a count query posed on original values so it can be
    /// answered on the generalized table (Section 6 generates the query
    /// pool on original values, then replaces them with aggregated values).
    pub fn translate_query(&self, query: &CountQuery) -> CountQuery {
        query.map_codes(|attr, code| self.translate(attr, code))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::PersonalGroups;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rp_table::{Attribute, Schema, TableBuilder};

    /// Education has 4 raw values but only 2 distinct SA profiles:
    /// {e0, e1} → mostly sa_0, {e2, e3} → mostly sa_1.
    fn latent_table(rows_per_value: usize) -> Table {
        let schema = Schema::new(vec![
            Attribute::with_anonymous_domain("Edu", 4),
            Attribute::with_anonymous_domain("SA", 3),
        ]);
        let mut rng = StdRng::seed_from_u64(77);
        let mut b = TableBuilder::new(schema);
        for edu in 0u32..4 {
            let profile: [f64; 3] = if edu < 2 {
                [0.8, 0.1, 0.1]
            } else {
                [0.1, 0.1, 0.8]
            };
            for _ in 0..rows_per_value {
                let r: f64 = rng.gen();
                let sa = if r < profile[0] {
                    0
                } else if r < profile[0] + profile[1] {
                    1
                } else {
                    2
                };
                b.push_codes(&[edu, sa]).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn merges_values_with_same_profile() {
        let t = latent_table(2000);
        let spec = SaSpec::new(&t, 1);
        let g = Generalization::fit(&t, &spec, 0.05);
        let edu = &g.attributes()[0];
        assert_eq!(
            edu.new_domain_size(),
            2,
            "four values collapse to two profiles"
        );
        assert_eq!(edu.mapping[0], edu.mapping[1]);
        assert_eq!(edu.mapping[2], edu.mapping[3]);
        assert_ne!(edu.mapping[0], edu.mapping[2]);
    }

    #[test]
    fn apply_rewrites_table_and_schema() {
        let t = latent_table(2000);
        let spec = SaSpec::new(&t, 1);
        let g = Generalization::fit(&t, &spec, 0.05);
        let t2 = g.apply(&t);
        assert_eq!(t2.rows(), t.rows());
        assert_eq!(t2.schema().attribute(0).domain_size(), 2);
        // SA untouched.
        assert_eq!(t2.histogram(1).unwrap(), t.histogram(1).unwrap());
        // Personal groups shrink from 4 to 2.
        let groups_before = PersonalGroups::build(&t, spec.clone());
        let spec2 = SaSpec::new(&t2, 1);
        let groups_after = PersonalGroups::build(&t2, spec2);
        assert_eq!(groups_before.len(), 4);
        assert_eq!(groups_after.len(), 2);
    }

    #[test]
    fn distinct_profiles_survive() {
        // Every value gets a clearly different profile — nothing merges.
        let schema = Schema::new(vec![
            Attribute::with_anonymous_domain("A", 3),
            Attribute::with_anonymous_domain("SA", 3),
        ]);
        let mut b = TableBuilder::new(schema);
        for v in 0u32..3 {
            for _ in 0..1000 {
                b.push_codes(&[v, v]).unwrap(); // value v implies SA v
            }
        }
        let t = b.build();
        let spec = SaSpec::new(&t, 1);
        let g = Generalization::fit(&t, &spec, 0.05);
        assert_eq!(g.attributes()[0].new_domain_size(), 3);
    }

    #[test]
    fn unused_values_fold_away() {
        // Domain has 3 values but only one occurs: all merge into one.
        let schema = Schema::new(vec![
            Attribute::with_anonymous_domain("A", 3),
            Attribute::with_anonymous_domain("SA", 2),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..100 {
            b.push_codes(&[0, (i % 2) as u32]).unwrap();
        }
        let t = b.build();
        let spec = SaSpec::new(&t, 1);
        let g = Generalization::fit(&t, &spec, 0.05);
        assert_eq!(g.attributes()[0].new_domain_size(), 1);
    }

    #[test]
    fn translate_query_rewrites_na_codes() {
        let t = latent_table(2000);
        let spec = SaSpec::new(&t, 1);
        let g = Generalization::fit(&t, &spec, 0.05);
        let q = CountQuery::new(vec![(0, 3)], 1, 2).expect("valid count query");
        let translated = g.translate_query(&q);
        assert_eq!(translated.sa_value(), 2);
        // Edu_3's generalized code must be the component of {e2, e3}.
        let expected = g.translate(0, 3);
        let got = match translated.na_pattern().terms()[0].1 {
            rp_table::Term::Value(c) => c,
            rp_table::Term::Wildcard => panic!("expected a value"),
        };
        assert_eq!(got, expected);
    }

    #[test]
    fn counts_preserved_under_generalized_queries() {
        // A query on a merged value set equals the sum of the original
        // per-value counts.
        let t = latent_table(500);
        let spec = SaSpec::new(&t, 1);
        let g = Generalization::fit(&t, &spec, 0.05);
        let t2 = g.apply(&t);
        let raw_sum: u64 = (0u32..2)
            .map(|edu| {
                CountQuery::new(vec![(0, edu)], 1, 0)
                    .expect("valid count query")
                    .answer(&t)
            })
            .sum();
        let merged = CountQuery::new(vec![(0, g.translate(0, 0))], 1, 0)
            .expect("valid count query")
            .answer(&t2);
        assert_eq!(merged, raw_sum);
    }

    #[test]
    fn merged_value_names_mention_members() {
        let t = latent_table(2000);
        let spec = SaSpec::new(&t, 1);
        let g = Generalization::fit(&t, &spec, 0.05);
        let dict = g.attributes()[0].generalized.dictionary();
        let name0 = dict.value(g.translate(0, 0)).unwrap();
        assert!(name0.contains("Edu_0"), "got {name0}");
    }

    #[test]
    #[should_panic(expected = "significance must lie in (0, 1)")]
    fn bad_significance_rejected() {
        let t = latent_table(10);
        let spec = SaSpec::new(&t, 1);
        Generalization::fit(&t, &spec, 0.0);
    }

    #[test]
    fn g_test_merge_agrees_with_chi2_on_clear_structure() {
        let t = latent_table(2000);
        let spec = SaSpec::new(&t, 1);
        let chi = Generalization::fit_with(&t, &spec, 0.05, MergeTest::Chi2);
        let g = Generalization::fit_with(&t, &spec, 0.05, MergeTest::GTest);
        assert_eq!(
            chi.attributes()[0].mapping,
            g.attributes()[0].mapping,
            "both tests must recover the 2-profile structure"
        );
    }
}
