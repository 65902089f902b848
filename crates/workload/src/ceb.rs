//! CEB-like template workload (Table III).
//!
//! The paper uses "all the query templates" of the CEB-IMDB benchmark but
//! removes `GROUP BY` and `LIKE` predicates, leaving SPJ templates. We
//! reproduce the structure: a template fixes the joined-table subtree and
//! the predicate columns; each instantiation draws fresh literal ranges.
//! Templates are derived from the dataset's own join graph so the module
//! works against the IMDB-like simulator (or any other dataset).

use crate::gen::{range_around, span_f64, WorkloadSpec};
use ce_storage::{Dataset, Query, Value};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A query template: joined tables + predicate columns, without literals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// Template identifier (e.g. `"1a"`).
    pub id: String,
    /// Joined tables.
    pub tables: Vec<usize>,
    /// Join edges `(fk_table, pk_table)`.
    pub joins: Vec<(usize, usize)>,
    /// Predicate columns as `(table, column)` pairs.
    pub predicate_columns: Vec<(usize, usize)>,
}

impl QueryTemplate {
    /// Instantiates the template with fresh random literals.
    pub fn instantiate<R: Rng>(&self, ds: &Dataset, rng: &mut R) -> Query {
        let predicates = self
            .predicate_columns
            .iter()
            .map(|&(t, c)| {
                let col = &ds.tables[t].columns[c];
                let lo_v = col.min().unwrap_or(0);
                let hi_v = col.max().unwrap_or(0);
                let center = if col.is_empty() {
                    lo_v
                } else {
                    col.data[rng.gen_range(0..col.len())]
                };
                let span = span_f64((lo_v, hi_v));
                let width = (rng.gen::<f64>() * span * 0.3) as Value;
                range_around(t, c, center, width, (lo_v, hi_v))
            })
            .collect();
        Query {
            tables: self.tables.clone(),
            joins: self.joins.clone(),
            predicates,
        }
    }
}

/// Derives `count` templates from the dataset's join graph: template `i`
/// joins a deterministic connected subtree and fixes one predicate column
/// per table. Mirrors how CEB enumerates join templates over IMDB.
pub fn derive_templates<R: Rng>(ds: &Dataset, count: usize, rng: &mut R) -> Vec<QueryTemplate> {
    let spec = WorkloadSpec {
        num_queries: 1,
        min_tables: 1,
        max_tables: 5,
        min_predicates: 0,
        max_predicates_per_table: 1,
    };
    (0..count)
        .map(|i| {
            let q = crate::gen::generate_query(ds, &spec, rng);
            let mut predicate_columns: Vec<(usize, usize)> = Vec::new();
            for &t in &q.tables {
                let cols = ds.tables[t].data_column_indices();
                if let Some(&c) = cols.as_slice().choose(rng) {
                    predicate_columns.push((t, c));
                }
            }
            QueryTemplate {
                id: format!("{}{}", i / 26 + 1, (b'a' + (i % 26) as u8) as char),
                tables: q.tables,
                joins: q.joins,
                predicate_columns,
            }
        })
        .collect()
}

/// Generates a CEB-like workload: `per_template` instantiations of each
/// template, flattened.
pub fn ceb_workload<R: Rng>(
    ds: &Dataset,
    templates: &[QueryTemplate],
    per_template: usize,
    rng: &mut R,
) -> Vec<Query> {
    templates
        .iter()
        .flat_map(|t| {
            (0..per_template)
                .map(|_| t.instantiate(ds, rng))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::realworld::imdb_like;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn templates_instantiate_to_valid_queries() {
        let mut rng = StdRng::seed_from_u64(71);
        let ds = imdb_like(0.01, &mut rng);
        let templates = derive_templates(&ds, 10, &mut rng);
        assert_eq!(templates.len(), 10);
        let wl = ceb_workload(&ds, &templates, 5, &mut rng);
        assert_eq!(wl.len(), 50);
        for q in &wl {
            q.validate(&ds).unwrap();
        }
    }

    #[test]
    fn instantiations_share_structure_but_differ_in_literals() {
        let mut rng = StdRng::seed_from_u64(72);
        let ds = imdb_like(0.01, &mut rng);
        let templates = derive_templates(&ds, 3, &mut rng);
        let t = &templates[0];
        let a = t.instantiate(&ds, &mut rng);
        let b = t.instantiate(&ds, &mut rng);
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.joins, b.joins);
        assert_eq!(a.predicates.len(), b.predicates.len());
    }

    #[test]
    fn template_ids_are_ceb_style() {
        let mut rng = StdRng::seed_from_u64(73);
        let ds = imdb_like(0.01, &mut rng);
        let templates = derive_templates(&ds, 30, &mut rng);
        assert_eq!(templates[0].id, "1a");
        assert_eq!(templates[25].id, "1z");
        assert_eq!(templates[26].id, "2a");
    }
}
