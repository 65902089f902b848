//! Schema-faithful simulators for the paper's real-world datasets.
//!
//! We cannot redistribute IMDB / STATS / Power, and the advisor only ever
//! consumes *extracted features*, so these generators reproduce the schema
//! shape of Table I (table counts, relative row counts, column counts) and
//! the qualitative data profiles that drive Fig. 1:
//!
//! * **IMDB-like** — a 6-table star around `title` with skewed, weakly
//!   correlated attributes: the regime where query-driven models (MSCN) win.
//! * **STATS-like** — an 8-table snowflake (users → posts → …) with heavier
//!   correlations.
//! * **Power-like** — one wide table of smooth, strongly cross-correlated
//!   readings: the regime where data-driven models (NeuroCard) win.
//!
//! [`split_samples`] implements the paper's split procedure verbatim:
//! "(1) randomly select 1-5 joined tables from the dataset with the join
//! keys; (2) randomly select 1-2 non-key columns for each chosen table",
//! yielding the IMDB-20 / STATS-20 testing samples.

use crate::single::generate_table;
use crate::spec::SpecRange;
use ce_storage::{Column, Dataset, JoinEdge, Table, Value};
use rand::seq::SliceRandom;
use rand::Rng;

/// Row-scale knob: `scale = 1.0` reproduces Table I row counts; smaller
/// values shrink proportionally (min 60 rows/table) for fast CI runs.
fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(60)
}

struct TableProfile {
    name: &'static str,
    base_rows: usize,
    data_cols: usize,
    domain: SpecRange<usize>,
    skew: SpecRange<f64>,
    corr: SpecRange<f64>,
    /// Index of the referenced parent table, if any.
    parent: Option<usize>,
    /// Join correlation used when wiring the FK.
    join_corr: f64,
    /// Correlation between the FK and the table's first data column —
    /// "popular movies have more cast entries". This is what breaks the
    /// per-table independence assumption of the data-driven models on
    /// multi-table schemas (the Fig. 1 effect).
    fk_data_corr: f64,
    /// Whether the table needs a PK (it is referenced by someone).
    is_main: bool,
}

fn build_from_profiles<R: Rng>(
    name: &str,
    profiles: &[TableProfile],
    scale: f64,
    rng: &mut R,
) -> Dataset {
    let mut tables: Vec<Table> = profiles
        .iter()
        .map(|p| {
            let mut t = generate_table(
                p.name,
                p.data_cols,
                scaled(p.base_rows, scale),
                p.domain,
                p.skew,
                p.corr,
                rng,
            );
            if p.is_main {
                let rows = t.num_rows();
                let mut pk: Vec<Value> = (1..=rows as Value).collect();
                pk.shuffle(rng);
                t.push_column(Column::primary_key("id", pk))
                    .expect("pk fits");
            }
            t
        })
        .collect();

    let mut joins = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let Some(parent) = p.parent else { continue };
        let pk_col = tables[parent].primary_key_index().expect("parent has pk");
        let mut portion: Vec<Value> = tables[parent].columns[pk_col].data.clone();
        portion.shuffle(rng);
        let keep = ((portion.len() as f64 * p.join_corr) as usize).clamp(1, portion.len());
        portion.truncate(keep);
        // Skewed fanout correlated with the parent's first attribute:
        // order the referenced keys by the parent's first data column and
        // draw them with a Pareto law, so "popular" parents (by attribute)
        // accumulate most child rows. The join distribution then differs
        // from the base-table distribution — the second ingredient of the
        // Fig. 1 effect (per-table models mispredict join queries).
        if let Some(pd) = tables[parent].data_column_indices().first().copied() {
            let attr_of: std::collections::HashMap<Value, Value> = tables[parent].columns[pk_col]
                .data
                .iter()
                .copied()
                .zip(tables[parent].columns[pd].data.iter().copied())
                .collect();
            portion.sort_by_key(|k| attr_of.get(k).copied().unwrap_or(0));
        }
        let rows = tables[i].num_rows();
        let fanout_sampler = crate::pareto::ParetoColumn::new(0.75, 0, portion.len() as Value - 1);
        let fk: Vec<Value> = (0..rows)
            .map(|_| portion[fanout_sampler.sample(rng) as usize])
            .collect();
        // Correlate the child's first data column with the *parent's* first
        // data column through the join: with probability `fk_data_corr`, a
        // child row copies the attribute of the parent row it references.
        // This cross-table correlation ("popular movies attract a certain
        // kind of cast entry") is exactly what the per-table independence
        // assumption of the data-driven models cannot see — the Fig. 1
        // effect.
        if p.fk_data_corr > 0.0 && !tables[i].columns.is_empty() {
            if let Some(pd) = tables[parent].data_column_indices().first().copied() {
                let by_pk: std::collections::HashMap<Value, Value> = tables[parent].columns[pk_col]
                    .data
                    .iter()
                    .copied()
                    .zip(tables[parent].columns[pd].data.iter().copied())
                    .collect();
                let parent_vals: Vec<Value> = fk
                    .iter()
                    .map(|k| *by_pk.get(k).expect("fk hits pk"))
                    .collect();
                let target = &mut tables[i].columns[0].data;
                crate::correlate::correlate_columns(&parent_vals, target, p.fk_data_corr, rng);
            }
        }
        tables[i]
            .push_column(Column::foreign_key(
                format!("{}_id", profiles[parent].name),
                fk,
            ))
            .expect("fk fits");
        joins.push(JoinEdge {
            fk_table: i,
            fk_col: tables[i].num_columns() - 1,
            pk_table: parent,
            pk_col,
        });
    }
    Dataset::new(name, tables, joins).expect("profile graph is a tree")
}

/// IMDB-like star schema: `title` is the hub; five satellite tables
/// reference it (Table I: 6 tables, 12 columns, rows 2.1K-339K).
pub fn imdb_like<R: Rng>(scale: f64, rng: &mut R) -> Dataset {
    let d_small = SpecRange { lo: 30, hi: 400 };
    let d_big = SpecRange { lo: 500, hi: 4_000 };
    let skewed = SpecRange { lo: 0.5, hi: 0.95 };
    let mild = SpecRange { lo: 0.1, hi: 0.5 };
    let weak_corr = SpecRange { lo: 0.0, hi: 0.25 };
    let profiles = [
        TableProfile {
            name: "title",
            base_rows: 25_000,
            data_cols: 3,
            domain: d_big,
            skew: mild,
            corr: weak_corr,
            parent: None,
            join_corr: 1.0,
            fk_data_corr: 0.0,
            is_main: true,
        },
        TableProfile {
            name: "cast_info",
            base_rows: 339_000 / 4,
            data_cols: 2,
            domain: d_small,
            skew: skewed,
            corr: weak_corr,
            parent: Some(0),
            join_corr: 0.9,
            fk_data_corr: 0.8,
            is_main: false,
        },
        TableProfile {
            name: "movie_info",
            base_rows: 140_000 / 4,
            data_cols: 2,
            domain: d_small,
            skew: skewed,
            corr: weak_corr,
            parent: Some(0),
            join_corr: 0.8,
            fk_data_corr: 0.8,
            is_main: false,
        },
        TableProfile {
            name: "movie_companies",
            base_rows: 26_000 / 4,
            data_cols: 2,
            domain: d_small,
            skew: skewed,
            corr: weak_corr,
            parent: Some(0),
            join_corr: 0.6,
            fk_data_corr: 0.8,
            is_main: false,
        },
        TableProfile {
            name: "movie_keyword",
            base_rows: 45_000 / 4,
            data_cols: 1,
            domain: d_big,
            skew: skewed,
            corr: weak_corr,
            parent: Some(0),
            join_corr: 0.7,
            fk_data_corr: 0.8,
            is_main: false,
        },
        TableProfile {
            name: "movie_info_idx",
            base_rows: 2_100,
            data_cols: 2,
            domain: d_small,
            skew: mild,
            corr: weak_corr,
            parent: Some(0),
            join_corr: 0.4,
            fk_data_corr: 0.8,
            is_main: false,
        },
    ];
    build_from_profiles("imdb-light", &profiles, scale, rng)
}

/// STATS-like snowflake schema (Table I: 8 tables, 23 columns, 1K-328K rows).
pub fn stats_like<R: Rng>(scale: f64, rng: &mut R) -> Dataset {
    let d = SpecRange { lo: 50, hi: 2_000 };
    let d_small = SpecRange { lo: 10, hi: 200 };
    let skew = SpecRange { lo: 0.3, hi: 0.9 };
    let corr = SpecRange { lo: 0.2, hi: 0.6 };
    let profiles = [
        TableProfile {
            name: "users",
            base_rows: 40_000 / 4,
            data_cols: 4,
            domain: d,
            skew,
            corr,
            parent: None,
            join_corr: 1.0,
            fk_data_corr: 0.0,
            is_main: true,
        },
        TableProfile {
            name: "posts",
            base_rows: 90_000 / 4,
            data_cols: 5,
            domain: d,
            skew,
            corr,
            parent: Some(0),
            join_corr: 0.85,
            fk_data_corr: 0.55,
            is_main: true,
        },
        TableProfile {
            name: "comments",
            base_rows: 170_000 / 4,
            data_cols: 3,
            domain: d_small,
            skew,
            corr,
            parent: Some(1),
            join_corr: 0.7,
            fk_data_corr: 0.55,
            is_main: false,
        },
        TableProfile {
            name: "votes",
            base_rows: 328_000 / 4,
            data_cols: 2,
            domain: d_small,
            skew,
            corr,
            parent: Some(1),
            join_corr: 0.8,
            fk_data_corr: 0.55,
            is_main: false,
        },
        TableProfile {
            name: "badges",
            base_rows: 80_000 / 4,
            data_cols: 2,
            domain: d_small,
            skew,
            corr,
            parent: Some(0),
            join_corr: 0.6,
            fk_data_corr: 0.55,
            is_main: false,
        },
        TableProfile {
            name: "post_history",
            base_rows: 300_000 / 4,
            data_cols: 3,
            domain: d_small,
            skew,
            corr,
            parent: Some(1),
            join_corr: 0.75,
            fk_data_corr: 0.55,
            is_main: false,
        },
        TableProfile {
            name: "post_links",
            base_rows: 11_000 / 4,
            data_cols: 2,
            domain: d_small,
            skew,
            corr,
            parent: Some(1),
            join_corr: 0.3,
            fk_data_corr: 0.55,
            is_main: false,
        },
        TableProfile {
            name: "tags",
            base_rows: 1_000,
            data_cols: 2,
            domain: d_small,
            skew,
            corr,
            parent: Some(1),
            join_corr: 0.2,
            fk_data_corr: 0.55,
            is_main: false,
        },
    ];
    build_from_profiles("stats-light", &profiles, scale, rng)
}

/// Power-like single wide table: smooth, strongly correlated columns
/// (household power readings). The regime of Fig. 1(b) where data-driven
/// models dominate.
pub fn power_like<R: Rng>(scale: f64, rng: &mut R) -> Dataset {
    let t = generate_table(
        "household_power",
        7,
        scaled(50_000, scale),
        SpecRange { lo: 500, hi: 2_000 },
        SpecRange { lo: 0.0, hi: 0.2 },
        SpecRange { lo: 0.6, hi: 0.95 },
        rng,
    );
    Dataset::new("power", vec![t], Vec::new()).expect("single table valid")
}

/// The paper's split procedure: draws `count` testing sub-datasets, each
/// with 1-5 joined tables (join keys kept) and 1-2 non-key columns per
/// table. Applied to IMDB-light / STATS-light it produces the paper's
/// IMDB-20 / STATS-20 testing sets.
pub fn split_samples<R: Rng>(ds: &Dataset, count: usize, rng: &mut R) -> Vec<Dataset> {
    (0..count).map(|i| split_one(ds, i, rng)).collect()
}

fn split_one<R: Rng>(ds: &Dataset, index: usize, rng: &mut R) -> Dataset {
    // Grow a random connected subtree of the join graph.
    let want = rng.gen_range(1..=5usize.min(ds.num_tables()));
    let start = rng.gen_range(0..ds.num_tables());
    let mut chosen = vec![start];
    let mut frontier: Vec<(usize, usize)> = Vec::new(); // (new table, via chosen table)
    let mut edges: Vec<JoinEdge> = Vec::new();
    while chosen.len() < want {
        frontier.clear();
        for &t in &chosen {
            for e in ds.joins_of(t) {
                let other = if e.fk_table == t {
                    e.pk_table
                } else {
                    e.fk_table
                };
                if !chosen.contains(&other) {
                    frontier.push((other, t));
                }
            }
        }
        let Some(&(next, via)) = frontier.as_slice().choose(rng) else {
            break; // isolated component smaller than `want`
        };
        let edge = *ds.join_between(next, via).expect("frontier edge exists");
        edges.push(edge);
        chosen.push(next);
    }

    // Columns to keep per chosen table: keys referenced by kept edges plus
    // 1-2 random non-key columns.
    let mut new_tables = Vec::new();
    let mut table_remap = vec![usize::MAX; ds.num_tables()];
    for (new_idx, &t) in chosen.iter().enumerate() {
        table_remap[t] = new_idx;
        let table = &ds.tables[t];
        let mut keep: Vec<usize> = Vec::new();
        for e in &edges {
            if e.fk_table == t {
                keep.push(e.fk_col);
            }
            if e.pk_table == t {
                keep.push(e.pk_col);
            }
        }
        let mut data_cols = table.data_column_indices();
        data_cols.shuffle(rng);
        let n_data = rng.gen_range(1..=2usize).min(data_cols.len().max(1));
        for &c in data_cols.iter().take(n_data) {
            keep.push(c);
        }
        keep.sort_unstable();
        keep.dedup();
        let columns: Vec<Column> = keep
            .iter()
            .map(|&c| {
                let src = &table.columns[c];
                Column {
                    name: src.name.clone(),
                    data: src.data.clone(),
                    role: src.role,
                }
            })
            .collect();
        // Column remap for edges.
        let mut t2 = Table::new(format!("{}#{}", table.name, index));
        for col in columns {
            t2.push_column(col).expect("copied columns consistent");
        }
        new_tables.push((t, keep, t2));
    }

    let remap_col = |t: usize, c: usize| -> usize {
        let (_, keep, _) = new_tables
            .iter()
            .find(|(orig, _, _)| *orig == t)
            .expect("table kept");
        keep.iter().position(|&k| k == c).expect("column kept")
    };
    let new_joins: Vec<JoinEdge> = edges
        .iter()
        .map(|e| JoinEdge {
            fk_table: table_remap[e.fk_table],
            fk_col: remap_col(e.fk_table, e.fk_col),
            pk_table: table_remap[e.pk_table],
            pk_col: remap_col(e.pk_table, e.pk_col),
        })
        .collect();

    let tables: Vec<Table> = new_tables.into_iter().map(|(_, _, t)| t).collect();
    // Drop PK role on tables whose PK column wasn't kept by any edge — they
    // may still carry the role flag; validation only checks uniqueness.
    Dataset::new(format!("{}-split{}", ds.name, index), tables, new_joins)
        .expect("split preserves tree structure")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_storage::ColumnRole;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn imdb_shape() {
        let mut rng = StdRng::seed_from_u64(41);
        let ds = imdb_like(0.01, &mut rng);
        ds.validate().unwrap();
        assert_eq!(ds.num_tables(), 6);
        assert_eq!(ds.joins.len(), 5);
        // Star: every join points at table 0.
        assert!(ds.joins.iter().all(|j| j.pk_table == 0));
        let total_data_cols: usize = ds
            .tables
            .iter()
            .map(|t| t.data_column_indices().len())
            .sum();
        assert_eq!(total_data_cols, 12); // Table I: 12 columns
    }

    #[test]
    fn stats_shape() {
        let mut rng = StdRng::seed_from_u64(42);
        let ds = stats_like(0.01, &mut rng);
        ds.validate().unwrap();
        assert_eq!(ds.num_tables(), 8);
        assert_eq!(ds.joins.len(), 7);
        // users and posts are both referenced.
        assert!(ds.joins.iter().any(|j| j.pk_table == 0));
        assert!(ds.joins.iter().any(|j| j.pk_table == 1));
    }

    #[test]
    fn power_is_single_wide_table() {
        let mut rng = StdRng::seed_from_u64(43);
        let ds = power_like(0.01, &mut rng);
        assert_eq!(ds.num_tables(), 1);
        assert_eq!(ds.tables[0].num_columns(), 7);
        assert!(ds.joins.is_empty());
    }

    #[test]
    fn split_samples_are_valid_and_small() {
        let mut rng = StdRng::seed_from_u64(44);
        let base = imdb_like(0.01, &mut rng);
        let splits = split_samples(&base, 20, &mut rng);
        assert_eq!(splits.len(), 20);
        for s in &splits {
            s.validate().unwrap();
            assert!(s.num_tables() >= 1 && s.num_tables() <= 5);
            for t in &s.tables {
                let data = t.data_column_indices().len();
                assert!((1..=2).contains(&data), "{} data cols", data);
            }
            // Tree structure maintained after remapping.
            assert_eq!(s.joins.len(), s.num_tables() - 1);
        }
    }

    #[test]
    fn split_preserves_join_keys() {
        let mut rng = StdRng::seed_from_u64(45);
        let base = stats_like(0.01, &mut rng);
        let splits = split_samples(&base, 10, &mut rng);
        for s in splits.iter().filter(|s| s.num_tables() > 1) {
            for e in &s.joins {
                // Each join edge references real key columns in the split.
                let pk_role = s.tables[e.pk_table].columns[e.pk_col].role;
                assert_eq!(pk_role, ColumnRole::PrimaryKey);
                let fk_role = s.tables[e.fk_table].columns[e.fk_col].role;
                assert_eq!(fk_role, ColumnRole::ForeignKey);
            }
        }
    }
}
