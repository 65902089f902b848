//! Physical plan representation.

use ce_storage::JoinEdge;
use serde::{Deserialize, Serialize};

/// Scan operator choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanMethod {
    /// Full sequential scan with predicate evaluation.
    Sequential,
    /// Index range scan on one predicate column, residual filtering after.
    Index {
        /// Which predicate (index into the query's predicate list) drives
        /// the index lookup.
        predicate: usize,
    },
}

/// Join operator choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinMethod {
    /// Build/probe hash join (build side = left child).
    Hash,
    /// Nested-loop join.
    NestedLoop,
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Filtered base-table access.
    Scan {
        /// Dataset table index.
        table: usize,
        /// Access method.
        method: ScanMethod,
        /// Optimizer's estimated output rows.
        est_rows: f64,
    },
    /// Binary join of two sub-plans.
    Join {
        /// Build / outer side.
        left: Box<PlanNode>,
        /// Probe / inner side.
        right: Box<PlanNode>,
        /// Operator.
        method: JoinMethod,
        /// The PK-FK edge being joined.
        edge: JoinEdge,
        /// Optimizer's estimated output rows.
        est_rows: f64,
    },
}

impl PlanNode {
    /// Estimated output cardinality of the node.
    pub fn est_rows(&self) -> f64 {
        match self {
            PlanNode::Scan { est_rows, .. } | PlanNode::Join { est_rows, .. } => *est_rows,
        }
    }
}

#[cfg(test)]
impl PlanNode {
    /// Tables covered by the subtree, in plan order.
    pub(crate) fn tables(&self) -> Vec<usize> {
        match self {
            PlanNode::Scan { table, .. } => vec![*table],
            PlanNode::Join { left, right, .. } => {
                let mut t = left.tables();
                t.extend(right.tables());
                t
            }
        }
    }

    /// Number of join operators in the plan.
    pub(crate) fn num_joins(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 0,
            PlanNode::Join { left, right, .. } => 1 + left.num_joins() + right.num_joins(),
        }
    }

    /// Pretty one-line rendering (for debugging and EXPLAIN-style output).
    pub(crate) fn explain(&self) -> String {
        match self {
            PlanNode::Scan {
                table,
                method,
                est_rows,
            } => {
                let m = match method {
                    ScanMethod::Sequential => "SeqScan",
                    ScanMethod::Index { .. } => "IndexScan",
                };
                format!("{m}(t{table} ~{est_rows:.0})")
            }
            PlanNode::Join {
                left,
                right,
                method,
                est_rows,
                ..
            } => {
                let m = match method {
                    JoinMethod::Hash => "HashJoin",
                    JoinMethod::NestedLoop => "NLJoin",
                };
                format!(
                    "{m}[{} , {} ~{est_rows:.0}]",
                    left.explain(),
                    right.explain()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(t: usize) -> PlanNode {
        PlanNode::Scan {
            table: t,
            method: ScanMethod::Sequential,
            est_rows: 10.0,
        }
    }

    #[test]
    fn tree_accessors() {
        let edge = JoinEdge {
            fk_table: 1,
            fk_col: 0,
            pk_table: 0,
            pk_col: 0,
        };
        let plan = PlanNode::Join {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            method: JoinMethod::Hash,
            edge,
            est_rows: 42.0,
        };
        assert_eq!(plan.est_rows(), 42.0);
        assert_eq!(plan.tables(), vec![0, 1]);
        assert_eq!(plan.num_joins(), 1);
        assert!(plan.explain().contains("HashJoin"));
        assert!(plan.explain().contains("SeqScan"));
    }
}
