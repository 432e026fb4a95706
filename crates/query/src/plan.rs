//! Static query-plan descriptions and their validator.
//!
//! The paper's execution-layer findings (§5.3–§5.6) all reduce to *what the
//! plan did with the temporal predicates*: were they pushed into the scan or
//! evaluated as residual filters, did an unconstrained read get recognised
//! as a full-history scan, and did the temporal operators produce coalesced
//! output. Bugs in any of these are silent — the answer is still correct,
//! only the measurement is meaningless. This module makes the plan shape a
//! checkable artifact: workloads build a [`PlanNode`] tree describing the
//! plan they are about to execute, and [`validate`] rejects trees that dodge
//! the questions (a scan without a predicate classification, an
//! unconstrained scan not marked full-history, a temporal join that does not
//! declare whether its output is coalesced).
//!
//! The validator is purely static — it never executes anything — so it runs
//! under `debug_assertions` in the engines and as the `lint-plans` bench
//! experiment without perturbing measurements.

use std::fmt;

/// System-time constraint class of a scan, mirroring
/// `bitempo_engine::SysSpec` without depending on the engine crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysClass {
    /// Implicit current version only.
    Current,
    /// `AS OF SYSTEM TIME t`.
    AsOf,
    /// `SYSTEM TIME BETWEEN a AND b`.
    Range,
    /// Unconstrained — every version ever recorded.
    All,
}

/// Application-time constraint class of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppClass {
    /// `AS OF APPLICATION TIME d`.
    AsOf,
    /// `APPLICATION TIME BETWEEN a AND b`.
    Range,
    /// Unconstrained.
    All,
}

/// The physical shape of a leaf table access. Plans must say *how* a scan
/// intends to reach its rows, because the paper's latency figures are only
/// comparable when the access path is known (a sequential pass and a
/// temporal-index probe can return identical rows at wildly different cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ScanKind {
    /// Sequential pass over the partition(s); may still use conventional
    /// B-Tree/GiST paths chosen by the engine.
    #[default]
    Seq,
    /// Probe of the `bitempo-tindex` Timeline/interval index: the plan
    /// commits to reaching rows through a temporal constraint, so at least
    /// one temporal dimension must be pushed and the scan cannot be
    /// full-history.
    TemporalIndexProbe,
}

/// How a scan disposed of each predicate: pushed into the access path or
/// evaluated as a residual filter on the scan's output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Classification {
    /// The system-time constraint is enforced by the scan itself.
    pub sys_pushed: bool,
    /// The application-time constraint is enforced by the scan itself.
    pub app_pushed: bool,
    /// Column predicates pushed into the scan (by name).
    pub pushed_cols: Vec<String>,
    /// Column predicates left for a residual filter above the scan.
    pub residual_cols: Vec<String>,
}

/// A leaf scan: one table access with its temporal constraint classes and a
/// mandatory predicate classification.
#[derive(Debug, Clone)]
pub struct ScanNode {
    /// Table being scanned.
    pub table: String,
    /// System-time constraint class.
    pub sys: SysClass,
    /// Application-time constraint class.
    pub app: AppClass,
    /// How the predicates were disposed of. `None` means the plan builder
    /// never thought about it — exactly what [`validate`] rejects.
    pub classification: Option<Classification>,
    /// Declared full-history scan: the plan admits it reads every version
    /// (the paper's T5 "all versions" yardstick). Mandatory when nothing
    /// constrains the scan; forbidden when something does.
    pub full_history: bool,
    /// Physical access shape; see [`ScanKind`].
    pub kind: ScanKind,
}

impl ScanNode {
    /// Builds a scan with its classification in one step — the constructor
    /// plan builders should use. `full_history` is derived, not declared:
    /// a scan is full-history exactly when no temporal constraint and no
    /// pushed column predicate narrows it.
    pub fn classified(
        table: impl Into<String>,
        sys: SysClass,
        app: AppClass,
        classification: Classification,
    ) -> ScanNode {
        let unconstrained = sys == SysClass::All
            && app == AppClass::All
            && classification.pushed_cols.is_empty()
            && classification.residual_cols.is_empty();
        ScanNode {
            table: table.into(),
            sys,
            app,
            classification: Some(classification),
            full_history: unconstrained,
            kind: ScanKind::Seq,
        }
    }

    /// This scan re-shaped as a temporal-index probe. Validation enforces
    /// that a probing scan pushes at least one temporal dimension.
    #[must_use]
    pub fn probing(mut self) -> ScanNode {
        self.kind = ScanKind::TemporalIndexProbe;
        self
    }
}

/// A statically checkable query plan. Variants mirror the operator set in
/// [`crate::ops`] / [`crate::temporal`]; the tree is description, not
/// executable code.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Leaf table access.
    Scan(ScanNode),
    /// Residual row filter.
    Filter {
        /// Input plan.
        input: Box<PlanNode>,
        /// Human-readable predicate (for diagnostics only).
        predicate: String,
    },
    /// Column projection.
    Project {
        /// Input plan.
        input: Box<PlanNode>,
        /// Retained columns (for diagnostics only).
        cols: Vec<String>,
    },
    /// Non-temporal equi-join.
    HashJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Left join keys.
        left_keys: Vec<String>,
        /// Right join keys (must pair with `left_keys`).
        right_keys: Vec<String>,
    },
    /// Temporal (overlap) join.
    TemporalJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Equi-key part of the join.
        keys: Vec<String>,
        /// Whether the output periods are coalesced. Plans must *declare*
        /// this (`Some(..)`) so the workaround's known coalescing gap
        /// (paper §5.6.2) is visible, not forgotten.
        coalesced: Option<bool>,
    },
    /// Temporal aggregation over version periods.
    TemporalAggregate {
        /// Input plan.
        input: Box<PlanNode>,
        /// `"event-sweep"` or `"boundary-points"` (the naive SQL:2011
        /// formulation the paper measured, §5.6.1).
        algorithm: String,
        /// Whether adjacent equal-value intervals are coalesced; must be
        /// declared, as for [`PlanNode::TemporalJoin`].
        coalesced: Option<bool>,
    },
    /// Plain grouping aggregation.
    Aggregate {
        /// Input plan.
        input: Box<PlanNode>,
        /// Group-by columns (for diagnostics only).
        group_by: Vec<String>,
        /// Aggregate expressions (for diagnostics only).
        aggs: Vec<String>,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<PlanNode>,
        /// Sort keys (for diagnostics only).
        keys: Vec<String>,
    },
    /// Top-N.
    TopN {
        /// Input plan.
        input: Box<PlanNode>,
        /// Row limit.
        n: usize,
    },
}

/// One rule violation found by [`validate`], with the path to the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanViolation {
    /// `/`-separated operator path from the root (e.g. `TopN/Scan(orders)`).
    pub path: String,
    /// What the node failed to declare or declared inconsistently.
    pub problem: String,
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.problem)
    }
}

/// Statically validates a plan tree. Returns every violation, not just the
/// first, so a failing `lint-plans` run reads like a lint report.
pub fn validate(plan: &PlanNode) -> Result<(), Vec<PlanViolation>> {
    let mut violations = Vec::new();
    walk(plan, "", &mut violations);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn walk(node: &PlanNode, prefix: &str, out: &mut Vec<PlanViolation>) {
    let path = |label: String| {
        if prefix.is_empty() {
            label
        } else {
            format!("{prefix}/{label}")
        }
    };
    match node {
        PlanNode::Scan(scan) => {
            let label = path(format!("Scan({})", scan.table));
            check_scan(scan, &label, out);
        }
        PlanNode::Filter { input, .. } => walk(input, &path("Filter".into()), out),
        PlanNode::Project { input, .. } => walk(input, &path("Project".into()), out),
        PlanNode::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let label = path("HashJoin".into());
            if left_keys.is_empty() {
                out.push(PlanViolation {
                    path: label.clone(),
                    problem: "hash join with no equi-keys (cross product)".into(),
                });
            }
            if left_keys.len() != right_keys.len() {
                out.push(PlanViolation {
                    path: label.clone(),
                    problem: format!(
                        "join key arity mismatch: {} left vs {} right",
                        left_keys.len(),
                        right_keys.len()
                    ),
                });
            }
            walk(left, &label, out);
            walk(right, &label, out);
        }
        PlanNode::TemporalJoin {
            left,
            right,
            coalesced,
            ..
        } => {
            let label = path("TemporalJoin".into());
            if coalesced.is_none() {
                out.push(PlanViolation {
                    path: label.clone(),
                    problem: "temporal join must declare whether its output is coalesced \
                              (the SQL:2011 workaround is not, paper §5.6.2)"
                        .into(),
                });
            }
            walk(left, &label, out);
            walk(right, &label, out);
        }
        PlanNode::TemporalAggregate {
            input,
            algorithm,
            coalesced,
        } => {
            let label = path(format!("TemporalAggregate[{algorithm}]"));
            if coalesced.is_none() {
                out.push(PlanViolation {
                    path: label.clone(),
                    problem: "temporal aggregate must declare whether its output is coalesced"
                        .into(),
                });
            }
            if algorithm != "event-sweep" && algorithm != "boundary-points" {
                out.push(PlanViolation {
                    path: label.clone(),
                    problem: format!("unknown temporal aggregation algorithm `{algorithm}`"),
                });
            }
            walk(input, &label, out);
        }
        PlanNode::Aggregate { input, .. } => walk(input, &path("Aggregate".into()), out),
        PlanNode::Sort { input, .. } => walk(input, &path("Sort".into()), out),
        PlanNode::TopN { input, .. } => walk(input, &path("TopN".into()), out),
    }
}

fn check_scan(scan: &ScanNode, label: &str, out: &mut Vec<PlanViolation>) {
    let Some(class) = &scan.classification else {
        out.push(PlanViolation {
            path: label.to_string(),
            problem: "scan does not classify its predicates into pushed vs residual".into(),
        });
        return;
    };
    if let Some(col) = class
        .pushed_cols
        .iter()
        .find(|c| class.residual_cols.contains(c))
    {
        out.push(PlanViolation {
            path: label.to_string(),
            problem: format!("column `{col}` classified both pushed and residual"),
        });
    }
    let unconstrained = scan.sys == SysClass::All
        && scan.app == AppClass::All
        && class.pushed_cols.is_empty()
        && class.residual_cols.is_empty();
    if unconstrained && !scan.full_history {
        out.push(PlanViolation {
            path: label.to_string(),
            problem: "nothing constrains this scan — it must be declared full-history \
                      (every version is read, the paper's T5 yardstick)"
                .into(),
        });
    }
    if !unconstrained && scan.full_history {
        out.push(PlanViolation {
            path: label.to_string(),
            problem: "scan is constrained yet declared full-history".into(),
        });
    }
    if scan.kind == ScanKind::TemporalIndexProbe {
        if !class.sys_pushed && !class.app_pushed {
            out.push(PlanViolation {
                path: label.to_string(),
                problem: "temporal-index probe pushes no temporal dimension — the index \
                          has nothing to probe with"
                    .into(),
            });
        }
        if scan.full_history {
            out.push(PlanViolation {
                path: label.to_string(),
                problem: "temporal-index probe declared full-history — an unconstrained \
                          read cannot come from an index probe"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constrained_scan() -> PlanNode {
        PlanNode::Scan(ScanNode::classified(
            "orders",
            SysClass::AsOf,
            AppClass::All,
            Classification {
                sys_pushed: true,
                ..Classification::default()
            },
        ))
    }

    #[test]
    fn classified_constructor_derives_full_history() {
        let s = ScanNode::classified("t", SysClass::All, AppClass::All, Classification::default());
        assert!(s.full_history);
        let s = ScanNode::classified(
            "t",
            SysClass::AsOf,
            AppClass::All,
            Classification::default(),
        );
        assert!(!s.full_history);
    }

    #[test]
    fn valid_plan_passes() {
        let plan = PlanNode::TopN {
            input: Box::new(PlanNode::Aggregate {
                input: Box::new(constrained_scan()),
                group_by: vec!["status".into()],
                aggs: vec!["sum(total)".into()],
            }),
            n: 10,
        };
        assert!(validate(&plan).is_ok());
    }

    #[test]
    fn missing_classification_is_rejected() {
        let plan = PlanNode::Scan(ScanNode {
            table: "orders".into(),
            sys: SysClass::Current,
            app: AppClass::All,
            classification: None,
            full_history: false,
            kind: ScanKind::Seq,
        });
        let errs = validate(&plan).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].problem.contains("pushed vs residual"));
        assert_eq!(errs[0].path, "Scan(orders)");
    }

    #[test]
    fn unconstrained_scan_must_declare_full_history() {
        let plan = PlanNode::Scan(ScanNode {
            table: "orders".into(),
            sys: SysClass::All,
            app: AppClass::All,
            classification: Some(Classification::default()),
            full_history: false,
            kind: ScanKind::Seq,
        });
        let errs = validate(&plan).unwrap_err();
        assert!(errs[0].problem.contains("full-history"));
    }

    #[test]
    fn constrained_scan_cannot_claim_full_history() {
        let plan = PlanNode::Scan(ScanNode {
            table: "orders".into(),
            sys: SysClass::AsOf,
            app: AppClass::All,
            classification: Some(Classification {
                sys_pushed: true,
                ..Classification::default()
            }),
            full_history: true,
            kind: ScanKind::Seq,
        });
        let errs = validate(&plan).unwrap_err();
        assert!(errs[0].problem.contains("declared full-history"));
    }

    #[test]
    fn temporal_operators_must_declare_coalescing() {
        let plan = PlanNode::TemporalAggregate {
            input: Box::new(constrained_scan()),
            algorithm: "event-sweep".into(),
            coalesced: None,
        };
        let errs = validate(&plan).unwrap_err();
        assert!(errs[0].problem.contains("coalesced"));

        let plan = PlanNode::TemporalJoin {
            left: Box::new(constrained_scan()),
            right: Box::new(constrained_scan()),
            keys: vec!["id".into()],
            coalesced: Some(false),
        };
        assert!(validate(&plan).is_ok());
    }

    #[test]
    fn join_key_arity_checked_and_all_violations_reported() {
        let plan = PlanNode::HashJoin {
            left: Box::new(PlanNode::Scan(ScanNode {
                table: "l".into(),
                sys: SysClass::Current,
                app: AppClass::All,
                classification: None,
                full_history: false,
                kind: ScanKind::Seq,
            })),
            right: Box::new(constrained_scan()),
            left_keys: vec!["a".into(), "b".into()],
            right_keys: vec!["a".into()],
        };
        let errs = validate(&plan).unwrap_err();
        // Arity mismatch AND the left scan's missing classification.
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().any(|e| e.problem.contains("arity")));
        assert!(errs.iter().any(|e| e.path == "HashJoin/Scan(l)"));
    }

    #[test]
    fn violation_paths_name_the_route() {
        let plan = PlanNode::Filter {
            input: Box::new(PlanNode::Scan(ScanNode {
                table: "x".into(),
                sys: SysClass::Current,
                app: AppClass::All,
                classification: None,
                full_history: false,
                kind: ScanKind::Seq,
            })),
            predicate: "v > 3".into(),
        };
        let errs = validate(&plan).unwrap_err();
        assert_eq!(errs[0].path, "Filter/Scan(x)");
        assert!(errs[0].to_string().starts_with("Filter/Scan(x): "));
    }

    #[test]
    fn probe_scan_must_push_a_temporal_dimension() {
        // A probing scan with system time pushed is fine.
        let ok = PlanNode::Scan(
            ScanNode::classified(
                "orders",
                SysClass::AsOf,
                AppClass::All,
                Classification {
                    sys_pushed: true,
                    ..Classification::default()
                },
            )
            .probing(),
        );
        assert!(validate(&ok).is_ok());
        // A probing scan whose temporal predicates are all residual is not:
        // the index would have nothing to probe with.
        let bad = PlanNode::Scan(
            ScanNode::classified(
                "orders",
                SysClass::AsOf,
                AppClass::All,
                Classification::default(),
            )
            .probing(),
        );
        let errs = validate(&bad).unwrap_err();
        assert!(errs[0].problem.contains("nothing to probe"));
    }

    #[test]
    fn probe_scan_cannot_be_full_history() {
        let plan = PlanNode::Scan(ScanNode {
            table: "orders".into(),
            sys: SysClass::All,
            app: AppClass::All,
            classification: Some(Classification {
                sys_pushed: true,
                ..Classification::default()
            }),
            full_history: true,
            kind: ScanKind::TemporalIndexProbe,
        });
        let errs = validate(&plan).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.problem.contains("cannot come from an index probe")));
    }

    #[test]
    fn unknown_sweep_algorithm_rejected() {
        let plan = PlanNode::TemporalAggregate {
            input: Box::new(constrained_scan()),
            algorithm: "magic".into(),
            coalesced: Some(true),
        };
        let errs = validate(&plan).unwrap_err();
        assert!(errs.iter().any(|e| e.problem.contains("unknown")));
    }
}
