//! Human-readable summaries of whole-system analyses.

use std::fmt;

use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use crate::latency::{latency_analysis, OverloadMode};
use twca_curves::Time;
use twca_model::ChainId;

/// Analysis summary of one chain (one row of a Table-I-style report).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChainReport {
    /// The chain id.
    pub chain: ChainId,
    /// The chain name.
    pub name: String,
    /// Worst-case latency with overload included (`None` = unbounded).
    pub worst_case_latency: Option<Time>,
    /// Worst-case latency with overload abstracted away.
    pub typical_latency: Option<Time>,
    /// The deadline, if any.
    pub deadline: Option<Time>,
    /// Whether the chain is an overload chain.
    pub overload: bool,
}

impl ChainReport {
    /// Analyzes one chain's row: its worst-case latency with overload
    /// included (Theorem 2) and with overload abstracted away.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is not a chain of the context's system.
    pub fn analyze(ctx: &AnalysisContext<'_>, chain: ChainId, options: AnalysisOptions) -> Self {
        let full = latency_analysis(ctx, chain, OverloadMode::Include, options);
        let typical = latency_analysis(ctx, chain, OverloadMode::Exclude, options);
        let declared = ctx.system().chain(chain);
        ChainReport {
            chain,
            name: declared.name().to_owned(),
            worst_case_latency: full.map(|r| r.worst_case_latency),
            typical_latency: typical.map(|r| r.worst_case_latency),
            deadline: declared.deadline(),
            overload: declared.is_overload(),
        }
    }

    /// Whether the chain provably meets its deadline in the full worst
    /// case (`None` when it has no deadline).
    pub fn schedulable(&self) -> Option<bool> {
        match (self.worst_case_latency, self.deadline) {
            (_, None) => None,
            (None, Some(_)) => Some(false),
            (Some(wcl), Some(d)) => Some(wcl <= d),
        }
    }

    /// Whether the chain meets its deadline when overload chains stay
    /// silent.
    pub fn typically_schedulable(&self) -> Option<bool> {
        match (self.typical_latency, self.deadline) {
            (_, None) => None,
            (None, Some(_)) => Some(false),
            (Some(wcl), Some(d)) => Some(wcl <= d),
        }
    }
}

/// Whole-system latency report (the shape of Table I).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SystemReport {
    /// One row per chain, in chain-id order.
    pub rows: Vec<ChainReport>,
}

impl fmt::Display for SystemReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>8} {:>12} {:>8}  verdict",
            "chain", "WCL", "typical WCL", "D"
        )?;
        for row in &self.rows {
            let wcl = row
                .worst_case_latency
                .map_or("unbounded".to_owned(), |w| w.to_string());
            let twcl = row
                .typical_latency
                .map_or("unbounded".to_owned(), |w| w.to_string());
            let d = row.deadline.map_or("-".to_owned(), |d| d.to_string());
            let verdict = match row.schedulable() {
                None if row.overload => "overload source",
                None => "no deadline",
                Some(true) => "schedulable",
                Some(false) => match row.typically_schedulable() {
                    Some(true) => "weakly-hard candidate",
                    _ => "unschedulable",
                },
            };
            writeln!(
                f,
                "{:<12} {:>8} {:>12} {:>8}  {}",
                row.name, wcl, twcl, d, verdict
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(wcl: Option<Time>, typical: Option<Time>, d: Option<Time>) -> ChainReport {
        ChainReport {
            chain: ChainId::from_index(0),
            name: "x".into(),
            worst_case_latency: wcl,
            typical_latency: typical,
            deadline: d,
            overload: false,
        }
    }

    #[test]
    fn schedulability_verdicts() {
        assert_eq!(
            row(Some(100), Some(50), Some(200)).schedulable(),
            Some(true)
        );
        assert_eq!(
            row(Some(300), Some(50), Some(200)).schedulable(),
            Some(false)
        );
        assert_eq!(row(None, None, Some(200)).schedulable(), Some(false));
        assert_eq!(row(Some(300), Some(50), None).schedulable(), None);
        assert_eq!(
            row(Some(300), Some(50), Some(200)).typically_schedulable(),
            Some(true)
        );
    }

    #[test]
    fn display_renders_all_rows() {
        let report = SystemReport {
            rows: vec![
                row(Some(331), Some(166), Some(200)),
                row(Some(175), Some(175), Some(200)),
            ],
        };
        let text = report.to_string();
        assert!(text.contains("331"));
        assert!(text.contains("weakly-hard candidate"));
        assert!(text.contains("schedulable"));
    }
}
