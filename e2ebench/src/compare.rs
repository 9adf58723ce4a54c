//! Compare mode: two result sets (the benchmark's captured stdout for
//! a parent and a change commit) in, one verdict per workload and
//! end-to-end metric out.
//!
//! The rule: the change *improved* a metric when it wins at least nine
//! tenths of the pairs (the i-th parent run against the i-th change
//! run, ties counting for neither) and the medians differ by more than
//! the parent's own quartile spread. When the parent's spread is wider
//! than the metric's bound the metric is *unresolved*, unless every
//! change run beats every parent run. Otherwise it is *worse* when the
//! change's median is worse than the parent's by more than the bound,
//! and *unchanged* when it is not.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub lower_is_better: bool,
    /// Share of the parent's median the change may lose.
    pub bound: f64,
}

/// The verdict plus the figures it rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    pub pairs: usize,
    pub wins_share: f64,
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
}

pub fn judge(parent: &[f64], change: &[f64], rule: Rule) -> Judgement {
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let wins_share = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let p = stats::quartiles(parent);
    let c = stats::quartiles(change);
    let (p_med, c_med) = (p.1, c.1);
    let spread = p.2 - p.0;
    let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
    let loss = if rule.lower_is_better {
        c_med - p_med
    } else {
        p_med - c_med
    } / p_med.abs().max(f64::MIN_POSITIVE);

    let verdict = if pairs > 0
        && wins * 10 >= pairs * 9
        && better(c_med, p_med)
        && (c_med - p_med).abs() > spread
    {
        Verdict::Improved
    } else if spread / p_med.abs().max(f64::MIN_POSITIVE) > rule.bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if loss > rule.bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Judgement {
        verdict,
        pairs,
        wins_share,
        parent: p,
        change: c,
    }
}

/// Every run's metric values, grouped as workload -> metric -> values
/// in file order.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads the benchmark's stdout lines: each result line is attributed
/// to the workload named by the context line printed before it.
pub fn read_results(text: &str) -> Result<ResultSet, String> {
    let mut out: ResultSet = BTreeMap::new();
    let mut workload: Option<String> = None;
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        let v = json::parse(line)?;
        if let Some(ctx) = v.get("context") {
            workload = ctx
                .get("workload")
                .and_then(Value::as_str)
                .map(str::to_string);
        } else if let Some(metrics) = v.get("metrics").and_then(Value::as_object) {
            let w = workload
                .take()
                .ok_or("result line without a preceding context line")?;
            let slot = out.entry(w).or_default();
            for (name, m) in metrics {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    slot.entry(name.clone()).or_default().push(x);
                }
            }
        }
    }
    Ok(out)
}

/// Reads each end-to-end metric's rule from `BENCHMARK.json`.
pub fn read_rules(text: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v = json::parse(text)?;
    let metrics = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let better = m.get("better").and_then(Value::as_str).unwrap_or("lower");
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.1);
        out.insert(
            name.to_string(),
            Rule {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(out)
}

/// Renders the comparison table for every workload both sets hold.
pub fn render(parent: &ResultSet, change: &ResultSet, rules: &BTreeMap<String, Rule>) -> String {
    let mut out = String::from(
        "workload  metric           parent median [q1, q3]            change median [q1, q3]            pairs won  verdict\n",
    );
    for (workload, p_metrics) in parent {
        let Some(c_metrics) = change.get(workload) else {
            continue;
        };
        for (metric, rule) in rules {
            let (Some(p), Some(c)) = (p_metrics.get(metric), c_metrics.get(metric)) else {
                continue;
            };
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let j = judge(p, c, *rule);
            out.push_str(&format!(
                "{workload:<9} {metric:<16} {:>10.4} [{:.4}, {:.4}]  {:>10.4} [{:.4}, {:.4}]  {:>3}/{:<3}    {}\n",
                j.parent.1,
                j.parent.0,
                j.parent.2,
                j.change.1,
                j.change.0,
                j.change.2,
                (j.wins_share * j.pairs as f64).round() as usize,
                j.pairs,
                j.verdict.name()
            ));
        }
    }
    out
}
