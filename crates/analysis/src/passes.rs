//! The diagnostic passes and the [`Analyzer`] that runs them.
//!
//! The seven built-in passes are a fixed table, run in order. The
//! [`Analyzer`] resolves the unit once, builds the per-function CFGs on
//! first demand, and stamps each pass's findings with the pass's name
//! and severity.
//!
//! Severity policy: anything that would fail to compile or read an
//! unbound name is an [`Severity::Error`]; style and dead-code findings
//! are [`Severity::Warning`]s. The transformation gates only reject
//! *new* errors, so a warning-heavy human seed still transforms.

use crate::cfg::Cfg;
use crate::dataflow::{dead_stores, use_before_init};
use crate::resolve::{resolve, Resolution};
use std::cell::OnceCell;
use std::collections::HashMap;
use synthattr_lang::ast::*;
use synthattr_lang::{parse, ParseError};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but well-formed code.
    Warning,
    /// Code that is broken (unbound name, conflicting declaration).
    Error,
}

impl Severity {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding from one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Name of the pass that produced the finding.
    pub pass: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Structural path of the offending node (see [`mod@crate::resolve`]).
    pub site: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity.label(),
            self.pass,
            self.site,
            self.message
        )
    }
}

/// What every pass reads.
struct Input<'a> {
    /// The unit under analysis.
    unit: &'a TranslationUnit,
    /// Its resolution (bindings, use counts, unresolved uses).
    resolution: Resolution,
    /// Per-function CFGs, built on first demand and shared by the
    /// dataflow passes.
    cfgs: OnceCell<Vec<Cfg>>,
}

impl Input<'_> {
    fn cfgs(&self) -> &[Cfg] {
        self.cfgs.get_or_init(|| Cfg::build_all(self.unit))
    }
}

/// A finding before its pass stamps it: `(site, message)`.
type Finding = (String, String);

/// One built-in pass.
struct Pass {
    /// Stable pass name (used in reports and gate accounting).
    name: &'static str,
    /// The severity of every diagnostic the pass emits. Gates reject
    /// on [`Severity::Error`] only, so this is the pass's contract with
    /// the pipeline, not a per-finding judgment call.
    severity: Severity,
    /// Appends the pass's findings.
    run: fn(&Input<'_>, &mut Vec<Finding>),
}

/// The built-in passes, in run order.
const PASSES: [Pass; 7] = [
    Pass {
        name: "undeclared-identifier",
        severity: Severity::Error,
        run: undeclared_identifier,
    },
    Pass {
        name: "duplicate-declaration",
        severity: Severity::Error,
        run: duplicate_declaration,
    },
    Pass {
        name: "use-before-init",
        severity: Severity::Error,
        run: read_before_init,
    },
    Pass {
        name: "variable-shadowing",
        severity: Severity::Warning,
        run: variable_shadowing,
    },
    Pass {
        name: "unused-variable",
        severity: Severity::Warning,
        run: unused_variable,
    },
    Pass {
        name: "dead-store",
        severity: Severity::Warning,
        run: dead_store,
    },
    Pass {
        name: "unreachable-code",
        severity: Severity::Warning,
        run: unreachable_code,
    },
];

/// Runs the built-in passes: resolves the unit once and hands every
/// pass the same resolution.
#[derive(Debug, Default)]
pub struct Analyzer;

impl Analyzer {
    /// An analyzer running every built-in pass.
    pub fn new() -> Self {
        Analyzer
    }

    /// Name and severity of the passes, in run order.
    pub fn pass_summaries(&self) -> Vec<(&'static str, Severity)> {
        PASSES.iter().map(|p| (p.name, p.severity)).collect()
    }

    /// Runs every pass over `unit`.
    pub fn analyze(&self, unit: &TranslationUnit) -> Vec<Diagnostic> {
        let input = Input {
            unit,
            resolution: resolve(unit),
            cfgs: OnceCell::new(),
        };
        let mut out = Vec::new();
        let mut findings = Vec::new();
        for pass in &PASSES {
            (pass.run)(&input, &mut findings);
            out.extend(findings.drain(..).map(|(site, message)| Diagnostic {
                pass: pass.name,
                severity: pass.severity,
                site,
                message,
            }));
        }
        out
    }

    /// Parses `source` and runs every pass.
    ///
    /// # Errors
    ///
    /// Returns the parse error when `source` is outside the subset.
    pub fn analyze_source(&self, source: &str) -> Result<Vec<Diagnostic>, ParseError> {
        Ok(self.analyze(&parse(source)?))
    }
}

/// Number of error-severity diagnostics in `diags`.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// Errors present in `post` beyond the per-pass error budget set by
/// `pre`.
///
/// Diagnostics are compared by per-pass *count*, not by site: structural
/// rewrites legitimately move statements around, so sites shift, but a
/// semantics-preserving transformation can never increase the number of
/// errors a pass reports.
pub fn new_errors<'a>(pre: &[Diagnostic], post: &'a [Diagnostic]) -> Vec<&'a Diagnostic> {
    let mut budget: HashMap<&'static str, usize> = HashMap::new();
    for d in pre {
        if d.severity == Severity::Error {
            *budget.entry(d.pass).or_insert(0) += 1;
        }
    }
    let mut fresh = Vec::new();
    for d in post {
        if d.severity != Severity::Error {
            continue;
        }
        match budget.get_mut(d.pass) {
            Some(n) if *n > 0 => *n -= 1,
            _ => fresh.push(d),
        }
    }
    fresh
}

// ---------------------------------------------------------------------------
// Built-in passes
// ---------------------------------------------------------------------------

/// `undeclared-identifier`: identifier uses that resolve to no binding
/// and no std name. One finding per distinct name (the first site), to
/// keep a single orphaned variable from flooding the report.
fn undeclared_identifier(input: &Input<'_>, out: &mut Vec<Finding>) {
    let mut counts: Vec<(&str, &str, usize)> = Vec::new();
    for u in &input.resolution.undeclared {
        match counts.iter_mut().find(|(n, _, _)| *n == u.name) {
            Some((_, _, c)) => *c += 1,
            None => counts.push((&u.name, &u.site, 1)),
        }
    }
    for (name, site, uses) in counts {
        let message = if uses == 1 {
            format!("use of undeclared identifier `{name}`")
        } else {
            format!("use of undeclared identifier `{name}` ({uses} uses)")
        };
        out.push((site.to_string(), message));
    }
}

/// `duplicate-declaration`: two declarations of the same name in the
/// same scope.
fn duplicate_declaration(input: &Input<'_>, out: &mut Vec<Finding>) {
    let bindings = &input.resolution.bindings;
    for b in bindings {
        if let Some(first) = b.duplicate_of {
            out.push((
                b.site.clone(),
                format!(
                    "`{}` redeclared in the same scope (first declared at {})",
                    b.name, bindings[first].site
                ),
            ));
        }
    }
}

/// `variable-shadowing`: an inner-scope declaration hiding an outer
/// one.
fn variable_shadowing(input: &Input<'_>, out: &mut Vec<Finding>) {
    let bindings = &input.resolution.bindings;
    for b in bindings {
        if let Some(outer) = b.shadows {
            out.push((
                b.site.clone(),
                format!(
                    "`{}` shadows the declaration at {}",
                    b.name, bindings[outer].site
                ),
            ));
        }
    }
}

/// `unused-variable`: variables (globals, params, locals, loop
/// variables) that are never mentioned after declaration, and —
/// reconciled with the liveness-based `dead-store` pass — write-only
/// variables that are assigned but never read back.
fn unused_variable(input: &Input<'_>, out: &mut Vec<Finding>) {
    for b in &input.resolution.bindings {
        if !b.kind.is_variable() || b.duplicate_of.is_some() {
            continue;
        }
        if b.uses == 0 {
            out.push((
                b.site.clone(),
                format!("variable `{}` is never used", b.name),
            ));
        } else if b.reads == 0 {
            out.push((
                b.site.clone(),
                format!("variable `{}` is assigned but never read", b.name),
            ));
        }
    }
}

/// `use-before-init`: reads of variables that are definitely unassigned
/// — no path from function entry stores a value first. Backed by the
/// must-variant uninitialized-variable analysis over the per-function
/// CFGs, so "assigned on one branch only" patterns (which
/// semantics-preserving transforms rearrange freely) are deliberately
/// not reported.
fn read_before_init(input: &Input<'_>, out: &mut Vec<Finding>) {
    for cfg in input.cfgs() {
        for (site, name) in use_before_init(cfg) {
            out.push((
                site,
                format!("`{name}` is read before any value is assigned"),
            ));
        }
    }
}

/// `dead-store`: stores whose value can never be read (liveness-based,
/// over the per-function CFGs). Only explicit assignments and scalar
/// initializers are eligible; IO-written and address-taken variables
/// are exempt.
fn dead_store(input: &Input<'_>, out: &mut Vec<Finding>) {
    for cfg in input.cfgs() {
        for (site, name) in dead_stores(cfg) {
            out.push((site, format!("value assigned to `{name}` is never read")));
        }
    }
}

/// `unreachable-code`: statements that follow an unconditional
/// `return`, `break` or `continue` inside the same block (one finding
/// per block).
fn unreachable_code(input: &Input<'_>, out: &mut Vec<Finding>) {
    for f in input.unit.functions() {
        check_block(&f.body, &mut vec![f.name.clone()], out);
    }
}

fn check_block(block: &Block, path: &mut Vec<String>, out: &mut Vec<Finding>) {
    let mut terminated_at: Option<(usize, &'static str)> = None;
    for (i, stmt) in block.stmts.iter().enumerate() {
        if let Some((t, what)) = terminated_at {
            if !matches!(stmt, Stmt::Comment(_) | Stmt::Empty) {
                out.push((
                    format!("{}/[{}]", path.join("/"), i),
                    format!("statement is unreachable after the `{what}` at [{t}]"),
                ));
                break;
            }
            continue;
        }
        match stmt {
            Stmt::Return(_) => terminated_at = Some((i, "return")),
            Stmt::Break => terminated_at = Some((i, "break")),
            Stmt::Continue => terminated_at = Some((i, "continue")),
            _ => {}
        }
    }
    // Recurse into nested blocks (reachable ones and all — nested dead
    // code inside an unreachable region is reported once, at the top).
    for (i, stmt) in block.stmts.iter().enumerate() {
        path.push(format!("[{i}]"));
        match stmt {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                path.push("then".into());
                check_block(then_branch, path, out);
                path.pop();
                if let Some(e) = else_branch {
                    path.push("else".into());
                    check_block(e, path, out);
                    path.pop();
                }
            }
            Stmt::For { body, .. }
            | Stmt::ForEach { body, .. }
            | Stmt::While { body, .. }
            | Stmt::DoWhile { body, .. } => check_block(body, path, out),
            Stmt::Block(b) => check_block(b, path, out),
            _ => {}
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        Analyzer::new()
            .analyze_source(src)
            .expect("test source parses")
    }

    #[test]
    fn clean_unit_is_clean() {
        let d = diags(
            "#include <iostream>\nusing namespace std;\nint main() { int n = 2; cout << n; return 0; }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn new_errors_respects_preexisting_budget() {
        let pre = diags("#include <iostream>\nint main() { return ghost; }");
        assert_eq!(error_count(&pre), 1);
        // Same error still present: not new.
        assert!(new_errors(&pre, &pre).is_empty());
        // A second distinct undeclared name exceeds the budget.
        let post = diags("#include <iostream>\nint main() { int a = ghost; return phantom; }");
        assert_eq!(new_errors(&pre, &post).len(), 1);
        // Against an empty baseline everything is new.
        assert_eq!(new_errors(&[], &post).len(), 2);
    }

    #[test]
    fn analyzer_reports_each_defect_kind() {
        let d = diags(
            r#"
#include <iostream>
using namespace std;
int main() {
    int a = 1;
    int a = 2;
    int dead;
    if (a > 0) {
        int a = 3;
        cout << a << missing;
    }
    return 0;
    cout << a;
}
"#,
        );
        let passes: Vec<&str> = d.iter().map(|x| x.pass).collect();
        assert!(passes.contains(&"undeclared-identifier"), "{d:?}");
        assert!(passes.contains(&"duplicate-declaration"), "{d:?}");
        assert!(passes.contains(&"variable-shadowing"), "{d:?}");
        assert!(passes.contains(&"unused-variable"), "{d:?}");
        assert!(passes.contains(&"unreachable-code"), "{d:?}");
    }

    #[test]
    fn display_formats_site_and_pass() {
        let d = diags("#include <iostream>\nint main() { return ghost; }");
        let text = d[0].to_string();
        assert!(text.contains("error[undeclared-identifier]"), "{text}");
        assert!(text.contains("ghost"), "{text}");
    }
}
