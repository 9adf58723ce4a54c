//! The diagnostic pass framework and the built-in passes.
//!
//! A [`Pass`] inspects a resolved translation unit and appends
//! [`Diagnostic`]s. The [`Analyzer`] owns a pass registry, resolves the
//! unit once, and hands every pass the shared [`Context`].
//!
//! Severity policy: anything that would fail to compile or read an
//! unbound name is an [`Severity::Error`]; style and dead-code findings
//! are [`Severity::Warning`]s. The transformation gates only reject
//! *new* errors, so a warning-heavy human seed still transforms.

use crate::cfg::Cfg;
use crate::dataflow::{dead_stores, use_before_init};
use crate::resolve::{resolve, Resolution};
use std::collections::HashMap;
use std::sync::OnceLock;
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

/// Shared input handed to every pass.
pub struct Context<'a> {
    /// The unit under analysis.
    pub unit: &'a TranslationUnit,
    /// Its resolution (bindings, use counts, unresolved uses).
    pub resolution: &'a Resolution,
    /// Per-function CFGs, built on first demand and shared by every
    /// dataflow pass.
    cfgs: OnceLock<Vec<Cfg>>,
}

impl<'a> Context<'a> {
    /// A context over `unit` and its `resolution`.
    pub fn new(unit: &'a TranslationUnit, resolution: &'a Resolution) -> Self {
        Context {
            unit,
            resolution,
            cfgs: OnceLock::new(),
        }
    }

    /// The unit's per-function CFGs (built at most once per context).
    pub fn cfgs(&self) -> &[Cfg] {
        self.cfgs.get_or_init(|| Cfg::build_all(self.unit))
    }
}

/// A single analysis pass.
pub trait Pass {
    /// Stable pass name (used in reports and gate accounting).
    fn name(&self) -> &'static str;

    /// The severity of every diagnostic this pass emits. Gates reject
    /// on [`Severity::Error`] only, so this is the pass's contract with
    /// the pipeline, not a per-finding judgment call.
    fn severity(&self) -> Severity;

    /// Appends findings for `ctx` to `out`.
    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>);
}

/// The pass registry: resolves once, runs every registered pass.
pub struct Analyzer {
    passes: Vec<Box<dyn Pass + Send + Sync>>,
}

impl Analyzer {
    /// An analyzer with every built-in pass registered.
    pub fn new() -> Self {
        Analyzer {
            passes: vec![
                Box::new(UndeclaredIdentifier),
                Box::new(DuplicateDeclaration),
                Box::new(UseBeforeInit),
                Box::new(VariableShadowing),
                Box::new(UnusedVariable),
                Box::new(DeadStore),
                Box::new(UnreachableCode),
            ],
        }
    }

    /// Name and severity of the registered passes, in run order.
    pub fn pass_summaries(&self) -> Vec<(&'static str, Severity)> {
        self.passes
            .iter()
            .map(|p| (p.name(), p.severity()))
            .collect()
    }

    /// Runs every pass over `unit`.
    pub fn analyze(&self, unit: &TranslationUnit) -> Vec<Diagnostic> {
        let resolution = resolve(unit);
        let ctx = Context::new(unit, &resolution);
        let mut out = Vec::new();
        for pass in &self.passes {
            pass.run(&ctx, &mut out);
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

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
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

/// Reports identifier uses that resolve to no binding and no std name.
/// One diagnostic per distinct name (the first site), to keep a single
/// orphaned variable from flooding the report.
pub struct UndeclaredIdentifier;

impl Pass for UndeclaredIdentifier {
    fn name(&self) -> &'static str {
        "undeclared-identifier"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        let mut counts: Vec<(&str, &str, usize)> = Vec::new();
        for u in &ctx.resolution.undeclared {
            match counts.iter_mut().find(|(n, _, _)| *n == u.name) {
                Some((_, _, c)) => *c += 1,
                None => counts.push((&u.name, &u.site, 1)),
            }
        }
        for (name, site, uses) in counts {
            out.push(Diagnostic {
                pass: self.name(),
                severity: self.severity(),
                site: site.to_string(),
                message: if uses == 1 {
                    format!("use of undeclared identifier `{name}`")
                } else {
                    format!("use of undeclared identifier `{name}` ({uses} uses)")
                },
            });
        }
    }
}

/// Reports two declarations of the same name in the same scope.
pub struct DuplicateDeclaration;

impl Pass for DuplicateDeclaration {
    fn name(&self) -> &'static str {
        "duplicate-declaration"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        for b in &ctx.resolution.bindings {
            if let Some(first) = b.duplicate_of {
                let original = &ctx.resolution.bindings[first];
                out.push(Diagnostic {
                    pass: self.name(),
                    severity: self.severity(),
                    site: b.site.clone(),
                    message: format!(
                        "`{}` redeclared in the same scope (first declared at {})",
                        b.name, original.site
                    ),
                });
            }
        }
    }
}

/// Reports an inner-scope declaration hiding an outer one.
pub struct VariableShadowing;

impl Pass for VariableShadowing {
    fn name(&self) -> &'static str {
        "variable-shadowing"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        for b in &ctx.resolution.bindings {
            if let Some(outer) = b.shadows {
                let hidden = &ctx.resolution.bindings[outer];
                out.push(Diagnostic {
                    pass: self.name(),
                    severity: self.severity(),
                    site: b.site.clone(),
                    message: format!("`{}` shadows the declaration at {}", b.name, hidden.site),
                });
            }
        }
    }
}

/// Reports variables (globals, params, locals, loop variables) that are
/// never mentioned after declaration, and — reconciled with the
/// liveness-based [`DeadStore`] pass — write-only variables that are
/// assigned but never read back.
pub struct UnusedVariable;

impl Pass for UnusedVariable {
    fn name(&self) -> &'static str {
        "unused-variable"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        for b in &ctx.resolution.bindings {
            if !b.kind.is_variable() || b.duplicate_of.is_some() {
                continue;
            }
            if b.uses == 0 {
                out.push(Diagnostic {
                    pass: self.name(),
                    severity: self.severity(),
                    site: b.site.clone(),
                    message: format!("variable `{}` is never used", b.name),
                });
            } else if b.reads == 0 {
                out.push(Diagnostic {
                    pass: self.name(),
                    severity: self.severity(),
                    site: b.site.clone(),
                    message: format!("variable `{}` is assigned but never read", b.name),
                });
            }
        }
    }
}

/// Reports reads of variables that are definitely unassigned — no path
/// from function entry stores a value first. Backed by the must-variant
/// uninitialized-variable analysis over the per-function CFGs, so
/// "assigned on one branch only" patterns (which semantics-preserving
/// transforms rearrange freely) are deliberately not reported.
pub struct UseBeforeInit;

impl Pass for UseBeforeInit {
    fn name(&self) -> &'static str {
        "use-before-init"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        for cfg in ctx.cfgs() {
            for (site, name) in use_before_init(cfg) {
                out.push(Diagnostic {
                    pass: self.name(),
                    severity: self.severity(),
                    site,
                    message: format!("`{name}` is read before any value is assigned"),
                });
            }
        }
    }
}

/// Reports stores whose value can never be read (liveness-based, over
/// the per-function CFGs). Only explicit assignments and scalar
/// initializers are eligible; IO-written and address-taken variables
/// are exempt.
pub struct DeadStore;

impl Pass for DeadStore {
    fn name(&self) -> &'static str {
        "dead-store"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        for cfg in ctx.cfgs() {
            for (site, name) in dead_stores(cfg) {
                out.push(Diagnostic {
                    pass: self.name(),
                    severity: self.severity(),
                    site,
                    message: format!("value assigned to `{name}` is never read"),
                });
            }
        }
    }
}

/// Reports statements that follow an unconditional `return`, `break` or
/// `continue` inside the same block (one diagnostic per block).
pub struct UnreachableCode;

impl Pass for UnreachableCode {
    fn name(&self) -> &'static str {
        "unreachable-code"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        for item in &ctx.unit.items {
            if let Item::Function(f) = item {
                let mut path = vec![f.name.clone()];
                check_block(&f.body, &mut path, self.name(), out);
            }
        }
    }
}

fn check_block(
    block: &Block,
    path: &mut Vec<String>,
    pass: &'static str,
    out: &mut Vec<Diagnostic>,
) {
    let mut terminated_at: Option<(usize, &'static str)> = None;
    for (i, stmt) in block.stmts.iter().enumerate() {
        if let Some((t, what)) = terminated_at {
            if !matches!(stmt, Stmt::Comment(_) | Stmt::Empty) {
                out.push(Diagnostic {
                    pass,
                    severity: UnreachableCode.severity(),
                    site: format!("{}/[{}]", path.join("/"), i),
                    message: format!("statement is unreachable after the `{what}` at [{t}]"),
                });
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
                check_block(then_branch, path, pass, out);
                path.pop();
                if let Some(e) = else_branch {
                    path.push("else".into());
                    check_block(e, path, pass, out);
                    path.pop();
                }
            }
            Stmt::For { body, .. }
            | Stmt::ForEach { body, .. }
            | Stmt::While { body, .. }
            | Stmt::DoWhile { body, .. } => check_block(body, path, pass, out),
            Stmt::Block(b) => check_block(b, path, pass, out),
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
