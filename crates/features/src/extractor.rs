//! The assembled feature extractor.

use crate::incr::ItemFeatures;
use crate::layout::RegionLayout;
use crate::{dataflow, layout, lexical, syntactic};
use synthattr_lang::ast::TranslationUnit;
use synthattr_lang::{parse, ParseError};

/// Which feature families to extract.
///
/// The defaults match the configuration used by every experiment in
/// the reproduction; `repro ablation-features` varies the family
/// switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Extract the lexical family.
    pub lexical: bool,
    /// Extract the layout family.
    pub layout: bool,
    /// Extract the syntactic family.
    pub syntactic: bool,
    /// Extract the dataflow family (CFG/fixed-point measurements).
    pub dataflow: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            lexical: true,
            layout: true,
            syntactic: true,
            dataflow: true,
        }
    }
}

impl FeatureConfig {
    /// A lexical-only configuration (ablation).
    pub fn lexical_only() -> Self {
        FeatureConfig {
            layout: false,
            syntactic: false,
            dataflow: false,
            ..Self::default()
        }
    }

    /// Lexical + layout, no AST features (ablation).
    pub fn without_syntactic() -> Self {
        FeatureConfig {
            syntactic: false,
            dataflow: false,
            ..Self::default()
        }
    }

    /// The full surface set without the dataflow family (ablation:
    /// isolates the accuracy delta the semantic features contribute).
    pub fn without_dataflow() -> Self {
        FeatureConfig {
            dataflow: false,
            ..Self::default()
        }
    }
}

/// Extracts fixed-dimension stylometry vectors from C++ source.
///
/// # Example
///
/// ```
/// use synthattr_features::{FeatureConfig, FeatureExtractor};
///
/// let ex = FeatureExtractor::new(FeatureConfig::default());
/// let a = ex.extract("int main() { return 0; }")?;
/// let b = ex.extract("int main()\n{\n\treturn 0;\n}")?;
/// assert_eq!(a.len(), b.len());
/// assert_ne!(a, b); // layout differs
/// # Ok::<(), synthattr_lang::ParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    config: FeatureConfig,
    names: Vec<String>,
}

impl FeatureExtractor {
    /// Creates an extractor; the feature dimension and names are fixed
    /// at construction.
    pub fn new(config: FeatureConfig) -> Self {
        let mut names = Vec::new();
        if config.lexical {
            lexical::push_names(&mut names);
        }
        if config.layout {
            layout::push_names(&mut names);
        }
        if config.syntactic {
            syntactic::push_names(&mut names);
        }
        if config.dataflow {
            dataflow::push_names(&mut names);
        }
        FeatureExtractor { config, names }
    }

    /// The configuration this extractor was built with.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.names.len()
    }

    /// One stable, human-readable name per vector position.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Parses `source` and extracts its feature vector.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ParseError`] when `source` is not in
    /// the supported C++ subset.
    pub fn extract(&self, source: &str) -> Result<Vec<f64>, ParseError> {
        let unit = parse(source)?;
        Ok(self.extract_parsed(source, &unit))
    }

    /// Extracts features given an already-parsed unit (avoids double
    /// parsing in pipelines that already hold the AST).
    ///
    /// The unit is the merge of its items and the whole source is one
    /// region with no separator, so this is
    /// [`extract_from_parts`](FeatureExtractor::extract_from_parts) over
    /// freshly measured partials.
    pub fn extract_parsed(&self, source: &str, unit: &TranslationUnit) -> Vec<f64> {
        let items: Vec<ItemFeatures> = unit.items.iter().map(ItemFeatures::of_item).collect();
        let layout = RegionLayout::scan(source);
        self.extract_from_parts(source.len(), &items, [(0, &layout)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = r#"
#include <iostream>
using namespace std;
int main() {
    int numCases;
    cin >> numCases;
    for (int caseIdx = 1; caseIdx <= numCases; ++caseIdx) {
        cout << caseIdx << endl;
    }
    return 0;
}
"#;

    const B: &str = r#"
#include <cstdio>
int main()
{
	int n_cases;
	scanf("%d", n_cases);
	for (int i = 1; i <= n_cases; i++)
	{
		printf("%d\n", i);
	}
	return 0;
}
"#;

    #[test]
    fn default_config_has_three_families() {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        assert!(ex.names().iter().any(|n| n.starts_with("lex.")));
        assert!(ex.names().iter().any(|n| n.starts_with("lay.")));
        assert!(ex.names().iter().any(|n| n.starts_with("syn.")));
        assert!(ex.names().iter().any(|n| n.starts_with("df.")));
        assert!(ex.dim() > 100, "dim = {}", ex.dim());
    }

    #[test]
    fn family_switches_change_dim() {
        let full = FeatureExtractor::new(FeatureConfig::default());
        let lex = FeatureExtractor::new(FeatureConfig::lexical_only());
        let nosyn = FeatureExtractor::new(FeatureConfig::without_syntactic());
        assert!(lex.dim() < nosyn.dim());
        assert!(nosyn.dim() < full.dim());
    }

    #[test]
    fn different_styles_produce_different_vectors() {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let a = ex.extract(A).unwrap();
        let b = ex.extract(B).unwrap();
        assert_eq!(a.len(), b.len());
        let distance: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(
            distance > 1.0,
            "expected well-separated vectors: {distance}"
        );
    }

    #[test]
    fn extraction_is_deterministic() {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        assert_eq!(ex.extract(A).unwrap(), ex.extract(A).unwrap());
    }

    #[test]
    fn parse_error_propagates() {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        assert!(ex.extract("int main() {").is_err());
    }

    #[test]
    fn vector_is_always_finite() {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        for src in ["", A, B, "int x;"] {
            for (i, v) in ex.extract(src).unwrap().iter().enumerate() {
                assert!(
                    v.is_finite(),
                    "feature {} ({}) not finite",
                    i,
                    ex.names()[i]
                );
            }
        }
    }
}
