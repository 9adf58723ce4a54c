//! Tiny JSON *writer* helpers for the response bodies.
//!
//! Hand-rolled (hermetic workspace, no serde) and deliberately
//! write-only: requests carry raw C++ source as `text/plain`, so the
//! server never needs a JSON parser. Float formatting uses Rust's
//! shortest-round-trip `Display`, which is deterministic across runs
//! and platforms — the property the byte-identical e2e suite leans on.

/// Escapes and quotes `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    synthattr_util::json::escaped(s)
}

/// Formats an `f32` as a JSON number (shortest round-trip; non-finite
/// values, which no probability can be, degrade to `null`).
pub fn f32(x: f32) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Formats an `f64` as a JSON number (same conventions as [`f32()`]).
pub fn f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Joins pre-serialized values into a JSON array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_the_control_surface() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(string("line\nbreak\ttab"), r#""line\nbreak\ttab""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_round_trip_shortest() {
        assert_eq!(f32(0.25), "0.25");
        assert_eq!(f32(1.0), "1");
        assert_eq!(f64(0.1), "0.1");
        assert_eq!(f32(f32::NAN), "null");
        assert_eq!(f64(f64::INFINITY), "null");
    }

    #[test]
    fn arrays_join_with_commas() {
        assert_eq!(array(Vec::new()), "[]");
        assert_eq!(
            array(vec!["1".to_string(), "\"x\"".to_string()]),
            "[1,\"x\"]"
        );
    }
}
