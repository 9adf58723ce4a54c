//! JSON string escaping, shared by every hand-rolled JSON writer in
//! the workspace (the serve responses emit JSON without serde).
//!
//! One escaping routine means one definition of the control surface:
//! the writers can't drift apart on which characters get `\uXXXX`
//! treatment, and the golden test here covers them all at once.

/// Appends `s` to `out` as a quoted JSON string literal.
///
/// Escapes quotes, backslashes, and all control characters below
/// 0x20 (named escapes for `\n`, `\r`, `\t`; `\u00XX` for the rest).
/// Writes directly into `out` — no intermediate allocations, runs of
/// plain characters are copied as whole slices.
pub fn escape_into(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut plain_from = 0;
    for (i, c) in s.char_indices() {
        let escape: Option<&str> = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            c if (c as u32) < 0x20 => None, // \u00XX below
            _ => continue,
        };
        out.push_str(&s[plain_from..i]);
        plain_from = i + c.len_utf8();
        match escape {
            Some(esc) => out.push_str(esc),
            None => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let code = c as u32;
                out.push_str("\\u00");
                out.push(HEX[(code >> 4) as usize] as char);
                out.push(HEX[(code & 0xf) as usize] as char);
            }
        }
    }
    out.push_str(&s[plain_from..]);
    out.push('"');
}

/// Escapes and quotes `s` as a fresh JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden cases both downstream writers used to assert
    /// independently, now checked once at the source.
    #[test]
    fn golden_escapes() {
        for (input, want) in [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("a\"b\\c", r#""a\"b\\c""#),
            ("a\"b\\c\nd", r#""a\"b\\c\nd""#),
            ("line\nbreak\ttab", r#""line\nbreak\ttab""#),
            ("\r", r#""\r""#),
            ("\u{1}", r#""\u0001""#),
            ("\u{1f}", r#""\u001f""#),
            ("mixé → 🦀", "\"mixé → 🦀\""),
            ("\u{7f}", "\"\u{7f}\""), // DEL is not a JSON control char
        ] {
            assert_eq!(escaped(input), want, "input {input:?}");
        }
    }

    #[test]
    fn escape_into_appends_without_clobbering() {
        let mut out = String::from("{\"k\":");
        escape_into(&mut out, "v\n");
        assert_eq!(out, "{\"k\":\"v\\n\"");
    }

    /// Output must be parseable back: every raw control char is gone.
    #[test]
    fn no_raw_control_chars_survive() {
        let input: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let out = escaped(&input);
        assert!(out.chars().all(|c| (c as u32) >= 0x20), "{out:?}");
    }
}
