//! The text codec both GOOFI on-disk formats share: the field escape of
//! the database file and the experiment journal, and the FNV-1a checksum
//! of a database block, a journal line and a wire frame.
//!
//! Both halves of the escape work on runs of bytes: [`escape_into`]
//! copies the runs between the four bytes it escapes, testing 32 bytes at
//! a time for one, and [`unescape`] the runs between backslashes, so a
//! field costs one copy and allocates nothing per character.

use crate::DbError;
use std::borrow::Cow;

/// The escape of one byte, or `None` for a byte copied as is: `\`, tab,
/// LF and CR are the bytes a tab-separated line cannot hold raw.
fn escape_of(byte: u8) -> Option<&'static str> {
    match byte {
        b'\\' => Some("\\\\"),
        b'\t' => Some("\\t"),
        b'\n' => Some("\\n"),
        b'\r' => Some("\\r"),
        _ => None,
    }
}

/// Appends `s` to `out`, escaping `\`, tab, LF and CR as `\\`, `\t`, `\n`
/// and `\r`.
pub fn escape_into(out: &mut String, s: &str) {
    // A chunk with nothing to escape, the common case, costs one test.
    const CHUNK: usize = 32;
    let mut run = 0;
    for (start, chunk) in (0..).step_by(CHUNK).zip(s.as_bytes().chunks(CHUNK)) {
        if !any_escaped(chunk) {
            continue;
        }
        for (at, &byte) in (start..).zip(chunk) {
            if let Some(escaped) = escape_of(byte) {
                // The four bytes are ASCII, so `at` is a char boundary.
                out.push_str(&s[run..at]);
                out.push_str(escaped);
                run = at + 1;
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Whether `s` holds a byte [`escape_into`] escapes.
pub fn needs_escape(s: &str) -> bool {
    any_escaped(s.as_bytes())
}

/// Whether `bytes` hold a byte to escape: a fold with no early exit, which
/// the compiler turns into a few vector compares.
fn any_escaped(bytes: &[u8]) -> bool {
    bytes
        .iter()
        .fold(false, |any, &byte| any | escape_of(byte).is_some())
}

/// Reverses [`escape_into`]: borrowed when `s` holds no backslash.
///
/// # Errors
///
/// A backslash followed by anything but `\`, `t`, `n` or `r`, or by
/// nothing: no writer emits one, so the field is damaged.
pub fn unescape(s: &str) -> Result<Cow<'_, str>, DbError> {
    let Some(first) = s.find('\\') else {
        return Ok(Cow::Borrowed(s));
    };
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    let mut at = first;
    loop {
        out.push_str(&rest[..at]);
        let unescaped = match rest.as_bytes().get(at + 1) {
            Some(b'\\') => '\\',
            Some(b't') => '\t',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            _ => {
                let after = rest[at + 1..].chars().next();
                return Err(DbError::Execution(format!(
                    "bad escape `\\{}`",
                    after.map(String::from).unwrap_or_default()
                )));
            }
        };
        out.push(unescaped);
        // The escaped byte is ASCII, so `at + 2` is a char boundary.
        rest = &rest[at + 2..];
        match rest.find('\\') {
            Some(next) => at = next,
            None => break,
        }
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// The FNV-1a (32-bit) offset basis: [`fnv1a_extend`]'s start value.
pub(crate) const FNV_OFFSET: u32 = 0x811c_9dc5;

/// The 32-bit FNV-1a checksum of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Folds `bytes` into a running FNV-1a checksum.
pub(crate) fn fnv1a_extend(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn escape_copies_runs_and_round_trips() {
        // Escapes and multibyte characters on and across the 32-byte
        // chunk boundaries.
        let long = format!(
            "{}\t{}é\\{}✓\n\r{}",
            "a".repeat(31),
            "b".repeat(30),
            "c".repeat(28),
            "d".repeat(40)
        );
        for s in [
            "",
            "plain ✓ text",
            "tab\tnl\ncr\rback\\slash",
            "trailing\\",
            "\\\\\t\t\n\n",
            "ü\\ö\tä✓",
            &long,
            &long[..31],
        ] {
            let escaped = escape(s);
            // The char-by-char escape the codec replaced, as a reference.
            let reference: String = s
                .chars()
                .map(|c| match c {
                    '\\' => "\\\\".to_string(),
                    '\t' => "\\t".to_string(),
                    '\n' => "\\n".to_string(),
                    '\r' => "\\r".to_string(),
                    c => c.to_string(),
                })
                .collect();
            assert_eq!(escaped, reference, "{s:?}");
            assert_eq!(needs_escape(s), escaped != s, "{s:?}");
            assert_eq!(unescape(&escaped).unwrap(), s, "{s:?}");
        }
        assert!(matches!(unescape("no escapes"), Ok(Cow::Borrowed(_))));
    }

    #[test]
    fn unescape_refuses_what_no_writer_emits() {
        for bad in ["\\q", "a\\", "\\\\\\", "x\\é"] {
            assert!(unescape(bad).is_err(), "{bad:?}");
        }
        let err = unescape("ok\\é").unwrap_err().to_string();
        assert!(err.contains("bad escape `\\é`"), "{err}");
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
