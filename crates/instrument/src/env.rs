//! Warn-once environment-variable parsing with documented clamps.
//!
//! A `PP_*` knob that fell back *silently* on a malformed value — say
//! `PP_NUM_THREADS=lots` quietly running on every core — would turn an
//! operator's typo into invisible misconfiguration. The helpers here
//! parse, clamp to the caller's documented bounds, and emit **one**
//! warning line per variable per process to stderr when the value was
//! malformed or clamped.

use std::collections::BTreeSet;
use std::sync::Mutex;

static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Emit `msg` to stderr, at most once per `key` per process. Returns
/// `true` when the message was actually printed (first call for `key`).
pub fn warn_once(key: &'static str, msg: &str) -> bool {
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    let first = warned.insert(key);
    if first {
        eprintln!("pp: warning: {msg}");
    }
    first
}

/// Parse an environment value as a `usize` clamped to `[lo, hi]`.
///
/// * `None` / unset → `None` (caller applies its default), no warning.
/// * Malformed (non-numeric, negative, empty) → `None`, warns once that
///   the default is being used.
/// * Out of `[lo, hi]` → clamped, warns once with the documented bounds.
///
/// Split from the `std::env` read ([`env_usize_clamped`]) for unit
/// testing.
pub fn parse_usize_clamped(
    var: &'static str,
    raw: Option<&str>,
    lo: usize,
    hi: usize,
) -> Option<usize> {
    debug_assert!(lo <= hi);
    let raw = raw?.trim();
    match raw.parse::<usize>() {
        Ok(v) if v < lo => {
            warn_once(
                var,
                &format!("{var}={raw} is below the minimum {lo}; clamping to {lo}"),
            );
            Some(lo)
        }
        Ok(v) if v > hi => {
            warn_once(
                var,
                &format!("{var}={raw} is above the maximum {hi}; clamping to {hi}"),
            );
            Some(hi)
        }
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(
                var,
                &format!("{var}={raw:?} is not a valid integer; using the default"),
            );
            None
        }
    }
}

/// Read `var` from the process environment and parse it with
/// [`parse_usize_clamped`].
pub fn env_usize_clamped(var: &'static str, lo: usize, hi: usize) -> Option<usize> {
    parse_usize_clamped(var, std::env::var(var).ok().as_deref(), lo, hi)
}

/// Read `var` as a filesystem path. Unset → `None` silently; set but
/// empty (or whitespace) → `None` with a once-per-variable warning — an
/// empty `PP_CHECKPOINT_DIR` almost certainly means a broken shell
/// expansion, not "checkpoint into the current directory".
pub fn env_path(var: &'static str) -> Option<std::path::PathBuf> {
    let raw = std::env::var(var).ok()?;
    if raw.trim().is_empty() {
        warn_once(var, &format!("{var} is set but empty; ignoring it"));
        return None;
    }
    Some(std::path::PathBuf::from(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_silent_none() {
        assert_eq!(parse_usize_clamped("PP_TEST_UNSET", None, 1, 100), None);
    }

    #[test]
    fn valid_values_pass_through() {
        assert_eq!(
            parse_usize_clamped("PP_TEST_OK", Some("42"), 1, 100),
            Some(42)
        );
        assert_eq!(
            parse_usize_clamped("PP_TEST_OK", Some(" 7 "), 1, 100),
            Some(7),
            "whitespace is trimmed"
        );
    }

    #[test]
    fn out_of_range_clamps() {
        assert_eq!(
            parse_usize_clamped("PP_TEST_LO", Some("0"), 1, 100),
            Some(1)
        );
        assert_eq!(
            parse_usize_clamped("PP_TEST_HI", Some("1000"), 1, 100),
            Some(100)
        );
    }

    #[test]
    fn malformed_warns_and_falls_back() {
        assert_eq!(
            parse_usize_clamped("PP_TEST_BAD", Some("lots"), 1, 100),
            None
        );
        assert_eq!(parse_usize_clamped("PP_TEST_BAD", Some(""), 1, 100), None);
        assert_eq!(parse_usize_clamped("PP_TEST_BAD", Some("-3"), 1, 100), None);
    }

    #[test]
    fn warns_exactly_once_per_key() {
        assert!(warn_once("PP_TEST_ONCE", "first"));
        assert!(!warn_once("PP_TEST_ONCE", "second"));
        assert!(warn_once("PP_TEST_ONCE_OTHER", "different key"));
    }
}
