//! The host thread budget every parallel layer draws from.
//!
//! One number bounds the threads a run may keep busy: the
//! `PIMGFX_THREADS` environment variable when set to a positive
//! integer, otherwise [`std::thread::available_parallelism`]. The
//! frontend build ([`FragmentStream::build`](crate::FragmentStream::build))
//! shades tiles on that many threads, and the sweep pool and replay
//! lanes of `pimgfx-bench` split the same number between them. The
//! budget only decides how work is spread over threads, never what is
//! computed: every report is byte-identical at any budget.

use pimgfx_types::{ConfigError, Result};

/// Environment variable overriding the thread budget (positive
/// integer; `1` makes every layer serial, useful for determinism A/B
/// checks; `0` or empty means "auto-detect"; anything else is a
/// configuration error).
pub const THREADS_ENV: &str = "PIMGFX_THREADS";

/// Interprets a [`THREADS_ENV`] value: `Ok(Some(n))` pins the budget to
/// `n` threads, `Ok(None)` means "fall back to auto-detection" (a
/// literal `"0"` and empty/whitespace values, which behave like an
/// unset variable).
///
/// # Errors
///
/// Anything that does not parse as a non-negative integer (`"abc"`,
/// `"-1"`, `"1.5"`) is rejected: a typo'd pin silently falling back to
/// a machine-wide thread count is worse than stopping the run.
pub fn parse_threads_override(raw: &str) -> Result<Option<usize>> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(ConfigError::new(
            "worker pool",
            format!("{THREADS_ENV}={trimmed:?} is not a non-negative integer worker count"),
        )),
    }
}

/// The thread budget: [`THREADS_ENV`] when set to a positive integer,
/// else [`std::thread::available_parallelism`] (1 if even that is
/// unknown). Read on every call, so a changed environment takes effect
/// at the next build or sweep.
///
/// # Errors
///
/// Rejects a malformed [`THREADS_ENV`] value (see
/// [`parse_threads_override`]).
pub fn configured_workers() -> Result<usize> {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Some(n) = parse_threads_override(&raw)? {
            return Ok(n);
        }
    }
    Ok(std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_grammar() {
        assert_eq!(parse_threads_override("1").expect("valid"), Some(1));
        assert_eq!(parse_threads_override(" 4 ").expect("valid"), Some(4));
        assert_eq!(parse_threads_override("0").expect("valid"), None);
        assert_eq!(parse_threads_override("").expect("valid"), None);
        for bad in ["abc", "-1", "1.5"] {
            assert!(parse_threads_override(bad).is_err(), "{bad:?}");
        }
    }
}
