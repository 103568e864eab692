//! The worker-thread count that batched queries default to.
//!
//! The CLI and the benchmarks run batches on [`default_threads`] workers:
//! the machine's available parallelism, or the `THINSLICE_THREADS`
//! override. The batch engine itself (`thinslice::batch`) runs a batch on
//! the calling thread plus scoped helpers that claim lane groups from one
//! shared counter.

/// Environment variable overriding [`default_threads`] (and therefore every
/// CLI and benchmark default). Must be a positive integer when set; an
/// unparsable or zero value is rejected with a diagnostic rather than
/// silently ignored (see [`try_default_threads`]).
pub const THREADS_ENV: &str = "THINSLICE_THREADS";

/// Validates one `THINSLICE_THREADS` value: a positive (non-zero) integer,
/// surrounding whitespace tolerated.
///
/// # Examples
///
/// ```
/// use thinslice_util::par::parse_threads_env;
///
/// assert_eq!(parse_threads_env(" 4 "), Ok(4));
/// assert!(parse_threads_env("0").is_err());
/// assert!(parse_threads_env("two").is_err());
/// ```
pub fn parse_threads_env(raw: &str) -> Result<usize, String> {
    let token = raw.trim();
    match token.parse::<usize>() {
        Ok(0) => Err(format!("{THREADS_ENV} must be at least 1, got \"{token}\"")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{THREADS_ENV} must be a positive integer, got \"{token}\""
        )),
    }
}

/// The number of worker threads to use by default: the `THINSLICE_THREADS`
/// environment override when set, otherwise the machine's available
/// parallelism (1 when it cannot be determined).
///
/// A set-but-invalid override is an error, so a typo degrades loudly
/// instead of silently running on a different thread count than asked.
pub fn try_default_threads() -> Result<usize, String> {
    match std::env::var(THREADS_ENV) {
        Ok(v) => parse_threads_env(&v),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!(
            "{THREADS_ENV} must be a positive integer, got non-unicode bytes"
        )),
        Err(std::env::VarError::NotPresent) => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
    }
}

/// [`try_default_threads`], panicking with its diagnostic on an invalid
/// `THINSLICE_THREADS`. Callers with a cleaner error channel (the CLI, the
/// server) should prefer [`try_default_threads`].
pub fn default_threads() -> usize {
    match try_default_threads() {
        Ok(n) => n,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_env_values_are_validated_not_ignored() {
        assert_eq!(parse_threads_env("1"), Ok(1));
        assert_eq!(parse_threads_env("  16\n"), Ok(16));
        for bad in ["0", "", "  ", "two", "-3", "1.5", "4x", "0x4"] {
            let err = parse_threads_env(bad).unwrap_err();
            assert!(
                err.contains(THREADS_ENV) && err.contains(bad.trim()),
                "diagnostic must name the variable and the offending \
                 token: {err:?}"
            );
        }
    }
}
