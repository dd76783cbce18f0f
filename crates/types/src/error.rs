//! Common error types for simulator configuration and tooling.

use std::fmt;

/// Convenience alias for results carrying a [`ConfigError`].
pub type Result<T> = std::result::Result<T, ConfigError>;

/// Error produced when a simulator component is constructed with an
/// invalid configuration.
///
/// # Examples
///
/// ```
/// use pimgfx_types::ConfigError;
/// let err = ConfigError::new("texture cache", "associativity must be a power of two");
/// assert_eq!(
///     err.to_string(),
///     "invalid texture cache configuration: associativity must be a power of two"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    component: String,
    reason: String,
}

impl ConfigError {
    /// Creates an error naming the offending `component` and the `reason`
    /// the configuration was rejected.
    pub fn new(component: impl Into<String>, reason: impl Into<String>) -> Self {
        Self {
            component: component.into(),
            reason: reason.into(),
        }
    }

    /// The component that rejected its configuration.
    pub fn component(&self) -> &str {
        &self.component
    }

    /// Why the configuration was rejected.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} configuration: {}",
            self.component, self.reason
        )
    }
}

impl std::error::Error for ConfigError {}

/// Unified error for fallible simulator and harness paths.
///
/// Library code never panics (enforced by the clippy denials in every
/// crate's lint wall); anything that can fail — configuration
/// validation, rendering, or harness I/O — surfaces through this type.
///
/// # Examples
///
/// ```
/// use pimgfx_types::{ConfigError, Error};
/// let e: Error = ConfigError::new("hmc", "zero vaults").into();
/// assert!(e.to_string().contains("hmc"));
/// ```
#[derive(Debug)]
pub enum Error {
    /// A component rejected its configuration.
    Config(ConfigError),
    /// An I/O operation failed (`context` names the operation).
    Io {
        /// What the harness was doing when the operation failed.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl Error {
    /// Wraps an I/O error with a description of the failed operation.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Self::Io {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => e.fmt(f),
            Error::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Io { source, .. } => Some(source),
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_display() {
        let e = ConfigError::new("hmc", "vault count must divide bank count");
        assert_eq!(e.component(), "hmc");
        assert_eq!(e.reason(), "vault count must divide bank count");
        assert!(e.to_string().starts_with("invalid hmc configuration"));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ConfigError>();
    }
}
