//! Error taxonomy for the gateway front-end.

use tn_serve::ServeError;

/// Everything that can keep a [`crate::Gateway`] from starting.
///
/// Once the gateway is up, per-request failures never surface here — they
/// become well-formed HTTP error responses on the wire.
#[derive(Debug)]
#[non_exhaustive]
pub enum GatewayError {
    /// The TCP listener could not be bound or configured.
    Bind(std::io::Error),
    /// The [`crate::GatewayConfig`] is internally inconsistent.
    BadConfig(String),
    /// The underlying serve runtime could not be built.
    Serve(ServeError),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bind(e) => write!(f, "failed to bind gateway listener: {e}"),
            Self::BadConfig(msg) => write!(f, "invalid gateway config: {msg}"),
            Self::Serve(e) => write!(f, "failed to start serve runtime: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Bind(e) => Some(e),
            Self::Serve(e) => Some(e),
            Self::BadConfig(_) => None,
        }
    }
}

impl From<ServeError> for GatewayError {
    fn from(e: ServeError) -> Self {
        Self::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = GatewayError::BadConfig("max_connections must be >= 1".into());
        assert!(e.to_string().contains("max_connections"));
        let e = GatewayError::from(ServeError::QueueFull);
        assert!(e.to_string().contains("serve runtime"));
    }
}
