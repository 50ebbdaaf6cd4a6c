//! Error taxonomy for the serving runtime.

use tn_chip::nscs::DeployError;

/// Everything that can go wrong between [`crate::ServeRuntime::new`] and a
/// completed request.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm, so future
/// variants are not a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The network spec could not be deployed onto replica chips.
    Deploy(DeployError),
    /// The [`crate::ServeConfig`] is internally inconsistent (reported by
    /// [`crate::ServeConfigBuilder::build`], naming the offending field).
    BadConfig(String),
    /// The submission queue is full and the runtime is configured with
    /// [`crate::Backpressure::Reject`].
    QueueFull,
    /// The runtime is shutting down: either a submission was refused, or a
    /// request was accepted but the runtime went away before a worker
    /// served it (the waiter is woken with this instead of hanging).
    ShuttingDown,
    /// The backend has no healthy capacity for this request right now —
    /// e.g. a fleet router whose shards are all dead or stale, or a
    /// request whose re-dispatch budget ran out after connection losses.
    /// Distinct from [`ServeError::ShuttingDown`]: nobody asked the
    /// backend to stop, it just cannot serve; retrying later may
    /// succeed once capacity recovers.
    Unavailable(String),
    /// [`crate::RequestHandle::wait_timeout`] expired before the request
    /// completed. The request is still in flight; waiting again is fine.
    WaitTimeout,
    /// The request's input vector does not match the deployed network.
    BadInput {
        /// Channels the deployed network expects.
        expected: usize,
        /// Channels the request supplied.
        got: usize,
    },
    /// An input value fell outside the normalized `[0, 1]` range.
    InputOutOfRange {
        /// Index of the offending channel.
        channel: usize,
        /// The offending value.
        value: f32,
    },
    /// The request named a tenant model the runtime does not serve (see
    /// [`crate::SubmitRequest::model`]).
    UnknownModel {
        /// The model the request asked for.
        model: usize,
        /// Models the runtime serves (`0 .. models`).
        models: usize,
    },
    /// The request named a quality tier the runtime does not serve (see
    /// [`crate::QualityTier`]).
    UnknownQuality {
        /// The tier name the request asked for.
        quality: String,
        /// Tier names the runtime serves.
        tiers: Vec<String>,
    },
    /// A set of deployments could not be packed onto one chip
    /// ([`crate::ServeRuntime::new`]); carries the
    /// [`tn_chip::pack::PackError`] rendering.
    Pack(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deploy(e) => write!(f, "replica deployment failed: {e}"),
            Self::BadConfig(msg) => write!(f, "invalid serve config: {msg}"),
            Self::QueueFull => write!(f, "submission queue full (backpressure: reject)"),
            Self::ShuttingDown => write!(f, "runtime is shutting down"),
            Self::Unavailable(msg) => write!(f, "backend unavailable: {msg}"),
            Self::WaitTimeout => write!(f, "timed out waiting for the request to complete"),
            Self::BadInput { expected, got } => {
                write!(f, "input width mismatch: expected {expected} channels, got {got}")
            }
            Self::InputOutOfRange { channel, value } => {
                write!(
                    f,
                    "input channel {channel} = {value} outside normalized [0, 1]"
                )
            }
            Self::UnknownModel { model, models } => {
                write!(
                    f,
                    "unknown model {model}: this runtime serves models 0..{models}"
                )
            }
            Self::UnknownQuality { quality, tiers } => {
                write!(
                    f,
                    "unknown quality tier {quality:?}: this runtime serves {tiers:?}"
                )
            }
            Self::Pack(msg) => write!(f, "multi-tenant packing failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Deploy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeployError> for ServeError {
    fn from(e: DeployError) -> Self {
        Self::Deploy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::BadInput {
            expected: 784,
            got: 10,
        };
        let text = e.to_string();
        assert!(text.contains("784") && text.contains("10"), "{text}");
        assert!(ServeError::QueueFull.to_string().contains("full"));
        let e = ServeError::Unavailable("no healthy shard".into());
        assert!(e.to_string().contains("unavailable") && e.to_string().contains("shard"));
        let e = ServeError::UnknownModel { model: 3, models: 2 };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
        let e = ServeError::UnknownQuality {
            quality: "turbo".into(),
            tiers: vec!["fast".into(), "certain".into()],
        };
        assert!(e.to_string().contains("turbo") && e.to_string().contains("fast"));
    }
}
