use std::fmt;
use std::sync::Arc;

use gradsec_nn::NnError;
use gradsec_tee::TeeError;

/// Errors produced by the federated-learning substrate.
///
/// The enum is `#[non_exhaustive]`: the transport layer may grow new
/// failure modes (timeouts, TLS, partial writes) without breaking
/// downstream matches. Every variant that wraps an underlying failure
/// exposes it through [`std::error::Error::source`], so callers can walk
/// the full cause chain — in particular, [`FlError::Transport`] carries
/// the originating [`std::io::Error`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum FlError {
    /// A model/training error from the NN substrate.
    Nn(NnError),
    /// A TEE error (attestation, enclave memory, channels).
    Tee(TeeError),
    /// No clients passed selection for a round.
    NoEligibleClients {
        /// Round index.
        round: u64,
    },
    /// A fault-tolerant round committed nothing: every selected client
    /// straggled past the deadline or failed. Distinct from
    /// [`NoEligibleClients`](Self::NoEligibleClients) — selection *did*
    /// find eligible clients; the fleet shed all of them.
    RoundCollapsed {
        /// Round index.
        round: u64,
        /// How many selected clients overran the round deadline.
        stragglers: usize,
        /// How many selected clients failed outright.
        failures: usize,
    },
    /// An aggregation input set was empty or inconsistent.
    BadAggregation {
        /// Human-readable reason.
        reason: String,
    },
    /// Invalid plan/config values.
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A round schedule handed to the engine was malformed: duplicate or
    /// out-of-range client indices.
    InvalidSelection {
        /// Human-readable reason.
        reason: String,
    },
    /// A client worker thread failed, or a remote client reported a
    /// failure over its transport.
    ClientFailure {
        /// The failing client id.
        client: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// A transport I/O failure (socket, channel, framing). The underlying
    /// cause is preserved and surfaced through `source()`.
    Transport {
        /// What the transport was doing when it failed.
        context: String,
        /// The originating I/O error.
        source: Arc<std::io::Error>,
    },
    /// A wire-protocol violation: bad magic, unsupported version,
    /// unexpected message kind, or a failed handshake.
    Protocol {
        /// Human-readable reason.
        reason: String,
    },
}

impl FlError {
    /// Wraps an I/O error with the transport context it occurred in.
    pub(crate) fn transport(context: impl Into<String>, source: std::io::Error) -> Self {
        FlError::Transport {
            context: context.into(),
            source: Arc::new(source),
        }
    }

    /// A transport error for a peer that disconnected mid-exchange
    /// (channel hung up, socket closed).
    pub(crate) fn disconnected(context: impl Into<String>) -> Self {
        FlError::transport(
            context,
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer disconnected"),
        )
    }
}

impl PartialEq for FlError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FlError::Nn(a), FlError::Nn(b)) => a == b,
            (FlError::Tee(a), FlError::Tee(b)) => a == b,
            (FlError::NoEligibleClients { round: a }, FlError::NoEligibleClients { round: b }) => {
                a == b
            }
            (
                FlError::RoundCollapsed {
                    round: ra,
                    stragglers: sa,
                    failures: fa,
                },
                FlError::RoundCollapsed {
                    round: rb,
                    stragglers: sb,
                    failures: fb,
                },
            ) => ra == rb && sa == sb && fa == fb,
            (FlError::BadAggregation { reason: a }, FlError::BadAggregation { reason: b })
            | (FlError::BadConfig { reason: a }, FlError::BadConfig { reason: b })
            | (FlError::InvalidSelection { reason: a }, FlError::InvalidSelection { reason: b })
            | (FlError::Protocol { reason: a }, FlError::Protocol { reason: b }) => a == b,
            (
                FlError::ClientFailure {
                    client: ca,
                    reason: ra,
                },
                FlError::ClientFailure {
                    client: cb,
                    reason: rb,
                },
            ) => ca == cb && ra == rb,
            // io::Error is not PartialEq; compare kind and rendering.
            (
                FlError::Transport {
                    context: xa,
                    source: sa,
                },
                FlError::Transport {
                    context: xb,
                    source: sb,
                },
            ) => xa == xb && sa.kind() == sb.kind() && sa.to_string() == sb.to_string(),
            _ => false,
        }
    }
}

impl fmt::Display for FlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlError::Nn(e) => write!(f, "model error: {e}"),
            FlError::Tee(e) => write!(f, "tee error: {e}"),
            FlError::NoEligibleClients { round } => {
                write!(f, "no eligible clients for round {round}")
            }
            FlError::RoundCollapsed {
                round,
                stragglers,
                failures,
            } => {
                write!(
                    f,
                    "round {round} collapsed: no update committed \
                     ({stragglers} stragglers, {failures} failures)"
                )
            }
            FlError::BadAggregation { reason } => write!(f, "bad aggregation: {reason}"),
            FlError::BadConfig { reason } => write!(f, "bad config: {reason}"),
            FlError::InvalidSelection { reason } => write!(f, "invalid selection: {reason}"),
            FlError::ClientFailure { client, reason } => {
                write!(f, "client {client} failed: {reason}")
            }
            FlError::Transport { context, source } => {
                write!(f, "transport error while {context}: {source}")
            }
            FlError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for FlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlError::Nn(e) => Some(e),
            FlError::Tee(e) => Some(e),
            FlError::Transport { source, .. } => Some(source.as_ref()),
            // The remaining variants originate here: there is no deeper
            // cause to chain to.
            FlError::NoEligibleClients { .. }
            | FlError::RoundCollapsed { .. }
            | FlError::BadAggregation { .. }
            | FlError::BadConfig { .. }
            | FlError::InvalidSelection { .. }
            | FlError::ClientFailure { .. }
            | FlError::Protocol { .. } => None,
        }
    }
}

impl From<NnError> for FlError {
    fn from(e: NnError) -> Self {
        FlError::Nn(e)
    }
}

impl From<TeeError> for FlError {
    fn from(e: TeeError) -> Self {
        FlError::Tee(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_and_display() {
        let e: FlError = NnError::EmptyModel.into();
        assert!(e.to_string().contains("model error"));
        let e: FlError = TeeError::BadHandle { handle: 3 }.into();
        assert!(e.to_string().contains("tee error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlError>();
    }

    #[test]
    fn transport_errors_chain_to_the_io_cause() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer went away");
        let e = FlError::transport("reading envelope header", io);
        assert!(e.to_string().contains("reading envelope header"));
        let src = e.source().expect("io cause is chained");
        let io = src
            .downcast_ref::<std::io::Error>()
            .expect("source is the io::Error");
        assert_eq!(io.kind(), std::io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn transport_equality_compares_kind_and_message() {
        let mk = || {
            FlError::transport(
                "x",
                std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"),
            )
        };
        assert_eq!(mk(), mk());
        assert_ne!(
            mk(),
            FlError::transport(
                "x",
                std::io::Error::new(std::io::ErrorKind::TimedOut, "gone"),
            )
        );
        assert_ne!(mk(), FlError::Protocol { reason: "x".into() });
    }

    #[test]
    fn non_source_variants_report_none() {
        for e in [
            FlError::NoEligibleClients { round: 1 },
            FlError::RoundCollapsed {
                round: 2,
                stragglers: 3,
                failures: 0,
            },
            FlError::BadConfig { reason: "r".into() },
            FlError::InvalidSelection { reason: "d".into() },
            FlError::Protocol { reason: "v".into() },
            FlError::ClientFailure {
                client: 1,
                reason: "r".into(),
            },
        ] {
            assert!(e.source().is_none(), "{e} should have no source");
        }
    }
}
