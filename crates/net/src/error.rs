//! Error types for the live runtime.

use std::fmt;

/// Errors surfaced by the live deployment.
#[derive(Debug)]
pub enum NetError {
    /// The addressed peer does not exist.
    UnknownPeer(u32),
    /// A channel closed because the fleet is shutting down.
    Disconnected,
    /// Waiting for an event timed out.
    Timeout,
    /// An OS thread for the fleet could not be spawned.
    Spawn(std::io::Error),
    /// The protocol configuration failed validation.
    InvalidConfig(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownPeer(id) => write!(f, "unknown peer s{id}"),
            NetError::Disconnected => write!(f, "runtime channels disconnected"),
            NetError::Timeout => write!(f, "timed out waiting for event"),
            NetError::Spawn(e) => write!(f, "failed to spawn fleet thread: {e}"),
            NetError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_useful() {
        assert_eq!(NetError::UnknownPeer(4).to_string(), "unknown peer s4");
        assert!(NetError::Disconnected.to_string().contains("disconnected"));
        assert!(NetError::Timeout.to_string().contains("timed out"));
    }
}
