//! The in-process network fabric.
//!
//! One unbounded `std::sync::mpsc` channel per peer plus an optional *delay stage*:
//! a dedicated thread holding messages in a time-ordered heap until their
//! delivery deadline, modeling the paper's constant application-layer
//! network time without blocking senders.

use std::collections::BinaryHeap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use terradir::{Message, ServerId};

use crate::error::NetError;
use crate::peer::PeerCommand;

/// A message waiting in the delay stage.
struct Delayed {
    due: Instant,
    to: ServerId,
    msg: Message,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Delayed {}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due) // min-heap
    }
}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Cloneable handle for sending protocol messages between peers.
#[derive(Clone)]
pub struct Transport {
    inboxes: Vec<Sender<PeerCommand>>,
    delay_tx: Option<Sender<Delayed>>,
}

impl Transport {
    /// Builds a transport over the given peer inboxes. With a non-zero
    /// `delay`, spawns the delay-stage thread (it exits when every
    /// transport clone is dropped); spawn failure surfaces as
    /// [`NetError::Spawn`].
    pub fn new(inboxes: Vec<Sender<PeerCommand>>, delay: Duration) -> Result<Transport, NetError> {
        if delay.is_zero() {
            return Ok(Transport {
                inboxes,
                delay_tx: None,
            });
        }
        let (tx, rx): (Sender<Delayed>, Receiver<Delayed>) = mpsc::channel();
        let out = inboxes.clone();
        std::thread::Builder::new()
            .name("terradir-net-delay".into())
            .spawn(move || delay_stage(rx, out))
            .map_err(NetError::Spawn)?;
        Ok(Transport {
            inboxes,
            delay_tx: Some(tx),
        })
    }

    /// Number of peers addressable.
    pub fn peers(&self) -> usize {
        self.inboxes.len()
    }

    /// Sends a protocol message to a peer, through the delay stage when
    /// one is configured.
    pub fn send(&self, to: ServerId, msg: Message, delay: Duration) -> Result<(), NetError> {
        let inbox = self
            .inboxes
            .get(to.index())
            .ok_or(NetError::UnknownPeer(to.0))?;
        match (&self.delay_tx, delay.is_zero()) {
            (Some(tx), false) => tx
                .send(Delayed {
                    due: Instant::now() + delay,
                    to,
                    msg,
                })
                .map_err(|_| NetError::Disconnected),
            _ => inbox
                .send(PeerCommand::Deliver(msg))
                .map_err(|_| NetError::Disconnected),
        }
    }

    /// Sends a control command directly (no delay).
    pub fn command(&self, to: ServerId, cmd: PeerCommand) -> Result<(), NetError> {
        self.inboxes
            .get(to.index())
            .ok_or(NetError::UnknownPeer(to.0))?
            .send(cmd)
            .map_err(|_| NetError::Disconnected)
    }
}

fn delay_stage(rx: Receiver<Delayed>, out: Vec<Sender<PeerCommand>>) {
    let mut heap: BinaryHeap<Delayed> = BinaryHeap::new();
    loop {
        // Flush everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|d| d.due <= now) {
            let Some(d) = heap.pop() else { break };
            // A closed or unknown inbox means that peer has shut down; drop
            // silently, soft state tolerates loss.
            if let Some(inbox) = out.get(d.to.index()) {
                let _ = inbox.send(PeerCommand::Deliver(d.msg));
            }
        }
        // Wait for the next deadline or a new message.
        let timeout = heap.peek().map_or(Duration::from_millis(50), |d| {
            d.due.saturating_duration_since(Instant::now())
        });
        match rx.recv_timeout(timeout) {
            Ok(d) => heap.push(d),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Drain remaining deliveries, then exit.
                while let Some(d) = heap.pop() {
                    std::thread::sleep(d.due.saturating_duration_since(Instant::now()));
                    if let Some(inbox) = out.get(d.to.index()) {
                        let _ = inbox.send(PeerCommand::Deliver(d.msg));
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;
    use terradir::{NodeId, QueryPacket};

    fn query_msg(id: u64) -> Message {
        Message::Query(QueryPacket::new(id, ServerId(0), NodeId(1), 0.0))
    }

    #[test]
    fn immediate_delivery_without_delay() {
        let (tx, rx) = mpsc::channel();
        let t = Transport::new(vec![tx], Duration::ZERO).unwrap();
        t.send(ServerId(0), query_msg(1), Duration::ZERO).unwrap();
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PeerCommand::Deliver(Message::Query(p)) => assert_eq!(p.id, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delayed_delivery_waits_roughly_the_delay() {
        let (tx, rx) = mpsc::channel();
        let t = Transport::new(vec![tx], Duration::from_millis(30)).unwrap();
        let start = Instant::now();
        t.send(ServerId(0), query_msg(2), Duration::from_millis(30))
            .unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn ordering_respects_deadlines_not_send_order() {
        let (tx, rx) = mpsc::channel();
        let t = Transport::new(vec![tx], Duration::from_millis(1)).unwrap();
        t.send(ServerId(0), query_msg(1), Duration::from_millis(80))
            .unwrap();
        t.send(ServerId(0), query_msg(2), Duration::from_millis(10))
            .unwrap();
        let first = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        match first {
            PeerCommand::Deliver(Message::Query(p)) => assert_eq!(p.id, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let (tx, _rx) = mpsc::channel();
        let t = Transport::new(vec![tx], Duration::ZERO).unwrap();
        assert!(matches!(
            t.send(ServerId(7), query_msg(1), Duration::ZERO),
            Err(NetError::UnknownPeer(7))
        ));
    }
}
