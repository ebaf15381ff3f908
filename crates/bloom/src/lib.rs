//! Bloom-filter inverse-mapping digests for TerraDir.
//!
//! Paper §3.6: each server summarizes the set of node names it hosts into a
//! *digest* — a Bloom filter over the names — and piggybacks it on protocol
//! messages. Peers test candidate names against digests they have collected
//! to (a) discover routing shortcuts and (b) conservatively prune stale
//! entries out of node maps. The only operation a digest supports is a
//! membership test with one-sided error (false positives, never false
//! negatives).
//!
//! This crate implements the filter from scratch:
//!
//! - [`BloomFilter`] — the bit array with `k` indices derived by double
//!   hashing (Kirsch & Mitzenmacher), sized from a target capacity and
//!   false-positive rate.
//! - [`Digest`] — a versioned, immutable snapshot of a server's hosted-name
//!   set, as shipped in messages. Anti-entropy gossip (DESIGN.md §18) ships
//!   the same type over hosted names and object-version keys; its delta
//!   pricing is sender-side bookkeeping outside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bloom;
pub mod digest;
pub mod hashing;

pub use bloom::{BloomFilter, BloomParams};
pub use digest::{Digest, DigestBuilder};
