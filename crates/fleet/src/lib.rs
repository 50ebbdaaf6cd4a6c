//! `tn-fleet` — a sharded replica fleet over `tn-telemetry/1`.
//!
//! One `tn-serve` runtime scales to the cores of one machine. This
//! crate scales *out*: shard workers each host a full
//! [`tn_serve::ServeRuntime`] replica set behind a std-only framed
//! protocol, and a router tier dispatches requests across them while
//! keeping the fleet's answer stream **bit-identical to a solo
//! runtime** — the paper's accuracy/occupation trade-offs keep meaning
//! exactly what they meant on one chip.
//!
//! # Topology
//!
//! ```text
//!                       ┌───────────────────────────┐
//!  ServeBackend         │ FleetRouter               │
//!  (gateway, tests) ──► │  · owns the global seq    │
//!                       │  · rendezvous-hash        │
//!                       │    dispatch               │
//!                       │  · health by heartbeat    │
//!                       │  · rescale barrier        │
//!                       └──┬─────────┬──────────┬───┘
//!                 framed   │         │          │   [kind u8][len u32][payload]
//!                 streams  ▼         ▼          ▼
//!                  ┌──────────┐ ┌──────────┐ ┌──────────┐
//!                  │ Shard 0  │ │ Shard 1  │ │ Shard N  │   ShardServer
//!                  │ ServeRt  │ │ ServeRt  │ │ ServeRt  │   (same spec+config)
//!                  └──────────┘ └──────────┘ └──────────┘
//! ```
//!
//! * **No new wire formats but one**: response, error, control and
//!   handshake payloads are JSON (parsed by `tn-telemetry`'s strict
//!   reader); the request payload is a small JSON head followed by the
//!   input frame as raw little-endian `f32`s ([`msg::encode_req`]), so
//!   the hottest frame never round-trips through decimal text. Shard
//!   health rides the *existing* `tn-telemetry/1` snapshot schema — every snapshot a
//!   shard's runtime exports is framed to the router verbatim
//!   ([`crate::frame::FrameKind::Snap`]) and doubles as the heartbeat.
//!   The aggregated trail still passes `snapshot_check`.
//! * **Determinism**: the router owns the fleet-global sequence counter
//!   and pins each request's seq via [`tn_serve::SubmitRequest::at_seq`];
//!   a response is a pure function of `(seed, seq, spf)`, so shard
//!   choice, re-routing, fleet width, and [`FleetRouter::set_replicas`]
//!   rescales are invisible in the answer stream: a rescale closes an
//!   admission gate, drains the fleet, swaps every shard and reopens.
//! * **Transports**: anything [`Transport`] — `TcpStream` for
//!   multi-process fleets, [`tn_serve::pipe::duplex`] for the
//!   deterministic in-process [`LocalFleet`] harness.
//!
//! See `docs/FLEET.md` for the protocol reference, health rules, and
//! the rescale bit-identity contract.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frame;
mod local;
pub mod msg;
mod router;
mod shard;
mod transport;

pub use local::LocalFleet;
pub use router::{FleetConfig, FleetRouter};
pub use shard::ShardServer;
pub use transport::Transport;
