//! `hdl-server` — the network layer of the hypothetical-Datalog system:
//! a multi-tenant TCP server with group-commit durability.
//!
//! The server (DESIGN.md §3.14) multiplexes named tenant sessions over
//! one process. Each tenant is a fully isolated world — its own durable
//! session, persist directory, snapshot lineage, and query worker pool —
//! while the *durability cost* is shared: concurrent WAL commits from
//! all tenants are batched by one [`GroupCommitter`] so a busy server
//! pays one fsync pass per batch rather than one per mutation, without
//! weakening the ack-after-commit contract (a client's mutation is acked
//! only after the fsync covering its records has returned).
//!
//! Wire protocol: newline-delimited JSON, one request object per line,
//! one reply per request (see [`protocol`] and `docs/protocol.md`).
//!
//! ```no_run
//! use hdl_server::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.run(None); // blocks until a shutdown op or flag, then drains
//! ```

#![warn(missing_docs)]

pub mod protocol;
pub mod replication;
pub mod server;
pub mod tenant;

pub use hdl_base::Json;
pub use hdl_persist::GroupCommitter;
pub use protocol::{outcome_reply, Reply, Request, PROTOCOL_VERSION};
pub use replication::{
    FenceState, FollowerState, ReplicaTenant, ReplicationHandle, Shipper, ShipperStats,
    SYNC_WAIT_DEADLINE,
};
pub use server::{install_termination_flag, Server, ServerConfig};
pub use tenant::{
    BatchOp, BatchOutcome, BatchReply, Registry, RegistryConfig, Tenant, TenantError, TenantQuotas,
};
