//! The service tier: a multi-worker analysis server over the
//! [`twca_api`] wire protocol.
//!
//! The crate turns a single shared-cache [`twca_api::Session`] into a
//! network service:
//!
//! - [`frame`] — bounded, resumable line-delimited framing (hostile
//!   peers cannot force unbounded buffering; timeouts mid-frame lose
//!   no bytes),
//! - [`pool`] — the worker pool: bounded admission queue with typed
//!   `overloaded` rejection, per-request deadlines raised through
//!   [`twca_api::CancelToken`]s, ordered per-connection response
//!   delivery (synchronous or buffered behind a writer thread with a
//!   slow-consumer bound), graceful drain,
//! - [`server`] — the lane read loop (bounded per-lane window of
//!   unanswered submissions) behind both the TCP listener and the
//!   stdio lane, with read/idle timeouts and slow-loris reaping,
//! - [`chaos`] — seeded transport fault injection ([`FaultPlan`],
//!   [`ChaosRead`]/[`ChaosWrite`]) behind the `chaos-liveness` oracle
//!   and `twca chaos`,
//! - [`retry`] — client-side retry with exponential backoff and
//!   deterministic jitter,
//! - [`loadgen`] — the deterministic load generator behind
//!   `twca loadgen` and the `service_saturation` bench,
//! - [`fuzzing`] — the malformed-frame generator behind the
//!   `service-robustness` oracle.
//!
//! Everything is `std`-only: the listener is [`std::net::TcpListener`],
//! workers are plain OS threads, and frames are line-delimited JSON,
//! each answered by [`twca_api::respond_line_with`].

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::missing_panics_doc)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::cast_precision_loss)]
#![allow(clippy::cast_possible_truncation)]
#![allow(clippy::cast_sign_loss)]

pub mod chaos;
pub mod frame;
pub mod fuzzing;
pub mod loadgen;
pub mod pool;
pub mod retry;
pub mod server;

pub use chaos::{ChaosRead, ChaosTally, ChaosWrite, FaultKind, FaultPlan};
pub use frame::{Frame, FrameReader, FrameStep};
pub use fuzzing::FrameFuzzer;
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport, RequestMix};
pub use pool::{Connection, LatencyStats, ServeSummary, ServiceConfig, WorkerPool};
pub use retry::RetryPolicy;
pub use server::{serve_connection, serve_lane, LaneEnd, LaneOptions, LaneReport, TcpServer};
