//! **The unified façade of the TWCA suite**: typed, versioned
//! request/response DTOs and a [`Session`] that answers them over the
//! uniprocessor chain analysis and the distributed holistic analysis,
//! owning the shared memo cache, work budgets and cancellation.
//!
//! Before this crate the suite had three disjoint entry points —
//! `twca_chains::ChainAnalysis`, the batch engine and
//! `twca_dist::analyze` — each with its own options and result types.
//! Here every workload is an [`AnalysisRequest`]:
//!
//! * a **target** — one chain system (DSL text), or a distributed
//!   system given resource-by-resource or as a linked-resource
//!   document;
//! * a list of **queries** — latency, `dmm(k)` points/curves, packing
//!   witnesses, weakly-hard `(m, k)` verdicts, overload sensitivity,
//!   end-to-end paths, the full batch pipeline, or Monte Carlo
//!   simulation of empirical miss rates;
//! * **options** overriding the session defaults, including a work
//!   budget.
//!
//! and every answer is an [`AnalysisResponse`] carrying either typed
//! outcomes (in query order) or one [`ApiError`]. Both serialize
//! through the self-contained [`Json`] module (the workspace vendors no
//! serde runtime), with a versioned schema ([`SCHEMA_VERSION`]): a
//! request renders from a [`Json`] value, a response writes its line
//! ([`AnalysisResponse::to_line`]) straight into one `String`.
//!
//! [`respond_line`] answers one JSON-Lines request line — the unit the
//! `twca serve` worker pool runs; the [`batch`] module's
//! [`batch::BatchEngine`] is a thread fan-out over
//! [`Session::system_outcome`], so the batch and streaming surfaces
//! share one pipeline and one serializer.
//!
//! The [`SystemStore`] behind the `store_put`/`store_analyze` queries
//! can be opened durably ([`SystemStore::durable`]) over the
//! snapshot-plus-journal layer in [`persist`], so a restarted server
//! resumes version history warm and a crash can never silently serve
//! wrong history.
//!
//! # Examples
//!
//! ```
//! use twca_api::{AnalysisRequest, Query, QueryOutcome, Session};
//!
//! let session = Session::new();
//! let request = AnalysisRequest::for_system(
//!     "chain control periodic=100 deadline=100 sync {
//!          task sense prio=5 wcet=10
//!          task act prio=1 wcet=25
//!      }",
//! )
//! .with_query(Query::Dmm { chain: None, ks: vec![1, 10] });
//! let response = session.analyze(&request);
//! let outcomes = response.outcome.expect("the system analyzes cleanly");
//! let QueryOutcome::Dmm(rows) = &outcomes[0] else { unreachable!() };
//! assert_eq!(rows[0].name, "control");
//! assert_eq!(rows[0].points.len(), 2);
//! ```

#![warn(missing_docs)]

mod analyze;
pub mod batch;
mod error;
mod json;
mod metrics;
pub mod persist;
mod request;
mod respond;
mod response;
mod session;
mod store;

pub use error::{ApiError, ApiErrorKind};
pub use json::{Json, JsonParseError};
pub use metrics::{Counter, Metrics};
pub use persist::{
    crash_states, DirIo, IoOp, MemIo, PersistError, PersistErrorKind, PersistPolicy,
    RecoveryReport, StoreIo,
};
pub use request::{
    AnalysisRequest, LinkSpec, Query, RequestOptions, SiteSpec, Target, SCHEMA_VERSION,
};
pub use respond::{respond_line, respond_line_with};
pub use response::{
    AnalysisResponse, ChainOutcome, DmmOutcome, DmmPoint, LatencyOutcome, MkOutcome, PathOutcome,
    QueryOutcome, SensitivityOutcome, SimChainOutcome, SimulateOutcome, StatsOutcome,
    StoreAnalyzeOutcome, StorePutOutcome, SystemOutcome, WitnessOutcome,
};
pub use session::{CancelToken, RequestControl, Session};
pub use store::{PutReceipt, StoreDiff, StoredBody, SystemStore};
