//! The one error type every analysis backend maps into.

use std::fmt;

use crate::json::Json;

/// Classification of an [`ApiError`], stable across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ApiErrorKind {
    /// The request declared an unsupported schema version.
    Version,
    /// The request line was not valid JSON.
    Json,
    /// The request JSON was well-formed but structurally invalid.
    Request,
    /// A system description (DSL text) did not parse or validate.
    Parse,
    /// The distributed model or holistic analysis failed.
    Dist,
    /// A per-chain analysis failed.
    Analysis,
    /// A named chain or site does not exist in the target.
    NoSuchChain,
    /// A named resource does not exist in the distributed target.
    NoSuchResource,
    /// The request was canceled through its [`crate::CancelToken`].
    Canceled,
    /// The request exhausted its work budget.
    Budget,
    /// The service rejected the request at admission: its pending
    /// queue was full (backpressure) or it was shutting down. The
    /// connection stays alive — clients should back off and retry.
    Overloaded,
    /// An input file or stream could not be read.
    Io,
    /// The store's durability layer failed: journal or snapshot I/O,
    /// or refused corruption detected during recovery.
    Persist,
    /// The service hit an internal fault (a worker panic) handling the
    /// request. The connection and the worker pool stay alive.
    Internal,
}

impl ApiErrorKind {
    /// The wire tag of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ApiErrorKind::Version => "version",
            ApiErrorKind::Json => "json",
            ApiErrorKind::Request => "request",
            ApiErrorKind::Parse => "parse",
            ApiErrorKind::Dist => "dist",
            ApiErrorKind::Analysis => "analysis",
            ApiErrorKind::NoSuchChain => "no_such_chain",
            ApiErrorKind::NoSuchResource => "no_such_resource",
            ApiErrorKind::Canceled => "canceled",
            ApiErrorKind::Budget => "budget",
            ApiErrorKind::Overloaded => "overloaded",
            ApiErrorKind::Io => "io",
            ApiErrorKind::Persist => "persist",
            ApiErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire tag back into a kind.
    pub fn from_str_tag(tag: &str) -> Option<ApiErrorKind> {
        Some(match tag {
            "version" => ApiErrorKind::Version,
            "json" => ApiErrorKind::Json,
            "request" => ApiErrorKind::Request,
            "parse" => ApiErrorKind::Parse,
            "dist" => ApiErrorKind::Dist,
            "analysis" => ApiErrorKind::Analysis,
            "no_such_chain" => ApiErrorKind::NoSuchChain,
            "no_such_resource" => ApiErrorKind::NoSuchResource,
            "canceled" => ApiErrorKind::Canceled,
            "budget" => ApiErrorKind::Budget,
            "overloaded" => ApiErrorKind::Overloaded,
            "io" => ApiErrorKind::Io,
            "persist" => ApiErrorKind::Persist,
            "internal" => ApiErrorKind::Internal,
            _ => return None,
        })
    }
}

/// The façade's single error type: a stable kind plus a human-readable
/// message. Every lower-level failure — DSL parse errors, chain
/// analysis errors, distributed analysis errors, I/O — maps into this
/// through `From`.
///
/// # Examples
///
/// ```
/// use twca_api::{ApiError, ApiErrorKind};
///
/// let error: ApiError = "chain frob sporadic".parse::<u64>()
///     .map_err(|e| ApiError::new(ApiErrorKind::Request, e.to_string()))
///     .unwrap_err();
/// assert_eq!(error.kind, ApiErrorKind::Request);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Stable classification.
    pub kind: ApiErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// An error of `kind` with `message`.
    pub fn new(kind: ApiErrorKind, message: impl Into<String>) -> ApiError {
        ApiError {
            kind,
            message: message.into(),
        }
    }

    /// Shorthand for a structurally invalid request.
    pub fn request(message: impl Into<String>) -> ApiError {
        ApiError::new(ApiErrorKind::Request, message)
    }

    /// Shorthand for a missing chain or site.
    pub fn no_such_chain(name: &str) -> ApiError {
        ApiError::new(
            ApiErrorKind::NoSuchChain,
            format!("no chain or site named `{name}`"),
        )
    }

    /// Shorthand for a missing resource.
    pub fn no_such_resource(name: &str) -> ApiError {
        ApiError::new(
            ApiErrorKind::NoSuchResource,
            format!("no resource named `{name}`"),
        )
    }

    /// The canceled-by-caller error.
    pub fn canceled() -> ApiError {
        ApiError::new(ApiErrorKind::Canceled, "request canceled")
    }

    /// The budget-exhausted error.
    pub fn budget(limit: u64) -> ApiError {
        ApiError::new(
            ApiErrorKind::Budget,
            format!("work budget of {limit} unit(s) exhausted"),
        )
    }

    /// The admission-control rejection: the service's pending queue of
    /// `capacity` request(s) was full.
    pub fn overloaded(capacity: usize) -> ApiError {
        ApiError::new(
            ApiErrorKind::Overloaded,
            format!("service overloaded: pending queue of {capacity} request(s) is full"),
        )
    }

    /// The shutting-down rejection (also kind
    /// [`ApiErrorKind::Overloaded`]: clients treat both as "back off").
    pub fn draining() -> ApiError {
        ApiError::new(
            ApiErrorKind::Overloaded,
            "service shutting down: no new requests admitted",
        )
    }

    /// The worker-panic error: the request died to an internal fault,
    /// the connection and pool did not.
    pub fn internal(detail: impl Into<String>) -> ApiError {
        ApiError::new(
            ApiErrorKind::Internal,
            format!("internal error: {}", detail.into()),
        )
    }

    /// The error's wire object, read back from its written bytes.
    pub fn to_json(&self) -> Json {
        crate::response::written_json(self)
    }

    /// Parses the wire object back.
    ///
    /// # Errors
    ///
    /// An [`ApiError`] of kind [`ApiErrorKind::Request`] describing the
    /// structural problem.
    pub fn from_json(value: &Json) -> Result<ApiError, ApiError> {
        let kind_tag = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::request("error object needs a string `kind`"))?;
        let kind = ApiErrorKind::from_str_tag(kind_tag)
            .ok_or_else(|| ApiError::request(format!("unknown error kind `{kind_tag}`")))?;
        let message = value
            .get("message")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::request("error object needs a string `message`"))?;
        Ok(ApiError::new(kind, message))
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<twca_model::ParseError> for ApiError {
    fn from(value: twca_model::ParseError) -> Self {
        ApiError::new(ApiErrorKind::Parse, value.to_string())
    }
}

impl From<twca_chains::AnalysisError> for ApiError {
    fn from(value: twca_chains::AnalysisError) -> Self {
        ApiError::new(ApiErrorKind::Analysis, value.to_string())
    }
}

impl From<twca_dist::DistError> for ApiError {
    fn from(value: twca_dist::DistError) -> Self {
        // Parse-shaped and analysis-shaped failures keep their own
        // kinds so clients can distinguish "bad input file" from "the
        // iteration diverged".
        use twca_dist::DistError;
        let kind = match &value {
            DistError::Parse { .. } => ApiErrorKind::Parse,
            DistError::Analysis(_) => ApiErrorKind::Analysis,
            DistError::UnknownResource { .. } => ApiErrorKind::NoSuchResource,
            DistError::UnknownChain { .. } => ApiErrorKind::NoSuchChain,
            _ => ApiErrorKind::Dist,
        };
        ApiError::new(kind, value.to_string())
    }
}

impl From<std::io::Error> for ApiError {
    fn from(value: std::io::Error) -> Self {
        ApiError::new(ApiErrorKind::Io, value.to_string())
    }
}

impl From<crate::persist::PersistError> for ApiError {
    fn from(value: crate::persist::PersistError) -> Self {
        ApiError::new(ApiErrorKind::Persist, value.to_string())
    }
}

impl From<crate::json::JsonParseError> for ApiError {
    fn from(value: crate::json::JsonParseError) -> Self {
        ApiError::new(ApiErrorKind::Json, value.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_their_tags() {
        for kind in [
            ApiErrorKind::Version,
            ApiErrorKind::Json,
            ApiErrorKind::Request,
            ApiErrorKind::Parse,
            ApiErrorKind::Dist,
            ApiErrorKind::Analysis,
            ApiErrorKind::NoSuchChain,
            ApiErrorKind::NoSuchResource,
            ApiErrorKind::Canceled,
            ApiErrorKind::Budget,
            ApiErrorKind::Overloaded,
            ApiErrorKind::Io,
            ApiErrorKind::Persist,
            ApiErrorKind::Internal,
        ] {
            assert_eq!(ApiErrorKind::from_str_tag(kind.as_str()), Some(kind));
        }
        assert_eq!(ApiErrorKind::from_str_tag("bogus"), None);
    }

    #[test]
    fn errors_round_trip_through_json() {
        let error = ApiError::no_such_chain("sigma_x");
        let reparsed = ApiError::from_json(&error.to_json()).unwrap();
        assert_eq!(error, reparsed);
    }

    #[test]
    fn dist_errors_keep_useful_kinds() {
        let e: ApiError = twca_dist::DistError::UnknownResource {
            name: "ecu9".into(),
        }
        .into();
        assert_eq!(e.kind, ApiErrorKind::NoSuchResource);
        let e: ApiError = twca_dist::DistError::Cyclic.into();
        assert_eq!(e.kind, ApiErrorKind::Dist);
    }
}
