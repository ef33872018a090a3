//! One JSON-Lines request line in, one response out: the unit every
//! serving front end (the `twca serve` worker pool, the goldens, the
//! benchmark replay) answers through.

use crate::json::Json;
use crate::request::AnalysisRequest;
use crate::response::AnalysisResponse;
use crate::session::{CancelToken, Session};

/// Answers one request line. Malformed lines never panic and never
/// kill the stream: they produce an error response, echoing the `id`
/// when one is recoverable from the line.
///
/// # Examples
///
/// ```
/// use twca_api::{respond_line, Session};
///
/// let line = "{\"id\": \"a\", \"system\": \"chain c periodic=10 { task t prio=1 wcet=1 }\"}";
/// let response = respond_line(&Session::new(), line);
/// assert!(response.outcome.is_ok());
/// assert!(response.to_json().to_string().starts_with("{\"v\": 1, \"id\": \"a\", \"ok\": "));
/// ```
pub fn respond_line(session: &Session, line: &str) -> AnalysisResponse {
    respond_line_with(session, line, None)
}

/// [`respond_line`] under an external cancellation token: a raised token
/// preempts in-flight analysis and turns the answer into a typed
/// `canceled` error, still correlated to the request's `id`.
pub fn respond_line_with(
    session: &Session,
    line: &str,
    cancel: Option<&CancelToken>,
) -> AnalysisResponse {
    match Json::parse(line) {
        Err(e) => AnalysisResponse::error(None, e.into()),
        Ok(value) => {
            // Echo the id even when the request is structurally
            // invalid, so clients can correlate the failure.
            let id = value.get("id").and_then(Json::as_str).map(str::to_owned);
            match AnalysisRequest::from_json(&value) {
                Err(e) => AnalysisResponse::error(id, e),
                Ok(request) => session.analyze_with(&request, cancel),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApiErrorKind;

    const CHAIN: &str = "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }";

    #[test]
    fn lines_that_are_not_json_answer_json_errors_without_an_id() {
        let response = respond_line(&Session::new(), "this is not json");
        assert!(response.id.is_none());
        assert_eq!(response.outcome.unwrap_err().kind, ApiErrorKind::Json);
    }

    #[test]
    fn invalid_requests_echo_their_id() {
        let session = Session::new();
        let response = respond_line(&session, r#"{"id": "x", "queries": []}"#);
        assert_eq!(response.id.as_deref(), Some("x"));
        assert!(response.outcome.is_err());
    }

    #[test]
    fn an_over_budget_request_is_a_typed_error_and_spares_the_next_one() {
        // Request 1 exceeds its budget, request 2 (no budget override of
        // its own) succeeds on the same session.
        let session = Session::new();
        let greedy = respond_line(
            &session,
            &format!(
                "{{\"id\": \"greedy\", \"system\": \"{CHAIN}\", \
                 \"queries\": [{{\"dmm\": {{\"ks\": [1,2,3,4,5,6,7,8]}}}}], \
                 \"options\": {{\"budget\": 2}}}}"
            ),
        );
        assert_eq!(greedy.id.as_deref(), Some("greedy"));
        assert_eq!(greedy.outcome.unwrap_err().kind, ApiErrorKind::Budget);
        let modest = respond_line(
            &session,
            &format!("{{\"id\": \"modest\", \"system\": \"{CHAIN}\"}}"),
        );
        assert_eq!(modest.id.as_deref(), Some("modest"));
        assert!(modest.outcome.is_ok());
    }

    #[test]
    fn a_raised_token_answers_every_line_with_a_canceled_error() {
        let line = format!("{{\"id\": \"r\", \"system\": \"{CHAIN}\"}}");
        let session = Session::new();
        let token = CancelToken::new();
        token.cancel();
        for _ in 0..3 {
            let response = respond_line_with(&session, &line, Some(&token));
            assert_eq!(response.id.as_deref(), Some("r"));
            assert_eq!(response.outcome.unwrap_err().kind, ApiErrorKind::Canceled);
        }
    }

    #[test]
    fn the_cache_stays_warm_across_lines() {
        let line =
            format!("{{\"system\": \"{CHAIN}\", \"queries\": [{{\"dmm\": {{\"ks\": [10]}}}}]}}");
        let session = Session::new();
        for _ in 0..3 {
            assert!(respond_line(&session, &line).outcome.is_ok());
        }
        assert!(session.cache_stats().hits > 0);
    }
}
