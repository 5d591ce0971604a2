//! The server's error type, shared by the codec, router and handlers.

use crate::json::{Json, JsonError};
use rdbsc_model::ModelError;
use std::fmt;

/// Everything that can go wrong between reading a request off the wire and
/// producing a response body.
#[derive(Debug)]
pub enum ServerError {
    /// The request body was not valid JSON.
    Json(JsonError),
    /// A required field was absent from a request object.
    MissingField(&'static str),
    /// A field was present but had the wrong type or an out-of-range value.
    BadField {
        /// The offending field.
        field: &'static str,
        /// What the codec expected there.
        expected: &'static str,
    },
    /// The decoded object failed model-level validation.
    Model(ModelError),
    /// The request line or headers were not parseable HTTP/1.1.
    BadRequest(String),
    /// No route matches the request path.
    NotFound(String),
    /// The route exists but not for this method.
    MethodNotAllowed,
    /// The request conflicts with the server's standing state (for the
    /// partition daemon: a configure that contradicts the active one, or a
    /// command before any configure).
    Conflict(String),
    /// The declared body length exceeds the configured limit.
    PayloadTooLarge {
        /// The declared `Content-Length`.
        length: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The admission queue is full; the client should back off.
    Overloaded,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// A socket read/write failed.
    Io(std::io::Error),
}

impl ServerError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServerError::Json(_)
            | ServerError::MissingField(_)
            | ServerError::BadField { .. }
            | ServerError::Model(_)
            | ServerError::BadRequest(_) => 400,
            ServerError::NotFound(_) => 404,
            ServerError::MethodNotAllowed => 405,
            ServerError::Conflict(_) => 409,
            ServerError::PayloadTooLarge { .. } => 413,
            ServerError::Overloaded => 429,
            ServerError::ShuttingDown => 503,
            ServerError::Io(_) => 500,
        }
    }

    /// The JSON body reported to the client: `{"error": "..."}`.
    pub fn to_body(&self) -> Json {
        Json::obj([("error", Json::Str(self.to_string()))])
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Json(e) => write!(f, "malformed JSON body: {e}"),
            ServerError::MissingField(field) => write!(f, "missing field '{field}'"),
            ServerError::BadField { field, expected } => {
                write!(f, "field '{field}' must be {expected}")
            }
            ServerError::Model(e) => write!(f, "invalid model object: {e}"),
            ServerError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServerError::NotFound(path) => write!(f, "no route for '{path}'"),
            ServerError::MethodNotAllowed => write!(f, "method not allowed on this route"),
            ServerError::Conflict(why) => write!(f, "conflict: {why}"),
            ServerError::PayloadTooLarge { length, limit } => {
                write!(f, "body of {length} bytes exceeds the {limit}-byte limit")
            }
            ServerError::Overloaded => {
                write!(f, "request queue is full; retry with backoff")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Json(e) => Some(e),
            ServerError::Model(e) => Some(e),
            ServerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for ServerError {
    fn from(e: JsonError) -> Self {
        ServerError::Json(e)
    }
}

impl From<ModelError> for ServerError {
    fn from(e: ModelError) -> Self {
        ServerError::Model(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn statuses_match_the_error_class() {
        assert_eq!(ServerError::MissingField("id").status(), 400);
        assert_eq!(ServerError::NotFound("/x".into()).status(), 404);
        assert_eq!(ServerError::MethodNotAllowed.status(), 405);
        assert_eq!(
            ServerError::PayloadTooLarge {
                length: 9,
                limit: 4
            }
            .status(),
            413
        );
        assert_eq!(ServerError::Overloaded.status(), 429);
        assert_eq!(ServerError::ShuttingDown.status(), 503);
    }

    #[test]
    fn sources_are_chained() {
        let e: ServerError = crate::json::parse("{").unwrap_err().into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("malformed JSON"));
        let e: ServerError = ModelError::InvalidSpeed(-1.0).into();
        assert!(e.source().is_some());
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn error_bodies_are_json_objects() {
        let body = ServerError::Overloaded.to_body().to_string_compact();
        assert!(body.starts_with("{\"error\":"));
        assert!(crate::json::parse(&body).is_ok());
    }
}
