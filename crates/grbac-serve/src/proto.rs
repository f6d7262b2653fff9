//! The wire protocol: envelope shapes, error codes, and the small
//! JSON-value plumbing the dispatcher is built on.
//!
//! Framing is newline-delimited JSON ("NDJSON"): every request is one
//! JSON object on one line, every response is one JSON object on one
//! line, and responses come back in request order on the same
//! connection. The full request/response reference — with examples
//! that are executed verbatim by the conformance suite — lives in
//! `docs/service.md`.

use serde::Value;

/// The protocol version reported by the `ping` op. Bump on any wire
/// change a deployed client could observe.
pub const PROTOCOL_VERSION: u64 = 1;

/// Every operation the service understands, in slot order. The index
/// of an op in this table is its dense key in the service's
/// `requests_by_op` keyed counter.
pub const OPS: &[&str] = &[
    "ping",
    "create_tenant",
    "drop_tenant",
    "list_tenants",
    "declare",
    "specialize",
    "assign",
    "revoke",
    "add_rule",
    "remove_rule",
    "decide",
    "decide_batch",
    "explain",
    "status",
    "tick",
    "metrics",
    "subscribe",
    "unsubscribe",
];

/// The slot of `op` in [`OPS`], if it names a known operation.
#[must_use]
pub fn op_slot(op: &str) -> Option<u64> {
    OPS.iter().position(|&o| o == op).map(|i| i as u64)
}

/// A machine-readable failure class. Every error response carries one
/// of these codes plus a human-readable message; the codes are part of
/// the protocol contract (documented in `docs/service.md`) and never
/// change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a JSON object, or had no string `op` field.
    MalformedRequest,
    /// The `op` value names no known operation.
    UnknownOp,
    /// A required field is missing or has the wrong type/shape.
    BadRequest,
    /// The named tenant does not exist.
    UnknownTenant,
    /// `create_tenant` for a name that is already provisioned.
    TenantExists,
    /// `create_tenant` beyond the configured tenant cap.
    TenantCap,
    /// A subject/object/transaction/role name did not resolve in the
    /// tenant's catalogs.
    UnknownName,
    /// The engine rejected the mutation or request (duplicate
    /// declaration, hierarchy cycle, SoD violation, …).
    Policy,
    /// The request line exceeded the configured maximum length. The
    /// server closes the connection after this error, because line
    /// framing can no longer be trusted.
    LineTooLong,
    /// The server is at its connection cap. Sent once, unsolicited, as
    /// the only frame of a connection that was not admitted, which the
    /// server then closes.
    Busy,
}

impl ErrorCode {
    /// The wire spelling of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::MalformedRequest => "malformed_request",
            Self::UnknownOp => "unknown_op",
            Self::BadRequest => "bad_request",
            Self::UnknownTenant => "unknown_tenant",
            Self::TenantExists => "tenant_exists",
            Self::TenantCap => "tenant_cap",
            Self::UnknownName => "unknown_name",
            Self::Policy => "policy",
            Self::LineTooLong => "line_too_long",
            Self::Busy => "busy",
        }
    }
}

/// A protocol-level failure: code plus message, rendered into the
/// error envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable detail (safe to show an operator; never echoes
    /// request bodies wholesale).
    pub message: String,
}

impl WireError {
    /// Builds an error from its parts.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

/// Shorthand for [`WireError::new`]`(ErrorCode::BadRequest, …)`.
#[must_use]
pub fn bad_request(message: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::BadRequest, message)
}

/// Builds a JSON object from ordered pairs (the vendored `Value::Map`
/// preserves insertion order, so response field order is stable).
#[must_use]
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    )
}

/// The success envelope: `{"ok":true,"op":…,("seq":…)?,"result":…}`.
#[must_use]
pub fn ok_envelope(op: &str, seq: Option<&Value>, result: Value) -> Value {
    let mut pairs = vec![("ok", Value::Bool(true)), ("op", Value::Str(op.to_owned()))];
    if let Some(seq) = seq {
        pairs.push(("seq", seq.clone()));
    }
    pairs.push(("result", result));
    obj(pairs)
}

/// The error envelope:
/// `{"ok":false,"op":…,("seq":…)?,"error":{"code":…,"message":…}}`.
/// `op` is `null` when the request never yielded one.
#[must_use]
pub fn err_envelope(op: Option<&str>, seq: Option<&Value>, error: &WireError) -> Value {
    let mut pairs = vec![
        ("ok", Value::Bool(false)),
        ("op", op.map_or(Value::Null, |o| Value::Str(o.to_owned()))),
    ];
    if let Some(seq) = seq {
        pairs.push(("seq", seq.clone()));
    }
    pairs.push((
        "error",
        obj(vec![
            ("code", Value::Str(error.code.as_str().to_owned())),
            ("message", Value::Str(error.message.clone())),
        ]),
    ));
    obj(pairs)
}

/// A required string field.
pub fn str_field<'a>(request: &'a Value, key: &str) -> Result<&'a str, WireError> {
    request
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| bad_request(format!("missing or non-string field `{key}`")))
}

/// An optional string field (absent and `null` both read as `None`).
pub fn opt_str_field<'a>(request: &'a Value, key: &str) -> Result<Option<&'a str>, WireError> {
    match request.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(_) => Err(bad_request(format!("field `{key}` must be a string"))),
    }
}

/// A required unsigned-integer field.
pub fn u64_field(request: &Value, key: &str) -> Result<u64, WireError> {
    match request.get(key) {
        Some(Value::UInt(u)) => Ok(*u),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(bad_request(format!("missing or non-integer field `{key}`"))),
    }
}

/// An optional array-of-strings field (absent and `null` read as empty).
pub fn str_seq_field<'a>(request: &'a Value, key: &str) -> Result<Vec<&'a str>, WireError> {
    match request.get(key) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Seq(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .ok_or_else(|| bad_request(format!("field `{key}` must contain strings")))
            })
            .collect(),
        Some(_) => Err(bad_request(format!("field `{key}` must be an array"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_slots_are_dense_and_stable() {
        assert_eq!(op_slot("ping"), Some(0));
        // Slots are append-only: `metrics` keeps the slot it had before
        // the streaming ops landed, and new ops go at the end.
        assert_eq!(op_slot("metrics"), Some(15));
        assert_eq!(op_slot("unsubscribe"), Some(OPS.len() as u64 - 1));
        assert_eq!(op_slot("no_such_op"), None);
        // Slots are unique by construction; spell out the contract.
        for (i, op) in OPS.iter().enumerate() {
            assert_eq!(op_slot(op), Some(i as u64));
        }
    }

    #[test]
    fn envelopes_render_deterministically() {
        let ok = ok_envelope("ping", None, obj(vec![("pong", Value::Bool(true))]));
        assert_eq!(
            serde_json::to_string(&ok).unwrap(),
            r#"{"ok":true,"op":"ping","result":{"pong":true}}"#
        );
        let seq = Value::UInt(7);
        let err = err_envelope(
            Some("decide"),
            Some(&seq),
            &WireError::new(ErrorCode::UnknownTenant, "no tenant `x`"),
        );
        assert_eq!(
            serde_json::to_string(&err).unwrap(),
            r#"{"ok":false,"op":"decide","seq":7,"error":{"code":"unknown_tenant","message":"no tenant `x`"}}"#
        );
    }

    #[test]
    fn field_helpers_enforce_shapes() {
        let request: Value =
            serde_json::from_str(r#"{"a":"x","n":3,"env":["e1","e2"],"bad":[1]}"#).unwrap();
        assert_eq!(str_field(&request, "a").unwrap(), "x");
        assert!(str_field(&request, "n").is_err());
        assert_eq!(u64_field(&request, "n").unwrap(), 3);
        assert_eq!(str_seq_field(&request, "env").unwrap(), vec!["e1", "e2"]);
        assert_eq!(str_seq_field(&request, "absent").unwrap().len(), 0);
        assert!(str_seq_field(&request, "bad").is_err());
        assert_eq!(opt_str_field(&request, "absent").unwrap(), None);
        assert!(opt_str_field(&request, "n").is_err());
    }
}
