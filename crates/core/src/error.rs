//! Net construction errors.

use std::fmt;

/// Error produced by [`crate::NetBuilder::build`] when the declared net
/// is inconsistent.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Two places share a name.
    DuplicatePlace(String),
    /// Two transitions share a name.
    DuplicateTransition(String),
    /// An arc references a place never declared.
    UnknownPlace {
        /// The transition declaring the arc.
        transition: String,
        /// The missing place name.
        place: String,
    },
    /// An arc weight or inhibitor threshold of zero (meaningless: a zero
    /// weight is "no arc"; a zero threshold would disable forever).
    ZeroWeight {
        /// The transition declaring the arc.
        transition: String,
        /// The place on the arc.
        place: String,
    },
    /// A transition's relative firing frequency is not finite and
    /// positive.
    InvalidFrequency {
        /// The transition.
        transition: String,
        /// The offending frequency.
        frequency: f64,
    },
    /// The firing frequencies sum to more than `f64` holds, so no
    /// transition's share of a choice can be computed.
    FrequencyOverflow {
        /// The transition whose frequency made the sum overflow.
        transition: String,
    },
    /// A predicate or action failed to parse.
    BadExpression {
        /// The transition carrying the expression.
        transition: String,
        /// The parse failure.
        source: crate::ParseExprError,
    },
    /// `max_concurrent` of zero would make the transition dead.
    ZeroConcurrency {
        /// The transition.
        transition: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::DuplicatePlace(n) => write!(f, "duplicate place `{n}`"),
            NetError::DuplicateTransition(n) => write!(f, "duplicate transition `{n}`"),
            NetError::UnknownPlace { transition, place } => {
                write!(
                    f,
                    "transition `{transition}` references unknown place `{place}`"
                )
            }
            NetError::ZeroWeight { transition, place } => {
                write!(
                    f,
                    "transition `{transition}` has a zero-weight arc to `{place}`"
                )
            }
            NetError::InvalidFrequency {
                transition,
                frequency,
            } => write!(
                f,
                "transition `{transition}` has invalid firing frequency {frequency}"
            ),
            NetError::FrequencyOverflow { transition } => write!(
                f,
                "the sum of the firing frequencies overflows at transition `{transition}`"
            ),
            NetError::BadExpression { transition, source } => {
                write!(
                    f,
                    "transition `{transition}` has a bad expression: {source}"
                )
            }
            NetError::ZeroConcurrency { transition } => {
                write!(f, "transition `{transition}` has max_concurrent = 0")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::BadExpression { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NetError::DuplicatePlace("Bus_free".into());
        assert_eq!(e.to_string(), "duplicate place `Bus_free`");
        let e = NetError::UnknownPlace {
            transition: "t".into(),
            place: "p".into(),
        };
        assert!(e.to_string().contains("unknown place"));
    }

    #[test]
    fn source_chains_for_expression_errors() {
        use std::error::Error;
        let parse = crate::Expr::parse("1 +").unwrap_err();
        let e = NetError::BadExpression {
            transition: "t".into(),
            source: parse,
        };
        assert!(e.source().is_some());
    }
}
