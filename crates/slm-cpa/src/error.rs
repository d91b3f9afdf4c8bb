//! Typed errors for the accumulator layer.

/// A trace or accumulator whose shape disagrees with the attack it was
/// offered to. The accumulator is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpaError {
    /// A trace arrived with the wrong number of points.
    PointCountMismatch {
        /// Points the attack was configured for.
        expected: usize,
        /// Points the offending trace carried.
        got: usize,
    },
    /// Two accumulators with different geometry or hypothesis models
    /// cannot be merged.
    IncompatibleMerge {
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl std::fmt::Display for CpaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpaError::PointCountMismatch { expected, got } => {
                write!(
                    f,
                    "trace point count mismatch: expected {expected}, got {got}"
                )
            }
            CpaError::IncompatibleMerge { detail } => {
                write!(f, "incompatible accumulator merge: {detail}")
            }
        }
    }
}

impl std::error::Error for CpaError {}
