//! Typed errors for the accumulator layer.

/// A trace or accumulator whose shape disagrees with the attack it was
/// offered to, or that would overfill it. The accumulator is left
/// unchanged.
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
    /// Absorbing or merging would take an accumulator past `u32::MAX`
    /// traces, the cap under which its integer sums cannot overflow.
    TraceCapExceeded {
        /// Traces the accumulator holds.
        traces: u64,
        /// Traces the refused absorb or merge would add.
        adding: u64,
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
            CpaError::TraceCapExceeded { traces, adding } => {
                write!(
                    f,
                    "adding {adding} traces to {traces} would pass the cap of {} traces",
                    u32::MAX
                )
            }
        }
    }
}

impl std::error::Error for CpaError {}
