//! BRAM trace capture model.

use crate::error::FabricError;
use serde::{Deserialize, Serialize};

/// A bounded on-chip capture buffer, as the paper's design uses to store
/// each benign-circuit result "in BRAM and returned to the workstation
/// as a trace along with the ciphertext".
///
/// A 7-series 36 Kb BRAM stores 1024 × 36-bit words; the model counts
/// capacity in 64-bit sample words and refuses a write that would
/// overflow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BramCapture {
    depth_words: usize,
    data: Vec<u64>,
}

impl BramCapture {
    /// Creates a capture buffer holding `depth_words` 64-bit words.
    fn new(depth_words: usize) -> Self {
        BramCapture {
            depth_words,
            data: Vec::new(),
        }
    }

    /// Capacity of one Zynq-7020 36 Kb block RAM in 64-bit words.
    pub fn single_bram36() -> Self {
        Self::new(36 * 1024 / 64)
    }

    /// Appends sample words.
    ///
    /// # Errors
    ///
    /// [`FabricError::CaptureOverflow`] when the buffer would overflow
    /// (nothing is written).
    pub fn push(&mut self, words: &[u64]) -> Result<(), FabricError> {
        if self.data.len() + words.len() > self.depth_words {
            return Err(FabricError::CaptureOverflow {
                depth: self.depth_words,
            });
        }
        self.data.extend_from_slice(words);
        Ok(())
    }

    /// Drains the buffer, returning all stored words (the UART readout).
    pub fn drain(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain() {
        let mut b = BramCapture::new(4);
        b.push(&[1, 2]).unwrap();
        b.push(&[3]).unwrap();
        assert_eq!(b.drain(), vec![1, 2, 3]);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn strict_overflow_errors_atomically() {
        let mut b = BramCapture::new(2);
        b.push(&[1]).unwrap();
        let err = b.push(&[2, 3]).unwrap_err();
        assert!(matches!(err, FabricError::CaptureOverflow { depth: 2 }));
        assert_eq!(b.drain(), vec![1], "failed push must not partially write");
    }

    #[test]
    fn bram36_capacity() {
        let mut b = BramCapture::single_bram36();
        b.push(&[0; 576]).unwrap();
        assert!(b.push(&[0]).is_err());
    }
}
