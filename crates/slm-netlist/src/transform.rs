//! Random-simulation equivalence checking, a test oracle: it decides
//! whether two netlists with the same interface compute the same
//! function, so a test can show that a rewrite of a netlist preserves
//! it. The module is compiled for tests only.

use crate::error::NetlistError;
use crate::netlist::Netlist;

/// Random-simulation equivalence check: compares the outputs of two
/// netlists with the same interface over `rounds × 64` random patterns.
///
/// A mismatch is definitive; agreement is probabilistic (like any
/// simulation-based miter) but with hundreds of random 64-bit-parallel
/// rounds the escape probability for ordinary logic is negligible.
///
/// # Errors
///
/// Fails on interface mismatch or cyclic netlists.
///
/// Returns `Ok(None)` when equivalent, `Ok(Some(pattern))` with a
/// counterexample input assignment otherwise.
fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    rounds: usize,
    seed: u64,
) -> Result<Option<Vec<bool>>, NetlistError> {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(NetlistError::InputCountMismatch {
            expected: a.inputs().len(),
            got: b.inputs().len(),
        });
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..rounds {
        let ins: Vec<u64> = (0..a.inputs().len()).map(|_| next()).collect();
        let oa = a.eval_parallel(&ins)?;
        let ob = b.eval_parallel(&ins)?;
        for (k, (&wa, wb)) in oa.iter().zip(&ob).enumerate() {
            let diff = wa ^ wb;
            if diff != 0 {
                let bit = diff.trailing_zeros();
                let pattern = ins.iter().map(|w| (w >> bit) & 1 == 1).collect();
                let _ = k;
                return Ok(Some(pattern));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::generators::ripple_carry_adder;

    #[test]
    fn equivalence_finds_counterexample() {
        let a = ripple_carry_adder(8).unwrap();
        // b computes a+b+1 via the cin variant wired to const1
        let mut bld = NetlistBuilder::new("plus1");
        let xa = bld.input_bus("a", 8);
        let xb = bld.input_bus("b", 8);
        let mut carry = bld.const1();
        let mut sums = Vec::new();
        for i in 0..8 {
            let axb = bld.xor2(xa[i], xb[i]);
            let s = bld.xor2(axb, carry);
            let t0 = bld.and2(xa[i], xb[i]);
            let t1 = bld.and2(axb, carry);
            carry = bld.or2(t0, t1);
            sums.push(s);
        }
        bld.output_bus("sum", &sums);
        bld.output("cout", carry);
        let b = bld.finish().unwrap();
        let cex = check_equivalence(&a, &b, 64, 3).unwrap();
        let pattern = cex.expect("must find a counterexample");
        // verify the counterexample really differs
        assert_ne!(a.eval(&pattern).unwrap(), b.eval(&pattern).unwrap());
    }

    #[test]
    fn interface_mismatch_rejected() {
        let a = ripple_carry_adder(8).unwrap();
        let b = ripple_carry_adder(4).unwrap();
        assert!(check_equivalence(&a, &b, 4, 1).is_err());
    }
}
