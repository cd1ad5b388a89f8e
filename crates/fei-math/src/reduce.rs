//! Deterministic fast reductions: striped dot products, the fixed-tree
//! segment reduction, and fused update kernels.
//!
//! Every routine here is *shape-deterministic*: the order in which partial
//! results are combined depends only on the input length, never on thread
//! count, chunk scheduling, or data values. That property is what lets the
//! fast path replace the naive kernels while the golden-model suite pins the
//! numerics bit-for-bit, and what keeps the chunked-parallel gradient in
//! `fei-ml`/`fei-fl` bit-identical to its serial evaluation.
//!
//! Two reduction styles are used:
//!
//! * **striped** ([`dot`], [`dot2`]) — `LANES` independent accumulators
//!   walk the slice in lock-step and are folded in a fixed pairwise tree,
//!   with the tail appended serially. Breaking the serial floating-point
//!   dependency chain lets the compiler vectorize, and the
//!   multi-accumulator structure is a coarse pairwise summation, so accuracy
//!   improves over a naive left fold rather than degrading;
//! * **tree** ([`tree_reduce_into_first`]) — stride-doubling pairwise
//!   combination of equal-length segments, the schedule the chunked
//!   gradient kernels follow.

pub(crate) mod lanes;

use lanes::F64x8;

/// Number of independent accumulator lanes in the striped reductions.
///
/// Eight `f64` lanes fill two AVX2 registers (or four NEON registers) and
/// give the out-of-order core enough independent add chains to hide FMA
/// latency. The value is part of the numeric contract: changing it changes
/// the bits the fast path produces, so it is fixed and public. It equals
/// the width of [`lanes::F64x8`], the accumulator type the striped
/// kernels are built on.
pub(crate) const LANES: usize = 8;

/// Reference dot product: the naive serial left fold.
///
/// This is the pre-fast-path arithmetic, kept as the comparison baseline for
/// equivalence tests and the perf harness. Prefer [`dot`] everywhere else.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot_serial(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Deterministic striped dot product.
///
/// Multiplies element-wise into `LANES` independent accumulators
/// (element `i` goes to lane `i % LANES` within each full block), folds the
/// lanes in a fixed pairwise tree, then adds the tail elements serially.
/// The combination order depends only on `a.len()`, so the result is
/// reproducible across runs, machines with the same FP semantics, and
/// thread counts — while vectorizing roughly `LANES`× better than the
/// serial fold.
///
/// Empty slices dot to `0.0`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    // Built on the lane layer: `F64x8` holds eight named-field scalars
    // (an indexed `[f64; 8]` would round-trip through the stack) and its
    // `fold_pairwise` is the pinned combination tree.
    let mut acc8 = F64x8::zero();
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        acc8 = acc8.add_prod(ca, cb);
    }
    let mut acc = acc8.fold_pairwise();
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += x * y;
    }
    acc
}

/// Two striped dot products against a shared right-hand side in one pass:
/// `(dot(a0, b), dot(a1, b))`.
///
/// Each output follows exactly the [`dot`] schedule (its own
/// `lanes::F64x8` accumulator, same fold, same serial tail), so both
/// results are bit-identical to two separate [`dot`] calls — but `b` is
/// streamed through cache once instead of twice, which matters when many
/// rows are dotted against one activation vector (logits).
///
/// # Panics
///
/// Panics if any length differs.
pub fn dot2(a0: &[f64], a1: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(a0.len(), b.len(), "dot product requires equal lengths");
    assert_eq!(a1.len(), b.len(), "dot product requires equal lengths");
    let mut acc0 = F64x8::zero();
    let mut acc1 = F64x8::zero();
    let mut chunks_a0 = a0.chunks_exact(LANES);
    let mut chunks_a1 = a1.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for ((c0, c1), cb) in chunks_a0
        .by_ref()
        .zip(chunks_a1.by_ref())
        .zip(chunks_b.by_ref())
    {
        acc0 = acc0.add_prod(c0, cb);
        acc1 = acc1.add_prod(c1, cb);
    }
    let mut r0 = acc0.fold_pairwise();
    let mut r1 = acc1.fold_pairwise();
    let tail_b = chunks_b.remainder();
    for (x, y) in chunks_a0.remainder().iter().zip(tail_b) {
        r0 += x * y;
    }
    for (x, y) in chunks_a1.remainder().iter().zip(tail_b) {
        r1 += x * y;
    }
    (r0, r1)
}

/// In-place fixed-tree reduction of `parts` equal-length vectors laid out
/// contiguously in `buf` (`buf.len() == parts * len`), accumulating
/// everything into the first segment.
///
/// The combination schedule is stride-doubling — `parts[i] += parts[i+gap]`
/// for `gap = 1, 2, 4, …` — a pairwise tree whose shape depends only on
/// `parts`. Chunked gradient kernels compute per-chunk partials (serially
/// or on worker threads) and then call this on one thread, which is what
/// makes the parallel option bit-identical to the serial one.
///
/// # Panics
///
/// Panics if `buf.len() != parts * len`, or `parts == 0` with a non-empty
/// buffer.
pub fn tree_reduce_into_first(buf: &mut [f64], parts: usize, len: usize) {
    assert_eq!(buf.len(), parts * len, "buffer must hold `parts` segments");
    let mut gap = 1;
    while gap < parts {
        let mut i = 0;
        while i + gap < parts {
            let (dst, src) = buf.split_at_mut((i + gap) * len);
            let dst = &mut dst[i * len..i * len + len];
            let src = &src[..len];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
            i += 2 * gap;
        }
        gap *= 2;
    }
}

/// Fused AXPY + shrink: `y[i] = t - shrink * t` where `t = y[i] + alpha *
/// x[i]`, in one pass.
///
/// This is exactly the arithmetic of a gradient step followed by
/// multiplicative L2 shrinkage (`w -= step*g; w -= shrink*w`) — the two-pass
/// and fused forms are bit-identical, including at `shrink == 0.0`, where
/// `t - 0.0 * t` reproduces `t` for every finite `t` (IEEE-754 signed-zero
/// rules included). One pass instead of two halves the memory traffic on
/// the parameter buffer.
///
/// The per-element arithmetic is `lanes::axpy_shrink_step`; the loop
/// stays in iterator form because element-wise streams vectorize best
/// that way (explicit lane-block load/store measurably regresses — see
/// the `lanes` module docs).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn fused_axpy_shrink(y: &mut [f64], alpha: f64, x: &[f64], shrink: f64) {
    assert_eq!(y.len(), x.len(), "fused axpy requires equal lengths");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = lanes::axpy_shrink_step(*yi, xi, alpha, shrink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a` and `b` agree to `tol`, absolutely or relative to the larger
    /// magnitude.
    pub(super) fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn dot_matches_serial_reference() {
        let a: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).cos()).collect();
        assert!(close(dot(&a, &b), dot_serial(&a, &b), 1e-12));
    }

    #[test]
    fn dot_empty_and_short() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        // Below one lane block the striped kernel is the serial tail.
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), dot_serial(&a, &b));
    }

    #[test]
    fn dot_is_deterministic_across_calls() {
        let a: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let b: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let bits = dot(&a, &b).to_bits();
        for _ in 0..10 {
            assert_eq!(dot(&a, &b).to_bits(), bits);
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_rejects_length_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot2_bit_identical_to_two_dots() {
        for n in [0usize, 1, 7, 8, 9, 100, 783, 784] {
            let a0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
            let a1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 0.5)).collect();
            let (r0, r1) = dot2(&a0, &a1, &b);
            assert_eq!(r0.to_bits(), dot(&a0, &b).to_bits(), "row 0 at n={n}");
            assert_eq!(r1.to_bits(), dot(&a1, &b).to_bits(), "row 1 at n={n}");
        }
    }

    #[test]
    fn tree_reduce_sums_segments() {
        // 4 segments of length 3.
        let mut buf = vec![
            1.0, 2.0, 3.0, //
            10.0, 20.0, 30.0, //
            100.0, 200.0, 300.0, //
            1000.0, 2000.0, 3000.0,
        ];
        tree_reduce_into_first(&mut buf, 4, 3);
        assert_eq!(&buf[..3], &[1111.0, 2222.0, 3333.0]);
    }

    #[test]
    fn fused_axpy_shrink_matches_two_pass() {
        let x = [0.5, -1.5, 2.0, 0.0];
        let shrink = 0.03;
        let alpha = -0.2;
        let mut fused = [1.0, -2.0, 0.25, -0.0];
        let mut two_pass = fused;
        fused_axpy_shrink(&mut fused, alpha, &x, shrink);
        for (y, &xi) in two_pass.iter_mut().zip(&x) {
            *y += alpha * xi;
            *y -= shrink * *y;
        }
        for (f, t) in fused.iter().zip(&two_pass) {
            assert_eq!(f.to_bits(), t.to_bits());
        }
    }

    #[test]
    fn fused_axpy_zero_shrink_is_plain_axpy_bitwise() {
        let x = [3.25, -0.75, 1e-300, -1e300];
        let mut fused = [1.0, -0.0, 0.0, 2.5];
        let mut plain = fused;
        fused_axpy_shrink(&mut fused, 0.125, &x, 0.0);
        for (y, &xi) in plain.iter_mut().zip(&x) {
            *y += 0.125 * xi;
        }
        for (f, p) in fused.iter().zip(&plain) {
            assert_eq!(f.to_bits(), p.to_bits());
        }
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::tests::close;
    use super::*;

    fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        // Draw a length plus two max-length vectors, then truncate both to the
        // drawn length (the vendored proptest has no flat-map combinator).
        (
            0..max_len + 1,
            proptest::collection::vec(-100.0f64..100.0, max_len),
            proptest::collection::vec(-100.0f64..100.0, max_len),
        )
            .prop_map(|(n, mut a, mut b)| {
                a.truncate(n);
                b.truncate(n);
                (a, b)
            })
    }

    proptest! {
        /// The striped dot agrees with the serial reference to tight
        /// relative tolerance over arbitrary lengths (empty, sub-lane,
        /// non-multiple-of-LANES included by construction).
        #[test]
        fn striped_dot_matches_serial((a, b) in vec_pair(300)) {
            let fast = dot(&a, &b);
            let slow = dot_serial(&a, &b);
            prop_assert!(close(fast, slow, 1e-9), "{fast} vs {slow}");
        }

        /// The paired dot is bit-identical to two independent striped
        /// dots for arbitrary lengths (tails included).
        #[test]
        fn dot2_matches_dot_bitwise((a, b) in vec_pair(300)) {
            let (r0, r1) = dot2(&a, &b, &b);
            prop_assert_eq!(r0.to_bits(), dot(&a, &b).to_bits());
            prop_assert_eq!(r1.to_bits(), dot(&b, &b).to_bits());
        }

        /// Tree reduction equals per-element pairwise sums of the segments.
        #[test]
        fn tree_reduce_matches_columnwise_sum(
            parts in 1usize..9,
            len in 1usize..17,
        ) {
            let mut buf: Vec<f64> = (0..parts * len)
                .map(|i| ((i * 37) % 101) as f64 - 50.0)
                .collect();
            let expect: Vec<f64> = (0..len)
                .map(|j| (0..parts).map(|p| buf[p * len + j]).sum::<f64>())
                .collect();
            tree_reduce_into_first(&mut buf, parts, len);
            for (got, want) in buf[..len].iter().zip(&expect) {
                prop_assert!(close(*got, *want, 1e-9));
            }
        }
    }
}
