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
//! * **striped** ([`dot`], [`dot_rows`]) — `LANES` independent accumulators
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

/// Rows per group of [`dot_rows`]: five `F64x8` accumulators take ten
/// of the sixteen AVX2 `ymm` registers, leaving room for the two halves
/// of `x`'s lane block and a weight load.
pub const ROW_GROUP: usize = 5;

/// Copies the row-major `rows × dim` block `w` into `out` (the same
/// length) in the layout [`dot_rows`] streams.
///
/// Each full group of [`ROW_GROUP`] rows is stored lane block by lane
/// block: for block `b`, the group's rows' `LANES`-wide chunks `b` sit
/// back to back, so one pass over the group reads every weight the five
/// accumulators need in order. The rows' `dim % LANES` tails follow the
/// group's blocks, row after row. Rows past the last full group are
/// copied as they are. `out` is a permutation of `w`.
///
/// # Panics
///
/// Panics if `dim == 0`, `w.len()` is not a multiple of `dim`, or
/// `out.len() != w.len()`.
pub fn interleave_rows(w: &[f64], dim: usize, out: &mut [f64]) {
    assert!(dim > 0, "rows need a non-zero dimension");
    assert_eq!(w.len() % dim, 0, "weights must be whole rows");
    assert_eq!(
        out.len(),
        w.len(),
        "interleaved copy has the weights' length"
    );
    let body = dim / LANES * LANES;
    let group_len = ROW_GROUP * dim;
    let mut groups = w.chunks_exact(group_len);
    let mut dst = out.chunks_exact_mut(group_len);
    for (rows, dst) in groups.by_ref().zip(dst.by_ref()) {
        let (blocks, tails) = dst.split_at_mut(ROW_GROUP * body);
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            let (row_body, row_tail) = row.split_at(body);
            for (b, chunk) in row_body.chunks_exact(LANES).enumerate() {
                let at = (b * ROW_GROUP + r) * LANES;
                blocks[at..at + LANES].copy_from_slice(chunk);
            }
            let tail = dim - body;
            tails[r * tail..(r + 1) * tail].copy_from_slice(row_tail);
        }
    }
    dst.into_remainder().copy_from_slice(groups.remainder());
}

/// One striped dot product per weight row against a shared `x`:
/// `out[r] = dot(W[r], x)` for the `out.len() × dim` block `W` that
/// [`interleave_rows`] laid out as `packed`.
///
/// Each full group of [`ROW_GROUP`] rows runs five `F64x8` accumulators
/// over the group's interleaved lane blocks, so every load of `x` feeds
/// five rows. Each output follows exactly the [`dot`] schedule — lane
/// `i % LANES` of its own accumulator, the same `fold_pairwise`, then the
/// same serial tail — so it is bit-identical to [`dot`] on the row. Rows
/// past the last full group go through [`dot`] itself.
///
/// # Panics
///
/// Panics if `dim == 0`, `packed.len() != out.len() * dim` or
/// `x.len() != dim`.
pub fn dot_rows(packed: &[f64], dim: usize, x: &[f64], out: &mut [f64]) {
    assert!(dim > 0, "rows need a non-zero dimension");
    assert_eq!(packed.len(), out.len() * dim, "one weight row per output");
    assert_eq!(x.len(), dim, "dot product requires equal lengths");
    let body = dim / LANES * LANES;
    let (x_body, x_tail) = x.split_at(body);
    let group_len = ROW_GROUP * dim;
    let mut groups = packed.chunks_exact(group_len);
    let mut outs = out.chunks_exact_mut(ROW_GROUP);
    for (group, outs) in groups.by_ref().zip(outs.by_ref()) {
        let (blocks, tails) = group.split_at(ROW_GROUP * body);
        let mut a0 = F64x8::zero();
        let (mut a1, mut a2, mut a3, mut a4) = (a0, a0, a0, a0);
        for (w, xb) in blocks
            .chunks_exact(ROW_GROUP * LANES)
            .zip(x_body.chunks_exact(LANES))
        {
            a0 = a0.add_prod(&w[..LANES], xb);
            a1 = a1.add_prod(&w[LANES..2 * LANES], xb);
            a2 = a2.add_prod(&w[2 * LANES..3 * LANES], xb);
            a3 = a3.add_prod(&w[3 * LANES..4 * LANES], xb);
            a4 = a4.add_prod(&w[4 * LANES..], xb);
        }
        fold_group(&[a0, a1, a2, a3, a4], outs);
        if !x_tail.is_empty() {
            for (o, w_tail) in outs.iter_mut().zip(tails.chunks_exact(x_tail.len())) {
                for (w, xi) in w_tail.iter().zip(x_tail) {
                    *o += w * xi;
                }
            }
        }
    }
    for (o, row) in outs
        .into_remainder()
        .iter_mut()
        .zip(groups.remainder().chunks_exact(dim))
    {
        *o = dot(row, x);
    }
}

/// Folds a group's accumulators into its outputs. Kept out of line on
/// purpose: inlined, LLVM's SLP vectorizer transposes the five
/// accumulators to store the folds as vectors, and the streaming loop
/// above stops running on whole `ymm` registers (see the `lanes` module
/// docs).
#[inline(never)]
fn fold_group(acc: &[F64x8; ROW_GROUP], out: &mut [f64]) {
    for (o, a) in out.iter_mut().zip(acc) {
        *o = a.fold_pairwise();
    }
}

/// In-place fixed-tree reduction of `parts` equal-length vectors laid out
/// contiguously in `buf` (`buf.len() == parts * len`), accumulating
/// everything into the first segment.
///
/// The combination schedule is stride-doubling — `parts[i] += parts[i+gap]`
/// for `gap = 1, 2, 4, …` — a pairwise tree whose shape depends only on
/// `parts`. The chunked gradient kernel computes per-chunk partials and
/// then calls this, so its reduction order is fixed by the chunk count
/// alone.
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

    /// `dot_rows` through `interleave_rows` against `dot` per row, bit
    /// for bit.
    pub(super) fn assert_rows_match_dot(w: &[f64], dim: usize, x: &[f64]) {
        let rows = w.len() / dim;
        let mut packed = vec![f64::NAN; w.len()];
        interleave_rows(w, dim, &mut packed);
        let mut out = vec![f64::NAN; rows];
        dot_rows(&packed, dim, x, &mut out);
        for (r, (got, row)) in out.iter().zip(w.chunks_exact(dim)).enumerate() {
            assert_eq!(
                got.to_bits(),
                dot(row, x).to_bits(),
                "row {r} of {rows}, dim {dim}"
            );
        }
    }

    #[test]
    fn dot_rows_bit_identical_to_dot_per_row() {
        // Sub-lane, lane-aligned and lane-tailed dims; rows from one to
        // past two full groups.
        for dim in [1usize, 3, 8, 16, 19, 784] {
            let x: Vec<f64> = (0..dim).map(|i| 1.0 / (i as f64 + 0.5)).collect();
            for rows in 1..=12 {
                let w: Vec<f64> = (0..rows * dim)
                    .map(|i| (i as f64 * 0.31).sin() * 1e3_f64.powi((i % 7) as i32 - 3))
                    .collect();
                assert_rows_match_dot(&w, dim, &x);
            }
        }
    }

    #[test]
    fn interleave_rows_is_a_permutation_with_groups_blocked() {
        // Two rows past one group, dim 10 = one lane block + a 2-tail.
        let dim = 10;
        let w: Vec<f64> = (0..7 * dim).map(|i| i as f64).collect();
        let mut packed = vec![0.0; w.len()];
        interleave_rows(&w, dim, &mut packed);
        // Block 0 of rows 0..5, then the five 2-element tails.
        for r in 0..ROW_GROUP {
            assert_eq!(
                &packed[r * LANES..(r + 1) * LANES],
                &w[r * dim..r * dim + LANES]
            );
            let at = ROW_GROUP * LANES + r * 2;
            assert_eq!(&packed[at..at + 2], &w[r * dim + LANES..(r + 1) * dim]);
        }
        assert_eq!(&packed[ROW_GROUP * dim..], &w[ROW_GROUP * dim..]);
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

        /// Every row of the grouped kernel is bit-identical to `dot` on
        /// it, for 1..=12 rows and dims with no full lane block, with a
        /// lane tail and with none.
        #[test]
        fn dot_rows_matches_dot_bitwise(
            rows in 1usize..13,
            dim in prop_oneof![1usize..8, Just(8usize), Just(16usize), 9usize..24],
            w in proptest::collection::vec(-100.0f64..100.0, 12 * 24),
            x in proptest::collection::vec(-100.0f64..100.0, 24),
        ) {
            tests::assert_rows_match_dot(&w[..rows * dim], dim, &x[..dim]);
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
