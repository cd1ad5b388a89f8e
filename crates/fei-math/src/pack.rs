//! Packed GEMM micro-kernels and their reusable pack workspace.
//!
//! [`Matrix::matmul`](crate::matrix::Matrix::matmul) and
//! [`Matrix::matmul_tn`](crate::matrix::Matrix::matmul_tn) run on the
//! register-blocked kernel in this module: for each `TILE`-wide strip of
//! the inner dimension, the B-tile is packed once into contiguous
//! `NR`-wide column panels and each `MR`-row A-panel is packed into a
//! k-major strip, so the inner loop streams both operands linearly and
//! keeps an `MR × NR` accumulator block entirely in registers.
//!
//! **Bit-identity contract.** The packed schedule is constructed so every
//! output element still accumulates its `k` contributions in ascending
//! order — `kk` tiles ascend, `kl` within a tile ascends, and the
//! accumulator block is loaded from the output (which holds the previous
//! tiles' partials) before the inner loop and stored back after. The
//! exact-zero skip of the reference kernel is preserved per `(i, k)`
//! pair: a packed A-panel records whether it contains any exact zero
//! during packing; zero-free panels take a branch-free body (skipping
//! nothing — identical to the branchy body when no skip would fire,
//! ~20% faster), panels with zeros take the branchy body that skips
//! exactly where [`Matrix::matmul_reference`](crate::matrix::Matrix::matmul_reference)
//! skips. Equivalence is pinned bitwise by unit tests and proptests in
//! `matrix.rs`.
//!
//! The pack buffers live in a [`MatScratch`] workspace that callers can
//! reuse across products; like `GradScratch`/`WireScratch` it counts
//! every buffer growth so benches can assert zero steady-state
//! allocations.

/// Square cache-block edge for the packed kernels, in elements — shared
/// with the historical tiled kernels so the per-element accumulation
/// order (and therefore every produced bit) is unchanged.
pub(crate) const TILE: usize = 64;

/// Rows of the register-blocked accumulator (A-panel height).
pub(crate) const MR: usize = 4;

/// Columns of the register-blocked accumulator (B-panel width).
pub(crate) const NR: usize = 8;

/// Reusable pack workspace for the GEMM micro-kernels.
///
/// Holds the packed A-panel (`MR × TILE`) and packed B-tile
/// (`TILE × n`, rounded to whole `NR` panels) between calls. Buffers
/// only ever grow; [`MatScratch::allocations`] counts each growth so the
/// perf harness can verify the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct MatScratch {
    a_pack: Vec<f64>,
    b_pack: Vec<f64>,
    allocations: u64,
}

impl MatScratch {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times any internal buffer had to grow since creation.
    /// Zero growth across warm calls == zero steady-state allocations.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Ensures capacity for a product with `panels` full B-panels,
    /// returning the A-panel and B-tile buffers.
    fn prepare(&mut self, panels: usize) -> (&mut [f64], &mut [f64]) {
        let a_need = TILE * MR;
        let b_need = TILE * panels * NR;
        if self.a_pack.len() < a_need {
            self.allocations += 1;
            self.a_pack.resize(a_need, 0.0);
        }
        if self.b_pack.len() < b_need {
            self.allocations += 1;
            self.b_pack.resize(b_need, 0.0);
        }
        (&mut self.a_pack[..a_need], &mut self.b_pack[..b_need])
    }
}

/// How the packed kernel reads the A operand.
#[derive(Debug, Clone, Copy)]
pub enum AOrder {
    /// `a[i, k] = data[i * kd + k]` — plain row-major A (for `matmul`).
    RowMajor,
    /// `a[i, k] = data[k * m + i]` — A is the transpose of a row-major
    /// `kd × m` buffer (for `matmul_tn`, without materializing it).
    Transposed,
}

/// Element accessor for the two A layouts.
#[inline(always)]
fn a_at(a: &[f64], order: AOrder, m: usize, kd: usize, i: usize, k: usize) -> f64 {
    match order {
        AOrder::RowMajor => a[i * kd + k],
        AOrder::Transposed => {
            let _ = kd;
            a[k * m + i]
        }
    }
}

/// Packed GEMM: `out += a * b` where `a` is `m × kd` (logical, see
/// [`AOrder`]), `b` is `kd × n` row-major, `out` is `m × n` row-major
/// and accumulates on top of whatever the caller left there (zero it
/// first for a plain product).
///
/// Contribution order per output element is `k`-ascending with an exact
/// per-`(i, k)` zero skip on `a`, matching the reference triple loop
/// bit-for-bit — which is why the fused gradient kernel can phrase its
/// `G += Eᵀ X` accumulation as a call to this function (`E` read via
/// [`AOrder::Transposed`]) without perturbing golden numerics.
///
/// # Panics
///
/// Panics (via slice indexing) if any buffer is shorter than its shape
/// implies.
#[allow(
    clippy::too_many_arguments,
    reason = "the GEMM shape (a, b, out, m, kd, n) is irreducible; a struct would only move the list"
)]
pub fn packed_gemm(
    a: &[f64],
    order: AOrder,
    b: &[f64],
    out: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
    scratch: &mut MatScratch,
) {
    let panels = n / NR;
    let n_main = panels * NR;
    let m_main = (m / MR) * MR;
    let (a_pack, b_pack) = scratch.prepare(panels);

    for kk in (0..kd).step_by(TILE) {
        let k_end = (kk + TILE).min(kd);
        let kt = k_end - kk;

        // Pack the B-tile into contiguous k-major panels: panel `p`
        // holds columns [p*NR, (p+1)*NR) for all kt inner indices.
        for p in 0..panels {
            let jp = p * NR;
            let dst = &mut b_pack[p * kt * NR..(p + 1) * kt * NR];
            for kl in 0..kt {
                let src = &b[(kk + kl) * n + jp..(kk + kl) * n + jp + NR];
                dst[kl * NR..kl * NR + NR].copy_from_slice(src);
            }
        }

        // Full MR-row groups take the register-blocked micro-kernel.
        for ig in (0..m_main).step_by(MR) {
            // Pack the A-panel k-major (apack[kl*MR + r] = a[ig+r, kk+kl])
            // and record whether any exact zero needs the skipping body.
            let mut has_zero = false;
            for r in 0..MR {
                for kl in 0..kt {
                    let av = a_at(a, order, m, kd, ig + r, kk + kl);
                    a_pack[kl * MR + r] = av;
                    // fei-lint: allow(float-eq, reason = "detects exact zeros so zero-free panels can drop the sparsity branch while performing the same contributions as matmul_reference")
                    has_zero |= av == 0.0;
                }
            }
            let ap = &a_pack[..kt * MR];

            for p in 0..panels {
                let jp = p * NR;
                let bp = &b_pack[p * kt * NR..p * kt * NR + kt * NR];
                gemm_block_4x8(out, n, ig, jp, ap, bp, has_zero);
            }

            // Column tail (n % NR): scalar, same k-ascending order and
            // the same per-(i,k) zero skip as the reference kernel.
            for j in n_main..n {
                for r in 0..MR {
                    let mut acc = out[(ig + r) * n + j];
                    for kl in 0..kt {
                        let av = ap[kl * MR + r];
                        // fei-lint: allow(float-eq, reason = "exact-zero sparsity skip mirrors matmul_reference per-(i,k), preserving the packed kernel's bit-identity")
                        if av == 0.0 {
                            continue;
                        }
                        acc += av * b[(kk + kl) * n + j];
                    }
                    out[(ig + r) * n + j] = acc;
                }
            }
        }

        // Row tail (m % MR): row-at-a-time over the full width, ascending
        // k within the tile — the historical blocked loop.
        for i in m_main..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for kl in 0..kt {
                let av = a_at(a, order, m, kd, i, kk + kl);
                // fei-lint: allow(float-eq, reason = "exact-zero sparsity skip mirrors matmul_reference per-(i,k), preserving the packed kernel's bit-identity")
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[(kk + kl) * n..(kk + kl) * n + n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// The `MR × NR` register-blocked inner kernel: loads the accumulator
/// block from `out` (previous k-tiles' partials), streams the packed
/// panels with ascending `kl`, stores the block back.
///
/// The 32 accumulators are named scalars — an indexed `[[f64; NR]; MR]`
/// spills to the stack — and the zero-free path is branch-free (see the
/// module docs for why that cannot change any bits).
#[inline(always)]
#[allow(
    clippy::too_many_lines,
    reason = "32 named accumulators, spelled out so they stay in registers"
)]
fn gemm_block_4x8(
    out: &mut [f64],
    n: usize,
    ig: usize,
    jp: usize,
    ap: &[f64],
    bp: &[f64],
    has_zero: bool,
) {
    let (mut c00, mut c01, mut c02, mut c03, mut c04, mut c05, mut c06, mut c07);
    let (mut c10, mut c11, mut c12, mut c13, mut c14, mut c15, mut c16, mut c17);
    let (mut c20, mut c21, mut c22, mut c23, mut c24, mut c25, mut c26, mut c27);
    let (mut c30, mut c31, mut c32, mut c33, mut c34, mut c35, mut c36, mut c37);
    {
        let r0 = &out[ig * n + jp..ig * n + jp + NR];
        c00 = r0[0];
        c01 = r0[1];
        c02 = r0[2];
        c03 = r0[3];
        c04 = r0[4];
        c05 = r0[5];
        c06 = r0[6];
        c07 = r0[7];
        let r1 = &out[(ig + 1) * n + jp..(ig + 1) * n + jp + NR];
        c10 = r1[0];
        c11 = r1[1];
        c12 = r1[2];
        c13 = r1[3];
        c14 = r1[4];
        c15 = r1[5];
        c16 = r1[6];
        c17 = r1[7];
        let r2 = &out[(ig + 2) * n + jp..(ig + 2) * n + jp + NR];
        c20 = r2[0];
        c21 = r2[1];
        c22 = r2[2];
        c23 = r2[3];
        c24 = r2[4];
        c25 = r2[5];
        c26 = r2[6];
        c27 = r2[7];
        let r3 = &out[(ig + 3) * n + jp..(ig + 3) * n + jp + NR];
        c30 = r3[0];
        c31 = r3[1];
        c32 = r3[2];
        c33 = r3[3];
        c34 = r3[4];
        c35 = r3[5];
        c36 = r3[6];
        c37 = r3[7];
    }
    if has_zero {
        for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
            let (b0, b1, b2, b3) = (bv[0], bv[1], bv[2], bv[3]);
            let (b4, b5, b6, b7) = (bv[4], bv[5], bv[6], bv[7]);
            let a0 = av[0];
            // fei-lint: allow(float-eq, reason = "exact-zero sparsity skip mirrors matmul_reference per-(i,k), preserving the packed kernel's bit-identity")
            if a0 != 0.0 {
                c00 += a0 * b0;
                c01 += a0 * b1;
                c02 += a0 * b2;
                c03 += a0 * b3;
                c04 += a0 * b4;
                c05 += a0 * b5;
                c06 += a0 * b6;
                c07 += a0 * b7;
            }
            let a1 = av[1];
            // fei-lint: allow(float-eq, reason = "exact-zero sparsity skip mirrors matmul_reference per-(i,k), preserving the packed kernel's bit-identity")
            if a1 != 0.0 {
                c10 += a1 * b0;
                c11 += a1 * b1;
                c12 += a1 * b2;
                c13 += a1 * b3;
                c14 += a1 * b4;
                c15 += a1 * b5;
                c16 += a1 * b6;
                c17 += a1 * b7;
            }
            let a2 = av[2];
            // fei-lint: allow(float-eq, reason = "exact-zero sparsity skip mirrors matmul_reference per-(i,k), preserving the packed kernel's bit-identity")
            if a2 != 0.0 {
                c20 += a2 * b0;
                c21 += a2 * b1;
                c22 += a2 * b2;
                c23 += a2 * b3;
                c24 += a2 * b4;
                c25 += a2 * b5;
                c26 += a2 * b6;
                c27 += a2 * b7;
            }
            let a3 = av[3];
            // fei-lint: allow(float-eq, reason = "exact-zero sparsity skip mirrors matmul_reference per-(i,k), preserving the packed kernel's bit-identity")
            if a3 != 0.0 {
                c30 += a3 * b0;
                c31 += a3 * b1;
                c32 += a3 * b2;
                c33 += a3 * b3;
                c34 += a3 * b4;
                c35 += a3 * b5;
                c36 += a3 * b6;
                c37 += a3 * b7;
            }
        }
    } else {
        // No exact zeros in this A-panel: the skip branches above would
        // never fire, so dropping them performs the identical sequence
        // of adds — branch-free and vectorizable.
        for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
            let (b0, b1, b2, b3) = (bv[0], bv[1], bv[2], bv[3]);
            let (b4, b5, b6, b7) = (bv[4], bv[5], bv[6], bv[7]);
            let a0 = av[0];
            c00 += a0 * b0;
            c01 += a0 * b1;
            c02 += a0 * b2;
            c03 += a0 * b3;
            c04 += a0 * b4;
            c05 += a0 * b5;
            c06 += a0 * b6;
            c07 += a0 * b7;
            let a1 = av[1];
            c10 += a1 * b0;
            c11 += a1 * b1;
            c12 += a1 * b2;
            c13 += a1 * b3;
            c14 += a1 * b4;
            c15 += a1 * b5;
            c16 += a1 * b6;
            c17 += a1 * b7;
            let a2 = av[2];
            c20 += a2 * b0;
            c21 += a2 * b1;
            c22 += a2 * b2;
            c23 += a2 * b3;
            c24 += a2 * b4;
            c25 += a2 * b5;
            c26 += a2 * b6;
            c27 += a2 * b7;
            let a3 = av[3];
            c30 += a3 * b0;
            c31 += a3 * b1;
            c32 += a3 * b2;
            c33 += a3 * b3;
            c34 += a3 * b4;
            c35 += a3 * b5;
            c36 += a3 * b6;
            c37 += a3 * b7;
        }
    }
    {
        let r0 = &mut out[ig * n + jp..ig * n + jp + NR];
        r0[0] = c00;
        r0[1] = c01;
        r0[2] = c02;
        r0[3] = c03;
        r0[4] = c04;
        r0[5] = c05;
        r0[6] = c06;
        r0[7] = c07;
        let r1 = &mut out[(ig + 1) * n + jp..(ig + 1) * n + jp + NR];
        r1[0] = c10;
        r1[1] = c11;
        r1[2] = c12;
        r1[3] = c13;
        r1[4] = c14;
        r1[5] = c15;
        r1[6] = c16;
        r1[7] = c17;
        let r2 = &mut out[(ig + 2) * n + jp..(ig + 2) * n + jp + NR];
        r2[0] = c20;
        r2[1] = c21;
        r2[2] = c22;
        r2[3] = c23;
        r2[4] = c24;
        r2[5] = c25;
        r2[6] = c26;
        r2[7] = c27;
        let r3 = &mut out[(ig + 3) * n + jp..(ig + 3) * n + jp + NR];
        r3[0] = c30;
        r3[1] = c31;
        r3[2] = c32;
        r3[3] = c33;
        r3[4] = c34;
        r3[5] = c35;
        r3[6] = c36;
        r3[7] = c37;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_counts_growth_once_per_size() {
        let mut s = MatScratch::new();
        assert_eq!(s.allocations(), 0);
        let _ = s.prepare(4);
        let grown = s.allocations();
        assert!(grown >= 1);
        let _ = s.prepare(4);
        let _ = s.prepare(2);
        assert_eq!(s.allocations(), grown, "warm prepare must not grow");
        let _ = s.prepare(8);
        assert!(s.allocations() > grown, "larger panel count must grow");
    }
}
