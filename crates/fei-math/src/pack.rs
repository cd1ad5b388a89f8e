//! Packed GEMM micro-kernels and their reusable pack workspace.
//!
//! [`Matrix::matmul`](crate::matrix::Matrix::matmul) and
//! [`Matrix::matmul_tn`](crate::matrix::Matrix::matmul_tn) run on the
//! register-blocked kernel in this module: for each `TILE`-wide strip of
//! the inner dimension, each `MR`-row A-panel is packed into a k-major
//! strip, and the B-tile is packed into contiguous `NR`-wide column
//! panels when enough row panels reuse it (otherwise the micro-kernel
//! reads B's rows in place, `n` apart). The inner loop keeps an
//! `MR × NR` accumulator block entirely in registers.
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

use crate::reduce::lanes::F64x8;

/// Square cache-block edge for the packed kernels, in elements — shared
/// with the historical tiled kernels so the per-element accumulation
/// order (and therefore every produced bit) is unchanged.
pub(crate) const TILE: usize = 64;

/// Rows of the register-blocked accumulator (A-panel height). Five rows
/// of eight lanes take ten `ymm` registers, and the gradient's
/// `num_classes = 10` rows split into two panels with no row tail.
pub(crate) const MR: usize = 5;

/// Columns of the register-blocked accumulator (B-panel width).
pub(crate) const NR: usize = 8;

/// Row panels that must read one B-tile before packing it pays. With
/// fewer (the gradient's `G += Eᵀ X` has two), the micro-kernel reads B's
/// rows in place. Measured on an AVX2 host: in place ran 5–45 % faster
/// from 2 to 20 panels and 1–2 % faster at 30, and packing won by 1–2 %
/// at 51 panels (256 rows).
pub(crate) const PACK_MIN_PANELS: usize = 32;

/// Reusable pack workspace for the GEMM micro-kernels.
///
/// Holds the packed A-panel (`MR × TILE`) and, for shapes with enough
/// row panels to reuse it (32 or more), the packed B-tile
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

    /// Ensures capacity for a product with `panels` packed B-panels,
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
/// [`AOrder::Transposed`]) without perturbing golden numerics. Whether
/// the B-tile is packed or read in place depends on the shape alone
/// (32 row panels or more pack it); both add the same products in the
/// same order.
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
    let pack_b = m_main / MR >= PACK_MIN_PANELS;
    let (a_pack, b_pack) = scratch.prepare(if pack_b { panels } else { 0 });

    for kk in (0..kd).step_by(TILE) {
        let k_end = (kk + TILE).min(kd);
        let kt = k_end - kk;

        // Pack the B-tile into contiguous k-major panels: panel `p`
        // holds columns [p*NR, (p+1)*NR) for all kt inner indices.
        if pack_b {
            for p in 0..panels {
                let jp = p * NR;
                let dst = &mut b_pack[p * kt * NR..(p + 1) * kt * NR];
                for kl in 0..kt {
                    let src = &b[(kk + kl) * n + jp..(kk + kl) * n + jp + NR];
                    dst[kl * NR..kl * NR + NR].copy_from_slice(src);
                }
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
                if pack_b {
                    let bp = &b_pack[p * kt * NR..(p + 1) * kt * NR];
                    gemm_block(out, n, ig, jp, ap, bp, NR, has_zero);
                } else {
                    // Row `kl` of the panel starts at `kl * n`; the last
                    // row is cut at the panel's width.
                    let bp = &b[kk * n + jp..(k_end - 1) * n + jp + NR];
                    gemm_block(out, n, ig, jp, ap, bp, n, has_zero);
                }
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
/// block from `out` (previous k-tiles' partials), streams the A-panel and
/// the B rows (`b_stride` apart: `NR` when packed, `n` in place) with
/// ascending `kl`, stores the block back.
///
/// The accumulator rows are named `F64x8` blocks — an indexed array
/// spills to the stack — and the zero-free path is branch-free (see the
/// module docs for why that cannot change any bits).
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "the block's place (out, n, ig, jp), its operands and the zero flag are what the kernel reads"
)]
fn gemm_block(
    out: &mut [f64],
    n: usize,
    ig: usize,
    jp: usize,
    ap: &[f64],
    bp: &[f64],
    b_stride: usize,
    has_zero: bool,
) {
    let at = |r: usize| (ig + r) * n + jp;
    let mut c0 = F64x8::load(&out[at(0)..]);
    let mut c1 = F64x8::load(&out[at(1)..]);
    let mut c2 = F64x8::load(&out[at(2)..]);
    let mut c3 = F64x8::load(&out[at(3)..]);
    let mut c4 = F64x8::load(&out[at(4)..]);
    let rows = ap.chunks_exact(MR).zip(bp.chunks(b_stride));
    if has_zero {
        // fei-lint: allow(float-eq, reason = "exact-zero sparsity skip mirrors matmul_reference per-(i,k), preserving the packed kernel's bit-identity")
        let live = |x: f64| x != 0.0;
        for (av, bv) in rows {
            let bv = &bv[..NR];
            if live(av[0]) {
                c0 = c0.add_scaled(av[0], bv);
            }
            if live(av[1]) {
                c1 = c1.add_scaled(av[1], bv);
            }
            if live(av[2]) {
                c2 = c2.add_scaled(av[2], bv);
            }
            if live(av[3]) {
                c3 = c3.add_scaled(av[3], bv);
            }
            if live(av[4]) {
                c4 = c4.add_scaled(av[4], bv);
            }
        }
    } else {
        // No exact zeros in this A-panel: the skip branches above would
        // never fire, so dropping them performs the identical sequence
        // of adds — branch-free and vectorizable.
        for (av, bv) in rows {
            let bv = &bv[..NR];
            c0 = c0.add_scaled(av[0], bv);
            c1 = c1.add_scaled(av[1], bv);
            c2 = c2.add_scaled(av[2], bv);
            c3 = c3.add_scaled(av[3], bv);
            c4 = c4.add_scaled(av[4], bv);
        }
    }
    c0.store(&mut out[at(0)..]);
    c1.store(&mut out[at(1)..]);
    c2.store(&mut out[at(2)..]);
    c3.store(&mut out[at(3)..]);
    c4.store(&mut out[at(4)..]);
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
