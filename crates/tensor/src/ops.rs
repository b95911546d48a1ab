//! Flat slice kernels shared by the compression operators, collectives, and
//! optimizers.
//!
//! The kernels are written as simple loops over contiguous slices: the
//! compiler auto-vectorises all of them, and the branch-free counting
//! kernels ([`count_ge`], [`mean_abs`], [`max_abs`]) are the CPU analogue of
//! the coalesced streaming passes that make MSTopK GPU-friendly in the
//! paper (§3.1).
//!
//! # Reduction schedule
//!
//! Every floating-point reduction follows one fixed schedule, so a result
//! depends only on the input, never on the machine. Across blocks, the
//! input is cut into [`REDUCE_BLOCK`]-element blocks whose partials are
//! combined in block-index order. Within a block, partials accumulate into
//! [`LANES`] independent lanes striped across the block and are combined
//! in lane order, with the sub-lane tail folded last (the *lane-striped
//! schedule*). The striped lanes are also what lets the compiler keep the
//! accumulators in vector registers. Mutating kernels are position-wise
//! (`scatter_add` applies its contributions in `idx` order), so they have
//! no order to pin. The unit tests hold the outputs of a fixed input to
//! golden bits, so any change to the schedule fails loudly.

/// Width of the fixed reduction blocks; block partials are combined in
/// block-index order.
pub const REDUCE_BLOCK: usize = 1 << 16;

/// Lane width of the in-block reduction schedule. [`REDUCE_BLOCK`] is a
/// multiple of `LANES`, so full blocks have no sub-lane tail.
pub const LANES: usize = 8;

/// Sum of absolute values of one block under the lane-striped schedule.
fn block_sum_abs(b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks = b.chunks_exact(LANES);
    for c in &mut chunks {
        for (a, v) in acc.iter_mut().zip(c) {
            *a += v.abs();
        }
    }
    let mut total = 0.0f32;
    for a in acc {
        total += a;
    }
    for v in chunks.remainder() {
        total += v.abs();
    }
    total
}

/// Maximum absolute value of one block under the lane-striped schedule.
fn block_max_abs(b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks = b.chunks_exact(LANES);
    for c in &mut chunks {
        for (a, v) in acc.iter_mut().zip(c) {
            *a = a.max(v.abs());
        }
    }
    let mut m = 0.0f32;
    for a in acc {
        m = m.max(a);
    }
    for v in chunks.remainder() {
        m = m.max(v.abs());
    }
    m
}

/// Elements of one block with `|v| >= thres` (exact — an integer
/// reduction).
fn block_count_ge(b: &[f32], thres: f32) -> usize {
    let mut acc = [0usize; LANES];
    let mut chunks = b.chunks_exact(LANES);
    for c in &mut chunks {
        for (a, v) in acc.iter_mut().zip(c) {
            *a += usize::from(v.abs() >= thres);
        }
    }
    acc.iter().sum::<usize>()
        + chunks
            .remainder()
            .iter()
            .map(|v| usize::from(v.abs() >= thres))
            .sum::<usize>()
}

/// `y[i] += x[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// `y[i] -= x[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "sub_assign: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi -= xi;
    }
}

/// `y[i] = a * x[i] + y[i]` (BLAS `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x[i] *= a` for all `i`.
pub fn scale(x: &mut [f32], a: f32) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Fills `x` with `v`.
pub fn fill(x: &mut [f32], v: f32) {
    for xi in x.iter_mut() {
        *xi = v;
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
///
/// Squares are folded per [`REDUCE_BLOCK`]-wide block and the block
/// partials combined in block-index order, pinning the reduction tree to
/// the same shape as the other reductions (identical to the old flat fold
/// for inputs up to one block).
pub fn l2_norm(x: &[f32]) -> f32 {
    let mut total = 0.0f32;
    for b in x.chunks(REDUCE_BLOCK) {
        let mut part = 0.0f32;
        for v in b {
            part += v * v;
        }
        total += part;
    }
    total.sqrt()
}

/// Sum of all elements.
pub fn sum(x: &[f32]) -> f32 {
    x.iter().sum()
}

/// Arithmetic mean of the absolute values (the `mean(abs(x))` pass of
/// MSTopK, Algorithm 1 line 2). Returns 0 for an empty slice.
pub fn mean_abs(x: &[f32]) -> f32 {
    if x.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f32;
    for b in x.chunks(REDUCE_BLOCK) {
        total += block_sum_abs(b);
    }
    total / x.len() as f32
}

/// Maximum absolute value (Algorithm 1 line 3). Returns 0 for an empty slice.
pub fn max_abs(x: &[f32]) -> f32 {
    x.chunks(REDUCE_BLOCK)
        .map(block_max_abs)
        .fold(0.0f32, f32::max)
}

/// Counts elements whose absolute value is `>= thres` (Algorithm 1 line 10's
/// `count_nonzero(a >= thres)` with `a = abs(x)`).
///
/// Branch-free streaming pass — this is the kernel MSTopK repeats `N` times
/// instead of performing a data-dependent selection.
pub fn count_ge(x: &[f32], thres: f32) -> usize {
    x.chunks(REDUCE_BLOCK)
        .map(|b| block_count_ge(b, thres))
        .sum()
}

/// Collects the indices of elements with `|x[i]| >= thres`, preserving order.
pub fn indices_ge(x: &[f32], thres: f32) -> Vec<u32> {
    x.iter()
        .enumerate()
        .filter(|(_, v)| v.abs() >= thres)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Collects the indices of elements with `lo <= |x[i]| < hi`, preserving
/// order (Algorithm 1 line 26: the between-thresholds bracket).
pub fn indices_in_band(x: &[f32], lo: f32, hi: f32) -> Vec<u32> {
    x.iter()
        .enumerate()
        .filter(|(_, v)| {
            let a = v.abs();
            a >= lo && a < hi
        })
        .map(|(i, _)| i as u32)
        .collect()
}

/// Gathers `x[idx[i]]` into a new vector.
///
/// # Panics
/// Panics if any index is out of bounds.
pub fn gather(x: &[f32], idx: &[u32]) -> Vec<f32> {
    idx.iter().map(|&i| x[i as usize]).collect()
}

/// Scatter-add: `y[idx[i]] += vals[i]`.
///
/// Used to accumulate sparse gradient contributions after an AllGather of
/// (values, indices) pairs (Algorithm 2 line 18).
///
/// # Panics
/// Panics if `idx` and `vals` have different lengths or an index is out of
/// bounds.
pub fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) {
    assert_eq!(idx.len(), vals.len(), "scatter_add: length mismatch");
    for (&i, &v) in idx.iter().zip(vals) {
        y[i as usize] += v;
    }
}

/// Zeros the elements of `x` at the given indices (used by error-feedback to
/// clear the transmitted coordinates from the residual).
pub fn zero_at(x: &mut [f32], idx: &[u32]) {
    for &i in idx {
        x[i as usize] = 0.0;
    }
}

/// Returns `max(|a[i] - b[i]|)`, the L∞ distance; 0 for empty slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn linf_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "linf_distance: length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
}

/// Checks approximate element-wise equality with the given absolute
/// tolerance.
pub fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && linf_distance(a, b) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_manual() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = [1.5, -2.5, 0.0, 4.0];
        let mut y = [1.0, 1.0, 1.0, 1.0];
        add_assign(&mut y, &x);
        sub_assign(&mut y, &x);
        assert_eq!(y, [1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn norms_and_dot() {
        let a = [3.0, 4.0];
        assert_eq!(l2_norm(&a), 5.0);
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(sum(&a), 7.0);
    }

    #[test]
    fn abs_stats() {
        let x = [-4.0, 1.0, -2.0, 3.0];
        assert_eq!(mean_abs(&x), 2.5);
        assert_eq!(max_abs(&x), 4.0);
        assert_eq!(mean_abs(&[]), 0.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn counting_and_band_selection() {
        let x = [-4.0, 1.0, -2.0, 3.0];
        assert_eq!(count_ge(&x, 2.0), 3);
        assert_eq!(indices_ge(&x, 3.0), vec![0, 3]);
        assert_eq!(indices_in_band(&x, 1.0, 3.0), vec![1, 2]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let x = [10.0, 20.0, 30.0, 40.0];
        let idx = [3u32, 1];
        let vals = gather(&x, &idx);
        assert_eq!(vals, vec![40.0, 20.0]);
        let mut y = [0.0; 4];
        scatter_add(&mut y, &idx, &vals);
        assert_eq!(y, [0.0, 20.0, 0.0, 40.0]);
        let mut z = x;
        zero_at(&mut z, &idx);
        assert_eq!(z, [10.0, 0.0, 30.0, 0.0]);
    }

    #[test]
    fn distance_helpers() {
        let a = [1.0, 2.0];
        let b = [1.0, 2.5];
        assert_eq!(linf_distance(&a, &b), 0.5);
        assert!(approx_eq(&a, &b, 0.5));
        assert!(!approx_eq(&a, &b, 0.4));
        assert!(!approx_eq(&a, &[1.0], 1.0));
    }

    #[test]
    fn scale_and_fill() {
        let mut x = [1.0, -2.0];
        scale(&mut x, -2.0);
        assert_eq!(x, [-2.0, 4.0]);
        fill(&mut x, 7.0);
        assert_eq!(x, [7.0, 7.0]);
    }

    #[test]
    fn reductions_span_block_boundaries() {
        // Straddle several REDUCE_BLOCK boundaries so the block-ordered
        // combine path is exercised (not just the single-block fast case).
        let d = 2 * REDUCE_BLOCK + 17;
        let x: Vec<f32> = (0..d).map(|i| ((i % 101) as f32 - 50.0) * 0.25).collect();
        let linear_count = x.iter().filter(|v| v.abs() >= 6.0).count();
        assert_eq!(count_ge(&x, 6.0), linear_count);
        let max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert_eq!(max_abs(&x), max);
        // Mean over blocks stays within float noise of the linear mean.
        let linear_mean = x.iter().map(|v| v.abs() as f64).sum::<f64>() / d as f64;
        assert!((mean_abs(&x) as f64 - linear_mean).abs() < 1e-3);
    }

    /// The public reductions compute exactly the documented schedule:
    /// lane-striped in-block partials combined in block-index order. The
    /// reference here spells that schedule out element by element.
    #[test]
    fn dispatch_matches_canonical_schedule() {
        let d = 2 * REDUCE_BLOCK + 19;
        let x: Vec<f32> = (0..d)
            .map(|i| (((i * 2654435761) % 2001) as f32 - 1000.0) * 1e-3)
            .collect();
        let mut total = 0.0f32;
        let mut max = 0.0f32;
        for b in x.chunks(REDUCE_BLOCK) {
            let mut lanes = [0.0f32; LANES];
            let mut lane_max = [0.0f32; LANES];
            let full = b.len() / LANES * LANES;
            for (i, v) in b[..full].iter().enumerate() {
                lanes[i % LANES] += v.abs();
                lane_max[i % LANES] = lane_max[i % LANES].max(v.abs());
            }
            let mut part = 0.0f32;
            for l in lanes {
                part += l;
            }
            let mut part_max = 0.0f32;
            for l in lane_max {
                part_max = part_max.max(l);
            }
            for v in &b[full..] {
                part += v.abs();
                part_max = part_max.max(v.abs());
            }
            total += part;
            max = max.max(part_max);
        }
        assert_eq!(mean_abs(&x).to_bits(), (total / d as f32).to_bits());
        assert_eq!(max_abs(&x).to_bits(), max.to_bits());
        assert_eq!(
            count_ge(&x, 0.5),
            x.iter().filter(|v| v.abs() >= 0.5).count()
        );
    }

    /// SplitMix64: a self-contained seeded generator, so the golden input
    /// below never moves with a change to `init` or the `rand` crate.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `len` values uniform in `[-1, 1)`, 23 random mantissa bits each.
    fn seeded(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| (splitmix(&mut s) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
            .collect()
    }

    /// FNV-1a over the little-endian bits of every element.
    fn fnv1a(x: &[f32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in x {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Golden bits of every reduction and of the mutating kernels on one
    /// fixed input: three full blocks plus an 11-element tail, so the
    /// block-order combine and the sub-lane tail both run. The constants
    /// were produced by this exact code (same inputs, same hash) against
    /// the earlier kernel tiers, where the scalar, `simd` and threaded
    /// builds all printed these values. A change to any reduction order
    /// changes them.
    #[test]
    fn kernel_outputs_match_golden_bits() {
        let d = 3 * REDUCE_BLOCK + 11;
        let x = seeded(d, 13);
        let y = seeded(d, 14);
        assert_eq!(mean_abs(&x).to_bits(), 0x3eff_e2d3);
        assert_eq!(max_abs(&x).to_bits(), 0x3f7f_ff90);
        assert_eq!(l2_norm(&x).to_bits(), 0x437f_df48);
        assert_eq!(sum(&x).to_bits(), 0xc390_2a4e);
        assert_eq!(dot(&x, &y).to_bits(), 0x3f74_8947);
        assert_eq!(count_ge(&x, 0.5), 98_295);

        let mut a = y.clone();
        axpy(0.75, &x, &mut a);
        assert_eq!(fnv1a(&a), 0x4949_5e7b_90c7_1305);
        let mut s = y.clone();
        add_assign(&mut s, &x);
        assert_eq!(fnv1a(&s), 0x70b3_f60a_f1dc_0a76);
        // 4099 contributions onto 1031 slots: every slot takes several,
        // in `idx` order.
        let idx: Vec<u32> = (0..4099u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 1031)
            .collect();
        let vals = gather(&x, &idx);
        let mut t = y[..1031].to_vec();
        scatter_add(&mut t, &idx, &vals);
        assert_eq!(fnv1a(&t), 0x1afc_7a2e_ccb6_88b9);
    }
}
