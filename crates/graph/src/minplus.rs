//! Blocked min-plus (tropical) matrix kernel.
//!
//! Three hand-rolled triple loops used to live in the protocol layers — the
//! skeleton-label merge of the HYBRID APSP algorithms, the per-triple block
//! product of the CLIQUE semiring squaring, and the eccentricity assembly of
//! the diameter plugins. They are all instances of one operation:
//!
//! ```text
//! out[i][j] ← min(out[i][j], min_k a[i][k] + b[k][j])
//! ```
//!
//! over the `(min, +)` semiring with [`INFINITY`] absorbing. This module is
//! that operation, implemented once: a cache-tiled, branch-free inner loop
//! ([`min_plus_into`]) and a thread-parallel row driver
//! ([`par_min_plus_into`], worker count = [`crate::workers`]). Results
//! are exact minima, so they are bit-identical regardless of tiling or thread
//! count.

use crate::dist::{Distance, INFINITY};

/// Rows of the `k` (inner) dimension processed per tile: keeps the active
/// slice of `b` resident in cache while each output row is revisited.
const K_TILE: usize = 64;

/// Accumulates the min-plus product `a ⊗ b` into `out`:
/// `out[i][j] ← min(out[i][j], min_k a[i][k] + b[k][j])`.
///
/// `a` is `rows × inner`, `b` is `inner × cols`, `out` is `rows × cols`, all
/// row-major. `out` is *accumulated into*, not overwritten — seed it with
/// [`INFINITY`] for a plain product, or with existing distances to fuse the
/// product with a running minimum (the skeleton-merge pattern). Additions
/// saturate at [`INFINITY`] exactly like [`crate::dist_add`].
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn min_plus_into(
    a: &[Distance],
    b: &[Distance],
    out: &mut [Distance],
    rows: usize,
    cols: usize,
) {
    let inner = a.len().checked_div(rows).unwrap_or(0);
    assert_eq!(a.len(), rows * inner, "a must be rows × inner");
    assert_eq!(b.len(), inner * cols, "b must be inner × cols");
    assert_eq!(out.len(), rows * cols, "out must be rows × cols");
    let mut k0 = 0;
    while k0 < inner {
        let k1 = (k0 + K_TILE).min(inner);
        for (arow, orow) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
            for (k, &aik) in arow.iter().enumerate().take(k1).skip(k0) {
                if aik == INFINITY {
                    continue;
                }
                let brow = &b[k * cols..(k + 1) * cols];
                // Branch-free accumulation: `saturating_add` equals
                // `dist_add` for a finite left operand, and `min` needs no
                // INFINITY special case.
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o = (*o).min(aik.saturating_add(bkj));
                }
            }
        }
        k0 = k1;
    }
}

/// Output rows below which [`par_min_plus_into`] stays sequential (thread
/// spawn costs more than the product).
const PAR_MIN_ROWS: usize = 16;

/// [`min_plus_into`] with the output rows partitioned across OS threads
/// (`std::thread::scope`): thread `t` computes a contiguous band of `out`
/// from the matching band of `a` and all of `b`. Exact minima make the result
/// bit-identical to the sequential kernel.
pub fn par_min_plus_into(
    a: &[Distance],
    b: &[Distance],
    out: &mut [Distance],
    rows: usize,
    cols: usize,
) {
    let threads = crate::workers(rows);
    if threads <= 1 || rows < PAR_MIN_ROWS {
        min_plus_into(a, b, out, rows, cols);
        return;
    }
    let inner = a.len() / rows;
    let chunk = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (arows, orows) in a.chunks(chunk * inner).zip(out.chunks_mut(chunk * cols)) {
            scope.spawn(move || {
                min_plus_into(arows, b, orows, orows.len() / cols, cols);
            });
        }
    });
}

/// Maps every row of the row-major `rows × cols` matrix `m` through `f`
/// (receiving `(row index, row slice)`), in parallel bands of rows — the
/// driver behind eccentricity assembly from a distance matrix. Results come
/// back in row order.
pub fn par_row_map<T, F>(m: &[Distance], rows: usize, cols: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[Distance]) -> T + Sync,
{
    assert_eq!(m.len(), rows * cols, "matrix must be rows × cols");
    if cols == 0 {
        return (0..rows).map(|i| f(i, &[])).collect();
    }
    let threads = crate::workers(rows);
    if threads <= 1 || rows < PAR_MIN_ROWS {
        return m.chunks_exact(cols).enumerate().map(|(i, row)| f(i, row)).collect();
    }
    let chunk = rows.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = m
            .chunks(chunk * cols)
            .enumerate()
            .map(|(ci, band)| {
                scope.spawn(move || {
                    band.chunks_exact(cols)
                        .enumerate()
                        .map(|(j, row)| f(ci * chunk + j, row))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("min-plus worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::dist_add;

    /// Reference triple loop in the exact shape the protocol layers used.
    fn naive(a: &[Distance], b: &[Distance], out: &mut [Distance], rows: usize, cols: usize) {
        let inner = a.len().checked_div(rows).unwrap_or(0);
        for i in 0..rows {
            for j in 0..cols {
                let mut best = out[i * cols + j];
                for k in 0..inner {
                    best = best.min(dist_add(a[i * inner + k], b[k * cols + j]));
                }
                out[i * cols + j] = best;
            }
        }
    }

    fn scramble(rows: usize, cols: usize, salt: u64) -> Vec<Distance> {
        (0..rows * cols)
            .map(|i| {
                let v = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt);
                if v.is_multiple_of(5) {
                    INFINITY
                } else {
                    v % 1000
                }
            })
            .collect()
    }

    #[test]
    fn kernel_matches_naive_triple_loop() {
        for (rows, inner, cols, salt) in
            [(1, 1, 1, 0), (3, 7, 5, 1), (20, 70, 33, 2), (65, 65, 65, 3), (128, 130, 4, 4)]
        {
            let a = scramble(rows, inner, salt);
            let b = scramble(inner, cols, salt + 100);
            let mut expected = scramble(rows, cols, salt + 200);
            let mut got = expected.clone();
            naive(&a, &b, &mut expected, rows, cols);
            min_plus_into(&a, &b, &mut got, rows, cols);
            assert_eq!(got, expected, "dims ({rows}, {inner}, {cols})");
        }
    }

    #[test]
    fn kernel_accumulates_into_seeded_output() {
        // Fused-merge pattern: out already holds distances; the product may
        // only improve entries.
        let a = vec![1, INFINITY, 2, 3];
        let b = vec![10, 20, 30, 40];
        let mut out = vec![5, 100, 100, 31];
        min_plus_into(&a, &b, &mut out, 2, 2);
        // Row 0: min(5, 1+10, ∞) / min(100, 1+20, ∞);
        // row 1: min(100, 2+10, 3+30) / min(31, 2+20, 3+40).
        assert_eq!(out, vec![5, 21, 12, 22]);
    }

    #[test]
    fn saturating_add_matches_dist_add() {
        let a = vec![u64::MAX - 1, 5];
        let b = vec![7, INFINITY];
        let mut out = vec![INFINITY; 1];
        min_plus_into(&a, &b, &mut out, 1, 1);
        // (MAX-1) + 7 saturates to INFINITY; 5 + INFINITY absorbs.
        assert_eq!(out, vec![INFINITY]);
    }

    #[test]
    fn parallel_driver_is_bit_identical() {
        let (rows, inner, cols) = (97, 41, 53);
        let a = scramble(rows, inner, 7);
        let b = scramble(inner, cols, 8);
        let seed = scramble(rows, cols, 9);
        let mut seq = seed.clone();
        min_plus_into(&a, &b, &mut seq, rows, cols);
        let mut par = seed;
        par_min_plus_into(&a, &b, &mut par, rows, cols);
        assert_eq!(par, seq);
    }

    #[test]
    fn row_map_preserves_order() {
        let m = scramble(40, 6, 11);
        let eccs = par_row_map(&m, 40, 6, |i, row| (i, row.iter().copied().max().unwrap()));
        for (i, &(idx, ecc)) in eccs.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(ecc, m[i * 6..(i + 1) * 6].iter().copied().max().unwrap());
        }
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut out: Vec<Distance> = Vec::new();
        min_plus_into(&[], &[], &mut out, 0, 0);
        par_min_plus_into(&[], &[], &mut out, 0, 0);
        assert!(par_row_map(&[], 0, 0, |_, _| 0u8).is_empty());
    }
}
