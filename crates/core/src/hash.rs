//! k-wise independent hash families (Appendix D of the paper).
//!
//! Token routing selects intermediate nodes by hashing token labels `(s, r, i)`.
//! Lemma D.2 needs the targets to be uniform and `Θ(log n)`-wise independent so
//! that Chernoff bounds with limited independence (Schmidt–Siegel–Srinivasan)
//! bound every node's receive load by `O(log n)` w.h.p.
//!
//! The classic construction (Lemma D.1, cf. Vadhan): a random polynomial of
//! degree `k-1` over the prime field `F_p` with `p = 2^61 - 1`; evaluating at the
//! (injectively encoded) label yields a k-wise independent value. The seed is the
//! `k` coefficients — `k · 61 ∈ O(log² n)` bits for `k ∈ Θ(log n)`, matching
//! Lemma 2.3's seed-size claim.

use hybrid_graph::NodeId;
use rand::Rng;

/// The Mersenne prime `2^61 - 1` used as the field modulus.
pub const FIELD_PRIME: u64 = (1 << 61) - 1;

/// A token label `(s, r, i)`: token number `i` from sender `s` to receiver `r`
/// (§2.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenLabel {
    /// Sender.
    pub s: NodeId,
    /// Receiver.
    pub r: NodeId,
    /// Index among the tokens from `s` to `r`.
    pub i: u32,
}

impl TokenLabel {
    /// Creates a label.
    pub fn new(s: NodeId, r: NodeId, i: u32) -> Self {
        TokenLabel { s, r, i }
    }

    /// Injective encoding of the label as a field element.
    ///
    /// Valid for networks with `n < 2^20` nodes and at most `2^20` tokens per
    /// `(s, r)` pair; the encoding stays below `2^61 - 1`.
    pub fn key(&self) -> u64 {
        debug_assert!(self.s.raw() < (1 << 20) && self.r.raw() < (1 << 20));
        ((self.s.raw() as u64) << 40) | ((self.r.raw() as u64) << 20) | (self.i as u64 & 0xFFFFF)
    }
}

/// Multiplication mod `2^61 - 1` without overflow.
fn mul_mod(a: u64, b: u64) -> u64 {
    let prod = (a as u128) * (b as u128);
    let lo = (prod & FIELD_PRIME as u128) as u64;
    let hi = (prod >> 61) as u64;
    let mut s = lo + hi;
    if s >= FIELD_PRIME {
        s -= FIELD_PRIME;
    }
    s
}

fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b;
    if s >= FIELD_PRIME {
        s - FIELD_PRIME
    } else {
        s
    }
}

/// A hash function drawn from a k-wise independent family
/// `h : F_p → {0, …, range-1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    coeffs: Vec<u64>,
    range: u64,
}

impl KWiseHash {
    /// Samples a degree-`(k-1)` polynomial with coefficients uniform in `F_p`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `range == 0`.
    pub fn sample<R: Rng + ?Sized>(k: usize, range: u64, rng: &mut R) -> Self {
        assert!(k >= 1, "independence parameter must be positive");
        assert!(range >= 1, "range must be positive");
        let coeffs = (0..k).map(|_| rng.gen_range(0..FIELD_PRIME)).collect();
        KWiseHash { coeffs, range }
    }

    /// Independence parameter `k` of the family.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Size of the random seed in bits (`k · 61`) — `O(log² n)` for
    /// `k ∈ Θ(log n)`, as claimed by Lemma 2.3.
    pub fn seed_bits(&self) -> usize {
        self.coeffs.len() * 61
    }

    /// The output range `{0, …, range-1}`.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Evaluates the polynomial at `key` (Horner) and reduces into the range.
    ///
    /// The final `mod range` introduces a `≤ p/range / p` deviation from perfect
    /// uniformity — negligible for `range ≪ 2^61` and irrelevant to the Chernoff
    /// argument (Remark A.1 tolerates any `µ_H ≥ E(X)`).
    pub fn eval(&self, key: u64) -> u64 {
        let x = key % FIELD_PRIME;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = add_mod(mul_mod(acc, x), c);
        }
        acc % self.range
    }

    /// Hashes a token label to a node of an `n`-node network — the
    /// `h : V × V × N → V` of Algorithm 4.
    pub fn node_for(&self, label: TokenLabel) -> NodeId {
        NodeId::new((self.eval(label.key()) % self.range) as usize)
    }

    /// [`KWiseHash::node_for`] of every label in `labels`, in order. Four
    /// labels' Horner chains run side by side, so their independent
    /// multiply-reduce steps overlap instead of waiting on each other; the
    /// values are exactly `node_for`'s.
    pub fn nodes_for(&self, labels: &[TokenLabel]) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(labels.len());
        let mut quads = labels.chunks_exact(4);
        for quad in &mut quads {
            let x = [0, 1, 2, 3].map(|i| quad[i].key() % FIELD_PRIME);
            let mut acc = [0u64; 4];
            for &c in self.coeffs.iter().rev() {
                for i in 0..4 {
                    acc[i] = add_mod(mul_mod(acc[i], x[i]), c);
                }
            }
            out.extend(acc.map(|a| NodeId::new((a % self.range) as usize)));
        }
        out.extend(quads.remainder().iter().map(|&l| self.node_for(l)));
        out
    }

    /// Serializes the seed (for broadcasting it over the global network). Each
    /// coefficient is one `O(log n)`-bit message at realistic `n`.
    pub fn seed_words(&self) -> Vec<u64> {
        self.coeffs.clone()
    }

    /// Reconstructs the hash from broadcast seed words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty or `range == 0`.
    pub fn from_seed_words(words: Vec<u64>, range: u64) -> Self {
        assert!(!words.is_empty() && range >= 1);
        KWiseHash { coeffs: words.into_iter().map(|w| w % FIELD_PRIME).collect(), range }
    }
}

/// The independence parameter Lemma D.2 needs: `k = ⌈3c/ξ · σ⌉` with
/// `σ ∈ Θ(log n)`; we use `4⌈log2 n⌉` (comfortably `Θ(log n)`).
pub fn independence_for(n: usize) -> usize {
    4 * hybrid_graph::graph::log2_ceil(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn label_key_is_injective() {
        let mut keys = std::collections::HashSet::new();
        for s in 0..8 {
            for r in 0..8 {
                for i in 0..8 {
                    assert!(keys.insert(TokenLabel::new(NodeId::new(s), NodeId::new(r), i).key()));
                }
            }
        }
    }

    #[test]
    fn eval_is_deterministic_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = KWiseHash::sample(8, 100, &mut rng);
        for key in 0..1000u64 {
            let v = h.eval(key);
            assert!(v < 100);
            assert_eq!(v, h.eval(key));
        }
    }

    #[test]
    fn seed_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = KWiseHash::sample(6, 50, &mut rng);
        let h2 = KWiseHash::from_seed_words(h.seed_words(), 50);
        assert_eq!(h, h2);
        assert_eq!(h.seed_bits(), 6 * 61);
    }

    #[test]
    fn outputs_look_uniform() {
        // Chi-squared-ish sanity: 10_000 evaluations over range 16 should put
        // every bucket within 3x of the mean.
        let mut rng = StdRng::seed_from_u64(3);
        let h = KWiseHash::sample(16, 16, &mut rng);
        let mut buckets = [0u32; 16];
        for key in 0..10_000u64 {
            buckets[h.eval(key * 2654435761 + 17) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 200 && b < 1900, "bucket count {b} implausible for uniform");
        }
    }

    #[test]
    fn pairwise_independence_moment() {
        // Empirical second-moment check: for a fresh random function, the
        // collision rate of distinct keys should be ≈ 1/range.
        let mut rng = StdRng::seed_from_u64(4);
        let range = 64u64;
        let mut collisions = 0u32;
        let trials = 4000;
        for t in 0..trials {
            let h = KWiseHash::sample(4, range, &mut rng);
            if h.eval(2 * t + 1) == h.eval(2 * t + 2) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        assert!(
            (rate - 1.0 / range as f64).abs() < 0.02,
            "collision rate {rate} far from {}",
            1.0 / range as f64
        );
    }

    #[test]
    fn nodes_for_equals_node_for_elementwise() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        let label = |rng: &mut StdRng| {
            TokenLabel::new(
                NodeId::new(rng.gen_range(0..1 << 20)),
                NodeId::new(rng.gen_range(0..1 << 20)),
                rng.gen_range(0..1 << 20),
            )
        };
        for k in [4, 36, 48] {
            for range in [1u64, 7, 400, 2400, 1 << 20] {
                let h = KWiseHash::sample(k, range, &mut rng);
                let mut batches: Vec<Vec<TokenLabel>> =
                    (0..10).map(|len| (0..len).map(|_| label(&mut rng)).collect()).collect();
                batches.push((0..10_000).map(|_| label(&mut rng)).collect());
                for labels in batches {
                    let expect: Vec<NodeId> = labels.iter().map(|&l| h.node_for(l)).collect();
                    assert_eq!(h.nodes_for(&labels), expect, "k = {k}, range = {range}");
                }
            }
        }
    }

    #[test]
    fn mul_mod_matches_u128() {
        let cases = [(FIELD_PRIME - 1, FIELD_PRIME - 1), (12345, 67890), (1 << 60, 3)];
        for (a, b) in cases {
            let expect = ((a as u128 * b as u128) % FIELD_PRIME as u128) as u64;
            assert_eq!(mul_mod(a, b), expect);
        }
    }

    #[test]
    fn independence_parameter_scales() {
        assert_eq!(independence_for(1024), 40);
        assert!(independence_for(2) >= 4);
    }
}
