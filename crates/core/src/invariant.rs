//! Place and transition invariants.
//!
//! Classical structural Petri-net analysis (`[RH80]`, `[Pet81]` in the
//! paper's bibliography): a **P-invariant** is an integer weighting `y`
//! of the places with `yᵀ·C = 0` (where `C` is the incidence matrix), so
//! the weighted token sum `yᵀ·m` is the same in every reachable marking
//! — the algebraic generalization of the paper's §4.4 invariant
//! `Bus_busy + Bus_free = 1`. A **T-invariant** is an integer weighting
//! `x` of the transitions with `C·x = 0`: a firing-count vector that
//! reproduces the marking, i.e. a candidate steady-state cycle.
//!
//! Invariants are computed exactly (rational Gaussian elimination on
//! `i128`, results scaled to coprime integers), so they are proofs, not
//! approximations — but note they account only for ordinary arcs:
//! inhibitor arcs and predicates constrain behaviour further, and
//! firing-time semantics move tokens *into* transitions temporarily, so
//! a P-invariant sum is guaranteed constant at quiescent instants and
//! whenever the involved transitions are instantaneous.
//!
//! # Example
//!
//! ```
//! use pnut_core::{invariant, NetBuilder};
//!
//! # fn main() -> Result<(), pnut_core::NetError> {
//! let mut b = NetBuilder::new("bus");
//! b.place("Bus_free", 1);
//! b.place("Bus_busy", 0);
//! b.transition("seize").input("Bus_free").output("Bus_busy").add();
//! b.transition("release").input("Bus_busy").output("Bus_free").add();
//! let net = b.build()?;
//! let invariants = invariant::p_invariants(&net);
//! // One basis vector: Bus_free + Bus_busy.
//! assert_eq!(invariants.len(), 1);
//! assert_eq!(invariants[0].weights, vec![1, 1]);
//! assert_eq!(invariants[0].token_sum(&net.initial_marking()), 1);
//! # Ok(())
//! # }
//! ```

use crate::marking::Marking;
use crate::net::Net;

/// An integer place weighting with `yᵀ·C = 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PInvariant {
    /// Weight per place (place-id order); coprime, leading weight
    /// positive.
    pub weights: Vec<i64>,
}

impl PInvariant {
    /// The conserved weighted token sum for `marking`.
    ///
    /// # Panics
    ///
    /// Panics if the marking covers a different number of places.
    pub fn token_sum(&self, marking: &Marking) -> i64 {
        assert_eq!(marking.len(), self.weights.len());
        self.weights
            .iter()
            .zip(marking.as_slice())
            .map(|(&w, &t)| w * i64::from(t))
            .sum()
    }

    /// Whether every weight is non-negative (semi-positive invariants
    /// bound the token count of every place in their support).
    fn is_semi_positive(&self) -> bool {
        self.weights.iter().all(|&w| w >= 0)
    }

    /// The places with non-zero weight.
    pub fn support(&self) -> Vec<crate::PlaceId> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .map(|(i, _)| crate::PlaceId::new(i))
            .collect()
    }
}

/// An integer transition weighting with `C·x = 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TInvariant {
    /// Weight per transition (transition-id order); coprime, leading
    /// weight positive.
    pub weights: Vec<i64>,
}

/// The incidence matrix `C[p][t] = W(t→p) − W(p→t)` (ordinary arcs only;
/// inhibitor arcs do not move tokens).
fn incidence_matrix(net: &Net) -> Vec<Vec<i64>> {
    let mut c = vec![vec![0i64; net.transition_count()]; net.place_count()];
    for (tid, t) in net.transitions() {
        for &(p, w) in t.inputs() {
            c[p.index()][tid.index()] -= i64::from(w);
        }
        for &(p, w) in t.outputs() {
            c[p.index()][tid.index()] += i64::from(w);
        }
    }
    c
}

/// A basis of the P-invariant space (left null space of the incidence
/// matrix). Every P-invariant of the net is an integer combination of
/// the returned vectors.
pub fn p_invariants(net: &Net) -> Vec<PInvariant> {
    let c = incidence_matrix(net);
    // yᵀ·C = 0  ⇔  Cᵀ·y = 0: null space of the transpose.
    let transpose = transpose(&c);
    null_space(&transpose, net.place_count())
        .into_iter()
        .map(|weights| PInvariant { weights })
        .collect()
}

/// Semi-positive P-invariants (all weights `>= 0`, not all zero)
/// derived from `basis`, the basis [`p_invariants`] returns.
///
/// Basis vectors produced by Gaussian elimination may mix signs even
/// when a semi-positive combination exists, so in addition to filtering
/// the basis this searches pairwise integer combinations
/// (`vᵢ + vⱼ`, `vᵢ − vⱼ`) and keeps the semi-positive ones, normalized
/// to coprime weights and deduplicated. The result is sound but not
/// complete: every returned vector is a true P-invariant, but a place
/// covered by *some* semi-positive invariant may still be missed —
/// callers deriving bounds must treat uncovered places as "unknown",
/// never as "unbounded is proven".
pub fn semi_positive_p_invariants(basis: &[PInvariant]) -> Vec<PInvariant> {
    let mut out: Vec<PInvariant> = Vec::new();
    let push = |weights: Vec<i64>, out: &mut Vec<PInvariant>| {
        if weights.iter().all(|&w| w == 0) || weights.iter().any(|&w| w < 0) {
            return;
        }
        let g = weights
            .iter()
            .fold(0u64, |g, &w| gcd64(g, w.unsigned_abs()))
            .max(1) as i64;
        let inv = PInvariant {
            weights: weights.into_iter().map(|w| w / g).collect(),
        };
        if !out.contains(&inv) {
            out.push(inv);
        }
    };
    for v in basis {
        push(v.weights.clone(), &mut out);
    }
    for (i, a) in basis.iter().enumerate() {
        for b in basis.iter().skip(i + 1) {
            if a.is_semi_positive() && b.is_semi_positive() {
                // Their sum is a weaker invariant covering no new place.
                continue;
            }
            let zip = |f: fn(i64, i64) -> i64| -> Vec<i64> {
                a.weights
                    .iter()
                    .zip(&b.weights)
                    .map(|(&x, &y)| f(x, y))
                    .collect()
            };
            push(zip(|x, y| x + y), &mut out);
            push(zip(|x, y| x - y), &mut out);
            push(zip(|x, y| y - x), &mut out);
        }
    }
    out
}

/// A basis of the T-invariant space (right null space of the incidence
/// matrix).
pub fn t_invariants(net: &Net) -> Vec<TInvariant> {
    let c = incidence_matrix(net);
    null_space(&c, net.transition_count())
        .into_iter()
        .map(|weights| TInvariant { weights })
        .collect()
}

fn transpose(m: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let cols = m.first().map(Vec::len).unwrap_or(0);
    (0..cols)
        .map(|j| m.iter().map(|row| row[j]).collect())
        .collect()
}

/// Exact rational arithmetic on i128.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rat {
    num: i128,
    den: i128, // > 0
}

impl Rat {
    fn int(v: i128) -> Self {
        Rat { num: v, den: 1 }
    }

    fn zero() -> Self {
        Rat::int(0)
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    fn reduce(num: i128, den: i128) -> Self {
        debug_assert!(den != 0);
        let g = gcd128(num.unsigned_abs(), den.unsigned_abs()) as i128;
        let sign = if den < 0 { -1 } else { 1 };
        Rat {
            num: sign * num / g.max(1),
            den: (den / g.max(1)).abs().max(1),
        }
    }

    fn sub_mul(self, factor: Rat, other: Rat) -> Rat {
        // self - factor * other
        let num = self.num * factor.den * other.den - factor.num * other.num * self.den;
        let den = self.den * factor.den * other.den;
        Rat::reduce(num, den)
    }

    fn div(self, other: Rat) -> Rat {
        Rat::reduce(self.num * other.den, self.den * other.num)
    }
}

fn gcd128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

fn gcd64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Null space basis of `A·x = 0` (rows × `cols`), as coprime integer
/// vectors with positive leading entry.
#[allow(clippy::needless_range_loop)] // Gaussian elimination reads clearest with indices
fn null_space(a: &[Vec<i64>], cols: usize) -> Vec<Vec<i64>> {
    // Rational row-echelon form.
    let mut m: Vec<Vec<Rat>> = a
        .iter()
        .map(|row| row.iter().map(|&v| Rat::int(v as i128)).collect())
        .collect();
    let rows = m.len();
    let mut pivot_col_of_row = Vec::new();
    let mut row = 0;
    for col in 0..cols {
        // Find a pivot.
        let Some(pr) = (row..rows).find(|&r| !m[r][col].is_zero()) else {
            continue;
        };
        m.swap(row, pr);
        let pivot = m[row][col];
        for c in col..cols {
            m[row][c] = m[row][c].div(pivot);
        }
        for r in 0..rows {
            if r != row && !m[r][col].is_zero() {
                let factor = m[r][col];
                for c in col..cols {
                    m[r][c] = m[r][c].sub_mul(factor, m[row][c]);
                }
            }
        }
        pivot_col_of_row.push(col);
        row += 1;
        if row == rows {
            break;
        }
    }

    let pivot_cols: Vec<usize> = pivot_col_of_row.clone();
    let free_cols: Vec<usize> = (0..cols).filter(|c| !pivot_cols.contains(c)).collect();

    let mut basis = Vec::new();
    for &free in &free_cols {
        // x[free] = 1, other free vars 0; pivots from echelon rows.
        let mut x = vec![Rat::zero(); cols];
        x[free] = Rat::int(1);
        for (r, &pc) in pivot_cols.iter().enumerate() {
            // row r: x[pc] + Σ m[r][c]·x[c] = 0 over non-pivot c.
            x[pc] = Rat::zero().sub_mul(m[r][free], Rat::int(1));
        }
        // Scale to integers: multiply by lcm of denominators.
        let mut lcm: i128 = 1;
        for v in &x {
            lcm = lcm / gcd128(lcm.unsigned_abs(), v.den.unsigned_abs()) as i128 * v.den;
        }
        let mut ints: Vec<i64> = x.iter().map(|v| (v.num * (lcm / v.den)) as i64).collect();
        // Normalize: coprime, positive leading nonzero entry.
        let g = ints.iter().map(|v| v.unsigned_abs()).fold(0u64, gcd64_acc);
        if g > 1 {
            for v in &mut ints {
                *v /= g as i64;
            }
        }
        if let Some(first) = ints.iter().find(|&&v| v != 0) {
            if *first < 0 {
                for v in &mut ints {
                    *v = -*v;
                }
            }
        }
        basis.push(ints);
    }
    basis
}

fn gcd64_acc(acc: u64, v: u64) -> u64 {
    if acc == 0 {
        v
    } else if v == 0 {
        acc
    } else {
        gcd64(acc, v)
    }
}

/// Verify that `weights` is a P-invariant of `net` (`yᵀ·C = 0`).
pub fn verify_p_invariant(net: &Net, weights: &[i64]) -> bool {
    if weights.len() != net.place_count() {
        return false;
    }
    let c = incidence_matrix(net);
    (0..net.transition_count()).all(|t| {
        (0..net.place_count())
            .map(|p| weights[p] * c[p][t])
            .sum::<i64>()
            == 0
    })
}

/// Verify that `weights` is a T-invariant of `net` (`C·x = 0`).
pub fn verify_t_invariant(net: &Net, weights: &[i64]) -> bool {
    if weights.len() != net.transition_count() {
        return false;
    }
    let c = incidence_matrix(net);
    c.iter()
        .all(|row| row.iter().zip(weights).map(|(&a, &x)| a * x).sum::<i64>() == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    fn bus_net() -> Net {
        let mut b = NetBuilder::new("bus");
        b.place("free", 1);
        b.place("busy", 0);
        b.transition("seize").input("free").output("busy").add();
        b.transition("release").input("busy").output("free").add();
        b.build().unwrap()
    }

    #[test]
    fn bus_pair_p_invariant() {
        let net = bus_net();
        let inv = p_invariants(&net);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].weights, vec![1, 1]);
        assert!(inv[0].is_semi_positive());
        assert!(verify_p_invariant(&net, &inv[0].weights));
        assert_eq!(inv[0].support().len(), 2);
    }

    #[test]
    fn bus_pair_t_invariant() {
        let net = bus_net();
        let inv = t_invariants(&net);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].weights, vec![1, 1], "seize+release restores marking");
        assert!(verify_t_invariant(&net, &inv[0].weights));
    }

    #[test]
    fn weighted_arcs_scale_invariants() {
        // a --2--> t --1--> b: invariant is a + 2b.
        let mut b = NetBuilder::new("w");
        b.place("a", 4);
        b.place("bp", 0);
        b.transition("t").input_weighted("a", 2).output("bp").add();
        b.transition("back")
            .input("bp")
            .output_weighted("a", 2)
            .add();
        let net = b.build().unwrap();
        let inv = p_invariants(&net);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].weights, vec![1, 2]);
        assert_eq!(inv[0].token_sum(&net.initial_marking()), 4);
    }

    #[test]
    fn source_transition_breaks_conservation() {
        let mut b = NetBuilder::new("src");
        b.place("p", 0);
        b.transition("gen").output("p").enabling(1).add();
        let net = b.build().unwrap();
        assert!(p_invariants(&net).is_empty(), "nothing is conserved");
        assert!(t_invariants(&net).is_empty(), "no firing vector restores");
    }

    #[test]
    fn pipeline_fragment_has_expected_invariants() {
        // Two independent rings share a transition: invariant space has
        // dimension 2.
        let mut b = NetBuilder::new("two_rings");
        b.place("a1", 1);
        b.place("a2", 0);
        b.place("b1", 1);
        b.place("b2", 0);
        b.transition("both")
            .input("a1")
            .input("b1")
            .output("a2")
            .output("b2")
            .add();
        b.transition("ra").input("a2").output("a1").add();
        b.transition("rb").input("b2").output("b1").add();
        let net = b.build().unwrap();
        let inv = p_invariants(&net);
        assert_eq!(inv.len(), 2);
        for i in &inv {
            assert!(verify_p_invariant(&net, &i.weights));
        }
    }

    #[test]
    fn verify_rejects_non_invariants() {
        let net = bus_net();
        assert!(!verify_p_invariant(&net, &[1, 0]));
        assert!(!verify_p_invariant(&net, &[1])); // wrong length
        assert!(!verify_t_invariant(&net, &[1, 0]));
        assert!(!verify_t_invariant(&net, &[1, 1, 1])); // wrong length
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn token_sum_checks_length() {
        let inv = PInvariant {
            weights: vec![1, 1],
        };
        let _ = inv.token_sum(&Marking::new(3));
    }
}
