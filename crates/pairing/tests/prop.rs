//! Property-based tests of the algebraic laws the IBBE constructions rely
//! on — field axioms across the tower, group laws, pairing bilinearity — and
//! differential tests of every optimised kernel (wNAF and endomorphism-split
//! scalar multiplication, bucket MSM, fixed-base tables, projective
//! multi-Miller loop,
//! `x`-chain final exponentiation, sparse line product, the eigenvalue
//! subgroup checks) against the textbook routine it replaced, kept in
//! `reference`.

mod reference;

use ibbe_bigint::Uint;
use ibbe_pairing::curve::{MSM_MIN_POINTS, MSM_MIN_TERMS, WIDTHS};
use ibbe_pairing::fixed::FIXED_WIDTH;
use ibbe_pairing::fp6::Fp6;
use ibbe_pairing::g1::G1Params;
use ibbe_pairing::g2::G2Params;
use ibbe_pairing::k256::{self, K256Params};
use ibbe_pairing::pairing::{g1_cofactor, g1_h_eff, BLS_X_ABS};
use ibbe_pairing::{
    final_exponentiation, fr, hash_to_scalar, miller_loop, multi_miller_loop, pairing,
    pairing_product, Affine, Curve, FixedBase, Fp, Fp12, Fp2, G1Affine, G1Projective, G2Affine,
    G2Projective, Gt, K256Affine, K256Projective, Projective, Scalar, ScalarK,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn scalar(seed: u64) -> Scalar {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Scalar::random_nonzero(&mut rng)
}

fn fp(seed: u64) -> Fp {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Fp::random(&mut rng)
}

fn fp2(seed: u64) -> Fp2 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Fp2::random(&mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fp_field_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (fp(a), fp(b), fp(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a - a, Fp::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.invert().unwrap(), Fp::ONE);
        }
    }

    #[test]
    fn fp2_axioms_and_frobenius(a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (fp2(a), fp2(b));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a.square(), a * a);
        // conjugation is the p-power Frobenius: multiplicative
        prop_assert_eq!((a * b).conjugate(), a.conjugate() * b.conjugate());
        // norm is multiplicative
        prop_assert_eq!((a * b).norm(), a.norm() * b.norm());
    }

    #[test]
    fn scalar_inverse_and_distribution(a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (scalar(a), scalar(b));
        prop_assert_eq!((a * b) * b.invert().unwrap(), a);
        prop_assert_eq!(-(-a), a);
    }

    #[test]
    fn g1_group_laws(a in any::<u64>(), b in any::<u64>()) {
        let p = G1Projective::generator().mul_scalar(&scalar(a));
        let q = G1Projective::generator().mul_scalar(&scalar(b));
        prop_assert_eq!(p + q, q + p);
        prop_assert_eq!(p.double(), p + p);
        prop_assert!((p - p).is_identity());
        // scalar-mul is a homomorphism Z_r → G1
        let (sa, sb) = (scalar(a), scalar(b));
        let lhs = G1Projective::generator().mul_scalar(&(sa + sb));
        prop_assert_eq!(lhs, p + q);
    }

    #[test]
    fn g2_scalar_mul_homomorphism(a in any::<u64>(), b in any::<u64>()) {
        let (sa, sb) = (scalar(a), scalar(b));
        let lhs = G2Projective::generator().mul_scalar(&(sa * sb));
        let rhs = G2Projective::generator().mul_scalar(&sa).mul_scalar(&sb);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_bilinearity(a in any::<u64>(), b in any::<u64>()) {
        let (sa, sb) = (scalar(a), scalar(b));
        let p = G1Projective::generator().mul_scalar(&sa).to_affine();
        let q = G2Projective::generator().mul_scalar(&sb).to_affine();
        let base = pairing(
            &G1Projective::generator().to_affine(),
            &G2Projective::generator().to_affine(),
        );
        prop_assert_eq!(pairing(&p, &q), base.pow(&(sa * sb)));
    }

    #[test]
    fn gt_is_a_group(a in any::<u64>(), b in any::<u64>()) {
        let base = pairing(
            &G1Projective::generator().to_affine(),
            &G2Projective::generator().to_affine(),
        );
        let (sa, sb) = (scalar(a), scalar(b));
        let x = base.pow(&sa);
        let y = base.pow(&sb);
        prop_assert_eq!(x * y, base.pow(&(sa + sb)));
        prop_assert_eq!(x * x.invert(), Gt::IDENTITY);
    }

    #[test]
    fn point_serialization_roundtrips(a in any::<u64>()) {
        let s = scalar(a);
        let p = G1Projective::generator().mul_scalar(&s).to_affine();
        let q = G2Projective::generator().mul_scalar(&s).to_affine();
        prop_assert_eq!(ibbe_pairing::G1Affine::from_bytes(&p.to_bytes()).unwrap(), p);
        prop_assert_eq!(ibbe_pairing::G2Affine::from_bytes(&q.to_bytes()).unwrap(), q);
    }

    #[test]
    fn fp12_inversion(a in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(a);
        let x = Fp12::random(&mut rng);
        if !x.is_zero() {
            prop_assert_eq!(x * x.invert().unwrap(), Fp12::ONE);
        }
    }

    #[test]
    fn hash_to_scalar_no_collisions_on_distinct_inputs(a: u64, b: u64) {
        prop_assume!(a != b);
        prop_assert_ne!(
            hash_to_scalar(b"d", &a.to_be_bytes()),
            hash_to_scalar(b"d", &b.to_be_bytes())
        );
    }
}

/// The field element under a `GT` element.
fn fp12(g: Gt) -> Fp12 {
    *g.as_fp12()
}

/// A point of `E(Fp)` outside the order-`r` subgroup (with overwhelming
/// probability): what cofactor clearing is fed.
fn g1_curve_point(seed: u64) -> G1Projective {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    loop {
        let x = Fp::random(&mut rng);
        if let Some(y) = (x.square() * x + G1Params::b()).sqrt() {
            return G1Affine::from_xy_unchecked(x, y).into();
        }
    }
}

/// The same on the twist `E'(Fp2)`.
fn g2_curve_point(seed: u64) -> G2Projective {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    loop {
        let x = Fp2::random(&mut rng);
        if let Some(y) = (x.square() * x + G2Params::b()).sqrt() {
            return G2Affine::from_xy_unchecked(x, y).into();
        }
    }
}

/// The scalars a base-`|x|` split can trip on: the trivial ones, the
/// neighbourhoods of the two eigenvalues `|x|` and `x²`, of the digit
/// widths `2⁶⁴` and `2¹²⁸`, and `λ = −x² mod r` itself.
fn edge_scalars() -> Vec<Scalar> {
    let small = |v: u128| {
        Scalar::from_uint(&Uint::new([v as u64, (v >> 64) as u64, 0, 0])).expect("below r")
    };
    let x = u128::from(BLS_X_ABS);
    let (x2, two_64) = (x * x, 1u128 << 64);
    let mut edges = vec![Scalar::ZERO, Scalar::ONE, -Scalar::ONE, -small(x2)];
    edges.extend(
        [
            x - 1,
            x,
            x + 1,
            x2 - 1,
            x2,
            x2 + 1,
            two_64 - 1,
            two_64,
            u128::MAX,
        ]
        .map(small),
    );
    edges.push(small(u128::MAX) + Scalar::ONE);
    edges
}

/// Split `mul_scalar` against the 255-bit double-and-add ladder.
fn assert_mul_scalar_matches_reference<C: Curve>(p: &Projective<C>, k: &Scalar) {
    assert_eq!(
        p.mul_scalar(k),
        reference::mul_uint(p, &k.to_uint()),
        "{} scalar {k:?}",
        C::name()
    );
}

/// Split `Gt::pow` against square-and-multiply.
fn assert_gt_pow_matches_reference(f: &Gt, k: &Scalar) {
    assert_eq!(
        fp12(f.pow(k)),
        reference::cyclotomic_pow(f.as_fp12(), &k.to_uint()),
        "exponent {k:?}"
    );
}

/// New `mul_uint` against double-and-add for the exponent shapes in use: a
/// scalar (`Uint<4>`), the group order `r` of the subgroup checks and its
/// neighbour, the 6-limb `G1` cofactor, and the trivial exponents.
fn assert_mul_matches_reference<C: Curve>(p: &Projective<C>, k: &Scalar) {
    assert_eq!(
        p.mul_uint(&k.to_uint()),
        reference::mul_uint(p, &k.to_uint())
    );
    assert_eq!(
        p.mul_uint(&fr::MODULUS),
        reference::mul_uint(p, &fr::MODULUS)
    );
    let r_minus_1 = (-Scalar::ONE).to_uint();
    assert_eq!(p.mul_uint(&r_minus_1), reference::mul_uint(p, &r_minus_1));
    let h = g1_cofactor();
    assert_eq!(p.mul_uint(&h), reference::mul_uint(p, &h));
    assert!(p.mul_uint(&Uint::<4>::ZERO).is_identity());
    assert_eq!(p.mul_uint(&Uint::<4>::ONE), *p);
}

/// Scalars whose split digits ([`Curve::split`]) sit where signed windows
/// carry, each digit alone in each digit position: for every width in
/// `widths` (`msm`'s [`WIDTHS`], or [`FIXED_WIDTH`]), every window at
/// `2^(c−1)` (the top bucket or entry, no borrow) and every window at
/// `2^(c−1) + 1` (a borrow into each next window); and the largest digit,
/// `|x| − 1` on `G2` and `x² − 1` on `G1`. `GT` splits an exponent into
/// `G2`'s digits.
fn carry_scalars<C: Curve>(widths: &[usize]) -> Vec<Scalar> {
    let small = |v: u128| {
        Scalar::from_uint(&Uint::new([v as u64, (v >> 64) as u64, 0, 0])).expect("below r")
    };
    let parts = C::split(&Scalar::ONE).len();
    let x = u128::from(BLS_X_ABS);
    let base = if parts == 4 { x } else { x * x };
    let mut digits = vec![base - 1];
    for &c in widths {
        for window in [1 << (c - 1), (1 << (c - 1)) + 1] {
            let mut d = 0u128;
            for w in 0.. {
                match (window as u128).checked_shl(c as u32 * w) {
                    Some(v) if v < base && d + v < base => d += v,
                    _ => break,
                }
            }
            digits.push(d);
        }
    }
    let mut scalars = Vec::new();
    for d in digits {
        let mut k = small(d);
        for i in 0..parts {
            let split = C::split(&k);
            assert_eq!(split[i], Uint::new([d as u64, (d >> 64) as u64, 0, 0]));
            assert!(split.iter().enumerate().all(|(j, e)| j == i || e.is_zero()));
            scalars.push(k);
            k *= small(base);
        }
    }
    scalars
}

/// `n` terms seeded by `seed`, on points in arithmetic progression (distinct,
/// and cheap enough for thousands of terms); `salted` with the cases a Straus
/// loop or a bucket can trip on — identity points, repeated points (and a
/// negated repeat), zero scalars, the scalars 1 and r − 1, the
/// [`carry_scalars`] — and with dead terms where the input would be cut in
/// two and at its end.
fn msm_terms<C: Curve>(n: usize, seed: u64, salted: bool) -> (Vec<Affine<C>>, Vec<Scalar>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let step = Projective::<C>::random(&mut rng);
    let mut p = Projective::<C>::random(&mut rng);
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push(p.to_affine());
        p = p + step;
    }
    let mut scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
    if !salted {
        return (points, scalars);
    }
    let carries = carry_scalars::<C>(&WIDTHS.map(|(_, c)| c));
    for i in 0..n {
        match i % 13 {
            2 => points[i] = Affine::identity(),
            4 => points[i] = points[1],
            5 => points[i] = -points[1],
            7 => scalars[i] = Scalar::ZERO,
            9 => scalars[i] = Scalar::ONE,
            11 => scalars[i] = -Scalar::ONE,
            3 | 8 | 12 => scalars[i] = carries[(i / 4) % carries.len()],
            _ => {}
        }
    }
    if n >= 2 {
        scalars[n / 2 - 1] = Scalar::ZERO;
        points[n / 2] = Affine::identity();
        scalars[n - 1] = Scalar::ZERO;
    }
    (points, scalars)
}

/// `msm`, and the Straus kernel it replaced, against the sum of independent
/// products.
fn assert_msm_matches_reference<C: Curve>(n: usize, seed: u64, salted: bool) {
    let (points, scalars) = msm_terms::<C>(n, seed, salted);
    let expected = reference::sum_of_products(&points, &scalars);
    let context = format!("{n} terms (salted: {salted}) on {}", C::name());
    assert_eq!(Projective::msm(&points, &scalars), expected, "{context}");
    assert_eq!(
        reference::straus_msm(&points, &scalars),
        expected,
        "{context}"
    );
}

#[test]
fn msm_matches_the_sum_of_reference_products() {
    // every term live, so `n` is the count `msm` switches on: around the
    // sizes where a second and a third Straus run may start, where the
    // kernel this replaced started them (16 terms each), around the switch
    // to buckets on `G2` (64 points in 16 terms) and `G1` (32 terms), and
    // the partition sizes the schemes run at
    const M: usize = MSM_MIN_TERMS;
    let live = [
        0,
        1,
        M - 1,
        M,
        2 * M - 1,
        2 * M,
        2 * M + 1,
        15,
        16,
        17,
        31,
        32,
        33,
        127,
        128,
        129,
    ];
    let salted = [1, 2, 48, 127, 128, 300];
    for (lengths, salt) in [(&live[..], false), (&salted[..], true)] {
        for (seed, &n) in lengths.iter().enumerate() {
            assert_msm_matches_reference::<G2Params>(n, seed as u64, salt);
            assert_msm_matches_reference::<G1Params>(n, seed as u64, salt);
        }
    }
}

/// `msm` one live term either side of every switch it makes — from the
/// Straus loop to buckets ([`MSM_MIN_POINTS`]) and every width step
/// ([`WIDTHS`]) — against the Straus kernel it replaced (the sum of
/// independent products is too slow at thousands of terms).
#[test]
fn msm_matches_the_replaced_straus_kernel_at_every_switch() {
    fn check<C: Curve>() {
        let parts = C::split(&Scalar::ONE).len();
        assert_eq!(WIDTHS[0].0, MSM_MIN_POINTS);
        for &(points, c) in &WIDTHS {
            let at = points.div_ceil(parts);
            for n in [at - 1, at, at + 1] {
                let (points, scalars) = msm_terms::<C>(n, n as u64, false);
                assert_eq!(
                    Projective::msm(&points, &scalars),
                    reference::straus_msm(&points, &scalars),
                    "{n} terms on {} around width {c}",
                    C::name()
                );
            }
        }
    }
    check::<G2Params>();
    check::<G1Params>();
}

/// One point under one scalar, `n` copies, some negated: in every window all
/// copies of a split point share one bucket, where `P + P` takes the
/// doubling branch of the affine addition, `P + (−P)` the cancelling one,
/// and an odd count leaves a point over for the next halving.
#[test]
fn msm_bucket_collisions_take_the_exceptional_branches() {
    fn check<C: Curve>() {
        let at = MSM_MIN_POINTS / C::split(&Scalar::ONE).len();
        let p = Affine::<C>::generator();
        for pattern in [&[1, 1][..], &[1, -1], &[1, 1, 1], &[1, 1, -1]] {
            for n in [at, at + 1, 3 * at] {
                let points: Vec<_> = (0..n)
                    .map(|i| {
                        if pattern[i % pattern.len()] > 0 {
                            p
                        } else {
                            -p
                        }
                    })
                    .collect();
                let scalars = vec![scalar(n as u64); n];
                assert_eq!(
                    Projective::msm(&points, &scalars),
                    reference::sum_of_products(&points, &scalars),
                    "{n} copies in the pattern {pattern:?} on {}",
                    C::name()
                );
            }
        }
    }
    check::<G2Params>();
    check::<G1Params>();
}

#[test]
fn split_exponentiations_match_the_ladders_on_the_edge_scalars() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let base = pairing(&G1Affine::generator(), &G2Affine::generator());
    for k in edge_scalars() {
        for p in [
            G1Projective::identity(),
            G1Projective::generator(),
            G1Projective::random(&mut rng),
        ] {
            assert_mul_scalar_matches_reference(&p, &k);
        }
        for p in [
            G2Projective::identity(),
            G2Projective::generator(),
            G2Projective::random(&mut rng),
        ] {
            assert_mul_scalar_matches_reference(&p, &k);
        }
        // secp256k1 has no split: one 255-bit digit
        assert_mul_scalar_matches_reference(&K256Projective::generator(), &k);
        for f in [
            Gt::IDENTITY,
            base,
            base.pow(&Scalar::random_nonzero(&mut rng)),
        ] {
            assert_gt_pow_matches_reference(&f, &k);
        }
    }
}

/// Raw digits below `2^bits` whose signed [`FIXED_WIDTH`]-bit windows are
/// all `2^(c−1)` (the top entry, no borrow) or all `2^(c−1) + 1` (a borrow
/// into every next window) up to the top bit; `2^bits − 1`, 1 and 0.
fn fixed_window_digits(bits: usize) -> Vec<Uint<4>> {
    let c = FIXED_WIDTH;
    let with_bits = |set: &dyn Fn(usize) -> bool| {
        let mut limbs = [0u64; 4];
        for i in (0..bits).filter(|&i| set(i)) {
            limbs[i / 64] |= 1 << (i % 64);
        }
        Uint::new(limbs)
    };
    vec![
        Uint::ZERO,
        Uint::ONE,
        with_bits(&|_| true),
        with_bits(&|i| i % c == c - 1),
        with_bits(&|i| i % c == c - 1 || i % c == 0),
    ]
}

/// A fixed-base `G1` product against the split product and the ladder.
fn assert_fixed_mul_matches(table: &FixedBase<G1Affine>, p: &G1Projective, k: &Scalar) {
    let got = table.mul_scalar(k);
    assert_eq!(got, p.mul_scalar(k), "scalar {k:?}");
    assert_eq!(got, reference::mul_uint(p, &k.to_uint()), "scalar {k:?}");
}

/// A fixed-base `GT` power against the split power and square-and-multiply.
fn assert_fixed_pow_matches(table: &FixedBase<Gt>, f: &Gt, k: &Scalar) {
    let got = table.pow(k);
    assert_eq!(got, f.pow(k), "exponent {k:?}");
    assert_eq!(
        fp12(got),
        reference::cyclotomic_pow(f.as_fp12(), &k.to_uint()),
        "exponent {k:?}"
    );
}

#[test]
fn fixed_base_tables_match_the_ladders_on_the_edge_digits() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(40);
    let p = G1Projective::random(&mut rng);
    let g1 = FixedBase::<G1Affine>::new(&p.to_affine());
    // raw digits in either position: d₀·P + d₁·η(P)
    let image = G1Projective::from(G1Params::eta(&p.to_affine()));
    for d in fixed_window_digits(G1Params::DIGIT_BITS) {
        for [d0, d1] in [[d, Uint::ZERO], [Uint::ZERO, d], [d, d]] {
            let want = reference::mul_uint(&p, &d0) + reference::mul_uint(&image, &d1);
            assert_eq!(g1.mul_digits(&[d0, d1]), want, "digits {d0:?}, {d1:?}");
        }
    }
    // secp256k1: one whole 256-bit digit, past the order n too
    let g = K256Projective::generator();
    for d in fixed_window_digits(K256Params::DIGIT_BITS) {
        let want = reference::mul_uint(&g, &d);
        assert_eq!(k256::generator_table().mul_digits(&[d]), want, "{d:?}");
    }
    for s in [ScalarK::ONE, -ScalarK::ONE] {
        let got = k256::generator_table().mul_digits(&[s.to_uint()]);
        assert_eq!(got, g.mul_scalar_k(&s));
    }
    // 0, ±1, the eigenvalue neighbourhoods, and each digit position at the
    // window carries and at its largest value
    let f = pairing(&G1Affine::generator(), &G2Affine::generator()).pow(&scalar(41));
    let gt = FixedBase::<Gt>::new(&f);
    let mut scalars = edge_scalars();
    scalars.extend(carry_scalars::<G1Params>(&[FIXED_WIDTH]));
    scalars.extend(carry_scalars::<G2Params>(&[FIXED_WIDTH]));
    for k in &scalars {
        assert_fixed_mul_matches(&g1, &p, k);
        assert_fixed_pow_matches(&gt, &f, k);
    }
    // a table of the identity stays the identity
    let k = scalar(42);
    assert!(FixedBase::<G1Affine>::new(&G1Affine::identity())
        .mul_scalar(&k)
        .is_identity());
    assert!(FixedBase::<Gt>::new(&Gt::IDENTITY).pow(&k).is_identity());
}

#[test]
fn gt_bytes_round_trip_and_refuse_elements_outside_gt() {
    let f = pairing(&G1Affine::generator(), &G2Affine::generator()).pow(&scalar(43));
    assert_eq!(Gt::from_bytes(&f.to_bytes()), Some(f));
    assert_eq!(Gt::from_bytes(&Gt::IDENTITY.to_bytes()), Some(Gt::IDENTITY));
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let outside = Fp12::random(&mut rng);
    assert_eq!(Fp12::from_bytes(&outside.to_bytes()), Some(outside));
    assert_eq!(Gt::from_bytes(&outside.to_bytes()), None);
    assert_eq!(Gt::from_bytes(&Fp12::ZERO.to_bytes()), None);
    assert_eq!(Gt::from_bytes(&f.to_bytes()[1..]), None);
}

#[test]
fn to_affine_round_trips_with_and_without_an_inversion() {
    fn check<C: Curve>(p: Projective<C>) {
        let affine = p.to_affine();
        assert!(affine.is_on_curve());
        // z = 1: no inversion, the coordinates come back untouched
        let lifted = Projective::from(affine);
        assert_eq!(lifted.to_affine(), affine);
        assert_eq!(lifted, p);
        // z ≠ 1 again after arithmetic
        assert_eq!((lifted.double() - lifted).to_affine(), affine);
        assert!(Projective::<C>::identity().to_affine().is_identity());
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    for _ in 0..8 {
        check(G1Projective::random(&mut rng));
        check(G2Projective::random(&mut rng));
        check(K256Projective::random(&mut rng));
    }
}

/// The eigenvalue subgroup test against annihilation by `r` on `walks × steps`
/// samples of each kind: points of the curve at large, pure cofactor torsion
/// `[r]Q`, a subgroup point plus torsion, subgroup points — and whatever
/// `extra` adds. Each kind walks by a fixed increment of its own kind, which
/// keeps it in its class at the cost of one addition per sample.
fn assert_subgroup_check_matches_annihilation<C: Curve>(
    curve_point: impl Fn(u64) -> Projective<C>,
    walks: u64,
    steps: usize,
    extra: &[Projective<C>],
) {
    let agree = |p: &Projective<C>| {
        let got = C::is_in_prime_subgroup(p);
        assert_eq!(got, reference::is_in_subgroup(p), "{p:?}");
        got
    };
    assert!(agree(&Projective::identity()));
    for p in extra {
        agree(p);
    }
    for walk in 0..walks {
        let mut rng = rand::rngs::StdRng::seed_from_u64(walk);
        let (mut q, q_step) = (curve_point(2 * walk), curve_point(2 * walk + 1));
        let (mut t, t_step) = (q.mul_uint(&fr::MODULUS), q_step.mul_uint(&fr::MODULUS));
        let (mut s, s_step) = (Projective::random(&mut rng), Projective::random(&mut rng));
        assert!(!t.is_identity() && !t_step.is_identity());
        for _ in 0..steps {
            (q, t, s) = (q + q_step, t + t_step, s + s_step);
            assert!(!agree(&q), "a random curve point is outside the subgroup");
            assert!(!agree(&t) || t.is_identity());
            assert!(!agree(&(s + t)) || t.is_identity());
            assert!(agree(&s));
        }
    }
}

#[test]
fn subgroup_checks_match_annihilation_by_r() {
    // 10 × 250 × 4 kinds = 10 000 samples per group, plus the points of
    // order 3 on `E`: (0, ±2), fixed by φ
    let two = Fp::from_u64(2);
    let order_3 = [two, -two].map(|y| G1Affine::from_xy_unchecked(Fp::ZERO, y).into());
    assert_subgroup_check_matches_annihilation::<G1Params>(g1_curve_point, 10, 250, &order_3);
    assert_subgroup_check_matches_annihilation::<G2Params>(g2_curve_point, 10, 250, &[]);
    // cofactor 1: everything on the curve is in
    assert!(K256Params::is_in_prime_subgroup(
        &K256Projective::generator()
    ));
}

#[test]
fn msm_survives_an_accumulator_that_meets_its_addend() {
    let p = G2Affine::generator();
    let one = Scalar::ONE;
    let doubled = G2Projective::generator().double();
    // acc = P, then + P (the doubling case of a mixed addition) …
    assert_eq!(G2Projective::msm(&[p, p], &[one, one]), doubled);
    // … and + (−P) (the cancelling case), then onwards from the identity
    assert!(G2Projective::msm(&[p, -p], &[one, one]).is_identity());
    assert_eq!(
        G2Projective::msm(&[p, -p, p], &[one, one, one + one]),
        doubled
    );
    // scalars that all vanish
    assert!(G2Projective::msm(&[p, p], &[Scalar::ZERO, Scalar::ZERO]).is_identity());
}

// The differential properties run at the default case count, so the
// scheduled CI run deepens them through `PROPTEST_CASES`.
proptest! {
    #[test]
    fn msm_matches_the_sum_of_products_on_salted_terms(n in 0usize..=300, seed in any::<u64>()) {
        assert_msm_matches_reference::<G2Params>(n, seed, true);
        assert_msm_matches_reference::<G1Params>(n, seed, true);
    }

    #[test]
    fn wnaf_mul_matches_double_and_add_on_every_curve(a in any::<u64>(), b in any::<u64>()) {
        let k = scalar(b);
        assert_mul_matches_reference(&G1Projective::generator().mul_scalar(&scalar(a)), &k);
        assert_mul_matches_reference(&G2Projective::generator().mul_scalar(&scalar(a)), &k);
        assert_mul_matches_reference(&K256Projective::generator().mul_uint(&scalar(a).to_uint()), &k);
    }

    #[test]
    fn split_mul_scalar_matches_double_and_add(a in any::<u64>(), b in any::<u64>()) {
        let (mut rng, k) = (rand::rngs::StdRng::seed_from_u64(a), scalar(b));
        assert_mul_scalar_matches_reference(&G1Projective::random(&mut rng), &k);
        assert_mul_scalar_matches_reference(&G2Projective::random(&mut rng), &k);
        // secp256k1 shares `curve.rs` and stays on the ladder, under both names
        let p = K256Projective::random(&mut rng);
        assert_mul_scalar_matches_reference(&p, &k);
        let k256 = ibbe_pairing::ScalarK::from_uint(&k.to_uint()).unwrap();
        prop_assert_eq!(p.mul_scalar_k(&k256), reference::mul_uint(&p, &k.to_uint()));
    }

    #[test]
    fn fixed_base_matches_the_variable_base_kernels(a in any::<u64>(), b in any::<u64>()) {
        let (mut rng, k) = (rand::rngs::StdRng::seed_from_u64(a), scalar(b));
        let p = G1Projective::random(&mut rng);
        assert_fixed_mul_matches(&FixedBase::<G1Affine>::new(&p.to_affine()), &p, &k);
        let f = pairing(&G1Affine::generator(), &G2Affine::generator()).pow(&scalar(a));
        assert_fixed_pow_matches(&FixedBase::<Gt>::new(&f), &f, &k);
        // secp256k1 at a random base and at the generator's static table
        let (s, public) = K256Projective::random_keypair(&mut rng);
        let g = K256Projective::generator();
        prop_assert_eq!(public, reference::mul_uint(&g, &s.to_uint()));
        let q = K256Projective::random(&mut rng);
        let table = FixedBase::<K256Affine>::new(&q.to_affine());
        prop_assert_eq!(table.mul_digits(&[s.to_uint()]), q.mul_scalar_k(&s));
        prop_assert_eq!(table.mul_digits(&[s.to_uint()]), reference::mul_uint(&q, &s.to_uint()));
    }

    #[test]
    fn cofactor_clearing_matches_double_and_add(a in any::<u64>()) {
        let p = g1_curve_point(a);
        let cleared = p.mul_uint(&g1_cofactor());
        prop_assert_eq!(cleared, reference::mul_uint(&p, &g1_cofactor()));
        prop_assert!(cleared.to_affine().is_in_subgroup());
    }

    #[test]
    fn effective_cofactor_clears_into_g1(a in any::<u64>()) {
        let p = g1_curve_point(a);
        let cleared = p.mul_uint(&g1_h_eff());
        prop_assert!(cleared.to_affine().is_in_subgroup());
        prop_assert!(!cleared.is_identity());
        prop_assert_eq!(cleared, reference::mul_uint(&p, &g1_h_eff()));
    }

    #[test]
    fn wnaf_cyclotomic_pow_matches_square_and_multiply(a in any::<u64>(), b in any::<u64>()) {
        let base = pairing(&G1Affine::generator(), &G2Affine::generator()).pow(&scalar(a));
        let f = base.as_fp12();
        let k = scalar(b);
        assert_gt_pow_matches_reference(&base, &k);
        prop_assert_eq!(f.cyclotomic_pow(&k.to_uint()), reference::cyclotomic_pow(f, &k.to_uint()));
        let small = Uint::<1>::from_u64(b);
        prop_assert_eq!(f.cyclotomic_pow(&small), reference::cyclotomic_pow(f, &small));
        prop_assert_eq!(f.cyclotomic_pow(&fr::MODULUS), Fp12::ONE);
    }

    #[test]
    fn pairing_product_matches_reference_pairings(
        seed in any::<u64>(),
        n in 1usize..4,
        blank in 0usize..6,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(G1Affine, G2Affine)> = (0..n)
            .map(|_| {
                (
                    G1Projective::random(&mut rng).to_affine(),
                    G2Projective::random(&mut rng).to_affine(),
                )
            })
            .collect();
        // sometimes an identity on one side of one pair
        match blank {
            i if i < n => pairs[i].0 = G1Affine::identity(),
            i if i - n < n => pairs[i - n].1 = G2Affine::identity(),
            _ => {}
        }
        let each: Vec<Fp12> = pairs.iter().map(|(p, q)| reference::pairing(p, q)).collect();
        let want = each.iter().fold(Fp12::ONE, |acc, e| acc * *e);
        prop_assert_eq!(fp12(pairing_product(&pairs)), want);
        prop_assert_eq!(fp12(final_exponentiation(&multi_miller_loop(&pairs))), want);
        let (p, q) = pairs[0];
        prop_assert_eq!(fp12(pairing(&p, &q)), each[0]);
        prop_assert_eq!(fp12(final_exponentiation(&miller_loop(&p, &q))), each[0]);
    }

    #[test]
    fn final_exponentiation_matches_the_plain_power(a in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(a);
        let f = Fp12::random(&mut rng);
        prop_assume!(!f.is_zero());
        prop_assert_eq!(
            fp12(final_exponentiation(&f)),
            reference::final_exponentiation(&f)
        );
    }

    #[test]
    fn sparse_line_product_matches_the_full_product(a in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(a);
        let f = Fp12::random(&mut rng);
        let (c0, c1, c4) = (Fp2::random(&mut rng), Fp2::random(&mut rng), Fp2::random(&mut rng));
        let line = Fp12::new(
            Fp6::new(c0, c1, Fp2::ZERO),
            Fp6::new(Fp2::ZERO, c4, Fp2::ZERO),
        );
        prop_assert_eq!(f.mul_by_014(&c0, &c1, &c4), f * line);
    }
}
