//! Vendored, dependency-free subset of the `proptest` API.
//!
//! Offline builds cannot fetch the real proptest crate, so this shim
//! reimplements the surface the workspace's property tests use:
//!
//! * the [`Strategy`] trait with `prop_map` / `prop_flat_map`;
//! * strategies for integer ranges, tuples, [`Just`], boolean
//!   ([`bool::ANY`]), vectors ([`collection::vec`]) and a practical subset
//!   of regex string patterns (character classes with ranges and escapes,
//!   plus `{m,n}` repetition);
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`] and
//!   [`prop_oneof!`] macros and [`ProptestConfig`].
//!
//! Differences from upstream: cases are generated from a fixed per-test
//! seed sequence (fully deterministic in CI; set `PROPTEST_CASES` to change
//! the case count), and failing inputs are reported but not *shrunk*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration block accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { source: self, f }
    }

    /// Derives a second strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { source: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (**self).generate(rng)
    }
}

/// Boxes a strategy into a trait object (used by [`prop_oneof!`]).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.source.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

/// Uniform choice among boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// A union over the given alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    use super::{Rng, StdRng, Strategy};

    /// Uniform boolean strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy instance.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Rng, StdRng, Strategy};

    /// Element-count specification for [`vec()`]: exact or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub enum SizeRange {
        /// Exactly this many elements.
        Exact(usize),
        /// Uniformly between `.0` (inclusive) and `.1` (exclusive).
        Between(usize, usize),
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange::Exact(n)
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            SizeRange::Between(r.start, r.end)
        }
    }

    /// Strategy for vectors of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length follows `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = match self.size {
                SizeRange::Exact(n) => n,
                SizeRange::Between(lo, hi) => {
                    assert!(lo < hi, "empty vec size range");
                    rng.gen_range(lo..hi)
                }
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

mod pattern;

impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        pattern::Pattern::parse(self).generate(rng)
    }
}

/// Runs `property` for every case of `config`; panics on the first failure
/// with the case index and seed (no shrinking).
///
/// The `PROPTEST_CASES` environment variable overrides the configured case
/// count.
///
/// This is an implementation detail of the [`proptest!`] macro.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut property: F)
where
    F: FnMut(&mut StdRng) -> Result<(), String>,
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(config.cases);
    // Per-test base seed: fixed, but decorrelated across test names.
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    for case in 0..cases {
        let seed = base ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(msg) = property(&mut rng) {
            panic!("property `{name}` failed at case {case} (seed {seed:#x}): {msg}");
        }
    }
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a [`proptest!`] body; on failure the current
/// case is reported (with an optional formatted message) and the test
/// panics.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($strategy)),+])
    };
}

/// Declares property tests, mirroring proptest's macro of the same name.
///
/// Each `fn name(arg in strategy, ...) { body }` item becomes a `#[test]`
/// that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(&config, stringify!($name), |__proptest_rng| {
                    $(let $arg = $crate::Strategy::generate(&($strategy), __proptest_rng);)*
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = super::StdRng::seed_from_u64(1);
        use super::SeedableRng;
        let strat = (0usize..5, 10u64..20, -3i64..3);
        for _ in 0..200 {
            let (a, b, c) = Strategy::generate(&strat, &mut rng);
            assert!(a < 5 && (10..20).contains(&b) && (-3..3).contains(&c));
        }
    }

    #[test]
    fn vec_strategy_respects_sizes() {
        use super::SeedableRng;
        let mut rng = super::StdRng::seed_from_u64(2);
        let exact = super::collection::vec(0u32..3, 7usize);
        assert_eq!(Strategy::generate(&exact, &mut rng).len(), 7);
        let ranged = super::collection::vec(0u32..3, 1..4);
        for _ in 0..50 {
            let v = Strategy::generate(&ranged, &mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }

    #[test]
    fn flat_map_sees_outer_value() {
        use super::SeedableRng;
        let mut rng = super::StdRng::seed_from_u64(3);
        let strat = (2usize..6).prop_flat_map(|n| (Just(n), super::collection::vec(0usize..n, n)));
        for _ in 0..50 {
            let (n, v) = Strategy::generate(&strat, &mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline end-to-end: args, asserts, oneof, strings.
        #[test]
        fn macro_generates_working_tests(x in 0u32..10, name in "[a-z]{1,4}") {
            prop_assert!(x < 10);
            prop_assert!(!name.is_empty() && name.len() <= 4);
            prop_assert!(name.chars().all(|c| c.is_ascii_lowercase()), "got {name:?}");
        }

        #[test]
        fn oneof_picks_among_alternatives(s in prop_oneof!["[0-9]{3}", "[A-Z]{5}"]) {
            prop_assert!(s.len() == 3 || s.len() == 5);
            prop_assert_eq!(s.len() == 3, s.chars().all(|c| c.is_ascii_digit()));
        }
    }
}
