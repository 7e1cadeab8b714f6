//! Offline stand-in for the crates.io `proptest` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! a small, deterministic property-testing runner exposing the subset of
//! the `proptest` API the rpcv test suites use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`);
//! * [`Strategy`] implementations for integer/float ranges, `&str`
//!   patterns of the `.{a,b}` form, tuples, [`collection::vec`],
//!   [`option::of`], [`any`], and [`sample::Index`];
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] and
//!   [`TestCaseError`].
//!
//! No shrinking is performed: a failing case reports its case number and
//! the derived seed, which is stable across runs (the per-test stream is
//! seeded from the test name, `PROPTEST_SEED` if set, and the case index),
//! so failures reproduce deterministically.  Swapping the real crate back
//! in requires no source changes in the workspace.

use std::fmt;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// SplitMix64 — tiny, seedable, good enough for case generation.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// New stream from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection-free multiply-shift is fine for test-case generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Errors & config
// ---------------------------------------------------------------------------

/// Failure raised by `prop_assert*` inside a test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCaseError {
    /// Human-readable failure reason.
    pub message: String,
}

impl TestCaseError {
    /// New failure with a reason.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

impl From<String> for TestCaseError {
    fn from(message: String) -> Self {
        TestCaseError { message }
    }
}

impl From<&str> for TestCaseError {
    fn from(message: &str) -> Self {
        TestCaseError { message: message.to_owned() }
    }
}

/// Runner configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Bounded by default so full-workspace `cargo test` stays fast;
        // raise via PROPTEST_CASES when hunting.
        let cases = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// Drives `cases` deterministic cases of one property. Used by the
/// [`proptest!`] expansion; panics (failing the `#[test]`) on first failure.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xc0ff_ee00_d15e_a5e5_u64);
    let name_hash = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3));
    for case_idx in 0..config.cases {
        let seed = base ^ name_hash ^ (case_idx as u64).wrapping_mul(0x5851_f42d_4c95_7f2d);
        let mut rng = TestRng::new(seed);
        if let Err(e) = case(&mut rng) {
            panic!(
                "property `{name}` failed at case {case_idx}/{} (seed {seed:#x}): {}",
                config.cases, e.message
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of random values for one property parameter.
pub trait Strategy {
    /// Generated value type.
    type Value: fmt::Debug;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    rng.next_u64() as $t
                } else {
                    lo + rng.below(span + 1) as $t
                }
            }
        }
    )*};
}
impl_range_strategy_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.below(span) as i64) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        // Rounding in start + u*(end-start) can land exactly on the
        // exclusive bound; fall back to start to keep the half-open contract.
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        let v = self.start + (rng.unit_f64() as f32) * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

/// `&str` strategies interpret the string as a regex the way `proptest`
/// does. Only the `.{lo,hi}` shape (any chars, bounded count) is
/// understood — the shape the suites use; anything else generates short
/// printable-ish strings and panics in debug builds to flag drift.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (lo, hi) = parse_dot_repeat(self).unwrap_or_else(|| {
            debug_assert!(false, "unsupported string strategy pattern: {self:?}");
            (0, 16)
        });
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        let mut s = String::with_capacity(len * 2);
        for _ in 0..len {
            s.push(random_char(rng));
        }
        s
    }
}

/// Parses `.{lo,hi}` into `(lo, hi)`.
fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
    let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = body.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// Random `char`, biased toward ASCII but exercising multi-byte UTF-8.
fn random_char(rng: &mut TestRng) -> char {
    match rng.below(8) {
        0..=4 => (0x20 + rng.below(0x5f) as u32) as u8 as char,
        5 => char::from_u32(0x00a1 + rng.below(0x500) as u32).unwrap_or('¿'),
        6 => char::from_u32(0x4e00 + rng.below(0x1000) as u32).unwrap_or('中'),
        _ => {
            // Any valid scalar value, surrogates re-rolled into BMP text.
            let v = rng.below(0x11_0000) as u32;
            char::from_u32(v).unwrap_or('\u{fffd}')
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
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

// ---------------------------------------------------------------------------
// any::<T>() / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: fmt::Debug + Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                // Mix raw values with structure-seeking edge cases: property
                // bugs live at 0, MAX, and small counts far more often than
                // at uniform random 64-bit points.
                match rng.below(16) {
                    0 => 0 as $t,
                    1 => <$t>::MAX,
                    2 => 1 as $t,
                    3 => <$t>::MAX / 2,
                    4..=6 => rng.below(256) as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u32, u64);

macro_rules! impl_arbitrary_sint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                match rng.below(16) {
                    0 => 0,
                    1 => <$t>::MAX,
                    2 => <$t>::MIN,
                    3 => -1,
                    4..=6 => (rng.below(256) as i64 - 128) as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
impl_arbitrary_sint!(i64);

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ---------------------------------------------------------------------------
// collection / option / sample modules
// ---------------------------------------------------------------------------

/// Collection strategies (`vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vec of `element` values, length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            assert!(self.len.start < self.len.end, "empty length range strategy");
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S>(S);

    /// `None` about a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Sampling helpers.
pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An index into a runtime-sized collection: draw one with
    /// `any::<Index>()`, then project with [`Index::index`].
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `[0, len)`. `len` must be non-zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests. Supports the common `proptest` surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn prop(x in 0u64..10, v in proptest::collection::vec(any::<u8>(), 0..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal muncher for [`proptest!`]. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(&config, stringify!($name), |rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                outcome
            });
        }
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        l,
                        r
                    )));
                }
            }
        }
    };
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{} != {}`\n  both: {:?}",
                        stringify!($left),
                        stringify!($right),
                        l
                    )));
                }
            }
        }
    };
}

/// The usual `use proptest::prelude::*;` import surface.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism() {
        let mut a = crate::TestRng::new(7);
        let mut b = crate::TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn dot_repeat_parses() {
        assert_eq!(crate::parse_dot_repeat(".{0,200}"), Some((0, 200)));
        assert_eq!(crate::parse_dot_repeat("abc"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in -5i64..5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn strings_bounded(s in ".{0,20}") {
            prop_assert!(s.chars().count() <= 20);
        }

        #[test]
        fn vec_len_bounded(v in prop::collection::vec(any::<u8>(), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn tuples_and_options(pair in (any::<u32>(), prop::option::of(0u8..4))) {
            let (_n, o) = pair;
            if let Some(v) = o {
                prop_assert!(v < 4);
            }
        }

        #[test]
        fn index_projects(data in prop::collection::vec(any::<u8>(), 1..64),
                          idx in any::<prop::sample::Index>()) {
            prop_assert!(idx.index(data.len()) < data.len());
        }
    }
}
