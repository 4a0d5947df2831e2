//! Offline stand-in for `proptest`.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the subset of proptest the workspace uses: the [`proptest!`] test
//! macro, [`strategy::Strategy`] with `prop_map`, range / tuple / `any` /
//! [`prop_oneof!`] / `collection::vec` strategies, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from upstream, deliberate and documented:
//!
//! * **No shrinking.** A failing case reports its exact inputs instead of
//!   a minimized counterexample.
//! * **Deterministic seeding.** Cases derive from a fixed per-test seed
//!   (FNV of the test name), so every run explores the same inputs —
//!   there are no regression files, and CI is reproducible by
//!   construction.

pub mod strategy {
    use rand::RngExt;

    /// The RNG driving generation.
    pub type TestRng = rand::rngs::SmallRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A type-erased strategy (what [`crate::prop_oneof!`] arms become).
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.new_value(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted choice between boxed alternatives (the
    /// [`crate::prop_oneof!`] backend). Unweighted arms get weight 1,
    /// matching upstream's uniform default.
    pub struct Union<T> {
        options: Vec<(u32, BoxedStrategy<T>)>,
        total_weight: u64,
    }

    impl<T> Union<T> {
        /// Build from at least one equally-likely alternative.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            Union::new_weighted(options.into_iter().map(|s| (1, s)).collect())
        }

        /// Build from `(weight, strategy)` alternatives; an arm is picked
        /// with probability `weight / total_weight`.
        pub fn new_weighted(options: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            assert!(
                options.iter().all(|&(w, _)| w > 0),
                "prop_oneof! arm weights must be positive"
            );
            let total_weight = options.iter().map(|&(w, _)| w as u64).sum();
            Union {
                options,
                total_weight,
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.random_range(0..self.total_weight);
            for (w, s) in &self.options {
                if pick < *w as u64 {
                    return s.new_value(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick past total weight")
        }
    }

    /// Types with a canonical whole-domain strategy, used by [`any`].
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_via_standard {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.random::<$t>()
                }
            }
        )*};
    }

    impl_arbitrary_via_standard!(u8, u16, u32, u64, usize, bool, f64);

    impl Arbitrary for i32 {
        fn arbitrary(rng: &mut TestRng) -> i32 {
            rng.random::<u32>() as i32
        }
    }

    impl Arbitrary for i64 {
        fn arbitrary(rng: &mut TestRng) -> i64 {
            rng.random::<u64>() as i64
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            rng.random_range(self.clone())
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            // Sampling the half-open range then occasionally returning the
            // endpoint is not worth the code; the closed endpoint has
            // measure zero for every property in this workspace.
            let (s, e) = (*self.start(), *self.end());
            rng.random_range(s..e.max(s + f64::EPSILON))
        }
    }

    /// String strategies from a small regex subset (upstream accepts any
    /// regex; the shim parses sequences of `literal`, `[class]`,
    /// `[class]{n}` and `[class]{m,n}` atoms, where a class holds literal
    /// characters and `a-z` ranges — enough for identifier-shaped keys).
    impl Strategy for &str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            let atoms = parse_pattern(self)
                .unwrap_or_else(|| panic!("string strategy: unsupported pattern {self:?}"));
            let mut out = String::new();
            for (chars, lo, hi) in &atoms {
                let n = if lo == hi {
                    *lo
                } else {
                    rng.random_range(*lo..=*hi)
                };
                for _ in 0..n {
                    out.push(chars[rng.random_range(0..chars.len())]);
                }
            }
            out
        }
    }

    /// Parse into `(alphabet, min_repeat, max_repeat)` atoms; `None` means
    /// the pattern uses regex features the shim does not support.
    fn parse_pattern(pat: &str) -> Option<Vec<(Vec<char>, usize, usize)>> {
        let mut atoms = Vec::new();
        let mut it = pat.chars().peekable();
        while let Some(c) = it.next() {
            let chars: Vec<char> = match c {
                '[' => {
                    let mut class = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        let c = it.next()?;
                        match c {
                            ']' => break,
                            '-' if prev.is_some() && it.peek() != Some(&']') => {
                                let end = it.next()?;
                                let start = prev.take()?;
                                for v in (start as u32 + 1)..=(end as u32) {
                                    class.push(char::from_u32(v)?);
                                }
                            }
                            c => {
                                if let Some(p) = prev.replace(c) {
                                    class.push(p);
                                }
                            }
                        }
                    }
                    if let Some(p) = prev {
                        class.push(p);
                    }
                    if class.is_empty() {
                        return None;
                    }
                    class
                }
                '\\' => vec![it.next()?],
                '{' | '}' | '(' | ')' | '*' | '+' | '?' | '|' | '.' => return None,
                c => vec![c],
            };
            let (lo, hi) = if it.peek() == Some(&'{') {
                it.next();
                let mut spec = String::new();
                loop {
                    let c = it.next()?;
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => (lo.parse().ok()?, hi.parse().ok()?),
                    None => {
                        let n = spec.parse().ok()?;
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            atoms.push((chars, lo, hi));
        }
        Some(atoms)
    }

    macro_rules! impl_tuple_strategy {
        ($(($($n:ident $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.new_value(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
    }
}

pub mod collection {
    use super::strategy::{Strategy, TestRng};
    use rand::RngExt;

    /// Strategy for `Vec`s with element strategy `S` and a length range.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// `Vec` strategy: `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "collection::vec: empty size range");
        VecStrategy { element, len: size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod test_runner {
    use rand::SeedableRng;

    pub use super::strategy::TestRng;

    /// Why a generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the message already names the inputs.
        Fail(String),
        /// A `prop_assume!` rejected the inputs; try another case.
        Reject,
    }

    /// Runner configuration (`cases` is the only knob this shim honors).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    fn fnv(name: &str) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Drive one property: run `case` until `cfg.cases` successes, with a
    /// bounded rejection budget. Deterministic per test name.
    pub fn run_cases(
        name: &str,
        cfg: &ProptestConfig,
        mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        let mut rng = TestRng::seed_from_u64(fnv(name));
        let mut passed: u32 = 0;
        let mut rejected: u64 = 0;
        let reject_budget = cfg.cases as u64 * 256;
        let mut case_no: u64 = 0;
        while passed < cfg.cases {
            case_no += 1;
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject) => {
                    rejected += 1;
                    assert!(
                        rejected <= reject_budget,
                        "proptest '{name}': too many prop_assume! rejections \
                         ({rejected} after {passed} passing cases)"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{name}' failed at case #{case_no}: {msg}")
                }
            }
        }
    }
}

/// The everything-import, mirroring upstream.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Fail the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{}\n  left: {:?}\n right: {:?}", format!($($fmt)*), l, r);
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Reject the current inputs (does not count as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Choice among strategies of a common value type: uniform for plain
/// arms, or biased via upstream's `weight => strategy` arm syntax.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($cfg:expr;) => {};
    ($cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases(
                stringify!($name),
                &$cfg,
                |__rng| {
                    let mut __inputs: Vec<(&str, String)> = Vec::new();
                    $(
                        let __value = $crate::strategy::Strategy::new_value(&($strat), __rng);
                        __inputs.push((stringify!($arg), format!("{:?}", &__value)));
                        let $arg = __value;
                    )+
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(
                            move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                                $body
                                ::core::result::Result::Ok(())
                            },
                        ),
                    );
                    match __outcome {
                        Ok(Ok(())) => Ok(()),
                        Ok(Err($crate::test_runner::TestCaseError::Reject)) => {
                            Err($crate::test_runner::TestCaseError::Reject)
                        }
                        Ok(Err($crate::test_runner::TestCaseError::Fail(msg))) => {
                            let inputs: Vec<String> = __inputs
                                .iter()
                                .map(|(n, v)| format!("{n} = {v}"))
                                .collect();
                            Err($crate::test_runner::TestCaseError::Fail(format!(
                                "{msg}\n inputs: {}",
                                inputs.join(", ")
                            )))
                        }
                        Err(panic) => {
                            let inputs: Vec<String> = __inputs
                                .iter()
                                .map(|(n, v)| format!("{n} = {v}"))
                                .collect();
                            eprintln!(
                                "proptest '{}' panicked with inputs: {}",
                                stringify!($name),
                                inputs.join(", ")
                            );
                            ::std::panic::resume_unwind(panic)
                        }
                    }
                },
            );
        }
        $crate::__proptest_fns!{$cfg; $($rest)*}
    };
}

/// The property-test block macro: each `fn name(arg in strategy, ...)`
/// becomes a `#[test]` that generates inputs and checks the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{$cfg; $($rest)*}
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{$crate::test_runner::ProptestConfig::default(); $($rest)*}
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples((a, b) in (0u64..100, 1u64..50), c in any::<u8>()) {
            prop_assert!(a < 100);
            prop_assert!((1..50).contains(&b));
            let _ = c;
        }

        #[test]
        fn oneof_and_vec(v in collection::vec(prop_oneof![
            (0u32..10).prop_map(|x| x * 2),
            Just(99u32),
        ], 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for x in &v {
                prop_assert!(*x == 99 || (*x % 2 == 0 && *x < 20), "bad element {x}");
            }
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u8..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        let caught = std::panic::catch_unwind(|| {
            crate::test_runner::run_cases("always_fails", &ProptestConfig::with_cases(4), |_rng| {
                Err(crate::test_runner::TestCaseError::Fail("boom".into()))
            })
        });
        let msg = *caught
            .expect_err("must panic")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::{Strategy, TestRng};
        use rand::SeedableRng;
        let s = (0u64..1000, 0u64..1000);
        let mut a = TestRng::seed_from_u64(1);
        let mut b = TestRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(s.new_value(&mut a), s.new_value(&mut b));
        }
    }
}
