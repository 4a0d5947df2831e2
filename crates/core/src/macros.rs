//! The `persistent_class!` macro — the Rust analogue of the paper's
//! bytecode generator (§2.5, §3).

/// Generate a persistent class — the Rust analogue of the paper's
/// bytecode generator (§2.5, §3).
///
/// Given a class declaration, it emits exactly the artefacts the paper's
/// generator produces from a `@Persistent` Java class: a volatile proxy
/// struct holding the block-address array, typed getters/setters that
/// access NVMM through the mediated low-level interface, the resurrect
/// constructor, atomic reference-update helpers (§4.1.6), the layout
/// descriptor the recovery GC traces, and the class registration glue.
///
/// # Syntax
///
/// ```ignore
/// persistent_class! {
///     /// A simple persistent object (Figure 3 of the paper).
///     pub class Simple {
///         val x, set_x: i32;
///         ref msg, set_msg, update_msg: PString;
///     }
/// }
/// ```
///
/// * `val getter, setter: T;` — a primitive field (`T: PVal`), one word.
/// * `ref getter, setter, updater: T;` — a persistent reference field
///   (`T: PObject`). The getter returns `Option<T>` (resurrecting a proxy
///   on demand), the setter stores a raw reference, and the updater is the
///   paper's atomic `validate → pfence → store` helper.
///
/// Transient fields keep living in ordinary volatile Rust state — wrap the
/// generated struct if you need them, as `examples/quickstart.rs` shows.
///
/// Like the Java original, constructors are user code: call
/// `Type::alloc_uninit(&rt)`, fill fields, then flush/validate (or do it
/// all inside [`crate::JnvmRuntime::fa`]).
#[macro_export]
macro_rules! persistent_class {
    (
        $(#[$meta:meta])*
        $vis:vis class $name:ident { $($body:tt)* }
    ) => {
        $crate::persistent_class!(@munch
            meta = [$(#[$meta])*],
            vis = [$vis],
            name = $name,
            off = (0u64),
            fields = [],
            refs = [],
            rest = [$($body)*]
        );
    };

    // A primitive field.
    (@munch
        meta = [$($meta:tt)*],
        vis = [$vis:vis],
        name = $name:ident,
        off = ($off:expr),
        fields = [$($fields:tt)*],
        refs = [$($refs:tt)*],
        rest = [val $getter:ident, $setter:ident : $t:ty; $($rest:tt)*]
    ) => {
        $crate::persistent_class!(@munch
            meta = [$($meta)*],
            vis = [$vis],
            name = $name,
            off = ($off + 8),
            fields = [$($fields)* { val $getter $setter ($t) ($off) }],
            refs = [$($refs)*],
            rest = [$($rest)*]
        );
    };

    // A persistent reference field.
    (@munch
        meta = [$($meta:tt)*],
        vis = [$vis:vis],
        name = $name:ident,
        off = ($off:expr),
        fields = [$($fields:tt)*],
        refs = [$($refs:tt)*],
        rest = [ref $getter:ident, $setter:ident, $updater:ident : $t:ty; $($rest:tt)*]
    ) => {
        $crate::persistent_class!(@munch
            meta = [$($meta)*],
            vis = [$vis],
            name = $name,
            off = ($off + 8),
            fields = [$($fields)* { ref $getter $setter $updater ($t) ($off) }],
            refs = [$($refs)* ($off)],
            rest = [$($rest)*]
        );
    };

    // Done: emit.
    (@munch
        meta = [$($meta:tt)*],
        vis = [$vis:vis],
        name = $name:ident,
        off = ($total:expr),
        fields = [$($fields:tt)*],
        refs = [$($roff:tt)*],
        rest = []
    ) => {
        $($meta)*
        #[derive(Clone)]
        $vis struct $name {
            proxy: $crate::Proxy,
        }

        // Generated API: any given class uses a subset of it.
        #[allow(dead_code)]
        impl $name {
            /// Persistent payload size of this class in bytes.
            pub const PAYLOAD_BYTES: u64 = $total;

            /// Allocate the persistent data structure for a new instance.
            /// The object starts invalid; flush and validate it (or run
            /// inside a failure-atomic block) before publishing it.
            ///
            /// # Panics
            ///
            /// Panics if the class was not registered with the builder or
            /// the persistent heap is exhausted.
            pub fn alloc_uninit(rt: &$crate::Jnvm) -> Self {
                let proxy = rt
                    .alloc_proxy::<Self>(Self::PAYLOAD_BYTES.max(8))
                    .expect("allocation failed");
                $name { proxy }
            }

            /// The underlying proxy (low-level interface).
            pub fn proxy(&self) -> &$crate::Proxy {
                &self.proxy
            }

            /// `pwb()` over the whole object (§3.2.2).
            pub fn pwb(&self) {
                self.proxy.pwb();
            }

            /// Validate the object — fence-free (§3.2.3).
            pub fn validate(&self) {
                self.proxy.validate();
            }

            /// Whether the object is currently valid.
            pub fn is_valid(&self) -> bool {
                self.proxy.is_valid()
            }

            $crate::persistent_class!(@accessors $($fields)*);
        }

        impl $crate::PObject for $name {
            const CLASS_NAME: &'static str =
                concat!(module_path!(), "::", stringify!($name));
            const REF_OFFSETS: &'static [u64] = &[$($roff),*];

            fn resurrect(rt: &$crate::Jnvm, addr: u64) -> Self {
                $name { proxy: $crate::Proxy::open(rt, addr) }
            }

            fn addr(&self) -> u64 {
                self.proxy.addr()
            }
        }
    };

    // Accessor emission.
    (@accessors) => {};
    (@accessors { val $getter:ident $setter:ident ($t:ty) ($off:expr) } $($rest:tt)*) => {
        /// Generated persistent-field getter.
        pub fn $getter(&self) -> $t {
            <$t as $crate::PVal>::read(&self.proxy, $off)
        }
        /// Generated persistent-field setter.
        pub fn $setter(&self, v: $t) {
            <$t as $crate::PVal>::write(&self.proxy, $off, v)
        }
        $crate::persistent_class!(@accessors $($rest)*);
    };
    (@accessors { ref $getter:ident $setter:ident $updater:ident ($t:ty) ($off:expr) } $($rest:tt)*) => {
        /// Generated persistent-reference getter: resurrects a proxy for
        /// the referenced object on demand (§3.1).
        ///
        /// # Panics
        ///
        /// Panics if the stored reference has a different class than the
        /// field type — possible only through unchecked raw-address writes.
        pub fn $getter(&self) -> Option<$t> {
            self.proxy.read_ref($off).map(|a| {
                self.proxy
                    .runtime()
                    .read_pobject::<$t>(a)
                    .expect("reference field holds object of declared class")
            })
        }
        /// Generated persistent-reference setter (raw store, no fence).
        pub fn $setter(&self, v: Option<&$t>) {
            self.proxy
                .write_ref($off, v.map(|o| <$t as $crate::PObject>::addr(o)));
        }
        /// Generated atomic reference update (Figure 6): validate the new
        /// object, fence, store — the recovery pass can never catch the
        /// slot pointing at an invalid object.
        pub fn $updater(&self, v: Option<&$t>) {
            if let Some(o) = v {
                self.proxy
                    .runtime()
                    .set_valid_addr(<$t as $crate::PObject>::addr(o), true);
            }
            self.proxy.runtime().pfence();
            self.$setter(v);
            self.proxy.pwb_field($off, 8);
        }
        $crate::persistent_class!(@accessors $($rest)*);
    };
}
