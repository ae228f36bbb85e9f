//! The buffers a bisection borrows and gives back.
//!
//! Every buffer of the recursion that grows with the hypergraph (coarse
//! levels, matching and FM scratch, extracted halves, part lists) is
//! taken from a [`Pool`] and given back to it once the step that needed
//! it is done, so later steps reuse it.
//!
//! The pool is the memory plan of a helper thread (see `kway`). A pool
//! ends a bisection holding every buffer that bisection needed; a helper
//! bisects a smaller subtree, so the caller lends it that pool, trimmed
//! to the subtree's size, and the helper draws from it instead of
//! allocating. What a helper allocated itself would live in the
//! allocator's per-thread arena, out of reach of the caller's later
//! allocations after the helper exits.
//!
//! Shelving has a price: a shelved buffer of one element type cannot
//! serve a request for another, where a freed one could. A
//! [`Pool::plain`] pool therefore shelves nothing; the caller uses one
//! where it will not lend.
//!
//! A buffer comes out empty (`len() == 0`), so nothing reads what an
//! earlier user left in it: results never depend on which buffer a step
//! got.

use crate::coarsen::CoarseLevel;
use crate::fm::Key;

/// Element types the pool shelves, each on its own shelf.
pub(crate) trait Pooled: Sized {
    fn shelf(pool: &mut Pool) -> &mut Vec<Vec<Self>>;
}

macro_rules! shelves {
    ($($field:ident: $t:ty),* $(,)?) => {
        /// Shelved buffers, one shelf per element type.
        #[derive(Default)]
        pub(crate) struct Pool {
            /// Given-back buffers are freed instead of shelved.
            plain: bool,
            $($field: Vec<Vec<$t>>,)*
        }

        $(impl Pooled for $t {
            fn shelf(pool: &mut Pool) -> &mut Vec<Vec<Self>> {
                &mut pool.$field
            }
        })*

        impl Pool {
            /// Shrinks every shelved buffer to `scale` of its capacity
            /// (`scale <= 1`), handing the rest back to the allocator.
            pub(crate) fn trim(&mut self, scale: f64) {
                $(for v in &mut self.$field {
                    v.shrink_to((v.capacity() as f64 * scale).ceil() as usize);
                })*
            }
        }
    };
}

shelves! {
    bytes: u8,
    flags: bool,
    ids: u32,
    words: u64,
    gains: i64,
    offsets: usize,
    keys: Key,
    sided: (u32, u8),
    weighted: (u64, u32),
    levels: CoarseLevel,
}

impl Pool {
    /// A pool that shelves nothing: every buffer is new, and freed when
    /// given back.
    pub(crate) fn plain() -> Pool {
        Pool { plain: true, ..Pool::default() }
    }

    /// Whether given-back buffers are shelved.
    pub(crate) fn keeps(&self) -> bool {
        !self.plain
    }

    /// An empty buffer with room for `cap` elements: the smallest shelved
    /// one that has it, else a new one, which replaces the largest
    /// shelved one (too small to serve this request).
    pub(crate) fn with_capacity<T: Pooled>(&mut self, cap: usize) -> Vec<T> {
        let shelf = T::shelf(self);
        let room = |i: &usize| shelf[*i].capacity();
        let fit = (0..shelf.len()).filter(|i| room(i) >= cap).min_by_key(room);
        if let Some(i) = fit {
            return shelf.swap_remove(i);
        }
        if let Some(i) = (0..shelf.len()).max_by_key(room) {
            shelf.swap_remove(i);
        }
        Vec::with_capacity(cap)
    }

    /// `len` copies of `value`.
    pub(crate) fn filled<T: Pooled + Clone>(&mut self, len: usize, value: T) -> Vec<T> {
        let mut v = self.with_capacity(len);
        v.resize(len, value);
        v
    }

    /// A copy of `src`.
    pub(crate) fn copied<T: Pooled + Clone>(&mut self, src: &[T]) -> Vec<T> {
        let mut v = self.with_capacity(src.len());
        v.extend_from_slice(src);
        v
    }

    /// Shelves `v` for a later request.
    pub(crate) fn give<T: Pooled>(&mut self, mut v: Vec<T>) {
        if self.keeps() && v.capacity() > 0 {
            v.clear();
            T::shelf(self).push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_the_smallest_buffer_that_fits() {
        let mut pool = Pool::default();
        for cap in [8, 64, 16] {
            pool.give(Vec::<u32>::with_capacity(cap));
        }
        let v: Vec<u32> = pool.with_capacity(10);
        assert!(v.is_empty() && (16..64).contains(&v.capacity()), "{}", v.capacity());
        // Nothing fits 100: the largest (64) is dropped for a new one.
        let w: Vec<u32> = pool.with_capacity(100);
        assert!(w.capacity() >= 100);
        assert_eq!(pool.ids.len(), 1);
        assert!(pool.with_capacity::<u64>(1).capacity() >= 1);
    }

    #[test]
    fn buffers_come_back_empty() {
        let mut pool = Pool::default();
        pool.give(vec![7u8; 32]);
        assert_eq!(pool.filled(4, 1u8), [1; 4]);
        pool.give(vec![9u32; 5]);
        assert_eq!(pool.copied(&[1u32, 2]), [1, 2]);
    }

    #[test]
    fn trim_shrinks_and_plain_pools_shelve_nothing() {
        let mut pool = Pool::default();
        pool.give(Vec::<i64>::with_capacity(1000));
        pool.trim(0.25);
        assert!((250..1000).contains(&pool.gains[0].capacity()), "{}", pool.gains[0].capacity());
        let mut plain = Pool::plain();
        plain.give(vec![1u32; 8]);
        assert!(plain.ids.is_empty() && !plain.keeps() && pool.keeps());
    }
}
