//! The bounded map behind the node's caches.

use std::collections::HashMap;
use std::hash::Hash;

/// A map bounded in two generations of `GENERATION` entries: inserts go to
/// `young`; once it is full it becomes `old`, and the previous `old` is
/// cleared and reused as the new `young`, keeping its allocation. So the
/// map never holds more than `2 * GENERATION` entries, keeps at least its
/// newest `GENERATION`, and ages out the oldest first, at O(1) per
/// operation.
pub(crate) struct Generations<K, V, const GENERATION: usize> {
    young: HashMap<K, V>,
    old: HashMap<K, V>,
}

impl<K, V, const GENERATION: usize> Default for Generations<K, V, GENERATION> {
    fn default() -> Self {
        Generations {
            young: HashMap::new(),
            old: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash, V, const GENERATION: usize> Generations<K, V, GENERATION> {
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.young.get(key).or_else(|| self.old.get(key))
    }

    pub(crate) fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Insert `value` under `key` into the young generation. Returns how
    /// many entries aged out.
    pub(crate) fn insert(&mut self, key: K, value: V) -> usize {
        self.old.remove(&key);
        let mut aged = 0;
        if self.young.len() == GENERATION {
            std::mem::swap(&mut self.young, &mut self.old);
            aged = self.young.len();
            self.young.clear();
        }
        self.young.insert(key, value);
        aged
    }

    /// Remove `key` from both generations.
    pub(crate) fn remove(&mut self, key: &K) {
        self.young.remove(key);
        self.old.remove(key);
    }
}
