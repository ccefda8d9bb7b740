//! Anonymous configurations: multisets of states (Definition 1.1 of the
//! paper).

use std::collections::BTreeMap;

use crate::protocol::Protocol;

/// The multiset of states of a population — a *configuration* in the sense of
/// Definition 1.1: "as agents with the same state are identical, we define a
/// configuration as the multiset that contains all the states of the
/// population".
///
/// Stored as an ordered map so that equal multisets compare equal and hash
/// identically; this is the canonical form used by the model checker.
///
/// # Example
///
/// ```
/// use pp_protocol::CountConfig;
///
/// let config: CountConfig<u8> = [1, 1, 2].into_iter().collect();
/// assert_eq!(config.n(), 3);
/// assert_eq!(config.count(&1), 2);
/// assert_eq!(config.distinct(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CountConfig<S: Ord> {
    counts: BTreeMap<S, usize>,
    n: usize,
}

impl<S: Clone + Ord> CountConfig<S> {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        CountConfig {
            counts: BTreeMap::new(),
            n: 0,
        }
    }

    /// Total number of agents.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the configuration contains no agents.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of distinct states present.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Multiplicity of `state`.
    pub fn count(&self, state: &S) -> usize {
        self.counts.get(state).copied().unwrap_or(0)
    }

    /// Adds `count` agents in `state`.
    pub fn insert(&mut self, state: S, count: usize) {
        if count == 0 {
            return;
        }
        *self.counts.entry(state).or_insert(0) += count;
        self.n += count;
    }

    /// Removes `count` agents in `state`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` agents are in `state` — removing agents
    /// that do not exist indicates a bug in the caller.
    pub fn remove(&mut self, state: &S, count: usize) {
        if count == 0 {
            return;
        }
        let c = self
            .counts
            .get_mut(state)
            .unwrap_or_else(|| panic!("removing {count} agents from an absent state"));
        assert!(*c >= count, "removing {count} agents but only {c} present");
        *c -= count;
        if *c == 0 {
            self.counts.remove(state);
        }
        self.n -= count;
    }

    /// Moves one agent from `from` to `to` (no-op when `from == to`).
    ///
    /// # Panics
    ///
    /// Panics if no agent is in state `from`.
    pub fn transfer(&mut self, from: &S, to: S) {
        if *from == to {
            return;
        }
        self.remove(from, 1);
        self.insert(to, 1);
    }

    /// Iterates over `(state, count)` pairs in state order.
    pub fn iter(&self) -> impl Iterator<Item = (&S, usize)> + Clone {
        self.counts.iter().map(|(s, c)| (s, *c))
    }

    /// The distinct states present, in order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.counts.keys()
    }

    /// Expands the multiset into a vector of states (in canonical order).
    pub fn to_state_vec(&self) -> Vec<S> {
        let mut out = Vec::with_capacity(self.n);
        for (s, c) in self.iter() {
            for _ in 0..c {
                out.push(s.clone());
            }
        }
        out
    }

    /// Iterates over all *interacting ordered state pairs*: pairs `(s1, s2)`
    /// such that two distinct agents, the initiator in `s1` and the responder
    /// in `s2`, exist in this configuration. A state interacts with itself
    /// only when its multiplicity is at least 2.
    pub fn ordered_state_pairs(&self) -> impl Iterator<Item = (&S, &S)> {
        self.counts.iter().flat_map(move |(s1, c1)| {
            self.counts.keys().filter_map(move |s2| {
                if s1 == s2 && *c1 < 2 {
                    None
                } else {
                    Some((s1, s2))
                }
            })
        })
    }

    /// Whether the configuration is *silent*: no interacting pair of agents
    /// would change state.
    pub fn is_silent<P>(&self, protocol: &P) -> bool
    where
        P: Protocol<State = S>,
        S: std::hash::Hash + std::fmt::Debug,
    {
        self.ordered_state_pairs()
            .all(|(a, b)| protocol.is_null_interaction(a, b))
    }

    /// Histogram of outputs over all agents.
    pub fn output_counts<P>(&self, protocol: &P) -> BTreeMap<P::Output, usize>
    where
        P: Protocol<State = S>,
        S: std::hash::Hash + std::fmt::Debug,
    {
        let mut out = BTreeMap::new();
        for (s, c) in self.iter() {
            *out.entry(protocol.output(s)).or_insert(0) += c;
        }
        out
    }

    /// Returns `Some(o)` when every agent outputs `o`.
    pub fn output_consensus<P>(&self, protocol: &P) -> Option<P::Output>
    where
        P: Protocol<State = S>,
        S: std::hash::Hash + std::fmt::Debug,
    {
        let counts = self.output_counts(protocol);
        if counts.len() == 1 {
            counts.into_keys().next()
        } else {
            None
        }
    }
}

impl<S: Clone + Ord> FromIterator<S> for CountConfig<S> {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        let mut config = CountConfig::new();
        for s in iter {
            config.insert(s, 1);
        }
        config
    }
}

impl<S: Clone + Ord> Extend<S> for CountConfig<S> {
    fn extend<T: IntoIterator<Item = S>>(&mut self, iter: T) {
        for s in iter {
            self.insert(s, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_track_n() {
        let mut c = CountConfig::new();
        c.insert(1u8, 3);
        c.insert(2u8, 1);
        assert_eq!(c.n(), 4);
        c.remove(&1, 2);
        assert_eq!(c.n(), 2);
        assert_eq!(c.count(&1), 1);
        c.remove(&1, 1);
        assert_eq!(c.distinct(), 1);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn remove_too_many_panics() {
        let mut c: CountConfig<u8> = [1].into_iter().collect();
        c.remove(&1, 2);
    }

    #[test]
    fn transfer_moves_one_agent() {
        let mut c: CountConfig<u8> = [1, 1].into_iter().collect();
        c.transfer(&1, 2);
        assert_eq!(c.count(&1), 1);
        assert_eq!(c.count(&2), 1);
        assert_eq!(c.n(), 2);
    }

    #[test]
    fn transfer_to_same_state_is_noop() {
        let mut c: CountConfig<u8> = [1].into_iter().collect();
        c.transfer(&1, 1);
        assert_eq!(c.count(&1), 1);
    }

    #[test]
    fn ordered_pairs_respect_multiplicity() {
        let c: CountConfig<u8> = [1, 2].into_iter().collect();
        let pairs: Vec<(u8, u8)> = c.ordered_state_pairs().map(|(a, b)| (*a, *b)).collect();
        // (1,1) and (2,2) excluded: multiplicity 1.
        assert_eq!(pairs, vec![(1, 2), (2, 1)]);

        let c2: CountConfig<u8> = [1, 1].into_iter().collect();
        let pairs2: Vec<(u8, u8)> = c2.ordered_state_pairs().map(|(a, b)| (*a, *b)).collect();
        assert_eq!(pairs2, vec![(1, 1)]);
    }

    #[test]
    fn canonical_equality() {
        let a: CountConfig<u8> = [3, 1, 2].into_iter().collect();
        let b: CountConfig<u8> = [2, 3, 1].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn to_state_vec_is_sorted_expansion() {
        let c: CountConfig<u8> = [2, 1, 2].into_iter().collect();
        assert_eq!(c.to_state_vec(), vec![1, 2, 2]);
    }
}
