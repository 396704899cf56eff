//! Sorted label sets for dimensional metrics.
//!
//! A [`LabelSet`] is a small sorted map of `key → value` pairs kept in a
//! `Vec` — cheap to clone, `Ord` so it can key a `BTreeMap` (the
//! lint-clean alternative to hashing), and rendered deterministically as
//! `{k1="v1",k2="v2"}`.

/// An ordered set of `key="value"` labels. Keys are unique; inserting a
/// duplicate key replaces the value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LabelSet {
    pairs: Vec<(String, String)>,
}

impl LabelSet {
    /// The empty label set (shared, allocation-free).
    pub const EMPTY: LabelSet = LabelSet { pairs: Vec::new() };

    /// Empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insert: returns the set with `key` set to `value`,
    /// keeping pairs sorted by key.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.insert(key, value);
        self
    }

    /// Insert or replace `key`.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => self.pairs.insert(i, (key, value)),
        }
    }

    /// Value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.pairs[i].1.as_str())
    }

    /// The sorted `(key, value)` pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// True if no labels are set.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Render as `{k1="v1",k2="v2"}`, or `""` when empty — the canonical
    /// human-readable form (`heartbeat_missed{role="gm"}`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_pieces(|piece| out.push_str(piece));
        out
    }

    /// Feed [`LabelSet::render`]'s text to `push` piece by piece (braces,
    /// keys, `="`, values, `"`, commas), so a writer can append it to its
    /// own buffer — transformed, if its format needs that.
    pub(crate) fn render_pieces(&self, mut push: impl FnMut(&str)) {
        let mut open = "{";
        for (k, v) in &self.pairs {
            push(open);
            push(k);
            push("=\"");
            push(v);
            push("\"");
            open = ",";
        }
        if !self.pairs.is_empty() {
            push("}");
        }
    }
}

/// Convenience: a one-pair label set.
pub fn label(key: impl Into<String>, value: impl Into<String>) -> LabelSet {
    LabelSet::new().with(key, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_stay_sorted_regardless_of_insert_order() {
        let a = LabelSet::new().with("z", "1").with("a", "2").with("m", "3");
        let b = LabelSet::new().with("a", "2").with("m", "3").with("z", "1");
        assert_eq!(a, b);
        assert_eq!(a.render(), "{a=\"2\",m=\"3\",z=\"1\"}");
    }

    #[test]
    fn duplicate_key_replaces() {
        let l = label("role", "gm").with("role", "lc");
        assert_eq!(l.get("role"), Some("lc"));
        assert_eq!(l.pairs().len(), 1);
    }

    #[test]
    fn empty_renders_empty() {
        assert_eq!(LabelSet::EMPTY.render(), "");
        assert!(LabelSet::new().is_empty());
        assert_eq!(LabelSet::new().get("x"), None);
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut sets = [label("b", "1"), label("a", "2"), LabelSet::EMPTY];
        sets.sort();
        assert!(sets[0].is_empty());
        assert_eq!(sets[1].get("a"), Some("2"));
    }
}
