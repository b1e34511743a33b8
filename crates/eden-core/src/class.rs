//! Classes and messages as first-order network abstractions (§1, §3.3).
//!
//! A *message* is an arbitrary application data unit; a *class* is the set
//! of messages (and their packets) that one action function should treat
//! alike. Externally a class is referred to by its fully qualified name
//! `stage.rule-set.class_name` (e.g. `memcached.r1.GET`); on the data path
//! it travels as an interned 32-bit id so per-packet matching is an integer
//! comparison, never a string one: the match stage resolves class → rule
//! through the crate's one open-addressing index (`index.rs`).

use std::collections::HashMap;
use std::fmt;

/// Interned class identifier carried in packet metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// The controller's bidirectional name ↔ id map.
///
/// Ids are dense and allocated in intern order, which keeps enclave-side
/// structures small. Id 0 is reserved for the catch-all "unclassified".
#[derive(Debug, Default)]
pub struct ClassRegistry {
    by_name: HashMap<String, ClassId>,
    names: Vec<String>,
}

impl ClassRegistry {
    /// Registry with the reserved `unclassified` id 0.
    pub fn new() -> ClassRegistry {
        let mut r = ClassRegistry::default();
        r.intern("unclassified");
        r
    }

    /// Intern a fully qualified class name, returning its id (existing id
    /// if already interned).
    pub fn intern(&mut self, fq_name: &str) -> ClassId {
        if let Some(&id) = self.by_name.get(fq_name) {
            return id;
        }
        let id = ClassId(self.names.len() as u32);
        self.names.push(fq_name.to_string());
        self.by_name.insert(fq_name.to_string(), id);
        id
    }

    /// Intern `stage.rule_set.class` from its parts.
    pub fn intern_parts(&mut self, stage: &str, rule_set: &str, class: &str) -> ClassId {
        self.intern(&format!("{stage}.{rule_set}.{class}"))
    }

    /// Resolve a name to an id, if interned.
    pub fn lookup(&self, fq_name: &str) -> Option<ClassId> {
        self.by_name.get(fq_name).copied()
    }

    /// Resolve an id back to its name.
    pub fn name(&self, id: ClassId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of interned classes (including `unclassified`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether only the reserved class exists.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut r = ClassRegistry::new();
        let a = r.intern("memcached.r1.GET");
        let b = r.intern("memcached.r1.GET");
        assert_eq!(a, b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn id_zero_is_unclassified() {
        let r = ClassRegistry::new();
        assert_eq!(r.lookup("unclassified"), Some(ClassId(0)));
    }

    #[test]
    fn parts_compose_fully_qualified_names() {
        let mut r = ClassRegistry::new();
        let id = r.intern_parts("memcached", "r1", "PUT");
        assert_eq!(r.name(id), Some("memcached.r1.PUT"));
        assert_eq!(r.lookup("memcached.r1.PUT"), Some(id));
    }

    #[test]
    fn distinct_names_distinct_ids() {
        let mut r = ClassRegistry::new();
        let a = r.intern("a.r.x");
        let b = r.intern("a.r.y");
        assert_ne!(a, b);
    }
}
