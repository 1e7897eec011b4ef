//! FNV-1a digests for input fingerprints and answer-set comparison.

use omega_graph::GraphStore;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a-64 hasher. Fields are separated by a 0xff byte, which
/// UTF-8 text never contains, so `("ab","c")` and `("a","bc")` differ.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    pub fn field(mut self, text: &str) -> Fnv {
        for &b in text.as_bytes().iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one text.
pub fn fnv(text: &str) -> u64 {
    Fnv::new().field(text).finish()
}

/// Digest of an ordered list of texts (an op list).
pub fn fnv_list<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    texts
        .into_iter()
        .fold(Fnv::new(), |h, text| h.field(text))
        .finish()
}

/// Digest of a graph's triples as a set: the wrapping sum of each triple's
/// digest, so it does not depend on edge order and needs no sort of a few
/// hundred thousand strings on every run. A changed, added or dropped triple
/// changes it.
pub fn triples_digest(graph: &GraphStore) -> u64 {
    graph.edges().fold(0u64, |sum, edge| {
        let triple = Fnv::new()
            .field(graph.node_label(edge.source))
            .field(graph.label_name(edge.label))
            .field(graph.node_label(edge.target));
        sum.wrapping_add(triple.finish())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors_modulo_separator() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv_list(["ab", "c"]), fnv_list(["a", "bc"]));
    }

    #[test]
    fn triple_digest_ignores_insertion_order() {
        let mut a = GraphStore::new();
        a.add_triple("x", "p", "y");
        a.add_triple("y", "q", "z");
        let mut b = GraphStore::new();
        b.add_triple("y", "q", "z");
        b.add_triple("x", "p", "y");
        assert_eq!(triples_digest(&a), triples_digest(&b));
        b.add_triple("x", "q", "z");
        assert_ne!(triples_digest(&a), triples_digest(&b));
    }
}
