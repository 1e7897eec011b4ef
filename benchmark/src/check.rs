//! Answer checking: what one execution returned, reduced to what can be
//! compared whatever order ties come in, and the committed expectations.

use std::collections::BTreeMap;

use omega_core::Answer;
use omega_graph::GraphStore;

use crate::fnv::{fnv, triples_digest, Fnv};
use crate::json::Json;

/// One statement's result in tie-order-agnostic form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// `(distance, answers at it)`, ascending: the distance histogram.
    pub hist: Vec<(u32, u32)>,
    /// The stream ended before its limit, so the answer *set* is determined.
    pub exhausted: bool,
    /// Digest of the answer set (order-free) when `exhausted`.
    pub set: Option<u64>,
}

/// Order-free digest of an answer: variable names, values and distance.
fn answer_digest(answer: &Answer) -> u64 {
    answer
        .bindings
        .iter()
        .fold(Fnv::new(), |h, (var, value)| h.field(var).field(value))
        .field(&answer.distance.to_string())
        .finish()
}

/// Checks the invariants every ranked stream must keep — at most `limit`
/// answers, non-decreasing distance, no answer twice — and reduces the
/// stream to its [`Outcome`].
pub fn outcome(answers: &[Answer], limit: usize) -> Result<Outcome, String> {
    if answers.len() > limit {
        return Err(format!("{} answers for limit {limit}", answers.len()));
    }
    let mut hist: Vec<(u32, u32)> = Vec::new();
    for answer in answers {
        match hist.last_mut() {
            Some((d, n)) if *d == answer.distance => *n += 1,
            Some((d, _)) if *d > answer.distance => {
                return Err(format!("distance {} after {d}", answer.distance));
            }
            _ => hist.push((answer.distance, 1)),
        }
    }
    let mut digests: Vec<u64> = answers.iter().map(answer_digest).collect();
    digests.sort_unstable();
    if digests.windows(2).any(|w| w[0] == w[1]) {
        return Err("the same answer twice in one stream".into());
    }
    let exhausted = answers.len() < limit;
    Ok(Outcome {
        hist,
        exhausted,
        set: exhausted.then(|| digests.iter().fold(0u64, |s, d| s.wrapping_add(*d))),
    })
}

/// A cheap per-op check against the statement's reference outcome: count and
/// histogram through the distance sequence, the set only when it is
/// determined. The full invariants ran when the reference was taken.
pub fn matches(answers: &[Answer], limit: usize, reference: &Outcome) -> bool {
    let mut expected = reference
        .hist
        .iter()
        .flat_map(|(d, n)| std::iter::repeat_n(*d, *n as usize));
    answers.len() <= limit
        && answers.iter().all(|a| expected.next() == Some(a.distance))
        && expected.next().is_none()
        && (!reference.exhausted
            || reference.set
                == Some(
                    answers
                        .iter()
                        .fold(0u64, |s, a| s.wrapping_add(answer_digest(a))),
                ))
}

/// The inputs of one `(workload, seed)`, reduced to what must not drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub nodes: u64,
    pub edges: u64,
    /// [`crate::fnv::triples_digest`] of the generated graph.
    pub triples: u64,
    /// Digest of the op list, in execution order.
    pub ops: u64,
}

impl Fingerprint {
    /// The fingerprint of a generated dataset and an op-list digest.
    pub fn of(graph: &GraphStore, ops: u64) -> Fingerprint {
        Fingerprint {
            nodes: graph.node_count() as u64,
            edges: graph.edge_count() as u64,
            triples: triples_digest(graph),
            ops,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", Json::Num(self.nodes as f64)),
            ("edges", Json::Num(self.edges as f64)),
            ("triples_fnv", Json::hex(self.triples)),
            ("ops_fnv", Json::hex(self.ops)),
        ])
    }
}

/// The committed `expected/<workload>.json`.
#[derive(Debug)]
pub struct Expected {
    pub seed: u64,
    pub fingerprint: Fingerprint,
    /// Outcome per statement, keyed by the digest of its text.
    pub statements: BTreeMap<u64, Outcome>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text)?;
        let field = |obj: &Json, key: &str| obj.get(key).cloned().ok_or(format!("missing {key}"));
        let fp = field(&doc, "fingerprint")?;
        let num = |obj: &Json, key: &str| {
            field(obj, key)?
                .as_u64()
                .ok_or(format!("{key} is not a count"))
        };
        let hex = |obj: &Json, key: &str| {
            field(obj, key)?
                .as_hex()
                .ok_or(format!("{key} is not a digest"))
        };
        let mut statements = BTreeMap::new();
        for entry in field(&doc, "statements")?.as_arr().ok_or("statements")? {
            let hist = field(entry, "hist")?
                .as_arr()
                .ok_or("hist")?
                .iter()
                .map(|pair| match pair.as_arr() {
                    Some([d, n]) => d
                        .as_u64()
                        .zip(n.as_u64())
                        .map(|(d, n)| (d as u32, n as u32))
                        .ok_or_else(|| "hist entry".to_owned()),
                    _ => Err("hist entry".to_owned()),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let exhausted = field(entry, "exhausted")?.as_bool().ok_or("exhausted")?;
            statements.insert(
                hex(entry, "id")?,
                Outcome {
                    hist,
                    exhausted,
                    set: entry.get("set").and_then(Json::as_hex),
                },
            );
        }
        Ok(Expected {
            seed: num(&doc, "seed")?,
            fingerprint: Fingerprint {
                nodes: num(&fp, "nodes")?,
                edges: num(&fp, "edges")?,
                triples: hex(&fp, "triples_fnv")?,
                ops: hex(&fp, "ops_fnv")?,
            },
            statements,
        })
    }

    /// Renders the file. `texts` are written beside the digests while the
    /// list is short enough to read.
    pub fn render(
        seed: u64,
        fingerprint: &Fingerprint,
        statements: &[(String, Outcome)],
    ) -> String {
        let readable = statements.len() <= 64;
        let entries = statements.iter().map(|(text, outcome)| {
            let mut pairs = vec![("id", Json::hex(fnv(text)))];
            if readable {
                pairs.push(("q", Json::str(text.as_str())));
            }
            pairs.push((
                "hist",
                Json::Arr(
                    outcome
                        .hist
                        .iter()
                        .map(|(d, n)| {
                            Json::Arr(vec![Json::Num(f64::from(*d)), Json::Num(f64::from(*n))])
                        })
                        .collect(),
                ),
            ));
            pairs.push(("exhausted", Json::Bool(outcome.exhausted)));
            if let Some(set) = outcome.set {
                pairs.push(("set", Json::hex(set)));
            }
            Json::obj(pairs)
        });
        let doc = Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("fingerprint", fingerprint.to_json()),
            ("statements", Json::Arr(entries.collect())),
        ]);
        if readable {
            doc.pretty()
        } else {
            // Thousands of entries: one per line keeps diffs reviewable.
            doc.render().replace("},{\"id\"", "},\n{\"id\"") + "\n"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(x: &str, distance: u32) -> Answer {
        Answer {
            bindings: [("X".to_owned(), x.to_owned())].into(),
            distance,
        }
    }

    #[test]
    fn outcome_is_tie_order_agnostic_and_enforces_invariants() {
        let a = [answer("a", 0), answer("b", 0), answer("c", 1)];
        let b = [answer("b", 0), answer("a", 0), answer("c", 1)];
        let oa = outcome(&a, 10).unwrap();
        assert_eq!(oa, outcome(&b, 10).unwrap());
        assert_eq!(oa.hist, [(0, 2), (1, 1)]);
        assert!(oa.exhausted && oa.set.is_some());
        assert!(matches(&b, 10, &oa));
        assert!(!matches(
            &[answer("a", 0), answer("z", 0), answer("c", 1)],
            10,
            &oa
        ));
        assert!(!matches(&a[..2], 10, &oa));

        // At the limit the set is not determined, only the histogram.
        let full = outcome(&a, 3).unwrap();
        assert!(!full.exhausted && full.set.is_none());
        assert!(matches(
            &[answer("q", 0), answer("r", 0), answer("s", 1)],
            3,
            &full
        ));

        assert!(outcome(&[answer("a", 1), answer("b", 0)], 10).is_err());
        assert!(outcome(&[answer("a", 0), answer("a", 0)], 10).is_err());
        assert!(outcome(&a, 2).is_err());
    }

    #[test]
    fn expected_file_round_trips() {
        let fingerprint = Fingerprint {
            nodes: 3,
            edges: 2,
            triples: 0xfeed_0000_0000_0001,
            ops: 7,
        };
        let statements = vec![(
            "(?X) <- (a, p, ?X)".to_owned(),
            outcome(&[answer("b", 0)], 10).unwrap(),
        )];
        let text = Expected::render(5, &fingerprint, &statements);
        let parsed = Expected::parse(&text).unwrap();
        assert_eq!(parsed.seed, 5);
        assert_eq!(parsed.fingerprint, fingerprint);
        assert_eq!(parsed.statements[&fnv(&statements[0].0)], statements[0].1);
    }
}
