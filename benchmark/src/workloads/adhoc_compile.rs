//! `adhoc-compile`: 2048 distinct query texts against YAGO, more than the
//! 128-entry prepared-statement cache holds, so every op parses, builds and
//! augments its automaton and plans before it evaluates — the paper's
//! console, which compiles every query it is given. Same `prepare` layer as
//! `serve-short`, used the opposite way (always a miss).

use omega_core::{Answer, Database};
use omega_datagen::{generate_yago, YagoConfig};
use omega_graph::{GraphStore, NodeId};

use crate::check::{Fingerprint, Outcome};
use crate::fnv::fnv_list;
use crate::harness::{read_op, EvalAccum, OpCtx, ReadOp, ReadSource, Scratch, Window, Workload};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workloads::{reference_pass, request};

/// Distinct texts per pass; the statement cache holds 128.
const TEXTS: usize = 2048;

/// The console's page: ten answers.
const LIMIT: usize = 10;

/// A query shape with one constant to substitute.
struct Template {
    /// The regular path expression.
    regex: &'static str,
    /// The constant is drawn from the nodes that have an edge with this
    /// label — as its source, or (`anchor_is_target`) as its target — so the
    /// path's first step has somewhere to go.
    anchor: &'static str,
    anchor_is_target: bool,
}

/// The single-constant shapes of the paper's Figure 9 (Q1, Q2, Q7, Q9; Q9's
/// two branches re-anchored on cities, of which there are enough to draw
/// from) plus alternation-heavy ones whose automata are several times
/// larger. Shapes whose evaluation explodes under a flexible operator (Q3
/// RELAX, Q4 APPROX, a closure over co-star edges under APPROX) are left
/// out: here the compile path is the subject, and their cost depends so much
/// on the constant that a pass would cost 20 % more or less by the seed.
const TEMPLATES: [Template; 10] = [
    Template {
        regex: "bornIn-.marriedTo.hasChild",
        anchor: "bornIn",
        anchor_is_target: true,
    },
    Template {
        regex: "hasChild.gradFrom.gradFrom-.hasWonPrize",
        anchor: "hasChild",
        anchor_is_target: false,
    },
    Template {
        regex: "happenedIn-.participatedIn-",
        anchor: "happenedIn",
        anchor_is_target: true,
    },
    Template {
        regex: "(wasBornIn-.gradFrom)|(happenedIn-.participatedIn-)",
        anchor: "wasBornIn",
        anchor_is_target: true,
    },
    Template {
        regex: "gradFrom-.(hasWonPrize|actedIn|playsFor)",
        anchor: "gradFrom",
        anchor_is_target: true,
    },
    Template {
        regex: "(marriedTo|hasChild|influences)+.(gradFrom|worksAt)",
        anchor: "marriedTo",
        anchor_is_target: false,
    },
    Template {
        regex: "(wasBornIn|livesIn|diedIn).(locatedIn|isLocatedIn)*.(hasCapital-|dealsWith)",
        anchor: "wasBornIn",
        anchor_is_target: false,
    },
    Template {
        regex: "(actedIn|directed|produced).(actedIn-|directed-).(marriedTo|hasChild|influences)",
        anchor: "actedIn",
        anchor_is_target: false,
    },
    Template {
        regex: "(gradFrom|worksAt).(gradFrom-|worksAt-).(marriedTo|hasChild)*",
        anchor: "worksAt",
        anchor_is_target: false,
    },
    Template {
        regex: "(directed|produced|created|wrote).(actedIn-|directed-).(isCitizenOf|livesIn)",
        anchor: "directed",
        anchor_is_target: false,
    },
];

const OPERATORS: [&str; 3] = ["", "APPROX ", "RELAX "];

/// The pass's texts: every (template, operator) pair the same number of
/// times whatever the seed, so the mix of shapes — and with it the latency
/// distribution — does not move with the seed; the seed draws the constants
/// and the order.
fn texts(graph: &GraphStore, seed: u64) -> Result<Vec<String>, String> {
    let pairs = TEMPLATES.len() * OPERATORS.len();
    let mut rng = Rng::new(seed, 2);
    let constants: Vec<Vec<NodeId>> = TEMPLATES
        .iter()
        .map(|t| {
            let label = graph
                .label_id(t.anchor)
                .ok_or_else(|| format!("the dataset has no {} edges", t.anchor))?;
            let mut nodes: Vec<NodeId> = if t.anchor_is_target {
                graph.heads(label).iter().collect()
            } else {
                graph.tails(label).iter().collect()
            };
            if nodes.len() < TEXTS.div_ceil(pairs) {
                return Err(format!("too few {} anchors for distinct texts", t.anchor));
            }
            rng.shuffle(&mut nodes);
            Ok(nodes)
        })
        .collect::<Result<_, String>>()?;
    let mut texts: Vec<String> = (0..TEXTS)
        .map(|i| {
            let pair = i % pairs;
            let (template, operator) = (pair / OPERATORS.len(), pair % OPERATORS.len());
            format!(
                "(?X) <- {}({}, {}, ?X)",
                OPERATORS[operator],
                graph.node_label(constants[template][i / pairs]),
                TEMPLATES[template].regex
            )
        })
        .collect();
    rng.shuffle(&mut texts);
    Ok(texts)
}

pub struct AdhocCompile {
    db: Database,
    references: Vec<(String, Outcome)>,
    buf: Vec<Answer>,
    next_request: u64,
}

impl Workload for AdhocCompile {
    const NAME: &'static str = "adhoc-compile";
    const TAIL: f64 = 0.95;
    const EXPECTED: &'static str = include_str!("../../expected/adhoc-compile.json");

    fn setup(seed: u64, _scratch: &Scratch, tracer: &mut Tracer) -> Result<Self, String> {
        let data = tracer.scope("datagen.generate", 0, || {
            generate_yago(&YagoConfig::scaled(1.0))
        });
        let db = Database::new(data.graph, data.ontology);
        let texts = texts(&db.graph(), seed)?;
        let references = reference_pass(&db, &texts, LIMIT)?;
        Ok(AdhocCompile {
            db,
            references,
            buf: Vec::new(),
            next_request: 0,
        })
    }

    fn db(&self) -> &Database {
        &self.db
    }

    fn fingerprint(&self) -> Fingerprint {
        let ops = fnv_list(self.references.iter().map(|(text, _)| text.as_str()));
        Fingerprint::of(&self.db.graph(), ops)
    }

    fn references(&self) -> &[(String, Outcome)] {
        &self.references
    }

    fn pass(&mut self, win: &mut Window, tracer: &mut Tracer, eval: &mut EvalAccum) {
        let request = request(LIMIT, tracer.is_on());
        let mut ctx = OpCtx {
            win,
            tracer,
            eval,
            buf: &mut self.buf,
            request: self.next_request,
        };
        for (text, reference) in &self.references {
            ctx.request += 1;
            let op = ReadOp {
                source: ReadSource::Text(&self.db, text),
                request: &request,
                limit: LIMIT,
                reference: Some(reference),
            };
            read_op(&op, &mut ctx);
        }
        self.next_request = ctx.request;
    }
}
