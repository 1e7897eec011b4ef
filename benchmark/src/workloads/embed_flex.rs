//! `embed-flex`: the paper's study, in-process. Evaluator-heavy flexible
//! queries over L4All L3 on the heap CSR, statements prepared ahead, top-100
//! pulled in batches of 10. An evaluator, rank-join or CSR optimisation shows
//! here and nowhere else; protocol, server, WAL and compile are absent.

use omega_core::{Answer, Database, PreparedQuery};
use omega_datagen::{l4all_multi_conjunct_queries, l4all_queries, L4AllScale};

use crate::check::{Fingerprint, Outcome};
use crate::fnv::fnv_list;
use crate::harness::{read_op, EvalAccum, OpCtx, ReadOp, ReadSource, Scratch, Window, Workload};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workloads::{l4all, reference_pass, request, TOP_K};

/// Times each statement appears in one pass.
const REPEATS: usize = 3;

pub struct EmbedFlex {
    db: Database,
    statements: Vec<PreparedQuery>,
    references: Vec<(String, Outcome)>,
    /// The coming pass: statement indices in seeded order, reshuffled from
    /// the same stream after every pass.
    ops: Vec<usize>,
    order: Rng,
    buf: Vec<Answer>,
    next_request: u64,
}

/// Q8/Q9 APPROX, Q3 RELAX, Q3/Q11 exact, and the multi-conjunct M2/M3 exact
/// and APPROX: where the paper's flexible operators and the rank join work
/// hardest without any one statement taking the whole pass.
fn texts() -> Vec<String> {
    let q = l4all_queries();
    let m = l4all_multi_conjunct_queries();
    vec![
        q[7].with_operator("APPROX"),
        q[8].with_operator("APPROX"),
        q[2].with_operator("RELAX"),
        q[2].text.to_owned(),
        q[10].text.to_owned(),
        m[1].text.to_owned(),
        m[1].with_operator_everywhere("APPROX"),
        m[2].text.to_owned(),
        m[2].with_operator_everywhere("APPROX"),
    ]
}

impl Workload for EmbedFlex {
    const NAME: &'static str = "embed-flex";
    /// M3 APPROX is the slowest ninth of the mix: p90 sits at the sharp low
    /// edge of its distribution, and the quiet tenth of any run has the 100
    /// samples it needs.
    const TAIL: f64 = 0.90;
    const EXPECTED: &'static str = include_str!("../../expected/embed-flex.json");

    fn setup(seed: u64, _scratch: &Scratch, tracer: &mut Tracer) -> Result<Self, String> {
        let data = l4all(L4AllScale::L3, tracer);
        let db = Database::new(data.graph, data.ontology);
        let texts = texts();
        let statements = texts
            .iter()
            .map(|t| db.prepare(t).map_err(|e| format!("{t}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let references = reference_pass(&db, &texts, TOP_K)?;
        let mut ops: Vec<usize> = (0..texts.len() * REPEATS)
            .map(|i| i % texts.len())
            .collect();
        let mut order = Rng::new(seed, 1);
        order.shuffle(&mut ops);
        Ok(EmbedFlex {
            db,
            statements,
            references,
            ops,
            order,
            buf: Vec::new(),
            next_request: 0,
        })
    }

    fn db(&self) -> &Database {
        &self.db
    }

    fn fingerprint(&self) -> Fingerprint {
        let ops = fnv_list(self.ops.iter().map(|&i| self.references[i].0.as_str()));
        Fingerprint::of(&self.db.graph(), ops)
    }

    fn references(&self) -> &[(String, Outcome)] {
        &self.references
    }

    fn pass(&mut self, win: &mut Window, tracer: &mut Tracer, eval: &mut EvalAccum) {
        let request = request(TOP_K, tracer.is_on());
        let mut ctx = OpCtx {
            win,
            tracer,
            eval,
            buf: &mut self.buf,
            request: self.next_request,
        };
        for &statement in &self.ops {
            ctx.request += 1;
            let op = ReadOp {
                source: ReadSource::Prepared(&self.statements[statement]),
                request: &request,
                limit: TOP_K,
                reference: Some(&self.references[statement].1),
            };
            read_op(&op, &mut ctx);
        }
        self.next_request = ctx.request;
        // A new order for the next pass: what an op costs depends on what ran
        // before it (the caches and the allocator it inherits), and over many
        // orders that averages out instead of depending on the one order the
        // seed drew.
        self.order.shuffle(&mut self.ops);
    }
}
