//! `serve-short`: short prepared queries over a unix socket to an in-process
//! `omega-server` whose database was opened from a snapshot image (mmap CSR).
//! The evaluator does little here; join identity, answer building, codec and
//! socket are the rest — so an evaluator win must *not* move this workload.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

use omega_client::{Connection, Statement};
use omega_core::{Answer, Database, PreparedQuery};
use omega_datagen::L4AllScale;
use omega_server::{Server, ServerHandle};

use crate::check::{outcome, Fingerprint, Outcome};
use crate::fnv::fnv_list;
use crate::harness::{
    drain, ms_since, read_op, record_phases, settle, EvalAccum, Layers, OpCtx, ReadOp, ReadSource,
    Scratch, Window, Workload,
};
use crate::probes;
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{l4all, request, short_statements, TOP_K};

/// Times each statement appears in one pass.
const REPEATS: usize = 16;

pub struct ServeShort {
    /// A handle on the served database, for the in-process comparison and
    /// the program's counters.
    db: Database,
    /// `None` only while dropping.
    conn: Option<Connection>,
    server: ServerHandle,
    serving: Option<JoinHandle<()>>,
    statements: Vec<Statement>,
    references: Vec<(String, Outcome)>,
    ops: Vec<usize>,
    order: Rng,
    buf: Vec<Answer>,
    next_request: u64,
    image: PathBuf,
    /// Median wire op latency of the traced window, for `wire.overhead_ms`.
    traced_op_ms: Vec<f64>,
}

impl ServeShort {
    fn conn(&mut self) -> &mut Connection {
        self.conn.as_mut().expect("connection open until drop")
    }

    /// Runs `statement` over the wire outside any window.
    fn run_remote(
        &mut self,
        statement: usize,
    ) -> Result<(Vec<Answer>, omega_core::EvalStats), String> {
        let statement = self.statements[statement].clone();
        let mut stream = self
            .conn()
            .execute_prepared(&statement, &request(TOP_K, false))
            .map_err(|e| e.to_string())?;
        let mut answers = Vec::new();
        while let Some(answer) = stream.next_answer().map_err(|e| e.to_string())? {
            answers.push(answer);
        }
        let stats = stream.stats().ok_or("stream ended without Finished")?;
        Ok((answers, stats))
    }
}

impl Workload for ServeShort {
    const NAME: &'static str = "serve-short";
    const TAIL: f64 = 0.95;
    const EXPECTED: &'static str = include_str!("../../expected/serve-short.json");

    fn setup(seed: u64, scratch: &Scratch, tracer: &mut Tracer) -> Result<Self, String> {
        let data = l4all(L4AllScale::L2, tracer);
        let image = scratch.path("l2.snapshot");
        let built = Database::new(data.graph, data.ontology);
        tracer
            .scope("graph.snapshot.save", 0, || built.save_snapshot(&image))
            .map_err(|e| format!("save snapshot: {e}"))?;
        drop(built);
        let db = tracer
            .scope("graph.snapshot.open", 0, || Database::open_snapshot(&image))
            .map_err(|e| format!("open snapshot: {e}"))?;

        let socket = scratch.path("s.sock");
        let mut server = Server::new(db.clone());
        let listening = server.listen_unix(&socket);
        let handle = server.handle();
        let serving = std::thread::spawn(move || server.run());
        let mut workload = ServeShort {
            db,
            conn: None,
            server: handle,
            serving: Some(serving),
            statements: Vec::new(),
            references: Vec::new(),
            ops: Vec::new(),
            order: Rng::new(seed, 1),
            buf: Vec::new(),
            next_request: 0,
            image,
            traced_op_ms: Vec::new(),
        };
        // From here on an early return drops `workload`, which stops the
        // server thread.
        listening.map_err(|e| format!("listen {}: {e}", socket.display()))?;
        workload.conn =
            Some(Connection::connect_unix(&socket).map_err(|e| format!("connect: {e}"))?);
        let texts = short_statements();
        for text in &texts {
            let statement = workload
                .conn()
                .prepare(text)
                .map_err(|e| format!("{text}: {e}"))?;
            workload.statements.push(statement);
        }
        // The warm-up pass goes over the wire: its outcomes are the
        // references the timed ops are held against.
        for (index, text) in texts.iter().enumerate() {
            let (answers, _) = workload.run_remote(index)?;
            let seen = outcome(&answers, TOP_K).map_err(|e| format!("{text}: {e}"))?;
            workload.references.push((text.clone(), seen));
        }
        workload.ops = (0..texts.len() * REPEATS)
            .map(|i| i % texts.len())
            .collect();
        workload.order.shuffle(&mut workload.ops);
        Ok(workload)
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

    /// Wire against in-process: same answers in the same order and the same
    /// `EvalStats`, for every statement.
    fn verify(&mut self) -> Result<(), String> {
        for index in 0..self.statements.len() {
            let text = self.references[index].0.clone();
            let (remote, remote_stats) = self.run_remote(index)?;
            let prepared = self.db.prepare(&text).map_err(|e| e.to_string())?;
            let mut stream = prepared.answers(&request(TOP_K, false));
            let local = stream.collect_up_to(None).map_err(|e| e.to_string())?;
            if remote != local || remote_stats != stream.stats() {
                return Err(format!("wire and in-process disagree on {text}"));
            }
        }
        Ok(())
    }

    fn pass(&mut self, win: &mut Window, tracer: &mut Tracer, eval: &mut EvalAccum) {
        let request = &request(TOP_K, tracer.is_on());
        let conn = self.conn.as_mut().expect("connection open until drop");
        for &statement in &self.ops {
            self.next_request += 1;
            let id = self.next_request;
            win.attempted += 1;
            let started = Instant::now();
            let root = tracer.begin("op", id);
            let span = tracer.begin("client.execute", id);
            let stream = conn.execute_prepared(&self.statements[statement], request);
            tracer.end(span);
            let timing = stream
                .map_err(|e| format!("execute: {e}"))
                .and_then(|mut stream| {
                    let span = tracer.begin("client.stream", id);
                    let drained = drain(|| stream.next_answer(), &mut self.buf, started);
                    let total_ms = ms_since(started);
                    if tracer.is_on() {
                        // The server's own phases arrive in `Finished`: they are
                        // part of what the client waited for.
                        if let Some(profile) = stream.profile() {
                            record_phases(tracer, id, profile);
                        }
                        eval.note(stream.stats().unwrap_or_default(), self.buf.len());
                        self.traced_op_ms.push(total_ms);
                    }
                    drop(stream);
                    tracer.end(span);
                    drained
                        .map(|first_batch_ms| (total_ms, first_batch_ms))
                        .map_err(|e| format!("stream: {e}"))
                });
            tracer.end(root);
            let (text, reference) = &self.references[statement];
            settle(text, TOP_K, Some(reference), timing, &self.buf, win);
        }
        // A new order for the next pass: what an op costs depends on what ran
        // before it, and over many orders that averages out instead of
        // depending on the one order the seed drew.
        self.order.shuffle(&mut self.ops);
    }

    fn probes(&mut self, _scratch: &Scratch, layers: &mut Layers) -> Result<(), String> {
        // The same op list in-process, statements prepared ahead: what is
        // left of the wire latency is the wire stack.
        let prepared: Vec<PreparedQuery> = self
            .references
            .iter()
            .map(|(text, _)| self.db.prepare(text).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let plain = request(TOP_K, false);
        let mut local = Window::default();
        let mut tracer = Tracer::new(false);
        let mut eval = EvalAccum::default();
        let mut ctx = OpCtx {
            win: &mut local,
            tracer: &mut tracer,
            eval: &mut eval,
            buf: &mut self.buf,
            request: 0,
        };
        for _ in 0..8 {
            for &statement in &self.ops {
                let op = ReadOp {
                    source: ReadSource::Prepared(&prepared[statement]),
                    request: &plain,
                    limit: TOP_K,
                    reference: Some(&self.references[statement].1),
                };
                read_op(&op, &mut ctx);
            }
        }
        if local.failed > 0 {
            return Err(format!("in-process replay failed: {:?}", local.failures));
        }

        let mut replies = Vec::new();
        for index in 0..self.statements.len() {
            replies.push(self.run_remote(index)?.0);
        }
        probes::protocol(&replies, layers);
        let answers_per_op =
            replies.iter().map(Vec::len).sum::<usize>() as f64 / replies.len().max(1) as f64;
        let codec_ms = (layers.get("protocol.encode_ns_per_answer")
            + layers.get("protocol.decode_ns_per_answer"))
            * answers_per_op
            / 1e6;
        let overhead = median(&mut self.traced_op_ms) - median(&mut local.op_ms);
        layers.set("wire.overhead_ms", overhead);
        layers.set("wire.unexplained_ms", overhead - codec_ms);

        // What the daemon says of itself, through the Metrics frame.
        let exposed = self.conn().metrics().map_err(|e| e.to_string())?.text;
        let series = |name: &str| omega_obs::find_value(&exposed, name).unwrap_or(0.0);
        layers.set(
            "server.execute_p50_ms",
            series("omega_server_frame_ns{frame=\"execute\",quantile=\"0.5\"}") / 1e6,
        );
        let requests = series("omega_server_frame_ns_count{frame=\"execute\"}").max(1.0);
        layers.set(
            "server.bytes_out_per_request",
            series("omega_server_bytes_out_total") / requests,
        );
        let image_bytes = std::fs::metadata(&self.image).map_or(0, |m| m.len());
        layers.set(
            "graph.snapshot.bytes_per_edge",
            image_bytes as f64 / self.db.graph().edge_count().max(1) as f64,
        );
        Ok(())
    }
}

impl Drop for ServeShort {
    fn drop(&mut self) {
        // Close the connection, drain the server, and wait for its threads:
        // nothing this run started outlives it.
        self.conn = None;
        self.server.shutdown();
        if let Some(serving) = self.serving.take() {
            let _ = serving.join();
        }
    }
}
