//! End-to-end tests of the serving layer: an in-process `omega-server` on a
//! unix socket (TCP where noted), driven by `omega-client`.
//!
//! What the suite pins:
//!
//! * **bit-identical serving** — every committed L4All and YAGO query
//!   (exact, APPROX and RELAX, single- and multi-conjunct) answers over the
//!   wire exactly as in-process execution does: same answers, same order,
//!   same [`EvalStats`].
//! * **typed errors end-to-end** — parse errors (with position), deadline
//!   exceeded, governor overload (with its `retry_after` hint), unknown
//!   statements, version skew and foreign magic all surface as typed
//!   errors, never a panic or a hang.
//! * **lifecycle** — prepare/execute/stream/cancel work mid-stream and the
//!   connection remains usable; graceful drain under load finishes or
//!   drains every stream and returns every gauge to exactly zero.
//!
//! The suite serialises on a file-local mutex: the fault-injection slot is
//! process-global.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use omega::core::eval::fault::{install, FaultPlan, FaultPoint};
use omega::core::{Database, GovernorConfig, OmegaError};
use omega::datagen::{
    generate_l4all, generate_yago, l4all_multi_conjunct_queries, l4all_queries,
    yago_multi_conjunct_queries, yago_queries, L4AllConfig, L4AllScale, QuerySpec, YagoConfig,
};
use omega::ExecOptions;
use omega_client::{ClientError, Connection, Mutation};
use omega_protocol::{Frame, FrameReader, StatementRef, WireError, MAGIC};
use omega_server::{Server, ServerConfig, ServerHandle};

/// Serialises the suite (the fault slot is process-global).
fn serve_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh, collision-free unix socket path under the system temp dir.
fn socket_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("omega-serve-{}-{tag}-{n}.sock", std::process::id()))
}

/// Spawns a server over `db` on a fresh unix socket; returns the handle,
/// the socket path and the joiner for `Server::run`.
fn spawn_unix(db: Database, tag: &str) -> (ServerHandle, PathBuf, std::thread::JoinHandle<()>) {
    let config = ServerConfig {
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let mut server = Server::with_config(db, config);
    let path = socket_path(tag);
    server.listen_unix(&path).expect("bind unix socket");
    let handle = server.handle();
    let joiner = std::thread::spawn(move || server.run());
    (handle, path, joiner)
}

fn l4all_db() -> Database {
    let data = generate_l4all(&L4AllConfig::tiny());
    Database::new(data.graph, data.ontology)
}

fn yago_db() -> Database {
    let data = generate_yago(&YagoConfig::tiny());
    Database::new(data.graph, data.ontology)
}

/// In-process reference execution: answers plus final stats off one stream.
fn local_run(
    db: &Database,
    text: &str,
    options: &ExecOptions,
) -> (Vec<omega::Answer>, omega::core::EvalStats) {
    let prepared = db.prepare(text).expect("prepare locally");
    let mut stream = prepared.answers(options);
    let mut answers = Vec::new();
    while let Some(answer) = stream.next_answer().expect("local evaluation") {
        answers.push(answer);
    }
    let stats = stream.stats();
    (answers, stats)
}

/// Asserts that `text` answers bit-identically over the wire and in
/// process — same answers, same order, same [`omega::core::EvalStats`].
fn assert_wire_matches_local(
    db: &Database,
    conn: &mut Connection,
    text: &str,
    options: &ExecOptions,
) {
    let (local, local_stats) = local_run(db, text, options);
    let (remote, remote_stats) = conn.run(text, options).expect(text);
    assert_eq!(local, remote, "answer sequences differ for {text}");
    assert_eq!(local_stats, remote_stats, "EvalStats differ for {text}");
}

/// Every operator variant the committed study runs for `spec`.
fn variants(spec: &QuerySpec, everywhere: bool) -> Vec<String> {
    let mut texts = vec![spec.text.to_owned()];
    if spec.flexible_in_study {
        for op in ["APPROX", "RELAX"] {
            texts.push(if everywhere {
                spec.with_operator_everywhere(op)
            } else {
                spec.with_operator(op)
            });
        }
    }
    texts
}

/// The value of `name` in an exposition, which must carry it.
fn exposed(text: &str, name: &str) -> u64 {
    omega_obs::find_value(text, name).unwrap_or_else(|| panic!("{name} not exposed:\n{text}"))
        as u64
}

/// The value of `name` in the daemon's exposition — what a `Metrics` frame
/// returns, scraped through the handle.
fn series(handle: &ServerHandle, name: &str) -> u64 {
    exposed(&handle.metrics_text(), name)
}

/// Polls until every connection thread has counted itself out: shortly
/// after its peer hangs up, not by the time the client's `drop` returns —
/// and only then has it finished adding to the server's counters.
fn assert_connections_close(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while series(handle, "omega_server_connections_open") > 0 {
        assert!(Instant::now() < deadline, "a closed connection leaked");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Shuts a server down via its handle and joins `Server::run`.
fn drain(handle: &ServerHandle, joiner: std::thread::JoinHandle<()>) {
    handle.shutdown();
    joiner.join().expect("server run thread");
}

// ---------------------------------------------------------------------------
// Bit-identical serving across every committed query set
// ---------------------------------------------------------------------------

#[test]
fn l4all_query_set_is_bit_identical_over_the_wire() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "l4all");
    let mut conn = Connection::connect_unix(&path).expect("connect");
    let options = ExecOptions::new().with_limit(200);
    for spec in l4all_queries() {
        for text in variants(&spec, false) {
            assert_wire_matches_local(&db, &mut conn, &text, &options);
        }
    }
    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn yago_query_set_is_bit_identical_over_the_wire() {
    let _guard = serve_lock();
    let db = yago_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "yago");
    let mut conn = Connection::connect_unix(&path).expect("connect");
    let options = ExecOptions::new().with_limit(200);
    for spec in yago_queries() {
        for text in variants(&spec, false) {
            assert_wire_matches_local(&db, &mut conn, &text, &options);
        }
    }
    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn multi_conjunct_query_sets_are_bit_identical_over_the_wire() {
    let _guard = serve_lock();
    let options = ExecOptions::new().with_limit(100);
    for (db, specs, tag) in [
        (l4all_db(), l4all_multi_conjunct_queries(), "mc-l4all"),
        (yago_db(), yago_multi_conjunct_queries(), "mc-yago"),
    ] {
        let (handle, path, joiner) = spawn_unix(db.clone(), tag);
        let mut conn = Connection::connect_unix(&path).expect("connect");
        for spec in specs {
            for text in variants(&spec, true) {
                assert_wire_matches_local(&db, &mut conn, &text, &options);
            }
        }
        drop(conn);
        drain(&handle, joiner);
    }
}

#[test]
fn tcp_transport_serves_bit_identically_too() {
    let _guard = serve_lock();
    let db = l4all_db();
    let mut server = Server::new(db.clone());
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind tcp");
    let handle = server.handle();
    let joiner = std::thread::spawn(move || server.run());
    let mut conn = Connection::connect_tcp(addr).expect("connect tcp");
    let options = ExecOptions::new().with_limit(100);
    for spec in l4all_queries().into_iter().take(4) {
        assert_wire_matches_local(&db, &mut conn, spec.text, &options);
    }
    drop(conn);
    drain(&handle, joiner);
}

/// The benchmark's short-query mix (Q1/Q10/Q11/Q12 exact and APPROX, Q2
/// exact) and a multi-conjunct query, top-100 on L4All L1: every reply is
/// rows → table frames → client answers, and must equal in-process
/// execution bit for bit. Then one 100-answer reply under the microscope:
/// three frames, two writes, and byte counters that equal what crossed the
/// socket — read-ahead and write coalescing included.
#[test]
fn row_path_replies_are_bit_identical_coalesced_and_fully_counted() {
    let _guard = serve_lock();
    let data = generate_l4all(&L4AllConfig::at_scale(L4AllScale::L1));
    let db = Database::new(data.graph, data.ontology);
    let (handle, path, joiner) = spawn_unix(db.clone(), "rows");
    let options = ExecOptions::new().with_limit(100);

    let queries = l4all_queries();
    let mut statements: Vec<String> = [0, 9, 10, 11]
        .into_iter()
        .flat_map(|i| {
            [
                queries[i].text.to_owned(),
                queries[i].with_operator("APPROX"),
            ]
        })
        .collect();
    statements.push(queries[1].text.to_owned());
    statements.push(l4all_multi_conjunct_queries()[0].text.to_owned());
    let mut conn = Connection::connect_unix(&path).expect("connect");
    for text in &statements {
        assert_wire_matches_local(&db, &mut conn, text, &options);
    }
    drop(conn);

    // A raw peer, so every byte either way is this test's to count — once
    // the first connection's thread has counted its last write.
    assert_connections_close(&handle);
    let metrics_before = handle.metrics_text();
    let counter = |text: &str, name: &str| {
        omega_obs::find_value(text, name).unwrap_or_else(|| panic!("{name} exposed")) as u64
    };
    let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect raw");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = FrameReader::new(stream);
    let mut sent = 0;
    let mut send = |frame: &Frame| {
        sent += omega_protocol::write_frame(&mut writer, frame).expect("send") as u64;
        sent
    };
    send(&Frame::Hello {
        version: omega_protocol::PROTOCOL_VERSION,
    });
    assert!(matches!(
        reader.read_frame().expect("handshake"),
        Some(Frame::HelloOk { .. })
    ));
    send(&Frame::Execute {
        statement: StatementRef::Text(queries[0].text.to_owned()),
        options: options.clone(),
        credits: 256,
    });
    let mut batches = Vec::new();
    loop {
        match reader.read_frame().expect("reply").expect("frame") {
            Frame::Answers { answers } => batches.push(answers.len()),
            Frame::Finished { .. } => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(batches, [64, 36], "default batch size, limit 100");
    let received = reader.bytes_read();
    let sent = send(&Frame::Metrics);
    let Some(Frame::MetricsReply { text, .. }) = reader.read_frame().expect("metrics") else {
        panic!("expected MetricsReply");
    };
    // The exposition was rendered before its own reply was written.
    let delta = |name: &str| counter(&text, name) - counter(&metrics_before, name);
    assert_eq!(delta("omega_server_bytes_in_total"), sent);
    assert_eq!(delta("omega_server_bytes_out_total"), received);
    assert_eq!(
        delta("omega_server_writes_total"),
        3,
        "HelloOk, the first batch, the tail batch with Finished"
    );

    drop(reader);
    drop(writer);
    drain(&handle, joiner);
}

// ---------------------------------------------------------------------------
// Prepared statements and streaming lifecycle
// ---------------------------------------------------------------------------

#[test]
fn prepare_execute_close_lifecycle() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "lifecycle");
    let mut conn = Connection::connect_unix(&path).expect("connect");

    let spec = &l4all_queries()[0];
    let statement = conn.prepare(spec.text).expect("prepare");
    assert_eq!(statement.conjuncts, 1);
    assert_eq!(statement.head, vec!["X".to_owned()]);
    assert_eq!(series(&handle, "omega_server_statements_open"), 1);

    let options = ExecOptions::new().with_limit(50);
    let (local, local_stats) = local_run(&db, spec.text, &options);
    let mut stream = conn
        .execute_prepared(&statement, &options)
        .expect("execute prepared");
    let mut remote = Vec::new();
    while let Some(answer) = stream.next_answer().expect("stream") {
        remote.push(answer);
    }
    let remote_stats = stream.stats().expect("finished stream has stats");
    drop(stream);
    assert_eq!(local, remote);
    assert_eq!(local_stats, remote_stats);

    conn.close(statement.id).expect("close statement");
    assert_eq!(series(&handle, "omega_server_statements_open"), 0);
    // Closing twice is a typed error, and the connection stays usable.
    match conn.close(statement.id) {
        Err(ClientError::Remote(WireError::UnknownStatement(id))) => {
            assert_eq!(id, statement.id)
        }
        other => panic!("expected UnknownStatement, got {other:?}"),
    }
    conn.run(spec.text, &options).expect("connection reusable");

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn cancel_mid_stream_keeps_the_connection_usable() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "cancel");
    let mut conn = Connection::connect_unix(&path).expect("connect");
    // A window of one forces the server to pause for credits after the
    // first answer, so the cancel provably lands mid-stream.
    conn.set_window(1);

    let spec = &l4all_queries()[4]; // (?X, ?Y) <- (?X, next+, ?Y): many answers
    let mut stream = conn
        .execute_text(spec.text, &ExecOptions::new())
        .expect("execute");
    let first = stream.next_answer().expect("first answer");
    assert!(first.is_some(), "query should produce answers");
    stream.cancel().expect("cancel acknowledged");

    // The stream's execution is gone server-side: gauges return to zero.
    let deadline = Instant::now() + Duration::from_secs(5);
    while series(&handle, "omega_server_streams_in_flight") > 0 {
        assert!(Instant::now() < deadline, "stream leaked after cancel");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(series(&handle, "omega_govern_executions"), 0);

    // Same connection serves the next request.
    conn.set_window(64);
    let (answers, _) = conn
        .run(spec.text, &ExecOptions::new().with_limit(10))
        .expect("connection reusable after cancel");
    assert_eq!(answers.len(), 10);

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn dropping_the_connection_cancels_in_flight_work() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "disconnect");
    {
        let mut conn = Connection::connect_unix(&path).expect("connect");
        conn.set_window(1);
        let spec = &l4all_queries()[4];
        let mut stream = conn
            .execute_text(spec.text, &ExecOptions::new())
            .expect("execute");
        assert!(stream.next_answer().expect("first answer").is_some());
        // Vanish without cancel: drop the stream (which tries a best-effort
        // abort) and the connection together by shutting the socket first.
        std::mem::forget(stream);
    }
    // The server notices the EOF and cancels the execution.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let text = handle.metrics_text();
        if exposed(&text, "omega_server_streams_in_flight") == 0
            && exposed(&text, "omega_server_connections_open") == 0
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "in-flight stream or connection leaked after disconnect:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(series(&handle, "omega_govern_executions"), 0);
    drain(&handle, joiner);
}

// ---------------------------------------------------------------------------
// Typed errors end-to-end
// ---------------------------------------------------------------------------

#[test]
fn engine_errors_cross_the_wire_typed() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "errors");
    let mut conn = Connection::connect_unix(&path).expect("connect");

    // Parse error, with its position preserved.
    let local = db.prepare("(?X <- nonsense").unwrap_err();
    match conn.run("(?X <- nonsense", &ExecOptions::new()) {
        Err(ClientError::Remote(WireError::Engine(remote))) => {
            assert_eq!(format!("{remote:?}"), format!("{local:?}"));
        }
        other => panic!("expected remote parse error, got {other:?}"),
    }

    // Deadline exceeded: a zero timeout expires before evaluation starts.
    let options = ExecOptions::new().with_timeout(Duration::ZERO);
    match conn.run(l4all_queries()[0].text, &options) {
        Err(ClientError::Remote(WireError::Engine(OmegaError::DeadlineExceeded))) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Unknown statement id.
    match conn.execute(StatementRef::Id(777), &ExecOptions::new()) {
        Ok(mut stream) => match stream.next_answer() {
            Err(ClientError::Remote(WireError::UnknownStatement(777))) => {}
            other => panic!("expected UnknownStatement, got {other:?}"),
        },
        Err(e) => panic!("execute itself should not fail: {e}"),
    }

    // The connection survived three typed failures.
    conn.run(l4all_queries()[0].text, &ExecOptions::new().with_limit(1))
        .expect("connection usable after typed errors");

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn governor_overload_rejection_carries_retry_after() {
    let _guard = serve_lock();
    let data = generate_l4all(&L4AllConfig::tiny());
    // A one-token bucket that essentially never refills: the first request
    // is admitted, the second rejected at the edge.
    let db = Database::with_governor(
        data.graph,
        data.ontology,
        omega::EvalOptions::default(),
        GovernorConfig::default()
            .with_admission_rate(1e-6, 1)
            .with_retry_after(Duration::from_millis(123)),
    );
    let (handle, path, joiner) = spawn_unix(db, "overload");
    let mut conn = Connection::connect_unix(&path).expect("connect");

    let text = l4all_queries()[0].text;
    conn.run(text, &ExecOptions::new().with_limit(5))
        .expect("first request admitted");
    match conn.run(text, &ExecOptions::new().with_limit(5)) {
        Err(ClientError::Remote(err)) => {
            let retry = err.retry_after().expect("overload carries retry_after");
            assert!(
                retry >= Duration::from_millis(123),
                "retry_after hint lost: {retry:?}"
            );
            assert!(matches!(
                err,
                WireError::Engine(OmegaError::Overloaded { .. })
            ));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(series(&handle, "omega_server_rejected_total") >= 1);
    assert_eq!(series(&handle, "omega_govern_rejected_total"), 1);

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn version_skew_and_bad_magic_fail_typed_not_panic() {
    let _guard = serve_lock();
    let (handle, path, joiner) = spawn_unix(l4all_db(), "skew");

    // Version skew: a future client version — and a past one, whose
    // `Answers` layout this server no longer speaks — is answered with a
    // typed VersionSkew naming both sides.
    for version in [99, omega_protocol::PROTOCOL_VERSION - 1] {
        let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect raw");
        let mut writer = stream.try_clone().expect("clone");
        omega_protocol::write_frame(&mut writer, &Frame::Hello { version }).expect("send");
        let mut reader = FrameReader::new(stream);
        match reader.read_frame().expect("reply") {
            Some(Frame::Fail {
                error: WireError::VersionSkew { client, server },
            }) => {
                assert_eq!(client, version);
                assert_eq!(server, omega_protocol::PROTOCOL_VERSION);
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
    }

    // Foreign magic: a peer speaking some other protocol gets a typed
    // failure (and a closed socket), never a panic.
    {
        use std::io::Write;
        let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect raw");
        let mut payload = vec![0x01u8];
        payload.extend_from_slice(b"NOTOMEGA");
        payload.extend_from_slice(&1u32.to_le_bytes());
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        stream.write_all(&wire).expect("send");
        stream.flush().expect("flush");
        let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
        match reader.read_frame().expect("reply") {
            Some(Frame::Fail {
                error: WireError::Malformed(message),
            }) => assert!(message.contains("magic"), "unhelpful message: {message}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // The server hung up afterwards.
        assert!(matches!(reader.read_frame(), Ok(None)));
    }

    assert_connections_close(&handle);
    drain(&handle, joiner);
    assert_eq!(MAGIC, *b"OMEGWIRE");
}

// ---------------------------------------------------------------------------
// Graceful drain under load
// ---------------------------------------------------------------------------

#[test]
fn shutdown_under_load_drains_streams_and_zeroes_gauges() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "drain");

    // An in-flight stream parked on credits: window 1, nothing consumed
    // beyond the first answer.
    let mut parked = Connection::connect_unix(&path).expect("connect parked");
    parked.set_window(1);
    let spec = &l4all_queries()[4];
    let mut stream = parked
        .execute_text(spec.text, &ExecOptions::new())
        .expect("execute");
    let mut got = Vec::new();
    let first = stream.next_answer().expect("first answer").expect("answer");
    got.push(first);
    assert_eq!(series(&handle, "omega_server_streams_in_flight"), 1);

    // A second client asks the daemon to shut down.
    let mut admin = Connection::connect_unix(&path).expect("connect admin");
    admin.shutdown_server().expect("shutdown accepted");
    assert!(handle.is_draining());

    // New work is refused: either the typed Shutdown error (the request
    // won the race against the idle-connection close) or a clean hangup.
    match admin.run(spec.text, &ExecOptions::new()) {
        Err(ClientError::Remote(WireError::Shutdown)) => {}
        Err(ClientError::Protocol(_)) => {}
        other => panic!("expected Shutdown rejection or hangup, got {other:?}"),
    }

    // The parked stream ends at its batch boundary with a Drained finish;
    // everything already received is a correct rank-order prefix.
    while let Some(answer) = stream.next_answer().expect("drained stream") {
        got.push(answer);
    }
    assert_eq!(
        stream.finish_reason(),
        Some(omega_protocol::FinishReason::Drained)
    );
    let (local, _) = local_run(&db, spec.text, &ExecOptions::new());
    assert!(got.len() <= local.len());
    assert_eq!(got[..], local[..got.len()], "drained prefix diverged");
    drop(stream);

    // Connections close, the server run loop exits, and every gauge is
    // back at exactly zero.
    drop(parked);
    drop(admin);
    joiner.join().expect("server drained");
    let text = handle.metrics_text();
    for series in [
        "omega_server_connections_open",
        "omega_server_streams_in_flight",
        "omega_server_statements_open",
        "omega_govern_executions",
        "omega_govern_live_tuples",
        "omega_govern_join_buffer_entries",
    ] {
        assert_eq!(exposed(&text, series), 0, "{series} after drain");
    }
    assert!(
        exposed(&text, "omega_server_drained_total") >= 1,
        "drained stream not counted"
    );
}

// ---------------------------------------------------------------------------
// Socket-path hygiene
// ---------------------------------------------------------------------------

#[test]
fn listen_unix_refuses_live_sockets_and_reclaims_stale_ones() {
    let _guard = serve_lock();
    let path = socket_path("hygiene");

    // A live server owns its path: a second daemon binding the same path
    // must fail with AddrInUse instead of silently stealing the socket
    // file (which would leave the first daemon accepting on an unlinked
    // inode no client can reach).
    let (handle, bound_path, joiner) = {
        let mut server = Server::new(l4all_db());
        server.listen_unix(&path).expect("first bind");
        let handle = server.handle();
        let joiner = std::thread::spawn(move || server.run());
        (handle, path.clone(), joiner)
    };
    let mut rival = Server::new(l4all_db());
    let err = rival
        .listen_unix(&bound_path)
        .expect_err("second bind over a live server must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    // The live server is untouched: a client still connects through the
    // original socket file.
    Connection::connect_unix(&bound_path).expect("live server still reachable");
    drain(&handle, joiner);
    rival.handle().shutdown();
    rival.run();

    // A stale socket file — left behind by a crashed daemon — is
    // reclaimed: nothing accepts on it, so the bind cleans up and
    // proceeds.
    let stale = socket_path("stale");
    drop(std::os::unix::net::UnixListener::bind(&stale).expect("make stale socket"));
    assert!(stale.exists(), "dropping a listener should leave the file");
    let mut server = Server::new(l4all_db());
    server.listen_unix(&stale).expect("stale socket reclaimed");
    let handle = server.handle();
    let joiner = std::thread::spawn(move || server.run());
    Connection::connect_unix(&stale).expect("connect over reclaimed path");
    drain(&handle, joiner);

    // A path occupied by a non-socket file is never deleted.
    let decoy = socket_path("decoy");
    std::fs::write(&decoy, b"not a socket").expect("write decoy");
    let mut server = Server::new(l4all_db());
    let err = server
        .listen_unix(&decoy)
        .expect_err("binding over a regular file must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    assert_eq!(
        std::fs::read(&decoy).expect("decoy survives"),
        b"not a socket"
    );
    std::fs::remove_file(&decoy).expect("cleanup");
    server.handle().shutdown();
    server.run();
}

// ---------------------------------------------------------------------------
// Live mutation over the wire
// ---------------------------------------------------------------------------

#[test]
fn wire_mutations_pin_old_statements_and_refresh_new_ones() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "mutate");
    let mut conn = Connection::connect_unix(&path).expect("connect");
    let options = ExecOptions::new().with_limit(200);

    // A statement prepared before any mutation pins epoch 0.
    let spec = &l4all_queries()[0];
    let statement = conn.prepare(spec.text).expect("prepare");
    let (baseline, _) = local_run(&db, spec.text, &options);

    // Mutate through the wire: brand-new nodes and a brand-new label, so
    // the committed query set is untouched.
    let mut first = Mutation::new();
    first.add("Live Node A", "liveknows", "Live Node B").add(
        "Live Node B",
        "liveknows",
        "Live Node C",
    );
    let report = conn.mutate(&first).expect("mutate");
    assert_eq!((report.epoch, report.added, report.removed), (1, 2, 0));
    // The server db and this test share one storage slot.
    assert_eq!(db.epoch(), 1);

    // The pre-mutation statement still answers from its pinned epoch…
    let mut stream = conn
        .execute_prepared(&statement, &options)
        .expect("execute pinned statement");
    let mut pinned = Vec::new();
    while let Some(answer) = stream.next_answer().expect("pinned stream") {
        pinned.push(answer);
    }
    drop(stream);
    assert_eq!(pinned, baseline, "pinned statement saw the mutation");

    // …while fresh text execution sees the new edges.
    let live_query = "(?X) <- (Live Node A, liveknows+, ?X)";
    let (answers, _) = conn.run(live_query, &options).expect("query new edges");
    let bound: Vec<&str> = answers.iter().map(|a| a.get("X").expect("bound")).collect();
    assert_eq!(bound, ["Live Node B", "Live Node C"]);

    // Removal is symmetric; unknown edges are not counted.
    let mut second = Mutation::new();
    second
        .remove("Live Node B", "liveknows", "Live Node C")
        .remove("Never", "liveknows", "Existed");
    let report = conn.mutate(&second).expect("mutate remove");
    assert_eq!((report.epoch, report.added, report.removed), (2, 0, 1));
    let (answers, _) = conn.run(live_query, &options).expect("query after remove");
    assert_eq!(answers.len(), 1, "removed edge still reachable");

    // An empty batch is a no-op that does not spend an epoch.
    let report = conn.mutate(&Mutation::new()).expect("empty mutate");
    assert_eq!((report.epoch, report.added, report.removed), (2, 0, 0));
    assert_eq!(db.epoch(), 2);

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn mutations_under_traffic_stay_clean_and_background_compaction_runs() {
    let _guard = serve_lock();
    let db = l4all_db();
    // Threshold 1: every effective mutation arms the background compactor,
    // so the soak exercises mutate/compact/query interleavings hard.
    let config = ServerConfig {
        poll_interval: Duration::from_millis(5),
        compact_threshold: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::with_config(db.clone(), config);
    let path = socket_path("soak");
    server.listen_unix(&path).expect("bind unix socket");
    let handle = server.handle();
    let joiner = std::thread::spawn(move || server.run());

    let spec = &l4all_queries()[0];
    let options = ExecOptions::new().with_limit(200);
    let (baseline, _) = local_run(&db, spec.text, &options);

    // Readers hammer a committed query; the writer's edges use fresh nodes
    // and a fresh label, so every read must keep answering the baseline
    // bit-identically no matter which epoch it lands on.
    let mut threads = Vec::new();
    for reader in 0..3 {
        let path = path.clone();
        let options = options.clone();
        let baseline = baseline.clone();
        let text = spec.text.to_owned();
        threads.push(std::thread::spawn(move || {
            let mut conn = Connection::connect_unix(&path).expect("reader connect");
            for round in 0..15 {
                let (answers, _) = conn.run(&text, &options).expect("reader query");
                assert_eq!(answers, baseline, "reader {reader} round {round} diverged");
            }
        }));
    }
    let writer_path = path.clone();
    threads.push(std::thread::spawn(move || {
        let mut conn = Connection::connect_unix(&writer_path).expect("writer connect");
        for i in 0..25 {
            let mut mutation = Mutation::new();
            mutation.add("Soak A", &format!("soak{i}"), "Soak B");
            if i % 2 == 1 {
                mutation.remove("Soak A", &format!("soak{}", i - 1), "Soak B");
            }
            let report = conn.mutate(&mutation).expect("writer mutate");
            assert!(report.added >= 1);
        }
    }));
    for thread in threads {
        thread.join().expect("soak thread");
    }

    // Every mutation landed as its own epoch (compactions add more).
    assert!(db.epoch() >= 25, "epochs not advancing: {}", db.epoch());

    // The background compactor converges: keep nudging it (an empty batch
    // re-arms the trigger without spending an epoch) until the overlay is
    // folded into a fresh frozen CSR.
    let mut conn = Connection::connect_unix(&path).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.graph().overlay_edges() > 0 {
        assert!(Instant::now() < deadline, "background compaction stalled");
        conn.mutate(&Mutation::new()).expect("nudge compactor");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Post-soak the graph still serves the baseline, and the drain leaves
    // every gauge at zero.
    let (answers, _) = conn.run(spec.text, &options).expect("post-soak query");
    assert_eq!(answers, baseline);
    drop(conn);
    drain(&handle, joiner);
    let text = handle.metrics_text();
    for series in [
        "omega_govern_executions",
        "omega_govern_live_tuples",
        "omega_server_streams_in_flight",
    ] {
        assert_eq!(exposed(&text, series), 0, "{series} after soak");
    }
}

// ---------------------------------------------------------------------------
// Observability over the wire
// ---------------------------------------------------------------------------

#[test]
fn metrics_frame_round_trips_and_server_histogram_matches_client_view() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "metrics");
    let mut conn = Connection::connect_unix(&path).expect("connect");

    let text = l4all_queries()[0].text;
    let options = ExecOptions::new().with_limit(50);
    let mut latencies: Vec<Duration> = Vec::new();
    for _ in 0..16 {
        let start = Instant::now();
        conn.run(text, &options).expect("probe request");
        latencies.push(start.elapsed());
    }
    latencies.sort_unstable();
    let client_p50 = latencies[latencies.len() / 2];

    let snapshot = conn.metrics().expect("metrics frame");
    assert_eq!(snapshot.version, omega_protocol::METRICS_EXPOSITION_VERSION);
    assert!(
        snapshot.text.starts_with(omega_obs::EXPOSITION_HEADER),
        "unexpected exposition:\n{}",
        snapshot.text
    );
    // Engine counters made it into the server's registry.
    let executions = omega_obs::find_value(&snapshot.text, "omega_core_executions_total")
        .expect("executions counter exposed");
    assert!(
        executions >= 16.0,
        "executions counter too low: {executions}"
    );
    // The per-frame histogram saw every execute frame, and its median
    // agrees with the client's observed latency to within a histogram
    // bucket plus scheduling noise.
    let count = omega_obs::find_value(
        &snapshot.text,
        "omega_server_frame_ns_count{frame=\"execute\"}",
    )
    .expect("execute frame histogram exposed");
    assert!(count >= 16.0, "execute frame count too low: {count}");
    let server_p50_ns = omega_obs::find_value(
        &snapshot.text,
        "omega_server_frame_ns{frame=\"execute\",quantile=\"0.5\"}",
    )
    .expect("execute frame p50 exposed");
    let server_p50 = Duration::from_nanos(server_p50_ns as u64);
    let tolerance = client_p50.max(Duration::from_millis(10));
    let gap = server_p50.abs_diff(client_p50);
    assert!(
        gap <= tolerance,
        "server p50 {server_p50:?} vs client p50 {client_p50:?} (tolerance {tolerance:?})"
    );

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn metrics_frame_exposes_every_server_counter_once() {
    let _guard = serve_lock();
    let (handle, path, joiner) = spawn_unix(l4all_db(), "countermetrics");
    let mut conn = Connection::connect_unix(&path).expect("connect");

    // One drained request, one statement left open and one typed failure,
    // so none of the checked series is trivially zero.
    let spec = &l4all_queries()[0];
    conn.run(spec.text, &ExecOptions::new().with_limit(50))
        .expect("drained request");
    let statement = conn.prepare(spec.text).expect("prepare");
    assert!(conn.close(statement.id + 1).is_err());

    let text = conn.metrics().expect("metrics").text;
    let value = |name| exposed(&text, name);
    assert_eq!(value("omega_server_connections_total"), 1);
    assert_eq!(value("omega_server_streams_in_flight"), 0);
    assert_eq!(value("omega_server_drained_total"), 0);
    assert_eq!(
        (
            value("omega_server_connections_open"),
            value("omega_server_statements_open"),
            value("omega_server_rejected_total")
        ),
        (1, 1, 1)
    );
    assert!(value("omega_server_answers_streamed_total") > 0);
    // Sheds and core degrades are counted once, by the engine.
    assert_eq!(value("omega_govern_sheds_total"), 0);
    assert_eq!(value("omega_core_degraded_total"), 0);
    for duplicate in ["omega_server_sheds_total", "omega_server_degraded_total"] {
        assert_eq!(omega_obs::find_value(&text, duplicate), None, "{duplicate}");
    }

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn profile_travels_the_wire_only_when_requested() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "profile");
    let mut conn = Connection::connect_unix(&path).expect("connect");
    let spec = &l4all_multi_conjunct_queries()[0];
    let options = ExecOptions::new().with_limit(50);

    // Without the flag: no profile in the Finished frame.
    let mut stream = conn.execute_text(spec.text, &options).expect("execute");
    while stream.next_answer().expect("stream").is_some() {}
    assert!(stream.profile().is_none(), "unrequested profile travelled");
    drop(stream);

    // With the flag: the per-phase breakdown arrives with the Finished
    // frame, covering parse through streaming.
    let mut stream = conn
        .execute_text(spec.text, &options.clone().with_profile(true))
        .expect("execute profiled");
    while stream.next_answer().expect("profiled stream").is_some() {}
    let profile = stream.profile().expect("profile requested").clone();
    drop(stream);
    for phase in [
        "parse",
        "compile",
        "conjunct_0",
        "rank_join",
        "streaming",
        "total",
    ] {
        assert!(
            profile.get(phase).is_some(),
            "phase {phase} missing from wire profile:\n{profile}"
        );
    }
    assert!(
        profile.get("total").expect("total phase") > 0,
        "total phase must be non-zero"
    );

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn metrics_frame_carries_epoch_overlay_uptime_and_cache_occupancy() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "storagemetrics");
    let mut conn = Connection::connect_unix(&path).expect("connect");

    let before = conn.metrics().expect("metrics").text;
    assert_eq!(exposed(&before, "omega_core_epoch"), 0);
    assert_eq!(exposed(&before, "omega_core_overlay_edges"), 0);

    // Text execution populates the prepared cache; a mutation advances the
    // epoch and lands one overlay edge.
    conn.run(l4all_queries()[0].text, &ExecOptions::new().with_limit(1))
        .expect("prime the prepared cache");
    let mut mutation = Mutation::new();
    mutation.add("Stats A", "statslink", "Stats B");
    conn.mutate(&mutation).expect("mutate");

    let after = conn.metrics().expect("metrics after").text;
    assert_eq!(exposed(&after, "omega_core_epoch"), 1, "epoch not exposed");
    assert_eq!(
        exposed(&after, "omega_core_overlay_edges"),
        1,
        "overlay edges not exposed"
    );
    assert!(
        exposed(&after, "omega_core_prepared_cache_entries") >= 1,
        "prepared cache occupancy missing:\n{after}"
    );
    // Uptime is seconds-granular; it must simply never run backwards.
    assert!(
        exposed(&after, "omega_server_uptime_secs") >= exposed(&before, "omega_server_uptime_secs")
    );

    drop(conn);
    drain(&handle, joiner);
}

#[test]
fn metrics_frame_reports_durability_state_for_a_wal_backed_database() {
    let _guard = serve_lock();
    let dir = std::env::temp_dir().join(format!("omega-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = generate_l4all(&L4AllConfig::tiny());
    let (db, _) = Database::with_governor_durable(
        data.graph,
        data.ontology,
        omega::core::EvalOptions::default(),
        GovernorConfig::default(),
        &omega::core::WalConfig::new(&dir),
    )
    .expect("durable open");
    let (handle, path, joiner) = spawn_unix(db, "walmetrics");
    let mut conn = Connection::connect_unix(&path).expect("connect");

    let before = conn.metrics().expect("metrics").text;
    assert_eq!(
        exposed(&before, "omega_core_wal_seq"),
        0,
        "no mutations logged yet"
    );
    assert_eq!(exposed(&before, "omega_core_durable_epoch"), 0);

    let mut mutation = Mutation::new();
    mutation.add("Crash A", "wallink", "Crash B");
    conn.mutate(&mutation).expect("mutate");

    let after = conn.metrics().expect("metrics after").text;
    assert_eq!(
        exposed(&after, "omega_core_wal_seq"),
        1,
        "WAL sequence not exposed:\n{after}"
    );
    assert_eq!(
        exposed(&after, "omega_core_durable_epoch"),
        exposed(&after, "omega_core_epoch"),
        "fsync=always: the published epoch must be durable:\n{after}"
    );

    drop(conn);
    drain(&handle, joiner);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Chaos: injected faults surface as typed wire errors
// ---------------------------------------------------------------------------

/// Injected budget faults at rate 1.0 fail every execution at its first
/// budget check; the failure must arrive as the typed `ResourceExhausted`,
/// over a connection that then serves clean traffic.
#[test]
fn injected_channel_faults_surface_as_typed_wire_errors() {
    let _guard = serve_lock();
    let db = l4all_db();
    let (handle, path, joiner) = spawn_unix(db.clone(), "chaos");
    let spec = &l4all_multi_conjunct_queries()[0];
    let options = ExecOptions::new().with_limit(50);

    for seed in [3u64, 42, 31337] {
        let plan = std::sync::Arc::new(FaultPlan::new(seed, 1.0).only(FaultPoint::BudgetAcquire));
        let guard = install(plan);
        let mut conn = Connection::connect_unix(&path).expect("connect");
        match conn.run(spec.text, &options) {
            Err(ClientError::Remote(WireError::Engine(OmegaError::ResourceExhausted {
                ..
            }))) => {}
            other => panic!("seed {seed}: expected a typed ResourceExhausted, got {other:?}"),
        }
        drop(guard);
        // The same connection serves clean traffic again.
        conn.run(spec.text, &ExecOptions::new().with_limit(5))
            .expect("connection usable after injected fault");
        drop(conn);
    }
    assert_eq!(series(&handle, "omega_govern_executions"), 0);
    drain(&handle, joiner);
}
