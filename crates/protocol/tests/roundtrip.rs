//! Property-based round-trip and corruption coverage for the wire format.
//!
//! Mirrors `tests/snapshot.rs`'s posture for the snapshot container: every
//! frame the protocol can express must survive encode → decode bit-for-bit,
//! and *no* byte stream — truncated, bit-flipped, oversized or random — may
//! ever panic the decoder. Corruption always surfaces as a typed
//! [`ProtocolError`]. The `Answers` table layout gets the write-ahead log
//! soak's treatment on top: cut at every byte, corrupt every byte.

use std::time::Duration;

use omega_core::{
    Answer, Bindings, EvalStats, ExecOptions, OmegaError, OverloadPolicy, QueryProfile,
    TruncationReason,
};
use omega_protocol::{
    write_frame, FinishReason, Frame, FrameReader, ProtocolError, RowFrame, StatementRef,
    WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use omega_regex::RegexParseError;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Short strings over a mixed ASCII/Unicode alphabet (enough to exercise
/// UTF-8 length handling without gigantic frames).
fn text() -> BoxedStrategy<String> {
    prop::collection::vec(prop_oneof![('a'..'{').boxed(), ('À'..'京').boxed()], 0..12)
        .prop_map(|chars| chars.into_iter().collect())
        .boxed()
}

fn duration() -> BoxedStrategy<Duration> {
    (0u64..u64::MAX).prop_map(Duration::from_nanos).boxed()
}

fn opt<T: 'static>(inner: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    (any::<bool>(), inner)
        .prop_map(|(present, value)| present.then_some(value))
        .boxed()
}

fn engine_error() -> BoxedStrategy<OmegaError> {
    prop_oneof![
        (any::<usize>(), text())
            .prop_map(|(position, message)| OmegaError::Parse { position, message }),
        (any::<usize>(), text()).prop_map(|(position, message)| OmegaError::Regex(
            RegexParseError { position, message }
        )),
        text().prop_map(OmegaError::UnknownConstant),
        text().prop_map(OmegaError::UnboundHeadVariable),
        Just(OmegaError::EmptyQuery),
        any::<usize>().prop_map(|tuples| OmegaError::ResourceExhausted { tuples }),
        Just(OmegaError::DeadlineExceeded),
        Just(OmegaError::Cancelled),
        duration().prop_map(|retry_after| OmegaError::Overloaded { retry_after }),
        text().prop_map(|message| OmegaError::Internal { message }),
    ]
    .boxed()
}

fn wire_error() -> BoxedStrategy<WireError> {
    prop_oneof![
        engine_error().prop_map(WireError::Engine),
        any::<u64>().prop_map(WireError::UnknownStatement),
        (any::<u32>(), any::<u32>())
            .prop_map(|(client, server)| WireError::VersionSkew { client, server }),
        text().prop_map(WireError::Malformed),
        Just(WireError::Shutdown),
    ]
    .boxed()
}

fn policy() -> BoxedStrategy<OverloadPolicy> {
    prop_oneof![
        Just(OverloadPolicy::Fail),
        Just(OverloadPolicy::Degrade),
        Just(OverloadPolicy::Shed),
    ]
    .boxed()
}

/// Options as they appear after a wire round trip: any `deadline` has been
/// folded into `timeout`, so only `timeout` is generated here.
fn exec_options() -> BoxedStrategy<ExecOptions> {
    let knobs = (
        opt((0usize..1 << 48).boxed()),
        opt(duration()),
        opt(any::<u32>().boxed()),
        opt((0usize..1 << 48).boxed()),
    );
    (knobs, policy(), any::<bool>())
        .prop_map(|(knobs, on_overload, profile)| {
            let (limit, timeout, max_distance, max_tuples) = knobs;
            ExecOptions {
                limit,
                timeout,
                deadline: None,
                max_distance,
                max_tuples,
                on_overload,
                profile,
            }
        })
        .boxed()
}

fn answer() -> BoxedStrategy<Answer> {
    (prop::collection::vec((text(), text()), 0..5), any::<u32>())
        .prop_map(|(pairs, distance)| Answer {
            bindings: pairs.into_iter().collect::<Bindings>(),
            distance,
        })
        .boxed()
}

fn eval_stats() -> BoxedStrategy<EvalStats> {
    (
        prop::collection::vec(any::<u64>(), 12..13),
        any::<bool>(),
        opt(prop_oneof![
            Just(TruncationReason::TupleBudget),
            Just(TruncationReason::PoolExhausted)
        ]
        .boxed()),
    )
        .prop_map(|(counters, degraded, truncation)| EvalStats {
            tuples_added: counters[0],
            tuples_processed: counters[1],
            succ_calls: counters[2],
            neighbour_lookups: counters[3],
            answers: counters[4],
            suppressed: counters[5],
            pruned_dead: counters[6],
            pruned_bound: counters[7],
            deferred_expansions: counters[8],
            cursor_blocks: counters[9],
            raised_keys: counters[10],
            sheds: counters[11],
            degraded,
            truncation,
        })
        .boxed()
}

fn query_profile() -> BoxedStrategy<QueryProfile> {
    prop::collection::vec((text(), any::<u64>()), 0..8)
        .prop_map(|phases| {
            let mut profile = QueryProfile::new();
            for (name, nanos) in phases {
                profile.push(name, nanos);
            }
            profile
        })
        .boxed()
}

fn frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        Just(Frame::Hello {
            version: PROTOCOL_VERSION
        }),
        text().prop_map(|text| Frame::Prepare { text }),
        (
            prop_oneof![
                any::<u64>().prop_map(StatementRef::Id),
                text().prop_map(StatementRef::Text)
            ]
            .boxed(),
            exec_options(),
            any::<u32>()
        )
            .prop_map(|(statement, options, credits)| Frame::Execute {
                statement,
                options,
                credits
            }),
        any::<u32>().prop_map(|credits| Frame::Fetch { credits }),
        Just(Frame::Cancel),
        any::<u64>().prop_map(|id| Frame::Close { id }),
        Just(Frame::Metrics),
        Just(Frame::Shutdown),
        text().prop_map(|server| Frame::HelloOk {
            version: PROTOCOL_VERSION,
            server
        }),
        (
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec(text(), 0..4)
        )
            .prop_map(|(id, conjuncts, head)| Frame::Prepared {
                id,
                conjuncts,
                head
            }),
        prop::collection::vec(answer(), 0..6).prop_map(|answers| Frame::Answers { answers }),
        (
            eval_stats(),
            prop_oneof![Just(FinishReason::Complete), Just(FinishReason::Drained)].boxed(),
            opt(query_profile())
        )
            .prop_map(|(stats, reason, profile)| Frame::Finished {
                stats,
                reason,
                profile
            }),
        wire_error().prop_map(|error| Frame::Fail { error }),
        (any::<u32>(), text()).prop_map(|(version, text)| Frame::MetricsReply { version, text }),
        Just(Frame::Closed),
        Just(Frame::ShutdownOk),
    ]
    .boxed()
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

proptest! {
    /// Every frame survives payload encode → decode bit-for-bit.
    #[test]
    fn frame_payload_round_trips(frame in frame()) {
        let payload = frame.encode();
        let back = Frame::decode(&payload).expect("valid payload decodes");
        prop_assert_eq!(back, frame);
    }

    /// Every frame survives the full wire path — length prefix, writer,
    /// buffered reader — including several frames back to back.
    #[test]
    fn frame_stream_round_trips(frames in prop::collection::vec(frame(), 1..5)) {
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).expect("write succeeds");
        }
        let mut reader = FrameReader::new(&wire[..]);
        for frame in &frames {
            let got = reader.read_frame().expect("decode").expect("frame present");
            prop_assert_eq!(&got, frame);
        }
        prop_assert_eq!(reader.read_frame().expect("clean end"), None);
    }

    /// Truncating a valid stream at any byte yields `Truncated` — typed,
    /// never a panic, never a bogus frame.
    #[test]
    fn truncation_is_always_typed(frame in frame(), cut in any::<usize>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("write succeeds");
        let cut = 1 + cut % (wire.len() - 1).max(1);
        if cut >= wire.len() {
            return;
        }
        let mut reader = FrameReader::new(&wire[..cut]);
        let got = reader.read_frame();
        prop_assert!(
            matches!(got, Err(ProtocolError::Truncated)),
            "cut at {} gave {:?}",
            cut,
            got
        );
    }

    /// Bit-flipping a valid payload never panics the decoder: it either
    /// still decodes (the flip hit a don't-care bit such as a numeric
    /// field) or fails with a typed error.
    #[test]
    fn bit_flips_never_panic(frame in frame(), pos in any::<usize>(), bit in 0u8..8) {
        let mut payload = frame.encode();
        let idx = pos % payload.len();
        payload[idx] ^= 1 << bit;
        let _ = Frame::decode(&payload);
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&bytes);
        let mut reader = FrameReader::new(&bytes[..]);
        while let Ok(Some(_)) = reader.read_frame() {}
    }
}

// ---------------------------------------------------------------------------
// Directed corruption cases (the snapshot.rs quartet)
// ---------------------------------------------------------------------------

#[test]
fn bad_magic_is_rejected_with_the_bytes_found() {
    let mut payload = Frame::Hello {
        version: PROTOCOL_VERSION,
    }
    .encode();
    payload[1..9].copy_from_slice(b"NOTOMEGA");
    assert_eq!(
        Frame::decode(&payload),
        Err(ProtocolError::BadMagic {
            found: *b"NOTOMEGA"
        })
    );
}

#[test]
fn version_skew_reports_both_sides() {
    let mut payload = Frame::Hello {
        version: PROTOCOL_VERSION,
    }
    .encode();
    let skewed = (PROTOCOL_VERSION + 41).to_le_bytes();
    let len = payload.len();
    payload[len - 4..].copy_from_slice(&skewed);
    assert_eq!(
        Frame::decode(&payload),
        Err(ProtocolError::UnsupportedVersion {
            requested: PROTOCOL_VERSION + 41,
            supported: PROTOCOL_VERSION,
        })
    );
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    wire.extend_from_slice(&[0u8; 32]);
    let mut reader = FrameReader::new(&wire[..]);
    assert_eq!(
        reader.read_frame(),
        Err(ProtocolError::Oversized {
            len: MAX_FRAME_LEN + 1,
            max: MAX_FRAME_LEN,
        })
    );
}

#[test]
fn truncated_mid_prefix_and_mid_payload_are_both_truncated() {
    let mut wire = Vec::new();
    write_frame(
        &mut wire,
        &Frame::Prepare {
            text: "(?X) <- (a, p, ?X)".into(),
        },
    )
    .expect("write succeeds");
    // Mid length prefix.
    let mut reader = FrameReader::new(&wire[..2]);
    assert_eq!(reader.read_frame(), Err(ProtocolError::Truncated));
    // Mid payload.
    let mut reader = FrameReader::new(&wire[..wire.len() - 3]);
    assert_eq!(reader.read_frame(), Err(ProtocolError::Truncated));
}

/// `Answers` payloads (tag byte included) as both encoders produce them: the
/// server's id-row path and `Frame::encode` over materialised answers, the
/// latter with answers that disagree on their variables.
fn answers_payloads() -> Vec<Vec<u8>> {
    let labels: Vec<String> = (0..16).map(|i| format!("n{i}")).collect();
    let mut rows = RowFrame::new();
    for i in 0..12u32 {
        rows.push(
            &[omega_core::NodeId(i % 5), omega_core::NodeId(15 - i)],
            i / 4,
        );
    }
    let mut wire = Vec::new();
    rows.append_to(&mut wire, &["X".to_owned(), "Why".to_owned()], |id| {
        &labels[id.index()]
    })
    .expect("small frame");
    let ragged = Frame::Answers {
        answers: vec![
            Answer {
                bindings: [("X".to_owned(), "a".to_owned())].into(),
                distance: 0,
            },
            Answer {
                bindings: [
                    ("X".to_owned(), "b".to_owned()),
                    ("Y".to_owned(), "a".to_owned()),
                ]
                .into(),
                distance: 2,
            },
            Answer {
                bindings: Bindings::from([]),
                distance: 3,
            },
        ],
    };
    vec![wire[4..].to_vec(), ragged.encode()]
}

#[test]
fn answers_frames_cut_or_corrupted_at_every_byte_fail_typed() {
    for payload in answers_payloads() {
        let whole = Frame::decode(&payload).expect("the intact payload decodes");
        assert!(matches!(whole, Frame::Answers { .. }));
        // Every proper prefix is short of something the header promised.
        for cut in 1..payload.len() {
            let got = Frame::decode(&payload[..cut]);
            assert!(
                matches!(
                    got,
                    Err(ProtocolError::Truncated | ProtocolError::Malformed(_))
                ),
                "cut at {cut} gave {got:?}"
            );
        }
        // Every byte of the body, flipped three ways: the result is the
        // same frame kind (the flip hit a distance, or text that stayed
        // valid) or a typed error — nothing else, and never a panic, then
        // or when a decoded answer's labels are read.
        for pos in 1..payload.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bent = payload.clone();
                bent[pos] ^= mask;
                let got = Frame::decode(&bent);
                assert!(
                    matches!(
                        got,
                        Ok(Frame::Answers { .. })
                            | Err(ProtocolError::Truncated | ProtocolError::Malformed(_))
                    ),
                    "byte {pos} ^ {mask:#04x} gave {got:?}"
                );
                if let Ok(Frame::Answers { answers }) = got {
                    for answer in &answers {
                        let pairs: Vec<(&str, &str)> = answer.bindings.iter().collect();
                        for (name, label) in &pairs {
                            assert_eq!(answer.bindings.get(name), Some(*label));
                        }
                        assert_eq!(answer.bindings.labels().flatten().count(), pairs.len());
                    }
                }
            }
        }
    }
}

#[test]
fn answers_indexes_and_counts_are_checked_against_what_is_there() {
    let payload = answers_payloads().remove(0);
    // The last four bytes are the final row's last cell: a label index. One
    // past the table is malformed, not an out-of-bounds read.
    let mut bent = payload.clone();
    let cell = bent.len() - 4;
    bent[cell..].copy_from_slice(&16u32.to_le_bytes());
    assert_eq!(
        Frame::decode(&bent),
        Err(ProtocolError::Malformed("label index out of range"))
    );
    // Declared counts of four billion columns, labels or rows over a body of
    // a few bytes run out of bytes; nothing is sized from the declaration.
    for body in [
        &[0xFF, 0xFF, 0xFF, 0xFF][..],
        &[0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF][..],
        &[0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF][..],
    ] {
        let mut payload = vec![payload[0]];
        payload.extend_from_slice(body);
        assert_eq!(Frame::decode(&payload), Err(ProtocolError::Truncated));
    }
}

#[test]
fn overloaded_retry_after_round_trips_to_the_nanosecond() {
    let error = WireError::Engine(OmegaError::Overloaded {
        retry_after: Duration::new(3, 141_592_653),
    });
    let payload = Frame::Fail {
        error: error.clone(),
    }
    .encode();
    let Frame::Fail { error: back } = Frame::decode(&payload).expect("decodes") else {
        panic!("decoded to a different frame type");
    };
    assert_eq!(back, error);
    assert_eq!(back.retry_after(), Some(Duration::new(3, 141_592_653)));
}
