//! Property tests for the serving layer's multi-client fan-in.
//!
//! The acceptance contract of the `gsum_serve` coordinator is *merge-order
//! invariance*: folding per-client sketches into the serving state — in any
//! permutation, with any mix of partially-failed streams, under either
//! [`ServePolicy`], from any number of threads — must land in checkpoint
//! bytes **bit-identical** to a single-threaded replay of exactly the kept
//! updates.  Linearity licenses the claim (integer-valued `f64` counters
//! add exactly, so merging is commutative and associative to the bit) and
//! these tests enforce it for both hash backends.
//!
//! Client states are built from the wire: each stream is decoded by a
//! [`FrameReader`], and the policy decides which of the decoded updates
//! fold.  Under [`ServePolicy::MergeCompleted`] a stream folds in
//! fixed-size slices as it decodes, so slices of different clients
//! interleave in the fold order; under [`ServePolicy::DiscardPartial`] it
//! folds whole at its end frame, or not at all.  The same failure × policy
//! invariance over real sockets, through the reactor and its per-worker
//! shards, is proptested by
//! `serve_reactor::sharded_serving_equals_concat_replay_under_load_shedding`.
//!
//! Also covered: the parked-state fan-in path (checkpoint bytes fold
//! identically to live sketches), and the server's decode-time rejection of
//! a client stream declaring the wrong domain.

use proptest::prelude::*;
use zerolaw::prelude::*;
use zerolaw::streams::wire::encode_updates;

const DOMAIN: u64 = 64;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
const POLICIES: [ServePolicy; 2] = [ServePolicy::DiscardPartial, ServePolicy::MergeCompleted];

type Sketch = OnePassGSumSketch<PowerFunction>;

fn proto(backend: HashBackend) -> Sketch {
    let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 11).with_hash_backend(backend);
    OnePassGSumSketch::new(PowerFunction::new(2.0), &config)
}

/// Encode one client stream.  `truncate_at: Some(k)` emits the first `k`
/// updates in complete frames and then just stops — no end-of-stream frame,
/// the wire shape of a producer crash.
fn encode_client(updates: &[Update], truncate_at: Option<usize>) -> Vec<u8> {
    match truncate_at {
        None => encode_updates(DOMAIN, updates).expect("encode"),
        Some(k) => {
            let mut buf = Vec::new();
            let mut writer = FrameWriter::new(&mut buf, DOMAIN)
                .expect("header")
                .with_frame_updates(16)
                .expect("frame size");
            writer.write_batch(&updates[..k]).expect("prefix");
            writer.flush_frame().expect("flush");
            drop(writer); // no finish(): the stream is truncated
            buf
        }
    }
}

/// What the policy keeps of a client stream: everything, the decoded
/// prefix, or nothing.
fn kept(updates: &[Update], cut: Option<usize>, policy: ServePolicy) -> &[Update] {
    match (cut, policy) {
        (None, _) => updates,
        (Some(k), ServePolicy::MergeCompleted) => &updates[..k],
        (Some(_), ServePolicy::DiscardPartial) => &[],
    }
}

/// One client stream as the coordinator sees it.
struct ClientFolds {
    /// The fold requests the policy keeps: a client state and the number
    /// of updates it absorbed.
    folds: Vec<(Sketch, u64)>,
    /// Updates decoded before the stream ended.
    decoded: u64,
    /// How the stream ended: `Ok` at its end-of-stream frame.
    ending: Result<(), WireError>,
}

impl ClientFolds {
    /// Decode `bytes` with a [`FrameReader`] into clones of `prototype`:
    /// `slice`-sized folds of the decoded prefix under
    /// [`ServePolicy::MergeCompleted`], one whole-stream fold (or none, if
    /// the stream failed) under [`ServePolicy::DiscardPartial`].
    fn decode(bytes: &[u8], prototype: &Sketch, policy: ServePolicy, slice: u64) -> Self {
        let mut frames = FrameReader::new(bytes).expect("header");
        let mut folds = Vec::new();
        let mut state = prototype.clone();
        let mut absorbed = 0u64;
        while let Some(u) = frames.next_update() {
            state.update(u);
            absorbed += 1;
            if policy.folds_mid_stream() && absorbed == slice {
                folds.push((std::mem::replace(&mut state, prototype.clone()), absorbed));
                absorbed = 0;
            }
        }
        let decoded = frames.updates_read();
        let ending = frames.finish().map(drop);
        if absorbed > 0 && (ending.is_ok() || policy.folds_mid_stream()) {
            folds.push((state, absorbed));
        }
        Self {
            folds,
            decoded,
            ending,
        }
    }

    /// Record the stream's end in the coordinator's counters, as the
    /// server's fold workers do.
    fn note_ending(&self, coordinator: &MergeCoordinator<Sketch>) {
        if self.ending.is_ok() {
            coordinator.note_stream_completed();
        } else {
            let kept: u64 = self.folds.iter().map(|(_, n)| n).sum();
            coordinator.note_stream_failed(self.decoded - kept);
        }
    }
}

/// Fold one client state; the durable count it reports covers the fold.
fn fold(coordinator: &MergeCoordinator<Sketch>, state: &Sketch, updates: u64) {
    let durable = coordinator.fold(state, updates).expect("fold");
    assert!(
        durable >= updates,
        "durable count {durable} must cover the {updates} updates just folded"
    );
}

/// Deterministic Fisher–Yates from a seed (the proptest shim has no
/// permutation strategy).
fn shuffle(order: &mut [usize], seed: u64) {
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) as usize) % (i + 1);
        order.swap(i, j);
    }
}

type ClientSpec = (Vec<Update>, Option<usize>);

/// The raw tuple the proptest strategy generates per client:
/// (item, delta) pairs, a die roll deciding failure, and the cut fraction.
type RawClient = (Vec<(u64, i64)>, u64, u64);

/// Decode the raw proptest tuples into per-client (updates, failure cut).
fn client_specs(raw: &[RawClient]) -> Vec<ClientSpec> {
    raw.iter()
        .map(|(pairs, fail_die, cut_frac)| {
            let updates: Vec<Update> = pairs.iter().map(|&(i, d)| Update::new(i, d)).collect();
            // Roughly a third of the clients die mid-stream, at an
            // arbitrary completed-frame boundary.
            let cut = (fail_die % 3 == 0).then(|| (*cut_frac as usize * updates.len()) / 10_000);
            (updates, cut)
        })
        .collect()
}

/// Single-threaded reference over the kept updates, in canonical client
/// order, plus the durable count.
fn reference(specs: &[ClientSpec], policy: ServePolicy, backend: HashBackend) -> (Vec<u8>, u64) {
    let mut single = proto(backend);
    let mut durable = 0u64;
    for (updates, cut) in specs {
        let keep = kept(updates, *cut, policy);
        for &u in keep {
            single.update(u);
        }
        durable += keep.len() as u64;
    }
    (
        single.to_checkpoint_bytes().expect("save reference"),
        durable,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Fold client states in a random permutation, with a random subset of
    /// streams failing mid-stream: checkpoint bytes equal the
    /// single-threaded replay of the kept updates, for both policies and
    /// both backends — and the canonical client order used by the
    /// reference shows the fold order never matters.
    #[test]
    fn fan_in_is_permutation_and_failure_invariant(
        raw in prop::collection::vec(
            (prop::collection::vec((0..DOMAIN, -20i64..21), 1..120), 0u64..1_000, 0u64..10_000),
            1..5,
        ),
        perm_seed in 0u64..u64::MAX,
    ) {
        let specs = client_specs(&raw);
        for backend in BACKENDS {
            for policy in POLICIES {
                let (expect_bytes, expect_durable) = reference(&specs, policy, backend);

                let prototype = proto(backend);
                let coordinator =
                    MergeCoordinator::new(prototype.clone(), 0, 37, None).expect("config");
                let mut folds = Vec::new();
                for (updates, cut) in &specs {
                    let client =
                        ClientFolds::decode(&encode_client(updates, *cut), &prototype, policy, 37);
                    prop_assert_eq!(
                        client.ending.is_ok(),
                        cut.is_none(),
                        "completion must track the end-of-stream frame"
                    );
                    if cut.is_some() {
                        prop_assert!(
                            matches!(&client.ending, Err(e) if e.is_truncation()),
                            "a cut stream must fail as truncation"
                        );
                    }
                    folds.extend(client.folds);
                }
                let mut order: Vec<usize> = (0..folds.len()).collect();
                shuffle(&mut order, perm_seed);
                for &i in &order {
                    let (state, updates) = &folds[i];
                    fold(&coordinator, state, *updates);
                }

                prop_assert_eq!(coordinator.durable_count(), expect_durable);
                let snapshot = coordinator.snapshot().expect("snapshot");
                prop_assert_eq!(snapshot.durable_count(), expect_durable);
                prop_assert_eq!(
                    snapshot.state_bytes(),
                    expect_bytes.as_slice(),
                    "fold order {:?} under {:?}/{:?} must be bit-identical to the reference",
                    &order, policy, backend
                );
            }
        }
    }

    /// A client state that traveled as checkpoint bytes (ParkedState) folds
    /// exactly like the live sketch it was parked from.
    #[test]
    fn parked_state_fan_in_equals_live_fan_in(
        raw in prop::collection::vec(
            (prop::collection::vec((0..DOMAIN, -20i64..21), 1..150), 0u64..1, 0u64..1),
            1..4,
        ),
    ) {
        let specs = client_specs(&raw);
        for backend in BACKENDS {
            let prototype = proto(backend);
            let live = MergeCoordinator::new(prototype.clone(), 0, 1_000, None)
                .expect("config");
            let parked = MergeCoordinator::new(prototype.clone(), 0, 1_000, None)
                .expect("config");

            let mut durable = 0u64;
            for (updates, _) in &specs {
                let mut client = prototype.clone();
                for &u in updates {
                    client.update(u);
                }
                durable += updates.len() as u64;
                prop_assert_eq!(
                    live.fold(&client, updates.len() as u64).expect("fold"),
                    durable
                );
                let bytes = ParkedState::park(&client, updates.len() as u64).expect("park");
                prop_assert_eq!(parked.fold_parked(&bytes).expect("fold parked"), durable);
            }

            prop_assert_eq!(live.durable_count(), parked.durable_count());
            let live_snapshot = live.snapshot().expect("snapshot");
            let parked_snapshot = parked.snapshot().expect("snapshot");
            prop_assert_eq!(
                live_snapshot.state_bytes(),
                parked_snapshot.state_bytes(),
                "backend {:?}: parked bytes must fold exactly like live sketches",
                backend
            );
        }
    }
}

/// True concurrency: many client streams folded from simultaneous threads
/// against one coordinator still land bit-identically on the
/// single-threaded replay — the lock serializes folds, linearity makes
/// their interleaving irrelevant.
#[test]
fn concurrent_thread_fan_in_is_bit_identical() {
    const CLIENTS: usize = 6;
    for backend in BACKENDS {
        for policy in POLICIES {
            let specs: Vec<ClientSpec> = (0..CLIENTS)
                .map(|c| {
                    let updates: Vec<Update> = (0..400u64)
                        .map(|i| Update::new((i * (c as u64 + 3)) % DOMAIN, 1 - (i as i64 % 3)))
                        .collect();
                    // Odd-indexed clients die after 100 updates.
                    (updates, (c % 2 == 1).then_some(100))
                })
                .collect();
            let (expect_bytes, expect_durable) = reference(&specs, policy, backend);

            let prototype = proto(backend);
            let coordinator =
                MergeCoordinator::new(prototype.clone(), 0, 64, None).expect("config");
            let barrier = std::sync::Barrier::new(CLIENTS);
            std::thread::scope(|scope| {
                for (updates, cut) in &specs {
                    let coordinator = &coordinator;
                    let prototype = &prototype;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let bytes = encode_client(updates, *cut);
                        let client = ClientFolds::decode(&bytes, prototype, policy, 50);
                        assert_eq!(client.ending.is_ok(), cut.is_none());
                        barrier.wait();
                        for (state, n) in &client.folds {
                            fold(coordinator, state, *n);
                        }
                        client.note_ending(coordinator);
                    });
                }
            });

            assert_eq!(coordinator.durable_count(), expect_durable);
            assert_eq!(
                coordinator.snapshot().expect("snapshot").state_bytes(),
                expect_bytes.as_slice(),
                "{policy:?}/{backend:?}: concurrent fan-in must equal the single-threaded replay"
            );
            let stats = coordinator.stats();
            assert_eq!(stats.streams_completed, (CLIENTS / 2) as u64);
            assert_eq!(
                stats.streams_failed,
                CLIENTS as u64 - stats.streams_completed
            );
        }
    }
}

/// Satellite regression: a stream declaring a different domain than the
/// server serves is rejected at decode — a typed error on the reply
/// channel, nothing applied to the serving state.
#[test]
fn server_rejects_wrong_domain_at_decode() {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::{TcpListener, TcpStream};

    let prototype = proto(HashBackend::Polynomial);
    let server = GsumServer::boot(prototype.clone(), ServeConfig::new(), None).expect("boot");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let server = &server;
        let handle = scope.spawn(move || server.serve(listener).expect("serve"));

        // Declare domain 32 to a server serving 64.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut read_half = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = FrameWriter::new(BufWriter::new(stream), 32).expect("header");
        writer.write_update(Update::insert(1)).expect("write");
        writer.finish().expect("finish");
        let mut line = String::new();
        read_half.read_line(&mut line).expect("reply");
        match Response::parse(&line).expect("parse") {
            Response::Err(reason) => {
                assert!(
                    reason.contains("declares domain 32") && reason.contains("64"),
                    "reply must name both domains: {reason:?}"
                );
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        assert_eq!(server.durable_count(), 0, "nothing may reach the state");

        // Clean shutdown.
        let mut quit = TcpStream::connect(addr).expect("connect");
        writeln!(quit, "QUIT").expect("send");
        let mut bye = String::new();
        BufReader::new(quit).read_line(&mut bye).expect("read");
        assert_eq!(Response::parse(&bye).expect("parse"), Response::Bye);
        let summary = handle.join().expect("server thread");
        assert!(summary.clean_shutdown);
        assert_eq!(summary.stats.streams_completed, 0);
    });
}

/// A client that connects and then sends nothing must not wedge the clean
/// shutdown: the read timeout releases its handler thread, `QUIT` drains,
/// and `serve` returns with the final snapshot written.
#[test]
fn stalled_client_cannot_hang_clean_shutdown() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let prototype = proto(HashBackend::Polynomial);
    let config =
        ServeConfig::new().with_client_read_timeout(Some(std::time::Duration::from_millis(100)));
    let server = GsumServer::boot(prototype, config, None).expect("boot");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let server = &server;
        let handle = scope.spawn(move || server.serve(listener).expect("serve"));

        // The stall: a connection that never sends a byte.  Hold it open
        // across the whole shutdown sequence.
        let stalled = TcpStream::connect(addr).expect("connect stalled client");

        let mut quit = TcpStream::connect(addr).expect("connect");
        writeln!(quit, "QUIT").expect("send");
        let mut bye = String::new();
        BufReader::new(quit).read_line(&mut bye).expect("read");
        assert_eq!(Response::parse(&bye).expect("parse"), Response::Bye);

        // Without the timeout this join would block forever on the stalled
        // handler; the test harness's own timeout would fail the test.
        let summary = handle.join().expect("server thread");
        assert!(summary.clean_shutdown);
        drop(stalled);
    });
}
