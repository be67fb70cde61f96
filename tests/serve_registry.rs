//! Acceptance suite for the estimator registry: one ingest stream, many
//! G functions, zero drift.
//!
//! The registry's claim is a composition of two earlier tentpole claims:
//! the one-pass substrate never evaluates its function during ingest, and
//! sharded serving folds to the same bits as a single-threaded replay.
//! Put together: a [`SketchRegistry`] with K functions registered over
//! one shared configuration ingests every decoded batch **once**, and for
//! each registered function both the `EST <function>` answer and the
//! per-function checkpoint bytes ([`SketchRegistry::checkpoint_for`])
//! must be bit-identical to a **single-function** sketch of the same
//! configuration replaying the concatenated kept updates on one thread —
//! under both hash backends and both [`ServePolicy`] values.  The
//! proptest below enforces exactly that over real loopback sockets.
//!
//! Also covered: substrate dedup (three functions, one substrate),
//! per-configuration substrate splitting, the `FUNCS` listing, unknown
//! `EST <function>` answering a typed `ERR` without poisoning the
//! connection, and the registry's composite checkpoint surviving a
//! save → restore → query round trip.

mod common;

use common::QuitOnDrop;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;
use zerolaw::prelude::*;
use zerolaw::streams::wire::encode_updates;

const DOMAIN: u64 = 64;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
const POLICIES: [ServePolicy; 2] = [ServePolicy::DiscardPartial, ServePolicy::MergeCompleted];

fn shared_config(backend: HashBackend) -> GSumConfig {
    GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 11).with_hash_backend(backend)
}

/// The three registered functions, as type-erased [`DynG`] values in
/// registration order (index 0 is the default the bare `EST` answers).
fn functions() -> Vec<DynG> {
    vec![
        DynG::new(PowerFunction::new(2.0)),
        DynG::new(CappedLinear::new(100)),
        DynG::new(PolylogFunction::new(2.0)),
    ]
}

/// A registry with all three functions sharing one substrate key.
fn registry(backend: HashBackend) -> SketchRegistry {
    let config = shared_config(backend);
    let mut registry = SketchRegistry::new();
    for function in functions() {
        registry
            .register_dyn(function, &config)
            .expect("register function");
    }
    assert_eq!(
        registry.substrate_count(),
        1,
        "identical configurations must share one ingest substrate"
    );
    registry
}

/// Encode one client stream; `truncate_at: Some(k)` mimics a producer
/// crash (complete frames, no end-of-stream frame).
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

/// What the policy keeps of a client stream.
fn kept(updates: &[Update], cut: Option<usize>, policy: ServePolicy) -> &[Update] {
    match (cut, policy) {
        (None, _) => updates,
        (Some(k), ServePolicy::MergeCompleted) => &updates[..k],
        (Some(_), ServePolicy::DiscardPartial) => &[],
    }
}

type ClientSpec = (Vec<Update>, Option<usize>);
type RawClient = (Vec<(u64, i64)>, u64, u64);

fn client_specs(raw: &[RawClient]) -> Vec<ClientSpec> {
    raw.iter()
        .map(|(pairs, fail_die, cut_frac)| {
            let updates: Vec<Update> = pairs.iter().map(|&(i, d)| Update::new(i, d)).collect();
            let cut = (fail_die % 3 == 0).then(|| (*cut_frac as usize * updates.len()) / 10_000);
            (updates, cut)
        })
        .collect()
}

/// The per-function single-threaded references: for each registered
/// function, one **single-function** sketch (same configuration, same
/// seed) absorbing every client's kept updates in canonical order.
/// Returns each function's `(estimate bits, checkpoint bytes)` plus the
/// durable update count.
fn references(
    specs: &[ClientSpec],
    policy: ServePolicy,
    backend: HashBackend,
) -> (Vec<(u64, Vec<u8>)>, u64) {
    let config = shared_config(backend);
    let mut durable = 0u64;
    let per_function: Vec<(u64, Vec<u8>)> = functions()
        .into_iter()
        .map(|function| {
            let mut single = OnePassGSumSketch::with_seed(function, &config, config.seed);
            for (updates, cut) in specs {
                for &u in kept(updates, *cut, policy) {
                    single.update(u);
                }
            }
            let bytes = single.to_checkpoint_bytes().expect("save reference");
            (single.estimate().to_bits(), bytes)
        })
        .collect();
    for (updates, cut) in specs {
        durable += kept(updates, *cut, policy).len() as u64;
    }
    (per_function, durable)
}

/// Send one framed client stream and return the server's verdict,
/// retrying whenever the connection was load-shed instead of served.
fn run_client(addr: SocketAddr, bytes: &[u8], complete: bool) -> Response {
    for _ in 0..2_000 {
        let retry = || std::thread::sleep(Duration::from_millis(2));
        let Ok(mut stream) = TcpStream::connect(addr) else {
            retry();
            continue;
        };
        let _ = stream.write_all(bytes);
        if !complete {
            let _ = stream.shutdown(Shutdown::Write);
        }
        let mut line = String::new();
        match BufReader::new(&stream).read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                retry();
                continue;
            }
        }
        match Response::parse(&line) {
            Ok(Response::Busy(_)) => retry(),
            Ok(resp) => return resp,
            Err(_) => retry(),
        }
    }
    panic!("client never got a verdict from the server");
}

/// A persistent query connection: connect (retrying while lingering
/// client slots drain) and prove the slot with an answered bare `EST`.
fn query_connection(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>, u64) {
    for _ in 0..2_000 {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        writeln!(stream, "{}", Command::est()).expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        match Response::parse(&line) {
            Ok(Response::Est { bits }) => return (stream, reader, bits),
            Ok(Response::Busy(_)) | Err(_) => std::thread::sleep(Duration::from_millis(2)),
            Ok(other) => panic!("unexpected reply to bare EST: {other:?}"),
        }
    }
    panic!("query connection never registered");
}

fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, command: &Command) -> Response {
    writeln!(stream, "{command}").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    Response::parse(&line).unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The acceptance claim of the registry redesign: one server, one
    /// ingest stream, three registered functions on one shared substrate
    /// — and for every function, both the `EST <function>` bits and the
    /// per-function checkpoint bytes equal that function's
    /// single-threaded single-function concat replay, under both hash
    /// backends, both policies, and varying worker-pool sizes.
    #[test]
    fn multi_g_serving_equals_per_function_single_replays(
        raw in prop::collection::vec(
            (prop::collection::vec((0..DOMAIN, -20i64..21), 1..60), 0u64..1_000, 0u64..10_000),
            1..5,
        ),
        workers in 1usize..4,
    ) {
        let specs = client_specs(&raw);
        let names: Vec<String> = functions().iter().map(|f| f.name()).collect();
        for backend in BACKENDS {
            for policy in POLICIES {
                let (expected, expect_durable) = references(&specs, policy, backend);

                let config = ServeConfig::new()
                    .with_policy(policy)
                    .with_checkpoint_every(37)
                    .with_workers(workers)
                    .with_pipeline(ShardedIngest::new(2).with_batch_size(31))
                    .with_observer(|_| {});
                let server =
                    GsumServer::boot(registry(backend), config, None).expect("boot");
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                let addr = listener.local_addr().expect("addr");

                std::thread::scope(|scope| {
                    let server = &server;
                    let handle = scope.spawn(move || server.serve(listener).expect("serve"));
                    let quit = QuitOnDrop { addr, server: &handle };

                    let verdicts: Vec<Response> = std::thread::scope(|clients| {
                        let handles: Vec<_> = specs
                            .iter()
                            .map(|(updates, cut)| {
                                let bytes = encode_client(updates, *cut);
                                clients.spawn(move || run_client(addr, &bytes, cut.is_none()))
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().expect("client")).collect()
                    });
                    for ((_, cut), verdict) in specs.iter().zip(&verdicts) {
                        match cut {
                            None => prop_assert!(
                                matches!(verdict, Response::Ok(_)),
                                "complete stream must be acknowledged, got {:?}", verdict
                            ),
                            Some(_) => prop_assert!(
                                matches!(verdict, Response::Err(_)),
                                "truncated stream must be refused, got {:?}", verdict
                            ),
                        }
                    }

                    let (mut stream, mut reader, bare_bits) = query_connection(addr);

                    // FUNCS lists every registered name, default first.
                    prop_assert_eq!(
                        ask(&mut stream, &mut reader, &Command::Funcs),
                        Response::Funcs(names.clone())
                    );

                    // The bare EST answers the default (first) function.
                    prop_assert_eq!(
                        bare_bits, expected[0].0,
                        "bare EST must answer the default function's reference bits"
                    );

                    // Every named estimator answers its own single-function
                    // replay, bit for bit.
                    for (name, (bits, _)) in names.iter().zip(&expected) {
                        let reply =
                            ask(&mut stream, &mut reader, &Command::est_named(name.clone()));
                        prop_assert_eq!(
                            reply,
                            Response::Est { bits: *bits },
                            "{:?}/{:?}/{} workers: EST {} must answer the \
                             single-function replay bits",
                            policy, backend, workers, name
                        );
                    }

                    // An unknown function gets a typed ERR and the
                    // connection stays usable.
                    let unknown =
                        ask(&mut stream, &mut reader, &Command::est_named("no-such-g"));
                    match unknown {
                        Response::Err(reason) => prop_assert!(
                            reason.contains("no-such-g"),
                            "the refusal must name the function: {:?}", reason
                        ),
                        other => prop_assert!(false, "expected ERR, got {:?}", other),
                    }
                    prop_assert_eq!(
                        ask(&mut stream, &mut reader, &Command::Count),
                        Response::Count(expect_durable)
                    );
                    prop_assert_eq!(
                        ask(&mut stream, &mut reader, &Command::Quit),
                        Response::Bye
                    );

                    drop(quit);
                    let summary = handle.join().expect("server thread");
                    prop_assert!(summary.clean_shutdown);
                    Ok(())
                })?;

                // The served composite state equals an in-memory registry
                // replay, and — restored from the snapshot — yields
                // per-function checkpoint bytes identical to each
                // function's single-function replay.
                let snapshot = server.coordinator().snapshot().expect("snapshot");
                prop_assert_eq!(snapshot.durable_count(), expect_durable);
                let mut replayed = registry(backend);
                for (updates, cut) in &specs {
                    replayed.update_batch(kept(updates, *cut, policy));
                }
                let replayed_bytes = replayed.to_checkpoint_bytes().expect("save replay");
                prop_assert_eq!(
                    snapshot.state_bytes(),
                    replayed_bytes.as_slice(),
                    "the composite checkpoint must equal the registry replay"
                );
                let restored: SketchRegistry =
                    snapshot.restore_state().expect("restore registry");
                for (name, (bits, bytes)) in names.iter().zip(&expected) {
                    let per_function = restored
                        .checkpoint_for(name)
                        .expect("registered name")
                        .expect("save");
                    prop_assert_eq!(
                        per_function.as_slice(), bytes.as_slice(),
                        "{:?}/{:?}: checkpoint_for({}) must equal the \
                         single-function replay bytes",
                        policy, backend, name
                    );
                    prop_assert_eq!(
                        restored.estimate_for(name).expect("registered name").to_bits(),
                        *bits
                    );
                }
            }
        }
    }
}

/// Substrate dedup and the registration error surface, no sockets: three
/// functions on one configuration share a substrate, a duplicate name is
/// refused, a mismatched domain is refused, and a distinct seed gets its
/// own substrate.
#[test]
fn registration_dedups_substrates_and_rejects_conflicts() {
    let config = shared_config(HashBackend::Polynomial);
    let mut registry = SketchRegistry::new();
    for function in functions() {
        registry.register_dyn(function, &config).expect("register");
    }
    assert_eq!(registry.len(), 3);
    assert_eq!(registry.substrate_count(), 1);
    assert_eq!(
        registry.function_names(),
        functions().iter().map(|f| f.name()).collect::<Vec<_>>()
    );

    assert_eq!(
        registry.register(PowerFunction::new(2.0), &config),
        Err(RegistryError::DuplicateFunction("x^2".into()))
    );
    let other_domain = GSumConfig::with_space_budget(DOMAIN * 2, 0.25, 64, 11);
    assert_eq!(
        registry.register(PowerFunction::new(3.0), &other_domain),
        Err(RegistryError::DomainMismatch {
            expected: DOMAIN,
            got: DOMAIN * 2,
        })
    );

    // A different seed is a different substrate key: the registry grows a
    // second substrate instead of silently sharing mismatched hashes.
    let mut reseeded = shared_config(HashBackend::Polynomial);
    reseeded.seed = 99;
    registry
        .register(PowerFunction::new(3.0), &reseeded)
        .expect("register under a second substrate");
    assert_eq!(registry.len(), 4);
    assert_eq!(registry.substrate_count(), 2);

    // Both substrates track their own estimators exactly.
    let updates: Vec<Update> = (0..40u64).map(|i| Update::new(i % DOMAIN, 3)).collect();
    registry.update_batch(&updates);
    let mut shared =
        OnePassGSumSketch::with_seed(DynG::new(CappedLinear::new(100)), &config, config.seed);
    let mut lone = OnePassGSumSketch::with_seed(DynG::new(PowerFunction::new(3.0)), &reseeded, 99);
    for &u in &updates {
        shared.update(u);
        lone.update(u);
    }
    assert_eq!(
        registry.estimate_for("min(x, 100)").map(f64::to_bits),
        Some(shared.estimate().to_bits())
    );
    assert_eq!(
        registry.estimate_for("x^3").map(f64::to_bits),
        Some(lone.estimate().to_bits())
    );
    assert_eq!(registry.estimate_for("absent"), None);
    assert!(registry.checkpoint_for("absent").is_none());
}
