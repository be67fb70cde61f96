//! Property tests for the framed wire format and the sharded ingest path.
//!
//! The wire contract mirrors the checkpoint contract, but for data in
//! motion: encode a stream of updates as length-prefixed frames, read it
//! back — possibly through a reader that returns arbitrarily small chunks,
//! like a congested socket — and the decoded update sequence is *identical*.
//! Corrupt bytes (truncation mid-frame, a wrong magic or version, an
//! oversized length prefix, a misaligned payload) surface as typed
//! [`WireError`]s, never panics, and truncation is always distinguishable
//! from the explicit end-of-stream frame.
//!
//! On top of the codec, the acceptance criteria for the ingest service are
//! proven here:
//!
//! * [`ShardedIngest`] over a framed wire stream is **bit-identical** to
//!   single-threaded ingestion of the same updates, for both hash backends
//!   (compared via checkpoint bytes — the strongest equality the workspace
//!   has).
//! * A hostile frame whose delta magnitudes sum past `i64::MAX` is a typed
//!   `DeltaOverflow` error from [`ShardedIngest`] (one or more shards) and
//!   the [`ShardedTwoPassCoordinator`], never a panic or a wrapped counter.
//! * The serving loop's kill/resume cycle — merge and checkpoint every K
//!   updates, crash at an arbitrary point, restore from the checkpoint and
//!   replay the non-durable suffix — reproduces the uninterrupted sketch
//!   state bit-for-bit.

use proptest::prelude::*;
use zerolaw::prelude::*;
use zerolaw::streams::wire::{encode_updates, WIRE_VERSION};

const DOMAIN: u64 = 64;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];

/// Strategy: a batch of turnstile updates as (item, delta) pairs.
fn updates_strategy(domain: u64, max_len: usize) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec((0..domain, -50i64..50), 0..max_len)
        .prop_map(|pairs| pairs.into_iter().map(Update::from).collect())
}

/// A reader that serves bytes in deterministic pseudo-random small chunks —
/// the shape of a socket under congestion.  `read` never fails; it just
/// returns between 1 and `max_chunk` bytes at a time.
struct ChunkedReader<'a> {
    data: &'a [u8],
    pos: usize,
    state: u64,
    max_chunk: usize,
}

impl<'a> ChunkedReader<'a> {
    fn new(data: &'a [u8], seed: u64, max_chunk: usize) -> Self {
        Self {
            data,
            pos: 0,
            state: seed | 1,
            max_chunk: max_chunk.max(1),
        }
    }
}

impl std::io::Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        // SplitMix-ish step; only the low bits matter for chunk sizing.
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let chunk = 1 + (self.state >> 33) as usize % self.max_chunk;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn decode_all(bytes: &[u8], seed: u64, max_chunk: usize) -> Vec<Update> {
    let chunked = ChunkedReader::new(bytes, seed, max_chunk);
    let mut reader = FrameReader::new(chunked).expect("valid header");
    let decoded: Vec<Update> = reader.updates().collect();
    assert!(reader.finished(), "clean stream must reach its end frame");
    assert!(reader.error().is_none());
    reader.finish().expect("clean stream must finish");
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write frames → read back → identical update sequence, under random
    /// chunked reads and random frame sizes.
    #[test]
    fn roundtrip_identical_under_chunked_reads(
        updates in updates_strategy(DOMAIN, 300),
        frame_updates in 1usize..64,
        chunk_seed in 0u64..u64::MAX,
        max_chunk in 1usize..40,
    ) {
        let mut writer = FrameWriter::new(Vec::new(), DOMAIN)
            .expect("writer")
            .with_frame_updates(frame_updates)
            .expect("positive frame size");
        writer.write_batch(&updates).expect("encode");
        let bytes = writer.finish().expect("finish");
        let decoded = decode_all(&bytes, chunk_seed, max_chunk);
        prop_assert_eq!(decoded, updates);
    }

    /// Truncating the encoded stream anywhere — mid-header, mid-frame,
    /// before the end frame — is a typed error, never a panic and never a
    /// silent clean end.
    #[test]
    fn truncation_mid_frame_is_a_typed_error(
        updates in updates_strategy(DOMAIN, 120),
        frame_updates in 1usize..16,
        cut_fraction in 0u64..10_000,
    ) {
        let mut writer = FrameWriter::new(Vec::new(), DOMAIN)
            .expect("writer")
            .with_frame_updates(frame_updates)
            .expect("positive frame size");
        writer.write_batch(&updates).expect("encode");
        let bytes = writer.finish().expect("finish");
        // Cut strictly before the final byte so the end frame is lost.
        let cut = (cut_fraction as usize * (bytes.len() - 1)) / 10_000;
        let truncated = &bytes[..cut];
        match FrameReader::new(truncated) {
            Err(e) => prop_assert!(e.is_truncation(), "header truncation at {}: {}", cut, e),
            Ok(mut reader) => {
                while reader.next_update().is_some() {}
                prop_assert!(!reader.finished(), "cut at {} cannot be a clean end", cut);
                match reader.finish() {
                    Err(e) => prop_assert!(e.is_truncation(), "cut at {}: {}", cut, e),
                    Ok(_) => prop_assert!(false, "truncated stream finished cleanly"),
                }
            }
        }
    }

    /// A sharded ingest of a framed wire stream lands in exactly the
    /// state of single-threaded ingestion — checkpoint bytes equal, for
    /// both hash backends, across worker counts and channel depths.
    #[test]
    fn sharded_wire_ingest_is_bit_identical(
        updates in updates_strategy(DOMAIN, 400),
        workers in 1usize..5,
        depth in 1usize..5,
        batch in 1usize..200,
    ) {
        let bytes = encode_updates(DOMAIN, &updates).expect("encode");
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 11)
                .with_hash_backend(backend);
            let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);

            let mut single = prototype.clone();
            for &u in &updates {
                single.update(u);
            }

            let mut reader = FrameReader::new(bytes.as_slice()).expect("header");
            let sharded = ShardedIngest::new(workers)
                .with_batch_size(batch)
                .with_channel_depth(depth)
                .ingest(&mut reader, &prototype)
                .expect("wire ingest");
            prop_assert_eq!(reader.updates_read(), updates.len() as u64);
            reader.finish().expect("clean stream must finish");
            prop_assert_eq!(
                sharded.to_checkpoint_bytes().expect("save sharded"),
                single.to_checkpoint_bytes().expect("save single"),
                "backend {:?}: sharded wire ingest must be bit-identical",
                backend
            );
        }
    }

    /// The ingest server's lifecycle: merge + checkpoint every K updates,
    /// crash at an arbitrary kill point (losing everything since the last
    /// checkpoint), restore, replay the suffix from the durable offset —
    /// bit-for-bit the uninterrupted state.  Both hash backends.
    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_state(
        updates in updates_strategy(DOMAIN, 300),
        checkpoint_every in 1usize..60,
        kill_fraction in 0u64..10_000,
    ) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 5)
                .with_hash_backend(backend);
            let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            let ingest = ShardedIngest::new(2).with_batch_size(32);

            let mut uninterrupted = prototype.clone();
            for &u in &updates {
                uninterrupted.update(u);
            }

            // Incarnation 1: serve K-sized slices off the wire, checkpoint
            // after each merge, and crash once the kill point passes —
            // without merging the in-flight slice, like a real SIGKILL.
            let kill_after = (kill_fraction as usize * updates.len()) / 10_000;
            let bytes = encode_updates(DOMAIN, &updates).expect("encode");
            let mut reader = FrameReader::new(bytes.as_slice()).expect("header");
            let mut serving = prototype.clone();
            let mut durable = 0usize;
            let mut checkpoint = (serving.to_checkpoint_bytes().expect("save"), durable);
            loop {
                let (slice, consumed) = ingest
                    .ingest_limited(&mut reader, &prototype, checkpoint_every)
                    .expect("slice ingest");
                if consumed == 0 {
                    break;
                }
                if durable + consumed > kill_after {
                    break; // crash: the slice never becomes durable
                }
                serving.merge(&slice).expect("merge slice");
                durable += consumed;
                checkpoint = (serving.to_checkpoint_bytes().expect("save"), durable);
            }

            // Incarnation 2: restore and replay everything after the
            // durable offset.
            let (saved_bytes, saved_count) = checkpoint;
            let mut restored =
                OnePassGSumSketch::from_checkpoint_bytes(&saved_bytes).expect("restore");
            let replay = encode_updates(DOMAIN, &updates[saved_count..]).expect("encode suffix");
            let mut reader = FrameReader::new(replay.as_slice()).expect("header");
            loop {
                let (slice, consumed) = ingest
                    .ingest_limited(&mut reader, &prototype, checkpoint_every)
                    .expect("slice ingest");
                if consumed == 0 {
                    break;
                }
                restored.merge(&slice).expect("merge slice");
            }
            reader.finish().expect("replay stream complete");

            prop_assert_eq!(
                restored.to_checkpoint_bytes().expect("save restored"),
                uninterrupted.to_checkpoint_bytes().expect("save uninterrupted"),
                "backend {:?}: kill at {} / checkpoint every {} must resume bit-exactly",
                backend,
                kill_after,
                checkpoint_every
            );
        }
    }
}

#[test]
fn frame_reader_feeds_existing_sinks_unchanged() {
    // FrameReader is an UpdateSource: any sink in the workspace ingests a
    // wire stream with no adapter code.
    let updates: Vec<Update> = (0..500u64).map(|i| Update::new(i % DOMAIN, 1)).collect();
    let bytes = encode_updates(DOMAIN, &updates).unwrap();

    for backend in BACKENDS {
        let cs_config = CountSketchConfig::new(3, 32).with_backend(backend);
        let mut from_wire = CountSketch::new(cs_config, 9);
        let mut direct = CountSketch::new(cs_config, 9);

        let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
        reader.feed(&mut from_wire);
        reader.finish().unwrap();
        for &u in &updates {
            direct.update(u);
        }
        assert_eq!(
            from_wire.to_checkpoint_bytes().unwrap(),
            direct.to_checkpoint_bytes().unwrap(),
            "backend {backend:?}: wire-fed CountSketch must equal direct ingestion"
        );
    }
}

#[test]
fn wrong_magic_version_and_oversized_prefix_are_typed_errors() {
    let good = encode_updates(DOMAIN, &[Update::insert(1), Update::delete(2)]).unwrap();

    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"ZLCK"); // checkpoint magic is not wire magic
    assert!(matches!(
        FrameReader::new(bad_magic.as_slice()),
        Err(WireError::BadMagic)
    ));

    let mut bad_version = good.clone();
    bad_version[4..6].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
    assert!(matches!(
        FrameReader::new(bad_version.as_slice()),
        Err(WireError::UnsupportedVersion { found }) if found == WIRE_VERSION + 1
    ));

    // Forge a length prefix far beyond the reader's frame bound: rejected
    // before allocation, with the offending length in the error.
    let mut oversized = good.clone();
    oversized[15..19].copy_from_slice(&(u32::MAX - 7).to_le_bytes());
    let mut reader = FrameReader::new(oversized.as_slice()).unwrap();
    assert_eq!(reader.next_update(), None);
    assert!(matches!(
        reader.take_error(),
        Some(WireError::OversizedFrame { len, .. }) if len == u32::MAX - 7
    ));
}

#[test]
fn hostile_deltas_are_a_typed_error_through_sharded_ingest_and_the_coordinator() {
    // A legal wire frame can carry any i64 deltas.  This one's Σ|δ| passes
    // i64::MAX at item 7: without the producer's magnitude check a worker
    // coalescing it panics (debug) or wraps the item's counter (release).
    let hostile = [Update::new(7, i64::MAX), Update::new(7, 1)];
    let bytes = encode_updates(DOMAIN, &hostile).unwrap();

    for backend in BACKENDS {
        let prototype = CountSketch::new(CountSketchConfig::new(3, 32).with_backend(backend), 9);
        for shards in [1usize, 2] {
            let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
            match ShardedIngest::new(shards).ingest(&mut reader, &prototype) {
                Err(IngestError::DeltaOverflow { item }) => assert_eq!(item, 7),
                Err(e) => panic!("{backend:?}, {shards} shards: wrong error {e}"),
                Ok(sketch) => panic!(
                    "{backend:?}, {shards} shards: accepted, estimate(7) = {}",
                    sketch.estimate(7)
                ),
            }
        }
    }

    // The two-pass coordinator's pass-1 fan-out surfaces the same item
    // through its checkpoint-error channel.
    let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 11);
    let prototype = TwoPassGSumSketch::new(PowerFunction::new(2.0), &config);
    let mut pass1 = FrameReader::new(bytes.as_slice()).unwrap();
    let mut pass2 = FrameReader::new(bytes.as_slice()).unwrap();
    match ShardedTwoPassCoordinator::new(2).run(&prototype, &mut pass1, &mut pass2) {
        Err(CheckpointError::DeltaOverflow { item }) => assert_eq!(item, 7),
        Err(e) => panic!("coordinator: wrong error {e}"),
        Ok(_) => panic!("coordinator accepted a hostile stream"),
    }
}
