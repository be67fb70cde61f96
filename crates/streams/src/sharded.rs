//! Sharded parallel ingestion — the workspace's one in-process
//! concurrent-ingest topology.
//!
//! Linear sketches make parallel ingestion trivial: clone one prototype
//! sketch per worker (identical hash seeds), split the update stream across
//! the workers, and [`merge`](crate::MergeableSketch::merge) the per-worker
//! states at the end.  Because every sketch in this workspace is a linear
//! function of the frequency vector — and its counters take integer values
//! that `f64` represents exactly — the merged result is *identical* to
//! single-threaded ingestion of the same updates, in any order.
//!
//! ```text
//! producer (caller thread)              N workers
//! pull from UpdateSource, batch,  ──chan──▶  coalesce + hash + apply into
//! check Σ|δ|, round-robin fan-out            sketch clones; merge at the end
//! ```
//!
//! Every arrow is a **bounded** `sync_channel` of configurable depth
//! ([`with_channel_depth`](ShardedIngest::with_channel_depth)): when the
//! workers lag, the producer blocks — and when the producer is a
//! [`FrameReader`](crate::FrameReader) on a socket, that blocking propagates
//! to the peer through TCP flow control.  A fast producer can never outrun a
//! slow worker into unbounded memory.
//!
//! Because the source may sit on an untrusted socket, the producer checks
//! every batch with [`check_delta_magnitudes`] — the same predicate the
//! serving reactor applies — and a batch whose Σ|δ| passes `i64::MAX`
//! surfaces as [`IngestError::DeltaOverflow`], never a worker panic or a
//! silently wrapped counter.
//!
//! Long-running ingestions are also *checkpointable*: [`ShardedIngest::ingest_limited`]
//! stops after a bounded number of updates so the merged state can be
//! [saved](crate::Checkpoint::save) to bytes, and [`ShardedIngest::resume`]
//! rehydrates that state and continues with the rest of the source — the
//! final state is bit-identical to an uninterrupted run.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::sink::{check_delta_magnitudes, MergeError, MergeableSketch, StreamSink};
use crate::source::{TakeSource, UpdateSource};
use crate::update::Update;
use std::fmt;
use std::sync::mpsc;

/// A rejected ingestion configuration value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestConfigError {
    /// `shards == 0`: there must be at least one state absorbing updates.
    NoWorkers,
    /// `batch == 0`: an empty handoff batch can never drain a source.
    ZeroBatch,
    /// `depth == 0`: a `sync_channel` of depth zero would rendezvous every
    /// handoff, serializing the producer with the workers.
    ZeroDepth,
}

impl fmt::Display for IngestConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestConfigError::NoWorkers => write!(f, "need at least one shard worker"),
            IngestConfigError::ZeroBatch => write!(f, "batch size must be positive"),
            IngestConfigError::ZeroDepth => write!(f, "channel depth must be positive"),
        }
    }
}

impl std::error::Error for IngestConfigError {}

/// Error from a sharded ingestion.
#[derive(Debug)]
pub enum IngestError {
    /// The worker sketches failed to merge (never happens for clones of one
    /// prototype; surfaces configuration bugs with explicit worker states).
    Merge(MergeError),
    /// A handoff batch's Σ|δ| passes `i64::MAX`.  A wire frame can legally
    /// carry any `i64` deltas, but such a batch violates the turnstile
    /// model's magnitude promise `|v_i| ≤ M`, so the producer rejects it
    /// (see [`check_delta_magnitudes`]) before any worker coalesces it.
    DeltaOverflow {
        /// The item at which the batch's running Σ|δ| passed `i64::MAX`.
        item: u64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Merge(e) => write!(f, "sharded ingest merge error: {e}"),
            IngestError::DeltaOverflow { item } => write!(
                f,
                "sharded ingest rejected a batch: its delta magnitudes sum past i64::MAX at \
                 item {item}"
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Merge(e) => Some(e),
            IngestError::DeltaOverflow { .. } => None,
        }
    }
}

impl From<MergeError> for IngestError {
    fn from(e: MergeError) -> Self {
        IngestError::Merge(e)
    }
}

/// Configuration for sharded ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedIngest {
    shards: usize,
    batch: usize,
    depth: usize,
}

impl ShardedIngest {
    /// Ingest with `shards` worker threads.
    ///
    /// # Panics
    /// Panics if `shards == 0`; use [`try_new`](Self::try_new) for a
    /// fallible constructor.
    pub fn new(shards: usize) -> Self {
        Self::try_new(shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects `shards == 0` with a typed error.
    pub fn try_new(shards: usize) -> Result<Self, IngestConfigError> {
        if shards == 0 {
            return Err(IngestConfigError::NoWorkers);
        }
        Ok(Self {
            shards,
            batch: 1024,
            depth: 4,
        })
    }

    /// Override the number of updates per message handed to a worker
    /// (larger batches amortize channel overhead; smaller batches tighten
    /// backpressure granularity).
    ///
    /// # Panics
    /// Panics if `batch == 0`; use
    /// [`try_with_batch_size`](Self::try_with_batch_size) for a fallible
    /// builder.
    pub fn with_batch_size(self, batch: usize) -> Self {
        self.try_with_batch_size(batch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `batch == 0`.
    pub fn try_with_batch_size(mut self, batch: usize) -> Result<Self, IngestConfigError> {
        if batch == 0 {
            return Err(IngestConfigError::ZeroBatch);
        }
        self.batch = batch;
        Ok(self)
    }

    /// Override the bounded per-worker channel depth (the backpressure knob:
    /// at most `shards · depth · batch` updates are in flight before the
    /// producer blocks).
    ///
    /// # Panics
    /// Panics if `depth == 0`; use
    /// [`try_with_channel_depth`](Self::try_with_channel_depth) for a
    /// fallible builder.
    pub fn with_channel_depth(self, depth: usize) -> Self {
        self.try_with_channel_depth(depth)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `depth == 0`.
    pub fn try_with_channel_depth(mut self, depth: usize) -> Result<Self, IngestConfigError> {
        if depth == 0 {
            return Err(IngestConfigError::ZeroDepth);
        }
        self.depth = depth;
        Ok(self)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Updates per message handed to a worker.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Bounded per-worker channel depth.
    pub fn channel_depth(&self) -> usize {
        self.depth
    }

    /// Split `source` across the shards round-robin (in batches), feed each
    /// shard's updates into a clone of `prototype` on its own thread, and
    /// merge the shard sketches back into one.
    ///
    /// The clones share the prototype's hash seeds, so the merge is exact:
    /// the result answers every query identically to a single sketch that
    /// absorbed the whole stream.  A batch whose Σ|δ| passes `i64::MAX`
    /// (possible only for hostile or model-violating input) stops the
    /// ingestion with [`IngestError::DeltaOverflow`].
    pub fn ingest<Src, S>(&self, source: &mut Src, prototype: &S) -> Result<S, IngestError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Clone + Send,
    {
        let states = vec![prototype.clone(); self.shards];
        self.ingest_states(source, states)
    }

    /// Like [`ingest`](Self::ingest), but stop pulling from the source after
    /// at most `limit` updates.  Returns the merged sketch and the number of
    /// updates actually consumed (less than `limit` when the source ran dry).
    ///
    /// This is the "stop" half of checkpointed ingestion: serialize the
    /// returned sketch with [`Checkpoint::save`], park the bytes, and later
    /// continue from them with [`resume`](Self::resume).
    pub fn ingest_limited<Src, S>(
        &self,
        source: &mut Src,
        prototype: &S,
        limit: usize,
    ) -> Result<(S, usize), IngestError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Clone + Send,
    {
        let mut take = TakeSource::new(source, limit);
        let merged = self.ingest(&mut take, prototype)?;
        let consumed = limit - take.left();
        Ok((merged, consumed))
    }

    /// Continue a checkpointed ingestion: restore the saved state from `r`,
    /// shard-ingest the (remaining) `source` into clones of `prototype`, and
    /// fold the new mass into the restored state.
    ///
    /// `prototype` must be a *fresh* sketch built with the same configuration
    /// and seed as the one the checkpoint was taken from (the merge refuses
    /// anything else); a prototype that has already absorbed updates would
    /// double-count them.  For a two-pass sketch resumed mid-second-pass, the
    /// prototype must be a just-transitioned state with empty tabulations —
    /// phase-aware merging then folds only the new exact counts.
    ///
    /// The result is bit-identical to a single sketch that absorbed the whole
    /// stream without interruption.
    pub fn resume<Src, S>(
        &self,
        source: &mut Src,
        prototype: &S,
        r: &mut impl std::io::Read,
    ) -> Result<S, CheckpointError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Checkpoint + Clone + Send,
    {
        let mut restored = S::restore(r)?;
        let delta = self.ingest(source, prototype)?;
        restored.merge(&delta)?;
        Ok(restored)
    }

    /// Shard-ingest `source` into explicitly provided worker states (one per
    /// shard), then merge them left to right.  This is the primitive behind
    /// [`ingest`](Self::ingest) (clones of a prototype) and the two-pass
    /// coordinator's phase-2 fan-out (states rehydrated from checkpoint
    /// bytes).
    ///
    /// # Panics
    /// Panics if `states.len() != self.shards()`.
    pub fn ingest_states<Src, S>(&self, source: &mut Src, states: Vec<S>) -> Result<S, IngestError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Send,
    {
        assert_eq!(states.len(), self.shards, "one worker state per shard");
        if self.shards == 1 {
            let mut sketch = states.into_iter().next().expect("one state");
            self.produce(source, |batch| sketch.update_batch(batch))?;
            return Ok(sketch);
        }

        let shard_results = std::thread::scope(|scope| {
            let mut senders: Vec<mpsc::SyncSender<Vec<Update>>> = Vec::with_capacity(self.shards);
            let mut handles = Vec::with_capacity(self.shards);
            for mut sketch in states {
                // A bounded queue keeps memory flat when the producer
                // outpaces the workers; its depth is the backpressure knob.
                let (tx, rx) = mpsc::sync_channel::<Vec<Update>>(self.depth);
                senders.push(tx);
                handles.push(scope.spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        sketch.update_batch(&batch);
                    }
                    sketch
                }));
            }

            // Round-robin batches over the shards.  The producer stays on
            // the caller thread because `Src` need not be `Send` (a
            // FrameReader on a socket isn't required to be).
            let mut shard = 0usize;
            let produced = self.produce(source, |batch| {
                let full = std::mem::replace(batch, Vec::with_capacity(self.batch));
                senders[shard]
                    .send(full)
                    .expect("worker alive while its sender is held");
                shard = (shard + 1) % self.shards;
            });
            // Closing the channels (normally or after a rejected batch)
            // lets every worker drain its queue and return.
            drop(senders);

            let shard_results = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect::<Vec<S>>();
            produced.map(|()| shard_results)
        })?;

        let mut iter = shard_results.into_iter();
        let mut merged = iter.next().expect("at least one shard");
        for other in iter {
            merged.merge(&other)?;
        }
        Ok(merged)
    }

    /// The producer: pull `source` dry in batches of `self.batch`, check
    /// each batch with [`check_delta_magnitudes`], and hand it to
    /// `deliver`.  A rejected batch stops production before `deliver` sees
    /// it.
    fn produce<Src: UpdateSource>(
        &self,
        source: &mut Src,
        mut deliver: impl FnMut(&mut Vec<Update>),
    ) -> Result<(), IngestError> {
        let mut buf: Vec<Update> = Vec::with_capacity(self.batch);
        loop {
            buf.clear();
            while buf.len() < self.batch {
                match source.next_update() {
                    Some(u) => buf.push(u),
                    None => break,
                }
            }
            if buf.is_empty() {
                return Ok(());
            }
            check_delta_magnitudes(&buf).map_err(|item| IngestError::DeltaOverflow { item })?;
            deliver(&mut buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        kind, read_header, read_i64, read_u64, write_header, write_i64, write_u64, Checkpoint,
        CheckpointError,
    };
    use crate::frequency::FrequencyVector;
    use crate::generator::{StreamConfig, StreamGenerator, UniformStreamGenerator};
    use crate::stream::TurnstileStream;
    use crate::wire::{encode_updates, FrameReader};

    /// A frequency vector is itself a (trivially mergeable) linear sketch.
    #[derive(Debug, Clone)]
    struct ExactSink {
        fv: FrequencyVector,
    }

    impl StreamSink for ExactSink {
        fn update(&mut self, u: Update) {
            self.fv.apply(u.item, u.delta);
        }
    }

    impl MergeableSketch for ExactSink {
        fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
            if self.fv.domain() != other.fv.domain() {
                return Err(MergeError::new("domain mismatch"));
            }
            for (item, v) in other.fv.iter() {
                self.fv.apply(item, v);
            }
            Ok(())
        }
    }

    impl Checkpoint for ExactSink {
        fn save(&self, w: &mut impl std::io::Write) -> Result<(), CheckpointError> {
            write_header(w, kind::EXACT_FREQUENCIES)?;
            write_u64(w, self.fv.domain())?;
            let entries = self.fv.sorted_entries();
            write_u64(w, entries.len() as u64)?;
            for (item, v) in entries {
                write_u64(w, item)?;
                write_i64(w, v)?;
            }
            Ok(())
        }

        fn restore(r: &mut impl std::io::Read) -> Result<Self, CheckpointError> {
            read_header(r, kind::EXACT_FREQUENCIES)?;
            let domain = read_u64(r)?;
            let mut fv = FrequencyVector::new(domain);
            let n = read_u64(r)?;
            for _ in 0..n {
                let item = read_u64(r)?;
                let v = read_i64(r)?;
                fv.apply(item, v);
            }
            Ok(ExactSink { fv })
        }
    }

    fn exact(domain: u64) -> ExactSink {
        ExactSink {
            fv: FrequencyVector::new(domain),
        }
    }

    #[test]
    fn sharded_equals_single_threaded_across_shards_and_depths() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(128, 20_000, 0.2), 7);
        let reference = gen.generate();

        for shards in [1usize, 2, 3, 4, 8] {
            for depth in [1usize, 2, 8, 16] {
                gen.reset();
                let merged = ShardedIngest::new(shards)
                    .with_batch_size(256)
                    .with_channel_depth(depth)
                    .ingest(&mut gen, &exact(128))
                    .unwrap();
                assert_eq!(
                    merged.fv,
                    reference.frequency_vector(),
                    "sharded ({shards} shards, depth {depth}) ingestion must agree with the \
                     exact frequency vector"
                );
            }
        }
    }

    #[test]
    fn wire_stream_ingests_end_to_end() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(64, 3_000, 0.2), 3);
        let reference = gen.generate();
        let bytes = encode_updates(64, reference.updates()).unwrap();

        let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
        let merged = ShardedIngest::new(3)
            .with_batch_size(128)
            .ingest(&mut reader, &exact(64))
            .unwrap();
        assert_eq!(reader.updates_read(), reference.len() as u64);
        reader.finish().unwrap();
        assert_eq!(merged.fv, reference.frequency_vector());
    }

    #[test]
    fn overflowing_delta_magnitudes_are_a_typed_error_not_a_panic() {
        // A legal wire frame can carry any i64 deltas; a crafted batch whose
        // Σ|δ| passes i64::MAX must surface as DeltaOverflow from the
        // producer — with debug overflow checks on, a worker coalescing it
        // would panic instead.  One shard takes the short-circuit path.
        let hostile = vec![Update::new(7, i64::MAX), Update::new(7, 1)];
        let bytes = encode_updates(64, &hostile).unwrap();
        for shards in [1usize, 2] {
            let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
            let err = ShardedIngest::new(shards)
                .ingest(&mut reader, &exact(64))
                .expect_err("overflow must be rejected");
            assert!(
                matches!(err, IngestError::DeltaOverflow { item: 7 }),
                "{err}"
            );
            assert!(err.to_string().contains("i64::MAX"), "{err}");
        }

        // The same through a plain source with plenty left behind the
        // rejected batch: production stops at the reject and the workers
        // shut down cleanly.
        let mut updates: Vec<Update> = vec![Update::new(3, i64::MIN), Update::new(3, -1)];
        updates.extend((0..50_000u64).map(|i| Update::new(i % 64, 1)));
        let mut src = crate::source::IterSource::new(64, updates.into_iter());
        let err = ShardedIngest::new(2)
            .with_batch_size(16)
            .ingest(&mut src, &exact(64))
            .expect_err("overflow must be rejected");
        assert!(
            matches!(err, IngestError::DeltaOverflow { item: 3 }),
            "{err}"
        );
        assert_eq!(src.updates().count(), 50_000 + 2 - 16);

        // A reject after the workers already hold batches: everything
        // before the rejected batch was delivered, nothing after it is read.
        let mut updates: Vec<Update> = (0..10_000u64).map(|i| Update::new(i % 64, 1)).collect();
        updates.extend_from_slice(&hostile);
        updates.extend((0..10_000u64).map(|i| Update::new(i % 64, -1)));
        let bytes = encode_updates(64, &updates).unwrap();
        for shards in [1usize, 2, 4] {
            let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
            let err = ShardedIngest::new(shards)
                .with_batch_size(64)
                .with_channel_depth(1)
                .ingest(&mut reader, &exact(64))
                .expect_err("overflow must be rejected");
            assert!(
                matches!(err, IngestError::DeltaOverflow { item: 7 }),
                "{err}"
            );
            // The hostile pair sits in the batch covering 9_984..10_048.
            assert_eq!(reader.updates_read(), 10_048, "{shards} shards");
        }
    }

    #[test]
    fn merge_failure_propagates() {
        // Two-shard ingest of a source whose updates are fine, but the
        // prototype is rigged to fail merges via a domain mismatch is not
        // constructible here (clones agree); instead check the error path
        // directly.
        let mut a = exact(8);
        let b = exact(9);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn single_shard_short_circuits() {
        let mut s = TurnstileStream::new(16);
        s.push_delta(3, 5);
        let merged = ShardedIngest::new(1)
            .ingest(&mut s.source(), &exact(16))
            .unwrap();
        assert_eq!(merged.fv.get(3), 5);
    }

    #[test]
    fn ingest_limited_consumes_exactly_the_limit_and_resume_finishes() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(64, 5_000, 0.2), 11);
        let reference = gen.generate();

        for shards in [1usize, 2, 3] {
            for limit in [0usize, 1, 1_000, 2_000, 4_999, 5_000, 9_999] {
                gen.reset();
                let ingest = ShardedIngest::new(shards).with_batch_size(64);
                let (partial, consumed) =
                    ingest.ingest_limited(&mut gen, &exact(64), limit).unwrap();
                assert_eq!(consumed, limit.min(5_000));

                // Stop: serialize the partial state; continue from bytes.
                let bytes = partial.to_checkpoint_bytes().unwrap();
                let resumed = ingest
                    .resume(&mut gen, &exact(64), &mut bytes.as_slice())
                    .unwrap();
                assert_eq!(
                    resumed.fv,
                    reference.frequency_vector(),
                    "resume after {consumed}/{} updates ({shards} shards) must match",
                    reference.len()
                );
            }
        }
    }

    #[test]
    fn resume_propagates_restore_errors() {
        let mut s = TurnstileStream::new(16);
        s.push_delta(3, 5);
        let err =
            ShardedIngest::new(2).resume(&mut s.source(), &exact(16), &mut [0u8; 3].as_slice());
        assert!(err.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedIngest::new(0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let _ = ShardedIngest::new(1).with_batch_size(0);
    }

    #[test]
    #[should_panic(expected = "channel depth must be positive")]
    fn zero_depth_panics() {
        let _ = ShardedIngest::new(1).with_channel_depth(0);
    }

    #[test]
    fn try_constructors_reject_zeros_with_typed_errors() {
        assert_eq!(ShardedIngest::try_new(0), Err(IngestConfigError::NoWorkers));
        assert_eq!(
            ShardedIngest::try_new(2).unwrap().try_with_batch_size(0),
            Err(IngestConfigError::ZeroBatch)
        );
        assert_eq!(
            ShardedIngest::try_new(2).unwrap().try_with_channel_depth(0),
            Err(IngestConfigError::ZeroDepth)
        );
        let ok = ShardedIngest::try_new(2)
            .unwrap()
            .try_with_batch_size(512)
            .unwrap()
            .try_with_channel_depth(8)
            .unwrap();
        assert_eq!(
            (ok.shards(), ok.batch_size(), ok.channel_depth()),
            (2, 512, 8)
        );
        let defaults = ShardedIngest::new(3);
        assert_eq!((defaults.batch_size(), defaults.channel_depth()), (1024, 4));
    }

    #[test]
    fn config_error_display_is_informative() {
        assert!(IngestConfigError::NoWorkers
            .to_string()
            .contains("at least one"));
        assert!(IngestConfigError::ZeroBatch.to_string().contains("batch"));
        assert!(IngestConfigError::ZeroDepth.to_string().contains("depth"));
    }

    #[test]
    #[should_panic(expected = "one worker state per shard")]
    fn ingest_states_requires_one_state_per_shard() {
        let s = TurnstileStream::new(16);
        let _ = ShardedIngest::new(2).ingest_states(&mut s.source(), vec![exact(16)]);
    }
}
