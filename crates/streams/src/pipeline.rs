//! Backpressure-aware pipelined ingestion.
//!
//! [`ShardedIngest`](crate::ShardedIngest) fans updates out to worker
//! sketches, but its producer does the batching *and* the channel pushes on
//! one thread, and its handoff depth is fixed.  [`PipelinedIngest`] reworks
//! that topology into the shape a long-running ingest service needs:
//!
//! ```text
//! producer (caller thread)          decode/coalesce stage         N apply workers
//! pull from UpdateSource  ──chan──▶ coalesce each batch  ──chan──▶ hash + apply
//! (e.g. a FrameReader on            exactly in i64                 into sketch
//!  a socket)                        (round-robin fan-out)          clones; merge
//! ```
//!
//! Every arrow is a **bounded** `sync_channel` of configurable depth
//! ([`with_channel_depth`](PipelinedIngest::with_channel_depth)): when the
//! apply workers lag, the decode stage blocks; when the decode stage lags,
//! the producer blocks — and when the producer is a
//! [`FrameReader`](crate::FrameReader) on a socket, that blocking propagates
//! to the peer through TCP flow control.  A fast producer can never outrun a
//! slow worker into unbounded memory.
//!
//! The result is **bit-identical** to single-threaded ingestion of the same
//! updates: the decode stage's coalescing is exact in `i64` (the
//! `batch_equivalence` guarantee), the workers' sketches are clones with the
//! prototype's seeds, and the final merge is linear.
//!
//! Configuration is validated, not asserted: zero workers, a zero batch size
//! and a zero channel depth are rejected with a typed [`IngestConfigError`]
//! — the same validation [`ShardedIngest`](crate::ShardedIngest) now shares
//! through its `try_*` constructors.  And because the producer may sit on an
//! untrusted socket, the decode stage coalesces with *checked* arithmetic: a
//! crafted batch whose per-item delta total overflows `i64` surfaces as
//! [`PipelineError::DeltaOverflow`], never a panic or a silently wrapped
//! counter.

use crate::sink::{checked_coalesce_updates, MergeError, MergeableSketch, StreamSink};
use crate::source::{TakeSource, UpdateSource};
use crate::update::Update;
use std::fmt;
use std::sync::mpsc;

/// A rejected ingestion configuration value.  Shared by [`PipelinedIngest`]
/// and [`ShardedIngest`](crate::ShardedIngest): both validate through the
/// same predicates, so a config that one accepts the other does too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestConfigError {
    /// `workers == 0` / `shards == 0`: there must be at least one state
    /// absorbing updates.
    NoWorkers,
    /// `batch == 0`: an empty handoff batch can never drain a source.
    ZeroBatch,
    /// `depth == 0`: a `sync_channel` of depth zero would rendezvous every
    /// handoff, serializing the pipeline it is meant to decouple.
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

/// Validate a worker/shard count.
pub(crate) fn validate_workers(workers: usize) -> Result<usize, IngestConfigError> {
    if workers == 0 {
        return Err(IngestConfigError::NoWorkers);
    }
    Ok(workers)
}

/// Validate a handoff batch size.
pub(crate) fn validate_batch(batch: usize) -> Result<usize, IngestConfigError> {
    if batch == 0 {
        return Err(IngestConfigError::ZeroBatch);
    }
    Ok(batch)
}

/// Validate a bounded-channel depth.
pub(crate) fn validate_depth(depth: usize) -> Result<usize, IngestConfigError> {
    if depth == 0 {
        return Err(IngestConfigError::ZeroDepth);
    }
    Ok(depth)
}

/// Error from a pipelined ingestion.
#[derive(Debug)]
pub enum PipelineError {
    /// The worker sketches failed to merge (never happens for clones of one
    /// prototype; surfaces configuration bugs with explicit worker states).
    Merge(MergeError),
    /// An item's delta total within one handoff batch overflows `i64`.
    /// Updates cross a trust boundary here (a wire frame can legally carry
    /// any `i64` deltas), and an overflowing total violates the turnstile
    /// model's prefix promise `|v_i| ≤ M` — so the decode stage rejects the
    /// batch with this typed error instead of wrapping or panicking.
    DeltaOverflow {
        /// The item whose accumulated delta overflowed.
        item: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Merge(e) => write!(f, "pipelined ingest merge error: {e}"),
            PipelineError::DeltaOverflow { item } => write!(
                f,
                "pipelined ingest rejected a batch: item {item}'s delta total overflows i64"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Merge(e) => Some(e),
            PipelineError::DeltaOverflow { .. } => None,
        }
    }
}

impl From<MergeError> for PipelineError {
    fn from(e: MergeError) -> Self {
        PipelineError::Merge(e)
    }
}

/// Configuration for backpressure-aware pipelined ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedIngest {
    workers: usize,
    batch: usize,
    depth: usize,
}

impl PipelinedIngest {
    /// Pipeline with `workers` hash+apply worker threads (plus the decode/
    /// coalesce stage thread).
    ///
    /// # Panics
    /// Panics if `workers == 0`; use [`try_new`](Self::try_new) for a
    /// fallible constructor.
    pub fn new(workers: usize) -> Self {
        Self::try_new(workers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects `workers == 0`.
    pub fn try_new(workers: usize) -> Result<Self, IngestConfigError> {
        Ok(Self {
            workers: validate_workers(workers)?,
            batch: 1024,
            depth: 4,
        })
    }

    /// Override the number of updates per handoff batch (larger batches
    /// amortize channel overhead; smaller batches tighten backpressure
    /// granularity).
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
        self.batch = validate_batch(batch)?;
        Ok(self)
    }

    /// Override the bounded-channel depth between pipeline stages.  Depth is
    /// the backpressure knob: with depth `d` and batch size `b`, at most
    /// `(workers + 1) · d · b` updates are in flight before the producer
    /// blocks.
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
        self.depth = validate_depth(depth)?;
        Ok(self)
    }

    /// Number of apply workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Updates per handoff batch.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Bounded-channel depth between stages.
    pub fn channel_depth(&self) -> usize {
        self.depth
    }

    /// Pull `source` dry through the pipeline: the caller thread batches
    /// updates, the decode stage coalesces each batch exactly in `i64` and
    /// round-robins it to the apply workers, and the worker sketches (clones
    /// of `prototype`) are merged left to right at the end.
    ///
    /// The merged result is bit-identical to a single sketch that absorbed
    /// the whole stream on one thread.  A batch whose per-item delta total
    /// overflows `i64` (possible only for hostile or model-violating input)
    /// is rejected with [`PipelineError::DeltaOverflow`] — checked in the
    /// decode stage, so the overflow can neither panic a worker nor wrap
    /// silently into the counters.
    pub fn ingest<Src, S>(&self, source: &mut Src, prototype: &S) -> Result<S, PipelineError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Clone + Send,
    {
        let (decode_result, shard_results) = std::thread::scope(|scope| {
            // Stage 2 → 3: one bounded channel per apply worker.
            let mut worker_txs: Vec<mpsc::SyncSender<Vec<Update>>> =
                Vec::with_capacity(self.workers);
            let mut workers = Vec::with_capacity(self.workers);
            for _ in 0..self.workers {
                let mut sketch = prototype.clone();
                let (tx, rx) = mpsc::sync_channel::<Vec<Update>>(self.depth);
                worker_txs.push(tx);
                workers.push(scope.spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        sketch.update_batch(&batch);
                    }
                    sketch
                }));
            }

            // Stage 1 → 2: the bounded handoff the producer blocks on.
            let (feed_tx, feed_rx) = mpsc::sync_channel::<Vec<Update>>(self.depth);
            let decode = scope.spawn(move || -> Result<(), PipelineError> {
                let mut next = 0usize;
                while let Ok(raw) = feed_rx.recv() {
                    // Exact i64 coalescing: a head item appearing thousands
                    // of times in the batch is hashed once per row
                    // downstream.  Checked accumulation: updates may come
                    // from an untrusted wire, and an overflowing total must
                    // be a typed error, not wrapped counter state.
                    let batch = checked_coalesce_updates(&raw)
                        .map_err(|item| PipelineError::DeltaOverflow { item })?;
                    worker_txs[next]
                        .send(batch)
                        .expect("apply worker alive while its sender is held");
                    next = (next + 1) % worker_txs.len();
                }
                // Dropping the senders (normally or on the error path above)
                // closes the worker channels.
                Ok(())
            });

            // Stage 1: the producer — stays on the caller thread because
            // `Src` need not be `Send` (a FrameReader on a socket isn't
            // required to be).  A failed send means the decode stage bailed
            // out on an error; stop producing and let its result surface.
            let mut buf: Vec<Update> = Vec::with_capacity(self.batch);
            loop {
                while buf.len() < self.batch {
                    match source.next_update() {
                        Some(u) => buf.push(u),
                        None => break,
                    }
                }
                if buf.is_empty() {
                    break;
                }
                let full = std::mem::replace(&mut buf, Vec::with_capacity(self.batch));
                if feed_tx.send(full).is_err() {
                    break;
                }
            }
            drop(feed_tx);

            let decode_result = decode.join().expect("decode stage panicked");
            let shard_results = workers
                .into_iter()
                .map(|h| h.join().expect("apply worker panicked"))
                .collect::<Vec<S>>();
            (decode_result, shard_results)
        });
        decode_result?;

        let mut iter = shard_results.into_iter();
        let mut merged = iter.next().expect("at least one worker");
        for other in iter {
            merged.merge(&other)?;
        }
        Ok(merged)
    }

    /// Like [`ingest`](Self::ingest), but stop pulling from the source after
    /// at most `limit` updates.  Returns the merged sketch and the number of
    /// updates actually consumed — the hook a serving loop uses to merge and
    /// [checkpoint](crate::Checkpoint) every K updates while a stream is
    /// still in flight.
    pub fn ingest_limited<Src, S>(
        &self,
        source: &mut Src,
        prototype: &S,
        limit: usize,
    ) -> Result<(S, usize), PipelineError>
    where
        Src: UpdateSource,
        S: StreamSink + MergeableSketch + Clone + Send,
    {
        let mut take = TakeSource::new(source, limit);
        let merged = self.ingest(&mut take, prototype)?;
        let consumed = limit - take.left();
        Ok((merged, consumed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequency::FrequencyVector;
    use crate::generator::{StreamConfig, StreamGenerator, UniformStreamGenerator};
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

    fn exact(domain: u64) -> ExactSink {
        ExactSink {
            fv: FrequencyVector::new(domain),
        }
    }

    #[test]
    fn pipelined_equals_single_threaded() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(128, 20_000, 0.2), 7);
        let reference = gen.generate();

        for workers in [1usize, 2, 4] {
            for depth in [1usize, 2, 8] {
                gen.reset();
                let merged = PipelinedIngest::new(workers)
                    .with_batch_size(256)
                    .with_channel_depth(depth)
                    .ingest(&mut gen, &exact(128))
                    .unwrap();
                assert_eq!(
                    merged.fv,
                    reference.frequency_vector(),
                    "pipelined ({workers} workers, depth {depth}) must agree with the exact \
                     frequency vector"
                );
            }
        }
    }

    #[test]
    fn ingest_limited_consumes_exactly_the_limit() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(64, 5_000, 0.2), 11);
        let reference = gen.generate();

        gen.reset();
        let pipe = PipelinedIngest::new(2).with_batch_size(64);
        let (first, consumed) = pipe.ingest_limited(&mut gen, &exact(64), 2_000).unwrap();
        assert_eq!(consumed, 2_000);
        let mut rest = pipe.ingest(&mut gen, &exact(64)).unwrap();
        rest.merge(&first).unwrap();
        assert_eq!(rest.fv, reference.frequency_vector());
    }

    #[test]
    fn wire_stream_ingests_end_to_end() {
        let mut gen = UniformStreamGenerator::new(StreamConfig::turnstile(64, 3_000, 0.2), 3);
        let reference = gen.generate();
        let bytes = encode_updates(64, reference.updates()).unwrap();

        let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
        let merged = PipelinedIngest::new(3)
            .with_batch_size(128)
            .ingest(&mut reader, &exact(64))
            .unwrap();
        assert_eq!(reader.updates_read(), reference.len() as u64);
        reader.finish().unwrap();
        assert_eq!(merged.fv, reference.frequency_vector());
    }

    #[test]
    fn overflowing_delta_total_is_a_typed_error_not_a_panic() {
        // A legal wire frame can carry any i64 deltas; a crafted batch whose
        // per-item total overflows must surface as DeltaOverflow from the
        // decode stage — with debug overflow checks on, an unchecked
        // accumulation would panic the decode thread instead.
        let hostile = vec![Update::new(7, i64::MAX), Update::new(7, 1)];
        let bytes = encode_updates(64, &hostile).unwrap();
        let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
        let err = PipelinedIngest::new(2)
            .ingest(&mut reader, &exact(64))
            .expect_err("overflow must be rejected");
        assert!(
            matches!(err, PipelineError::DeltaOverflow { item: 7 }),
            "{err}"
        );

        // The same through a plain source, including one the producer keeps
        // feeding after the decode stage bails (exercises the graceful
        // producer shutdown path).
        let mut updates: Vec<Update> = vec![Update::new(3, i64::MIN), Update::new(3, -1)];
        updates.extend((0..50_000u64).map(|i| Update::new(i % 64, 1)));
        let mut src = crate::source::IterSource::new(64, updates.into_iter());
        let err = PipelinedIngest::new(2)
            .with_batch_size(16)
            .ingest(&mut src, &exact(64))
            .expect_err("overflow must be rejected");
        assert!(
            matches!(err, PipelineError::DeltaOverflow { item: 3 }),
            "{err}"
        );
    }

    #[test]
    fn config_validation_rejects_zeros() {
        assert_eq!(
            PipelinedIngest::try_new(0),
            Err(IngestConfigError::NoWorkers)
        );
        assert_eq!(
            PipelinedIngest::try_new(2).unwrap().try_with_batch_size(0),
            Err(IngestConfigError::ZeroBatch)
        );
        assert_eq!(
            PipelinedIngest::try_new(2)
                .unwrap()
                .try_with_channel_depth(0),
            Err(IngestConfigError::ZeroDepth)
        );
        let ok = PipelinedIngest::try_new(3)
            .unwrap()
            .try_with_batch_size(10)
            .unwrap()
            .try_with_channel_depth(2)
            .unwrap();
        assert_eq!(
            (ok.workers(), ok.batch_size(), ok.channel_depth()),
            (3, 10, 2)
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_workers_panics_in_the_infallible_constructor() {
        let _ = PipelinedIngest::new(0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics_in_the_infallible_builder() {
        let _ = PipelinedIngest::new(1).with_batch_size(0);
    }

    #[test]
    #[should_panic(expected = "channel depth must be positive")]
    fn zero_depth_panics_in_the_infallible_builder() {
        let _ = PipelinedIngest::new(1).with_channel_depth(0);
    }

    #[test]
    fn config_error_display_is_informative() {
        assert!(IngestConfigError::NoWorkers
            .to_string()
            .contains("at least one"));
        assert!(IngestConfigError::ZeroBatch.to_string().contains("batch"));
        assert!(IngestConfigError::ZeroDepth.to_string().contains("depth"));
    }
}
