//! Lazy update sources: streams of updates that are *pulled* one at a time,
//! without materializing a `Vec<Update>`.
//!
//! [`UpdateSource`] is the input-side dual of [`StreamSink`]:
//! a source yields updates, a sink absorbs them, and [`UpdateSource::feed`]
//! connects the two.  Workload generators implement `UpdateSource` so that a
//! billion-update benchmark run needs O(1) memory for the stream itself, and
//! [`crate::ShardedIngest`] splits any source across worker threads.

use crate::sink::StreamSink;
use crate::stream::TurnstileStream;
use crate::update::Update;

/// A lazy, pull-based producer of turnstile updates over a fixed domain.
pub trait UpdateSource {
    /// Domain size `n` the updates are drawn from.
    fn domain(&self) -> u64;

    /// Produce the next update, or `None` when the source is exhausted.
    fn next_update(&mut self) -> Option<Update>;

    /// Bounds on the number of updates still to come, mirroring
    /// [`Iterator::size_hint`].
    fn remaining_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Drain the source into a sink, one update at a time.  Returns the
    /// number of updates fed.
    fn feed<S: StreamSink + ?Sized>(&mut self, sink: &mut S) -> usize
    where
        Self: Sized,
    {
        let mut fed = 0;
        while let Some(u) = self.next_update() {
            sink.update(u);
            fed += 1;
        }
        fed
    }

    /// Materialize the remaining updates as a [`TurnstileStream`] (the
    /// batch-world escape hatch; prefer [`feed`](UpdateSource::feed)).
    fn collect_stream(&mut self) -> TurnstileStream
    where
        Self: Sized,
    {
        let mut stream = TurnstileStream::new(self.domain());
        while let Some(u) = self.next_update() {
            stream.push(u);
        }
        stream
    }

    /// Borrow the source as an [`Iterator`] over updates.
    fn updates(&mut self) -> Updates<'_, Self>
    where
        Self: Sized,
    {
        Updates { source: self }
    }
}

/// An [`UpdateSource`] adapter that stops after a fixed number of updates —
/// the mechanism behind [`ShardedIngest::ingest_limited`](crate::ShardedIngest::ingest_limited).
#[derive(Debug)]
pub(crate) struct TakeSource<'a, Src> {
    inner: &'a mut Src,
    left: usize,
}

impl<'a, Src: UpdateSource> TakeSource<'a, Src> {
    /// Wrap `inner`, yielding at most `limit` updates.
    pub(crate) fn new(inner: &'a mut Src, limit: usize) -> Self {
        Self { inner, left: limit }
    }

    /// Number of updates still allowed through the cap.
    pub(crate) fn left(&self) -> usize {
        self.left
    }
}

impl<Src: UpdateSource> UpdateSource for TakeSource<'_, Src> {
    fn domain(&self) -> u64 {
        self.inner.domain()
    }

    fn next_update(&mut self) -> Option<Update> {
        if self.left == 0 {
            return None;
        }
        let u = self.inner.next_update();
        if u.is_some() {
            self.left -= 1;
        }
        u
    }

    fn remaining_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.remaining_hint();
        (
            lo.min(self.left),
            Some(hi.map_or(self.left, |h| h.min(self.left))),
        )
    }
}

/// Iterator adapter returned by [`UpdateSource::updates`].
#[derive(Debug)]
pub struct Updates<'a, S> {
    source: &'a mut S,
}

impl<S: UpdateSource> Iterator for Updates<'_, S> {
    type Item = Update;

    fn next(&mut self) -> Option<Update> {
        self.source.next_update()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.source.remaining_hint()
    }
}

/// Adapt any iterator of updates into an [`UpdateSource`] over a domain.
#[derive(Debug, Clone)]
pub struct IterSource<I> {
    domain: u64,
    iter: I,
}

impl<I: Iterator<Item = Update>> IterSource<I> {
    /// Wrap `iter` as a source over the domain `[0, domain)`.
    ///
    /// # Panics
    /// Panics if `domain == 0`.
    pub fn new(domain: u64, iter: I) -> Self {
        assert!(domain > 0, "source domain size must be positive");
        Self { domain, iter }
    }
}

impl<I: Iterator<Item = Update>> UpdateSource for IterSource<I> {
    fn domain(&self) -> u64 {
        self.domain
    }

    fn next_update(&mut self) -> Option<Update> {
        self.iter.next()
    }

    fn remaining_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

/// Replay of a materialized [`TurnstileStream`] as an [`UpdateSource`]
/// (created by [`TurnstileStream::source`]).
#[derive(Debug, Clone)]
pub struct StreamSource<'a> {
    stream: &'a TurnstileStream,
    position: usize,
}

impl<'a> StreamSource<'a> {
    pub(crate) fn new(stream: &'a TurnstileStream) -> Self {
        Self {
            stream,
            position: 0,
        }
    }
}

impl UpdateSource for StreamSource<'_> {
    fn domain(&self) -> u64 {
        self.stream.domain()
    }

    fn next_update(&mut self) -> Option<Update> {
        let u = self.stream.updates().get(self.position).copied();
        if u.is_some() {
            self.position += 1;
        }
        u
    }

    fn remaining_hint(&self) -> (usize, Option<usize>) {
        let left = self.stream.len() - self.position;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CollectingSink {
        updates: Vec<Update>,
    }

    impl StreamSink for CollectingSink {
        fn update(&mut self, u: Update) {
            self.updates.push(u);
        }
    }

    fn sink() -> CollectingSink {
        CollectingSink {
            updates: Vec::new(),
        }
    }

    #[test]
    fn iter_source_feeds_in_order() {
        let mut src = IterSource::new(8, (0..5u64).map(Update::insert));
        let mut s = sink();
        assert_eq!(src.feed(&mut s), 5);
        assert_eq!(s.updates.len(), 5);
        assert_eq!(s.updates[3], Update::insert(3));
        // Exhausted.
        assert_eq!(src.next_update(), None);
    }

    #[test]
    fn collect_stream_materializes() {
        let mut src = IterSource::new(8, (0..5u64).map(Update::insert));
        let stream = src.collect_stream();
        assert_eq!(stream.len(), 5);
        assert_eq!(stream.domain(), 8);
    }

    #[test]
    fn stream_source_replays() {
        let mut s = TurnstileStream::new(8);
        s.push_delta(1, 3);
        s.push_delta(2, -1);
        let mut src = s.source();
        assert_eq!(src.remaining_hint(), (2, Some(2)));
        let collected: Vec<Update> = src.updates().collect();
        assert_eq!(collected, s.updates().to_vec());
    }

    #[test]
    fn updates_iterator_adapts() {
        let mut src = IterSource::new(4, (0..3u64).map(Update::insert));
        let doubled: Vec<i64> = src.updates().map(|u| u.delta * 2).collect();
        assert_eq!(doubled, vec![2, 2, 2]);
    }
}
