//! Framed byte-stream ingestion (paper §4.1: "we provide a client program
//! that reads events from a source file and sends them to SPECTRE over a
//! TCP connection").
//!
//! [`FramedSource`] is the one pull-side decoder: an
//! `Iterator<Item = Event>` decoding length-prefixed frames
//! ([`spectre_events::codec`]) from any `Read` — a file, an in-memory
//! buffer, or a `TcpStream` the caller connected. Being a plain iterator,
//! it plugs straight into a `SpectreEngine` session
//! (`engine.ingest(source)`), which processes the stream incrementally
//! under back-pressure: a feed of any length runs in bounded memory, never
//! materialized as a `Vec`. Push ingestion from many concurrent clients
//! over TCP is the job of the `spectre-server` crate.
//!
//! Out-of-order streams carry **watermark frames** alongside events
//! ([`spectre_events::codec::WATERMARK_MAGIC`]): [`FramedSource::items`]
//! yields them as [`StreamItem`]s for `SpectreEngine::ingest_items`, and
//! the plain event iterator skips them, so event-only consumers work
//! unchanged on punctuated streams.
//!
//! # Example
//!
//! ```
//! use std::io::Cursor;
//! use spectre_datasets::net::FramedSource;
//! use spectre_events::codec::encode_items;
//! use spectre_events::{Event, EventType, StreamItem};
//!
//! let event = |seq| Event::builder(EventType::new(0)).seq(seq).ts(seq).build();
//! let items = vec![
//!     StreamItem::Event(event(0)),
//!     StreamItem::Watermark(0),
//!     StreamItem::Event(event(1)),
//! ];
//! let wire = encode_items(&items).to_vec();
//! // The item view keeps the punctuation, the event view skips it.
//! let decoded: Vec<StreamItem> = FramedSource::new(Cursor::new(wire.clone())).items().collect();
//! assert_eq!(decoded, items);
//! assert_eq!(FramedSource::new(Cursor::new(wire)).count(), 2);
//! ```

use std::io::Read;

use spectre_events::codec::Decoder;
use spectre_events::{Event, StreamItem};

/// Engine-side framed event source: decodes length-prefixed events from
/// any byte reader — a socket, a file, an in-memory buffer.
///
/// The iterator ends when the reader reports end-of-input and all buffered
/// frames are drained. A read error, a malformed frame or an input that
/// ends mid-frame ends the stream for good: the error is retrievable via
/// [`FramedSource::error`], and every later call returns `None` (both
/// views are fused), so no frame after a bad one is ever yielded.
///
/// # Example
///
/// Socket-free round trip through the wire framing:
///
/// ```
/// use spectre_datasets::net::FramedSource;
/// use spectre_events::codec::encode_all;
/// use spectre_events::{Event, EventType};
///
/// let events: Vec<Event> = (0..10)
///     .map(|seq| Event::builder(EventType::new(0)).seq(seq).ts(seq).build())
///     .collect();
/// let wire = encode_all(&events);
/// let source = FramedSource::new(std::io::Cursor::new(wire.to_vec()));
/// assert_eq!(source.collect::<Vec<_>>(), events);
/// ```
#[derive(Debug)]
pub struct FramedSource<R: Read> {
    reader: R,
    decoder: Decoder,
    read_buf: Vec<u8>,
    eof: bool,
    error: Option<String>,
}

impl<R: Read> FramedSource<R> {
    /// Wraps a byte reader speaking the codec framing.
    pub fn new(reader: R) -> FramedSource<R> {
        FramedSource {
            reader,
            decoder: Decoder::new(),
            read_buf: vec![0u8; 64 * 1024],
            eof: false,
            error: None,
        }
    }

    /// The decode or read error that ended the stream, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Records the torn-frame error when the input ended mid-frame: the
    /// decoder still buffers a partial frame no further bytes can ever
    /// complete. Without this check a truncated stream (a peer dying
    /// mid-write, a cut-short file) would end *silently*, indistinguishable
    /// from a clean close.
    fn check_torn_at_eof(&mut self) {
        let torn = self.decoder.buffered();
        if torn > 0 {
            self.error = Some(format!(
                "stream truncated mid-frame ({torn} undecodable bytes at end of input)"
            ));
        }
    }

    /// Attempts to decode the next stream item — an event or a watermark
    /// punctuation — reading more bytes as needed. `None` at end of input
    /// (or on error; see [`error`](Self::error)), and on every call after
    /// an error. An input that ends in the middle of a frame is an error,
    /// not a clean end.
    pub fn next_item(&mut self) -> Option<StreamItem> {
        if self.error.is_some() {
            // The decoder has already consumed the bad frame; resuming
            // would silently skip it.
            return None;
        }
        loop {
            match self.decoder.next_item() {
                Ok(Some(item)) => return Some(item),
                Ok(None) => {}
                Err(e) => {
                    self.error = Some(e.to_string());
                    return None;
                }
            }
            if self.eof {
                self.check_torn_at_eof();
                return None;
            }
            match self.reader.read(&mut self.read_buf) {
                Ok(0) => self.eof = true,
                Ok(n) => self.decoder.extend(&self.read_buf[..n]),
                Err(e) => {
                    self.error = Some(e.to_string());
                    return None;
                }
            }
        }
    }

    /// Converts the source into the item-level iterator, yielding
    /// watermark punctuations alongside events — the view an engine with a
    /// reorder stage ingests via `ingest_items`. (The plain
    /// `Iterator<Item = Event>` view skips watermarks.)
    pub fn items(self) -> FramedItems<R> {
        FramedItems { source: self }
    }
}

/// Item-level view of a [`FramedSource`]: an
/// `Iterator<Item = StreamItem>` over events *and* watermark frames. Built
/// with [`FramedSource::items`].
#[derive(Debug)]
pub struct FramedItems<R: Read> {
    source: FramedSource<R>,
}

impl<R: Read> FramedItems<R> {
    /// The decode or read error that ended the stream, if any.
    pub fn error(&self) -> Option<&str> {
        self.source.error()
    }
}

impl<R: Read> Iterator for FramedItems<R> {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        self.source.next_item()
    }
}

impl<R: Read> Iterator for FramedSource<R> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        loop {
            if let StreamItem::Event(ev) = self.next_item()? {
                return Some(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NyseConfig, NyseGenerator};
    use spectre_events::codec::{encode_all, encode_items};
    use spectre_events::{AttrKey, EventType, Schema, Value};
    use std::io::Cursor;

    fn reader(wire: &[u8]) -> Cursor<Vec<u8>> {
        Cursor::new(wire.to_vec())
    }

    fn nyse(events: usize, seed: u64) -> Vec<Event> {
        let mut schema = Schema::new();
        NyseGenerator::new(NyseConfig::small(events, seed), &mut schema).collect()
    }

    #[test]
    fn roundtrip_through_a_reader() {
        let events = nyse(500, 3);
        let source = FramedSource::new(reader(&encode_all(&events)));
        let received: Vec<Event> = source.collect();
        assert_eq!(received, events);
    }

    #[test]
    fn empty_stream_closes_cleanly() {
        let mut source = FramedSource::new(reader(&[]));
        assert_eq!(source.by_ref().count(), 0);
        assert!(source.error().is_none());
    }

    #[test]
    fn watermarked_stream_roundtrips() {
        let events = nyse(40, 9);
        // Punctuate every 10 events with the last timestamp seen.
        let mut items = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            let ts = ev.ts();
            items.push(StreamItem::Event(ev.clone()));
            if (i + 1) % 10 == 0 {
                items.push(StreamItem::Watermark(ts));
            }
        }
        let source = FramedSource::new(reader(&encode_items(&items)));
        let received: Vec<StreamItem> = source.items().collect();
        assert_eq!(received, items);
    }

    #[test]
    fn event_iterator_skips_watermarks() {
        let events = nyse(25, 11);
        let mut items = vec![StreamItem::Watermark(0)];
        for ev in &events {
            items.push(StreamItem::Event(ev.clone()));
            items.push(StreamItem::Watermark(ev.ts()));
        }
        let source = FramedSource::new(reader(&encode_items(&items)));
        let received: Vec<Event> = source.collect();
        assert_eq!(received, events);
    }

    #[test]
    fn truncated_stream_surfaces_decode_error() {
        let events = nyse(20, 7);
        let wire = encode_all(&events);
        // Chop the stream mid-frame: the last event loses its final bytes.
        let cut = wire.len() - 3;
        let mut source = FramedSource::new(reader(&wire[..cut]));
        let decoded: Vec<Event> = source.by_ref().collect();
        assert_eq!(decoded, events[..events.len() - 1]);
        let err = source.error().expect("torn tail must surface as an error");
        assert!(err.contains("truncated"), "unexpected error: {err}");
    }

    #[test]
    fn truncated_item_stream_surfaces_decode_error() {
        // A watermark frame cut short: sentinel magic present, timestamp torn.
        let wire = encode_items(&[StreamItem::Watermark(42)]);
        let cut = wire.len() - 2;
        let mut items = FramedSource::new(reader(&wire[..cut])).items();
        assert!(items.next().is_none());
        let err = items
            .error()
            .expect("torn watermark must surface as an error");
        assert!(err.contains("truncated"), "unexpected error: {err}");
    }

    #[test]
    fn oversized_length_prefix_surfaces_decode_error() {
        let bad = (spectre_events::codec::MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut source = FramedSource::new(reader(&bad));
        assert!(source.next().is_none());
        let err = source
            .error()
            .expect("oversized length must surface as an error");
        assert!(err.contains("exceeds maximum"), "unexpected error: {err}");
    }

    #[test]
    fn source_reports_no_error_on_clean_close() {
        let events = nyse(10, 5);
        let mut source = FramedSource::new(reader(&encode_all(&events)));
        while source.next().is_some() {}
        assert!(source.error().is_none());
    }

    /// Three one-attribute event frames (seq 0, 1, 2) whose middle frame
    /// carries the unknown value tag 9.
    fn wire_with_bad_middle_frame() -> Vec<u8> {
        let events: Vec<Event> = (0..3)
            .map(|seq| {
                Event::builder(EventType::new(0))
                    .seq(seq)
                    .ts(seq)
                    .attr(AttrKey::new(0), Value::F64(1.5))
                    .build()
            })
            .collect();
        let mut wire = encode_all(&events).to_vec();
        let frame = wire.len() / 3;
        // Length prefix, seq, ts, event type, attribute count, attribute key.
        let tag = frame + 4 + 8 + 8 + 2 + 2 + 2;
        assert_eq!(wire[tag], 0, "the F64 tag");
        wire[tag] = 9;
        wire
    }

    #[test]
    fn decode_error_ends_the_stream_for_good() {
        let mut source = FramedSource::new(reader(&wire_with_bad_middle_frame()));
        let decoded: Vec<Event> = source.by_ref().collect();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].seq(), 0);
        assert_eq!(source.error(), Some("unknown value tag 9"));
        assert_eq!(source.next(), None, "no frame after a bad one is yielded");
        assert_eq!(source.error(), Some("unknown value tag 9"));

        let mut items = FramedSource::new(reader(&wire_with_bad_middle_frame())).items();
        assert_eq!(items.by_ref().count(), 1);
        assert_eq!(items.error(), Some("unknown value tag 9"));
        assert_eq!(items.next(), None, "no frame after a bad one is yielded");
    }
}
