//! Property test of the incremental frame decoder: a mixed client → server
//! stream (events, watermarks, hellos, byes) decodes to the same frames
//! however its bytes are split into reads, from single bytes up to 64 KiB
//! connection reads, and `buffered()` always equals the bytes fed but not
//! yet consumed.

use std::sync::Arc;

use bytes::BytesMut;
use proptest::collection::vec;
use proptest::prelude::*;
use spectre_events::codec::{self, ClientFrame, Decoder};
use spectre_events::{AttrKey, Event, EventType, StreamItem, SymbolId, Value};

/// The `i`-th frame of a generated stream: `kind` 0–4 is an event with
/// `attrs` attributes, 5 a watermark, 6 a hello and 7 a bye. String
/// attributes run up to ~3 KB (with multi-byte characters), so a stream
/// of a few hundred frames spans several 64 KiB reads.
fn frame(i: usize, kind: u8, seed: u64, attrs: usize) -> ClientFrame {
    match kind {
        0..=4 => {
            let mut b = Event::builder(EventType::new((seed % 7) as u16))
                .seq(i as u64)
                .ts(seed);
            for j in 0..attrs {
                let v = seed.wrapping_mul(31).wrapping_add(j as u64);
                let value = match v % 5 {
                    0 => Value::F64(v as f64 / 8.0),
                    1 => Value::I64(-(v as i64)),
                    2 => Value::Bool(v.is_multiple_of(2)),
                    3 => Value::Symbol(SymbolId::new(v as u32)),
                    _ => Value::Str(Arc::from("aé".repeat((v % 1000) as usize))),
                };
                b = b.attr(AttrKey::new(j as u16), value);
            }
            ClientFrame::Item(StreamItem::Event(b.build()))
        }
        5 => ClientFrame::Item(StreamItem::Watermark(seed)),
        6 => ClientFrame::Hello(seed),
        _ => ClientFrame::Bye,
    }
}

fn encode_frame(frame: &ClientFrame, out: &mut BytesMut) {
    match frame {
        ClientFrame::Item(StreamItem::Event(ev)) => codec::encode(ev, out),
        ClientFrame::Item(StreamItem::Watermark(ts)) => codec::encode_watermark(*ts, out),
        ClientFrame::Hello(tenant) => codec::encode_hello(*tenant, out),
        ClientFrame::Bye => codec::encode_bye(out),
    }
}

/// Decodes every complete frame buffered in `dec`.
fn drain(dec: &mut Decoder) -> Vec<ClientFrame> {
    let mut out = Vec::new();
    while let Some(f) = dec
        .next_client_frame()
        .expect("the encoder's frames decode")
    {
        out.push(f);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn any_split_decodes_like_one_shot(
        spec in vec((0u8..8, 0u64..1_000_000, 0usize..6), 1..300),
        reads in vec(prop_oneof![1usize..=16, 17usize..=4096, 4097usize..=65_536], 1..32),
    ) {
        let frames: Vec<ClientFrame> = spec
            .iter()
            .enumerate()
            .map(|(i, &(kind, seed, attrs))| frame(i, kind, seed, attrs))
            .collect();
        let mut wire = BytesMut::new();
        // ends[i]: the wire offset just past frame i.
        let mut ends = Vec::with_capacity(frames.len());
        for f in &frames {
            encode_frame(f, &mut wire);
            ends.push(wire.len());
        }

        let mut one_shot = Decoder::new();
        one_shot.extend(&wire);
        let expected = drain(&mut one_shot);
        prop_assert_eq!(&expected, &frames);
        prop_assert_eq!(one_shot.buffered(), 0);

        let mut dec = Decoder::new();
        let mut out: Vec<ClientFrame> = Vec::new();
        let (mut fed, mut consumed) = (0, 0);
        for &read in reads.iter().cycle() {
            if fed == wire.len() {
                break;
            }
            let end = (fed + read).min(wire.len());
            dec.extend(&wire[fed..end]);
            fed = end;
            prop_assert_eq!(dec.buffered(), fed - consumed);
            while let Some(f) = dec.next_client_frame().expect("the encoder's frames decode") {
                consumed = ends[out.len()];
                out.push(f);
                prop_assert_eq!(dec.buffered(), fed - consumed);
            }
        }
        prop_assert_eq!(out, expected);
        prop_assert_eq!(dec.buffered(), 0);
    }
}
