//! Criterion: wire codec and threaded-runtime costs.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heardof_core::{Ate, AteParams, UteMsg};
use heardof_engine::{encode_body_into, Framing};
use heardof_net::{crc32, run_threaded, CodeSpec, Frame, LinkFaults, NetConfig, WireMessage};
use std::time::Duration;

/// `frame` through the default (CRC-32) framing, into the two arenas an
/// engine reuses per link.
fn encode_frame<M: WireMessage>(
    framing: &Framing,
    frame: &Frame<M>,
    body: &mut BytesMut,
    wire: &mut BytesMut,
) {
    body.clear();
    encode_body_into(frame, body);
    wire.clear();
    framing.encode_raw_into(body, wire);
}

fn codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let framing = Framing::fixed(CodeSpec::DEFAULT);
    let (mut body, mut wire) = (BytesMut::new(), BytesMut::new());
    let frame = Frame {
        round: 12,
        sender: 3,
        copy: 0,
        msg: 0xDEAD_BEEFu64,
    };
    group.bench_function("encode_u64_frame", |b| {
        b.iter(|| encode_frame(&framing, &frame, &mut body, &mut wire))
    });
    let encoded = wire.to_vec();
    group.bench_function("decode_u64_frame", |b| {
        b.iter(|| framing.decode_scan::<u64>(&encoded).frame.unwrap())
    });
    let vote_frame = Frame {
        round: 12,
        sender: 3,
        copy: 0,
        msg: UteMsg::Vote(Some(7u64)),
    };
    group.bench_function("encode_vote_frame", |b| {
        b.iter(|| encode_frame(&framing, &vote_frame, &mut body, &mut wire))
    });

    for &len in &[64usize, 1024, 65536] {
        let data = vec![0xA5u8; len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("crc32", len), &len, |b, _| {
            b.iter(|| crc32(&data))
        });
    }
    group.finish();
}

fn threaded_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_runtime");
    group.sample_size(10);
    for &n in &[4usize, 8] {
        group.bench_with_input(BenchmarkId::new("consensus", n), &n, |b, &n| {
            let params = AteParams::balanced(n, 0).unwrap();
            b.iter(|| {
                run_threaded(
                    Ate::<u64>::new(params),
                    n,
                    (0..n as u64).map(|i| i % 2).collect(),
                    NetConfig {
                        faults: LinkFaults::NONE,
                        seed: 1,
                        round_timeout: Duration::from_millis(20),
                        copies: 1,
                        max_rounds: 30,
                        ..NetConfig::default()
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = codec, threaded_runtime
}
criterion_main!(benches);
