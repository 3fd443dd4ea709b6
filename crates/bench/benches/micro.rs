//! Microbenchmarks of the hot paths the simulators exercise per
//! packet: framing, checksums, marshalling, RSS hashing, coherence
//! operations, and the endpoint protocol engine.

use lauberhorn_bench::bench;
use std::hint::black_box;

use lauberhorn::coherence::{CacheId, CoherentSystem, FabricModel, LineAddr, LoadResult};
use lauberhorn::nic::dispatch::{DispatchKind, DispatchLine};
use lauberhorn::nic_dma::rss::{toeplitz_hash, MS_TOEPLITZ_KEY};
use lauberhorn::packet::frame::{build_udp_frame, parse_udp_frame, EndpointAddr};
use lauberhorn::packet::marshal::{
    transform_to_dispatch_form, ArgType, Codec, Signature, Value, VarintCodec,
};

fn bench_framing() {
    let src = EndpointAddr::host(1, 100);
    let dst = EndpointAddr::host(2, 200);
    let payload = vec![0xAB; 64];
    bench("frame/build_64B", || {
        build_udp_frame(black_box(src), black_box(dst), black_box(&payload), 7)
    });
    let frame = build_udp_frame(src, dst, &payload, 7).unwrap();
    bench("frame/parse_64B", || parse_udp_frame(black_box(&frame)));
    let big = build_udp_frame(src, dst, &vec![0xCD; 4096], 7).unwrap();
    bench("frame/parse_4KiB", || parse_udp_frame(black_box(&big)));
}

fn bench_marshal() {
    let sig = Signature::of(&[ArgType::U64, ArgType::Str, ArgType::Bytes]);
    let args = vec![
        Value::U64(123456),
        Value::Str("lauberhorn".into()),
        Value::Bytes(vec![7; 48]),
    ];
    let wire = VarintCodec.encode(&sig, &args).unwrap();
    bench("marshal/varint_encode", || {
        VarintCodec.encode(black_box(&sig), black_box(&args))
    });
    bench("marshal/nic_transform", || {
        transform_to_dispatch_form(black_box(&sig), black_box(&wire))
    });
}

fn bench_rss() {
    let input = [10u8, 0, 0, 1, 10, 0, 0, 2, 0x1f, 0x90, 0x20, 0x00];
    bench("rss/toeplitz_12B", || {
        toeplitz_hash(black_box(&MS_TOEPLITZ_KEY), black_box(&input))
    });
}

fn bench_coherence() {
    let mut sys = CoherentSystem::new(
        2,
        FabricModel::intra_socket(128),
        FabricModel::eci(),
        0x1_0000_0000,
        0x1_0100_0000,
    );
    let addr = LineAddr(0x1000);
    sys.load(CacheId(0), addr).unwrap();
    bench("coherence/load_hit", || {
        sys.load(black_box(CacheId(0)), black_box(addr))
    });
    let mut sys = CoherentSystem::new(
        2,
        FabricModel::intra_socket(128),
        FabricModel::eci(),
        0x1_0000_0000,
        0x1_0100_0000,
    );
    let addr = LineAddr(0x1_0000_0000);
    bench("coherence/defer_and_complete", || {
        let LoadResult::Deferred { token, .. } = sys.load(CacheId(0), addr).unwrap() else {
            unreachable!()
        };
        sys.complete_fill(token, b"data").unwrap();
        sys.drop_line(CacheId(0), addr);
    });
}

fn bench_dispatch_line() {
    let line = DispatchLine {
        code_ptr: 0x1000,
        data_ptr: 0x2000,
        request_id: 42,
        service_id: 1,
        method_id: 0,
        kind: DispatchKind::Rpc,
        args: vec![0x11; 64],
    };
    bench("dispatch/encode_64B", || line.encode(black_box(128)));
    let ctrl = line.encode(128).unwrap();
    bench("dispatch/decode_64B", || {
        DispatchLine::decode(black_box(&ctrl), black_box(&[]))
    });
}

fn bench_model_checker() {
    use lauberhorn::mc::checker::check;
    use lauberhorn::mc::{LauberhornModel, ProtocolConfig};
    bench("mc/default_protocol", || {
        check(&LauberhornModel::new(ProtocolConfig::default()), 1_000_000)
    });
}

fn main() {
    bench_framing();
    bench_marshal();
    bench_rss();
    bench_coherence();
    bench_dispatch_line();
    bench_model_checker();
}
