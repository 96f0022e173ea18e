//! Micro-benchmarks (criterion-style, self-hosted harness) for the crypto substrate: the per-block
//! sealing costs that dominate every oblivious operator.

use oblidb_bench::harness::{BenchmarkId, Criterion, Throughput};
use oblidb_bench::{criterion_group, criterion_main};
use oblidb_crypto::aead::{open, seal, AeadKey, Nonce};
use oblidb_crypto::{sha256, SipHash24};
use oblidb_enclave::{CrossingCost, EnclaveMemory, Host};
use oblidb_storage::SealedRegion;

fn bench_aead(c: &mut Criterion) {
    let mut group = c.benchmark_group("aead");
    let key = AeadKey([7u8; 32]);
    for size in [64usize, 256, 1024, 4096] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("seal", size), &size, |b, &size| {
            let mut buf = vec![0xABu8; size];
            let mut ctr = 0u64;
            b.iter(|| {
                ctr += 1;
                let nonce = Nonce::from_parts(0, ctr);
                std::hint::black_box(seal(&key, &nonce, b"aad", &mut buf));
            });
        });
        group.bench_with_input(BenchmarkId::new("seal+open", size), &size, |b, &size| {
            let mut ctr = 0u64;
            b.iter(|| {
                ctr += 1;
                let mut buf = vec![0xABu8; size];
                let nonce = Nonce::from_parts(0, ctr);
                let tag = seal(&key, &nonce, b"aad", &mut buf);
                open(&key, &nonce, b"aad", &mut buf, &tag).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashing");
    let data = vec![0x42u8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha256_1k", |b| b.iter(|| std::hint::black_box(sha256(&data))));
    let sip = SipHash24::new(1, 2);
    group.bench_function("siphash_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(sip.hash_u64(i))
        })
    });
    group.finish();
}

/// Per-block vs. batched sealed I/O through the whole enclave boundary
/// (SealedRegion over Host): the amortization every operator now rides on.
/// The host prices each transition at ~an SGX OCALL (see
/// `bin/batch_io.rs` for the calibration, and for the free-crossing
/// baseline where the two paths tie at pure AEAD cost).
fn bench_sealed_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("sealed_io (sgx-priced crossings)");
    const BLOCKS: usize = 128;
    const SGX_CROSSING_SPINS: u32 = 250;
    for size in [64usize, 1024] {
        group.throughput(Throughput::Bytes((BLOCKS * size) as u64));
        let mut host = Host::new();
        host.set_crossing_cost(CrossingCost { spins: SGX_CROSSING_SPINS, stall_nanos: 0 });
        let mut region = SealedRegion::create(&mut host, AeadKey([7u8; 32]), BLOCKS, size).unwrap();
        let payloads = vec![0xCDu8; BLOCKS * size];
        group.bench_with_input(BenchmarkId::new("write_per_block", size), &size, |b, &size| {
            b.iter(|| {
                for i in 0..BLOCKS {
                    region.write(&mut host, i as u64, &payloads[i * size..(i + 1) * size]).unwrap();
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("write_batched", size), &size, |b, _| {
            b.iter(|| region.write_batch(&mut host, 0, &payloads).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("read_per_block", size), &size, |b, _| {
            b.iter(|| {
                for i in 0..BLOCKS {
                    std::hint::black_box(region.read(&mut host, i as u64).unwrap());
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("read_batched", size), &size, |b, _| {
            b.iter(|| {
                let payloads = region.read_batch(&mut host, 0, BLOCKS).unwrap();
                std::hint::black_box(payloads.len());
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_aead, bench_hashing, bench_sealed_io
}
criterion_main!(benches);
