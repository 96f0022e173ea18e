//! Crypto hot-path throughput: scalar vs. SIMD batch AEAD, recorded for
//! the perf trajectory.
//!
//! Measures `seal_batch`/`open_batch` MiB/s over 1 KiB blocks at batch
//! sizes 1/16/256 under each forced [`oblidb_crypto::simd::Backend`]
//! (scalar always, plus the detected best when it differs), and an
//! end-to-end sealed-region scan (`read_batch` through the storage
//! stack). Emits `BENCH_crypto.json` in the working directory so
//! successive PRs can diff the speedup; the scalar rows double as the
//! recorded fallback numbers for non-x86_64 targets.
//!
//! The ISSUE target is ≥ 2× seal+open over scalar at 256-block batches;
//! a miss prints a warning rather than failing, so the bench stays
//! usable on hardware without wide vectors.

use oblidb_bench::report::{write_bench_json, Field, Report, Row};
use oblidb_bench::timing::time_mean;
use oblidb_crypto::simd::{self, Backend};
use oblidb_crypto::{open_batch, seal_batch, AeadKey, Nonce, TAG_LEN};
use oblidb_enclave::Host;
use oblidb_storage::SealedRegion;

/// Payload bytes per sealed block — the 1 KiB geometry the issue names.
const BLOCK_BYTES: usize = 1024;

/// Batch sizes: a lone block (no batching benefit possible), a cache-warm
/// run, and a full region sweep.
const BATCHES: [usize; 3] = [1, 16, 256];

/// Iterations sized so each case moves ~8 MiB (one call in smoke mode).
fn iters(total_bytes: usize) -> usize {
    if oblidb_bench::harness::smoke_mode() {
        1
    } else {
        (8 * 1024 * 1024 / total_bytes).max(8)
    }
}

fn mib_s(total_bytes: usize, mean_s: f64) -> f64 {
    total_bytes as f64 / mean_s.max(f64::MIN_POSITIVE) / (1024.0 * 1024.0)
}

/// Raw batch-AEAD seal and open throughput at one batch size under the
/// currently forced backend. Returns (seal MiB/s, open MiB/s).
fn aead_case(batch: usize) -> (f64, f64) {
    let key = AeadKey([0x42u8; 32]);
    let nonces: Vec<Nonce> = (0..batch).map(|i| Nonce::from_parts(7, i as u64)).collect();
    let aads: Vec<[u8; 16]> = (0..batch).map(|i| [(i & 0xFF) as u8; 16]).collect();
    let aad_refs: Vec<&[u8]> = aads.iter().map(|a| a.as_slice()).collect();
    let mut data = vec![0xA5u8; batch * BLOCK_BYTES];
    let mut tags = vec![[0u8; TAG_LEN]; batch];
    let total = batch * BLOCK_BYTES;

    let seal_mean = time_mean(iters(total), || {
        let mut blocks: Vec<&mut [u8]> = data.chunks_exact_mut(BLOCK_BYTES).collect();
        seal_batch(&key, &nonces, &aad_refs, &mut blocks, &mut tags);
        std::hint::black_box(&tags);
    });

    // Open needs valid ciphertext every iteration, so each pass restores
    // the sealed bytes first; the memcpy is noise next to the AEAD work.
    let sealed = data.clone();
    let open_mean = time_mean(iters(total), || {
        data.copy_from_slice(&sealed);
        let mut blocks: Vec<&mut [u8]> = data.chunks_exact_mut(BLOCK_BYTES).collect();
        open_batch(&key, &nonces, &aad_refs, &mut blocks, &tags).expect("tags were just sealed");
        std::hint::black_box(&data);
    });
    (mib_s(total, seal_mean.as_secs_f64()), mib_s(total, open_mean.as_secs_f64()))
}

/// End-to-end scan: `read_batch` of a whole sealed region through the
/// storage stack (nonce parse + batch open + plaintext copy-out).
fn scan_case(blocks: usize) -> f64 {
    let mut host = Host::new();
    let mut region =
        SealedRegion::create(&mut host, AeadKey([9u8; 32]), blocks, BLOCK_BYTES).unwrap();
    let payloads = vec![0x3Cu8; blocks * BLOCK_BYTES];
    region.write_batch(&mut host, 0, &payloads).unwrap();
    let total = blocks * BLOCK_BYTES;
    let mean = time_mean(iters(total), || {
        std::hint::black_box(region.read_batch(&mut host, 0, blocks).unwrap());
    });
    mib_s(total, mean.as_secs_f64())
}

fn main() {
    let detected = simd::detected();
    let mut backends = vec![Backend::Scalar];
    if detected != Backend::Scalar {
        backends.push(detected);
    }

    // (op, backend, batch blocks, MiB/s); the scalar rows are always
    // present so the artifact records the fallback numbers alongside the
    // SIMD ones.
    let mut results: Vec<(&str, &str, usize, f64)> = Vec::new();
    for &backend in &backends {
        simd::force(Some(backend));
        for batch in BATCHES {
            let (seal, open) = aead_case(batch);
            results.push(("seal", backend.label(), batch, seal));
            results.push(("open", backend.label(), batch, open));
        }
        results.push(("region_scan", backend.label(), 256, scan_case(256)));
    }
    simd::force(None);

    // Throughput relative to the scalar row at the same (op, batch).
    let vs_scalar = |op: &str, batch: usize, mib_s: f64| {
        let base = results
            .iter()
            .find(|&&(o, b, n, _)| b == "scalar" && o == op && n == batch)
            .map_or(mib_s, |r| r.3);
        mib_s / base.max(f64::MIN_POSITIVE)
    };

    let mut report = Report::new(
        format!("Crypto hot path (detected backend: {})", detected.label()),
        &["op", "backend", "batch", "MiB/s", "vs scalar"],
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut below_target = Vec::new();
    for &(op, backend, batch, mib_s) in &results {
        let speedup = vs_scalar(op, batch, mib_s);
        report.row(&[
            op.to_string(),
            backend.to_string(),
            batch.to_string(),
            format!("{mib_s:.1}"),
            format!("{speedup:.2}x"),
        ]);
        rows.push(vec![
            ("op", op.into()),
            ("backend", backend.into()),
            ("batch_blocks", batch.into()),
            ("block_bytes", BLOCK_BYTES.into()),
            ("mib_s", Field::Float(mib_s, 3)),
            ("speedup_vs_scalar", Field::Float(speedup, 3)),
        ]);
        if backend != "scalar" && batch == 256 && matches!(op, "seal" | "open") && speedup < 2.0 {
            below_target.push((op, speedup));
        }
    }
    report.print();

    if !oblidb_bench::harness::smoke_mode() {
        for (op, speedup) in below_target {
            println!("WARNING: {op}@256 is {speedup:.2}x scalar — below the 2x target");
        }
    }

    let meta = [("detected_backend", detected.label().into())];
    let path = write_bench_json(std::path::Path::new("."), "crypto", &meta, &rows)
        .expect("write BENCH_crypto.json");
    println!("\nwrote {}", path.display());
}
