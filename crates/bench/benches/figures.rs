//! Benchmarks that regenerate (scaled-down versions of) the paper's figures.
//!
//! Each benchmark runs the corresponding experiment from `nimbus-experiments`
//! in its quick configuration and reports how long regeneration takes, so
//! `cargo bench` doubles as a smoke-test that the evaluation still runs end
//! to end.  The full-size figures are regenerated with the
//! `nimbus-experiments` binary (`nimbus-experiments list` names them all).

use criterion::{criterion_group, criterion_main, Criterion};
use nimbus_bench::run_quick;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// The cheaper experiments are benchmarked through Criterion directly.
fn bench_quick_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_quick");
    group.sample_size(10);
    {
        let name = "fig07";
        group.bench_function(name, |b| b.iter(|| run_quick(name)));
    }
    group.finish();
}

/// Cache of one-shot regeneration times: each heavy experiment is executed
/// exactly once per `cargo bench` invocation and its wall time is replayed
/// for Criterion's remaining samples.
fn regen_duration(name: &str) -> Duration {
    static CACHE: Mutex<Option<HashMap<String, Duration>>> = Mutex::new(None);
    let mut guard = CACHE.lock().unwrap();
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(d) = map.get(name) {
        return *d;
    }
    let start = std::time::Instant::now();
    let result = run_quick(name);
    assert!(!result.rows.is_empty(), "{name} produced no rows");
    let elapsed = start.elapsed();
    map.insert(name.to_string(), elapsed);
    elapsed
}

/// The remaining figures are regenerated once each so the whole evaluation is
/// exercised by `cargo bench` without multiplying multi-minute simulations by
/// Criterion's sample count.
fn bench_figure_regeneration(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_regen_once");
    group.sample_size(10);
    for name in ["fig04", "fig05", "fig14", "fig23"] {
        group.bench_function(name, |b| {
            b.iter_custom(|iters| regen_duration(name) * (iters as u32))
        });
    }
    group.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default();
    targets = bench_quick_figures, bench_figure_regeneration
}
criterion_main!(figures);
