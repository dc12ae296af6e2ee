//! One benchmark run: set up, measure for the requested seconds, check the
//! outputs, and reduce everything to the named metrics.

use std::time::{Duration, Instant};

use nimbus_netsim::FctSummary;

use crate::alloc::HEAP;
use crate::calib::reference_kernel_s;
use crate::cells::{is_stochastic, workload_cells, BenchCell, CellOutcome};
use crate::embed::{self, Connection};
use crate::stats::{median, percentile_sorted, TailSummary};
use crate::trace::{self, Boundary, CcRole, TraceData};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["nimbus_mix", "tcp_mix", "fleet_churn"];

/// Workloads that run on request but are not in `BENCHMARK.json`: on a
/// shared host, `core_embed`'s host timing spreads by about 0.2 of its
/// median from run to run, too close to the 0.25 regression bound to gate
/// changes with.
pub const EXTRA_WORKLOADS: [&str; 1] = ["core_embed"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_speedup", "x"),
    ("peak_heap_mb", "MB"),
    ("tput_mbps", "Mbit/s"),
    ("qdelay_ms", "ms"),
];

/// Per-layer metrics every workload reports with `--trace 1` (zero where a
/// layer takes no part in the workload).
pub const PER_LAYER: [(&str, &str); 37] = [
    ("netsim.events", "count"),
    ("netsim.events_per_sim_s", "1/s"),
    ("netsim.self_ms", "ms"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.drops", "count"),
    ("netsim.marks", "count"),
    ("sender.on_ack.calls", "count"),
    ("sender.on_ack.ns", "ns"),
    ("sender.poll_send.calls", "count"),
    ("sender.poll_send.ns", "ns"),
    ("sender.tx_per_poll", "ratio"),
    ("sender.self_ms", "ms"),
    ("sender.retransmits", "count"),
    ("sender.timeouts", "count"),
    ("sender.scan_steps_per_ack", "ratio"),
    ("nimbus.on_report.calls", "count"),
    ("nimbus.on_report.us_p50", "us"),
    ("nimbus.on_report.us_p99", "us"),
    ("nimbus.on_ack.ns", "ns"),
    ("nimbus.self_share", "ratio"),
    ("nimbus.verdicts_held", "count"),
    ("nimbus.mode_switches", "count"),
    ("nimbus.detect_accuracy", "ratio"),
    ("nimbus.retained_heap_kb", "kB"),
    ("cc.primary.self_ms", "ms"),
    ("cc.cross.self_ms", "ms"),
    ("cc.pacing.calls", "count"),
    ("fleet.spawned", "count"),
    ("fleet.retired", "count"),
    ("fleet.next_flow.us", "us"),
    ("fleet.fct_mice_p50_ms", "ms"),
    ("fleet.fct_mice_p99_ms", "ms"),
    ("runner.build_ms", "ms"),
    ("runner.collect_ms", "ms"),
    ("alloc.count", "count"),
    ("alloc.per_event", "ratio"),
    ("alloc.bytes_per_sim_s", "B/s"),
];

/// The traced run's cost over the untraced run (also a per-layer metric).
pub const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead", "ratio");

/// The reference kernel's time on the machine the host-time metrics are
/// scaled to (see [`reference_kernel_s`]).
pub const REFERENCE_KERNEL_NOMINAL_S: f64 = 0.025;

/// Connection length of one `core_embed` connection, seconds.
pub const CONN_S: f64 = 600.0;

/// Extra setups timed per cell and pass, on top of the one that is run.
const SETUP_REPS: usize = 3;
/// Repetitions every run makes at least, so determinism is always checked.
const MIN_PASSES: usize = 2;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Checks made and failed, with a message per failure.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Failed over attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The metrics the contract asks for (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Workload-specific outcomes printed for people, not in the JSON.
    pub extra: Vec<Metric>,
    /// Correctness checks.
    pub checks: Checks,
    /// With `--trace 1`, one line per boundary that was called: calls,
    /// inclusive and self time per repetition, and the log2 histogram's
    /// median and p99 bucket edges.
    pub boundaries: Vec<String>,
    /// Testkit invariants missed by cells whose outputs depend on the seed.
    /// Those invariants were set on one testkit seed and do not hold on
    /// every seed, so a miss is reported here and does not fail the run.
    pub advisories: Vec<String>,
    /// Repetitions measured.
    pub passes: usize,
}

/// Run one workload.  `None` for an unknown workload.
pub fn run(args: &Args) -> Option<RunReport> {
    if args.trace {
        // Calibrate the trace clock before anything is timed.
        trace::ns_per_tick();
    }
    let report = if args.workload == "core_embed" {
        run_embed(args)
    } else {
        run_sim(&workload_cells(&args.workload, args.seed)?, args)
    };
    let expected: Vec<&str> = if args.trace {
        PER_LAYER
            .iter()
            .chain([&TRACE_OVERHEAD])
            .map(|m| m.0)
            .collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        names, expected,
        "the result must carry exactly the listed metrics"
    );
    Some(report)
}

/// Per-cell samples gathered over the passes of a simulator run.
struct CellSamples {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    traced_build_s: Vec<f64>,
    traced_wall_s: Vec<f64>,
    first: Option<CellOutcome>,
}

fn run_sim(cells: &[BenchCell], args: &Args) -> RunReport {
    let mut samples: Vec<CellSamples> = cells
        .iter()
        .map(|_| CellSamples {
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            traced_build_s: Vec::new(),
            traced_wall_s: Vec::new(),
            first: None,
        })
        .collect();
    let mut checks = Checks::default();
    let mut peak_bytes = 0u64;
    let mut trace_data = TraceData::default();
    let (mut run_ns, mut collect_ns) = (0u64, 0u64);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut spawned = 0u64;
    let mut advisory: (u64, Vec<String>) = (0, Vec::new());
    let mut pass_kernel_s: Vec<f64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        let mut kernel = vec![reference_kernel_s()];
        for (cell, s) in cells.iter().zip(samples.iter_mut()) {
            for _ in 0..SETUP_REPS {
                let t0 = Instant::now();
                let built = cell.build(false);
                s.setup_s.push(t0.elapsed().as_secs_f64());
                drop(built);
            }
            HEAP.reset_peak();
            let baseline = HEAP.stats().live;
            let t0 = Instant::now();
            let (net, handle) = cell.build(false);
            s.setup_s.push(t0.elapsed().as_secs_f64());
            let before = HEAP.stats();
            let t1 = Instant::now();
            let out = cell.collect(net, handle);
            s.wall_s.push(t1.elapsed().as_secs_f64());
            let after = HEAP.stats();
            peak_bytes = peak_bytes.max(after.peak - baseline);
            allocs += after.count - before.count;
            alloc_bytes += after.total - before.total;
            kernel.push(reference_kernel_s());
            let outcome = cell.outcome(&out);
            drop(out);
            match &s.first {
                None => {
                    if cell.invariants.is_some() && is_stochastic(cell) {
                        advisory.0 += 1;
                        if !outcome.violations.is_empty() {
                            advisory.1.push(format!(
                                "{} (simulation seed {}): {:?}",
                                cell.name, cell.spec.seed, outcome.violations
                            ));
                        }
                    } else if cell.invariants.is_some() {
                        checks.check(outcome.violations.is_empty(), || {
                            format!("{}: {:?}", cell.name, outcome.violations)
                        });
                    }
                    s.first = Some(outcome.clone());
                }
                Some(first) => checks.check(first.fingerprint == outcome.fingerprint, || {
                    format!("{}: outputs differ between repetitions", cell.name)
                }),
            }
            if args.trace {
                trace::take();
                let t2 = Instant::now();
                let (net, handle) = cell.build(true);
                s.traced_build_s.push(t2.elapsed().as_secs_f64());
                spawned += trace::take().spawned;
                let t3 = trace::now_ticks();
                let out = cell.collect(net, handle);
                let end = trace::now_ticks();
                let data = trace::take();
                let run_end = data.last_exit.clamp(t3, end);
                let ns = |ticks: u64| ticks as f64 * trace::ns_per_tick();
                s.traced_wall_s.push(ns(end - t3) * 1e-9);
                run_ns += ns(run_end - t3) as u64;
                collect_ns += ns(end - run_end) as u64;
                spawned += data.spawned;
                trace_data.merge(&data);
                let traced = cell.outcome(&out);
                checks.check(traced.fingerprint == outcome.fingerprint, || {
                    format!(
                        "{}: the traced run differs from the untraced run",
                        cell.name
                    )
                });
            }
        }
        // One kernel time per pass, the median of those taken between its
        // cells: it follows the host's speed over seconds without carrying
        // the noise of a single 25 ms sample.
        pass_kernel_s.push(median(&kernel));
        passes += 1;
    }
    let firsts: Vec<&CellOutcome> = samples
        .iter()
        .map(|s| s.first.as_ref().expect("every cell ran"))
        .collect();
    let sum_median = |f: &dyn Fn(&CellSamples) -> &Vec<f64>| -> f64 {
        samples.iter().map(|s| median(f(s))).sum()
    };
    // Host times in reference-kernel units: each sample over its pass's
    // kernel time, per-cell medians, summed.
    let sum_scaled = |f: &dyn Fn(&CellSamples) -> &Vec<f64>| -> f64 {
        samples
            .iter()
            .map(|s| {
                let per_pass = f(s).len() / passes;
                let ratios: Vec<f64> = f(s)
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v / pass_kernel_s[i / per_pass])
                    .collect();
                median(&ratios)
            })
            .sum::<f64>()
            * REFERENCE_KERNEL_NOMINAL_S
    };
    let sim_s: f64 = firsts.iter().map(|o| o.sim_s).sum();
    let wall_s = sum_median(&|s| &s.wall_s);
    let n = cells.len() as f64;
    let mut extra = Vec::new();
    let nimbus_acc: Vec<f64> = firsts.iter().filter_map(|o| o.detect_accuracy).collect();
    let detect_accuracy = if args.workload == "nimbus_mix" {
        nimbus_acc.iter().sum::<f64>() / nimbus_acc.len().max(1) as f64
    } else {
        0.0
    };
    let fcts: Vec<(u64, f64)> = firsts.iter().flat_map(|o| o.fcts.clone()).collect();
    let mice = FctSummary::from_fcts(&fcts).mice;
    let (mice_p50_ms, mice_p99_ms) = if mice.count > 0 {
        (mice.p50_s * 1e3, mice.p99_s * 1e3)
    } else {
        (0.0, 0.0)
    };
    if args.workload == "nimbus_mix" {
        extra.push(metric("detect_accuracy", detect_accuracy, "ratio"));
    }
    if mice.count > 0 {
        extra.push(metric("fct_mice_p50_ms", mice_p50_ms, "ms"));
        extra.push(metric("fct_mice_p99_ms", mice_p99_ms, "ms"));
    }
    extra.push(metric("fail_frac", checks.fail_frac(), "ratio"));
    extra.push(metric("advisory_checked", advisory.0 as f64, "count"));
    extra.push(metric("advisory_missed", advisory.1.len() as f64, "count"));
    extra.push(metric("setup_s.unscaled", sum_median(&|s| &s.setup_s), "s"));
    extra.push(metric("sim_speedup.unscaled", sim_s / wall_s, "x"));
    extra.push(metric(
        "reference_kernel_ms",
        median(&pass_kernel_s) * 1e3,
        "ms",
    ));

    let metrics = if !args.trace {
        vec![
            metric("setup_s", sum_scaled(&|s| &s.setup_s), "s"),
            metric("sim_speedup", sim_s / sum_scaled(&|s| &s.wall_s), "x"),
            metric("peak_heap_mb", peak_bytes as f64 / 1e6, "MB"),
            metric(
                "tput_mbps",
                (firsts
                    .iter()
                    .map(|o| o.metrics.mean_throughput_mbps.ln())
                    .sum::<f64>()
                    / n)
                    .exp(),
                "Mbit/s",
            ),
            metric(
                "qdelay_ms",
                firsts
                    .iter()
                    .map(|o| o.metrics.median_queue_delay_ms)
                    .sum::<f64>()
                    / n,
                "ms",
            ),
        ]
    } else {
        let p = passes as f64;
        let d = &trace_data;
        let events: f64 = firsts.iter().map(|o| o.events as f64).sum();
        let netsim_self_ns = (run_ns as f64 - d.top_level_ns as f64).max(0.0) / p;
        let ack = d.tally(Boundary::EpAck);
        let poll = d.tally(Boundary::EpPoll);
        let next = d.tally(Boundary::SpawnNext);
        let nimbus = d.cc_total(CcRole::Nimbus);
        let nimbus_ack = d.tally(Boundary::Cc(CcRole::Nimbus, trace::ACKED));
        let pacing: u64 = [CcRole::Nimbus, CcRole::Primary, CcRole::Cross]
            .iter()
            .map(|&r| d.tally(Boundary::Cc(r, trace::PACING)).calls)
            .sum();
        let mut report_us: Vec<f64> = d.report_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        report_us.sort_by(f64::total_cmp);
        let overhead = sum_median(&|s| &s.traced_wall_s) / wall_s - 1.0;
        let sum = |f: &dyn Fn(&CellOutcome) -> f64| -> f64 { firsts.iter().map(|o| f(o)).sum() };
        let mut l = Layers::new();
        l.set("netsim.events", events)
            .set("netsim.events_per_sim_s", events / sim_s)
            .set("netsim.self_ms", netsim_self_ns / 1e6)
            .set("netsim.ns_per_event", netsim_self_ns / events.max(1.0))
            .set("netsim.drops", sum(&|o| o.drops as f64))
            .set("netsim.marks", sum(&|o| o.marks as f64))
            .set("sender.on_ack.calls", ack.calls as f64 / p)
            .set("sender.on_ack.ns", per_call(ack.self_ns, ack.calls))
            .set("sender.poll_send.calls", poll.calls as f64 / p)
            .set("sender.poll_send.ns", per_call(poll.self_ns, poll.calls))
            .set("sender.tx_per_poll", per_call(d.transmits, poll.calls))
            .set(
                "sender.self_ms",
                d.endpoint_total().self_ns as f64 / p / 1e6,
            )
            .set("sender.retransmits", d.retransmits as f64 / p)
            .set("sender.timeouts", d.timeouts as f64 / p)
            .set(
                "sender.scan_steps_per_ack",
                per_call(d.scan_steps, ack.calls),
            )
            .set("nimbus.on_report.calls", report_us.len() as f64 / p)
            .set(
                "nimbus.on_report.us_p50",
                percentile_sorted(&report_us, 50.0),
            )
            .set(
                "nimbus.on_report.us_p99",
                percentile_sorted(&report_us, 99.0),
            )
            .set(
                "nimbus.on_ack.ns",
                per_call(nimbus_ack.incl_ns, nimbus_ack.calls),
            )
            .set(
                "nimbus.self_share",
                nimbus.self_ns as f64 / run_ns.max(1) as f64,
            )
            .set(
                "nimbus.verdicts_held",
                sum(&|o| o.metrics.eta_series.len() as f64),
            )
            .set(
                "nimbus.mode_switches",
                sum(&|o| o.metrics.mode_log.len() as f64),
            )
            .set("nimbus.detect_accuracy", detect_accuracy)
            .set(
                "cc.primary.self_ms",
                d.cc_total(CcRole::Primary).self_ns as f64 / p / 1e6,
            )
            .set(
                "cc.cross.self_ms",
                d.cc_total(CcRole::Cross).self_ns as f64 / p / 1e6,
            )
            .set("cc.pacing.calls", pacing as f64 / p)
            .set("fleet.spawned", spawned as f64 / p)
            .set("fleet.retired", sum(&|o| o.fcts.len() as f64))
            .set(
                "fleet.next_flow.us",
                per_call(next.incl_ns, next.calls) / 1e3,
            )
            .set("fleet.fct_mice_p50_ms", mice_p50_ms)
            .set("fleet.fct_mice_p99_ms", mice_p99_ms)
            .set("runner.build_ms", sum_median(&|s| &s.traced_build_s) * 1e3)
            .set("runner.collect_ms", collect_ns as f64 / p / 1e6)
            .set("alloc.count", allocs as f64 / p)
            .set("alloc.per_event", allocs as f64 / p / events.max(1.0))
            .set("alloc.bytes_per_sim_s", alloc_bytes as f64 / p / sim_s)
            .set(TRACE_OVERHEAD.0, overhead);
        l.into_metrics()
    };
    RunReport {
        metrics,
        extra,
        checks,
        advisories: advisory.1,
        boundaries: boundary_table(&trace_data, passes),
        passes,
    }
}

fn run_embed(args: &Args) -> RunReport {
    let mut checks = Checks::default();
    let mut plain: Vec<Connection> = Vec::new();
    let mut traced: Vec<Connection> = Vec::new();
    let mut trace_data = TraceData::default();
    let mut calib: Vec<f64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut kernel_before = reference_kernel_s();
    while plain.len() < MIN_PASSES || Instant::now() < deadline {
        let c = embed::run_connection(args.seed, CONN_S, false);
        let kernel_after = reference_kernel_s();
        calib.push((kernel_before + kernel_after) / 2.0);
        kernel_before = kernel_after;
        match plain.first() {
            None => {
                for (i, ok) in c.phase_ok.iter().enumerate() {
                    checks.check(*ok, || {
                        format!("core_embed: phase {i} mostly in the wrong mode")
                    });
                }
            }
            Some(first) => checks.check(signature(first, true) == signature(&c, true), || {
                "core_embed: outputs differ between repetitions".to_string()
            }),
        }
        if args.trace {
            trace::take();
            let t = embed::run_connection(args.seed, CONN_S, true);
            trace_data.merge(&trace::take());
            checks.check(signature(&t, false) == signature(&c, false), || {
                "core_embed: the traced run differs from the untraced run".to_string()
            });
            traced.push(t);
        }
        plain.push(c);
    }
    let first = &plain[0];
    let med = |f: &dyn Fn(&Connection) -> f64, v: &[Connection]| -> f64 {
        median(&v.iter().map(f).collect::<Vec<_>>())
    };
    let report_pct = |c: &Connection, p: f64| -> f64 {
        let mut us: Vec<f64> = c.report_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        percentile_sorted(&us, p)
    };
    let tail = TailSummary::of(
        &first
            .report_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let mut extra = vec![
        metric("detect_accuracy", first.detect_accuracy, "ratio"),
        metric("report_us_p50", med(&|c| report_pct(c, 50.0), &plain), "us"),
        metric("report_us_p99", med(&|c| report_pct(c, 99.0), &plain), "us"),
        metric("retained_heap_kb", first.retained_bytes as f64 / 1e3, "kB"),
    ];
    if let Some((p, v)) = tail.tail {
        extra.push(Metric {
            name: "report_us_tail",
            value: v,
            unit: "us",
        });
        extra.push(metric("report_us_tail_percentile", p, "pct"));
    }
    extra.push(metric("report_us_samples", tail.n as f64, "count"));
    extra.push(metric("fail_frac", checks.fail_frac(), "ratio"));
    let loop_s = med(&|c| c.loop_s, &plain);
    let scaled = |f: &dyn Fn(&Connection) -> f64| -> f64 {
        let ratios: Vec<f64> = plain.iter().zip(&calib).map(|(c, k)| f(c) / k).collect();
        median(&ratios) * REFERENCE_KERNEL_NOMINAL_S
    };
    extra.push(metric("setup_s.unscaled", med(&|c| c.setup_s, &plain), "s"));
    extra.push(metric("sim_speedup.unscaled", CONN_S / loop_s, "x"));
    extra.push(metric("reference_kernel_ms", median(&calib) * 1e3, "ms"));
    let metrics = if !args.trace {
        vec![
            metric("setup_s", scaled(&|c| c.setup_s), "s"),
            metric("sim_speedup", CONN_S / scaled(&|c| c.loop_s), "x"),
            metric(
                "peak_heap_mb",
                plain.iter().map(|c| c.peak_bytes).max().unwrap_or(0) as f64 / 1e6,
                "MB",
            ),
            metric("tput_mbps", first.tput_mbps, "Mbit/s"),
            metric("qdelay_ms", first.qdelay_ms, "ms"),
        ]
    } else {
        let p = traced.len() as f64;
        let d = &trace_data;
        let nimbus = d.cc_total(CcRole::Nimbus);
        let nimbus_ack = d.tally(Boundary::Cc(CcRole::Nimbus, trace::ACKED));
        let mut report_us: Vec<f64> = d.report_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        report_us.sort_by(f64::total_cmp);
        let traced_loop_s = med(&|c| c.loop_s, &traced);
        let reports = first.report_ns.len() as f64;
        let mut l = Layers::new();
        l.set("nimbus.on_report.calls", report_us.len() as f64 / p)
            .set(
                "nimbus.on_report.us_p50",
                percentile_sorted(&report_us, 50.0),
            )
            .set(
                "nimbus.on_report.us_p99",
                percentile_sorted(&report_us, 99.0),
            )
            .set(
                "nimbus.on_ack.ns",
                per_call(nimbus_ack.incl_ns, nimbus_ack.calls),
            )
            .set(
                "nimbus.self_share",
                nimbus.self_ns as f64 / 1e9 / traced.iter().map(|c| c.loop_s).sum::<f64>(),
            )
            .set("nimbus.verdicts_held", first.verdicts_held as f64)
            .set("nimbus.mode_switches", first.mode_switches as f64)
            .set("nimbus.detect_accuracy", first.detect_accuracy)
            .set("nimbus.retained_heap_kb", first.retained_bytes as f64 / 1e3)
            .set(
                "cc.pacing.calls",
                d.tally(Boundary::Cc(CcRole::Nimbus, trace::PACING)).calls as f64 / p,
            )
            .set("runner.build_ms", med(&|c| c.setup_s, &traced) * 1e3)
            .set("alloc.count", first.allocs as f64)
            .set("alloc.per_event", first.allocs as f64 / reports)
            .set("alloc.bytes_per_sim_s", first.alloc_bytes as f64 / CONN_S)
            .set(TRACE_OVERHEAD.0, traced_loop_s / loop_s - 1.0);
        l.into_metrics()
    };
    RunReport {
        metrics,
        extra,
        checks,
        advisories: Vec::new(),
        boundaries: boundary_table(&trace_data, traced.len()),
        passes: plain.len(),
    }
}

/// The deterministic outputs of a connection, as exact bit patterns.
/// `with_heap` includes the retained heap, which the traced run's own
/// sample buffer inflates.
fn signature(c: &Connection, with_heap: bool) -> Vec<u64> {
    let mut s = vec![
        c.tput_mbps.to_bits(),
        c.qdelay_ms.to_bits(),
        c.detect_accuracy.to_bits(),
        c.verdicts_held as u64,
        c.mode_switches as u64,
        c.report_ns.len() as u64,
    ];
    s.extend(c.phase_ok.iter().map(|&ok| u64::from(ok)));
    if with_heap {
        s.push(c.retained_bytes);
    }
    s
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn zero_if_nan(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// Per-layer values by name, in `PER_LAYER` order; a metric never set (a
/// layer the workload does not use) reports 0.
struct Layers(Vec<f64>);

impl Layers {
    fn new() -> Self {
        Layers(vec![0.0; PER_LAYER.len() + 1])
    }

    fn set(&mut self, name: &str, value: f64) -> &mut Self {
        let i = PER_LAYER
            .iter()
            .chain([&TRACE_OVERHEAD])
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no per-layer metric named {name}"));
        self.0[i] = zero_if_nan(value);
        self
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .chain([&TRACE_OVERHEAD])
            .zip(self.0)
            .map(|(&(name, unit), value)| metric(name, value, unit))
            .collect()
    }
}

fn boundary_table(d: &TraceData, repetitions: usize) -> Vec<String> {
    let p = repetitions.max(1) as f64;
    d.tallies
        .iter()
        .enumerate()
        .filter(|(_, t)| t.calls > 0)
        .map(|(i, t)| {
            let timing = if t.hist.count() > 0 {
                format!(
                    " incl_ms {:.3} self_ms {:.3} p50_ns<={} p99_ns<={}",
                    t.incl_ns as f64 / p / 1e6,
                    t.self_ns as f64 / p / 1e6,
                    t.hist.percentile_upper_ns(50.0),
                    t.hist.percentile_upper_ns(99.0)
                )
            } else {
                " (counted, not timed)".to_string()
            };
            format!(
                "{:32} calls {:.0}{timing}",
                Boundary::name_of(i),
                t.calls as f64 / p
            )
        })
        .collect()
}

fn per_call(total: u64, calls: u64) -> f64 {
    total as f64 / calls.max(1) as f64
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.failed == 0,
        report.checks.attempted,
        report.checks.failed,
        metrics.join(", ")
    )
}

/// Full-precision JSON number (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
