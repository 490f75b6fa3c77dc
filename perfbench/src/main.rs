//! The Clover reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is a grid of figure-suite experiment cells (see
//! [`cells::Workload`] and `perfbench/README.md`). One repetition sets up
//! every cell — the `Experiment`/`GlobalRouter` constructors, BASE
//! calibration included — then runs every cell on a pool of at most
//! `nproc` threads. Repetitions continue until `--seconds` have passed.
//!
//! `--trace 0` reports the end-to-end metrics: host times as medians over
//! the repetitions, and the simulated figures, which are deterministic per
//! seed. `--trace 1` alternates untraced repetitions with repetitions run
//! under the program's phase profiler for half the time, then times single
//! layers through their public functions for the other half, and reports
//! the per-layer metrics. Every repetition checks conservation, service
//! and that its outcome digests match the first repetition's.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod cells;
mod host;
mod layers;
mod report;
mod stats;

use cells::{run_rep, CellOutcome, Rep, SimFigures, Workload};
use clover::telemetry::PhaseTotals;
use report::{result_json, Metric};
use stats::{median, min_max, quartiles, SelfTimes};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// The end-to-end metrics `--trace 0` reports, in order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "sim_carbon_g_per_kreq",
    "sim_accuracy_pct",
    "sim_sla_met_frac",
    "sim_served_frac",
];

/// The per-layer metrics `--trace 1` reports, in order.
const PER_LAYER: [&str; 47] = [
    "core.plan_self_s",
    "core.search_s",
    "serving.des_self_s",
    "serving.carry_s",
    "core.scaler_s",
    "trace.other_s",
    "trace.cell_span_s",
    "simkit.pool_idle_s",
    "telemetry.overhead_pct",
    "host.peak_rss_mib",
    "serving.sim_events",
    "serving.ns_per_event",
    "core.invocations",
    "core.evals",
    "core.evals_accepted_frac",
    "serving.dropped",
    "serving.drop_frac",
    "serving.p95_over_sla",
    "router.migrated_requests",
    "router.outage_epochs",
    "workload.arrival_ns.poisson",
    "workload.arrival_ns.diurnal",
    "workload.arrival_ns.mmpp",
    "workload.arrival_ns.flash_crowd",
    "workload.arrival_ns.replay",
    "simkit.event_queue_ns",
    "serving.window_ns_per_event",
    "serving.window_co2opt_ns_per_event",
    "serving.window_allocs",
    "serving.continuous_ns_per_event",
    "serving.analytic_ns",
    "core.enumerate_us",
    "core.sa_invocation_us",
    "core.sa_invocation_raw_us",
    "core.neighbor_sample_ns",
    "core.des_eval_us",
    "core.graph_build_ns",
    "core.ged_ns",
    "core.graph_add_sub_ns",
    "mig.decompose_ns.cold",
    "mig.decompose_ns.warm",
    "router.weights_ns.uniform",
    "router.weights_ns.random",
    "router.weights_ns.round-robin",
    "router.weights_ns.smallest-queue",
    "router.weights_ns.carbon-greedy",
    "router.weights_ns.forecast-aware",
];

/// Repetitions a `--trace 0` run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (workloads, all) = if workload == "all" {
        (Workload::ALL.to_vec(), true)
    } else {
        let w = Workload::parse(&workload).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {workload}; expected all or one of {names:?}")
        })?;
        (vec![w], false)
    };
    Ok(Args {
        workloads,
        all,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Check results accumulated over a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Checks every cell of `rep` against its own invariants and against
    /// the reference outcomes, counting one attempted operation per cell.
    fn rep(&mut self, rep: &Rep, labels: &[String], reference: &[CellOutcome], what: &str) {
        for ((run, label), want) in rep.cells.iter().zip(labels).zip(reference) {
            self.attempted += 1;
            let mut problems = run.outcome.violations();
            if run.outcome.digest != want.digest {
                problems.push(format!(
                    "{what} digest {:#018x} != first run's {:#018x}",
                    run.outcome.digest, want.digest
                ));
            }
            if !problems.is_empty() {
                self.failed += 1;
                for p in problems {
                    self.messages.push(format!("{label}: {p}"));
                }
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.messages.push(message);
    }
}

/// Runs repetitions until `seconds` have passed and at least `MIN_REPS`
/// were made; with `traced_pairs`, untraced and traced repetitions
/// alternate, starting untraced, and end after an equal number of each.
fn repeat(
    cells: &[cells::Cell],
    threads: usize,
    seconds: f64,
    traced_pairs: bool,
) -> Vec<(bool, Rep)> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let traced = traced_pairs && reps.len() % 2 == 1;
        reps.push((traced, run_rep(cells, threads, traced)));
        let min = if traced_pairs { 2 } else { MIN_REPS };
        if reps.len() >= min
            && start.elapsed().as_secs_f64() >= seconds
            && (!traced_pairs || reps.len() % 2 == 0)
        {
            return reps;
        }
    }
}

fn print_samples(name: &str, unit: &str, xs: &[f64]) {
    let (lo, hi) = min_max(xs);
    let (q1, q3) = if xs.len() >= 2 {
        quartiles(xs)
    } else {
        (lo, hi)
    };
    println!(
        "  {name:<24} median {:>10.6} {unit:<2} quartiles [{q1:.6} .. {q3:.6}] range [{lo:.6} .. {hi:.6}] n={}",
        median(xs),
        xs.len()
    );
}

fn print_cells(labels: &[String], rep: &Rep) {
    println!(
        "  {:<28} {:>10} {:>10} {:>8} {:>8} {:>11} {:>9} {:>8} {:>8} {:>4}",
        "cell",
        "arrived",
        "served",
        "dropped",
        "backlog",
        "sim_events",
        "carbon_g",
        "acc_%",
        "p95/sla",
        "sla"
    );
    for (label, run) in labels.iter().zip(&rep.cells) {
        let o = &run.outcome;
        println!(
            "  {label:<28} {:>10} {:>10} {:>8} {:>8} {:>11} {:>9.1} {:>8.3} {:>8.3} {:>4}",
            o.arrived,
            o.served,
            o.dropped,
            o.backlog,
            o.sim_events,
            o.carbon_g,
            o.accuracy_pct,
            o.p95_over_sla,
            if o.sla_met { "ok" } else { "VIOL" }
        );
    }
}

/// The end-to-end metrics of `reps` (all untraced).
fn end_to_end(reps: &[&Rep]) -> Vec<Metric> {
    let col = |f: fn(&Rep) -> f64| reps.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let (wall, cpu) = (col(|r| r.wall_s), col(|r| r.cpu_s));
    let setup: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    print_samples("setup_s", "s", &setup);
    print_samples("wall_s", "s", &wall);
    print_samples("cpu_s", "s", &cpu);
    let outcomes: Vec<&CellOutcome> = reps[0].cells.iter().map(|c| &c.outcome).collect();
    let sim = SimFigures::of(&outcomes);
    vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("wall_s", median(&wall), "s"),
        Metric::new("cpu_s", median(&cpu), "s"),
        Metric::new("sim_carbon_g_per_kreq", sim.carbon_g_per_kreq, "g/kreq"),
        Metric::new("sim_accuracy_pct", sim.accuracy_pct, "%"),
        Metric::new("sim_sla_met_frac", sim.sla_met_frac, "frac"),
        Metric::new("sim_served_frac", sim.served_frac, "frac"),
    ]
}

/// The per-layer metrics of a traced run: `traced` is the traced
/// repetition the layer table is read from; `overhead_pct` compares
/// traced with untraced wall time.
fn per_layer(
    traced: &Rep,
    threads: usize,
    overhead_pct: f64,
    layer_budget: Duration,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut phases = PhaseTotals::default();
    for run in &traced.cells {
        match &run.phases {
            Some(p) => phases.merge(p),
            None => checks.fail("traced cell returned no phase totals".into()),
        }
    }
    let spans: f64 = traced.cells.iter().map(|c| c.span_s).sum();
    let t = SelfTimes::split(&phases, spans);
    if let Err(e) = t.check(spans) {
        checks.fail(format!("self-time accounting: {e}"));
    }
    let outcomes: Vec<&CellOutcome> = traced.cells.iter().map(|c| &c.outcome).collect();
    let total = |f: fn(&CellOutcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>();
    let (events, evals) = (total(|o| o.sim_events), total(|o| o.evals));
    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let mut m = vec![
        Metric::new("core.plan_self_s", t.plan_self, "s"),
        Metric::new("core.search_s", t.search, "s"),
        Metric::new("serving.des_self_s", t.des_self, "s"),
        Metric::new("serving.carry_s", t.carry, "s"),
        Metric::new("core.scaler_s", t.scaler, "s"),
        Metric::new("trace.other_s", t.other, "s"),
        Metric::new("trace.cell_span_s", spans, "s"),
        Metric::new(
            "simkit.pool_idle_s",
            threads as f64 * traced.wall_s - spans,
            "s",
        ),
        Metric::new("telemetry.overhead_pct", overhead_pct, "%"),
        Metric::new("host.peak_rss_mib", host::peak_rss_mib(), "MiB"),
        Metric::new("serving.sim_events", events as f64, "count"),
        Metric::new(
            "serving.ns_per_event",
            (t.des_self + t.search) * 1e9 / events.max(1) as f64,
            "ns",
        ),
        Metric::new("core.invocations", total(|o| o.invocations) as f64, "count"),
        Metric::new("core.evals", evals as f64, "count"),
        Metric::new(
            "core.evals_accepted_frac",
            frac(total(|o| o.evals_accepted), evals),
            "frac",
        ),
        Metric::new("serving.dropped", total(|o| o.dropped) as f64, "count"),
        Metric::new(
            "serving.drop_frac",
            frac(total(|o| o.dropped), total(|o| o.arrived)),
            "frac",
        ),
        Metric::new(
            "serving.p95_over_sla",
            SimFigures::of(&outcomes).p95_over_sla,
            "ratio",
        ),
        Metric::new(
            "router.migrated_requests",
            total(|o| o.migrated) as f64,
            "count",
        ),
        Metric::new(
            "router.outage_epochs",
            total(|o| o.outage_epochs) as f64,
            "count",
        ),
    ];
    println!("  layer table (traced run; self times in s, Σ self + other = Σ cell spans)");
    for x in &m {
        println!("  {:<36} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!("  single layers, timed through public functions (median [min .. max] of n)");
    for l in layers::measure(layer_budget) {
        println!(
            "  {:<36} {:>16.3} {:<5} [{:.3} .. {:.3}] n={}",
            l.name, l.median, l.unit, l.min, l.max, l.samples
        );
        m.push(Metric::new(l.name, l.median, l.unit));
    }
    m
}

/// Runs one workload and returns its metrics.
fn run_workload(w: Workload, args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let cells = w.cells(args.seed);
    let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(cells.len());
    println!(
        "workload {} (seed {}, {} cells, {:.0} h horizon, {threads} threads of {nproc})",
        w.name(),
        args.seed,
        cells.len(),
        w.horizon_hours()
    );
    let e2e_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // The traced comparison rests on few repetitions, so one untimed
    // repetition first takes the process's cold start out of it.
    let warmup = args.trace.then(|| run_rep(&cells, threads, false));
    let reps = repeat(&cells, threads, e2e_seconds, args.trace);
    let reference: Vec<CellOutcome> = reps[0].1.cells.iter().map(|c| c.outcome.clone()).collect();
    if let Some(rep) = &warmup {
        checks.rep(rep, &labels, &reference, "warm-up");
    }
    for (traced, rep) in &reps {
        let what = if *traced { "traced" } else { "untraced" };
        checks.rep(rep, &labels, &reference, what);
    }
    print_cells(&labels, &reps[0].1);
    let untraced: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let metrics = end_to_end(&untraced);
    if !args.trace {
        return metrics;
    }
    let mut traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let walls = |rs: &[&Rep]| rs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    print_samples("traced wall_s", "s", &walls(&traced));
    let overhead_pct = (median(&walls(&traced)) / median(&walls(&untraced)) - 1.0) * 100.0;
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let median_traced = traced[(traced.len() - 1) / 2];
    let layer_budget = Duration::from_secs_f64(args.seconds / 2.0);
    let layer = per_layer(median_traced, threads, overhead_pct, layer_budget, checks);
    if args.all {
        metrics.into_iter().chain(layer).collect()
    } else {
        layer
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let declared: Vec<&str> = match (args.trace, args.all) {
        (false, _) => END_TO_END.to_vec(),
        (true, false) => PER_LAYER.to_vec(),
        (true, true) => END_TO_END.iter().chain(&PER_LAYER).copied().collect(),
    };
    let mut checks = Checks::default();
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        let m = run_workload(w, &args, &mut checks);
        let names: Vec<&str> = m.iter().map(|x| x.name.as_str()).collect();
        if names != declared {
            eprintln!(
                "perfbench: reported metrics {names:?} differ from the declared {declared:?}"
            );
            std::process::exit(1);
        }
        if args.all {
            metrics.extend(
                m.into_iter()
                    .map(|x| Metric::new(format!("{}.{}", w.name(), x.name), x.value, x.unit)),
            );
        } else {
            metrics = m;
        }
    }
    for msg in &checks.messages {
        println!("CHECK FAILED {msg}");
    }
    match result_json(
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        &metrics,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one list-valued key of `BENCHMARK.json`.
    fn declared_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let list = &json[start..];
        let list = &list[..list.find(']').expect("list closes")];
        list.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("read BENCHMARK.json")
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (i, name) in all.iter().enumerate() {
            assert!(report::valid_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} repeated");
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(declared_names(&json, "end_to_end"), END_TO_END);
        assert_eq!(declared_names(&json, "per_layer"), PER_LAYER);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared_names(&json, "workloads"), workloads);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload resilience --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workloads, vec![Workload::Resilience]);
        assert_eq!((a.seed, a.seconds, a.trace, a.all), (7, 12.0, true, false));
        assert_eq!(args("--workload all").expect("valid").workloads.len(), 4);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload georouting --trace 2").is_err());
        assert!(args("--workload georouting --seconds").is_err());
        assert!(args("--seed 1").is_err());
    }
}
