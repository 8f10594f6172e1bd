//! Benchmark binary: runs one workload and prints one JSON line with
//! its metrics and every vehicle's `MissionReport::fingerprint`.
//! `run.py` builds this binary, runs it and checks the fingerprints.
//!
//! ```text
//! perfbench --workload explore|fleet|chaos --seed N --seconds S --trace 0|1
//! ```
//!
//! Without `--trace`, the run reports the end-to-end metrics. With
//! `--trace 1` it repeats the workload with `lgv_trace::prof`
//! collecting (and, for chaos, with tracing off), then times each
//! layer from outside (`ledger.rs`), and reports the per-layer rows.

mod ledger;
mod workloads;

use lgv_trace::prof::{self, ProfileTree};
use std::time::Instant;
use workloads::{run_unit, unit_seed, Kind, Mode, UnitResult};

/// Workload seeds are taken modulo this: the fingerprints of every
/// seed class are recorded in `expected.json`.
/// `run.py --record` reads the count from the output line.
const SEED_CLASSES: u64 = 12;

/// Named metric rows in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Collects the existing `prof` scope tree around workload bodies.
#[derive(Default)]
pub struct ProfTimer {
    tree: ProfileTree,
    started: Option<Instant>,
    wall_ns: u64,
}

impl ProfTimer {
    pub fn start(&mut self, on: bool) {
        if on {
            let _ = prof::take_thread();
            prof::set_enabled(true);
            self.started = Some(Instant::now());
        }
    }

    pub fn stop(&mut self) {
        if let Some(t) = self.started.take() {
            prof::set_enabled(false);
            self.wall_ns += t.elapsed().as_nanos() as u64;
            self.tree.merge(&prof::take_thread());
        }
    }

    /// Host time by layer: each scope's self time goes to the layer
    /// its name (or its nearest named ancestor's) starts with, as a
    /// share of all host time recorded. Time outside every scope on
    /// the calling thread is `unattributed`.
    ///
    /// Child scopes sum past their parent only when they ran on
    /// several threads: the executor grafts its workers' trees under
    /// the caller's scope (`fleet/round`). Such a scope's self time is
    /// counted in thread time, `threads` × its total minus its
    /// children, so the workers' idle time at the round barrier is
    /// charged to it.
    fn shares(&self, threads: usize, out: &mut Metrics) {
        const LAYERS: [(&str, &str); 6] = [
            ("sim/", "prof.sim_share"),
            ("slam/", "prof.slam_share"),
            ("nav/", "prof.nav_share"),
            ("net/", "prof.net_share"),
            ("mission/", "prof.mission_share"),
            ("fleet/", "prof.fleet_share"),
        ];
        let nodes = self.tree.nodes();
        let mut ns = [0u64; LAYERS.len() + 1];
        for id in 1..nodes.len() {
            let mut n = id;
            let layer = loop {
                if n == 0 {
                    break LAYERS.len();
                }
                if let Some(l) = LAYERS
                    .iter()
                    .position(|(p, _)| nodes[n].name.starts_with(p))
                {
                    break l;
                }
                n = nodes[n].parent;
            };
            let node = &nodes[id];
            let children: u64 = node.children.iter().map(|&c| nodes[c].total_ns).sum();
            let own = if children > node.total_ns {
                node.total_ns * threads as u64
            } else {
                node.total_ns
            };
            ns[layer] += own.saturating_sub(children);
        }
        ns[LAYERS.len()] += self.wall_ns.saturating_sub(self.tree.profiled_ns());
        let total = ns.iter().sum::<u64>().max(1) as f64;
        for (l, (_, name)) in LAYERS.iter().enumerate() {
            out.put(name, ns[l] as f64 / total, "frac");
        }
        out.put(
            "prof.unattributed_share",
            ns[LAYERS.len()] as f64 / total,
            "frac",
        );
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = get("--workload")?;
    Ok(Args {
        kind: Kind::parse(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? != 0,
    })
}

/// Run every unit of the run once in `mode`.
fn run_units(kind: Kind, seeds: &[u64], mode: Mode, prof: &mut ProfTimer) -> Vec<UnitResult> {
    seeds
        .iter()
        .map(|&s| run_unit(kind, s, mode, prof))
        .collect()
}

fn wall(units: &[UnitResult]) -> f64 {
    units.iter().map(|u| u.wall_s).sum()
}

/// `setup_s` runs from the start of `main` to the first unit's body.
/// Only that set-up runs on a fresh heap. Later units' set-ups reuse
/// memory earlier bodies freed, so their times depend on what ran
/// before them.
fn end_to_end(units: &[UnitResult], started: Instant, out: &mut Metrics) {
    let setup_s = (units[0].body_start - started).as_secs_f64();
    let wall_s = wall(units);
    out.put("wall_s", wall_s, "s");
    out.put("sim_speed", virtual_s(units) / wall_s, "virtual_s/s");
    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Virtual vehicle-seconds the units simulated.
fn virtual_s(units: &[UnitResult]) -> f64 {
    units
        .iter()
        .flat_map(|u| &u.reports)
        .map(|r| r.time.total().as_secs_f64())
        .sum()
}

/// The per-layer rows: the workload's own ledgers from `plain` (prof
/// off), the prof tree from `profiled`, and the timed layer calls.
fn per_layer(
    kind: Kind,
    plain: &[UnitResult],
    profiled: &[UnitResult],
    untraced: Option<&[UnitResult]>,
    prof: &ProfTimer,
    out: &mut Metrics,
) {
    let mut steps: Vec<f64> = plain
        .iter()
        .flat_map(|u| u.step_ns.iter().map(|&ns| ns as f64))
        .collect();
    steps.sort_by(f64::total_cmp);
    out.put("offload.step_ms_p50", pct(&steps, 0.5) / 1e6, "ms");
    out.put("offload.step_ms_p99", pct(&steps, 0.99) / 1e6, "ms");
    let gcycles: f64 = plain
        .iter()
        .flat_map(|u| &u.reports)
        .flat_map(|r| r.node_gcycles.iter().map(|(_, g)| g))
        .sum();
    // Simulation time only: chaos's trace parsing and analysis are
    // not model work.
    let sim_wall_s: f64 = plain.iter().map(|u| u.sim_wall_s).sum();
    out.put(
        "offload.host_ns_per_gcycle",
        sim_wall_s * 1e9 / gcycles,
        "ns/Gcycle",
    );

    // The simulated outcomes (Fig. 13's mission time and energy) are
    // fixed by the seed and pinned by the fingerprints.
    let reports: Vec<_> = plain.iter().flat_map(|u| &u.reports).collect();
    let n = reports.len() as f64;
    let incomplete = reports.iter().filter(|r| !r.completed).count();
    out.put("mission.incomplete_frac", incomplete as f64 / n, "frac");
    out.put("mission.sim_mission_s", virtual_s(plain) / n, "virtual_s");
    let joules = reports.iter().map(|r| r.energy.total_joules());
    out.put(
        "mission.sim_energy_j",
        joules.fold(0.0, |a, j| a + j) / n,
        "J",
    );

    let fleets: Vec<_> = plain.iter().filter_map(|u| u.fleet.as_ref()).collect();
    let per_fleet = |f: &dyn Fn(&workloads::FleetStats) -> f64| {
        fleets.iter().fold(0.0, |a, s| a + f(s)) / fleets.len().max(1) as f64
    };
    out.put(
        "fleet.cloud_queue_ms",
        per_fleet(&|s| s.cloud_queue_s * 1e3),
        "virtual_ms",
    );
    out.put("fleet.replica_s", per_fleet(&|s| s.replica_s), "virtual_s");
    out.put(
        "fleet.uplink_extra_s",
        per_fleet(&|s| s.uplink_extra_s),
        "virtual_s",
    );
    out.put(
        "fleet.wan_crossings",
        per_fleet(&|s| s.wan_crossings as f64),
        "count",
    );

    let traces: Vec<_> = plain.iter().filter_map(|u| u.trace.as_ref()).collect();
    let events: u64 = traces.iter().map(|t| t.events).sum();
    let bytes: usize = traces.iter().map(|t| t.bytes).sum();
    out.put("trace.events", events as f64, "count");
    out.put("trace.mb", bytes as f64 / 1e6, "MB");
    let emit_overhead = untraced.map_or(0.0, |u| {
        let traced: f64 = plain.iter().map(|u| u.sim_wall_s).sum();
        traced / wall(u) - 1.0
    });
    out.put("trace.emit_overhead_frac", emit_overhead, "frac");
    let parse_s = traces.iter().fold(0.0, |a, t| a + t.parse_s);
    out.put("trace.parse_s", parse_s, "s");
    let analyze_s = traces.iter().fold(0.0, |a, t| a + t.analyze_s);
    out.put("trace.analyze_s", analyze_s, "s");

    prof.shares(kind.host_threads(), out);
    // Both sides include trace parsing on chaos, so the ratio prices
    // the profiler alone.
    out.put(
        "prof.overhead_frac",
        wall(profiled) / wall(plain) - 1.0,
        "frac",
    );

    ledger::measure(kind, plain[0].seed, out);
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload explore|fleet|chaos --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let kind = args.kind;
    let seed_class = args.seed % SEED_CLASSES;
    let mut seeds: Vec<u64> = (0..kind.units(args.seconds))
        .map(|i| unit_seed(seed_class, i))
        .collect();
    if args.trace {
        // The traced run executes its units two or three times; half
        // of them keep it near the untraced run's length.
        seeds.truncate(seeds.len().div_ceil(2));
    }

    let mut prof = ProfTimer::default();
    let mut out = Metrics::default();
    let plain = run_units(kind, &seeds, Mode::PLAIN, &mut prof);
    let mut checked: Vec<&UnitResult> = plain.iter().collect();
    let (profiled, untraced);
    if args.trace {
        let with_prof = Mode {
            prof: true,
            ..Mode::PLAIN
        };
        profiled = run_units(kind, &seeds, with_prof, &mut prof);
        untraced = (kind == Kind::Chaos).then(|| {
            let off = Mode {
                emit_trace: false,
                ..Mode::PLAIN
            };
            run_units(kind, &seeds, off, &mut prof)
        });
        per_layer(
            kind,
            &plain,
            &profiled,
            untraced.as_deref(),
            &prof,
            &mut out,
        );
        checked.extend(&profiled);
        checked.extend(untraced.iter().flatten());
    } else {
        end_to_end(&plain, started, &mut out);
    }

    let reports = checked.iter().flat_map(|u| &u.reports);
    let attempted = reports.clone().count();
    // Exploration slices end on their time cap by design; a mission
    // fails when its battery runs out, or (navigation) when it misses
    // the goal.
    let failed = reports
        .filter(|r| match kind {
            Kind::Explore => r.battery_soc <= 0.0,
            Kind::Fleet | Kind::Chaos => !r.completed,
        })
        .count();
    let metrics: Vec<String> = out
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let units: Vec<String> = checked
        .iter()
        .map(|u| {
            let fps: Vec<String> = u
                .reports
                .iter()
                .map(|r| format!("\"{:016x}\"", r.fingerprint()))
                .collect();
            let trace = u.trace.as_ref().map_or("null".to_string(), |t| {
                format!("\"{:016x}\"", t.fingerprint)
            });
            format!(
                "{{\"seed\": {}, \"fingerprints\": [{}], \"trace\": {trace}}}",
                u.seed,
                fps.join(", ")
            )
        })
        .collect();
    println!(
        "{{\"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}, \"seed_classes\": {SEED_CLASSES}, \"units\": [{}]}}",
        metrics.join(", "),
        units.join(", ")
    );
}
