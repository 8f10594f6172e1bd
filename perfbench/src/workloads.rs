//! The three workloads, each a closed loop over virtual time.
//!
//! A run executes a fixed number of *units* (one mission, or one
//! fleet). Unit `i` of a run with workload seed `s` simulates with the
//! derived seed [`unit_seed`]`(s, i)`; the program receives only the
//! generated configuration.

use crate::ProfTimer;
use lgv_net::fault::CloudFaultSchedule;
use lgv_net::FaultSchedule;
use lgv_offload::deploy::Deployment;
use lgv_offload::fleet::{
    run_fleet_traced, CloudPolicy, ElasticConfig, FleetConfig, FleetReport, RegionTopology,
};
use lgv_offload::mission::{MissionConfig, MissionReport, Workload};
use lgv_offload::model::VelocityModel;
use lgv_offload::recovery::RecoveryConfig;
use lgv_offload::session::VehicleSession;
use lgv_sim::world::WorldBuilder;
use lgv_trace::{JsonlSink, TraceAnalysis, TraceReader, Tracer};
use lgv_types::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `exploration_lab` missions on `Deployment::cloud()`, each cut to
    /// a 60 s virtual-time slice: SLAM offloaded on every scan.
    Explore,
    /// 256 `compact_lab` navigation vehicles, sharded over 8 regions
    /// and 4 elastic cloud pools, stepped by 2 host threads.
    Fleet,
    /// A 16-vehicle corridor fleet under randomized radio and cloud
    /// faults with the resilient recovery posture, traced to JSONL
    /// in memory, parsed back and analysed.
    Chaos,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "explore" => Some(Kind::Explore),
            "fleet" => Some(Kind::Fleet),
            "chaos" => Some(Kind::Chaos),
            _ => None,
        }
    }

    /// Host seconds one unit takes on a 2-core reference host; a run
    /// executes `round(seconds / unit_seconds)` units, at least one.
    /// The count depends only on `--seconds`, never on a measured
    /// time, so a run's inputs and outputs are fixed by its arguments.
    fn unit_seconds(self) -> f64 {
        match self {
            Kind::Explore => 3.0,
            Kind::Fleet => 11.0,
            Kind::Chaos => 7.4,
        }
    }

    pub fn units(self, seconds: u64) -> usize {
        ((seconds as f64 / self.unit_seconds()).round() as usize).max(1)
    }

    /// Host threads the workload steps on: a fleet has one pool group
    /// per cloud pool, fans the groups out over at most `with_threads`
    /// workers, and runs a single group inline on the calling thread.
    pub fn host_threads(self) -> usize {
        fleet_config(self, 0).map_or(1, |f| f.threads.min(f.topology.cloud_pools as usize))
    }

    /// Vehicles sharing one cloud scheduler pool (the tenant count
    /// `CloudScheduler::admit` sees); 0 without a shared cloud.
    pub fn tenants_per_pool(self) -> usize {
        match self {
            Kind::Explore => 0,
            Kind::Fleet => FLEET_SIZE / FLEET_POOLS as usize,
            Kind::Chaos => CHAOS_SIZE,
        }
    }

    /// The mission every vehicle of unit seed `seed` starts from.
    pub fn mission(self, seed: u64) -> MissionConfig {
        match self {
            Kind::Explore => explore_mission(seed),
            Kind::Fleet => fleet_mission(seed),
            Kind::Chaos => chaos_mission(seed),
        }
    }
}

const FLEET_SIZE: usize = 256;
const FLEET_REGIONS: u32 = 8;
const FLEET_POOLS: u32 = 4;
const CHAOS_SIZE: usize = 16;
/// Host threads stepping a fleet's pool groups each round.
const FLEET_THREADS: usize = 2;
/// Horizon over which the randomized fault windows are drawn.
const FAULT_HORIZON: Duration = Duration::from_secs(20);

/// The seed unit `unit` of a run with workload seed `seed` simulates.
pub fn unit_seed(seed: u64, unit: usize) -> u64 {
    seed * 1000 + unit as u64
}

/// Exploration missions end after 177 to 553 virtual seconds depending
/// on the seed, so whole missions would make a run's work depend on its
/// seed. Every unit instead explores for this much virtual time and
/// ends on the time cap; a run averages many such slices. Within 60 s
/// every seed reaches a particle resampling, which holds two sets of
/// particle maps at once and so sets the peak resident memory; 30 s
/// slices miss it on some seeds.
const EXPLORE_SLICE: Duration = Duration::from_secs(60);

fn explore_mission(seed: u64) -> MissionConfig {
    let mut cfg = MissionConfig::exploration_lab(Deployment::cloud());
    cfg.seed = seed;
    cfg.record_traces = false;
    cfg.max_time = EXPLORE_SLICE;
    cfg
}

fn fleet_mission(seed: u64) -> MissionConfig {
    let mut cfg = MissionConfig::compact_lab(Deployment::cloud_12t(), Workload::Navigation);
    cfg.seed = seed;
    cfg
}

/// The chaos-fleet corridor: a 14 m drive slow enough (~45 virtual s)
/// that the fault windows land mid-mission.
fn chaos_mission(seed: u64) -> MissionConfig {
    let mut cfg = MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation);
    cfg.world = WorldBuilder::new(16.0, 4.0, 0.05).walls().build();
    cfg.start = Pose2D::new(1.0, 2.0, 0.0);
    cfg.nav_goal = Point2::new(14.5, 2.0);
    cfg.wap = Point2::new(14.5, 2.0);
    cfg.max_time = Duration::from_secs(240);
    cfg.velocity = VelocityModel {
        hw_cap: 0.35,
        ..VelocityModel::default()
    };
    cfg.seed = seed;
    cfg.faults = chaos_faults(seed);
    cfg.recovery = RecoveryConfig::resilient();
    cfg
}

/// The radio fault schedule of chaos unit seed `seed`.
pub fn chaos_faults(seed: u64) -> FaultSchedule {
    FaultSchedule::randomized(seed, FAULT_HORIZON)
}

/// The fleet a unit runs (`None` for the single-vehicle workload).
pub fn fleet_config(kind: Kind, seed: u64) -> Option<FleetConfig> {
    let elastic = CloudPolicy::Elastic(ElasticConfig::balanced());
    match kind {
        Kind::Explore => None,
        Kind::Fleet => Some(
            FleetConfig::new(fleet_mission(seed), FLEET_SIZE)
                .with_cloud(elastic)
                .with_topology(RegionTopology::sharded(FLEET_REGIONS).with_cloud_pools(FLEET_POOLS))
                .with_threads(FLEET_THREADS),
        ),
        Kind::Chaos => Some(
            FleetConfig::new(chaos_mission(seed), CHAOS_SIZE)
                .with_cloud(elastic)
                .with_cloud_faults(CloudFaultSchedule::randomized(seed, FAULT_HORIZON))
                .with_threads(FLEET_THREADS),
        ),
    }
}

/// The shared fleet-layer ledger of one unit.
pub struct FleetStats {
    pub cloud_queue_s: f64,
    pub replica_s: f64,
    pub uplink_extra_s: f64,
    pub wan_crossings: u64,
}

/// What one chaos unit's trace cost and contained.
pub struct TraceStats {
    pub events: u64,
    pub bytes: usize,
    pub parse_s: f64,
    pub analyze_s: f64,
    /// FNV-1a over the JSONL bytes: the trace write path's output is
    /// part of the checked behaviour.
    pub fingerprint: u64,
}

/// One executed unit.
pub struct UnitResult {
    pub seed: u64,
    pub reports: Vec<MissionReport>,
    /// When the timed body started: after generating the unit's
    /// configs and, on explore, constructing its `VehicleSession`. A
    /// fleet's sessions are built inside `run_fleet_traced`, so on
    /// fleet and chaos that construction is part of the body.
    pub body_start: Instant,
    /// Host seconds of the whole unit body.
    pub wall_s: f64,
    /// Host seconds spent simulating (the body minus trace parse and
    /// analysis).
    pub sim_wall_s: f64,
    /// Host nanoseconds of each `VehicleSession::step` (explore only).
    pub step_ns: Vec<u64>,
    pub fleet: Option<FleetStats>,
    pub trace: Option<TraceStats>,
}

/// How a unit runs: the traced run repeats units with profiling on,
/// and (chaos) with the tracer disabled, to price both.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub prof: bool,
    pub emit_trace: bool,
}

impl Mode {
    pub const PLAIN: Mode = Mode {
        prof: false,
        emit_trace: true,
    };
}

/// Run unit `seed` of `kind`.
pub fn run_unit(kind: Kind, seed: u64, mode: Mode, prof: &mut ProfTimer) -> UnitResult {
    match kind {
        Kind::Explore => run_mission(seed, mode, prof),
        Kind::Fleet | Kind::Chaos => {
            let cfg = fleet_config(kind, seed).expect("fleet workload");
            run_fleet_unit(kind, seed, cfg, mode, prof)
        }
    }
}

fn run_mission(seed: u64, mode: Mode, prof: &mut ProfTimer) -> UnitResult {
    let mut session = VehicleSession::new(explore_mission(seed), Tracer::disabled());
    let t0 = Instant::now();
    prof.start(mode.prof);
    session.begin();
    let mut step_ns = Vec::with_capacity(4096);
    loop {
        let t = Instant::now();
        let running = session.step();
        step_ns.push(t.elapsed().as_nanos() as u64);
        if !running {
            break;
        }
    }
    let report = session.finish();
    prof.stop();
    let wall_s = t0.elapsed().as_secs_f64();
    UnitResult {
        seed,
        reports: vec![report],
        body_start: t0,
        wall_s,
        sim_wall_s: wall_s,
        step_ns,
        fleet: None,
        trace: None,
    }
}

/// An in-memory `Write` target the JSONL sink can own while the
/// benchmark keeps a handle to the bytes.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_fleet_unit(
    kind: Kind,
    seed: u64,
    cfg: FleetConfig,
    mode: Mode,
    prof: &mut ProfTimer,
) -> UnitResult {
    let traced = kind == Kind::Chaos && mode.emit_trace;
    let t0 = Instant::now();
    prof.start(mode.prof);
    let (report, sink) = if traced {
        let buf = SharedBuf::default();
        let tracer = Tracer::enabled();
        let sink = tracer.attach(JsonlSink::new(Box::new(buf.clone())));
        (run_fleet_traced(cfg, tracer), Some((buf, sink)))
    } else {
        (run_fleet_traced(cfg, Tracer::disabled()), None)
    };
    prof.stop();
    let sim_wall_s = t0.elapsed().as_secs_f64();

    let trace = sink.map(|(buf, sink)| {
        let events = sink.lock().expect("sink lock poisoned").lines();
        let bytes = std::mem::take(&mut *buf.0.lock().expect("trace buffer lock poisoned"));
        let text = String::from_utf8(bytes).expect("trace is UTF-8");
        let t = Instant::now();
        let records = TraceReader::parse_str(&text).expect("trace parses");
        let parse_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let analysis = TraceAnalysis::from_records(&records);
        let recovery = analysis.recovery_report();
        let analyze_s = t.elapsed().as_secs_f64();
        assert_eq!(
            records.len() as u64,
            events,
            "every emitted event parses back"
        );
        assert_eq!(
            analysis.vehicle_count(),
            CHAOS_SIZE,
            "trace covers the fleet"
        );
        std::hint::black_box(recovery);
        (events, text, parse_s, analyze_s)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    // Hashing the trace checks the output; it is not part of the body.
    let trace = trace.map(|(events, text, parse_s, analyze_s)| TraceStats {
        events,
        bytes: text.len(),
        parse_s,
        analyze_s,
        fingerprint: fnv1a(text.as_bytes()),
    });
    UnitResult {
        seed,
        fleet: Some(fleet_stats(&report)),
        reports: report.vehicles,
        body_start: t0,
        wall_s,
        sim_wall_s,
        step_ns: Vec::new(),
        trace,
    }
}

fn fleet_stats(report: &FleetReport) -> FleetStats {
    let cloud = report
        .cloud
        .as_ref()
        .expect("offloaded fleet tracks the cloud");
    let uplink = report
        .uplink
        .as_ref()
        .expect("offloaded fleet tracks the WAP");
    FleetStats {
        cloud_queue_s: cloud.mean_queue_delay_secs(),
        replica_s: cloud.replica_seconds,
        uplink_extra_s: uplink.total_extra.as_secs_f64(),
        wan_crossings: report.wan_crossings(),
    }
}

/// FNV-1a, the hash `MissionReport::fingerprint` uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
