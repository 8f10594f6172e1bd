//! Chaos testing: seeded, randomized fault schedules (blackouts,
//! burst loss, latency spikes, corruption, remote crashes) thrown at
//! short offloaded missions. The system must degrade *gracefully* —
//! complete or abort cleanly with a populated report, never panic —
//! and every run must stay byte-deterministic per seed so any chaos
//! failure is replayable.

use cloud_lgv::net::signal::WirelessConfig;
use cloud_lgv::net::FaultSchedule;
use cloud_lgv::offload::deploy::Deployment;
use cloud_lgv::offload::mission::{self, MissionConfig, MissionReport, Workload};
use cloud_lgv::offload::model::{Goal, VelocityModel};
use cloud_lgv::offload::policy::PinPolicy;
use cloud_lgv::sim::world::WorldBuilder;
use cloud_lgv::sim::LidarConfig;
use cloud_lgv::trace::{JsonlSink, TraceAnalysis, TraceReader, Tracer};
use cloud_lgv::types::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Fault windows land in the first ~60 % of this horizon — short
/// enough that the mini mission is still driving when they open.
const CHAOS_HORIZON: Duration = Duration::from_secs(20);

/// The mini navigation arena under a seed-derived fault schedule.
/// Seed drives both the mission's own noise and the schedule, so one
/// u64 reproduces the whole run.
fn chaos_config(seed: u64) -> MissionConfig {
    let world = WorldBuilder::new(7.0, 5.0, 0.05)
        .walls()
        .disc(Point2::new(3.5, 2.6), 0.3)
        .build();
    MissionConfig {
        workload: Workload::Navigation,
        deployment: Deployment::edge_8t(),
        goal: Goal::MissionTime,
        policy: cloud_lgv::offload::policy::PolicyKind::Algorithm1,
        adaptive: true,
        adaptive_parallelism: false,
        pins: PinPolicy::none(),
        seed,
        world,
        start: Pose2D::new(1.0, 2.0, 0.0),
        nav_goal: Point2::new(5.8, 2.2),
        wap: Point2::new(3.5, 4.5),
        wireless: WirelessConfig::default().with_weak_radius(30.0),
        wan_latency_override: None,
        max_time: Duration::from_secs(180),
        dwa_samples: 400,
        slam_particles: 6,
        velocity: VelocityModel::default(),
        battery_wh: None,
        lidar: LidarConfig::default(),
        exploration_speed_cap: 0.3,
        record_traces: false,
        faults: FaultSchedule::randomized(seed, CHAOS_HORIZON),
        recovery: cloud_lgv::offload::recovery::RecoveryConfig::default(),
    }
}

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_chaos(seed: u64) -> (MissionReport, String) {
    let buf = SharedBuf::default();
    let tracer = Tracer::enabled();
    tracer.attach(JsonlSink::new(Box::new(buf.clone())));
    let report = mission::run_traced(chaos_config(seed), tracer);
    let bytes = buf.0.lock().unwrap().clone();
    (report, String::from_utf8(bytes).expect("trace is UTF-8"))
}

#[test]
fn randomized_fault_schedules_degrade_gracefully() {
    for seed in 0..6u64 {
        let schedule = FaultSchedule::randomized(seed, CHAOS_HORIZON);
        assert!(!schedule.is_empty(), "seed {seed} scheduled no faults");
        let earliest = schedule.windows().iter().map(|w| w.from).min().unwrap();
        let (report, trace) = run_chaos(seed);
        // Graceful: finished or aborted with a stated reason — and
        // either way the report is populated, not a husk.
        assert!(
            report.completed || !report.reason.is_empty(),
            "seed {seed}: no completion and no reason"
        );
        assert!(
            report.energy.total_joules() > 0.0,
            "seed {seed}: empty energy report"
        );
        assert!(
            report.time.total() > Duration::from_secs(1),
            "seed {seed}: empty time report"
        );

        // The trace survives the chaos too: every line parses, the
        // typed reader round-trips byte-for-byte, and the analysis
        // layer renders the fault windows it was promised.
        let records = TraceReader::parse_str(&trace)
            .unwrap_or_else(|e| panic!("seed {seed}: trace does not parse: {e}"));
        let reencoded: String = records.iter().map(|r| r.to_json() + "\n").collect();
        assert_eq!(trace, reencoded, "seed {seed}: re-encode differs");
        let analysis = TraceAnalysis::from_records(&records);
        // A window can only miss the trace if the mission finished
        // before it was scheduled to open.
        if analysis.fault_window_count() == 0 {
            let end = SimTime::EPOCH + report.time.total();
            assert!(
                end <= earliest,
                "seed {seed}: mission ran past {earliest:?} but no fault window opened"
            );
        } else {
            let rendered = analysis.render_report();
            assert!(
                rendered.contains("fault windows"),
                "seed {seed}: report lacks fault section"
            );
        }
    }
}

#[test]
fn chaos_runs_are_byte_deterministic_per_seed() {
    for seed in [1u64, 4] {
        let (ra, ta) = run_chaos(seed);
        let (rb, tb) = run_chaos(seed);
        assert_eq!(ra.completed, rb.completed, "seed {seed}: outcome diverged");
        assert_eq!(ta, tb, "seed {seed}: trace diverged between identical runs");
    }
}

#[test]
fn randomized_schedules_differ_across_seeds() {
    // The generator must actually explore the fault space: across a
    // handful of seeds we see more than one schedule and more than
    // one fault kind.
    let schedules: Vec<FaultSchedule> = (0..8)
        .map(|s| FaultSchedule::randomized(s, CHAOS_HORIZON))
        .collect();
    let first = &schedules[0];
    assert!(
        schedules.iter().any(|s| s != first),
        "all seeds gave one schedule"
    );
    let labels: std::collections::BTreeSet<&'static str> = schedules
        .iter()
        .flat_map(|s| s.windows().iter().map(|w| w.kind.label()))
        .collect();
    assert!(labels.len() >= 3, "only kinds {labels:?} generated");
}
