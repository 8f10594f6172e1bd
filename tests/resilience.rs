//! Crash-aware recovery, end to end (the Fig. 12 storyline with a
//! dead cloud instead of a dead zone): an offloaded mission whose
//! remote host crashes mid-drive must fall back to local compute
//! within the heartbeat budget — not the 5 s outage watchdog — then
//! re-offload after the crash clears, gated by the exponential
//! backoff. The whole timeline is asserted from the trace.

use cloud_lgv::net::signal::WirelessConfig;
use cloud_lgv::net::{FaultKind, FaultSchedule};
use cloud_lgv::offload::deploy::Deployment;
use cloud_lgv::offload::mission::{self, MissionConfig, Workload};
use cloud_lgv::offload::model::{Goal, VelocityModel};
use cloud_lgv::offload::policy::PinPolicy;
use cloud_lgv::offload::policy::PolicyKind;
use cloud_lgv::sim::world::WorldBuilder;
use cloud_lgv::sim::LidarConfig;
use cloud_lgv::trace::{RingBufferSink, TraceEvent, TraceRecord, Tracer};
use cloud_lgv::types::prelude::*;

const CRASH_FROM_S: f64 = 30.0;
const CRASH_DUR_S: f64 = 20.0;

/// A long, obstacle-free corridor with strong radio everywhere: the
/// only adversity is the scripted remote-host crash, so every switch
/// in the trace is attributable to it. The hardware velocity cap
/// keeps the robot short of the goal when the crash hits at t = 30 s.
fn crash_config() -> MissionConfig {
    let world = WorldBuilder::new(18.0, 4.0, 0.05).walls().build();
    MissionConfig {
        workload: Workload::Navigation,
        deployment: Deployment::edge_8t(),
        goal: Goal::MissionTime,
        policy: PolicyKind::Algorithm1,
        adaptive: true,
        adaptive_parallelism: false,
        pins: PinPolicy::none(),
        seed: 11,
        world,
        start: Pose2D::new(1.0, 2.0, 0.0),
        nav_goal: Point2::new(16.0, 2.0),
        wap: Point2::new(16.0, 2.0),
        wireless: WirelessConfig::default().with_weak_radius(40.0),
        wan_latency_override: None,
        max_time: Duration::from_secs(240),
        dwa_samples: 600,
        slam_particles: 6,
        velocity: VelocityModel {
            hw_cap: 0.22,
            ..VelocityModel::default()
        },
        battery_wh: None,
        lidar: LidarConfig::default(),
        exploration_speed_cap: 0.3,
        record_traces: false,
        faults: FaultSchedule::none().with(CRASH_FROM_S, CRASH_DUR_S, FaultKind::RemoteCrash),
        recovery: cloud_lgv::offload::recovery::RecoveryConfig::default(),
    }
}

fn run_crash_mission() -> (bool, Vec<TraceRecord>) {
    let tracer = Tracer::enabled();
    let ring = tracer.attach(RingBufferSink::new(2_000_000));
    let report = mission::run_traced(crash_config(), tracer);
    let records: Vec<TraceRecord> = ring.lock().unwrap().records().cloned().collect();
    (report.completed, records)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[test]
fn remote_crash_triggers_heartbeat_fallback_and_backed_off_reoffload() {
    let (completed, recs) = run_crash_mission();
    assert!(completed, "mission must survive a 20 s remote crash");

    let crash_ns = (CRASH_FROM_S * 1e9) as u64;
    let crash_end_ns = ((CRASH_FROM_S + CRASH_DUR_S) * 1e9) as u64;

    // The scripted window is on the record, bracketed begin/end.
    let begin = recs
        .iter()
        .find(
            |r| matches!(&r.event, TraceEvent::FaultBegin { fault, .. } if fault == "remote_crash"),
        )
        .expect("fault_begin(remote_crash) traced");
    assert_eq!(begin.t_ns, crash_ns, "crash window must open on schedule");
    assert!(
        recs.iter().any(
            |r| matches!(&r.event, TraceEvent::FaultEnd { fault, .. } if fault == "remote_crash")
        ),
        "fault_end(remote_crash) traced"
    );

    // Heartbeat, not the 5 s outage watchdog: downlink silence under a
    // healthy radio is flagged within 2 s of the crash...
    let hb = recs
        .iter()
        .find(|r| r.t_ns >= crash_ns && matches!(r.event, TraceEvent::HeartbeatMiss { .. }))
        .expect("a heartbeat miss follows the crash");
    assert!(
        secs(hb.t_ns - crash_ns) <= 2.0,
        "heartbeat fired {:.2} s after the crash (budget 2 s)",
        secs(hb.t_ns - crash_ns)
    );

    // ...and the very next net switch goes local, in the same budget.
    let fallback = recs
        .iter()
        .find(|r| r.t_ns >= crash_ns && matches!(r.event, TraceEvent::NetSwitch { .. }))
        .expect("a net switch follows the crash");
    assert!(
        matches!(fallback.event, TraceEvent::NetSwitch { to_remote: false }),
        "first post-crash switch must go local"
    );
    assert!(
        secs(fallback.t_ns - crash_ns) <= 2.0,
        "local fallback {:.2} s after the crash (budget 2 s)",
        secs(fallback.t_ns - crash_ns)
    );
    assert!(
        hb.t_ns <= fallback.t_ns,
        "the miss precedes the switch it causes"
    );

    // The retry is backoff-gated: the suppression is traced, and the
    // first re-offload attempt waits out at least the 2 s base.
    let backoff = recs
        .iter()
        .find(|r| matches!(r.event, TraceEvent::ReoffloadBackoff { .. }))
        .expect("the suppressed re-offload is traced");
    assert!(
        backoff.t_ns >= fallback.t_ns,
        "backoff arms after the fallback"
    );
    if let TraceEvent::ReoffloadBackoff { wait_ns, failures } = backoff.event {
        assert!(
            wait_ns >= 2_000_000_000,
            "first wait is the 2 s base, got {wait_ns} ns"
        );
        assert!(failures >= 1);
    }
    let reoffload = recs
        .iter()
        .find(|r| {
            r.t_ns > fallback.t_ns && matches!(r.event, TraceEvent::NetSwitch { to_remote: true })
        })
        .expect("the mission re-offloads");
    assert!(
        reoffload.t_ns - fallback.t_ns >= 2_000_000_000,
        "re-offload after {:.2} s — must wait out the 2 s backoff",
        secs(reoffload.t_ns - fallback.t_ns)
    );

    // Once the host is back, the last word is a re-offload that
    // sticks: no further heartbeat misses after the final switch.
    let last_switch = recs
        .iter()
        .rfind(|r| matches!(r.event, TraceEvent::NetSwitch { .. }))
        .unwrap();
    assert!(
        matches!(last_switch.event, TraceEvent::NetSwitch { to_remote: true }),
        "mission must end offloaded again"
    );
    assert!(
        !recs.iter().any(|r| {
            r.t_ns > last_switch.t_ns.max(crash_end_ns)
                && matches!(r.event, TraceEvent::HeartbeatMiss { .. })
        }),
        "no heartbeat misses once the host is back and re-offloaded"
    );
}

#[test]
fn crash_mission_trace_is_deterministic() {
    let (_, a) = run_crash_mission();
    let (_, b) = run_crash_mission();
    let a: Vec<String> = a.iter().map(|r| r.to_json()).collect();
    let b: Vec<String> = b.iter().map(|r| r.to_json()).collect();
    assert_eq!(a, b, "same seed + schedule must trace identically");
}
