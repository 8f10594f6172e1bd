//! Integration tests for the trace-analysis layer: the typed reader
//! round-trips a real mission trace byte-for-byte, and the rendered
//! report is deterministic and flags the §V "lying RTT" condition on
//! a weak-signal mission.

use cloud_lgv::net::signal::WirelessConfig;
use cloud_lgv::offload::deploy::Deployment;
use cloud_lgv::offload::mission::{self, MissionConfig, Workload};
use cloud_lgv::offload::model::{Goal, VelocityModel};
use cloud_lgv::offload::policy::PinPolicy;
use cloud_lgv::offload::policy::PolicyKind;
use cloud_lgv::sim::world::WorldBuilder;
use cloud_lgv::sim::LidarConfig;
use cloud_lgv::trace::{JsonlSink, TraceAnalysis, TraceReader, Tracer};
use cloud_lgv::types::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Same weak-signal route as `trace_observability`: the WAP sits
/// behind the start, so driving to the goal leaves coverage while the
/// mission is still offloading — sender discards accumulate while the
/// last measured RTT still reads healthy.
fn weak_signal_config() -> MissionConfig {
    let world = WorldBuilder::new(6.0, 5.0, 0.05)
        .walls()
        .disc(Point2::new(3.0, 2.8), 0.3)
        .build();
    MissionConfig {
        workload: Workload::Navigation,
        deployment: Deployment::edge_8t(),
        goal: Goal::MissionTime,
        policy: PolicyKind::Algorithm1,
        adaptive: true,
        adaptive_parallelism: true,
        pins: PinPolicy::none(),
        seed: 7,
        world,
        start: Pose2D::new(1.0, 2.0, 0.0),
        nav_goal: Point2::new(4.8, 2.0),
        wap: Point2::new(0.5, 2.0),
        wireless: WirelessConfig::default().with_weak_radius(2.0),
        wan_latency_override: None,
        max_time: Duration::from_secs(120),
        dwa_samples: 600,
        slam_particles: 6,
        velocity: VelocityModel::default(),
        battery_wh: None,
        lidar: LidarConfig::default(),
        exploration_speed_cap: 0.3,
        record_traces: false,
        faults: cloud_lgv::net::FaultSchedule::none(),
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

fn run_to_jsonl() -> String {
    let buf = SharedBuf::default();
    let tracer = Tracer::enabled();
    tracer.attach(JsonlSink::new(Box::new(buf.clone())));
    mission::run_traced(weak_signal_config(), tracer);
    let bytes = buf.0.lock().unwrap().clone();
    String::from_utf8(bytes).expect("trace is UTF-8")
}

#[test]
fn reader_roundtrips_a_real_mission_trace() {
    let text = run_to_jsonl();
    let records = TraceReader::parse_str(&text).expect("every line parses");
    assert!(records.len() > 100, "only {} records", records.len());
    let reencoded: String = records.iter().map(|r| r.to_json() + "\n").collect();
    assert_eq!(text, reencoded, "parse → re-encode must be byte-identical");
}

#[test]
fn report_is_deterministic_and_flags_lying_rtt() {
    let render = || {
        let records = TraceReader::parse_str(&run_to_jsonl()).expect("trace parses");
        TraceAnalysis::from_records(&records).render_report()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "same seed must render a byte-identical report");

    // Structure: every section is present.
    assert!(a.contains("latency waterfall"), "report:\n{a}");
    assert!(a.contains("critical path"), "report:\n{a}");
    assert!(a.contains("drop & loss lineage"), "report:\n{a}");
    assert!(a.contains("lying-RTT windows"), "report:\n{a}");

    // The weak-signal route must produce sender discards and at least
    // one window where the RTT metric lies about them (§V / Fig. 7).
    assert!(!a.contains("sender discards: none"), "no discards?\n{a}");
    assert!(
        a.contains("-> RTT metric lies"),
        "anomaly not flagged:\n{a}"
    );
    assert!(
        !a.contains("anomalies: none"),
        "anomaly section empty:\n{a}"
    );
}
