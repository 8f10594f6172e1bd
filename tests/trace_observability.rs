//! Integration tests for the `lgv-trace` observability layer (see
//! `docs/OBSERVABILITY.md`): the JSONL stream is byte-for-byte
//! deterministic per seed, and a short offloaded mission that crosses
//! a dead zone emits at least one event of every category.

use cloud_lgv::net::signal::WirelessConfig;
use cloud_lgv::net::{FaultKind, FaultSchedule};
use cloud_lgv::offload::deploy::Deployment;
use cloud_lgv::offload::mission::{self, MissionConfig, Workload};
use cloud_lgv::offload::model::{Goal, VelocityModel};
use cloud_lgv::offload::policy::PinPolicy;
use cloud_lgv::offload::policy::PolicyKind;
use cloud_lgv::sim::world::WorldBuilder;
use cloud_lgv::sim::LidarConfig;
use cloud_lgv::trace::{EventCategory, JsonlSink, MetricsRegistry, RingBufferSink, Tracer};
use cloud_lgv::types::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A short offloaded mission whose route crosses the radio's weak
/// zone: the WAP sits behind the start, so the drive to the goal
/// leaves coverage, Algorithm 2 switches local, and a state migration
/// starts — every event category fires.
fn traced_config() -> MissionConfig {
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
        // A mild latency spike early in the run so the `fault`
        // category fires without changing the route.
        faults: FaultSchedule::none().with(
            2.0,
            1.0,
            FaultKind::LatencySpike {
                extra: Duration::from_millis(40),
            },
        ),
        recovery: cloud_lgv::offload::recovery::RecoveryConfig::default(),
    }
}

/// An in-memory `Write` target the test can read back after the sink
/// (which owns its writer) is dropped.
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

/// Run one traced mission and return the raw JSONL bytes.
fn run_to_jsonl() -> Vec<u8> {
    let buf = SharedBuf::default();
    let tracer = Tracer::enabled();
    tracer.attach(JsonlSink::new(Box::new(buf.clone())));
    mission::run_traced(traced_config(), tracer);
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

#[test]
fn jsonl_stream_is_byte_identical_per_seed() {
    let a = run_to_jsonl();
    let b = run_to_jsonl();
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same seed must produce a byte-identical trace");
}

#[test]
fn jsonl_stream_matches_the_documented_schema() {
    let bytes = run_to_jsonl();
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    let mut expected_seq = 0u64;
    let mut last_t = 0u64;
    for line in text.lines() {
        assert!(
            line.starts_with("{\"t_ns\":") && line.ends_with('}'),
            "malformed line: {line}"
        );
        assert!(line.contains("\"kind\":\""), "line lacks a kind: {line}");
        // seq is a gap-free emission counter; t_ns never goes backward.
        let seq_field = format!("\"seq\":{expected_seq},");
        assert!(line.contains(&seq_field), "expected {seq_field} in: {line}");
        let t_ns: u64 = line["{\"t_ns\":".len()..line.find(',').unwrap()]
            .parse()
            .unwrap();
        assert!(
            t_ns >= last_t,
            "virtual time went backward at seq {expected_seq}"
        );
        last_t = t_ns;
        expected_seq += 1;
    }
    assert!(expected_seq > 100, "only {expected_seq} events traced");
}

#[test]
fn short_mission_covers_every_event_category() {
    let tracer = Tracer::enabled();
    let ring = tracer.attach(RingBufferSink::new(1_000_000));
    let metrics = tracer.attach(MetricsRegistry::new());
    mission::run_traced(traced_config(), tracer);

    let ring = ring.lock().unwrap();
    let mut missing: Vec<&'static str> = Vec::new();
    for cat in EventCategory::ALL {
        // `cloud` events only exist with a shared elastic cloud and
        // `region` events only in multi-region fleets — covered by
        // `elastic_fleet_trace_covers_cloud_category` and
        // `sharded_fleet_trace_covers_region_category` below.
        if cat == EventCategory::Cloud || cat == EventCategory::Region {
            continue;
        }
        if !ring.records().any(|r| r.event.category() == cat) {
            missing.push(cat.as_str());
        }
    }
    assert!(
        missing.is_empty(),
        "categories never emitted: {missing:?} ({} events total)",
        ring.total_seen()
    );

    // The metrics sink aggregates the same stream.
    let dump = metrics.lock().unwrap().dump();
    assert!(
        dump.contains("counter events.control_decision"),
        "dump:\n{dump}"
    );
    assert!(dump.contains("hist rtt_ms"), "dump:\n{dump}");
    assert!(dump.contains("hist energy_j.motor"), "dump:\n{dump}");
}

/// The `cloud` category needs a shared elastic cloud to fire: a
/// two-vehicle fleet on one edge box batches same-stage admissions
/// and autoscales, and every event carries its vehicle's tag.
#[test]
fn elastic_fleet_trace_covers_cloud_category() {
    use cloud_lgv::offload::fleet::{run_fleet_traced, CloudPolicy, ElasticConfig, FleetConfig};

    let tracer = Tracer::enabled();
    let ring = tracer.attach(RingBufferSink::new(4_000_000));
    let base = MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation);
    run_fleet_traced(
        FleetConfig::new(base, 2).with_cloud(CloudPolicy::Elastic(ElasticConfig::balanced())),
        tracer,
    );

    let ring = ring.lock().unwrap();
    let cloud: Vec<_> = ring
        .records()
        .filter(|r| r.event.category() == EventCategory::Cloud)
        .collect();
    assert!(
        cloud.iter().any(|r| r.event.kind() == "cloud_batch"),
        "two lockstep tenants must coalesce same-stage admissions"
    );
    assert!(
        cloud.iter().any(|r| r.event.kind() == "cloud_scale"),
        "two tenants on an 8-thread box must trip the autoscaler"
    );
    assert!(
        cloud.iter().all(|r| r.vehicle != 0),
        "cloud events must be attributed to a vehicle"
    );
}

/// The `region` category needs a multi-region topology to fire: a
/// four-vehicle fleet striped over two regions on one scheduler pool
/// assigns every vehicle a region at t=0, and region 1's admissions
/// each pay (and trace) a WAN hop.
#[test]
fn sharded_fleet_trace_covers_region_category() {
    use cloud_lgv::offload::fleet::{run_fleet_traced, FleetConfig, RegionTopology};

    let tracer = Tracer::enabled();
    let ring = tracer.attach(RingBufferSink::new(4_000_000));
    let base = MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation);
    run_fleet_traced(
        FleetConfig::new(base, 4).with_topology(RegionTopology::sharded(2).with_cloud_pools(1)),
        tracer,
    );

    let ring = ring.lock().unwrap();
    let region: Vec<_> = ring
        .records()
        .filter(|r| r.event.category() == EventCategory::Region)
        .collect();
    assert_eq!(
        region
            .iter()
            .filter(|r| r.event.kind() == "region_assign")
            .count(),
        4,
        "every vehicle gets exactly one assignment at t=0"
    );
    assert!(
        region.iter().any(|r| r.event.kind() == "wan_hop"),
        "region 1 shares pool 0 and must pay traced WAN hops"
    );
    assert!(
        region.iter().all(|r| r.vehicle != 0),
        "region events must be attributed to a vehicle"
    );
}
