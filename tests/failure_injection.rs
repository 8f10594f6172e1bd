//! Failure injection: degrade sensors, radio, and inputs, and check
//! the system fails *gracefully* — degraded performance or a clean
//! mission abort, never a panic or a silent wrong answer.

use cloud_lgv::middleware::{Bus, Switcher, SwitcherConfig, TopicName};
use cloud_lgv::net::link::{DuplexLink, LinkConfig, RemoteSite};
use cloud_lgv::net::signal::WirelessConfig;
use cloud_lgv::offload::deploy::Deployment;
use cloud_lgv::offload::mission::{self, MissionConfig, Workload};
use cloud_lgv::offload::model::{Goal, VelocityModel};
use cloud_lgv::offload::policy::PinPolicy;
use cloud_lgv::offload::policy::PolicyKind;
use cloud_lgv::prelude::*;
use cloud_lgv::sim::world::WorldBuilder;
use cloud_lgv::sim::LidarConfig;

fn base(deployment: Deployment) -> MissionConfig {
    let world = WorldBuilder::new(7.0, 5.0, 0.05)
        .walls()
        .disc(Point2::new(3.5, 2.6), 0.3)
        .build();
    MissionConfig {
        workload: Workload::Navigation,
        deployment,
        goal: Goal::MissionTime,
        policy: PolicyKind::Algorithm1,
        adaptive: true,
        adaptive_parallelism: false,
        pins: PinPolicy::none(),
        seed: 21,
        world,
        start: Pose2D::new(1.0, 2.0, 0.0),
        nav_goal: Point2::new(5.8, 2.2),
        wap: Point2::new(3.5, 4.5),
        wireless: WirelessConfig::default().with_weak_radius(30.0),
        wan_latency_override: None,
        max_time: Duration::from_secs(180),
        dwa_samples: 400,
        slam_particles: 8,
        velocity: VelocityModel::default(),
        battery_wh: None,
        lidar: LidarConfig::default(),
        exploration_speed_cap: 0.3,
        record_traces: false,
        faults: cloud_lgv::net::FaultSchedule::none(),
        recovery: cloud_lgv::offload::recovery::RecoveryConfig::default(),
    }
}

#[test]
fn degraded_lidar_still_navigates() {
    // 10× the range noise and 5 % beam dropout: localization gets
    // worse, the mission gets slower, but it must still complete.
    let mut cfg = base(Deployment::edge_8t());
    cfg.lidar = LidarConfig {
        range_noise: 0.1,
        dropout: 0.05,
        ..LidarConfig::default()
    };
    let degraded = mission::run(cfg);
    assert!(degraded.completed, "degraded lidar: {}", degraded.reason);

    let clean = mission::run(base(Deployment::edge_8t()));
    assert!(
        degraded.time.total().as_secs_f64() >= 0.8 * clean.time.total().as_secs_f64(),
        "degraded sensing should not be magically faster"
    );
}

#[test]
fn sparse_lidar_still_navigates() {
    // A quarter of the beams (90 instead of 360), as if mechanically
    // obstructed.
    let mut cfg = base(Deployment::edge_8t());
    cfg.lidar = LidarConfig {
        beams: 90,
        ..LidarConfig::default()
    };
    let report = mission::run(cfg);
    assert!(report.completed, "sparse lidar: {}", report.reason);
}

#[test]
fn radio_dead_from_the_start_degrades_to_local() {
    // The WAP is effectively broken: the weak zone covers everything.
    let mut cfg = base(Deployment::cloud_12t());
    cfg.wireless = WirelessConfig::default().with_weak_radius(0.2);
    let report = mission::run(cfg);
    // Adaptive control must still finish the mission on local compute.
    assert!(report.completed, "dead radio: {}", report.reason);
    // And at roughly local-pipeline speeds. The overhead above the
    // pure-local baseline is the price of *discovering* the outage
    // (Algorithm 2 warm-up + the outage watchdog) plus the cold-state
    // rebuild after the abandoned migration.
    let local = mission::run(base(Deployment::local()));
    let ratio = report.time.total().as_secs_f64() / local.time.total().as_secs_f64();
    assert!(
        (0.5..2.5).contains(&ratio),
        "should run near local speed, ratio {ratio}"
    );
}

#[test]
fn extreme_wan_latency_is_survivable() {
    // A 2 s WAN hop: the cloud VDP is useless; MCT keeps the VDP
    // on-board and completes at local speed.
    let mut cfg = base(Deployment::cloud_12t());
    cfg.wan_latency_override = Some(Duration::from_secs(2));
    cfg.adaptive = false;
    let report = mission::run(cfg);
    assert!(report.completed, "huge WAN: {}", report.reason);
    assert!(
        report.avg_vdp_makespan < Duration::from_secs(1),
        "Algorithm 1 should have kept the VDP off the 2 s network: {}",
        report.avg_vdp_makespan
    );
}

#[test]
fn garbage_on_the_wire_is_ignored() {
    // Publish raw garbage on a relayed topic: the switcher ships it,
    // the remote decoder rejects it, nothing panics.
    let mut rng = SimRng::seed_from_u64(4);
    let mut link_cfg = LinkConfig::new(RemoteSite::EdgeGateway, Point2::new(0.0, 0.0));
    link_cfg.wireless = WirelessConfig::default().with_weak_radius(25.0);
    let link = DuplexLink::new(link_cfg, &mut rng);
    let robot = Bus::new();
    let remote = Bus::new();
    let mut sw = Switcher::new(
        link,
        robot.clone(),
        remote.clone(),
        &SwitcherConfig {
            up_topics: vec![(TopicName::SCAN, 1)],
            down_topics: vec![],
        },
    );
    let remote_sub = remote.subscribe(TopicName::SCAN, 1);
    robot.publish_bytes(
        TopicName::SCAN,
        bytes::Bytes::from_static(&[0xde, 0xad, 0xbe]),
    );
    let pos = Point2::new(2.0, 0.0);
    for k in 0..8 {
        sw.tick(SimTime::EPOCH + Duration::from_millis(25 * k), pos);
    }
    // The garbage arrives as bytes but fails typed decoding.
    let decoded: Result<Option<LaserScan>, _> = remote_sub.recv_latest();
    assert!(decoded.is_err(), "garbage must not decode into a scan");
}

#[test]
fn tiny_battery_fails_cleanly_not_catastrophically() {
    let mut cfg = base(Deployment::local());
    cfg.battery_wh = Some(0.01);
    let report = mission::run(cfg);
    assert!(!report.completed);
    assert!(report.reason.contains("battery"));
    // The report is still fully populated.
    assert!(report.energy.total_joules() > 0.0);
    assert!(report.time.total() > Duration::ZERO);
}

#[test]
fn unreachable_goal_times_out_cleanly() {
    // Goal inside a sealed room.
    let world = WorldBuilder::new(7.0, 5.0, 0.05)
        .walls()
        .rect(Point2::new(5.0, 1.0), Point2::new(5.1, 3.5))
        .rect(Point2::new(5.0, 1.0), Point2::new(6.8, 1.1))
        .rect(Point2::new(5.0, 3.4), Point2::new(6.8, 3.5))
        .rect(Point2::new(6.7, 1.0), Point2::new(6.8, 3.5))
        .build();
    let mut cfg = base(Deployment::edge_8t());
    cfg.world = world;
    cfg.nav_goal = Point2::new(5.9, 2.2); // sealed inside
    cfg.max_time = Duration::from_secs(30);
    let report = mission::run(cfg);
    assert!(!report.completed);
    assert!(report.reason.contains("time cap"));
}
