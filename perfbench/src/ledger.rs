//! The layer ledger: each layer timed from outside through its public
//! functions, on inputs built from the workload's own mission
//! configuration (world, DWA samples, tenant count, fault schedule).
//! A layer the workload does not exercise reports 0.

use crate::workloads::{chaos_faults, Kind};
use crate::{pct, Metrics};
use bytes::Bytes;
use lgv_middleware::{from_bytes, to_bytes, Bus, TopicName};
use lgv_nav::costmap::{Costmap, CostmapConfig};
use lgv_nav::dwa::{DwaConfig, DwaPlanner};
use lgv_nav::frontier::{FrontierConfig, FrontierExplorer};
use lgv_nav::global_planner::{GlobalPlanner, PlannerConfig};
use lgv_nav::{Amcl, AmclConfig};
use lgv_net::channel::UdpChannel;
use lgv_net::signal::SignalModel;
use lgv_offload::mission::MissionConfig;
use lgv_sim::cloud::{CloudScheduler, ElasticConfig};
use lgv_sim::world::World;
use lgv_sim::Lidar;
use lgv_slam::map::OccupancyGrid;
use lgv_slam::{GMapping, SlamConfig};
use lgv_types::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Poses the ledger's vehicle visits: 200 ms steps along gentle arcs,
/// turning in place where the next step would collide. Each pose
/// comes with the odometry and scan taken there.
struct Drive {
    world: World,
    lidar: Lidar,
    pose: Pose2D,
    t: SimTime,
    k: u32,
}

impl Drive {
    fn new(cfg: &MissionConfig, rng_seed: u64) -> Self {
        Drive {
            world: cfg.world.clone(),
            lidar: Lidar::new(cfg.lidar.clone(), SimRng::seed_from_u64(rng_seed)),
            pose: cfg.start,
            t: SimTime::EPOCH,
            k: 0,
        }
    }

    fn advance(&mut self) -> OdometryMsg {
        self.k += 1;
        let twist = Twist::new(0.15, 0.4 * (self.k as f64 * 0.12).sin());
        let next = self.pose.integrate(twist, 0.2);
        self.pose = if self.world.collides_disc(next.position(), 0.18) {
            Pose2D::new(self.pose.x, self.pose.y, self.pose.theta + 0.5)
        } else {
            next
        };
        self.t += Duration::from_millis(200);
        OdometryMsg {
            stamp: self.t,
            pose: self.pose,
            twist,
        }
    }

    fn scan(&mut self) -> LaserScan {
        self.lidar.scan(&self.world, self.pose, self.t)
    }
}

/// Host nanoseconds of each of `n` calls of `f`.
fn samples(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The exploration map half revealed: the planner and frontier search
/// see known free space, walls and an unknown half.
fn half_known(map: &MapMsg) -> MapMsg {
    let mut m = map.clone();
    let w = m.dims.width as usize;
    for (i, cell) in m.cells.iter_mut().enumerate() {
        if i % w > w / 2 {
            *cell = MapMsg::UNKNOWN;
        }
    }
    m
}

/// Time every layer for workload `kind` at unit seed `seed` and add
/// the rows to `out`.
pub fn measure(kind: Kind, seed: u64, out: &mut Metrics) {
    let cfg = kind.mission(seed);
    let explore = kind == Kind::Explore;
    let truth = cfg.world.to_map_msg(SimTime::EPOCH);
    // The map the costmap and planners work on: the truth map when
    // navigating, a partially explored one when exploring.
    let known = if explore {
        half_known(&truth)
    } else {
        truth.clone()
    };
    let mut drive = Drive::new(&cfg, seed ^ 0x1ed6e5);

    // sim: one full lidar sweep.
    let scans: Vec<(OdometryMsg, LaserScan)> = (0..300)
        .map(|_| {
            let odom = drive.advance();
            (odom, drive.scan())
        })
        .collect();
    let mut i = 0;
    let raycast = samples(600, || {
        black_box(drive.scan());
    });
    out.put("sim.raycast_us", pct(&raycast, 0.5) / 1e3, "us");

    // nav: costmap refresh, DWA rollout scoring, A* and (by workload)
    // AMCL or frontier search.
    let mut cm = if explore {
        let mut cm = Costmap::empty(CostmapConfig::default(), *cfg.world.dims());
        cm.set_static_map(&known);
        cm
    } else {
        Costmap::from_map(CostmapConfig::default(), &known)
    };
    let costmap = samples(300, || {
        let (odom, scan) = &scans[i % scans.len()];
        i += 1;
        let mut meter = WorkMeter::new();
        cm.update(&known, odom.pose, scan, &mut meter);
        black_box(meter.finish());
    });
    out.put("nav.costmap_update_us", pct(&costmap, 0.5) / 1e3, "us");

    let mut dwa = DwaPlanner::new(DwaConfig {
        samples: cfg.dwa_samples,
        max_linear: cfg.velocity.hw_cap,
        threads: 1,
        ..DwaConfig::default()
    });
    let goal = cfg.nav_goal;
    let dwa_ns = samples(1000, || {
        let pose = scans[i % scans.len()].0.pose;
        i += 1;
        let path = PathMsg {
            stamp: SimTime::EPOCH,
            waypoints: vec![pose.position(), goal],
        };
        black_box(dwa.compute(&cm, pose, &path, goal));
    });
    out.put("nav.dwa_compute_us_p50", pct(&dwa_ns, 0.5) / 1e3, "us");
    out.put("nav.dwa_compute_us_p99", pct(&dwa_ns, 0.99) / 1e3, "us");

    let planner = GlobalPlanner::new(PlannerConfig {
        allow_unknown: explore,
        ..PlannerConfig::default()
    });
    let plan = samples(50, || {
        black_box(
            planner
                .plan(&cm, cfg.start.position(), goal, SimTime::EPOCH)
                .ok(),
        );
    });
    out.put("nav.plan_us", pct(&plan, 0.5) / 1e3, "us");

    if explore {
        let explorer = FrontierExplorer::new(FrontierConfig::default());
        let frontier = samples(100, || {
            black_box(explorer.select_goal(&known, cfg.start.position(), SimTime::EPOCH));
        });
        out.put("nav.frontier_us", pct(&frontier, 0.5) / 1e3, "us");
        out.put("nav.amcl_us", 0.0, "us");
    } else {
        let mut amcl = Amcl::new(
            AmclConfig::default(),
            &truth,
            cfg.start,
            SimRng::seed_from_u64(seed),
        );
        let amcl_ns = samples(300, || {
            let (odom, scan) = &scans[i % scans.len()];
            i += 1;
            black_box(amcl.process(odom, scan));
        });
        out.put("nav.amcl_us", pct(&amcl_ns, 0.5) / 1e3, "us");
        out.put("nav.frontier_us", 0.0, "us");
    }

    // slam: the offloaded filter update and one scan's map integration.
    if explore {
        let slam_cfg = SlamConfig {
            num_particles: cfg.slam_particles,
            threads: 1,
            map_dims: *cfg.world.dims(),
            ..SlamConfig::default()
        };
        let mut slam = GMapping::new(slam_cfg, cfg.start, SimRng::seed_from_u64(seed));
        let mut slam_drive = Drive::new(&cfg, seed ^ 0x51a3);
        let process = samples(1000, || {
            let odom = slam_drive.advance();
            let scan = slam_drive.scan();
            black_box(slam.process(&odom, &scan));
        });
        out.put("slam.process_ms_p50", pct(&process, 0.5) / 1e6, "ms");
        out.put("slam.process_ms_p99", pct(&process, 0.99) / 1e6, "ms");
        let mut grid = OccupancyGrid::new(*cfg.world.dims());
        let integrate = samples(1000, || {
            let (odom, scan) = &scans[i % scans.len()];
            i += 1;
            let mut meter = WorkMeter::new();
            grid.integrate_scan(odom.pose, scan, &mut meter);
            black_box(meter.finish());
        });
        out.put("slam.integrate_us", pct(&integrate, 0.5) / 1e3, "us");
    } else {
        out.put("slam.process_ms_p50", 0.0, "ms");
        out.put("slam.process_ms_p99", 0.0, "ms");
        out.put("slam.integrate_us", 0.0, "us");
    }

    // sim: cloud admission at the workload's tenants per pool, every
    // tenant admitting the heavy VDP stages once per 200 ms window.
    let tenants = kind.tenants_per_pool() as u64;
    let admit_ns = if tenants == 0 {
        0.0
    } else {
        let hw = cfg.deployment.remote_platform().hw_threads;
        let sched =
            CloudScheduler::elastic(hw, Duration::from_millis(200), ElasticConfig::balanced());
        let stages = [NodeKind::CostmapGen, NodeKind::PathTracking];
        let windows = 200_000 / (tenants * stages.len() as u64);
        let t = Instant::now();
        for w in 0..windows {
            let now = SimTime::EPOCH + Duration::from_millis(200 * w);
            for tenant in 1..=tenants {
                for stage in stages {
                    black_box(sched.admit(
                        tenant,
                        stage,
                        now,
                        cfg.deployment.threads,
                        Duration::from_millis(20),
                    ));
                }
            }
        }
        t.elapsed().as_nanos() as f64 / (windows * tenants * stages.len() as u64) as f64
    };
    out.put("sim.cloud_admit_ns", admit_ns, "ns");

    // net: one scan-sized datagram through the vehicle's radio, under
    // the workload's fault schedule.
    let signal = SignalModel::new(cfg.wireless.clone(), cfg.wap);
    let wan = cfg
        .deployment
        .site
        .map_or(Duration::ZERO, |site| site.wan_latency());
    let mut ch = UdpChannel::new(signal, wan, SimRng::seed_from_u64(seed));
    if kind == Kind::Chaos {
        ch.set_faults(chaos_faults(seed), true);
    }
    let payload: Bytes = to_bytes(&scans[0].1).expect("scan encodes");
    let mut now = SimTime::EPOCH;
    let udp = samples(20_000, || {
        let pos = scans[i % scans.len()].0.pose.position();
        i += 1;
        now += Duration::from_millis(1);
        ch.send(now, pos, payload.clone());
        ch.tick(now + Duration::from_millis(10), pos);
        black_box(ch.recv());
    });
    out.put("net.udp_packet_us", pct(&udp, 0.5) / 1e3, "us");

    // middleware: the wire codec and the in-process bus, one scan each.
    let codec = samples(20_000, || {
        let scan = &scans[i % scans.len()].1;
        i += 1;
        let bytes = to_bytes(scan).expect("scan encodes");
        black_box(from_bytes::<LaserScan>(&bytes).expect("scan decodes"));
    });
    out.put("middleware.codec_scan_us", pct(&codec, 0.5) / 1e3, "us");
    let bus = Bus::new();
    let sub = bus.subscribe(TopicName::SCAN, 1);
    let bus_ns = samples(20_000, || {
        let scan = &scans[i % scans.len()].1;
        i += 1;
        bus.publish(TopicName::SCAN, scan).expect("scan encodes");
        black_box(sub.recv::<LaserScan>().expect("scan decodes"));
    });
    out.put("middleware.bus_scan_us", pct(&bus_ns, 0.5) / 1e3, "us");
}
