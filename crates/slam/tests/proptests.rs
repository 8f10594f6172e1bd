//! Property-based tests for the SLAM stack: map-update invariants,
//! scan-matcher behaviour, and filter conservation laws.

use lgv_slam::map::OccupancyGrid;
use lgv_slam::motion::{MotionModel, MotionNoise};
use lgv_slam::pool::ParallelExecutor;
use lgv_slam::scan_match::{ScanCache, ScanMatcher, ScanMatcherConfig};
use lgv_slam::{GMapping, SlamConfig};
use lgv_types::prelude::*;
use proptest::prelude::*;
use std::f64::consts::PI;

fn box_scan(pose: Pose2D, beams: usize) -> LaserScan {
    let (xmin, xmax, ymin, ymax) = (0.5, 7.5, 0.5, 7.5);
    let inc = 2.0 * PI / beams as f64;
    let ranges = (0..beams)
        .map(|i| {
            let a = pose.theta + i as f64 * inc;
            let (c, s) = (a.cos(), a.sin());
            let tx = if c > 1e-12 {
                (xmax - pose.x) / c
            } else if c < -1e-12 {
                (xmin - pose.x) / c
            } else {
                f64::INFINITY
            };
            let ty = if s > 1e-12 {
                (ymax - pose.y) / s
            } else if s < -1e-12 {
                (ymin - pose.y) / s
            } else {
                f64::INFINITY
            };
            tx.min(ty).min(3.5)
        })
        .collect();
    LaserScan {
        stamp: SimTime::EPOCH,
        angle_min: 0.0,
        angle_increment: inc,
        range_max: 3.5,
        ranges,
    }
}

proptest! {
    #[test]
    fn occupancy_probabilities_stay_valid(
        px in 1.5f64..6.5, py in 1.5f64..6.5, th in -PI..PI, repeats in 1usize..6,
    ) {
        let dims = GridDims::new(160, 160, 0.05, Point2::ORIGIN);
        let mut map = OccupancyGrid::new(dims);
        let pose = Pose2D::new(px, py, th);
        let scan = box_scan(pose, 90);
        let mut meter = WorkMeter::new();
        for _ in 0..repeats {
            map.integrate_scan(pose, &scan, &mut meter);
        }
        for col in (0..160).step_by(7) {
            for row in (0..160).step_by(7) {
                let p = map.occ_prob(GridIndex::new(col, row));
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn sensor_origin_cell_is_never_occupied(
        px in 1.5f64..6.5, py in 1.5f64..6.5, repeats in 2usize..6,
    ) {
        let dims = GridDims::new(160, 160, 0.05, Point2::ORIGIN);
        let mut map = OccupancyGrid::new(dims);
        let pose = Pose2D::new(px, py, 0.0);
        let scan = box_scan(pose, 90);
        let mut meter = WorkMeter::new();
        for _ in 0..repeats {
            map.integrate_scan(pose, &scan, &mut meter);
        }
        // The robot stands in free space; repeated integration must
        // never mark its own cell occupied.
        prop_assert!(!map.is_occupied(dims.world_to_grid(pose.position())));
    }

    #[test]
    fn scan_matcher_score_is_maximal_near_truth(
        dx in -0.15f64..0.15, dy in -0.15f64..0.15,
    ) {
        prop_assume!(dx.abs() + dy.abs() > 0.08);
        let dims = GridDims::new(160, 160, 0.05, Point2::ORIGIN);
        let mut map = OccupancyGrid::new(dims);
        let truth = Pose2D::new(4.0, 4.0, 0.0);
        let scan = box_scan(truth, 180);
        let mut meter = WorkMeter::new();
        for _ in 0..4 {
            map.integrate_scan(truth, &scan, &mut meter);
        }
        let sm = ScanMatcher::default();
        let (s_true, _) = sm.score(&map, truth, &scan);
        let (s_off, _) =
            sm.score(&map, Pose2D::new(truth.x + dx, truth.y + dy, 0.0), &scan);
        prop_assert!(s_true >= s_off, "true {s_true} vs offset {s_off}");
    }

    #[test]
    fn motion_model_is_finite(
        dx in -0.5f64..0.5, dy in -0.5f64..0.5, dth in -1.0f64..1.0, seed in 0u64..100,
    ) {
        let m = MotionModel::new(MotionNoise::default());
        let mut rng = SimRng::seed_from_u64(seed);
        let q = m.sample(Pose2D::new(1.0, 1.0, 0.3), Pose2D::new(dx, dy, dth), &mut rng);
        prop_assert!(q.x.is_finite() && q.y.is_finite() && q.theta.is_finite());
        prop_assert!(q.theta > -PI && q.theta <= PI);
    }

    #[test]
    fn executor_chunk_results_cover_input(threads in 1usize..9, n in 0usize..200) {
        let ex = ParallelExecutor::new(threads);
        let mut items: Vec<u64> = (0..n as u64).collect();
        let sums = ex.run_chunks(&mut items, |c| c.iter().sum::<u64>());
        prop_assert_eq!(
            sums.iter().sum::<u64>(),
            (0..n as u64).sum::<u64>()
        );
    }

    #[test]
    fn slam_update_work_is_positive_and_mostly_parallel(
        particles in 2usize..12, seed in 0u64..50,
    ) {
        let cfg = SlamConfig {
            num_particles: particles,
            threads: 1,
            map_dims: GridDims::new(160, 160, 0.05, Point2::ORIGIN),
            ..SlamConfig::default()
        };
        let start = Pose2D::new(4.0, 4.0, 0.0);
        let mut slam = GMapping::new(cfg, start, SimRng::seed_from_u64(seed));
        let odom = OdometryMsg { stamp: SimTime::EPOCH, pose: start, twist: Twist::STOP };
        // First update builds maps; second does real matching.
        slam.process(&odom, &box_scan(start, 90));
        let out = slam.process(&odom, &box_scan(start, 90));
        prop_assert!(out.work.total_cycles() > 0.0);
        prop_assert!(out.work.parallel_fraction() > 0.5);
        prop_assert_eq!(out.work.parallel_items as usize, particles);
        prop_assert!(out.neff >= 1.0 - 1e-9);
        prop_assert!(out.neff <= particles as f64 + 1e-9);
    }

    #[test]
    fn slam_thread_count_does_not_change_estimates(
        threads in 2usize..6, seed in 0u64..30,
    ) {
        let mk = |threads: usize| {
            let cfg = SlamConfig {
                num_particles: 6,
                threads,
                map_dims: GridDims::new(160, 160, 0.05, Point2::ORIGIN),
                ..SlamConfig::default()
            };
            let start = Pose2D::new(4.0, 4.0, 0.0);
            let mut slam = GMapping::new(cfg, start, SimRng::seed_from_u64(seed));
            let mut pose = start;
            for i in 0..4 {
                let odom = OdometryMsg {
                    stamp: SimTime::EPOCH + Duration::from_millis(200 * i),
                    pose,
                    twist: Twist::STOP,
                };
                slam.process(&odom, &box_scan(pose, 90));
                pose = Pose2D::new(pose.x + 0.03, pose.y, 0.0);
            }
            slam.best_pose()
        };
        prop_assert_eq!(mk(1), mk(threads));
    }
}

// ------------------------------------------------------------------
// Kernel equivalence: the map integrator and the scan matcher against
// test-local copies of their straightforward forms (libm `floor`, the
// cell-by-cell `GridRay` iterator with a `contains` + `flat` per cell,
// one pass per beam, no score memo). Every log-odds cell, score, pose,
// `beam_evals` and `Work` field must agree bit for bit.

mod reference {
    use lgv_slam::rbpf::cost::CYCLES_PER_MAP_CELL_UPDATE;
    use lgv_types::prelude::*;

    const L_OCC: f32 = 0.9;
    const L_FREE: f32 = -0.35;
    const L_MIN: f32 = -8.0;
    const L_MAX: f32 = 8.0;
    const L_OCC_THRESHOLD: f32 = 0.7;
    const L_FREE_THRESHOLD: f32 = -0.7;

    pub fn world_to_grid(dims: &GridDims, p: Point2) -> GridIndex {
        GridIndex::new(
            ((p.x - dims.origin.x) / dims.resolution).floor() as i32,
            ((p.y - dims.origin.y) / dims.resolution).floor() as i32,
        )
    }

    /// Amanatides–Woo traversal, cell by cell.
    pub fn ray(dims: &GridDims, from: Point2, to: Point2) -> Vec<GridIndex> {
        let start = world_to_grid(dims, from);
        let end = world_to_grid(dims, to);
        let dir = to - from;
        let res = dims.resolution;
        let step_x = if dir.x > 0.0 { 1 } else { -1 };
        let step_y = if dir.y > 0.0 { 1 } else { -1 };
        let fx = (from.x - dims.origin.x) / res - start.col as f64;
        let fy = (from.y - dims.origin.y) / res - start.row as f64;
        let mut t_max_x = if dir.x.abs() < 1e-12 {
            f64::INFINITY
        } else if dir.x > 0.0 {
            (1.0 - fx) * res / dir.x.abs()
        } else {
            fx * res / dir.x.abs()
        };
        let mut t_max_y = if dir.y.abs() < 1e-12 {
            f64::INFINITY
        } else if dir.y > 0.0 {
            (1.0 - fy) * res / dir.y.abs()
        } else {
            fy * res / dir.y.abs()
        };
        let t_delta_x = if dir.x.abs() < 1e-12 {
            f64::INFINITY
        } else {
            res / dir.x.abs()
        };
        let t_delta_y = if dir.y.abs() < 1e-12 {
            f64::INFINITY
        } else {
            res / dir.y.abs()
        };
        let mut remaining = (start.chebyshev(end) as u32 + 1) * 2 + 4;
        let mut cur = start;
        let mut out = Vec::new();
        while remaining > 0 {
            remaining -= 1;
            out.push(cur);
            if cur == end {
                break;
            }
            if t_max_x < t_max_y {
                t_max_x += t_delta_x;
                cur.col += step_x;
            } else {
                t_max_y += t_delta_y;
                cur.row += step_y;
            }
        }
        out
    }

    /// Log-odds grid with the integrator and the matcher.
    pub struct Map {
        pub dims: GridDims,
        pub logodds: Vec<f32>,
    }

    impl Map {
        pub fn new(dims: GridDims) -> Self {
            Map {
                dims,
                logodds: vec![0.0; dims.len()],
            }
        }

        fn get(&self, idx: GridIndex) -> f32 {
            if self.dims.contains(idx) {
                self.logodds[self.dims.flat(idx)]
            } else {
                0.0
            }
        }

        fn is_occupied(&self, idx: GridIndex) -> bool {
            self.get(idx) > L_OCC_THRESHOLD
        }

        fn is_free(&self, idx: GridIndex) -> bool {
            self.get(idx) < L_FREE_THRESHOLD
        }

        fn is_unknown(&self, idx: GridIndex) -> bool {
            !self.is_occupied(idx) && !self.is_free(idx)
        }

        fn bump(&mut self, idx: GridIndex, delta: f32) {
            if self.dims.contains(idx) {
                let flat = self.dims.flat(idx);
                self.logodds[flat] = (self.logodds[flat] + delta).clamp(L_MIN, L_MAX);
            }
        }

        pub fn integrate_scan(&mut self, pose: Pose2D, scan: &LaserScan, meter: &mut WorkMeter) {
            let origin = pose.position();
            let mut cell_updates = 0u64;
            for i in 0..scan.len() {
                let hit = scan.is_hit(i);
                let endpoint = scan.beam_endpoint(pose, i);
                let end_cell = world_to_grid(&self.dims, endpoint);
                for cell in ray(&self.dims, origin, endpoint) {
                    if cell == end_cell {
                        break;
                    }
                    self.bump(cell, L_FREE);
                    cell_updates += 1;
                }
                if hit {
                    self.bump(end_cell, L_OCC);
                    cell_updates += 1;
                }
            }
            meter.serial_ops(cell_updates, CYCLES_PER_MAP_CELL_UPDATE);
        }

        pub fn score(&self, pose: Pose2D, offsets: &[(f64, f64)]) -> (f64, u64) {
            let mut total = 0.0;
            let (sin_th, cos_th) = pose.theta.sin_cos();
            for &(ox, oy) in offsets {
                let endpoint = Point2::new(
                    pose.x + ox * cos_th - oy * sin_th,
                    pose.y + ox * sin_th + oy * cos_th,
                );
                let c = world_to_grid(&self.dims, endpoint);
                if self.is_occupied(c) {
                    total += 1.0;
                } else if c.neighbors8().iter().any(|n| self.is_occupied(*n)) {
                    total += 0.55;
                } else if self.is_unknown(c) {
                    total += 0.05;
                }
            }
            (total, offsets.len() as u64)
        }
    }

    /// The matcher's robot-frame endpoint offsets of the used hit beams.
    pub fn offsets(scan: &LaserScan, beam_skip: usize) -> Vec<(f64, f64)> {
        let skip = beam_skip.max(1);
        let mut offsets = Vec::new();
        let mut i = 0;
        while i < scan.len() {
            if scan.is_hit(i) {
                let r = scan.ranges[i].min(scan.range_max);
                let (sin_a, cos_a) = scan.beam_angle(i).sin_cos();
                offsets.push((r * cos_a, r * sin_a));
            }
            i += skip;
        }
        offsets
    }

    /// Coordinate-descent hill climber scoring every candidate afresh.
    /// Returns (pose, score, converged, beam_evals).
    pub fn optimize(
        cfg: &lgv_slam::ScanMatcherConfig,
        map: &Map,
        prediction: Pose2D,
        offsets: &[(f64, f64)],
    ) -> (Pose2D, f64, bool, u64) {
        let mut evals = 0u64;
        let mut best = prediction;
        let (mut best_score, used) = map.score(best, offsets);
        evals += used;
        if used == 0 {
            return (prediction, 0.0, false, evals);
        }
        let mut dt = cfg.step_trans;
        let mut dr = cfg.step_rot;
        for _ in 0..cfg.levels {
            let mut improved = true;
            while improved {
                improved = false;
                let candidates = [
                    Pose2D::new(best.x + dt, best.y, best.theta),
                    Pose2D::new(best.x - dt, best.y, best.theta),
                    Pose2D::new(best.x, best.y + dt, best.theta),
                    Pose2D::new(best.x, best.y - dt, best.theta),
                    Pose2D::new(best.x, best.y, best.theta + dr),
                    Pose2D::new(best.x, best.y, best.theta - dr),
                ];
                for cand in candidates {
                    let (s, u) = map.score(cand, offsets);
                    evals += u;
                    if s > best_score {
                        best_score = s;
                        best = cand;
                        improved = true;
                    }
                }
            }
            dt /= 2.0;
            dr /= 2.0;
        }
        let converged = best_score / used as f64 >= cfg.min_score;
        (
            if converged { best } else { prediction },
            best_score,
            converged,
            evals,
        )
    }
}

fn work_bits(w: Work) -> (u64, u64, u32) {
    (
        w.serial_cycles.to_bits(),
        w.parallel_cycles.to_bits(),
        w.parallel_items,
    )
}

fn pose_bits(p: Pose2D) -> (u64, u64, u64) {
    (p.x.to_bits(), p.y.to_bits(), p.theta.to_bits())
}

/// A pose either anywhere over the grid or within one cell of (and
/// possibly just outside) an edge; sometimes snapped onto a cell
/// border with an axis-aligned or 45° heading so beams run along
/// cell borders and through cell corners.
fn random_pose(rng: &mut SimRng, dims: &GridDims) -> Pose2D {
    let (ww, wh) = dims.world_size();
    let res = dims.resolution;
    let coord = |rng: &mut SimRng, extent: f64| {
        if rng.chance(0.5) {
            rng.uniform_range(0.0, extent)
        } else if rng.chance(0.5) {
            rng.uniform_range(-res, res)
        } else {
            rng.uniform_range(extent - res, extent + res)
        }
    };
    let (mut x, mut y) = (coord(rng, ww), coord(rng, wh));
    let mut theta = rng.uniform_range(-PI, PI);
    if rng.chance(0.4) {
        x = (x / res).round() * res;
        if rng.chance(0.5) {
            y = (y / res).round() * res;
        }
        theta = rng.index(8) as f64 * (PI / 4.0) - PI;
    }
    Pose2D::new(dims.origin.x + x, dims.origin.y + y, theta)
}

/// A scan whose beams hit, miss (exactly `range_max`) or overshoot the
/// grid; 45° increments keep border-aligned poses on cell borders.
fn random_scan(rng: &mut SimRng, dims: &GridDims) -> LaserScan {
    let (ww, wh) = dims.world_size();
    let range_max = rng.uniform_range(0.5, 1.2) * ww.max(wh);
    let (angle_min, angle_increment, beams) = if rng.chance(0.3) {
        (0.0, PI / 4.0, 8 * (1 + rng.index(12)))
    } else {
        let beams = 1 + rng.index(200);
        (rng.uniform_range(-PI, PI), 2.0 * PI / beams as f64, beams)
    };
    let ranges = (0..beams)
        .map(|_| {
            if rng.chance(0.2) {
                range_max
            } else {
                rng.uniform_range(0.0, range_max)
            }
        })
        .collect();
    LaserScan {
        stamp: SimTime::EPOCH,
        angle_min,
        angle_increment,
        range_max,
        ranges,
    }
}

fn random_dims(rng: &mut SimRng) -> GridDims {
    let res = [0.05, 0.1, 0.0625][rng.index(3)];
    let origin = if rng.chance(0.5) {
        Point2::ORIGIN
    } else {
        Point2::new(rng.uniform_range(-2.0, 2.0), rng.uniform_range(-2.0, 2.0))
    };
    GridDims::new(
        8 + rng.index(50) as u32,
        8 + rng.index(50) as u32,
        res,
        origin,
    )
}

/// Build the same random map in the real grid and the reference: a
/// few poses, each scan integrated 1–4 times, so cells cross the
/// occupied and free thresholds in both directions.
fn random_maps(rng: &mut SimRng) -> (OccupancyGrid, reference::Map, Result<(), String>) {
    let dims = random_dims(rng);
    let mut map = OccupancyGrid::new(dims);
    let mut refm = reference::Map::new(dims);
    let mut check = Ok(());
    for _ in 0..1 + rng.index(5) {
        let pose = random_pose(rng, &dims);
        let scan = random_scan(rng, &dims);
        for _ in 0..1 + rng.index(4) {
            let (mut m1, mut m2) = (WorkMeter::new(), WorkMeter::new());
            map.integrate_scan(pose, &scan, &mut m1);
            refm.integrate_scan(pose, &scan, &mut m2);
            if check.is_ok() && work_bits(m1.finish()) != work_bits(m2.finish()) {
                check = Err(format!(
                    "integrate_scan work {:?} vs reference {:?} at {pose:?}",
                    m1.finish(),
                    m2.finish()
                ));
            }
        }
    }
    if check.is_ok() {
        for flat in 0..dims.len() {
            let idx = dims.unflat(flat);
            if map.logodds(idx).to_bits() != refm.logodds[flat].to_bits() {
                check = Err(format!(
                    "cell {idx:?}: log-odds {} vs reference {}",
                    map.logodds(idx),
                    refm.logodds[flat]
                ));
                break;
            }
        }
    }
    (map, refm, check)
}

proptest! {
    #[test]
    fn integrate_scan_matches_reference(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let (_, _, check) = random_maps(&mut rng);
        prop_assert!(check.is_ok(), "{}", check.unwrap_err());
    }

    #[test]
    fn scan_matcher_matches_reference(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let (map, refm, check) = random_maps(&mut rng);
        prop_assert!(check.is_ok(), "{}", check.unwrap_err());
        let dims = *map.dims();
        let cfg = ScanMatcherConfig {
            beam_skip: 1 + rng.index(3),
            levels: 1 + rng.index(4) as u32,
            min_score: rng.uniform_range(0.0, 0.4),
            ..ScanMatcherConfig::default()
        };
        let sm = ScanMatcher::new(cfg.clone());
        for _ in 0..3 {
            let scan = random_scan(&mut rng, &dims);
            let pose = random_pose(&mut rng, &dims);
            let offsets = reference::offsets(&scan, cfg.beam_skip);
            let cache = ScanCache::new(&scan, cfg.beam_skip);
            let (s, used) = sm.score_cached(&map, pose, &cache);
            let (rs, rused) = refm.score(pose, &offsets);
            prop_assert_eq!((s.to_bits(), used), (rs.to_bits(), rused));
            let r = sm.optimize_cached(&map, pose, &cache);
            let (rpose, rscore, rconv, revals) = reference::optimize(&cfg, &refm, pose, &offsets);
            prop_assert_eq!(pose_bits(r.pose), pose_bits(rpose));
            prop_assert_eq!(r.score.to_bits(), rscore.to_bits());
            prop_assert_eq!(r.converged, rconv);
            prop_assert_eq!(r.beam_evals, revals);
        }
    }
}

/// One scan of the lab preset from the lab start pose, then a second
/// one a few centimetres on: the `Work` records of map integration and
/// of a full filter update are pinned bit for bit, so a kernel rewrite
/// that changes how many cells or beams it counts fails here.
#[test]
fn lab_scan_work_bits_are_pinned() {
    use lgv_sim::world::presets;
    use lgv_sim::{Lidar, LidarConfig};

    let world = presets::lab();
    let mut lidar = Lidar::new(LidarConfig::default(), SimRng::seed_from_u64(7));
    let start = presets::lab_start();
    let scan = lidar.scan(&world, start, SimTime::EPOCH);

    let mut map = OccupancyGrid::new(SlamConfig::default().map_dims);
    let mut meter = WorkMeter::new();
    map.integrate_scan(start, &scan, &mut meter);
    let integrate = work_bits(meter.finish());

    let cfg = SlamConfig {
        num_particles: 8,
        ..SlamConfig::default()
    };
    let mut slam = GMapping::new(cfg, start, SimRng::seed_from_u64(7));
    let odom = |ms: u64, pose: Pose2D| OdometryMsg {
        stamp: SimTime::EPOCH + Duration::from_millis(ms),
        pose,
        twist: Twist::STOP,
    };
    slam.process(&odom(0, start), &scan);
    let moved = Pose2D::new(start.x + 0.04, start.y + 0.01, start.theta + 0.02);
    let scan2 = lidar.scan(&world, moved, SimTime::EPOCH + Duration::from_millis(200));
    let out = slam.process(&odom(200, moved), &scan2);
    let update = work_bits(out.work);
    // 24,661 cell updates × 50 cycles.
    assert_eq!(integrate, (1_233_050f64.to_bits(), 0, 0));
    assert_eq!(
        update,
        (8_800f64.to_bits(), 186_915_350f64.to_bits(), 8),
        "{:?}",
        out.work
    );
    assert_eq!(
        pose_bits(slam.best_pose()),
        (
            1.529_221_868_256_883_4f64.to_bits(),
            5.007_728_942_995_852f64.to_bits(),
            0.025_884_617_964_268_22f64.to_bits()
        )
    );
}
